import numpy as np
import pytest

from tokenwatt import (
    Bin,
    BinGrid,
    DEFAULT_GRID,
    DEFAULT_INPUT_BINS,
    DEFAULT_OUTPUT_BINS,
    Energy,
    HardwareSpec,
    J_PER_KWH,
    J_PER_WH,
    ModelConfig,
    Request,
    ValidationError,
    derive_param_count,
)
from tokenwatt.core import RequestColumns, read_config_file


def test_unit_constants():
    assert J_PER_KWH == 3.6e6
    assert J_PER_WH == 3.6e3


def test_default_grid_caps():
    assert DEFAULT_INPUT_BINS == (32, 128, 256, 512, 1024, 2048, 4096, 8192)
    assert DEFAULT_OUTPUT_BINS == (8, 16, 32, 64, 128, 256, 512)
    assert DEFAULT_GRID.max_input == 8192
    assert DEFAULT_GRID.max_output == 512
    assert len(DEFAULT_GRID.bins()) == 56


def test_request_validation():
    assert Request(0, 0).input_tokens == 0
    with pytest.raises(ValidationError):
        Request(-1, 5)
    with pytest.raises(ValidationError):
        Request(5, -1)
    # no silent truncation, no bool, nothing numpy cannot hold
    for bad in (1.5, 2.0, True, "3", None, 2**63, 10**23):
        with pytest.raises(ValidationError, match="int64"):
            Request(bad, 1)
        with pytest.raises(ValidationError, match="int64"):
            Request(1, bad)
    assert Request(2**63 - 1, np.int64(7)) == Request(2**63 - 1, 7)
    assert Request(np.uint8(3), np.int32(4)).input_tokens == 3


def test_bin_validation_and_order():
    assert Bin(32, 8) < Bin(32, 16) < Bin(128, 8)
    with pytest.raises(ValidationError):
        Bin(0, 8)
    with pytest.raises(ValidationError):
        Bin(32, 0)


def test_grid_requires_strictly_increasing_caps():
    with pytest.raises(ValidationError):
        BinGrid(input_bins=(32, 32, 128), output_bins=(8,))
    with pytest.raises(ValidationError):
        BinGrid(input_bins=(128, 32), output_bins=(8,))
    with pytest.raises(ValidationError):
        BinGrid(input_bins=(), output_bins=(8,))


def test_grid_contains():
    g = BinGrid(input_bins=(32, 128), output_bins=(8, 64))
    assert g.contains(Bin(32, 64))
    assert not g.contains(Bin(64, 64))
    assert g.bins() == [Bin(32, 8), Bin(32, 64), Bin(128, 8), Bin(128, 64)]


def test_hardware_spec_validation():
    with pytest.raises(ValidationError):
        HardwareSpec(name="x", tdp=0.0, peak_flops=1.0)
    with pytest.raises(ValidationError):
        HardwareSpec(name="x", tdp=1.0, peak_flops=-1.0)


def test_model_config_validation():
    with pytest.raises(ValidationError):
        ModelConfig(n_layers=0, d_model=4, n_heads=1, n_kv_heads=1, d_ff=8, vocab_size=10)
    with pytest.raises(ValidationError):
        # d_model not divisible by n_heads
        ModelConfig(n_layers=1, d_model=6, n_heads=4, n_kv_heads=1, d_ff=8, vocab_size=10)
    with pytest.raises(ValidationError):
        # n_heads not divisible by n_kv_heads
        ModelConfig(n_layers=1, d_model=8, n_heads=4, n_kv_heads=3, d_ff=8, vocab_size=10)


def test_derive_param_count_toy(toy_model):
    # 10*4 emb + (4*4 + 2*4*4 + 4*4) + 3*4*8 + 10*4 head = 40+64+96+40
    assert derive_param_count(toy_model) == 240
    assert toy_model.param_count == 240


def test_derive_param_count_llama_shape():
    model = ModelConfig(n_layers=32, d_model=4096, n_heads=32, n_kv_heads=8,
                        d_ff=14336, vocab_size=128256)
    assert derive_param_count(model) == 8_029_995_008


def test_tied_embeddings_drop_head(toy_model):
    tied = ModelConfig(n_layers=1, d_model=4, n_heads=1, n_kv_heads=1, d_ff=8,
                       vocab_size=10, tied_embeddings=True)
    assert derive_param_count(tied) == 240 - 40


def test_n_params_override(toy_model):
    pinned = ModelConfig(n_layers=1, d_model=4, n_heads=1, n_kv_heads=1, d_ff=8,
                         vocab_size=10, n_params=1000)
    assert pinned.param_count == 1000
    assert derive_param_count(pinned) == 240


def test_energy_arithmetic():
    # Energy holds checked joules only: unit conversion is the table
    # loader's and the report's, and sums are estimator._total's
    with pytest.raises(ValidationError):
        Energy(-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="finite"):
            Energy(bad)


def test_config_file_parsing(tmp_path):
    path = tmp_path / "x.cfg"
    path.write_text("# comment\na = 1\n\nb = two words\n", encoding="utf-8")
    assert read_config_file(path) == {"a": "1", "b": "two words"}

    # only a whole line is a comment; a `#` after a key is part of its value
    path.write_text("  # indented comment\nname = A100 #2\n", encoding="utf-8")
    assert read_config_file(path) == {"name": "A100 #2"}

    # a leading byte-order mark is not part of the first key
    path.write_text("name = A100\ntdp = 300\npeak_flops = 1e12\n", encoding="utf-8-sig")
    assert HardwareSpec.from_file(path).name == "A100"

    path.write_text("a = 1\na = 2\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        read_config_file(path)

    path.write_text("no equals sign\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        read_config_file(path)


@pytest.mark.parametrize("char", ["\x1c", "\u2028", "\x85", "\x0c"])
def test_config_lines_end_only_at_newlines(tmp_path, char):
    # str.splitlines would also end a line at each of these characters
    path = tmp_path / "hw.cfg"
    path.write_text(f"name = A{char}100\r\ntdp = 300\rpeak_flops = 1e12\n", encoding="utf-8")
    assert HardwareSpec.from_file(path).name == f"A{char}100"
    path.write_text(f"# a{char}comment\nx{char}y\n", encoding="utf-8")
    with pytest.raises(ValidationError) as exc:
        read_config_file(path)
    assert str(exc.value) == f"{path}:2: expected `key = value`, got {f'x{char}y'!r}"


def test_config_from_file_roundtrip(tmp_path):
    hw_path = tmp_path / "hw.cfg"
    hw_path.write_text("name = A100\ntdp = 300\npeak_flops = 309.7e12\n", encoding="utf-8")
    hw = HardwareSpec.from_file(hw_path)
    assert hw.name == "A100"
    assert hw.tdp == 300.0
    assert hw.peak_flops == 309.7e12

    model_path = tmp_path / "m.cfg"
    model_path.write_text(
        "n_layers = 2\nd_model = 8\nn_heads = 2\nn_kv_heads = 1\n"
        "d_ff = 16\nvocab_size = 10\ntied_embeddings = true\n",
        encoding="utf-8",
    )
    model = ModelConfig.from_file(model_path)
    assert model.n_layers == 2
    assert model.tied_embeddings is True


def test_config_from_file_rejects_unknown_and_missing_keys(tmp_path):
    path = tmp_path / "hw.cfg"
    path.write_text("name = x\ntdp = 1\npeak_flops = 1\nbogus = 3\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        HardwareSpec.from_file(path)
    path.write_text("name = x\ntdp = 1\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        HardwareSpec.from_file(path)


def test_request_columns_view():
    cols = RequestColumns(np.array([10, 0, 7]), np.array([2, 0, 3]))
    assert len(cols) == 3 and cols
    assert cols[0] == Request(10, 2) and cols[-1] == Request(7, 3)
    assert cols[1:] == [Request(0, 0), Request(7, 3)]
    assert list(cols) == [Request(10, 2), Request(0, 0), Request(7, 3)]
    assert cols == [Request(10, 2), Request(0, 0), Request(7, 3)]
    assert cols != [Request(10, 2)]
    assert RequestColumns.of(cols) is cols
    assert RequestColumns.of(iter(list(cols))) == list(cols)
    with pytest.raises(IndexError):
        cols[3]
    assert not RequestColumns(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
