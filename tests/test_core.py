import copy
import pickle

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
    RequestColumns,
    ValidationError,
    bin_arrays,
    derive_param_count,
)
from tokenwatt.core import read_config_file, token_column


def test_unit_constants():
    assert J_PER_KWH == 3.6e6
    assert J_PER_WH == 3.6e3


def test_default_grid_caps():
    assert DEFAULT_INPUT_BINS == (32, 128, 256, 512, 1024, 2048, 4096, 8192)
    assert DEFAULT_OUTPUT_BINS == (8, 16, 32, 64, 128, 256, 512)
    assert DEFAULT_GRID.input_bins[-1] == 8192
    assert DEFAULT_GRID.output_bins[-1] == 512
    assert len(DEFAULT_GRID.bins()) == 56


def test_request_validation():
    # RequestColumns and bin_arrays check token columns alike: no silent
    # truncation, no bool, nothing int64 cannot hold and no negative, whether
    # the bad value comes alone or among good ones, in a list or an array
    # (np.array([7, True]) is already int64, so only lists mix them)
    def bin_default(inputs, outputs):
        return bin_arrays(inputs, outputs, DEFAULT_GRID)

    w = bin_default([0], [0])
    assert len(RequestColumns([0], [0])) == 1 and sum(w.counts.values()) + w.total_excluded == 1
    for make in (RequestColumns, bin_default):
        for bad in (1.5, 2.0, True, "3", None, 2**63, 10**23, -1, -(2**63)):
            for column in ([bad], [7, bad], np.array([bad])):
                with pytest.raises(ValidationError, match="int64"):
                    make(column, [1] * len(column))
                with pytest.raises(ValidationError, match="int64"):
                    make([1] * len(column), column)
        for column in ([[1, 2]], np.array([[1], [2]]), 5, np.int64(5)):  # a column is 1-D
            with pytest.raises(ValidationError, match="1-D int64 column"):
                make(column, column)
        with pytest.raises(ValidationError, match="unequal token columns: 2 and 1 rows"):
            make([1, 2], [1])
    cols = RequestColumns([2**63 - 1, np.int64(7)], np.array([3, 4], dtype=np.uint8))
    assert cols.inputs.tolist() == [2**63 - 1, 7] and cols.outputs.tolist() == [3, 4]
    assert cols.outputs.dtype == np.int64
    assert bin_default(np.array([2**63 - 1], dtype=np.uint64),
                       np.array([3], dtype=np.int32)).excluded_input == 1


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                   np.uint8, np.uint16, np.uint32, np.uint64])
def test_token_column_keeps_every_integer_dtype(dtype):
    info = np.iinfo(dtype)
    high = min(info.max, 2**63 - 1)
    column = token_column(np.array([0, 1, high], dtype=dtype), "tokens")
    assert column.dtype == np.int64 and column.tolist() == [0, 1, high]
    if info.min < 0:
        with pytest.raises(ValidationError, match=f"got {info.min}"):
            token_column(np.array([5, info.min], dtype=dtype), "tokens")
    if info.max > high:
        with pytest.raises(ValidationError, match=f"got {high + 1}"):
            token_column(np.array([high + 1, 5], dtype=dtype), "tokens")


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
    inputs, outputs = np.array([10, 0, 7]), np.array([2, 0, 3])
    cols = RequestColumns(inputs, outputs)
    assert len(cols) == 3 and cols
    # int64 columns are held as they are, not copied
    assert cols.inputs is inputs and cols.outputs is outputs
    assert RequestColumns((10, 0), range(2)).outputs.tolist() == [0, 1]
    # a trace is its two columns, not a sequence of per-request objects
    assert not hasattr(cols, "__getitem__") and not hasattr(cols, "__iter__")
    for empty in ([], np.array([], dtype=np.int64), np.array([], dtype=float)):
        cols = RequestColumns(empty, empty)
        assert not cols and cols.inputs.dtype == cols.outputs.dtype == np.int64


@pytest.mark.parametrize("name", ["inputs", "outputs"])
def test_request_columns_cannot_be_replaced_after_their_check(name):
    cols = RequestColumns([1, 2, 3], [4, 5, 6])
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
        setattr(cols, name, np.array([7]))
    with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
        delattr(cols, name)
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        cols.extra = 1
    assert len(cols) == 3 and getattr(cols, name).tolist() in ([1, 2, 3], [4, 5, 6])
    for back in (pickle.loads(pickle.dumps(cols)), copy.copy(cols)):
        assert back.inputs.tolist() == [1, 2, 3] and back.outputs.tolist() == [4, 5, 6]
