import numpy as np
import pytest

from tokenwatt import BinGrid, HardwareSpec, ModelConfig

# Property tests draw the same examples on every run, with no time limit per
# example, and stay within a few seconds each. Without hypothesis they skip
# and the rest of the suite still runs.
try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("tokenwatt", derandomize=True, deadline=None, max_examples=100,
                              database=None)
    settings.load_profile("tokenwatt")

# 3-request fixture with hand-computed expectations, used across CLI and
# acceptance tests: bins (256, 8) x2 and (1024, 64) x1; vllm fractional
# total 1.0 + 5.0 = 6.0 J (ceiling 12.0 J); naive total 6.0 + 14.0 = 20.0 J.
FIXTURE_TRACE = "input_tokens,output_tokens\n215,7\n215,7\n929,41\n"
FIXTURE_TABLE = (
    "backend,device,input_cap,output_cap,max_batch,batch_energy,energy_unit,"
    "prefill_energy,decode_energy,samples_measured,warmup_batches\n"
    "vllm,A100,256,8,4,2.0,J,,,1024,20\n"
    "vllm,A100,1024,64,2,10.0,J,,,1024,20\n"
    "naive,A100,256,8,1,3.0,J,,,1024,20\n"
    "naive,A100,1024,64,1,14.0,J,,,1024,20\n"
)
TOY_MODEL_CFG = (
    "n_layers = 1\nd_model = 4\nn_heads = 1\nn_kv_heads = 1\n"
    "d_ff = 8\nvocab_size = 10\n"
)
A100_CFG = "name = A100-PCIe\ntdp = 300\npeak_flops = 309.7e12\n"


def token_pairs(columns):
    """The (input, output) token counts of a trace's columns, row by row."""
    return list(zip(columns.inputs.tolist(), columns.outputs.tolist()))


@pytest.fixture
def toy_model():
    return ModelConfig(n_layers=1, d_model=4, n_heads=1, n_kv_heads=1,
                       d_ff=8, vocab_size=10)


@pytest.fixture
def a100():
    return HardwareSpec(name="A100-PCIe", tdp=300.0, peak_flops=309.7e12)


@pytest.fixture
def small_grid():
    return BinGrid(input_bins=(32, 128, 256, 1024), output_bins=(8, 64))


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


@pytest.fixture
def fixture_paths(tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text(FIXTURE_TRACE, encoding="utf-8")
    table = tmp_path / "table.csv"
    table.write_text(FIXTURE_TABLE, encoding="utf-8")
    model = tmp_path / "toy_model.cfg"
    model.write_text(TOY_MODEL_CFG, encoding="utf-8")
    hw = tmp_path / "a100.cfg"
    hw.write_text(A100_CFG, encoding="utf-8")
    return {"trace": trace, "table": table, "model": model, "hw": hw, "dir": tmp_path}
