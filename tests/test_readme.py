"""The README's promises about the library, checked against the package: its
"Library use" block runs as written, and `tokenwatt.__all__` lists exactly
the public names bound at the package root."""

import re
import types
from pathlib import Path

import tokenwatt
from tokenwatt import (DEFAULT_GRID, HardwareSpec, ModelConfig, bin_workload, synthesize_table,
                       write_table)

README = Path(__file__).parent.parent / "README.md"


def _library_use_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    return block


def test_library_use_block_runs(tmp_path, monkeypatch):
    # the block loads `trace.csv` and `energy.csv` from the working directory
    # and prices on backend vllm, device A100; the table's model need not be
    # the block's
    hw = HardwareSpec(name="A100", tdp=300.0, peak_flops=309.7e12)
    model = ModelConfig(n_layers=2, d_model=64, n_heads=4, n_kv_heads=2, d_ff=128,
                        vocab_size=100)
    write_table(synthesize_table(DEFAULT_GRID, model, hw, efficiency=0.5, decode_penalty=2.0,
                                 backend="vllm"), tmp_path / "energy.csv")
    (tmp_path / "trace.csv").write_text(
        "Timestamp,Request tokens,Response tokens\n0,215,7\n1,929,x\n2,929,41\n",
        encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    names: dict = {}
    exec(compile(_library_use_block(), str(README), "exec"), names)
    assert names["load"].malformed_count == 1
    assert names["workload"] == bin_workload(names["trace"])
    w = names["workload"]
    assert sum(w.counts.values()) + w.total_excluded == 2
    assert names["est"].total.joules > 0 and names["bound"].joules > 0
    assert [e.label for e in names["report"].entries] == ["vllm"]


def test_all_lists_every_public_name_of_the_package_root():
    public = {name for name, value in vars(tokenwatt).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(tokenwatt.__all__) == len(set(tokenwatt.__all__))
    assert set(tokenwatt.__all__) == public | {"__version__"}
    assert "RequestColumns" in public
    assert not {"Request", "map_to_bin", "Overflow", "TraceSource"} & public
