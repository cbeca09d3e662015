"""The benchmark's per-layer hooks still reach the program.

perfbench/traced_cli.py wraps the functions the CLI calls where the CLI
looks them up (`tokenwatt.cli.load_trace`, `tokenwatt.estimator.lookup`,
...), and perfbench/run.py reads its per-layer metrics from the spans those
wrappers record. A call site that moves leaves a metric without samples; this
runs every traced command on small files and checks that none is left out.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _run_py_tables() -> dict:
    """LAYER_TIMES and LAYER_COUNTS as perfbench/run.py defines them, read
    from its source (importing it would need perfbench's own modules)."""
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    return {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and getattr(node.targets[0], "id", None) in ("LAYER_TIMES", "LAYER_COUNTS")}


def test_traced_commands_record_every_layer_metric(fixture_paths):
    d = fixture_paths["dir"]
    files = {k: str(v) for k, v in fixture_paths.items() if k != "dir"}
    synth, binned, report = str(d / "synth.csv"), str(d / "binned.csv"), str(d / "vllm.json")
    commands = [
        ["stats", "--trace", files["trace"]],
        ["bin", "--trace", files["trace"], "--out", binned],
        ["estimate", "--binned", binned, "--table", files["table"], "--backend", "vllm",
         "--device", "A100", "--interpolate", "--out", report],
        ["baseline", "--trace", files["trace"], "--model", files["model"], "--hw", files["hw"]],
        ["compare", "--estimates", report, "--baseline-j", "1.0", "--reference", "vllm"],
        ["synth-table", "--model", files["model"], "--hw", files["hw"], "--efficiency", "0.5",
         "--decode-penalty", "2", "--out", synth],
        ["validate-table", "--table", synth],  # a full default-grid table passes
    ]
    # src first on the path, as perfbench/run.py runs the CLI
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"),
                                                                    inherited))))
    spans = []
    for n, argv in enumerate(commands):
        spans_path = d / f"spans_{n}.json"
        proc = subprocess.run([sys.executable, str(PERFBENCH / "traced_cli.py"),
                               str(spans_path), "--", *argv],
                              capture_output=True, text=True, timeout=120, env=env, cwd=d)
        assert proc.returncode == 0, (argv, proc.stderr)
        spans += json.loads(spans_path.read_text(encoding="utf-8"))

    tables = _run_py_tables()
    recorded = {name for name, *_ in spans}
    assert not set(tables["LAYER_TIMES"].values()) - recorded
    attrs = {(name, key) for name, *_, attr in spans for key in attr}
    assert not {(span, attr) for span, attr, _ in tables["LAYER_COUNTS"].values()} - attrs
