"""Acceptance suite: one test per published-number or property criterion.

Run under pytest (use -s to see the per-criterion lines) or directly with
`python tests/test_acceptance.py` for a plain PASS/FAIL report. Criterion 11
needs a local copy of the public BurstGPT trace and is skipped otherwise.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from tokenwatt import (
    Bin,
    BinGrid,
    BinnedWorkload,
    DEFAULT_GRID,
    Energy,
    HardwareSpec,
    MeasurementRecord,
    MeasurementTable,
    ModelConfig,
    RequestColumns,
    TableMetadata,
    bin_arrays,
    bin_workload,
    compare,
    compute_stats,
    estimate,
    idealized_energy,
    joules_per_flop,
    load_trace,
    default_sweep_plans,
    request_flops,
    summarize_trace,
    synthesize_table,
)
from conftest import (A100_CFG, FIXTURE_TABLE, FIXTURE_TRACE, TOY_MODEL_CFG, cli_env,
                      estimate_entry)
from oracles import brute_force_flops, oracle_stats

A100 = HardwareSpec(name="A100-PCIe", tdp=300.0, peak_flops=309.7e12)
LLAMA_8B_SHAPE = ModelConfig(n_layers=32, d_model=4096, n_heads=32, n_kv_heads=8,
                             d_ff=14336, vocab_size=128256)
TOY = ModelConfig(n_layers=1, d_model=4, n_heads=1, n_kv_heads=1, d_ff=8, vocab_size=10)


class _SkipCriterion(Exception):
    """Raised when a criterion's optional prerequisite is absent."""


def _criterion_1():
    # Published per-dataset (reference %d, optimized %d) -> expected savings
    cases = (
        ("BurstGPT", 506.52, 63.75, 73.00),
        ("Azure Code", 102.79, 26.59, 37.58),
        ("Azure Conversation", 490.23, 64.22, 72.18),
    )
    for dataset, delta_ref, delta_opt, expected in cases:
        comparison = compare(
            [
                estimate_entry("unoptimized", 1.0 + delta_ref / 100.0),
                estimate_entry("optimized", 1.0 + delta_opt / 100.0),
            ],
            optimal=Energy(1.0),
            reference_label="unoptimized",
            dataset=dataset,
        )
        optimized = next(e for e in comparison.entries if e.label == "optimized")
        assert abs(optimized.savings_vs_reference - expected) <= 0.01, \
            f"{dataset}: savings {optimized.savings_vs_reference} != {expected} +-0.01pp"
        # the inputs round-trip: deltas over the shared baseline are preserved
        assert optimized.pct_delta_vs_optimal == pytest.approx(delta_opt, abs=1e-9)


def _criterion_2():
    ratio = joules_per_flop(HardwareSpec(name="A100", tdp=300.0, peak_flops=309.7e12))
    assert abs(ratio - 9.6868e-13) / 9.6868e-13 <= 1e-4


def _criterion_3():
    grid = DEFAULT_GRID
    # memoized brute-force minimal-ceiling search, one linear scan per value
    input_cap = [
        min((c for c in grid.input_bins if c >= i), default=None) for i in range(8301)
    ]
    output_cap = [
        min((c for c in grid.output_bins if c >= o), default=None) for o in range(561)
    ]

    def oracle(in_caps, out_caps):
        # the histogram of every (input, output) pair, from how many values
        # of each dimension have each cap (None: over the grid)
        in_caps, out_caps = Counter(in_caps), Counter(out_caps)
        excluded_input = in_caps.pop(None, 0) * out_caps.total()
        excluded_output = out_caps.pop(None, 0) * in_caps.total()
        counts = {Bin(i, o): m * n for i, m in in_caps.items() for o, n in out_caps.items()}
        return counts, excluded_input, excluded_output

    # bin_arrays tallies a histogram, so each request of the lattice is binned
    # twice, with the rest of its input value's row and with the rest of its
    # output value's column. A request mapped wrong changes the tallies of
    # both; only mistakes that cancel in every row and column could hide.
    inputs, outputs = np.arange(8301), np.arange(561)
    in_counts, out_counts = Counter(input_cap), Counter(output_cap)
    disagreements = 0
    for i in inputs.tolist():
        got = bin_arrays(np.full(561, i), outputs, grid)
        disagreements += (got.counts, got.excluded_input, got.excluded_output) != \
            oracle({input_cap[i]: 1}, out_counts)
    for o in outputs.tolist():
        got = bin_arrays(inputs, np.full(8301, o), grid)
        disagreements += (got.counts, got.excluded_input, got.excluded_output) != \
            oracle(in_counts, {output_cap[o]: 1})
    assert disagreements == 0, f"{disagreements} rows or columns disagree with the oracle"


def _criterion_4():
    for n_layers in (1, 2):
        for d_model in (4, 8):
            for n_heads, n_kv_heads in ((1, 1), (2, 1), (2, 2)):
                model = ModelConfig(n_layers=n_layers, d_model=d_model,
                                    n_heads=n_heads, n_kv_heads=n_kv_heads,
                                    d_ff=2 * d_model, vocab_size=13)
                for input_len in range(1, 9):
                    for output_len in range(0, 9):
                        fb = request_flops(model, input_len, output_len)
                        prefill, decode = brute_force_flops(model, input_len, output_len)
                        assert fb.prefill_flops == prefill, \
                            (model, input_len, output_len, fb.prefill_flops, prefill)
                        assert fb.decode_flops == decode, \
                            (model, input_len, output_len, fb.decode_flops, decode)


def _random_workload(rng, min_count=0, max_count=1000) -> BinnedWorkload:
    bins = DEFAULT_GRID.bins()
    counts = rng.integers(min_count, max_count + 1, size=len(bins))
    return BinnedWorkload(
        grid=DEFAULT_GRID,
        counts={b: int(c) for b, c in zip(bins, counts) if c > 0},
    )


def _criterion_5():
    rng = np.random.default_rng(1105)
    for efficiency in (1.0, 0.5, 0.25):
        table = synthesize_table(DEFAULT_GRID, LLAMA_8B_SHAPE, A100,
                                 efficiency=efficiency, decode_penalty=1.0)
        for _ in range(3):
            workload = _random_workload(rng, min_count=1)
            est = estimate(workload, table, "synthetic", "A100-PCIe")
            ideal = idealized_energy(A100, LLAMA_8B_SHAPE, workload)
            ratio = est.total.joules / ideal.joules
            assert abs(ratio * efficiency - 1.0) <= 1e-9, \
                f"efficiency {efficiency}: ratio {ratio} != {1 / efficiency}"


def _criterion_6():
    grid = BinGrid(input_bins=(256, 1024), output_bins=(8, 64))
    max_batches = {Bin(256, 8): 4, Bin(256, 64): 3, Bin(1024, 8): 7, Bin(1024, 64): 5}
    table = MeasurementTable(
        records=tuple(
            MeasurementRecord(backend="b", device="d", input_cap=b.input_cap,
                              output_cap=b.output_cap, max_batch=mb,
                              batch_energy=Energy(1.5 * mb))
            for b, mb in max_batches.items()
        ),
        metadata=TableMetadata(grid=grid),
    )
    rng = np.random.default_rng(1106)
    saw_equal = saw_strict = False
    for _ in range(100):
        counts = {b: int(c) for b, c in
                  zip(max_batches, rng.integers(0, 41, size=4)) if c > 0}
        workload = BinnedWorkload(grid=grid, counts=counts)
        frac = estimate(workload, table, "b", "d", mode="fractional").total.joules
        ceil = estimate(workload, table, "b", "d", mode="ceiling").total.joules
        assert ceil >= frac
        divisible = all(c % max_batches[b] == 0 for b, c in counts.items())
        assert (ceil == frac) == divisible, (counts, frac, ceil)
        saw_equal |= divisible
        saw_strict |= not divisible
    assert saw_strict  # the trial set must exercise the inequality
    # force at least one exact-divisibility case
    workload = BinnedWorkload(grid=grid, counts={Bin(256, 8): 8, Bin(1024, 64): 10})
    frac = estimate(workload, table, "b", "d", mode="fractional").total.joules
    ceil = estimate(workload, table, "b", "d", mode="ceiling").total.joules
    assert frac == ceil


def _criterion_7():
    rng = np.random.default_rng(1107)
    for _ in range(1000):
        n = int(rng.integers(1, 10001))
        values = rng.integers(0, 5001, size=n)
        got = compute_stats(values)
        want = oracle_stats(values.tolist())
        assert got.count == want["count"]
        assert got.median == want["median"]
        assert got.p99 == want["p99"]
        assert got.max == want["max"]
        assert abs(got.mean - want["mean"]) <= 1e-9 * max(1.0, abs(want["mean"]))
        assert abs(got.std - want["std"]) <= 1e-9 * max(1.0, want["std"])


def _criterion_8():
    plans = default_sweep_plans()
    canonical = {
        (p.axis, tuple(sorted(p.fixed.items())), p.points,
         p.samples_per_point, p.warmup_batches)
        for p in plans
    }
    input_points = (32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768)
    output_points = (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
    batch_points = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
    expected = {
        ("input_length", (("batch_size", 1), ("output_length", 64)),
         input_points, 1024, 20),
        ("input_length", (("batch_size", 1), ("output_length", 8)),
         input_points, 1024, 20),
        ("output_length", (("batch_size", 1), ("input_length", 512)),
         output_points, 1024, 20),
        ("output_length", (("batch_size", 1), ("input_length", 64)),
         output_points, 1024, 20),
        ("batch_size", (("input_length", 512), ("output_length", 64)),
         batch_points, 4096, 20),
    }
    assert canonical == expected


def _criterion_9():
    table = synthesize_table(DEFAULT_GRID, TOY, A100, efficiency=0.7, decode_penalty=1.5)
    rng = np.random.default_rng(1109)

    def random_trace(n):
        return rng.integers(0, 10000, size=n), rng.integers(0, 700, size=n)

    for _ in range(200):
        t1 = random_trace(int(rng.integers(0, 400)))
        t2 = random_trace(int(rng.integers(0, 400)))
        t12 = [np.concatenate(column) for column in zip(t1, t2)]
        w1, w2, w12 = (bin_workload(RequestColumns(*t)) for t in (t1, t2, t12))
        assert w1 + w2 == w12
        split_total = (
            estimate(w1, table, "synthetic", "A100-PCIe").total.joules
            + estimate(w2, table, "synthetic", "A100-PCIe").total.joules
        )
        joint_total = estimate(w12, table, "synthetic", "A100-PCIe").total.joules
        assert abs(joint_total - split_total) <= 1e-9 * max(1.0, joint_total)


def _run_cli(args, cwd) -> bytes:
    # a hung child raises TimeoutExpired, whose message names the full command
    proc = subprocess.run(
        [sys.executable, "-m", "tokenwatt", *args],
        cwd=cwd, env=cli_env(), capture_output=True, timeout=60,
    )
    assert proc.returncode == 0, (
        f"tokenwatt {' '.join(args)}: exit {proc.returncode}\n{proc.stderr.decode()}"
    )
    return proc.stdout


def _criterion_10():
    jpf = 300.0 / 309.7e12
    # toy-model FLOPs at the fixture's bin caps, counted by hand:
    # 2x(256, 8) -> 2 * (649216 + 37184); 1x(1024, 64) -> 8888320 + 1112576
    expected_flops = 2 * (649216 + 37184) + (8888320 + 1112576)
    assert expected_flops == 11373696

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        (tmp_path / "trace.csv").write_text(FIXTURE_TRACE, encoding="utf-8")
        (tmp_path / "table.csv").write_text(FIXTURE_TABLE, encoding="utf-8")
        (tmp_path / "toy_model.cfg").write_text(TOY_MODEL_CFG, encoding="utf-8")
        (tmp_path / "a100.cfg").write_text(A100_CFG, encoding="utf-8")

        def once() -> dict[str, bytes]:
            out: dict[str, bytes] = {}
            out["bin"] = _run_cli(["bin", "--trace", "trace.csv"], tmp)
            (tmp_path / "binned.csv").write_bytes(out["bin"])
            for backend in ("vllm", "naive"):
                out[backend] = _run_cli(
                    ["estimate", "--trace", "trace.csv", "--table", "table.csv",
                     "--backend", backend, "--device", "A100"], tmp)
                (tmp_path / f"{backend}.json").write_bytes(out[backend])
            out["via_binned"] = _run_cli(
                ["estimate", "--binned", "binned.csv", "--table", "table.csv",
                 "--backend", "vllm", "--device", "A100"], tmp)
            out["ceiling"] = _run_cli(
                ["estimate", "--trace", "trace.csv", "--table", "table.csv",
                 "--backend", "vllm", "--device", "A100", "--mode", "ceiling"], tmp)
            out["baseline"] = _run_cli(
                ["baseline", "--trace", "trace.csv", "--model", "toy_model.cfg",
                 "--hw", "a100.cfg"], tmp)
            optimal_j = json.loads(out["baseline"])["optimal_j"]
            out["compare"] = _run_cli(
                ["compare", "--estimates", "vllm.json,naive.json",
                 "--baseline-j", repr(optimal_j), "--reference", "naive",
                 "--dataset", "fixture"], tmp)
            out["compare_md"] = _run_cli(
                ["compare", "--estimates", "vllm.json,naive.json",
                 "--baseline-j", repr(optimal_j), "--reference", "naive",
                 "--dataset", "fixture", "--format", "markdown-table"], tmp)
            return out

        first = once()
        second = once()
        assert first == second, "pipeline outputs are not byte-identical across runs"

        assert json.loads(first["vllm"])["total_j"] == 6.0
        assert json.loads(first["naive"])["total_j"] == 20.0
        assert json.loads(first["ceiling"])["total_j"] == 12.0
        assert first["via_binned"] == first["vllm"]
        baseline = json.loads(first["baseline"])
        assert baseline["total_flops"] == expected_flops
        assert baseline["optimal_j"] == expected_flops * jpf
        comparison = json.loads(first["compare"])
        vllm_entry = next(e for e in comparison["entries"] if e["label"] == "vllm")
        assert abs(vllm_entry["savings_vs_reference"] - 70.0) <= 1e-9
        assert b"| vllm |" in first["compare_md"]
        assert b"70.00" in first["compare_md"]


def _find_burstgpt_trace():
    candidates = []
    env = os.environ.get("TOKENWATT_BURSTGPT_TRACE")
    if env:
        candidates.append(Path(env))
    here = Path(__file__).parent
    candidates += [
        here / "data" / "BurstGPT_1.csv",
        here / "data" / "BurstGPT_without_fails_1.csv",
    ]
    for path in candidates:
        if path.is_file():
            return path
    return None


def _criterion_11():
    path = _find_burstgpt_trace()
    if path is None:
        raise _SkipCriterion(
            "BurstGPT trace not found (set TOKENWATT_BURSTGPT_TRACE or place "
            "BurstGPT_1.csv under tests/data/)"
        )
    load = load_trace(str(path), input_column="Request tokens",
                      output_column="Response tokens", permissive=True)
    input_stats, output_stats = summarize_trace(load.requests)
    assert abs(input_stats.mean - 256.80) <= 0.01 * 256.80
    assert abs(input_stats.median - 215) <= 1
    assert abs(input_stats.p99 - 1038) <= 1
    assert abs(output_stats.median - 7) <= 1


CRITERIA = (
    (1, "published savings figures reproduced through compare", _criterion_1),
    (2, "idealized J/FLOP constant at 300 W / 309.7 TFLOPS", _criterion_2),
    (3, "exhaustive ceiling-bin oracle over [0..8300] x [0..560]", _criterion_3),
    (4, "FLOPs formula matches per-matrix brute force exactly", _criterion_4),
    (5, "fractional estimate / idealized = 1/efficiency round-trip", _criterion_5),
    (6, "ceiling mode dominates fractional, equal iff counts divide", _criterion_6),
    (7, "streaming statistics match full-sort oracle on 1000 sequences", _criterion_7),
    (8, "benchmark sweep plans match the published grids exactly", _criterion_8),
    (9, "binning and fractional estimate are additive over concatenation", _criterion_9),
    (10, "CLI pipeline is byte-deterministic and matches hand totals", _criterion_10),
    (11, "BurstGPT trace statistics match published table rows", _criterion_11),
)


@pytest.mark.parametrize(
    "num,description,criterion",
    CRITERIA,
    ids=[f"criterion_{num:02d}" for num, _, _ in CRITERIA],
)
def test_acceptance(num, description, criterion):
    try:
        criterion()
    except _SkipCriterion as exc:
        print(f"SKIP criterion {num:2d}: {description} ({exc})")
        pytest.skip(str(exc))
    except BaseException:
        print(f"FAIL criterion {num:2d}: {description}")
        raise
    print(f"PASS criterion {num:2d}: {description}")


if __name__ == "__main__":
    failures = 0
    for num, description, criterion in CRITERIA:
        try:
            criterion()
        except _SkipCriterion as exc:
            print(f"SKIP criterion {num:2d}: {description} ({exc})")
        except BaseException as exc:
            failures += 1
            print(f"FAIL criterion {num:2d}: {description} ({exc})")
        else:
            print(f"PASS criterion {num:2d}: {description}")
    sys.exit(1 if failures else 0)
