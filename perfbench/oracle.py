"""Expected answers, computed from the generated arrays without tokenwatt.

Usage: python oracle.py WORKLOAD SEED DIR

Writes the workload's inputs into DIR and the answers every command should
give into DIR/expected.json. Binning uses `bisect` over distinct values,
stats use value counts and interpolation is vectorised numpy, so none of
them shares code with the program under test. This runs in its own process
so that the benchmark process, whose children inherit its peak RSS, never
holds the generated arrays.
"""

from __future__ import annotations

import json
import math
import sys
from bisect import bisect_left

import numpy as np

from pathlib import Path

from workloads import (
    DEFAULT_INPUT_CAPS,
    DEFAULT_OUTPUT_CAPS,
    HW_CFG,
    MODEL_CFG,
    SYNTH,
    Inputs,
    Table,
    generate,
)

SYNTH_MEMORY_BYTES = 40e9  # synth-table's --memory-bytes default


# --- trace statistics ---

def trace_stats(values: np.ndarray) -> dict:
    """count, mean, population std, lower median, nearest-rank p99, max."""
    n = int(values.size)
    hist = np.bincount(values)
    cum = np.cumsum(hist)

    def order_stat(rank: int) -> int:  # 1-based rank into the sorted values
        return int(np.searchsorted(cum, rank, side="left"))

    total = int(values.sum())
    mean = total / n
    sq = int(np.dot(hist.astype(object), np.arange(hist.size, dtype=object) ** 2))
    var = (sq * n - total * total) / (n * n)
    return {
        "count": n,
        "mean": mean,
        "std": math.sqrt(var),
        "median": float(order_stat((n - 1) // 2 + 1)),
        "p99": float(order_stat(-((-99 * n) // 100))),
        "max": int(values.max()),
    }


# --- binning ---

def bin_counts(inputs: np.ndarray, outputs: np.ndarray, grid) -> tuple[dict, int, int]:
    """Ceiling-bin histogram {(input_cap, output_cap): count} and the
    (excluded_input, excluded_output) tallies; over both caps counts as input."""
    in_caps, out_caps = grid
    over_in = inputs > in_caps[-1]
    over_out = ~over_in & (outputs > out_caps[-1])
    ok = ~(over_in | over_out)

    def cap_index(values: np.ndarray, caps) -> np.ndarray:
        distinct, inverse = np.unique(values, return_inverse=True)
        idx = np.array([bisect_left(caps, int(v)) for v in distinct], dtype=np.int64)
        return idx[inverse]

    ii = cap_index(inputs[ok], in_caps)
    oi = cap_index(outputs[ok], out_caps)
    flat = np.bincount(ii * len(out_caps) + oi, minlength=len(in_caps) * len(out_caps))
    counts = {}
    for k in np.flatnonzero(flat).tolist():
        counts[(in_caps[k // len(out_caps)], out_caps[k % len(out_caps)])] = int(flat[k])
    return counts, int(over_in.sum()), int(over_out.sum())


# --- pricing ---

def price(counts: dict, table: Table, config: tuple[str, str]) -> tuple[float, int]:
    """Fractional-mode total joules and the number of interpolated bins.

    A measured cell costs count * batch_energy / max_batch. A missing cell
    takes per-request energy bilinearly interpolated in log-log space from
    the bracketing measured caps (1-D on a measured row or column).
    """
    cells = table.configs[config]
    icaps = np.array(sorted({i for i, _ in cells}), dtype=float)
    ocaps = np.array(sorted({o for _, o in cells}), dtype=float)
    log_per_req = np.empty((icaps.size, ocaps.size))
    for a, i in enumerate(icaps):
        for b, o in enumerate(ocaps):
            mb, energy = cells[(int(i), int(o))]
            log_per_req[a, b] = math.log(energy / mb)

    keys = sorted(counts)
    ci = np.array([k[0] for k in keys], dtype=float)
    co = np.array([k[1] for k in keys], dtype=float)
    cnt = np.array([counts[k] for k in keys], dtype=float)

    def bracket(caps, values):
        hi = np.searchsorted(caps, values, side="left")  # first cap >= value
        exact = caps[hi] == values
        lo = np.where(exact, hi, hi - 1)
        span = np.where(exact, 1.0, np.log(caps[hi]) - np.log(caps[lo]))
        t = np.where(exact, 0.0, (np.log(values) - np.log(caps[lo])) / span)
        return lo, hi, t, exact

    ilo, ihi, ti, iex = bracket(icaps, ci)
    olo, ohi, to, oex = bracket(ocaps, co)
    blended = ((1 - ti) * (1 - to) * log_per_req[ilo, olo] + (1 - ti) * to * log_per_req[ilo, ohi]
               + ti * (1 - to) * log_per_req[ihi, olo] + ti * to * log_per_req[ihi, ohi])
    per_request = np.exp(blended)
    measured = iex & oex
    for k in np.flatnonzero(measured).tolist():
        mb, energy = cells[keys[k]]
        per_request[k] = energy / mb
    return float(np.sum(cnt * per_request)), int((~measured).sum())


def request_flops(i: int, o: int) -> tuple[int, int]:
    """Prefill and decode FLOPs of one request at caps (i, o): 2 FLOPs per
    parameter per token plus 4*L*d per attended context position."""
    p = MODEL_CFG["n_params"]
    attn = 4 * MODEL_CFG["n_layers"] * MODEL_CFG["d_model"]
    prefill = 2 * p * i + attn * i * (i + 1) // 2
    decode = 2 * p * o + attn * (o * i + o * (o + 1) // 2)
    return prefill, decode


def baseline(counts: dict) -> tuple[int, int, float]:
    """Prefill FLOPs, decode FLOPs and the nameplate-energy floor in joules."""
    prefill = decode = 0
    for (i, o), c in counts.items():
        p, d = request_flops(i, o)
        prefill += c * p
        decode += c * d
    jpf = HW_CFG["tdp"] / HW_CFG["peak_flops"]
    return prefill, decode, jpf * (prefill + decode)


def synth_records(grid) -> dict:
    """{(i, o): (max_batch, prefill_j, decode_j)} of a synthesized table."""
    kv = 2 * MODEL_CFG["n_layers"] * MODEL_CFG["n_kv_heads"] \
        * (MODEL_CFG["d_model"] // MODEL_CFG["n_heads"]) * 2
    jpf = HW_CFG["tdp"] / HW_CFG["peak_flops"]
    eff, pen = SYNTH["efficiency"], SYNTH["decode_penalty"]
    out = {}
    for i in grid[0]:
        for o in grid[1]:
            mb = max(1, int(SYNTH_MEMORY_BYTES // ((i + o) * kv)))
            p, d = request_flops(i, o)
            out[(i, o)] = (mb, mb * p * jpf / eff, mb * d * pen * jpf / eff)
    return out


def planned_points(grid) -> set[tuple[int, int]]:
    """Sweep points on the grid: input sweeps 32..32768 at 64 and 8 output
    tokens, output sweeps 8..4096 at 512 and 64 input tokens, and (512, 64)."""
    ins = [2 ** k for k in range(5, 16)]
    outs = [2 ** k for k in range(3, 13)]
    pts = {(i, o) for i in ins for o in (64, 8)} | {(i, o) for i in (512, 64) for o in outs}
    pts.add((512, 64))
    return {(i, o) for i, o in pts if i in grid[0] and o in grid[1]}


def label_of(config: tuple[str, str]) -> str:
    return f"{config[0]}@{config[1]}"


def expected(inp: Inputs) -> dict:
    """Every answer the checks need, as plain json."""
    tr = inp.trace
    counts, ex_in, ex_out = bin_counts(tr.inputs, tr.outputs, inp.grid)
    if inp.binned is not None:
        priced, priced_excluded = inp.binned, sum(inp.binned_excluded)
    else:
        priced, priced_excluded = counts, ex_in + ex_out
    estimates = []
    for cfg in sorted(inp.table.configs):
        total, interpolated = price(priced, inp.table, cfg)
        estimates.append({"backend": cfg[0], "device": cfg[1], "label": label_of(cfg),
                          "total_j": total, "interpolated": interpolated})
    prefill, decode, joules = baseline(priced)
    return {
        "workload": inp.name,
        "files": {k: str(p) for k, p in inp.files.items()},
        "manifest": inp.manifest(),
        "trace_rows": inp.rows["trace"],
        "grid": [list(inp.grid[0]), list(inp.grid[1])],
        "default_grid": inp.grid == (DEFAULT_INPUT_CAPS, DEFAULT_OUTPUT_CAPS),
        "pre_binned": inp.binned is not None,
        "bad_lines": tr.bad_lines,
        "stats": [trace_stats(tr.inputs), trace_stats(tr.outputs)],
        "bins": {"counts": [[i, o, c] for (i, o), c in sorted(counts.items())],
                 "excluded_input": ex_in, "excluded_output": ex_out},
        "priced_bins": len(priced),
        "priced_excluded": priced_excluded,
        "estimates": estimates,
        "reference": estimates[0]["label"],
        "baseline": {"prefill_flops": prefill, "decode_flops": decode, "optimal_j": joules},
        "planned_points": len(planned_points(inp.grid)),
        "synth": [[i, o, *rec] for (i, o), rec in sorted(synth_records(inp.grid).items())],
        "synth_args": SYNTH,
    }


def main(argv: list[str]) -> int:
    name, seed, out = argv
    inp = generate(name, int(seed), Path(out))
    (Path(out) / "expected.json").write_text(json.dumps(expected(inp)), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
