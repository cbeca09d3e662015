"""Seeded inputs for the three benchmark workloads.

Every file the program reads is written here from one numpy Generator, so the
same seed gives byte-identical inputs. The generator also returns the arrays
and table values it wrote, which the oracle prices independently of the
program. Nothing here imports tokenwatt.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("trace_csv_1m", "trace_csv_dirty", "pricing_fine_grid")

# The program's default grid (README "bin"), restated so the oracle does not
# read it from the package under test.
DEFAULT_INPUT_CAPS = (32, 128, 256, 512, 1024, 2048, 4096, 8192)
DEFAULT_OUTPUT_CAPS = (8, 16, 32, 64, 128, 256, 512)

# Quarter-octave grid: 33 input caps 32..8192 and 25 output caps 8..512.
FINE_INPUT_CAPS = tuple(round(32 * 2 ** (k / 4)) for k in range(33))
FINE_OUTPUT_CAPS = tuple(round(8 * 2 ** (k / 4)) for k in range(25))

TRACE_1M_ROWS = 1_000_000
DIRTY_ROWS = 300_000
DIRTY_BAD_SHARE = 0.002
PRICING_TRACE_ROWS = 20_000
PRICING_CONFIGS = 16

MODEL_CFG = {
    "n_layers": 32, "d_model": 4096, "n_heads": 32, "n_kv_heads": 8,
    "d_ff": 14336, "vocab_size": 128256, "n_params": 8030261248,
}
HW_CFG = {"name": "A100-SXM4", "tdp": 400.0, "peak_flops": 312e12}
SYNTH = {"efficiency": 0.35, "decode_penalty": 3.0}

BACKENDS = ("vllm", "tgi", "trtllm", "sglang", "lmdeploy", "naive")
DEVICES = ("a100", "h100", "l40s", "mi300x")


@dataclass
class Table:
    """A measurement table as written: max batch and batch energy per cell
    of each (backend, device)."""

    # (backend, device) -> {(input_cap, output_cap): (max_batch, batch_energy_j)}
    configs: dict[tuple[str, str], dict[tuple[int, int], tuple[int, float]]]

    @property
    def records(self) -> int:
        return sum(len(recs) for recs in self.configs.values())


@dataclass
class Trace:
    """Token columns of the valid rows, in file order."""

    inputs: np.ndarray
    outputs: np.ndarray
    bad_lines: list[int] = field(default_factory=list)  # 1-based file lines


@dataclass
class Inputs:
    """Everything one workload hands to the program, plus what the oracle
    needs to check the answers."""

    name: str
    files: dict[str, Path]
    rows: dict[str, int]
    trace: Trace
    grid: tuple[tuple[int, ...], tuple[int, ...]]  # grid the trace is binned on
    table: Table
    binned: dict[tuple[int, int], int] | None = None  # pre-binned workload counts
    binned_excluded: tuple[int, int] = (0, 0)

    def manifest(self) -> dict:
        """sha256 and data-row count of each generated file."""
        return {
            key: {"file": path.name, "sha256": _sha256(path), "rows": self.rows[key]}
            for key, path in sorted(self.files.items())
        }


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _token_lengths(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    # Lognormal prompt and generation lengths. These parameters come from no
    # measured trace: they are chosen so that a few percent of rows fall past
    # the default grid's caps (about 0.7% of prompts exceed 8192 and about 2%
    # of generations exceed 512), so both exclusion tallies are exercised.
    inputs = np.floor(rng.lognormal(6.3, 1.1, n)).astype(np.int64)
    outputs = np.floor(rng.lognormal(4.2, 1.0, n)).astype(np.int64)
    return inputs, outputs


# BurstGPT's published token statistics, as checked by acceptance criterion 11
# in tests/test_acceptance.py: request tokens mean 256.8, median 215, p99 1038;
# response tokens median 7.
BURSTGPT_INPUT_MEDIAN = 215
BURSTGPT_INPUT_P99 = 1038
BURSTGPT_OUTPUT_MEDIAN = 7
# Log-logistic shape fitted to the input median and p99: F(p99) = 0.99 gives
# (p99 / median) ** shape = 99. Rounded draws then have median 215, p99 about
# 1035 and mean about 262 (2% above 256.8).
BURSTGPT_SHAPE = math.log(99) / math.log(BURSTGPT_INPUT_P99 / BURSTGPT_INPUT_MEDIAN)


def _burstgpt_lengths(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Request and response lengths fitted to BurstGPT's published figures.

    Only the response median is published, so responses take the requests'
    fitted shape around it (p99 about 34, a few responses of 0 tokens).
    About 7 requests in 300k exceed 8192 and about 1 response exceeds 512.
    """
    def log_logistic(median: float) -> np.ndarray:
        u = rng.random(n)
        return np.rint(median * (u / (1 - u)) ** (1 / BURSTGPT_SHAPE)).astype(np.int64)

    return log_logistic(BURSTGPT_INPUT_MEDIAN), log_logistic(BURSTGPT_OUTPUT_MEDIAN)


def _write_cfgs(out: Path) -> dict[str, Path]:
    model = out / "model.cfg"
    model.write_text("".join(f"{k} = {v}\n" for k, v in MODEL_CFG.items()), encoding="utf-8")
    hw = out / "hw.cfg"
    hw.write_text("".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                          for k, v in HW_CFG.items()), encoding="utf-8")
    return {"model": model, "hw": hw}


def _cfg_rows() -> dict[str, int]:
    return {"model": len(MODEL_CFG), "hw": len(HW_CFG)}


def _measured_table(rng, configs, input_caps, output_caps) -> Table:
    """Per-batch energies shaped like a real sweep: per-request energy grows
    with both lengths, max batch shrinks with them, each configuration has
    its own efficiency and every cell its own measurement noise. Prefill
    costs at least 2x and decode 8x the FLOPs floor of MODEL_CFG on HW_CFG
    (about 0.021 J per token), so every estimate stays above the baseline."""
    table = {}
    ii, oo = np.meshgrid(np.asarray(input_caps, float), np.asarray(output_caps, float),
                         indexing="ij")
    for cfg in configs:
        scale = rng.uniform(1.0, 2.5)
        noise = rng.lognormal(0.0, 0.05, ii.shape)
        per_request = scale * (0.05 * ii + 0.2 * oo) * noise
        max_batch = np.clip(np.floor(rng.uniform(1.5e5, 2.5e5) / (ii + oo)), 1, 1024)
        cells = {}
        for a, i in enumerate(input_caps):
            for b, o in enumerate(output_caps):
                mb = int(max_batch[a, b])
                cells[(i, o)] = (mb, float(per_request[a, b] * mb))
        table[cfg] = cells
    return Table(table)


def _write_table(table: Table, path: Path, grid) -> None:
    lines = [
        "# input_bins = " + ",".join(map(str, grid[0])),
        "# output_bins = " + ",".join(map(str, grid[1])),
        "backend,device,input_cap,output_cap,max_batch,batch_energy,energy_unit,"
        "prefill_energy,decode_energy,samples_measured,warmup_batches",
    ]
    for (backend, device), cells in sorted(table.configs.items()):
        for (i, o), (mb, energy) in sorted(cells.items()):
            samples = 4096 if mb > 256 else 1024
            lines.append(f"{backend},{device},{i},{o},{mb},{energy!r},J,,,{samples},20")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_clean_csv(path: Path, inputs: np.ndarray, outputs: np.ndarray) -> None:
    body = "\n".join(f"{a},{b}" for a, b in zip(inputs.tolist(), outputs.tolist()))
    path.write_text("input_tokens,output_tokens\n" + body + "\n", encoding="utf-8")


def _trace_csv_1m(rng, out: Path) -> Inputs:
    inputs, outputs = _token_lengths(rng, TRACE_1M_ROWS)
    files = _write_cfgs(out)
    files["trace"] = out / "trace_1m.csv"
    _write_clean_csv(files["trace"], inputs, outputs)
    grid = (DEFAULT_INPUT_CAPS, DEFAULT_OUTPUT_CAPS)
    table = _measured_table(rng, [("vllm", "a100")], *grid)
    files["table"] = out / "table_small.csv"
    _write_table(table, files["table"], grid)
    rows = {"trace": TRACE_1M_ROWS, "table": table.records, **_cfg_rows()}
    return Inputs("trace_csv_1m", files, rows, Trace(inputs, outputs), grid, table)


# Malformed token cells as they occur in scraped traces.
_BAD_CELLS = ("", "-{v}", "{v}x", "1.5")


def _trace_csv_dirty(rng, out: Path) -> Inputs:
    n = DIRTY_ROWS
    inputs, outputs = _burstgpt_lengths(rng, n)
    n_bad = int(n * DIRTY_BAD_SHARE)
    # One bad row in every n/n_bad-row stretch, at a random offset within it.
    stride = n // n_bad
    bad_rows = np.arange(n_bad) * stride + rng.integers(0, stride, n_bad)
    bad_column = rng.integers(0, 2, n_bad)
    bad_kind = rng.integers(0, len(_BAD_CELLS), n_bad)

    req = [str(v) for v in inputs.tolist()]
    resp = [str(v) for v in outputs.tolist()]
    for r, col, kind in zip(bad_rows.tolist(), bad_column.tolist(), bad_kind.tolist()):
        cells = req if col == 0 else resp
        cells[r] = _BAD_CELLS[kind].format(v=int(cells[r]) + 1)
    # Timestamp, Model and Log Type are filler columns: the program never
    # reads them, they are here for their width. Their values are BurstGPT's
    # own, in an arbitrary even mix.
    timestamps = np.cumsum(rng.exponential(0.25, n))
    models = np.array(["ChatGPT", "GPT-4"])[rng.integers(0, 2, n)].tolist()
    logs = np.array(["Conversation log", "API log"])[rng.integers(0, 2, n)].tolist()
    total = (inputs + outputs).tolist()
    lines = ["Timestamp,Model,Request tokens,Response tokens,Total tokens,Log Type"]
    lines.extend(
        f"{t:.3f},{m},{a},{b},{s},{lg}"
        for t, m, a, b, s, lg in zip(timestamps.tolist(), models, req, resp, total, logs)
    )
    files = _write_cfgs(out)
    files["trace"] = out / "burstgpt_dirty.csv"
    files["trace"].write_text("\n".join(lines) + "\n", encoding="utf-8")

    keep = np.ones(n, dtype=bool)
    keep[bad_rows] = False
    trace = Trace(inputs[keep], outputs[keep], bad_lines=(bad_rows + 2).tolist())
    grid = (DEFAULT_INPUT_CAPS, DEFAULT_OUTPUT_CAPS)
    table = _measured_table(rng, [("vllm", "a100")], *grid)
    files["table"] = out / "table_small.csv"
    _write_table(table, files["table"], grid)
    rows = {"trace": n, "table": table.records, **_cfg_rows()}
    return Inputs("trace_csv_dirty", files, rows, trace, grid, table)


def _pricing_fine_grid(rng, out: Path) -> Inputs:
    grid = (FINE_INPUT_CAPS, FINE_OUTPUT_CAPS)
    # Nearly every bin occupied: about 3% of the 825 bins are left empty.
    counts = rng.integers(1, 400, (len(grid[0]), len(grid[1])))
    counts[rng.random(counts.shape) < 0.03] = 0
    binned = {(i, o): int(counts[a, b])
              for a, i in enumerate(grid[0]) for b, o in enumerate(grid[1]) if counts[a, b]}
    excluded = (int(rng.integers(0, 500)), int(rng.integers(0, 500)))
    files = _write_cfgs(out)
    files["binned"] = out / "fine_binned.csv"
    lines = ["# input_bins = " + ",".join(map(str, grid[0])),
             "# output_bins = " + ",".join(map(str, grid[1])),
             "input_cap,output_cap,count"]
    lines.extend(f"{i},{o},{c}" for (i, o), c in sorted(binned.items()))
    lines.append(f"# excluded_input = {excluded[0]}")
    lines.append(f"# excluded_output = {excluded[1]}")
    files["binned"].write_text("\n".join(lines) + "\n", encoding="utf-8")

    # Each configuration is measured on every other cap in each dimension
    # (17 x 13 of 33 x 25 cells), so about 3/4 of the priced bins are
    # interpolated. The sweep's power-of-two points are all measured.
    configs = [(b, d) for b in BACKENDS for d in DEVICES][:PRICING_CONFIGS]
    table = _measured_table(rng, configs, grid[0][::2], grid[1][::2])
    files["table"] = out / "table_sparse.csv"
    _write_table(table, files["table"], grid)

    # A small trace so stats and bin are timed here too; it is binned on the
    # fine grid and is a few percent of this workload's time.
    inputs, outputs = _token_lengths(rng, PRICING_TRACE_ROWS)
    files["trace"] = out / "trace_small.csv"
    _write_clean_csv(files["trace"], inputs, outputs)
    rows = {"trace": PRICING_TRACE_ROWS, "table": table.records, "binned": len(binned),
            **_cfg_rows()}
    return Inputs("pricing_fine_grid", files, rows, Trace(inputs, outputs), grid, table,
                  binned=binned, binned_excluded=excluded)


_MAKERS = {
    "trace_csv_1m": _trace_csv_1m,
    "trace_csv_dirty": _trace_csv_dirty,
    "pricing_fine_grid": _pricing_fine_grid,
}


def generate(name: str, seed: int, out: Path) -> Inputs:
    """Write one workload's inputs into `out` (created if missing).

    Each workload draws from its own stream of the seed, so generating one
    workload alone gives the same files as generating all three.
    """
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return _MAKERS[name](rng, out)
