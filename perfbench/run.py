"""Layered benchmark of the tokenwatt CLI.

Usage:
    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Generates the workload's inputs from --seed into a temporary directory under
the checkout, then drives `python -m tokenwatt` from this checkout's `src` as
one child process at a time. Passes over the workload's command sequence
repeat until the next invocation (or, with --trace 1, the next
untraced/traced pair of passes) would end past --seconds, after at least
one; after each untraced pass, probe rounds re-run `--version` and the cheap
commands for more samples of their timings. Every output is checked against
the oracle; a wrong exit code, a wrong answer or stdout that changes between
repetitions counts as a failed invocation and makes the command exit 1.

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 alternates untraced passes with traced ones, in which each command
runs under traced_cli.py, and reports the per-layer metrics.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. Full results, the input manifest and (with --trace 1)
every span are written under .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import itertools
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"

# As in workloads.py, which this process does not import: it loads numpy.
WORKLOADS = ("trace_csv_1m", "trace_csv_dirty", "pricing_fine_grid")
# After each untraced pass, this many rounds of the cheap commands (and
# --version) add samples; a short invocation is otherwise sampled once per
# pass and a single slow moment of the machine moves it.
PROBE_ROUNDS = 4
CHILD_TIMEOUT_S = 150.0

# (name, unit) in BENCHMARK.json order. Subcommand timings are keyed by the
# Command.key of the invocations they summarise.
END_TO_END = (
    ("setup_s", "s"), ("stats_s", "s"), ("bin_s", "s"), ("estimate_s", "s"),
    ("baseline_s", "s"), ("compare_s", "s"), ("validate_s", "s"),
    ("rows_per_s", "1/s"), ("workload_s", "s"), ("peak_rss_mb", "MB"),
)
TIMED_KEYS = ("stats", "bin", "estimate", "baseline", "compare", "validate")

# Per-layer span timings: metric -> span name. Each value is the time one
# CLI invocation spends in that call, as a median over the invocations of
# the traced passes that make it.
LAYER_TIMES = {
    "ingest.load_trace_s": "ingest.load_trace",
    "ingest.summarize_s": "ingest.summarize",
    "binning.bin_workload_s": "binning.bin_workload",
    "binning.bin_arrays_s": "binning.bin_arrays",
    "binning.write_csv_s": "binning.write_csv",
    "binning.read_csv_s": "binning.read_csv",
    "tables.load_s": "tables.load",
    "tables.lookup_s": "tables.lookup",
    "tables.synthesize_s": "tables.synthesize",
    "estimator.estimate_s": "estimator.estimate",
    "flops.workload_flops_s": "flops.workload_flops",
    "flops.idealized_energy_s": "flops.idealized_energy",
    "report.emit_s": "report.emit",
    "report.compare_s": "report.compare",
    "sweep.validate_s": "sweep.validate",
    "core.config_load_s": "core.config_load",
    "cli.import_s": "cli.import",
}
# Per-layer counters: metric -> (span name, attribute, unit), summed over the
# spans of one invocation, median over invocations.
LAYER_COUNTS = {
    "ingest.rows": ("ingest.load_trace", "rows", "count"),
    "ingest.malformed": ("ingest.load_trace", "malformed", "count"),
    "ingest.rss_growth_mb": ("ingest.load_trace", "rss_growth_mb", "MB"),
    "binning.bins_occupied": ("binning.bin_workload", "bins_occupied", "count"),
    "binning.excluded": ("binning.bin_workload", "excluded", "count"),
    "tables.records": ("tables.load", "records", "count"),
    "tables.interpolated_bins": ("tables.lookup", "interpolated", "count"),
    "estimator.bins_priced": ("estimator.estimate", "bins_priced", "count"),
    "report.bytes": ("report.emit", "bytes", "bytes"),
}
LAYERS = ("cli", "ingest", "binning", "tables", "estimator", "flops", "report", "sweep",
          "core")


@dataclasses.dataclass
class Command:
    name: str  # unique within a pass; names its stdout file
    key: str  # end-to-end metric group
    argv: list[str]
    check: object  # checks.check_* (stdout bytes, stderr str, expected) -> [errors]
    stdout: Path
    cheap: bool = False  # also sampled in the probe rounds


@dataclasses.dataclass
class Invocation:
    command: Command
    wall: float
    rss_mb: float
    code: int
    spans: list = dataclasses.field(default_factory=list)


class Runner:
    """Starts CLI children one at a time, times them and checks their output."""

    def __init__(self, tmp: Path, expected: dict):
        self.tmp = tmp
        self.expected = expected
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        # Bytecode must be cached by the warm-up, inside this checkout.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env.pop("PYTHONPYCACHEPREFIX", None)
        self.attempted = 0
        self.failures: list[tuple[str, list[str]]] = []
        self._digests: dict[str, str] = {}
        self._spans_seq = 0

    def spawn(self, cmd: Command, traced: bool = False) -> Invocation:
        if traced:
            self._spans_seq += 1
            spans_path = self.tmp / f"spans_{self._spans_seq}.json"
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), "--",
                    *cmd.argv]
        else:
            argv = [sys.executable, "-m", "tokenwatt", *cmd.argv]
        err_path = cmd.stdout.with_suffix(".err")
        with open(cmd.stdout, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.tmp)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        spans = []
        if traced and spans_path.exists():
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
            spans_path.unlink()
        return Invocation(cmd, wall, usage.ru_maxrss / 1024.0, proc.returncode, spans)

    def check(self, inv: Invocation) -> None:
        cmd = inv.command
        self.attempted += 1
        stdout = cmd.stdout.read_bytes()
        stderr = cmd.stdout.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
        errors = [] if inv.code == 0 else [f"exit code {inv.code}, expected 0: {stderr[-300:]!r}"]
        if not errors:
            errors = cmd.check(stdout, stderr, self.expected)
        digest = hashlib.sha256(stdout).hexdigest()
        if self._digests.setdefault(cmd.name, digest) != digest:
            errors.append("stdout differs from an earlier repetition")
        if errors:
            self.failures.append((cmd.name, errors))

    def run_pass(self, cmds: list[Command], traced: bool) -> tuple[float, list[Invocation]]:
        """One pass over the sequence: the summed walls and the invocations.
        Outputs are checked after the pass, outside every timing."""
        invs = [self.spawn(cmd, traced) for cmd in cmds]
        for inv in invs:
            self.check(inv)
        return sum(inv.wall for inv in invs), invs


def grid_spec(grid) -> str:
    return ",".join(map(str, grid[0])) + ":" + ",".join(map(str, grid[1]))


def build_commands(exp: dict, out: Path) -> list[Command]:
    """The workload's command sequence; every exit code expected is 0."""
    f = exp["files"]
    trace = ["--trace", f["trace"]]
    if exp["workload"] == "trace_csv_dirty":
        trace += ["--input-column", "Request tokens", "--output-column", "Response tokens",
                  "--permissive"]
    grid = [] if exp["default_grid"] else ["--grid", grid_spec(exp["grid"])]
    binned_out = out / "binned.csv"
    small_trace = exp["pre_binned"]  # stats and bin are cheap on pricing_fine_grid
    cmds = [
        Command("stats", "stats", ["stats", *trace], checks.check_stats, out / "stats.json",
                small_trace),
        Command("bin", "bin", ["bin", *trace, *grid], checks.check_bin, binned_out,
                small_trace),
    ]
    # What estimate and baseline price: the trace itself (1m, as a user
    # would), the program's own bin output (dirty) or the pre-binned file.
    if exp["workload"] == "trace_csv_1m":
        priced, floor = trace, ["--binned", str(binned_out)]
    elif exp["workload"] == "trace_csv_dirty":
        priced = floor = ["--binned", str(binned_out)]
    else:
        priced = floor = ["--binned", f["binned"]]
    interpolate = ["--interpolate"] if exp["pre_binned"] else []
    # The dirty trace's one estimate prices a small binned file, so it is
    # cheap; the 1M-row one parses the trace and the fine grid has 16.
    cheap_estimate = exp["workload"] == "trace_csv_dirty"
    estimates = []
    for index, e in enumerate(exp["estimates"]):
        path = out / f"estimate_{e['label']}.json"
        estimates.append(str(path))
        cmds.append(Command(
            f"estimate {e['label']}", "estimate",
            ["estimate", *priced, "--table", f["table"], "--backend", e["backend"],
             "--device", e["device"], "--label", e["label"], *interpolate],
            checks.check_estimate(index), path, cheap_estimate))
    synth = exp["synth_args"]
    cmds += [
        Command("compare", "compare",
                ["compare", "--estimates", ",".join(estimates), "--baseline-j",
                 repr(exp["baseline"]["optimal_j"]), "--reference", exp["reference"]],
                checks.check_compare, out / "compare.json", True),
        Command("baseline", "baseline",
                ["baseline", *floor, "--model", f["model"], "--hw", f["hw"]],
                checks.check_baseline, out / "baseline.json", True),
        Command("validate", "validate", ["validate-table", "--table", f["table"]],
                checks.check_validate, out / "validate.txt", True),
        Command("synth", "synth",
                ["synth-table", "--model", f["model"], "--hw", f["hw"],
                 "--efficiency", repr(synth["efficiency"]),
                 "--decode-penalty", repr(synth["decode_penalty"]), *grid],
                checks.check_synth, out / "synth.csv"),
    ]
    return cmds


# --- statistics ---

def summary(samples: list[float], stat: str = "mean") -> dict:
    """`stat` ("mean" or "median") of the samples as the value, with the
    sample count, the median and the highest of p90/p99/p99.9 that has at
    least ten samples beyond it."""
    out = {"value": statistics.fmean(samples) if stat == "mean" else statistics.median(samples),
           "stat": stat, "n": len(samples), "median": statistics.median(samples),
           "samples": samples}
    for q in (0.999, 0.99, 0.9):
        if len(samples) * (1 - q) >= 10:
            out[f"p{q * 100:g}"] = sorted(samples)[math.ceil(q * len(samples)) - 1]
            break
    return out


def end_to_end(exp, cmds, pass_walls, invocations) -> dict:
    by_key: dict[str, list[float]] = {}
    for inv in invocations:
        by_key.setdefault(inv.command.key, []).append(inv.wall)
    # Set-up is the median of the run's start-ups. The subcommands report
    # their mean wall: this host runs at a few discrete speeds, and a median
    # jumps between them when the share of samples at each crosses one half,
    # where the mean moves with the share (see README.md).
    out = {"setup_s": summary(by_key["setup"], "median")}
    for key in TIMED_KEYS:
        out[f"{key}_s"] = summary(by_key[key])
    out["rows_per_s"] = {"value": exp["trace_rows"] / out["bin_s"]["value"],
                         "stat": "trace rows / bin_s", "n": out["bin_s"]["n"]}
    # One pass as its expected wall: a run has only two to five passes, so
    # one slow stretch of the machine moves their median.
    out["workload_s"] = {
        "value": sum(statistics.fmean(by_key[c.key]) for c in cmds),
        "stat": "sum over the sequence of its commands' group means",
        "n": len(pass_walls), "whole_pass_walls": pass_walls}
    out["peak_rss_mb"] = {"value": max(inv.rss_mb for inv in invocations), "stat": "max",
                          "n": len(invocations)}
    return out


def _self_times(inv: Invocation) -> dict[str, float]:
    """Seconds of the invocation's wall spent in each layer's own code.

    A span's self time is its duration minus its children's; `cli` also
    takes the part of the wall outside every span (interpreter start-up and
    exit), so the layers sum to the wall.
    """
    child = [0.0] * len(inv.spans)
    for name, start, end, _, parent, _ in inv.spans:
        if parent is not None:
            child[parent] += end - start
    layers = dict.fromkeys(LAYERS, 0.0)
    covered = 0.0
    for (name, start, end, _, parent, _), sub in zip(inv.spans, child):
        layers[name.split(".")[0]] += end - start - sub
        if parent is None:
            covered += end - start
    layers["cli"] += inv.wall - covered
    return layers


class MissingSpan(RuntimeError):
    """A per-layer metric has no samples."""


def per_layer(traced: list[Invocation], pass_walls, traced_walls) -> dict:
    """Per-layer metrics from the traced invocations (see LAYER_TIMES)."""
    times: dict[str, list[float]] = {m: [] for m in LAYER_TIMES}
    counts: dict[str, list[float]] = {m: [] for m in LAYER_COUNTS}
    cli_self, rows_per_s = [], []
    interpolated = priced = 0
    for inv in traced:
        spent: dict[str, float] = {}
        attrs: dict[tuple[str, str], float] = {}
        for name, start, end, _, parent, attr in inv.spans:
            spent[name] = spent.get(name, 0.0) + end - start
            for k, v in attr.items():
                attrs[(name, k)] = attrs.get((name, k), 0.0) + v
        for metric, span in LAYER_TIMES.items():
            if span in spent:
                times[metric].append(spent[span])
        for metric, (span, attr, _) in LAYER_COUNTS.items():
            if span in spent:
                counts[metric].append(attrs.get((span, attr), 0.0))
        if "ingest.load_trace" in spent:
            rows_per_s.append(attrs[("ingest.load_trace", "rows")] / spent["ingest.load_trace"])
        interpolated += attrs.get(("tables.lookup", "interpolated"), 0)
        priced += attrs.get(("estimator.estimate", "bins_priced"), 0)
        top = sum(end - start for name, start, end, _, parent, _ in inv.spans
                  if parent is not None and inv.spans[parent][0] == "cli.main")
        cli_self.append(inv.wall - spent.get("cli.import", 0.0) - top)

    def med(metric, values, unit):
        if not values:
            # A metric without samples has no value; 0 would read as measured.
            raise MissingSpan(f"no traced invocation recorded {metric}: the CLI no longer "
                              "reaches a function traced_cli.py wraps")
        return {"value": statistics.median(values), "stat": "median", "n": len(values),
                "unit": unit}

    out = {m: med(m, v, "s") for m, v in times.items()}
    out.update({m: med(m, v, LAYER_COUNTS[m][2]) for m, v in counts.items()})
    out["ingest.rows_per_s"] = med("ingest.rows_per_s", rows_per_s, "1/s")
    if not priced:
        raise MissingSpan("no traced invocation recorded estimator.bins_priced")
    out["tables.interpolated_share"] = {
        "value": interpolated / priced, "stat": "ratio of totals",
        "n": len(traced), "unit": "ratio", "interpolated_bins": interpolated,
        "bins_priced": priced}
    out["cli.self_s"] = med("cli.self_s", cli_self, "s")
    # Signed: tracing costs less than the noise between passes, so this is
    # often negative, and no ratio to an earlier value means anything.
    out["trace.overhead_s"] = {
        "value": statistics.median(traced_walls) - statistics.median(pass_walls),
        "stat": "difference of pass medians (signed)", "n": len(traced_walls), "unit": "s"}
    return out


def layer_table(traced: list[Invocation], untraced: list[Invocation]) -> dict:
    """Median self seconds per layer for each command of the traced passes,
    beside the command's median untraced wall."""
    rows: dict[str, list[dict[str, float]]] = {}
    for inv in traced:
        rows.setdefault(inv.command.key, []).append({"wall": inv.wall, **_self_times(inv)})
    walls: dict[str, list[float]] = {}
    for inv in untraced:
        walls.setdefault(inv.command.key, []).append(inv.wall)
    return {key: {"untraced": statistics.median(walls[key]),
                  **{col: statistics.median(r[col] for r in rs) for col in rs[0]}}
            for key, rs in rows.items()}


# --- running ---

def loop_ms(rounds: int = 5) -> float:
    """Median wall milliseconds of a fixed pure-Python loop.

    Recorded beside the figures as a marker of the machine's speed at the
    time: two sets of runs compare only when their markers agree.
    """
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


def _numpy_version() -> str:
    # Asked of a child: importing numpy here would raise this process's
    # peak RSS, which every CLI child inherits.
    return subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                          capture_output=True, text=True, timeout=60).stdout.strip()


def environment() -> dict:
    tree = hashlib.sha256()
    for path in sorted((SRC / "tokenwatt").glob("*.py")):
        tree.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "src_sha256": tree.hexdigest(),
        # CLI children inherit this process's peak RSS; it must stay below theirs.
        "benchmark_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Generate, run and check one workload; returns the full result."""
    TMP_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=TMP_DIR))
    try:
        t0 = time.perf_counter()
        inputs = tmp / "inputs"
        subprocess.run([sys.executable, str(HERE / "oracle.py"), name, str(seed), str(inputs)],
                       check=True, timeout=CHILD_TIMEOUT_S)
        exp = json.loads((inputs / "expected.json").read_text(encoding="utf-8"))
        generate_s = time.perf_counter() - t0
        out = tmp / "out"
        out.mkdir()
        runner = Runner(out, exp)
        cmds = build_commands(exp, out)
        # Probes write their own files, so the pass's outputs stay checkable.
        probes = [Command("version", "setup", ["--version"], checks.check_version,
                          out / "version.txt")]
        probes += [dataclasses.replace(c, stdout=c.stdout.with_name("probe_" + c.stdout.name))
                   for c in cmds if c.cheap]
        for sub in dict.fromkeys(c.argv[0] for c in cmds):
            # Untimed: caches bytecode and warms the page cache.
            runner.check(runner.spawn(Command(f"warm-up {sub}", "warm-up", [sub, "--help"],
                                              checks.check_help, out / f"help_{sub}.txt")))

        pass_walls, traced_walls, markers = [], [], [loop_ms()]
        invocations, traced = [], []
        start = time.perf_counter()
        if trace:
            while True:
                # Traced and untraced passes alternate which goes first.
                order = (False, True) if len(pass_walls) % 2 == 0 else (True, False)
                for traced_pass in order:
                    wall, invs = runner.run_pass(cmds, traced_pass)
                    (traced_walls if traced_pass else pass_walls).append(wall)
                    (traced if traced_pass else invocations).extend(invs)
                markers.append(loop_ms())
                rounds = len(pass_walls)
                elapsed = time.perf_counter() - start
                # Stop before a round that would end past --seconds. When the
                # machine is slow a run may make only one round: a fixed
                # minimum would stretch the run past --seconds instead.
                if elapsed * (rounds + 1) / rounds > seconds:
                    break
        else:
            # One invocation at a time, round after round of the sequence
            # followed by the probe rounds, until the next invocation would
            # end past --seconds (judged by its last wall) after at least one
            # whole round. Each output is checked before the next starts.
            cycle = cmds + probes * PROBE_ROUNDS
            last: dict[str, float] = {}
            for i in itertools.count():
                cmd = cycle[i % len(cycle)]
                if i and i % len(cycle) == 0:
                    markers.append(loop_ms())
                if i >= len(cycle) and time.perf_counter() - start + last[cmd.name] > seconds:
                    break
                inv = runner.spawn(cmd)
                runner.check(inv)
                last[cmd.name] = inv.wall
                invocations.append(inv)
                if i % len(cycle) == len(cmds) - 1:
                    pass_walls.append(sum(v.wall for v in invocations[-len(cmds):]))
            markers.append(loop_ms())

        result = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "environment": environment(), "inputs": exp["manifest"],
            "generate_s": generate_s, "measured_s": time.perf_counter() - start,
            "machine_loop_ms": {"value": statistics.median(markers), "samples": markers},
            "passes": len(pass_walls), "commands": [c.argv[0] for c in cmds],
            "attempted": runner.attempted, "failed": len(runner.failures),
            "failures": [{"command": c, "errors": e[:5]} for c, e in runner.failures[:20]],
            "end_to_end": None, "per_layer": None, "layer_self_s": None, "spans": None,
        }
        if trace:
            result["per_layer"] = per_layer(traced, pass_walls, traced_walls)
            result["layer_self_s"] = layer_table(traced, invocations)
            result["spans"] = [{"command": inv.command.name, "wall": inv.wall,
                                "spans": inv.spans} for inv in traced]
        else:
            result["end_to_end"] = end_to_end(exp, cmds, pass_walls, invocations)
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_DIR.rmdir()
        except OSError:
            pass


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(result: dict) -> dict:
    """Print the human-readable tables; return the result line's object."""
    env = result["environment"]
    print(f"== {result['workload']}  seed={result['seed']}  trace={result['trace']}  "
          f"passes={result['passes']}  measured={result['measured_s']:.1f}s  "
          f"generate={result['generate_s']:.1f}s")
    print(f"   python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']} "
          f"({env['cpus_usable']} usable), numba importable: {env['numba_importable']}, "
          f"src sha256 {env['src_sha256'][:12]}")
    print(f"   machine marker: fixed loop {result['machine_loop_ms']['value']:.2f} ms "
          f"(median of {len(result['machine_loop_ms']['samples'])}; compare runs only "
          "when their markers agree)")
    for key, item in result["inputs"].items():
        print(f"   input {key:7s} {item['file']:22s} rows={item['rows']:<8d} "
              f"sha256={item['sha256'][:16]}")
    metrics = {}
    if result["end_to_end"] is not None:
        print("   end-to-end (tracing off; per-invocation wall clock: setup_s a median, "
              "the subcommands means, medians and tails beside)")
        for name, unit in END_TO_END:
            m = result["end_to_end"][name]
            tail = "".join(f"  {k}={_fmt(v)}" for k, v in m.items()
                           if k.startswith("p") or k == "median")
            print(f"     {name:12s} {_fmt(m['value']):>12s} {unit:5s} n={m['n']}{tail}")
            metrics[name] = {"value": m["value"], "unit": unit}
    else:
        print("   per-layer (traced passes; per-invocation medians)")
        for name, m in result["per_layer"].items():
            print(f"     {name:26s} {_fmt(m['value']):>12s} {m['unit']:6s} n={m['n']}")
            metrics[name] = {"value": m["value"], "unit": m["unit"]}
        print("   self seconds per layer, median per invocation of each command "
              "(untraced: median wall of the untraced passes)")
        cols = ("untraced", "wall") + LAYERS
        print("     " + f"{'command':10s}" + "".join(f"{c:>10s}" for c in cols))
        for key, row in result["layer_self_s"].items():
            print("     " + f"{key:10s}" + "".join(f"{row[c]:10.4f}" for c in cols))
    attempted, failed = result["attempted"], result["failed"]
    print(f"   error_rate   {failed}/{attempted} = {failed / attempted:.4f} "
          "(failed CLI invocations over attempted)")
    for f in result["failures"]:
        print(f"   FAILED {f['command']}: {'; '.join(f['errors'])}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="measured time per workload (default 36)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind as on Ctrl-C: the running child is killed and
    # waited for, and the temporary inputs are removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "tokenwatt" / "__init__.py").is_file():
        sys.stderr.write(f"error: no tokenwatt package at {SRC / 'tokenwatt'}; "
                         "run from a checkout of the repository\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        result = measure(name, args.seed, args.seconds, bool(args.trace))
        line = report(result)
        OUT_DIR.mkdir(exist_ok=True)
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        spans = result.pop("spans")
        if spans is not None:
            (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(spans), encoding="utf-8")
        (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
        print(json.dumps(line), flush=True)
        ok = ok and line["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
