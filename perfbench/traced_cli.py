"""Run one tokenwatt command in-process with a span around each layer call.

Usage: python traced_cli.py SPANS_JSON -- ARGS...

Spans are recorded from this file only: the public functions the CLI calls
are wrapped where the caller looks them up (for example `tokenwatt.cli.
load_trace`, or `tokenwatt.estimator.lookup` for table lookups), so the
program runs unchanged and makes its calls in its own order. Spans stay in
memory and are written to SPANS_JSON when the command returns, as
[name, start, end, span_id, parent_id, attrs] rows with perf_counter times;
every span's attrs include its growth of the process's peak RSS.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs, count=None):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rss = _max_rss_mb()
        row = [name, time.perf_counter(), None, span_id, parent, {}]
        self.spans.append(row)
        self._stack.append(span_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()
        row[5] = {"rss_growth_mb": _max_rss_mb() - rss, **(count(result) if count else {})}
        return result

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace owner.attr with a spanned call to the original."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        setattr(owner, attr, spanned)


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def instrument(tracer: Tracer) -> None:
    """Wrap every layer entry point the CLI reaches."""
    from tokenwatt import binning, cli, core, estimator, tables

    tracer.wrap(cli, "load_trace", "ingest.load_trace", lambda r: {
        "rows": len(r.requests), "malformed": r.malformed_count})
    tracer.wrap(cli, "summarize_trace", "ingest.summarize")
    tracer.wrap(cli, "bin_workload", "binning.bin_workload", lambda w: {
        "bins_occupied": sum(1 for c in w.counts.values() if c), "excluded": w.total_excluded})
    tracer.wrap(binning, "bin_arrays", "binning.bin_arrays")
    tracer.wrap(cli, "write_binned_csv", "binning.write_csv")
    tracer.wrap(cli, "read_binned_csv", "binning.read_csv")
    tracer.wrap(cli, "load_table", "tables.load", lambda t: {"records": len(t.records)})
    tracer.wrap(estimator, "lookup", "tables.lookup",
                lambda rec: {"interpolated": int(rec.provenance == tables.INTERPOLATED)})
    tracer.wrap(cli, "synthesize_table", "tables.synthesize")
    tracer.wrap(cli, "estimate", "estimator.estimate", lambda e: {"bins_priced": len(e.per_bin)})
    tracer.wrap(cli, "workload_flops", "flops.workload_flops")
    tracer.wrap(cli, "idealized_energy", "flops.idealized_energy")
    tracer.wrap(cli, "emit_report", "report.emit", lambda text: {"bytes": len(text.encode())})
    tracer.wrap(cli, "compare", "report.compare")
    tracer.wrap(cli, "validate_table_against_plan", "sweep.validate")
    for cls in (core.ModelConfig, core.HardwareSpec):
        fn = cls.from_file.__func__
        setattr(cls, "from_file", classmethod(
            lambda c, path, _fn=fn: tracer.call("core.config_load", _fn, (c, path), {})))


def _run(cli, args: list[str]) -> int:
    try:
        return cli.main(args)
    except SystemExit as exc:  # argparse usage errors and --help
        return exc.code if isinstance(exc.code, int) else 1


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 1
    spans_path, args = argv[0], argv[2:]
    tracer = Tracer()
    cli = tracer.call("cli.import", importlib.import_module, ("tokenwatt.cli",), {})
    instrument(tracer)
    code = tracer.call("cli.main", _run, (cli, args), {})
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as f:
        json.dump(tracer.spans, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
