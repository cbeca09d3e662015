"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data or validation error. Validation
failures print a single machine-parseable `error: ...` line on stderr.
Reports go to stdout unless --out is given; stderr carries diagnostics only,
so large-trace pipelines stay clean.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
from pathlib import Path

from . import __version__
from .binning import BinnedWorkload, bin_workload, read_binned_csv, write_binned_csv
from .core import (DEFAULT_GRID, BinGrid, Energy, HardwareSpec, ModelConfig, ValidationError,
                   parse_caps, parse_value)
from .estimator import ESTIMATE_MODES, estimate
from .flops import idealized_energy, joules_per_flop, workload_flops
from .ingest import TRACE_FORMATS, load_trace, summarize_trace
from .report import (
    BaselineReport,
    REPORT_FORMATS,
    SCHEMA_VERSION,
    TraceReport,
    compare,
    emit_report,
    read_estimate,
)
from .sweep import default_sweep_plans, format_plan, validate_table_against_plan, write_plans
from .tables import load_table, synthesize_table, write_table

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    # A flag is taken only as spelled out in full, so that a script keeps
    # working when a later flag shares its prefix.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse exits 2 on usage errors; this tool reserves 2 for data errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def parse_grid(spec: str | None) -> BinGrid:
    """Grid flag syntax: 'I1,I2,...:O1,O2,...'. Each side is a caps list,
    read by parse_caps (parse_value words its errors) and checked by BinGrid."""
    if spec is None:
        return DEFAULT_GRID
    if ":" not in spec:
        raise ValidationError(f"grid spec must be 'I1,I2,...:O1,O2,...', got {spec!r}")
    return BinGrid(*(parse_value(parse_caps, side, "grid spec") for side in spec.split(":", 1)))


def _check_out(out: str | None) -> None:
    """Refuse a file-valued --out that cannot be written, before any input is read."""
    if out is not None and out != "-" and (Path(out).is_dir() or not Path(out).parent.is_dir()):
        raise ValidationError(f"--out {out}: not a file in an existing directory")


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _load_requests(args):
    """The --trace requests; skipped malformed rows are noted on stderr."""
    load = load_trace(args.trace, args.trace_format, args.input_column, args.output_column,
                      args.permissive)
    if load.malformed:
        sys.stderr.write(f"note: skipped {load.malformed_count} malformed rows\n")
    return load.requests


def _dataset_name(args) -> str:
    if getattr(args, "dataset", None):
        return args.dataset
    path = getattr(args, "trace", None) or getattr(args, "binned", None)
    if path is None or path == "-":
        return "stdin"
    return Path(path).stem


def _load_workload(args) -> BinnedWorkload:
    """The --binned workload, or the --trace requests binned on --grid, which
    is checked before the trace is read."""
    if getattr(args, "binned", None) is not None:
        if args.grid is not None:
            raise ValidationError("--grid cannot be used with --binned; the file carries its grid")
        return read_binned_csv(args.binned)
    grid = parse_grid(args.grid)
    return bin_workload(_load_requests(args), grid)


def cmd_stats(args) -> int:
    requests = _load_requests(args)
    if not requests:
        raise ValidationError("trace contains no valid requests")
    input_stats, output_stats = summarize_trace(requests)
    report = TraceReport(
        dataset=_dataset_name(args),
        count=len(requests),
        input_stats=input_stats,
        output_stats=output_stats,
    )
    _emit(emit_report(report, args.format), args.out)
    return EXIT_OK


def cmd_bin(args) -> int:
    workload = _load_workload(args)
    buf = io.StringIO()
    write_binned_csv(workload, buf)
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


def cmd_estimate(args) -> int:
    workload = _load_workload(args)
    table = load_table(args.table)
    result = estimate(
        workload,
        table,
        backend=args.backend,
        device=args.device,
        mode=args.mode,
        interpolate=args.interpolate,
        label=args.label,
    )
    _emit(emit_report(result, args.format), args.out)
    return EXIT_OK


def cmd_baseline(args) -> int:
    workload = _load_workload(args)
    model = ModelConfig.from_file(args.model)
    hw = HardwareSpec.from_file(args.hw)
    flops = workload_flops(model, workload)
    report = BaselineReport(
        dataset=_dataset_name(args),
        model_name=Path(args.model).stem,
        optimal=idealized_energy(hw, model, workload),
        j_per_flop=joules_per_flop(hw),
        prefill_flops=flops.prefill_flops,
        decode_flops=flops.decode_flops,
        excluded_requests=workload.total_excluded,
    )
    _emit(emit_report(report, args.format), args.out)
    return EXIT_OK


def cmd_compare(args) -> int:
    paths = [p for p in args.estimates.split(",") if p]
    if not paths:
        raise ValidationError("--estimates needs at least one file")
    if not 0 < args.baseline_j < math.inf:
        raise ValidationError(f"--baseline-j must be positive and finite, got {args.baseline_j}")
    comparison = compare(
        [read_estimate(path) for path in paths],
        optimal=Energy(args.baseline_j),
        reference_label=args.reference,
        dataset=args.dataset or "",
    )
    _emit(emit_report(comparison, args.format), args.out)
    return EXIT_OK


def cmd_plan_sweep(args) -> int:
    plans = default_sweep_plans()
    if args.out_dir is not None:
        for path in write_plans(plans, args.out_dir):
            sys.stdout.write(f"{path}\n")
        return EXIT_OK
    chunks = [f"# file: {plan.filename}\n{format_plan(plan)}" for plan in plans]
    sys.stdout.write("\n".join(chunks))
    return EXIT_OK


def cmd_validate_table(args) -> int:
    table = load_table(args.table)
    report = validate_table_against_plan(table, default_sweep_plans())
    _emit("\n".join(report.summary_lines()) + "\n", args.out)
    if not report.full_coverage:
        sys.stderr.write("error: table does not cover all planned grid points\n")
        return EXIT_DATA
    return EXIT_OK


def cmd_synth_table(args) -> int:
    table = synthesize_table(
        grid=parse_grid(args.grid),
        model=ModelConfig.from_file(args.model),
        hw=HardwareSpec.from_file(args.hw),
        efficiency=args.efficiency,
        decode_penalty=args.decode_penalty,
        backend=args.backend,
        device=args.device,
        memory_bytes=args.memory_bytes,
        kv_bytes_per_token=args.kv_bytes_per_token,
    )
    buf = io.StringIO()
    write_table(table, buf)
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


def _add_out(p, fmt: bool = True) -> None:
    p.add_argument("--out", metavar="FILE", help="write the report here instead of stdout")
    if fmt:
        p.add_argument("--format", choices=REPORT_FORMATS, default="json",
                       help="report serialization (default: json)")


def _add_trace_flags(p, binned: bool = False) -> None:
    """--trace and how to read it; with `binned`, --binned may replace --trace."""
    src = p.add_mutually_exclusive_group(required=True) if binned else p
    src.add_argument("--trace", required=not binned, metavar="FILE",
                     help="request trace file, or - for stdin")
    if binned:
        src.add_argument("--binned", metavar="FILE",
                         help="pre-binned workload csv (from the bin subcommand), or - for stdin")
    p.add_argument("--trace-format", choices=TRACE_FORMATS, default="generic-csv",
                   help="trace encoding (default: generic-csv)")
    p.add_argument("--input-column", default="input_tokens", metavar="NAME",
                   help="column/member holding input token counts")
    p.add_argument("--output-column", default="output_tokens", metavar="NAME",
                   help="column/member holding output token counts")
    p.add_argument("--permissive", action="store_true",
                   help="skip malformed rows instead of aborting")


def _add_grid(p) -> None:
    p.add_argument("--grid", metavar="SPEC",
                   help="bin caps as 'I1,I2,...:O1,O2,...' (default: standard grid)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tokenwatt",
        description="Estimate LLM inference energy from request traces and "
                    "measured per-batch energy tables.",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"tokenwatt {__version__} (report schema {SCHEMA_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("stats", help="token-count distribution summary of a trace")
    _add_trace_flags(p)
    p.add_argument("--dataset", metavar="NAME", help="dataset label (default: file stem)")
    _add_out(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("bin", help="histogram a trace over the bin grid")
    _add_trace_flags(p)
    _add_grid(p)
    _add_out(p, fmt=False)
    p.set_defaults(func=cmd_bin)

    p = sub.add_parser("estimate", help="energy estimate against a measurement table")
    _add_trace_flags(p, binned=True)
    _add_grid(p)
    p.add_argument("--table", required=True, metavar="FILE", help="measurement table csv")
    p.add_argument("--backend", required=True, help="serving backend name in the table")
    p.add_argument("--device", required=True, help="device name in the table")
    p.add_argument("--mode", choices=ESTIMATE_MODES, default="fractional",
                   help="fractional batches or ceiling to whole batches")
    p.add_argument("--interpolate", action="store_true",
                   help="fill missing bins by log-log interpolation of neighbors")
    p.add_argument("--label", metavar="NAME",
                   help="entry label for comparison reports (default: backend)")
    _add_out(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("baseline", help="idealized lower-bound energy from a FLOPs model")
    _add_trace_flags(p, binned=True)
    _add_grid(p)
    p.add_argument("--model", required=True, metavar="FILE", help="model architecture config")
    p.add_argument("--hw", required=True, metavar="FILE", help="hardware spec config")
    p.add_argument("--dataset", metavar="NAME", help="dataset label (default: file stem)")
    _add_out(p)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("compare", help="rank estimate reports against an optimal baseline")
    p.add_argument("--estimates", required=True, metavar="E1,E2,...",
                   help="comma-separated estimate json reports")
    p.add_argument("--baseline-j", required=True, type=float, metavar="X",
                   help="idealized optimal energy in joules")
    p.add_argument("--reference", required=True, metavar="LABEL",
                   help="label whose energy anchors the savings column")
    p.add_argument("--dataset", metavar="NAME", help="dataset label for the report")
    _add_out(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("plan-sweep", help="emit benchmark sweep plans")
    p.add_argument("--out", dest="out_dir", metavar="DIR",
                   help="write one .cfg per plan into this directory")
    p.set_defaults(func=cmd_plan_sweep)

    p = sub.add_parser("validate-table", help="check a table against the planned sweep points")
    p.add_argument("--table", required=True, metavar="FILE", help="measurement table csv")
    _add_out(p, fmt=False)
    p.set_defaults(func=cmd_validate_table)

    p = sub.add_parser("synth-table", help="generate a synthetic measurement table")
    p.add_argument("--model", required=True, metavar="FILE", help="model architecture config")
    p.add_argument("--hw", required=True, metavar="FILE", help="hardware spec config")
    p.add_argument("--efficiency", required=True, type=float,
                   help="fraction of peak throughput actually achieved, in (0, 1]")
    p.add_argument("--decode-penalty", required=True, type=float,
                   help="energy multiplier on decode FLOPs, >= 1")
    _add_grid(p)
    p.add_argument("--backend", default="synthetic", help="backend name for the rows")
    p.add_argument("--device", default=None, help="device name (default: hw config name)")
    p.add_argument("--memory-bytes", type=float, default=40e9,
                   help="KV-cache budget determining max batch (default: 40e9)")
    p.add_argument("--kv-bytes-per-token", type=int, default=None,
                   help="override the per-token KV-cache byte estimate")
    _add_out(p, fmt=False)
    p.set_defaults(func=cmd_synth_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(getattr(args, "out", None))
        return args.func(args)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
