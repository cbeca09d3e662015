"""Report assembly and serialization.

One schema_version covers every report kind. json carries full-precision
joules for machine use; csv is also machine-oriented (comment-prefixed
context lines, full precision); markdown-table is for humans and prints
energies in kWh and percentages with two decimals.

The fields of each kind of report row are listed once, as a tuple of
columns; one emitter per report kind lays its rows out in each format, with
that kind's context fields around them.
"""

from __future__ import annotations

import json
import math
from operator import attrgetter, itemgetter
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence, Union

from ._frozen import frozen
from .core import J_PER_KWH, Energy, ValidationError, check_value, joules_or_none
from .csvio import format_csv
from .estimator import WorkloadEstimate
from .ingest import TraceStats

SCHEMA_VERSION = "1"
REPORT_FORMATS = ("json", "csv", "markdown-table")


@frozen
class ComparisonEntry:
    label: str
    energy: Energy
    pct_delta_vs_optimal: float
    savings_vs_reference: Optional[float]  # None on the reference row


@frozen
class Comparison:
    dataset: str
    baseline: Energy  # idealized optimal for the same workload
    entries: tuple[ComparisonEntry, ...]  # ascending by energy
    reference_label: str
    mode: str
    excluded_requests: int


@frozen
class BaselineReport:
    """Idealized lower-bound energy for a workload, with its FLOPs ledger."""

    dataset: str
    model_name: str
    optimal: Energy
    j_per_flop: float
    prefill_flops: int
    decode_flops: int
    excluded_requests: int

    @property
    def total_flops(self) -> int:
        return self.prefill_flops + self.decode_flops


@frozen
class TraceReport:
    """Distribution summary of a trace's input and output token counts."""

    dataset: str
    count: int
    input_stats: TraceStats
    output_stats: TraceStats


Labeled = Union[WorkloadEstimate, tuple[str, Energy]]


def compare(
    estimates: Sequence[Labeled],
    optimal: Energy,
    reference_label: str,
    dataset: str = "",
) -> Comparison:
    """Rank labeled estimates against the idealized optimum.

    Accepts bare (label, Energy) pairs, or WorkloadEstimates and other
    objects with their `label`, `total`, `mode` and `excluded_requests`
    attributes, from which the comparison's mode ("mixed" when they differ)
    and excluded_requests (which must agree) are inferred. Each entry gets
    its percent overhead above `optimal`; non-reference entries also get
    percent savings relative to the reference entry, positive iff they use
    less energy. A percentage that is not finite, such as savings against a
    reference of 0 J, is a data error naming its entry.
    """
    if optimal.joules <= 0:
        raise ValidationError("optimal energy must be positive")
    if not estimates:
        raise ValidationError("compare needs at least one estimate")

    rows: list[tuple[str, Energy]] = []
    modes: set[str] = set()
    excluded: set[int] = set()
    for item in estimates:
        if isinstance(item, tuple):
            label, energy = item
            rows.append((label, energy))
        else:
            rows.append((item.label, item.total))
            modes.add(item.mode)
            excluded.add(item.excluded_requests)

    labels = [label for label, _ in rows]
    if len(set(labels)) != len(labels):
        raise ValidationError(f"duplicate estimate labels: {sorted(labels)}")
    if reference_label not in labels:
        raise ValidationError(
            f"reference label {reference_label!r} not among estimates {sorted(labels)}"
        )
    if len(excluded) > 1:
        raise ValidationError(
            "estimates disagree on excluded_requests; they must describe one workload"
        )

    reference_j = dict(rows)[reference_label].joules
    entries = []
    for label, energy in sorted(rows, key=lambda r: (r[1].joules, r[0])):
        pct = 100.0 * (energy.joules - optimal.joules) / optimal.joules
        savings = None
        if label != reference_label:
            savings = 100.0 * (1.0 - energy.joules / reference_j) if reference_j else math.nan
        for what, value in ((f"over the optimal ({optimal.joules} J)", pct),
                            (f"of savings vs the reference {reference_label!r} ({reference_j} J)",
                             savings)):
            if value is not None and not math.isfinite(value):
                raise ValidationError(f"entry {label!r}: its percentage {what} is not finite")
        entries.append(ComparisonEntry(
            label=label,
            energy=energy,
            pct_delta_vs_optimal=pct,
            savings_vs_reference=savings,
        ))
    return Comparison(
        dataset=dataset,
        baseline=optimal,
        entries=tuple(entries),
        reference_label=reference_label,
        mode=modes.pop() if len(modes) == 1 else ("mixed" if modes else "n/a"),
        excluded_requests=excluded.pop() if excluded else 0,
    )


def emit_report(obj, format: str = "json") -> str:
    """Serialize a report object deterministically; same object, same bytes."""
    if format not in REPORT_FORMATS:
        raise ValidationError(f"format must be one of {REPORT_FORMATS}, got {format!r}")
    for cls, emit in ((Comparison, _comparison), (WorkloadEstimate, _estimate),
                      (BaselineReport, _baseline), (TraceReport, _stats)):
        if isinstance(obj, cls):
            return emit(obj, format)
    raise ValidationError(f"cannot serialize object of type {type(obj).__name__}")


class _Column(NamedTuple):
    """One field of a report row.

    `key` is its json key and csv header, and `get` reads its value from a
    row. A column with a markdown `title` (a str.format template applied to
    the report) shows in markdown as `cell(value)`, right-aligned unless
    `left`; a column without one stays out of markdown.
    """

    key: str
    get: Callable[[Any], Any]
    title: Optional[str] = None
    cell: Callable[[Any], str] = str
    left: bool = False


def _kwh(joules: float) -> str:
    return f"{joules / J_PER_KWH:.6e}"


def _pct(value: float) -> str:
    return f"{value:.2f}"


def _num(value: float) -> str:
    # Trim trailing zeros so integral stats read as integers.
    if math.isfinite(value) and value == int(value):
        return str(int(value))
    return f"{value:.2f}"


# A comparison row is a ComparisonEntry.
_ENTRY_COLUMNS = (
    _Column("label", attrgetter("label"), "label", left=True),
    _Column("energy_j", attrgetter("energy.joules"), "energy (kWh)", _kwh),
    _Column("pct_delta_vs_optimal", attrgetter("pct_delta_vs_optimal"), "% over optimal", _pct),
    _Column("savings_vs_reference", attrgetter("savings_vs_reference"),
           "savings vs {0.reference_label} (%)",
           lambda pct: "(reference)" if pct is None else _pct(pct)),
)

# An estimate row is a BinEstimate.
_BIN_COLUMNS = (
    _Column("input_cap", attrgetter("bin.input_cap"), "input cap"),
    _Column("output_cap", attrgetter("bin.output_cap"), "output cap"),
    _Column("count", attrgetter("count"), "count"),
    _Column("max_batch", attrgetter("max_batch"), "max batch"),
    _Column("batches", attrgetter("batches"), "batches", "{:g}".format),
    _Column("energy_j", attrgetter("energy.joules"), "energy (kWh)", _kwh),
    _Column("prefill_j", lambda be: joules_or_none(be.prefill_energy)),
    _Column("decode_j", lambda be: joules_or_none(be.decode_energy)),
    _Column("provenance", attrgetter("provenance"), "provenance", left=True),
)

# A baseline report is a single row, which csv writes as `key,value` lines
# and markdown as a list under a heading naming the dataset.
_BASELINE_FIELDS = (
    _Column("dataset", attrgetter("dataset")),
    _Column("model", attrgetter("model_name"), "model"),
    _Column("optimal_j", attrgetter("optimal.joules"), "optimal energy",
           lambda joules: f"{_kwh(joules)} kWh"),
    _Column("j_per_flop", attrgetter("j_per_flop"), "joules per FLOP", "{:.4e}".format),
    _Column("prefill_flops", attrgetter("prefill_flops"), "prefill FLOPs"),
    _Column("decode_flops", attrgetter("decode_flops"), "decode FLOPs"),
    _Column("total_flops", attrgetter("total_flops"), "total FLOPs"),
    _Column("excluded_requests", attrgetter("excluded_requests"), "excluded requests"),
)

# A stats row is (token column name, request count, TraceStats).
_STATS_COLUMNS = (
    _Column("column", itemgetter(0), "tokens", left=True),
    _Column("count", itemgetter(1)),
    _Column("mean", lambda row: row[2].mean, "mean", _num),
    _Column("std", lambda row: row[2].std, "std", _num),
    _Column("median", lambda row: row[2].median, "median", _num),
    _Column("p99", lambda row: row[2].p99, "p99", _num),
    _Column("max", lambda row: row[2].max, "max", _num),
)


def _dump(payload: dict) -> str:
    """The json text of a report: `schema_version`, then `payload`."""
    report = {"schema_version": SCHEMA_VERSION, **payload}
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def _record(columns: Sequence[_Column], row) -> dict:
    return {c.key: c.get(row) for c in columns}


def _keys(columns: Sequence[_Column]) -> list[str]:
    return [c.key for c in columns]


def _values(columns: Sequence[_Column], rows: Iterable) -> list[list]:
    return [[c.get(row) for c in columns] for row in rows]


def _md_table(report, columns: Sequence[_Column], rows: Iterable) -> list[str]:
    """Header, alignment and row lines of a markdown table of the titled
    `columns`."""
    shown = [c for c in columns if c.title is not None]
    cells = [(c.get, c.cell) for c in shown]
    lines = [_md_row([c.title.format(report) for c in shown]),
             _md_row(["---" if c.left else "---:" for c in shown])]
    lines.extend(_md_row([cell(get(row)) for get, cell in cells]) for row in rows)
    return lines


def _md_row(cells: Sequence[Optional[str]]) -> str:
    """One markdown table line. A `|` inside a cell is escaped so that it
    cannot split the cell; a None cell is left blank."""
    return "|" + "|".join([" " if cell is None else " " + cell.replace("|", "\\|") + " "
                           for cell in cells]) + "|"


def _text(lines: Iterable[str]) -> str:
    return "\n".join(lines) + "\n"


def _check_names(*names: tuple[str, str]) -> None:
    """Refuse, whatever the format, the (kind, value) names that a csv
    report could not write (see check_value)."""
    for name, value in names:
        check_value(name, value)


def _comparison(c: Comparison, format: str) -> str:
    _check_names(("dataset", c.dataset), ("reference", c.reference_label),
                 *(("label", e.label) for e in c.entries))
    for e in c.entries:  # a label is the first field of a csv row
        if e.label.startswith("#"):
            raise ValidationError(f"label {e.label!r} would read back as a comment")
    if format == "json":
        # The reference label is left out here, though the csv context has
        # it, and excluded_requests comes after the entries.
        return _dump({
            "dataset": c.dataset,
            "mode": c.mode,
            "baseline_j": c.baseline.joules,
            "entries": [_record(_ENTRY_COLUMNS, e) for e in c.entries],
            "excluded_requests": c.excluded_requests,
        })
    if format == "csv":
        return format_csv(
            _keys(_ENTRY_COLUMNS), _values(_ENTRY_COLUMNS, c.entries),
            meta=[("dataset", c.dataset), ("mode", c.mode), ("baseline_j", c.baseline.joules),
                  ("reference", c.reference_label), ("excluded_requests", c.excluded_requests)],
        )
    return _text([
        f"# Energy comparison: {c.dataset}" if c.dataset else "# Energy comparison",
        "",
        f"- baseline (idealized optimal): {_kwh(c.baseline.joules)} kWh",
        f"- mode: {c.mode}",
        f"- excluded requests: {c.excluded_requests}",
        "",
        *_md_table(c, _ENTRY_COLUMNS, c.entries),
    ])


def _estimate(w: WorkloadEstimate, format: str) -> str:
    _check_names(("label", w.label), ("backend", w.backend), ("device", w.device))
    if format == "json":
        # The totals are top-level fields here and a TOTAL row in csv.
        return _dump({
            "kind": "estimate",
            "label": w.label,
            "backend": w.backend,
            "device": w.device,
            "mode": w.mode,
            "total_j": w.total.joules,
            "prefill_j": joules_or_none(w.prefill_total),
            "decode_j": joules_or_none(w.decode_total),
            "excluded_requests": w.excluded_requests,
            "per_bin": [_record(_BIN_COLUMNS, be) for be in w.per_bin],
        })
    total_batches = sum((be.batches for be in w.per_bin), 0.0)
    if format == "csv":
        total = ["TOTAL", None, w.total_requests, None, total_batches, w.total.joules,
                 joules_or_none(w.prefill_total), joules_or_none(w.decode_total), None]
        return format_csv(
            _keys(_BIN_COLUMNS), _values(_BIN_COLUMNS, w.per_bin) + [total],
            meta=[("label", w.label), ("backend", w.backend), ("device", w.device),
                  ("mode", w.mode), ("excluded_requests", w.excluded_requests)],
        )
    return _text([
        f"# Energy estimate: {w.label}",
        "",
        f"- backend: {w.backend} on {w.device}",
        f"- mode: {w.mode}",
        f"- total: {_kwh(w.total.joules)} kWh",
        f"- excluded requests: {w.excluded_requests}",
        "",
        *_md_table(w, _BIN_COLUMNS, w.per_bin),
        _md_row(["total", None, str(w.total_requests), None, f"{total_batches:g}",
                 _kwh(w.total.joules), None]),
    ])


def _baseline(b: BaselineReport, format: str) -> str:
    _check_names(("dataset", b.dataset), ("model", b.model_name))
    if format == "json":
        return _dump({"kind": "baseline", **_record(_BASELINE_FIELDS, b)})
    if format == "csv":
        return format_csv(("key", "value"), [(c.key, c.get(b)) for c in _BASELINE_FIELDS])
    return _text([
        f"# Idealized baseline: {b.dataset}" if b.dataset else "# Idealized baseline",
        "",
        *(f"- {c.title}: {c.cell(c.get(b))}" for c in _BASELINE_FIELDS if c.title is not None),
    ])


def _stats(t: TraceReport, format: str) -> str:
    _check_names(("dataset", t.dataset))
    rows = [("input", t.count, t.input_stats), ("output", t.count, t.output_stats)]
    if format == "json":
        # One object per token column, each without the count, which the
        # report carries once.
        stats = [c for c in _STATS_COLUMNS if c.key not in ("column", "count")]
        return _dump({
            "kind": "stats",
            "dataset": t.dataset,
            "count": t.count,
            **{row[0]: _record(stats, row) for row in rows},
        })
    if format == "csv":
        return format_csv(_keys(_STATS_COLUMNS), _values(_STATS_COLUMNS, rows),
                          meta=[("dataset", t.dataset)])
    return _text([
        f"# Trace statistics: {t.dataset}" if t.dataset else "# Trace statistics",
        "",
        f"- requests: {t.count}",
        "",
        *_md_table(t, _STATS_COLUMNS, rows),
    ])
