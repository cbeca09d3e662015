"""Report assembly and serialization.

One schema_version covers every report kind. json carries full-precision
joules for machine use; csv is also machine-oriented (comment-prefixed
context lines, full precision); markdown-table is for humans and prints
energies in kWh and percentages with two decimals.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .core import Energy, ValidationError, joules_or_none
from .csvio import format_csv
from .estimator import WorkloadEstimate
from .ingest import TraceStats

SCHEMA_VERSION = "1"
REPORT_FORMATS = ("json", "csv", "markdown-table")


@dataclass(frozen=True)
class ComparisonEntry:
    label: str
    energy: Energy
    pct_delta_vs_optimal: float
    savings_vs_reference: Optional[float]  # None on the reference row


@dataclass(frozen=True)
class Comparison:
    dataset: str
    baseline: Energy  # idealized optimal for the same workload
    entries: tuple[ComparisonEntry, ...]  # ascending by energy
    reference_label: str
    mode: str
    excluded_requests: int


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    mode: Optional[str] = None,
    excluded_requests: Optional[int] = None,
) -> Comparison:
    """Rank labeled estimates against the idealized optimum.

    Accepts WorkloadEstimate objects or bare (label, Energy) pairs. Each
    entry gets its percent overhead above `optimal`; non-reference entries
    also get percent savings relative to the reference entry, positive iff
    they use less energy. `mode` and `excluded_requests` are inferred from
    WorkloadEstimate entries unless given explicitly (bare pairs carry
    neither).
    """
    if optimal.joules <= 0:
        raise ValidationError("optimal energy must be positive")
    if not estimates:
        raise ValidationError("compare needs at least one estimate")

    rows: list[tuple[str, Energy]] = []
    modes: set[str] = set()
    excluded: set[int] = set()
    for item in estimates:
        if isinstance(item, WorkloadEstimate):
            rows.append((item.label, item.total))
            modes.add(item.mode)
            excluded.add(item.excluded_requests)
        else:
            label, energy = item
            rows.append((label, energy))
    if mode is not None:
        modes = {mode}
    if excluded_requests is not None:
        excluded = {excluded_requests}

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
        savings = None
        if label != reference_label:
            savings = 100.0 * (1.0 - energy.joules / reference_j)
        entries.append(ComparisonEntry(
            label=label,
            energy=energy,
            pct_delta_vs_optimal=100.0 * (energy.joules - optimal.joules) / optimal.joules,
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


def pct_delta_pair_savings(delta_a: float, delta_b: float) -> float:
    """Savings of b versus a when both are given as percent over a shared
    baseline: 100 * (1 - (1 + db/100) / (1 + da/100))."""
    return 100.0 * (1.0 - (1.0 + delta_b / 100.0) / (1.0 + delta_a / 100.0))


def emit_report(obj, format: str = "json") -> str:
    """Serialize a report object deterministically; same object, same bytes."""
    if format not in REPORT_FORMATS:
        raise ValidationError(f"format must be one of {REPORT_FORMATS}, got {format!r}")
    emitters = {
        Comparison: (_comparison_json, _comparison_csv, _comparison_markdown),
        WorkloadEstimate: (_estimate_json, _estimate_csv, _estimate_markdown),
        BaselineReport: (_baseline_json, _baseline_csv, _baseline_markdown),
        TraceReport: (_stats_json, _stats_csv, _stats_markdown),
    }
    for cls, (as_json, as_csv, as_md) in emitters.items():
        if isinstance(obj, cls):
            emit = {"json": as_json, "csv": as_csv, "markdown-table": as_md}[format]
            return emit(obj)
    raise ValidationError(f"cannot serialize object of type {type(obj).__name__}")


def _dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _kwh(joules: float) -> str:
    return f"{joules / 3.6e6:.6e}"


def _pct(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.2f}"


def _num(value: float) -> str:
    # Trim trailing zeros so integral stats read as integers.
    if math.isfinite(value) and value == int(value):
        return str(int(value))
    return f"{value:.2f}"


# --- comparison ---

def _comparison_json(c: Comparison) -> str:
    return _dump({
        "schema_version": SCHEMA_VERSION,
        "dataset": c.dataset,
        "mode": c.mode,
        "baseline_j": c.baseline.joules,
        "entries": [
            {
                "label": e.label,
                "energy_j": e.energy.joules,
                "pct_delta_vs_optimal": e.pct_delta_vs_optimal,
                "savings_vs_reference": e.savings_vs_reference,
            }
            for e in c.entries
        ],
        "excluded_requests": c.excluded_requests,
    })


def _comparison_csv(c: Comparison) -> str:
    return format_csv(
        ("label", "energy_j", "pct_delta_vs_optimal", "savings_vs_reference"),
        [(e.label, e.energy.joules, e.pct_delta_vs_optimal, e.savings_vs_reference)
         for e in c.entries],
        meta=[("dataset", c.dataset), ("mode", c.mode), ("baseline_j", c.baseline.joules),
              ("reference", c.reference_label), ("excluded_requests", c.excluded_requests)],
    )


def _comparison_markdown(c: Comparison) -> str:
    head = [
        f"# Energy comparison: {c.dataset}" if c.dataset else "# Energy comparison",
        "",
        f"- baseline (idealized optimal): {_kwh(c.baseline.joules)} kWh",
        f"- mode: {c.mode}",
        f"- excluded requests: {c.excluded_requests}",
        "",
        f"| label | energy (kWh) | % over optimal | savings vs {c.reference_label} (%) |",
        "| --- | ---: | ---: | ---: |",
    ]
    for e in c.entries:
        savings = "(reference)" if e.savings_vs_reference is None \
            else _pct(e.savings_vs_reference)
        head.append(
            f"| {e.label} | {_kwh(e.energy.joules)} | "
            f"{_pct(e.pct_delta_vs_optimal)} | {savings} |"
        )
    return "\n".join(head) + "\n"


# --- estimate ---

def _estimate_json(w: WorkloadEstimate) -> str:
    return _dump({
        "schema_version": SCHEMA_VERSION,
        "kind": "estimate",
        "label": w.label,
        "backend": w.backend,
        "device": w.device,
        "mode": w.mode,
        "total_j": w.total.joules,
        "prefill_j": joules_or_none(w.prefill_total),
        "decode_j": joules_or_none(w.decode_total),
        "excluded_requests": w.excluded_requests,
        "per_bin": [
            {
                "input_cap": be.bin.input_cap,
                "output_cap": be.bin.output_cap,
                "count": be.count,
                "max_batch": be.max_batch,
                "batches": be.batches,
                "energy_j": be.energy.joules,
                "prefill_j": joules_or_none(be.prefill_energy),
                "decode_j": joules_or_none(be.decode_energy),
                "provenance": be.provenance,
            }
            for be in w.per_bin
        ],
    })


def _estimate_csv(w: WorkloadEstimate) -> str:
    rows = [(be.bin.input_cap, be.bin.output_cap, be.count, be.max_batch, be.batches,
             be.energy.joules, joules_or_none(be.prefill_energy), joules_or_none(be.decode_energy),
             be.provenance) for be in w.per_bin]
    total_batches = 0.0
    for be in w.per_bin:
        total_batches += be.batches
    rows.append(("TOTAL", None, w.total_requests, None, total_batches, w.total.joules,
                 joules_or_none(w.prefill_total), joules_or_none(w.decode_total), None))
    return format_csv(
        ("input_cap", "output_cap", "count", "max_batch", "batches", "energy_j",
         "prefill_j", "decode_j", "provenance"),
        rows,
        meta=[("label", w.label), ("backend", w.backend), ("device", w.device),
              ("mode", w.mode), ("excluded_requests", w.excluded_requests)],
    )


def _estimate_markdown(w: WorkloadEstimate) -> str:
    head = [
        f"# Energy estimate: {w.label}",
        "",
        f"- backend: {w.backend} on {w.device}",
        f"- mode: {w.mode}",
        f"- total: {_kwh(w.total.joules)} kWh",
        f"- excluded requests: {w.excluded_requests}",
        "",
        "| input cap | output cap | count | max batch | batches | energy (kWh) | provenance |",
        "| ---: | ---: | ---: | ---: | ---: | ---: | --- |",
    ]
    total_batches = 0.0
    for be in w.per_bin:
        total_batches += be.batches
        head.append(
            f"| {be.bin.input_cap} | {be.bin.output_cap} | {be.count} | {be.max_batch} | "
            f"{be.batches:g} | {_kwh(be.energy.joules)} | {be.provenance} |"
        )
    head.append(
        f"| total | | {w.total_requests} | | {total_batches:g} | "
        f"{_kwh(w.total.joules)} | |"
    )
    return "\n".join(head) + "\n"


# --- baseline ---

def _baseline_json(b: BaselineReport) -> str:
    return _dump({
        "schema_version": SCHEMA_VERSION,
        "kind": "baseline",
        "dataset": b.dataset,
        "model": b.model_name,
        "optimal_j": b.optimal.joules,
        "j_per_flop": b.j_per_flop,
        "prefill_flops": b.prefill_flops,
        "decode_flops": b.decode_flops,
        "total_flops": b.total_flops,
        "excluded_requests": b.excluded_requests,
    })


def _baseline_csv(b: BaselineReport) -> str:
    return format_csv(("key", "value"), [
        ("dataset", b.dataset),
        ("model", b.model_name),
        ("optimal_j", b.optimal.joules),
        ("j_per_flop", b.j_per_flop),
        ("prefill_flops", b.prefill_flops),
        ("decode_flops", b.decode_flops),
        ("total_flops", b.total_flops),
        ("excluded_requests", b.excluded_requests),
    ])


def _baseline_markdown(b: BaselineReport) -> str:
    lines = [
        f"# Idealized baseline: {b.dataset}" if b.dataset else "# Idealized baseline",
        "",
        f"- model: {b.model_name}",
        f"- optimal energy: {_kwh(b.optimal.joules)} kWh",
        f"- joules per FLOP: {b.j_per_flop:.4e}",
        f"- prefill FLOPs: {b.prefill_flops}",
        f"- decode FLOPs: {b.decode_flops}",
        f"- total FLOPs: {b.total_flops}",
        f"- excluded requests: {b.excluded_requests}",
    ]
    return "\n".join(lines) + "\n"


# --- trace stats ---

def _stats_payload(s: TraceStats) -> dict:
    return {
        "mean": s.mean, "std": s.std, "median": s.median, "p99": s.p99, "max": s.max,
    }


def _stats_json(t: TraceReport) -> str:
    return _dump({
        "schema_version": SCHEMA_VERSION,
        "kind": "stats",
        "dataset": t.dataset,
        "count": t.count,
        "input": _stats_payload(t.input_stats),
        "output": _stats_payload(t.output_stats),
    })


def _stats_csv(t: TraceReport) -> str:
    return format_csv(
        ("column", "count", "mean", "std", "median", "p99", "max"),
        [(name, t.count, s.mean, s.std, s.median, s.p99, s.max)
         for name, s in (("input", t.input_stats), ("output", t.output_stats))],
        meta=[("dataset", t.dataset)],
    )


def _stats_markdown(t: TraceReport) -> str:
    lines = [
        f"# Trace statistics: {t.dataset}" if t.dataset else "# Trace statistics",
        "",
        f"- requests: {t.count}",
        "",
        "| tokens | mean | std | median | p99 | max |",
        "| --- | ---: | ---: | ---: | ---: | ---: |",
    ]
    for name, s in (("input", t.input_stats), ("output", t.output_stats)):
        lines.append(
            f"| {name} | {_num(s.mean)} | {_num(s.std)} | {_num(s.median)} | "
            f"{_num(s.p99)} | {_num(s.max)} |"
        )
    return "\n".join(lines) + "\n"
