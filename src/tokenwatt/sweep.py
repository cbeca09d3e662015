"""Controlled-sweep benchmark plans for an external GPU measurement harness.

Plans pin two of (input length, output length, batch size) and sweep the
third over powers of two. Emitting them from here keeps the harness's
measured grid aligned with the estimator's bin grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .core import BinGrid, ValidationError, read_config_file
from .tables import (
    LARGE_BATCH_THRESHOLD,
    MeasurementTable,
    NORMALIZATION_NOTE,
    PROTOCOL_SAMPLES,
    PROTOCOL_SAMPLES_LARGE_BATCH,
    PROTOCOL_WARMUP_BATCHES,
)

AXES = ("input_length", "output_length", "batch_size")
TRUNCATION_SOURCE = "PG19"  # long-context sweep inputs come from truncated PG19 text


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class SweepPlan:
    axis: str
    fixed: dict[str, int]
    points: tuple[int, ...]
    samples_per_point: int
    warmup_batches: int = PROTOCOL_WARMUP_BATCHES
    truncation_source: str = TRUNCATION_SOURCE
    allow_non_pow2: bool = False

    def __post_init__(self) -> None:
        if self.axis not in AXES:
            raise ValidationError(f"axis must be one of {AXES}, got {self.axis!r}")
        expected_fixed = {a for a in AXES if a != self.axis}
        if set(self.fixed) != expected_fixed:
            raise ValidationError(
                f"fixed must pin exactly {sorted(expected_fixed)}, got {sorted(self.fixed)}"
            )
        if not self.points:
            raise ValidationError("points must be non-empty")
        if any(p < 1 for p in self.points):
            raise ValidationError("points must be positive")
        if any(b <= a for a, b in zip(self.points, self.points[1:])):
            raise ValidationError(f"points must be strictly increasing, got {self.points}")
        if not self.allow_non_pow2:
            bad = [p for p in self.points if not _is_pow2(p)]
            if bad:
                raise ValidationError(
                    f"points must be powers of two (or set allow_non_pow2): {bad}"
                )
        if any(v < 1 for v in self.fixed.values()):
            raise ValidationError(f"fixed values must be positive, got {self.fixed}")
        if self.warmup_batches < 0:
            raise ValidationError("warmup_batches must be >= 0")
        required = PROTOCOL_SAMPLES_LARGE_BATCH \
            if self.max_batch > LARGE_BATCH_THRESHOLD else PROTOCOL_SAMPLES
        if self.samples_per_point != required:
            raise ValidationError(
                f"samples_per_point must be {required} when the largest batch is "
                f"{self.max_batch}, got {self.samples_per_point}"
            )

    @property
    def max_batch(self) -> int:
        if self.axis == "batch_size":
            return max(self.points)
        return self.fixed["batch_size"]

    @property
    def normalization_note(self) -> Optional[str]:
        if self.samples_per_point == PROTOCOL_SAMPLES_LARGE_BATCH:
            return NORMALIZATION_NOTE
        return None

    def pairs(self) -> set[tuple[int, int]]:
        """(input, output) pairs this plan measures."""
        if self.axis == "input_length":
            return {(p, self.fixed["output_length"]) for p in self.points}
        if self.axis == "output_length":
            return {(self.fixed["input_length"], p) for p in self.points}
        return {(self.fixed["input_length"], self.fixed["output_length"])}

    @property
    def filename(self) -> str:
        short = {"input_length": "in", "output_length": "out", "batch_size": "batch"}
        desc = "_".join(f"{short[a]}{self.fixed[a]}" for a in AXES if a != self.axis)
        return f"sweep_{self.axis}_{desc}.cfg"


def _pow2_range(lo: int, hi: int) -> tuple[int, ...]:
    points = []
    p = lo
    while p <= hi:
        points.append(p)
        p *= 2
    return tuple(points)


def default_sweep_plans() -> list[SweepPlan]:
    """The five controlled sweeps behind the measurement grid.

    Input length 32 to 32768 at 64 and 8 generated tokens, output length up
    to 4096 at 512- and 64-token contexts, and batch size up to 1024 at the
    (512, 64) shape. Sequence sweeps run single-request batches; the batch
    sweep crosses 256 and therefore uses normalized 4096-sample runs.
    """
    plans = []
    for out in (64, 8):
        plans.append(SweepPlan(
            axis="input_length",
            fixed={"output_length": out, "batch_size": 1},
            points=_pow2_range(32, 32768),
            samples_per_point=PROTOCOL_SAMPLES,
        ))
    for inp in (512, 64):
        plans.append(SweepPlan(
            axis="output_length",
            fixed={"input_length": inp, "batch_size": 1},
            points=_pow2_range(8, 4096),
            samples_per_point=PROTOCOL_SAMPLES,
        ))
    plans.append(SweepPlan(
        axis="batch_size",
        fixed={"input_length": 512, "output_length": 64},
        points=_pow2_range(1, 1024),
        samples_per_point=PROTOCOL_SAMPLES_LARGE_BATCH,
    ))
    return plans


def format_plan(plan: SweepPlan) -> str:
    fixed_keys = {"input_length": "fixed_input", "output_length": "fixed_output",
                  "batch_size": "fixed_batch"}
    lines = [f"axis = {plan.axis}"]
    for axis in AXES:
        if axis != plan.axis:
            lines.append(f"{fixed_keys[axis]} = {plan.fixed[axis]}")
    lines.append("points = " + ",".join(str(p) for p in plan.points))
    lines.append(f"samples_per_point = {plan.samples_per_point}")
    lines.append(f"warmup_batches = {plan.warmup_batches}")
    lines.append(f"truncation_source = {plan.truncation_source}")
    if plan.normalization_note:
        lines.insert(0, f"# {plan.normalization_note}")
    return "\n".join(lines) + "\n"


def write_plans(plans: Sequence[SweepPlan], directory) -> list[Path]:
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for plan in plans:
        path = out_dir / plan.filename
        path.write_text(format_plan(plan), encoding="utf-8")
        written.append(path)
    return written


def read_plan(path) -> SweepPlan:
    values = read_config_file(path)
    known = {"axis", "fixed_input", "fixed_output", "fixed_batch", "points",
             "samples_per_point", "warmup_batches", "truncation_source"}
    unknown = set(values) - known
    if unknown:
        raise ValidationError(f"unknown plan keys in {path}: {sorted(unknown)}")
    for key in ("axis", "points", "samples_per_point", "warmup_batches"):
        if key not in values:
            raise ValidationError(f"plan {path} is missing key {key!r}")
    axis_of_key = {"fixed_input": "input_length", "fixed_output": "output_length",
                   "fixed_batch": "batch_size"}
    fixed = {}
    for key, axis in axis_of_key.items():
        if key in values:
            try:
                fixed[axis] = int(values[key])
            except ValueError:
                raise ValidationError(f"plan {path}: {key} is not an integer") from None
    try:
        points = tuple(int(x) for x in values["points"].split(","))
        samples = int(values["samples_per_point"])
        warmup = int(values["warmup_batches"])
    except ValueError:
        raise ValidationError(f"plan {path}: numeric field is not an integer") from None
    return SweepPlan(
        axis=values["axis"],
        fixed=fixed,
        points=points,
        samples_per_point=samples,
        warmup_batches=warmup,
        truncation_source=values.get("truncation_source", TRUNCATION_SOURCE),
    )


def grid_covered_by_plans(grid: BinGrid, plans: Iterable[SweepPlan]) -> bool:
    """True when every grid cap appears on the corresponding swept axis.

    Coverage is judged per axis over the union of plans: each input cap must
    occur as an input point or fixed input, likewise for output caps.
    """
    inputs: set[int] = set()
    outputs: set[int] = set()
    for plan in plans:
        for i, o in plan.pairs():
            inputs.add(i)
            outputs.add(o)
    return set(grid.input_bins) <= inputs and set(grid.output_bins) <= outputs


@dataclass(frozen=True)
class CoverageReport:
    """Which planned on-grid points each (backend, device) has measured."""

    planned_points: tuple[tuple[int, int], ...]
    missing: dict[tuple[str, str], tuple[tuple[int, int], ...]] = field(default_factory=dict)

    @property
    def full_coverage(self) -> bool:
        return all(not pts for pts in self.missing.values())

    def summary_lines(self) -> list[str]:
        lines = [f"planned on-grid points: {len(self.planned_points)}"]
        if not self.missing:
            lines.append("no (backend, device) pairs in table")
            return lines
        for (backend, device), pts in sorted(self.missing.items()):
            if pts:
                shown = ", ".join(f"({i}, {o})" for i, o in pts)
                lines.append(f"{backend} on {device}: missing {len(pts)}: {shown}")
            else:
                lines.append(f"{backend} on {device}: full coverage")
        return lines


def validate_table_against_plan(
    table: MeasurementTable,
    plans: Sequence[SweepPlan],
) -> CoverageReport:
    """Check a measurement table against planned points that fall on its grid.

    Points beyond the grid (a 32768-token sweep point against an 8192-cap
    grid) are out of estimator reach and not required of the table.
    """
    grid = table.metadata.grid
    planned = set()
    for plan in plans:
        for i, o in plan.pairs():
            if i in grid.input_bins and o in grid.output_bins:
                planned.add((i, o))
    planned_sorted = tuple(sorted(planned))
    missing = {}
    for backend, device in table.configurations():
        have = {(b.input_cap, b.output_cap) for b in table.bins_for(backend, device)}
        missing[(backend, device)] = tuple(sorted(planned - have))
    return CoverageReport(planned_points=planned_sorted, missing=missing)
