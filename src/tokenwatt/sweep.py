"""Controlled-sweep benchmark plans for an external GPU measurement harness.

Plans pin two of (input length, output length, batch size) and sweep the
third over powers of two. Emitting them from here keeps the harness's
measured grid aligned with the estimator's bin grid.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Optional, Sequence

from ._frozen import factory, frozen
from .core import (
    BinGrid,
    ValidationError,
    format_caps,
    format_config,
    from_config,
    parse_caps,
    parse_int,
    read_config,
)
from .tables import (
    MeasurementTable,
    NORMALIZATION_NOTE,
    PROTOCOL_SAMPLES_LARGE_BATCH,
    PROTOCOL_WARMUP_BATCHES,
    protocol_samples,
)

# Each axis, with the key that pins it in a plan file and its tag in plan
# file names.
_AXIS_NAMES = {"input_length": ("fixed_input", "in"), "output_length": ("fixed_output", "out"),
               "batch_size": ("fixed_batch", "batch")}
AXES = tuple(_AXIS_NAMES)
TRUNCATION_SOURCE = "PG19"  # long-context sweep inputs come from truncated PG19 text


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@frozen
class SweepPlan:
    axis: str
    fixed: dict[str, int]
    points: tuple[int, ...]
    warmup_batches: int = PROTOCOL_WARMUP_BATCHES
    truncation_source: str = TRUNCATION_SOURCE

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
        bad = [p for p in self.points if not _is_pow2(p)]
        if bad:
            raise ValidationError(f"points must be powers of two: {bad}")
        if any(v < 1 for v in self.fixed.values()):
            raise ValidationError(f"fixed values must be positive, got {self.fixed}")
        if self.warmup_batches < 0:
            raise ValidationError("warmup_batches must be >= 0")

    @property
    def max_batch(self) -> int:
        if self.axis == "batch_size":
            return max(self.points)
        return self.fixed["batch_size"]

    @property
    def samples_per_point(self) -> int:
        return protocol_samples(self.max_batch)

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
        desc = "_".join(f"{tag}{self.fixed[axis]}"
                        for axis, (_, tag) in _AXIS_NAMES.items() if axis != self.axis)
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
        ))
    for inp in (512, 64):
        plans.append(SweepPlan(
            axis="output_length",
            fixed={"input_length": inp, "batch_size": 1},
            points=_pow2_range(8, 4096),
        ))
    plans.append(SweepPlan(
        axis="batch_size",
        fixed={"input_length": 512, "output_length": 64},
        points=_pow2_range(1, 1024),
    ))
    return plans


def format_plan(plan: SweepPlan) -> str:
    """The plan file text that read_plan reads back as `plan`; a text value
    that would not read back is refused."""
    fixed = [(key, plan.fixed[axis])
             for axis, (key, _) in _AXIS_NAMES.items() if axis != plan.axis]
    text = format_config([
        ("axis", plan.axis),
        *fixed,
        ("points", format_caps(plan.points)),
        ("samples_per_point", plan.samples_per_point),
        ("warmup_batches", plan.warmup_batches),
        ("truncation_source", plan.truncation_source),
    ])
    note = plan.normalization_note
    return f"# {note}\n{text}" if note else text


def write_plans(plans: Sequence[SweepPlan], directory) -> list[Path]:
    """Write one file per plan; a plan that would not read back is refused
    before any file is written."""
    texts = [format_plan(plan) for plan in plans]
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / plan.filename for plan in plans]
    for path, text in zip(paths, texts):
        path.write_text(text, encoding="utf-8")
    return paths


# How read_plan reads each plan file key; a missing fixed key is left to
# SweepPlan's check of which axes are pinned.
_PLAN_KEYS = {"axis": str, "points": parse_caps, "samples_per_point": parse_int,
              "warmup_batches": parse_int, "truncation_source": str,
              **{key: parse_int for key, _ in _AXIS_NAMES.values()}}


def read_plan(path) -> SweepPlan:
    """The plan of a plan file; its samples_per_point must be the one that
    the plan's largest batch fixes."""
    values = read_config(path, "plan", _PLAN_KEYS, optional=(
        "truncation_source", *(key for key, _ in _AXIS_NAMES.values())))
    fixed = {axis: values.pop(key) for axis, (key, _) in _AXIS_NAMES.items() if key in values}
    samples = values.pop("samples_per_point")
    plan = from_config(SweepPlan, path, {"fixed": fixed, **values})
    if samples != plan.samples_per_point:
        raise ValidationError(f"{path}: samples_per_point must be {plan.samples_per_point} "
                              f"when the largest batch is {plan.max_batch}, got {samples}")
    return plan


def grid_covered_by_plans(grid: BinGrid, plans: Iterable[SweepPlan]) -> bool:
    """True when every grid cap appears on the corresponding swept axis.

    Coverage is judged per axis over the union of plans: each input cap must
    occur as an input point or fixed input, likewise for output caps.
    """
    pairs = [pair for plan in plans for pair in plan.pairs()]
    return (set(grid.input_bins) <= {i for i, _ in pairs}
            and set(grid.output_bins) <= {o for _, o in pairs})


@frozen
class CoverageReport:
    """Which planned on-grid points each (backend, device) has measured."""

    planned_points: tuple[tuple[int, int], ...]
    missing: dict[tuple[str, str], tuple[tuple[int, int], ...]] = factory(dict)

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
    planned = {(i, o) for plan in plans for i, o in plan.pairs()
               if i in grid.input_bins and o in grid.output_bins}
    missing = {}
    for backend, device in table.configurations():
        have = {(b.input_cap, b.output_cap) for b in table.bins_for(backend, device)}
        missing[(backend, device)] = tuple(sorted(planned - have))
    return CoverageReport(planned_points=tuple(sorted(planned)), missing=missing)
