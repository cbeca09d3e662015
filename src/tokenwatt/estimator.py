"""Total-energy estimation: binned request counts times measured per-batch
energy.

Each bin contributes count / max_batch batches ("fractional", the default)
or ceil(count / max_batch) full batches ("ceiling", a pessimistic bound for
schedulers that never mix bins within a batch). Excluded requests are carried
through untouched; they are never charged energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .binning import BinnedWorkload
from .core import Bin, Energy, ValidationError
from .tables import MeasurementTable, lookup

ESTIMATE_MODES = ("fractional", "ceiling")


def _total(energies: Iterable[Energy]) -> Energy:
    """The sum of `energies` from left to right, as adding Energy objects
    gives it, in floats: sum() of floats compensates from Python 3.12 on."""
    joules = 0.0
    for energy in energies:
        joules += energy.joules
    return Energy(joules)


@dataclass(frozen=True)
class BinEstimate:
    bin: Bin
    count: int
    max_batch: int
    batches: float
    energy: Energy
    prefill_energy: Optional[Energy]
    decode_energy: Optional[Energy]
    provenance: str


@dataclass(frozen=True)
class WorkloadEstimate:
    per_bin: tuple[BinEstimate, ...]
    total: Energy
    excluded_requests: int
    mode: str
    backend: str
    device: str
    label: str
    # Populated only when every contributing record carries the split;
    # a partial sum would misattribute the remainder.
    prefill_total: Optional[Energy] = None
    decode_total: Optional[Energy] = None

    def __post_init__(self) -> None:
        if self.mode not in ESTIMATE_MODES:
            raise ValidationError(f"mode must be one of {ESTIMATE_MODES}, got {self.mode!r}")
        if self.excluded_requests < 0:
            raise ValidationError("excluded_requests must be >= 0")
        summed = _total(be.energy for be in self.per_bin)
        if abs(summed.joules - self.total.joules) > 1e-9 * max(1.0, self.total.joules):
            raise ValidationError(
                f"total ({self.total.joules} J) does not match the per-bin sum "
                f"({summed.joules} J)"
            )

    @property
    def total_requests(self) -> int:
        return sum(be.count for be in self.per_bin)


def estimate(
    workload: BinnedWorkload,
    table: MeasurementTable,
    backend: str,
    device: str,
    mode: str = "fractional",
    interpolate: bool = False,
    label: Optional[str] = None,
) -> WorkloadEstimate:
    """Energy estimate for a binned workload against one (backend, device).

    Every populated bin must resolve to a table record (exactly, or by
    interpolation when enabled); a miss is an error rather than a silent
    undercount. An empty workload yields a zero-energy estimate.
    """
    if mode not in ESTIMATE_MODES:
        raise ValidationError(f"mode must be one of {ESTIMATE_MODES}, got {mode!r}")
    per_bin: list[BinEstimate] = []
    for b, count in workload.sorted_counts():
        rec = lookup(table, backend, device, b, interpolate=interpolate)
        if mode == "fractional":
            batches = count / rec.max_batch
        else:
            batches = float(-(-count // rec.max_batch))
        energy = Energy(batches * rec.batch_energy.joules)
        prefill = decode = None
        if rec.prefill_energy is not None:
            prefill = Energy(batches * rec.prefill_energy.joules)
            decode = Energy(batches * rec.decode_energy.joules)
        per_bin.append(BinEstimate(
            bin=b,
            count=count,
            max_batch=rec.max_batch,
            batches=batches,
            energy=energy,
            prefill_energy=prefill,
            decode_energy=decode,
            provenance=rec.provenance,
        ))

    total = _total(be.energy for be in per_bin)
    prefill_total = decode_total = None
    if per_bin and all(be.prefill_energy is not None for be in per_bin):
        prefill_total = _total(be.prefill_energy for be in per_bin)
        decode_total = _total(be.decode_energy for be in per_bin)
    return WorkloadEstimate(
        per_bin=tuple(per_bin),
        total=total,
        excluded_requests=workload.total_excluded,
        mode=mode,
        backend=backend,
        device=device,
        label=label if label is not None else backend,
        prefill_total=prefill_total,
        decode_total=decode_total,
    )
