"""Total-energy estimation: binned request counts times measured per-batch
energy.

Each bin contributes count / max_batch batches ("fractional", the default)
or ceil(count / max_batch) full batches ("ceiling", a pessimistic bound for
schedulers that never mix bins within a batch). Excluded requests are carried
through untouched; they are never charged energy.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ._frozen import frozen
from .binning import BinnedWorkload
from .core import Bin, Energy, ValidationError
from .tables import MeasurementTable, lookup

ESTIMATE_MODES = ("fractional", "ceiling")


def _total(energies: Iterable[Optional[Energy]]) -> Optional[Energy]:
    """The sum of `energies` from left to right, as adding Energy objects
    gives it, in floats: sum() of floats compensates from Python 3.12 on.
    None when one of them is None: a partial sum of a split would
    misattribute the remainder."""
    joules = 0.0
    for energy in energies:
        if energy is None:
            return None
        joules += energy.joules
    return Energy(joules)


@frozen
class BinEstimate:
    bin: Bin
    count: int
    max_batch: int
    batches: float
    energy: Energy
    prefill_energy: Optional[Energy]
    decode_energy: Optional[Energy]
    provenance: str


@frozen
class WorkloadEstimate:
    per_bin: tuple[BinEstimate, ...]
    excluded_requests: int
    mode: str
    backend: str
    device: str
    label: str

    def __post_init__(self) -> None:
        if self.mode not in ESTIMATE_MODES:
            raise ValidationError(f"mode must be one of {ESTIMATE_MODES}, got {self.mode!r}")
        if self.excluded_requests < 0:
            raise ValidationError("excluded_requests must be >= 0")

    @property
    def total(self) -> Energy:
        return _total(be.energy for be in self.per_bin)

    # The split totals are given only when every bin carries the split.
    @property
    def prefill_total(self) -> Optional[Energy]:
        return _total(be.prefill_energy for be in self.per_bin) if self.per_bin else None

    @property
    def decode_total(self) -> Optional[Energy]:
        return _total(be.decode_energy for be in self.per_bin) if self.per_bin else None

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
    undercount. An empty workload yields a zero-energy estimate. The mode
    is checked by WorkloadEstimate, after every bin is priced, so with an
    unknown mode a pricing error comes first.
    """
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

    return WorkloadEstimate(
        per_bin=tuple(per_bin),
        excluded_requests=workload.total_excluded,
        mode=mode,
        backend=backend,
        device=device,
        label=label if label is not None else backend,
    )
