"""Measurement tables: per-(backend, device, bin) max batch size and measured
full-batch energy, as produced by an external GPU harness.

Tables are immutable after load. Rows store the energy of ONE FULL BATCH at
max_batch; per-request energy is always derived, never stored. Lookup is
strict by default; log-log bilinear interpolation is opt-in and every
synthesized record is flagged, so estimates never silently mix provenance.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Optional

from ._frozen import frozen
from .core import (
    Bin,
    BinGrid,
    Energy,
    HardwareSpec,
    J_PER_KWH,
    J_PER_WH,
    ModelConfig,
    ValidationError,
    joules_or_none,
    parse_int,
)
from .csvio import format_csv, grid_meta, read_csv, write_csv
from .flops import joules_per_flop, request_flops

TABLE_COLUMNS = (
    "backend", "device", "input_cap", "output_cap", "max_batch", "batch_energy",
    "energy_unit", "prefill_energy", "decode_energy", "samples_measured", "warmup_batches",
)
ENERGY_UNIT_FACTORS = {"J": 1.0, "Wh": J_PER_WH, "kWh": J_PER_KWH}

# Measurement protocol defaults: 1024-sample runs, metrics for batches over
# 256 taken over 4096 samples and normalized back, warmup on up to 20 batches.
PROTOCOL_SAMPLES = 1024
PROTOCOL_SAMPLES_LARGE_BATCH = 4096
LARGE_BATCH_THRESHOLD = 256
PROTOCOL_WARMUP_BATCHES = 20
NORMALIZATION_NOTE = (
    f"batches over {LARGE_BATCH_THRESHOLD} measured over "
    f"{PROTOCOL_SAMPLES_LARGE_BATCH} samples and normalized to {PROTOCOL_SAMPLES}"
)


def protocol_samples(max_batch: int) -> int:
    """The samples a run at batch size `max_batch` is measured over."""
    return PROTOCOL_SAMPLES_LARGE_BATCH if max_batch > LARGE_BATCH_THRESHOLD else PROTOCOL_SAMPLES


MEASURED = "measured"
INTERPOLATED = "interpolated"


@frozen
class MeasurementRecord:
    """One measured cell: energy for a full batch of max_batch requests."""

    backend: str
    device: str
    input_cap: int
    output_cap: int
    max_batch: int
    batch_energy: Energy
    prefill_energy: Optional[Energy] = None
    decode_energy: Optional[Energy] = None
    samples_measured: int = PROTOCOL_SAMPLES
    warmup_batches: int = PROTOCOL_WARMUP_BATCHES
    provenance: str = MEASURED  # measured | interpolated; never serialized

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValidationError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.batch_energy.joules <= 0:
            raise ValidationError(f"batch_energy must be positive, got {self.batch_energy.joules} J")
        if self.samples_measured < 1:
            raise ValidationError(f"samples_measured must be >= 1, got {self.samples_measured}")
        if self.warmup_batches < 0:
            raise ValidationError(f"warmup_batches must be >= 0, got {self.warmup_batches}")
        if (self.prefill_energy is None) != (self.decode_energy is None):
            raise ValidationError("prefill_energy and decode_energy must be given together")
        if self.prefill_energy is not None:
            # a table file holds only positive energies
            if self.prefill_energy.joules <= 0 or self.decode_energy.joules <= 0:
                raise ValidationError("prefill_energy and decode_energy must be positive")
            split = self.prefill_energy.joules + self.decode_energy.joules
            if abs(split - self.batch_energy.joules) > 0.005 * self.batch_energy.joules:
                raise ValidationError(
                    f"prefill+decode ({split} J) differs from batch_energy "
                    f"({self.batch_energy.joules} J) by more than 0.5%"
                )

    @property
    def bin(self) -> Bin:
        return Bin(self.input_cap, self.output_cap)

    @property
    def per_request_joules(self) -> float:
        return self.batch_energy.joules / self.max_batch


def _new_record(backend: str, device: str, input_cap: int, output_cap: int, max_batch: int,
                batch_energy: Energy, prefill_energy: Optional[Energy],
                decode_energy: Optional[Energy], samples_measured: int, warmup_batches: int,
                provenance: str) -> MeasurementRecord:
    """The MeasurementRecord of these fields, checked as __init__ checks it.
    A table load makes one record per row. Calling the class passes the
    eleven values as a tuple to the general __init__ of `frozen`, which took
    about 1.4 us a record against 0.9 us here (minima in one process,
    CPython 3.11 on a 2-CPU Linux host)."""
    rec = object.__new__(MeasurementRecord)
    rec.__dict__.update(
        backend=backend, device=device, input_cap=input_cap, output_cap=output_cap,
        max_batch=max_batch, batch_energy=batch_energy, prefill_energy=prefill_energy,
        decode_energy=decode_energy, samples_measured=samples_measured,
        warmup_batches=warmup_batches, provenance=provenance,
    )
    rec.__post_init__()
    return rec


@frozen
class TableMetadata:
    """Measurement-protocol context carried with a table, not enforced by it."""

    grid: BinGrid
    protocol_samples: int = PROTOCOL_SAMPLES
    normalization_note: str = NORMALIZATION_NOTE
    padding_policy: str = "unspecified"


class _Configuration:
    """The measured cells of one (backend, device) by (input_cap,
    output_cap), and the sorted distinct caps measured on each axis."""

    def __init__(self, records: dict[tuple[int, int], MeasurementRecord]) -> None:
        self.records = records
        self.input_caps = sorted({i for i, _ in records})
        self.output_caps = sorted({o for _, o in records})
        self._logs: dict[tuple[int, int], tuple[float, float]] = {}

    def logs(self, cell: tuple[int, int]) -> tuple[float, float]:
        """Log per-request energy and log max batch of a measured cell, taken
        when it is first a corner of an interpolated bin."""
        logs = self._logs.get(cell)
        if logs is None:
            rec = self.records[cell]
            logs = self._logs[cell] = (math.log(rec.per_request_joules),
                                       math.log(float(rec.max_batch)))
        return logs


@frozen
class MeasurementTable:
    records: tuple[MeasurementRecord, ...]
    metadata: TableMetadata
    _configurations: dict[tuple[str, str], _Configuration]

    def __post_init__(self) -> None:
        grid = self.metadata.grid
        input_caps, output_caps = set(grid.input_bins), set(grid.output_bins)
        cells: dict[tuple[str, str], dict[tuple[int, int], MeasurementRecord]] = {}
        for rec in self.records:
            i, o = cell = (rec.input_cap, rec.output_cap)
            if i not in input_caps or o not in output_caps:
                Bin(i, o)  # a cap below 1 is refused as a bin before it is looked for
                raise ValidationError(f"bin ({i}, {o}) is not on the table grid")
            config = cells.setdefault((rec.backend, rec.device), {})
            if cell in config:
                raise ValidationError(
                    f"duplicate record for backend={rec.backend!r} device={rec.device!r} "
                    f"bin=({i}, {o})"
                )
            config[cell] = rec
        object.__setattr__(self, "_configurations",
                           {config: _Configuration(recs) for config, recs in cells.items()})

    def configurations(self) -> list[tuple[str, str]]:
        """Sorted distinct (backend, device) pairs."""
        return sorted(self._configurations)

    def bins_for(self, backend: str, device: str) -> list[Bin]:
        config = self._configurations.get((backend, device))
        return [] if config is None else [Bin(i, o) for i, o in sorted(config.records)]

    def get(self, backend: str, device: str, b: Bin) -> Optional[MeasurementRecord]:
        config = self._configurations.get((backend, device))
        return None if config is None else config.records.get((b.input_cap, b.output_cap))


def lookup(
    table: MeasurementTable,
    backend: str,
    device: str,
    b: Bin,
    interpolate: bool = False,
) -> MeasurementRecord:
    """Record for a bin; exact match, or a flagged interpolated record.

    Interpolation works in log-log space on per-request energy (and max
    batch) over the bracketing measured caps, degenerating to 1-D on a
    measured row or column. Bins outside the measured bounding box, or with
    a missing bracket corner, are errors.
    """
    rec = table.get(backend, device, b)
    if rec is not None:
        return rec
    if not interpolate:
        raise ValidationError(
            f"no record for backend={backend!r} device={device!r} "
            f"bin=({b.input_cap}, {b.output_cap}) (interpolation disabled)"
        )
    return _interpolate(table, backend, device, b)


def _bracket(caps: list[int], value: int, dim: str, b: Bin) -> tuple[int, int]:
    """The nearest measured caps at or around `value` in the sorted `caps`."""
    k = bisect_left(caps, value)
    if k < len(caps) and caps[k] == value:
        return value, value
    if k == 0 or k == len(caps):
        raise ValidationError(
            f"bin ({b.input_cap}, {b.output_cap}) is outside the hull of measured "
            f"{dim} caps {caps}"
        )
    return caps[k - 1], caps[k]


def _interpolate(table: MeasurementTable, backend: str, device: str, b: Bin) -> MeasurementRecord:
    config = table._configurations.get((backend, device))
    if config is None:
        raise ValidationError(f"no records for backend={backend!r} device={device!r}")
    i_lo, i_hi = _bracket(config.input_caps, b.input_cap, "input", b)
    o_lo, o_hi = _bracket(config.output_caps, b.output_cap, "output", b)
    for ic in {i_lo, i_hi}:
        for oc in {o_lo, o_hi}:
            rec = config.records.get((ic, oc))
            if rec is None or not rec.per_request_joules:  # 0.0 has no logarithm
                raise ValidationError(
                    f"cannot interpolate bin ({b.input_cap}, {b.output_cap}): "
                    f"{'missing' if rec is None else 'zero per-request energy at'} measured "
                    f"neighbor ({ic}, {oc}) for backend={backend!r} device={device!r}"
                )

    ti = 0.0 if i_lo == i_hi else (
        (math.log(b.input_cap) - math.log(i_lo)) / (math.log(i_hi) - math.log(i_lo))
    )
    to = 0.0 if o_lo == o_hi else (
        (math.log(b.output_cap) - math.log(o_lo)) / (math.log(o_hi) - math.log(o_lo))
    )
    (e00, b00), (e01, b01) = config.logs((i_lo, o_lo)), config.logs((i_lo, o_hi))
    (e10, b10), (e11, b11) = config.logs((i_hi, o_lo)), config.logs((i_hi, o_hi))
    w00, w01, w10, w11 = (1 - ti) * (1 - to), (1 - ti) * to, ti * (1 - to), ti * to
    per_request = math.exp(w00 * e00 + w01 * e01 + w10 * e10 + w11 * e11)
    max_batch = max(1, round(math.exp(w00 * b00 + w01 * b01 + w10 * b10 + w11 * b11)))
    anchor = config.records[(i_lo, o_lo)]
    return _new_record(backend, device, b.input_cap, b.output_cap, max_batch,
                       Energy(per_request * max_batch), None, None, anchor.samples_measured,
                       anchor.warmup_batches, INTERPOLATED)


def default_kv_bytes_per_token(model: ModelConfig) -> int:
    """K and V cache bytes per token for one sequence, at 2 bytes per value."""
    return 2 * model.n_layers * model.n_kv_heads * model.head_dim * 2


def synthesize_table(
    grid: BinGrid,
    model: ModelConfig,
    hw: HardwareSpec,
    efficiency: float,
    decode_penalty: float,
    backend: str = "synthetic",
    device: Optional[str] = None,
    memory_bytes: float = 40e9,
    kv_bytes_per_token: Optional[int] = None,
) -> MeasurementTable:
    """Full-grid synthetic table shaped like real measurements.

    Batch energy is the analytic FLOPs cost at nameplate J/FLOP, divided by
    `efficiency` (fraction of peak actually achieved) with decode FLOPs
    weighted by `decode_penalty` (decoding is memory-bound and costs more
    per FLOP). Max batch comes from a KV-cache memory heuristic. Since
    efficiency <= 1 and penalty >= 1, every row dominates its idealized cost.
    """
    if not 0 < efficiency <= 1:
        raise ValidationError(f"efficiency must be in (0, 1], got {efficiency}")
    if not 1 <= decode_penalty < math.inf:
        raise ValidationError(f"decode_penalty must be >= 1 and finite, got {decode_penalty}")
    if not 0 < memory_bytes < math.inf:
        raise ValidationError(f"memory_bytes must be positive and finite, got {memory_bytes}")
    device = device if device is not None else hw.name
    kv_bytes = kv_bytes_per_token if kv_bytes_per_token is not None \
        else default_kv_bytes_per_token(model)
    if kv_bytes <= 0:
        raise ValidationError(f"kv_bytes_per_token must be positive, got {kv_bytes}")
    jpf = joules_per_flop(hw)

    records = []
    for b in grid.bins():
        max_batch = max(1, int(memory_bytes // ((b.input_cap + b.output_cap) * kv_bytes)))
        fb = request_flops(model, b.input_cap, b.output_cap)
        prefill_j = max_batch * fb.prefill_flops * jpf / efficiency
        decode_j = max_batch * fb.decode_flops * decode_penalty * jpf / efficiency
        records.append(MeasurementRecord(
            backend=backend,
            device=device,
            input_cap=b.input_cap,
            output_cap=b.output_cap,
            max_batch=max_batch,
            batch_energy=Energy(prefill_j + decode_j),
            prefill_energy=Energy(prefill_j),
            decode_energy=Energy(decode_j),
            samples_measured=protocol_samples(max_batch),
            warmup_batches=PROTOCOL_WARMUP_BATCHES,
        ))
    metadata = TableMetadata(grid=grid, padding_policy="padded-to-cap (synthetic)")
    return MeasurementTable(records=tuple(records), metadata=metadata)


def write_table(table: MeasurementTable, path_or_buf) -> None:
    """Serialize to the table csv schema, energies in joules, metadata as
    leading comment lines."""
    md = table.metadata

    records = sorted(table.records,
                     key=lambda r: (r.backend, r.device, r.input_cap, r.output_cap))
    write_csv(path_or_buf, format_csv(
        TABLE_COLUMNS,
        [(r.backend, r.device, r.input_cap, r.output_cap, r.max_batch, r.batch_energy.joules,
          "J", joules_or_none(r.prefill_energy), joules_or_none(r.decode_energy), r.samples_measured,
          r.warmup_batches) for r in records],
        meta=grid_meta(md.grid) + [("protocol_samples", md.protocol_samples),
                                   ("normalization_note", md.normalization_note),
                                   ("padding_policy", md.padding_policy)],
    ))


def load_table(path_or_buf) -> MeasurementTable:
    """Parse and validate a measurement-table csv.

    The grid comes from the `# input_bins / # output_bins` comments, else it
    is the default grid; one comment without the other is a data error.
    Energy columns are converted to joules using the row's energy_unit.
    """
    f = read_csv(path_or_buf, TABLE_COLUMNS, "measurement table", _parse_record)
    metadata = TableMetadata(
        grid=f.grid() or BinGrid(),
        protocol_samples=f.meta_int("protocol_samples", PROTOCOL_SAMPLES),
        normalization_note=f.meta.get("normalization_note", NORMALIZATION_NOTE),
        padding_policy=f.meta.get("padding_policy", "unspecified"),
    )
    return MeasurementTable(records=tuple(f.rows), metadata=metadata)


def _parse_record(fields: list[str], where: str) -> MeasurementRecord:
    (backend, device, input_cap, output_cap, max_batch, batch_energy, unit,
     prefill_energy, decode_energy, samples_measured, warmup_batches) = fields
    factor = ENERGY_UNIT_FACTORS.get(unit)
    if factor is None:
        raise ValidationError(
            f"{where}: energy_unit must be one of "
            f"{sorted(ENERGY_UNIT_FACTORS)}, got {unit!r}"
        )
    # the columns are checked in this order, and the record's own checks
    # after them, so a row with several faults reports the same one always
    batch_energy = _energy(batch_energy, factor, "batch_energy", where)
    if batch_energy is None:
        raise ValidationError(f"{where}: batch_energy is required")
    input_cap = _integer(input_cap, "input_cap", where)
    output_cap = _integer(output_cap, "output_cap", where)
    max_batch = _integer(max_batch, "max_batch", where)
    prefill_energy = _energy(prefill_energy, factor, "prefill_energy", where)
    decode_energy = _energy(decode_energy, factor, "decode_energy", where)
    samples_measured = _integer(samples_measured, "samples_measured", where)
    warmup_batches = _integer(warmup_batches, "warmup_batches", where)
    try:
        return _new_record(backend, device, input_cap, output_cap, max_batch, batch_energy,
                           prefill_energy, decode_energy, samples_measured, warmup_batches,
                           MEASURED)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _energy(raw: str, factor: float, col: str, where: str) -> Optional[Energy]:
    """The energy of a table field in unit `factor`, None when it is empty."""
    if raw == "":
        return None
    try:
        joules = float(raw) * factor
    except ValueError:
        raise ValidationError(f"{where}: {col} is not a number: {raw!r}") from None
    if not 0 < joules < math.inf:
        raise ValidationError(f"{where}: {col} must be positive and finite, got {raw!r}")
    return Energy(joules)


def _integer(raw: str, col: str, where: str) -> int:
    try:
        return parse_int(raw)
    except ValueError:
        raise ValidationError(f"{where}: {col} is not an integer: {raw!r}") from None
    except OverflowError:
        raise ValidationError(f"{where}: {col} exceeds the int64 range: {raw}") from None
