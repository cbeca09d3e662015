"""Ceiling-bin mapping of request traces onto the (input_cap, output_cap) grid.

Each request maps to the smallest cap at or above its token count in each
dimension; zero-length inputs and outputs map to the smallest bin (real
traces contain empty prompts and 1-token generations).

Requests longer than the largest cap in either dimension are excluded from
the histogram and tallied separately so under-coverage stays visible in
downstream reports.
"""

from __future__ import annotations

from ._frozen import factory, frozen
from .core import (DEFAULT_GRID, Bin, BinGrid, RequestColumns, ValidationError, parse_int,
                   parse_value)
from .csvio import format_csv, grid_meta, read_csv, write_csv

_BIN_SLICE = 1 << 14


@frozen
class BinnedWorkload:
    """Histogram of request counts per bin, plus out-of-range tallies."""

    grid: BinGrid
    counts: dict[Bin, int] = factory(dict)
    excluded_input: int = 0
    excluded_output: int = 0

    def __post_init__(self) -> None:
        if self.excluded_input < 0 or self.excluded_output < 0:
            raise ValidationError("exclusion tallies must be nonnegative")
        for b, c in self.counts.items():
            if not self.grid.contains(b):
                raise ValidationError(f"bin {b} is not on the grid")
            if c < 0:
                raise ValidationError(f"count for bin {b} must be nonnegative, got {c}")

    @property
    def total_excluded(self) -> int:
        return self.excluded_input + self.excluded_output

    def sorted_counts(self) -> list[tuple[Bin, int]]:
        """(bin, count) pairs in (input_cap, output_cap) order, zero bins dropped."""
        return sorted(((b, c) for b, c in self.counts.items() if c > 0))

    def __add__(self, other: "BinnedWorkload") -> "BinnedWorkload":
        if not isinstance(other, BinnedWorkload):
            return NotImplemented
        if other.grid != self.grid:
            raise ValidationError("cannot merge workloads binned on different grids")
        merged = dict(self.counts)
        for b, c in other.counts.items():
            merged[b] = merged.get(b, 0) + c
        return BinnedWorkload(
            grid=self.grid,
            counts=merged,
            excluded_input=self.excluded_input + other.excluded_input,
            excluded_output=self.excluded_output + other.excluded_output,
        )


def bin_arrays(inputs: np.ndarray, outputs: np.ndarray, grid: BinGrid) -> BinnedWorkload:
    """Bin parallel columns of input/output token counts (the hot path),
    checked as RequestColumns checks them, vectorized over slices of
    _BIN_SLICE (16,384) rows so that the temporaries stay small however long
    the trace is, about 0.5 MB; the slices' bin counts and exclusion tallies
    are summed. A request over both limits is tallied once, under
    excluded_input.
    """
    import numpy as np

    columns = RequestColumns(inputs, outputs)
    input_bins = np.asarray(grid.input_bins, dtype=np.int64)
    output_bins = np.asarray(grid.output_bins, dtype=np.int64)
    n_out = len(grid.output_bins)
    flat = np.zeros(len(grid.input_bins) * n_out, dtype=np.int64)
    excluded_input = excluded_output = 0
    for start in range(0, len(columns), _BIN_SLICE):
        ins = columns.inputs[start:start + _BIN_SLICE]
        outs = columns.outputs[start:start + _BIN_SLICE]
        over_in = ins > input_bins[-1]
        over_out = ~over_in & (outs > output_bins[-1])
        ok = ~(over_in | over_out)
        ii = np.searchsorted(input_bins, ins[ok], side="left")
        oi = np.searchsorted(output_bins, outs[ok], side="left")
        flat += np.bincount(ii * n_out + oi, minlength=len(flat))
        excluded_input += int(over_in.sum())
        excluded_output += int(over_out.sum())
    counts = {Bin(grid.input_bins[k // n_out], grid.output_bins[k % n_out]): int(flat[k])
              for k in np.flatnonzero(flat).tolist()}
    return BinnedWorkload(grid=grid, counts=counts, excluded_input=excluded_input,
                          excluded_output=excluded_output)


def bin_workload(columns: RequestColumns, grid: BinGrid | None = None) -> BinnedWorkload:
    """Histogram a trace's token columns over the grid (default grid if omitted)."""
    return bin_arrays(columns.inputs, columns.outputs, grid or DEFAULT_GRID)


BINNED_COLUMNS = ("input_cap", "output_cap", "count")


def write_binned_csv(workload: BinnedWorkload, path_or_buf) -> None:
    """Serialize to csv: grid header comments, one row per nonzero bin,
    exclusion tallies as footer comments. Round-trips losslessly."""
    write_csv(path_or_buf, format_csv(
        BINNED_COLUMNS,
        [(b.input_cap, b.output_cap, c) for b, c in workload.sorted_counts()],
        meta=grid_meta(workload.grid),
        footer=[("excluded_input", workload.excluded_input),
                ("excluded_output", workload.excluded_output)],
    ))


def _binned_row(fields: list[str], where: str) -> tuple[int, ...]:
    return tuple(parse_value(parse_int, text, f"{where}: {name}")
                 for name, text in zip(BINNED_COLUMNS, fields))


def read_binned_csv(path_or_buf) -> BinnedWorkload:
    """Parse the csv produced by write_binned_csv."""
    f = read_csv(path_or_buf, BINNED_COLUMNS, "binned workload file", _binned_row)
    grid = f.grid()
    if grid is None:
        raise ValidationError(
            f"{f.origin}: missing '# input_bins = ...' and '# output_bins = ...' comments"
        )
    excluded_input = f.meta_int("excluded_input", 0)
    excluded_output = f.meta_int("excluded_output", 0)
    try:
        counts = {Bin(i, o): c for i, o, c in f.rows}
        if len(counts) != len(f.rows):
            raise ValidationError("duplicate bin rows")
        return BinnedWorkload(grid=grid, counts=counts, excluded_input=excluded_input,
                              excluded_output=excluded_output)
    except ValidationError as exc:
        raise ValidationError(f"{f.origin}: {exc}") from None
