"""Ceiling-bin mapping of request traces onto the (input_cap, output_cap) grid.

Requests longer than the largest cap in either dimension are excluded from
the histogram and tallied separately so under-coverage stays visible in
downstream reports.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from typing import Iterable, Union

from ._frozen import factory, frozen
from .core import Bin, BinGrid, Request, RequestColumns, ValidationError, parse_int, parse_value
from .csvio import format_csv, grid_meta, read_csv, write_csv

_BIN_SLICE = 1 << 16


class Overflow(enum.Enum):
    """Which dimension pushed a request off the grid."""

    INPUT = "input"
    OUTPUT = "output"


def map_to_bin(request: Request, grid: BinGrid) -> Union[Bin, Overflow]:
    """Smallest grid bin covering the request in both dimensions.

    Returns an Overflow marker for requests beyond the largest cap; a request
    over both limits reports Overflow.INPUT. Zero-length inputs and outputs
    map to the smallest bin (real traces contain empty prompts and 1-token
    generations).
    """
    if request.input_tokens > grid.max_input:
        return Overflow.INPUT
    if request.output_tokens > grid.max_output:
        return Overflow.OUTPUT
    i_cap = grid.input_bins[bisect_left(grid.input_bins, request.input_tokens)]
    o_cap = grid.output_bins[bisect_left(grid.output_bins, request.output_tokens)]
    return Bin(i_cap, o_cap)


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
    def total_binned(self) -> int:
        return sum(self.counts.values())

    @property
    def total_excluded(self) -> int:
        return self.excluded_input + self.excluded_output

    @property
    def total_requests(self) -> int:
        return self.total_binned + self.total_excluded

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
    """Bin parallel arrays of input/output token counts (the hot path),
    vectorized over slices of _BIN_SLICE rows so that the temporaries stay
    small however long the trace is; the slices' bin counts and exclusion
    tallies are summed. A request over both limits is tallied once, under
    excluded_input.
    """
    import numpy as np

    inputs = np.asarray(inputs, dtype=np.int64)
    outputs = np.asarray(outputs, dtype=np.int64)
    if inputs.shape != outputs.shape:
        raise ValidationError(
            f"inputs and outputs must have equal length, got {inputs.shape} and {outputs.shape}"
        )
    if inputs.size and (inputs.min() < 0 or outputs.min() < 0):
        raise ValidationError("token counts must be nonnegative")
    input_bins = np.asarray(grid.input_bins, dtype=np.int64)
    output_bins = np.asarray(grid.output_bins, dtype=np.int64)
    n_out = len(grid.output_bins)
    flat = np.zeros(len(grid.input_bins) * n_out, dtype=np.int64)
    excluded_input = excluded_output = 0
    for start in range(0, len(inputs), _BIN_SLICE):
        ins = inputs[start:start + _BIN_SLICE]
        outs = outputs[start:start + _BIN_SLICE]
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


def bin_workload(requests: Iterable[Request], grid: BinGrid | None = None) -> BinnedWorkload:
    """Histogram a request trace over the grid (default grid if omitted)."""
    columns = RequestColumns.of(requests)
    return bin_arrays(columns.inputs, columns.outputs, grid or BinGrid())


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
