"""Ceiling-bin mapping of request traces onto the (input_cap, output_cap) grid.

Requests longer than the largest cap in either dimension are excluded from
the histogram and tallied separately so under-coverage stays visible in
downstream reports.
"""

from __future__ import annotations

import enum
import io
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Union

import numpy as np

from . import _kernels
from .core import Bin, BinGrid, Request, RequestColumns, ValidationError


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


@dataclass(frozen=True)
class BinnedWorkload:
    """Histogram of request counts per bin, plus out-of-range tallies."""

    grid: BinGrid
    counts: dict[Bin, int] = field(default_factory=dict)
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
    """Bin parallel arrays of input/output token counts (the hot path)."""
    inputs = np.asarray(inputs, dtype=np.int64)
    outputs = np.asarray(outputs, dtype=np.int64)
    if inputs.size and (inputs.min() < 0 or outputs.min() < 0):
        raise ValidationError("token counts must be nonnegative")
    counts2d, excl_in, excl_out = _kernels.bin_counts(
        inputs, outputs,
        np.asarray(grid.input_bins, dtype=np.int64),
        np.asarray(grid.output_bins, dtype=np.int64),
    )
    counts: dict[Bin, int] = {}
    for ii, oi in zip(*np.nonzero(counts2d)):
        counts[Bin(grid.input_bins[ii], grid.output_bins[oi])] = int(counts2d[ii, oi])
    return BinnedWorkload(grid=grid, counts=counts,
                          excluded_input=excl_in, excluded_output=excl_out)


def bin_workload(requests: Iterable[Request], grid: BinGrid | None = None) -> BinnedWorkload:
    """Histogram a request trace over the grid (default grid if omitted)."""
    if grid is None:
        grid = BinGrid()
    columns = RequestColumns.of(requests)
    return bin_arrays(columns.inputs, columns.outputs, grid)


def write_binned_csv(workload: BinnedWorkload, path_or_buf) -> None:
    """Serialize to csv: grid header comments, one row per nonzero bin,
    exclusion tallies as footer comments. Round-trips losslessly."""
    buf = io.StringIO()
    buf.write("# input_bins = " + ",".join(str(b) for b in workload.grid.input_bins) + "\n")
    buf.write("# output_bins = " + ",".join(str(b) for b in workload.grid.output_bins) + "\n")
    buf.write("input_cap,output_cap,count\n")
    for b, c in workload.sorted_counts():
        buf.write(f"{b.input_cap},{b.output_cap},{c}\n")
    buf.write(f"# excluded_input = {workload.excluded_input}\n")
    buf.write(f"# excluded_output = {workload.excluded_output}\n")
    text = buf.getvalue()
    if hasattr(path_or_buf, "write"):
        path_or_buf.write(text)
    else:
        Path(path_or_buf).write_text(text, encoding="utf-8")


def read_binned_csv(path_or_buf) -> BinnedWorkload:
    """Parse the csv produced by write_binned_csv."""
    if hasattr(path_or_buf, "read"):
        text = path_or_buf.read()
        origin = "<stream>"
    else:
        p = Path(path_or_buf)
        if not p.exists():
            raise ValidationError(f"binned workload file not found: {p}")
        text = p.read_text(encoding="utf-8")
        origin = str(p)

    meta: dict[str, str] = {}
    rows: list[tuple[int, int, int]] = []
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                k, v = body.split("=", 1)
                meta[k.strip()] = v.strip()
            continue
        if not header_seen:
            if line != "input_cap,output_cap,count":
                raise ValidationError(
                    f"{origin}:{lineno}: expected header 'input_cap,output_cap,count'"
                )
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValidationError(f"{origin}:{lineno}: expected 3 fields, got {len(parts)}")
        try:
            rows.append((int(parts[0]), int(parts[1]), int(parts[2])))
        except ValueError:
            raise ValidationError(f"{origin}:{lineno}: non-integer field in {line!r}") from None

    for key in ("input_bins", "output_bins"):
        if key not in meta:
            raise ValidationError(f"{origin}: missing '# {key} = ...' header comment")
    grid = BinGrid(
        input_bins=tuple(int(x) for x in meta["input_bins"].split(",")),
        output_bins=tuple(int(x) for x in meta["output_bins"].split(",")),
    )
    counts = {Bin(i, o): c for i, o, c in rows if c > 0}
    if len(counts) != sum(1 for _, _, c in rows if c > 0):
        raise ValidationError(f"{origin}: duplicate bin rows")
    return BinnedWorkload(
        grid=grid,
        counts=counts,
        excluded_input=int(meta.get("excluded_input", "0")),
        excluded_output=int(meta.get("excluded_output", "0")),
    )
