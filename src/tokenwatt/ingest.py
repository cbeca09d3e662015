"""Trace file parsing and token-length statistics.

Traces arrive as csv or jsonl with per-request input/output token counts
already computed (no tokenization here). Parsing is streaming and
single-pass into two token columns, each uint32 until it meets a count of
2**32 or more and int64 from then on; malformed rows abort the run unless
permissive mode is on, in which case they are skipped and reported.

A trace is read in text blocks of _CHUNK_CHARS characters, each completed
to a line end. A csv block with no quote and no line longer than the
csv module's field size limit goes to one np.loadtxt call, whose rows stand
only when there is exactly one nonnegative row per physical line. Any other
block, or one whose loadtxt rows do not stand (a blank line, a lone `\\r`
inside the block, a bad, negative or missing value), is split into lines
once, where the csv module splits them. A block that holds a quote or an
over-long line goes through the csv row parser, which gives each malformed
row its physical line number and message, and fails on an oversized field
as csv.DictReader does. The others are sifted: the lines whose two token
fields are plain 1-18 digit numbers go through one more loadtxt call, held
to the same rule, and only the others, blank lines included, are checked
one row at a time as the row parser checks them; the valid ones among
those (such as ` 7 ` or `+4`) are put back in file order. Every parser
gives int64 tokens, and each block's go straight into the two growing
columns, so a load holds about its columns and one block. A block is
131,072 characters, about 2,900 BurstGPT rows: a sifted load of 300,000
such rows allocates 1.5 MB beyond its 2.4 MB of uint32 columns. A jsonl
trace is read in the same text blocks into the same columns; each block is
split into lines as a csv block is, and each line that is not blank is read
as one json object.

numpy is imported inside the functions that build or read token columns, so
importing this module (as every command does) does not load it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import warnings
from functools import partial
from itertools import chain, compress
from operator import mul, not_
from typing import Iterator, Sequence, TextIO

from ._frozen import frozen
from .core import INT64_MAX, RequestColumns, ValidationError, open_text, token_column

TRACE_FORMATS = ("generic-csv", "jsonl")

_CHUNK_CHARS = 1 << 17
_UINT32_MAX = (1 << 32) - 1
_STATS_SLICE = 1 << 13
# A slice whose values are all below this bound has sums of values and of
# squares below _STATS_SLICE * (2**25 - 1)**2 < 2**63, exact in int64.
_STATS_INT64_BOUND = 1 << 25


@frozen
class RowError:
    line: int
    message: str


@frozen
class TraceLoad:
    """Result of load_trace: the token columns of its requests, in file
    order, plus the rows skipped as malformed (only a permissive load keeps
    any)."""

    requests: RequestColumns
    malformed: list[RowError]

    @property
    def malformed_count(self) -> int:
        return len(self.malformed)


@frozen
class TraceStats:
    """Distribution summary of one token-length column."""

    count: int
    mean: float
    std: float
    median: float
    p99: float
    max: int


def load_trace(path: str, format: str = "generic-csv", input_column: str = "input_tokens",
               output_column: str = "output_tokens", permissive: bool = False) -> TraceLoad:
    """Parse the trace file at `path` (read by core.open_text, so `-` is
    stdin) into its two token columns, each uint32 while all its counts are
    below 2**32, else int64.

    `format` is one of TRACE_FORMATS; another is refused before the file is
    opened. The token counts are read from the csv columns, or jsonl members,
    named `input_column` and `output_column`. Raises on any malformed row
    unless `permissive`, in which case bad rows are skipped and returned in
    .malformed. Row order is preserved.
    """
    if format not in TRACE_FORMATS:
        raise ValidationError(f"unknown trace format {format!r}; expected one of {TRACE_FORMATS}")
    names = (input_column, output_column)
    malformed: list[RowError] = []
    try:
        with open_text(path, "trace file") as stream:
            if format == "generic-csv":
                line, parse = _csv_header(stream, path, names, malformed)
            else:
                line, parse = 0, partial(_parse_jsonl_block, names, malformed)
            inputs, outputs = _Column(), _Column()
            while block := stream.read(_CHUNK_CHARS):
                if block[-1] != "\n":  # end at a line end, and never between `\r` and `\n`
                    block += stream.readline()
                tokens, read = parse(block, line)
                line += read
                inputs.extend(tokens[:, 0])
                outputs.extend(tokens[:, 1])
    except csv.Error as exc:
        raise ValidationError(f"{path}: unreadable csv ({exc})") from None
    if malformed and not permissive:
        first = malformed[0]
        raise ValidationError(
            f"{path}: {len(malformed)} malformed row(s); first at line "
            f"{first.line}: {first.message} (use permissive mode to skip)"
        )
    return TraceLoad(RequestColumns(inputs.array(), outputs.array()), malformed)


def _token_count(raw, column: str) -> int:
    """`raw` as a token count: an int (a bool, a float or a string of
    digits is not one) in [0, INT64_MAX], as a jsonl member must be."""
    if type(raw) is not int:
        raise ValidationError(f"column {column!r} is not an integer: {raw!r}")
    if raw < 0:
        raise ValidationError(f"column {column!r} is negative: {raw}")
    if raw > INT64_MAX:
        raise ValidationError(f"column {column!r} exceeds the int64 range: {raw}")
    return raw


def _token_value(cell: str | None, column: str) -> int:
    """A csv cell as a token count, surrounding whitespace ignored; None
    stands for a cell the row lacks."""
    try:
        value = int(cell.strip())
    except (AttributeError, ValueError):  # AttributeError: no cell
        raise ValidationError(f"column {column!r} is not an integer: {cell!r}") from None
    return _token_count(value, column)


def _csv_header(stream: TextIO, path: str, names: tuple[str, str], malformed: list[RowError]):
    """Read the header row of a csv trace whose token columns are `names`;
    return the lines read and the parser of the blocks that follow, as
    `parse(block, first_line)`."""
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None:
        raise ValidationError(f"{path}: empty file, expected a header row")
    # a repeated name means its last column, as with csv.DictReader
    index = {name: i for i, name in enumerate(header)}
    columns = []
    for col in names:
        if col not in index:
            raise ValidationError(f"{path}: missing column {col!r}; header has {header}")
        columns.append((index[col], col))
    plain = _plain_line(tuple(i for i, _ in columns))
    return reader.line_num, partial(_parse_block, stream, columns, plain, malformed)


def _plain_line(usecols: tuple[int, int]):
    """`match` of a quote-free line whose token fields are 1-18 ASCII digits
    (so below 2**63), each followed by a comma or the end of the line."""
    fields = ["[0-9]{1,18}" if k in usecols else "[^,]*" for k in range(max(usecols) + 1)]
    return re.compile(",".join(fields) + "(?![^,\r\n])").match


def _parse_block(stream: TextIO, columns, plain, malformed: list[RowError], block: str,
                 first_line: int) -> tuple[np.ndarray, int]:
    """The (rows, 2) token block of a text block and the physical lines read.

    A block with no quote and no line longer than the csv field size limit
    goes to one loadtxt call, and is taken when loadtxt gives exactly one
    nonnegative row per physical line. Any other block is split into lines
    once, where the csv module splits them: one with a quote or an
    over-long line goes to the row parser (which may read on into `stream`
    to end a quoted record), the others are sifted.
    """
    usecols = tuple(i for i, _ in columns)
    rows_only = '"' in block or _overlong(block, csv.field_size_limit())
    if not rows_only:
        rows = block.count("\n") + (block[-1] != "\n")
        tokens = _loadtxt(io.StringIO(block), rows, usecols)
        if tokens is not None:
            return tokens, rows
    lines = io.StringIO(block, newline="").readlines()
    tokens = None if rows_only else _sift(lines, first_line, columns, plain, malformed)
    if tokens is None:
        return _parse_rows(chain(lines, stream), len(lines), first_line, columns, malformed)
    return tokens, len(lines)


def _overlong(block: str, limit: int) -> bool:
    """Whether a line of `block`, taken to end at `\\n`, may be longer than
    `limit` characters. Only a line that runs across a multiple of `limit`
    can be, so only those lines are measured. A `\\r` that ends a line
    only makes it shorter, so this may err only towards the row parser."""
    for at in range(limit, len(block), limit):
        end = block.find("\n", at)
        if (len(block) if end < 0 else end) - block.rfind("\n", 0, at) > limit:
            return True
    return False


def _sift(lines: list[str], first_line: int, columns, plain, malformed: list[RowError]):
    """(rows, 2) token block of quote-free `lines`, or None when they need
    the row parser.

    The lines `plain` matches are parsed by one loadtxt call, the others are
    checked one row at a time (errors go to `malformed`, numbered from
    `first_line`) and the valid ones are put back in file order.
    """
    import numpy as np

    refused = list(map(not_, map(plain, lines)))
    plain_lines = list(compress(lines, map(not_, refused)))
    block = _loadtxt(plain_lines, len(plain_lines), tuple(i for i, _ in columns))
    if block is None:
        return None
    at: list[int] = []
    kept: list[tuple[int, int]] = []
    at_refused = compress(range(len(lines)), refused)
    for j, (k, row) in enumerate(zip(at_refused, csv.reader(compress(lines, refused)))):
        pair = _row_tokens(row, first_line + k + 1, columns, malformed)
        if pair is not None:
            at.append(k - j)  # the plain lines before line k
            kept.append(pair)
    return np.insert(block, at, kept, axis=0) if kept else block


def _loadtxt(lines, count: int, usecols: tuple[int, int]):
    """(count, 2) int64 token block of `lines` (a list or a text stream of
    `count` physical lines), or None unless loadtxt gives exactly one
    nonnegative row per line.

    loadtxt skips a blank line and refuses a `\\r` anywhere but at the end
    of a line, so lines with either never stand and the csv module reads
    them.
    """
    import numpy as np

    try:
        with warnings.catch_warnings():
            # older numpy parses "1.5" as 1 with only a DeprecationWarning
            warnings.simplefilter("error", DeprecationWarning)
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            tokens = np.loadtxt(lines, delimiter=",", dtype=np.int64, usecols=usecols,
                                comments=None, ndmin=2)
    except (ValueError, DeprecationWarning):
        return None
    return tokens if len(tokens) == count and tokens.min(initial=0) >= 0 else None


def _parse_rows(lines: Iterator[str], stop: int, first_line: int, columns,
                malformed: list[RowError]) -> tuple[np.ndarray, int]:
    """Parse csv records until `stop` physical lines are read and the record
    in progress ends; return the (rows, 2) token block and the lines read.

    A quoted record may run past `stop`; `first_line` is the number of
    lines before the first one read, so errors carry file line numbers.
    """
    import numpy as np

    pairs: list[tuple[int, int]] = []
    reader = csv.reader(lines)
    for row in reader:
        pair = _row_tokens(row, first_line + reader.line_num, columns, malformed)
        if pair is not None:
            pairs.append(pair)
        if reader.line_num >= stop:
            break
    return np.array(pairs, dtype=np.int64).reshape(-1, 2), reader.line_num


def _row_tokens(row: list[str], line: int, columns, malformed: list[RowError]):
    """(input, output) tokens of a csv row, or None for a blank row (skipped,
    as csv.DictReader skips it) and for a malformed one, which is recorded
    in `malformed` under physical line `line`."""
    if not row:
        return None
    (in_idx, in_col), (out_idx, out_col) = columns
    try:
        return (_token_value(row[in_idx] if in_idx < len(row) else None, in_col),
                _token_value(row[out_idx] if out_idx < len(row) else None, out_col))
    except ValidationError as exc:
        malformed.append(RowError(line=line, message=str(exc)))
        return None


class _Column:
    """A column that int64 blocks of token values are appended to.

    It is uint32, 4 bytes a value, until a block holds a value of 2**32 or
    more; then the values held so far are converted to int64 once, which
    holds both copies for that moment, and it stays int64. It grows in place
    by an eighth at a time: ndarray.resize reallocates, which for a large
    array remaps its pages rather than copying them. So the column holds at
    most about 1.125 times its values, and a finished trace is never held
    twice, as joining per-block parts would hold it.
    """

    def __init__(self) -> None:
        import numpy as np

        self.values = np.empty(0, dtype=np.uint32)
        self.size = 0

    def extend(self, part) -> None:
        if self.values.dtype != part.dtype and part.max(initial=0) > _UINT32_MAX:
            self.values = self.values[:self.size].astype(part.dtype)  # int64, as every block
        end = self.size + len(part)
        if end > len(self.values):
            self.values.resize(max(end, len(self.values) * 9 // 8), refcheck=False)
        self.values[self.size:end] = part
        self.size = end

    def array(self) -> np.ndarray:
        """The values; the column is not extended after this."""
        self.values.resize(self.size, refcheck=False)
        return self.values


def _parse_jsonl_block(names: tuple[str, str], malformed: list[RowError], block: str,
                       first_line: int) -> tuple[np.ndarray, int]:
    """The (rows, 2) token block of a jsonl text block, its token members
    `names`, and the physical lines read. Blank lines are skipped; a
    malformed line goes to `malformed`, numbered from `first_line`."""
    import numpy as np

    in_col, out_col = names
    inputs: list[int] = []
    outputs: list[int] = []
    lines = io.StringIO(block, newline="").readlines()
    for line_num, raw in enumerate(lines, start=first_line + 1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
            if not isinstance(obj, dict):
                raise ValidationError(f"expected a json object, got {type(obj).__name__}")
            for col in names:
                if col not in obj:
                    raise ValidationError(f"missing member {col!r}")
            i = _token_count(obj[in_col], in_col)
            o = _token_count(obj[out_col], out_col)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError and ValidationError are ValueErrors
            malformed.append(RowError(line=line_num, message=str(exc)))
        else:
            inputs.append(i)
            outputs.append(o)
    return np.array([inputs, outputs], dtype=np.int64).T, len(lines)


def compute_stats(values: Sequence[int] | np.ndarray) -> TraceStats:
    """Summarize a column of token counts, checked by core.token_column (so
    a uint32 column of a loaded trace is read as it is).

    Median uses the lower middle element for even counts and p99 is the
    nearest-rank (no interpolation) percentile, so both stay integers for
    integer input. Std is the population (divide-by-n) form. All of them
    come from one copy of the column, in the narrowest unsigned type that
    holds its max (uint32 for any token count below 2**32), sorted in place;
    the caller's column keeps its order. Mean and std come from exact
    integer sums, which no int64 value can overflow, over _STATS_SLICE
    sorted values at a time: cast to int64 for a slice whose values are
    below _STATS_INT64_BOUND, else over its distinct values and counts as
    Python ints. The mean is the exact mean rounded once, the std within one
    ulp of the exact population std.
    """
    import numpy as np

    column = token_column(values, "token counts")
    n = len(column)
    if n == 0:
        raise ValidationError("cannot compute statistics of an empty sequence")
    ordered = column.astype(np.min_scalar_type(int(column.max())))
    ordered.sort()  # in place: np.sort of the copy would hold two
    total = squares = 0
    for start in range(0, n, _STATS_SLICE):
        part = ordered[start:start + _STATS_SLICE]
        if part[-1] < _STATS_INT64_BOUND:
            part = part.astype(np.int64)  # a narrow dot product would wrap
            total += int(part.sum())
            squares += int(np.dot(part, part))
        else:
            at = np.flatnonzero(np.concatenate(([True], part[1:] != part[:-1])))  # run starts
            xs, cs = part[at].tolist(), np.diff(at, append=len(part)).tolist()
            total += sum(map(mul, xs, cs))
            squares += sum(map(mul, map(mul, xs, xs), cs))
    p99_rank = -((-99 * n) // 100)  # ceil(0.99 * n) in exact integer arithmetic
    return TraceStats(
        count=n,
        mean=total / n,
        std=math.sqrt((squares * n - total * total) / (n * n)),
        median=float(ordered[(n - 1) // 2]),
        p99=float(ordered[p99_rank - 1]),
        max=int(ordered[-1]),
    )


def summarize_trace(columns: RequestColumns) -> tuple[TraceStats, TraceStats]:
    """Independent input-column and output-column statistics for a trace."""
    if not columns:
        raise ValidationError("cannot summarize an empty trace")
    return compute_stats(columns.inputs), compute_stats(columns.outputs)
