"""Trace file parsing and token-length statistics.

Traces arrive as csv or jsonl with per-request input/output token counts
already computed (no tokenization here). Parsing is streaming and
single-pass into two int64 columns; malformed rows abort the run unless
permissive mode is on, in which case they are skipped and reported.

A csv trace is read in chunks of _CHUNK_LINES physical lines. Each chunk's
token columns come from one np.loadtxt call. A chunk that holds a quote
character or a line longer than the csv module's field size limit goes
through the csv row parser instead, which gives each malformed row its
physical line number and message, and fails on an oversized field as
csv.DictReader does. A chunk that loadtxt cannot parse exactly (a bad,
negative or missing value) is sifted: the lines whose two token fields are
plain 1-18 digit numbers go through one more loadtxt call, and only the
others, blank lines included, are checked one row at a time as the row
parser checks them; the valid ones among those (such as ` 7 ` or `+4`) are
put back in file order.

numpy is imported inside the functions that build or read token columns, so
importing this module (as every command does) does not load it.
"""

from __future__ import annotations

import csv
import json
import re
import warnings
from dataclasses import dataclass, field
from itertools import chain, compress, islice
from operator import not_
from typing import Iterable, Iterator, Sequence

from .core import INT64_MAX, Request, RequestColumns, ValidationError, open_text

TRACE_FORMATS = ("generic-csv", "jsonl")

_CHUNK_LINES = 1 << 16


@dataclass(frozen=True)
class TraceSource:
    """Where a trace lives and how its columns map to token fields."""

    path: str
    format: str  # one of TRACE_FORMATS
    column_map: dict[str, str] = field(
        default_factory=lambda: {"input_tokens": "input_tokens", "output_tokens": "output_tokens"}
    )

    def __post_init__(self) -> None:
        if self.format not in TRACE_FORMATS:
            raise ValidationError(
                f"unknown trace format {self.format!r}; expected one of {TRACE_FORMATS}"
            )
        missing = {"input_tokens", "output_tokens"} - self.column_map.keys()
        if missing:
            raise ValidationError(f"column_map missing fields: {', '.join(sorted(missing))}")


@dataclass(frozen=True)
class RowError:
    line: int
    message: str


@dataclass(frozen=True)
class TraceLoad:
    """Result of parsing a trace: requests in file order plus skipped rows."""

    requests: RequestColumns
    malformed: list[RowError]

    @property
    def malformed_count(self) -> int:
        return len(self.malformed)


@dataclass(frozen=True)
class TraceStats:
    """Distribution summary of one token-length column."""

    count: int
    mean: float
    std: float
    median: float
    p99: float
    max: int


def load_trace(source: TraceSource, permissive: bool = False) -> TraceLoad:
    """Parse a trace file (read by core.open_text, so `-` is stdin) into
    token columns, viewed as Requests.

    Raises on any malformed row unless `permissive`, in which case bad rows
    are skipped and returned in .malformed. Row order is preserved.
    """
    parse = _parse_csv if source.format == "generic-csv" else _parse_jsonl
    try:
        with open_text(source.path, "trace file") as stream:
            requests, malformed = parse(stream, source)
    except csv.Error as exc:
        raise ValidationError(f"{source.path}: unreadable csv ({exc})") from None
    if malformed and not permissive:
        first = malformed[0]
        raise ValidationError(
            f"{source.path}: {len(malformed)} malformed row(s); first at line "
            f"{first.line}: {first.message} (use permissive mode to skip)"
        )
    return TraceLoad(requests=requests, malformed=malformed)


def _token_value(raw, column: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise ValidationError(f"column {column!r} is not an integer: {raw!r}")
    if isinstance(raw, str):
        try:
            raw = int(raw.strip())
        except ValueError:
            raise ValidationError(f"column {column!r} is not an integer: {raw!r}") from None
    if raw < 0:
        raise ValidationError(f"column {column!r} is negative: {raw}")
    if raw > INT64_MAX:
        raise ValidationError(f"column {column!r} exceeds the int64 range: {raw}")
    return raw


def _parse_csv(lines: Iterator[str], source: TraceSource):
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None:
        raise ValidationError(f"{source.path}: empty file, expected a header row")
    # a repeated name means its last column, as with csv.DictReader
    index = {name: i for i, name in enumerate(header)}
    columns = []
    for key in ("input_tokens", "output_tokens"):
        col = source.column_map[key]
        if col not in index:
            raise ValidationError(f"{source.path}: missing column {col!r}; header has {header}")
        columns.append((index[col], col))
    plain = _plain_line(tuple(i for i, _ in columns))
    inputs: list[np.ndarray] = []
    outputs: list[np.ndarray] = []
    malformed: list[RowError] = []
    line = reader.line_num
    while chunk := list(islice(lines, _CHUNK_LINES)):
        block = _parse_chunk(chunk, line, columns, plain, malformed)
        if block is None:
            block, read = _parse_rows(chain(chunk, lines), len(chunk), line, columns, malformed)
        else:
            read = len(chunk)
        line += read
        inputs.append(block[:, 0])
        outputs.append(block[:, 1])
    return RequestColumns(_concat(inputs), _concat(outputs)), malformed


def _plain_line(usecols: tuple[int, int]):
    """`match` of a quote-free line whose token fields are 1-18 ASCII digits
    (so below 2**63), each followed by a comma or the end of the line."""
    fields = ["[0-9]{1,18}" if k in usecols else "[^,]*" for k in range(max(usecols) + 1)]
    return re.compile(",".join(fields) + "(?![^,\r\n])").match


def _parse_chunk(chunk: list[str], first_line: int, columns, plain,
                 malformed: list[RowError]):
    """(rows, 2) token block of a chunk, or None when the chunk needs the row
    parser.

    A chunk that the first loadtxt refuses is sifted: the lines `plain`
    matches are parsed by one more loadtxt, the others are checked one row
    at a time (errors go to `malformed`, numbered from `first_line`) and the
    valid ones are put back in file order.
    """
    import numpy as np

    usecols = tuple(i for i, _ in columns)
    rows = len(chunk) - chunk.count("\n") - chunk.count("\r\n") - chunk.count("\r")
    if rows == 0:  # loadtxt warns on input with no data
        return np.empty((0, 2), dtype=np.int64)
    if '"' in "".join(chunk) or max(map(len, chunk)) > csv.field_size_limit():
        return None
    block = _loadtxt(chunk, usecols)
    if block is not None and len(block) == rows and block.min() >= 0:
        return block
    refused = list(map(not_, map(plain, chunk)))
    plain_lines = list(compress(chunk, map(not_, refused)))
    block = _loadtxt(plain_lines, usecols) if plain_lines else np.empty((0, 2), dtype=np.int64)
    if block is None or len(block) != len(plain_lines):
        return None
    at: list[int] = []
    kept: list[tuple[int, int]] = []
    at_refused = compress(range(len(chunk)), refused)
    for j, (k, row) in enumerate(zip(at_refused, csv.reader(compress(chunk, refused)))):
        pair = _row_tokens(row, first_line + k + 1, columns, malformed)
        if pair is not None:
            at.append(k - j)  # the plain lines before line k
            kept.append(pair)
    return np.insert(block, at, kept, axis=0) if kept else block


def _loadtxt(lines: list[str], usecols: tuple[int, int]):
    """(rows, 2) int64 token block of `lines`, or None when loadtxt refuses them."""
    import numpy as np

    try:
        with warnings.catch_warnings():
            # older numpy parses "1.5" as 1 with only a DeprecationWarning
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(lines, delimiter=",", dtype=np.int64, usecols=usecols,
                              comments=None, ndmin=2)
    except (ValueError, DeprecationWarning):
        return None


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


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    import numpy as np

    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def _parse_jsonl(lines: Iterator[str], source: TraceSource):
    import numpy as np

    in_col = source.column_map["input_tokens"]
    out_col = source.column_map["output_tokens"]
    inputs: list[int] = []
    outputs: list[int] = []
    malformed: list[RowError] = []
    for line_num, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
            if not isinstance(obj, dict):
                raise ValidationError(f"expected a json object, got {type(obj).__name__}")
            for col in (in_col, out_col):
                if col not in obj:
                    raise ValidationError(f"missing member {col!r}")
            i = _token_value(obj[in_col], in_col)
            o = _token_value(obj[out_col], out_col)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError and ValidationError are ValueErrors
            malformed.append(RowError(line=line_num, message=str(exc)))
        else:
            inputs.append(i)
            outputs.append(o)
    return RequestColumns(np.array(inputs, dtype=np.int64),
                          np.array(outputs, dtype=np.int64)), malformed


def compute_stats(values: Iterable[int]) -> TraceStats:
    """Summarize a nonnegative integer sequence.

    Median uses the lower middle element for even counts and p99 is the
    nearest-rank (no interpolation) percentile, so both stay integers for
    integer input. Std is the population (divide-by-n) form.
    """
    import numpy as np

    arr = np.asarray(values if isinstance(values, (np.ndarray, list, tuple)) else list(values))
    if arr.size == 0:
        raise ValidationError("cannot compute statistics of an empty sequence")
    if arr.min() < 0:
        raise ValidationError("token counts must be nonnegative")
    arr = np.sort(arr.astype(np.int64, copy=False))
    n = int(arr.size)
    p99_rank = -((-99 * n) // 100)  # ceil(0.99 * n) in exact integer arithmetic
    return TraceStats(
        count=n,
        mean=float(arr.mean()),
        std=float(arr.std()),
        median=float(arr[(n - 1) // 2]),
        p99=float(arr[p99_rank - 1]),
        max=int(arr[-1]),
    )


def summarize_trace(requests: Sequence[Request]) -> tuple[TraceStats, TraceStats]:
    """Independent input-column and output-column statistics for a trace."""
    if not requests:
        raise ValidationError("cannot summarize an empty trace")
    columns = RequestColumns.of(requests)
    return compute_stats(columns.inputs), compute_stats(columns.outputs)
