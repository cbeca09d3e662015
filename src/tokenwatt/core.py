"""Shared domain types: token columns, bin grids, hardware/model configs, energy units.

Everything here but the token columns is an immutable value type, safe to
share across workers.
All internal energy arithmetic is in joules; kWh/Wh conversions happen only
at file and CLI boundaries.
"""

from __future__ import annotations

import io
import math
import sys
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from functools import total_ordering
from pathlib import Path
from typing import Any, Callable, Optional, TextIO

from ._frozen import _refuse_assignment, _refuse_deletion, frozen

INT64_MAX = 2**63 - 1
INT64_MIN = -(2**63)
J_PER_KWH = 3.6e6
J_PER_WH = 3.6e3

# Ceiling-bin lattice used throughout: requests are mapped to the smallest
# cap >= their token length. Note the input set jumps 32 -> 128 (no 64).
DEFAULT_INPUT_BINS = (32, 128, 256, 512, 1024, 2048, 4096, 8192)
DEFAULT_OUTPUT_BINS = (8, 16, 32, 64, 128, 256, 512)


class ValidationError(ValueError):
    """Data or contract violation; mapped to exit code 2 by the CLI."""


def token_column(values: Any, name: str) -> np.ndarray:
    """`values`, an array or a sequence of token counts, as a 1-D uint32 or
    int64 array.

    Nothing is truncated or wrapped: a column that is not 1-D, values that
    are not integers (a float, bool, string or object array, or a bool in a
    sequence) and values outside 0..INT64_MAX are data errors. An empty
    column of any dtype is an empty int64 column. A uint32 array, which can
    hold no value outside that range, comes back as itself unchecked, and an
    int64 array as itself after one `min` pass; any other dtype becomes
    int64. numpy is imported here, not at module level, so the commands that
    read no trace never load it.
    """
    import numpy as np

    column = np.asarray(values)
    if column.ndim != 1:
        raise ValidationError(f"{name} must be a 1-D int64 column, got shape {column.shape}")
    if not column.size:
        return column.astype(np.int64)
    dtype = column.dtype
    if not isinstance(values, np.ndarray) and any(isinstance(v, (bool, np.bool_)) for v in values):
        dtype = np.dtype(bool)  # numpy reads [1, True] as int64
    if dtype.kind not in "iu":
        raise ValidationError(f"{name} must be integers within int64, got dtype {dtype}")
    if dtype == np.uint32:
        return column
    extreme = column.max() if dtype.kind == "u" else column.min()
    if not 0 <= extreme <= INT64_MAX:
        raise ValidationError(f"{name} must be nonnegative integers within int64, got {extreme}")
    return column.astype(np.int64, copy=False)


class RequestColumns:
    """A trace: the input and output token counts of its requests, in file
    order, as two columns of equal length. A loaded trace holds each column
    as uint32 while every count in it is below 2**32, so 8 bytes per
    request, and a column with a larger count as int64.

    Both columns are checked by token_column, which holds a uint32 or int64
    array as it is, not a copy; binning and statistics read `inputs` and
    `outputs` directly. Neither can be reassigned or deleted once checked.
    """

    __setattr__ = _refuse_assignment
    __delattr__ = _refuse_deletion

    def __init__(self, inputs: Any, outputs: Any) -> None:
        inputs = token_column(inputs, "input tokens")
        outputs = token_column(outputs, "output tokens")
        if len(inputs) != len(outputs):
            raise ValidationError(f"unequal token columns: {len(inputs)} and {len(outputs)} rows")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)

    def __len__(self) -> int:
        return len(self.inputs)


@total_ordering
@frozen
class Bin:
    """A cell of the bin grid: the (input_cap, output_cap) a request rounds up
    to. Bins order by input_cap, then output_cap."""

    input_cap: int
    output_cap: int

    # A run makes thousands of bins and energies. With one or two fields,
    # the general __init__ of `frozen` would cost more per instance than
    # this one, which binds its arguments as any function does.
    def __init__(self, input_cap: int, output_cap: int) -> None:
        if input_cap <= 0 or output_cap <= 0:
            raise ValidationError(f"bin caps must be positive, got ({input_cap}, {output_cap})")
        object.__setattr__(self, "input_cap", input_cap)
        object.__setattr__(self, "output_cap", output_cap)

    # Bins are also hashed, compared and sorted thousands of times a run, so
    # these read the two caps directly, as a dataclass's methods would.
    # total_ordering derives <=, > and >= from __lt__ and __eq__; sorting
    # calls only those two.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Bin:
            return NotImplemented
        return (self.input_cap, self.output_cap) == (other.input_cap, other.output_cap)

    def __hash__(self) -> int:
        return hash((self.input_cap, self.output_cap))

    def __lt__(self, other: Bin) -> bool:
        if other.__class__ is not Bin:
            return NotImplemented
        return (self.input_cap, self.output_cap) < (other.input_cap, other.output_cap)


def check_caps(name: str, caps: Iterable[int]) -> tuple[int, ...]:
    """`caps` as a tuple, refused unless non-empty, positive and strictly
    increasing, as a grid's caps and a sweep plan's points must be."""
    caps = tuple(caps)
    if not caps:
        raise ValidationError(f"{name} must be non-empty")
    if any(c <= 0 for c in caps):
        raise ValidationError(f"{name} must be positive, got {caps}")
    if any(a >= b for a, b in zip(caps, caps[1:])):
        raise ValidationError(f"{name} must be strictly increasing, got {caps}")
    return caps


@frozen
class BinGrid:
    """The discrete lattice of input/output token caps: two caps lists, each
    held as a tuple checked by check_caps; the largest caps are
    `input_bins[-1]` and `output_bins[-1]`."""

    input_bins: tuple[int, ...] = DEFAULT_INPUT_BINS
    output_bins: tuple[int, ...] = DEFAULT_OUTPUT_BINS

    def __post_init__(self) -> None:
        for name in ("input_bins", "output_bins"):
            object.__setattr__(self, name, check_caps(name, getattr(self, name)))

    def bins(self) -> list[Bin]:
        """All grid cells, sorted by (input_cap, output_cap)."""
        return [Bin(i, o) for i in self.input_bins for o in self.output_bins]

    def contains(self, b: Bin) -> bool:
        return b.input_cap in self.input_bins and b.output_cap in self.output_bins


DEFAULT_GRID = BinGrid()


@frozen
class HardwareSpec:
    """Accelerator nameplate figures used for the idealized baseline."""

    name: str
    tdp: float  # watts
    peak_flops: float  # FLOP/s

    def __post_init__(self) -> None:
        if not 0 < self.tdp < math.inf:
            raise ValidationError(f"tdp must be positive and finite, got {self.tdp}")
        if not 0 < self.peak_flops < math.inf:
            raise ValidationError(f"peak_flops must be positive and finite, got {self.peak_flops}")

    @classmethod
    def from_file(cls, path: str | Path) -> "HardwareSpec":
        return from_config(cls, path, read_config(
            path, "hardware", {"name": str, "tdp": parse_finite, "peak_flops": parse_finite}))


@frozen
class ModelConfig:
    """Dense decoder-only architecture shape.

    n_params defaults to the closed-form dense parameter count (see
    derive_param_count); pass it explicitly to pin a published figure.
    """

    n_layers: int
    d_model: int
    n_heads: int
    n_kv_heads: int
    d_ff: int
    vocab_size: int
    n_params: Optional[int] = None
    tied_embeddings: bool = False

    def __post_init__(self) -> None:
        for name in ("n_layers", "d_model", "n_heads", "n_kv_heads", "d_ff", "vocab_size"):
            v = getattr(self, name)
            if not isinstance(v, int) or v <= 0:
                raise ValidationError(f"{name} must be a positive integer, got {v!r}")
        if self.d_model % self.n_heads != 0:
            raise ValidationError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})"
            )
        if self.n_heads % self.n_kv_heads != 0:
            raise ValidationError(
                f"n_heads ({self.n_heads}) must be divisible by n_kv_heads ({self.n_kv_heads})"
            )
        if self.n_params is not None and self.n_params <= 0:
            raise ValidationError(f"n_params must be positive, got {self.n_params}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def param_count(self) -> int:
        if self.n_params is not None:
            return self.n_params
        return derive_param_count(self)

    @classmethod
    def from_file(cls, path: str | Path) -> "ModelConfig":
        parsers = {k: parse_int for k in ("n_layers", "d_model", "n_heads", "n_kv_heads",
                                          "d_ff", "vocab_size", "n_params")}
        return from_config(cls, path, read_config(
            path, "model", {**parsers, "tied_embeddings": parse_bool},
            optional=("n_params", "tied_embeddings")))


def from_config(cls, path: str | Path, values: dict[str, Any]):
    """`cls(**values)`, a value it refuses a data error naming config file `path`."""
    try:
        return cls(**values)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def derive_param_count(config: ModelConfig) -> int:
    """Closed-form weight count of a dense decoder-only transformer.

    Counts embeddings, per-layer attention projections (grouped-query K/V)
    and gated feed-forward weights, and the output head (skipped when
    embeddings are tied). Biases and normalization weights are excluded:
    they are below 0.1% of the total for realistic shapes.
    """
    d = config.d_model
    kv_dim = config.head_dim * config.n_kv_heads
    attn = d * d + 2 * d * kv_dim + d * d  # Q, K, V, output projection
    ffn = 3 * d * config.d_ff  # gate, up, down
    embeddings = config.vocab_size * d
    head = 0 if config.tied_embeddings else config.vocab_size * d
    return embeddings + config.n_layers * (attn + ffn) + head


@frozen
class Energy:
    """Finite, nonnegative energy amount; canonical unit is joules."""

    joules: float

    def __init__(self, joules: float) -> None:  # made as often as bins: see Bin.__init__
        if not 0 <= joules < math.inf:
            raise ValidationError(f"energy must be finite and nonnegative, got {joules} J")
        object.__setattr__(self, "joules", joules)


def joules_or_none(energy: Optional[Energy]) -> Optional[float]:
    """The joules of an optional energy, None when it is absent."""
    return None if energy is None else energy.joules


def check_value(name: str, value: str) -> str:
    """`value`, refused unless a csv field or a `key = value` line reads it
    back as written: both readers split lines at `\\n` and `\\r` and strip
    what they read, so it may hold no line break and no leading or trailing
    whitespace."""
    if value != value.strip() or "\n" in value or "\r" in value:
        raise ValidationError(
            f"{name} {value!r} cannot be written: it has a line break or "
            f"leading or trailing whitespace"
        )
    return value


def parse_int(text: str) -> int:
    """An integer within int64, as every integer of a binned workload, a
    table, a config, a plan or `--grid` must be (trace token counts are held
    to the same range), so that the products that price and bound a workload
    stay within float range. Text that is not an integer raises ValueError,
    an integer outside int64 OverflowError."""
    value = int(text)
    if INT64_MIN <= value <= INT64_MAX:
        return value
    raise OverflowError(text)


def parse_caps(text: str) -> tuple[int, ...]:
    """The integers of a comma-separated list such as `32,128,256`: the caps of
    `--grid`, of the `# input_bins`/`# output_bins` comments and a sweep
    plan's points."""
    return tuple(parse_int(x) for x in text.split(","))


def format_caps(caps: Iterable[int]) -> str:
    """The text that parse_caps reads back as `caps`."""
    return ",".join(map(str, caps))


def parse_finite(text: str) -> float:
    """A float other than nan and +-inf."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def parse_bool(text: str) -> bool:
    value = text.lower()
    if value in ("true", "1", "yes"):
        return True
    if value in ("false", "0", "no"):
        return False
    raise ValueError(text)


# What each value parser accepts, as its error message names it.
_READS = {parse_int: "an integer", parse_finite: "a finite number", parse_bool: "a boolean",
          parse_caps: "comma-separated integers"}


def parse_value(parse: Callable[[str], Any], text: str, name: str) -> Any:
    """`parse(text)`, with `parse` one of str, parse_int, parse_finite,
    parse_bool and parse_caps; text it refuses, and an integer beyond int64,
    is a data error naming `name`."""
    try:
        return parse(text)
    except OverflowError:
        raise ValidationError(f"{name} exceeds the int64 range: {text}") from None
    except ValueError:
        raise ValidationError(f"{name} must be {_READS[parse]}, got {text!r}") from None


@contextmanager
def open_text(path: str | Path, what: str) -> Iterator[TextIO]:
    """The text of the input file at `path`, or of stdin's bytes when it is
    `-`, as strict UTF-8 less a leading byte-order mark, line ends kept. A
    missing file (named by `what`) and bytes that are not UTF-8 are data errors."""
    stdin = str(path) == "-"
    if stdin:
        buffer = getattr(sys.stdin, "buffer", None)
        stream = sys.stdin if buffer is None else io.TextIOWrapper(
            buffer, encoding="utf-8-sig", newline="")
    elif not Path(path).exists():
        raise ValidationError(f"{what} not found: {Path(path)}")
    else:
        stream = open(path, encoding="utf-8-sig", newline="")
    try:
        yield stream
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not valid UTF-8 ({exc.reason})") from None
    finally:
        if not stdin:
            stream.close()
        elif stream is not sys.stdin:
            stream.detach()  # closing the wrapper would close sys.stdin


def read_config_file(path: str | Path) -> dict[str, str]:
    """The `key = value` pairs of a config file (read by open_text).

    Lines end at `\\n`, `\\r` or `\\r\\n`, as in csv files, and are
    stripped, as are keys and values. A line whose first non-blank character
    is `#` is a comment and blank lines are skipped; elsewhere `#` is part of
    the value, so `name = A100 #2` reads as `A100 #2`.
    """
    path = Path(path)
    with open_text(path, "config file") as stream:
        lines = list(stream)
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected `key = value`, got {line!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ValidationError(f"{path}:{lineno}: empty key")
        if key in out:
            raise ValidationError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def read_config(path: str | Path, kind: str, parsers: dict[str, Callable[[str], Any]],
                optional: Iterable[str] = ()) -> dict[str, Any]:
    """The values of a `kind` config file (model, hardware or plan), each
    read by its key's parser (see parse_value). Every key of `parsers` not in
    `optional` is required, and no other key is allowed."""
    kv = read_config_file(path)
    for problem, keys in (("missing", parsers.keys() - set(optional) - kv.keys()),
                          ("unknown", kv.keys() - parsers.keys())):
        if keys:
            raise ValidationError(f"{path}: {problem} {kind} keys: {', '.join(sorted(keys))}")
    return {key: parse_value(parsers[key], value, f"{path}: {key}") for key, value in kv.items()}


def format_config(items: Iterable[tuple[str, object]]) -> str:
    """`key = value` lines that read_config_file reads back as `items`; a
    value that would not read back as written is refused (check_value)."""
    return "".join(f"{key} = {check_value(key, str(value))}\n" for key, value in items)
