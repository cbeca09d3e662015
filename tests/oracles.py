"""Independent brute-force oracles the production code is checked against.

These intentionally avoid the closed forms and vectorized paths in the
package: FLOPs are enumerated matrix by matrix and token by token, binning
does a linear minimal-cap search, statistics come from a full sort plus
textbook formulas, csv traces are read one csv.DictReader row at a time, and
table lookups rescan every record.
"""

import csv
import io
import math

from tokenwatt import Bin, Energy, MeasurementRecord, ModelConfig, ValidationError

# What oracle_map_to_bin gives for a request beyond the largest cap of a dimension
INPUT_OVERFLOW = "input overflow"
OUTPUT_OVERFLOW = "output overflow"


def brute_force_flops(model: ModelConfig, input_len: int, output_len: int) -> tuple[int, int]:
    """(prefill, decode) FLOPs by per-token, per-layer, per-matrix enumeration.

    Convention: one multiply-accumulate = 2 FLOPs; a (rows x cols) weight
    matrix applied to one token costs 2*rows*cols. Attention scores and
    value mixing are enumerated per query head per visible key position.
    KV entries for earlier tokens are cached, never recomputed.
    """
    if model.tied_embeddings:
        raise NotImplementedError("oracle covers untied embeddings only")
    d = model.d_model
    head_dim = model.head_dim
    kv_dim = head_dim * model.n_kv_heads
    per_layer_matrices = [
        (d, d),                # Q projection
        (d, kv_dim),           # K projection
        (d, kv_dim),           # V projection
        (d, d),                # attention output projection
        (d, model.d_ff),       # FFN gate
        (d, model.d_ff),       # FFN up
        (model.d_ff, d),       # FFN down
    ]

    def one_token(context_len: int) -> int:
        # context_len counts every key visible to this token, itself included
        flops = 2 * model.vocab_size * d  # embedding row selection as a matmul
        for _layer in range(model.n_layers):
            for rows, cols in per_layer_matrices:
                flops += 2 * rows * cols
            for _query_head in range(model.n_heads):
                for _key_pos in range(context_len):
                    flops += 2 * head_dim  # q . k score
                    flops += 2 * head_dim  # score-weighted value accumulation
        flops += 2 * d * model.vocab_size  # output head
        return flops

    prefill = 0
    for pos in range(1, input_len + 1):
        prefill += one_token(pos)
    decode = 0
    for step in range(1, output_len + 1):
        decode += one_token(input_len + step)
    return prefill, decode


def oracle_map_to_bin(input_tokens: int, output_tokens: int, grid):
    """Minimal-ceiling bin by linear scan over all caps; a request over both
    limits is an input overflow."""
    if input_tokens > max(grid.input_bins):
        return INPUT_OVERFLOW
    if output_tokens > max(grid.output_bins):
        return OUTPUT_OVERFLOW
    input_cap = min(c for c in grid.input_bins if c >= input_tokens)
    output_cap = min(c for c in grid.output_bins if c >= output_tokens)
    return Bin(input_cap, output_cap)


def oracle_stats(values) -> dict:
    """Order statistics from a full sort; moments from direct formulas."""
    ordered = sorted(values)
    n = len(ordered)
    mean = sum(ordered) / n
    variance = sum((v - mean) ** 2 for v in ordered) / n
    p99_rank = math.ceil(99 * n / 100)
    return {
        "count": n,
        "mean": mean,
        "std": math.sqrt(variance),
        "median": ordered[(n - 1) // 2],
        "p99": ordered[p99_rank - 1],
        "max": ordered[-1],
    }


def _oracle_token(raw, column: str) -> int:
    if raw is None:
        raise ValueError(f"column {column!r} is not an integer: None")
    try:
        value = int(raw.strip())
    except ValueError:
        raise ValueError(f"column {column!r} is not an integer: {raw!r}") from None
    if value < 0:
        raise ValueError(f"column {column!r} is negative: {value}")
    if value >= 2**63:
        raise ValueError(f"column {column!r} exceeds the int64 range: {value}")
    return value


def oracle_parse_csv(text: str, in_col: str = "input_tokens",
                     out_col: str = "output_tokens") -> tuple[list, list]:
    """([(input, output), ...], [(line, message), ...]) of a csv trace body.

    One csv.DictReader row at a time, as a file opened with newline="" reads:
    blank lines are skipped, a repeated column name means its last column, a
    missing field is None, and an error carries the last physical line of its
    record.
    """
    reader = csv.DictReader(io.StringIO(text, newline=""))
    rows, errors = [], []
    for record in reader:
        try:
            rows.append((_oracle_token(record.get(in_col), in_col),
                         _oracle_token(record.get(out_col), out_col)))
        except ValueError as exc:
            errors.append((reader.line_num, str(exc)))
    return rows, errors


def oracle_lookup(table, backend: str, device: str, b: Bin) -> MeasurementRecord:
    """`lookup(..., interpolate=True)` by rescanning the table's records.

    The measured record of the bin, else log-log bilinear interpolation
    between the nearest measured caps, found by list comprehensions over
    every record of the configuration; errors carry the production messages.
    """
    measured = [r for r in table.records if r.backend == backend and r.device == device]
    for r in measured:
        if (r.input_cap, r.output_cap) == (b.input_cap, b.output_cap):
            return r
    if not measured:
        raise ValidationError(f"no records for backend={backend!r} device={device!r}")
    icaps = sorted({r.input_cap for r in measured})
    ocaps = sorted({r.output_cap for r in measured})
    if b.input_cap in icaps and b.output_cap in ocaps:
        # a hole: bracketed on the input axis, its own input cap left out
        icaps.remove(b.input_cap)
    i_lo, i_hi = _oracle_bracket(icaps, b.input_cap, "input", b)
    o_lo, o_hi = _oracle_bracket(ocaps, b.output_cap, "output", b)

    corners = {}
    for ic in {i_lo, i_hi}:
        for oc in {o_lo, o_hi}:
            rec = next((r for r in measured if (r.input_cap, r.output_cap) == (ic, oc)), None)
            if rec is None:
                raise ValidationError(
                    f"cannot interpolate bin ({b.input_cap}, {b.output_cap}): "
                    f"missing measured neighbor ({ic}, {oc}) for backend={backend!r} "
                    f"device={device!r}"
                )
            corners[(ic, oc)] = rec

    ti = 0.0 if i_lo == i_hi else (
        (math.log(b.input_cap) - math.log(i_lo)) / (math.log(i_hi) - math.log(i_lo))
    )
    to = 0.0 if o_lo == o_hi else (
        (math.log(b.output_cap) - math.log(o_lo)) / (math.log(o_hi) - math.log(o_lo))
    )

    def blend(value_of) -> float:
        v00 = math.log(value_of(corners[(i_lo, o_lo)]))
        v01 = math.log(value_of(corners[(i_lo, o_hi)]))
        v10 = math.log(value_of(corners[(i_hi, o_lo)]))
        v11 = math.log(value_of(corners[(i_hi, o_hi)]))
        return math.exp(
            (1 - ti) * (1 - to) * v00 + (1 - ti) * to * v01
            + ti * (1 - to) * v10 + ti * to * v11
        )

    per_request = blend(lambda r: r.per_request_joules)
    max_batch = max(1, round(blend(lambda r: float(r.max_batch))))
    anchor = corners[(i_lo, o_lo)]
    return MeasurementRecord(
        backend=backend,
        device=device,
        input_cap=b.input_cap,
        output_cap=b.output_cap,
        max_batch=max_batch,
        batch_energy=Energy(per_request * max_batch),
        samples_measured=anchor.samples_measured,
        warmup_batches=anchor.warmup_batches,
        provenance="interpolated",
    )


def _oracle_bracket(caps: list, value: int, dim: str, b: Bin) -> tuple:
    if value in caps:
        return value, value
    below = [c for c in caps if c < value]
    above = [c for c in caps if c > value]
    if not below or not above:
        raise ValidationError(
            f"bin ({b.input_cap}, {b.output_cap}) is outside the hull of measured "
            f"{dim} caps {caps}"
        )
    return max(below), min(above)
