import io
import json
import math
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from tokenwatt import ingest
from tokenwatt import (
    Bin,
    BinGrid,
    RequestColumns,
    ValidationError,
    bin_workload,
    compute_stats,
    load_trace,
    summarize_trace,
)
from conftest import token_pairs
from oracles import INPUT_OVERFLOW, OUTPUT_OVERFLOW, oracle_map_to_bin, oracle_stats


def _csv_source(tmp_path, text):
    path = tmp_path / "trace.csv"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _jsonl_source(tmp_path, rows):
    path = tmp_path / "trace.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    return str(path)


def test_source_validation():
    # an unknown format is refused before the file is looked for
    with pytest.raises(ValidationError, match="unknown trace format 'parquet'"):
        load_trace("x", "parquet")
    with pytest.raises(ValidationError, match="trace file not found"):
        load_trace("x", "jsonl")


def test_csv_happy_path(tmp_path):
    src = _csv_source(tmp_path, "input_tokens,output_tokens\n10,2\n0,0\n")
    load = load_trace(src)
    assert token_pairs(load.requests) == [(10, 2), (0, 0)]
    assert load.malformed == []


def test_csv_column_mapping(tmp_path):
    src = _csv_source(tmp_path, "ts,prompt_len,gen_len\n1,10,2\n2,30,4\n")
    load = load_trace(src, input_column="prompt_len", output_column="gen_len")
    assert token_pairs(load.requests) == [(10, 2), (30, 4)]


def test_csv_missing_column(tmp_path):
    src = _csv_source(tmp_path, "input_tokens,other\n10,2\n")
    with pytest.raises(ValidationError, match="output_tokens"):
        load_trace(src)


def test_csv_empty_file(tmp_path):
    src = _csv_source(tmp_path, "")
    with pytest.raises(ValidationError, match="header"):
        load_trace(src)


def test_missing_file():
    with pytest.raises(ValidationError, match="not found"):
        load_trace("/nonexistent/trace.csv")


def test_strict_mode_aborts_with_line_number(tmp_path):
    src = _csv_source(tmp_path, "input_tokens,output_tokens\n10,2\nbad,2\n5,1\n")
    with pytest.raises(ValidationError, match="line 3"):
        load_trace(src)


def test_permissive_mode_skips_and_records(tmp_path):
    text = "input_tokens,output_tokens\n10,2\nbad,2\n5,-1\n7,3\n3.5,2\n"
    src = _csv_source(tmp_path, text)
    load = load_trace(src, permissive=True)
    assert token_pairs(load.requests) == [(10, 2), (7, 3)]
    assert load.malformed_count == 3
    assert [e.line for e in load.malformed] == [3, 4, 6]


def test_jsonl_happy_path(tmp_path):
    src = _jsonl_source(tmp_path, [
        {"input_tokens": 10, "output_tokens": 2},
        {"input_tokens": 0, "output_tokens": 7},
    ])
    assert token_pairs(load_trace(src, "jsonl").requests) == [(10, 2), (0, 7)]


def test_jsonl_rejects_bool_float_and_missing(tmp_path):
    src = _jsonl_source(tmp_path, [
        {"input_tokens": True, "output_tokens": 2},
        {"input_tokens": 3.5, "output_tokens": 2},
        {"output_tokens": 2},
        {"input_tokens": "12", "output_tokens": 2},
        {"input_tokens": 4, "output_tokens": 2},
    ])
    load = load_trace(src, "jsonl", permissive=True)
    assert token_pairs(load.requests) == [(4, 2)]
    assert load.malformed_count == 4
    # a string of digits is as malformed as a float, unlike in a csv cell
    assert load.malformed[3].message == "column 'input_tokens' is not an integer: '12'"


def test_token_count_beyond_int64_is_malformed(tmp_path):
    huge = 10**23
    src = _jsonl_source(tmp_path, [
        {"input_tokens": huge, "output_tokens": 2},
        {"input_tokens": 4, "output_tokens": 2**63 - 1},
    ])
    load = load_trace(src, "jsonl", permissive=True)
    assert token_pairs(load.requests) == [(4, 2**63 - 1)]
    assert [(e.line, e.message) for e in load.malformed] == [
        (1, f"column 'input_tokens' exceeds the int64 range: {huge}")]
    src = _csv_source(tmp_path, f"input_tokens,output_tokens\n1,{huge}\n")
    with pytest.raises(ValidationError, match="line 2: column 'output_tokens' exceeds"):
        load_trace(src)


def test_csv_field_over_the_csv_module_limit(tmp_path):
    src = _csv_source(tmp_path, 'input_tokens,output_tokens\n1,"' + "x" * 200_000 + '"\n')
    with pytest.raises(ValidationError, match="unreadable csv"):
        load_trace(src, permissive=True)


def test_jsonl_non_object_row(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('[1, 2]\n{"input_tokens": 1, "output_tokens": 2}\n', encoding="utf-8")
    load = load_trace(str(path), "jsonl", permissive=True)
    assert token_pairs(load.requests) == [(1, 2)]
    assert load.malformed[0].line == 1


def test_jsonl_too_deeply_nested_row(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text("[" * 200_000 + '\n{"input_tokens": 1, "output_tokens": 2}\n',
                    encoding="utf-8")
    load = load_trace(str(path), "jsonl", permissive=True)
    assert token_pairs(load.requests) == [(1, 2)]
    assert load.malformed[0].line == 1


def test_stdin_trace(monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("input_tokens,output_tokens\n9,1\n"))
    load = load_trace("-")
    assert token_pairs(load.requests) == [(9, 1)]


def test_stats_single_value():
    s = compute_stats([7])
    assert (s.count, s.mean, s.std, s.median, s.p99, s.max) == (1, 7.0, 0.0, 7.0, 7.0, 7)


def test_stats_known_sequence():
    # 1..100: mean 50.5, lower median 50, p99 at rank 99, population std
    s = compute_stats(list(range(1, 101)))
    assert s.mean == 50.5
    assert s.median == 50.0
    assert s.p99 == 99.0
    assert s.max == 100
    assert s.std == pytest.approx(np.std(np.arange(1, 101)), rel=1e-12)


def test_stats_even_count_uses_lower_median():
    assert compute_stats([1, 2, 3, 4]).median == 2.0


def test_stats_p99_nearest_rank():
    # n=200: rank ceil(0.99*200)=198 -> value 198
    assert compute_stats(list(range(1, 201))).p99 == 198.0
    # n=101: rank ceil(99.99)=100 -> value 100
    assert compute_stats(list(range(1, 102))).p99 == 100.0


def test_stats_rejects_empty_and_negative():
    with pytest.raises(ValidationError):
        compute_stats([])
    with pytest.raises(ValidationError):
        compute_stats([1, -2])
    # nor what they would truncate or wrap: a float max of 3.9 read as 3,
    # and 2**63 wrapped negative
    for bad in ([1.5, 2.5, 3.9], [2**63], np.array([2**63], dtype=np.uint64), [1, True],
                [[1, 2]], ["12"]):
        with pytest.raises(ValidationError, match="int64"):
            compute_stats(bad)
    assert compute_stats(np.array([3, 250], dtype=np.uint8)).max == 250


def test_stats_match_exact_fractions():
    # mean is the exact mean rounded once; std lies within one ulp of the
    # exact population std; median, p99 and max are elements of the input
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    values = st.integers(0, 10**4) | st.integers(0, 2**63 - 1) | st.sampled_from([0, 2**63 - 1])

    @hypothesis.given(st.lists(values, min_size=1, max_size=50))
    def check(xs):
        s = compute_stats(np.array(xs, dtype=np.int64))
        n, ordered = len(xs), sorted(xs)
        var = Fraction(n * sum(x * x for x in xs) - sum(xs) ** 2, n * n)
        assert s.count == n
        assert s.mean == float(Fraction(sum(xs), n))
        below, above = math.nextafter(s.std, 0), math.nextafter(s.std, math.inf)
        assert Fraction(below) ** 2 <= var <= Fraction(above) ** 2
        assert s.median == float(ordered[(n - 1) // 2])
        assert s.p99 == float(ordered[math.ceil(Fraction(99 * n, 100)) - 1])
        assert s.max == ordered[-1] and type(s.max) is int

    check()


@pytest.mark.parametrize("top", [
    255, 256, 65_535, 65_536, 2**32 - 1, 2**32, 2**63 - 1,
    ingest._STATS_INT64_BOUND - 1, ingest._STATS_INT64_BOUND])
def test_stats_are_exact_at_the_int64_sum_bound(top):
    # the sorted copy takes the narrowest unsigned type that holds `top`, so
    # each top is the largest value of one type or the smallest of the next;
    # full slices of top - 1 and of top overflow that type's sums and dot
    # products. Slices below the int64 bound are summed in int64, the rest
    # as Python ints; a slice of the largest values either way sums exactly,
    # though 8192 squares of 2**25 reach 2**63
    xs = [top] * (2 * ingest._STATS_SLICE) + [0, 1, top - 1] * ingest._STATS_SLICE
    column = np.array(xs, dtype=np.int64)
    s = compute_stats(column)
    n, ordered = len(xs), sorted(xs)
    var = Fraction(n * sum(x * x for x in xs) - sum(xs) ** 2, n * n)
    assert s.mean == float(Fraction(sum(xs), n))
    below, above = math.nextafter(s.std, 0), math.nextafter(s.std, math.inf)
    assert Fraction(below) ** 2 <= var <= Fraction(above) ** 2
    assert s.median == float(ordered[(n - 1) // 2]) == float(top - 1)
    assert s.p99 == float(ordered[math.ceil(Fraction(99 * n, 100)) - 1])
    assert s.max == top and type(s.max) is int
    assert column.tolist() == xs  # the caller's column is not sorted


@pytest.mark.parametrize("chunk_chars", [1, 2, 100])
def test_jsonl_columns_do_not_depend_on_block_size(tmp_path, chunk_chars):
    # one input count of 2**32 late in the trace makes the input column
    # int64, the output column stays uint32
    lines = []
    for k in range(40):
        lines.append(json.dumps({"input_tokens": 2**32 if k == 33 else k * 31,
                                 "output_tokens": k % 5}))
        if k % 6 == 2:
            lines.append(["{", "[1, 2]", '{"input_tokens": -1, "output_tokens": 2}',
                          '{"input_tokens": 3}', ""][k % 5])
    path = tmp_path / "trace.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    want = load_trace(str(path), "jsonl", permissive=True)
    with mock.patch.object(ingest, "_CHUNK_CHARS", chunk_chars):
        got = load_trace(str(path), "jsonl", permissive=True)
    assert got.requests.inputs.tolist() == want.requests.inputs.tolist()
    assert got.requests.outputs.tolist() == want.requests.outputs.tolist()
    assert got.malformed == want.malformed
    assert len(want.requests) == 40 and len(want.malformed) == 6
    assert got.requests.inputs.dtype == want.requests.inputs.dtype == np.int64
    assert got.requests.outputs.dtype == want.requests.outputs.dtype == np.uint32


UINT32_MAX = 2**32 - 1
# caps on both sides of 2**32, so that binning compares uint32 counts with
# int64 caps there; the largest counts are excluded
_WIDE_GRID = BinGrid(input_bins=(32, UINT32_MAX, 2**32, 2**40),
                     output_bins=(8, UINT32_MAX, 2**62))


def _trace_text(pairs, parse_path: str) -> str:
    """`pairs` as a trace whose every block of a few lines takes `parse_path`."""
    if parse_path == "jsonl":
        return "".join(json.dumps({"input_tokens": i, "output_tokens": o}) + "\n"
                       for i, o in pairs)
    if parse_path == "fast":
        rows = [f"{i},{o}\n" for i, o in pairs]
    elif parse_path == "sifted":
        # a blank line after every other row, and every third count padded,
        # so that the row check reads it
        rows = [(f" {i} ,{o}\n" if k % 3 == 0 else f"{i},{o}\n") + "\n" * (k % 2)
                for k, (i, o) in enumerate(pairs)]
    else:  # quoted: the row parser reads every block
        rows = [f'"{i}",{o}\n' for i, o in pairs]
    return "input_tokens,output_tokens\n" + "".join(rows)


@pytest.mark.parametrize("wide", ["inputs", "outputs", None])
@pytest.mark.parametrize("parse_path", ["fast", "sifted", "quoted", "jsonl"])
def test_a_count_past_uint32_widens_only_its_own_column(tmp_path, parse_path, wide):
    # 60 rows in blocks of a few lines; 2**32 - 1 in an early block stays
    # uint32, and 2**32 (on a padded row when sifted) and INT64_MAX in later
    # blocks make their column int64 from there, every value exact
    pairs = [(k * 37 % 1000, k % 7) for k in range(60)]
    pairs[10] = (UINT32_MAX, UINT32_MAX)
    if wide is not None:
        side = ("inputs", "outputs").index(wide)
        for k, count in ((30, 2**32), (47, 2**63 - 1)):
            row = list(pairs[k])
            row[side] = count
            pairs[k] = tuple(row)
    path = tmp_path / "trace"
    path.write_text(_trace_text(pairs, parse_path), encoding="utf-8")
    fmt = "jsonl" if parse_path == "jsonl" else "generic-csv"
    with mock.patch.object(ingest, "_CHUNK_CHARS", 40), \
            mock.patch.object(ingest, "_sift", wraps=ingest._sift) as sift, \
            mock.patch.object(ingest, "_parse_rows", wraps=ingest._parse_rows) as parse_rows:
        cols = load_trace(str(path), fmt).requests
    assert (sift.called, parse_rows.called) == (parse_path == "sifted", parse_path == "quoted")
    assert token_pairs(cols) == pairs
    assert cols.inputs.dtype == (np.int64 if wide == "inputs" else np.uint32)
    assert cols.outputs.dtype == (np.int64 if wide == "outputs" else np.uint32)

    workload = bin_workload(cols, _WIDE_GRID)
    targets = [oracle_map_to_bin(i, o, _WIDE_GRID) for i, o in pairs]
    assert workload.excluded_input == targets.count(INPUT_OVERFLOW)
    assert workload.excluded_output == targets.count(OUTPUT_OVERFLOW)
    assert workload.counts == {t: targets.count(t) for t in targets if isinstance(t, Bin)}
    for got, values in zip(summarize_trace(cols), zip(*pairs)):
        want = oracle_stats(values)
        assert (got.count, got.median, got.p99, got.max) == \
            (want["count"], float(want["median"]), float(want["p99"]), want["max"])
        assert got.mean == want["mean"]
        assert math.isclose(got.std, want["std"], rel_tol=1e-9)
    assert token_pairs(cols) == pairs  # statistics sort a copy


@pytest.mark.parametrize("chunk_chars", [1, 5, 40, 1 << 19])
@pytest.mark.parametrize("ends", [["\n"], ["\r"], ["\r\n"], ["\r\n", "\n", "\r"]])
def test_jsonl_line_numbers_across_line_ends_and_block_sizes(tmp_path, chunk_chars, ends):
    # blank lines (one a lone `\r` line under `\n` ends), malformed rows
    # and no line end after the last row; the mixed ends never put a `\r`
    # end before a blank line's `\n`, which would read as one `\r\n`
    lines = ['{"input_tokens": 1, "output_tokens": 2}', "", "{", "  ",
             '{"input_tokens": 3, "output_tokens": 4}', "\r" if ends == ["\n"] else "",
             "[1]", '{"input_tokens": 5}', '{"input_tokens": 5, "output_tokens": 6}']
    text = "".join(line + ends[k % len(ends)] for k, line in enumerate(lines[:-1])) + lines[-1]
    path = tmp_path / "trace.jsonl"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(ingest, "_CHUNK_CHARS", chunk_chars):
        load = load_trace(str(path), "jsonl", permissive=True)
    assert load.requests.inputs.tolist() == [1, 3, 5]
    assert load.requests.outputs.tolist() == [2, 4, 6]
    assert [e.line for e in load.malformed] == [3, 7, 8]
    assert "missing member 'output_tokens'" in load.malformed[2].message


def test_summarize_trace():
    input_stats, output_stats = summarize_trace(RequestColumns([10, 20, 30], [1, 3, 5]))
    assert input_stats.mean == 20.0
    assert output_stats.median == 3.0
    with pytest.raises(ValidationError, match="empty trace"):
        summarize_trace(RequestColumns([], []))
