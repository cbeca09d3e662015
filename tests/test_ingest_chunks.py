"""Chunked columnar ingest against one-row-at-a-time references.

The csv reader reads text blocks of about _CHUNK_CHARS characters, each
ending at a line end, and parses a block with one numpy call. It hands a
block to the row parser when it holds a quote or a line longer than the csv
module's field size limit. A block with a `\r`, a blank line or a value
numpy cannot take as is is sifted: its plain lines go to numpy again and
only the rest are checked row by row. Block sizes of 1, 2 and 7 characters
give blocks of one line, 40 of a few lines and 65536 of the whole body, so
quoted multi-line records, CRLF pairs, lone `\r`s and blank runs fall
across block boundaries and inside blocks.
"""

import csv
import warnings
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from tokenwatt import ValidationError, load_trace
from tokenwatt import ingest
from conftest import token_pairs
from oracles import oracle_parse_csv

CHUNK_CHARS = (1, 2, 7, 40, 1 << 16)

_GOOD = st.integers(0, 10**6).map(str)
_ODD = st.sampled_from([
    "", "-3", "1.5", "abc", " 7 ", "+4", "-0", "1_0", "\t5", "٣",
    "99999999999999999999999", "9223372036854775807", "9223372036854775808",
    "00000000000000000042",
])
_QUOTED = st.text(alphabet='0123456789,\r\n x"', max_size=6).map(
    lambda t: '"' + t.replace('"', '""') + '"')
_STRAY_QUOTE = st.sampled_from(['"', '4"2', '"7'])
_CELL = st.one_of(_GOOD, _GOOD, _ODD, _QUOTED, _STRAY_QUOTE)
_UNQUOTED_CELL = st.one_of(_GOOD, _GOOD, _ODD)
_EOL = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_bodies(draw, cell=_CELL) -> str:
    """A header naming both token columns (among others, maybe repeated)
    and rows of `cell`s, some missing or extra, and blank lines."""
    extra = draw(st.lists(st.sampled_from(["input_tokens", "output_tokens", "x"]), max_size=3))
    header = draw(st.permutations(["input_tokens", "output_tokens", *extra]))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 30))):
        width = draw(st.sampled_from([0, len(header) - 1, len(header), len(header), len(header) + 1]))
        lines.append(",".join(draw(st.lists(cell, min_size=width, max_size=width))))
    body = "".join(line + draw(_EOL) for line in lines)
    return body if draw(st.booleans()) else body.rstrip("\r\n")


@pytest.mark.parametrize("chunk_chars", CHUNK_CHARS)
def test_chunked_csv_matches_row_oracle(tmp_path, chunk_chars):
    path = tmp_path / "trace.csv"

    # a field size limit below the longest generated cell (but not below a
    # header name) makes some bodies unreadable to the csv module
    @given(body=csv_bodies(), field_limit=st.sampled_from([csv.field_size_limit(), 16]))
    def check(body, field_limit):
        path.write_text(body, encoding="utf-8", newline="")
        source = str(path)
        default_limit = csv.field_size_limit(field_limit)
        try:
            try:
                rows, errors = oracle_parse_csv(body)
            except csv.Error:
                with mock.patch.object(ingest, "_CHUNK_CHARS", chunk_chars), \
                        pytest.raises(ValidationError, match="unreadable csv"):
                    load_trace(source, permissive=True)
                return
            with mock.patch.object(ingest, "_CHUNK_CHARS", chunk_chars):
                load = load_trace(source, permissive=True)
        finally:
            csv.field_size_limit(default_limit)
        cols = load.requests
        assert list(zip(cols.inputs.tolist(), cols.outputs.tolist())) == rows
        assert [(e.line, e.message) for e in load.malformed] == errors

    check()


@pytest.mark.parametrize("chunk_chars", CHUNK_CHARS)
def test_sifted_chunks_match_row_oracle(tmp_path, chunk_chars):
    # no quote anywhere, so a chunk numpy refuses is sifted rather than
    # handed whole to the row parser; valid odd cells (" 7 ", "+4", "1_0")
    # must come back at their place in file order, with the others' errors
    # on their physical lines
    path = tmp_path / "trace.csv"

    @given(body=csv_bodies(_UNQUOTED_CELL))
    def check(body):
        path.write_text(body, encoding="utf-8", newline="")
        rows, errors = oracle_parse_csv(body)
        with mock.patch.object(ingest, "_CHUNK_CHARS", chunk_chars):
            load = load_trace(str(path), permissive=True)
        cols = load.requests
        assert list(zip(cols.inputs.tolist(), cols.outputs.tolist())) == rows
        assert [(e.line, e.message) for e in load.malformed] == errors

    check()


def test_sift_checks_only_the_refused_lines(tmp_path):
    # 65,536 lines make a block of the default size and then some
    lines = [f"{k},{k % 97}" for k in range(1 << 16)]
    lines[40_000] = "7,x"
    source = _csv_source(tmp_path, "input_tokens,output_tokens\n" + "\n".join(lines) + "\n")
    with mock.patch.object(ingest, "_token_value", wraps=ingest._token_value) as token_value:
        load = load_trace(source, permissive=True)
    assert [c.args for c in token_value.call_args_list] == [
        ("7", "input_tokens"), ("x", "output_tokens")]
    assert [(e.line, e.message) for e in load.malformed] == [
        (40_002, "column 'output_tokens' is not an integer: 'x'")]
    assert len(load.requests) == (1 << 16) - 1
    assert load.requests.inputs[40_000] == 40_001


@pytest.mark.parametrize("body, sifted", [
    ("1,2\r\n3,4\r\n", False),
    ("1,2\r\n3,4", False),
    ("1,2\r\n\r\n3,4\r\n", True),  # a blank line
    ("\r\n1,2\r\n3,4\r\n", True),  # a blank first line
    ("1,2\r3,4\r\n", True),  # a lone \r
])
def test_crlf_block_takes_one_loadtxt_call(tmp_path, body, sifted):
    source = _csv_source(tmp_path, "input_tokens,output_tokens\r\n" + body)
    with mock.patch.object(ingest, "_sift", wraps=ingest._sift) as sift:
        load = load_trace(source)
    assert load.requests.inputs.tolist() == [1, 3]
    assert load.requests.outputs.tolist() == [2, 4]
    assert sift.called == sifted


@pytest.mark.parametrize("body, bad_line", [
    ("\n1,2\n3,4\nx,5\n", 5),  # a blank first line
    ("1,2\n\r\n3,4\nx,5\n", 5),  # \n\r\n
    ("1,2\r\r\n3,4\r\nx,5\r\n", 5),  # a lone \r before a blank line
    ("1,2\n\r\r\n3,4\nx,5\n", 6),  # a lone \r line before a blank line
    ("1,2\n\n\n3,4\nx,5\n", 6),  # one-character blocks hold only a blank line
])
def test_line_numbers_after_blank_lines_and_lone_cr(tmp_path, body, bad_line):
    # numpy skips blank lines and the csv module counts them, as it counts a
    # lone \r as a line end; whichever blocks these lines fall in, the
    # malformed row after them keeps its physical line number
    text = "input_tokens,output_tokens\n" + body
    errors = [(bad_line, "column 'input_tokens' is not an integer: 'x'")]
    assert oracle_parse_csv(text) == ([(1, 2), (3, 4)], errors)
    source = _csv_source(tmp_path, text)
    for chunk_chars in CHUNK_CHARS:
        with mock.patch.object(ingest, "_CHUNK_CHARS", chunk_chars):
            load = load_trace(source, permissive=True)
        assert token_pairs(load.requests) == [(1, 2), (3, 4)]
        assert [(e.line, e.message) for e in load.malformed] == errors


def _csv_source(tmp_path, text):
    path = tmp_path / "trace.csv"
    path.write_text(text, encoding="utf-8", newline="")
    return str(path)


def test_header_only_trace_is_empty(tmp_path):
    load = load_trace(_csv_source(tmp_path, "input_tokens,output_tokens\n"))
    assert token_pairs(load.requests) == []
    assert load.malformed == []


def test_blank_only_chunk_warns_nothing(tmp_path, capsys):
    # one-character blocks end at a line end, so the third and fourth
    # blocks hold only a blank line each
    source = _csv_source(tmp_path, "input_tokens,output_tokens\n1,2\n5,6\n\n\r\n3,4\n")
    with mock.patch.object(ingest, "_CHUNK_CHARS", 1), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        load = load_trace(source)
    assert token_pairs(load.requests) == [(1, 2), (5, 6), (3, 4)]
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""


def test_repeated_column_name_reads_its_last_column(tmp_path):
    source = _csv_source(tmp_path, "input_tokens,output_tokens,input_tokens\n1,2,3\n4,5\n")
    load = load_trace(source, permissive=True)
    assert token_pairs(load.requests) == [(3, 2)]
    assert [(e.line, e.message) for e in load.malformed] == [
        (3, "column 'input_tokens' is not an integer: None")]


def test_quoted_record_across_chunk_boundary(tmp_path):
    text = 'input_tokens,output_tokens\r\n1,2\r\n\r\n"3\r\n",x\r\n5,"6"\r\nbad,1\r\n'
    for chunk_chars in CHUNK_CHARS:
        with mock.patch.object(ingest, "_CHUNK_CHARS", chunk_chars):
            load = load_trace(_csv_source(tmp_path, text), permissive=True)
        assert token_pairs(load.requests) == [(1, 2), (5, 6)]
        assert [(e.line, e.message) for e in load.malformed] == [
            (5, "column 'output_tokens' is not an integer: 'x'"),
            (7, "column 'input_tokens' is not an integer: 'bad'"),
        ]



@pytest.mark.parametrize("rest", ["1,2,3\n", "1,2,3\nbad,2,3\n"])
def test_oversized_unread_field_fails_whatever_its_chunk_holds(tmp_path, rest):
    # an unquoted cell past the csv module's limit in a column that is not read
    text = "input_tokens,output_tokens,x\n4,5," + "y" * (csv.field_size_limit() + 1) + "\n" + rest
    with pytest.raises(csv.Error):
        oracle_parse_csv(text)
    with pytest.raises(ValidationError, match="unreadable csv"):
        load_trace(_csv_source(tmp_path, text), permissive=True)
