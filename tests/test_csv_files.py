"""Every csv tokenwatt writes: golden bytes, quoting and the values a writer
rejects. The golden files also pin the sweep plans `plan-sweep` prints.

The files under tests/golden were written by the CLI before reports, binned
workloads and tables shared one csv codec; for names without commas every
output must still come out byte for byte the same.
"""

import contextlib
import csv
import io
from pathlib import Path

import pytest

import tokenwatt.cli as cli
from tokenwatt import (BinGrid, HardwareSpec, ModelConfig, ValidationError, load_table,
                       read_binned_csv, synthesize_table, write_table)
from tokenwatt.csvio import format_csv, read_csv, write_csv

HEADER = ("name", "label", "x", "y")
GOLDEN = Path(__file__).parent / "golden"
FORMATS = (("json", "json"), ("csv", "csv"), ("markdown-table", "md"))


def _keep(fields, where):
    return where, fields


def cli_outputs(paths) -> dict[str, bytes]:
    """Run every csv-writing command and every report kind x format on the
    fixture files; the bytes each wrote, by output name."""
    out = paths["dir"] / "out"
    out.mkdir()
    trace, table, model, hw = (str(paths[k]) for k in ("trace", "table", "model", "hw"))
    synth, vllm, naive = (str(out / n) for n in ("synth_table.csv", "estimate.json",
                                                 "estimate_naive.json"))
    runs = [
        ("bin.csv", ["bin", "--trace", trace]),
        ("bin_grid.csv", ["bin", "--trace", trace, "--grid", "256,1024:8,64"]),
        ("synth_table.csv", ["synth-table", "--model", model, "--hw", hw,
                             "--efficiency", "0.5", "--decode-penalty", "2.0"]),
        ("estimate_naive.json", ["estimate", "--trace", trace, "--table", table,
                                 "--backend", "naive", "--device", "A100"]),
    ]
    for fmt, ext in FORMATS:
        reports = [
            (f"stats.{ext}", ["stats", "--trace", trace]),
            (f"estimate.{ext}", ["estimate", "--trace", trace, "--table", table,
                                 "--backend", "vllm", "--device", "A100"]),
            (f"estimate_split.{ext}", ["estimate", "--trace", trace, "--table", synth,
                                       "--backend", "synthetic", "--device", "A100-PCIe",
                                       "--mode", "ceiling"]),
            (f"baseline.{ext}", ["baseline", "--trace", trace, "--model", model,
                                 "--hw", hw]),
            (f"compare.{ext}", ["compare", "--estimates", f"{vllm},{naive}",
                                "--baseline-j", "4.0", "--reference", "naive",
                                "--dataset", "fixture"]),
            (f"compare_unnamed.{ext}", ["compare", "--estimates", f"{vllm},{naive}",
                                        "--baseline-j", "4.0", "--reference", "vllm"]),
        ]
        runs += [(name, args + ["--format", fmt]) for name, args in reports]
    for name, args in runs:
        assert cli.main(args + ["--out", str(out / name)]) == 0, args
    got = {name: (out / name).read_bytes() for name, _ in runs}
    # plan-sweep's --out names a directory, so its stdout is what is pinned
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["plan-sweep"]) == 0
    got["plan_sweep.txt"] = stdout.getvalue().encode()
    return got


def test_cli_outputs_match_golden_bytes(fixture_paths):
    got = cli_outputs(fixture_paths)
    assert sorted(got) == sorted(p.name for p in GOLDEN.iterdir())
    for name, data in got.items():
        assert data == (GOLDEN / name).read_bytes(), name


def test_quoted_fields_and_comments_read_back(tmp_path):
    rows = [("a,b", 'say "hi"', 1.5, None), ("", "x#y", 10**20, 0.1)]
    text = format_csv(HEADER, rows, meta=[("note", "k = v, #1"), ("empty", "")],
                      footer=[("n", 7)])
    assert text == (
        "# note = k = v, #1\n# empty = \nname,label,x,y\n"
        '"a,b","say ""hi""",1.5,\n,x#y,100000000000000000000,0.1\n# n = 7\n'
    )
    path = tmp_path / "f.csv"
    write_csv(path, text)
    f = read_csv(path, HEADER, "test file", _keep)
    assert f.meta == {"note": "k = v, #1", "empty": "", "n": "7"}
    assert f.rows == [(f"{path}:4", ["a,b", 'say "hi"', "1.5", ""]),
                      (f"{path}:5", ["", "x#y", "100000000000000000000", "0.1"])]
    assert f.meta_int("n", 0) == 7 and f.meta_int("absent", 3) == 3


def test_reader_strips_hand_written_spacing():
    text = "  # note =  spaced out  \r\n\n name , label ,x,y\r\n a b , c ,1 , 2\r\n"
    f = read_csv(io.StringIO(text), HEADER, "test file", _keep)
    assert f.meta == {"note": "spaced out"}
    assert f.rows == [("<stream>:4", ["a b", "c", "1", "2"])]


@pytest.mark.parametrize("value", ["a\nb", "a\rb", " a", "a ", "a\t", "\u2028a", "a\x1c"])
def test_writer_refuses_values_that_would_not_read_back(value):
    with pytest.raises(ValidationError, match="label"):
        format_csv(HEADER, [("n", value, 1, 2)])
    with pytest.raises(ValidationError, match="note"):
        format_csv(HEADER, [], meta=[("note", value)])
    with pytest.raises(ValidationError, match="note"):
        format_csv(HEADER, [], footer=[("note", value)])


def test_writer_refuses_a_comment_like_first_field():
    with pytest.raises(ValidationError, match="comment"):
        format_csv(HEADER, [("#n", "label", 1, 2)])
    assert format_csv(HEADER, [("n", "#label", 1, 2)]).endswith("n,#label,1,2\n")


@pytest.mark.parametrize("text,message", [
    ("a,b\n", "<stream>:1: bad header; expected 'name,label,x,y'"),
    ("# only = comments\n\n", "<stream>: missing header row"),
    ("name,label,x,y\n\n1,2,3\n", "<stream>:3: expected 4 fields, got 3"),
    ('name,label,x,y\n"1,2",3,4\n', "<stream>:2: expected 4 fields, got 3"),
    ("# x = 1.5\nname,label,x,y\n", "<stream>: '# x' must be an integer, got '1.5'"),
])
def test_reader_errors_name_origin_and_line(text, message):
    with pytest.raises(ValidationError) as exc:
        read_csv(io.StringIO(text), HEADER, "test file", _keep).meta_int("x", 0)
    assert str(exc.value) == message


@pytest.mark.parametrize("comments,message", [
    ("", "<stream>: missing '# input_bins = ...' and '# output_bins = ...' comments"),
    ("# input_bins = 256,1024\n", "<stream>: has '# input_bins' but no '# output_bins' comment"),
    ("# output_bins = 8,64\n", "<stream>: has '# output_bins' but no '# input_bins' comment"),
])
def test_grid_comments_come_in_pairs(fixture_paths, comments, message):
    with pytest.raises(ValidationError) as exc:
        read_binned_csv(io.StringIO(comments + "input_cap,output_cap,count\n256,8,1\n"))
    assert str(exc.value) == message
    table = io.StringIO(comments + fixture_paths["table"].read_text(encoding="utf-8"))
    if comments:
        with pytest.raises(ValidationError) as exc:
            load_table(table)
        assert str(exc.value) == message
    else:
        assert load_table(table).metadata.grid == BinGrid()


def test_reader_file_errors(tmp_path):
    with pytest.raises(ValidationError, match="test file not found"):
        read_csv(tmp_path / "missing.csv", HEADER, "test file", _keep)
    latin = tmp_path / "latin.csv"
    latin.write_bytes(b"name,label,x,y\n\xff,a,1,2\n")
    with pytest.raises(ValidationError, match=f"{latin}: not valid UTF-8"):
        read_csv(latin, HEADER, "test file", _keep)


def test_plain_lines_split_as_the_csv_reader_splits_them():
    # the reader splits a line with str.split when it has no quote and no
    # carriage return and is within the field size limit, and with the csv
    # module otherwise; both must give the same fields
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    limit = csv.field_size_limit()
    chars = st.one_of(st.sampled_from(", \t\x00\x0b\x0c\x1c\x85\u2028\\'#="),
                      st.characters(blacklist_characters='"\r\n', blacklist_categories=("Cs",)))

    @hypothesis.given(st.text(chars, min_size=1))
    @hypothesis.example("a" * limit)
    @hypothesis.example("," * limit)
    @hypothesis.example("a," * (limit // 2))
    def check(line):
        assert line.split(",") == next(csv.reader((line,)))

    check()


def test_synthesized_tables_load_back_equal():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    caps = st.lists(st.integers(1, 10**5), min_size=1, max_size=5, unique=True).map(sorted)
    model = ModelConfig(n_layers=2, d_model=64, n_heads=4, n_kv_heads=2, d_ff=128,
                        vocab_size=1000)
    hw = HardwareSpec(name="A100-PCIe", tdp=300.0, peak_flops=309.7e12)

    @hypothesis.given(caps, caps, st.floats(0.01, 1.0), st.floats(1.0, 10.0),
                      st.floats(1e3, 1e12), st.sampled_from(["vllm", "sglang", "tgi x"]))
    def check(input_bins, output_bins, efficiency, decode_penalty, memory_bytes, backend):
        table = synthesize_table(BinGrid(tuple(input_bins), tuple(output_bins)), model, hw,
                                 efficiency, decode_penalty, backend=backend,
                                 memory_bytes=memory_bytes)
        buf = io.StringIO()
        write_table(table, buf)
        assert load_table(io.StringIO(buf.getvalue())) == table

    check()
