import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import tokenwatt
import tokenwatt.cli as cli
from tokenwatt import load_table
from conftest import FIXTURE_TABLE, FIXTURE_TRACE


def run(*argv):
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code


def test_version(capsys):
    assert run("--version") == 0
    out = capsys.readouterr().out
    assert "tokenwatt 0.1.0" in out
    assert "report schema 1" in out


def test_usage_errors_exit_1(capsys):
    assert run("no-such-command") == 1
    assert run("estimate") == 1  # missing required flags
    assert run() == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_data_errors_exit_2(tmp_path, capsys):
    assert run("stats", "--trace", "/nonexistent.csv") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "not found" in err
    # an OSError other than a missing file is one too
    assert run("stats", "--trace", str(tmp_path)) == 2
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


def test_stats_json(fixture_paths, capsys):
    assert run("stats", "--trace", str(fixture_paths["trace"])) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "stats"
    assert payload["dataset"] == "trace"
    assert payload["count"] == 3
    assert payload["input"]["median"] == 215.0
    assert payload["output"]["max"] == 41


def test_stats_markdown_and_dataset_flag(fixture_paths, capsys):
    assert run("stats", "--trace", str(fixture_paths["trace"]),
               "--dataset", "demo", "--format", "markdown-table") == 0
    out = capsys.readouterr().out
    assert out.startswith("# Trace statistics: demo")


def test_stats_deterministic(fixture_paths, capsys):
    run("stats", "--trace", str(fixture_paths["trace"]))
    first = capsys.readouterr().out
    run("stats", "--trace", str(fixture_paths["trace"]))
    assert capsys.readouterr().out == first


def test_stats_of_the_largest_token_count(tmp_path, capsys):
    big = 2**63 - 1
    trace = tmp_path / "trace.csv"
    trace.write_text(f"input_tokens,output_tokens\n{big},1\n0,{big}\n{big},3\n", encoding="utf-8")
    assert run("stats", "--trace", str(trace)) == 0
    payload = json.loads(capsys.readouterr().out)
    # exact mean 2 * big / 3 and std sqrt(2 * big**2 / 9), each rounded once
    assert payload["input"]["mean"] == 2 * big / 3
    assert payload["input"]["std"] == math.sqrt(2 * big**2 / 9)
    assert payload["input"]["max"] == big
    assert payload["input"]["median"] == float(big)
    assert payload["output"]["median"] == 3.0


def test_stats_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(FIXTURE_TRACE))
    assert run("stats", "--trace", "-") == 0
    assert json.loads(capsys.readouterr().out)["dataset"] == "stdin"


def test_bin_output(fixture_paths, capsys):
    assert run("bin", "--trace", str(fixture_paths["trace"])) == 0
    out = capsys.readouterr().out
    assert "256,8,2" in out
    assert "1024,64,1" in out
    assert "# excluded_input = 0" in out


def test_bin_custom_grid(fixture_paths, capsys):
    assert run("bin", "--trace", str(fixture_paths["trace"]),
               "--grid", "1024:64") == 0
    out = capsys.readouterr().out
    assert "1024,64,3" in out


def test_bad_grid_spec(fixture_paths, capsys):
    assert run("bin", "--trace", str(fixture_paths["trace"]), "--grid", "32,64") == 2
    assert run("bin", "--trace", str(fixture_paths["trace"]), "--grid", "a,b:8") == 2


def test_estimate_from_trace(fixture_paths, capsys):
    assert run("estimate", "--trace", str(fixture_paths["trace"]),
               "--table", str(fixture_paths["table"]),
               "--backend", "vllm", "--device", "A100") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_j"] == 6.0
    assert payload["mode"] == "fractional"
    assert payload["label"] == "vllm"


def test_estimate_ceiling_mode(fixture_paths, capsys):
    assert run("estimate", "--trace", str(fixture_paths["trace"]),
               "--table", str(fixture_paths["table"]),
               "--backend", "vllm", "--device", "A100", "--mode", "ceiling") == 0
    assert json.loads(capsys.readouterr().out)["total_j"] == 12.0


def test_binned_pipeline_equals_trace_pipeline(fixture_paths, capsys):
    binned_path = fixture_paths["dir"] / "binned.csv"
    assert run("bin", "--trace", str(fixture_paths["trace"]),
               "--out", str(binned_path)) == 0
    capsys.readouterr()
    assert run("estimate", "--trace", str(fixture_paths["trace"]),
               "--table", str(fixture_paths["table"]),
               "--backend", "vllm", "--device", "A100") == 0
    via_trace = capsys.readouterr().out
    assert run("estimate", "--binned", str(binned_path),
               "--table", str(fixture_paths["table"]),
               "--backend", "vllm", "--device", "A100") == 0
    via_binned = capsys.readouterr().out
    assert via_binned == via_trace


def test_estimate_missing_bin_names_it(fixture_paths, capsys):
    bad_trace = fixture_paths["dir"] / "bad.csv"
    bad_trace.write_text("input_tokens,output_tokens\n5000,100\n", encoding="utf-8")
    assert run("estimate", "--trace", str(bad_trace),
               "--table", str(fixture_paths["table"]),
               "--backend", "vllm", "--device", "A100") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "(8192, 128)" in err


def test_estimate_rejects_grid_with_binned(fixture_paths, capsys):
    binned_path = fixture_paths["dir"] / "binned.csv"
    run("bin", "--trace", str(fixture_paths["trace"]), "--out", str(binned_path))
    capsys.readouterr()
    assert run("estimate", "--binned", str(binned_path), "--grid", "32:8",
               "--table", str(fixture_paths["table"]),
               "--backend", "vllm", "--device", "A100") == 2


def test_out_redirects_and_stdout_stays_clean(fixture_paths, capsys):
    out_path = fixture_paths["dir"] / "report.json"
    assert run("estimate", "--trace", str(fixture_paths["trace"]),
               "--table", str(fixture_paths["table"]),
               "--backend", "vllm", "--device", "A100",
               "--out", str(out_path)) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out_path.read_text(encoding="utf-8"))["total_j"] == 6.0


def test_baseline(fixture_paths, capsys):
    assert run("baseline", "--trace", str(fixture_paths["trace"]),
               "--model", str(fixture_paths["model"]),
               "--hw", str(fixture_paths["hw"])) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "baseline"
    # toy-model FLOPs at bin caps: 2x(256,8) + 1x(1024,64)
    assert payload["total_flops"] == 11373696
    assert payload["optimal_j"] == pytest.approx(11373696 * 300.0 / 309.7e12, rel=1e-12)
    assert payload["model"] == "toy_model"


def test_compare_cli(fixture_paths, capsys):
    d = fixture_paths["dir"]
    for backend, label in (("vllm", "vllm"), ("naive", "naive")):
        assert run("estimate", "--trace", str(fixture_paths["trace"]),
                   "--table", str(fixture_paths["table"]),
                   "--backend", backend, "--device", "A100",
                   "--out", str(d / f"{label}.json")) == 0
    capsys.readouterr()
    assert run("compare", "--estimates", f"{d}/vllm.json,{d}/naive.json",
               "--baseline-j", "4.0", "--reference", "naive",
               "--dataset", "fixture") == 0
    payload = json.loads(capsys.readouterr().out)
    assert [e["label"] for e in payload["entries"]] == ["vllm", "naive"]
    assert payload["entries"][0]["savings_vs_reference"] == pytest.approx(70.0)
    assert payload["entries"][0]["pct_delta_vs_optimal"] == pytest.approx(50.0)
    assert payload["baseline_j"] == 4.0
    assert payload["mode"] == "fractional"


@pytest.mark.parametrize("field,value", [("excluded_requests", "1e400"), ("total_j", "1" * 400)],
                         ids=["excluded_requests", "total_j"])
def test_estimate_report_number_beyond_float_is_a_data_error(fixture_paths, capsys, field,
                                                             value):
    report = Path(_pipeline_files(fixture_paths)["report"])
    payload = json.loads(report.read_text(encoding="utf-8"))
    report.write_text(json.dumps({**payload, field: "@"}).replace('"@"', value),
                      encoding="utf-8")
    capsys.readouterr()
    assert run("compare", "--estimates", str(report), "--baseline-j", "1.0",
               "--reference", "vllm") == 2
    assert _one_error_line(capsys).startswith(f"error: {report}: malformed estimate report")


@pytest.mark.parametrize("field,value", [
    ("excluded_requests", "1.5"), ("excluded_requests", "true"), ("excluded_requests", '"7"'),
    ("excluded_requests", "-1"),
    pytest.param("excluded_requests", "9" * 400, id="excluded_requests-400-digits"),
    ("excluded_requests", str(2**63)), ("excluded_requests", "null"),
    ("total_j", "true"), ("total_j", '"6.0"'), ("total_j", "-1.0"), ("total_j", "NaN"),
    ("total_j", "Infinity"), ("label", "7"), ("label", "null"), ("mode", "[]"),
])
def test_estimate_report_fields_must_have_their_json_types(fixture_paths, capsys, field,
                                                           value):
    # compare reads each field only as the json type the report writes it
    # with, never converting a string, a boolean or a fraction
    report = Path(_pipeline_files(fixture_paths)["report"])
    payload = json.loads(report.read_text(encoding="utf-8"))
    report.write_text(json.dumps({**payload, field: "@"}).replace('"@"', value),
                      encoding="utf-8")
    capsys.readouterr()
    assert run("compare", "--estimates", str(report), "--baseline-j", "1.0",
               "--reference", "vllm", "--format", "csv") == 2
    assert _one_error_line(capsys).startswith(
        f"error: {report}: malformed estimate report ({field} must be ")


def test_estimate_report_accepts_every_json_number_for_its_total(fixture_paths, capsys):
    report = Path(_pipeline_files(fixture_paths)["report"])
    payload = json.loads(report.read_text(encoding="utf-8"))
    for total in (6, 0, 1e300):
        report.write_text(json.dumps({**payload, "total_j": total}), encoding="utf-8")
        capsys.readouterr()
        assert run("compare", "--estimates", str(report), "--baseline-j", "1.0",
                   "--reference", "vllm") == 0
        assert json.loads(capsys.readouterr().out)["entries"][0]["energy_j"] == total


def test_estimate_report_missing_field_or_over_long_integer_is_a_data_error(fixture_paths,
                                                                            capsys):
    report = Path(_pipeline_files(fixture_paths)["report"])
    payload = json.loads(report.read_text(encoding="utf-8"))
    del payload["mode"]
    report.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert run("compare", "--estimates", str(report), "--baseline-j", "1.0",
               "--reference", "vllm") == 2
    assert _one_error_line(capsys) == f"error: {report}: malformed estimate report (no 'mode')\n"
    # json reads an integer of over 4300 digits with int(), which refuses it
    report.write_text(json.dumps({**payload, "mode": "fractional", "excluded_requests": "@"})
                      .replace('"@"', "1" * 5000), encoding="utf-8")
    assert run("compare", "--estimates", str(report), "--baseline-j", "1.0",
               "--reference", "vllm") == 2
    assert _one_error_line(capsys).startswith(f"error: {report}: not valid json (")


@pytest.mark.parametrize("fmt", ["json", "csv", "markdown-table"])
def test_compare_percentages_that_are_not_finite_are_data_errors(fixture_paths, capsys, fmt):
    d = fixture_paths["dir"]
    empty = d / "empty.csv"
    empty.write_text("# input_bins = 256\n# output_bins = 8\ninput_cap,output_cap,count\n",
                     encoding="utf-8")
    flags = ["--table", str(fixture_paths["table"]), "--backend", "vllm", "--device", "A100"]
    estimates = _estimate_files(d, [("vllm", ["--trace", str(fixture_paths["trace"]), *flags]),
                                    ("zero", ["--binned", str(empty), *flags, "--label", "zero"])])
    capsys.readouterr()
    # savings against a reference of 0 J
    assert run("compare", "--estimates", estimates, "--baseline-j", "1.0",
               "--reference", "zero", "--format", fmt) == 2
    assert _one_error_line(capsys) == "error: entry 'vllm': its percentage of savings vs " \
                                      "the reference 'zero' (0.0 J) is not finite\n"
    # 6 J over a subnormal optimum
    assert run("compare", "--estimates", str(d / "vllm.json"), "--baseline-j", "1e-320",
               "--reference", "vllm", "--format", fmt) == 2
    assert _one_error_line(capsys) == "error: entry 'vllm': its percentage over the " \
                                      "optimal (1e-320 J) is not finite\n"
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("fmt", ["json", "csv", "markdown-table"])
def test_comparison_label_read_back_as_a_csv_comment_is_refused_in_every_format(
        fixture_paths, capsys, fmt):
    flags = ["--trace", str(fixture_paths["trace"]), "--table", str(fixture_paths["table"]),
             "--backend", "vllm", "--device", "A100"]
    estimates = _estimate_files(fixture_paths["dir"], [("a", flags),
                                                       ("b", [*flags, "--label", "#b"])])
    capsys.readouterr()
    assert run("compare", "--estimates", estimates, "--baseline-j", "1.0",
               "--reference", "vllm", "--format", fmt) == 2
    assert _one_error_line(capsys) == "error: label '#b' would read back as a comment\n"
    assert capsys.readouterr().out == ""


def test_compare_without_estimate_files_is_a_data_error(capsys):
    assert run("compare", "--estimates", ",", "--baseline-j", "1.0", "--reference", "a") == 2
    assert _one_error_line(capsys) == "error: --estimates needs at least one file\n"


def test_out_into_a_missing_directory_is_a_data_error(fixture_paths, capsys):
    out = fixture_paths["dir"] / "missing" / "report.json"
    assert run("stats", "--trace", str(fixture_paths["trace"]), "--out", str(out)) == 2
    assert _one_error_line(capsys) == f"error: --out {out}: not a file in an existing directory\n"
    assert not out.parent.exists()


@pytest.mark.parametrize("command", [["stats"], ["bin"],
                                     ["estimate", "--table", "t.csv", "--backend", "b",
                                      "--device", "d"]])
@pytest.mark.parametrize("out", ["missing/report", "."])
def test_out_is_checked_before_any_input_is_read(tmp_path, capsys, command, out):
    # the trace does not exist either, so an error naming --out shows the order
    assert run(*command, "--trace", str(tmp_path / "absent.csv"),
               "--out", str(tmp_path / out)) == 2
    assert _one_error_line(capsys) == (
        f"error: --out {tmp_path / out}: not a file in an existing directory\n")


@pytest.mark.parametrize("command", [["bin"],
                                     ["estimate", "--table", "t.csv", "--backend", "b",
                                      "--device", "d"],
                                     ["baseline", "--model", "m.cfg", "--hw", "h.cfg"]])
@pytest.mark.parametrize("grid,message", [
    ("32,x:8", "grid spec must be comma-separated integers, got '32,x'"),
    ("32,9223372036854775808:8", "grid spec exceeds the int64 range: 32,9223372036854775808"),
    ("128,32:8", "input_bins must be strictly increasing, got (128, 32)"),
    ("32:", "grid spec must be comma-separated integers, got ''"),
    ("32,64", "grid spec must be 'I1,I2,...:O1,O2,...', got '32,64'"),
])
def test_grid_is_checked_before_any_input_is_read(tmp_path, capsys, command, grid, message):
    # the trace does not exist, so an error naming the grid shows the order
    assert run(*command, "--trace", str(tmp_path / "absent.csv"), "--grid", grid) == 2
    assert _one_error_line(capsys) == f"error: {message}\n"


@pytest.mark.parametrize("argv", [["stats", "--trace", "t.csv", "--forma", "csv"],
                                  ["synth-table", "--model", "m", "--hw", "h", "--efficiency",
                                   "1", "--decode-penalty", "2", "--kv-bytes", "3"]])
def test_flag_prefixes_are_usage_errors(capsys, argv):
    # a prefix would break a script once a second flag shared it
    assert run(*argv) == 1
    assert capsys.readouterr().err.endswith(
        f"error: unrecognized arguments: {argv[-2]} {argv[-1]}\n")


def test_compare_rejects_non_estimate_json(fixture_paths, capsys):
    d = fixture_paths["dir"]
    (d / "junk.json").write_text('{"kind": "other"}', encoding="utf-8")
    assert run("compare", "--estimates", str(d / "junk.json"),
               "--baseline-j", "1.0", "--reference", "x") == 2


def _estimate_files(d, runs) -> str:
    """Runs `estimate` once per (name, flags), writing name.json into `d`;
    the --estimates value naming those files."""
    for name, flags in runs:
        assert run("estimate", *flags, "--out", str(d / f"{name}.json")) == 0
    return ",".join(str(d / f"{name}.json") for name, _ in runs)


def test_compare_estimates_of_different_modes_is_mixed(fixture_paths, capsys):
    flags = ["--trace", str(fixture_paths["trace"]), "--table", str(fixture_paths["table"]),
             "--backend", "vllm", "--device", "A100"]
    estimates = _estimate_files(fixture_paths["dir"], [
        ("frac", flags),
        ("ceil", [*flags, "--mode", "ceiling", "--label", "vllm-ceil"]),
    ])
    assert run("compare", "--estimates", estimates, "--baseline-j", "1.0",
               "--reference", "vllm") == 0
    assert json.loads(capsys.readouterr().out)["mode"] == "mixed"


def test_compare_estimates_of_different_workloads_is_a_data_error(fixture_paths, capsys):
    # 2000 input tokens lie past the grid's largest input cap, so the second
    # estimate excludes a request that the first never saw.
    wider = fixture_paths["dir"] / "wider.csv"
    wider.write_text(FIXTURE_TRACE + "2000,7\n", encoding="utf-8")
    flags = ["--table", str(fixture_paths["table"]), "--device", "A100",
             "--grid", "256,1024:8,64"]
    estimates = _estimate_files(fixture_paths["dir"], [
        ("vllm", [*flags, "--trace", str(fixture_paths["trace"]), "--backend", "vllm"]),
        ("naive", [*flags, "--trace", str(wider), "--backend", "naive"]),
    ])
    assert run("compare", "--estimates", estimates, "--baseline-j", "1.0",
               "--reference", "vllm") == 2
    assert "disagree on excluded_requests" in _one_error_line(capsys)


@pytest.mark.parametrize("label", ["a\nb", "a\rb", "a "])
@pytest.mark.parametrize("fmt", ["json", "csv", "markdown-table"])
def test_names_csv_cannot_write_are_refused_in_every_format(fixture_paths, capsys, fmt, label):
    assert run("estimate", "--trace", str(fixture_paths["trace"]),
               "--table", str(fixture_paths["table"]), "--backend", "vllm", "--device", "A100",
               "--label", label, "--format", fmt) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: label {label!r} cannot be written: it has a line break " \
                           f"or leading or trailing whitespace\n"


def test_markdown_escapes_pipes_in_names(fixture_paths, capsys):
    d = fixture_paths["dir"]
    table = d / "synth.csv"
    assert run("synth-table", "--model", str(fixture_paths["model"]),
               "--hw", str(fixture_paths["hw"]), "--efficiency", "1", "--decode-penalty", "1",
               "--backend", "a|b", "--device", "gpu", "--out", str(table)) == 0
    flags = ["--trace", str(fixture_paths["trace"]), "--table", str(table),
             "--backend", "a|b", "--device", "gpu"]
    estimates = _estimate_files(d, [("ab", flags), ("c", [*flags, "--label", "c"])])
    capsys.readouterr()
    assert run("estimate", *flags, "--format", "markdown-table") == 0
    estimate_md = capsys.readouterr().out
    assert run("compare", "--estimates", estimates, "--baseline-j", "1e-9",
               "--reference", "a|b", "--format", "markdown-table") == 0
    compare_md = capsys.readouterr().out
    assert "| a\\|b |" in compare_md and "savings vs a\\|b (%)" in compare_md
    for text in (estimate_md, compare_md):
        rows = [line for line in text.splitlines() if line.startswith("|")]
        assert len({len(re.findall(r"(?<!\\)\|", row)) for row in rows}) == 1, text


def test_plan_sweep_writes_files(tmp_path, capsys):
    out_dir = tmp_path / "plans"
    assert run("plan-sweep", "--out", str(out_dir)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == [
        "sweep_batch_size_in512_out64.cfg",
        "sweep_input_length_out64_batch1.cfg",
        "sweep_input_length_out8_batch1.cfg",
        "sweep_output_length_in512_batch1.cfg",
        "sweep_output_length_in64_batch1.cfg",
    ]


def test_plan_sweep_stdout_deterministic(capsys):
    run("plan-sweep")
    first = capsys.readouterr().out
    run("plan-sweep")
    assert capsys.readouterr().out == first
    assert "axis = batch_size" in first


def test_synth_table_then_validate(fixture_paths, capsys):
    d = fixture_paths["dir"]
    table_path = d / "synth.csv"
    assert run("synth-table", "--model", str(fixture_paths["model"]),
               "--hw", str(fixture_paths["hw"]),
               "--efficiency", "0.5", "--decode-penalty", "2.0",
               "--out", str(table_path)) == 0
    table = load_table(table_path)
    assert len(table.records) == 56
    capsys.readouterr()
    assert run("validate-table", "--table", str(table_path)) == 0
    assert "full coverage" in capsys.readouterr().out


def test_validate_table_partial_coverage_exits_2(fixture_paths, capsys):
    assert run("validate-table", "--table", str(fixture_paths["table"])) == 2
    captured = capsys.readouterr()
    assert "missing" in captured.out
    assert captured.err.startswith("error:")


def test_validate_table_on_a_grid_without_planned_points_exits_2(tmp_path, capsys):
    # no plan sweeps input 33 or output 9, so the one row covers nothing planned
    table = tmp_path / "off_plan.csv"
    table.write_text("# input_bins = 33\n# output_bins = 9\n" + FIXTURE_TABLE.split("\n", 1)[0]
                     + "\nvllm,A100,33,9,4,100.0,J,,,1024,20\n", encoding="utf-8")
    assert run("validate-table", "--table", str(table)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: no planned point falls on the table grid "
                            "(input_bins = 33, output_bins = 9)\n")


def test_validate_table_without_rows_exits_2(tmp_path, capsys):
    # a header-only table covers none of the planned points
    table = tmp_path / "empty.csv"
    table.write_text(FIXTURE_TABLE.split("\n", 1)[0] + "\n", encoding="utf-8")
    assert run("validate-table", "--table", str(table)) == 2
    captured = capsys.readouterr()
    assert captured.out == "planned on-grid points: 21\nno (backend, device) pairs in table\n"
    assert captured.err == "error: table does not cover all planned grid points\n"


def test_synth_table_bad_efficiency(fixture_paths, capsys):
    assert run("synth-table", "--model", str(fixture_paths["model"]),
               "--hw", str(fixture_paths["hw"]),
               "--efficiency", "0", "--decode-penalty", "1.0") == 2


def test_synth_table_zero_kv_bytes_per_token_is_a_data_error(fixture_paths, capsys):
    assert run("synth-table", "--model", str(fixture_paths["model"]),
               "--hw", str(fixture_paths["hw"]), "--efficiency", "0.5",
               "--decode-penalty", "1.0", "--kv-bytes-per-token", "0") == 2
    assert _one_error_line(capsys) == "error: kv_bytes_per_token must be positive, got 0\n"


@pytest.mark.parametrize("memory", ["inf", "nan"])
def test_synth_table_non_finite_memory_is_a_data_error(fixture_paths, capsys, memory):
    assert run("synth-table", "--model", str(fixture_paths["model"]),
               "--hw", str(fixture_paths["hw"]), "--efficiency", "0.5",
               "--decode-penalty", "1.0", "--memory-bytes", memory) == 2
    assert "memory_bytes" in _one_error_line(capsys)


def test_permissive_note_on_stderr(fixture_paths, capsys):
    messy = fixture_paths["dir"] / "messy.csv"
    messy.write_text("input_tokens,output_tokens\n10,2\nbad,3\n", encoding="utf-8")
    assert run("stats", "--trace", str(messy), "--permissive") == 0
    captured = capsys.readouterr()
    assert "skipped 1 malformed" in captured.err
    assert json.loads(captured.out)["count"] == 1


def test_token_count_beyond_int64_is_a_malformed_row(tmp_path, capsys):
    trace = tmp_path / "huge.csv"
    trace.write_text("input_tokens,output_tokens\n99999999999999999999999,3\n5,1\n",
                     encoding="utf-8")
    assert run("bin", "--trace", str(trace)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "line 2" in err and "int64" in err
    assert run("stats", "--trace", str(trace), "--permissive") == 0
    captured = capsys.readouterr()
    assert captured.err == "note: skipped 1 malformed rows\n"
    assert json.loads(captured.out)["count"] == 1


def test_non_utf8_trace_is_a_data_error(tmp_path, monkeypatch, capsys):
    raw = b"input_tokens,output_tokens\n\xff\xfe,1\n"
    trace = tmp_path / "latin.csv"
    trace.write_bytes(raw)
    assert run("stats", "--trace", str(trace), "--permissive") == 2
    assert capsys.readouterr().err == f"error: {trace}: not valid UTF-8 (invalid start byte)\n"
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw)))
    assert run("stats", "--trace", "-") == 2
    assert capsys.readouterr().err == "error: -: not valid UTF-8 (invalid start byte)\n"


def test_non_utf8_config_is_a_data_error(fixture_paths, capsys):
    hw = fixture_paths["dir"] / "bad.cfg"
    hw.write_bytes(b"name = A100\xff\ntdp = 300\npeak_flops = 1e12\n")
    assert run("baseline", "--trace", str(fixture_paths["trace"]),
               "--model", str(fixture_paths["model"]), "--hw", str(hw)) == 2
    assert capsys.readouterr().err == f"error: {hw}: not valid UTF-8 (invalid start byte)\n"


def test_utf8_bom_header_is_stripped(tmp_path, monkeypatch, capsys):
    (tmp_path / "plain.csv").write_text(FIXTURE_TRACE, encoding="utf-8")
    assert run("stats", "--trace", str(tmp_path / "plain.csv"), "--dataset", "d") == 0
    want = capsys.readouterr().out
    bom = tmp_path / "bom.csv"
    bom.write_text("\ufeff" + FIXTURE_TRACE, encoding="utf-8")
    assert run("stats", "--trace", str(bom), "--dataset", "d") == 0
    assert capsys.readouterr().out == want
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(bom.read_bytes())))
    assert run("stats", "--trace", "-", "--dataset", "d") == 0
    assert capsys.readouterr().out == want


def _pipeline_files(fixture_paths) -> dict[str, str]:
    """The fixture's input files plus a binned workload and a vllm estimate
    report made from them, by kind."""
    files = {k: str(v) for k, v in fixture_paths.items() if k != "dir"}
    files["binned"] = str(fixture_paths["dir"] / "binned.csv")
    files["report"] = str(fixture_paths["dir"] / "vllm.json")
    assert run("bin", "--trace", files["trace"], "--out", files["binned"]) == 0
    assert run("estimate", "--binned", files["binned"], "--table", files["table"],
               "--backend", "vllm", "--device", "A100", "--out", files["report"]) == 0
    return files


def _input_commands(files) -> dict[str, list[str]]:
    """A command reading each input kind but the trace, by command name."""
    return {
        "estimate": ["estimate", "--binned", files["binned"], "--table", files["table"],
                     "--backend", "vllm", "--device", "A100", "--interpolate"],
        "baseline": ["baseline", "--binned", files["binned"], "--model", files["model"],
                     "--hw", files["hw"]],
        "validate-table": ["validate-table", "--table", files["table"]],
        "synth-table": ["synth-table", "--model", files["model"], "--hw", files["hw"],
                        "--efficiency", "0.5", "--decode-penalty", "2"],
        "compare": ["compare", "--estimates", files["report"], "--baseline-j", "1.0",
                    "--reference", "vllm"],
    }


@pytest.mark.parametrize("kind,command", [("binned", "estimate"), ("table", "estimate"),
                                          ("report", "compare")])
def test_bom_is_ignored_in_binned_table_and_report_files(fixture_paths, capsys, kind, command):
    files = _pipeline_files(fixture_paths)
    assert run(*_input_commands(files)[command]) == 0
    want = capsys.readouterr().out
    bom = fixture_paths["dir"] / f"bom_{kind}"
    bom.write_bytes(b"\xef\xbb\xbf" + Path(files[kind]).read_bytes())
    assert run(*_input_commands({**files, kind: str(bom)})[command]) == 0
    assert capsys.readouterr().out == want


def test_binned_stdin_is_decoded_as_a_binned_file(fixture_paths, monkeypatch, capsys):
    files = _pipeline_files(fixture_paths)
    argv = _input_commands(files)["estimate"]
    assert run(*argv) == 0
    want = capsys.readouterr().out
    raw = Path(files["binned"]).read_bytes()
    argv[argv.index(files["binned"])] = "-"
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xef\xbb\xbf" + raw)))
    assert run(*argv) == 0
    assert capsys.readouterr().out == want
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff" + raw)))
    assert run(*argv) == 2
    assert capsys.readouterr().err == "error: -: not valid UTF-8 (invalid start byte)\n"


def test_non_utf8_estimate_report_is_a_data_error(fixture_paths, capsys):
    report = fixture_paths["dir"] / "bad.json"
    report.write_bytes(b'{"kind": "estimate", "label": "\xff"}')
    assert run("compare", "--estimates", str(report), "--baseline-j", "1.0",
               "--reference", "vllm") == 2
    assert capsys.readouterr().err == f"error: {report}: not valid UTF-8 (invalid start byte)\n"


@pytest.mark.parametrize("kind,key,value,message", [
    ("hw", "tdp", "-1", "tdp must be positive and finite, got -1.0"),
    ("model", "n_layers", "0", "n_layers must be a positive integer, got 0"),
    ("model", "n_heads", "3", "d_model (4) must be divisible by n_heads (3)"),
])
@pytest.mark.parametrize("command", ["baseline", "synth-table"])
def test_config_range_errors_name_the_file(fixture_paths, capsys, kind, key, value, message,
                                           command):
    path = fixture_paths[kind]
    text = path.read_text(encoding="utf-8")
    path.write_text(re.sub(f"(?m)^{key} = .*$", f"{key} = {value}", text), encoding="utf-8")
    files = _pipeline_files(fixture_paths)
    assert run(*_input_commands(files)[command]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("comment", ["# input_bins = 32,x", "# excluded_input = 1.5",
                                     "# excluded_output = many"])
def test_binned_non_integer_comment_is_a_data_error(fixture_paths, capsys, comment):
    binned = fixture_paths["dir"] / "binned.csv"
    assert run("bin", "--trace", str(fixture_paths["trace"]), "--out", str(binned)) == 0
    binned.write_text(binned.read_text(encoding="utf-8") + comment + "\n", encoding="utf-8")
    assert run("estimate", "--binned", str(binned), "--table", str(fixture_paths["table"]),
               "--backend", "vllm", "--device", "A100") == 2
    assert f"'# {comment.split()[1]}' must be" in _one_error_line(capsys)


def test_table_non_integer_protocol_samples_is_a_data_error(fixture_paths, capsys):
    table = fixture_paths["table"]
    table.write_text("# protocol_samples = lots\n" + table.read_text(encoding="utf-8"),
                     encoding="utf-8")
    assert run("validate-table", "--table", str(table)) == 2
    assert "'# protocol_samples' must be an integer" in _one_error_line(capsys)


@pytest.mark.parametrize("value, fault", [
    ("nan", "must be a finite number, got 'nan'"), ("inf", "must be a finite number, got 'inf'"),
    ("-inf", "must be a finite number, got '-inf'"),
    ("1e308", "must be positive and finite, got '1e308'")])  # 1e308 kWh overflows to inf J
def test_non_finite_table_energy_names_file_and_line(fixture_paths, capsys, value, fault):
    table = fixture_paths["table"]
    text = table.read_text(encoding="utf-8").replace("naive,A100,256,8,1,3.0,J",
                                                     f"naive,A100,256,8,1,{value},kWh")
    table.write_text(text, encoding="utf-8")
    assert run("estimate", "--trace", str(fixture_paths["trace"]), "--table", str(table),
               "--backend", "vllm", "--device", "A100") == 2
    err = _one_error_line(capsys)
    assert err == f"error: {table}:4: batch_energy {fault}\n"


def test_interpolating_next_to_a_zero_per_request_energy_is_a_data_error(tmp_path, capsys):
    # 1e-320 J over a batch of 10**6 is 0.0 J per request, which has no logarithm
    table = tmp_path / "table.csv"
    table.write_text(FIXTURE_TABLE.splitlines(keepends=True)[0]
                     + "vllm,A100,128,8,1000000,1e-320,J,,,1024,20\n"
                     + "vllm,A100,512,8,4,2.0,J,,,1024,20\n", encoding="utf-8")
    binned = tmp_path / "binned.csv"
    grid = "# input_bins = 128,256,512\n# output_bins = 8\ninput_cap,output_cap,count\n"
    argv = ["estimate", "--binned", str(binned), "--table", str(table), "--backend", "vllm",
            "--device", "A100", "--format", "csv"]
    binned.write_text(grid + "256,8,3\n", encoding="utf-8")
    assert run(*argv, "--interpolate") == 2
    assert _one_error_line(capsys) == (
        "error: cannot interpolate bin (256, 8): zero per-request energy at measured "
        "neighbor (128, 8) for backend='vllm' device='A100'\n")
    # the cell itself still prices by strict lookup
    binned.write_text(grid + "128,8,3\n", encoding="utf-8")
    assert run(*argv) == 0
    assert "\n128,8,3,1000000,3e-06,0.0,,,measured\n" in capsys.readouterr().out


# 0 and -1 too: compare itself refuses an optimum of 0 J in words that name no flag
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_non_finite_baseline_j_is_a_data_error(fixture_paths, capsys, value):
    d = fixture_paths["dir"]
    assert run("estimate", "--trace", str(fixture_paths["trace"]),
               "--table", str(fixture_paths["table"]), "--backend", "vllm",
               "--device", "A100", "--out", str(d / "vllm.json")) == 0
    assert run("compare", "--estimates", str(d / "vllm.json"), "--baseline-j", value,
               "--reference", "vllm", "--format", "csv") == 2
    assert _one_error_line(capsys) == \
        f"error: --baseline-j must be positive and finite, got {float(value)}\n"


@pytest.mark.parametrize("command", ["baseline", "synth-table"])
@pytest.mark.parametrize("key", ["tdp", "peak_flops"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_hardware_value_names_file_and_key(fixture_paths, capsys, command, key,
                                                      value):
    # an inf peak_flops would price the floor at 0 J, and a nan tdp would fail
    # only at the first Energy, naming no file
    hw = fixture_paths["hw"]
    text = hw.read_text(encoding="utf-8")
    hw.write_text(re.sub(f"(?m)^{key} = .*$", f"{key} = {value}", text), encoding="utf-8")
    argv = {"baseline": ["--trace", str(fixture_paths["trace"])],
            "synth-table": ["--efficiency", "0.5", "--decode-penalty", "2.0"]}[command]
    assert run(command, "--model", str(fixture_paths["model"]), "--hw", str(hw), *argv) == 2
    assert _one_error_line(capsys) == \
        f"error: {hw}: {key} must be a finite number, got {value!r}\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_decode_penalty_is_a_data_error(fixture_paths, capsys, value):
    assert run("synth-table", "--model", str(fixture_paths["model"]),
               "--hw", str(fixture_paths["hw"]), "--efficiency", "0.5",
               "--decode-penalty", value) == 2
    assert _one_error_line(capsys) == \
        f"error: decode_penalty must be >= 1 and finite, got {value}\n"


def test_synth_table_name_with_comma_loads_back(fixture_paths, capsys):
    totals = {}
    for backend, device in (("v", "tp2"), ("v,x", 'say "tp=2"')):
        table = fixture_paths["dir"] / "synth.csv"
        assert run("synth-table", "--model", str(fixture_paths["model"]),
                   "--hw", str(fixture_paths["hw"]), "--efficiency", "1",
                   "--decode-penalty", "1", "--backend", backend, "--device", device,
                   "--out", str(table)) == 0
        assert run("estimate", "--trace", str(fixture_paths["trace"]), "--table", str(table),
                   "--backend", backend, "--device", device) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["backend"], payload["device"]) == (backend, device)
        totals[backend] = payload["total_j"]
    assert totals["v,x"] == totals["v"] > 0


@pytest.mark.parametrize("backend", [" v", "v ", "#v", "a\rb"])
def test_synth_table_refuses_names_that_cannot_load_back(fixture_paths, capsys, backend):
    assert run("synth-table", "--model", str(fixture_paths["model"]),
               "--hw", str(fixture_paths["hw"]), "--efficiency", "1", "--decode-penalty", "1",
               "--backend", backend) == 2
    assert "backend" in _one_error_line(capsys)


# Runs each argv of argv[2] (a json list) through cli.main in a fresh
# interpreter importing tokenwatt from argv[1], and prints whether numpy got
# loaded; a nonzero exit of any command fails the child.
_NUMPY_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import tokenwatt.cli as cli
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    if code != 0:
        sys.exit(f"{argv}: exit {code}")
print("numpy" in sys.modules)
"""


def _loads_numpy(*commands) -> bool:
    root = str(Path(tokenwatt.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, root, json.dumps(commands)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return {"True\n": True, "False\n": False}[proc.stdout]


def test_commands_that_read_no_trace_never_import_numpy(fixture_paths):
    paths = {k: str(v) for k, v in fixture_paths.items()}
    d = fixture_paths["dir"]
    assert run("bin", "--trace", paths["trace"], "--out", str(d / "binned.csv")) == 0
    for backend in ("vllm", "naive"):
        assert run("estimate", "--trace", paths["trace"], "--table", paths["table"],
                   "--backend", backend, "--device", "A100",
                   "--out", str(d / f"{backend}.json")) == 0
    binned = str(d / "binned.csv")
    assert not _loads_numpy(
        ["--version"],
        ["estimate", "--binned", binned, "--table", paths["table"], "--backend", "vllm",
         "--device", "A100", "--interpolate"],
        ["baseline", "--binned", binned, "--model", paths["model"], "--hw", paths["hw"]],
        ["compare", "--estimates", f"{d / 'vllm.json'},{d / 'naive.json'}",
         "--baseline-j", "1.0", "--reference", "naive"],
        ["synth-table", "--model", paths["model"], "--hw", paths["hw"], "--efficiency", "1",
         "--decode-penalty", "1", "--out", str(d / "synth.csv")],
        ["validate-table", "--table", str(d / "synth.csv")],
        ["plan-sweep", "--out", str(d / "plans")],
    )
    assert _loads_numpy(["stats", "--trace", paths["trace"]])


def test_cli_import_loads_neither_dataclasses_nor_inspect_nor_numpy():
    src = str(Path(tokenwatt.__file__).resolve().parent.parent)
    probe = ("import tokenwatt.cli, sys; "
             "print(sorted({'dataclasses', 'inspect', 'numpy'} & sys.modules.keys()))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_arbitrary_trace_bytes_exit_0_or_2(tmp_path, capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    heads = st.sampled_from([b"", b"input_tokens,output_tokens\n",
                             b'{"input_tokens": 3, "output_tokens": 1}\n'])
    bodies = st.one_of(
        st.binary(max_size=200),
        st.text(alphabet='0123456789-.,"{}[]: \r\n\\eEnul\ufeff\xff', max_size=200).map(
            lambda t: t.encode("utf-8")),
    )
    trace = tmp_path / "trace"

    @hypothesis.given(heads, bodies, st.sampled_from(cli.TRACE_FORMATS),
                      st.sampled_from(["stats", "bin"]), st.booleans())
    def check(head, body, trace_format, command, permissive):
        trace.write_bytes(head + body)
        argv = [command, "--trace", str(trace), "--trace-format", trace_format]
        code = run(*argv, *(["--permissive"] if permissive else []))
        err = [line for line in capsys.readouterr().err.splitlines()
               if not line.startswith("note: ")]
        assert code in (0, 2)
        if code == 2:
            assert len(err) == 1 and err[0].startswith("error: "), err
        else:
            assert err == []

    check()


def _set_field(text: str, field: str, value: str) -> str:
    """`text` with `field` set to `value`: the value of a `key = value` line
    or `# key = value` comment, else the field of the first data row under
    the header. A key that is neither is added, as a `key = value` line to a
    config or a leading `# key = value` comment to a csv file."""
    lines = text.splitlines(keepends=True)
    for k, line in enumerate(lines):
        key, eq, _ = line.lstrip("# ").partition("=")
        if eq and key.strip() == field:
            lines[k] = f"{line.partition('=')[0]}= {value}\n"
            return "".join(lines)
    header = next((k for k, line in enumerate(lines) if "," in line and "=" not in line), None)
    if header is None:
        return text + f"{field} = {value}\n"
    names = lines[header].rstrip("\n").split(",")
    if field not in names:
        return f"# {field} = {value}\n" + text
    row = lines[header + 1].rstrip("\n").split(",")
    row[names.index(field)] = value
    lines[header + 1] = ",".join(row) + "\n"
    return "".join(lines)


_INT_FIELDS = {
    "binned": ["input_cap", "output_cap", "count", "input_bins", "output_bins",
               "excluded_input", "excluded_output"],
    "table": ["input_cap", "output_cap", "max_batch", "samples_measured", "warmup_batches",
              "protocol_samples"],
    "model": ["n_layers", "d_model", "n_heads", "n_kv_heads", "d_ff", "vocab_size", "n_params"],
}


@pytest.mark.parametrize("kind,field,command,where", [
    ("binned", "count", "estimate", ":4: count"),
    ("binned", "count", "baseline", ":4: count"),
    ("table", "max_batch", "estimate", ":2: max_batch"),
    ("model", "n_layers", "baseline", ": n_layers"),
    ("model", "d_model", "synth-table", ": d_model"),
])
def test_integer_beyond_int64_names_file_and_field(fixture_paths, capsys, kind, field, command,
                                                   where):
    files = _pipeline_files(fixture_paths)
    path = Path(files[kind])
    path.write_text(_set_field(path.read_text(encoding="utf-8"), field, "9" * 400),
                    encoding="utf-8")
    capsys.readouterr()
    assert run(*_input_commands(files)[command]) == 2
    assert capsys.readouterr().err == f"error: {path}{where} exceeds the int64 range: {'9' * 400}\n"


def test_int64_extremes_in_integer_fields_exit_0_or_2(fixture_paths, capsys):
    # 2**63 - 1 is the largest integer any input may hold; it and its
    # neighbours in every integer field of the files the pricing commands
    # read end in a result or one error line, never in a traceback
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    files = _pipeline_files(fixture_paths)
    texts = {kind: Path(files[kind]).read_text(encoding="utf-8") for kind in _INT_FIELDS}
    commands = _input_commands(files)
    fields = st.sampled_from([(kind, f) for kind, names in _INT_FIELDS.items() for f in names])
    values = st.sampled_from([2**63 - 1, 2**63, -2**63, -2**63 - 1, 2**62, 10**30])

    @hypothesis.given(fields, values, st.sampled_from(["estimate", "baseline", "synth-table"]))
    def check(kind_field, value, command):
        kind, field = kind_field
        for k, text in texts.items():
            Path(files[k]).write_text(_set_field(text, field, str(value)) if k == kind else text,
                                      encoding="utf-8")
        code = run(*commands[command])
        err = capsys.readouterr().err.splitlines()
        assert code in (0, 2)
        if code == 2:
            assert len(err) == 1 and err[0].startswith("error: "), err
        else:
            assert err == []

    check()


@pytest.mark.parametrize("kind", ["table", "binned", "model", "hw", "report"])
def test_arbitrary_input_file_bytes_exit_0_or_2(fixture_paths, capsys, kind):
    # arbitrary bytes, bare or after a byte-order mark, a well-formed file's
    # first lines or both, as each input kind of every command that reads it
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    files = _pipeline_files(fixture_paths)
    lines = Path(files[kind]).read_bytes().splitlines(keepends=True)
    fuzzed = str(fixture_paths["dir"] / "fuzzed")
    commands = [argv for argv in _input_commands({**files, kind: fuzzed}).values()
                if fuzzed in argv]
    bodies = st.one_of(
        st.binary(max_size=200),
        st.text(alphabet='0123456789-+.,=#_"{}[]: \r\n\\eEnaJWhlrstu\ufeff\xff',
                max_size=200).map(lambda t: t.encode("utf-8")),
    )

    @hypothesis.given(st.sampled_from([b"", b"\xef\xbb\xbf"]), st.integers(0, len(lines)),
                      bodies, st.sampled_from(commands))
    def check(bom, lead, body, argv):
        Path(fuzzed).write_bytes(bom + b"".join(lines[:lead]) + body)
        code = run(*argv)
        err = capsys.readouterr().err.splitlines()
        assert code in (0, 2)
        if code == 2:
            assert len(err) == 1 and err[0].startswith("error: "), err
        else:
            assert err == []

    check()


def _readme_examples() -> list[list[str]]:
    """The arguments of every `tokenwatt ...` line in the README's sh blocks,
    with `\\` continuations joined and `<`/`>` redirections dropped."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["tokenwatt"]:
                examples.append([w for k, w in enumerate(words[1:])
                                 if w not in ("<", ">") and words[k] not in ("<", ">")])
    return examples


def test_readme_examples_parse():
    # every example parses (it is not run), so a flag renamed in the code
    # but not in the README fails here
    examples = _readme_examples()
    assert len(examples) >= 11
    for argv in examples:
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: tokenwatt {shlex.join(argv)}")
