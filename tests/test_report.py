import json

import pytest

from tokenwatt import (
    BaselineReport,
    Bin,
    BinGrid,
    BinnedWorkload,
    Energy,
    MeasurementRecord,
    MeasurementTable,
    TableMetadata,
    TraceReport,
    ValidationError,
    compare,
    compute_stats,
    emit_report,
    estimate,
)
from conftest import estimate_entry


def _estimate_for_report():
    grid = BinGrid(input_bins=(256, 1024), output_bins=(8, 64))
    table = MeasurementTable(
        records=(
            MeasurementRecord(backend="vllm", device="A100", input_cap=256, output_cap=8,
                              max_batch=4, batch_energy=Energy(2.0)),
            MeasurementRecord(backend="vllm", device="A100", input_cap=1024, output_cap=64,
                              max_batch=2, batch_energy=Energy(10.0)),
        ),
        metadata=TableMetadata(grid=grid),
    )
    workload = BinnedWorkload(grid=grid, counts={Bin(256, 8): 2, Bin(1024, 64): 1})
    return estimate(workload, table, "vllm", "A100")


def test_compare_orders_entries_by_energy():
    c = compare(
        [estimate_entry("pytorch", 20.0), estimate_entry("vllm", 6.0)],
        optimal=Energy(4.0), reference_label="pytorch",
    )
    assert [e.label for e in c.entries] == ["vllm", "pytorch"]
    assert c.entries[0].pct_delta_vs_optimal == pytest.approx(50.0)
    assert c.entries[1].pct_delta_vs_optimal == pytest.approx(400.0)
    assert c.entries[0].savings_vs_reference == pytest.approx(70.0)
    assert c.entries[1].savings_vs_reference is None


def test_compare_savings_sign_convention():
    c = compare(
        [estimate_entry("worse", 30.0), estimate_entry("ref", 20.0)],
        optimal=Energy(1.0), reference_label="ref",
    )
    worse = next(e for e in c.entries if e.label == "worse")
    assert worse.savings_vs_reference == pytest.approx(-50.0)


def test_compare_carries_estimate_metadata():
    est = _estimate_for_report()
    c = compare([est, estimate_entry("other", 9.0)], optimal=Energy(1.0),
                reference_label="vllm", dataset="fixture")
    assert c.mode == "fractional"
    assert c.excluded_requests == 0
    assert c.dataset == "fixture"


def test_compare_validation():
    with pytest.raises(ValidationError, match="positive"):
        compare([estimate_entry("a", 1.0)], optimal=Energy(0.0), reference_label="a")
    with pytest.raises(ValidationError, match="reference"):
        compare([estimate_entry("a", 1.0)], optimal=Energy(1.0), reference_label="b")
    with pytest.raises(ValidationError, match="duplicate"):
        compare([estimate_entry("a", 1.0), estimate_entry("a", 2.0)],
                optimal=Energy(1.0), reference_label="a")
    with pytest.raises(ValidationError, match="at least one"):
        compare([], optimal=Energy(1.0), reference_label="a")


def test_comparison_json_schema():
    c = compare([estimate_entry("pytorch", 20.0), estimate_entry("vllm", 6.0)],
                optimal=Energy(4.0), reference_label="pytorch", dataset="d")
    payload = json.loads(emit_report(c, "json"))
    assert list(payload.keys()) == [
        "schema_version", "dataset", "mode", "baseline_j", "entries", "excluded_requests",
    ]
    assert payload["schema_version"] == "1"
    assert payload["baseline_j"] == 4.0
    assert list(payload["entries"][0].keys()) == [
        "label", "energy_j", "pct_delta_vs_optimal", "savings_vs_reference",
    ]
    assert payload["entries"][1]["savings_vs_reference"] is None


def test_comparison_markdown_two_decimals():
    c = compare([estimate_entry("pytorch", 20.0), estimate_entry("vllm", 6.0)],
                optimal=Energy(4.0), reference_label="pytorch")
    text = emit_report(c, "markdown-table")
    assert "| vllm |" in text
    assert "70.00" in text
    assert "(reference)" in text


def test_comparison_csv_full_precision():
    c = compare([estimate_entry("pytorch", 3.0), estimate_entry("vllm", 1.0)],
                optimal=Energy(1.0), reference_label="pytorch")
    text = emit_report(c, "csv")
    vllm_row = next(l for l in text.splitlines() if l.startswith("vllm"))
    assert vllm_row.split(",")[3] == repr(100.0 * (1.0 - 1.0 / 3.0))


def test_estimate_report_all_formats():
    est = _estimate_for_report()
    payload = json.loads(emit_report(est, "json"))
    assert payload["kind"] == "estimate"
    assert payload["total_j"] == 6.0
    assert len(payload["per_bin"]) == 2

    csv_text = emit_report(est, "csv")
    rows = [l for l in csv_text.splitlines() if l and not l.startswith("#")]
    # header + one row per nonzero bin + total row
    assert len(rows) == 1 + 2 + 1
    assert rows[-1].startswith("TOTAL,")
    assert ",6.0," in rows[-1]

    md = emit_report(est, "markdown-table")
    assert "kWh" in md


def test_baseline_report_formats():
    b = BaselineReport(dataset="d", model_name="toy", optimal=Energy(3.6e6),
                       j_per_flop=1e-12, prefill_flops=10, decode_flops=5,
                       excluded_requests=1)
    payload = json.loads(emit_report(b, "json"))
    assert payload["kind"] == "baseline"
    assert payload["total_flops"] == 15
    assert "optimal_j,3600000.0" in emit_report(b, "csv")
    assert "1.000000e+00 kWh" in emit_report(b, "markdown-table")


def test_stats_report_formats():
    stats = compute_stats([1, 2, 3, 4, 5])
    t = TraceReport(dataset="d", count=5, input_stats=stats, output_stats=stats)
    payload = json.loads(emit_report(t, "json"))
    assert payload["kind"] == "stats"
    assert payload["input"]["median"] == 3.0
    csv_text = emit_report(t, "csv")
    assert csv_text.splitlines()[1] == "column,count,mean,std,median,p99,max"
    md = emit_report(t, "markdown-table")
    assert "| input |" in md


def test_emit_is_deterministic():
    est = _estimate_for_report()
    for fmt in ("json", "csv", "markdown-table"):
        assert emit_report(est, fmt) == emit_report(est, fmt)


def test_emit_rejects_unknown_format_and_object():
    est = _estimate_for_report()
    with pytest.raises(ValidationError, match="format"):
        emit_report(est, "yaml")
    with pytest.raises(ValidationError, match="serialize"):
        emit_report(42, "json")
