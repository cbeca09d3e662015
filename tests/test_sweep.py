import pytest

from tokenwatt import (
    Bin,
    BinGrid,
    DEFAULT_GRID,
    SweepPlan,
    ValidationError,
    grid_covered_by_plans,
    default_sweep_plans,
    read_plan,
    synthesize_table,
    validate_table_against_plan,
    write_plans,
)
from tokenwatt.sweep import format_plan


def test_plan_set():
    plans = default_sweep_plans()
    assert len(plans) == 5
    keyed = {(p.axis, tuple(sorted(p.fixed.items()))): p for p in plans}
    assert len(keyed) == 5

    in64 = keyed[("input_length", (("batch_size", 1), ("output_length", 64)))]
    in8 = keyed[("input_length", (("batch_size", 1), ("output_length", 8)))]
    out512 = keyed[("output_length", (("batch_size", 1), ("input_length", 512)))]
    out64 = keyed[("output_length", (("batch_size", 1), ("input_length", 64)))]
    batch = keyed[("batch_size", (("input_length", 512), ("output_length", 64)))]

    expected_inputs = (32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768)
    assert in64.points == expected_inputs
    assert in8.points == expected_inputs
    assert out512.points == (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
    assert out64.points == out512.points
    assert batch.points == (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

    for p in plans:
        assert p.warmup_batches == 20
        assert p.truncation_source == "PG19"
    assert {in64.samples_per_point, in8.samples_per_point,
            out512.samples_per_point, out64.samples_per_point} == {1024}
    assert batch.samples_per_point == 4096
    assert batch.normalization_note is not None
    assert in64.normalization_note is None


def test_plan_determinism():
    a = default_sweep_plans()
    b = default_sweep_plans()
    assert a == b
    assert [p.filename for p in a] == [
        "sweep_input_length_out64_batch1.cfg",
        "sweep_input_length_out8_batch1.cfg",
        "sweep_output_length_in512_batch1.cfg",
        "sweep_output_length_in64_batch1.cfg",
        "sweep_batch_size_in512_out64.cfg",
    ]


def test_plan_validation():
    with pytest.raises(ValidationError, match="powers of two"):
        SweepPlan(axis="input_length", fixed={"output_length": 64, "batch_size": 1},
                  points=(3, 5), samples_per_point=1024)
    plan = SweepPlan(axis="input_length", fixed={"output_length": 64, "batch_size": 1},
                     points=(3, 5), samples_per_point=1024, allow_non_pow2=True)
    assert plan.points == (3, 5)
    with pytest.raises(ValidationError, match="increasing"):
        SweepPlan(axis="input_length", fixed={"output_length": 64, "batch_size": 1},
                  points=(8, 8), samples_per_point=1024)
    with pytest.raises(ValidationError, match="axis"):
        SweepPlan(axis="temperature", fixed={}, points=(1,), samples_per_point=1024)
    with pytest.raises(ValidationError, match="pin exactly"):
        SweepPlan(axis="input_length", fixed={"output_length": 64},
                  points=(32,), samples_per_point=1024)


def test_plan_samples_follow_batch_threshold():
    # batch beyond 256 requires the normalized 4096-sample protocol
    with pytest.raises(ValidationError, match="4096"):
        SweepPlan(axis="batch_size", fixed={"input_length": 512, "output_length": 64},
                  points=(1, 2, 512), samples_per_point=1024)
    with pytest.raises(ValidationError, match="1024"):
        SweepPlan(axis="input_length", fixed={"output_length": 64, "batch_size": 1},
                  points=(32, 64), samples_per_point=4096)


def test_plan_file_roundtrip(tmp_path):
    plans = default_sweep_plans()
    paths = write_plans(plans, tmp_path / "plans")
    assert [p.name for p in paths] == [p.filename for p in plans]
    for path, plan in zip(paths, plans):
        assert read_plan(path) == plan
    marked = SweepPlan(axis="input_length", fixed={"output_length": 64, "batch_size": 1},
                       points=(32, 64), samples_per_point=1024, truncation_source="PG19 #2")
    [path] = write_plans([marked], tmp_path / "marked")
    assert read_plan(path) == marked


def test_plan_format_keys():
    plan = default_sweep_plans()[0]
    text = format_plan(plan)
    assert "axis = input_length" in text
    assert "fixed_output = 64" in text
    assert "fixed_batch = 1" in text
    assert "fixed_input" not in text
    assert "points = 32,64,128" in text
    assert "truncation_source = PG19" in text


def test_read_plan_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("axis = batch_size\nfixed_input = 512\nfixed_output = 64\n"
                    "points = 1,2\nsamples_per_point = 1024\nwarmup_batches = 20\n"
                    "color = red\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="unknown plan keys"):
        read_plan(path)


def test_default_grid_covered_by_default_plans():
    assert grid_covered_by_plans(DEFAULT_GRID, default_sweep_plans())


def test_uncovered_grid_detected():
    grid = BinGrid(input_bins=(32, 96), output_bins=(8,))
    assert not grid_covered_by_plans(grid, default_sweep_plans())


def test_coverage_full_on_synthesized_table(toy_model, a100):
    table = synthesize_table(DEFAULT_GRID, toy_model, a100,
                             efficiency=1.0, decode_penalty=1.0)
    report = validate_table_against_plan(table, default_sweep_plans())
    assert report.full_coverage
    assert report.missing[("synthetic", "A100-PCIe")] == ()


def test_coverage_reports_missing_point(toy_model, a100):
    table = synthesize_table(DEFAULT_GRID, toy_model, a100,
                             efficiency=1.0, decode_penalty=1.0)
    pruned = type(table)(
        records=tuple(r for r in table.records if r.bin != Bin(512, 64)),
        metadata=table.metadata,
    )
    report = validate_table_against_plan(pruned, default_sweep_plans())
    assert not report.full_coverage
    assert report.missing[("synthetic", "A100-PCIe")] == ((512, 64),)
    assert any("missing 1" in line for line in report.summary_lines())
