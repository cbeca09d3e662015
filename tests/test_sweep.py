import io

import pytest

import tokenwatt.cli as cli
from tokenwatt import (
    Bin,
    BinGrid,
    CoverageReport,
    DEFAULT_GRID,
    SweepPlan,
    ValidationError,
    default_sweep_plans,
    read_binned_csv,
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
                  points=(3, 5))
    with pytest.raises(ValidationError, match="increasing"):
        SweepPlan(axis="input_length", fixed={"output_length": 64, "batch_size": 1},
                  points=(8, 8))
    with pytest.raises(ValidationError, match="axis"):
        SweepPlan(axis="temperature", fixed={}, points=(1,))
    with pytest.raises(ValidationError, match="pin exactly"):
        SweepPlan(axis="input_length", fixed={"output_length": 64},
                  points=(32,))
    with pytest.raises(ValidationError, match="fixed values must be positive"):
        SweepPlan(axis="input_length", fixed={"output_length": 0, "batch_size": 1},
                  points=(32,))
    with pytest.raises(ValidationError, match="warmup_batches must be >= 0"):
        SweepPlan(axis="input_length", fixed={"output_length": 64, "batch_size": 1},
                  points=(32,), warmup_batches=-1)


@pytest.mark.parametrize("points,message", [
    ((), "points must be non-empty"),
    ((0, 1), "points must be positive, got (0, 1)"),
    ((8, 8), "points must be strictly increasing, got (8, 8)"),
])
def test_plan_points_follow_the_grid_caps_rule(points, message):
    # one rule, and one wording, for a grid's caps and a plan's points
    with pytest.raises(ValidationError) as exc:
        SweepPlan(axis="input_length", fixed={"output_length": 64, "batch_size": 1},
                  points=points)
    assert str(exc.value) == message
    with pytest.raises(ValidationError) as exc:
        BinGrid(input_bins=points)
    assert str(exc.value) == message.replace("points", "input_bins")
    plan = SweepPlan(axis="batch_size", fixed={"input_length": 32, "output_length": 8},
                     points=[1, 2])
    assert plan.points == (1, 2)


def test_plan_samples_follow_batch_threshold():
    # batch beyond 256 requires the normalized 4096-sample protocol
    assert SweepPlan(axis="batch_size", fixed={"input_length": 512, "output_length": 64},
                     points=(1, 2, 512)).samples_per_point == 4096
    assert SweepPlan(axis="batch_size", fixed={"input_length": 512, "output_length": 64},
                     points=(1, 2, 256)).samples_per_point == 1024
    assert SweepPlan(axis="input_length", fixed={"output_length": 64, "batch_size": 1},
                     points=(32, 64)).samples_per_point == 1024


def test_plan_file_roundtrip(tmp_path):
    plans = default_sweep_plans()
    paths = write_plans(plans, tmp_path / "plans")
    assert [p.name for p in paths] == [p.filename for p in plans]
    for path, plan in zip(paths, plans):
        assert read_plan(path) == plan
    marked = SweepPlan(axis="input_length", fixed={"output_length": 64, "batch_size": 1},
                       points=(32, 64), truncation_source="PG19 #2")
    [path] = write_plans([marked], tmp_path / "marked")
    assert read_plan(path) == marked


def test_plan_text_round_trips_or_is_refused_on_write(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    out = tmp_path / "plans"

    # explicit examples: text the reader strips, a lone `\r`, characters at
    # which str.splitlines would end a line, and the empty value
    @hypothesis.given(st.text())
    @hypothesis.example(" PG19")
    @hypothesis.example("a\rb")
    @hypothesis.example("a\x1cb")
    @hypothesis.example("a\u2028b")
    @hypothesis.example("")
    def check(source):
        plan = SweepPlan(axis="input_length", fixed={"output_length": 64, "batch_size": 1},
                         points=(32, 64), truncation_source=source)
        try:
            [path] = write_plans([plan], out)
        except ValidationError as exc:
            assert "truncation_source" in str(exc)
            assert not (out / plan.filename).exists()
            return
        assert read_plan(path) == plan
        path.unlink()

    check()


PLAN_HEAD = "axis = input_length\nfixed_output = 64\nfixed_batch = 1\n"
PLAN_TAIL = "samples_per_point = 1024\nwarmup_batches = 20\n"


@pytest.mark.parametrize("caps", ["32,64", " 32 , 64", "+32,64", "32,,64", "32;64", "32.0,64",
                                  "32,64,", "0x20,64", ""])
def test_grid_flag_grid_comments_and_plan_points_read_the_same_caps(tmp_path, caps):
    def read(how):
        try:
            return how()
        except ValidationError:
            return "refused"

    path = tmp_path / "plan.cfg"
    path.write_text(f"{PLAN_HEAD}points = {caps}\n{PLAN_TAIL}", encoding="utf-8")
    binned = f"# input_bins = {caps}\n# output_bins = 8\ninput_cap,output_cap,count\n"
    flag = read(lambda: cli.parse_grid(f"{caps}:8").input_bins)
    assert flag == read(lambda: read_binned_csv(io.StringIO(binned)).grid.input_bins)
    assert flag == read(lambda: read_plan(path).points)
    assert (flag == (32, 64)) == (caps in ("32,64", " 32 , 64", "+32,64"))


@pytest.mark.parametrize("text,message", [
    (PLAN_HEAD + PLAN_TAIL, "missing plan keys: points"),
    (PLAN_HEAD + "points = 32,x\n" + PLAN_TAIL,
     "points must be comma-separated integers, got '32,x'"),
    (PLAN_HEAD + "points = 32\nsamples_per_point = many\nwarmup_batches = 20\n",
     "samples_per_point must be an integer, got 'many'"),
    (PLAN_HEAD + "points = 32\nsamples_per_point = 7\nwarmup_batches = 20\n",
     "samples_per_point must be 1024 when the largest batch is 1, got 7"),
    ("axis = batch_size\nfixed_input = 512\nfixed_output = 64\npoints = 1,512\n" + PLAN_TAIL,
     "samples_per_point must be 4096 when the largest batch is 512, got 1024"),
    ("axis = input_length\nfixed_output = 64\npoints = 32\n" + PLAN_TAIL,
     "fixed must pin exactly ['batch_size', 'output_length'], got ['output_length']"),
])
def test_read_plan_errors_name_file_and_key(tmp_path, text, message):
    path = tmp_path / "bad.cfg"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError) as exc:
        read_plan(path)
    assert str(exc.value) == f"{path}: {message}"


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
    # every cap of the default grid is swept on its own axis by some plan
    pairs = {pair for plan in default_sweep_plans() for pair in plan.pairs()}
    assert set(DEFAULT_GRID.input_bins) <= {i for i, _ in pairs}
    assert set(DEFAULT_GRID.output_bins) <= {o for _, o in pairs}


def test_coverage_full_on_synthesized_table(toy_model, a100):
    table = synthesize_table(DEFAULT_GRID, toy_model, a100,
                             efficiency=1.0, decode_penalty=1.0)
    report = validate_table_against_plan(table, default_sweep_plans())
    assert report.full_coverage
    assert len(report.planned_points) == 21
    assert report.missing[("synthetic", "A100-PCIe")] == ()


def test_coverage_needs_a_configuration():
    planned = ((32, 8),)
    assert not CoverageReport(planned).full_coverage
    assert CoverageReport(planned, {("vllm", "A100"): ()}).full_coverage
    assert not CoverageReport(planned, {("vllm", "A100"): (), ("hf", "A100"): planned}
                              ).full_coverage


def test_coverage_reports_missing_point(toy_model, a100):
    table = synthesize_table(DEFAULT_GRID, toy_model, a100,
                             efficiency=1.0, decode_penalty=1.0)
    pruned = type(table)(
        records=tuple(r for r in table.records
                      if Bin(r.input_cap, r.output_cap) != Bin(512, 64)),
        metadata=table.metadata,
    )
    report = validate_table_against_plan(pruned, default_sweep_plans())
    assert not report.full_coverage
    assert report.missing[("synthetic", "A100-PCIe")] == ((512, 64),)
    assert any("missing 1" in line for line in report.summary_lines())
