import csv
import io
import math

import pytest

from tokenwatt import (
    Bin,
    BinGrid,
    Energy,
    MeasurementRecord,
    MeasurementTable,
    TableMetadata,
    ValidationError,
    default_kv_bytes_per_token,
    joules_per_flop,
    load_table,
    lookup,
    request_flops,
    synthesize_table,
    write_table,
)
from oracles import oracle_lookup

HEADER = (
    "backend,device,input_cap,output_cap,max_batch,batch_energy,energy_unit,"
    "prefill_energy,decode_energy,samples_measured,warmup_batches"
)


def _record(input_cap, output_cap, max_batch=1, joules=1.0, **kwargs):
    return MeasurementRecord(
        backend="vllm", device="A100", input_cap=input_cap, output_cap=output_cap,
        max_batch=max_batch, batch_energy=Energy(joules), **kwargs,
    )


def _table(records, grid=None):
    grid = grid or BinGrid(input_bins=(32, 256, 512), output_bins=(8, 16, 32, 64))
    return MeasurementTable(records=tuple(records), metadata=TableMetadata(grid=grid))


def test_record_validation():
    with pytest.raises(ValidationError):
        _record(256, 8, max_batch=0)
    with pytest.raises(ValidationError):
        _record(256, 8, joules=0.0)
    with pytest.raises(ValidationError):
        _record(256, 8, samples_measured=0)
    with pytest.raises(ValidationError):
        _record(256, 8, warmup_batches=-1)


def test_record_split_consistency():
    ok = _record(256, 8, joules=10.0, prefill_energy=Energy(6.0), decode_energy=Energy(4.01))
    assert ok.prefill_energy.joules == 6.0
    with pytest.raises(ValidationError, match="0.5%"):
        _record(256, 8, joules=10.0, prefill_energy=Energy(6.0), decode_energy=Energy(4.2))
    with pytest.raises(ValidationError, match="together"):
        _record(256, 8, joules=10.0, prefill_energy=Energy(6.0))
    with pytest.raises(ValidationError, match="positive"):
        _record(256, 8, joules=10.0, prefill_energy=Energy(0.0), decode_energy=Energy(10.0))


def test_per_request_energy():
    assert _record(256, 8, max_batch=4, joules=2.0).per_request_joules == 0.5


def test_table_rejects_duplicates_and_off_grid():
    with pytest.raises(ValidationError, match="duplicate"):
        _table([_record(256, 8), _record(256, 8)])
    with pytest.raises(ValidationError, match="not on the table grid"):
        _table([_record(999, 8)])


def test_table_queries():
    t = _table([_record(256, 8), _record(256, 16), _record(512, 8)])
    assert t.configurations() == [("vllm", "A100")]
    assert t.bins_for("vllm", "A100") == [Bin(256, 8), Bin(256, 16), Bin(512, 8)]
    assert t.get("vllm", "A100", Bin(256, 16)).input_cap == 256
    assert t.get("vllm", "A100", Bin(512, 64)) is None


def test_lookup_exact_and_strict_miss():
    t = _table([_record(256, 8)])
    assert lookup(t, "vllm", "A100", Bin(256, 8)).provenance == "measured"
    with pytest.raises(ValidationError, match=r"\(256, 16\)"):
        lookup(t, "vllm", "A100", Bin(256, 16))
    with pytest.raises(ValidationError, match="tgi"):
        lookup(t, "tgi", "A100", Bin(256, 8))


def test_interpolation_geometric_mean_on_one_axis():
    # per-request 1.0 J at output 16 and 4.0 J at output 64; output 32 sits at
    # the log midpoint, so interpolation returns the geometric mean, 2.0 J
    t = _table([_record(256, 16, joules=1.0), _record(256, 64, joules=4.0)])
    rec = lookup(t, "vllm", "A100", Bin(256, 32), interpolate=True)
    assert rec.provenance == "interpolated"
    assert rec.max_batch == 1
    assert rec.batch_energy.joules == pytest.approx(2.0, rel=1e-12)


def test_interpolation_bilinear_in_both_axes():
    t = _table([
        _record(32, 16, joules=1.0), _record(32, 64, joules=2.0),
        _record(512, 16, joules=4.0), _record(512, 64, joules=8.0),
    ])
    rec = lookup(t, "vllm", "A100", Bin(256, 32), interpolate=True)
    ti = (math.log(256) - math.log(32)) / (math.log(512) - math.log(32))
    expected = math.exp(
        (1 - ti) * 0.5 * math.log(1.0) + (1 - ti) * 0.5 * math.log(2.0)
        + ti * 0.5 * math.log(4.0) + ti * 0.5 * math.log(8.0)
    )
    assert rec.batch_energy.joules == pytest.approx(expected, rel=1e-12)


def test_interpolation_interpolates_max_batch():
    t = _table([
        _record(256, 16, max_batch=4, joules=4.0),
        _record(256, 64, max_batch=16, joules=16.0),
    ])
    rec = lookup(t, "vllm", "A100", Bin(256, 32), interpolate=True)
    assert rec.max_batch == 8  # geometric mean of 4 and 16
    assert rec.batch_energy.joules == pytest.approx(8.0, rel=1e-12)


def test_interpolation_outside_hull_errors():
    t = _table([_record(256, 16), _record(256, 64)])
    with pytest.raises(ValidationError, match="hull"):
        lookup(t, "vllm", "A100", Bin(256, 8), interpolate=True)
    with pytest.raises(ValidationError, match="hull"):
        lookup(t, "vllm", "A100", Bin(32, 16), interpolate=True)


def test_interpolation_missing_corner_errors():
    t = _table([
        _record(32, 16), _record(32, 64), _record(512, 16),
    ])
    with pytest.raises(ValidationError, match="missing measured neighbor"):
        lookup(t, "vllm", "A100", Bin(256, 32), interpolate=True)


def test_indexed_lookup_matches_record_scan():
    # random sparse tables with several configurations: the per-configuration
    # index gives the records and error messages of a scan over every record
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    caps = st.lists(st.integers(1, 4096), min_size=1, max_size=6, unique=True).map(sorted)
    configs = [("vllm", "A100"), ("vllm", "H100"), ("tgi", "A100")]

    @hypothesis.given(st.data(), caps, caps)
    def check(data, input_bins, output_bins):
        grid = BinGrid(input_bins=tuple(input_bins), output_bins=tuple(output_bins))
        cells = [(c, i, o) for c in configs for i in input_bins for o in output_bins]
        chosen = data.draw(st.lists(st.sampled_from(cells), unique=True, max_size=len(cells)))
        records = [
            MeasurementRecord(
                backend=backend, device=device, input_cap=i, output_cap=o,
                max_batch=data.draw(st.integers(1, 512)),
                batch_energy=Energy(data.draw(st.floats(1e-3, 1e6))),
                samples_measured=data.draw(st.sampled_from([1024, 4096])),
                warmup_batches=data.draw(st.integers(0, 20)),
            )
            for (backend, device), i, o in chosen
        ]
        table = MeasurementTable(records=tuple(records), metadata=TableMetadata(grid=grid))
        assert table.configurations() == sorted({(r.backend, r.device) for r in records})
        for backend, device in configs:
            assert table.bins_for(backend, device) == sorted(
                r.bin for r in records if (r.backend, r.device) == (backend, device))
        for _ in range(4):
            backend, device = data.draw(st.sampled_from(configs))
            b = Bin(data.draw(st.sampled_from(input_bins)), data.draw(st.sampled_from(output_bins)))
            try:
                want = oracle_lookup(table, backend, device, b)
            except ValidationError as exc:
                with pytest.raises(ValidationError) as got:
                    lookup(table, backend, device, b, interpolate=True)
                assert str(got.value) == str(exc)
            else:
                assert lookup(table, backend, device, b, interpolate=True) == want

    check()


def test_interpolation_stays_between_its_corners():
    # an interpolated record's per-request energy and max_batch lie within
    # the least and greatest of the measured records at its bracketing caps
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    caps = st.lists(st.integers(1, 4096), min_size=1, max_size=6, unique=True).map(sorted)

    @hypothesis.given(st.data(), caps, caps)
    def check(data, input_bins, output_bins):
        grid = BinGrid(input_bins=tuple(input_bins), output_bins=tuple(output_bins))
        cells = [(i, o) for i in input_bins for o in output_bins]
        chosen = data.draw(st.lists(st.sampled_from(cells), unique=True, max_size=len(cells)))
        table = _table([_record(i, o, max_batch=data.draw(st.integers(1, 512)),
                                joules=data.draw(st.floats(1e-3, 1e6)))
                        for i, o in chosen], grid)
        measured_in = sorted({i for i, _ in chosen})
        measured_out = sorted({o for _, o in chosen})
        for b in grid.bins():
            try:
                rec = lookup(table, "vllm", "A100", b, interpolate=True)
            except ValidationError:
                continue
            if rec.provenance != "interpolated":
                continue
            ins = {max(c for c in measured_in if c <= b.input_cap),
                   min(c for c in measured_in if c >= b.input_cap)}
            outs = {max(c for c in measured_out if c <= b.output_cap),
                    min(c for c in measured_out if c >= b.output_cap)}
            corners = [table.get("vllm", "A100", Bin(i, o)) for i in ins for o in outs]
            energies = [c.per_request_joules for c in corners]
            batches = [c.max_batch for c in corners]
            assert min(energies) * (1 - 1e-12) <= rec.per_request_joules \
                <= max(energies) * (1 + 1e-12)
            assert min(batches) <= rec.max_batch <= max(batches)

    check()


def test_write_load_roundtrip(tmp_path):
    t = _table([
        _record(256, 8, max_batch=4, joules=2.0),
        _record(256, 16, joules=3.5, prefill_energy=Energy(2.0), decode_energy=Energy(1.5)),
    ])
    path = tmp_path / "table.csv"
    write_table(t, path)
    back = load_table(path)
    assert back.metadata.grid == t.metadata.grid
    assert sorted(back.records, key=lambda r: r.bin) == sorted(t.records, key=lambda r: r.bin)


def test_load_converts_units():
    text = (
        f"# input_bins = 256\n# output_bins = 8\n{HEADER}\n"
        "vllm,A100,256,8,1,2.0,Wh,,,1024,20\n"
        "tgi,A100,256,8,1,0.001,kWh,,,1024,20\n"
    )
    t = load_table(io.StringIO(text))
    assert t.get("vllm", "A100", Bin(256, 8)).batch_energy.joules == 7200.0
    assert t.get("tgi", "A100", Bin(256, 8)).batch_energy.joules == 3600.0


def test_load_rejects_bad_unit_and_header():
    text = f"# input_bins = 256\n# output_bins = 8\n{HEADER}\nvllm,A100,256,8,1,2.0,BTU,,,1024,20\n"
    with pytest.raises(ValidationError, match="energy_unit"):
        load_table(io.StringIO(text))
    with pytest.raises(ValidationError, match="header"):
        load_table(io.StringIO("a,b,c\n1,2,3\n"))


def test_load_rejects_wrong_field_count():
    text = f"# input_bins = 256\n# output_bins = 8\n{HEADER}\nvllm,A100,256,8\n"
    with pytest.raises(ValidationError, match="fields"):
        load_table(io.StringIO(text))


OVER_INT64 = "9223372036854775808"


def _row(**changes):
    """A table row on the (256, 8) grid, fields replaced by name."""
    fields = dict(backend="vllm", device="A100", input_cap="256", output_cap="8", max_batch="1",
                  batch_energy="2.0", energy_unit="J", prefill_energy="", decode_energy="",
                  samples_measured="1024", warmup_batches="20")
    fields.update(changes)
    return ",".join(fields.values())


INTEGER_COLUMNS = ("input_cap", "output_cap", "max_batch", "samples_measured", "warmup_batches")
ENERGY_COLUMNS = ("batch_energy", "prefill_energy", "decode_energy")


def _energy_row(col, value):
    # the other energy columns stay valid and the split within 0.5%
    energies = dict(batch_energy="2.0", prefill_energy="1.0", decode_energy="1.0")
    energies[col] = value
    return _row(**energies)


# Every fault a table row can have, with the exact message it is reported by;
# a row with two faults reports the one checked first.
ROW_FAULTS = [
    ("vllm,A100,x,8,1,2.0,J,,,1024,20", "input_cap is not an integer: 'x'"),
    ("vllm,A100,256,8,1,2.0,J,x,1.0,1024,20", "prefill_energy is not a number: 'x'"),
    (_row(energy_unit="BTU"), "energy_unit must be one of ['J', 'Wh', 'kWh'], got 'BTU'"),
    (_row(energy_unit=""), "energy_unit must be one of ['J', 'Wh', 'kWh'], got ''"),
    *[(_row(**{col: "1.5"}), f"{col} is not an integer: '1.5'") for col in INTEGER_COLUMNS],
    *[(_row(**{col: OVER_INT64}), f"{col} exceeds the int64 range: {OVER_INT64}")
      for col in INTEGER_COLUMNS],
    (_row(max_batch=f"-{OVER_INT64}1"), f"max_batch exceeds the int64 range: -{OVER_INT64}1"),
    (_row(batch_energy=""), "batch_energy is required"),
    (_row(batch_energy="abc"), "batch_energy is not a number: 'abc'"),
    *[(_energy_row(col, value), f"{col} must be positive and finite, got {value!r}")
      for col in ENERGY_COLUMNS for value in ("0", "-1", "inf", "nan")],
    (_row(batch_energy="1e305", energy_unit="kWh"),
     "batch_energy must be positive and finite, got '1e305'"),
    (_row(prefill_energy="1.0"), "prefill_energy and decode_energy must be given together"),
    (_row(decode_energy="1.0"), "prefill_energy and decode_energy must be given together"),
    (_row(prefill_energy="1.0", decode_energy="0.98"),
     "prefill+decode (1.98 J) differs from batch_energy (2.0 J) by more than 0.5%"),
    (_row(max_batch="0"), "max_batch must be >= 1, got 0"),
    (_row(samples_measured="0"), "samples_measured must be >= 1, got 0"),
    (_row(warmup_batches="-1"), "warmup_batches must be >= 0, got -1"),
    (_row(input_cap="999"), "bin (999, 8) is not on the table grid"),
    (_row(input_cap="0"), "bin caps must be positive, got (0, 8)"),
    (_row(output_cap="-8"), "bin caps must be positive, got (256, -8)"),
    (_row() + "\n" + _row(), "duplicate record for backend='vllm' device='A100' bin=(256, 8)"),
    (_row()[:-3], "expected 11 fields, got 10"),
    (_row(device="A\r100"), "unreadable csv (new-line character seen in unquoted field - "
                            "do you need to open the file in universal-newline mode?)"),
    pytest.param(_row(device="A" * (csv.field_size_limit() + 1)),
                 f"unreadable csv (field larger than field limit ({csv.field_size_limit()}))",
                 id="field-over-size-limit"),
    # two faults: the first in this order is reported: energy_unit, batch_energy,
    # input_cap, output_cap, max_batch, prefill_energy, decode_energy,
    # samples_measured, warmup_batches, then the record checks, then the grid
    (_row(energy_unit="BTU", input_cap="x"),
     "energy_unit must be one of ['J', 'Wh', 'kWh'], got 'BTU'"),
    (_row(batch_energy="0", input_cap="x"),
     "batch_energy must be positive and finite, got '0'"),
    (_row(batch_energy="", max_batch="x"), "batch_energy is required"),
    (_row(input_cap="x", output_cap="y"), "input_cap is not an integer: 'x'"),
    (_row(max_batch="x", prefill_energy="x"), "max_batch is not an integer: 'x'"),
    (_row(prefill_energy="0", decode_energy="x"),
     "prefill_energy must be positive and finite, got '0'"),
    (_row(decode_energy="x", samples_measured="x"), "decode_energy is not a number: 'x'"),
    (_row(samples_measured="0", warmup_batches="x"), "warmup_batches is not an integer: 'x'"),
    (_row(max_batch="0", samples_measured="0"), "max_batch must be >= 1, got 0"),
    (_row(samples_measured="0", warmup_batches="-1"), "samples_measured must be >= 1, got 0"),
    (_row(warmup_batches="-1", prefill_energy="1.0"), "warmup_batches must be >= 0, got -1"),
    (_row(prefill_energy="1.0", decode_energy="0.5", max_batch="0"),
     "max_batch must be >= 1, got 0"),
    (_row(input_cap="999", max_batch="0"), "max_batch must be >= 1, got 0"),
    (_row(input_cap="999") + "\n" + _row(input_cap="999"), "bin (999, 8) is not on the table grid"),
]


@pytest.mark.parametrize("row, message", ROW_FAULTS)
def test_load_record_error_carries_one_origin_prefix(row, message):
    text = f"# input_bins = 256\n# output_bins = 8\n{HEADER}\n{row}\n"
    with pytest.raises(ValidationError) as exc:
        load_table(io.StringIO(text))
    # the table reports a bin off its grid, or twice in it, with no line
    where = "" if message.startswith(("bin ", "duplicate record")) else "<stream>:4: "
    assert str(exc.value) == where + message


def test_load_missing_file():
    with pytest.raises(ValidationError, match="not found"):
        load_table("/nonexistent/table.csv")


def test_synthesize_covers_grid(toy_model, a100):
    grid = BinGrid(input_bins=(32, 256), output_bins=(8, 64))
    t = synthesize_table(grid, toy_model, a100, efficiency=0.5, decode_penalty=2.0)
    assert len(t.records) == 4
    assert t.configurations() == [("synthetic", "A100-PCIe")]
    for b in grid.bins():
        assert t.get("synthetic", "A100-PCIe", b) is not None


def test_synthesize_energy_formula(toy_model, a100):
    grid = BinGrid(input_bins=(256,), output_bins=(8,))
    kv = default_kv_bytes_per_token(toy_model)
    memory = 1000.0 * (256 + 8) * kv  # forces max_batch = 1000
    t = synthesize_table(grid, toy_model, a100, efficiency=0.5, decode_penalty=2.0,
                         memory_bytes=memory)
    rec = t.get("synthetic", "A100-PCIe", Bin(256, 8))
    assert rec.max_batch == 1000
    fb = request_flops(toy_model, 256, 8)
    jpf = joules_per_flop(a100)
    assert rec.prefill_energy.joules == pytest.approx(
        1000 * fb.prefill_flops * jpf / 0.5, rel=1e-12)
    assert rec.decode_energy.joules == pytest.approx(
        1000 * fb.decode_flops * 2.0 * jpf / 0.5, rel=1e-12)
    assert rec.batch_energy.joules == pytest.approx(
        rec.prefill_energy.joules + rec.decode_energy.joules, rel=1e-12)


def test_synthesize_max_batch_floor_is_one(toy_model, a100):
    grid = BinGrid(input_bins=(8192,), output_bins=(512,))
    t = synthesize_table(grid, toy_model, a100, efficiency=1.0, decode_penalty=1.0,
                         memory_bytes=1.0)
    assert t.get("synthetic", "A100-PCIe", Bin(8192, 512)).max_batch == 1


def test_synthesize_protocol_fields(toy_model, a100):
    grid = BinGrid(input_bins=(32, 8192), output_bins=(8,))
    kv = default_kv_bytes_per_token(toy_model)
    memory = 300.0 * (32 + 8) * kv  # batch 300 at (32, 8), tiny at (8192, 8)
    t = synthesize_table(grid, toy_model, a100, efficiency=1.0, decode_penalty=1.0,
                         memory_bytes=memory)
    small = t.get("synthetic", "A100-PCIe", Bin(32, 8))
    large_seq = t.get("synthetic", "A100-PCIe", Bin(8192, 8))
    assert small.max_batch == 300
    assert small.samples_measured == 4096
    assert large_seq.max_batch <= 256
    assert large_seq.samples_measured == 1024
    assert small.warmup_batches == 20


def test_synthesize_validates_arguments(toy_model, a100):
    grid = BinGrid(input_bins=(32,), output_bins=(8,))
    with pytest.raises(ValidationError):
        synthesize_table(grid, toy_model, a100, efficiency=0.0, decode_penalty=1.0)
    with pytest.raises(ValidationError):
        synthesize_table(grid, toy_model, a100, efficiency=1.5, decode_penalty=1.0)
    with pytest.raises(ValidationError):
        synthesize_table(grid, toy_model, a100, efficiency=1.0, decode_penalty=0.5)
    for memory_bytes in (0.0, math.inf, math.nan):
        with pytest.raises(ValidationError):
            synthesize_table(grid, toy_model, a100, efficiency=1.0, decode_penalty=1.0,
                             memory_bytes=memory_bytes)


def test_default_kv_bytes(toy_model):
    # 2 tensors * 1 layer * 1 kv head * head_dim 4 * 2 bytes
    assert default_kv_bytes_per_token(toy_model) == 16
