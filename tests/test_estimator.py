import pytest

from tokenwatt import (
    ESTIMATE_MODES,
    Bin,
    BinGrid,
    BinnedWorkload,
    Energy,
    HardwareSpec,
    MeasurementRecord,
    MeasurementTable,
    ModelConfig,
    TableMetadata,
    ValidationError,
    WorkloadEstimate,
    estimate,
    joules_per_flop,
    request_flops,
    synthesize_table,
)

GRID = BinGrid(input_bins=(256, 1024), output_bins=(8, 64))


def _rec(input_cap, output_cap, max_batch, joules, split=None, backend="vllm"):
    prefill = decode = None
    if split is not None:
        prefill, decode = Energy(split[0]), Energy(split[1])
    return MeasurementRecord(
        backend=backend, device="A100", input_cap=input_cap, output_cap=output_cap,
        max_batch=max_batch, batch_energy=Energy(joules),
        prefill_energy=prefill, decode_energy=decode,
    )


def _table(records):
    return MeasurementTable(records=tuple(records), metadata=TableMetadata(grid=GRID))


@pytest.fixture
def fixture_workload():
    return BinnedWorkload(grid=GRID, counts={Bin(256, 8): 2, Bin(1024, 64): 1})


@pytest.fixture
def fixture_table():
    return _table([_rec(256, 8, 4, 2.0), _rec(1024, 64, 2, 10.0)])


def test_fractional_total(fixture_workload, fixture_table):
    est = estimate(fixture_workload, fixture_table, "vllm", "A100")
    assert est.total.joules == 6.0
    assert est.mode == "fractional"
    assert [be.batches for be in est.per_bin] == [0.5, 0.5]
    assert est.label == "vllm"
    assert est.total_requests == 3


def test_ceiling_total(fixture_workload, fixture_table):
    est = estimate(fixture_workload, fixture_table, "vllm", "A100", mode="ceiling")
    assert est.total.joules == 12.0
    assert [be.batches for be in est.per_bin] == [1.0, 1.0]


def test_ceiling_rounds_partial_batches():
    w = BinnedWorkload(grid=GRID, counts={Bin(256, 8): 5})
    t = _table([_rec(256, 8, 4, 2.0)])
    est = estimate(w, t, "vllm", "A100", mode="ceiling")
    assert est.per_bin[0].batches == 2.0
    assert est.total.joules == 4.0


def test_missing_record_names_bin(fixture_workload):
    t = _table([_rec(256, 8, 4, 2.0)])
    with pytest.raises(ValidationError, match=r"\(1024, 64\)"):
        estimate(fixture_workload, t, "vllm", "A100")


def test_unknown_mode_rejected(fixture_workload, fixture_table):
    with pytest.raises(ValidationError, match="mode must be one of"):
        estimate(fixture_workload, fixture_table, "vllm", "A100", mode="optimistic")
    # the estimate checks its mode once every bin is priced
    with pytest.raises(ValidationError, match=r"\(1024, 64\)"):
        estimate(fixture_workload, _table([_rec(256, 8, 4, 2.0)]), "vllm", "A100",
                 mode="optimistic")


def test_negative_excluded_requests_rejected():
    with pytest.raises(ValidationError, match="excluded_requests must be >= 0"):
        WorkloadEstimate(per_bin=(), excluded_requests=-1, mode="fractional",
                         backend="vllm", device="A100", label="vllm")


def test_empty_workload_zero_energy(fixture_table):
    est = estimate(BinnedWorkload(grid=GRID), fixture_table, "vllm", "A100")
    assert est.total.joules == 0.0
    assert est.per_bin == ()


def test_excluded_requests_surface_but_never_charge(fixture_table):
    w = BinnedWorkload(grid=GRID, counts={Bin(256, 8): 2},
                       excluded_input=7, excluded_output=3)
    est = estimate(w, fixture_table, "vllm", "A100")
    assert est.excluded_requests == 10
    assert est.total.joules == 1.0


def test_split_propagates_when_all_records_carry_it(fixture_workload):
    t = _table([
        _rec(256, 8, 4, 2.0, split=(1.5, 0.5)),
        _rec(1024, 64, 2, 10.0, split=(4.0, 6.0)),
    ])
    est = estimate(fixture_workload, t, "vllm", "A100")
    assert est.prefill_total.joules == 0.5 * 1.5 + 0.5 * 4.0
    assert est.decode_total.joules == 0.5 * 0.5 + 0.5 * 6.0


def test_split_absent_when_any_record_lacks_it(fixture_workload):
    t = _table([
        _rec(256, 8, 4, 2.0, split=(1.5, 0.5)),
        _rec(1024, 64, 2, 10.0),
    ])
    est = estimate(fixture_workload, t, "vllm", "A100")
    assert est.prefill_total is None
    assert est.decode_total is None
    assert est.per_bin[0].prefill_energy is not None
    assert est.per_bin[1].prefill_energy is None


def test_interpolated_bins_are_flagged():
    grid = BinGrid(input_bins=(256,), output_bins=(8, 16, 32))
    t = MeasurementTable(
        records=(
            MeasurementRecord(backend="vllm", device="A100", input_cap=256, output_cap=8,
                              max_batch=1, batch_energy=Energy(1.0)),
            MeasurementRecord(backend="vllm", device="A100", input_cap=256, output_cap=32,
                              max_batch=1, batch_energy=Energy(4.0)),
        ),
        metadata=TableMetadata(grid=grid),
    )
    w = BinnedWorkload(grid=grid, counts={Bin(256, 16): 3})
    with pytest.raises(ValidationError):
        estimate(w, t, "vllm", "A100")
    est = estimate(w, t, "vllm", "A100", interpolate=True)
    assert est.per_bin[0].provenance == "interpolated"
    assert est.total.joules == pytest.approx(3 * 2.0, rel=1e-12)


def test_custom_label(fixture_workload, fixture_table):
    est = estimate(fixture_workload, fixture_table, "vllm", "A100", label="vllm-a100")
    assert est.label == "vllm-a100"


def test_estimate_is_at_least_the_flops_floor():
    """A synthetic table of efficiency <= 1 and decode penalty >= 1 prices
    every bin, measured or interpolated, at or above its FLOPs floor. Each
    FLOPs term is a positive monomial in the caps, so log-energy is convex in
    log-caps and log-log interpolation between measured caps stays above it.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    models = [
        ModelConfig(n_layers=1, d_model=4, n_heads=1, n_kv_heads=1, d_ff=8, vocab_size=10),
        ModelConfig(n_layers=32, d_model=4096, n_heads=32, n_kv_heads=8, d_ff=14336,
                    vocab_size=32000),
    ]

    def caps(top):
        return st.lists(st.integers(1, top), min_size=1, max_size=6, unique=True).map(sorted)

    @hypothesis.given(caps(32768), caps(4096), st.sampled_from(models),
                      st.floats(1e-6, 1.0), st.floats(1.0, 1e3), st.floats(1.0, 1e3),
                      st.data())
    def check(input_caps, output_caps, model, efficiency, decode_penalty, tdp, data):
        grid = BinGrid(input_bins=tuple(input_caps), output_bins=tuple(output_caps))
        hw = HardwareSpec(name="gpu", tdp=tdp, peak_flops=1e14)
        full = synthesize_table(grid, model, hw, efficiency, decode_penalty)
        # Measuring both end caps of each axis and any caps between them
        # leaves every bin inside the measured hull, with its corners measured.
        kept_inputs = {input_caps[0], input_caps[-1]} | data.draw(
            st.sets(st.sampled_from(input_caps)))
        kept_outputs = {output_caps[0], output_caps[-1]} | data.draw(
            st.sets(st.sampled_from(output_caps)))
        table = MeasurementTable(
            records=tuple(r for r in full.records
                          if r.input_cap in kept_inputs and r.output_cap in kept_outputs),
            metadata=full.metadata,
        )
        counts = data.draw(st.dictionaries(st.sampled_from(grid.bins()),
                                           st.integers(1, 10**9), min_size=1))
        workload = BinnedWorkload(grid=grid, counts=counts)
        for mode in ESTIMATE_MODES:
            est = estimate(workload, table, "synthetic", "gpu", mode=mode, interpolate=True)
            for be in est.per_bin:
                flops = request_flops(model, be.bin.input_cap, be.bin.output_cap).total
                floor = be.count * flops * joules_per_flop(hw)
                assert be.energy.joules >= floor * (1 - 1e-12), (mode, be, floor)

    check()
