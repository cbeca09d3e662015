"""Every csv tokenwatt writes loads back, whatever its names hold.

A table, binned workload or csv report with arbitrary backend, device,
label and metadata text either reads back to what was written, or the
writer refuses it with a ValidationError: exactly when some text has a line
break or leading or trailing whitespace, or a row's first field starts with
`#`.
"""

import csv
import io
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

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
    load_table,
    read_binned_csv,
    write_binned_csv,
    write_table,
)
from tokenwatt.csvio import read_csv
from conftest import estimate_entry

# every character but lone surrogates (which UTF-8 cannot encode), with the
# ones the format treats specially drawn often
TEXT = st.text(st.one_of(st.sampled_from(' ,"#=\r\n\t\x0c\x1c\u2028'),
                         st.characters(blacklist_categories=("Cs",))), max_size=6)
CAPS = st.lists(st.integers(1, 10**6), min_size=1, max_size=4, unique=True).map(sorted)
JOULES = st.floats(min_value=1e-300, max_value=1e300)


def _writable(value: str) -> bool:
    return value == value.strip() and "\n" not in value and "\r" not in value


@st.composite
def tables(draw):
    grid = BinGrid(tuple(draw(CAPS)), tuple(draw(CAPS)))
    names = st.tuples(TEXT, TEXT)
    keys = draw(st.lists(st.tuples(names, st.sampled_from(grid.bins())), max_size=6,
                         unique=True))
    records = []
    for (backend, device), b in keys:
        joules = draw(JOULES)
        share = draw(st.none() | st.floats(0.01, 0.99))
        records.append(MeasurementRecord(
            backend=backend, device=device, input_cap=b.input_cap, output_cap=b.output_cap,
            max_batch=draw(st.integers(1, 10**12)), batch_energy=Energy(joules),
            prefill_energy=None if share is None else Energy(joules * share),
            decode_energy=None if share is None else Energy(joules * (1 - share)),
            samples_measured=draw(st.integers(1, 10**6)),
            warmup_batches=draw(st.integers(0, 10**6)),
        ))
    metadata = TableMetadata(grid=grid, protocol_samples=draw(st.integers(1, 10**6)),
                             normalization_note=draw(TEXT), padding_policy=draw(TEXT))
    return MeasurementTable(records=tuple(records), metadata=metadata)


def _key(r: MeasurementRecord):
    return (r.backend, r.device, r.input_cap, r.output_cap)


@given(tables())
def test_table_loads_back_or_is_refused(table):
    md = table.metadata
    writable = _writable(md.normalization_note) and _writable(md.padding_policy) and all(
        _writable(r.backend) and _writable(r.device) and not r.backend.startswith("#")
        for r in table.records)
    buf = io.StringIO()
    try:
        write_table(table, buf)
    except ValidationError:
        assert not writable
        return
    assert writable
    back = load_table(io.StringIO(buf.getvalue()))
    assert back.metadata == md
    assert sorted(back.records, key=_key) == sorted(table.records, key=_key)


@given(st.data())
def test_binned_workload_loads_back(data):
    grid = BinGrid(tuple(data.draw(CAPS)), tuple(data.draw(CAPS)))
    counts = data.draw(st.dictionaries(st.sampled_from(grid.bins()), st.integers(1, 10**12)))
    w = BinnedWorkload(grid=grid, counts=counts,
                       excluded_input=data.draw(st.integers(0, 10**12)),
                       excluded_output=data.draw(st.integers(0, 10**12)))
    buf = io.StringIO()
    write_binned_csv(w, buf)
    assert read_binned_csv(io.StringIO(buf.getvalue())) == w


def _fields(fields: list[str], where: str) -> list[str]:
    return fields


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(l for l in io.StringIO(text) if not l.startswith("#")))


@given(st.lists(TEXT, min_size=1, max_size=4, unique=True), TEXT, st.data())
def test_comparison_csv_rows_read_back(labels, dataset, data):
    energies = [data.draw(JOULES) for _ in labels]
    optimal = data.draw(JOULES)
    # a percentage beyond float range is refused, not written as inf
    finite = all(math.isfinite(100.0 * (e - optimal) / optimal)
                 and math.isfinite(100.0 * (1.0 - e / energies[0])) for e in energies)
    try:
        c = compare(list(map(estimate_entry, labels, energies)), optimal=Energy(optimal),
                    reference_label=labels[0], dataset=dataset)
    except ValidationError as exc:
        assert not finite and str(exc).endswith(" is not finite")
        return
    assert finite
    writable = all(map(_writable, [dataset, *labels])) and not any(
        label.startswith("#") for label in labels)
    try:
        text = emit_report(c, "csv")
    except ValidationError:
        assert not writable
        return
    assert writable
    header, *rows = _rows(text)
    assert rows == [[e.label, repr(e.energy.joules), repr(e.pct_delta_vs_optimal),
                     "" if e.savings_vs_reference is None else repr(e.savings_vs_reference)]
                    for e in c.entries]
    meta = read_csv(io.StringIO(text), header, "report", _fields).meta
    assert (meta["dataset"], meta["reference"]) == (dataset, labels[0])


@given(TEXT, TEXT)
def test_baseline_csv_rows_read_back(dataset, model):
    b = BaselineReport(dataset=dataset, model_name=model, optimal=Energy(2.5),
                       j_per_flop=1e-12, prefill_flops=10**20, decode_flops=3,
                       excluded_requests=4)
    try:
        text = emit_report(b, "csv")
    except ValidationError:
        assert not (_writable(dataset) and _writable(model))
        return
    assert _writable(dataset) and _writable(model)
    assert _rows(text) == [
        ["key", "value"], ["dataset", dataset], ["model", model], ["optimal_j", "2.5"],
        ["j_per_flop", "1e-12"], ["prefill_flops", str(10**20)], ["decode_flops", "3"],
        ["total_flops", str(10**20 + 3)], ["excluded_requests", "4"],
    ]


@given(TEXT, TEXT, TEXT, TEXT)
def test_estimate_and_stats_csv_read_back(label, backend, device, dataset):
    grid = BinGrid((256,), (8,))
    table = MeasurementTable(
        records=(MeasurementRecord(backend=backend, device=device, input_cap=256,
                                   output_cap=8, max_batch=4, batch_energy=Energy(2.0)),),
        metadata=TableMetadata(grid=grid))
    est = estimate(BinnedWorkload(grid=grid, counts={Bin(256, 8): 3}), table, backend,
                   device, label=label)
    stats = compute_stats([1, 2, 4])
    trace = TraceReport(dataset=dataset, count=3, input_stats=stats, output_stats=stats)
    for report, meta in ((est, {"label": est.label, "backend": backend, "device": device}),
                         (trace, {"dataset": dataset})):
        try:
            text = emit_report(report, "csv")
        except ValidationError:
            assert not all(map(_writable, meta.values()))
            continue
        assert all(map(_writable, meta.values()))
        header, *rows = _rows(text)
        back = read_csv(io.StringIO(text), header, "report", _fields)
        assert {k: back.meta[k] for k in meta} == meta
        assert back.rows == rows
