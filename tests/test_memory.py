"""Memory guards for the trace commands, measured with tracemalloc, which
counts numpy's array buffers as well as Python objects.

A trace command holds the two int64 token columns of its trace. Reading
them adds at most one text block's worth of temporaries and a little growth
room, binning adds temporaries of one slice, not of the trace, and
statistics one sorted copy of a column and one slice's temporaries.
"""

import tracemalloc

import numpy as np
import pytest

from tokenwatt import DEFAULT_GRID, Request, TraceSource, bin_arrays, compute_stats, load_trace
from tokenwatt import binning, ingest
from tokenwatt.core import RequestColumns


def _traced_peak(call) -> int:
    """Bytes allocated by `call()` at its peak, beyond what was held before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture
def columns(rng):
    # 400,000 rows shaped like a real trace: 3.2 MB per column
    n = 400_000
    return (np.floor(rng.lognormal(6.3, 1.1, n)).astype(np.int64),
            np.floor(rng.lognormal(4.2, 1.0, n)).astype(np.int64))


def test_binning_allocates_per_slice_not_per_trace(columns):
    inputs, outputs = columns
    # about 34 bytes a row of one slice; binning all rows at once takes 26
    # bytes a row of the trace, 10.5 MB here
    assert _traced_peak(lambda: bin_arrays(inputs, outputs, DEFAULT_GRID)) \
        <= 48 * binning._BIN_SLICE


@pytest.mark.parametrize("values", ["lognormal", "all distinct"])
def test_stats_allocate_about_one_column_copy(columns, values):
    inputs = columns[0] if values == "lognormal" else \
        np.random.default_rng(7).permutation(len(columns[0])).astype(np.int64) << 40
    # a sorted copy and one slice's temporaries take 1.1-1.3 columns; a
    # sorted copy plus float temporaries take 2, and np.unique over the
    # whole column 1.25 for few distinct values and 4 for all distinct,
    # more than twice that with their Python ints
    assert _traced_peak(lambda: compute_stats(inputs)) <= 1.5 * inputs.nbytes


def test_loading_allocates_the_columns_and_one_block(tmp_path, columns):
    # 200,000 rows: tracemalloc slows every line string numpy reads
    inputs, outputs = (c[:200_000] for c in columns)
    path = tmp_path / "trace.csv"
    path.write_text("input_tokens,output_tokens\n" + "".join(
        f"{i},{o}\n" for i, o in zip(inputs.tolist(), outputs.tolist())), encoding="utf-8")
    column_bytes = inputs.nbytes + outputs.nbytes
    load = []
    peak = _traced_peak(lambda: load.append(load_trace(TraceSource(str(path), "generic-csv"))))
    assert load[0].requests.inputs.tolist() == inputs.tolist()
    # a block's text, its UCS-4 copy and its tokens take about 5 bytes per
    # character; joining per-block parts at the end would take 1.5 columns
    # on its own, and keeping every line string for a while far more
    assert peak <= 1.25 * column_bytes + 8 * ingest._CHUNK_CHARS


def test_slicing_trace_columns_builds_only_the_slice(columns):
    cols = RequestColumns(*columns)
    got = []
    # building every Request of the trace first takes about 200 bytes a row
    assert _traced_peak(lambda: got.append(cols[2:5])) <= 4096
    assert got[0] == [Request(int(columns[0][k]), int(columns[1][k])) for k in (2, 3, 4)]
    assert cols[::-200_000] == [Request(int(columns[0][k]), int(columns[1][k]))
                                for k in (399_999, 199_999)]
