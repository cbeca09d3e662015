"""Memory guards for the trace commands, measured with tracemalloc, which
counts numpy's array buffers as well as Python objects, and as the peak RSS
of whole `tokenwatt` processes.

A trace command holds the two token columns of its trace, uint32 while
every count fits, so 8 bytes per request. Reading them adds at most one text
block's worth of temporaries and a little growth room, binning adds
temporaries of one slice, not of the trace, and statistics one sorted copy
of a column, in the narrowest unsigned type that holds its values, and one
slice's temporaries.
"""

import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tokenwatt import (DEFAULT_GRID, RequestColumns, bin_arrays, compute_stats, load_trace,
                       synthesize_table, write_table)
from tokenwatt import binning, ingest

from conftest import cli_env

BURSTGPT_COLUMNS = {"input_column": "Request tokens", "output_column": "Response tokens"}


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


def _write_trace(path: Path, inputs, outputs, shape: str) -> tuple[list[int], list[int]]:
    """Write `inputs` and `outputs` as a trace of `shape` and return the
    token columns a permissive load of it gives.

    A "clean" trace has only the two token columns. A "BurstGPT" trace has
    BurstGPT's six columns, and one token cell in every 500 rows is
    malformed (empty, negative, non-integer or `1.5`), so that its blocks go
    the sifted way."""
    if shape == "clean":
        path.write_text("input_tokens,output_tokens\n" + "".join(
            f"{i},{o}\n" for i, o in zip(inputs.tolist(), outputs.tolist())), encoding="utf-8")
        return inputs.tolist(), outputs.tolist()
    rows, kept = [], ([], [])
    for k, (i, o) in enumerate(zip(inputs.tolist(), outputs.tolist())):
        cells = [str(i), str(o)]
        if k % 500 == 250:
            cells[k // 500 % 2] = ("", "-3", "x", "1.5")[k // 1000 % 4]
        else:
            kept[0].append(i)
            kept[1].append(o)
        rows.append(f"{k},ChatGPT,{cells[0]},{cells[1]},{i + o},Conversation log\n")
    path.write_text("Timestamp,Model,Request tokens,Response tokens,Total tokens,Log Type\n"
                    + "".join(rows), encoding="utf-8")
    return kept


def test_binning_allocates_per_slice_not_per_trace(columns):
    inputs, outputs = columns
    # about 34 bytes a row of one slice; binning all rows at once takes 26
    # bytes a row of the trace, 10.5 MB here
    assert _traced_peak(lambda: bin_arrays(inputs, outputs, DEFAULT_GRID)) \
        <= 48 * binning._BIN_SLICE


def test_checking_int64_columns_copies_nothing(columns):
    # the check of each column is one min pass; a copy would take 3.2 MB
    assert _traced_peak(lambda: RequestColumns(*columns)) <= 4096


def test_checking_uint32_columns_copies_nothing(columns):
    # a uint32 column needs no check at all; an int64 copy would take 3.2 MB
    inputs, outputs = (c.astype(np.uint32) for c in columns)
    cols = []
    assert _traced_peak(lambda: cols.append(RequestColumns(inputs, outputs))) <= 4096
    assert cols[0].inputs is inputs and cols[0].outputs is outputs


@pytest.mark.parametrize("values", ["lognormal", "all distinct"])
def test_stats_allocate_about_one_column_copy(columns, values):
    inputs = columns[0] if values == "lognormal" else \
        np.random.default_rng(7).permutation(len(columns[0])).astype(np.int64) << 40
    # lognormal lengths fit in uint32, so their sorted copy takes half a
    # column and one slice's temporaries a few percent more; an int64 copy
    # would take 1.1-1.3 columns. All-distinct values past 2**32 keep an
    # 8-byte copy. A sorted copy plus float temporaries take 2, and
    # np.unique over the whole column 1.25 for few distinct values and 4 for
    # all distinct, more than twice that with their Python ints
    bound = 0.6 if values == "lognormal" else 1.5
    assert _traced_peak(lambda: compute_stats(inputs)) <= bound * inputs.nbytes


@pytest.mark.parametrize("shape", ["clean", "BurstGPT"])
def test_loading_allocates_the_columns_and_one_block(tmp_path, columns, shape):
    # 200,000 rows: tracemalloc slows every line string numpy reads
    inputs, outputs = (c[:200_000] for c in columns)
    path = tmp_path / "trace.csv"
    kept = _write_trace(path, inputs, outputs, shape)
    options = {} if shape == "clean" else dict(BURSTGPT_COLUMNS, permissive=True)
    load = []
    peak = _traced_peak(lambda: load.append(load_trace(str(path), **options)))
    requests = load[0].requests
    assert (requests.inputs.tolist(), requests.outputs.tolist()) == kept
    assert load[0].malformed_count == len(inputs) - len(kept[0])
    assert requests.inputs.dtype == requests.outputs.dtype == np.uint32
    column_bytes = 4 * 2 * len(requests)
    # the columns grow by an eighth at a time; a block's text, its UCS-4
    # copy, its lines and its tokens take 7-9 bytes per character. Int64
    # columns would take twice the bytes, joining per-block parts at the end
    # 1.5 columns on its own, and keeping every line string for a while far
    # more
    assert peak <= 1.125 * column_bytes + 12 * ingest._CHUNK_CHARS


# Each command is started by a small launcher that reads its peak RSS from
# os.wait4: on Linux a child inherits the peak RSS of the process that
# starts it, and this one, running the test suite, may be larger than any
# tokenwatt command.
_LAUNCHER = ("import os, sys\n"
             "pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)\n"
             "_, status, usage = os.wait4(pid, 0)\n"
             "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n")


def _peak_rss(*args: str) -> int:
    """Peak RSS in bytes of `python *args`, run on the tokenwatt under test;
    the process must exit 0."""
    proc = subprocess.run([sys.executable, "-S", "-c", _LAUNCHER, sys.executable, *args],
                          env=cli_env(), capture_output=True, text=True, check=True)
    code, kib = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    return kib * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB, inherited as on Linux")
@pytest.mark.parametrize("command", ["stats", "bin", "estimate"])
def test_trace_command_holds_its_columns_and_a_fixed_working_set(tmp_path, columns, command,
                                                                  toy_model, a100):
    # 300,000 BurstGPT rows hold 2.4 MB of uint32 columns. A command grows
    # beyond `import numpy, tokenwatt.cli` by those and its working set (one
    # text block, one slice, one narrow sorted copy, a default-grid table):
    # 5.5-6.2 MB for stats and bin and 4-4.8 MB for estimate; with int64
    # columns 6.9-8.3 MB
    rows = 300_000
    inputs, outputs = (c[:rows] for c in columns)
    path = tmp_path / "trace.csv"
    _write_trace(path, inputs, outputs, "BurstGPT")
    pricing = []
    if command == "estimate":
        table = tmp_path / "table.csv"
        write_table(synthesize_table(DEFAULT_GRID, toy_model, a100, efficiency=0.5,
                                     decode_penalty=2.0, backend="vllm"), table)
        pricing = ["--table", str(table), "--backend", "vllm", "--device", a100.name]
    base = _peak_rss("-c", "import numpy, tokenwatt.cli")
    peak = _peak_rss("-m", "tokenwatt", command, "--trace", str(path), "--permissive",
                     "--input-column", BURSTGPT_COLUMNS["input_column"],
                     "--output-column", BURSTGPT_COLUMNS["output_column"],
                     "--out", str(tmp_path / command), *pricing)
    assert peak - base <= 8 * rows + (4 << 20)
