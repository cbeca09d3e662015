import io
from unittest import mock

import numpy as np
import pytest

from tokenwatt import binning

from tokenwatt import (
    Bin,
    BinGrid,
    BinnedWorkload,
    DEFAULT_GRID,
    RequestColumns,
    ValidationError,
    bin_arrays,
    bin_workload,
    read_binned_csv,
    write_binned_csv,
)
from oracles import INPUT_OVERFLOW, OUTPUT_OVERFLOW, oracle_map_to_bin


def map_to_bin(input_tokens, output_tokens, grid=DEFAULT_GRID):
    """Where bin_arrays puts one request: its bin, or the oracle's overflow marker."""
    workload = bin_arrays([input_tokens], [output_tokens], grid)
    assert sum(workload.counts.values()) + workload.total_excluded == 1
    if workload.excluded_input:
        return INPUT_OVERFLOW
    if workload.excluded_output:
        return OUTPUT_OVERFLOW
    (target,) = workload.counts
    return target


def _oracle_workload(pairs, grid):
    """The counts and exclusion tallies oracle_map_to_bin gives `pairs`."""
    expected: dict[Bin, int] = {}
    overflow = {INPUT_OVERFLOW: 0, OUTPUT_OVERFLOW: 0}
    for i, o in pairs:
        target = oracle_map_to_bin(i, o, grid)
        if target in overflow:
            overflow[target] += 1
        else:
            expected[target] = expected.get(target, 0) + 1
    return expected, overflow[INPUT_OVERFLOW], overflow[OUTPUT_OVERFLOW]


def test_map_to_bin_rounds_up():
    assert map_to_bin(215, 7) == Bin(256, 8)
    assert map_to_bin(929, 41) == Bin(1024, 64)
    assert map_to_bin(33, 9) == Bin(128, 16)


def test_map_to_bin_exact_caps_stay_in_bin():
    assert map_to_bin(32, 8) == Bin(32, 8)
    assert map_to_bin(8192, 512) == Bin(8192, 512)


def test_map_to_bin_zero_maps_to_smallest():
    assert map_to_bin(0, 0) == Bin(32, 8)


def test_map_to_bin_overflow():
    assert map_to_bin(8193, 8) == INPUT_OVERFLOW
    assert map_to_bin(100, 513) == OUTPUT_OVERFLOW
    # input overflow wins when both dimensions are over
    assert map_to_bin(9000, 600) == INPUT_OVERFLOW
    assert map_to_bin(2**63 - 1, 2**63 - 1) == INPUT_OVERFLOW


def test_default_input_bins_skip_64():
    assert map_to_bin(33, 8) == Bin(128, 8)
    assert map_to_bin(64, 8) == Bin(128, 8)
    assert map_to_bin(128, 8) == Bin(128, 8)


def test_bin_arrays_matches_scalar_path(rng):
    inputs = rng.integers(0, 10000, size=5000)
    outputs = rng.integers(0, 700, size=5000)
    workload = bin_arrays(inputs, outputs, DEFAULT_GRID)
    expected = _oracle_workload(zip(inputs.tolist(), outputs.tolist()), DEFAULT_GRID)
    assert (workload.counts, workload.excluded_input, workload.excluded_output) == expected
    assert sum(workload.counts.values()) + workload.total_excluded == 5000


def test_bin_arrays_agrees_with_map_to_bin_on_any_grid():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    caps = st.lists(st.integers(1, 5000), min_size=1, max_size=8, unique=True).map(sorted)
    tokens = st.integers(0, 6000) | st.sampled_from([0, 1, 2**63 - 1])

    @hypothesis.given(caps, caps, st.lists(st.tuples(tokens, tokens), max_size=60))
    def check(input_bins, output_bins, pairs):
        grid = BinGrid(input_bins=tuple(input_bins), output_bins=tuple(output_bins))
        columns = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        workload = bin_arrays(columns[:, 0], columns[:, 1], grid)
        assert (workload.counts, workload.excluded_input, workload.excluded_output) == \
            _oracle_workload(pairs, grid)

    check()


def _bin_in_one_pass(columns, grid):
    with mock.patch.object(binning, "_BIN_SLICE", len(columns) + 1):
        return bin_arrays(columns[:, 0], columns[:, 1], grid)


@pytest.mark.parametrize("slice_rows", [1, 2, 7])
def test_sliced_binning_equals_one_pass(slice_rows):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    caps = st.lists(st.integers(1, 5000), min_size=1, max_size=8, unique=True).map(sorted)
    tokens = st.integers(0, 6000) | st.sampled_from([0, 1, 2**63 - 1])
    rows = st.lists(st.tuples(tokens, tokens), max_size=60).map(
        lambda pairs: np.array(pairs, dtype=np.int64).reshape(-1, 2))

    @hypothesis.given(caps, caps, rows)
    def check(input_bins, output_bins, columns):
        grid = BinGrid(input_bins=tuple(input_bins), output_bins=tuple(output_bins))
        whole = _bin_in_one_pass(columns, grid)
        with mock.patch.object(binning, "_BIN_SLICE", slice_rows):
            assert bin_arrays(columns[:, 0], columns[:, 1], grid) == whole

    check()


def test_default_slices_equal_one_pass(rng):
    # 200,000 rows span the default slice three times and end in a partial one
    columns = np.column_stack([rng.integers(0, 9000, 200_000), rng.integers(0, 600, 200_000)])
    assert bin_arrays(columns[:, 0], columns[:, 1], DEFAULT_GRID) == \
        _bin_in_one_pass(columns, DEFAULT_GRID)


def test_bin_arrays_rejects_negative():
    with pytest.raises(ValidationError):
        bin_arrays(np.array([-1]), np.array([2]), DEFAULT_GRID)


def test_bin_workload_from_requests(small_grid):
    w = bin_workload(RequestColumns([10, 200, 2000, 100], [3, 64, 3, 100]), small_grid)
    assert w.counts == {Bin(32, 8): 1, Bin(256, 64): 1}
    assert w.excluded_input == 1
    assert w.excluded_output == 1


def test_bin_workload_default_grid():
    w = bin_workload(RequestColumns([215], [7]))
    assert w.grid == DEFAULT_GRID
    assert w.counts == {Bin(256, 8): 1}


def test_workload_validation(small_grid):
    with pytest.raises(ValidationError):
        BinnedWorkload(grid=small_grid, counts={Bin(999, 8): 1})
    with pytest.raises(ValidationError):
        BinnedWorkload(grid=small_grid, counts={Bin(32, 8): -1})
    with pytest.raises(ValidationError):
        BinnedWorkload(grid=small_grid, excluded_input=-1)


def test_workload_add(small_grid):
    a = BinnedWorkload(grid=small_grid, counts={Bin(32, 8): 2}, excluded_input=1)
    b = BinnedWorkload(grid=small_grid, counts={Bin(32, 8): 3, Bin(256, 64): 1},
                       excluded_output=2)
    merged = a + b
    assert merged.counts == {Bin(32, 8): 5, Bin(256, 64): 1}
    assert merged.excluded_input == 1
    assert merged.excluded_output == 2
    with pytest.raises(ValidationError):
        a + BinnedWorkload(grid=DEFAULT_GRID)
    assert a.__add__(1) is NotImplemented
    with pytest.raises(TypeError):
        a + 1


def test_sorted_counts_drops_zero_bins(small_grid):
    w = BinnedWorkload(grid=small_grid, counts={Bin(256, 64): 1, Bin(32, 8): 0})
    assert w.sorted_counts() == [(Bin(256, 64), 1)]
    assert sum(w.counts.values()) == 1


def test_binned_csv_roundtrip(small_grid):
    w = BinnedWorkload(grid=small_grid,
                       counts={Bin(32, 8): 5, Bin(1024, 64): 2},
                       excluded_input=3, excluded_output=1)
    buf = io.StringIO()
    write_binned_csv(w, buf)
    back = read_binned_csv(io.StringIO(buf.getvalue()))
    assert back == w


def test_binned_csv_file_roundtrip(tmp_path, small_grid):
    w = BinnedWorkload(grid=small_grid, counts={Bin(128, 8): 4})
    path = tmp_path / "binned.csv"
    write_binned_csv(w, path)
    assert read_binned_csv(path) == w


def test_binned_csv_requires_grid_comments():
    with pytest.raises(ValidationError, match="input_bins"):
        read_binned_csv(io.StringIO("input_cap,output_cap,count\n32,8,1\n"))


@pytest.mark.parametrize("rows, message", [
    ("32,8,1\n32,8,2\n", "duplicate bin rows"),
    ("32,8,0\n32,8,2\n", "duplicate bin rows"),
    ("32,8,0\n32,8,0\n", "duplicate bin rows"),
    ("128,8,-5\n", "count for bin Bin(input_cap=128, output_cap=8) must be nonnegative, got -5"),
    ("999,8,0\n", "bin Bin(input_cap=999, output_cap=8) is not on the grid"),
    ("999,8,3\n", "bin Bin(input_cap=999, output_cap=8) is not on the grid"),
    ("0,8,0\n", "bin caps must be positive, got (0, 8)"),
], ids=["duplicate", "duplicate_zero", "duplicate_zeros", "negative", "off_grid_zero",
        "off_grid", "zero_cap"])
def test_binned_csv_rejects_bad_rows(tmp_path, rows, message):
    # every row is checked, a zero count's too, and the message names the file
    path = tmp_path / "binned.csv"
    path.write_text("# input_bins = 32,128\n# output_bins = 8\n"
                    "input_cap,output_cap,count\n" + rows, encoding="utf-8")
    with pytest.raises(ValidationError) as caught:
        read_binned_csv(path)
    assert str(caught.value) == f"{path}: {message}"


def test_counts_total_accounts_for_every_request(rng):
    inputs = rng.integers(0, 20000, size=5000)
    outputs = rng.integers(0, 2000, size=5000)
    w = bin_arrays(inputs, outputs, DEFAULT_GRID)
    assert sum(w.counts.values()) + w.excluded_input + w.excluded_output == 5000


def test_exclusion_priority_input_first():
    w = bin_arrays(np.array([9000, 10, 9000]), np.array([600, 600, 5]), DEFAULT_GRID)
    assert w.counts == {}
    assert (w.excluded_input, w.excluded_output) == (2, 1)


def test_length_mismatch_rejected():
    with pytest.raises(ValidationError, match="unequal token columns: 2 and 1 rows"):
        bin_arrays(np.array([1, 2]), np.array([1]), DEFAULT_GRID)

