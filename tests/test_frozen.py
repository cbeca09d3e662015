"""Every value class against a twin made by the standard library's
dataclasses from the same fields and defaults: they must agree on equality,
hashing, repr, ordering, refused assignment and deletion, argument errors,
refused values, pickling and copying."""

import copy
import dataclasses
import pickle

import pytest

import tokenwatt
from tokenwatt import (BaselineReport, Bin, BinEstimate, BinGrid, BinnedWorkload, Comparison,
                       ComparisonEntry, CoverageReport, Energy, FlopsBreakdown, HardwareSpec,
                       MeasurementRecord, MeasurementTable, ModelConfig, Request, SweepPlan,
                       TableMetadata, TraceLoad, TraceReport, TraceSource, TraceStats,
                       ValidationError, WorkloadEstimate)
from tokenwatt._frozen import _refuse_assignment, factory
from tokenwatt.csvio import CsvFile
from tokenwatt.ingest import RowError

_RECORD = MeasurementRecord("vllm", "A100", 32, 8, 4, Energy(8.0))
_SPLIT_RECORD = MeasurementRecord("vllm", "A100", 32, 16, 2, Energy(3.0), Energy(1.0),
                                  Energy(2.0), 4096, 5)
_STATS = TraceStats(3, 2.0, 0.5, 2.0, 3.0, 3)
_BIN_ESTIMATE = BinEstimate(Bin(32, 8), 3, 4, 0.75, Energy(6.0), None, None, "measured")
_ENTRY = ComparisonEntry("vllm", Energy(6.0), 20.0, None)

# Per class: two valid calls (args, kwargs) that build unequal values, and a
# call that the class refuses (None where it refuses nothing).
CASES = {
    Request: [((3, 4), {}), ((), {"input_tokens": 5, "output_tokens": 4}),
              ((-1, 4), {})],
    Bin: [((32, 8), {}), ((32, 16), {}), ((0, 8), {})],
    BinGrid: [((), {}), (((32, 64), (8,)), {}), (((),), {})],
    HardwareSpec: [(("A100", 300.0, 3.1e14), {}), (("H100", 700.0, 9.9e14), {}),
                   (("A100", 0.0, 3.1e14), {})],
    ModelConfig: [((2, 64, 4, 2, 128, 100), {}), ((2, 64, 4, 2, 128, 100, 1000, True), {}),
                  ((2, 65, 4, 2, 128, 100), {})],
    Energy: [((1.0,), {}), ((2.0,), {}), ((-1.0,), {})],
    MeasurementRecord: [(_RECORD.__dict__.values(), {}), (_SPLIT_RECORD.__dict__.values(), {}),
                        (("vllm", "A100", 32, 8, 0, Energy(8.0)), {})],
    TableMetadata: [((BinGrid(),), {}), ((BinGrid(), 4096, "note", "padded"), {}), None],
    MeasurementTable: [(((_RECORD,), TableMetadata(BinGrid())), {}),
                       (((_RECORD, _SPLIT_RECORD), TableMetadata(BinGrid())), {}),
                       (((_RECORD, _RECORD), TableMetadata(BinGrid())), {})],
    BinEstimate: [(_BIN_ESTIMATE.__dict__.values(), {}),
                  ((Bin(32, 16), 1, 2, 0.5, Energy(1.0), Energy(0.5), Energy(0.5), "x"), {}),
                  None],
    WorkloadEstimate: [(((_BIN_ESTIMATE,), 0, "fractional", "vllm", "A100", "a"), {}),
                       (((), 2, "ceiling", "vllm", "A100", "b"), {}),
                       (((), 0, "exact", "vllm", "A100", "a"), {})],
    BinnedWorkload: [((BinGrid(),), {}), ((BinGrid(), {Bin(32, 8): 3}, 1, 2), {}),
                     ((BinGrid(), {}, -1), {})],
    FlopsBreakdown: [((1, 2), {}), ((3, 2), {}), ((-1, 2), {})],
    CsvFile: [(("a.csv", {"k": "v"}, [1]), {}), (("b.csv", {}, []), {}), None],
    TraceSource: [(("t.csv", "generic-csv"), {}), (("t.jsonl", "jsonl", {"input_tokens": "i",
                                                                          "output_tokens": "o"}),
                                                   {}),
                  (("t.csv", "tsv"), {})],
    RowError: [((2, "bad"), {}), ((3, "bad"), {}), None],
    TraceLoad: [(([Request(1, 2)], []), {}), (([], [RowError(2, "bad")]), {}), None],
    TraceStats: [(_STATS.__dict__.values(), {}), ((1, 1.0, 0.0, 1.0, 1.0, 1), {}), None],
    ComparisonEntry: [(_ENTRY.__dict__.values(), {}), (("naive", Energy(9.0), 80.0, -50.0), {}),
                      None],
    Comparison: [(("d", Energy(5.0), (_ENTRY,), "vllm", "fractional", 0), {}),
                 (("d", Energy(5.0), (), "vllm", "mixed", 1), {}), None],
    BaselineReport: [(("d", "toy", Energy(5.0), 1e-12, 10, 20, 0), {}),
                     (("d", "toy", Energy(5.0), 1e-12, 10, 21, 0), {}), None],
    TraceReport: [(("d", 3, _STATS, _STATS), {}), (("e", 3, _STATS, _STATS), {}), None],
    SweepPlan: [(("input_length", {"output_length": 8, "batch_size": 1}, (32, 64)), {}),
                (("batch_size", {"input_length": 32, "output_length": 8}, (1, 2), 3), {}),
                (("input_length", {"output_length": 8, "batch_size": 1}, (48,)), {})],
    CoverageReport: [((((32, 8),),), {}), ((((32, 8),), {("vllm", "A100"): ((32, 8),)}), {}),
                     None],
}
CLASSES = list(CASES)


def _fields(cls) -> tuple[str, ...]:
    return tuple(name for name in cls.__annotations__ if not name.startswith("_"))


def _full(cls, case) -> dict:
    """Every field's value in the call `case`, defaults filled in, in field order."""
    args, kwargs = case
    given = dict(zip(_fields(cls), args), **kwargs)
    full = {}
    for name in _fields(cls):
        value = given.get(name, vars(cls).get(name))
        full[name] = value.make() if isinstance(value, factory) else value
    return full


def _twin(cls):
    """The frozen dataclass of cls's fields and defaults, refusing what cls refuses."""
    specs = []
    for name in _fields(cls):
        default = vars(cls).get(name, dataclasses.MISSING)
        if isinstance(default, factory):
            default = dataclasses.field(default_factory=default.make)
        specs.append(name if default is dataclasses.MISSING else (name, None, default))
    if "__post_init__" in vars(cls):
        check = cls.__post_init__
    else:  # the class checks its values in its own __init__
        def check(self):
            cls(*(getattr(self, name) for name in _fields(cls)))
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True, order=cls is Bin,
                                      namespace={"__post_init__": check})


def _pair(cls, case):
    args, kwargs = case
    return cls(*args, **kwargs), _twin(cls)(*args, **kwargs)


def _outcome(fn):
    """fn()'s value, or the type and message of what it raised."""
    try:
        return fn()
    except Exception as exc:  # the outcome is compared, whatever it is
        return type(exc), str(exc)


def test_every_value_class_is_covered():
    found = {obj for module in vars(tokenwatt).values() if getattr(module, "__package__", None)
             == "tokenwatt" for obj in vars(module).values()
             if isinstance(obj, type) and vars(obj).get("__setattr__") is _refuse_assignment}
    assert found == set(CLASSES)
    assert len(found) == 24
    assert not any(dataclasses.is_dataclass(cls) for cls in found)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_hash_and_repr_agree_with_dataclasses(cls):
    (a, ta), (b, tb) = _pair(cls, CASES[cls][0]), _pair(cls, CASES[cls][1])
    a2, _ = _pair(cls, CASES[cls][0])
    assert (a == a2, a != a2, a == b, a != b) == (True, False, False, True)
    assert (ta == ta, ta == tb, ta != tb) == (True, False, True)
    assert a.__eq__(ta) is NotImplemented and a != ta
    for ours, twin in ((a, ta), (b, tb)):
        assert repr(ours) == repr(twin)
        assert _outcome(lambda: hash(ours)) == _outcome(lambda: hash(twin))


def test_bin_ordering_agrees_with_dataclasses():
    caps = [(32, 8), (32, 16), (128, 8), (32, 8)]
    twin = _twin(Bin)
    for x in caps:
        for y in caps:
            for op in ("__lt__", "__le__", "__gt__", "__ge__"):
                assert getattr(Bin(*x), op)(Bin(*y)) == getattr(twin(*x), op)(twin(*y))
        assert Bin(*x).__lt__(x) is NotImplemented
        with pytest.raises(TypeError):
            Bin(*x) < x
    assert sorted(Bin(*c) for c in caps) == [Bin(*c) for c in sorted(caps)]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_assignment_and_deletion_are_refused_as_dataclasses_refuse_them(cls):
    ours, twin = _pair(cls, CASES[cls][0])
    for name in (*_fields(cls), "not_a_field"):
        for act in (lambda obj: setattr(obj, name, 1), lambda obj: delattr(obj, name)):
            got, want = _outcome(lambda: act(ours)), _outcome(lambda: act(twin))
            assert issubclass(got[0], AttributeError) and issubclass(want[0], AttributeError)
            assert got[1] == want[1]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_argument_errors_agree_with_dataclasses(cls):
    names, twin = _fields(cls), _twin(cls)
    full = _full(cls, CASES[cls][0])
    calls = [((), {**full, "not_a_field": 1}),  # unexpected
             ((full[names[0]],), full),  # repeated
             ((*full.values(), None), {})]  # too many
    if any(name not in vars(cls) for name in names):
        calls.append(((), {}))  # missing
    for call_args, call_kwargs in calls:
        for make in (cls, twin):
            with pytest.raises(TypeError):
                make(*call_args, **call_kwargs)


@pytest.mark.parametrize("cls", [cls for cls in CLASSES if CASES[cls][2]],
                         ids=lambda c: c.__name__)
def test_refusals_agree_with_dataclasses_through_every_kind_of_call(cls):
    first, *rest = _fields(cls)
    full, twin = _full(cls, CASES[cls][2]), _twin(cls)
    calls = [(full.values(), {}), ((), full),
             ((full[first],), {name: full[name] for name in rest}),
             CASES[cls][2]]  # defaulted where the case leaves fields out
    for call_args, call_kwargs in calls:
        got = _outcome(lambda: cls(*call_args, **call_kwargs))
        assert got[0] is ValidationError
        assert got == _outcome(lambda: twin(*call_args, **call_kwargs))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_pickle_and_copy_round_trips(cls):
    for case in CASES[cls][:2]:
        ours, twin = _pair(cls, case)
        for back in (pickle.loads(pickle.dumps(ours)), copy.copy(ours)):
            assert type(back) is cls and back == ours and repr(back) == repr(twin)
            with pytest.raises(AttributeError):
                setattr(back, _fields(cls)[0], None)
