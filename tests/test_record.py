"""quotlat's value classes behave as the dataclasses they replace.

Each record class is compared with a twin built by `dataclasses.make_dataclass`
from the same fields, defaults and `__post_init__`.  The instances compared
are the ones quotlat builds itself while it verifies the catalog and runs a
few library calls, so every field holds a value of the type it really holds.
"""

import dataclasses
import sys
import tracemalloc

import pytest

from quotlat import (
    FixedComponent,
    GramLattice,
    HilbertSquare,
    catalog_verify,
    group_cohomology,
    invariant_summary,
    isolated_points,
    load_catalog,
    parse_lattice_expr,
    reiner_action,
    weight_solve,
)
from quotlat._record import factory, record, replace
from quotlat.lattice_core import LatticeError
from quotlat.normality import NORMAL, NormalityReport
from quotlat.quotient_lattice import MatchResult
from quotlat.scenario import Expected, RowCheck, Scenario
from quotlat.toric_weight import WeightValue, weight_dim2

RECORDS = sorted(
    {
        v
        for name, m in sys.modules.items()
        if name.startswith("quotlat.")
        for v in vars(m).values()
        if isinstance(v, type) and "_fields" in vars(v)
    },
    key=lambda c: c.__qualname__,
)


def _exercise():
    catalog_verify()
    for action in (reiner_action(3, (1, 1, 1)), reiner_action(5, (2, 0, 1))):
        group_cohomology(action, 1)
    hilb = HilbertSquare(parse_lattice_expr("U^3 + E8(-1)^2").gram)
    hilb.cup(hilb.gamma(0), hilb.delta)
    hilb.cup(hilb.gamma(1), hilb.gamma(2))
    for expr in ("U + A2", "E8(-1)"):
        invariant_summary(parse_lattice_expr(expr))
    weight_dim2(5, 2)
    weight_dim2(7, 3)
    for s in load_catalog():
        if s.name in ("M3", "M5"):
            weight_solve(s.profile, s.fixed_locus)
    isolated_points(3, (1, 1), weight=WeightValue(0, 2))
    FixedComponent(1, 2, 0, "curve")
    FixedComponent(2, 3, 1)


@pytest.fixture(scope="module")
def samples():
    """Two instances of differing repr per record class, as quotlat built them."""
    out = {cls: {} for cls in RECORDS}
    with pytest.MonkeyPatch.context() as mp:
        for cls in RECORDS:
            init = cls.__init__

            def spy(self, *args, __init=init, **kwargs):
                __init(self, *args, **kwargs)
                out[type(self)].setdefault(repr(self), self)

            mp.setattr(cls, "__init__", spy)
        _exercise()
    return {cls: list(seen.values())[:2] for cls, seen in out.items()}


def twin(cls):
    """A dataclass with cls's name, fields, defaults, __post_init__ and helper methods."""
    specs = []
    for name in cls._fields:
        default = cls._field_defaults.get(name, dataclasses.MISSING)
        if isinstance(default, factory):
            specs.append((name, object, dataclasses.field(default_factory=default.make)))
        else:
            specs.append((name, object, dataclasses.field(default=default)))
    namespace = {k: v for k, v in vars(cls).items() if not k.startswith("__") or k == "__post_init__"}
    made = dataclasses.make_dataclass(cls.__name__, specs, frozen=True, namespace=namespace)
    made.__qualname__ = cls.__qualname__
    return made


def outcome(fn, *args):
    """fn(*args), or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the comparison is the point of the test
        return type(exc)


def fields_of(obj, names) -> dict:
    return {name: getattr(obj, name) for name in names}


def test_every_record_class_is_sampled(samples):
    assert len(RECORDS) == 26
    assert not [cls.__qualname__ for cls in RECORDS if len(samples[cls]) < 2]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
def test_record_matches_its_dataclass_twin(cls, samples):
    made = twin(cls)
    a_args, b_args = (fields_of(s, cls._fields) for s in samples[cls])
    a, b, a2 = cls(**a_args), cls(**b_args), cls(*a_args.values())
    ta, tb, ta2 = made(**a_args), made(**b_args), made(*a_args.values())
    assert repr(a) == repr(ta)
    assert fields_of(a, cls._fields) == fields_of(ta, cls._fields) == a_args
    assert (a == a2, a == b, a != a2, a != b) == (ta == ta2, ta == tb, ta != ta2, ta != tb)
    assert (a == a2, a != b) == (True, True)
    assert outcome(hash, a) == outcome(hash, ta)
    assert a.__eq__(ta) is NotImplemented and a != ta

    first = cls._fields[0]
    for call in (
        lambda c: c(a_args[first], **a_args),  # repeated
        lambda c: c(**a_args, not_a_field=1),  # unknown
        lambda c: c(*a_args.values(), 1),  # too many
    ):
        assert outcome(call, cls) is outcome(call, made) is TypeError
    if first not in cls._field_defaults:  # missing
        assert outcome(lambda c: c(), cls) is outcome(lambda c: c(), made) is TypeError

    for obj in (a, ta):
        with pytest.raises(AttributeError):
            setattr(obj, first, None)
        with pytest.raises(AttributeError):
            delattr(obj, first)
        with pytest.raises(AttributeError):
            obj.not_a_field = 1


def test_default_factories_are_fresh():
    assert Expected().verdicts is not Expected().verdicts
    assert Expected().alpha is not Expected().alpha
    one, two = (Scenario("X", "surface", 3, 2) for _ in range(2))
    assert one.routes is not two.routes and one.expected is not two.expected
    assert one.expected == Expected()
    assert not hasattr(Expected, "verdicts")


def test_subclass_fields_follow_the_base():
    assert RowCheck._fields == ("checks", "scenario", "notes")
    checks = (("rank", "3", "3", True),)
    scenario = Scenario("X", "surface", 3, 2)
    row = RowCheck(checks, scenario)
    assert row != MatchResult(checks) and MatchResult(checks) != row
    assert row.checks == MatchResult(checks).checks and row.notes == ()
    assert repr(row).startswith("RowCheck(checks=")


def test_post_init_runs_after_the_fields_are_set():
    gram = GramLattice([[2, 1], [1, 2]])
    assert gram.gram == ((2, 1), (1, 2))
    with pytest.raises(LatticeError):
        GramLattice([[2, 1], [0, 2]])


def test_reading_a_cached_weight_keeps_equality_and_hash():
    pts, same = (isolated_points(5, (1, 2)) for _ in range(2))
    before = hash(pts)
    assert "weight" not in vars(pts)
    pts.weight
    assert "weight" in vars(pts) and "weight" not in vars(same)
    assert pts == same and hash(pts) == before == hash(same)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
def test_replace_without_changes_copies(cls, samples):
    a, b = samples[cls]
    assert replace(a) == a and replace(a) is not a
    assert replace(a, **fields_of(b, cls._fields)) == b


def test_replace_changes_one_field():
    rep = NormalityReport(2, NORMAL, "x", alpha_bounds=(0, 0))
    moved = replace(rep, degree=4)
    assert (moved.degree, rep.degree) == (4, 2)
    assert fields_of(moved, rep._fields[1:]) == fields_of(rep, rep._fields[1:])


def test_replace_runs_post_init_again():
    rep = NormalityReport(2, NORMAL, "x", alpha_bounds=(0, 0))
    with pytest.raises(ValueError, match="alpha = 0"):
        replace(rep, alpha_bounds=(0, None))


def test_replace_rejects_an_unknown_field():
    rep = NormalityReport(2, NORMAL, "x", alpha_bounds=(0, 0))
    with pytest.raises(TypeError, match="not_a_field"):
        replace(rep, not_a_field=1)


def _traced_bytes(make, n=2000):
    tracemalloc.start()
    try:
        keep = [make(i) for i in range(n)]
        return tracemalloc.get_traced_memory()[0], keep
    finally:
        tracemalloc.stop()


def test_an_instance_costs_no_more_memory_than_a_dataclass():
    # Fields are set one by one, as a frozen dataclass sets them; filling the
    # instance __dict__ in one update would build a dict per instance instead.
    @record
    class Pair:
        lo: object
        hi: object

    twin_pair = twin(Pair)
    for build in (lambda c: lambda i: c(i, 2), lambda c: lambda i: c(lo=i, hi=2)):
        ours, _ = _traced_bytes(build(Pair))
        theirs, _ = _traced_bytes(build(twin_pair))
        assert ours <= theirs * 1.05
