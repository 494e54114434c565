"""Hirzebruch-Jung expansions and dimension-2 toric point weights."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from quotlat import _linalg as la
from quotlat import toric_weight
from quotlat import (
    canonical_exponents,
    hj_expand,
    point_type,
    weight_dim2,
    weight_lookup,
)
from quotlat.toric_weight import ClassificationFailure, WeightValue


def test_hj_expand_frozen():
    assert hj_expand(5, 2) == [3, 2]
    assert hj_expand(7, 3) == [3, 2, 2]
    assert hj_expand(19, 7) == [3, 4, 2]
    assert hj_expand(3, 1) == [3]
    assert hj_expand(5, 4) == [2, 2, 2, 2]


@given(st.integers(2, 60), st.integers(1, 59))
@settings(max_examples=120, deadline=None)
def test_hj_round_trip(n, q):
    q = q % n
    if q == 0 or gcd(n, q) != 1:
        return
    coeffs = hj_expand(n, q)
    assert all(a >= 2 for a in coeffs)
    assert oracles.hj_fraction(coeffs) == Fraction(n, q)


def test_weight_value_interval():
    w = WeightValue(1, 1)
    assert w.exact == 1
    assert WeightValue(0, 2).exact is None
    with pytest.raises(ValueError):
        WeightValue(2, 1)


def test_weight_dim2_frozen_case():
    r = weight_dim2(5, 2)
    assert (r.weight.lo, r.weight.hi) == (1, 1)
    assert r.case == "v"
    assert r.hj == (3, 2)
    assert r.discr_im_gprime == r.discr_im_gbar == 5
    assert r.discr_gamma_prime == r.discr_gamma_bar == 5
    assert r.rktor_relative == 0


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_weight_dim2_small_primes(p):
    for q in range(1, p):
        r = weight_dim2(p, q)
        assert (r.weight.lo, r.weight.hi) == (1, 1), (p, q)
        assert r.fan.complete


@pytest.mark.parametrize("p", [23, 29, 31])
def test_weight_dim2_above_catalog_primes(p):
    # the catalog stops at p = 19
    for q in (1, 2, p - 1):
        r = weight_dim2(p, q)
        assert (r.weight.lo, r.weight.hi) == (1, 1), (p, q)
        assert r.discr_gamma_prime == p


def _doubling_kernel_basis(monkeypatch, calls):
    """Make kernel_basis double the first row of its result on the given calls.

    The first fan's Im g' comes from call 1 and its Im gbar from call 2.
    """
    kernel_basis = la.kernel_basis
    count = [0]

    def doubled(a):
        rows = kernel_basis(a)
        count[0] += 1
        if count[0] in calls:
            rows = [[2 * x for x in rows[0]], *rows[1:]]
        return rows

    monkeypatch.setattr(toric_weight.la, "kernel_basis", doubled)


@pytest.mark.parametrize("pq", [(5, 2), (7, 3), (19, 1), (3, 1), (2, 1)])
def test_unsaturated_im_gprime_is_caught(monkeypatch, pq):
    _doubling_kernel_basis(monkeypatch, calls={1})
    with pytest.raises(ClassificationFailure, match="exceptional class escapes Im g'"):
        weight_dim2(*pq)


@pytest.mark.parametrize("pq", [(5, 2), (19, 1)])
def test_unsaturated_im_gbar_is_caught(monkeypatch, pq):
    _doubling_kernel_basis(monkeypatch, calls={2})
    with pytest.raises(ClassificationFailure, match="boundary class escapes Im gbar"):
        weight_dim2(*pq)


def test_discriminant_outside_p_powers_is_caught(monkeypatch):
    monkeypatch.setattr(toric_weight, "_p_power_log", lambda value, p: None)
    with pytest.raises(ClassificationFailure, match=r"discriminant \d+ is not a power of 5"):
        weight_dim2(5, 2)


def test_point_type_table():
    assert point_type(5, (0, 1)) == 0
    assert point_type(5, (2, 2)) == 1
    assert point_type(3, (1, 2)) == 2
    assert point_type(5, (1, 2, 3, 4)) is None
    assert point_type(5, (1, 1, 4, 4)) is None


def test_canonical_exponents():
    assert canonical_exponents(5, (4, 4, 1, 1)) == (1, 1, 4, 4)
    assert canonical_exponents(5, (2, 2, 3, 3)) == (1, 1, 4, 4)
    assert canonical_exponents(7, (2, 4, 6, 5)) == (1, 2, 3, 5)


@given(st.sampled_from([3, 5, 7, 11]), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_canonical_exponents_unit_invariance(p, seed):
    import random

    rng = random.Random(seed)
    exps = tuple(rng.randint(1, p - 1) for _ in range(4))
    unit = rng.randint(1, p - 1)
    scaled = tuple(k * unit % p for k in exps)
    assert canonical_exponents(p, scaled) == canonical_exponents(p, exps)


@pytest.mark.parametrize("p", [0, 1, 4, 9])
def test_weight_functions_reject_a_non_prime_order(p):
    for call in (lambda: weight_lookup(p, (1, 1)), lambda: point_type(p, (1, 1)), lambda: weight_dim2(p, 1)):
        with pytest.raises(ValueError, match=f"{p} is not prime"):
            call()


def test_weight_lookup_proved_and_open():
    assert weight_lookup(5, (1, 1, 4, 4)) == WeightValue(1, 1)
    assert weight_lookup(5, (1, 1, 1, 2)) == WeightValue(1, 1)
    assert weight_lookup(5, (1, 2, 3, 4)) == WeightValue(1, 1)
    assert weight_lookup(3, (1, 1, 2, 2)) == WeightValue(1, 1)
    # surface points always weigh 1
    assert weight_lookup(3, (1, 2)) == WeightValue(1, 1)
    # types without a proved value stay at the full interval
    assert weight_lookup(11, (1, 1, 10, 10)) == WeightValue(0, 2)
    assert weight_lookup(7, (1, 3, 5, 6)) == WeightValue(0, 2)
