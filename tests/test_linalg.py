"""Rank kernels of the exact linear algebra core against sympy."""

from fractions import Fraction
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from quotlat import _linalg as la


def low_rank_matrix(rng, rows, cols, rank, spread=3):
    """rows x cols integer matrix of rank at most `rank` (a product of two factors)."""
    left = [[rng.randint(-spread, spread) for _ in range(rank)] for _ in range(rows)]
    right = [[rng.randint(-spread, spread) for _ in range(cols)] for _ in range(rank)]
    return la.mat_mul(left, right)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_rank_rational_matches_sympy_on_integers(seed):
    rng = Random(seed)
    rows, cols = rng.randint(1, 9), rng.randint(1, 9)
    m = low_rank_matrix(rng, rows, cols, rng.randint(0, min(rows, cols)))
    if seed % 2:
        # sparse rows and zero rows
        m = [[x if rng.random() < 0.3 else 0 for x in row] for row in m]
    assert la.rank_rational(m) == oracles.rank_rational(m) == oracles.fraction_rank(m)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_rank_rational_matches_sympy_on_fractions(seed):
    rng = Random(seed)
    rows, cols = rng.randint(1, 8), rng.randint(1, 8)
    m = low_rank_matrix(rng, rows, cols, rng.randint(0, min(rows, cols)))
    # per-entry denominators, so rows need the lcm and not a common divisor
    m = [[Fraction(x, rng.randint(1, 12)) for x in row] for row in m]
    assert la.rank_rational(m) == oracles.rank_rational(m)


def test_rank_rational_edge_cases():
    assert la.rank_rational([]) == 0
    assert la.rank_rational([[]]) == 0
    assert la.rank_rational([[0, 0], [0, 0]]) == 0
    assert la.rank_rational([[Fraction(1, 3), Fraction(1, 2)], [2, 3]]) == 1
    # a pivot column that must be skipped, then a rank-deficient tail
    assert la.rank_rational([[0, 2, 4], [0, 1, 2], [0, 0, 5]]) == 2


@given(st.sampled_from((2, 3, 5, 7, 11, 13, 17, 19)), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_rank_mod_p_matches_sympy(p, seed):
    rng = Random(seed)
    rows, cols = rng.randint(1, 12), rng.randint(1, 12)
    m = low_rank_matrix(rng, rows, cols, rng.randint(0, min(rows, cols)), spread=p)
    if seed % 2:
        m = [[x if rng.random() < 0.2 else 0 for x in row] for row in m]
    basis = la.echelon_mod_p(m, p)
    assert len(basis) == la.rank_mod_p(m, p) == oracles.rank_mod_p(m, p)
    # distinct pivots with a leading 1, entries reduced mod p
    leads = [next(j for j, x in enumerate(row) if x) for row in basis]
    assert len(set(leads)) == len(leads)
    assert all(row[j] == 1 for row, j in zip(basis, leads))
    assert all(0 <= x < p for row in basis for x in row)


@given(st.integers(0, 10**6), st.integers(1, 12))
@settings(max_examples=30, deadline=None)
def test_mat_pow_matches_repeated_products(seed, e):
    rng = Random(seed)
    n = rng.randint(1, 6)
    a = [[rng.randint(-2, 2) if rng.random() < 0.5 else 0 for _ in range(n)] for _ in range(n)]
    want = a
    for _ in range(e - 1):
        want = la.mat_mul(want, a)
    assert la.mat_pow(a, e) == want
    assert la.mat_mul_sparse(a, a) == la.mat_mul(a, a)
