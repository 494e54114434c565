"""The exact linear algebra core against sympy and the former library routines."""

import hashlib
import inspect
import json
import shlex
from fractions import Fraction
from itertools import chain
from math import comb, prod
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from quotlat import _linalg as la
from quotlat import (
    a_invariant,
    conjugate,
    discriminant_group,
    group_cohomology,
    parse_lattice_expr,
    reiner_action,
    weight_dim2,
)
from quotlat.lattice_core import GramLattice
from quotlat.quotient_lattice import find_glue
from quotlat.scenario import load_catalog

GOLDEN = Path(__file__).with_name("golden_cli.json")


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
    basis = _monic_echelon(m, p)
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
    m = rng.randint(1, 6)
    b = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(n)]
    assert la.mat_mul(a, b) == oracles._dense_mul(a, b)


# entry bit lengths: small, both sides of the 8-byte slot limit (products
# of 30- to 33-bit entries over up to 7 terms land between 2^60 and 2^69),
# and above 200
ENTRY_BITS = (1, 4, 30, 31, 32, 33, 62, 63, 64, 100, 230)


@given(st.integers(0, 10**6), st.sampled_from(ENTRY_BITS), st.sampled_from(ENTRY_BITS))
@settings(max_examples=120, deadline=None)
def test_mat_mul_matches_dense_products(seed, a_bits, b_bits):
    rng = Random(seed)
    rows, inner, cols = rng.randint(1, 7), rng.randint(1, 7), rng.choice((1, rng.randint(1, 7)))
    fill = rng.choice((0.1, 0.5, 1.0))

    def entry(bits):
        if rng.random() > fill:
            return 0
        x = rng.choice((1 << bits, (1 << bits) - 1, rng.randint(0, 1 << bits)))
        return -x if rng.random() < 0.5 else x

    a = [[entry(a_bits) for _ in range(inner)] for _ in range(rows)]
    b = [[entry(b_bits) for _ in range(cols)] for _ in range(inner)]
    assert la.mat_mul(a, b) == oracles._dense_mul(a, b)


def test_mat_mul_refuses_inner_dimensions_that_differ():
    """A row of a must be len(b) long: a short or long row raises rather
    than truncating the product."""
    with pytest.raises(ValueError, match="inner dimensions"):
        la.mat_mul([[1, 2, 3]], [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="inner dimensions"):
        la.mat_mul([[1, 2], [3, 4]], [[1, 0, 0]])
    with pytest.raises(ValueError, match="inner dimensions"):
        la.mat_mul([[1, 2], [3]], [[1], [1]])


def test_mat_mul_edge_cases():
    assert la.mat_mul([], [[1, 2]]) == []  # no rows
    assert la.mat_mul([[], []], []) == [[], []]  # no inner dimension
    assert la.mat_mul([[1], [2]], [[]]) == [[], []]  # no columns
    assert la.mat_mul([[2, -3]], [[5], [7]]) == [[-11]]  # one column
    # a zero factor: the bound is 0 and b's entries fit no 8-byte slot
    huge = [[1 << 64, -(1 << 70)], [3, (1 << 64) + 1]]
    assert la.mat_mul([[0, 0]], huge) == [[0, 0]]
    assert la.mat_mul(huge, [[0], [0]]) == [[0], [0]]
    # largest magnitude on each side of the 8-byte limit, with either sign
    for x in ((1 << 31) - 1, 1 << 31, (1 << 31) + 1, (1 << 32) - 1, 1 << 32):
        for a in ([[x, x]], [[-x, x]], [[-x, -x]]):
            b = [[x, -x], [x, x]]
            assert la.mat_mul(a, b) == oracles._dense_mul(a, b)


@pytest.mark.parametrize("size", [1, 2, 4, 8])
@pytest.mark.parametrize("over", [-1, 0], ids=["under", "at"])
def test_mat_mul_at_each_slot_boundary(size, over):
    """Products whose bound is just under and just at 2^(8 size - 1): the
    first fits a size-byte slot, the second takes the next width."""
    top = (1 << (8 * size - 1)) + over
    assert la._slots(top, 1)[0] == (size if over else 2 * size if size < 8 else 9)
    cases = [([[top], [-top], [0], [1]], [[1, -1, 0, 1]])]  # one inner term: bound top
    if top % 2 == 0:  # two inner terms of top / 2
        cases.append(([[top // 2, top // 2], [-top // 2, top // 2]], [[1, -1, 1], [1, -1, 0]]))
    rng = Random(size)
    c = [[rng.randint(-1, 1) for _ in range(5)]]
    cases.append(([[rng.randint(-top, top)] for _ in range(6)] + [[top], [-top]], c))
    for a, b in cases:
        assert la.mat_mul(a, b) == oracles._dense_mul(a, b)
        assert max(abs(x) for row in la.mat_mul(a, b) for x in row) == top


ECHELON_PRIMES = (2, 3, 5, 7, 11, 13, (1 << 31) - 1, (1 << 61) - 1)
# (rows, columns): empty, square, more rows than columns, wide; 300 columns
# at p = 13 take 4-byte slots in the echelon
ECHELON_SHAPES = ((0, 0), (1, 1), (5, 5), (9, 4), (4, 9), (12, 12), (3, 300))


def _seeded_matrix(rng, rows, cols, spread, fill):
    """rows x cols entries in [-spread, spread], a share fill of them nonzero,
    some rows zero and some repeated."""
    m = [[rng.randint(-spread, spread) if rng.random() < fill else 0 for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        if rng.random() < 0.2:
            m[i] = [0] * cols
        elif i and rng.random() < 0.2:
            m[i] = [-x for x in m[rng.randrange(i)]]
    return m


def _monic_echelon(a, p):
    """The ``_echelon_packed`` basis of the rows of a mod p, packed as
    ``rank_mod_p`` packs them, unpacked and scaled to a leading 1.

    It is the basis of the row-by-row loop (``oracles.echelon_mod_p``), row
    for row: the packed echelon adds a multiple of basis row t to every
    later row as soon as t is found, and at that moment each later row has
    received exactly basis rows 1 .. t - 1, all found on earlier rows.  Its
    basis row t is the loop's times the unit v at t's pivot, and it adds
    -x v^-1 times it, which is p - c times the loop's row mod p.  Every row
    thus receives the same basis rows in the same order with the same
    coefficients mod p, so its slots are congruent to the loop's entries.
    """
    width = len(a[0]) if a else 0
    slots = la._fp_slots(p, p + width * (p - 1) ** 2)
    size = slots[0]
    rows = [la._pack([x % p for x in row], size, 0) if any(row) else 0 for row in a]
    basis = [la._unpack(t, size, width) for t in la._echelon_packed(rows, p, width, slots)]
    return [[x * pow(next(filter(None, row)), -1, p) % p for x in row] for row in basis]


@pytest.mark.parametrize("p", ECHELON_PRIMES)
def test_packed_echelon_equals_the_row_by_row_one(p):
    """The packed echelon (``_monic_echelon``), rank_mod_p and
    image_ranks_mod_p against the row-by-row echelon of ``oracles``, row
    for row."""
    rng = Random(p)
    for rows, cols in ECHELON_SHAPES:
        for spread in (1, p, 10**6):
            for fill in (0.1, 0.5, 1.0):
                a = _seeded_matrix(rng, rows, cols, spread, fill)
                assert _monic_echelon(a, p) == oracles.echelon_mod_p(a, p), (a, p)
                assert la.rank_mod_p(a, p) == len(oracles.echelon_mod_p(a, p))
                if rows == cols and cols < 300:
                    steps = p + 1 if p < 20 else 4
                    assert la.image_ranks_mod_p(a, p, steps) == oracles.image_ranks_mod_p(a, p, steps)
    assert _monic_echelon([], p) == _monic_echelon([[0, 0], [p, -p]], p) == []
    assert la.rank_mod_p([], p) == la.rank_mod_p([[0, 0], [p, -p]], p) == 0


def test_echelon_cases_reach_every_slot_width():
    """The echelon's slots hold p + columns (p - 1)^2 and are reduced mod p
    in place, so they are wider (``_fp_slots``); the cases above take 1-,
    2-, 4- and 8-byte slots and the per-slot path beyond 8 bytes."""
    sizes = {la._fp_slots(p, p + cols * (p - 1) ** 2)[0] for p in ECHELON_PRIMES for _, cols in ECHELON_SHAPES}
    assert {1, 2, 4, 8} <= sizes and max(sizes) > 8


def _chain_bounds(p, widths=range(1, 254)):
    """The slot bounds the F_p routines take for p at every width up to the
    253 of the K3 Sym^2: p + w (p - 1)^2 (``rank_mod_p``) and
    2 w (p - 1)^2 + p (``image_ranks_mod_p``)."""
    return {b for w in widths for b in (p + w * (p - 1) ** 2, 2 * w * (p - 1) ** 2 + p)}


def _reduced_slots(xs, p, bound):
    """The slots of the packed row xs after ``_echelon_packed`` reduces it:
    as the only row it comes back reduced and as it is, or not at all if 0."""
    slots = la._fp_slots(p, bound)
    size = slots[0]
    t = int.from_bytes(b"".join(x.to_bytes(size, "little") for x in xs), "little")
    basis = la._echelon_packed([t], p, len(xs), slots)
    return la._unpack(basis[0], size, len(xs)) if basis else [0] * len(xs)


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13, 17, 19))
def test_slotwise_reduction_is_x_mod_p_below_every_chain_bound(p):
    """Every x in [0, 2^h) reduces to x % p, for each h the chain's bounds
    have: all of them side by side in one row, ascending and descending,
    so each slot's neighbours take every value too."""
    for h in sorted({b.bit_length() for b in _chain_bounds(p)}):
        xs = list(range(1 << h))
        want = [x % p for x in xs]
        assert _reduced_slots(xs, p, (1 << h) - 1) == want, (p, h)
        assert _reduced_slots(xs[::-1], p, (1 << h) - 1) == want[::-1], (p, h)


@pytest.mark.parametrize("p", ((1 << 31) - 1, (1 << 61) - 1))
def test_slotwise_reduction_at_the_boundaries_for_wide_primes(p):
    """For the wide primes, the values next to 0, to multiples of p and to
    the top 2^h - 1 of each chain bound reduce to x % p, mixed with seeded
    values below 2^h."""
    rng = Random(p)
    for h in sorted({b.bit_length() for b in _chain_bounds(p, range(1, 41))}):
        top = (1 << h) - 1
        q = top // p
        xs = [0, 1, 2, p - 2, p - 1, p, p + 1, 2 * p - 1, 2 * p, 2 * p + 1]
        xs += [q * p - 1, q * p, q * p + 1, (q - 1) * p, top - 1, top, top, top]
        xs += [rng.randrange(1 << h) for _ in range(40)]
        xs = [x for x in xs if 0 <= x <= top]
        assert _reduced_slots(xs, p, top) == [x % p for x in xs], (p, h)
        assert _reduced_slots(xs[::-1], p, top) == [x % p for x in xs[::-1]], (p, h)


@pytest.mark.parametrize("p", ECHELON_PRIMES)
def test_all_top_entries_match_the_row_by_row_echelon(p):
    """A dense matrix of p - 1 everywhere: its basis row is all p - 1 (not
    made monic in the chain), so each product slot in ``image_ranks_mod_p``
    reaches n (p - 1)^2, the top of its lazy half of the bound, and every
    later row's slots grow by (p - 1)^2 more in the echelon."""
    for rows, cols in ((1, 1), (2, 2), (5, 5), (9, 4), (4, 9), (12, 12), (40, 40)):
        a = [[p - 1] * cols for _ in range(rows)]
        assert _monic_echelon(a, p) == oracles.echelon_mod_p(a, p), (p, rows, cols)
        if rows == cols:
            assert la.image_ranks_mod_p(a, p, 4) == oracles.image_ranks_mod_p(a, p, 4)


def test_find_glue_of_every_catalog_lattice_is_pinned():
    """Each find_glue transform is checked to span the lattice of its
    generators, the rows K of oracles.left_kernel_mod_p(gram, p) and p I:
    every generator has integer coordinates over the transform rows, and
    every transform row has integer coordinates over the generators, which
    (as p I is among them) means its residue mod p lies in the F_p span of
    K.  The digest pins that lattice through its Hermite normal form
    (sympy's) and the divided flags, so it does not depend on which basis
    find_glue returns."""
    glue = []
    for s in load_catalog():
        if s.invariant is None:
            continue
        spec = find_glue(s.invariant, s.prime)
        p, n = s.prime, s.invariant.rank
        kernel = oracles.left_kernel_mod_p(s.invariant.gram, p)
        generators = kernel + [[p * (i == j) for j in range(n)] for i in range(n)]
        assert la.integer_coordinates(spec.transform, generators) is not None, s.name
        k = oracles.rank_mod_p(kernel, p) if kernel else 0
        assert all(oracles.rank_mod_p(kernel + [list(row)], p) == k for row in spec.transform), s.name
        glue.append((s.name, oracles.row_lattice_hnf(spec.transform), spec.divided))
    assert len(glue) == 16
    assert _digest(glue) == "1338c7881792da7e4b36b6f5ef3644c2e2843a385c30b1e849227de20f16917b"


# ------------------ determinant, rank and coordinates through the Hermite form


def square_matrix(rng, n, spread=4):
    """n x n integer matrix of rank n or (for n > 1) n - 1, sometimes sparse."""
    m = low_rank_matrix(rng, n, n, max(n - rng.randint(0, 1), 1), spread)
    if rng.random() < 0.3:
        m = [[x if rng.random() < 0.5 else 0 for x in row] for row in m]
    return m


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_det_bareiss_matches_sympy(seed):
    rng = Random(seed)
    m = square_matrix(rng, rng.randint(1, 9))
    assert la.det_bareiss(m) == oracles.det(m) == oracles.bareiss_det(m)


def test_det_bareiss_edge_cases():
    assert la.det_bareiss([]) == 1
    assert la.det_bareiss([[0]]) == 0
    assert la.det_bareiss([[0, 1], [1, 0]]) == -1  # one row swap
    assert la.det_bareiss([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert la.det_bareiss([[1, 2], [0, 0]]) == 0
    # the sign: a negated pivot row, a swap and a negation, several Euclid
    # rounds in the first column (each round's swap counts)
    assert la.det_bareiss([[-3]]) == -3
    assert la.det_bareiss([[0, -2], [3, 0]]) == 6
    assert la.det_bareiss([[4, 1], [6, 1]]) == -2
    assert la.det_bareiss([[13, 1, 2], [8, 3, 1], [5, 2, 7]]) == 198
    # signed permutation matrices: an odd and an even permutation of 5
    odd = signed_permutation((1, 2, 0, 4, 3), {0})
    even = signed_permutation((4, 3, 2, 1, 0), {1, 3, 4})
    assert la.det_bareiss(odd) == 1 == oracles.det(odd)
    assert la.det_bareiss(even) == -1 == oracles.det(even)


def signed_permutation(perm, negated):
    """The permutation matrix of perm with the rows in `negated` negated."""
    n = len(perm)
    return [[(-1 if i in negated else 1) * (j == perm[i]) for j in range(n)] for i in range(n)]


def test_one_integer_elimination_serves_every_exact_result(monkeypatch):
    """Determinant, rank, both solves and the Smith form all reach
    ``_hermite_rows``, and no second elimination core is left."""
    assert not hasattr(la, "echelon_fraction_free")
    assert not hasattr(la, "_back_substitute")
    calls = []
    hermite = la._hermite_rows
    monkeypatch.setattr(la, "_hermite_rows", lambda rows, k: calls.append(k) or hermite(rows, k))
    m = [[2, 1], [1, 3]]
    results = {
        "det_bareiss": lambda: la.det_bareiss(m) == 5,
        "rank_rational": lambda: la.rank_rational([[Fraction(1, 2), 1], [1, 2]]) == 1,
        "integer_coordinates": lambda: la.integer_coordinates(m, [[4, 7]]) == [[1, 2]],
        "solve_in_rowspan": lambda: la.solve_in_rowspan(m, [1, 0]) == [Fraction(3, 5), Fraction(-1, 5)],
        "smith_normal_form": lambda: la.smith_normal_form(m).diagonal == [1, 5],
    }
    for name, call in results.items():
        calls.clear()
        assert call(), name
        assert calls, name


@pytest.mark.parametrize(
    "call",
    [
        lambda: la.det_bareiss([[1, 2]]),
        lambda: la.det_bareiss([[3, 5, 7]]),
        lambda: la.smith_normal_form([[1, 2], [3]]),
        lambda: la.integer_coordinates([[1, 2], [3]], [[1, 2]]),
        lambda: la.integer_coordinates([[1, 2]], [[1]]),
        lambda: la.solve_in_rowspan([[1, 2]], [1]),
        lambda: la.rank_rational([[1, 2], [3]]),
    ],
    ids=[
        "det_of_1x2",
        "det_of_1x3",
        "smith_of_ragged_rows",
        "coordinates_over_ragged_basis",
        "coordinates_of_short_vector",
        "rowspan_solve_of_short_vector",
        "rank_of_ragged_rows",
    ],
)
def test_entry_points_of_the_hermite_core_refuse_bad_shapes(call):
    """A non-square determinant, ragged rows and a vector whose length is
    not the basis width raise ValueError instead of a wrong answer (the
    column-at-a-time pass read det [[1, 2]] as 1 and coordinates over
    [[1, 2], [3]] as [[1, 0]])."""
    with pytest.raises(ValueError):
        call()


def hermite_cases():
    """Seeded inputs for the Hermite core: every ``SNF_SHAPES`` shape, small
    empty, zero, wide, tall and rank-deficient matrices, sparse ones, and
    entries up to 200 bits."""
    rng = Random(29)
    cases = [dependent_rows_matrix(rng, m, n, rank) for m, n, rank in SNF_SHAPES]
    cases += [[], [[]], [[], []], la.zeros(1, 1), la.zeros(3, 4), la.zeros(4, 2)]
    for case in range(240):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        if case % 8 == 0:
            m, n = (1, n) if case % 16 else (m, 1)
        rank = rng.randint(0, min(m, n))
        if case % 3 == 0:
            bits = rng.choice((8, 64, 200))
            rows = [[rng.randint(-(1 << bits), 1 << bits) for _ in range(n)] for _ in range(rank)]
            rows += [[-x for x in rng.choice(rows)] if rows else [0] * n for _ in range(m - rank)]
            rng.shuffle(rows)
        else:
            rows = low_rank_matrix(rng, m, n, rank, rng.choice((1, 3, 9))) if rank else la.zeros(m, n)
        if case % 4 == 1:
            rows = [[x if rng.random() < 0.4 else 0 for x in row] for row in rows]
        cases.append(rows)
    return cases


def hermite_pivots(rows, start):
    """The leading columns (from column start on) of the nonzero rows, after
    checking that rows are in Hermite form there: zero rows last, leading
    entries positive and moving right, and every entry above a leading
    entry p in [-p / 2, p / 2)."""
    pivots = []
    for i, row in enumerate(rows):
        lead = next((c for c in range(start, len(row)) if row[c]), None)
        if lead is None:
            assert not any(any(r[start:]) for r in rows[i:]), rows
            break
        assert row[lead] > 0 and all(lead > c for c in pivots), rows
        assert all(-row[lead] <= 2 * r[lead] < row[lead] for r in rows[:i]), rows
        pivots.append(lead)
    return pivots


def test_hermite_rows_matches_the_column_pass():
    """The row-incremental core against the column-at-a-time pass it
    replaced (``oracles.hermite_rows``): the same first n columns, and the
    same sign on a nonsingular square.  With an identity alongside,
    [A | I], the sign is det U, the rows without a pivot have their
    transform columns in Hermite form, every pivot row is reduced at those
    pivots, and so the whole result is the Hermite form of [A | I] that
    the column pass gives when every column is a Hermite column."""
    for a in hermite_cases():
        m, n = len(a), len(a[0]) if a else 0
        nonsingular = m == n and oracles.det(a) != 0
        for extra in (0, m):
            rows = [list(row) + [int(i == j) for j in range(extra)] for i, row in enumerate(a)]
            ref = [list(row) for row in rows]
            full = [list(row) for row in rows]
            sign, ref_sign = la._hermite_rows(rows, n), oracles.hermite_rows(ref, n)
            assert [row[:n] for row in rows] == [row[:n] for row in ref], a
            if nonsingular:
                assert sign == ref_sign, a
            if not extra:
                continue
            assert sign == oracles.det([row[n:] for row in rows]), a
            rank = len(hermite_pivots([row[:n] for row in rows], 0))
            kernel = hermite_pivots([row[n:] for row in rows[rank:]], 0)
            assert len(kernel) == m - rank, a
            for row in rows[:rank]:
                for c, krow in zip(kernel, rows[rank:]):
                    assert -krow[n + c] <= 2 * row[n + c] < krow[n + c], a
            oracles.hermite_rows(full, n + extra)
            assert rows == full, a


@given(st.integers(0, 10**6), st.sampled_from(("integral", "rational", "outside")))
@settings(max_examples=80, deadline=None)
def test_solve_in_rowspan_matches_sympy(seed, case):
    rng = Random(seed)
    k = rng.randint(1, 5)
    width = rng.randint(k + (case == "outside"), 8)
    basis = low_rank_matrix(rng, k, width, k)
    if oracles.rank_rational(basis) < k:
        for solve in (la.solve_in_rowspan, oracles.fraction_solve_in_rowspan):
            with pytest.raises(ValueError):
                solve(basis, basis[0])
        return
    if case == "outside":
        vec = [rng.randint(-5, 5) for _ in range(width)]
    else:
        den = 1 if case == "integral" else rng.randint(2, 5)
        coeffs = [Fraction(rng.randint(-5, 5), den) for _ in range(k)]
        vec = [sum(c * row[j] for c, row in zip(coeffs, basis)) for j in range(width)]
    got = la.solve_in_rowspan(basis, vec)
    assert got == oracles.solve_in_rowspan(basis, vec) == oracles.fraction_solve_in_rowspan(basis, vec)
    if case != "outside":
        assert got == coeffs
        assert all(isinstance(x, Fraction) for x in got)


def test_solve_in_rowspan_edge_cases():
    # empty basis: only the zero vector is in the span
    assert la.solve_in_rowspan([], [0, 0]) == []
    assert la.solve_in_rowspan([], [0, 1]) is None
    assert la.solve_in_rowspan([[1, 1, 0]], [1, 0, 0]) is None
    assert la.solve_in_rowspan([[2, 0], [0, 3]], [1, 1]) == [Fraction(1, 2), Fraction(1, 3)]
    # dependent rows raise even when the vector is in their span
    for basis in ([[1, 2], [2, 4]], [[0, 0]], [[1, 0, 1], [0, 1, 1], [1, 1, 2]]):
        with pytest.raises(ValueError, match="dependent"):
            la.solve_in_rowspan(basis, basis[0])
        with pytest.raises(ValueError):
            oracles.fraction_solve_in_rowspan(basis, basis[0])


def test_find_glue_of_seeded_grams_is_the_glue_lattice():
    """Every transform row x has x G in pZ^n, |det| of the transform is
    p^(n - k) for the F_p kernel dimension k, and the transform spans the
    lattice of the rows K of oracles.left_kernel_mod_p(G, p) and p I: every
    generator has integer coordinates over the transform rows, and every
    transform row lies in the F_p span of K."""
    rng = Random(2024)
    for _ in range(400):
        p = rng.choice((2, 3, 5, 7))
        n = rng.randint(1, 8)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.randint(-p, p) if rng.random() < 0.6 else 0
        t = find_glue(GramLattice(g), p).transform
        assert all(x % p == 0 for x in chain.from_iterable(la.mat_mul(t, g))), (g, p)
        kernel = oracles.left_kernel_mod_p(g, p)
        k = len(kernel)
        assert k == n - oracles.rank_mod_p(g, p)
        assert abs(oracles.det(t)) == p ** (n - k), (g, p)
        generators = kernel + [[p * (i == j) for j in range(n)] for i in range(n)]
        assert la.integer_coordinates(t, generators) is not None, (g, p)
        assert all(oracles.rank_mod_p(kernel + [list(x)], p) == k for x in t), (g, p)


def test_integer_coordinates_match_per_vector_solves():
    """One batched elimination agrees with solve_in_rowspan on every vector.

    Non-saturated bases (a doubled row, product bases), negated rows,
    vectors outside the span, rational vectors, and empty bases and vector
    lists; the result is None exactly when some vector has no integral
    solution, and dependent bases raise ValueError.
    """
    rng = Random(7)
    seen = {"integral": 0, "outside": 0, "fractional": 0, "dependent": 0, "empty": 0}
    for case in range(400):
        k = rng.randint(0, 4)
        width = rng.randint(max(k, 1), 7)
        rank = k - 1 if case % 10 == 0 and k else k
        base = low_rank_matrix(rng, k, width, rank) if rank else la.zeros(k, width)
        basis = [list(row) for row in base]
        if case % 3 == 0 and k:
            basis[0] = [2 * x for x in basis[0]]
        if case % 4 == 1:
            # every row leads with a negative entry, so the first pivot is negative
            basis = [[-x for x in row] if next((x for x in row if x), 0) > 0 else row for row in basis]
        vecs = []
        for _ in range(rng.randint(0, 4)):
            kind = rng.random()
            if kind < 0.2:
                vecs.append([rng.randint(-5, 5) for _ in range(width)])
            else:
                den = 1 if kind < 0.8 else rng.randint(2, 3)
                coeffs = [Fraction(rng.randint(-4, 4), den) for _ in range(k)]
                vecs.append([sum(c * row[j] for c, row in zip(coeffs, base)) for j in range(width)])
        if oracles.rank_rational(basis) < k:
            seen["dependent"] += 1
            with pytest.raises(ValueError, match="dependent"):
                la.integer_coordinates(basis, vecs)
            continue
        sols = [la.solve_in_rowspan(basis, v) for v in vecs]
        got = la.integer_coordinates(basis, vecs)
        if all(s is not None and all(x.denominator == 1 for x in s) for s in sols):
            assert got == [[int(x) for x in s] for s in sols], (basis, vecs)
            assert all(isinstance(x, int) for c in got for x in c)
            seen["empty" if not (k and vecs) else "integral"] += 1
        else:
            assert got is None, (basis, vecs)
            seen["outside" if None in sols else "fractional"] += 1
    assert min(seen.values()) >= 10, seen


def test_integer_coordinates_edge_cases():
    assert la.integer_coordinates([], []) == []
    assert la.integer_coordinates([], [[0, 0], [0, 0]]) == [[], []]
    assert la.integer_coordinates([], [[0, 0], [0, 1]]) is None
    assert la.integer_coordinates([[1, 2], [0, 3]], []) == []
    assert la.integer_coordinates([[2, 0], [0, 1]], [[2, 5], [4, -1]]) == [[1, 5], [2, -1]]
    assert la.integer_coordinates([[2, 0], [0, 1]], [[2, 5], [1, 0]]) is None
    assert la.integer_coordinates([[-3, 1]], [[6, -2], [-3, 1]]) == [[-2], [1]]
    for basis in ([[1, 2], [2, 4]], [[0, 0]], [[1, 0, 1], [0, 1, 1], [1, 1, 2]]):
        with pytest.raises(ValueError, match="dependent"):
            la.integer_coordinates(basis, [basis[0]])
        with pytest.raises(ValueError, match="dependent"):
            la.integer_coordinates(basis, [])


# ------------------------------------------------ inertia and the Smith form


def symmetric_matrix(rng, n, kind):
    """Seeded symmetric n x n integer matrix of the given kind."""
    if kind == "definite":
        # lower triangular with a nonzero diagonal, so m m^T is definite
        m = [[rng.randint(-3, 3) if j < i else rng.randint(1, 3) * (i == j) for j in range(n)]
             for i in range(n)]
        sign = rng.choice((1, -1))
        return [[sign * x for x in row] for row in la.mat_mul(m, la.transpose(m))]
    if kind == "singular":
        rank = rng.randint(0, max(n - 1, 0))
        f = low_rank_matrix(rng, n, n, rank) if rank else la.zeros(n, n)
        d = [rng.choice((-2, -1, 1, 3)) for _ in range(n)]
        return la.mat_mul([[x * di for x, di in zip(row, d)] for row in f], la.transpose(f))
    g = la.zeros(n, n)
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = rng.randint(-6, 6) if rng.random() < 0.6 else 0
    if kind == "zero-diagonal":
        for i in range(n):
            g[i][i] = 0
    return g


KINDS = ("dense", "singular", "zero-diagonal", "definite")


def test_signature_exact_matches_both_former_routes():
    """Inertia from the characteristic polynomial agrees with sympy and with
    the former symmetric elimination on 320 seeded matrices up to n = 40."""
    rng = Random(11)
    seen = {kind: 0 for kind in KINDS}
    for case in range(320):
        kind = KINDS[case % 4]
        # 8 large cases, one of each kind at n = 40
        n = rng.randint(0, 12) if case % 160 >= 4 else 40 if case < 4 else rng.randint(13, 39)
        g = symmetric_matrix(rng, n, kind)
        got = la.signature_exact(g)
        pos, zero, neg = oracles.signature(g) if n else (0, 0, 0)
        assert got == (pos, neg, zero) == oracles.fraction_signature(g), (kind, g)
        if kind == "definite" and n:
            assert got in ((n, 0, 0), (0, n, 0))
        if kind == "singular" and n:
            assert got[2] >= 1
        seen[kind] += 1
    assert min(seen.values()) == 80


def test_charpoly_coefficients_obey_the_hadamard_bound():
    """|c_k| <= C(n, k) H^k with H the largest row 2-norm: c_k is a sum of
    C(n, k) principal k-minors, each at most H^k by Hadamard's inequality."""
    rng = Random(5)
    for case in range(60):
        n = rng.randint(1, 40) if case % 6 == 0 else rng.randint(1, 12)
        spread = rng.choice((1, 9, 100))
        a = [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(n)]
        if case % 2:
            a = [[a[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        coeffs = la.charpoly(a)
        if n <= 12:
            assert coeffs == oracles.charpoly(a)
        h2 = max(sum(x * x for x in row) for row in a)
        assert len(coeffs) == n + 1 and coeffs[0] == 1
        assert all(c * c <= comb(n, k) ** 2 * h2**k for k, c in enumerate(coeffs)), a


def test_charpoly_refuses_an_inexact_division():
    assert la.charpoly([]) == [1]
    assert la.charpoly([[0, 1], [1, 0]]) == [1, 0, -1]
    with pytest.raises(ArithmeticError):
        la.charpoly([[Fraction(1, 2)]])


@pytest.mark.parametrize("m", [[[0, 1], [2, 0]], [[1, 2, 3], [2, 1, 0]], [[1], [1]], [[1, 2], [2]]])
def test_signature_exact_rejects_non_symmetric(m):
    with pytest.raises(ValueError, match="symmetric"):
        la.signature_exact(m)


def test_image_basis_and_columns_have_mutual_integer_coordinates():
    """Every column of A has integer coordinates in image_basis(A), and the
    coordinate matrix has unit invariant factors, so every basis row is in
    turn an integer combination of the columns."""
    rng = Random(3)
    for case in range(120):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        rank = rng.randint(0, min(rows, cols))
        a = low_rank_matrix(rng, rows, cols, rank) if rank else la.zeros(rows, cols)
        if case % 3 == 0:
            a = [[2 * x for x in row] for row in a]  # a column span that is not saturated
        basis = la.image_basis(a)
        assert len(basis) == oracles.rank_rational(a)
        coords = la.integer_coordinates(basis, la.transpose(a))
        assert coords is not None, a
        if basis:
            assert oracles.snf_divisors(coords) == [1] * len(basis), a


# (rows, columns, rank): the Smith-form benchmark's shapes, every other
# square size (sympy's Smith form takes seconds on some 36 x 36 inputs)
SNF_SHAPES = (
    (8, 8, 8), (16, 16, 16), (24, 24, 24), (32, 32, 32), (40, 40, 40),
    (16, 28, 16), (36, 20, 20), (24, 24, 16), (40, 40, 32),
)


def dependent_rows_matrix(rng, m, n, rank):
    """m x n, entries in [-9, 9]: `rank` random rows, the rest copies of them up to sign."""
    rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(rank)]
    for _ in range(m - rank):
        sign = rng.choice((-1, 1))
        rows.append([sign * x for x in rng.choice(rows[:rank])])
    rng.shuffle(rows)
    return rows


def assert_smith_form(a, res):
    """U A V = D, D diagonal, and U and V unimodular."""
    m, n = len(a), len(a[0])
    assert la.mat_mul(la.mat_mul(res.u, a), res.v) == res.d
    assert all(res.d[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    assert abs(oracles.det(res.u)) == abs(oracles.det(res.v)) == 1


# transform bits allowed per row or column of A: the row-incremental Hermite
# passes reach at most 8.8 on seeds 1 to 5 and 2024 of the generator below
# (352 bits at 40 x 40), so 11 leaves a quarter for margin; column-at-a-time
# passes reached 11.7 and the former bound was 16
SNF_BITS_PER_ROW = 11


def transform_bits(res) -> int:
    return max(abs(x).bit_length() for t in (res.u, res.v) for row in t for x in row)


def test_smith_form_transforms_stay_bounded_up_to_40():
    """U A V = D with D a nonnegative divisibility chain, U and V unimodular,
    the divisors sympy's, and no transform entry longer than
    ``SNF_BITS_PER_ROW`` bits per row or column of A, here (largest case:
    343 bits at 40 x 40, 8.6 per row) and on seeds 1 to 5 of the same
    generator, where only the bound is checked.  A Smith pivot loop alone
    reached 3144 bits on the 40 x 40, and with floor quotients x // piv
    4611.  sympy's Smith form takes 1-20 s on a full-rank 40 x 40 input, so
    there the divisors are checked through their product |det A|; with D
    diagonal and U, V unimodular that already makes D the Smith form."""
    rng = Random(2024)
    for m, n, rank in SNF_SHAPES:
        a = dependent_rows_matrix(rng, m, n, rank)
        res = la.smith_normal_form(a)
        assert_smith_form(a, res)
        diag = res.diagonal
        assert all(x >= 0 for x in diag)
        assert all(y % x == 0 if x else y == 0 for x, y in zip(diag, diag[1:]))
        divisors = [x for x in diag if x]
        assert len(divisors) == rank
        if (m, n, rank) == (40, 40, 40):
            assert prod(divisors) == abs(oracles.det(a))
        else:
            assert divisors == oracles.snf_divisors(a)
        bits = transform_bits(res)
        assert bits <= SNF_BITS_PER_ROW * max(m, n), (m, n, rank, bits)
    for seed in range(1, 6):
        rng = Random(seed)
        for m, n, rank in SNF_SHAPES:
            bits = transform_bits(la.smith_normal_form(dependent_rows_matrix(rng, m, n, rank)))
            assert bits <= SNF_BITS_PER_ROW * max(m, n), (seed, m, n, rank, bits)


def test_det_and_rank_match_the_oracles_on_every_benchmark_shape():
    """Up to 40 x 40, past every determinant of `verify-paper` (14 x 14):
    det_bareiss against the Bareiss loop of ``oracles.bareiss_det`` on the
    square shapes, rank_rational against Fraction elimination on all."""
    rng = Random(2025)
    for m, n, rank in SNF_SHAPES:
        a = dependent_rows_matrix(rng, m, n, rank)
        assert la.rank_rational(a) == oracles.fraction_rank(a) == rank, (m, n, rank)
        if m == n:
            assert la.det_bareiss(a) == oracles.bareiss_det(a), (m, n, rank)


def small_snf_case(rng, case):
    """Up to 7 x 7, entries up to 10^4: sparse, with zero rows and columns
    and negative entries; every 4th case is 1 x n or m x 1."""
    m, n = rng.randint(1, 7), rng.randint(1, 7)
    if case % 4 == 0:
        m, n = (1, n) if case % 8 else (m, 1)
    spread = rng.choice((1, 3, 9, 10**4))
    a = [[rng.randint(-spread, spread) if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(m)]
    if case % 3 == 0:
        a[rng.randrange(m)] = [0] * n
    if case % 5 == 0:
        j = rng.randrange(n)
        for row in a:
            row[j] = 0
    return a


def test_smith_form_d_is_the_pivot_loop_d():
    """D equals that of the pivot loop alone (``oracles.smith_normal_form``,
    which shares no code with the Hermite passes) on every benchmark shape,
    the full-rank 40 x 40 included, where sympy is too slow to serve as the
    reference, and on 600 small cases; each U and V is checked to be
    unimodular with U A V = D."""
    rng = Random(40)
    cases = [dependent_rows_matrix(rng, m, n, rank) for m, n, rank in SNF_SHAPES]
    cases += [small_snf_case(rng, case) for case in range(600)]
    # a negative least entry, which the pivot takes with its sign flipped
    cases += [[[-3]], [[0, -2, 4]], [[-6], [4], [0]], [[0, 0], [0, 0]], [[-1, 0], [0, -1]],
              [[4, -2], [-6, 0]], [[0, 0, 0], [0, -5, 10]]]
    # a column whose Hermite form is diagonal while [D | U] is not (m > n),
    # and diagonal inputs that only the divisibility step changes
    cases += [[[5], [0], [2], [-2], [0], [0]], [[4, 0], [0, 6]], [[6, 0, 0], [0, 10, 0], [0, 0, 15]],
              [[5, 0], [0, 1]]]
    shapes = {(len(a), len(a[0])) for a in cases}
    assert {(1, 1), (1, 7), (7, 1), (40, 40)} <= shapes
    for a in cases:
        res = la.smith_normal_form(a)
        assert res.d == oracles.smith_normal_form(a).d, a
        assert_smith_form(a, res)


def test_smith_form_of_a_conjugated_order_5_norm_takes_few_passes(monkeypatch):
    """A seeded unimodular conjugate of diag(5^6, 1^54), the shape of the
    norm 1 + phi + ... + phi^4 of the order-5 action on H^4: D is the
    pivot loop's, with the 1s first, and the Hermite passes are few (2 on
    this input), because the gcd step, not more passes, moves each 5 past
    the 1s."""
    rng = Random(5)
    n = 60
    diag = [[(5 if i < 6 else 1) * (i == j) for j in range(n)] for i in range(n)]
    left, right = oracles.random_unimodular(rng, n, 60), oracles.random_unimodular(rng, n, 60)
    a = la.mat_mul(la.mat_mul(left, diag), right)
    assert la.det_bareiss(a) == 5**6  # the conjugators are products of row additions
    calls = []
    hermite = la._hermite_rows
    monkeypatch.setattr(la, "_hermite_rows", lambda rows, k: calls.append(k) or hermite(rows, k))
    res = la.smith_normal_form(a)
    assert res.diagonal == [1] * 54 + [5] * 6
    assert res.d == oracles.smith_normal_form(a).d
    assert_smith_form(a, res)
    assert len(calls) <= 3, len(calls)


def test_row_span_basis_and_rows_have_mutual_integer_coordinates():
    """row_span_basis(A) has rank(A) rows; each row of A has integer
    coordinates over them, and each of them over the rows of A: directly when
    the rows of A are independent, else through a coordinate matrix with unit
    invariant factors."""
    rng = Random(11)
    for case in range(150):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        if case % 2:  # independent rows, as a rule
            a = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(min(rows, cols))]
        else:
            rank = rng.randint(0, min(rows, cols))
            a = low_rank_matrix(rng, rows, cols, rank) if rank else la.zeros(rows, cols)
        if case % 3 == 0:
            a = [[2 * x for x in row] for row in a]  # a row span that is not saturated
        rank = oracles.rank_rational(a)
        basis = la.row_span_basis(a)
        assert len(basis) == rank
        coords = la.integer_coordinates(basis, a)
        assert coords is not None, a
        if rank == len(a):
            assert la.integer_coordinates(a, basis) is not None, a
        elif basis:
            assert oracles.snf_divisors(coords) == [1] * len(basis), a


# ------------------------------------------- results read off a Smith form
#
# Each digest below is sha256(repr(results)) as the library first produced
# them.  The results are invariants: a Smith form with other unimodular
# transforms (the same D) must leave every one unchanged.


def _digest(results) -> str:
    return hashlib.sha256(repr(results).encode()).hexdigest()


def test_weight_dim2_is_pinned():
    """weight_dim2 reads ray classes off V, their lift off V^-1, and the
    images of g' and gbar off kernel_basis."""
    results = [weight_dim2(p, q) for p in (2, 3, 5, 7, 11, 13, 17, 19) for q in range(1, p)]
    assert _digest(results) == "e807bbf67a8df82f6879f55c182cb95b3ec2cc57adabda6384a24d1aaac697f2"


def test_discriminant_groups_of_the_catalog_lattices_are_pinned():
    """The 28 lattice expressions of the golden `lattice --invariants` runs."""
    commands = json.loads(GOLDEN.read_text())
    exprs = [shlex.split(c)[1] for c in commands if c.startswith("lattice ")]
    assert len(exprs) == 28
    groups = [str(discriminant_group(parse_lattice_expr(e))) for e in exprs]
    assert _digest(groups) == "961441de8463e7b3338917239744707d2ae4fcd831294c34d64ad8d846cd66fe"


def test_group_cohomology_and_a_invariant_are_pinned():
    """Seeded Reiner actions, as built and conjugated by a unimodular W."""
    rng = Random(17)
    results = []
    for p in (2, 3, 5, 7, 11):
        for _ in range(3):
            t, c, g = rng.randint(0, 2), rng.randint(0, 2), rng.randint(1, 2)
            act = reiner_action(p, (t, c, g))
            for action in (act, conjugate(act, oracles.random_unimodular(rng, act.rank))):
                groups = [group_cohomology(action, i) for i in range(3)]
                results.append((p, (t, c, g), groups, a_invariant(action)))
    assert _digest(results) == "08739f8f0f153aacac9cb0e95be76e14476f62b8351148f6cb0cc11f03d7f9e4"


# -- the matrix contract: tuple rows read as list rows, no argument written --

# every public function of _linalg that reads a matrix, on a square matrix m
# and a symmetric one s; a dict holds the results of several calls
CONTRACT_CALLS = {
    "transpose": lambda m, s: la.transpose(m),
    "mat_mul": lambda m, s: {"ms": la.mat_mul(m, s), "mm": la.mat_mul(m, m)},
    "is_symmetric": lambda m, s: {"m": la.is_symmetric(m), "s": la.is_symmetric(s)},
    "shift_diagonal": lambda m, s: la.shift_diagonal(m, -1),
    "mat_pow": lambda m, s: {1: la.mat_pow(m, 1), 3: la.mat_pow(m, 3)},
    "rank_mod_p": lambda m, s: la.rank_mod_p(m, 5),
    "image_ranks_mod_p": lambda m, s: la.image_ranks_mod_p(m, 3, 4),
    "det_bareiss": lambda m, s: la.det_bareiss(m),
    "rank_rational": lambda m, s: la.rank_rational(m),
    "solve_in_rowspan": lambda m, s: la.solve_in_rowspan(m, s[0]),
    "integer_coordinates": lambda m, s: la.integer_coordinates(m, s),
    "smith_normal_form": lambda m, s: la.smith_normal_form(m),
    "elementary_divisors": lambda m, s: la.elementary_divisors(m),
    "kernel_basis": lambda m, s: la.kernel_basis(m),
    "image_basis": lambda m, s: la.image_basis(m),
    "row_span_basis": lambda m, s: la.row_span_basis(m),
    "charpoly": lambda m, s: la.charpoly(m),
    "signature_exact": lambda m, s: {"s": la.signature_exact(s), "m": _outcome(la.signature_exact, m)},
}


def _outcome(call, *args):
    """call(*args), or the error it raised, so that errors compare too."""
    try:
        return call(*args)
    except (ValueError, ArithmeticError) as exc:
        return repr(exc)


def _parts(value):
    """value and everything inside it, through lists, tuples, dict values and
    SNFResult."""
    if isinstance(value, la.SNFResult):
        value = (value.u, value.d, value.v)
    if isinstance(value, dict):
        for item in value.values():
            yield from _parts(item)
        return
    yield value
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _parts(item)


def _is_matrix(value) -> bool:
    """A sequence of integer rows."""
    return isinstance(value, (list, tuple)) and all(
        isinstance(row, (list, tuple)) and all(type(x) is int for x in row) for row in value
    )


def test_contract_calls_cover_every_public_function():
    public = {
        name
        for name, f in vars(la).items()
        if inspect.isfunction(f) and f.__module__ == la.__name__ and not name.startswith("_")
    }
    assert public - {"zeros", "identity"} == set(CONTRACT_CALLS)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_tuple_rows_give_what_list_rows_give_and_no_argument_is_written(seed):
    """The module contract: any sequence of integer rows is read alike, no
    argument is written into, and every matrix returned is fresh lists."""
    rng = Random(seed)
    n = rng.randint(1, 5)
    m = [[rng.randint(-3, 3) if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(n)]
    s = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
    for name, call in CONTRACT_CALLS.items():
        lists = ([list(r) for r in m], [list(r) for r in s])
        got = _outcome(call, *lists)
        assert got == _outcome(call, tuple(map(tuple, m)), tuple(map(tuple, s))), name
        assert lists == (m, s), name
        parts = list(_parts(got))
        given_ids = {id(x) for a in lists for x in (a, *a)}
        assert not given_ids & {id(x) for x in parts if isinstance(x, list)}, name
        matrices = [x for x in parts if _is_matrix(x)]
        assert all(type(x) is list and all(type(r) is list for r in x) for x in matrices), name
