"""Integral cohomology ring of the Hilbert square of a K3 surface."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from quotlat import (
    SIGMA,
    H2Class,
    H4Class,
    HilbertSquare,
    PrimeOrderAction,
    h2_primitivity_certificate,
    jordan_profile,
    k3_order5_action,
    parse_lattice_expr,
    s_lattice_gram,
    sym2_profile,
)
from quotlat._linalg import det_bareiss, transpose
from quotlat.hilb2_ring import DELTA_SQUARE

S_GRAM = (
    (12, -2, -1, 0, 0, 0, 0),
    (-2, 2, 1, 0, 0, 0, 0),
    (-1, 1, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 2, 0, 0),
    (0, 0, 0, 2, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, -2),
    (0, 0, 0, 0, 0, -2, 0),
)


def bb_gram(hilb):
    """Beauville-Bogomolov Gram matrix on (gamma_1..gamma_n, delta)."""
    return [list(row) + [0] for row in hilb.gram] + [[0] * hilb.n + [DELTA_SQUARE]]


def h4_basis_class(hilb, index: int) -> H4Class:
    return H4Class(tuple(int(i == index) for i in range(hilb.h4_rank)))


def q2(hilb, k: int) -> H4Class:
    return h4_basis_class(hilb, hilb._q2_at + k)


def q1q1(hilb, k: int, m: int) -> H4Class:
    return h4_basis_class(hilb, hilb._pair_index[(min(k, m), max(k, m))])


def m11(hilb, k: int) -> H4Class:
    return h4_basis_class(hilb, hilb._m11_at + k)


def apply_h4(matrix, a: H4Class) -> H4Class:
    """matrix . a, for a matrix whose columns are images."""
    return H4Class(tuple(sum(x * y for x, y in zip(row, a.coords)) for row in matrix))


def test_bb_lattice_shape(hilb):
    assert hilb.h2_rank() == 23
    assert det_bareiss(bb_gram(hilb)) == 2
    assert hilb.bb(hilb.delta, hilb.delta) == -2
    assert hilb.bb(hilb.gamma(0), hilb.gamma(1)) == 1
    assert hilb.bb(hilb.gamma(0), hilb.gamma(0)) == 0
    assert hilb.bb(hilb.gamma(0), hilb.delta) == 0


def test_h4_pairings_frozen(hilb):
    sig = hilb.sigma()
    assert hilb.pair_h4(sig, sig) == 1
    d2 = hilb.cup(hilb.delta, hilb.delta)
    assert hilb.pair_h4(d2, sig) == -1
    assert hilb.pair_h4(d2, d2) == 12
    assert hilb.pair_h4(q2(hilb, 0), q2(hilb, 1)) == -2
    assert hilb.pair_h4(q1q1(hilb, 0, 1), q1q1(hilb, 0, 1)) == 1
    assert hilb.pair_h4(m11(hilb, 0), m11(hilb, 0)) == 0


def test_h4_basis_labels(hilb):
    labels = hilb.h4_basis_labels()
    assert len(labels) == 276
    assert labels[0] == "sigma"
    assert labels[1] == "q2(a0)"
    assert labels[-1] == "m11(a21)"


def test_fujiki_relation_on_h2(hilb):
    # integral of x^4 over the Hilbert square is 3 q(x)^2
    for x in [hilb.delta, hilb.gamma(0) + hilb.gamma(1), hilb.gamma(4) - 2 * hilb.delta]:
        assert hilb.fujiki_product(x, x, x, x) == 3 * hilb.bb(x, x) ** 2


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_fujiki_polarization(hilb, seed):
    rng = Random(seed)

    def rand_class():
        coeffs = [0] * 22
        for _ in range(3):
            coeffs[rng.randrange(22)] = rng.randint(-2, 2)
        return H2Class(tuple(coeffs), rng.randint(-2, 2))

    x1, x2, x3, x4 = (rand_class() for _ in range(4))
    q = hilb.bb
    lhs = hilb.fujiki_product(x1, x2, x3, x4)
    rhs = (
        q(x1, x2) * q(x3, x4)
        + q(x1, x3) * q(x2, x4)
        + q(x1, x4) * q(x2, x3)
    )
    assert lhs == rhs


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_monomial_pairing_matches_h4_gram(hilb, seed):
    # the direct route against the pairing of cup coordinates in the H^4 Gram
    rng = Random(seed)

    def rand_class():
        coeffs = [0] * 22
        for _ in range(3):
            coeffs[rng.randrange(22)] = rng.randint(-3, 3)
        return H2Class(tuple(coeffs), rng.choice((-2, -1, 1, 2)))

    x, y, z, w = (rand_class() for _ in range(4))
    xy, zw = hilb.cup(x, y), hilb.cup(z, w)
    assert hilb.pair_monomials((x, y), (z, w)) == hilb.pair_h4(xy, zw)
    assert hilb.pair_monomials(SIGMA, (x, y)) == hilb.pair_h4(hilb.sigma(), xy)
    assert hilb.pair_monomials((z, w), SIGMA) == hilb.pair_h4(zw, hilb.sigma())
    assert hilb.pair_monomials(SIGMA, SIGMA) == hilb.pair_h4(hilb.sigma(), hilb.sigma())


def test_h4_gram_is_unimodular(hilb):
    # Poincare duality on H^4 of the Hilbert square
    assert abs(det_bareiss(hilb.h4_gram())) == 1


@pytest.mark.parametrize("expr", ["U", "U^3", "U + E8(-1)"])
def test_h4_gram_matches_fraction_oracle(expr):
    small = HilbertSquare(parse_lattice_expr(expr).gram)
    assert small.h4_gram() == oracles.fraction_h4_gram(small)


def test_cup_is_symmetric_and_bilinear(hilb):
    rng = Random(12)
    for _ in range(10):
        coeffs = [rng.randint(-2, 2) for _ in range(22)]
        x = H2Class(tuple(coeffs), rng.randint(-2, 2))
        y = H2Class(tuple(coeffs[::-1]), rng.randint(-2, 2))
        z = H2Class(tuple(rng.randint(-2, 2) for _ in range(22)), 1)
        assert hilb.cup(x, y).coords == hilb.cup(y, x).coords
        both = hilb.cup(x + z, y)
        split = hilb.cup(x, y) + hilb.cup(z, y)
        assert both.coords == split.coords


def test_induced_maps_commute_with_cup(hilb):
    # swap the two E8(-1) blocks of U^3 + E8(-1)^2; an isometry of the K3 lattice
    n = 22
    psi = [[0] * n for _ in range(n)]
    for i in range(6):
        psi[i][i] = 1
    for i in range(8):
        psi[6 + i][14 + i] = 1
        psi[14 + i][6 + i] = 1
    h2map = hilb.induced_h2(psi)
    h4map = hilb.induced_h4(psi)
    x = hilb.gamma(7) + 2 * hilb.delta
    y = hilb.gamma(15) - hilb.gamma(2)
    moved = apply_h4(h4map, hilb.cup(x, y))
    direct = hilb.cup(hilb._image_h2(psi, x), hilb._image_h2(psi, y))
    assert moved.coords == direct.coords


def u_block_cycle():
    # gamma_i -> gamma_(i+2) -> gamma_(i+4) -> gamma_i on the U blocks of
    # U^3 + E8(-1)^2: column k holds the image of gamma_k, not symmetric
    psi = [[int(i == k) for k in range(22)] for i in range(22)]
    for i in range(6):
        psi[i][i] = 0
        psi[(i + 2) % 6][i] = 1
    return psi


@pytest.fixture(scope="module")
def order5():
    act = k3_order5_action()
    return act, HilbertSquare(act.gram)


def random_h2_class(rng):
    coeffs = [0] * 22
    for _ in range(4):
        coeffs[rng.randrange(22)] = rng.randint(-3, 3)
    return H2Class(tuple(coeffs), rng.choice((-2, -1, 1, 2)))


def test_induced_h4_matches_row_oracle(hilb, order5):
    psi = u_block_cycle()
    assert psi != transpose(psi)
    assert hilb.induced_h4(psi) == transpose(oracles.row_induced_h4(hilb, transpose(psi)))
    act, hs = order5
    phi = [list(r) for r in act.phi]
    assert hs.induced_h4(phi) == transpose(oracles.row_induced_h4(hs, transpose(phi)))


def test_induced_h4_commutes_with_cup_for_order5(order5):
    act, hs = order5
    phi = [list(r) for r in act.phi]
    h4map = hs.induced_h4(phi)
    rng = Random(5)
    for _ in range(20):
        x, y = random_h2_class(rng), random_h2_class(rng)
        moved = apply_h4(h4map, hs.cup(x, y))
        assert moved == hs.cup(hs._image_h2(phi, x), hs._image_h2(phi, y))


def test_induced_h4_is_the_sym2_of_the_h2_action(order5):
    # columns are images, so the induced matrices pass PrimeOrderAction's
    # phi^T G phi = G check unchanged
    act, hs = order5
    phi = [list(r) for r in act.phi]
    h2 = PrimeOrderAction(5, hs.induced_h2(phi), gram=bb_gram(hs))
    assert jordan_profile(h2).blocks == (0, 3, 0, 0, 0, 4)
    h4 = PrimeOrderAction(5, hs.induced_h4(phi), gram=hs.h4_gram())
    assert jordan_profile(h4).blocks == (0, 6, 0, 0, 0, 54)
    assert jordan_profile(h4) == sym2_profile(jordan_profile(h2))


def test_s_lattice_gram_frozen(hilb):
    s = s_lattice_gram(hilb, hilb.gamma(0), hilb.gamma(1))
    assert tuple(tuple(row) for row in s) == S_GRAM
    assert oracles.det(s) == 160
    assert 160 == 2**5 * 5


def test_s_lattice_gram_builds_no_h4_gram():
    fresh = HilbertSquare(parse_lattice_expr("U^3 + E8(-1)^2").gram)
    s = s_lattice_gram(fresh, fresh.gamma(0), fresh.gamma(1))
    assert tuple(tuple(row) for row in s) == S_GRAM
    assert fresh._h4_gram_cache is None


def test_primitivity_certificate(hilb):
    s = s_lattice_gram(hilb, hilb.gamma(0), hilb.gamma(1))
    ok, witness = h2_primitivity_certificate(s, 5)
    assert ok and witness is None
    ok3, witness3 = h2_primitivity_certificate(s, 3)
    assert ok3 and witness3 is None


def test_primitivity_certificate_detects_failure():
    # scaling every pairing by p makes each candidate land in pZ^7
    scaled = tuple(tuple(5 * x for x in row) for row in S_GRAM)
    ok, witness = h2_primitivity_certificate(scaled, 5)
    assert not ok
    assert witness is not None
    a, b, c = witness
    assert any(v % 5 for v in (a, b, c))


@pytest.mark.parametrize("p", [0, 1, 4, 9])
def test_primitivity_certificate_rejects_a_non_prime(p):
    with pytest.raises(ValueError, match=f"{p} is not prime"):
        h2_primitivity_certificate(S_GRAM, p)


def test_hilbert_square_rejects_a_gram_that_is_not_symmetric():
    """[[0, 1], [-1, 0]] is unimodular with an even diagonal, but it would
    give bb(gamma0, gamma1) = 1 and bb(gamma1, gamma0) = -1."""
    with pytest.raises(ValueError, match="must be symmetric"):
        HilbertSquare([[0, 1], [-1, 0]])


def test_hilbert_square_rejects_odd_rank_input():
    with pytest.raises(Exception):
        HilbertSquare([*parse_lattice_expr("A2").gram, [1]])
