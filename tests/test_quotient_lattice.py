"""Quotient lattices: surface middle cohomology and fourfold BB forms."""

from fractions import Fraction
from random import Random

import pytest

import oracles
from quotlat import _linalg as la
from quotlat import (
    GlueSpec,
    GramLattice,
    bb_quotient,
    catalog_verify,
    find_glue,
    lattices_match,
    overlattice_divide,
    parse_lattice_expr,
    quotient_middle_lattice,
)
from quotlat.lattice_core import LatticeError, NotPElementary
from quotlat.quotient_lattice import fujiki_scale

M11A_GRAM = ((2, 3, -8), (3, 6, -16), (-8, -16, 50))
M11B_GRAM = ((2, -9, 0), (-9, 46, 0), (0, 0, 2))


def test_quotient_middle_lattice_surfaces(by_name):
    y3 = quotient_middle_lattice(by_name["Y3"].invariant, 3)
    assert abs(y3.determinant) == 81
    assert lattices_match(y3, parse_lattice_expr("U(3) + U^2 + A2^2")).passed

    y7 = quotient_middle_lattice(by_name["Y7"].invariant, 7)
    assert abs(y7.determinant) == 7
    y7_target = GramLattice(((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 4, -3), (0, 0, -3, 4)))
    assert lattices_match(y7, y7_target).passed

    z11 = quotient_middle_lattice(by_name["Z11"].invariant, 11)
    assert lattices_match(z11, parse_lattice_expr("U")).passed


def test_quotient_middle_lattice_needs_p_elementary():
    with pytest.raises(NotPElementary):
        quotient_middle_lattice(parse_lattice_expr("U + A2"), 5)


def test_bb_quotient_m3(by_name):
    # The declared glue: in the invariant basis order U, U(3), U(3), A2, A2,
    # (-2), the U(3) unit rows and the A2 combinations (e, -e'), (e, 2e')
    # pair into 3Z with the whole lattice, so those eight rows are divided.
    s = by_name["M3"]
    res = bb_quotient(s.invariant, 3, s.resolved_glue())
    assert res.fujiki_constant == 9
    assert res.scale == 3
    assert res.index_log == 6
    assert lattices_match(res.gram, parse_lattice_expr("U(3) + U^2 + A2^2 + (-6)")).passed


def test_bb_quotient_m5(by_name):
    s = by_name["M5"]
    res = bb_quotient(s.invariant, 5, s.resolved_glue())
    assert res.fujiki_constant == 15
    assert res.scale == 5
    assert res.index_log == 4
    assert lattices_match(res.gram, parse_lattice_expr("U(5) + U^2 + (-10)")).passed


@pytest.mark.parametrize(
    "name, gram", [("M11a", M11A_GRAM), ("M11b", M11B_GRAM)]
)
def test_bb_quotient_order_11(by_name, name, gram):
    s = by_name[name]
    res = bb_quotient(s.invariant, 11, s.resolved_glue())
    assert res.fujiki_constant == 33
    assert res.index_log == 2
    assert res.gram.gram == gram


def test_find_glue_reproduces_declared_quotient(by_name):
    s = by_name["M5"]
    auto = bb_quotient(s.invariant, 5, find_glue(s.invariant, 5))
    decl = bb_quotient(s.invariant, 5, s.resolved_glue())
    assert auto.fujiki_constant == decl.fujiki_constant == 15
    assert auto.gram.determinant == decl.gram.determinant == 250
    assert lattices_match(auto.gram, decl.gram).passed


def test_find_glue_survives_base_changes():
    """find_glue's F_p kernel must pair into pZ in any basis of the lattice.

    For G' = u G u^T the glue sublattice of G' is that of G times u^-1, so
    with T and T' the two glue transforms, W = T' u T^-1 must be unimodular
    and carry one quotient Gram to the other.  (lattices_match would also
    compare the Gauss-reduced binary blocks of each presentation, which a
    random base change breaks up.)
    """
    base = parse_lattice_expr("U(3) + A2 + U")
    glue = find_glue(base, 3)
    want = bb_quotient(base, 3, glue)
    assert want.fujiki_constant == 9
    t_inv = oracles.inverse(glue.transform)
    rng = Random(11)
    for _ in range(30):
        u = oracles.random_unimodular(rng, base.rank)
        gram = la.mat_mul(la.mat_mul(u, base.gram), la.transpose(u))
        moved = GramLattice(tuple(tuple(r) for r in gram))
        moved_glue = find_glue(moved, 3)
        got = bb_quotient(moved, 3, moved_glue)
        assert got.fujiki_constant == 9
        # t_inv is rational and mat_mul takes integers only
        w = oracles._dense_mul(la.mat_mul([list(r) for r in moved_glue.transform], u), t_inv)
        assert all(x.denominator == 1 for row in w for x in row)
        w = [[int(x) for x in row] for row in w]
        assert abs(oracles.det(w)) == 1
        assert la.mat_mul(la.mat_mul(w, want.gram.gram), la.transpose(w)) == [list(r) for r in got.gram.gram]


def test_glue_spec_validation():
    with pytest.raises(LatticeError):
        GlueSpec(((1, 0), (0, 1)), (True,))
    spec = GlueSpec.identity(3, divided=(0, 2))
    assert spec.rank == 3
    assert spec.divided == (True, False, True)


def test_fujiki_scale_normalizes_content():
    # lambda * Q must be integral with entry gcd 1, so diag(2/3, 4/3) -> diag(1, 2)
    lam, c = fujiki_scale(3, [[Fraction(2, 3), 0], [0, Fraction(4, 3)]])
    assert lam == Fraction(3, 2)
    assert c == 36
    assert c == Fraction(3 * 27) / (lam * lam)


def test_lattices_match_handles_block_permutation():
    a = parse_lattice_expr("A2 + U")
    b = parse_lattice_expr("U + A2")
    assert lattices_match(a, b).passed
    bad = lattices_match(parse_lattice_expr("U"), parse_lattice_expr("U(3)"))
    assert not bad.passed
    assert any("det" in line or "disc" in line for line in bad.lines())


def test_overlattice_law_small_sweep():
    # spot check here; the 500-case sweep runs in the acceptance suite
    rng = Random(5)
    for p in (2, 3, 5):
        amb = oracles.random_symmetric(rng, 4)
        sub, x = oracles.functional_sublattice(rng, amb, p)
        out = overlattice_divide(GramLattice(tuple(tuple(r) for r in sub)), [x], p)
        assert out.determinant * p * p == oracles.det(sub)
        assert out.determinant == oracles.det(amb)


def test_catalog_verify_smoke():
    rows = catalog_verify("M11")
    assert [r.name for r in rows] == ["M11a", "M11b"]
    assert all(r.passed for r in rows)
