"""Exact lattice arithmetic: Gram matrices, SNF, duals, reduction, parsing."""

import math
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from quotlat import (
    ATOM_GRAMS,
    GramLattice,
    HilbertSquare,
    binary_reduce,
    direct_sum,
    discriminant_group,
    dual_rescaled,
    invariant_summary,
    overlattice_divide,
    parse_lattice_expr,
    rescale,
    smith_normal_form,
)
from quotlat import _linalg as la
from quotlat.lattice_core import (
    MAX_RANK,
    DegenerateForm,
    IndexLawError,
    LatticeError,
    NonIntegralResult,
    NotDefinite,
    NotInDual,
    ParseError,
)
from quotlat.gmodule import PrimeOrderAction


def test_atom_table():
    facts = {
        "U": (2, -1, (1, 1)),
        "A2": (2, 3, (0, 2)),
        "A4": (4, 5, (4, 0)),
        "E6": (6, 3, (0, 6)),
        "E8": (8, 1, (8, 0)),
        "H5": (2, -5, (1, 1)),
        "K7": (2, 7, (0, 2)),
        "L17": (4, 17, (0, 4)),
        "K19": (2, 19, (0, 2)),
    }
    assert set(ATOM_GRAMS) == set(facts)
    for name, (rank, det, sig) in facts.items():
        lat = GramLattice(ATOM_GRAMS[name])
        assert lat.rank == rank
        assert lat.determinant == det
        assert invariant_summary(lat).signature == sig
        assert oracles.det(lat.gram) == det


def test_atom_grams_frozen():
    assert ATOM_GRAMS["U"] == ((0, 1), (1, 0))
    assert ATOM_GRAMS["A2"] == ((-2, 1), (1, -2))
    assert ATOM_GRAMS["H5"] == ((2, 1), (1, -2))
    assert ATOM_GRAMS["K7"] == ((-4, 1), (1, -2))
    assert ATOM_GRAMS["K19"] == ((-10, 1), (1, -2))


@pytest.mark.parametrize("entry", [2.7, 2.0, 1.9, "2", True, False], ids=repr)
def test_matrix_entries_that_are_not_ints_are_refused(entry):
    """int() would turn 2.7 into 2 and 1.9 into 1; records take plain ints only."""
    kind = type(entry).__name__
    with pytest.raises(TypeError, match=f"must be int, got {kind}"):
        GramLattice([[entry, 1], [1, 2]])
    with pytest.raises(TypeError, match=f"must be int, got {kind}"):
        PrimeOrderAction(2, [[0, entry], [1, 0]])
    with pytest.raises(TypeError, match=f"must be int, got {kind}"):
        HilbertSquare([[2, 1], [1, entry]])
    assert GramLattice(((2, 1), [1, 2])).gram == ((2, 1), (1, 2))


def test_parse_k3_lattice():
    lat = parse_lattice_expr("U^3 + E8(-1)^2")
    assert lat.rank == 22
    assert lat.determinant == -1
    inv = invariant_summary(lat)
    assert inv.signature == (3, 19)
    assert oracles.signature(lat.gram) == (3, 0, 19)


def test_parse_rescale_and_integers():
    assert parse_lattice_expr("U(3)").gram == ((0, 3), (3, 0))
    assert parse_lattice_expr("(-6)").gram == ((-6,),)
    assert abs(parse_lattice_expr("U(3) + U^2 + A2^2").determinant) == 81
    lat = parse_lattice_expr("U(3) + U^2 + A2^2 + (-6)")
    assert lat.rank == 11
    assert abs(lat.determinant) == 486


@pytest.mark.parametrize(
    "text, position",
    [("U +", 3), ("B9", 0), ("U^0", 2), ("A2(0)", 3)],
)
def test_parse_errors_carry_positions(text, position):
    with pytest.raises(ParseError) as exc:
        parse_lattice_expr(text)
    assert exc.value.position == position


def test_rank_above_the_bound_is_a_parse_error_before_expansion():
    """The bound sits above the largest lattice the package builds, H^4 of
    K3^[2]; a term that crosses it fails at its count or at its atom."""
    assert MAX_RANK > HilbertSquare(parse_lattice_expr("U^3 + E8(-1)^2")).h4_rank
    assert parse_lattice_expr(f"U^{MAX_RANK // 2}").rank == MAX_RANK
    with pytest.raises(ParseError) as exc:
        parse_lattice_expr(f"U^{MAX_RANK // 2 + 1}")
    assert str(exc.value) == f"rank {MAX_RANK + 2} is above {MAX_RANK} (at position 2)"
    text = " + ".join(["U"] * (MAX_RANK // 2) + ["(1)"])
    with pytest.raises(ParseError) as exc:
        parse_lattice_expr(text)
    assert exc.value.position == len(text) - 3


def test_gram_must_be_symmetric():
    with pytest.raises(LatticeError):
        GramLattice(((0, 1), (2, 0)))


def test_rescale_and_direct_sum():
    assert rescale(((0, 1), (1, 0)), 3) == ((0, 3), (3, 0))
    summed = direct_sum([((2,),), ((0, 1), (1, 0))])
    assert summed == ((2, 0, 0), (0, 0, 1), (0, 1, 0))


def test_smith_normal_form_frozen():
    rows = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    U, D, V = smith_normal_form(rows)
    divisors = [abs(D[i][i]) for i in range(3) if D[i][i]]
    assert divisors == [2, 2, 156]
    assert divisors == oracles.snf_divisors(rows)


@given(st.integers(1, 5), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_smith_normal_form_identity_and_divisors(n, seed):
    rng = Random(seed)
    mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    U, D, V = smith_normal_form(mat)
    assert abs(oracles.det(U)) == 1
    assert abs(oracles.det(V)) == 1
    prod = [
        [sum(U[i][k] * mat[k][m] for k in range(n)) for m in range(n)]
        for i in range(n)
    ]
    prod = [
        [sum(prod[i][k] * V[k][m] for k in range(n)) for m in range(n)]
        for i in range(n)
    ]
    assert [list(r) for r in D] == prod
    divisors = [abs(D[i][i]) for i in range(n) if D[i][i]]
    assert all(b % a == 0 for a, b in zip(divisors, divisors[1:]))
    assert divisors == oracles.snf_divisors(mat)


def test_discriminant_groups():
    assert str(discriminant_group(parse_lattice_expr("U(3)"))) == "Z/3 + Z/3"
    d = discriminant_group(parse_lattice_expr("E8(-2)"))
    assert math.prod(d.elementary_divisors) == 2**8
    assert d.is_p_elementary(2)
    assert d.p_rank(2) == 8
    assert not discriminant_group(parse_lattice_expr("A2")).is_p_elementary(2)


def test_dual_rescaled_e6():
    # E6 is 3-elementary of rank 6 with |det| = 3, so |det E6^v(3)| = 3^5
    lat = parse_lattice_expr("E6")
    dual = dual_rescaled(lat, 3)
    assert dual.determinant == 3**5
    assert oracles.det(dual.gram) == 3**5


@pytest.mark.parametrize("expr, p", [("E6", 3), ("U(3)", 3), ("E8(-2)", 2), ("A4", 5)])
def test_dual_rescaled_is_an_involution(expr, p):
    lat = parse_lattice_expr(expr)
    assert dual_rescaled(dual_rescaled(lat, p), p).gram == lat.gram


def test_overlattice_divide_hand_example():
    # diag(4, 4) with (f1 + f2)/2 adjoined: index 2, determinant 16 -> 4
    lat = GramLattice(((4, 0), (0, 4)))
    out = overlattice_divide(lat, [(1, 1)], 2)
    assert out.determinant == 4
    assert oracles.snf_divisors(out.gram) == [2, 2]


def test_overlattice_divide_rejects_vectors_outside_dual():
    with pytest.raises(NotInDual):
        overlattice_divide(GramLattice(((2, 0), (0, 3))), [(0, 1)], 2)


def test_overlattice_divide_rejects_nonintegral_result():
    # e1/2 lies in the dual of diag(2, 2) but has self-pairing 1/2
    with pytest.raises(NonIntegralResult):
        overlattice_divide(GramLattice(((2, 0), (0, 2))), [(1, 0)], 2)


@pytest.mark.parametrize("p", [1, 4])
def test_overlattice_divide_refuses_an_order_that_is_not_prime(p):
    """An order that is not prime is refused before any work: the p-power
    count of the index never ends for p = 1, and for p = 4 this glue has
    index 2, no power of p."""
    with pytest.raises(LatticeError, match=f"{p} is not prime"):
        overlattice_divide(GramLattice(((4, 0), (0, 4))), [(2, 2)], p)


def test_invariant_summary_raises_on_zero_inertia(monkeypatch):
    monkeypatch.setattr(la, "signature_exact", lambda rows: (1, 0, 1))
    with pytest.raises(DegenerateForm, match="zero eigenvalues"):
        invariant_summary(parse_lattice_expr("U"))


@pytest.mark.parametrize(
    "p, fake_det, message",
    [(2, 3, "does not divide"), (2, 1, "discr")],
)
def test_overlattice_divide_raises_on_broken_index_laws(monkeypatch, p, fake_det, message):
    # the honest basis of pL + Z(p/2, p/2) has |det| p^2 / 2
    basis = la.row_span_basis([[p, 0], [0, p], [p // 2, p // 2]])
    real = la.det_bareiss
    monkeypatch.setattr(la, "det_bareiss", lambda rows: fake_det if rows == basis else real(rows))
    with pytest.raises(IndexLawError, match=message):
        overlattice_divide(GramLattice(((4, 0), (0, 4))), [(p // 2, p // 2)], p)


def test_binary_reduce_frozen():
    assert binary_reduce([[12, 5], [5, 4]]) == ((4, 1), (1, 6))
    assert binary_reduce([[4, -3], [-3, 4]]) == ((2, 1), (1, 4))
    assert binary_reduce([[-4, 1], [1, -2]]) == ((-2, -1), (-1, -4))


def test_binary_reduce_rejects_indefinite():
    with pytest.raises(NotDefinite):
        binary_reduce([[12, 5], [5, 2]])


@given(st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_binary_reduce_is_a_reduction(seed):
    rng = Random(seed)
    # b^T b + I is positive definite for any integer b
    b = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)]
    g = [
        [sum(b[k][i] * b[k][j] for k in range(2)) + (i == j) for j in range(2)]
        for i in range(2)
    ]
    (a, off), (_, c) = binary_reduce(g)
    assert a * c - off * off == oracles.det(g)
    assert 0 <= 2 * abs(off) <= abs(a) <= abs(c)
