"""Order-p actions: Jordan profiles, symmetric squares, group cohomology."""

import ast
import hashlib
import importlib
import inspect
import pkgutil
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import quotlat
from quotlat import _linalg as la
from quotlat import _record
from quotlat import gmodule
from quotlat import (
    CohomologyProfile,
    JordanProfile,
    PrimeOrderAction,
    a_invariant,
    conjugate,
    free_quotient_cohomology,
    group_cohomology,
    jordan_profile,
    k3_order5_action,
    reiner_action,
    sym2_action,
    sym2_profile,
)
from quotlat.gmodule import (
    SUPPORTED_PRIMES,
    FormNotPreserved,
    GModuleError,
    HypothesesNotMet,
    NotAnOrderPAction,
    UnsupportedPrime,
    companion_cyclotomic,
    reiner_block,
)


def blocks(p, counts):
    """Expected Jordan profile of reiner_action(p, counts)."""
    t, c, g = counts
    out = [0] * (p + 1)
    out[1], out[p - 1], out[p] = t, out[p - 1] + c, out[p] + g
    return tuple(out)


def random_counts(rng, p, max_rank=12):
    while True:
        t, c, g = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
        rank = t + c * (p - 1) + g * p
        if 0 < rank <= max_rank:
            return (t, c, g)


# ---------------------------------------------------------------- profiles


def test_reiner_blocks():
    assert [list(r) for r in reiner_block(3, "trivial")] == [[1]]
    cyc = PrimeOrderAction(p=5, phi=tuple(tuple(r) for r in reiner_block(5, "cyclotomic")))
    assert cyc.rank == 4
    assert jordan_profile(cyc).blocks == (0, 0, 0, 0, 1, 0)
    glued = PrimeOrderAction(p=5, phi=tuple(tuple(r) for r in reiner_block(5, "glued")))
    assert glued.rank == 5
    assert jordan_profile(glued).blocks == (0, 0, 0, 0, 0, 1)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_jordan_profile_matches_construction(p):
    rng = Random(p * 101)
    for _ in range(8):
        counts = random_counts(rng, p, max_rank=2 * p + 4)
        act = reiner_action(p, counts)
        assert jordan_profile(act).blocks == blocks(p, counts)


def test_jordan_profile_p2_eigensplit():
    swap = PrimeOrderAction(p=2, phi=((0, 1), (1, 0)))
    jp = jordan_profile(swap)
    assert jp.blocks == (0, 0, 1)
    assert (jp.plus_rank, jp.minus_rank) == (0, 0)
    refl = PrimeOrderAction(p=2, phi=((1, 0), (0, -1)))
    jp = jordan_profile(refl)
    assert jp.blocks == (0, 2, 0)
    assert (jp.plus_rank, jp.minus_rank) == (1, 1)
    # the + eigenlattice plays the role of l_1 and the - one that of l_(p-1),
    # so -1 eigenvectors do not count as invariant
    assert (jp.l1, jp.l_pm1, jp.invariant_rank) == (1, 1, 1)
    jp = jordan_profile(PrimeOrderAction(p=2, phi=((-1, 0), (0, -1))))
    assert (jp.l1, jp.l_pm1, jp.invariant_rank) == (0, 2, 0)
    assert JordanProfile(2, (0, 2, 1), plus_rank=1, minus_rank=1).invariant_rank == 2


@st.composite
def involution_counts(draw, max_rank=16):
    """(trivial, cyclotomic, glued) counts of a p = 2 Reiner action of rank 1..max_rank."""
    g = draw(st.integers(0, max_rank // 2))
    c = draw(st.integers(0, max_rank - 2 * g))
    t = draw(st.integers(0 if g or c else 1, max_rank - 2 * g - c))
    return (t, c, g)


@given(involution_counts(), st.integers(0, 10**6), st.booleans())
@settings(max_examples=40, deadline=None)
def test_p2_eigensplit_over_f3_matches_ranks_over_q(counts, seed, conjugated):
    """The + and - eigenlattice ranks taken over F_3 equal those over Q."""
    act = reiner_action(2, counts)
    if conjugated:
        act = conjugate(act, oracles.random_unimodular(Random(seed), act.rank))
    n, jp = act.rank, jordan_profile(act)
    minus_one = act.tau()
    plus_one = [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(act.phi)]
    assert jp.plus_rank == n - oracles.rank_rational(minus_one) - jp.blocks[2]
    assert jp.minus_rank == n - oracles.rank_rational(plus_one) - jp.blocks[2]
    assert la.rank_mod_p(minus_one, 3) + la.rank_mod_p(plus_one, 3) == n
    assert (jp.plus_rank, jp.minus_rank, jp.blocks[2]) == counts


def test_p2_jordan_profile_takes_no_rank_over_q(monkeypatch):
    """The p = 2 split of a Sym^2 action is read from F_3 ranks alone."""

    def refuse(rows):
        raise AssertionError("jordan_profile reached rank_rational")

    monkeypatch.setattr(la, "rank_rational", refuse)
    base = reiner_action(2, (2, 2, 2))
    assert jordan_profile(sym2_action(base)) == sym2_profile(jordan_profile(base))


def test_jordan_profile_invariant_under_conjugation():
    rng = Random(4242)
    for p in (3, 5, 7):
        counts = random_counts(rng, p)
        act = reiner_action(p, counts)
        moved = conjugate(act, oracles.random_unimodular(rng, act.rank))
        assert jordan_profile(moved).blocks == blocks(p, counts)


def test_companion_cyclotomic_has_order_p():
    for p in (3, 5, 7, 11):
        m = companion_cyclotomic(p)
        act = PrimeOrderAction(p=p, phi=tuple(tuple(r) for r in m))
        assert act.rank == p - 1
        # 1 + phi + ... + phi^(p-1) = 0 on the cyclotomic module
        assert all(x == 0 for row in act.sigma() for x in row)


def test_sigma_by_horner_matches_the_sum_of_powers(monkeypatch):
    rng = Random(7)
    act = conjugate(reiner_action(5, (1, 1, 1)), oracles.random_unimodular(rng, 10))
    phi = act.phi
    want = la.identity(act.rank)
    power = la.identity(act.rank)
    for _ in range(act.p - 1):
        power = la.mat_mul(power, phi)
        want = [[a + b for a, b in zip(r, s)] for r, s in zip(want, power)]
    calls = []
    monkeypatch.setattr(la, "mat_mul", lambda a, b, f=la.mat_mul: calls.append(1) or f(a, b))
    first = act.sigma()
    assert first == want and len(calls) == act.p - 1
    first[0][0] += 7
    assert act.sigma() == want


def test_unsupported_primes_rejected():
    with pytest.raises(UnsupportedPrime):
        reiner_action(4, (1, 0, 0))
    with pytest.raises(UnsupportedPrime):
        reiner_action(23, (1, 0, 0))


def test_phi_must_have_order_p():
    with pytest.raises(NotAnOrderPAction):
        PrimeOrderAction(p=3, phi=((2, 0), (0, 1)))


def as_action(p, rows):
    return PrimeOrderAction(p=p, phi=tuple(tuple(r) for r in rows))


def test_order_check_rejects_other_orders():
    minus_one = [[-1 if i == j else 0 for j in range(3)] for i in range(3)]
    with pytest.raises(NotAnOrderPAction):
        as_action(3, minus_one)  # order 2
    phi9 = oracles.companion([1, 0, 0, 1, 0, 0])  # x^6 + x^3 + 1, order 9
    assert not oracles.has_order_dividing(phi9, 3)
    assert oracles.has_order_dividing(la.mat_mul(la.mat_mul(phi9, phi9), phi9), 3)
    with pytest.raises(NotAnOrderPAction):
        as_action(3, phi9)
    for p in SUPPORTED_PRIMES:
        assert as_action(p, la.identity(4)).rank == 4
        if p == 2:
            assert as_action(p, minus_one).rank == 3
        else:
            with pytest.raises(NotAnOrderPAction):
                as_action(p, minus_one)


@given(st.sampled_from(SUPPORTED_PRIMES), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_order_check_matches_dense_powers(p, seed):
    """Accepted exactly when p dense products give the identity."""
    rng = Random(seed)
    act = reiner_action(p, random_counts(rng, p, max_rank=p + 3))
    phi = [list(r) for r in conjugate(act, oracles.random_unimodular(rng, act.rank, steps=4)).phi]
    if seed % 3:
        # a unit entry added to an order-p matrix usually breaks the order
        i, j = rng.randrange(len(phi)), rng.randrange(len(phi))
        phi[i][j] += rng.choice((-1, 1))
    if oracles.has_order_dividing(phi, p):
        assert as_action(p, phi).rank == len(phi)
    else:
        with pytest.raises(NotAnOrderPAction):
            as_action(p, phi)


@given(st.sampled_from(SUPPORTED_PRIMES), st.integers(0, 10**6), st.booleans())
@settings(max_examples=40, deadline=None)
def test_image_chain_ranks_match_dense_powers(p, seed, conjugated):
    rng = Random(seed)
    act = reiner_action(p, random_counts(rng, p, max_rank=p + 4))
    if conjugated:
        act = conjugate(act, oracles.random_unimodular(rng, act.rank))
    tau = act.tau()
    assert la.image_ranks_mod_p(tau, p, p + 1) == oracles.power_ranks_mod_p(tau, p, p + 1)
    assert la.rank_mod_p(tau, p) == oracles.rank_mod_p(tau, p)


# ---------------------------------------------------------------- invariant checks


def _is_assertion(node) -> bool:
    """An ``assert`` statement or a ``raise AssertionError``."""
    if isinstance(node, ast.Assert):
        return True
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(quotlat.__path__)))
def test_module_has_no_asserts(name):
    """Invariant checks raise typed errors, so they run under python -O and
    the CLI can map them to exit 2."""
    tree = ast.parse(inspect.getsource(importlib.import_module(f"quotlat.{name}")))
    assert not [node.lineno for node in ast.walk(tree) if _is_assertion(node)]


@pytest.mark.parametrize(
    "ranks, message",
    [
        ([2, 1, 1, 1, 0], "vanish"),  # r_p != 0
        ([2, 0, 1, 0, 0], "negative Jordan block count"),  # l_2 = -2
        ([3, 1, 0, 0, 0], "do not add up"),  # r_0 is not the rank
    ],
)
def test_jordan_profile_raises_on_broken_ranks(monkeypatch, ranks, message):
    monkeypatch.setattr(la, "image_ranks_mod_p", lambda tau, p, steps: ranks)
    with pytest.raises(GModuleError, match=message):
        jordan_profile(reiner_action(3, (0, 1, 0)))


def test_jordan_profile_raises_on_broken_eigensplit(monkeypatch):
    monkeypatch.setattr(la, "rank_mod_p", lambda rows, p: 0)
    with pytest.raises(GModuleError, match="eigenlattice"):
        jordan_profile(PrimeOrderAction(p=2, phi=((0, 1), (1, 0))))


def test_a_invariant_raises_on_profile_disagreement(monkeypatch):
    act = reiner_action(3, (1, 0, 1))
    monkeypatch.setattr(gmodule, "jordan_profile", lambda action: JordanProfile(3, (0, 4, 0, 0)))
    with pytest.raises(GModuleError, match="a-invariant"):
        a_invariant(act)


def test_a_invariant_raises_on_index_outside_p_powers(monkeypatch):
    act = reiner_action(5, (1, 1, 1))
    monkeypatch.setattr(la, "det_bareiss", lambda rows: 10)
    with pytest.raises(GModuleError, match="not a p-power"):
        a_invariant(act)


def test_form_check_freezes_its_product_before_comparing_with_a_tuple_gram():
    """phi^T G phi comes back as lists and a list never equals a tuple, so the
    product is frozen first: a tuple Gram phi keeps is accepted, one it
    breaks raises FormNotPreserved."""
    swap = ((0, 1), (1, 0))
    kept = PrimeOrderAction(2, swap, gram=((2, 1), (1, 2)))
    assert kept.gram == ((2, 1), (1, 2))
    with pytest.raises(FormNotPreserved):
        PrimeOrderAction(2, swap, gram=((2, 1), (1, 4)))
    with pytest.raises(FormNotPreserved):
        PrimeOrderAction(2, [list(r) for r in swap], gram=((2, 1), (1, 4)))


# ---------------------------------------------------------------- sym2


def test_sym2_action_matches_direct_expansion():
    rng = Random(99)
    for p in (3, 5, 7):
        act = reiner_action(p, random_counts(rng, p, max_rank=8))
        act = conjugate(act, oracles.random_unimodular(rng, act.rank, steps=6))
        phi = act.phi
        assert sym2_action(act).phi == tuple(map(tuple, oracles.sym2_matrix(phi, len(phi))))


def test_sym2_action_freezes_phi_once_to_plain_ints(monkeypatch):
    act = conjugate(reiner_action(3, (1, 1, 1)), oracles.random_unimodular(Random(5), 6))
    freezes = []
    monkeypatch.setattr(
        gmodule, "_freeze", lambda mat, f=gmodule._freeze: freezes.append(1) or f(mat)
    )
    square = sym2_action(act)
    assert len(freezes) == 1
    assert type(square.phi) is tuple
    assert all(type(row) is tuple and all(type(x) is int for x in row) for row in square.phi)
    frozen = tuple(map(tuple, oracles.sym2_matrix(act.phi, act.rank)))
    again = PrimeOrderAction(3, frozen)
    assert again == square and hash(again) == hash(square)
    with pytest.raises(TypeError, match="bool"):  # plain ints only, as the JSON reader asks
        PrimeOrderAction(2, [[0, True], [1, 0]])


def small_action(p):
    """A Reiner action with blocks of every kind that fit in rank 2p (p <= 7:
    trivial and cyclotomic, plus glued for p <= 5; cyclotomic alone above)."""
    return reiner_action(p, (1, 1, 1) if p <= 5 else (1, 1, 0) if p == 7 else (0, 1, 0))


def transpose(m):
    return [list(col) for col in zip(*m)]


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_sym2_action_has_order_p_by_functoriality(p):
    """sym2_action does not check Sym^2(phi)^p = I again (it follows from
    phi^p = I); p plain products and the checked constructor confirm its
    result on a sparse Reiner action and on a dense conjugate of it."""
    act = small_action(p)
    moved = conjugate(act, oracles.random_unimodular(Random(p), act.rank))
    assert moved == PrimeOrderAction(p, moved.phi)
    for base in (act, moved):
        square = sym2_action(base)
        assert oracles.has_order_dividing(square.phi, p)
        checked = PrimeOrderAction(p, oracles.sym2_matrix(base.phi, base.rank))
        assert square == checked and hash(square) == hash(checked)


def test_conjugate_of_the_k3_action_equals_the_checked_record():
    """W^-1 phi W and W^T G W from sympy's inverse and plain products,
    through the checked constructor: the same record, Gram included.  A
    copy with a Gram matrix that phi does not preserve is checked again."""
    act = k3_order5_action()
    w = oracles.random_unimodular(Random(11), act.rank)
    winv = oracles.inverse(w)
    assert all(x.denominator == 1 for row in winv for x in row)
    winv = [[int(x) for x in row] for row in winv]
    phi = oracles._dense_mul(oracles._dense_mul(winv, act.phi), w)
    gram = oracles._dense_mul(oracles._dense_mul(transpose(w), act.gram), w)
    checked = PrimeOrderAction(5, phi, gram)
    moved = conjugate(act, w)
    assert moved.gram is not None and moved.gram != act.gram
    assert moved == checked and hash(moved) == hash(checked)
    bad = la.shift_diagonal(gram, 1)  # preserved only if phi^T phi = I
    assert oracles._dense_mul(oracles._dense_mul(transpose(phi), bad), phi) != bad
    with pytest.raises(FormNotPreserved):
        _record.replace(moved, gram=bad)


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_replace_on_a_derived_action_checks_again(p):
    """A derived record copied with a new phi goes back through the checks
    of the constructor."""
    square = sym2_action(small_action(p))
    bad = [list(row) for row in square.phi]
    bad[0][-1] += 1
    assert not oracles.has_order_dividing(bad, p)
    with pytest.raises(NotAnOrderPAction):
        _record.replace(square, phi=bad)
    with pytest.raises(NotAnOrderPAction, match="square"):
        _record.replace(square, phi=bad[1:])


def test_conjugate_rejects_a_matrix_of_the_wrong_shape_or_determinant():
    act = reiner_action(3, (1, 1, 0))
    for w in (la.identity(2), la.identity(4), la.identity(3)[:2], [[1, 0, 0], [0, 1], [0, 0, 1]]):
        with pytest.raises(GModuleError, match="3x3"):
            conjugate(act, w)
    for w in ([[2, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 1, 0], [1, 1, 0], [0, 0, 1]]):
        with pytest.raises(GModuleError, match="unimodular"):
            conjugate(act, w)


@pytest.mark.parametrize(
    "p, blocks_in, blocks_out",
    [
        (3, (0, 5, 0, 6), (0, 15, 0, 87)),
        (5, (0, 3, 0, 0, 0, 4), (0, 6, 0, 0, 0, 54)),
        (5, (0, 2, 0, 0, 0, 4), (0, 3, 0, 0, 0, 50)),
        (3, (0, 2, 0, 7), (0, 3, 0, 91)),
        (11, (0, 1) + (0,) * 9 + (2,), (0, 1) + (0,) * 9 + (25,)),
    ],
)
def test_sym2_profile_frozen(p, blocks_in, blocks_out):
    jp = JordanProfile(p, blocks_in)
    out = sym2_profile(jp)
    assert out.blocks == blocks_out
    assert out.rank == jp.rank * (jp.rank + 1) // 2


def test_sym2_profile_rejects_middle_blocks():
    with pytest.raises(GModuleError):
        sym2_profile(JordanProfile(7, (0, 1, 0, 1, 0, 0, 0, 0)))


@given(st.sampled_from(SUPPORTED_PRIMES), st.integers(0, 10**6))
@example(2, 1)
@example(3, 1)
@example(5, 1)
@example(7, 1)
@example(11, 1)
@example(13, 1)
@example(17, 1)
@example(19, 1)
@settings(max_examples=30, deadline=None)
def test_sym2_profile_agrees_with_direct_computation(p, seed):
    """Direct Sym^2 profile equals the closed form, p = 2 eigen-split included."""
    rng = Random(seed)
    act = reiner_action(p, random_counts(rng, p, max_rank=max(7, p + 2)))
    if seed % 2:
        act = conjugate(act, oracles.random_unimodular(rng, act.rank, steps=5))
    direct = jordan_profile(sym2_action(act))
    assert direct == sym2_profile(jordan_profile(act))


# (trivial, cyclotomic, glued) block counts of total rank 22, the rank of H^2 of a K3
K3_SIZED_COUNTS = {
    2: (4, 6, 6),
    3: (2, 4, 4),
    5: (4, 2, 2),
    7: (2, 1, 2),
    11: (1, 1, 1),
    13: (9, 0, 1),
    17: (6, 1, 0),
    19: (3, 0, 1),
}


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_sym2_profile_direct_on_k3_sized_actions(p):
    act = reiner_action(p, K3_SIZED_COUNTS[p])
    assert act.rank == 22
    base = jordan_profile(act)
    direct = jordan_profile(sym2_action(act))
    assert direct.rank == 253
    assert direct == sym2_profile(base)


# ---------------------------------------------------------------- cohomology


def test_group_cohomology_orders_match_construction():
    rng = Random(31)
    for p in (3, 5, 7):
        for _ in range(4):
            t, c, g = random_counts(rng, p)
            act = reiner_action(p, (t, c, g))
            h0 = group_cohomology(act, 0)
            assert (h0.free_rank, h0.torsion) == (t + g, ())
            assert group_cohomology(act, 1).torsion == (p,) * c
            assert group_cohomology(act, 2).torsion == (p,) * t
            # 2-periodicity above degree 0
            assert group_cohomology(act, 3) == group_cohomology(act, 1)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("degree", [1, 2])
def test_unsaturated_kernel_basis_is_caught(monkeypatch, p, degree):
    """Image generators need integer coordinates over the kernel basis."""
    kernel_basis = la.kernel_basis

    def doubled(a):
        rows = kernel_basis(a)
        return [[2 * x for x in rows[0]], *rows[1:]]

    monkeypatch.setattr(gmodule.la, "kernel_basis", doubled)
    for counts in ((0, 0, 1), (1, 1, 1)):
        with pytest.raises(GModuleError, match="integer span of the kernel basis"):
            group_cohomology(reiner_action(p, counts), degree)


def test_a_invariant_counts_glued_blocks():
    rng = Random(17)
    for p in (3, 5, 7, 11):
        counts = random_counts(rng, p, max_rank=2 * p + 2)
        assert a_invariant(reiner_action(p, counts)) == counts[2]


# ---------------------------------------------------------------- K3, order 5


def test_k3_order5_action_profile():
    act = k3_order5_action()
    assert act.rank == 22
    assert act.gram is not None
    assert jordan_profile(act).blocks == (0, 2, 0, 0, 0, 4)
    assert a_invariant(act) == 4


def test_k3_order5_action_matrices_are_pinned():
    """phi and the Gram matrix entry for entry, not only their profile: the
    digest of repr((phi, gram)) as the construction first produced them."""
    act = k3_order5_action()
    digest = hashlib.sha256(repr((act.phi, act.gram)).encode()).hexdigest()
    assert digest == "385ba3da10f9750c9171846ed9f5b61f1a7d03c8f47a1d4d62287b2f75d1d56a"


def test_k3_order5_symmetric_square_profile():
    act = k3_order5_action()
    direct = jordan_profile(sym2_action(act))
    assert direct.blocks == (0, 3, 0, 0, 0, 50)
    assert direct.blocks == sym2_profile(jordan_profile(act)).blocks


# ---------------------------------------------------------------- quotients


def m3_profile():
    top = JordanProfile(3, (0, 5, 0, 6))
    mid = sym2_profile(top)
    return CohomologyProfile.from_degrees(3, 4, {2: top, 4: mid, 6: top})


def test_free_quotient_cohomology_frozen():
    cp = m3_profile()
    assert free_quotient_cohomology(cp, 2).free_rank == 11
    assert free_quotient_cohomology(cp, 2).torsion == (3,)
    h3 = free_quotient_cohomology(cp, 3)
    assert (h3.free_rank, h3.torsion) == (0, ())
    h4 = free_quotient_cohomology(cp, 4)
    assert (h4.free_rank, h4.torsion) == (102, (3,) * 6)


def _p2_profile(plus, minus, free):
    return JordanProfile(2, (0, plus + minus, free), plus_rank=plus, minus_rank=minus)


# Threefolds given by degrees 1..3 (4 and 5 mirror 2 and 1).  "p3_odd_l1"
# breaks the odd vanishing condition from degree 2 on, "p2_even_minus" the
# even one.
DIM3_PROFILES = {
    "p3": (3, [JordanProfile(3, b) for b in ((0, 0, 1, 0), (0, 2, 0, 1), (0, 0, 2, 1))]),
    "p3_odd_l1": (3, [JordanProfile(3, b) for b in ((0, 1, 1, 0), (0, 2, 0, 1), (0, 0, 2, 1))]),
    "p2_even_minus": (2, [_p2_profile(1, 0, 0), _p2_profile(1, 1, 1), _p2_profile(0, 2, 1)]),
}

# (free rank, number of Z/p summands) of H^0..H^6, None where
# HypothesesNotMet is raised.
DIM3_QUOTIENTS = {
    ("p3", False): [(1, 0), (0, 0), (3, 2), (1, 0), (3, 6), (0, 0), (1, 9)],
    ("p3", True): [(1, 0), (0, 0), (3, 2), (1, 0), (3, 6), (0, 0), (1, 9)],
    ("p3_odd_l1", False): [(1, 0), (1, 0), None, None, None, None, None],
    ("p3_odd_l1", True): [(1, 0), (1, 0), (3, 2), (1, 1), (3, 6), (1, 1), (1, 9)],
    ("p2_even_minus", False): [(1, 0), (1, 0), None, None, None, None, None],
    ("p2_even_minus", True): [(1, 0), (1, 0), (2, 1), (1, 2), (2, 4), (1, 3), (1, 5)],
}


@pytest.mark.parametrize("name, degenerate", sorted(DIM3_QUOTIENTS))
def test_free_quotient_cohomology_dim3_frozen(name, degenerate):
    p, (d1, d2, d3) = DIM3_PROFILES[name]
    cp = CohomologyProfile.from_degrees(p, 3, {1: d1, 2: d2, 3: d3, 4: d2, 5: d1})
    for k, want in enumerate(DIM3_QUOTIENTS[name, degenerate]):
        if want is None:
            with pytest.raises(HypothesesNotMet):
                free_quotient_cohomology(cp, k, e2_degenerate_over_z=degenerate)
            continue
        group = free_quotient_cohomology(cp, k, e2_degenerate_over_z=degenerate)
        assert (group.free_rank, group.torsion) == (want[0], (p,) * want[1])


def test_free_quotient_declines_the_mapping_torus_of_a_shift():
    """X = S^1 x T^3 with g(s, x) = (s + 1/3, cyclic shift of x) is free.

    X/G is the mapping torus of the shift on T^3, so by the Wang sequence
    H^1 = Z^2 and H^2 = Z^2 with no torsion.  The trivial block in H^1
    lets d_2: E_2^(0,1) -> E_2^(2,0) act, so the block formula (Z^2 + Z/3
    in degree 2) does not apply from degree 2 on.
    """
    counts = ((1, 0), (1, 1), (0, 2), (1, 1), (1, 0))
    cp = CohomologyProfile(2, tuple(JordanProfile(3, (0, l1, 0, l3)) for l1, l3 in counts))
    assert free_quotient_cohomology(cp, 0) == gmodule.CohomologyGroup(1, ())
    assert free_quotient_cohomology(cp, 1) == gmodule.CohomologyGroup(2, ())
    for k in (2, 3, 4):
        with pytest.raises(HypothesesNotMet):
            free_quotient_cohomology(cp, k)
