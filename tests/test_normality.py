"""Normality certificates: chains, weights, counts, Betti numbers."""

import pytest

from quotlat import (
    CohomologyProfile,
    FixedLocusSummary,
    JordanProfile,
    NormalityReport,
    betti_quotient,
    check_maintori,
    check_simple_criteria,
    check_surface,
    check_th3,
    check_theorem_main,
    isolated_points,
    propagate_power,
    weight_solve,
)
from quotlat._record import replace
from quotlat.gmodule import trivial_profile
from quotlat.normality import (
    FixedCountMismatch,
    FixedPointLocal,
    HypothesisFailed,
    Infeasible,
    MiddleBlocksPresent,
    NORMAL,
    NOT_NORMAL,
    NotOrder3,
    UNKNOWN,
    UnsupportedPrime,
    WeightTwoPresent,
    WeightUnknown,
)
from quotlat.toric_weight import WeightValue


# ---------------------------------------------------------------- local models


def test_fixed_point_local_validation():
    with pytest.raises(ValueError):
        FixedPointLocal(5, (0, 0))
    with pytest.raises(ValueError):
        FixedPointLocal(5, (1, 7))
    with pytest.raises(UnsupportedPrime):
        FixedPointLocal(4, (1,))
    fp = FixedPointLocal(5, (4, 1))
    assert fp.exponents == (1, 4)
    assert fp.is_isolated


def test_isolated_points_defaults_weight_from_table():
    pts = isolated_points(5, (1, 1, 4, 4), multiplicity=12)
    assert (pts.weight.lo, pts.weight.hi) == (1, 1)
    unknown = isolated_points(11, (1, 1, 10, 10))
    assert (unknown.weight.lo, unknown.weight.hi) == (0, 2)
    with pytest.raises(ValueError):
        isolated_points(5, (0, 1), multiplicity=2)


def test_mixed_primes_rejected():
    with pytest.raises(ValueError):
        FixedLocusSummary(
            isolated=(isolated_points(3, (1, 2)), isolated_points(5, (1, 4)))
        )


# ---------------------------------------------------------------- certificates


def test_surface_chain_y7(by_name):
    s = by_name["Y7"]
    rep = check_surface(s.profile, s.fixed_locus)
    assert rep.verdict == NORMAL
    assert rep.inequality_chain == (3, 3, 2)
    assert rep.alpha_bounds == (0, 0)
    assert rep.parity_ok


def test_surface_count_is_forced_by_profile():
    # p = 5, l_1 = 2, l_4 = 0 in degree 2 forces 4 fixed points
    deg2 = JordanProfile(5, (0, 2, 0, 0, 0, 4))
    cp = CohomologyProfile.from_degrees(5, 2, {2: deg2})
    fix = FixedLocusSummary(isolated=(isolated_points(5, (1, 4), 3),))
    with pytest.raises(FixedCountMismatch):
        check_surface(cp, fix)
    ok = FixedLocusSummary(isolated=(isolated_points(5, (1, 4), 4),))
    assert check_surface(cp, ok).verdict == NORMAL


def test_surface_needs_dimension_2():
    cp = CohomologyProfile.from_degrees(5, 4, {})
    with pytest.raises(ValueError):
        check_surface(cp, FixedLocusSummary())


def test_surface_rejects_middle_blocks():
    deg2 = JordanProfile(5, (0, 2, 1, 0, 0, 4))
    cp = CohomologyProfile.from_degrees(5, 2, {2: deg2})
    with pytest.raises(MiddleBlocksPresent):
        check_surface(cp, FixedLocusSummary(isolated=(isolated_points(5, (1, 4), 4),)))


def test_main_chain_torus_involution(by_name):
    s = by_name["Abar"]
    rep = check_theorem_main(s.profile, s.fixed_locus)
    assert rep.verdict == NORMAL
    assert rep.criterion_used == "main chain (p=2 split)"
    assert rep.inequality_chain == (16, 16, 10)


def test_main_chain_unknown_when_hypothesis_fails(by_name):
    s = by_name["Abar"]
    broken = FixedLocusSummary(
        isolated=s.fixed_locus.isolated,
        components=s.fixed_locus.components,
        torsion_free=False,
    )
    rep = check_theorem_main(s.profile, broken)
    assert rep.verdict == UNKNOWN
    assert ("fix_cohomology_torsion_free", False) in rep.hypotheses


def test_th3_m3_chain(by_name):
    s = by_name["M3"]
    rep = check_th3(s.profile, s.fixed_locus)
    assert rep.verdict == NORMAL
    assert rep.criterion_used == "stable order-3 chain"
    assert rep.inequality_chain == (27, 27, -15)
    assert s.fixed_locus.h2star == 27


def test_th3_rejects_other_primes(by_name):
    s = by_name["M5"]
    with pytest.raises(NotOrder3):
        check_th3(s.profile, s.fixed_locus)


def test_maintori_weight_chain_m5(by_name):
    s = by_name["M5"]
    rep = check_maintori(s.profile, s.fixed_locus)
    assert rep.verdict == NORMAL
    assert rep.criterion_used == "weight chain"
    assert rep.inequality_chain == (14, 14, 8)


def test_maintori_needs_pinned_weights(by_name):
    cp = by_name["M5"].profile
    loose = FixedLocusSummary(
        isolated=(isolated_points(5, (1, 1, 4, 4), 12, WeightValue(0, 2)),)
    )
    with pytest.raises(WeightUnknown):
        check_maintori(cp, loose)
    heavy = FixedLocusSummary(
        isolated=(isolated_points(5, (1, 1, 4, 4), 12, WeightValue(2, 2)),)
    )
    with pytest.raises(WeightTwoPresent):
        check_maintori(cp, heavy)


def test_simple_criteria_strings(by_name):
    rep = check_simple_criteria(by_name["M11a"].profile, 4)
    assert rep.verdict == NORMAL
    assert rep.criterion_used == "middle degree with l_1 = 1"


# ---------------------------------------------------------------- pinned chain reports


def _recount(fix, delta):
    """fix with delta points added to its first group of isolated points."""
    first, *rest = fix.isolated
    return replace(fix, isolated=(replace(first, multiplicity=first.multiplicity + delta), *rest))


def _odd_size_1_blocks(cp):
    """cp with two more size-1 blocks in each odd degree next to the middle."""
    profiles = list(cp.profiles)
    for d in (cp.dimension - 1, cp.dimension + 1):
        blocks = list(profiles[d].blocks)
        blocks[1] += 2
        profiles[d] = JordanProfile(cp.p, tuple(blocks))
    return replace(cp, profiles=tuple(profiles))


def _h1_trivial_block(cp):
    """cp with one more trivial block (a + block for p = 2) in H^1 and its dual degree."""
    profiles = list(cp.profiles)
    for d in (1, 2 * cp.dimension - 1):
        jp = profiles[d]
        blocks = (0, jp.blocks[1] + 1, *jp.blocks[2:])
        plus = None if jp.plus_rank is None else jp.plus_rank + 1
        profiles[d] = replace(jp, blocks=blocks, plus_rank=plus)
    return replace(cp, profiles=tuple(profiles))


CHAIN_MUTATIONS = {
    "as_declared": lambda cp, fix: (cp, fix),
    "torsion_in_x": lambda cp, fix: (replace(cp, torsion_free=False), fix),
    "torsion_in_fix": lambda cp, fix: (cp, replace(fix, torsion_free=False)),
    "odd_size_1_blocks": lambda cp, fix: (_odd_size_1_blocks(cp), fix),
    "h1_trivial_block": lambda cp, fix: (_h1_trivial_block(cp), fix),
    "one_point_less": lambda cp, fix: (cp, _recount(fix, -1)),
    "two_points_more": lambda cp, fix: (cp, _recount(fix, 2)),
}

# Full report text of each sandwich checker; a (name, message) pair stands
# for the HypothesisFailed the input must raise.
CHAIN_CASES = [
    (
        "check_theorem_main", "Abar", "as_declared",
        [
            "H^2: Normal  (main chain (p=2 split); alpha in [0, 0])",
            "  chain 16 >= 16 >= 10; parity holds",
            "  [x] torsion_free_cohomology",
            "  [x] fix_negligible_or_almost_negligible (negligible)",
            "  [x] all_fixed_points_type_1",
            "  [x] no_size_pm1_blocks_in_even_degrees",
            "  [x] no_size_1_blocks_in_odd_degrees",
        ],
    ),
    (
        "check_theorem_main", "Abar", "torsion_in_x",
        [
            "H^2: Unknown  (main chain (p=2 split); alpha in [0, ?])",
            "  chain 16 >= 16 >= 10; parity not checked",
            "  [ ] torsion_free_cohomology",
            "  [x] fix_negligible_or_almost_negligible (negligible)",
            "  [x] all_fixed_points_type_1",
            "  [x] no_size_pm1_blocks_in_even_degrees",
            "  [x] no_size_1_blocks_in_odd_degrees",
            "  [x] fix_cohomology_torsion_free",
            "  [x] codim_at_least_half_plus_one",
        ],
    ),
    (
        "check_theorem_main", "Abar", "torsion_in_fix",
        [
            "H^2: Unknown  (main chain (p=2 split); alpha in [0, 3])",
            "  chain 16 >= 16 >= 10; parity not checked",
            "  [x] torsion_free_cohomology",
            "  [ ] fix_negligible_or_almost_negligible (none)",
            "  [x] all_fixed_points_type_1",
            "  [x] no_size_pm1_blocks_in_even_degrees",
            "  [x] no_size_1_blocks_in_odd_degrees",
            "  [ ] fix_cohomology_torsion_free",
            "  [x] codim_at_least_half_plus_one",
        ],
    ),
    (
        "check_theorem_main", "Abar", "one_point_less",
        ("parity", "6 and 15 differ by an odd number; no such scenario exists"),
    ),
    (
        "check_theorem_main", "Abar", "two_points_more",
        ("inequality_chain", "16 >= 18 >= 10 fails; no such scenario exists"),
    ),
    (
        "check_th3", "M3", "as_declared",
        [
            "H^4: Normal  (stable order-3 chain; alpha in [0, 0])",
            "  chain 27 >= 27 >= -15; parity holds",
            "  [x] torsion_free_cohomology",
            "  [x] fixed_locus_stable (n2=27, eps=0, eta=0)",
            "  [x] no_size_pm1_blocks_in_even_degrees",
            "  [x] no_size_1_blocks_in_odd_degrees",
            "  note: blow-up slack n2+eps+2*eta = 27",
        ],
    ),
    (
        "check_th3", "M3", "torsion_in_x",
        [
            "H^4: Unknown  (stable order-3 chain; alpha in [0, ?])",
            "  chain 27 >= 27 >= -15; parity not checked",
            "  [ ] torsion_free_cohomology",
            "  [x] fixed_locus_stable (n2=27, eps=0, eta=0)",
            "  [x] no_size_pm1_blocks_in_even_degrees",
            "  [x] no_size_1_blocks_in_odd_degrees",
        ],
    ),
    (
        "check_th3", "M3", "odd_size_1_blocks",
        [
            "H^4: Unknown  (stable order-3 chain; alpha in [0, 7])",
            "  chain 27 >= 27 >= -15; parity not checked",
            "  [x] torsion_free_cohomology",
            "  [x] fixed_locus_stable (n2=27, eps=0, eta=0)",
            "  [x] no_size_pm1_blocks_in_even_degrees",
            "  [ ] no_size_1_blocks_in_odd_degrees",
        ],
    ),
    (
        "check_th3", "M3", "one_point_less",
        ("parity", "15 and 26 differ by an odd number; no such scenario exists"),
    ),
    (
        "check_th3", "M3", "two_points_more",
        ("inequality_chain", "27 >= 29 >= -17 fails; no such scenario exists"),
    ),
    (
        "check_maintori", "M5", "as_declared",
        [
            "H^4: Normal  (weight chain; alpha in [0, 0])",
            "  chain 14 >= 14 >= 8; parity holds",
            "  [x] torsion_free_cohomology",
            "  [x] fix_finite",
            "  [x] no_weight_2_points",
            "  [x] no_size_pm1_blocks_in_even_degrees",
            "  [x] no_size_1_blocks_in_odd_degrees",
            "  note: sum of weights over 14 points = 14",
        ],
    ),
    (
        "check_maintori", "M5", "torsion_in_x",
        [
            "H^4: Unknown  (weight chain; alpha in [0, ?])",
            "  chain 14 >= 14 >= 8; parity not checked",
            "  [ ] torsion_free_cohomology",
            "  [x] fix_finite",
            "  [x] no_weight_2_points",
            "  [x] no_size_pm1_blocks_in_even_degrees",
            "  [x] no_size_1_blocks_in_odd_degrees",
        ],
    ),
    (
        "check_maintori", "M5", "odd_size_1_blocks",
        [
            "H^4: Unknown  (weight chain; alpha in [0, 3])",
            "  chain 14 >= 14 >= 8; parity not checked",
            "  [x] torsion_free_cohomology",
            "  [x] fix_finite",
            "  [x] no_weight_2_points",
            "  [x] no_size_pm1_blocks_in_even_degrees",
            "  [ ] no_size_1_blocks_in_odd_degrees",
        ],
    ),
    (
        "check_maintori", "M5", "one_point_less",
        ("parity", "6 and 13 differ by an odd number; no such scenario exists"),
    ),
    (
        "check_maintori", "M5", "two_points_more",
        ("inequality_chain", "14 >= 16 >= 8 fails; no such scenario exists"),
    ),
    (
        "check_maintori", "NS3", "as_declared",
        [
            "H^4: Normal  (weight chain; alpha in [0, 0])",
            "  chain 9 >= 9 >= 6; parity holds",
            "  [x] torsion_free_cohomology",
            "  [x] fix_finite",
            "  [x] no_weight_2_points",
            "  [x] no_size_pm1_blocks_in_even_degrees",
            "  [x] no_size_1_blocks_in_odd_degrees",
            "  note: sum of weights over 9 points = 9",
        ],
    ),
    (
        # mid = 2: a trivial block in H^1 is not waived
        "check_theorem_main", "Abar", "h1_trivial_block",
        [
            "H^2: Unknown  (main chain (p=2 split); alpha in [0, 3])",
            "  chain 16 >= 16 >= 10; parity not checked",
            "  [x] torsion_free_cohomology",
            "  [x] fix_negligible_or_almost_negligible (negligible)",
            "  [x] all_fixed_points_type_1",
            "  [x] no_size_pm1_blocks_in_even_degrees",
            "  [ ] no_size_1_blocks_in_odd_degrees",
            "  [x] fix_cohomology_torsion_free",
            "  [x] codim_at_least_half_plus_one",
        ],
    ),
]


@pytest.mark.parametrize("checker, row, mutation, expected", CHAIN_CASES)
def test_chain_report_text_is_pinned(by_name, checker, row, mutation, expected):
    s = by_name[row]
    cp, fix = CHAIN_MUTATIONS[mutation](s.profile, s.fixed_locus)
    check = {f.__name__: f for f in (check_theorem_main, check_th3, check_maintori)}[checker]
    if isinstance(expected, tuple):
        name, message = expected
        with pytest.raises(HypothesisFailed) as exc:
            check(cp, fix)
        assert exc.value.name == name
        assert str(exc.value) == f"{name}: {message}"
    else:
        assert check(cp, fix).lines() == expected


def test_propagate_power_descends_normality():
    top = NormalityReport(
        degree=4, verdict=NORMAL, criterion_used="weight chain",
        hypotheses=(), alpha_bounds=(0, 0),
    )
    down = propagate_power(top, sym_injective=True, complement_stable=True)
    assert down.degree == 2
    assert down.verdict == NORMAL
    assert down.criterion_used == "descent from H^4 through Sym^2"
    unk = NormalityReport(
        degree=4, verdict=UNKNOWN, criterion_used="weight chain",
        hypotheses=(), alpha_bounds=(0, None),
    )
    assert propagate_power(unk, True, True).verdict == UNKNOWN
    with pytest.raises(ValueError):
        propagate_power(top, True, True, t=3)


def _surface(p, deg2, points):
    """A surface profile with degree-2 profile deg2 and `points` isolated fixed points."""
    cp = CohomologyProfile.from_degrees(p, 2, {2: deg2})
    return cp, FixedLocusSummary(isolated=(isolated_points(p, (1, p - 1), points),) if points else ())


SURFACE_CASES = {
    # l_2^2 = 1 with the #Fix it forces: no chain line, no note, Etsi bounds
    "l_pm1_present": (
        _surface(3, JordanProfile(3, (0, 2, 1, 6)), 5),
        [
            "H^2: Unknown  (simply connected surface count; alpha in [0, 1])",
            "  [x] simply_connected",
            "  [x] fix_finite",
            "  [x] fix_nonempty",
            "  [ ] l_(p-1)^2_vanishes",
        ],
    ),
    "empty_fix": (
        _surface(3, JordanProfile(3, (0, 4, 0, 6)), 0),
        [
            "H^2: Unknown  (simply connected surface count; alpha in [0, 2])",
            "  [x] simply_connected",
            "  [x] fix_finite",
            "  [ ] fix_nonempty",
            "  [x] l_(p-1)^2_vanishes",
        ],
    ),
    # p = 2: #Fix = 2 + l_(1,+)^2 + l_(1,-)^2, and the minus part blocks normality
    "p2_minus_present": (
        _surface(2, JordanProfile(2, (0, 6, 8), plus_rank=2, minus_rank=4), 8),
        [
            "H^2: Unknown  (simply connected surface count; alpha in [0, 1])",
            "  [x] simply_connected",
            "  [x] fix_finite",
            "  [x] fix_nonempty",
            "  [ ] l_(1,-)^2_vanishes",
        ],
    ),
    "normal": (
        _surface(3, JordanProfile(3, (0, 4, 0, 6)), 6),
        [
            "H^2: Normal  (simply connected surface count; alpha in [0, 0])",
            "  chain 6 >= 6 >= 2; parity holds",
            "  [x] simply_connected",
            "  [x] fix_finite",
            "  [x] fix_nonempty",
            "  [x] l_(p-1)^2_vanishes",
            "  note: every surface fixed point has weight 1",
        ],
    ),
}


@pytest.mark.parametrize("case", SURFACE_CASES)
def test_surface_report_text_is_pinned(case):
    (cp, fix), expected = SURFACE_CASES[case]
    assert check_surface(cp, fix).lines() == expected


@pytest.mark.parametrize(
    "sym_injective, expected",
    [
        (
            False,
            [
                "H^2: Unknown  (descent from H^4 through Sym^2; alpha in [0, ?])",
                "  [x] H^4_normal",
                "  [ ] sym_power_injective_mod_p",
                "  [x] image_invariantly_complemented",
            ],
        ),
        (
            True,
            [
                "H^2: Normal  (descent from H^4 through Sym^2; alpha in [0, 0])",
                "  [x] H^4_normal",
                "  [x] sym_power_injective_mod_p",
                "  [x] image_invariantly_complemented",
            ],
        ),
    ],
)
def test_descent_report_text_is_pinned(sym_injective, expected):
    top = NormalityReport(degree=4, verdict=NORMAL, criterion_used="weight chain", alpha_bounds=(0, 0))
    assert propagate_power(top, sym_injective, complement_stable=True).lines() == expected


def test_report_shape_rules():
    with pytest.raises(ValueError):
        NormalityReport(
            degree=2, verdict=NOT_NORMAL, criterion_used="x",
            hypotheses=(), alpha_bounds=(1, 1),
        )
    rep = NormalityReport(
        degree=2, verdict=NOT_NORMAL, criterion_used="x",
        hypotheses=(), alpha_bounds=(1, 1), witness="pushforward divisibility",
    )
    assert any("NotNormal" in line for line in rep.lines())


# ---------------------------------------------------------------- weights


def test_weight_solve_m5_unique_all_ones(by_name):
    s = by_name["M5"]
    sol = weight_solve(s.profile, s.fixed_locus)
    assert sol.unique
    assert sol.feasible_count == 1
    assert sol.sum_bounds == (8, 14)
    assert [(exps, v.lo, v.hi) for exps, v in sol.weights] == [
        ((1, 1, 1, 2), 1, 1),
        ((1, 1, 4, 4), 1, 1),
        ((1, 2, 3, 4), 1, 1),
    ]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_weight_solve_projective_space(p):
    # diag(1, xi, ..., xi^(p-1)) on P^(p-1): p points, all of type (1..p-1);
    # the sandwich pins every weight to 1 even from the loose interval [0, 2]
    dim = p - 1
    degrees = {k: trivial_profile(p) for k in range(2, 2 * dim, 2)}
    cp = CohomologyProfile.from_degrees(p, dim, degrees)
    fix = FixedLocusSummary(
        isolated=(
            isolated_points(p, tuple(range(1, p)), multiplicity=p, weight=WeightValue(0, 2)),
        )
    )
    sol = weight_solve(cp, fix)
    assert sol.unique
    assert sol.weights == ((tuple(range(1, p)), WeightValue(1, 1)),)


def test_weight_solve_infeasible():
    cp = CohomologyProfile.from_degrees(3, 2, {2: JordanProfile(3, (0, 2, 0, 7))})
    # a single point cannot reach the lower bound 2*T = 2 with weight 0
    fix = FixedLocusSummary(isolated=(isolated_points(3, (1, 1), 1, WeightValue(0, 0)),))
    with pytest.raises(Infeasible):
        weight_solve(cp, fix)


def test_weight_solve_requires_torsion_free(by_name):
    s = by_name["M5"]
    cp = CohomologyProfile(
        dimension=s.profile.dimension,
        profiles=s.profile.profiles,
        torsion_free=False,
    )
    with pytest.raises(HypothesisFailed):
        weight_solve(cp, s.fixed_locus)


# ---------------------------------------------------------------- Betti


def test_betti_quotient_frozen():
    assert betti_quotient(11, 3) == (11, 0, 102, 126)
    assert betti_quotient(7, 5) == (7, 0, 60, 76)
    assert betti_quotient(3, 11) == (3, 0, 26, 34)


def test_betti_quotient_rejects_bad_input():
    with pytest.raises(UnsupportedPrime):
        betti_quotient(7, 2)
    with pytest.raises(ValueError):
        betti_quotient(0, 3)
    with pytest.raises(Exception):
        betti_quotient(10, 3)  # (23-10)^2 odd multiple, not divisible by 4
