"""End-to-end acceptance checks, one test per criterion.

The terminal summary block (see conftest) prints one PASS/FAIL line per
criterion.  Randomized sweeps are seeded, so every run checks the same
cases.
"""

from random import Random

import oracles
from quotlat import (
    CohomologyProfile,
    FixedLocusSummary,
    GramLattice,
    a_invariant,
    bb_quotient,
    betti_quotient,
    conjugate,
    group_cohomology,
    h2_primitivity_certificate,
    isolated_points,
    jordan_profile,
    lattices_match,
    overlattice_divide,
    parse_lattice_expr,
    quotient_middle_lattice,
    reiner_action,
    run_normality,
    s_lattice_gram,
    smith_normal_form,
    sym2_action,
    sym2_profile,
    verify_scenario,
    weight_dim2,
    weight_solve,
)
from quotlat.gmodule import trivial_profile
from quotlat.toric_weight import WeightValue

SEED = 20260826


def random_counts(rng, p, max_rank):
    while True:
        t, c, g = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
        rank = t + c * (p - 1) + g * p
        if 0 < rank <= max_rank:
            return (t, c, g)


def test_criterion_1_surface_and_torus_rows(catalog, by_name):
    rows = [s for s in catalog if s.kind in ("surface", "torus")]
    assert len(rows) == 11
    for s in rows:
        check = verify_scenario(s)
        assert check.passed, check.lines()

    y3 = quotient_middle_lattice(by_name["Y3"].invariant, 3)
    assert abs(y3.determinant) == 81
    assert lattices_match(y3, parse_lattice_expr("U(3) + U^2 + A2^2")).passed

    for name in ("Y7", "Z7"):
        q = quotient_middle_lattice(by_name[name].invariant, 7)
        assert abs(q.determinant) == 7

    z11 = quotient_middle_lattice(by_name["Z11"].invariant, 11)
    assert lattices_match(z11, parse_lattice_expr("U")).passed


def test_criterion_2_fourfold_quotients(by_name):
    targets = {
        "M3": ("U(3) + U^2 + A2^2 + (-6)", 9, 6),
        "M5": ("U(5) + U^2 + (-10)", 15, 4),
    }
    for name, (expr, constant, index_log) in targets.items():
        s = by_name[name]
        res = bb_quotient(s.invariant, s.prime, s.resolved_glue())
        assert res.fujiki_constant == constant
        assert res.index_log == index_log
        assert lattices_match(res.gram, parse_lattice_expr(expr)).passed

    grams = {
        "M11a": ((2, 3, -8), (3, 6, -16), (-8, -16, 50)),
        "M11b": ((2, -9, 0), (-9, 46, 0), (0, 0, 2)),
    }
    for name, gram in grams.items():
        s = by_name[name]
        res = bb_quotient(s.invariant, 11, s.resolved_glue())
        assert res.fujiki_constant == 33
        assert res.index_log == 2
        assert res.gram.gram == gram


def test_criterion_3_quotient_betti_numbers():
    assert betti_quotient(11, 3) == (11, 0, 102, 126)
    assert betti_quotient(7, 5) == (7, 0, 60, 76)
    assert betti_quotient(3, 11) == (3, 0, 26, 34)


def test_criterion_4_normality_verdicts(catalog):
    chains = {
        ("Abar", 2): (16, 16, 10),
        ("M3", 4): (27, 27, -15),
        ("M5", 4): (14, 14, 8),
        ("NS3", 4): (9, 9, 6),
    }
    seen = 0
    for s in catalog:
        if not s.expected.verdicts:
            continue
        reports = run_normality(s)
        for degree, verdict in s.expected.verdicts.items():
            rep = reports[degree]
            assert rep.verdict == verdict, (s.name, degree, rep.verdict)
            seen += 1
            key = (s.name, degree)
            if key in chains:
                assert rep.inequality_chain == chains[key]
                left, middle, _ = rep.inequality_chain
                assert left == middle  # equality forces normality
        if s.name == "CE2":
            assert reports[2].alpha_bounds == (1, 1)
            assert reports[2].witness
    # 11 surface/torus rows, 5 fourfold rows with two degrees, CE2
    assert seen == 11 + 5 * 2 + 1


def test_criterion_5_toric_weights(by_name):
    cases = 0
    for p in (2, 3, 5, 7, 11, 13, 17, 19):
        for q in range(1, p):
            result = weight_dim2(p, q)
            assert (result.weight.lo, result.weight.hi) == (1, 1), (p, q)
            cases += 1
    assert cases == 69

    s = by_name["M5"]
    sol = weight_solve(s.profile, s.fixed_locus)
    assert sol.unique
    assert all(v == WeightValue(1, 1) for _, v in sol.weights)

    for p in (3, 5, 7):
        dim = p - 1
        degrees = {k: trivial_profile(p) for k in range(2, 2 * dim, 2)}
        cp = CohomologyProfile.from_degrees(p, dim, degrees)
        fix = FixedLocusSummary(
            isolated=(
                isolated_points(
                    p, tuple(range(1, p)), multiplicity=p, weight=WeightValue(0, 2)
                ),
            )
        )
        sol = weight_solve(cp, fix)
        assert sol.unique
        assert sol.weights == ((tuple(range(1, p)), WeightValue(1, 1)),)


def test_criterion_6_property_suites():
    rng = Random(SEED)

    # (a) overlattice discriminant law, 500 random glues
    for _ in range(350):
        p = rng.choice([2, 3, 5, 7])
        n = rng.randint(2, 6)
        ambient = oracles.random_symmetric(rng, n)
        sub, x = oracles.functional_sublattice(rng, ambient, p)
        out = overlattice_divide(GramLattice(tuple(tuple(r) for r in sub)), [x], p)
        assert out.determinant * p * p == oracles.det(sub)
        assert out.determinant == oracles.det(ambient)
    for _ in range(150):
        p = rng.choice([2, 3, 5])
        n = rng.randint(2, 5)
        m = rng.randint(1, n)
        ambient = oracles.random_symmetric(rng, n)
        scaled = GramLattice(tuple(tuple(x * p * p for x in row) for row in ambient))
        vecs = [[1 if k == i else 0 for k in range(n)] for i in rng.sample(range(n), m)]
        out = overlattice_divide(scaled, vecs, p)
        assert out.determinant * p ** (2 * m) == scaled.determinant

    # (b) a-invariant equals the count of size-p blocks, 200 actions
    for trial in range(200):
        p = (3, 5, 7, 11)[trial % 4]
        counts = random_counts(rng, p, max_rank=2 * p + 4)
        assert a_invariant(reiner_action(p, counts)) == counts[2]

    # (c) symmetric-square profile closed formula, 200 actions
    done = 0
    while done < 200:
        p = (3, 3, 5, 5, 7)[done % 5]
        counts = random_counts(rng, p, max_rank=8 if p == 7 else 7)
        act = reiner_action(p, counts)
        if done % 2:
            act = conjugate(act, oracles.random_unimodular(rng, act.rank, steps=6))
        direct = jordan_profile(sym2_action(act))
        assert direct.blocks == sym2_profile(jordan_profile(act)).blocks
        done += 1

    # (d) group cohomology against the construction counts, 200 actions
    done = 0
    while done < 200:
        p = (3, 5, 7, 11)[done % 4]
        t, c, g = random_counts(rng, p, max_rank=2 * p + 4)
        act = reiner_action(p, (t, c, g))
        if done % 3 == 0:
            act = conjugate(act, oracles.random_unimodular(rng, act.rank, steps=5))
        h0 = group_cohomology(act, 0)
        assert (h0.free_rank, h0.torsion) == (t + g, ())
        assert group_cohomology(act, 1).torsion == (p,) * c
        assert group_cohomology(act, 2).torsion == (p,) * t
        done += 1

    # (e) Smith normal form identity on matrices up to 8 x 8, 200 cases
    for _ in range(200):
        n = rng.randint(1, 8)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        U, D, V = smith_normal_form(mat)
        assert abs(oracles.det(U)) == 1
        assert abs(oracles.det(V)) == 1
        prod = [
            [sum(U[i][k] * mat[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        prod = [
            [sum(prod[i][k] * V[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert [list(r) for r in D] == prod
        divisors = [abs(D[i][i]) for i in range(n) if D[i][i]]
        assert all(b % a == 0 for a, b in zip(divisors, divisors[1:]))
        assert divisors == oracles.snf_divisors(mat)


def test_criterion_7_hilbert_square_certificate(hilb):
    sigma = hilb.sigma()
    assert hilb.pair_h4(sigma, sigma) == 1

    s = s_lattice_gram(hilb, hilb.gamma(0), hilb.gamma(1))
    assert [row[:3] for row in s[:3]] == [[12, -2, -1], [-2, 2, 1], [-1, 1, 1]]
    det = oracles.det(s)
    # 160 = 2^5 * 5 shares a factor with p = 5, so primitivity cannot come
    # from a coprimality argument; the norm-pairing search certifies it
    assert det == 160
    assert det % 5 == 0
    ok, witness = h2_primitivity_certificate(s, 5)
    assert ok and witness is None


def test_criterion_8_fixed_counts_and_parity(catalog):
    k3_rows = [s for s in catalog if s.kind == "surface"]
    assert len(k3_rows) == 10
    for s in k3_rows:
        cp = s.profile
        predicted = 2 + cp.profile(2).blocks[1] + (cp.l_pm1(2) if s.prime > 2 else 0)
        assert predicted == s.expected.fix_count, s.name

    for s in catalog:
        if not s.expected.verdicts:
            continue
        for rep in run_normality(s).values():
            if rep.inequality_chain is None:
                continue
            left, middle, right = rep.inequality_chain
            assert left >= middle >= right, (s.name, rep.inequality_chain)
            assert (left - middle) % 2 == 0, (s.name, rep.inequality_chain)
            assert rep.parity_ok
