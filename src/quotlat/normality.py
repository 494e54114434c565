"""Certificate checkers for H^k-normality of prime-order quotients.

A pair (X, G) with G of prime order p is H^k-normal when the pushforward
pi_*(H^k(X, Z)) is primitive in H^k(X/G, Z)/tors; the coefficient of
normality alpha_k counts the (Z/p)-defect.  None of this is computable
from a Gram matrix alone, but the literature provides certificates: if
certain Jordan block counts vanish and the fixed locus is small enough,
an exact numerical equality between l_1^mid and the even cohomology of
the fixed locus decides normality in the middle degree.  This module
implements those certificates over the CohomologyProfile / fixed-locus
data carried by a scenario, always itemizing every hypothesis it used.

Conventions.  X has complex dimension cp.dimension, so the middle degree
is cp.dimension itself and an even dimension is written 2n when a
theorem needs the half.  For p = 2 every count reads the eigenlattice
split, as `gmodule.JordanProfile` states once: l_(1,+) plays the role of
l_1 and l_(1,-) the role of l_(p-1).  A checker distinguishes three
outcomes: a hypothesis fails (Unknown verdict, with the failing item
visible), the certificate applies and its equality holds (Normal), or the
input data contradicts an inequality the certificate guarantees (an
exception, because such a scenario cannot exist).  `_verdict` states the
rule "Normal with alpha = 0 exactly when every listed hypothesis holds"
once for the surface count, the descent and the simple rank criteria.

The main, stable order-3 and weight chains share one sandwich,
    l_1^mid + 2*T  >=  (a count from Fix G)  >=  2*T - slack,
with T = gmodule.free_torsion_rank(cp, mid) and the two block-count
conditions of gmodule.vanishing_conditions among the hypotheses;
`_chain_report` states it once for all three, and `weight_solve` reads
its ends from the same helpers.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from ._record import record, replace
from .gmodule import (
    SUPPORTED_PRIMES,
    CohomologyProfile,
    UnsupportedPrime,
    free_torsion_rank,
    vanishing_conditions,
)
from .lattice_core import NonIntegralResult, _is_prime
from .toric_weight import WeightValue, canonical_exponents, point_type, weight_lookup

__all__ = [
    "NORMAL",
    "NOT_NORMAL",
    "UNKNOWN",
    "FixedPointLocal",
    "IsolatedPoints",
    "FixedComponent",
    "FixedLocusSummary",
    "NormalityReport",
    "WeightSolution",
    "NormalityError",
    "HypothesisFailed",
    "NotOrder3",
    "NotStable",
    "WeightUnknown",
    "WeightTwoPresent",
    "Infeasible",
    "FixedCountMismatch",
    "MiddleBlocksPresent",
    "UnsupportedPrime",
    "NonIntegralResult",
    "check_simple_criteria",
    "check_theorem_main",
    "check_th3",
    "check_maintori",
    "weight_solve",
    "check_surface",
    "surface_fix_count",
    "betti_quotient",
    "propagate_power",
    "negligibility",
    "isolated_points",
]

NORMAL = "Normal"
NOT_NORMAL = "NotNormal"
UNKNOWN = "Unknown"


class NormalityError(Exception):
    pass


class HypothesisFailed(NormalityError):
    """Input data contradicts a consequence the certificate guarantees."""

    def __init__(self, name: str, message: str = ""):
        self.name = name
        super().__init__(f"{name}: {message}" if message else name)


class NotOrder3(NormalityError):
    pass


class NotStable(NormalityError):
    pass


class WeightUnknown(NormalityError):
    pass


class WeightTwoPresent(NormalityError):
    pass


class Infeasible(NormalityError):
    """No weight assignment satisfies the declared constraints."""


class FixedCountMismatch(NormalityError):
    pass


class MiddleBlocksPresent(NormalityError):
    pass


@record
class FixedPointLocal:
    """Local model of a fixed point: eigenvalue exponents of the action.

    The generator acts on the tangent space as diag(xi^k_1, ..., xi^k_n)
    with xi a primitive p-th root of unity; zero exponents are tangent
    directions along a positive-dimensional fixed component.
    """

    p: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        if not _is_prime(self.p):
            raise UnsupportedPrime(f"{self.p} is not prime")
        ks = tuple(sorted(self.exponents))
        object.__setattr__(self, "exponents", ks)
        if not ks:
            raise ValueError("need at least one exponent")
        if any(not 0 <= k <= self.p - 1 for k in ks):
            raise ValueError(f"exponents must lie in [0, {self.p - 1}]")
        if all(k == 0 for k in ks):
            raise ValueError("a fixed point of the identity is not a local model")

    @property
    def is_isolated(self) -> bool:
        return all(k != 0 for k in self.exponents)

    @property
    def ambient_dimension(self) -> int:
        return len(self.exponents)


@record
class IsolatedPoints:
    """A multiplicity of isolated fixed points sharing one local model.

    `declared` is the weight a record states, or None.  `weight` is that
    value or, when none is declared, the proved-value table's answer,
    computed on first read: loading a record runs no toric fans, and a
    weight that some check reads still gets its full certificate.
    """

    local: FixedPointLocal
    multiplicity: int
    declared: WeightValue | None = None

    def __post_init__(self):
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be positive")
        if not self.local.is_isolated:
            raise ValueError("isolated points cannot have zero exponents")

    @cached_property
    def weight(self) -> WeightValue:
        if self.declared is not None:
            return self.declared
        return weight_lookup(self.local.p, self.local.exponents)


def isolated_points(
    p: int,
    exponents: tuple[int, ...],
    multiplicity: int = 1,
    weight: WeightValue | None = None,
) -> IsolatedPoints:
    """IsolatedPoints with a declared weight, or none.

    A weight not given here is computed from the proved-value table when
    it is first read, not when the points are built.
    """
    return IsolatedPoints(FixedPointLocal(p, tuple(exponents)), multiplicity, weight)


@record
class FixedComponent:
    """A positive-dimensional connected component of the fixed locus.

    even_betti_sum / odd_betti_sum are sum_k b_2k and sum_k b_2k+1 of the
    component; local, when declared, is the transverse plus tangent
    exponent model (exactly `dimension` zero entries).
    """

    dimension: int
    even_betti_sum: int
    odd_betti_sum: int
    label: str = ""
    local: FixedPointLocal | None = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("components have positive dimension; use IsolatedPoints")
        if self.even_betti_sum < 1 or self.odd_betti_sum < 0:
            raise ValueError("Betti sums out of range")
        if self.local is not None:
            zeros = sum(1 for k in self.local.exponents if k == 0)
            if zeros != self.dimension:
                raise ValueError(
                    f"local model has {zeros} tangent directions, component has dimension {self.dimension}"
                )


@record
class FixedLocusSummary:
    """Fix G as the checkers consume it.

    Topological facts that cannot be computed from lattice data
    (torsion-freeness of H^*(Fix), simple connectivity and cocycle
    primitivity of the middle-codimension component Sigma) enter as
    declared booleans.
    """

    isolated: tuple[IsolatedPoints, ...] = ()
    components: tuple[FixedComponent, ...] = ()
    torsion_free: bool = True
    sigma_simply_connected: bool | None = None
    sigma_class_primitive: bool | None = None

    def __post_init__(self):
        object.__setattr__(self, "isolated", tuple(self.isolated))
        object.__setattr__(self, "components", tuple(self.components))
        primes = {pt.local.p for pt in self.isolated}
        primes |= {c.local.p for c in self.components if c.local is not None}
        if len(primes) > 1:
            raise ValueError("mixed primes in one fixed locus")

    @property
    def is_finite(self) -> bool:
        return not self.components

    @property
    def is_empty(self) -> bool:
        return not self.isolated and not self.components

    @property
    def point_count(self) -> int:
        return sum(pt.multiplicity for pt in self.isolated)

    @property
    def h2star(self) -> int:
        """Total even Betti numbers of Fix G; a point contributes 1."""
        return self.point_count + sum(c.even_betti_sum for c in self.components)

    @property
    def h2star_odd(self) -> int:
        return sum(c.odd_betti_sum for c in self.components)

    def h2star_eps(self, ambient_dimension: int) -> int:
        """Even Betti sum when the ambient dimension is even, odd otherwise."""
        return self.h2star if ambient_dimension % 2 == 0 else self.h2star_odd

    def weights_known(self) -> bool:
        return all(pt.weight.exact is not None for pt in self.isolated)

    def weight_sum(self) -> int:
        total = 0
        for pt in self.isolated:
            w = pt.weight.exact
            if w is None:
                raise WeightUnknown(f"weight of {pt.local.exponents} is {pt.weight}")
            total += pt.multiplicity * w
        return total


def negligibility(fix: FixedLocusSummary, ambient_dimension: int) -> tuple[str, list[tuple[str, bool]]]:
    """Classify Fix G as 'negligible', 'almost' or 'none', with the facts used.

    Negligible: H^*(Fix, Z) torsion-free and every part has codimension
    at least dim/2 + 1.  Almost negligible: dim even and >= 4, exactly
    one component Sigma of codimension dim/2 which is simply connected
    with primitive cocycle class, all other parts negligible.  An empty
    fixed locus is negligible.
    """
    facts: list[tuple[str, bool]] = [("fix_cohomology_torsion_free", fix.torsion_free)]
    for c in fix.components:
        if c.dimension >= ambient_dimension:
            raise ValueError("fixed component as big as the ambient manifold")
    if fix.is_empty:
        facts.append(("fix_empty", True))
        return ("negligible" if fix.torsion_free else "none"), facts
    # codimension of the isolated part is the ambient dimension itself
    codims = [ambient_dimension] * (1 if fix.isolated else 0)
    codims += [ambient_dimension - c.dimension for c in fix.components]
    min_codim = min(codims)
    small = 2 * min_codim >= ambient_dimension + 2
    facts.append(("codim_at_least_half_plus_one", small))
    if fix.torsion_free and small:
        return "negligible", facts
    half = [c for c in fix.components if 2 * (ambient_dimension - c.dimension) == ambient_dimension]
    if not half or not fix.torsion_free:
        return "none", facts
    facts.append(("dimension_even_and_at_least_4", ambient_dimension % 2 == 0 and ambient_dimension >= 4))
    facts.append(("sigma_unique_and_connected", len(half) == 1))
    facts.append(("sigma_simply_connected", bool(fix.sigma_simply_connected)))
    facts.append(("sigma_class_primitive", bool(fix.sigma_class_primitive)))
    facts.append(("rest_negligible", min_codim * 2 >= ambient_dimension))
    if all(ok for _, ok in facts):
        return "almost", facts
    return "none", facts


@record
class NormalityReport:
    """Outcome of one certificate applied in one degree.

    inequality_chain holds the three evaluated quantities (left, middle,
    right) of the certificate's sandwich, when it has one; hypotheses
    lists every condition that was actually checked.  A Normal verdict
    pins alpha_degree to 0; Unknown carries the best available interval.
    """

    degree: int
    verdict: str
    criterion_used: str
    hypotheses: tuple[tuple[str, bool], ...] = ()
    alpha_bounds: tuple[int, int | None] = (0, None)
    parity_ok: bool | None = None
    inequality_chain: tuple[int, int, int] | None = None
    witness: str | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.verdict not in (NORMAL, NOT_NORMAL, UNKNOWN):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        object.__setattr__(self, "hypotheses", tuple(self.hypotheses))
        object.__setattr__(self, "notes", tuple(self.notes))
        if self.verdict == NORMAL and self.alpha_bounds != (0, 0):
            raise ValueError("a Normal verdict means alpha = 0")
        if self.verdict == NOT_NORMAL and self.witness is None:
            raise ValueError("a NotNormal verdict needs a witness")
        if self.parity_ok and self.inequality_chain is not None:
            left, middle, right = self.inequality_chain
            if not left >= middle >= right:
                raise ValueError("chain must be ordered when the parity holds")

    def lines(self) -> list[str]:
        lo, hi = self.alpha_bounds
        alpha = f"alpha in [{lo}, {'?' if hi is None else hi}]"
        out = [f"H^{self.degree}: {self.verdict}  ({self.criterion_used}; {alpha})"]
        if self.inequality_chain is not None:
            left, middle, right = self.inequality_chain
            parity = {True: "holds", False: "fails", None: "not checked"}[self.parity_ok]
            out.append(f"  chain {left} >= {middle} >= {right}; parity {parity}")
        for name, ok in self.hypotheses:
            out.append(f"  [{'x' if ok else ' '}] {name}")
        if self.witness:
            out.append(f"  witness: {self.witness}")
        for note in self.notes:
            out.append(f"  note: {note}")
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())


def _require_supported(p: int) -> None:
    if p not in SUPPORTED_PRIMES:
        raise UnsupportedPrime(f"certificates cover primes up to 19, got {p}")


def _verdict(degree, criterion, hyps, unknown_alpha=(0, None), **normal_only) -> NormalityReport:
    """Normal with alpha = 0 and the normal_only fields when every hypothesis
    in hyps holds; otherwise Unknown with unknown_alpha and no chain, parity
    or notes."""
    if all(ok for _, ok in hyps):
        return NormalityReport(degree, NORMAL, criterion, tuple(hyps), (0, 0), **normal_only)
    return NormalityReport(degree, UNKNOWN, criterion, tuple(hyps), unknown_alpha)


def _etsi_bounds(cp: CohomologyProfile) -> tuple[int, int | None]:
    """alpha_mid lies in [0, l_1^mid / 2] on torsion-free cohomology."""
    return (0, cp.l1(cp.dimension) // 2) if cp.torsion_free else (0, None)


def check_simple_criteria(cp: CohomologyProfile, k: int) -> NormalityReport:
    """Rank-based criteria: l_1^k = 0, or l_1^mid = 1 in the middle degree.

    l_1^k = 0 says the invariant lattice is spanned by norms, which makes
    pi_* surjective in degree k.  In the middle degree a single size-1
    block is also enough.  Anything else is Unknown here.
    """
    _require_supported(cp.p)
    l1k = cp.l1(k)
    hyps = [("torsion_free_cohomology", cp.torsion_free)]
    if cp.torsion_free and l1k == 0:
        return _verdict(k, "invariants generated by norms (l_1 = 0)", [*hyps, ("l1_vanishes", True)])
    if cp.torsion_free and k == cp.dimension and l1k == 1:
        return NormalityReport(
            degree=k,
            verdict=NORMAL,
            criterion_used="middle degree with l_1 = 1",
            hypotheses=(*hyps, ("l1_vanishes", False), ("middle_l1_is_one", True)),
            alpha_bounds=(0, 0),
        )
    hyps += [("l1_vanishes", False), ("middle_l1_is_one", False)]
    return _verdict(k, "simple rank criteria", hyps, _etsi_bounds(cp) if k == cp.dimension else (0, None))


def _types_all_one(fix: FixedLocusSummary, p: int) -> bool:
    for pt in fix.isolated:
        if point_type(p, pt.local.exponents) != 1:
            return False
    for c in fix.components:
        if c.local is None or point_type(p, c.local.exponents) != 1:
            return False
    return True


def _chain_ends(cp: CohomologyProfile, slack: int = 0) -> tuple[int, int, int]:
    """(l_1^mid, l_1^mid + 2*T, 2*T - slack): discr exponent and sandwich ends."""
    disc_log = cp.l1(cp.dimension)
    twice_t = 2 * free_torsion_rank(cp, cp.dimension)
    return disc_log, disc_log + twice_t, twice_t - slack


def _chain_hypotheses(cp: CohomologyProfile, own: list[tuple[str, bool]]) -> list[tuple[str, bool]]:
    """Torsion-freeness, a chain's own hypotheses, then the vanishing conditions."""
    even_ok, odd_ok = vanishing_conditions(cp, cp.dimension)
    return [
        ("torsion_free_cohomology", cp.torsion_free),
        *own,
        ("no_size_pm1_blocks_in_even_degrees", even_ok),
        ("no_size_1_blocks_in_odd_degrees", odd_ok),
    ]


def _chain_report(
    cp: CohomologyProfile,
    criterion: str,
    hyps: list[tuple[str, bool]],
    middle: int,
    slack: int = 0,
    notes: tuple[str, ...] = (),
    unmet_facts: tuple | list = (),
) -> NormalityReport:
    """The middle-degree sandwich l_1^mid + 2*T >= middle >= 2*T - slack.

    hyps are the chain's own hypotheses; torsion-freeness and the vanishing
    conditions are added around them, and criterion gains " (p=2 split)"
    for p = 2.  If any hypothesis fails, the verdict is Unknown with the
    chain left unchecked and unmet_facts appended.  Otherwise the parity
    of l_1^mid - middle and the sandwich must hold (HypothesisFailed: no
    such scenario exists), and the verdict is Normal exactly when middle
    reaches the top.
    """
    hyps = _chain_hypotheses(cp, hyps)
    disc_log, left, right = _chain_ends(cp, slack)
    common = dict(
        degree=cp.dimension,
        criterion_used=criterion + (" (p=2 split)" if cp.p == 2 else ""),
        inequality_chain=(left, middle, right),
    )
    if not all(ok for _, ok in hyps):
        return NormalityReport(
            verdict=UNKNOWN, hypotheses=(*hyps, *unmet_facts), alpha_bounds=_etsi_bounds(cp), **common
        )
    if (disc_log - middle) % 2:
        raise HypothesisFailed(
            "parity", f"{disc_log} and {middle} differ by an odd number; no such scenario exists"
        )
    if not left >= middle >= right:
        raise HypothesisFailed(
            "inequality_chain",
            f"{left} >= {middle} >= {right} fails; no such scenario exists",
        )
    normal = middle == left
    return NormalityReport(
        verdict=NORMAL if normal else UNKNOWN,
        hypotheses=tuple(hyps),
        alpha_bounds=(0, 0) if normal else _etsi_bounds(cp),
        parity_ok=True,
        notes=notes,
        **common,
    )


def check_theorem_main(cp: CohomologyProfile, fix: FixedLocusSummary) -> NormalityReport:
    """Middle-degree certificate for a small fixed locus of type-1 points.

    Requires torsion-free cohomology, a negligible or almost negligible
    fixed locus, only type-1 points, and the two vanishing conditions.
    Then l_1^mid - h^(2*+eps)(Fix) is even and
        l_1^mid + 2*T  >=  h^(2*+eps)(Fix)  >=  2*T
    with T the torsion rank of the regular-locus quotient; equality on
    the left is equivalent to H^mid-normality.  The odd-dimensional
    variant (odd Betti sums of Fix) is implemented but exercised by no
    catalog scenario.
    """
    _require_supported(cp.p)
    status, neg_facts = negligibility(fix, cp.dimension)
    own = [
        (f"fix_negligible_or_almost_negligible ({status})", status != "none"),
        ("all_fixed_points_type_1", _types_all_one(fix, cp.p)),
    ]
    return _chain_report(cp, "main chain", own, fix.h2star_eps(cp.dimension), unmet_facts=neg_facts)


def _split_order3_fixed_locus(fix: FixedLocusSummary, n: int):
    """(type-1 part, n2, eps, eta) of an order-3 fixed locus, or NotStable."""
    f1_points = []
    n2 = eps = eta = 0
    for pt in fix.isolated:
        t = point_type(3, pt.local.exponents)
        if t == 1:
            f1_points.append(pt)
            continue
        if t != 2:
            raise NotStable(f"isolated point of type {t}: {pt.local.exponents}")
        ones = sum(1 for k in pt.local.exponents if k == 1)
        twos = sum(1 for k in pt.local.exponents if k == 2)
        if {ones, twos} == {n}:
            n2 += pt.multiplicity
        elif n >= 4 and {ones, twos} == {n - 1, n + 1}:
            eps += pt.multiplicity
        else:
            raise NotStable(f"type-2 point {pt.local.exponents} is not in the stable list")
    f1_components = []
    for c in fix.components:
        if c.local is None:
            raise NotStable(f"component {c.label or c.dimension} has no declared local model")
        t = point_type(3, c.local.exponents)
        if t == 1:
            f1_components.append(c)
            continue
        if t != 2:
            raise NotStable(f"component of type {t}: {c.local.exponents}")
        ones = sum(1 for k in c.local.exponents if k == 1)
        twos = sum(1 for k in c.local.exponents if k == 2)
        rational_curve = c.dimension == 1 and c.even_betti_sum == 2 and c.odd_betti_sum == 0
        if n >= 4 and rational_curve and {ones, twos} == {n - 1, n}:
            eta += 1
        else:
            raise NotStable(f"type-2 component {c.local.exponents} is not a stable-list curve")
    return replace(fix, isolated=f1_points, components=f1_components), n2, eps, eta


def check_th3(cp: CohomologyProfile, fix: FixedLocusSummary) -> NormalityReport:
    """Middle-degree certificate for p = 3 allowing standard type-2 points.

    The fixed locus must be stable: its type-1 part negligible (or almost
    negligible, with no borderline pieces), type-2 points of the shape
    (1..1, 2..2) with n entries each, and at most one borderline point or
    rational curve.  The sandwich gains the slack n2+eps+2*eta on the
    right; equality on the left still forces H^mid-normality.
    """
    if cp.p != 3:
        raise NotOrder3(f"this certificate needs p = 3, got p = {cp.p}")
    dim = cp.dimension
    if dim % 2:
        raise ValueError("even complex dimension required")
    n = dim // 2
    f1, n2, eps, eta = _split_order3_fixed_locus(fix, n)
    f1_status, _ = negligibility(f1, dim)
    if f1_status == "almost":
        if eps or eta:
            raise NotStable("borderline pieces cannot coexist with a middle-codimension part")
    elif f1_status == "negligible":
        if eps + eta > 1:
            raise NotStable(f"at most one borderline piece allowed, found eps={eps}, eta={eta}")
    else:
        raise NotStable("type-1 part of the fixed locus is neither negligible nor almost negligible")
    slack = n2 + eps + 2 * eta
    return _chain_report(
        cp,
        "stable order-3 chain",
        [(f"fixed_locus_stable (n2={n2}, eps={eps}, eta={eta})", True)],
        fix.h2star,
        slack=slack,
        notes=(f"blow-up slack n2+eps+2*eta = {slack}",),
    )


def check_maintori(cp: CohomologyProfile, fix: FixedLocusSummary) -> NormalityReport:
    """Middle-degree certificate for a finite fixed locus via point weights.

    Every point carries a weight in {0, 1, 2}; with no weight-2 point and
    the vanishing conditions,
        l_1^mid + 2*T  >=  sum of weights  >=  2*T
    with equality on the left equivalent to H^mid-normality.  Unknown or
    weight-2 points abort, since the sandwich then loses its conclusion.
    """
    _require_supported(cp.p)
    if cp.dimension % 2:
        raise ValueError("even complex dimension required")
    if not fix.weights_known():
        unknown = [pt.local.exponents for pt in fix.isolated if pt.weight.exact is None]
        raise WeightUnknown(f"weights not pinned for {unknown}")
    if any(pt.weight.exact == 2 for pt in fix.isolated):
        raise WeightTwoPresent("a weight-2 point voids the normality conclusion")
    w_sum = fix.weight_sum()
    return _chain_report(
        cp,
        "weight chain",
        [("fix_finite", fix.is_finite), ("no_weight_2_points", True)],
        w_sum,
        notes=(f"sum of weights over {fix.point_count} points = {w_sum}",),
    )


@record
class WeightSolution:
    """weight_solve outcome: solved value or narrowed interval per type."""

    unique: bool
    weights: tuple[tuple[tuple[int, ...], WeightValue], ...]
    feasible_count: int
    sum_bounds: tuple[int, int]

    def value(self, p: int, exponents: tuple[int, ...]) -> WeightValue:
        key = canonical_exponents(p, tuple(exponents))
        for exps, val in self.weights:
            if exps == key:
                return val
        raise KeyError(f"no point of type {exponents}")


def weight_solve(cp: CohomologyProfile, fix: FixedLocusSummary) -> WeightSolution:
    """Narrow partially known point weights with the parity and the sandwich.

    Weights depend only on the local type, so points are grouped by
    exponents up to a unit; each group ranges over its declared interval.
    An assignment is admissible when the weighted sum lands inside
    [2*T, l_1^mid + 2*T] with the right parity.  Returns the unique
    assignment when only one survives, otherwise per-type intervals;
    raises Infeasible when none does.
    """
    p = cp.p
    _require_supported(p)
    if p == 2:
        raise UnsupportedPrime("the weight sandwich is stated for odd primes")
    if cp.dimension % 2:
        raise ValueError("even complex dimension required")
    failed = [name for name, ok in _chain_hypotheses(cp, [("fix_finite", fix.is_finite)]) if not ok]
    if failed:
        raise HypothesisFailed(failed[0], "weight constraints unavailable")
    groups: dict[tuple[int, ...], tuple[int, int, int]] = {}
    for pt in fix.isolated:
        key = canonical_exponents(p, pt.local.exponents)
        mult, lo, hi = groups.get(key, (0, 0, 2))
        lo, hi = max(lo, pt.weight.lo), min(hi, pt.weight.hi)
        if lo > hi:
            raise Infeasible(f"conflicting declared weights for type {key}")
        groups[key] = (mult + pt.multiplicity, lo, hi)
    keys = sorted(groups)
    disc_log, upper, lower = _chain_ends(cp)
    ranges = [range(groups[k][1], groups[k][2] + 1) for k in keys]
    feasible: list[tuple[int, ...]] = []
    for combo in itertools.product(*ranges):
        total = sum(w * groups[k][0] for w, k in zip(combo, keys))
        if lower <= total <= upper and (disc_log - total) % 2 == 0:
            feasible.append(combo)
    if not feasible:
        raise Infeasible(
            f"no weight assignment puts the sum in [{lower}, {upper}] with the right parity"
        )
    solved = []
    for i, k in enumerate(keys):
        values = [combo[i] for combo in feasible]
        solved.append((k, WeightValue(min(values), max(values))))
    return WeightSolution(
        unique=len(feasible) == 1,
        weights=tuple(solved),
        feasible_count=len(feasible),
        sum_bounds=(lower, upper),
    )


def surface_fix_count(cp: CohomologyProfile) -> int:
    """#Fix that the degree-2 profile forces on a surface with b_1 = 0.

    Every fixed point has weight 1, so #Fix = 2 + l_1^2 + l_(p-1)^2; for
    p = 2 that is the total size-1 count plus 2.
    """
    return 2 + cp.l1(2) + cp.l_pm1(2)


def check_surface(
    cp: CohomologyProfile, fix: FixedLocusSummary, simply_connected: bool = True
) -> NormalityReport:
    """H^2-normality for simply connected surfaces with finite fixed locus.

    The declared fixed point count must be `surface_fix_count`; normality
    then needs no size-(p-1) blocks (minus part for p = 2) in degree 2.
    """
    p = cp.p
    _require_supported(p)
    if cp.dimension != 2:
        raise ValueError(f"surface certificate needs dimension 2, got {cp.dimension}")
    if cp.profile(2).middle_blocks():
        raise MiddleBlocksPresent(
            f"degree-2 profile has blocks of size 2..p-2: {cp.profile(2).middle_blocks()}"
        )
    expected = surface_fix_count(cp)
    if fix.is_finite and not fix.is_empty and fix.point_count != expected:
        raise FixedCountMismatch(
            f"profile forces #Fix = {expected}, scenario declares {fix.point_count}"
        )
    minus_name = "l_(1,-)^2_vanishes" if p == 2 else "l_(p-1)^2_vanishes"
    hyps = [
        ("simply_connected", simply_connected),
        ("fix_finite", fix.is_finite),
        ("fix_nonempty", not fix.is_empty),
        (minus_name, cp.l_pm1(2) == 0),
    ]
    return _verdict(
        2,
        "simply connected surface count",
        hyps,
        _etsi_bounds(cp),
        parity_ok=True,
        inequality_chain=(cp.l1(2) + 2, fix.point_count, 2),
        notes=("every surface fixed point has weight 1",),
    )


def betti_quotient(r: int, p: int) -> tuple[int, int, int, int]:
    """(b_2, b_3, b_4, chi) of the quotient of a Hilbert-square fourfold.

    r is the rank of the invariant second cohomology.  The quotient keeps
    b_2 = r, loses all odd cohomology, and has
    b_4 = r(r+1)/2 + (23-r)^2 / (2(p-1)); assumes the middle invariants
    are spanned by the symmetric square plus norms.
    """
    _require_supported(p)
    if p == 2:
        raise UnsupportedPrime("the b_4 count is derived for odd primes")
    if not 1 <= r <= 23:
        raise ValueError(f"invariant rank must be in [1, 23], got {r}")
    num = (23 - r) ** 2
    den = 2 * (p - 1)
    if num % den:
        raise NonIntegralResult(
            f"(23-{r})^2 = {num} is not divisible by 2(p-1) = {den}; inconsistent input"
        )
    b4 = r * (r + 1) // 2 + num // den
    return r, 0, b4, 2 + 2 * r + b4


def propagate_power(
    report_kt: NormalityReport,
    sym_injective: bool,
    complement_stable: bool,
    t: int = 2,
) -> NormalityReport:
    """Descend H^(kt)-normality to degree k through the t-th symmetric power.

    Needs Sym^t H^k(X, F_p) -> H^(kt)(X, F_p) injective with invariantly
    complemented image; in practice the injectivity certificate is the
    absence of p-torsion in the integral cokernel of Sym^t H^k -> H^(kt).
    """
    if t < 2 or report_kt.degree % t:
        raise ValueError(f"degree {report_kt.degree} is not a t = {t} power degree")
    k = report_kt.degree // t
    hyps = [
        (f"H^{report_kt.degree}_normal", report_kt.verdict == NORMAL),
        ("sym_power_injective_mod_p", sym_injective),
        ("image_invariantly_complemented", complement_stable),
    ]
    return _verdict(k, f"descent from H^{report_kt.degree} through Sym^{t}", hyps)
