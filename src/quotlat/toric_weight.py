"""Weights of isolated cyclic quotient singularities via toric geometry.

A fixed point of a prime-order automorphism with local exponents
(k_1, ..., k_n) carries a weight in {0, 1, 2} that measures its torsion
contribution to the cohomology of the resolved quotient.  In dimension 2
the weight is computable: resolve the singularity 1/p(1, q) by a
Hirzebruch-Jung fan, compactify, present H^2 of the resulting smooth
complete toric surface by ray classes modulo the Danilov relations, and
read off the discriminants of the exceptional and boundary sublattices.
The five-case classification then pins the weight; in dimension 2 the
answer is always 1, and the computation verifies that it lands in the
middle case for every choice of compactification and resolution.

Higher-dimensional points are handled by a lookup table of proved values;
no fan machinery is attempted beyond surfaces.
"""

from __future__ import annotations

import math

from . import _linalg as la
from ._record import record
from .lattice_core import _is_prime, _p_power_log

Vec2 = tuple[int, int]


class NotCoprime(ValueError):
    pass


class ClassificationFailure(RuntimeError):
    """Computed toric data breaks an invariant or fits no admissible case."""


def _require_prime(p: int) -> None:
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")


def _cross(a: Vec2, b: Vec2) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _add(a: Vec2, b: Vec2) -> Vec2:
    return (a[0] + b[0], a[1] + b[1])


def _is_primitive(v: Vec2) -> bool:
    return math.gcd(v[0], v[1]) == 1


def hj_expand(n: int, q: int) -> list[int]:
    """Ceiling continued fraction of n/q: n/q = a_1 - 1/(a_2 - 1/(...)).

    All coefficients are >= 2; they are the negatives of the exceptional
    self-intersections in the minimal resolution of the 1/n(1, q) point.
    """
    if n <= 1 or not 1 <= q < n:
        raise ValueError(f"need n > 1 and 1 <= q < n, got ({n}, {q})")
    if math.gcd(n, q) != 1:
        raise NotCoprime(f"gcd({n}, {q}) != 1")
    out = []
    while q:
        a = -((-n) // q)
        out.append(a)
        n, q = q, a * q - n
    return out


def _resolve_cone(a: Vec2, b: Vec2) -> list[Vec2]:
    """Primitive rays of the minimal subdivision strictly between a and b.

    Peels off the unique smooth neighbor of the running edge ray; the
    absolute cross product with b strictly decreases, so this terminates
    with the Hirzebruch-Jung chain ordered from the a side.
    """
    if not (_is_primitive(a) and _is_primitive(b)):
        raise ValueError("cone generators must be primitive")
    if _cross(a, b) == 0:
        raise ValueError("degenerate cone")
    rays: list[Vec2] = []
    cur = a
    while True:
        d = abs(_cross(cur, b))
        if d == 1:
            return rays
        for k in range(1, d):
            if (b[0] + k * cur[0]) % d == 0 and (b[1] + k * cur[1]) % d == 0:
                v = ((b[0] + k * cur[0]) // d, (b[1] + k * cur[1]) // d)
                break
        else:
            raise ClassificationFailure("no smooth neighbor found")
        rays.append(v)
        cur = v


@record
class Fan2D:
    """Ordered collection of primitive rays in Z^2.

    Rays are listed counterclockwise; consecutive pairs span the 2-cones.
    Complete fans wrap around (the last ray is adjacent to the first).
    Labels tag each ray: 'e' for the edges of the original singular cone,
    'f' for exceptional rays inserted inside it, 'u' for compactification
    rays outside it.
    """

    rays: tuple[Vec2, ...]
    labels: tuple[str, ...]
    complete: bool = False

    def __post_init__(self):
        if len(self.rays) != len(self.labels):
            raise ValueError("one label per ray")
        if len(set(self.rays)) != len(self.rays):
            raise ValueError("duplicate ray")
        for v in self.rays:
            if v == (0, 0) or not _is_primitive(v):
                raise ValueError(f"ray {v} not primitive")
        for a, b in self._adjacent_pairs():
            if _cross(a, b) <= 0:
                raise ValueError(f"rays {a}, {b} not in counterclockwise order")

    def _adjacent_pairs(self):
        pairs = list(zip(self.rays, self.rays[1:]))
        if self.complete:
            pairs.append((self.rays[-1], self.rays[0]))
        return pairs

    @property
    def is_smooth(self) -> bool:
        return all(_cross(a, b) == 1 for a, b in self._adjacent_pairs())

    def self_intersection(self, i: int) -> int:
        """Self-intersection of the divisor of ray i, from its neighbors.

        Needs both neighbors, so in a chain fan the end rays are excluded.
        """
        n = len(self.rays)
        if not self.complete and (i == 0 or i == n - 1):
            raise ValueError("end ray of a chain fan has no self-intersection")
        prev = self.rays[(i - 1) % n]
        nxt = self.rays[(i + 1) % n]
        ray = self.rays[i]
        s = _add(prev, nxt)
        # prev + next = a * ray on a smooth surface
        if ray[0] != 0:
            a, rem = divmod(s[0], ray[0])
        else:
            a, rem = divmod(s[1], ray[1])
        if rem != 0 or (a * ray[0], a * ray[1]) != s:
            raise ArithmeticError(f"neighbors of ray {ray} do not close up")
        return -a


def _compactified_fan(p: int, q: int, corners: tuple[Vec2, ...], extra_blowup: bool) -> Fan2D:
    """Complete smooth fan containing the resolved 1/p(1, q) cone.

    The corner rays close the fan outside the singular cone; any leftover
    singular outside cone is subdivided the same way.  With extra_blowup
    one more 'f' ray is inserted, giving a non-minimal resolution.
    """
    e1 = (p, p - q)
    e2 = (0, 1)
    interior = list(_resolve_cone(e1, e2))
    if extra_blowup:
        # star subdivision at the sum of the last interior pair: a blow-up
        chain = [e1, *interior, e2]
        interior.append(_add(chain[-2], chain[-1]))
    rays: list[Vec2] = [e1]
    labels: list[str] = ["e"]
    for v in interior:
        rays.append(v)
        labels.append("f")
    rays.append(e2)
    labels.append("e")
    loop = [e2, *corners, e1]
    for a, b in zip(loop, loop[1:]):
        if a != e2:
            rays.append(a)
            labels.append("u")
        for v in _resolve_cone(a, b):
            rays.append(v)
            labels.append("u")
    for v, lab in zip(rays, labels):
        if lab == "u" and v[0] >= 0 and p * v[1] >= (p - q) * v[0]:
            raise ClassificationFailure(f"compactification ray {v} inside the singular cone")
    fan = Fan2D(tuple(rays), tuple(labels), complete=True)
    if not fan.is_smooth:
        raise ClassificationFailure("compactified fan not smooth")
    return fan


@record
class WeightValue:
    """Weight of a fixed point: an exact value or an interval in [0, 2]."""

    lo: int
    hi: int

    def __post_init__(self):
        if not 0 <= self.lo <= self.hi <= 2:
            raise ValueError("weight bounds must satisfy 0 <= lo <= hi <= 2")

    @classmethod
    def known(cls, v: int) -> "WeightValue":
        return cls(v, v)

    @property
    def exact(self) -> int | None:
        return self.lo if self.lo == self.hi else None

    def __str__(self) -> str:
        return str(self.lo) if self.lo == self.hi else f"[{self.lo}, {self.hi}]"


@record
class WeightDim2Result:
    """Outcome of the dimension-2 weight computation on one fan."""

    p: int
    q: int
    weight: WeightValue
    case: str
    fan: Fan2D
    hj: tuple[int, ...]
    discr_im_gprime: int
    discr_im_gbar: int
    discr_gamma_prime: int
    discr_gamma_bar: int
    rktor_relative: int


_CASE_TABLE = {
    # (log_p discr Im g', log_p discr Im gbar, rktor H^{n+1}(cpt, U'')) -> case
    (0, 0, 1): "i",
    (0, 0, 0): "ii",
    (2, 0, 0): "iii",
    (0, 2, 0): "iv",
    (1, 1, 0): "v",
}


def _weight_from_fan(fan: Fan2D, p: int, q: int) -> WeightDim2Result:
    rays = fan.rays
    n = len(rays)
    pairing = la.zeros(n, n)
    for i in range(n):
        pairing[i][i] = fan.self_intersection(i)
        pairing[i][(i + 1) % n] = 1
        pairing[(i + 1) % n][i] = 1

    # Danilov relations: one row per coordinate of the lattice
    rel = [[rays[j][i] for j in range(n)] for i in range(2)]
    if any(x != 0 for row in la.mat_mul(rel, pairing) for x in row):
        raise ClassificationFailure("intersection pairing does not kill the relations")

    snf = la.smith_normal_form(rel)
    if snf.diagonal != [1, 1]:
        raise ClassificationFailure("ray classes do not present a free group")
    # class of ray j is row j of V with the first two coordinates dropped,
    # and row 2+i of V^{-1} lifts the i-th basis class back to Z^rays; the
    # Smith form does not return V^{-1}, so it is read off as the integer
    # coordinates of I over the rows of V
    cls = [snf.v[j][2:] for j in range(n)]
    lift = la.integer_coordinates(snf.v, la.identity(n))[2:]
    gram = la.mat_mul(lift, la.mat_mul(pairing, la.transpose(lift)))
    if abs(la.det_bareiss(gram)) != 1:
        raise ClassificationFailure("H^2 of a smooth complete toric surface must be unimodular")

    f_idx = [i for i, lab in enumerate(fan.labels) if lab == "f"]
    u_idx = [i for i, lab in enumerate(fan.labels) if lab == "u"]
    cls_f = [cls[i] for i in f_idx]
    cls_u = [cls[i] for i in u_idx]
    gamma_prime = [[pairing[i][j] for j in f_idx] for i in f_idx]
    gamma_bar = [[pairing[i][j] for j in u_idx] for i in u_idx]
    d_gamma_prime = abs(la.det_bareiss(gamma_prime))
    d_gamma_bar = abs(la.det_bareiss(gamma_bar))
    if d_gamma_prime != p:
        raise ClassificationFailure("exceptional chain discriminant must equal p")

    # Im g' is orthogonal to every boundary class, Im gbar to every
    # exceptional class; both kernels are saturated.
    im_gprime = la.kernel_basis(la.mat_mul(cls_u, gram))
    im_gbar = la.kernel_basis(la.mat_mul(cls_f, gram))
    d_prime = abs(la.det_bareiss(la.mat_mul(im_gprime, la.mat_mul(gram, la.transpose(im_gprime)))))
    d_bar = abs(la.det_bareiss(la.mat_mul(im_gbar, la.mat_mul(gram, la.transpose(im_gbar)))))
    # Exceptional and boundary curves are disjoint, so each exceptional class
    # lies in Im g' over Q and each boundary class in Im gbar; one elimination
    # per kernel checks that all of them have integer coordinates there.
    if la.integer_coordinates(im_gprime, cls_f) is None:
        raise ClassificationFailure("exceptional class escapes Im g'")
    if la.integer_coordinates(im_gbar, cls_u) is None:
        raise ClassificationFailure("boundary class escapes Im gbar")

    i0 = abs(la.det_bareiss(im_gprime + im_gbar))
    if d_prime * d_bar != i0 * i0:
        raise ClassificationFailure("index relation discr(Im g') * discr(Im gbar) = i0^2 fails")

    # cokernel of H^2(compactification) -> H^2(complement of the f-curves)
    tors_u = la.elementary_divisors(cls_u)
    if any(t != p for t in tors_u):
        raise ClassificationFailure(f"relative H^3 torsion {tors_u} is not p-elementary")
    rktor = len(tors_u)

    logs = [_p_power_log(d, p) for d in (d_prime, d_bar)]
    for d, e in zip((d_prime, d_bar), logs):
        if e is None:
            raise ClassificationFailure(f"discriminant {d} is not a power of {p}")
    key = (*logs, rktor)
    case = _CASE_TABLE.get(key)
    if case is None:
        raise ClassificationFailure(f"data {key} matches no admissible case")
    weight = key[0] + 2 * key[2]
    return WeightDim2Result(
        p=p,
        q=q,
        weight=WeightValue.known(weight),
        case=case,
        fan=fan,
        hj=tuple(hj_expand(p, q)),
        discr_im_gprime=d_prime,
        discr_im_gbar=d_bar,
        discr_gamma_prime=d_gamma_prime,
        discr_gamma_bar=d_gamma_bar,
        rktor_relative=rktor,
    )


_CORNERS_A: tuple[Vec2, ...] = ((-1, 0), (0, -1), (1, 0))
_CORNERS_B: tuple[Vec2, ...] = ((-1, -1), (1, 0))


def weight_dim2(p: int, q: int) -> WeightDim2Result:
    """Weight of an isolated fixed point of local type 1/p(1, q) on a surface.

    Runs the computation on two distinct compactifications and on a
    non-minimal resolution; the results must agree, and in dimension 2
    the weight must come out as 1 via the middle classification case.
    """
    _require_prime(p)
    runs = [
        _weight_from_fan(_compactified_fan(p, q, _CORNERS_A, False), p, q),
        _weight_from_fan(_compactified_fan(p, q, _CORNERS_B, False), p, q),
        _weight_from_fan(_compactified_fan(p, q, _CORNERS_B, True), p, q),
    ]
    weights = {r.weight.exact for r in runs}
    if len(weights) != 1:
        raise ClassificationFailure(f"weight depends on the blow-up: {sorted(weights)}")
    primary = runs[0]
    if primary.weight.exact != 1:
        raise ClassificationFailure(f"dimension-2 weight must be 1, got {primary.weight}")
    return primary


def point_type(p: int, exponents: tuple[int, ...]) -> int | None:
    """Fixed point type from the sorted local exponents.

    Type 0: at most one nonzero exponent (the quotient stays smooth).
    Type 1: all nonzero exponents equal.  Type 2: p = 3 and neither.
    Returns None for the remaining points ('other type').
    """
    _require_prime(p)
    ks = sorted(k % p for k in exponents)
    nonzero = [k for k in ks if k]
    if len(nonzero) <= 1:
        return 0
    if len(set(nonzero)) == 1:
        return 1
    if p == 3:
        return 2
    return None


def canonical_exponents(p: int, exponents: tuple[int, ...]) -> tuple[int, ...]:
    """Smallest sorted tuple among all unit rescalings of the exponents.

    The local type only sees the cyclic group, not the chosen generator,
    so exponent tuples are compared up to multiplication by a unit mod p.
    """
    best = None
    for u in range(1, p):
        cand = tuple(sorted(u * k % p for k in exponents))
        if best is None or cand < best:
            best = cand
    return best


def weight_lookup(p: int, exponents: tuple[int, ...]) -> WeightValue:
    """Weight of an isolated fixed point with the given local exponents.

    Dimension 2 is computed exactly; beyond that only the proved values
    are known: type 1 and type 2 points, the full orbit 1/p(1, ..., p-1),
    and two explicit 1/5 cases.  Everything else is the interval [0, 2].
    """
    _require_prime(p)
    ks = tuple(k % p for k in exponents)
    if any(k == 0 for k in ks):
        raise ValueError("weights are defined for isolated fixed points only")
    if len(ks) == 2:
        inv = pow(ks[0], -1, p)
        return weight_dim2(p, ks[1] * inv % p).weight
    canon = canonical_exponents(p, ks)
    if point_type(p, ks) in (1, 2):
        return WeightValue.known(1)
    if canon == tuple(range(1, p)):
        return WeightValue.known(1)
    if p == 5 and canon in (
        canonical_exponents(5, (1, 1, 4, 4)),
        canonical_exponents(5, (1, 1, 1, 2)),
    ):
        return WeightValue.known(1)
    return WeightValue(0, 2)
