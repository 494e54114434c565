"""Integral cohomology ring of the Hilbert square of a K3 surface.

H^2 of the Hilbert square is j(H^2(S)) plus Z*delta, where 2*delta is the
class of the exceptional divisor; the Beauville-Bogomolov form restricts
to the intersection form on the j-part and gives delta^2 = -2.  H^4 has
the Nakajima-operator integral basis

    sigma = q1(1) q1(x) |0>,   q2(a_k),   q1(a_k) q1(a_m)  (k < m),
    m11(a_k) = (q1(a_k)^2 - q2(a_k)) / 2,

for an integral basis (a_k) of H^2(S).  This module implements the cup
products H^2 x H^2 -> H^4 and H^4 x H^4 -> H^8 = Z in exact arithmetic,
together with the automorphism action induced on H^4 by an isometry of
H^2(S).  The top pairing of two products of four 2-classes follows the
polarized Fujiki relation with constant 3.

``HilbertSquare.pair_monomials`` pairs the H^4 monomials sigma and x.y
(x, y in H^2) by sigma.sigma = 1, the sigma pairing and that relation, in
integer arithmetic; it is the only place these rules are written.  One
integer table, ``_doubled_expansions``, writes twice each basis element
as such monomials.  ``h4_gram`` pairs the table with itself and divides
by 4; ``induced_h4`` maps it through an isometry and halves.

Actions follow ``PrimeOrderAction``: a matrix psi acts on column vectors,
its columns are the images of the basis vectors, and an isometry of a
Gram G satisfies psi^T G psi = G.  ``_image_h2`` returns psi x,
and ``induced_h4`` has the images of the H^4 basis as columns.
"""

from __future__ import annotations

from operator import mul

from . import _linalg as la
from ._record import record
from .lattice_core import GramLattice, _freeze, _is_prime

FUJIKI_CONSTANT = 3
DELTA_SQUARE = -2
# the H^4 monomial sigma for HilbertSquare.pair_monomials; every other
# monomial is a pair (x, y) of H2Class standing for the product x.y
SIGMA = "sigma"


@record
class H2Class:
    """Element a_1*gamma_1 + ... + a_22*gamma_22 + b*delta of H^2(S^[2])."""

    gamma: tuple[int, ...]
    delta: int = 0

    def __add__(self, other: "H2Class") -> "H2Class":
        return H2Class(tuple(x + y for x, y in zip(self.gamma, other.gamma)), self.delta + other.delta)

    def __sub__(self, other: "H2Class") -> "H2Class":
        return H2Class(tuple(x - y for x, y in zip(self.gamma, other.gamma)), self.delta - other.delta)

    def __rmul__(self, c: int) -> "H2Class":
        return H2Class(tuple(c * x for x in self.gamma), c * self.delta)

    @property
    def rank(self) -> int:
        return len(self.gamma) + 1


@record
class H4Class:
    """Coordinates in the integral basis (sigma, q2, q1q1, m11)."""

    coords: tuple[int, ...]

    def __add__(self, other: "H4Class") -> "H4Class":
        return H4Class(tuple(x + y for x, y in zip(self.coords, other.coords)))

    def __sub__(self, other: "H4Class") -> "H4Class":
        return H4Class(tuple(x - y for x, y in zip(self.coords, other.coords)))

    def __rmul__(self, c: int) -> "H4Class":
        return H4Class(tuple(c * x for x in self.coords))


class HilbertSquare:
    """Exact cohomology ring data of S^[2] for a K3 intersection form.

    The input Gram matrix must be the full unimodular even symmetric
    intersection form on H^2(S,Z), else ValueError; the diagonal class
    coefficients mu are its inverse.
    """

    def __init__(self, gram):
        self.gram = _freeze(gram.gram if isinstance(gram, GramLattice) else gram)
        self.n = len(self.gram)
        try:
            mu = la.integer_coordinates(self.gram, la.identity(self.n))
        except ValueError:  # singular
            mu = None
        if mu is None:  # G^-1 is integral exactly when det G = +-1
            raise ValueError("H^2(S) must be unimodular")
        if any(g % 2 for g in (self.gram[i][i] for i in range(self.n))):
            raise ValueError("H^2(S) must be even")
        if not la.is_symmetric(self.gram):
            raise ValueError("H^2(S) must be symmetric")
        self.mu = mu
        # H^4 basis layout: sigma, q2(k), q1q1(k < m), m11(k)
        self._q2_at = 1
        self._pair_at = 1 + self.n
        self._pair_index = {}
        idx = self._pair_at
        for k in range(self.n):
            for m in range(k + 1, self.n):
                self._pair_index[(k, m)] = idx
                idx += 1
        self._m11_at = idx
        self.h4_rank = idx + self.n
        self._h4_gram_cache = None

    # ---- H^2 ----

    def h2_rank(self) -> int:
        return self.n + 1

    def bb(self, x: H2Class, y: H2Class) -> int:
        acc = x.delta * y.delta * DELTA_SQUARE
        for i, xi in enumerate(x.gamma):
            if xi:
                acc += xi * sum(map(mul, self.gram[i], y.gamma))
        return acc

    def gamma(self, k: int) -> H2Class:
        return H2Class(tuple(1 if i == k else 0 for i in range(self.n)), 0)

    @property
    def delta(self) -> H2Class:
        return H2Class((0,) * self.n, 1)

    # ---- H^4 basis helpers ----

    def sigma(self) -> H4Class:
        v = [0] * self.h4_rank
        v[0] = 1
        return H4Class(tuple(v))

    def h4_basis_labels(self) -> list[str]:
        """Basis element names in coordinate order, for report output."""
        labels = ["sigma"]
        labels += [f"q2(a{k})" for k in range(self.n)]
        labels += [
            f"q1(a{k})q1(a{m})" for k in range(self.n) for m in range(k + 1, self.n)
        ]
        labels += [f"m11(a{k})" for k in range(self.n)]
        return labels

    # ---- cup products ----

    def cup(self, x: H2Class, y: H2Class) -> H4Class:
        """Cup product H^2 x H^2 -> H^4 in the integral basis.

        gamma_k gamma_m = (a_k . a_m) sigma + q1q1(k, m); the diagonal uses
        q1(a)^2 = 2 m11(a) + q2(a); delta gamma_k = q2(a_k); delta^2 expands
        as minus the diagonal-class combination minus sigma.  The sign is
        forced: it is the unique integral expansion with delta^4 = 12.
        """
        a, b = x.gamma, x.delta
        c, d = y.gamma, y.delta
        v = [0] * self.h4_rank
        sigma_coef = -b * d
        for k in range(self.n):
            gk = self.gram[k]
            for m in range(self.n):
                if a[k] and c[m]:
                    sigma_coef += a[k] * c[m] * gk[m]
        v[0] = sigma_coef
        for k in range(self.n):
            # delta*gamma terms plus the delta^2 diagonal contribution
            coef = b * c[k] + d * a[k] + a[k] * c[k]
            mu_kk = self.mu[k][k]
            if b and d:
                if mu_kk % 2:
                    raise ArithmeticError("diagonal class has odd self-pairing")
                coef -= b * d * (mu_kk // 2)
            v[self._q2_at + k] = coef
            v[self._m11_at + k] = 2 * a[k] * c[k] - b * d * mu_kk
        for (k, m), idx in self._pair_index.items():
            v[idx] = a[k] * c[m] + a[m] * c[k] - b * d * self.mu[k][m]
        return H4Class(tuple(v))

    def fujiki_product(self, x1: H2Class, x2: H2Class, x3: H2Class, x4: H2Class) -> int:
        """Top intersection x1.x2.x3.x4 via the polarized Fujiki relation."""
        return (
            self.bb(x1, x2) * self.bb(x3, x4)
            + self.bb(x1, x3) * self.bb(x2, x4)
            + self.bb(x1, x4) * self.bb(x2, x3)
        )

    # ---- top pairing on H^4 ----

    def _sigma_pairing(self, x: H2Class, y: H2Class) -> int:
        # sigma . (x cup y): intersection form on the j-part, -1 on delta
        return self.bb(x, y) + x.delta * y.delta

    def pair_monomials(self, a, b) -> int:
        """Top pairing of two H^4 monomials, each SIGMA or a pair (x, y).

        sigma.sigma = 1, sigma.(x y) is the sigma pairing of x and y, and
        (x1 x2).(x3 x4) is the polarized Fujiki relation.  This equals
        ``pair_h4`` on ``sigma()`` and ``cup(x, y)`` without the H^4 Gram.
        """
        if a is SIGMA:
            return 1 if b is SIGMA else self._sigma_pairing(*b)
        if b is SIGMA:
            return self._sigma_pairing(*a)
        return self.fujiki_product(*a, *b)

    def _doubled_expansions(self):
        """Twice each H^4 basis element as integer (coefficient, monomial) terms.

        In basis order: 2 sigma; 2 delta.a_k; 2 a_k.a_m - 2 g_km sigma;
        a_k.a_k - g_kk sigma - delta.a_k.  Each list reads back through
        ``cup`` as twice the basis vector.
        """
        delta = self.delta
        gammas = [self.gamma(k) for k in range(self.n)]
        out = [[(2, SIGMA)]]
        out += [[(2, (delta, g))] for g in gammas]
        for k, m in self._pair_index:
            out.append([(2, (gammas[k], gammas[m])), (-2 * self.gram[k][m], SIGMA)])
        for k, g in enumerate(gammas):
            out.append([(1, (g, g)), (-self.gram[k][k], SIGMA), (-1, (delta, g))])
        return out

    def h4_gram(self):
        """Gram matrix of the top pairing in the integral H^4 basis."""
        if self._h4_gram_cache is not None:
            return self._h4_gram_cache
        expans = self._doubled_expansions()
        size = self.h4_rank
        gram = [[0] * size for _ in range(size)]
        for i, terms_i in enumerate(expans):
            for j in range(i, size):
                val = sum(
                    ci * cj * self.pair_monomials(a, b)
                    for ci, a in terms_i
                    for cj, b in expans[j]
                )
                gram[i][j] = gram[j][i] = _exact_div(val, 4)
        self._h4_gram_cache = gram
        return gram

    def pair_h4(self, a: H4Class, b: H4Class) -> int:
        gram = self.h4_gram()
        acc = 0
        for i, ai in enumerate(a.coords):
            if ai:
                row = gram[i]
                acc += ai * sum(row[j] * bj for j, bj in enumerate(b.coords) if bj)
        return acc

    # ---- induced automorphism action ----

    def induced_h2(self, psi):
        """23x23 matrix of the natural action on H^2(S^[2]): delta is fixed."""
        out = [list(row) + [0] for row in psi]
        out.append([0] * self.n + [1])
        return out

    def _image_h2(self, psi, x: H2Class) -> H2Class:
        """psi x: column k of psi is the image of gamma_k; delta is fixed."""
        img = tuple(sum(map(mul, row, x.gamma)) for row in psi)
        return H2Class(img, x.delta)

    def induced_h4(self, psi):
        """Matrix (columns = images of basis elements) of the action on H^4.

        Each doubled basis element maps by sigma -> sigma and
        x.y -> cup(psi x, psi y); halving gives the integral image.
        """
        cols = []
        for terms in self._doubled_expansions():
            img = [0] * self.h4_rank
            for c, mono in terms:
                if mono is SIGMA:
                    img[0] += c
                    continue
                x, y = mono
                prod = self.cup(self._image_h2(psi, x), self._image_h2(psi, y))
                for r, v in enumerate(prod.coords):
                    img[r] += c * v
            cols.append([_exact_div(v, 2) for v in img])
        return la.transpose(cols)


def _exact_div(value: int, d: int) -> int:
    q, r = divmod(value, d)
    if r:
        raise ArithmeticError("top pairing and action of integral classes must be integral")
    return q


def s_lattice_gram(hilb: HilbertSquare, u1: H2Class, u2: H2Class):
    """Gram of (delta^2, u1.u2, sigma, u1^2, u2^2, u1.delta, u2.delta) in H^4.

    u1, u2 should span a hyperbolic summand of H^2(S).  This sublattice
    controls the image of H^4 under an automorphism acting trivially on it.
    Six generators are products of two 2-classes and the seventh is sigma,
    so every entry comes from the polarized Fujiki relation or the sigma
    pairing (``pair_monomials``); the 276x276 H^4 Gram is never built.
    """
    delta = hilb.delta
    monomials = [(delta, delta), (u1, u2), SIGMA, (u1, u1), (u2, u2), (u1, delta), (u2, delta)]
    return [[hilb.pair_monomials(a, b) for b in monomials] for a in monomials]


def h2_primitivity_certificate(s_gram, p: int) -> tuple[bool, tuple[int, int, int] | None]:
    """Degree-2 primitivity certificate over the S-lattice pairing table.

    Setting: U + (-2) = <u1, u2, delta> is an invariantly complemented
    summand of H^2(X)^G, the pair is H^4-normal, and s_gram is the 7x7
    Gram of (delta^2, u1.u2, sigma, u1^2, u2^2, u1.delta, u2.delta) in
    H^4(X, Z).  A norm class y + phi(y) + ... + phi^(p-1)(y) pairs into
    pZ with every invariant class, so if pi_*(u) is divisible by p for
    u = a*u1 + b*u2 + c*delta then u^2 pairs into pZ with all seven
    generators.  The certificate checks that this system of pairings mod
    p has no nonzero solution (a, b, c) in F_p^3, which forces p | u and
    hence primitivity of the pushforward of U + (-2).

    Returns (True, None) on success, else (False, counterexample_triple).
    No determinant of the S-lattice enters anywhere.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    for a in range(p):
        for b in range(p):
            for c in range(p):
                if a == b == c == 0:
                    continue
                # u^2 in the basis order of s_gram
                x = (c * c, 2 * a * b, 0, a * a, b * b, 2 * a * c, 2 * b * c)
                pairings = [sum(xi * gij for xi, gij in zip(x, row)) for row in s_gram]
                if all(v % p == 0 for v in pairings):
                    return False, (a, b, c)
    return True, None
