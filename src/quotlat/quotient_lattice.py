"""Integral lattices of quotient cohomology.

Two constructions cover all catalog rows.  In the middle degree the
torsion-free quotient cohomology is the rescaled dual L^vee(p) of the
invariant lattice.  On second cohomology of fourfolds the pushforward
lattice grows by explicit glue classes x/p and then carries the unique
indivisible integral rescaling of the Beauville-Bogomolov form; the
Fujiki constant falls out of that normalization as C = 3p^3 / lambda^2.
`lattices_match` compares a computed lattice with a declared one check by
check; which construction a catalog row takes, and the catalog verifier
that reports those checks row by row, live in `scenario`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from . import _linalg as la
from ._record import record
from .lattice_core import (
    DegenerateForm,
    GramLattice,
    LatticeError,
    NotDefinite,
    NotInDual,
    _freeze,
    _is_prime,
    _p_power_log,
    binary_reduce,
    discriminant_group,
    dual_rescaled,
    invariant_summary,
)

__all__ = [
    "DiscrMismatch",
    "NoIntegralScale",
    "GlueNotInDual",
    "GlueSpec",
    "QuotientResult",
    "MatchResult",
    "quotient_middle_lattice",
    "bb_quotient",
    "fujiki_scale",
    "find_glue",
    "lattices_match",
]


class DiscrMismatch(LatticeError):
    """Output discriminant disagrees with the p-elementary count."""


class NoIntegralScale(LatticeError):
    """No rescaling makes the glued form an integral content-1 lattice."""


class GlueNotInDual(NotInDual):
    """A divided row has a pairing with the lattice not divisible by p."""


@record
class GlueSpec:
    """Basis recipe for the full quotient lattice over the raw pushforward.

    transform rows express a new basis in invariant-lattice coordinates;
    rows flagged in divided are the classes divided by p.  |det transform|
    must be a power of p (1 for a plain base change; the quoted bases
    sometimes absorb an index-p sublattice step, so p-powers are allowed),
    and the adjoined index p^m satisfies m = #divided - log_p|det|.
    """

    transform: tuple[tuple[int, ...], ...]
    divided: tuple[bool, ...]

    def __post_init__(self):
        object.__setattr__(self, "transform", _freeze(self.transform))
        object.__setattr__(self, "divided", tuple(bool(d) for d in self.divided))
        n = len(self.transform)
        if any(len(r) != n for r in self.transform):
            raise LatticeError("transform must be square")
        if len(self.divided) != n:
            raise LatticeError("one divided flag per transform row")
        if la.det_bareiss(self.transform) == 0:
            raise LatticeError("transform is singular")

    @classmethod
    def identity(cls, n: int, divided=()) -> "GlueSpec":
        """Identity base change; divided lists the row indices to divide."""
        return cls(la.identity(n), tuple(i in set(divided) for i in range(n)))

    @property
    def rank(self) -> int:
        return len(self.transform)


@record
class QuotientResult:
    """Quotient lattice with its normalization data.

    gram is integral with entry gcd 1; scale is the rescaling lambda that
    achieved that; fujiki_constant = 3p^3 / lambda^2; index_log is m with
    [H^2(quotient) : pushforward] = p^m.
    """

    gram: GramLattice
    fujiki_constant: Fraction
    scale: Fraction
    index_log: int


def quotient_middle_lattice(lattice: GramLattice, p: int) -> GramLattice:
    """Middle cohomology of the quotient: L^vee(p) of the invariant lattice.

    The invariant lattice must have p-elementary discriminant group of
    order p^a; the result then has |det| = p^(rank - a), which is checked.
    """
    if not _is_prime(p):
        raise LatticeError(f"{p} is not prime")
    a = discriminant_group(lattice).p_rank(p)
    out = dual_rescaled(lattice, p)
    expected = p ** (lattice.rank - a)
    if abs(out.determinant) != expected:
        raise DiscrMismatch(
            f"|det| = {abs(out.determinant)}, expected p^(rank-a) = {expected}"
        )
    return out


def fujiki_scale(p: int, q_rows) -> tuple[Fraction, Fraction]:
    """(lambda, C): the indivisible-integral rescaling of a rational form.

    lambda is the unique positive rational with lambda * Q integral of
    entry gcd 1, and C = 3p^3 / lambda^2 is the Fujiki constant consistent
    with pushing the degree-4 Fujiki relation through the quotient map.
    """
    rows = [[Fraction(x) for x in row] for row in q_rows]
    denom = lcm(*(x.denominator for row in rows for x in row))
    scaled = [[int(x * denom) for x in row] for row in rows]
    if la.det_bareiss(scaled) == 0:
        raise DegenerateForm("rational form is degenerate")
    content = gcd(*(abs(x) for row in scaled for x in row))
    lam = Fraction(denom, content)
    c = Fraction(3 * p**3) / (lam * lam)
    return lam, c


def bb_quotient(lattice: GramLattice, p: int, glue: GlueSpec) -> QuotientResult:
    """Beauville-Bogomolov lattice of the quotient from invariant data.

    The candidate basis is glue.transform over the invariant lattice with
    the flagged rows divided by p; the rational Gram in that basis is
    G_T[i][j] / p^(d_i + d_j), and the final Gram is its fujiki_scale
    normalization.  Divided rows must pair into pZ with the whole lattice.
    """
    if not _is_prime(p):
        raise LatticeError(f"{p} is not prime")
    n = lattice.rank
    if glue.rank != n:
        raise LatticeError(f"glue is {glue.rank}x{glue.rank}, lattice rank {n}")
    t = glue.transform
    e = _p_power_log(abs(la.det_bareiss(t)), p)
    if e is None:
        raise LatticeError("transform index must be a power of p")
    m = sum(glue.divided) - e
    if m < 0:
        raise LatticeError("more p-power index in the transform than divided rows")
    g = lattice.gram
    for row, d in zip(t, glue.divided):
        if d and any(x % p for x in la.mat_mul([row], g)[0]):
            raise GlueNotInDual(f"row {list(row)} / {p} is not in the dual lattice")
    gt = la.mat_mul(la.mat_mul(t, g), la.transpose(t))
    q = [
        [Fraction(gt[i][j], p ** (glue.divided[i] + glue.divided[j])) for j in range(n)]
        for i in range(n)
    ]
    lam, c = fujiki_scale(p, q)
    out = []
    for row in q:
        out_row = []
        for x in row:
            y = lam * x
            if y.denominator != 1:
                raise NoIntegralScale(f"entry {x} resists the computed scale {lam}")
            out_row.append(int(y))
        out.append(out_row)
    return QuotientResult(
        gram=GramLattice(out),
        fujiki_constant=c,
        scale=lam,
        index_log=m,
    )


def find_glue(lattice: GramLattice, p: int) -> GlueSpec:
    """Glue recipe dividing the whole p-part of the discriminant group.

    The divisible classes are x/p for x in the sublattice of x with
    x G in pZ^n; a basis of that sublattice, all rows divided, presents
    the maximal overlattice.  The basis is the x parts of the kernel of
    [G | pI], the (x, z) with G x + p z = 0 (G = G^T).  That kernel has
    rank n and dropping z is injective, because x = 0 forces p z = 0, so
    the x parts are a basis, in Hermite form as the kernel's basis is
    (``kernel_basis``).  m comes out as the F_p-kernel dimension of the
    Gram.
    """
    if not _is_prime(p):
        raise LatticeError(f"{p} is not prime")
    n = lattice.rank
    stacked = [list(row) + [p * (i == j) for j in range(n)] for i, row in enumerate(lattice.gram)]
    return GlueSpec([x[:n] for x in la.kernel_basis(stacked)], (True,) * n)


@record
class MatchResult:
    """Value-level checks (name, got, want, ok), one line each in `lines`."""

    checks: tuple[tuple[str, str, str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, _, _, ok in self.checks)

    def lines(self) -> list[str]:
        out = []
        for name, got, want, ok in self.checks:
            mark = "ok " if ok else "FAIL"
            out.append(f"  [{mark}] {name}: {got}" + ("" if ok else f" (expected {want})"))
        return out


def _connected_blocks(gram) -> list[list[int]]:
    n = len(gram)
    seen = [False] * n
    blocks = []
    for start in range(n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if not seen[j] and gram[i][j] != 0:
                    seen[j] = True
                    stack.append(j)
        blocks.append(sorted(comp))
    return blocks


def _reduced_binary_blocks(lattice: GramLattice) -> list[tuple]:
    """Gauss-reduced forms of the definite rank-2 connected blocks."""
    g = lattice.gram
    out = []
    for comp in _connected_blocks(g):
        if len(comp) != 2:
            continue
        i, j = comp
        sub = ((g[i][i], g[i][j]), (g[j][i], g[j][j]))
        try:
            out.append(binary_reduce(sub))
        except NotDefinite:
            continue
    return sorted(out)


def lattices_match(got: GramLattice, expected: GramLattice) -> MatchResult:
    """Compare rank, |det|, signature (unordered), discriminant group and
    the Gauss-reduced definite binary blocks of the two presentations.

    The signature pair is compared as a multiset because table rows do not
    fix an orientation convention.
    """
    a, b = invariant_summary(got), invariant_summary(expected)
    checks = [
        ("rank", str(a.rank), str(b.rank), a.rank == b.rank),
        ("|det|", str(abs(a.determinant)), str(abs(b.determinant)), abs(a.determinant) == abs(b.determinant)),
        (
            "signature",
            str(a.signature),
            str(b.signature),
            sorted(a.signature) == sorted(b.signature),
        ),
        (
            "discriminant group",
            str(a.discriminant_group),
            str(b.discriminant_group),
            a.discriminant_group == b.discriminant_group,
        ),
    ]
    ra, rb = _reduced_binary_blocks(got), _reduced_binary_blocks(expected)
    checks.append(("reduced binary blocks", str(ra), str(rb), ra == rb))
    return MatchResult(tuple(checks))
