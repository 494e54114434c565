"""Integral lattices with exact invariants.

A lattice is a free Z-module with a nondegenerate symmetric integer Gram
matrix.  All arithmetic is exact (Python integers and fractions): invariants
are rank, signed determinant, signature and the discriminant group read off
a Smith normal form.  The rest of the package builds on rescaled duals,
direct sums, Gauss reduction of definite binary forms and a parser for
direct-sum lattice expressions.  Overlattices obtained by dividing glue
vectors by a prime are exported for callers of the library; nothing in the
package itself uses them.
"""

from __future__ import annotations

import re
from itertools import chain

from . import _linalg as la
from ._record import record


class LatticeError(Exception):
    """Base class for lattice construction and invariant errors."""


class DegenerateForm(LatticeError):
    pass


class NotPElementary(LatticeError):
    pass


class NotInDual(LatticeError):
    pass


class NonIntegralResult(LatticeError):
    pass


class IndexLawError(LatticeError):
    """An overlattice index or determinant breaks its p-power law."""


class NotDefinite(LatticeError):
    pass


class ParseError(LatticeError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# largest rank a lattice expression may spell; the largest lattice the
# package builds, H^4 of K3^[2], has rank 276
MAX_RANK = 512


def _freeze(mat) -> tuple[tuple[int, ...], ...]:
    """mat as a tuple of int tuples; TypeError on an entry whose type is not
    int (bool and float included), which is checked at C speed."""
    rows = tuple(map(tuple, mat))
    if not {int}.issuperset(map(type, chain.from_iterable(rows))):
        bad = next(x for x in chain.from_iterable(rows) if type(x) is not int)
        raise TypeError(f"matrix entries must be int, got {type(bad).__name__} {bad!r}")
    return rows


@record
class DiscriminantGroup:
    """Finite abelian group L^vee / L given by its invariant factors (> 1)."""

    elementary_divisors: tuple[int, ...]

    def is_p_elementary(self, p: int) -> bool:
        return all(d == p for d in self.elementary_divisors)

    def p_rank(self, p: int) -> int:
        return sum(1 for d in self.elementary_divisors if d % p == 0)

    def __str__(self) -> str:
        if not self.elementary_divisors:
            return "1"
        return " + ".join(f"Z/{d}" for d in self.elementary_divisors)


@record
class LatticeInvariants:
    rank: int
    determinant: int
    signature: tuple[int, int]
    discriminant_group: DiscriminantGroup


@record
class GramLattice:
    """Lattice presented by a symmetric nondegenerate integer Gram matrix."""

    gram: tuple[tuple[int, ...], ...]
    name: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "gram", _freeze(self.gram))
        if not la.is_symmetric(self.gram):
            raise LatticeError("Gram matrix must be square and symmetric")

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def determinant(self) -> int:
        return la.det_bareiss(self.gram)


def smith_normal_form(matrix) -> tuple[tuple, tuple, tuple]:
    """Public SNF: returns (U, D, V) with U*A*V = D, det U, det V = +-1.

    Row and column Hermite passes alternate until D is diagonal, with
    quotients rounded to the nearest integer, so each remainder is at most
    half the pivot; a gcd step per pair then makes the diagonal a
    divisibility chain.  D is unique, U and V are one choice among many.
    V^-1 is not computed.
    """
    res = la.smith_normal_form(matrix)
    return _freeze(res.u), _freeze(res.d), _freeze(res.v)


def discriminant_group(lattice: GramLattice) -> DiscriminantGroup:
    return DiscriminantGroup(tuple(la.elementary_divisors(lattice.gram)))


def invariant_summary(lattice: GramLattice) -> LatticeInvariants:
    det = lattice.determinant
    if det == 0:
        raise DegenerateForm("Gram matrix is degenerate")
    pos, neg, zero = la.signature_exact(lattice.gram)
    if zero:
        raise DegenerateForm(f"nonzero determinant but {zero} zero eigenvalues")
    return LatticeInvariants(
        rank=lattice.rank,
        determinant=det,
        signature=(pos, neg),
        discriminant_group=discriminant_group(lattice),
    )


def dual_rescaled(lattice: GramLattice, p: int) -> GramLattice:
    """The lattice L^vee(p): dual basis Gram scaled by p.

    Requires the discriminant group of L to be p-elementary; then the result
    is integral with |det| = p^(rank - a) where p^a = |A_L|.  A singular
    Gram raises DegenerateForm.
    """
    p_identity = [[p * x for x in row] for row in la.identity(lattice.rank)]
    try:
        scaled = la.integer_coordinates(lattice.gram, p_identity)  # rows c_j G = p e_j
    except ValueError:
        raise DegenerateForm("Gram matrix is degenerate") from None
    group = discriminant_group(lattice)
    if not group.is_p_elementary(p):
        raise NotPElementary(
            f"discriminant group {group} is not {p}-elementary"
        )
    if scaled is None:
        raise NonIntegralResult("p * G^-1 is not integral")
    return GramLattice(scaled)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _p_power_log(value: int, p: int) -> int | None:
    """e with value == p^e, or None if value is not a power of p."""
    if value < 1:
        return None
    e = 0
    while value % p == 0:
        value //= p
        e += 1
    return e if value == 1 else None


def overlattice_divide(lattice: GramLattice, vectors, p: int) -> GramLattice:
    """Overlattice generated by L and v/p for each glue vector v.

    p must be prime (LatticeError), and every v must satisfy v/p in L^vee
    (all pairings with L divisible by p).  The result must again be an
    integral lattice; with m independent adjoined classes,
    discr(out) * p^(2m) = discr(L), which is checked (IndexLawError).  As
    |det B| divides p^n for the prime p, p^n / |det B| is a power of p.
    """
    if not _is_prime(p):
        raise LatticeError(f"{p} is not prime")
    n = lattice.rank
    g = lattice.gram
    vecs = [list(v) for v in vectors]
    for v in vecs:
        if len(v) != n:
            raise LatticeError("glue vector length does not match rank")
        if any(x % p for x in la.mat_mul([v], g)[0]):
            raise NotInDual(f"vector {v} / {p} is not in the dual lattice")
    stacked = [[p if i == j else 0 for j in range(n)] for i in range(n)] + vecs
    basis = la.row_span_basis(stacked)  # rows generate p*L + Z<vectors>
    # new lattice = basis / p; Gram = B G B^T / p^2
    bg = la.mat_mul(la.mat_mul(basis, g), la.transpose(basis))
    p2 = p * p
    out = []
    for row in bg:
        new_row = []
        for x in row:
            if x % p2:
                raise NonIntegralResult(
                    "glue vectors do not close to an integral lattice"
                )
            new_row.append(x // p2)
        out.append(new_row)
    # index of the overlattice over L is p^n / |det basis|
    idx_num = p**n
    db = abs(la.det_bareiss(basis))
    if idx_num % db:
        raise IndexLawError(f"|det| {db} of the glued basis does not divide p^n")
    m = _p_power_log(idx_num // db, p)
    out_lattice = GramLattice(out)
    if out_lattice.determinant * p ** (2 * m) != lattice.determinant:
        raise IndexLawError("discr(out) * p^(2m) differs from discr(L)")
    return out_lattice


def binary_reduce(gram) -> tuple[tuple[int, int], tuple[int, int]]:
    """Gauss-reduced form of a definite binary lattice.

    Positive definite forms are normalised to 0 <= 2b <= a <= c; negative
    definite forms return the negated canonical form.  Raises NotDefinite on
    indefinite or degenerate input.
    """
    (a, b), (b2, c) = (gram[0][0], gram[0][1]), (gram[1][0], gram[1][1])
    if b != b2:
        raise LatticeError("Gram matrix must be symmetric")
    det = a * c - b * b
    if det <= 0 or a == 0:
        raise NotDefinite("form is not definite")
    sign = 1 if a > 0 else -1
    a, b, c = sign * a, sign * b, sign * c
    while True:
        # translate b into (-a/2, a/2]
        r = b % a
        if 2 * r > a:
            r -= a
        k = (b - r) // a
        c = c - k * (b + r)
        b = r
        if c < a:
            a, c = c, a
            continue
        break
    b = abs(b)
    return ((sign * a, sign * b), (sign * b, sign * c))


# --- lattice expression grammar -------------------------------------------

# Fixed Gram matrices for the named atoms.  Sign conventions follow common
# usage in quotient tables: U hyperbolic; A2, E6, K7, K19 negative definite;
# A4, E8 positive definite; H5 and L17 as fixed matrices of determinant -5
# and 17.  Any atom can be rescaled with a postfix (m), e.g. E8(-1), U(3).
ATOM_GRAMS: dict[str, tuple[tuple[int, ...], ...]] = {
    "U": ((0, 1), (1, 0)),
    "A2": ((-2, 1), (1, -2)),
    "A4": (
        (2, -1, 0, 0),
        (-1, 2, -1, 0),
        (0, -1, 2, -1),
        (0, 0, -1, 2),
    ),
    "E6": (
        (-2, 1, 0, 0, 0, 0),
        (1, -2, 1, 0, 0, 0),
        (0, 1, -2, 1, 0, 1),
        (0, 0, 1, -2, 1, 0),
        (0, 0, 0, 1, -2, 0),
        (0, 0, 1, 0, 0, -2),
    ),
    "E8": (
        (2, -1, 0, 0, 0, 0, 0, 0),
        (-1, 2, -1, 0, 0, 0, 0, 0),
        (0, -1, 2, -1, 0, 0, 0, 0),
        (0, 0, -1, 2, -1, 0, 0, 0),
        (0, 0, 0, -1, 2, -1, 0, -1),
        (0, 0, 0, 0, -1, 2, -1, 0),
        (0, 0, 0, 0, 0, -1, 2, 0),
        (0, 0, 0, 0, -1, 0, 0, 2),
    ),
    "H5": ((2, 1), (1, -2)),
    "K7": ((-4, 1), (1, -2)),
    "K19": ((-10, 1), (1, -2)),
    "L17": (
        (-2, 1, 0, 1),
        (1, -2, 0, 0),
        (0, 0, -2, 1),
        (1, 0, 1, -4),
    ),
}


def rescale(gram, m: int):
    if m == 0:
        raise LatticeError("rescale factor must be nonzero")
    return _freeze([[m * x for x in row] for row in gram])


def direct_sum(grams) -> tuple[tuple[int, ...], ...]:
    blocks = list(grams)
    total = sum(len(b) for b in blocks)
    out = [[0] * total for _ in range(total)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off : off + len(b)] = row
        off += len(b)
    return _freeze(out)


_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<int>-?\d+)|(?P<sym>[()+^]))")


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.lastgroup is None and not m.group().strip():
            pos = m.end()
            continue
        for kind in ("name", "int", "sym"):
            val = m.group(kind)
            if val is not None:
                tokens.append((kind, val, m.start(kind)))
        pos = m.end()
    return tokens


def parse_lattice_expr(text: str) -> GramLattice:
    """Parse a direct-sum lattice expression.

    Grammar: expr := term ('+' term)*; term := atom ('^' INT)?;
    atom := NAME ['(' INT ')'] | '(' INT ')'.  A bare '(n)' is the rank-1
    lattice <n>; a parenthesised integer after a name rescales the atom.
    A term that takes the total rank above MAX_RANK raises ParseError at
    its repetition count, or at its atom, before anything is expanded.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression", 0)
    idx = 0

    def peek():
        return tokens[idx] if idx < len(tokens) else (None, None, len(text))

    def expect(kind, value=None):
        nonlocal idx
        k, v, pos = peek()
        if k != kind or (value is not None and v != value):
            raise ParseError(
                f"expected {value or kind}, found {v!r}" if v else f"expected {value or kind}",
                pos,
            )
        idx += 1
        return v, pos

    def parse_scaled_int():
        # '(' INT ')'
        expect("sym", "(")
        v, pos = expect("int")
        expect("sym", ")")
        return int(v), pos

    def parse_atom():
        nonlocal idx
        k, v, pos = peek()
        if k == "name":
            idx += 1
            if v not in ATOM_GRAMS:
                raise ParseError(f"unknown lattice atom {v!r}", pos)
            gram = ATOM_GRAMS[v]
            k2, v2, _ = peek()
            if k2 == "sym" and v2 == "(":
                m, mpos = parse_scaled_int()
                if m == 0:
                    raise ParseError("rescale factor must be nonzero", mpos)
                gram = rescale(gram, m)
            return gram
        if k == "sym" and v == "(":
            n, npos = parse_scaled_int()
            if n == 0:
                raise ParseError("rank-1 lattice <0> is degenerate", npos)
            return ((n,),)
        raise ParseError(f"expected lattice atom, found {v!r}", pos)

    rank = 0  # of the terms read so far, checked before any block is expanded

    def parse_term():
        nonlocal idx, rank
        pos = peek()[2]
        gram = parse_atom()
        power = 1
        k, v, _ = peek()
        if k == "sym" and v == "^":
            idx += 1
            kv, pos = expect("int")
            power = int(kv)
            if power < 1:
                raise ParseError("repetition count must be positive", pos)
        rank += len(gram) * power
        if rank > MAX_RANK:
            raise ParseError(f"rank {rank} is above {MAX_RANK}", pos)
        return [gram] * power

    blocks = parse_term()
    while True:
        k, v, pos = peek()
        if k is None:
            break
        if k == "sym" and v == "+":
            idx += 1
            blocks += parse_term()
        else:
            raise ParseError(f"unexpected token {v!r}", pos)
    return GramLattice(direct_sum(blocks), name=text.strip())
