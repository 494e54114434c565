"""Independent cross-checks used by the test suite.

Every function here recomputes a quantity along a different route than the
library (sympy exact linear algebra, direct definition-level expansions,
explicit generating-set constructions), so agreement between the two is
evidence and not a tautology.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random
from typing import NamedTuple

from sympy import GF, ZZ, Matrix, Rational
from sympy.matrices.normalforms import hermite_normal_form as _sympy_hnf
from sympy.matrices.normalforms import smith_normal_form as _sympy_snf
from sympy.polys.matrices import DomainMatrix


def det(rows) -> int:
    """Determinant by sympy's elimination over ZZ (DomainMatrix), which stays
    fast on the thousand-bit entries of Smith-form transforms."""
    rows = [[ZZ(x) for x in r] for r in rows]
    return int(DomainMatrix(rows, (len(rows), len(rows)), ZZ).det())


def snf_divisors(rows) -> list[int]:
    """Nonzero diagonal of the Smith form, nonnegative, via sympy."""
    d = _sympy_snf(Matrix([list(r) for r in rows]))
    n = min(d.shape)
    return [abs(int(d[i, i])) for i in range(n) if d[i, i] != 0]


def row_lattice_hnf(rows) -> tuple[tuple[int, ...], ...]:
    """sympy's Hermite normal form of the lattice spanned by the rows, which
    is the same for every basis of that lattice (sympy reduces columns, so
    it gets the transpose)."""
    h = _sympy_hnf(Matrix([list(r) for r in rows]).T)
    return tuple(tuple(int(x) for x in h.row(i)) for i in range(h.rows))


class SNF(NamedTuple):
    u: list[list[int]]
    d: list[list[int]]
    v: list[list[int]]


def smith_normal_form(a) -> SNF:
    """U*A*V = D by the Smith pivot loop alone (the former library route).

    Diagonal entries are nonnegative and form a divisibility chain.  Step t
    moves the smallest nonzero |entry| of d[t:, t:] (ties broken by
    row-major position) to (t, t) and makes it positive.  Row operations
    then clear column t below it and column operations clear row t, with
    nearest-integer quotients q = floor((2x + piv) / (2 piv)), so every
    remainder has |r| <= piv / 2.  A nonzero remainder repeats the step
    with a pivot at most half as large; once row and column are clear, the
    first row with an entry that piv does not divide is added to row t and
    the step repeats.  The quotients of one sweep come from column (row) t
    alone, which that sweep leaves unchanged, so each row of d and U is
    rewritten at most once per sweep, d only from column t on.  V is kept
    transposed, so its column operations are row operations too.  V^-1 is
    not formed: U*A = D*V^-1 gives its rows where D is nonzero.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(row) for row in a]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    vt = [[int(i == j) for j in range(n)] for i in range(n)]
    for t in range(min(m, n)):
        if t == m - 1 == n - 1:  # a 1 x 1 block only needs its sign
            if d[t][t] < 0:
                d[t] = [-x for x in d[t]]
                u[t] = [-x for x in u[t]]
            break
        while True:
            # |d[t:, t:]| row-major; at t = 0 slicing would only copy
            if t:
                flat = [abs(x) for row in d[t:] for x in row[t:]]
            else:
                flat = [abs(x) for row in d for x in row]
            least = min(filter(None, flat), default=0) if 0 in flat else min(flat)
            if not least:
                break
            bi, bj = divmod(flat.index(least), n - t)
            bi += t
            bj += t
            if bi != t:
                d[t], d[bi] = d[bi], d[t]
                u[t], u[bi] = u[bi], u[t]
            if bj != t:
                for row in d[t:]:
                    row[t], row[bj] = row[bj], row[t]
                vt[t], vt[bj] = vt[bj], vt[t]
            top = d[t]
            if top[t] < 0:
                d[t] = top = [-x for x in top]
                u[t] = [-x for x in u[t]]
            piv = top[t]
            tail, urow, twice = top[t:], u[t], 2 * piv
            dirty = False
            for i in range(t + 1, m):
                row = d[i]
                x = row[t]
                if x:
                    q = (2 * x + piv) // twice
                    if q:
                        row[t:] = [y - q * z for y, z in zip(row[t:], tail)]
                        u[i] = [y - q * z for y, z in zip(u[i], urow)]
                        if row[t]:
                            dirty = True
                    else:
                        dirty = True
            qs = [(2 * x + piv) // twice for x in top[t + 1:]]
            if any(qs):
                for row in d[t:]:
                    c = row[t]
                    if c:
                        row[t + 1:] = [y - c * q for y, q in zip(row[t + 1:], qs)]
                vrow = vt[t]
                for j, q in enumerate(qs, t + 1):
                    if q:
                        vt[j] = [y - q * z for y, z in zip(vt[j], vrow)]
            if dirty or any(top[t + 1:]):
                continue
            if piv == 1:
                break
            # piv must divide the rest: add the first row it does not divide
            for fix in range(t + 1, m):
                if any([x % piv for x in d[fix][t + 1:]]):
                    d[t] = [x + y for x, y in zip(top, d[fix])]
                    u[t] = [x + y for x, y in zip(u[t], u[fix])]
                    break
            else:
                break
    return SNF(u, d, [list(col) for col in zip(*vt)])


def hermite_rows(rows, n: int) -> int:
    """Row Hermite form of the first n columns by the former library pass,
    column at a time; returns the sign the row operations multiply a
    determinant by, and rewrites ``rows`` in place.

    Column by column, the smallest nonzero |entry| of column c in the rows
    from r on (those without a pivot yet) becomes the positive pivot
    rows[r][c].  Nearest-integer quotients clear the column below it,
    repeating with the least remainder as pivot until it is clear, and
    then reduce the entries above it to [-piv / 2, piv / 2).  Each swap
    and each negated pivot row flips the sign.  Columns past n ride along
    unreduced, so only the first n columns are canonical; with n the full
    width the whole result is the unique Hermite form.
    """
    sign, r = 1, 0
    for c in range(n):
        while True:
            col = [abs(row[c]) for row in rows[r:]]
            piv = min(filter(None, col), default=0)
            if not piv:
                break
            bi = col.index(piv) + r
            if bi != r:
                rows[r], rows[bi] = rows[bi], rows[r]
                sign = -sign
            if rows[r][c] < 0:
                rows[r] = [-x for x in rows[r]]
                sign = -sign
            tail, twice = rows[r][c:], 2 * piv
            dirty = False
            for row in rows[r + 1:]:
                x = row[c]
                if x:  # |x| >= piv, so q != 0
                    q = (2 * x + piv) // twice
                    row[c:] = [y - q * z for y, z in zip(row[c:], tail)]
                    dirty = dirty or row[c] != 0
            if not dirty:
                break
        if not piv:
            continue
        for row in rows[:r]:
            q = (2 * row[c] + piv) // twice
            if q:
                row[c:] = [y - q * z for y, z in zip(row[c:], tail)]
        r += 1
    return sign


def charpoly(rows) -> list[int]:
    """Coefficients of det(xI - A), leading 1 first, via sympy."""
    return [int(c) for c in Matrix([list(r) for r in rows]).charpoly().all_coeffs()]


def signature(rows) -> tuple[int, int, int]:
    """(positive, zero, negative) eigenvalue counts of a symmetric matrix.

    Uses Descartes' rule on the characteristic polynomial, which is exact
    here because a symmetric integer matrix has only real eigenvalues.
    """
    coeffs = charpoly(rows)
    zero = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        zero += 1

    def changes(seq):
        signs = [1 if c > 0 else -1 for c in seq if c != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    pos = changes(coeffs)
    neg = changes([c if i % 2 == 0 else -c for i, c in enumerate(coeffs)])
    return pos, zero, neg


def rank_mod_p(rows, p: int) -> int:
    dom = GF(p)
    mat = DomainMatrix.from_list(
        [[int(x) % p for x in row] for row in rows], dom
    )
    return mat.rank()


def rank_rational(rows) -> int:
    """Rank over Q via sympy; entries may be ints or Fractions."""
    return Matrix(
        [[Rational(x.numerator, x.denominator) for x in row] for row in rows]
    ).rank()


def fraction_rank(rows) -> int:
    """Rank over Q by Gaussian elimination on Fractions (the former library route)."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][col] / m[rank][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _dense_mul(a, b) -> list[list[int]]:
    """a * b by plain row combinations: row i is sum_t a[i][t] b[t], zero
    entries a[i][t] skipped, so sparse factors cost less."""
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for x, brow in zip(row, b):
            if x:
                acc = [u + x * v for u, v in zip(acc, brow)]
        out.append(acc)
    return out


def power_ranks_mod_p(tau, p: int, steps: int) -> list[int]:
    """[rank tau^0, ..., rank tau^steps] over F_p from dense integer powers.

    The former library route: every power tau^j is formed over Z and its
    rank taken (here by sympy over GF(p)).
    """
    n = len(tau)
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    ranks = [n]
    for _ in range(steps):
        power = _dense_mul(power, tau)
        ranks.append(rank_mod_p(power, p))
    return ranks


def echelon_mod_p(a, p: int) -> list[list[int]]:
    """Echelon basis over F_p, row by row (the former library route).

    Each row in turn is reduced against the basis rows found so far, in
    the order they were found, through their nonzero entries; the reduced
    row mod p, scaled to a leading 1, is the next basis row unless it is 0.
    """
    basis: list[tuple[int, list[int], list[tuple[int, int]]]] = []
    width = len(a[0]) if a else 0
    for row in a:
        if len(basis) == width:
            break
        row = list(row)
        for col, _, nonzeros in basis:
            c = row[col] % p
            if c:
                c = p - c
                for j, x in nonzeros:
                    row[j] += c * x
        row = [x % p for x in row]
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            continue
        inv = pow(row[lead], -1, p)
        if inv != 1:
            row = [x * inv % p for x in row]
        basis.append((lead, row, [(j, x) for j, x in enumerate(row) if x]))
    return [prow for _, prow, _ in basis]


def image_ranks_mod_p(a, p: int, steps: int) -> list[int]:
    """[rank A^0, ..., rank A^steps] over F_p: each image the row-by-row
    echelon basis of the previous one times A mod p, by dense products."""
    n = len(a)
    m = [[x % p for x in row] for row in a]
    ranks = [n]
    products = m
    while len(ranks) <= steps:
        image = echelon_mod_p(products, p)
        ranks.append(len(image))
        if not image:
            break
        products = _dense_mul(image, m)
    return ranks + [0] * (steps + 1 - len(ranks))


def left_kernel_mod_p(a, p: int) -> list[list[int]]:
    """Right halves of the row-by-row echelon rows of [A | I] with zero left half."""
    n = len(a)
    echelon = echelon_mod_p([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)], p)
    return [row[n:] for row in echelon if not any(row[:n])]


def has_order_dividing(phi, p: int) -> bool:
    """phi^p == identity, by p dense products starting from the identity."""
    n = len(phi)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    power = ident
    for _ in range(p):
        power = _dense_mul(power, phi)
    return power == ident


def companion(coeffs) -> list[list[int]]:
    """Companion matrix of the monic x^d + c_(d-1) x^(d-1) + ... + c_0.

    coeffs = [c_0, ..., c_(d-1)]; the matrix shifts e_i to e_(i+1) and sends
    e_(d-1) to -(c_0, ..., c_(d-1)), so its order is that of x mod the
    polynomial.
    """
    d = len(coeffs)
    m = [[0] * d for _ in range(d)]
    for i in range(1, d):
        m[i][i - 1] = 1
    for i in range(d):
        m[i][d - 1] = -coeffs[i]
    return m


def sym2_matrix(tau, n: int) -> list[list[int]]:
    """Matrix of the induced map on Sym^2, basis e_i.e_j with i <= j.

    Pairs are ordered row-major: (0,0), (0,1), ..., (0,n-1), (1,1), ...
    Built by expanding (tau e_i)(tau e_j) coordinate by coordinate.
    """
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    index = {pair: k for k, pair in enumerate(pairs)}
    cols = []
    for i, j in pairs:
        col = [0] * len(pairs)
        for k in range(n):
            for m in range(n):
                a, b = (k, m) if k <= m else (m, k)
                col[index[(a, b)]] += tau[k][i] * tau[m][j]
        cols.append(col)
    return [[cols[c][r] for c in range(len(pairs))] for r in range(len(pairs))]


def hj_fraction(coeffs) -> Fraction:
    """Evaluate [a1, ..., ak] as a1 - 1/(a2 - 1/(...)) from the back."""
    value = Fraction(coeffs[-1])
    for a in reversed(coeffs[:-1]):
        value = a - 1 / value
    return value


def random_symmetric(rng: Random, n: int, spread: int = 4) -> list[list[int]]:
    """Random nondegenerate symmetric integer matrix (resampled if singular)."""
    while True:
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = rng.randint(-spread, spread) * 2 or 2
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = rng.randint(-spread, spread)
        if det(g) != 0:
            return g


def random_unimodular(rng: Random, n: int, steps: int = 12) -> list[list[int]]:
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            u[i][k] += c * u[j][k]
    return u


def functional_sublattice(rng: Random, ambient, p: int):
    """Index-p kernel sublattice of an ambient lattice, with one glue vector.

    Picks a random surjection phi: Z^n -> Z/p, takes L = ker phi with explicit
    basis rows B (|det B| = p), and returns (B G B^T, x) where x gives p*v in
    the B-basis for a random v outside L.  Dividing x by p inside L must
    recover the ambient lattice up to unimodular congruence.
    """
    n = len(ambient)
    phi = [0] * n
    while not any(phi):
        phi = [rng.randrange(p) for _ in range(n)]
    j = max(k for k in range(n) if phi[k])
    inv = pow(phi[j], -1, p)
    basis = []
    for i in range(n):
        if i == j:
            basis.append([p if k == j else 0 for k in range(n)])
        else:
            row = [0] * n
            row[i] = 1
            row[j] = -(phi[i] * inv) % p
            basis.append(row)
    v = [rng.randint(-2, 2) for _ in range(n)]
    while sum(f * c for f, c in zip(phi, v)) % p == 0:
        v = [rng.randint(-2, 2) for _ in range(n)]
    # p*v in B-coordinates: rows i != j contribute p*v_i, row j absorbs the rest
    x = [p * v[i] for i in range(n)]
    x[j] = (p * v[j] - sum(x[i] * basis[i][j] for i in range(n) if i != j)) // p
    gm = Matrix(ambient)
    bm = Matrix(basis)
    sub = bm * gm * bm.T
    sub_rows = [[int(sub[r, c]) for c in range(n)] for r in range(n)]
    return sub_rows, x


def inverse(rows) -> list[list[Fraction]]:
    """Inverse over Q via sympy; entries may be ints or Fractions."""
    inv = Matrix(
        [[Rational(x.numerator, x.denominator) for x in map(Fraction, row)] for row in rows]
    ).inv()
    return [[Fraction(int(x.p), int(x.q)) for x in inv.row(i)] for i in range(inv.rows)]


def solve_in_rowspan(basis, vec) -> list[Fraction] | None:
    """c with c * basis == vec via sympy's Gauss-Jordan solver, or None.

    basis must be nonempty with independent rows.
    """
    try:
        sol, _ = Matrix([list(r) for r in basis]).T.gauss_jordan_solve(Matrix(list(vec)))
    except ValueError:
        return None
    return [Fraction(int(x.p), int(x.q)) for x in sol]


# The former library routines, kept as reference implementations: a
# determinant by Bareiss elimination on the trailing submatrix, and
# Gauss-Jordan passes over Fractions for the inverse and the row-span solve.


def bareiss_det(a) -> int:
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def fraction_solve_in_rowspan(basis, vec) -> list[Fraction] | None:
    """Raises ValueError on dependent basis rows."""
    k = len(basis)
    if k == 0:
        return [] if all(x == 0 for x in vec) else None
    n = len(basis[0])
    m = [[Fraction(basis[r][c]) for c in range(n)] for r in range(k)]
    # pivot columns by elimination on a copy
    work = [row[:] for row in m]
    cols: list[int] = []
    for c in range(n):
        piv = next((r for r in range(len(cols), k) if work[r][c]), None)
        if piv is None:
            continue
        row_i = len(cols)
        work[row_i], work[piv] = work[piv], work[row_i]
        for r in range(k):
            if r != row_i and work[r][c]:
                f = work[r][c] / work[row_i][c]
                work[r] = [x - f * y for x, y in zip(work[r], work[row_i])]
        cols.append(c)
        if len(cols) == k:
            break
    if len(cols) < k:
        raise ValueError("basis rows are dependent")
    # solve c * basis[:, cols] = vec[cols], then check every column
    aug = [[m[r][c] for r in range(k)] + [Fraction(vec[c])] for c in cols]
    for col in range(k):
        piv = next(r for r in range(col, k) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(k):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    coeffs = [aug[i][k] for i in range(k)]
    for c in range(n):
        if sum(coeffs[r] * m[r][c] for r in range(k)) != vec[c]:
            return None
    return coeffs


def fraction_signature(gram) -> tuple[int, int, int]:
    """(positive, negative, zero) by symmetric elimination over Fractions.

    The former library route: a nonzero diagonal pivot is eliminated on
    both sides; when the remaining diagonal is zero, a nonzero off-diagonal
    entry is consumed as a hyperbolic 2x2 block contributing (1, 1).
    """
    n = len(gram)
    a = {(i, j): Fraction(gram[i][j]) for i in range(n) for j in range(n)}
    active = list(range(n))
    pos = neg = 0
    while active:
        i0 = next((i for i in active if a[(i, i)]), None)
        if i0 is not None:
            pivot = a[(i0, i0)]
            if pivot > 0:
                pos += 1
            else:
                neg += 1
            rest = [i for i in active if i != i0]
            for x in rest:
                for y in rest:
                    a[(x, y)] -= a[(x, i0)] * a[(i0, y)] / pivot
            active = rest
            continue
        pair = next(((x, y) for x in active for y in active if x < y and a[(x, y)]), None)
        if pair is None:
            break  # remaining block is identically zero
        i0, j0 = pair
        b = a[(i0, j0)]
        pos += 1
        neg += 1
        rest = [i for i in active if i not in (i0, j0)]
        for x in rest:
            for y in rest:
                a[(x, y)] -= (a[(x, i0)] * a[(j0, y)] + a[(x, j0)] * a[(i0, y)]) / b
        active = rest
    return pos, neg, n - pos - neg


# The former Hilbert-square routes: the H^4 Gram from Fraction basis
# expansions with the sigma and Fujiki pairing rules written out inline,
# and the H^4 action from hand-derived binomial formulas with rows as
# images (the transpose of the library's column convention).


def fraction_h4_gram(hilb) -> list[list[int]]:
    n = hilb.n
    half = Fraction(1, 2)
    delta = hilb.delta
    expans = [(Fraction(1), [])]  # sigma
    expans += [(Fraction(0), [(Fraction(1), (delta, hilb.gamma(k)))]) for k in range(n)]
    for k in range(n):
        for m in range(k + 1, n):
            expans.append(
                (Fraction(-hilb.gram[k][m]), [(Fraction(1), (hilb.gamma(k), hilb.gamma(m)))])
            )
    for k in range(n):
        gk = hilb.gamma(k)
        expans.append((Fraction(-hilb.gram[k][k], 2), [(half, (gk, gk)), (-half, (delta, gk))]))

    def s_of(pair):
        # sigma . (x y): intersection form on the gamma part, -1 on delta
        x, y = pair
        acc = -x.delta * y.delta
        for i in range(n):
            for j in range(n):
                acc += x.gamma[i] * hilb.gram[i][j] * y.gamma[j]
        return acc

    q_of = hilb.bb
    size = len(expans)
    gram = [[0] * size for _ in range(size)]
    for i in range(size):
        si, prods_i = expans[i]
        for j in range(i, size):
            sj, prods_j = expans[j]
            val = si * sj
            for c, pair in prods_j:
                val += si * c * s_of(pair)
            for c, pair in prods_i:
                val += sj * c * s_of(pair)
            for ci, (x1, x2) in prods_i:
                for cj, (x3, x4) in prods_j:
                    val += ci * cj * (
                        q_of(x1, x2) * q_of(x3, x4)
                        + q_of(x1, x3) * q_of(x2, x4)
                        + q_of(x1, x4) * q_of(x2, x3)
                    )
            if val.denominator != 1:
                raise ArithmeticError("top pairing of integral classes must be integral")
            gram[i][j] = gram[j][i] = int(val)
    return gram


def row_induced_h4(hilb, psi) -> list[list[int]]:
    """Row k of psi is the image of gamma_k; row i of the result the image of e_i."""
    n, size = hilb.n, hilb.h4_rank
    q2_at, m11_at, pair_index = 1, hilb._m11_at, hilb._pair_index
    rows = [[1] + [0] * (size - 1)]
    for k in range(n):
        v = [0] * size
        for j in range(n):
            v[q2_at + j] = psi[k][j]
        rows.append(v)
    for k in range(n):
        for m in range(k + 1, n):
            v = [0] * size
            rk, rm = psi[k], psi[m]
            for i in range(n):
                v[m11_at + i] += 2 * rk[i] * rm[i]
                v[q2_at + i] += rk[i] * rm[i]
                for j in range(i + 1, n):
                    v[pair_index[(i, j)]] += rk[i] * rm[j] + rk[j] * rm[i]
            rows.append(v)
    for k in range(n):
        c = psi[k]
        v = [0] * size
        for i in range(n):
            # binomial term c*(c-1)/2 is integral for any integer c
            v[q2_at + i] = c[i] * (c[i] - 1) // 2
            v[m11_at + i] = c[i] * c[i]
            for j in range(i + 1, n):
                v[pair_index[(i, j)]] = c[i] * c[j]
        rows.append(v)
    return rows
