"""Exact integer and rational linear algebra helpers.

Matrix contract: every function reads any sequence of integer rows, the
records' tuples of tuples as well as lists (``rank_rational`` and the
vectors of the two solves also take ``Fraction`` entries), never writes
into an argument, and returns each matrix as a fresh ``list[list[int]]``;
nothing touches floating point.  Callers pass record fields straight in.
Matrix products have one kernel, ``mat_mul``: Kronecker
substitution packs each row of the right factor into one int, so a row of
the product is one sum of big-integer multiples that skips zero entries,
and sparse and dense operands take the same route.  Slots are 1, 2, 4 or
8 bytes wide, as narrow as the entry bound allows, and read through
``array``; wider bounds take wider slots read one by one.  ``mat_pow``
and ``charpoly`` multiply through it.
Elimination has two cores: over Z, ``_hermite_rows``; over F_p,
``_echelon_packed``.
``_hermite_rows`` is a row Hermite form by row operations that returns
their sign.  ``det_bareiss`` is that sign times its diagonal,
``rank_rational`` its nonzero rows, and ``solve_in_rowspan`` and
``integer_coordinates`` reduce vectors against H = U*B and multiply by U
(Kannan-Bachem 1979; Cohen, GTM 138, 2.4); ``integer_coordinates`` is
the one route to an integral solve (an integral inverse is the
coordinates of I).  The Smith normal form alternates it on rows and
columns until D is diagonal, then one gcd step per pair makes the
diagonal a divisibility chain.  It keeps the transforms U and V: kernels
are read off the columns of V, and row-span bases off U*A = D*V^-1, so
it never forms V^-1.  In ``_echelon_packed`` rows are packed ints with
nonnegative slots reduced mod p lazily, and each new basis row is added
to every later row in one big-integer multiply-add.
``echelon_mod_p``, ``rank_mod_p`` and ``left_kernel_mod_p`` pack their
rows into it, and the image chain of ``image_ranks_mod_p`` hands it its
packed products without unpacking them;
``rank_mod_p`` at 3 gives the +-1 eigenlattice ranks of an involution,
which equal its ranks over Q (the proof is in ``gmodule.jordan_profile``).
The inertia of a symmetric matrix is read off its integer characteristic
polynomial (``charpoly``, Faddeev-LeVerrier) by Descartes' rule of signs.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from itertools import chain, compress, count
from math import gcd, lcm, prod
from operator import mul

from ._record import record


Matrix = list[list[int]]

_BIG_ENDIAN = sys.byteorder == "big"  # array reads native-endian bytes
# slot width in bytes -> the array typecode that reads it
_CODES = {array(code).itemsize: code for code in "bhiq"}


def zeros(m: int, n: int) -> Matrix:
    return [[0] * n for _ in range(m)]


def identity(n: int) -> Matrix:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def transpose(a) -> Matrix:
    return [list(col) for col in zip(*a)]


def _max_abs(a) -> int:
    return max(map(abs, chain.from_iterable(a)), default=0)


def _slots(bound: int, n: int) -> tuple[int, int]:
    """(size, mask) of n signed slots for integers of absolute value <= bound.

    size is the slot width in bytes: the least power of two up to 8 with
    2^(8 size - 1) > bound (so ``array`` reads it), else the least width
    with that; mask has the top bit of every slot set.
    """
    bits = bound.bit_length()
    size = 1 << (bits // 8).bit_length() if bits < 64 else bits // 8 + 1
    return size, int.from_bytes((bytes(size - 1) + b"\x80") * n, "little")


def _pack(row, size: int, mask: int) -> int:
    """sum_j row[j] * 256^(size j): one signed slot of size bytes per entry.

    The bytes hold each entry in two's complement; flipping the top bit of
    every slot (xor mask) adds 2^(8 size - 1) to each, and subtracting mask
    removes that again without borrows between slots.  Rows of entries in
    [0, 2^(8 size - 1)) pack with mask 0.
    """
    code = _CODES.get(size)
    if code:
        raw = array(code, row)
        if _BIG_ENDIAN:
            raw.byteswap()
    else:
        raw = b"".join([x.to_bytes(size, "little", signed=True) for x in row])
    return (int.from_bytes(raw, "little") ^ mask) - mask


def _unpack(t: int, size: int, n: int) -> list[int]:
    """The n slots of a packed row whose slots are in two's complement: through
    ``array`` for 1-, 2-, 4- and 8-byte slots, by ``int.from_bytes`` per slot
    for wider ones."""
    width = size * n
    raw = t.to_bytes(width, "little")
    code = _CODES.get(size)
    if code:
        entries = array(code, raw)
        if _BIG_ENDIAN:
            entries.byteswap()
        return entries.tolist()
    return [int.from_bytes(raw[i:i + size], "little", signed=True) for i in range(0, width, size)]


def _packed_product(a, packed, size: int, mask: int, n: int) -> Matrix:
    """a * b for b given as its packed rows; every entry must fit a slot.

    Row i of the product is the one int sum_k a[i][k] * packed[k], which
    skips the zero entries of a.  Starting that sum from mask makes every
    slot nonnegative (no borrows between slots) and xor mask puts each
    back in two's complement, so the row is read off its bytes
    (``_unpack``).  Rows are read one at a time, because joining a whole
    product into one byte string raised the peak RSS.
    """
    return [
        _unpack(sum(map(mul, compress(row, row), compress(packed, row)), mask) ^ mask, size, n)
        for row in a
    ]


def mat_mul(a, b) -> Matrix:
    """a * b for integer matrices by Kronecker substitution.

    Every entry of the product is at most len(b) max|a| max|b| in absolute
    value, which sets the slot width (``_slots``); each row of b becomes
    one int (``_pack``) and each row of the product one sum of them
    (``_packed_product``).  Exact: no modulus and no float.
    """
    n = len(b[0]) if b else 0
    amax = _max_abs(a)
    bound = len(b) * amax * (amax if b is a else _max_abs(b))
    if not bound:  # a zero factor; b's entries need not fit any slot
        return zeros(len(a), n)
    size, mask = _slots(bound, n)
    return _packed_product(a, [_pack(row, size, mask) for row in b], size, mask, n)


def is_symmetric(a) -> bool:
    n = len(a)
    return all(len(row) == n for row in a) and all(
        a[i][j] == a[j][i] for i in range(n) for j in range(n)
    )


def shift_diagonal(a, c: int) -> Matrix:
    """a + c I for a square a: a C-speed row copy, then c added on the diagonal."""
    out = [list(row) for row in a]
    for i, row in enumerate(out):
        row[i] += c
    return out


def mat_pow(a, e: int) -> Matrix:
    """a^e for e >= 1 by left-to-right binary powering with ``mat_mul``.

    Takes floor(log2 e) squarings and popcount(e) - 1 multiplications by a,
    each one packed product that skips the zero entries of its left factor.
    """
    if e < 1:
        raise ValueError("exponent must be positive")
    result = [list(row) for row in a]
    for bit in bin(e)[3:]:
        result = mat_mul(result, result)
        if bit == "1":
            result = mat_mul(result, a)
    return result


def _echelon_packed(rows: list[int], p: int, size: int, n: int) -> list[list[int]]:
    """Echelon basis over F_p of packed rows of n nonnegative slots of size bytes.

    Pivot-major: row i is unpacked and reduced mod p only when its turn
    comes; if it gives a basis row b with lead L, every later row whose
    slot L is c != 0 mod p gets (p - c) * b as one big-integer
    multiply-add.  Slots are reduced mod p only when a row is unpacked, so
    they grow: b has entries in [0, p), so each basis row adds at most
    (p - 1)^2, and there are at most n basis rows.  A slot that starts at
    most s thus stays at most s + n (p - 1)^2, which the caller keeps
    below 2^(8 size - 1) (``_slots``).  ``rows`` is rewritten.
    """
    bits = 8 * size
    slot = (1 << bits) - 1
    basis = []
    for i, t in enumerate(rows):
        if len(basis) == n:
            break
        if not t:
            continue
        row = _unpack(t, size, n)
        if max(row) >= p:
            row = [x % p for x in row]
        lead = next(compress(count(), row), None)
        if lead is None:
            continue
        inv = pow(row[lead], -1, p)
        if inv != 1:
            row = [x * inv % p for x in row]
        basis.append(row)
        b = _pack(row, size, 0)
        shift = bits * lead
        rows[i + 1:] = [
            t + (p - c) * b if (c := (t >> shift & slot) % p) else t for t in rows[i + 1:]
        ]
    return basis


def echelon_mod_p(a, p: int) -> list[list[int]]:
    """Echelon basis of the F_p row space of an integer matrix.

    Each basis row has entries in [0, p), a leading 1 at its pivot column,
    and zeros at the pivot columns of the basis rows before it.  The rows
    are those of the row-by-row loop: each row in turn is reduced against
    the basis rows found so far, in the order they were found, adding
    p - c times basis row t for its entry c mod p at t's pivot.
    ``_echelon_packed`` adds basis row t to every later row as soon as t
    is found, and at that moment each later row has received exactly
    basis rows 1 .. t - 1 (all found on earlier rows), so its c is the
    same.  Every row thus receives the same basis rows in the same order
    with the same coefficients, its slots equal the loop's entries mod p,
    and the rows returned are identical.  Entries are packed mod p into
    slots for p + width (p - 1)^2 (``_echelon_packed``'s bound).
    """
    width = len(a[0]) if a else 0
    size = _slots(p + width * (p - 1) ** 2, width)[0]
    rows = [_pack([x % p for x in row], size, 0) if any(row) else 0 for row in a]
    return _echelon_packed(rows, p, size, width)


def rank_mod_p(a, p: int) -> int:
    """Rank of a matrix over F_p: the size of its ``echelon_mod_p`` basis."""
    return len(echelon_mod_p(a, p))


def image_ranks_mod_p(a, p: int, steps: int) -> list[int]:
    """[rank A^0, rank A^1, ..., rank A^steps] over F_p for a square matrix A.

    No power of A is formed: rowspace(A^j) = rowspace(A^(j-1)) * A, so each
    step multiplies the echelon basis of the previous image by A mod p
    and echelonises the products.  A mod p is packed once, and each
    product row is the packed sum of its rows times the basis row's
    nonzero entries, handed to ``_echelon_packed`` as it is: no row is
    unpacked between product and echelon.  Basis and A mod p have entries
    in [0, p), so a product slot is at most n (p - 1)^2 and the echelon
    adds at most n (p - 1)^2 more; the slots are sized for
    2 n (p - 1)^2 + p.  Once the rank reaches 0 the remaining entries are 0.
    """
    n = len(a)
    size = _slots(2 * n * (p - 1) ** 2 + p, n)[0]
    packed = [_pack([x % p for x in row], size, 0) for row in a]
    ranks = [n]
    products = list(packed)
    while len(ranks) <= steps:
        image = _echelon_packed(products, p, size, n)
        ranks.append(len(image))
        if not image:
            break
        products = [sum(map(mul, compress(v, v), compress(packed, v))) for v in image]
    return ranks + [0] * (steps + 1 - len(ranks))


def left_kernel_mod_p(a, p: int) -> list[list[int]]:
    """Basis of {x : x A = 0} over F_p for a square A, entries in [0, p).

    The right halves of the ``echelon_mod_p`` rows of [A | I] whose left
    half is zero; for symmetric A this is ker(A mod p).
    """
    n = len(a)
    echelon = echelon_mod_p(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)], p
    )
    return [row[n:] for row in echelon if not any(row[:n])]


def _integral_row(row) -> list[int]:
    """Scale a row of ints and Fractions to integers by the lcm of its denominators."""
    if all(type(x) is int for x in row):
        return list(row)  # a copy: the elimination updates rows in place
    d = 1
    for x in row:  # pairwise: an argument tuple per row raised peak RSS
        d = lcm(d, x.denominator)
    return [x.numerator * (d // x.denominator) for x in row]


def _span_quotients(basis, vecs, divide):
    """(Q, U) with vecs = Q*H and H = U*basis, or None when a vector is
    outside the span or ``divide`` returns None for one of its quotients.

    ``_hermite_rows`` on [basis | I] gives H on the left and the unimodular
    U on the right; a zero left half in its last row means dependent basis
    rows (ValueError).  Each vector, integer or ``Fraction``, is reduced
    against the rows of H in order: q_i = divide(v_c, H_ic) at the pivot
    column c of row i, then v -= q_i H_i, from column c on since H_i is zero
    before it.  A vector whose remainder is not zero is outside the span.
    Bases are integer rows.
    """
    w = len(basis[0]) if basis else 0
    rows = [list(b) + [int(i == j) for j in range(len(basis))] for i, b in enumerate(basis)]
    _hermite_rows(rows, w)
    if rows and not any(rows[-1][:w]):
        raise ValueError("basis rows are dependent")
    pivots = [next(compress(count(), row)) for row in rows]
    quotients = []
    for vec in vecs:
        v, q = list(vec), []
        for row, c in zip(rows, pivots):
            qi = divide(v[c], row[c])
            if qi is None:
                return None
            if qi:
                v[c:] = [x - qi * y for x, y in zip(v[c:], row[c:w])]
            q.append(qi)
        if any(v):
            return None
        quotients.append(q)
    return quotients, [row[w:] for row in rows]


def _exact_quotient(x, d):
    """x / d if that is an integer, else None."""
    q, r = divmod(x, d)
    return None if r else q


def det_bareiss(a) -> int:
    """Exact determinant of a square integer matrix: the sign that
    ``_hermite_rows`` returns times the diagonal of the Hermite form, where
    a column without a pivot leaves a 0.  The name stays because
    ``perfbench/tracer.py`` wraps it by name."""
    rows = [list(row) for row in a]
    sign = _hermite_rows(rows, len(rows))
    return sign * prod(row[i] for i, row in enumerate(rows))


def rank_rational(a) -> int:
    """Rank over Q of an integer or ``Fraction`` matrix: the nonzero rows of
    the Hermite form of its rows, each scaled to integers (``_integral_row``).
    The name stays because ``perfbench/tracer.py`` wraps it by name."""
    rows = [row for row in map(_integral_row, a) if any(row)]
    _hermite_rows(rows, len(rows[0]) if rows else 0)
    return sum(map(any, rows))


def solve_in_rowspan(basis, vec) -> list[Fraction] | None:
    """Rational c with c * basis == vec, or None if vec is outside the span.

    ``_span_quotients`` with exact division in Q, so c = q*U as Fractions.
    basis is independent integer rows, else ValueError.  The name stays
    because ``perfbench/tracer.py`` wraps it by name.
    """
    found = _span_quotients(basis, [vec], Fraction)
    if found is None:
        return None
    (q,), u = found
    return [sum(map(mul, q, col)) for col in zip(*u)]


def integer_coordinates(basis, vecs) -> list[list[int]] | None:
    """Integer c_j with c_j * basis == vecs[j] for every j, or None.

    ``_span_quotients`` with integer division, so a remainder (a coordinate
    that is not an integer) gives None; every coordinate row is then one
    ``mat_mul(Q, U)``.  basis is independent integer rows, else ValueError.
    """
    found = _span_quotients(basis, vecs, _exact_quotient)
    return None if found is None else mat_mul(*found)


@record
class SNFResult:
    u: Matrix
    d: Matrix
    v: Matrix

    @property
    def diagonal(self) -> list[int]:
        return [self.d[i][i] for i in range(min(len(self.d), len(self.d[0]) if self.d else 0))]


def _hermite_rows(rows: Matrix, n: int) -> int:
    """Put the first n columns of rows in row Hermite form by row operations;
    return the sign they multiply a determinant by.

    Column by column, the smallest nonzero |entry| of column c in the rows
    from r on (those without a pivot yet) becomes the positive pivot
    rows[r][c].  Nearest-integer quotients clear the column below it,
    repeating with the least remainder as pivot until it is clear, and
    then reduce the entries above it to at most piv / 2.  The pivot row is
    zero before column c, so each operation rewrites a row only from
    column c on, the columns past n included: they collect the transform,
    U on [D | U] and V^T on [D^T | V^T].  Each swap of two rows and each
    negated pivot row flips the sign, every round of a column counted;
    adding a multiple of a row keeps it.  Rows without a pivot end up zero
    in the first n columns and last.  ``rows`` is rewritten in place.
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


def _is_diagonal(d: Matrix) -> bool:
    return not any(any(row[:i]) or any(row[i + 1:]) for i, row in enumerate(d))


def smith_normal_form(a) -> SNFResult:
    """Smith normal form with unimodular transforms: U*A*V = D.

    Diagonal entries are nonnegative and form a divisibility chain.  Rounds
    of ``_hermite_rows`` alternate on [D | U] and on [D^T | V^T] (column
    operations on D are row operations on D^T; Kannan-Bachem 1979) until D
    is diagonal.  They end: the leading entry of the block not yet settled
    is a positive integer, and each pass replaces it by a gcd of its column
    (row), so it strictly falls until it divides that column and row; the
    next pass then clears both, and later passes leave them alone.  The
    nonzero diagonal entries come first, and one gcd step per pair i < j
    with d_i not dividing d_j makes them a chain: with g = gcd(d_i, d_j),
    c = d_i / g, c' = d_j / g, s = c^-1 mod c' and t = (g - s d_i) / d_j,
    rows i, j of U become (s u_i + t u_j, c u_j - c' u_i) and those of V^T
    (v_i + v_j, s c v_j - t c' v_i), both steps of determinant 1, and d_i,
    d_j become g and c d_j.  Hermite passes keep U and V narrow: 343-bit
    entries on a 40 x 40 with entries in [-9, 9], where a Smith pivot loop
    alone reached 3144.  D is unique; U and V depend on the route.  V^-1
    is not formed: U*A = D*V^-1 gives its rows where D is nonzero.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d, u, vt = a, identity(m), identity(n)
    while True:
        rows = [list(x) + y for x, y in zip(d, u)]
        _hermite_rows(rows, n)
        d, u = [row[:n] for row in rows], [row[n:] for row in rows]
        if _is_diagonal(d):
            break
        cols = [list(x) + y for x, y in zip(zip(*d), vt)]
        _hermite_rows(cols, m)
        d, vt = transpose([col[:m] for col in cols]), [col[m:] for col in cols]
        if _is_diagonal(d):
            break
    diag = [d[i][i] for i in range(min(m, n)) if d[i][i]]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            di, dj = diag[i], diag[j]
            if dj % di:
                g = gcd(di, dj)
                ci, cj = di // g, dj // g
                s = pow(ci, -1, cj)
                t = (g - s * di) // dj
                ui, uj, vi, vj = u[i], u[j], vt[i], vt[j]
                u[i] = [s * x + t * y for x, y in zip(ui, uj)]
                u[j] = [ci * y - cj * x for x, y in zip(ui, uj)]
                vt[i] = [x + y for x, y in zip(vi, vj)]
                vt[j] = [s * ci * y - t * cj * x for x, y in zip(vi, vj)]
                diag[i], diag[j] = g, ci * dj
        d[i][i] = diag[i]
    return SNFResult(u=u, d=d, v=transpose(vt))


def elementary_divisors(a) -> list[int]:
    """Nontrivial invariant factors (> 1) of an integer matrix."""
    res = smith_normal_form(a)
    return [x for x in res.diagonal if x not in (0, 1)]


def kernel_basis(a) -> Matrix:
    """Saturated basis (as rows) of the integer kernel of x -> A*x."""
    m = len(a)
    n = len(a[0]) if m else 0
    res = smith_normal_form(a)
    diag = res.diagonal
    rows = []
    for j in range(n):
        dj = diag[j] if j < len(diag) else 0
        if dj == 0:
            rows.append([res.v[i][j] for i in range(n)])
    return rows


def image_basis(a) -> Matrix:
    """Basis (as rows) of the lattice A * Z^n, i.e. the column span over Z."""
    return row_span_basis(transpose(a))


def row_span_basis(a) -> Matrix:
    """Z-basis (as rows) of the subgroup of Z^n generated by the rows of A.

    U*A*V = D gives U*A = D*V^-1: row i of U*A is d_i times row i of the
    unimodular V^-1, so its rows with d_i != 0 are a basis of the row span.
    """
    res = smith_normal_form(a)
    return [row for row, di in zip(mat_mul(res.u, a), res.diagonal) if di]


def charpoly(a) -> list[int]:
    """[1, c_1, ..., c_n] with det(xI - A) = x^n + c_1 x^(n-1) + ... + c_n.

    Faddeev-LeVerrier over the integers: M_1 = I, c_k = -tr(A M_k) / k and
    M_(k+1) = A M_k + c_k I.  For an integer matrix every c_k is an
    integer, so each division is exact; a remainder raises ArithmeticError,
    and so does an entry that is not an integer.
    """
    if not all(isinstance(x, int) for x in chain.from_iterable(a)):
        raise ArithmeticError("charpoly needs an integer matrix")
    n = len(a)
    coeffs = [1]
    m = identity(n)
    for k in range(1, n + 1):
        am = mat_mul(a, m)
        c, r = divmod(-sum(am[i][i] for i in range(n)), k)
        if r:
            raise ArithmeticError(f"tr(A M_{k}) is not divisible by {k}")
        coeffs.append(c)
        for i in range(n):
            am[i][i] += c
        m = am
    return coeffs


def _sign_changes(coeffs) -> int:
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def signature_exact(gram) -> tuple[int, int, int]:
    """Inertia (positive, negative, zero) of a symmetric integer matrix.

    A symmetric matrix has only real eigenvalues, so Descartes' rule of
    signs counts them exactly on the characteristic polynomial: the zero
    eigenvalues are its trailing zero coefficients, the positive ones the
    sign changes of p(x), the negative ones those of p(-x).  Raises
    ValueError on a matrix that is not square and symmetric.
    """
    if not is_symmetric(gram):
        raise ValueError("signature needs a square symmetric matrix")
    coeffs = charpoly(gram)
    zero = 0
    while coeffs[-1] == 0:
        coeffs.pop()
        zero += 1
    pos = _sign_changes(coeffs)
    neg = _sign_changes([-c if k % 2 else c for k, c in enumerate(coeffs)])
    return pos, neg, zero
