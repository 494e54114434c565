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
Elimination has two cores: over Z, ``_hermite_rows``, which gives every
lattice basis; over F_p, ``_echelon_packed``, which gives ranks.
``_hermite_rows`` is a row Hermite form by row operations that returns
their sign.  It adds the rows one at a time to the Hermite form of the
rows before them, in their order (Kannan-Bachem 1979), so no entry grows
far past those of that form, and it puts the transform columns of the
rows left without a pivot in Hermite form too: on [A | I] the whole
result is the unique Hermite form of [A | I], and U depends on A alone.
Every row operation reads only the nonzero entries of the row it adds.
The column-at-a-time pass it replaced is ``tests/oracles.hermite_rows``.
``det_bareiss`` is that sign times its diagonal,
``rank_rational`` its nonzero rows, and ``solve_in_rowspan`` and
``integer_coordinates`` reduce vectors against H = U*B and multiply by U
(Kannan-Bachem 1979; Cohen, GTM 138, 2.4); ``integer_coordinates`` is
the one route to an integral solve (an integral inverse is the
coordinates of I).  Bases are Hermite forms (Cohen, GTM 138, 2.4.3):
``row_span_basis`` (and ``image_basis``) the nonzero rows of that of A,
``kernel_basis`` the transform parts of the rows of that of [A^T | I]
whose A^T part is zero.  The Smith normal form gives invariant factors:
it alternates the Hermite pass on rows and columns until D is diagonal,
then one gcd step per pair makes the diagonal a divisibility chain.  It
keeps the transforms U and V and never forms V^-1.
In ``_echelon_packed`` rows are packed ints with nonnegative slots
reduced mod p lazily, and each new basis row is added to every later row
in one big-integer multiply-add.  A row is reduced mod p whole, never
unpacked: for slots at most B, k the least with
B (m p - 2^k) < 2^k and m = ceil(2^k / p), t - p ((t m >> k) & low) is
every slot mod p (Granlund-Montgomery 1994, Thm 4.2) once each slot has
(B m).bit_length() bits, so that x m carries nothing into the next slot,
and ``low`` keeps the low w - k bits of each w-bit slot.  The quotient is
exact because x (m p - 2^k) <= B (m p - 2^k) < 2^k (``_fp_slots``).
The basis rows stay as they are, never made monic: ``rank_mod_p``
counts them, and the image chain of ``image_ranks_mod_p`` hands the
echelon its packed products and unpacks only basis rows, for the next
products.  ``rank_mod_p`` of phi - 1 at 3 gives both +-1 eigenlattice
ranks of an involution over Q (the proof is in ``gmodule.jordan_profile``).
The inertia of a symmetric matrix is read off its integer characteristic
polynomial (``charpoly``, Faddeev-LeVerrier) by Descartes' rule of signs.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from fractions import Fraction
from itertools import chain, compress, count, islice
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


def _row_length(a) -> int:
    """The length of every row of a, 0 without rows; ValueError if they differ."""
    n = len(a[0]) if a else 0
    if not {n}.issuperset(map(len, a)):
        raise ValueError(f"rows of different lengths: every row must be {n} long")
    return n


def _width(bits: int) -> int:
    """Bytes in a slot of at least bits bits: the least power of two up to 8
    (so ``array`` reads it), else the least width."""
    return 1 << ((bits - 1) // 8).bit_length() if bits <= 64 else -(-bits // 8)


def _slots(bound: int, n: int) -> tuple[int, int]:
    """(size, mask) of n signed slots for integers of absolute value <= bound.

    size is the slot width in bytes for bound.bit_length() + 1 bits
    (``_width``), so 2^(8 size - 1) > bound; mask has the top bit of every
    slot set.
    """
    size = _width(bound.bit_length() + 1)
    return size, int.from_bytes((bytes(size - 1) + b"\x80") * n, "little")


def _fp_slots(p: int, bound: int) -> tuple[int, int, int]:
    """(size, k, m) of packed rows over F_p whose slots stay at most bound.

    ``_echelon_packed`` reduces every slot mod p at once with the
    multiplier m = ceil(2^k / p) and the shift k (Granlund-Montgomery 1994,
    Thm 4.2).  k is the least with bound (m p - 2^k) < 2^k, at most
    bound.bit_length() + (p - 1).bit_length() and 1 for p = 2 (m = 1), and
    the slots have (bound m).bit_length() bits, rounded up to a byte width
    (``_width``).
    """
    k = 0
    while bound * (-(1 << k) % p) >= 1 << k:
        k += 1
    m = -(-(1 << k) // p)
    return _width((bound * m).bit_length()), k, m


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
    (``_packed_product``).  Exact: no modulus and no float.  A row of a
    that is not len(b) long raises ValueError.
    """
    if any(len(row) != len(b) for row in a):
        raise ValueError(f"inner dimensions differ: a row of length {len(b)} is needed")
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


def _echelon_packed(rows: list[int], p: int, n: int, slots: tuple[int, int, int]) -> list[int]:
    """Echelon basis over F_p of packed rows of n nonnegative slots, as packed
    rows with slots in [0, p); ``slots`` is the ``_fp_slots`` of p and a bound
    on every slot.

    Pivot-major: row i is reduced mod p only when its turn comes, all its
    slots at once: with w = 8 size bits per slot and ``low`` the low w - k
    bits of each, t - p ((t m >> k) & low) has slot j equal to x_j mod p for
    the slots x_j of t.  Proof: x_j <= bound, so x_j m < 2^w fits its slot
    and t m carries nothing between slots; the shift by k moves the low k
    bits of slot j + 1 into the top k bits of slot j, and the mask keeps
    floor(x_j m / 2^k) < 2^(w - k).  With e = m p - 2^k in [0, p) and
    x_j = q p + r, x_j m / 2^k = x_j / p + x_j e / (p 2^k), where
    x_j e <= bound e < 2^k; the fraction stays below (r + 1) / p <= 1, so
    the quotient is q, and subtracting p q leaves r in every slot without
    borrows.  A reduced row that is 0 gives nothing; otherwise it is the
    next basis row b as it is (its leading slot v need not be 1), its lead
    L is the lowest set bit over w, and every later row whose slot L is x
    with c = -x v^-1 mod p nonzero gets c b as one big-integer
    multiply-add, so slot L becomes 0 mod p.  b has slots in [0, p), so
    each basis row adds at most (p - 1)^2 to a slot, and there are at most
    n basis rows: a slot that starts at most s stays at most
    s + n (p - 1)^2, which the caller's bound covers.  ``rows`` is
    rewritten.
    """
    size, k, m = slots
    bits = 8 * size
    slot = (1 << bits) - 1
    low = ((1 << (bits - k)) - 1) * int.from_bytes((b"\1" + bytes(size - 1)) * n, "little")
    basis = []
    for i, t in enumerate(rows):
        if len(basis) == n:
            break
        t -= p * (t * m >> k & low)
        if not t:
            continue
        basis.append(t)
        shift = ((t & -t).bit_length() - 1) // bits * bits
        neg = p - pow(t >> shift & slot, -1, p)
        rows[i + 1:] = [
            u + c * t if (c := (u >> shift & slot) * neg % p) else u for u in rows[i + 1:]
        ]
    return basis


def rank_mod_p(a, p: int) -> int:
    """Rank of a matrix over F_p: the size of the ``_echelon_packed`` basis
    of its rows mod p, packed into slots for p + width (p - 1)^2 (the
    echelon's bound)."""
    width = len(a[0]) if a else 0
    slots = _fp_slots(p, p + width * (p - 1) ** 2)
    rows = [_pack([x % p for x in row], slots[0], 0) if any(row) else 0 for row in a]
    return len(_echelon_packed(rows, p, width, slots))


def image_ranks_mod_p(a, p: int, steps: int) -> list[int]:
    """[rank A^0, rank A^1, ..., rank A^steps] over F_p for a square matrix A.

    No power of A is formed: rowspace(A^j) = rowspace(A^(j-1)) * A, so each
    step multiplies the echelon basis of the previous image by A mod p
    and echelonises the products.  A mod p is packed once, and each
    product row is the packed sum of its rows times the basis row's
    nonzero entries, handed to ``_echelon_packed`` as it is: only basis
    rows are unpacked, for their entries, and none is made monic.  Basis
    and A mod p have entries in [0, p), so a product slot is at most
    n (p - 1)^2 and the echelon adds at most n (p - 1)^2 more; the slots
    are sized for 2 n (p - 1)^2 + p.  Once the rank reaches 0 the remaining
    entries are 0.
    """
    n = len(a)
    slots = _fp_slots(p, 2 * n * (p - 1) ** 2 + p)
    size = slots[0]
    packed = [_pack([x % p for x in row], size, 0) for row in a]
    ranks = [n]
    products = list(packed)
    while len(ranks) <= steps:
        image = _echelon_packed(products, p, n, slots)
        ranks.append(len(image))
        if not image:
            break
        basis = [_unpack(t, size, n) for t in image]
        products = [sum(map(mul, compress(v, v), compress(packed, v))) for v in basis]
    return ranks + [0] * (steps + 1 - len(ranks))


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
    Bases are integer rows; ragged basis rows, or a vector that is not as
    long as they are, raise ValueError.
    """
    w = _row_length(basis)
    if basis and not {w}.issuperset(map(len, vecs)):
        raise ValueError(f"every vector must be {w} long, as the basis rows are")
    rows = list(map(list.__add__, map(list, basis), identity(len(basis))))
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
    a column without a pivot leaves a 0.  A matrix that is not square raises
    ValueError.  The name stays because ``perfbench/tracer.py`` wraps it by
    name."""
    rows = list(map(list, a))
    if not {len(rows)}.issuperset(map(len, rows)):
        raise ValueError(f"det_bareiss needs a square matrix: every row must be {len(rows)} long")
    sign = _hermite_rows(rows, len(rows))
    return sign * prod(row[i] for i, row in enumerate(rows))


def rank_rational(a) -> int:
    """Rank over Q of an integer or ``Fraction`` matrix: the nonzero rows of
    the Hermite form of its rows, each scaled to integers (``_integral_row``).
    Ragged rows raise ValueError.  The name stays because
    ``perfbench/tracer.py`` wraps it by name."""
    n = _row_length(a)
    rows = [row for row in map(_integral_row, a) if any(row)]
    _hermite_rows(rows, n)
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


def _reduce(row: list[int], cols, pivot_rows) -> None:
    """Reduce row at each pivot column c of cols in turn, with its pivot row
    p from pivot_rows (zero before c): subtract the nearest-integer multiple
    of p that leaves row[c] in [-p[c] / 2, p[c] / 2)."""
    for c, p in zip(cols, pivot_rows):
        x = row[c]
        if x:
            piv = p[c]
            q = (2 * x + piv) // (2 * piv)
            if q:  # only the nonzero entries of p, found at C speed
                for k in compress(count(c), islice(p, c, None)):
                    row[k] -= q * p[k]


def _hermite_rows(rows: Matrix, n: int) -> int:
    """Put the first n columns of rows in row Hermite form by row operations;
    return the sign they multiply a determinant by.  ``rows`` is rewritten
    in place; its rows all have one length w >= n, and columns past n (the
    transform, U on [D | U] and V^T on [D^T | V^T]) ride along.

    Row order.  Rows are taken one at a time, in their order, and added to
    the pivot rows found so far, which stand first, one per pivot column,
    in column order, each zero before its pivot and positive there.  The
    new row's nonzero columns below n are visited from the left.  At a
    column without a pivot it becomes that column's pivot row: negated if
    its entry is negative, then moved up from position i to its place p.
    At a pivot column c with pivot a > 0 and entry b, a | b clears it by
    row -= (b / a) h, h the pivot row.  Otherwise one extended-gcd step
    acts on (h, row): with g = gcd(a, b), ca = a / g, cb = b / g,
    s = ca^-1 mod |cb| and t = (g - s a) / b (exact: s ca = 1 mod cb, so
    s a = g mod b), (h, row) becomes (s h + t row, ca row - cb h).  Its
    matrix [[s, t], [-cb, ca]] has determinant s ca + t cb = (s a + t b) / g
    = 1; the new h has g at c and the new row has ca b - cb a = 0.  The
    new h is reduced at once at the later pivot columns; without that, the
    Smith form of one 40 x 40 with entries in [-9, 9] ran for over a
    minute.  Rows zero in the first n columns stay after the pivot rows,
    in their order.

    Sign.  Adding a multiple of a row and the gcd step keep it; a negated
    row flips it, and so does each of the i - p transpositions that move a
    new pivot row from position i to p.

    Uniqueness.  At the end each pivot row is reduced at every later pivot
    column, left to right, by nearest-integer multiples q =
    floor((2 x + piv) / (2 piv)), which leave x in [-piv / 2, piv / 2).
    The first n columns are then the Hermite form with these residues,
    which is unique, so it does not depend on the order of the rows or on
    the route.  When w > n the rows without a pivot span the transform's
    kernel part: their columns past n are put in Hermite form by this same
    elimination, and every pivot row is reduced at those pivots too.  All
    w columns are then the unique Hermite form of the input, and on
    [A | I] the transform U is fixed by A (the reference pass,
    ``tests/oracles.hermite_rows``, gives it with all w columns as
    Hermite columns).

    Growth.  Between rows the pivot rows are an echelon basis of the
    lattice of the rows taken so far, with the pivots of its Hermite form;
    they differ from that form only above the pivots.  Entries therefore
    stay near the size of the Hermite forms of the leading rows, which
    their minors bound (Kannan-Bachem; Cohen, GTM 138, 2.4.3), instead of
    growing with every column cleared.  On a 40 x 40 with entries in
    [-9, 9] and its 40-wide identity, no entry passes the 174 bits of the
    final form between two rows, where the column-at-a-time pass reached
    1865 bits; on a 40 x 40 of rank 32 the kernel rows' Hermite step
    keeps U at 139 bits, where that pass left 508.
    """
    sign = 1
    pivots = {}  # pivot column -> its row
    cols = []  # the pivot columns, ascending; rows[:len(cols)] are their rows
    for i in range(len(rows)):
        row = rows[i]
        # the iterator reads the row as it is rewritten in place, so each j
        # is the first nonzero column of the row as it stands
        for j in compress(count(), islice(row, n)):
            h = pivots.get(j)
            if h is None:
                if row[j] < 0:
                    row[:] = [-x for x in row]
                    sign = -sign
                pos = bisect_right(cols, j)
                cols.insert(pos, j)
                pivots[j] = row
                rows.insert(pos, rows.pop(i))  # i - pos transpositions
                if (i - pos) % 2:
                    sign = -sign
                break
            a, b = h[j], row[j]
            q, r = divmod(b, a)
            if not r:
                for k in compress(count(j), islice(h, j, None)):
                    row[k] -= q * h[k]
                continue
            g = gcd(a, b)
            ca, cb = a // g, b // g
            s = pow(ca, -1, abs(cb))
            t = (g - s * a) // b
            hj, rj = h[j:], row[j:]
            h[j:] = [s * x + t * y for x, y in zip(hj, rj)]
            row[j:] = [ca * y - cb * x for x, y in zip(hj, rj)]
            pos = bisect_right(cols, j)
            _reduce(h, cols[pos:], rows[pos:len(cols)])
    r = len(cols)
    if r < len(rows) and len(rows[0]) > n:
        tails = [row[n:] for row in rows[r:]]
        sign *= _hermite_rows(tails, len(tails[0]))
        for row, tail in zip(rows[r:], tails):
            row[n:] = tail
            c = next(compress(count(), tail), None)
            if c is None:
                break
            cols.append(n + c)
    for i in range(r):
        _reduce(rows[i], cols[i + 1:], rows[i + 1:])
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
    alone reached 3144, and at most 8.8 bits per row or column on the
    benchmark shapes of seeds 1 to 5 (11.7 with column-at-a-time passes).
    D is unique, and so is each pass's Hermite form of [D | U] or
    [D^T | V^T], so U and V are fixed by A, not by the order of the
    elimination.  Rows of different lengths raise ValueError.  V^-1 is not
    formed.
    """
    m, n = len(a), _row_length(a)
    d, u, vt = a, identity(m), identity(n)
    while True:
        rows = list(map(list.__add__, map(list, d), u))
        _hermite_rows(rows, n)
        d, u = [row[:n] for row in rows], [row[n:] for row in rows]
        if _is_diagonal(d):
            break
        cols = list(map(list.__add__, map(list, zip(*d)), vt))
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
    """Saturated basis (as rows) of the integer kernel of x -> A*x.

    Row j of [A^T | I] is (column j of A, e_j), so a row (0, x) of its
    Hermite form has A*x = 0, and as the transform is unimodular every
    integer kernel vector x gives such a row (0, x) = x [A^T | I], a
    combination of the rows with zero A^T part alone.  Their transform
    parts are thus a basis, which ``_hermite_rows`` leaves in Hermite form,
    fixed by A.  Ragged rows raise ValueError.
    """
    m, n = len(a), _row_length(a)
    rows = list(map(list.__add__, map(list, zip(*a)), identity(n)))
    _hermite_rows(rows, m)
    return [row[m:] for row in rows if not any(row[:m])]


def image_basis(a) -> Matrix:
    """Basis (as rows) of the lattice A * Z^n, i.e. the column span over Z."""
    return row_span_basis(transpose(a))


def row_span_basis(a) -> Matrix:
    """Z-basis (as rows) of the subgroup of Z^n generated by the rows of A:
    the nonzero rows of its Hermite form.  Ragged rows raise ValueError."""
    rows = list(map(list, a))
    _hermite_rows(rows, _row_length(rows))
    return [row for row in rows if any(row)]


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
