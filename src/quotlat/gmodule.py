"""Prime-order actions on free Z-modules and their modular invariants.

For an automorphism phi of order p acting on Z^n, the F_p[G]-module
structure of Z^n/p is encoded by the Jordan profile (l_1, ..., l_p): l_q
counts unipotent Jordan blocks of size q of phi over F_p.  For torsion-free
actions of prime order p <= 19 only sizes 1, p-1 and p occur; for p = 2 the
size-1 count splits into the trivial and the sign module (Reiner 1957), and
`JordanProfile` alone reads them in the roles of l_1 and l_(p-1).  These
counts drive everything downstream: invariant-lattice discriminants, group
cohomology, symmetric-square profiles and normality chains.

Two helpers state the free-quotient formulas once: `free_torsion_rank`
(the p-torsion rank T of H^k of a free quotient) and
`vanishing_conditions` (the block-count conditions that stand in for
degeneration over Z).  `free_quotient_cohomology` and the middle-degree
chains in `normality` both read them.
"""

from __future__ import annotations

from . import _linalg as la
from ._record import record
from .lattice_core import _freeze, _is_prime, _p_power_log, direct_sum

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


class GModuleError(Exception):
    pass


class NotAnOrderPAction(GModuleError):
    pass


class UnsupportedPrime(GModuleError):
    pass


class FormNotPreserved(GModuleError):
    pass


class HypothesesNotMet(GModuleError):
    """Neither the degeneration flag nor the vanishing conditions hold."""


@record
class JordanProfile:
    """Jordan block counts of an order-p action over F_p.

    blocks[q] = number of unipotent blocks of size q (1 <= q <= p).  For
    p = 2, plus_rank/minus_rank split blocks[1] into the ranks of the
    integral +1 and -1 eigenlattices outside the free Z[G] part: the trivial
    module Z plays the role of l_1 and the sign module Z[zeta_2] the role
    of l_(p-1), so `l1` and `l_pm1` return them and every formula built on
    these counts holds for p = 2 as written.
    """

    p: int
    blocks: tuple[int, ...]  # index 0 unused; blocks[q] for q = 1..p
    plus_rank: int | None = None
    minus_rank: int | None = None

    def __post_init__(self):
        if not _is_prime(self.p):
            raise UnsupportedPrime(f"{self.p} is not prime")
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if len(self.blocks) != self.p + 1 or self.blocks[0] != 0:
            raise GModuleError("blocks must be indexed 0..p with blocks[0] = 0")
        if any(b < 0 for b in self.blocks):
            raise GModuleError("negative block count")
        if self.p == 2:
            if self.plus_rank is None or self.minus_rank is None:
                raise GModuleError("p = 2 requires the plus/minus eigenlattice split")
            if self.plus_rank < 0 or self.minus_rank < 0:
                raise GModuleError("negative eigenlattice rank")
            if self.plus_rank + self.minus_rank != self.blocks[1]:
                raise GModuleError("eigenlattice split must sum to l_1")
        elif self.plus_rank is not None or self.minus_rank is not None:
            raise GModuleError("eigenlattice split only makes sense for p = 2")

    @property
    def rank(self) -> int:
        return sum(q * self.blocks[q] for q in range(1, self.p + 1))

    @property
    def l1(self) -> int:
        """Size-1 blocks, or the + eigenlattice rank when p = 2."""
        return self.plus_rank if self.p == 2 else self.blocks[1]

    @property
    def l_pm1(self) -> int:
        """Size-(p-1) blocks, or the - eigenlattice rank when p = 2."""
        return self.minus_rank if self.p == 2 else self.blocks[self.p - 1]

    @property
    def lp(self) -> int:
        return self.blocks[self.p]

    @property
    def invariant_rank(self) -> int:
        return self.lp + self.l1

    def middle_blocks(self) -> dict[int, int]:
        """Block counts outside sizes {1, p-1, p}."""
        out = {}
        for q in range(2, self.p - 1):
            if self.blocks[q]:
                out[q] = self.blocks[q]
        return out


@record
class PrimeOrderAction:
    """Matrix phi with phi^p = identity, optionally preserving a Gram matrix.

    Construction checks phi^p = I exactly over Z.  The power is taken by
    repeated squaring (floor(log2 p) squarings and popcount(p) - 1 further
    products), each one packed-integer product (``_linalg.mat_mul``): a row
    of the product is one sum of packed rows that skips zero entries, so
    sparse and dense actions share one route.  A given Gram matrix G must
    satisfy phi^T G phi = G.  Only `sym2_action` and `conjugate` skip these
    checks, through `_derived_action`, and their docstrings prove that their
    results pass them; a copy made with ``replace`` is always checked.
    """

    p: int
    phi: tuple[tuple[int, ...], ...]
    gram: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if not _is_prime(self.p):
            raise UnsupportedPrime(f"{self.p} is not prime")
        object.__setattr__(self, "phi", _freeze(self.phi))
        phi, n = self.phi, len(self.phi)
        if any(len(r) != n for r in phi):
            raise NotAnOrderPAction("phi must be square")
        if la.mat_pow(phi, self.p) != la.identity(n):
            raise NotAnOrderPAction("phi^p is not the identity")
        if self.gram is not None:
            object.__setattr__(self, "gram", _freeze(self.gram))
            if _freeze(la.mat_mul(la.mat_mul(la.transpose(phi), self.gram), phi)) != self.gram:
                raise FormNotPreserved("phi does not preserve the form")

    @property
    def rank(self) -> int:
        return len(self.phi)

    def tau(self) -> list[list[int]]:
        """phi - identity."""
        return la.shift_diagonal(self.phi, -1)

    def sigma(self) -> list[list[int]]:
        """1 + phi + ... + phi^(p-1), by Horner's rule: s <- 1 + phi s, p - 1 times from s = 1."""
        s = la.identity(self.rank)
        for _ in range(self.p - 1):
            s = la.mat_mul(self.phi, s)
            for i, row in enumerate(s):
                row[i] += 1
        return s


def _derived_action(p: int, phi, gram=None) -> PrimeOrderAction:
    """The `PrimeOrderAction` record of (p, phi, gram) without its checks.

    The caller proves them: p is a checked action's prime, phi is square,
    phi^p = I, and phi^T gram phi = gram.  Only `sym2_action` and
    `conjugate` call it (``tests/test_layering.py``).  phi and gram are
    frozen as in the constructor, so the record equals and hashes like the
    checked one.
    """
    out = object.__new__(PrimeOrderAction)
    object.__setattr__(out, "p", p)
    object.__setattr__(out, "phi", _freeze(phi))
    object.__setattr__(out, "gram", None if gram is None else _freeze(gram))
    return out


def jordan_profile(action: PrimeOrderAction) -> JordanProfile:
    """Block counts over F_p via l_q = r_(q-1) - 2 r_q + r_(q+1), r_j = rank tau^j.

    The ranks r_j come from the image chain of tau = phi - 1 mod p
    (``image_ranks_mod_p``): each image is the previous echelon basis
    times tau, echelonised again, so no power of tau is formed over Z.

    For p = 2 the eigenlattice split needs the ranks of phi -+ 1 over Q.
    One rank over F_3 (``rank_mod_p``) gives both:

    - phi^2 = I holds over Z (checked on construction, or carried by
      proof), and 2 is a unit over F_3 as over Q, so over either field
      (1 + phi) / 2 and (1 - phi) / 2 are complementary idempotents and
      rank(phi - 1) + rank(phi + 1) = n;
    - the rank mod 3 of an integer matrix is at most its rank over Q, so
      with both sums n, both ranks are equal over F_3 and over Q;
    - hence rank_Q(phi + 1) = n - rank_3(phi - 1), and as each of the l_2
      blocks Z[C_2] has one +1 and one -1 eigenvector over Q,
      dim ker(phi - 1) = plus + l_2 and dim ker(phi + 1) = minus + l_2
      give plus = n - rank_3(tau) - l_2 and minus = rank_3(tau) - l_2.

    The identities r_p = 0, l_q >= 0 and sum q l_q = n are checked and
    raise GModuleError when they fail; the last one is l_1 + 2 l_2 = n, so
    plus + minus = l_1 needs no check, and a negative plus or minus raises.
    """
    p, n = action.p, action.rank
    tau = action.tau()
    ranks = la.image_ranks_mod_p(tau, p, p + 1)
    if ranks[p] != 0:
        raise GModuleError("tau^p must vanish mod p")
    blocks = [0] * (p + 1)
    for q in range(1, p + 1):
        blocks[q] = ranks[q - 1] - 2 * ranks[q] + ranks[q + 1]
    if any(b < 0 for b in blocks):
        raise GModuleError(f"negative Jordan block count from ranks {ranks}")
    if sum(q * blocks[q] for q in range(1, p + 1)) != n:
        raise GModuleError(f"Jordan blocks {blocks} do not add up to rank {n}")
    plus = minus = None
    if p == 2:
        rank_tau = la.rank_mod_p(tau, 3)
        plus = n - rank_tau - blocks[2]
        minus = rank_tau - blocks[2]
        if plus < 0 or minus < 0:
            raise GModuleError(
                f"eigenlattice ranks (+{plus}, -{minus}) do not split l_1 = {blocks[1]}"
            )
    return JordanProfile(p=p, blocks=tuple(blocks), plus_rank=plus, minus_rank=minus)


def a_invariant(action: PrimeOrderAction) -> int:
    """a with [Z^n : ker tau + ker sigma] = p^a; equals l_p for order-p actions."""
    p, n = action.p, action.rank
    k_tau = la.kernel_basis(action.tau())
    k_sigma = la.kernel_basis(action.sigma())
    stacked = k_tau + k_sigma
    if len(stacked) != n:
        raise GModuleError("ker tau + ker sigma does not have full rank")
    a = _p_power_log(abs(la.det_bareiss(stacked)), p)
    if a is None:
        raise GModuleError("index of ker tau + ker sigma is not a p-power")
    profile = jordan_profile(action)
    if a != profile.lp:
        raise GModuleError(f"a-invariant {a} disagrees with l_p = {profile.lp}")
    return a


@record
class CohomologyGroup:
    free_rank: int
    torsion: tuple[int, ...]  # invariant factors > 1


def _quotient_group(kernel_rows, image_rows) -> CohomologyGroup:
    """ker/im as an abelian group; image generators must lie in the kernel span."""
    k = len(kernel_rows)
    if k == 0:
        return CohomologyGroup(free_rank=0, torsion=())
    coords = la.integer_coordinates(kernel_rows, image_rows)
    if coords is None:
        raise GModuleError("image generator outside the integer span of the kernel basis")
    if not coords:
        return CohomologyGroup(free_rank=k, torsion=())
    res = la.smith_normal_form(coords)
    diag = [d for d in res.diagonal if d]
    torsion = tuple(d for d in diag if d > 1)
    return CohomologyGroup(free_rank=k - len(diag), torsion=torsion)


def group_cohomology(action: PrimeOrderAction, i: int) -> CohomologyGroup:
    """H^i(G, Z^n) for the cyclic group G of order p.

    i = 0 gives the invariants (free); for i >= 1 the groups are 2-periodic:
    odd i gives ker(sigma)/im(tau), even i gives ker(tau)/im(sigma).  The
    explicit kernel/image computation is cross-checked against the Jordan
    profile formula: (Z/p)^(l_(p-1)) in odd and (Z/p)^(l_1) in even degrees.
    """
    if i < 0:
        raise GModuleError("cohomological degree must be nonnegative")
    tau = action.tau()
    if i == 0:
        return CohomologyGroup(free_rank=len(la.kernel_basis(tau)), torsion=())
    sigma = action.sigma()
    if i % 2:
        group = _quotient_group(la.kernel_basis(sigma), la.image_basis(tau))
    else:
        group = _quotient_group(la.kernel_basis(tau), la.image_basis(sigma))
    profile = jordan_profile(action)
    expected = profile.l_pm1 if i % 2 else profile.l1
    if group.free_rank != 0 or any(d != action.p for d in group.torsion):
        raise GModuleError(f"H^{i} is not p-elementary: {group}")
    if len(group.torsion) != expected:
        raise GModuleError(
            f"H^{i} rank {len(group.torsion)} disagrees with profile value {expected}"
        )
    return group


# --- Reiner building blocks -------------------------------------------------


def companion_cyclotomic(p: int) -> list[list[int]]:
    """Companion matrix of 1 + x + ... + x^(p-1), the action on Z[zeta_p]."""
    n = p - 1
    m = [[0] * n for _ in range(n)]
    for i in range(1, n):
        m[i][i - 1] = 1
    for i in range(n):
        m[i][n - 1] = -1
    return m


def reiner_block(p: int, kind: str, a: int = 1) -> list[list[int]]:
    """Matrix of one indecomposable torsion-free Z[G]-module.

    kind: "trivial" (Z, rank 1), "cyclotomic" (Z[zeta_p], rank p-1), or
    "glued" (the extension (O_K, a) of Z by Z[zeta_p], rank p).  Only class
    number one cyclotomic fields are served (p <= 19).
    """
    if p not in SUPPORTED_PRIMES:
        raise UnsupportedPrime(
            f"building blocks require p <= 19 (class number one); got {p}"
        )
    if kind == "trivial":
        return [[1]]
    if kind == "cyclotomic":
        return companion_cyclotomic(p)
    if kind == "glued":
        if a % p == 0:
            raise GModuleError("glue class must be nonzero mod p")
        c = companion_cyclotomic(p)
        n = p - 1
        m = [row + [0] for row in c]
        m.append([0] * n + [1])
        # phi(u) = u + a * (first basis vector of Z[zeta_p])
        m[0][n] = a
        return m
    raise GModuleError(f"unknown block kind {kind!r}")


def reiner_action(p: int, counts: tuple[int, int, int], glue_classes=None) -> PrimeOrderAction:
    """Direct sum of (trivial, cyclotomic, glued) blocks as an order-p action."""
    t, c, g = counts
    blocks = []
    blocks += [reiner_block(p, "trivial")] * t
    blocks += [reiner_block(p, "cyclotomic")] * c
    glue_classes = list(glue_classes or [1] * g)
    if len(glue_classes) != g:
        raise GModuleError("need one glue class per glued block")
    for a in glue_classes:
        blocks.append(reiner_block(p, "glued", a))
    if not blocks:
        raise GModuleError("empty action")
    return PrimeOrderAction(p=p, phi=direct_sum(blocks))


def k3_order5_action() -> PrimeOrderAction:
    """Order-5 isometry of the K3 lattice with fixed sublattice U + U(5)^2.

    Built as an index-5^4 overlattice of U + U(5)^2 + A4(-1)^4 where the
    isometry is trivial on the first three blocks and a Coxeter element on
    each A4(-1).  Four glue vectors pair the discriminant generators of
    U(5)^2 with A4(-1) dual weights; the result is even unimodular of
    signature (3,19), hence the K3 lattice, and each glue line welds one
    fixed direction to a cyclotomic block (Jordan profile (2,0,0,0,4)).
    The overlattice basis B is kept as the integer matrix 5B.
    """
    from .lattice_core import ATOM_GRAMS, rescale

    u = ATOM_GRAMS["U"]
    a4_neg = rescale(ATOM_GRAMS["A4"], -1)
    gram_m = direct_sum([u, rescale(u, 5), rescale(u, 5)] + [a4_neg] * 4)

    cox = la.identity(4)
    for i in range(4):
        refl = la.identity(4)
        refl[i] = [x - c for x, c in zip(refl[i], ATOM_GRAMS["A4"][i])]
        cox = la.mat_mul(refl, cox)
    phi_m = direct_sum([la.identity(6)] + [cox] * 4)

    # 5 times the dual weight of A4 in root coordinates: 5 Cartan^-1 e_1
    weight5 = (4, 3, 2, 1)
    glue_rows = ((1, 2, 0, 0), (2, 1, 0, 0), (0, 0, 1, 2), (0, 0, 2, 1))
    basis5 = [[5 * x for x in row] for row in la.identity(22)]
    for gi, coeffs in enumerate(glue_rows):
        row = basis5[2 + gi]
        row[2 + gi] = 1
        for b, c in enumerate(coeffs):
            row[6 + 4 * b : 10 + 4 * b] = [c * w for w in weight5]

    gram_25 = la.mat_mul(la.mat_mul(basis5, gram_m), la.transpose(basis5))
    if any(x % 25 for row in gram_25 for x in row):
        raise GModuleError("glue data does not close up integrally")
    gram_l = [[x // 25 for x in row] for row in gram_25]
    # points with new coordinates x sit at B^T x, so phi pulls back through
    # B^T: its transpose is the coordinates of B phi_M^T in the rows of B
    coords = la.integer_coordinates(basis5, la.mat_mul(basis5, la.transpose(phi_m)))
    if coords is None:
        raise GModuleError("glue data does not close up integrally")
    if abs(la.det_bareiss(gram_l)) != 1 or any(gram_l[i][i] % 2 for i in range(22)):
        raise GModuleError("overlattice is not even unimodular")
    return PrimeOrderAction(p=5, phi=la.transpose(coords), gram=gram_l)


# --- symmetric square -------------------------------------------------------


def sym2_action(action: PrimeOrderAction) -> PrimeOrderAction:
    """Induced action on Sym^2 Z^n in the basis e_i.e_j, i <= j (row-major).

    The result is not checked again (`_derived_action`): Sym^2(phi psi) =
    Sym^2(phi) Sym^2(psi), both sending e_i.e_j to (phi psi e_i).(phi psi
    e_j), hence Sym^2(phi)^p = Sym^2(phi^p) = Sym^2(I) = I, as `action`
    passed phi^p = I.  The result carries no Gram matrix.
    """
    n = action.rank
    phi = action.phi
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    index = {pair: k for k, pair in enumerate(pairs)}
    size = len(pairs)
    out = [[0] * size for _ in range(size)]
    # nonzero entries of each column of phi
    cols = [[(a, phi[a][i]) for a in range(n) if phi[a][i]] for i in range(n)]
    for col, (i, j) in enumerate(pairs):
        # phi(e_i . e_j) = sum_{a<=b} coeff e_a.e_b
        for a, x in cols[i]:
            for b, y in cols[j]:
                key = (a, b) if a <= b else (b, a)
                out[index[key]][col] += x * y
    return _derived_action(action.p, out)


def sym2_profile(profile: JordanProfile) -> JordanProfile:
    """Sym^2 Jordan profile from closed formulas (no middle blocks in or out).

    Valid for torsion-free profiles with blocks only in sizes 1, p-1, p.
    For p = 2 the eigenlattice split is propagated exactly.
    """
    p = profile.p
    if profile.middle_blocks():
        raise GModuleError("profile has middle blocks; closed formula unavailable")
    l1, lq, lp = profile.l1, profile.l_pm1, profile.lp
    if p == 2:
        # l1/lq are the +/- eigenlattice ranks and products of eigenvectors
        # multiply signs; each free block Z[G] has
        # Sym^2(Z[G]) = Z(+).(xy) + Z[G].(x^2, y^2).
        plus = l1 * (l1 + 1) // 2 + lq * (lq + 1) // 2 + lp
        minus = l1 * lq
        free = (l1 + lq) * lp + lp * lp
        out = JordanProfile(p=2, blocks=(0, plus + minus, free), plus_rank=plus, minus_rank=minus)
    else:
        new = [0] * (p + 1)
        new[1] = l1 * (l1 + 1) // 2 + lq * (lq - 1) // 2
        new[p - 1] = lq * l1
        new[p] = (
            (p + 1) // 2 * lp
            + p * lp * (lp - 1) // 2
            + (p - 1) // 2 * lq
            + (p - 1) * lp * lq
            + lp * l1
            + (p - 2) * lq * (lq - 1) // 2
        )
        out = JordanProfile(p=p, blocks=tuple(new))
    n = profile.rank
    if out.rank != n * (n + 1) // 2:
        raise GModuleError(f"Sym^2 rank mismatch: {out.rank} != {n * (n + 1) // 2}")
    return out


def conjugate(action: PrimeOrderAction, unimodular) -> PrimeOrderAction:
    """Change of basis: returns W^-1 phi W (gram transported if present).

    W is square of the action's rank and W^-1 is exact: the integer C with
    C W = I.  The result is not checked again (`_derived_action`):
    (W^-1 phi W)^p = W^-1 phi^p W = I and (W^-1 phi W)^T (W^T G W)
    (W^-1 phi W) = W^T phi^T G phi W = W^T G W, as `action` passed
    phi^p = I and phi^T G phi = G.
    """
    n = action.rank
    if len(unimodular) != n or any(len(row) != n for row in unimodular):
        raise GModuleError(f"conjugating matrix must be {n}x{n}")
    try:
        winv = la.integer_coordinates(unimodular, la.identity(n))
    except ValueError:  # singular
        winv = None
    if winv is None:  # W^-1 is integral exactly when det W = +-1
        raise GModuleError("conjugating matrix must be unimodular")
    phi = la.mat_mul(la.mat_mul(winv, action.phi), unimodular)
    gram = None
    if action.gram is not None:
        gram = la.mat_mul(la.mat_mul(la.transpose(unimodular), action.gram), unimodular)
    return _derived_action(action.p, phi, gram)


def zero_profile(p: int) -> JordanProfile:
    """Profile of the zero module (a vanishing cohomology group)."""
    if p == 2:
        return JordanProfile(p=2, blocks=(0, 0, 0), plus_rank=0, minus_rank=0)
    return JordanProfile(p=p, blocks=(0,) * (p + 1))


def trivial_profile(p: int) -> JordanProfile:
    """Profile of Z with the trivial action (H^0 and the top degree)."""
    if p == 2:
        return JordanProfile(p=2, blocks=(0, 1, 0), plus_rank=1, minus_rank=0)
    blocks = [0] * (p + 1)
    blocks[1] = 1
    return JordanProfile(p=p, blocks=tuple(blocks))


@record
class CohomologyProfile:
    """Degreewise Jordan profiles of an order-p action on H^*(X, Z).

    dimension is the complex dimension of X, so degrees run from 0 to
    2*dimension.  Degree 0 and the top degree always carry the trivial
    rank-1 module, and total ranks obey Poincare symmetry.  The accessors
    l1/l_pm1 forward to `JordanProfile`, which reads the eigenlattice split
    for p = 2.
    """

    dimension: int
    profiles: tuple[JordanProfile, ...]
    torsion_free: bool = True

    def __post_init__(self):
        object.__setattr__(self, "profiles", tuple(self.profiles))
        if self.dimension < 1:
            raise GModuleError("dimension must be positive")
        if len(self.profiles) != 2 * self.dimension + 1:
            raise GModuleError(
                f"need {2 * self.dimension + 1} degree profiles, got {len(self.profiles)}"
            )
        p = self.profiles[0].p
        if any(jp.p != p for jp in self.profiles):
            raise GModuleError("all degrees must share the same prime")
        for k in (0, 2 * self.dimension):
            end = self.profiles[k]
            if end.rank != 1 or end.l1 != 1:
                raise GModuleError(f"degree {k} must be the trivial rank-1 module")
        for k in range(2 * self.dimension + 1):
            if self.profiles[k].rank != self.profiles[2 * self.dimension - k].rank:
                raise GModuleError(f"Poincare rank symmetry fails in degree {k}")

    @classmethod
    def from_degrees(
        cls,
        p: int,
        dimension: int,
        degrees: dict[int, JordanProfile],
        torsion_free: bool = True,
    ) -> "CohomologyProfile":
        """Build a full table from the nonzero degrees; the rest vanish.

        Degrees 0 and 2*dimension default to the trivial module and may be
        omitted.
        """
        top = 2 * dimension
        filled = []
        for k in range(top + 1):
            if k in degrees:
                filled.append(degrees[k])
            elif k in (0, top):
                filled.append(trivial_profile(p))
            else:
                filled.append(zero_profile(p))
        return cls(dimension=dimension, profiles=tuple(filled), torsion_free=torsion_free)

    @property
    def p(self) -> int:
        return self.profiles[0].p

    def profile(self, k: int) -> JordanProfile:
        if not 0 <= k <= 2 * self.dimension:
            raise GModuleError(f"degree {k} out of range 0..{2 * self.dimension}")
        return self.profiles[k]

    def rank(self, k: int) -> int:
        return self.profile(k).rank

    def l1(self, k: int) -> int:
        return self.profile(k).l1

    def l_pm1(self, k: int) -> int:
        return self.profile(k).l_pm1

    def lp(self, k: int) -> int:
        return self.profile(k).lp

    def invariant_rank(self, k: int) -> int:
        return self.lp(k) + self.l1(k)


def free_torsion_rank(cp: CohomologyProfile, k: int) -> int:
    """p-torsion rank of H^k of the quotient by a free action.

    Each degree d < k contributes l_(p-1)^d when k - d is odd and l_1^d
    when it is even: for k = 2m that is sum_(i<m) l_(p-1)^(2i+1) +
    sum_(i<m) l_1^(2i), for k = 2m+1 it is sum_(i<=m) l_(p-1)^(2i) +
    sum_(i<m) l_1^(2i+1) (p = 2 uses the sign split throughout).
    """
    return sum(cp.l_pm1(d) if (k - d) % 2 else cp.l1(d) for d in range(k))


def vanishing_conditions(cp: CohomologyProfile, top: int) -> tuple[bool, bool]:
    """(no size-(p-1) blocks in even degrees 2..top, no size-1 blocks in odd
    degrees below top).

    These replace degeneration of the equivariant spectral sequence over Z
    up to degree top; p = 2 reads the sign split as usual.  The odd
    condition applies at top = 2 too: a size-1 block in H^1 lets d_2 hit
    E_2^(2,0), as in every free action on a torus (Charlap, Bieberbach
    Groups and Flat Manifolds, 1986).
    """
    even_ok = all(cp.l_pm1(d) == 0 for d in range(2, top + 1, 2))
    odd_ok = all(cp.l1(d) == 0 for d in range(1, top, 2))
    return even_ok, odd_ok


def free_quotient_cohomology(
    cp: CohomologyProfile, k: int, e2_degenerate_over_z: bool = False
) -> CohomologyGroup:
    """H^k(X/G, Z) for a free order-p action with torsion-free H^*(X, Z).

    The free rank is the invariant rank in degree k and the p-torsion rank
    is free_torsion_rank(cp, k).  The caller either asserts degeneration of
    the equivariant spectral sequence over Z, or the vanishing conditions
    that replace it must hold up to degree k (up to k - 1 for odd k, where
    they make free_torsion_rank vanish); otherwise HypothesesNotMet.
    """
    if not 0 <= k <= 2 * cp.dimension:
        raise GModuleError(f"degree {k} out of range 0..{2 * cp.dimension}")
    if not cp.torsion_free:
        raise HypothesesNotMet("H^*(X, Z) must be torsion-free")
    # both conditions only tighten as top grows, so an odd k is covered
    # exactly when the even degree k - 1 below it is
    if not (e2_degenerate_over_z or all(vanishing_conditions(cp, k - k % 2))):
        raise HypothesesNotMet(
            f"degree {k}: no degeneration flag and the vanishing conditions fail"
        )
    return CohomologyGroup(free_rank=cp.invariant_rank(k), torsion=(cp.p,) * free_torsion_rank(cp, k))
