"""Seeded inputs, operations and correctness gates of the benchmark workloads.

Every workload yields its operations in rounds.  A round holds a fixed mix of
operation classes whose inputs are drawn from the seed, so two seeds run the
same mix on different inputs; the run ends on a round boundary.

- catalog: one `verify-paper --format json` process per op (the seed is unused).
- lookup:  one single-query CLI process per op: 3 `quotient <row>`,
           3 `normality <row>`, 1 `weight`, 1 `weight2d`, 1 `lattice ... --invariants`.
- sym2:    in process, PrimeOrderAction -> sym2_action -> jordan_profile on an
           order-p action built from Reiner blocks, block-diagonal (sparse) or
           conjugated by a unimodular matrix (dense), for p in 2, 3, 5, 7, 11.
- snf:     in process, lattice_core.smith_normal_form on an integer matrix
           with entries in [-9, 9], n from 8 to 40, some non-square or
           rank-deficient.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

from tracer import ROWS

CLI_WORKLOADS = ("catalog", "lookup")
WORKLOADS = CLI_WORKLOADS + ("sym2", "snf")


# ---- CLI workloads ---------------------------------------------------------


@dataclass(frozen=True)
class CliOp:
    argv: tuple[str, ...]
    expect_rc: int

    def __str__(self) -> str:
        return " ".join(self.argv)


CATALOG_OP = CliOp(("verify-paper", "--format", "json"), 0)

# normality M5 routes through HilbertSquare.h4_gram, which catalog measures
NORMALITY_ROWS = tuple(r for r in ROWS if r != "M5")

# isolated points of dimension > 2 and their exit codes: 0 when the weight is
# known exactly, 1 when only the interval [0, 2] is known
HIGHER_WEIGHTS = (
    ((3, (1, 1, 1, 1)), 0),
    ((5, (1, 1, 4, 4)), 0),
    ((5, (1, 1, 1, 2)), 0),
    ((5, (1, 2, 3, 4)), 0),
    ((7, (1, 1, 1)), 0),
    ((7, (1, 1, 2)), 1),
    ((7, (1, 2, 3, 4)), 1),
    ((11, (1, 2, 2)), 1),
)

LATTICE_ATOMS = {"U": 2, "A2": 2, "A4": 4, "E6": 6, "E8": 8, "H5": 2, "K7": 2, "K19": 2, "L17": 4}
LATTICE_MAX_RANK = 24


def _weight_op(rng: random.Random) -> CliOp:
    if rng.random() < 0.5:
        p = rng.choice((3, 5, 7, 11, 13))
        exps = (1, rng.randrange(1, p))
        rc = 0
    else:
        (p, exps), rc = rng.choice(HIGHER_WEIGHTS)
    return CliOp(("weight", "--exponents", *map(str, exps), "--prime", str(p)), rc)


def _lattice_expr(rng: random.Random) -> str:
    terms = []
    rank = 0
    for _ in range(rng.randint(2, 4)):
        if rng.random() < 0.15:
            atom, size = f"({rng.choice((-1, 1)) * rng.randint(1, 12)})", 1
        else:
            atom = rng.choice(sorted(LATTICE_ATOMS))
            size = LATTICE_ATOMS[atom]
            if rng.random() < 0.4:
                atom += f"({rng.choice((-1, 1)) * rng.randint(1, 5)})"
        power = rng.randint(2, 3) if rng.random() < 0.4 else 1
        if rank + size * power > LATTICE_MAX_RANK:
            continue
        rank += size * power
        terms.append(atom if power == 1 else f"{atom}^{power}")
    return " + ".join(terms)


def cli_round(workload: str, rng: random.Random) -> list[CliOp]:
    if workload == "catalog":
        return [CATALOG_OP]
    ops = [CliOp(("quotient", rng.choice(ROWS)), 0) for _ in range(3)]
    ops += [CliOp(("normality", rng.choice(NORMALITY_ROWS)), 0) for _ in range(3)]
    ops.append(_weight_op(rng))
    p = rng.choice((3, 5, 7, 11, 13, 17, 19))
    ops.append(CliOp(("weight2d", str(p), str(rng.randrange(1, p))), 0))
    ops.append(CliOp(("lattice", _lattice_expr(rng), "--invariants"), 0))
    rng.shuffle(ops)
    return ops


def check_cli(workload: str, op: CliOp, rc: int, out: bytes, seen: dict) -> str | None:
    """None when the op's output passes the gate, else the reason it fails."""
    if rc != op.expect_rc:
        return f"exit {rc}, expected {op.expect_rc}"
    first = seen.setdefault(op.argv, out)
    if first != out:
        return "output differs from an earlier run of the same command"
    if workload == "catalog":
        try:
            payload = json.loads(out)
        except ValueError:
            return "output is not JSON"
        names = tuple(row.get("name") for row in payload.get("rows", ()))
        if payload.get("passed") is not True:
            return "verify-paper reports a failing row"
        if names != ROWS:
            return f"expected the 18 catalog rows, got {names}"
    elif b"MISMATCH" in out:
        return "normality output has a MISMATCH line"
    return None


# ---- sym2 ------------------------------------------------------------------

# (p, base rank of the block-diagonal action, base rank of the conjugated one)
SYM2_CLASSES = ((2, 13, 10), (3, 13, 12), (5, 12, 11), (7, 11, 11), (11, 11, 10))
# chance of a +-1 below the diagonal of each unit triangular factor of the
# conjugating matrix; the dense actions' Sym^2 then has a median of 75-95%
# nonzeros, depending on p
DENSE_FILL = 0.4


def _companion(p: int) -> list[list[int]]:
    # action of a generator on Z[zeta_p]: companion of 1 + x + ... + x^(p-1)
    n = p - 1
    m = [[0] * n for _ in range(n)]
    for i in range(1, n):
        m[i][i - 1] = 1
    for i in range(n):
        m[i][n - 1] = -1
    return m


def _glued(p: int, a: int) -> list[list[int]]:
    # the extension (O_K, a) of Z by Z[zeta_p], a free Z[G]-module for a != 0
    n = p - 1
    m = [row + [0] for row in _companion(p)]
    m.append([0] * n + [1])
    m[0][n] = a
    return m


def _block_diag(blocks) -> list[list[int]]:
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off : off + len(row)] = row
        off += len(b)
    return out


def _compositions(p: int, n: int) -> list[tuple[int, int, int]]:
    """(trivial, cyclotomic, glued) block counts of total rank n.

    G acts nontrivially, and for p = 2 both eigenvalues +1 (t + g) and -1
    (c + g) have multiplicity at least 3: an action that is +-1 plus a
    low-rank term stays sparse under any conjugation.
    """
    out = []
    for g in range(n // p + 1):
        for c in range((n - p * g) // (p - 1) + 1):
            t = n - p * g - (p - 1) * c
            if c + g and (p > 2 or min(t + g, c + g) >= 3):
                out.append((t, c, g))
    return out


def _transpose(m):
    return [list(col) for col in zip(*m)]


def _unit_lower(n: int, rng: random.Random) -> list[list[int]]:
    return [
        [1 if i == j else rng.choice((-1, 1)) if i > j and rng.random() < DENSE_FILL else 0 for j in range(n)]
        for i in range(n)
    ]


def _inverse_unit_lower(low) -> list[list[int]]:
    # forward substitution; a unit triangular integer matrix has an integral inverse
    n = len(low)
    x = [[int(i == j) for j in range(n)] for i in range(n)]
    for j in range(n):
        for i in range(j + 1, n):
            x[i][j] = -sum(low[i][k] * x[k][j] for k in range(j, i))
    return x


def _conjugate_dense(phi, rng: random.Random) -> list[list[int]]:
    """W^-1 phi W for a seeded unimodular W = L U with unit triangular factors."""
    n = len(phi)
    low, up_t = _unit_lower(n, rng), _unit_lower(n, rng)
    w = _mat_mul(low, _transpose(up_t))
    w_inv = _mat_mul(_transpose(_inverse_unit_lower(up_t)), _inverse_unit_lower(low))
    return _mat_mul(_mat_mul(w_inv, phi), w)


@dataclass(frozen=True)
class Sym2Op:
    p: int
    phi: tuple[tuple[int, ...], ...]
    counts: tuple[int, int, int]
    dense: bool

    def __str__(self) -> str:
        return f"sym2 p={self.p} rank={len(self.phi)} {'dense' if self.dense else 'sparse'} blocks={self.counts}"

    def run(self):
        from quotlat.gmodule import PrimeOrderAction, jordan_profile, sym2_action

        return jordan_profile(sym2_action(PrimeOrderAction(self.p, self.phi)))

    def check(self, profile) -> str | None:
        from quotlat.gmodule import JordanProfile, sym2_profile

        p, (t, c, g) = self.p, self.counts
        if p == 2:
            base = JordanProfile(p=2, blocks=(0, t + c, g), plus_rank=t, minus_rank=c)
        else:
            blocks = [0] * (p + 1)
            blocks[1], blocks[p - 1], blocks[p] = t, c, g
            base = JordanProfile(p=p, blocks=tuple(blocks))
        want = sym2_profile(base)
        if profile != want:
            return f"Sym^2 profile {profile} != closed form {want}"
        return None


def sym2_round(rng: random.Random) -> list[Sym2Op]:
    ops = []
    for p, sparse_rank, dense_rank in SYM2_CLASSES:
        for dense, n in ((False, sparse_rank), (True, dense_rank)):
            t, c, g = rng.choice(_compositions(p, n))
            blocks = [[[1]]] * t + [_companion(p)] * c + [_glued(p, rng.randrange(1, p)) for _ in range(g)]
            phi = _block_diag(blocks)
            if dense:
                phi = _conjugate_dense(phi, rng)
            ops.append(Sym2Op(p, tuple(map(tuple, phi)), (t, c, g), dense))
    rng.shuffle(ops)
    return ops


# ---- snf -------------------------------------------------------------------

# (rows, columns, rank); the rank-deficient ones repeat rows up to sign
SNF_CLASSES = (
    (8, 8, 8), (12, 12, 12), (16, 16, 16), (20, 20, 20), (24, 24, 24),
    (28, 28, 28), (32, 32, 32), (36, 36, 36), (40, 40, 40),
    (16, 28, 16), (36, 20, 20), (24, 24, 16), (40, 40, 32),
)
MERSENNE61 = (1 << 61) - 1


def _snf_matrix(rng: random.Random, m: int, n: int, r: int) -> list[list[int]]:
    rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(min(m, r))]
    while len(rows) < m:
        src = rng.choice(rows[:r])
        rows.append([-x for x in src] if rng.random() < 0.5 else list(src))
    rng.shuffle(rows)
    return rows


def _mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _det_exact(a) -> int:
    # fraction-free Bareiss elimination
    m = [list(row) for row in a]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def _det_mod(a, p: int) -> int:
    m = [[x % p for x in row] for row in a]
    n = len(m)
    det = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det = det * m[k][k] % p
        inv = pow(m[k][k], -1, p)
        for i in range(k + 1, n):
            f = m[i][k] * inv % p
            if f:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[k])]
    return det % p


@dataclass(frozen=True)
class SnfOp:
    matrix: tuple[tuple[int, ...], ...]

    def __str__(self) -> str:
        return f"snf {len(self.matrix)}x{len(self.matrix[0])}"

    def run(self):
        from quotlat.lattice_core import smith_normal_form

        return smith_normal_form(self.matrix)

    def check(self, result) -> str | None:
        u, d, v = result
        a = self.matrix
        m, n = len(a), len(a[0])
        if _mat_mul(_mat_mul(u, a), v) != [list(row) for row in d]:
            return "U*A*V != D"
        diag = [d[i][i] for i in range(min(m, n))]
        if any(d[i][j] for i in range(m) for j in range(n) if i != j):
            return "D is not diagonal"
        if any(x < 0 for x in diag) or any(y % x if x else y for x, y in zip(diag, diag[1:])):
            return f"diagonal {diag} is not a nonnegative divisibility chain"
        for name, t in (("U", u), ("V", v)):
            if _det_mod(t, MERSENNE61) not in (1, MERSENNE61 - 1):
                return f"{name} is not unimodular"
        if m == n and abs(_det_exact(a)) != math.prod(diag):
                return "|det A| != product of the elementary divisors"
        return None


def snf_round(rng: random.Random) -> list[SnfOp]:
    ops = [SnfOp(tuple(map(tuple, _snf_matrix(rng, m, n, r)))) for m, n, r in SNF_CLASSES]
    rng.shuffle(ops)
    return ops


def rounds(workload: str, seed: int):
    """Endless stream of rounds of ops for the workload and seed."""
    rng = random.Random(f"quotlat-bench/{workload}/{seed}")
    make = {"sym2": sym2_round, "snf": snf_round}.get(workload)
    while True:
        yield cli_round(workload, rng) if make is None else make(rng)
