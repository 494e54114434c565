"""Command line front end.

Subcommands cover the lattice utilities (`lattice`, `snf`, `jordan`), the
scenario-driven certificates (`normality`, `quotient`), the toric weight
computations (`weight`, `weight2d`), the Hilbert-square ring (`hilb2`),
and the catalog verifier (`verify-paper`).  Scenario tokens are catalog
names, aliases, or paths to JSON files; the bundled catalog directory can
be overridden with the QUOTLAT_CATALOG environment variable.

This module parses arguments and prints; what a scenario's quotient is,
which certificates it runs and how the catalog is verified is decided in
`scenario`.  `lattice`, `normality` and `quotient` compute everything
before they print, so a run of them that fails (exit 2) writes nothing to
stdout.

Output is deterministic: two runs on the same inputs emit identical
bytes.  Exit status is 0 only when every requested check passes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .gmodule import GModuleError, PrimeOrderAction, jordan_profile
from .hilb2_ring import (
    SIGMA,
    H2Class,
    HilbertSquare,
    h2_primitivity_certificate,
    s_lattice_gram,
)
from .lattice_core import (
    GramLattice,
    LatticeError,
    _is_prime,
    invariant_summary,
    parse_lattice_expr,
    smith_normal_form,
)
from .normality import UNKNOWN, NormalityError
from .scenario import Scenario, catalog_verify, find_scenario, run_normality, run_route, scenario_quotient
from .toric_weight import ClassificationFailure, canonical_exponents, point_type, weight_dim2, weight_lookup


def prime(token: str) -> int:
    """argparse type for an order: an integer that is prime."""
    p = int(token)
    if not _is_prime(p):
        raise argparse.ArgumentTypeError(f"{p} is not prime")
    return p


def _read_matrix(path: str) -> list[list[int]]:
    """Integer matrix from a JSON file: a row list or {"gram"/"matrix": rows}."""
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict):
        data = data.get("gram", data.get("matrix"))
    if not isinstance(data, list) or not data:
        raise ValueError(f"{path}: expected a JSON list of rows")
    for row in data:
        # type() and not isinstance(): JSON true and false are bools, not integers
        if not isinstance(row, list) or not all(type(x) is int for x in row):
            raise ValueError(f"{path}: rows must be lists of integers")
    if not data[0] or any(len(row) != len(data[0]) for row in data):
        raise ValueError(f"{path}: rows must be nonempty and of equal length")
    return data


def _read_lattice(token: str) -> GramLattice:
    """A lattice expression, or a path to a JSON Gram matrix."""
    try:
        is_path = token.endswith(".json") or Path(token).exists()
    except OSError:  # not a name the file system takes, e.g. over 255 bytes
        is_path = False
    if is_path:
        return GramLattice(_read_matrix(token), name=Path(token).stem)
    return parse_lattice_expr(token)


def _fmt_matrix(rows, indent: str = "  ") -> str:
    cells = [[str(x) for x in row] for row in rows]
    widths = [max(len(r[j]) for r in cells) for j in range(len(cells[0]))]
    return "\n".join(
        indent + "[" + " ".join(c.rjust(w) for c, w in zip(row, widths)) + "]"
        for row in cells
    )


def _aligned(rows: list[list[str]]) -> list[str]:
    widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
    return [
        "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in rows
    ]


def _invariant_lines(lat: GramLattice) -> list[str]:
    inv = invariant_summary(lat)
    pos, neg = inv.signature
    return [
        f"rank               {inv.rank}",
        f"determinant        {inv.determinant}",
        f"signature          ({pos}, {neg})",
        f"discriminant group {inv.discriminant_group}",
    ]


def _print_lines(lines) -> None:
    for line in lines:
        print(line)


def cmd_lattice(args) -> int:
    lat = _read_lattice(args.lattice)
    invariants = _invariant_lines(lat) if args.invariants else []
    if lat.name:
        print(f"lattice {lat.name}")
    print(_fmt_matrix(lat.gram))
    _print_lines(invariants)
    return 0


def cmd_snf(args) -> int:
    a = _read_matrix(args.file)
    u, d, v = smith_normal_form(a)
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    print(f"elementary divisors {diag}")
    print("D =")
    print(_fmt_matrix(d))
    print("U =")
    print(_fmt_matrix(u))
    print("V =")
    print(_fmt_matrix(v))
    return 0


def cmd_jordan(args) -> int:
    phi = _read_matrix(args.matrix)
    action = PrimeOrderAction(args.prime, phi)
    profile = jordan_profile(action)
    print(f"p = {args.prime}, rank {len(phi)}")
    print("  ".join(f"l_{q} = {profile.blocks[q]}" for q in range(1, args.prime + 1)))
    if args.prime == 2:
        print(f"plus rank = {profile.plus_rank}  minus rank = {profile.minus_rank}")
    print(f"invariant rank = {profile.invariant_rank}")
    return 0


def _scenario_header(s: Scenario) -> None:
    print(f"scenario {s.name} (p = {s.prime}, dimension {s.complex_dimension})")
    if s.description:
        print(f"  {s.description}")


def cmd_normality(args) -> int:
    s = find_scenario(args.scenario)
    if args.criterion == "auto":
        reports = run_normality(s)
    else:
        report = run_route(s, "weights" if args.criterion == "maintori" else args.criterion)
        reports = {report.degree: report}
    _scenario_header(s)
    if not reports:
        print("no certificate routes declared for this scenario")
        return 0
    ok = True
    for k in sorted(reports):
        report = reports[k]
        _print_lines(report.lines())
        want = s.expected.verdicts.get(k)
        if want is not None and report.verdict != want:
            print(f"  MISMATCH: expected {want}")
            ok = False
        if report.verdict == UNKNOWN:
            ok = False
    return 0 if ok else 1


def cmd_quotient(args) -> int:
    s = find_scenario(args.scenario)
    q = scenario_quotient(s)
    if q is None and s.kind == "reference":
        lines = ["reference row with no declared quotient lattice"]
    elif q is None and s.invariant is None:
        lines = ["no invariant lattice declared; nothing to compute"]
    elif q is None:
        lines = ["no glue recipe declared; quotient lattice not computed"]
    elif s.kind == "reference":
        lines = ["declared quotient lattice (reference row, not recomputed):", _fmt_matrix(q.gram.gram)]
        if s.expected.fujiki_constant is not None:
            lines.append(f"declared Fujiki constant C = {s.expected.fujiki_constant}")
    else:
        title = "middle-degree lattice (dual rescaled by p)" if q.bb is None else "Beauville-Bogomolov lattice"
        lines = [f"quotient {title}:", _fmt_matrix(q.gram.gram), *_invariant_lines(q.gram)]
        if q.bb is not None:
            lines += [
                f"Fujiki constant    C = {q.bb.fujiki_constant}",
                f"pushforward index  p^{q.bb.index_log}",
                f"rescaling          lambda = {q.bb.scale}",
            ]
        lines += q.match.lines() if q.match is not None else []
    _scenario_header(s)
    _print_lines(lines)
    return 0 if q is None or q.match is None or q.match.passed else 1


def cmd_weight(args) -> int:
    exps = tuple(args.exponents)
    w = weight_lookup(args.prime, exps)
    canon = canonical_exponents(args.prime, tuple(k % args.prime for k in exps))
    t = point_type(args.prime, exps)
    pretty = ",".join(str(k) for k in exps)
    print(f"point 1/{args.prime}({pretty})")
    print(f"canonical exponents {canon}")
    print(f"type {'-' if t is None else t}")
    print(f"weight {w}")
    return 0 if w.exact is not None else 1


def cmd_weight2d(args) -> int:
    result = weight_dim2(args.p, args.q)
    print(f"point 1/{args.p}(1,{args.q})")
    print(f"weight {result.weight}")
    print(f"case {result.case}")
    print(f"HJ {list(result.hj)}")
    return 0


def _parse_class(token: str, n: int) -> H2Class:
    parts = [x.strip() for x in token.split(",")]
    coords = [int(x) for x in parts]
    if len(coords) != n + 1:
        raise ValueError(
            f"class {token!r} has {len(coords)} coordinates, expected {n} "
            f"gamma coordinates plus the delta coefficient"
        )
    return H2Class(tuple(coords[:-1]), coords[-1])


def _fmt_h4(hilb: HilbertSquare, cls) -> str:
    terms = []
    for c, label in zip(cls.coords, hilb.h4_basis_labels()):
        if not c:
            continue
        mag = "" if abs(c) == 1 else f"{abs(c)}*"
        terms.append(("- " if c < 0 else "+ ") + mag + label)
    if not terms:
        return "0"
    head = terms[0][2:] if terms[0].startswith("+ ") else "-" + terms[0][2:]
    return " ".join([head, *terms[1:]])


def cmd_hilb2(args) -> int:
    lat = _read_lattice(args.gram)
    hilb = HilbertSquare(lat)
    if args.classes:
        classes = [_parse_class(tok, hilb.n) for tok in args.classes]
    else:
        classes = [hilb.gamma(0), hilb.gamma(1)]
        print("no classes given; using the first hyperbolic pair gamma_0, gamma_1")
    names = [f"x{i + 1}" for i in range(len(classes))]
    print(f"H^2 rank {hilb.h2_rank()}, H^4 rank {hilb.h4_rank}")
    print("Beauville-Bogomolov pairings:")
    bb = [[hilb.bb(x, y) for y in classes] for x in classes]
    print(_fmt_matrix(bb))
    keys = [(i, j) for i in range(len(classes)) for j in range(i, len(classes))]
    for i, j in keys:
        print(f"{names[i]}.{names[j]} = {_fmt_h4(hilb, hilb.cup(classes[i], classes[j]))}")
    labels = [f"{names[i]}.{names[j]}" for i, j in keys] + ["sigma"]
    monomials = [(classes[i], classes[j]) for i, j in keys] + [SIGMA]
    print("top pairings of the products and sigma:")
    table = [[""] + labels]
    for label, a in zip(labels, monomials):
        table.append([label] + [str(hilb.pair_monomials(a, b)) for b in monomials])
    _print_lines(_aligned(table))
    if len(classes) == 2:
        gram = s_lattice_gram(hilb, classes[0], classes[1])
        det = GramLattice(gram).determinant
        print("S-lattice Gram on (d^2, x1.x2, sigma, x1^2, x2^2, x1.d, x2.d):")
        print(_fmt_matrix(gram))
        print(f"S-lattice determinant {det}")
        if args.prime:
            ok, bad = h2_primitivity_certificate(gram, args.prime)
            verdict = "passes" if ok else f"fails at {bad}"
            print(f"norm-pairing certificate at p = {args.prime}: {verdict}")
            return 0 if ok else 1
    return 0


def cmd_verify(args) -> int:
    results = catalog_verify(args.filter)
    if not results:
        print(f"no catalog row matches {args.filter!r}", file=sys.stderr)
        return 2
    if args.format == "json":
        payload = {
            "passed": all(r.passed for r in results),
            "rows": [
                {
                    "name": r.name,
                    "kind": r.scenario.kind,
                    "prime": r.scenario.prime,
                    "passed": r.passed,
                    "checks": [
                        {"name": n, "got": got, "want": want, "ok": ok}
                        for n, got, want, ok in r.checks
                    ],
                    "notes": list(r.notes),
                }
                for r in results
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        table = [["name", "kind", "p", "checks", "C", "status"]]
        for r in results:
            s = r.scenario
            n_ok = sum(1 for *_, ok in r.checks if ok)
            c = s.expected.fujiki_constant
            table.append(
                [
                    s.name,
                    s.kind,
                    str(s.prime),
                    f"{n_ok}/{len(r.checks)}",
                    "-" if c is None else str(c),
                    "pass" if r.passed else "FAIL",
                ]
            )
        _print_lines(_aligned(table))
        for r in results:
            if not r.passed:
                print()
                _print_lines(r.lines())
        n_pass = sum(1 for r in results if r.passed)
        print(f"{n_pass}/{len(results)} rows pass")
    first_fail = next((r.name for r in results if not r.passed), None)
    if first_fail is not None:
        print(f"first failing row: {first_fail}", file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quotlat",
        description="Exact integral cohomology lattices of prime-order quotients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="parse a lattice expression or Gram file")
    p.add_argument("lattice", help="expression like 'U + A2^2 + (-2)' or a JSON file")
    p.add_argument("--invariants", action="store_true", help="print rank, det, signature, discriminant group")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("snf", help="Smith normal form of an integer matrix")
    p.add_argument("file", help="JSON file with the matrix rows")
    p.set_defaults(func=cmd_snf)

    p = sub.add_parser("jordan", help="Jordan block profile of an order-p action")
    p.add_argument("--matrix", required=True, help="JSON file with the action matrix")
    p.add_argument("--prime", required=True, type=prime)
    p.set_defaults(func=cmd_jordan)

    p = sub.add_parser("normality", help="run normality certificates on a scenario")
    p.add_argument("scenario", help="catalog name, alias, or JSON file path")
    p.add_argument(
        "--criterion",
        choices=("auto", "main", "th3", "maintori", "surface", "simple"),
        default="auto",
        help="auto follows the scenario's declared routes",
    )
    p.set_defaults(func=cmd_normality)

    p = sub.add_parser("quotient", help="compute the quotient lattice of a scenario")
    p.add_argument("scenario", help="catalog name, alias, or JSON file path")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("weight", help="weight of an isolated fixed point")
    p.add_argument("--exponents", required=True, type=int, nargs="+")
    p.add_argument("--prime", required=True, type=prime)
    p.set_defaults(func=cmd_weight)

    p = sub.add_parser("weight2d", help="dimension-2 weight with its toric data")
    p.add_argument("p", type=prime)
    p.add_argument("q", type=int)
    p.set_defaults(func=cmd_weight2d)

    p = sub.add_parser("hilb2", help="Hilbert-square cup products and pairings")
    p.add_argument("classes", nargs="*", help="H^2 classes: gamma coordinates then the delta coefficient, comma separated")
    p.add_argument("--gram", default="U^3 + E8(-1)^2", help="K3 Gram: expression or JSON file (default U^3 + E8(-1)^2)")
    p.add_argument("--prime", type=prime, help="run the norm-pairing certificate at this prime (two classes)")
    p.set_defaults(func=cmd_hilb2)

    p = sub.add_parser("verify-paper", help="recompute every catalog table row")
    p.add_argument("--filter", help="substring matched against names and aliases")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        LatticeError,
        GModuleError,
        NormalityError,
        ClassificationFailure,
        ValueError,
        KeyError,
        OSError,
        RecursionError,
    ) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
