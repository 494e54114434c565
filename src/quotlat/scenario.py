"""Scenario records: one quotient X/G with everything the checkers need.

A scenario is a JSON record carrying the prime, the degreewise Jordan
profiles of the action on H^*(X, Z), the fixed locus, the invariant
lattice with its glue recipe, the certificate route per degree, and the
expected table row (quotient lattice, Fujiki constant, Betti numbers,
fixed point count, verdicts).  The bundled catalog covers the K3 and
torus surface quotients, the Hilbert-square fourfold quotients, and the
blow-up counterexample; `load_catalog` reads it.  Every decision about a
scenario is made here: `scenario_quotient` builds its quotient lattice,
`ROUTE_NEEDS` says what each certificate route reads, `run_normality` and
`run_route` run the certificates, and `verify_scenario` and the catalog
verifier `catalog_verify` recompute table rows; `cli` only prints them.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from pathlib import Path

from ._record import factory, record, replace
from .gmodule import (
    CohomologyProfile,
    JordanProfile,
    _is_prime,
    sym2_profile,
)
from .hilb2_ring import HilbertSquare, h2_primitivity_certificate, s_lattice_gram
from .lattice_core import (
    ATOM_GRAMS,
    GramLattice,
    LatticeError,
    direct_sum,
    dual_rescaled,
    parse_lattice_expr,
)
from .normality import (
    NORMAL,
    NOT_NORMAL,
    UNKNOWN,
    FixedComponent,
    FixedLocusSummary,
    FixedPointLocal,
    NormalityReport,
    betti_quotient,
    check_maintori,
    check_simple_criteria,
    check_surface,
    check_th3,
    check_theorem_main,
    isolated_points,
    propagate_power,
    surface_fix_count,
)
from .quotient_lattice import (
    GlueSpec,
    MatchResult,
    QuotientResult,
    bb_quotient,
    find_glue,
    lattices_match,
    quotient_middle_lattice,
)
from .toric_weight import WeightValue

__all__ = [
    "KINDS",
    "ROUTES",
    "ROUTE_TABLE",
    "ROUTE_NEEDS",
    "SchemaError",
    "ConsistencyError",
    "UnknownScenario",
    "Expected",
    "Scenario",
    "ScenarioQuotient",
    "RowCheck",
    "load_scenario",
    "load_catalog",
    "catalog_dir",
    "find_scenario",
    "run_normality",
    "run_route",
    "scenario_quotient",
    "verify_scenario",
    "catalog_verify",
]

KINDS = ("surface", "torus", "fourfold", "reference", "counterexample")

class SchemaError(ValueError):
    """A scenario record violates the schema; path points at the field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class ConsistencyError(ValueError):
    """Fields are individually valid but contradict each other."""


class UnknownScenario(KeyError):
    pass


@record
class Expected:
    """Declared table row a scenario is checked against."""

    quotient: GramLattice | None = None
    quotient_exact_gram: tuple[tuple[int, ...], ...] | None = None
    fujiki_constant: int | None = None
    betti: tuple[int, ...] | None = None
    fix_count: int | None = None
    verdicts: dict[int, str] = factory(dict)
    alpha: dict[int, tuple[int, int]] = factory(dict)
    witness: str | None = None


@record
class Scenario:
    name: str
    kind: str
    prime: int
    complex_dimension: int
    aliases: tuple[str, ...] = ()
    description: str = ""
    source: str = ""
    profile: CohomologyProfile | None = None
    fixed_locus: FixedLocusSummary | None = None
    invariant: GramLattice | None = None
    glue: GlueSpec | str | None = None
    routes: dict[int, str] = factory(dict)
    sym2_cokernel_torsion: tuple[int, ...] | None = None
    expected: Expected = factory(Expected)
    notes: tuple[str, ...] = ()

    def matches(self, token: str) -> bool:
        """Case-insensitive substring match on the name or any alias."""
        t = token.lower()
        return t in self.name.lower() or any(t in a.lower() for a in self.aliases)

    def resolved_glue(self) -> GlueSpec | None:
        if self.glue == "auto":
            if self.invariant is None:
                raise ConsistencyError(f"{self.name}: auto glue needs an invariant lattice")
            return find_glue(self.invariant, self.prime)
        return self.glue


def _is_int(value) -> bool:
    """An integer and not a bool, which JSON keeps apart and Python does not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _expect(record, key, path, types, required=True, default=None):
    if key not in record:
        if required:
            raise SchemaError(f"{path}.{key}", "missing required field")
        return default
    value = record[key]
    allowed = types if isinstance(types, tuple) else (types,)
    if types is not None and (not isinstance(value, allowed) or isinstance(value, bool) and bool not in allowed):
        raise SchemaError(f"{path}.{key}", f"expected {types}, got {type(value).__name__}")
    return value


def _int_items(value, path) -> tuple[int, ...]:
    for i, x in enumerate(value):
        if not _is_int(x):
            raise SchemaError(f"{path}[{i}]", f"expected an integer, got {type(x).__name__}")
    return tuple(value)


def _int_key(key, path):
    """A degree key of a JSON object, which JSON spells as a string."""
    try:
        return int(key)
    except ValueError:
        raise SchemaError(path, "keys must be integers") from None


def _objects(record, key, path):
    """(item path, item) for each entry of an optional list of objects."""
    for i, item in enumerate(_expect(record, key, path, list, required=False, default=[])):
        if not isinstance(item, dict):
            raise SchemaError(f"{path}.{key}[{i}]", f"expected an object, got {type(item).__name__}")
        yield f"{path}.{key}[{i}]", item


def _int_matrix(value, path):
    if not isinstance(value, list) or not value:
        raise SchemaError(path, "expected a nonempty list of rows")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or not all(map(_is_int, row)):
            raise SchemaError(f"{path}[{i}]", "expected a list of integers")
        rows.append(tuple(row))
    if any(len(r) != len(rows) for r in rows):
        raise SchemaError(path, "matrix must be square")
    return tuple(rows)


def _parse_lattice(value, path, name=""):
    """Expression string, {"gram": rows}, {"dual": [spec, p]}, or a block list."""
    if isinstance(value, str):
        try:
            parsed = parse_lattice_expr(value)
        except Exception as exc:
            raise SchemaError(path, f"bad lattice expression: {exc}") from exc
        return GramLattice(parsed.gram, name=name or value)
    if isinstance(value, dict):
        if "gram" in value:
            lattice = GramLattice(_int_matrix(value["gram"], f"{path}.gram"), name=name)
            if lattice.determinant == 0:
                raise SchemaError(f"{path}.gram", "Gram matrix is degenerate")
            return lattice
        if "dual" in value:
            spec = value["dual"]
            if not (isinstance(spec, list) and len(spec) == 2 and _is_int(spec[1]) and _is_prime(spec[1])):
                raise SchemaError(f"{path}.dual", "expected [lattice, prime]")
            lattice = _parse_lattice(spec[0], f"{path}.dual[0]")
            try:
                return dual_rescaled(lattice, spec[1])
            except LatticeError as exc:
                raise SchemaError(f"{path}.dual", str(exc)) from exc
        raise SchemaError(path, "lattice object needs a 'gram' or 'dual' key")
    if isinstance(value, list):
        blocks = [_parse_lattice(item, f"{path}[{i}]") for i, item in enumerate(value)]
        return GramLattice(direct_sum([b.gram_rows() for b in blocks]), name=name)
    raise SchemaError(path, f"cannot read a lattice from {type(value).__name__}")


def _parse_degree_profile(p, value, path, degrees):
    if not isinstance(value, dict):
        raise SchemaError(path, "each degree must be an object")
    if "sym2_of" in value:
        src = _expect(value, "sym2_of", path, int)
        if src not in degrees:
            raise SchemaError(f"{path}.sym2_of", f"degree {src} not declared before use")
        return sym2_profile(degrees[src])
    if p == 2:
        plus = _expect(value, "plus", path, int)
        minus = _expect(value, "minus", path, int)
        free = _expect(value, "free", path, int)
        try:
            return JordanProfile(p=2, blocks=(0, plus + minus, free), plus_rank=plus, minus_rank=minus)
        except Exception as exc:
            raise SchemaError(path, str(exc)) from exc
    counts = _expect(value, "l", path, list)
    if len(counts) != p or not all(map(_is_int, counts)):
        raise SchemaError(f"{path}.l", f"expected {p} integer block counts l_1..l_{p}")
    try:
        return JordanProfile(p=p, blocks=(0, *counts))
    except Exception as exc:
        raise SchemaError(f"{path}.l", str(exc)) from exc


def _parse_profile(p, dimension, record, path):
    torsion_free = _expect(record, "torsion_free", path, bool, required=False, default=True)
    raw = _expect(record, "degrees", path, dict)
    degrees: dict[int, JordanProfile] = {}
    keyed = [(_int_key(key, f"{path}.degrees.{key}"), key) for key in raw]
    for k, key in sorted(keyed):
        if not 1 <= k <= dimension:
            raise SchemaError(
                f"{path}.degrees.{key}", f"declare degrees 1..{dimension}; mirrors are filled in"
            )
        degrees[k] = _parse_degree_profile(p, raw[key], f"{path}.degrees.{key}", degrees)
    for k in list(degrees):
        mirror = 2 * dimension - k
        if mirror != k:
            degrees[mirror] = degrees[k]
    try:
        return CohomologyProfile.from_degrees(p, dimension, degrees, torsion_free=torsion_free)
    except Exception as exc:
        raise SchemaError(f"{path}.degrees", str(exc)) from exc


def _parse_weight(value, path):
    if value is None:
        return None
    if _is_int(value):
        value = [value, value]
    if not (isinstance(value, list) and len(value) == 2 and all(map(_is_int, value))):
        raise SchemaError(path, "weight must be an integer, a [lo, hi] pair, or null")
    try:
        return WeightValue(*value)
    except ValueError as exc:  # bounds outside 0 <= lo <= hi <= 2
        raise SchemaError(path, str(exc)) from exc


def _parse_fixed_locus(p, record, path):
    isolated = []
    for ipath, item in _objects(record, "isolated", path):
        exps = _int_items(_expect(item, "exponents", ipath, list), f"{ipath}.exponents")
        count = _expect(item, "count", ipath, int, required=False, default=1)
        weight = _parse_weight(item.get("weight"), f"{ipath}.weight")
        try:
            isolated.append(isolated_points(p, exps, multiplicity=count, weight=weight))
        except Exception as exc:
            raise SchemaError(ipath, str(exc)) from exc
    components = []
    for cpath, item in _objects(record, "components", path):
        exps = _expect(item, "exponents", cpath, (list, type(None)), required=False)
        if exps is not None:
            exps = _int_items(exps, f"{cpath}.exponents")
        try:
            local = None if exps is None else FixedPointLocal(p, exps)
            components.append(
                FixedComponent(
                    dimension=_expect(item, "dimension", cpath, int),
                    even_betti_sum=_expect(item, "even_betti_sum", cpath, int),
                    odd_betti_sum=_expect(item, "odd_betti_sum", cpath, int, required=False, default=0),
                    label=_expect(item, "label", cpath, str, required=False, default=""),
                    local=local,
                )
            )
        except SchemaError:
            raise
        except Exception as exc:
            raise SchemaError(cpath, str(exc)) from exc
    flag = (bool, type(None))
    return FixedLocusSummary(
        isolated=tuple(isolated),
        components=tuple(components),
        torsion_free=_expect(record, "torsion_free", path, bool, required=False, default=True),
        sigma_simply_connected=_expect(record, "sigma_simply_connected", path, flag, required=False),
        sigma_class_primitive=_expect(record, "sigma_class_primitive", path, flag, required=False),
    )


def _parse_glue(value, path):
    if value is None or value == "auto":
        return value
    if not isinstance(value, dict):
        raise SchemaError(path, "glue must be null, 'auto', or an object with rows/divided")
    rows = _int_matrix(_expect(value, "rows", path, list), f"{path}.rows")
    divided = _expect(value, "divided", path, list)
    if not all(_is_int(i) and 0 <= i < len(rows) for i in divided):
        raise SchemaError(f"{path}.divided", "expected row indices into rows")
    flags = tuple(i in set(divided) for i in range(len(rows)))
    try:
        return GlueSpec(rows, flags)
    except Exception as exc:
        raise SchemaError(path, str(exc)) from exc


def _parse_expected(record, path, name):
    verdicts = {}
    for key, v in _expect(record, "verdicts", path, dict, required=False, default={}).items():
        if v not in (NORMAL, NOT_NORMAL, UNKNOWN):
            raise SchemaError(f"{path}.verdicts.{key}", f"bad verdict {v!r}")
        verdicts[_int_key(key, f"{path}.verdicts.{key}")] = v
    alpha = {}
    for key, v in _expect(record, "alpha", path, dict, required=False, default={}).items():
        if not (isinstance(v, list) and len(v) == 2 and _is_int(v[0]) and (v[1] is None or _is_int(v[1]))):
            raise SchemaError(f"{path}.alpha.{key}", "expected [lo, hi] with hi an integer or null")
        alpha[_int_key(key, f"{path}.alpha.{key}")] = (v[0], v[1])
    quotient = record.get("quotient")
    exact = record.get("quotient_exact_gram")
    betti = _expect(record, "betti", path, (list, type(None)), required=False)
    return Expected(
        quotient=None if quotient is None else _parse_lattice(quotient, f"{path}.quotient", name=f"{name}/G"),
        quotient_exact_gram=None if exact is None else _int_matrix(exact, f"{path}.quotient_exact_gram"),
        fujiki_constant=_expect(record, "fujiki_constant", path, int, required=False),
        betti=None if betti is None else _int_items(betti, f"{path}.betti"),
        fix_count=_expect(record, "fix_count", path, int, required=False),
        verdicts=verdicts,
        alpha=alpha,
        witness=_expect(record, "witness", path, str, required=False),
    )


def scenario_from_record(record: dict, path: str = "scenario") -> Scenario:
    if not isinstance(record, dict):
        raise SchemaError(path, f"expected an object, got {type(record).__name__}")
    name = _expect(record, "name", path, str)
    kind = _expect(record, "kind", path, str)
    if kind not in KINDS:
        raise SchemaError(f"{path}.kind", f"expected one of {KINDS}, got {kind!r}")
    p = _expect(record, "prime", path, int)
    dim = _expect(record, "complex_dimension", path, int)
    aliases = tuple(_expect(record, "aliases", path, list, required=False, default=[]))
    if not all(isinstance(a, str) for a in aliases):
        raise SchemaError(f"{path}.aliases", "aliases must be strings")

    cohomology = _expect(record, "cohomology", path, (dict, type(None)), required=False)
    profile = None if cohomology is None else _parse_profile(p, dim, cohomology, f"{path}.cohomology")
    fixed_locus = _expect(record, "fixed_locus", path, (dict, type(None)), required=False)
    fixed = None if fixed_locus is None else _parse_fixed_locus(p, fixed_locus, f"{path}.fixed_locus")
    invariant = None
    if record.get("invariant_lattice") is not None:
        invariant = _parse_lattice(record["invariant_lattice"], f"{path}.invariant_lattice", name=name)

    routes = {}
    for key, route in _expect(record, "routes", path, dict, required=False, default={}).items():
        if route not in ROUTES:
            raise SchemaError(f"{path}.routes.{key}", f"expected one of {ROUTES}, got {route!r}")
        k = _int_key(key, f"{path}.routes.{key}")
        if not 1 <= k <= 2 * dim:
            raise SchemaError(f"{path}.routes.{key}", f"degree out of range 1..{2 * dim}")
        routes[k] = route

    torsion = _expect(record, "sym2_cokernel_torsion", path, (list, type(None)), required=False)
    if torsion is not None:
        torsion = _int_items(torsion, f"{path}.sym2_cokernel_torsion")
    notes = tuple(_expect(record, "notes", path, list, required=False, default=[]))
    for i, note in enumerate(notes):
        if not isinstance(note, str):
            raise SchemaError(f"{path}.notes[{i}]", f"expected a string, got {type(note).__name__}")
    scenario = Scenario(
        name=name,
        kind=kind,
        prime=p,
        complex_dimension=dim,
        aliases=aliases,
        description=_expect(record, "description", path, str, required=False, default=""),
        source=_expect(record, "source", path, str, required=False, default=""),
        profile=profile,
        fixed_locus=fixed,
        invariant=invariant,
        glue=_parse_glue(record.get("glue"), f"{path}.glue"),
        routes=routes,
        sym2_cokernel_torsion=torsion,
        expected=_parse_expected(
            _expect(record, "expected", path, dict, required=False, default={}), f"{path}.expected", name
        ),
        notes=notes,
    )
    _check_consistency(scenario)
    return scenario


def _check_consistency(s: Scenario) -> None:
    if s.profile is not None:
        if s.profile.p != s.prime:
            raise ConsistencyError(f"{s.name}: profile prime {s.profile.p} != {s.prime}")
        if s.invariant is not None:
            want = s.profile.invariant_rank(2)
            if s.invariant.rank != want:
                raise ConsistencyError(
                    f"{s.name}: invariant lattice rank {s.invariant.rank} != "
                    f"l_p^2 + l_1^2 = {want}"
                )
    if s.fixed_locus is not None and s.expected.fix_count is not None:
        declared = s.fixed_locus.point_count
        if s.fixed_locus.is_finite and declared != s.expected.fix_count:
            raise ConsistencyError(
                f"{s.name}: fixed locus declares {declared} points, expected.fix_count is "
                f"{s.expected.fix_count}"
            )
    for k, route in s.routes.items():
        _require_route(s, route, k)


def load_scenario(path: str | os.PathLike) -> Scenario:
    p = Path(path)
    try:
        record = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(str(p), f"not valid JSON: {exc}") from exc
    return scenario_from_record(record, path=p.stem)


def catalog_dir() -> Path:
    """Bundled catalog directory, overridable via QUOTLAT_CATALOG."""
    override = os.environ.get("QUOTLAT_CATALOG")
    if override:
        return Path(override)
    return Path(__file__).parent / "data"


def load_catalog() -> list[Scenario]:
    directory = catalog_dir()
    files = sorted(directory.glob("*.json"))
    if not files:
        raise UnknownScenario(f"no scenario records found in {directory}")
    return [load_scenario(f) for f in files]


def find_scenario(token: str) -> Scenario:
    """Resolve a CLI token: a JSON file path, else a catalog name or alias."""
    if os.path.sep in token or token.endswith(".json") or os.path.exists(token):
        return load_scenario(token)
    t = token.lower()
    catalog = load_catalog()
    for s in catalog:
        if s.name.lower() == t or any(a.lower() == t for a in s.aliases):
            return s
    known = ", ".join(s.name for s in catalog)
    raise UnknownScenario(f"no scenario named {token!r}; catalog has: {known}")


def _route_descent(s: Scenario, k: int, reports: dict[int, NormalityReport]) -> NormalityReport:
    base = reports.get(2 * k)
    if base is None:
        raise ConsistencyError(f"{s.name}: descent in degree {k} needs a degree-{2 * k} route")
    torsion = s.sym2_cokernel_torsion
    coprime = torsion is not None and s.prime not in torsion
    report = propagate_power(base, sym_injective=coprime, complement_stable=coprime)
    if torsion is None:
        note = "symmetric-square cokernel torsion not declared"
    else:
        note = (
            f"cokernel of Sym^2 H^{k} -> H^{2 * k} has torsion only at {torsion}; "
            f"p = {s.prime} is {'coprime' if coprime else 'not coprime'} to it"
        )
    return replace(report, notes=(*report.notes, note))


def _route_s_lattice(s: Scenario, k: int, reports: dict[int, NormalityReport]) -> NormalityReport:
    if k != 2:
        raise ConsistencyError(f"{s.name}: the S-lattice certificate is a degree-2 route")
    base = reports.get(4)
    h4_normal = base is not None and base.verdict == NORMAL
    # a fixed model of the ring suffices: the pairing table of
    # (delta^2, u1.u2, sigma, u1^2, u2^2, u1.delta, u2.delta) is the same
    # for every invariantly split U + (-2) inside an S^[2]-type H^2
    u = ATOM_GRAMS["U"]
    e8m = tuple(tuple(-x for x in row) for row in ATOM_GRAMS["E8"])
    hilb = HilbertSquare(direct_sum([u, u, u, e8m, e8m]))
    gram = s_lattice_gram(hilb, hilb.gamma(0), hilb.gamma(1))
    ok, bad = h2_primitivity_certificate(gram, s.prime)
    hyps = (
        ("H^4_normal", h4_normal),
        ("rest_of_invariant_pushforward_divisible_by_p", s.glue is not None),
        ("no_nonzero_solution_of_the_norm_pairing_system", ok),
    )
    verdict = NORMAL if all(okk for _, okk in hyps) else UNKNOWN
    return NormalityReport(
        degree=2,
        verdict=verdict,
        criterion_used="norm pairing against the symmetric-square lattice",
        hypotheses=hyps,
        alpha_bounds=(0, 0) if verdict == NORMAL else (0, None),
        notes=(
            "norm classes pair into pZ with every invariant class",
            "certificate uses no discriminant of the S-lattice"
            + ("" if ok else f"; counterexample triple {bad}"),
        ),
    )


def _route_declared(s: Scenario, k: int) -> NormalityReport:
    verdict = s.expected.verdicts[k]
    return NormalityReport(
        degree=k,
        verdict=verdict,
        criterion_used="declared divisibility witness",
        alpha_bounds=s.expected.alpha.get(k, (0, None) if verdict != NORMAL else (0, 0)),
        witness=s.expected.witness,
    )


# route -> certificate for degree k of scenario s, given the reports of the
# higher degrees; the lambdas look the checkers up when called, so a wrapper
# installed on this module's names sees every call
ROUTE_TABLE = {
    "surface": lambda s, k, reports: check_surface(s.profile, s.fixed_locus),
    "main": lambda s, k, reports: check_theorem_main(s.profile, s.fixed_locus),
    "th3": lambda s, k, reports: check_th3(s.profile, s.fixed_locus),
    "weights": lambda s, k, reports: check_maintori(s.profile, s.fixed_locus),
    "simple": lambda s, k, reports: check_simple_criteria(s.profile, k),
    "descent": lambda s, k, reports: _route_descent(s, k, reports),
    "s_lattice": lambda s, k, reports: _route_s_lattice(s, k, reports),
    "declared": lambda s, k, reports: _route_declared(s, k),
}
ROUTES = tuple(ROUTE_TABLE)

# route -> what it reads from the record in degree k, as (name, declared);
# checked at load for the routes a record declares, and by run_route
_PROFILE = ("cohomology profile", lambda s, k: s.profile is not None)
_FIXED_LOCUS = ("fixed locus", lambda s, k: s.fixed_locus is not None)
ROUTE_NEEDS = {
    **dict.fromkeys(("surface", "main", "th3", "weights"), (_PROFILE, _FIXED_LOCUS)),
    **dict.fromkeys(("simple", "descent", "s_lattice"), (_PROFILE,)),
    "declared": (("expected verdict in degree {k}", lambda s, k: k in s.expected.verdicts),),
}


def _require_route(s: Scenario, route: str, k: int) -> None:
    for what, declared in ROUTE_NEEDS[route]:
        if not declared(s, k):
            raise ConsistencyError(f"{s.name} declares no {what.format(k=k)}")


def run_normality(s: Scenario) -> dict[int, NormalityReport]:
    """Run every routed certificate; higher degrees first so descent can feed."""
    reports: dict[int, NormalityReport] = {}
    for k in sorted(s.routes, reverse=True):
        reports[k] = ROUTE_TABLE[s.routes[k]](s, k, reports)
    return reports


def run_route(s: Scenario, route: str) -> NormalityReport:
    """One route's certificate alone in the middle degree, whatever s routes."""
    k = s.complex_dimension
    _require_route(s, route, k)
    return ROUTE_TABLE[route](s, k, {})


@record
class ScenarioQuotient:
    """A quotient lattice; bb holds the normalization of a glued BB form, and
    match its comparison with the declared row (None for reference rows)."""

    gram: GramLattice
    bb: QuotientResult | None = None
    match: MatchResult | None = None


def scenario_quotient(s: Scenario) -> ScenarioQuotient | None:
    """The quotient lattice of s: declared for a reference row, the dual
    L^vee(p) of the invariant lattice for surface and torus rows, the glued
    Beauville-Bogomolov form otherwise; None when there is nothing to build
    it from (no declared lattice, no invariant lattice, or no glue)."""
    want = s.expected.quotient
    if s.kind == "reference":
        return None if want is None else ScenarioQuotient(want)
    if s.invariant is None:
        return None
    bb = None
    if s.kind in ("surface", "torus"):
        gram = quotient_middle_lattice(s.invariant, s.prime)
    else:
        glue = s.resolved_glue()
        if glue is None:
            return None
        bb = bb_quotient(s.invariant, s.prime, glue)
        gram = bb.gram
    return ScenarioQuotient(gram, bb, None if want is None else lattices_match(gram, want))


@record
class RowCheck(MatchResult):
    """One catalog row of the table verifier: its scenario, checks and notes."""

    scenario: Scenario
    notes: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return self.scenario.name

    def lines(self) -> list[str]:
        head = "pass" if self.passed else "FAIL"
        return [f"{self.name}: {head}", *super().lines(), *(f"  note: {n}" for n in self.notes)]


def _check(name, got, want) -> tuple[str, str, str, bool]:
    return (name, str(got), str(want), str(got) == str(want))


def _fix_check(s: Scenario) -> list[tuple[str, str, str, bool]]:
    """#Fix of a declared finite fixed locus against the expected count."""
    if s.expected.fix_count is None or s.fixed_locus is None:
        return []
    return [_check("#Fix", s.fixed_locus.point_count, s.expected.fix_count)]


def _quotient_checks(s: Scenario, q: ScenarioQuotient, checks: list, notes: list) -> None:
    e = s.expected
    if q.match is not None:
        checks += [(f"H^2 {name}", got, want, ok) for name, got, want, ok in q.match.checks]
    if s.kind == "reference":
        if e.betti is not None:
            b2, b4, chi = e.betti
            checks.append(_check("b_2 = rank of the declared lattice", q.gram.rank, b2))
            checks.append(_check("chi = 2 + 2 b_2 + b_4", 2 + 2 * b2 + b4, chi))
        if e.fujiki_constant is not None:
            notes.append(f"declared Fujiki constant {e.fujiki_constant}")
        notes.append("reference row: declared, not recomputed")
    elif q.bb is None:  # surface and torus: the middle-degree dual
        if e.betti is not None:
            b2, chi = e.betti
            checks.append(_check("b_2", q.gram.rank, b2))
            checks.append(_check("chi", 2 + q.gram.rank, chi))
        if e.fix_count is not None and s.kind == "surface":
            # count forced by the profile; only valid with b_1 = 0
            checks.append(_check("#Fix (2 + l_1 + l_(p-1))", surface_fix_count(s.profile), e.fix_count))
        else:
            checks += _fix_check(s)
    else:
        if e.quotient_exact_gram is not None:
            checks.append(_check("H^2 Gram (entry-exact)", q.gram.gram, e.quotient_exact_gram))
        if e.fujiki_constant is not None:
            checks.append(_check("Fujiki constant", q.bb.fujiki_constant, Fraction(e.fujiki_constant)))
        if e.betti is not None:
            checks.append(_check("(b_2, b_3, b_4, chi)", betti_quotient(s.invariant.rank, s.prime), e.betti))
        checks += _fix_check(s)
        notes.append(f"pushforward index p^{q.bb.index_log}, scale {q.bb.scale}")


def verify_scenario(s: Scenario) -> RowCheck:
    """Recompute one catalog row and compare against its declared table data."""
    checks: list[tuple[str, str, str, bool]] = []
    notes: list[str] = list(s.notes)
    if s.expected.quotient is not None and s.kind != "counterexample":
        q = scenario_quotient(s)
        if q is None:
            raise ConsistencyError(f"{s.name}: the declared quotient needs an invariant lattice and glue")
        _quotient_checks(s, q, checks, notes)
    elif s.kind == "fourfold":
        notes.append("no quotient lattice row declared for this scenario")
        checks += _fix_check(s)
    if s.routes:
        reports = run_normality(s)
        for k in sorted(reports):
            report = reports[k]
            want = s.expected.verdicts.get(k)
            if want is not None:
                checks.append(
                    (f"H^{k} verdict", f"{report.verdict} ({report.criterion_used})", want,
                     report.verdict == want)
                )
            want_alpha = s.expected.alpha.get(k)
            if want_alpha is not None:
                checks.append(_check(f"alpha_{k}", report.alpha_bounds, tuple(want_alpha)))
            if report.witness:
                notes.append(f"H^{k} witness: {report.witness}")
    return RowCheck(checks=tuple(checks), scenario=s, notes=tuple(notes))


def catalog_verify(name_filter: str | None = None) -> list[RowCheck]:
    """Verify every catalog row, or those whose name or an alias contains name_filter.

    The filter is a case-insensitive substring; see `Scenario.matches`.
    """
    return [verify_scenario(s) for s in load_catalog() if name_filter is None or s.matches(name_filter)]
