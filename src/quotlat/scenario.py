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
import reprlib
from fractions import Fraction
from pathlib import Path

from ._record import factory, record, replace
from .gmodule import (
    SUPPORTED_PRIMES,
    CohomologyProfile,
    GModuleError,
    JordanProfile,
    sym2_profile,
)
from .hilb2_ring import HilbertSquare, h2_primitivity_certificate, s_lattice_gram
from .lattice_core import (
    GramLattice,
    LatticeError,
    _freeze,
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

# kind -> (complex dimension, number of expected.betti entries or None for none)
KINDS = {
    "surface": (2, 2),
    "torus": (2, 2),
    "fourfold": (4, 4),
    "reference": (4, 3),
    "counterexample": (4, None),
}
_REQUIRED = object()  # the default of a field that must be present
_ITEM_NAMES = {int: "an integer", str: "a string", dict: "an object"}
_LATTICE_DEPTH = 16  # how deep block lists and duals may nest in one lattice
# id(object) -> (object, its path, the keys the reader asked it for) while
# scenario_from_record runs; any other key of a JSON object is unknown
_ASKED: dict[int, tuple[dict, str, set]] = {}

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

    def __post_init__(self):
        if self.quotient_exact_gram is not None:
            object.__setattr__(self, "quotient_exact_gram", _freeze(self.quotient_exact_gram))


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


def _built(path, make, *args, message=None, **kwargs):
    """make(*args, **kwargs), with the error a constructor raises on a bad
    value turned into a SchemaError at path that says message or, without
    one, what the error said."""
    try:
        return make(*args, **kwargs)
    except (ValueError, LatticeError, GModuleError, RecursionError) as exc:
        raise SchemaError(path, message or str(exc)) from exc


def _expect(record, key, path, types, default=_REQUIRED):
    """record[key], of one of types (any type when None), or default when
    absent; key joins the keys asked of record."""
    _ASKED.setdefault(id(record), (record, path, set()))[2].add(key)
    if key not in record:
        if default is _REQUIRED:
            raise SchemaError(f"{path}.{key}", "missing required field")
        return default
    value = record[key]
    allowed = types if isinstance(types, tuple) else (types,)
    if types is not None and (not isinstance(value, allowed) or isinstance(value, bool) and bool not in allowed):
        raise SchemaError(f"{path}.{key}", f"expected {types}, got {type(value).__name__}")
    return value


def _optional(record, key, path, types, parse, *args):
    """parse(value, its path, *args) of a field that may be absent or null,
    and otherwise of one of types (any type when None)."""
    value = _expect(record, key, path, types and (types, type(None)), None)
    return None if value is None else parse(value, f"{path}.{key}", *args)


def _items(value, path, kind):
    """A list as a tuple, each item of the JSON kind int, str or dict."""
    for i, item in enumerate(value):
        if not isinstance(item, kind) or isinstance(item, bool):
            raise SchemaError(f"{path}[{i}]", f"expected {_ITEM_NAMES[kind]}, got {type(item).__name__}")
    return tuple(value)


def _list(record, key, path, kind, default=()):
    return _items(_expect(record, key, path, list, default), f"{path}.{key}", kind)


def _one_of(value, path, choices):
    if value not in choices:
        shown = reprlib.Repr()  # the value's top level only, long strings cut
        shown.maxlevel = 1
        raise SchemaError(path, f"expected one of {tuple(choices)}, got {shown.repr(value)}")
    return value


def _by_degree(record, key, path, top, default=_REQUIRED):
    """(degree, path, value) of each entry of an object keyed by degrees
    1..top, which JSON spells as strings, in increasing degree."""
    raw = _expect(record, key, path, dict, default)
    keyed = sorted((_built(f"{path}.{key}.{k}", int, k, message="keys must be integers"), k) for k in raw)
    for degree, k in keyed:
        if k != str(degree):  # "02" or " 2" would stand beside "2" and one be lost
            raise SchemaError(f"{path}.{key}.{k}", f"write degree {degree} as {str(degree)!r}")
        if not 1 <= degree <= top:
            raise SchemaError(f"{path}.{key}.{k}", f"degree out of range 1..{top}")
        yield degree, f"{path}.{key}.{k}", raw[k]


def _int_matrix(value, path):
    if not isinstance(value, list) or not value:
        raise SchemaError(path, "expected a nonempty list of rows")
    for i, row in enumerate(value):
        if not isinstance(row, list) or not all(map(_is_int, row)):
            raise SchemaError(f"{path}[{i}]", "expected a list of integers")
    if any(len(row) != len(value) for row in value):
        raise SchemaError(path, "matrix must be square")
    return value


def _parse_lattice(value, path, name="", depth=0):
    """Expression string, {"gram": rows}, {"dual": [spec, p]}, or a block
    list; block lists and duals nest at most _LATTICE_DEPTH deep."""
    if depth > _LATTICE_DEPTH:
        raise SchemaError(path, f"lattice nested deeper than {_LATTICE_DEPTH}")
    if isinstance(value, str):
        return GramLattice(_built(path, parse_lattice_expr, value).gram, name=name or value)
    if isinstance(value, dict):
        if "gram" in value:
            rows = _int_matrix(_expect(value, "gram", path, None), f"{path}.gram")
            lattice = _built(f"{path}.gram", GramLattice, rows, name=name)
            if lattice.determinant == 0:
                raise SchemaError(f"{path}.gram", "Gram matrix is degenerate")
            return lattice
        if "dual" in value:
            spec = _expect(value, "dual", path, None)
            pair = isinstance(spec, list) and len(spec) == 2
            if not (pair and _is_int(spec[1]) and spec[1] in SUPPORTED_PRIMES):
                raise SchemaError(f"{path}.dual", "expected [lattice, prime]")
            inner = _parse_lattice(spec[0], f"{path}.dual[0]", depth=depth + 1)
            return _built(f"{path}.dual", dual_rescaled, inner, spec[1])
        raise SchemaError(path, "lattice object needs a 'gram' or 'dual' key")
    if value == []:
        raise SchemaError(path, "expected a nonempty list of blocks")
    if isinstance(value, list):
        blocks = [_parse_lattice(item, f"{path}[{i}]", depth=depth + 1).gram for i, item in enumerate(value)]
        return GramLattice(direct_sum(blocks), name=name)
    raise SchemaError(path, f"cannot read a lattice from {type(value).__name__}")


def _parse_degree_profile(p, value, path, degrees):
    if not isinstance(value, dict):
        raise SchemaError(path, "each degree must be an object")
    if "sym2_of" in value:
        src = _expect(value, "sym2_of", path, int)
        if src not in degrees:
            raise SchemaError(f"{path}.sym2_of", f"degree {src} not declared before use")
        return _built(f"{path}.sym2_of", sym2_profile, degrees[src])
    if p == 2:
        plus, minus, free = (_expect(value, key, path, int) for key in ("plus", "minus", "free"))
        return _built(path, JordanProfile, 2, (0, plus + minus, free), plus_rank=plus, minus_rank=minus)
    counts = _expect(value, "l", path, list)
    if len(counts) != p or not all(map(_is_int, counts)):
        raise SchemaError(f"{path}.l", f"expected {p} integer block counts l_1..l_{p}")
    return _built(f"{path}.l", JordanProfile, p, (0, *counts))


def _parse_profile(value, path, p, dimension):
    torsion_free = _expect(value, "torsion_free", path, bool, True)
    degrees: dict[int, JordanProfile] = {}
    for k, kpath, item in _by_degree(value, "degrees", path, dimension):
        degrees[k] = _parse_degree_profile(p, item, kpath, degrees)
    for k in list(degrees):  # the mirror degrees 2n - k
        degrees[2 * dimension - k] = degrees[k]
    return CohomologyProfile.from_degrees(p, dimension, degrees, torsion_free=torsion_free)


def _parse_weight(value, path):
    if _is_int(value):
        value = [value, value]
    if not (isinstance(value, list) and len(value) == 2 and all(map(_is_int, value))):
        raise SchemaError(path, "weight must be an integer, a [lo, hi] pair, or null")
    return _built(path, WeightValue, *value)  # bounds outside 0 <= lo <= hi <= 2


def _parse_fixed_locus(value, path, p):
    isolated = []
    for i, item in enumerate(_list(value, "isolated", path, dict)):
        ipath = f"{path}.isolated[{i}]"
        exps = _list(item, "exponents", ipath, int, _REQUIRED)
        count = _expect(item, "count", ipath, int, 1)
        weight = _optional(item, "weight", ipath, None, _parse_weight)
        isolated.append(_built(ipath, isolated_points, p, exps, multiplicity=count, weight=weight))
    components = []
    for i, item in enumerate(_list(value, "components", path, dict)):
        cpath = f"{path}.components[{i}]"
        exps = _optional(item, "exponents", cpath, list, _items, int)
        local = None if exps is None else _built(cpath, FixedPointLocal, p, exps)
        component = _built(
            cpath,
            FixedComponent,
            dimension=_expect(item, "dimension", cpath, int),
            even_betti_sum=_expect(item, "even_betti_sum", cpath, int),
            odd_betti_sum=_expect(item, "odd_betti_sum", cpath, int, 0),
            label=_expect(item, "label", cpath, str, ""),
            local=local,
        )
        components.append(component)
    flag = (bool, type(None))
    return FixedLocusSummary(
        isolated=tuple(isolated),
        components=tuple(components),
        torsion_free=_expect(value, "torsion_free", path, bool, True),
        sigma_simply_connected=_expect(value, "sigma_simply_connected", path, flag, None),
        sigma_class_primitive=_expect(value, "sigma_class_primitive", path, flag, None),
    )


def _parse_glue(value, path):
    if value == "auto":
        return value
    if not isinstance(value, dict):
        raise SchemaError(path, "glue must be null, 'auto', or an object with rows/divided")
    rows = _int_matrix(_expect(value, "rows", path, list), f"{path}.rows")
    divided = _expect(value, "divided", path, list)
    if not all(_is_int(i) and 0 <= i < len(rows) for i in divided):
        raise SchemaError(f"{path}.divided", "expected row indices into rows")
    return _built(path, GlueSpec, rows, tuple(i in divided for i in range(len(rows))))


def _parse_alpha(value, path):
    pair = isinstance(value, list) and len(value) == 2 and _is_int(value[0])
    if not (pair and (value[1] is None or _is_int(value[1]))):
        raise SchemaError(path, "expected [lo, hi] with hi an integer or null")
    return tuple(value)


def _parse_expected(value, path, name, kind, top):
    betti = _optional(value, "betti", path, list, _items, int)
    length = KINDS[kind][1]
    if betti is not None and len(betti) != length:
        raise SchemaError(
            f"{path}.betti", f"expected {length or 'no'} Betti numbers for kind {kind!r}, got {len(betti)}"
        )
    verdicts = (NORMAL, NOT_NORMAL, UNKNOWN)
    return Expected(
        verdicts={k: _one_of(v, vpath, verdicts) for k, vpath, v in _by_degree(value, "verdicts", path, top, {})},
        alpha={k: _parse_alpha(v, vpath) for k, vpath, v in _by_degree(value, "alpha", path, top, {})},
        quotient=_optional(value, "quotient", path, None, _parse_lattice, f"{name}/G"),
        quotient_exact_gram=_optional(value, "quotient_exact_gram", path, None, _int_matrix),
        fujiki_constant=_expect(value, "fujiki_constant", path, int, None),
        betti=betti,
        fix_count=_expect(value, "fix_count", path, int, None),
        witness=_expect(value, "witness", path, str, None),
    )


def scenario_from_record(record: dict, path: str = "scenario") -> Scenario:
    """The scenario a JSON record describes.  A key that the reader never
    asks for is a SchemaError at its path, so a misspelled field cannot
    turn its check off unseen."""
    _ASKED.clear()
    try:
        scenario = _read_scenario(record, path)
        for obj, opath, asked in _ASKED.values():
            for key in obj:
                if key not in asked:
                    raise SchemaError(f"{opath}.{key}", "unknown key")
    finally:
        _ASKED.clear()
    _check_consistency(scenario)
    return scenario


def _read_scenario(record, path) -> Scenario:
    if not isinstance(record, dict):
        raise SchemaError(path, f"expected an object, got {type(record).__name__}")
    name = _expect(record, "name", path, str)
    kind = _one_of(_expect(record, "kind", path, str), f"{path}.kind", KINDS)
    p = _one_of(_expect(record, "prime", path, int), f"{path}.prime", SUPPORTED_PRIMES)
    dim = KINDS[kind][0]
    declared = _expect(record, "complex_dimension", path, int)
    if declared != dim:
        raise SchemaError(f"{path}.complex_dimension", f"expected {dim} for kind {kind!r}, got {declared}")
    return Scenario(
        name=name,
        kind=kind,
        prime=p,
        complex_dimension=dim,
        aliases=_list(record, "aliases", path, str),
        profile=_optional(record, "cohomology", path, dict, _parse_profile, p, dim),
        fixed_locus=_optional(record, "fixed_locus", path, dict, _parse_fixed_locus, p),
        invariant=_optional(record, "invariant_lattice", path, None, _parse_lattice, name),
        routes={k: _one_of(r, rpath, ROUTES) for k, rpath, r in _by_degree(record, "routes", path, 2 * dim, {})},
        sym2_cokernel_torsion=_optional(record, "sym2_cokernel_torsion", path, list, _items, int),
        notes=_list(record, "notes", path, str),
        description=_expect(record, "description", path, str, ""),
        source=_expect(record, "source", path, str, ""),
        glue=_optional(record, "glue", path, None, _parse_glue),
        expected=_parse_expected(_expect(record, "expected", path, dict, {}), f"{path}.expected", name, kind, 2 * dim),
    )


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
    return scenario_from_record(_built(str(p), json.loads, p.read_bytes()), path=p.stem)


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
    hilb = HilbertSquare(parse_lattice_expr("U^3 + E8(-1)^2"))
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
