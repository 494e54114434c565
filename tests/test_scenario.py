"""Scenario records: schema, consistency checks, catalog, verification."""

import copy
import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quotlat import (
    find_glue,
    find_scenario,
    isolated_points,
    load_catalog,
    load_scenario,
    run_normality,
    verify_scenario,
    weight_dim2,
    weight_lookup,
)
from quotlat import normality, toric_weight
from quotlat.cli import main
from quotlat.scenario import (
    ConsistencyError,
    SchemaError,
    UnknownScenario,
    catalog_dir,
    catalog_verify,
    run_route,
    scenario_from_record,
    scenario_quotient,
)
from quotlat.toric_weight import ClassificationFailure, WeightValue

NAMES = [
    "Y2", "Y3", "Y5", "Y7", "Z3", "Z5", "Z7", "Z11", "Z17", "Z19",
    "Abar", "Mprime", "M3", "M5", "M11a", "M11b", "NS3", "CE2",
]


def minimal_record():
    return json.loads((catalog_dir() / "08-Z11.json").read_text())


def test_catalog_names_in_order(catalog):
    assert [s.name for s in catalog] == NAMES


def test_catalog_kinds_and_primes(catalog):
    kinds = {s.name: (s.kind, s.prime) for s in catalog}
    assert kinds["Y2"] == ("surface", 2)
    assert kinds["Z19"] == ("surface", 19)
    assert kinds["Abar"] == ("torus", 2)
    assert kinds["Mprime"] == ("reference", 2)
    assert kinds["M3"] == ("fourfold", 3)
    assert kinds["M11b"] == ("fourfold", 11)
    assert kinds["CE2"] == ("counterexample", 2)


def test_find_scenario_by_alias_and_path(by_name):
    assert find_scenario("k3-sympl-7").name == "Y7"
    assert find_scenario("blowup-involution").name == "CE2"
    path = catalog_dir() / "13-M3.json"
    assert find_scenario(str(path)).name == "M3"
    with pytest.raises(UnknownScenario):
        find_scenario("nope")


def test_matches_is_substring_filter(catalog):
    hits = [s.name for s in catalog if s.matches("M11")]
    assert hits == ["M11a", "M11b"]


def test_schema_error_names_the_field(tmp_path):
    rec = minimal_record()
    del rec["prime"]
    target = tmp_path / "broken.json"
    target.write_text(json.dumps(rec))
    with pytest.raises(SchemaError) as exc:
        load_scenario(target)
    assert ".prime" in str(exc.value)


def test_schema_error_on_bad_degree_key(tmp_path):
    rec = minimal_record()
    rec["cohomology"]["degrees"]["nine"] = rec["cohomology"]["degrees"].pop("2")
    target = tmp_path / "broken.json"
    target.write_text(json.dumps(rec))
    with pytest.raises(SchemaError):
        load_scenario(target)


def test_consistency_error_on_rank_mismatch(tmp_path):
    rec = minimal_record()
    rec["invariant_lattice"] = "U^2"  # rank 4, but the profile forces rank 2
    target = tmp_path / "broken.json"
    target.write_text(json.dumps(rec))
    with pytest.raises(ConsistencyError):
        load_scenario(target)


def test_catalog_dir_env_override(tmp_path, monkeypatch):
    shutil.copy(catalog_dir() / "08-Z11.json", tmp_path / "08-Z11.json")
    monkeypatch.setenv("QUOTLAT_CATALOG", str(tmp_path))
    assert catalog_dir() == Path(tmp_path)
    rows = load_catalog()
    assert [s.name for s in rows] == ["Z11"]


def test_degree_mirroring(by_name):
    cp = by_name["M3"].profile
    assert cp.profile(6).blocks == cp.profile(2).blocks
    assert cp.profile(5).blocks == cp.profile(3).blocks


def test_auto_glue_resolves(tmp_path):
    rec = json.loads((catalog_dir() / "14-M5.json").read_text())
    rec["glue"] = "auto"
    target = tmp_path / "auto.json"
    target.write_text(json.dumps(rec))
    s = load_scenario(target)
    resolved = s.resolved_glue()
    assert resolved.transform == find_glue(s.invariant, 5).transform


def test_run_normality_verdicts(by_name):
    y7 = run_normality(by_name["Y7"])
    assert y7[2].verdict == "Normal"
    m3 = run_normality(by_name["M3"])
    assert m3[4].verdict == "Normal"
    assert m3[2].verdict == "Normal"
    assert m3[2].criterion_used == "descent from H^4 through Sym^2"
    ce2 = run_normality(by_name["CE2"])
    assert ce2[2].verdict == "NotNormal"
    assert ce2[2].alpha_bounds == (1, 1)
    assert ce2[2].witness


def test_verify_scenario_rows(by_name):
    for name in ("Y2", "Abar", "Mprime", "M5", "NS3"):
        row = verify_scenario(by_name[name])
        assert row.passed, row.lines()
        assert any(name in line for line in row.lines())


def _set(path, value):
    """Record mutation that sets the field at a dotted path of keys."""

    def mutate(rec):
        *parents, last = path.split(".")
        for key in parents:
            rec = rec[key]
        rec[last] = value

    return mutate


def _rekey(path, old, new):
    """Record mutation that renames one key of the object at a dotted path."""

    def mutate(rec):
        for key in path.split("."):
            rec = rec[key]
        rec[new] = rec.pop(old)

    return mutate


DICT_OR_NULL = "expected (<class 'dict'>, <class 'NoneType'>)"
LIST_OR_NULL = "expected (<class 'list'>, <class 'NoneType'>)"
FLAG = "expected (<class 'bool'>, <class 'NoneType'>)"
PRIMES = "expected one of (2, 3, 5, 7, 11, 13, 17, 19)"
WEIGHT_BOUNDS = "weight bounds must satisfy 0 <= lo <= hi <= 2"
ALPHA = "expected [lo, hi] with hi an integer or null"
WEIGHT_ROW = {"exponents": [1, 1], "count": 2}

# (field, mutation of the Z11 record, full SchemaError message after the path)
MALFORMED = [
    ("fixed_locus", _set("fixed_locus", []), f"{DICT_OR_NULL}, got list"),
    ("expected", _set("expected", []), "expected <class 'dict'>, got list"),
    ("cohomology", _set("cohomology", 5), f"{DICT_OR_NULL}, got int"),
    ("fixed_locus.isolated[0]", _set("fixed_locus.isolated", ["x"]), "expected an object, got str"),
    ("fixed_locus.components[0]", _set("fixed_locus.components", [5]), "expected an object, got int"),
    (
        "fixed_locus.components[0].exponents",
        _set("fixed_locus.components", [{"dimension": 1, "even_betti_sum": 2, "exponents": 3}]),
        f"{LIST_OR_NULL}, got int",
    ),
    ("expected.betti", _set("expected.betti", 2), f"{LIST_OR_NULL}, got int"),
    ("sym2_cokernel_torsion", _set("sym2_cokernel_torsion", 2), f"{LIST_OR_NULL}, got int"),
    ("routes.two", _rekey("routes", "2", "two"), "keys must be integers"),
    ("expected.verdicts.two", _rekey("expected.verdicts", "2", "two"), "keys must be integers"),
    ("expected.alpha.two", _set("expected.alpha", {"two": [0, 0]}), "keys must be integers"),
    # values of the right JSON type that make no sense
    ("prime", _set("prime", True), "expected <class 'int'>, got bool"),
    ("invariant_lattice.dual", _set("invariant_lattice", {"dual": ["U", 0]}), "expected [lattice, prime]"),
    ("invariant_lattice[0].dual", _set("invariant_lattice", [{"dual": ["U", -1]}]), "expected [lattice, prime]"),
    ("expected.quotient.dual", _set("expected.quotient", {"dual": ["U", 4]}), "expected [lattice, prime]"),
    (
        "expected.quotient[1].dual",
        _set("expected.quotient", ["U", {"dual": ["U", True]}]),
        "expected [lattice, prime]",
    ),
    # A2 is nondegenerate but its discriminant group Z/3 is not 11-elementary
    (
        "invariant_lattice.dual[0].dual",
        _set("invariant_lattice", {"dual": [{"dual": ["A2", 11]}, 11]}),
        "discriminant group Z/3 is not 11-elementary",
    ),
    ("invariant_lattice.gram", _set("invariant_lattice", {"gram": [[0, 0], [0, 0]]}), "Gram matrix is degenerate"),
    (
        "invariant_lattice.dual[0].dual[0].gram",
        _set("invariant_lattice", {"dual": [{"dual": [{"gram": [[0, 0], [0, 0]]}, 11]}, 11]}),
        "Gram matrix is degenerate",
    ),
    ("fixed_locus.sigma_simply_connected", _set("fixed_locus.sigma_simply_connected", "no"), f"{FLAG}, got str"),
    ("fixed_locus.sigma_class_primitive", _set("fixed_locus.sigma_class_primitive", 1), f"{FLAG}, got int"),
    ("expected.alpha.2", _set("expected.alpha", {"2": ["a", "b"]}), ALPHA),
    ("expected.alpha.4", _set("expected.alpha", {"4": [0, "b"]}), ALPHA),
    ("expected.betti[1]", _set("expected.betti", [2, "4"]), "expected an integer, got str"),
    ("sym2_cokernel_torsion[0]", _set("sym2_cokernel_torsion", [True]), "expected an integer, got bool"),
    ("notes[0]", _set("notes", [5]), "expected a string, got int"),
    # declared weights outside 0 <= lo <= hi <= 2
    ("fixed_locus.isolated[0].weight", _set("fixed_locus.isolated", [{**WEIGHT_ROW, "weight": 5}]), WEIGHT_BOUNDS),
    ("fixed_locus.isolated[0].weight", _set("fixed_locus.isolated", [{**WEIGHT_ROW, "weight": [2, 1]}]), WEIGHT_BOUNDS),
    ("fixed_locus.isolated[0].weight", _set("fixed_locus.isolated", [{**WEIGHT_ROW, "weight": [-1, 1]}]), WEIGHT_BOUNDS),
    # the kind fixes the dimension and the Betti shape, the prime is a
    # supported one, and a constructor's error is reported at its field
    pytest.param(
        "invariant_lattice.gram",
        _set("invariant_lattice", {"gram": [[2, 1], [0, 2]]}),
        "Gram matrix must be square and symmetric",
        id="invariant_lattice.gram-asymmetric",
    ),
    pytest.param("prime", _set("prime", 4), f"{PRIMES}, got 4", id="prime-unsupported"),
    ("complex_dimension", _set("complex_dimension", 4), "expected 2 for kind 'surface', got 4"),
    pytest.param(
        "expected.betti",
        _set("expected.betti", [22, 24, 1]),
        "expected 2 Betti numbers for kind 'surface', got 3",
        id="expected.betti-length",
    ),
]


def _assert_names_the_field(tmp_path, capsys, rec, field, message):
    """rec fails to load with SchemaError at field, in process and in the CLI."""
    with pytest.raises(SchemaError) as exc:
        scenario_from_record(rec)
    assert exc.value.path == f"scenario.{field}"
    assert str(exc.value) == f"scenario.{field}: {message}"
    target = tmp_path / "broken.json"
    target.write_text(json.dumps(rec))
    assert main(["normality", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: broken.{field}: {message}\n"


@pytest.mark.parametrize(
    "field, mutate, message", MALFORMED, ids=[getattr(row, "id", None) or row[0] for row in MALFORMED]
)
def test_malformed_record_names_the_field(tmp_path, capsys, field, mutate, message):
    rec = minimal_record()
    mutate(rec)
    _assert_names_the_field(tmp_path, capsys, rec, field, message)


# (record file, field, mutation, message), on any record; with them, each
# constructor the reader calls fails once at its field
MORE_MALFORMED = [
    (
        "14-M5.json",
        "cohomology.degrees.4.sym2_of",
        _set("cohomology.degrees", {"2": {"l": [1, 1, 0, 0, 0]}, "4": {"sym2_of": 2}}),
        "profile has middle blocks; closed formula unavailable",
    ),
    ("12-Mprime.json", "prime", _set("prime", -7), f"{PRIMES}, got -7"),
    (
        "12-Mprime.json",
        "expected.betti",
        _set("expected.betti", [16, 178]),
        "expected 3 Betti numbers for kind 'reference', got 2",
    ),
    ("18-CE2.json", "prime", _set("prime", 1), f"{PRIMES}, got 1"),
    (
        "18-CE2.json",
        "expected.betti",
        _set("expected.betti", [1, 2]),
        "expected no Betti numbers for kind 'counterexample', got 2",
    ),
    ("08-Z11.json", "complex_dimension", _set("complex_dimension", 0), "expected 2 for kind 'surface', got 0"),
    (
        "08-Z11.json",
        "complex_dimension",
        _set("complex_dimension", 10**30),
        f"expected 2 for kind 'surface', got {10**30}",
    ),
    ("08-Z11.json", "prime", _set("prime", 10**18 + 9), f"{PRIMES}, got {10**18 + 9}"),
    ("08-Z11.json", "invariant_lattice", _set("invariant_lattice", "U(11"), "expected ) (at position 4)"),
    ("08-Z11.json", "expected.quotient", _set("expected.quotient", []), "expected a nonempty list of blocks"),
    ("01-Y2.json", "cohomology.degrees.2", _set("cohomology.degrees.2.plus", -1), "negative block count"),
    ("08-Z11.json", "cohomology.degrees.2.l", _set("cohomology.degrees.2.l", [0] * 10 + [-1]), "negative block count"),
    (
        "08-Z11.json",
        "fixed_locus.isolated[0]",
        _set("fixed_locus.isolated", [{"exponents": [11, 1], "count": 2}]),
        "exponents must lie in [0, 10]",
    ),
    (
        "08-Z11.json",
        "fixed_locus.components[0]",
        _set("fixed_locus.components", [{"dimension": 1, "even_betti_sum": 2, "exponents": [0, 0]}]),
        "a fixed point of the identity is not a local model",
    ),
    (
        "08-Z11.json",
        "fixed_locus.components[0]",
        _set("fixed_locus.components", [{"dimension": 0, "even_betti_sum": 2}]),
        "components have positive dimension; use IsolatedPoints",
    ),
    ("14-M5.json", "glue", _set("glue.rows", [[0] * 7] * 7), "transform is singular"),
    (
        "08-Z11.json",
        "expected.verdicts.2",
        _set("expected.verdicts", {"2": "normal"}),
        "expected one of ('Normal', 'NotNormal', 'Unknown'), got 'normal'",
    ),
    ("08-Z11.json", "expected.verdicts.5", _set("expected.verdicts", {"5": "Normal"}), "degree out of range 1..4"),
    ("08-Z11.json", "cohomology.degrees.3", _set("cohomology.degrees", {"3": {}}), "degree out of range 1..2"),
    ("08-Z11.json", "routes.02", _set("routes", {"2": "surface", "02": "declared"}), "write degree 2 as '2'"),
    # a misspelled optional field would drop its check silently
    ("08-Z11.json", "expected.fixcount", _rekey("expected", "fix_count", "fixcount"), "unknown key"),
]


@pytest.mark.parametrize(
    "name, field, mutate, message",
    MORE_MALFORMED,
    ids=[f"{name[3:-5]}-{field}-{i}" for i, (name, field, _, _) in enumerate(MORE_MALFORMED)],
)
def test_more_malformed_records_name_the_field(tmp_path, capsys, name, field, mutate, message):
    rec = json.loads((catalog_dir() / name).read_text())
    mutate(rec)
    _assert_names_the_field(tmp_path, capsys, rec, field, message)


@pytest.mark.parametrize(
    "data",
    [b"\xff\xfe{}", b"\x80{}", b"{", b"[" * 100000 + b"]" * 100000],
    ids=["bom", "not-utf8", "truncated", "nested-too-deep"],
)
def test_undecodable_file_is_a_schema_error_at_the_file(tmp_path, capsys, data):
    target = tmp_path / "broken.json"
    target.write_bytes(data)
    with pytest.raises(SchemaError) as exc:
        load_scenario(target)
    assert exc.value.path == str(target)
    assert main(["normality", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {target}: ") and err.count("\n") == 1


def _nested(spec, wrap, depth):
    for _ in range(depth):
        spec = wrap(spec)
    return spec


def test_choice_error_shows_a_short_repr_of_the_value(tmp_path, capsys):
    """A verdict nested 500 deep is named in one short line, not ~1000 characters."""
    rec = json.loads((catalog_dir() / "08-Z11.json").read_text())
    rec["expected"]["verdicts"] = {"2": "DEEP"}
    target = tmp_path / "deep.json"
    target.write_text(json.dumps(rec).replace('"DEEP"', "[" * 500 + '"Normal"' + "]" * 500))
    assert main(["normality", str(target)]) == 2
    out, err = capsys.readouterr()
    choices = "('Normal', 'NotNormal', 'Unknown')"
    assert out == "" and err == f"error: deep.expected.verdicts.2: expected one of {choices}, got [[...]]\n"
    rec["expected"]["verdicts"] = {"2": "n" * 5000}
    target.write_text(json.dumps(rec))
    assert main(["normality", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: deep.expected.verdicts.2: expected one of {choices}, got 'nnn")
    assert len(err) < 200


@pytest.mark.parametrize(
    "lattice, field",
    [
        (_nested("U(11)", lambda x: [x], 500), "[0]" * 17),
        (_nested("U(11)", lambda x: {"dual": [x, 11]}, 100), ".dual[0]" * 17),
    ],
    ids=["block-lists", "duals"],
)
def test_lattice_nested_too_deep_is_a_schema_error_at_its_path(tmp_path, capsys, lattice, field):
    """Block lists and duals nest at most 16 deep; the 17th level is the error,
    read before any lattice is built."""
    rec = minimal_record()
    rec["invariant_lattice"] = lattice
    with pytest.raises(SchemaError) as exc:
        scenario_from_record(rec)
    assert str(exc.value) == f"scenario.invariant_lattice{field}: lattice nested deeper than 16"
    target = tmp_path / "nested.json"
    target.write_text(json.dumps(rec))
    assert main(["quotient", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: nested.invariant_lattice{field}: lattice nested deeper than 16\n"


@pytest.mark.parametrize(
    "command, lattice",
    [("normality", {"dual": [{"gram": [[0, 0], [0, 0]]}, 11]}), ("quotient", {"gram": [[0, 0], [0, 0]]})],
    ids=["normality-dual", "quotient-gram"],
)
def test_degenerate_gram_exits_2(tmp_path, capsys, command, lattice):
    """A singular Gram gives exit 2 and a one-line error, at load or at the quotient."""
    rec = minimal_record()
    rec["invariant_lattice"] = lattice
    target = tmp_path / "degenerate.json"
    target.write_text(json.dumps(rec))
    assert main([command, str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "degenerate" in err and "Traceback" not in err


def test_route_needs_read_at_load_and_by_run_route(by_name):
    """One statement of what a route reads: the load check and run_route agree."""
    rec = minimal_record()
    del rec["fixed_locus"]
    with pytest.raises(ConsistencyError, match="Z11 declares no fixed locus"):
        scenario_from_record(rec)
    with pytest.raises(ConsistencyError, match="M11a declares no fixed locus"):
        run_route(by_name["M11a"], "main")
    with pytest.raises(ConsistencyError, match="CE2 declares no cohomology profile"):
        run_route(by_name["CE2"], "simple")
    rec = minimal_record()
    rec["routes"] = {"2": "declared"}
    rec["expected"]["verdicts"] = {}
    with pytest.raises(ConsistencyError, match="Z11 declares no expected verdict in degree 2"):
        scenario_from_record(rec)


def test_scenario_quotient_constructions(by_name):
    y3, m3, mprime = (scenario_quotient(by_name[n]) for n in ("Y3", "M3", "Mprime"))
    assert y3.bb is None and y3.match.passed and abs(y3.gram.determinant) == 81
    assert m3.bb.fujiki_constant == 9 and m3.gram is m3.bb.gram and m3.match.passed
    assert mprime.gram is by_name["Mprime"].expected.quotient and mprime.match is None
    assert scenario_quotient(by_name["NS3"]) is None  # no glue recipe
    assert scenario_quotient(by_name["CE2"]) is None  # no invariant lattice


def test_declared_quotient_without_glue_is_a_consistency_error():
    rec = json.loads((catalog_dir() / "13-M3.json").read_text())
    rec["glue"] = None
    with pytest.raises(ConsistencyError, match="M3: the declared quotient needs"):
        verify_scenario(scenario_from_record(rec))


def test_failed_quotient_prints_nothing_to_stdout(tmp_path, capsys):
    rec = minimal_record()
    rec["invariant_lattice"] = "U(3)"
    target = tmp_path / "u3.json"
    target.write_text(json.dumps(rec))
    assert main(["quotient", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: discriminant group Z/3 + Z/3 is not 11-elementary\n"


@pytest.fixture
def weight_reads(monkeypatch):
    """Record every (p, exponents) that a fixed point's weight is computed for."""
    reads = []

    def counted(p, exponents):
        reads.append((p, exponents))
        return weight_lookup(p, exponents)

    monkeypatch.setattr(normality, "weight_lookup", counted)
    return reads


def test_weights_are_computed_when_first_read(weight_reads, monkeypatch):
    catalog = load_catalog()
    assert weight_reads == []
    catalog_verify()
    assert sorted(weight_reads) == [(3, (2, 2, 2, 2)), (5, (1, 1, 1, 2)), (5, (1, 1, 4, 4)), (5, (1, 2, 3, 4))]
    # every undeclared weight of the catalog, forced: the 11 surface groups go
    # through all three fans of weight_dim2
    fans = []
    monkeypatch.setattr(toric_weight, "weight_dim2", lambda p, q: fans.append((p, q)) or weight_dim2(p, q))
    groups = [pt for s in catalog if s.fixed_locus is not None for pt in s.fixed_locus.isolated]
    assert all(pt.declared is None and pt.weight == WeightValue(1, 1) for pt in groups)
    assert len(fans) == 11


def test_declared_weight_and_equality_need_no_read(weight_reads):
    declared = isolated_points(5, (1, 1, 1, 1), weight=WeightValue(0, 2))
    assert declared.weight == WeightValue(0, 2)
    assert weight_reads == []
    pt = isolated_points(7, (1, 3), multiplicity=3)
    assert pt == isolated_points(7, (3, 1), multiplicity=3)
    assert hash(pt) == hash(isolated_points(7, (1, 3), multiplicity=3))
    assert weight_reads == []
    assert pt.weight == WeightValue(1, 1) and pt.weight is pt.weight
    assert weight_reads == [(7, (1, 3))]
    assert pt == isolated_points(7, (1, 3), multiplicity=3)
    assert hash(pt) == hash(isolated_points(7, (1, 3), multiplicity=3))
    assert pt != declared


@pytest.mark.parametrize("argv", [["normality", "M5"], ["verify-paper"]], ids=" ".join)
def test_failed_weight_read_exits_2(monkeypatch, capsys, argv):
    def broken(p, exponents):
        raise ClassificationFailure(f"no weight for 1/{p}{exponents}")

    monkeypatch.setattr(normality, "weight_lookup", broken)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: no weight for 1/5(1, 1, 4, 4)\n"


# -- fuzz: mutate any node of any catalog record -----------------------------

RECORDS = [json.loads(f.read_text()) for f in sorted(catalog_dir().glob("*.json"))]
# values of other JSON types, an out-of-range integer and a non-symmetric Gram
REPLACEMENTS = [None, True, 10**30, -1, "x", {}, [], {"gram": [[2, 1], [0, 2]]}, [[2, 1], [0, 2]]]


def _node_paths(tree, path=()):
    """Key path of every node of a JSON tree, the root first."""
    yield path
    items = tree.items() if isinstance(tree, dict) else enumerate(tree) if isinstance(tree, list) else ()
    for key, value in items:
        yield from _node_paths(value, (*path, key))


NODE_PATHS = [list(_node_paths(rec)) for rec in RECORDS]


@st.composite
def mutated_records(draw):
    """(record, added): a catalog record with one node deleted, replaced by a
    value of another shape (a list one entry shorter or longer among them),
    or given an unknown key (then added is True)."""
    i = draw(st.integers(0, len(RECORDS) - 1))
    path = draw(st.sampled_from(NODE_PATHS[i]))
    rec = copy.deepcopy(RECORDS[i])
    parent = rec
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]] if path else rec
    choices = ["replace"] + ["delete"] * bool(path) + ["add"] * isinstance(node, dict)
    action = draw(st.sampled_from(choices))
    if action == "add":
        node["unknown_key"] = draw(st.sampled_from(REPLACEMENTS))
    elif action == "delete":
        del parent[path[-1]]
    else:
        values = REPLACEMENTS + ([node[:-1], node + node[-1:]] if isinstance(node, list) and node else [])
        value = draw(st.sampled_from(values))
        if not path:
            return value, False
        parent[path[-1]] = value
    return rec, action == "add"


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzzed.json"


@settings(max_examples=300, deadline=None)
@given(mutated_records(), st.integers(0, 14))
def test_mutated_records_load_or_raise_a_record_error(fuzz_file, mutation, sample):
    """The reader only succeeds or raises SchemaError or ConsistencyError, an
    unknown key always raises SchemaError at that key, and one example in 15
    also runs `normality` and `quotient`: exit 0 or 1, or exit 2 with one
    error line and nothing on stdout."""
    rec, added = mutation
    try:
        scenario_from_record(rec)
    except (SchemaError, ConsistencyError) as exc:
        assert not added or isinstance(exc, SchemaError) and exc.path.endswith(".unknown_key")
    else:
        assert not added
    if sample:
        return
    fuzz_file.write_text(json.dumps(rec))
    for command in ("normality", "quotient"):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, str(fuzz_file)])
        assert code in (0, 1, 2)
        if code == 2:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
