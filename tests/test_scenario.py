"""Scenario records: schema, consistency checks, catalog, verification."""

import json
import shutil
from pathlib import Path

import pytest

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


MALFORMED = [
    ("fixed_locus", _set("fixed_locus", [])),
    ("expected", _set("expected", [])),
    ("cohomology", _set("cohomology", 5)),
    ("fixed_locus.isolated[0]", _set("fixed_locus.isolated", ["x"])),
    ("fixed_locus.components[0]", _set("fixed_locus.components", [5])),
    (
        "fixed_locus.components[0].exponents",
        _set("fixed_locus.components", [{"dimension": 1, "even_betti_sum": 2, "exponents": 3}]),
    ),
    ("expected.betti", _set("expected.betti", 2)),
    ("sym2_cokernel_torsion", _set("sym2_cokernel_torsion", 2)),
    ("routes.two", _rekey("routes", "2", "two")),
    ("expected.verdicts.two", _rekey("expected.verdicts", "2", "two")),
    ("expected.alpha.two", _set("expected.alpha", {"two": [0, 0]})),
    # values of the right JSON type that make no sense
    ("prime", _set("prime", True)),
    ("invariant_lattice.dual", _set("invariant_lattice", {"dual": ["U", 0]})),
    ("invariant_lattice[0].dual", _set("invariant_lattice", [{"dual": ["U", -1]}])),
    ("expected.quotient.dual", _set("expected.quotient", {"dual": ["U", 4]})),
    ("expected.quotient[1].dual", _set("expected.quotient", ["U", {"dual": ["U", True]}])),
    # A2 is nondegenerate but its discriminant group Z/3 is not 11-elementary
    ("invariant_lattice.dual[0].dual", _set("invariant_lattice", {"dual": [{"dual": ["A2", 11]}, 11]})),
    ("invariant_lattice.gram", _set("invariant_lattice", {"gram": [[0, 0], [0, 0]]})),
    (
        "invariant_lattice.dual[0].dual[0].gram",
        _set("invariant_lattice", {"dual": [{"dual": [{"gram": [[0, 0], [0, 0]]}, 11]}, 11]}),
    ),
    ("fixed_locus.sigma_simply_connected", _set("fixed_locus.sigma_simply_connected", "no")),
    ("fixed_locus.sigma_class_primitive", _set("fixed_locus.sigma_class_primitive", 1)),
    ("expected.alpha.2", _set("expected.alpha", {"2": ["a", "b"]})),
    ("expected.alpha.4", _set("expected.alpha", {"4": [0, "b"]})),
    ("expected.betti[1]", _set("expected.betti", [2, "4"])),
    ("sym2_cokernel_torsion[0]", _set("sym2_cokernel_torsion", [True])),
    ("notes[0]", _set("notes", [5])),
    # declared weights outside 0 <= lo <= hi <= 2
    ("fixed_locus.isolated[0].weight", _set("fixed_locus.isolated", [{"exponents": [1, 1], "count": 2, "weight": 5}])),
    ("fixed_locus.isolated[0].weight", _set("fixed_locus.isolated", [{"exponents": [1, 1], "count": 2, "weight": [2, 1]}])),
    ("fixed_locus.isolated[0].weight", _set("fixed_locus.isolated", [{"exponents": [1, 1], "count": 2, "weight": [-1, 1]}])),
]


@pytest.mark.parametrize("field, mutate", MALFORMED, ids=[f for f, _ in MALFORMED])
def test_malformed_record_names_the_field(tmp_path, capsys, field, mutate):
    rec = minimal_record()
    mutate(rec)
    with pytest.raises(SchemaError) as exc:
        scenario_from_record(rec)
    assert exc.value.path == f"scenario.{field}"
    target = tmp_path / "broken.json"
    target.write_text(json.dumps(rec))
    assert main(["normality", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: broken.{field}: ")
    assert "Traceback" not in err


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
