"""Command line driver: parsing, reports, exit codes, determinism."""

import json
from random import Random

import oracles
import pytest

from quotlat import _linalg as la
from quotlat import toric_weight
from quotlat.cli import main


def run(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lattice_invariants(capsys):
    code, out, _ = run(capsys, ["lattice", "U^3 + E8(-1)^2", "--invariants"])
    assert code == 0
    assert "rank               22" in out
    assert "determinant        -1" in out
    assert "signature          (3, 19)" in out


def test_lattice_from_file(tmp_path, capsys):
    f = tmp_path / "g.json"
    f.write_text(json.dumps({"gram": [[0, 3], [3, 0]]}))
    code, out, _ = run(capsys, ["lattice", str(f), "--invariants"])
    assert code == 0
    assert "determinant        -9" in out


def test_expression_longer_than_a_file_name_is_read_as_an_expression(capsys):
    expr = " + ".join(["U(2)"] * 40)  # 278 bytes; Path.exists() raises on it
    assert len(expr.encode()) > 255
    code, out, err = run(capsys, ["lattice", expr, "--invariants"])
    assert (code, err) == (0, "")
    assert "rank               80" in out
    assert "determinant        " + str(2**80) in out
    assert "signature          (40, 40)" in out
    padded = "U + U + U" + " " * 250 + "+ E8(-1)^2"
    assert run(capsys, ["hilb2", "--gram", padded]) == run(capsys, ["hilb2"])


def test_snf_command(tmp_path, capsys):
    f = tmp_path / "m.json"
    f.write_text(json.dumps([[2, 4], [6, 8]]))
    code, out, _ = run(capsys, ["snf", str(f)])
    assert code == 0
    assert "elementary divisors [2, 4]" in out


def _printed_matrices(out: str) -> dict[str, list[list[int]]]:
    """The matrices `quotlat snf` prints, by name: each "X =" line and its rows."""
    mats: dict[str, list[list[int]]] = {}
    for line in out.splitlines():
        if line.endswith(" ="):
            rows = mats[line[:-2]] = []
        elif line.startswith("  ["):
            rows.append([int(x) for x in line.strip(" []").split()])
    return mats


@pytest.mark.parametrize(
    "rows",
    [
        [[rng.randint(-9, 9) for _ in range(12)] for rng in [Random(12)] for _ in range(12)],
        [[2, 4, -6, 0, 8], [-1, -2, 3, 0, -4], [0, 3, 5, 1, -7]],  # rank 2
    ],
    ids=["12x12", "3x5-rank-2"],
)
def test_snf_command_prints_valid_transforms(tmp_path, capsys, rows):
    """U A V = D for the printed matrices, D a nonnegative divisibility chain
    on its diagonal and zero off it, and U and V unimodular."""
    f = tmp_path / "m.json"
    f.write_text(json.dumps(rows))
    code, out, err = run(capsys, ["snf", str(f)])
    assert (code, err) == (0, "")
    mats = _printed_matrices(out)
    u, d, v = mats["U"], mats["D"], mats["V"]
    m, n = len(rows), len(rows[0])
    assert (len(u), len(d), len(v)) == (m, m, n)
    assert la.mat_mul(la.mat_mul(u, rows), v) == d
    diag = [d[i][i] for i in range(min(m, n))]
    assert out.splitlines()[0] == f"elementary divisors {diag}"
    assert all(d[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    assert all(x >= 0 for x in diag)
    assert all(y % x == 0 if x else y == 0 for x, y in zip(diag, diag[1:]))
    assert sum(map(bool, diag)) == oracles.rank_rational(rows)
    assert abs(oracles.det(u)) == abs(oracles.det(v)) == 1


JORDAN_CASES = [
    ([[0, -1], [1, -1]], 3, ["p = 3, rank 2", "l_1 = 0  l_2 = 1  l_3 = 0", "invariant rank = 0"]),
    # -1 eigenvectors are not invariant: the sign module plays the role of l_(p-1)
    ([[-1, 0], [0, -1]], 2, ["l_1 = 2  l_2 = 0", "plus rank = 0  minus rank = 2", "invariant rank = 0"]),
    (
        [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        2,
        ["l_1 = 2  l_2 = 1", "plus rank = 1  minus rank = 1", "invariant rank = 2"],
    ),
]


def test_jordan_command(tmp_path, capsys):
    f = tmp_path / "phi.json"
    for phi, prime, expected in JORDAN_CASES:
        f.write_text(json.dumps(phi))
        code, out, _ = run(capsys, ["jordan", "--matrix", str(f), "--prime", str(prime)])
        assert code == 0
        for line in expected:
            assert f"{line}\n" in out, (phi, line)


def test_normality_default_route(capsys):
    code, out, _ = run(capsys, ["normality", "k3-sympl-7"])
    assert code == 0
    assert "H^2: Normal" in out
    assert "chain 3 >= 3 >= 2; parity holds" in out


def test_normality_single_criterion(capsys):
    code, out, _ = run(capsys, ["normality", "Y7", "--criterion", "simple"])
    assert code == 0
    assert "middle degree with l_1 = 1" in out


def test_normality_counterexample_matches_expectation(capsys):
    # a NotNormal verdict that the record declares is still a success
    code, out, _ = run(capsys, ["normality", "CE2"])
    assert code == 0
    assert "H^2: NotNormal" in out
    assert "alpha in [1, 1]" in out


def test_normality_unknown_scenario(capsys):
    code, _, err = run(capsys, ["normality", "nope"])
    assert code == 2
    assert err.startswith("error: ")


def test_quotient_fourfold(capsys):
    code, out, _ = run(capsys, ["quotient", "M11a"])
    assert code == 0
    assert "Fujiki constant    C = 33" in out
    assert "pushforward index  p^2" in out
    assert "[ 2   3  -8]" in out


def test_weight_command(capsys):
    code, out, _ = run(capsys, ["weight", "--exponents", "1", "1", "4", "4", "--prime", "5"])
    assert code == 0
    assert "weight 1" in out


def test_weight2d_command(capsys):
    code, out, _ = run(capsys, ["weight2d", "5", "2"])
    assert code == 0
    assert "weight 1" in out
    assert "HJ [3, 2]" in out


def test_weight2d_invariant_failure_exits_2(monkeypatch, capsys):
    # a broken invariant inside the toric computation is a typed failure
    monkeypatch.setattr(toric_weight.Fan2D, "is_smooth", property(lambda fan: False))
    code, out, err = run(capsys, ["weight2d", "5", "2"])
    assert code == 2
    assert out == ""
    assert "error: compactified fan not smooth" in err


def test_hilb2_command(capsys):
    code, out, _ = run(capsys, ["hilb2"])
    assert code == 0
    assert "S-lattice determinant 160" in out


def test_verify_paper_all_rows(capsys):
    code, out, _ = run(capsys, ["verify-paper"])
    assert code == 0
    assert "18/18 rows pass" in out


def test_verify_paper_filter(capsys):
    code, out, _ = run(capsys, ["verify-paper", "--filter", "M11"])
    assert code == 0
    assert "2/2 rows pass" in out


def test_verify_paper_json(capsys):
    code, out, _ = run(capsys, ["verify-paper", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["rows"]) == 18
    assert all(row["passed"] for row in payload["rows"])


def test_verify_paper_deterministic(capsys):
    _, first, _ = run(capsys, ["verify-paper"])
    _, second, _ = run(capsys, ["verify-paper"])
    assert first == second


def test_verify_paper_no_match(capsys):
    code, _, err = run(capsys, ["verify-paper", "--filter", "nonsense"])
    assert code == 2
    assert "no catalog row matches" in err


def test_bad_matrix_file(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text("{\"rows\": 3}")
    code, _, err = run(capsys, ["snf", str(f)])
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[1, 2], [3]], "equal length"),
        ([[1, 2], [3, 4, 5]], "equal length"),
        ([[]], "nonempty"),
        ([[1, 2], [True, 4]], "lists of integers"),
        ([[False]], "lists of integers"),
        # JSON text nested past the recursion limit
        ("[" * 100000 + "]" * 100000, "maximum recursion depth exceeded"),
    ],
    ids=["short-row", "long-row", "empty-row", "bool-entry", "bool-only", "nested-too-deep"],
)
@pytest.mark.parametrize("command", ["snf", "jordan", "lattice", "hilb2"])
def test_matrix_file_shapes_exit_2(tmp_path, capsys, rows, message, command):
    f = tmp_path / "m.json"
    f.write_text(rows if isinstance(rows, str) else json.dumps(rows))
    argv = {
        "snf": ["snf", str(f)],
        "jordan": ["jordan", "--matrix", str(f), "--prime", "3"],
        "lattice": ["lattice", str(f), "--invariants"],
        "hilb2": ["hilb2", "--gram", str(f)],
    }[command]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_lattice_invariants_of_singular_gram_print_nothing(tmp_path, capsys):
    f = tmp_path / "sing_m.json"
    f.write_text(json.dumps({"gram": [[1, 2], [2, 4]]}))
    code, out, err = run(capsys, ["lattice", str(f), "--invariants"])
    assert code == 2
    assert out == ""
    assert err == "error: Gram matrix is degenerate\n"
