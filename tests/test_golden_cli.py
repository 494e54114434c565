"""Byte-for-byte replay of recorded CLI runs over the bundled catalog.

`golden_cli.json` maps each argv (as a shell-quoted command line) to [exit code, stdout,
stderr] as recorded from `quotlat.cli.main`.  The runs cover
`verify-paper` in both formats, `quotient` and `normality` for every
catalog row, `normality` under each named `--criterion` for every row,
`lattice <expr> --invariants` for every lattice expression that appears
in the catalog, `hilb2`, and the orders that the argument parser rejects
as not prime (exit 2, nothing on stdout).  Regenerate the file with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path
from unittest import mock

import pytest

import quotlat
from quotlat.cli import main
from quotlat.scenario import catalog_dir

GOLDEN = Path(__file__).with_name("golden_cli.json")
CRITERIA = ("main", "th3", "maintori", "surface", "simple")
NON_PRIME_ORDERS = [
    ["hilb2", "--prime", "1"],
    ["hilb2", "--prime", "4"],
    ["hilb2", "--prime", "0"],
    ["weight", "--exponents", "1", "1", "--prime", "4"],
    ["weight2d", "4", "1"],
]


def _lattice_strings(value):
    """Expression strings inside a lattice spec: a string, a block list or a dual."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, list):
        for item in value:
            yield from _lattice_strings(item)
    elif isinstance(value, dict) and isinstance(value.get("dual"), list):
        yield from _lattice_strings(value["dual"][0])


def golden_argvs() -> list[list[str]]:
    records = [json.loads(f.read_text()) for f in sorted(catalog_dir().glob("*.json"))]
    names = [r["name"] for r in records]
    exprs: list[str] = []
    for r in records:
        for spec in (r.get("invariant_lattice"), r.get("expected", {}).get("quotient")):
            exprs += [e for e in _lattice_strings(spec) if e not in exprs]
    return (
        [["verify-paper"], ["verify-paper", "--format", "json"]]
        + [["quotient", n] for n in names]
        + [["normality", n] for n in names]
        + [["normality", n, "--criterion", c] for n in names for c in CRITERIA]
        + [["lattice", e, "--invariants"] for e in exprs]
        + [["hilb2"]]
        + NON_PRIME_ORDERS
    )


def run_cli(argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its usage line to the terminal width
    with redirect_stdout(out), redirect_stderr(err), mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        try:
            code = main(argv)
        except SystemExit as exc:  # the argument parser rejected argv
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]


@cache
def _recorded() -> dict[str, list]:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_the_catalog():
    assert list(_recorded()) == [shlex.join(argv) for argv in golden_argvs()]


def test_failed_runs_print_nothing_to_stdout():
    failed = [run for run in _recorded().values() if run[0] == 2]
    assert failed and all(out == "" for _, out, _ in failed)


@pytest.mark.parametrize("argv", golden_argvs(), ids=" ".join)
def test_cli_output_is_byte_identical(argv):
    assert run_cli(argv) == _recorded()[shlex.join(argv)]


@pytest.mark.parametrize("argv", [["verify-paper"], ["verify-paper", "--format", "json"]], ids=" ".join)
def test_verify_paper_is_byte_identical_under_python_O(argv):
    """A fresh `python -O` process prints the recorded run: every invariant
    check raises a typed error (no module has an assert, see
    test_gmodule.test_module_has_no_asserts), so none is stripped."""
    src = str(Path(quotlat.__file__).parent.parent)
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-O", "-m", "quotlat.cli", *argv], env=env, capture_output=True, text=True)
    assert [run.returncode, run.stdout, run.stderr] == _recorded()[shlex.join(argv)]


if __name__ == "__main__":
    runs = {shlex.join(argv): run_cli(argv) for argv in golden_argvs()}
    GOLDEN.write_text(json.dumps(runs, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {len(runs)} runs to {GOLDEN}", file=sys.stderr)
