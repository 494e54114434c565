"""Session fixtures and the acceptance summary block."""

import re

import pytest

from quotlat import HilbertSquare, load_catalog, parse_lattice_expr

CRITERIA = {
    1: "surface and torus quotient lattices",
    2: "fourfold quotient lattices and Fujiki constants",
    3: "quotient Betti numbers",
    4: "normality verdicts across the catalog",
    5: "toric weights and weight solving",
    6: "randomized property suites",
    7: "Hilbert-square ring and the norm-pairing certificate",
    8: "fixed point counts and chain parity",
}


@pytest.fixture(scope="session")
def catalog():
    return load_catalog()


@pytest.fixture(scope="session")
def by_name(catalog):
    return {s.name: s for s in catalog}


@pytest.fixture(scope="session")
def hilb():
    return HilbertSquare(parse_lattice_expr("U^3 + E8(-1)^2").gram)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion, after the test run."""
    verdicts = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            m = re.search(
                r"test_acceptance\.py::test_criterion_(\d+)",
                getattr(report, "nodeid", ""),
            )
            if m is None:
                continue
            num = int(m.group(1))
            verdicts[num] = verdicts.get(num, True) and outcome == "passed"
    if not verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(verdicts):
        word = "PASS" if verdicts[num] else "FAIL"
        terminalreporter.write_line(f"criterion {num}: {word} - {CRITERIA[num]}")
