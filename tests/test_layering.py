"""Import layering of the library modules, read from their source with ast.

`cli` sits on top and prints; `scenario` decides everything about a
scenario and is imported by nothing but `cli`.  The walk covers every node
of a module, so an import inside a function body counts too.

Every CLI run is a fresh process, so the import budget is checked here as
well: no module compiles code at run time or imports `dataclasses`, and
`import quotlat.cli` loads neither `dataclasses` nor `inspect`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quotlat

MODULES = sorted(Path(quotlat.__file__).parent.glob("*.py"))


def imported_modules(path: Path) -> set[str]:
    """The quotlat modules a source file imports, relative or absolute."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("quotlat."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and not (module == "quotlat" or module.startswith("quotlat.")):
                continue
            parts = module.split(".")[node.level == 0 :]
            if parts and parts[0]:
                out.add(parts[0])
            else:  # from . import x, from quotlat import x
                out.update(a.name for a in node.names)
    return out


def test_walk_sees_every_form_of_import(tmp_path):
    f = tmp_path / "m.py"
    f.write_text(
        "import json\nfrom . import _linalg as la\nfrom .gmodule import x\n"
        "import quotlat.cli\ndef f():\n    from quotlat.scenario import y\n    from quotlat import normality\n"
    )
    assert imported_modules(f) == {"_linalg", "gmodule", "cli", "scenario", "normality"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_layering(path):
    imports = imported_modules(path)
    assert "cli" not in imports
    # the package __init__ re-exports the public API and is no layer
    if path.stem not in ("scenario", "cli", "__init__"):
        assert "scenario" not in imports


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_code_generation(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            assert node.func.id not in ("exec", "eval", "compile"), node.lineno
        elif isinstance(node, ast.Import):
            assert "dataclasses" not in (a.name for a in node.names), node.lineno
        elif isinstance(node, ast.ImportFrom):
            assert node.module != "dataclasses", node.lineno


def test_cli_import_loads_no_dataclasses_or_inspect():
    src = str(Path(quotlat.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, quotlat.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
