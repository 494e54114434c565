"""Import layering of the library modules, read from their source with ast.

`cli` sits on top and prints; `scenario` decides everything about a
scenario and is imported by nothing but `cli`.  The walk covers every node
of a module, so an import inside a function body counts too.

Every CLI run is a fresh process, so the import budget is checked here as
well: no module compiles code at run time or imports `dataclasses`, and
`import quotlat.cli` loads neither `dataclasses` nor `inspect`.

Every top-level definition has a use: another top-level statement of the
package names it, the package `__init__` re-exports it, or the benchmark
tracer (`perfbench/tracer.py`, read here with ast) wraps it by name.

The scenario reader turns a caught error into `SchemaError` in one place,
its constructor helper, so that no record field grows a try/except of its
own.

The verdict names are spelled once, as `normality.NORMAL`, `NOT_NORMAL`
and `UNKNOWN`; every other module compares with those constants.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
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


def _names_used(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def _traced_names() -> set[tuple[str, str]]:
    """(module, name) of each class, function and `Class.method` that the
    tracer's LAYERS wraps."""
    tracer = Path(quotlat.__file__).parents[2] / "perfbench" / "tracer.py"
    for node in ast.parse(tracer.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]:
            layers = [ast.literal_eval(v) for v in node.value.values]
            names = set()
            for module, cls, attr in layers:
                module = module.rsplit(".", 1)[1]
                names.add((module, cls or attr))
                if cls:
                    names.add((module, f"{cls}.{attr}"))
            return names
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


def _package_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in MODULES}


def _exported(trees) -> set[str]:
    return {
        a.asname or a.name
        for node in trees["__init__"].body
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    }


def test_every_top_level_definition_has_a_use():
    trees = _package_trees()
    exported = _exported(trees)
    statements = [
        node for tree in trees.values() for node in tree.body if not isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    used = {id(node): _names_used(node) for node in statements}
    traced = _traced_names()
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in exported
        and (module, node.name) not in traced
        and not any(node.name in used[id(other)] for other in statements if other is not node)
    ]
    assert unused == []


# Methods kept without a caller in the package: the Hilbert-square action
# hooks that the derived catalog rows (ROADMAP item 2) will call.
KEPT_METHODS = {
    ("hilb2_ring", "HilbertSquare.induced_h2"),
    ("hilb2_ring", "HilbertSquare.induced_h4"),
}


def _name_uses(node) -> Counter:
    """Names, attributes and string constants anywhere under node, with counts."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.value
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) or (isinstance(n, ast.Constant) and isinstance(n.value, str))
    )


def test_every_method_and_property_has_a_use():
    """A method or property is used when the package names it (as an
    attribute, a name or a string) outside its own body.  Dunder methods,
    names the package `__init__` exports, methods the tracer wraps and
    KEPT_METHODS are exempt."""
    trees = _package_trees()
    exported = _exported(trees)
    traced = _traced_names()
    everywhere = sum((_name_uses(tree) for tree in trees.values()), Counter())
    unused = [
        f"{module}.{cls.name}.{node.name}"
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in exported
        and (module, f"{cls.name}.{node.name}") not in traced | KEPT_METHODS
        and everywhere[node.name] <= _name_uses(node)[node.name]
    ]
    assert unused == []


def test_method_guard_sees_an_unused_method(tmp_path, monkeypatch):
    module = tmp_path / "m.py"
    module.write_text(
        "class A:\n    def used(self):\n        return self.spare\n\n"
        "    @property\n    def spare(self):\n        return 1\n\n"
        "    def lonely(self):\n        return self.lonely()\n\n"
        "    def __repr__(self):\n        return 'A'\n\n"
        "def f(a):\n    return a.used()\n"
    )
    init = tmp_path / "__init__.py"
    init.write_text("")
    monkeypatch.setattr(sys.modules[__name__], "MODULES", [init, module])
    with pytest.raises(AssertionError, match="m.A.lonely"):
        test_every_method_and_property_has_a_use()


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "normality"], ids=lambda p: p.stem)
def test_verdict_names_are_spelled_only_in_normality(path):
    spelled = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and node.value in ("Normal", "NotNormal", "Unknown")
    ]
    assert spelled == []


def _unchecked_action_users(trees) -> list[str]:
    """module.statement for each top-level statement that names
    `_derived_action` (a call, a reference, an import or a string), its
    own definition aside."""
    return sorted(
        f"{module}.{getattr(node, 'name', node.lineno)}"
        for module, tree in trees.items()
        for node in tree.body
        if getattr(node, "name", None) != "_derived_action"
        and (
            _name_uses(node)["_derived_action"]
            or any(isinstance(a, ast.alias) and "_derived_action" in (a.name, a.asname) for a in ast.walk(node))
        )
    )


def test_unchecked_actions_come_only_from_sym2_action_and_conjugate():
    """`gmodule._derived_action` builds a `PrimeOrderAction` without the
    phi^p = I and form checks.  Only the two constructions whose docstrings
    prove their result may reach it, and the package does not export it, so
    a new caller needs a visible change to this test."""
    trees = _package_trees()
    assert _unchecked_action_users(trees) == ["gmodule.conjugate", "gmodule.sym2_action"]
    assert "_derived_action" not in _exported(trees)


def test_unchecked_action_guard_sees_other_users():
    tree = ast.parse(
        "from .gmodule import _derived_action as d\n"
        "def f(p, m):\n    return getattr(g, '_derived_action')(p, m)\n"
        "def _derived_action(p, phi):\n    return phi\n"
    )
    assert _unchecked_action_users({"m": tree}) == ["m.1", "m.f"]


def test_scenario_converts_errors_to_schema_error_in_one_handler():
    tree = ast.parse((Path(quotlat.__file__).parent / "scenario.py").read_text())
    converting = [h for h in ast.walk(tree) if isinstance(h, ast.ExceptHandler) and "SchemaError" in _names_used(h)]
    helper = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_built")
    assert converting == [h for h in ast.walk(helper) if isinstance(h, ast.ExceptHandler)]
    assert len(converting) == 1
