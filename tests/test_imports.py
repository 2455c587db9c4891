"""Every name a ``hubsim`` module imports is used in that module, unless
its import line carries ``# noqa: F401``.  That escape hatch is kept for
names ``perfbench/layertrace.py`` rebinds in the importing module, and for
no other.  ``__init__.py`` re-exports by design and is skipped."""

import ast
import importlib
from pathlib import Path

import pytest

import hubsim

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hubsim"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(source: str) -> list[tuple[str, int, bool]]:
    """(name, line, whether the import carries ``# noqa: F401``) for every
    name the source imports, ``__future__`` aside."""
    lines = source.splitlines()
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        span = lines[node.lineno - 1:node.end_lineno]
        kept = any("# noqa: F401" in line for line in span)
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            out.append((name, node.lineno, kept))
    return out


def unused_imports(source: str) -> list[str]:
    imported = {name: line for name, line, kept in imported_names(source)
                if not kept}
    used = {node.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = ("import math\nimport os  # noqa: F401\n"
              "from json import dumps, loads\nprint(math.pi, dumps)\n")
    assert unused_imports(source) == ["line 3: loads"]


def test_kept_imports_are_rebound_by_the_layer_tracer(monkeypatch):
    # a name kept under noqa must be one the tracer rebinds in that very
    # module; once the tracer is retargeted the import has to go
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    layertrace = importlib.import_module("layertrace")
    rebound = {(getattr(owner, "__name__", ""), attr)
               for owner, attr, _, _ in layertrace._targets(hubsim)}
    kept = {(f"hubsim.{path.stem}", name) for path in MODULES
            for name, _, noqa in imported_names(path.read_text(
                encoding="utf-8")) if noqa}
    assert kept and kept <= rebound, kept - rebound
