"""The package surface: every exported name resolves, and no module of
``src/algen`` imports a name it never uses (no linter is assumed to be
installed, so this is the check that keeps deleted code deleted)."""

import ast
import importlib
import pathlib

import pytest

import algen

SRC = pathlib.Path(algen.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"algen.{name}")
    assert [n for n in getattr(module, "__all__", ())
            if not hasattr(module, n)] == []


def test_package_exports_resolve():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    names = [a.asname or a.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for a in node.names]
    assert names
    assert [n for n in names if not hasattr(algen, n)] == []


def _unused_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    # annotations are evaluated lazily, never quoted, so they parse as names
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line}: {name}"
            for name, line in sorted(imported.items()) if name not in used]


# __init__.py imports only to re-export, so it is left out
@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    assert _unused_imports(SRC / f"{name}.py") == []
