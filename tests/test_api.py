"""The package surface: every exported name resolves, no module of
``src/algen`` imports a name it never uses or has a function with a
parameter it never reads, and every module-level private function or class
is referred to outside its own definition (no linter is assumed to be
installed, so these are the checks that keep deleted code deleted)."""

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


def _sources() -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}


def _unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """Module-level private functions and classes that no module names
    outside their own definition: not as a name, an attribute or an
    imported name."""
    tops = [(module, node) for module, text in sorted(sources.items())
            for node in ast.parse(text).body]
    names = {id(node): {getattr(n, "id", None) or getattr(n, "attr", None)
                        or getattr(n, "name", None) for n in ast.walk(node)
                        if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}
             for _, node in tops}
    return [f"{module}.py: {node.name}" for module, node in tops
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and not any(node.name in names[id(other)]
                        for _, other in tops if other is not node)]


def test_every_private_helper_is_used():
    assert _unreferenced_privates(_sources()) == []


def test_an_unused_private_helper_is_caught():
    # a helper that only calls itself is still unused
    sources = _sources()
    sources["variety"] += "\n\ndef _leftover(g):\n    return _leftover(g)\n"
    assert _unreferenced_privates(sources) == ["variety.py: _leftover"]


def _unused_parameters(path: pathlib.Path) -> list[str]:
    """Parameters of a function or lambda that its body never reads."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      a.vararg, a.kwarg) if p]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)}
            out += [f"{path.name}:{node.lineno}: {getattr(node, 'name', 'lambda')}"
                    f"({p})" for p in params if p not in read]
    return out


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_no_unused_parameters(name):
    assert _unused_parameters(SRC / f"{name}.py") == []


def test_an_unused_parameter_is_caught(tmp_path):
    # a read in a nested function counts; a default value does not
    path = tmp_path / "mod.py"
    path.write_text("def f(a, b=0, *rest):\n    return lambda: a\n",
                    encoding="utf-8")
    assert _unused_parameters(path) == ["mod.py:1: f(b)", "mod.py:1: f(rest)"]


def test_benchmark_spans_bind_every_target():
    # the benchmark wraps these functions by name from outside the package;
    # a rename would leave its span silently empty
    import importlib.util
    import inspect

    import algen.algebra
    import algen.solver

    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    patches = spans.Patches(spans.Tracer())
    bound = {id(orig) for _, _, orig, _ in patches.bindings}
    for name, modname, attr, _ in spans.TARGETS:
        owner = importlib.import_module(modname)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = vars(getattr(owner, cls_name))
        else:
            owner = vars(owner)
        assert id(owner[attr]) in bound, name
    assert inspect.isgeneratorfunction(algen.algebra.enumerate_homs)
    # test_solve_1ep_skips_product_shortcut patches this solver global
    assert algen.solver.direct_product is algen.algebra.direct_product
