"""The package surface: every exported name resolves, no module of
``src/algen`` imports a name it never uses or has a function with a
parameter it never reads, and every module-level private function or class
is referred to outside its own definition (no linter is assumed to be
installed, so these are the checks that keep deleted code deleted)."""

import ast
import copy
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
    # the product shortcut reads the factors' own tables: no engine path
    # builds a product algebra
    assert not hasattr(algen.solver, "direct_product")


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # each algen run is one cold start, where these modules cost most of
    # the package's import time; a fresh interpreter shows what it loads
    import subprocess
    import sys

    code = "import sys, algen.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, check=True)
    assert r.stdout == "[]\n", r.stderr


def _value_objects():
    """For each value class of the package, a function building one object
    afresh, with equal fields each time, and its field names in order."""
    from factories import k3

    from algen.algebra import Congruence
    from algen.kleene import InvolutivePoset
    from algen.solver import (CongruenceClassification, GCongruences,
                              GeneralizationReport, SolutionEntry,
                              SymbolicProblem, TypeVerdict, Verdict)
    from algen.terms import App, Signature, Substitution, Var
    from algen.variety import VarietyContext, VarietySpec

    a = k3()
    ctx = VarietyContext(VarietySpec("k3", a.sig, (a,)))

    def term():
        return App("not", (Var("x"),))

    def verdict():
        return Verdict("no", None, "a reason")

    def report():
        theta = Congruence(tuple(range(3)))
        return GeneralizationReport(
            SymbolicProblem(ctx, (term(),)), 2, theta, {}, GCongruences(
                "exact", (), (), ()), (), TypeVerdict("unitary", 1), verdict(),
            verdict(), (), {"status": "skipped"})
    return {
        "Signature": (lambda: Signature((("f", 2),)), ("ops",)),
        "Var": (lambda: Var("x1"), ("name",)),
        "App": (term, ("op", "args")),
        "Substitution": (lambda: Substitution((("x", term()),)), ("bindings",)),
        "Congruence": (lambda: Congruence((0, 0, 2)), ("blocks",)),
        "VarietySpec": (lambda: VarietySpec("k3", a.sig, (a,)),
                        ("name", "sig", "generators")),
        "InvolutivePoset": (lambda: InvolutivePoset(
            ("a",), frozenset({(0, 0)}), (0,)), ("labels", "leq", "iota")),
        "Verdict": (verdict, ("status", "bound", "detail")),
        "SymbolicProblem": (lambda: SymbolicProblem(ctx, (term(), term())),
                            ("ctx", "terms")),
        "CongruenceClassification": (lambda: CongruenceClassification(
            Congruence((0, 1, 2)), Verdict("yes", 1), verdict(), verdict(), None),
            ("theta", "exact", "projective", "strongly_projective", "retract")),
        "GCongruences": (lambda: GCongruences(
            "exact", (Congruence((0, 1, 2)),), (), ()),
            ("status", "lower", "upper", "maximal")),
        "SolutionEntry": (lambda: SolutionEntry(term(), (Substitution(()),)),
                          ("term", "witnesses")),
        "TypeVerdict": (lambda: TypeVerdict("finitary", 2), ("kind", "size", "reason")),
        "GeneralizationReport": (report, (
            "problem", "bound", "kernel", "classifications", "g", "mcsg", "type",
            "ep", "esp", "caveats", "shortcut", "method")),
    }


_DICTS = {"Verdict": [("status", "no"), ("detail", "a reason")],
          "TypeVerdict": [("kind", "finitary"), ("size", 2)]}


@pytest.mark.parametrize("name", list(_value_objects()))
def test_value_classes_compare_and_hash_by_their_fields(name):
    make, fields = _value_objects()[name]
    x, y = make(), make()
    assert x is not y and x == y and not x != y
    values = tuple(getattr(x, f) for f in fields)
    assert repr(x) == f"{name}({', '.join(f'{f}={v!r}' for f, v in zip(fields, values))})"
    if name == "GeneralizationReport":
        # its dict fields leave a report unhashable
        with pytest.raises(TypeError):
            hash(x)
    else:
        # the tuple of fields in order, as for Congruence((0, 0, 2)) the
        # hash of ((0, 0, 2),), which fixes the order of a set of congruences
        assert hash(x) == hash(y) == hash(values)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(x, f, values[0])
        with pytest.raises(AttributeError):
            delattr(x, f)
    assert getattr(x, fields[0]) is values[0]
    # a verdict's JSON form: the fields that are set, in field order
    if name in _DICTS:
        assert list(x.to_dict().items()) == _DICTS[name]
    if name == "TypeVerdict":
        assert x.render() == "finitary(2)"
    assert copy.copy(x) == x
    # another class with the same fields, even a subclass, is never equal
    other = type("Other", (type(x),), {})(*values)
    assert x != other and other != x


def test_values_of_different_classes_differ():
    from algen.terms import App, Var

    assert Var("x") != App("x") and App("x") == App("x", ())
