import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from golden_cases import CASES, EXPECTED_EXIT, run_case

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("fname,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_outputs(fname, argv):
    code, text = run_case(argv)
    assert code == EXPECTED_EXIT.get(fname, 0)
    assert text == (GOLDEN / fname).read_text(encoding="utf-8")


_RENDERED = [(fname, argv) for fname, argv in CASES if "--json" not in argv]


@pytest.mark.parametrize("fname,argv", _RENDERED, ids=[c[0] for c in _RENDERED])
def test_text_and_dot_goldens_render_from_the_json_document(fname, argv):
    # the text and DOT renderers read nothing but the document: the one
    # that --json prints, read back, renders each golden byte for byte, so
    # the formats cannot drift apart
    from algen.cli import build_parser, render

    code, text = run_case([a for a in argv if a != "--dot"] + ["--json"])
    assert code == EXPECTED_EXIT.get(fname, 0)
    args = build_parser().parse_args(argv)
    assert render(args, json.loads(text)) == (GOLDEN / fname).read_text(encoding="utf-8")


def test_dot_is_an_option_exactly_where_a_dot_renderer_is(capsys):
    # con, solve and kleene-dual register a DOT renderer; every other
    # subcommand rejects --dot as an unknown argument
    from algen.cli import main

    first = {}
    for _, argv in CASES:
        if "--json" not in argv and "--dot" not in argv:
            first.setdefault(argv[0], argv)
    assert len(first) == 8
    for command, argv in first.items():
        code = main(argv + ["--dot"])
        out, err = capsys.readouterr()
        if command in ("con", "solve", "kleene-dual"):
            assert code == 0 and out.startswith("digraph "), command
        else:
            assert (code, out, err) == (
                1, "", "error: algen: unrecognized arguments: --dot\n"), command


def test_byte_identical_across_runs():
    for fname, argv in CASES[:6]:
        c1, t1 = run_case(argv)
        c2, t2 = run_case(argv)
        assert (c1, t1) == (c2, t2)


def test_one_parser_serves_good_bad_good_calls(capsys):
    # the parser is built once per process: a usage error between two good
    # calls leaves neither call's output nor its own one-line message changed
    from algen.cli import build_parser, main

    assert build_parser() is build_parser()
    fname, argv = CASES[0]
    expected = (GOLDEN / fname).read_text(encoding="utf-8")
    assert main(argv) == 0
    assert capsys.readouterr() == (expected, "")
    assert main(["free", "varieties/kleene.var", "-n", "-3"]) == 1
    assert capsys.readouterr() == (
        "", "error: algen free: argument -n: must be at least 0, got -3\n")
    assert main(argv) == 0
    assert capsys.readouterr() == (expected, "")


def test_json_reports_have_stable_key_order():
    _, text = run_case(["solve", "varieties/kleene.var", "and(x,not(x))",
                        "and(y,not(y))", "--json"])
    doc = json.loads(text)
    assert list(doc.keys()) == [
        "variety", "terms", "variables", "bound", "method", "kernel",
        "congruences", "g_congruences", "mcsg", "type", "properties",
        "caveats", "shortcut"]
    assert doc["mcsg"][0]["term"] == "and(z,not(z))"
    assert doc["type"]["kind"] == "unitary"


def test_solve_pairwise_flag():
    code, text = run_case(["solve", "varieties/kleene.var",
                           "and(x,not(x))", "and(y,not(y))",
                           "and(w,not(w))", "--pairwise", "--json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["method"] == "pairwise-reduction"
    assert doc["mcsg"][0]["term"] == "and(z,not(z))"


def test_exit_code_budget_on_free_monoid_style(tmp_path):
    labels = [str(i) for i in range(10)]
    doc = {
        "name": "freemonoidish",
        "signature": [["oplus", 2], ["0", 0]],
        "algebras": [{
            "name": "M9",
            "universe": labels,
            "ops": {
                "oplus": [[labels[min(i + j, 9)] for j in range(10)]
                          for i in range(10)],
                "0": "0",
            },
        }],
    }
    path = tmp_path / "monoid.var"
    path.write_text(json.dumps(doc))
    code, _ = run_case(["free", str(path), "-n", "8"])
    assert code == 2
    code, _ = run_case(["solve", str(path), "oplus(x,x)", "oplus(y,y)",
                        "--budget", "200"])
    assert code == 2


def test_exit_code_inconclusive():
    code, _ = run_case(["solve", "varieties/n3.var", "oplus(x,x)",
                        "oplus(y,oplus(y,y))"])
    assert code == 3


def test_exit_code_usage_errors(tmp_path):
    code, _ = run_case(["solve", "varieties/boolean.var", "or(x"])
    assert code == 1
    code, _ = run_case(["solve", "varieties/boolean.var", "xor(x,y)"])
    assert code == 1
    code, _ = run_case(["validate", str(tmp_path / "missing.var")])
    assert code == 1
    code, _ = run_case(["kleene-dual", "varieties/kleene.var", "K9"])
    assert code == 1
    code, _ = run_case(["kleene-dual", "varieties/godel3.var", "G3"])
    assert code == 1  # not a Kleene signature


def test_lgg_with_signature_file():
    code, text = run_case(["lgg", "--file", "varieties/kleene.var",
                           "and(x,not(x))", "and(1,not(1))"])
    assert code == 0
    assert "lgg: and(g1,not(g1))" in text


def test_lgg_inconsistent_arity():
    code, _ = run_case(["lgg", "f(a)", "f(a,b)"])
    assert code == 1


def test_lgg_arity_clash_names_its_place(capsys):
    # the clash is reported at the second application's name, with a byte
    # offset like every other malformed lgg input
    from algen.cli import main

    assert main(["lgg", "f(a)", "f(a,b)"]) == 1
    assert capsys.readouterr() == (
        "", "error: operation 'f' used with arities 1 and 2 (byte offset 0)\n")


def test_lgg_blank_argument_list_is_nullary():
    # the parser reads f( ) as f(), so the inferred signature must too
    code, text = run_case(["lgg", "f( )", "f()"])
    assert code == 0
    assert text.splitlines()[0] == "lgg: f"


def test_lgg_nested_arguments():
    # a call inside an argument list is an operation of its own, and its
    # commas do not count towards the outer call's arity
    code, text = run_case(["lgg", "f(g(a),b)", "f(g(c),b)"])
    assert code == 0
    assert text.splitlines()[0] == "lgg: f(g(g1),b)"


def test_lgg_unbalanced_parenthesis_exits_1(capsys):
    from algen.cli import main

    assert main(["lgg", "f(g(a)", "f(b)"]) == 1
    assert capsys.readouterr() == (
        "", "error: unbalanced parenthesis (byte offset 6)\n")


@pytest.mark.parametrize("terms", [["f(,)", "f(a)"], ["f(", "f(b)"]],
                         ids=["empty-argument", "open-end"])
def test_lgg_malformed_term_gets_parse_terms_message(capsys, terms):
    # the signature is read by the term parser, so a missing argument is
    # reported where solve reports it, not as an arity clash or a bracket
    from algen.cli import main

    assert main(["lgg", *terms]) == 1
    assert capsys.readouterr() == (
        "", "error: expected identifier or '(' (byte offset 2)\n")


@pytest.mark.parametrize("terms,first_line", [
    (["a()", "a"], "lgg: a"),
    (["and(x,y)", "x∧z"], "lgg: and(x,g1)"),
], ids=["applied-once-is-a-constant", "sugar-beside-applied"])
def test_lgg_inferred_signature(terms, first_line):
    code, text = run_case(["lgg", *terms])
    assert code == 0
    assert text.splitlines()[0] == first_line


def test_compare_json():
    code, text = run_case(["compare", "varieties/boolean.var", "1", "z",
                           "--json"])
    assert code == 0
    assert json.loads(text) == {"left": "1", "right": "z", "relation": "less"}


def test_compare_over_budget_exits_2(capsys):
    from algen.cli import main

    assert main(["compare", "varieties/boolean.var", "and(x,y)", "or(x,w)",
                 "--budget", "50"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("needs more than 60 cells (limit 50)\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("renames,argv", [
    ({"0": "x2"}, ["free", "-n", "2"]),
    ({"0": "z", "1": "x1"}, ["con"]),
], ids=["free-x2", "con-z-x1"])
def test_operation_named_like_a_minted_variable_exits_1(tmp_path, capsys,
                                                        renames, argv):
    # x2 printed both F(2)'s generator and the constant, and con named a
    # congruence con(z,z); the first reserved name in the signature is reported
    from algen.cli import main
    from factories import renamed_op

    doc = json.loads(pathlib.Path("varieties/boolean.var").read_text())
    for old, new in renames.items():
        renamed_op(doc, old, new)
    path = tmp_path / "renamed.var"
    path.write_text(json.dumps(doc))
    assert main([argv[0], str(path), *argv[1:]]) == 1
    assert capsys.readouterr() == (
        "", f"error: signature: operation name '{renames['0']}' is reserved "
            "for variables\n")


def test_lgg_operation_named_like_a_minted_variable_exits_1(capsys):
    # lgg's own variables are g1, g2, ...: this printed lgg: g1(g1)
    from algen.cli import main

    assert main(["lgg", "g1(a)", "g1(b)"]) == 1
    assert capsys.readouterr() == (
        "", "error: operation name 'g1' is reserved for variables\n")


def test_validate_json():
    code, text = run_case(["validate", "varieties/n3.var", "--json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["ok"] is True
    assert doc["algebras"] == [{"name": "N3", "size": 4}]


def test_console_entry_point_subprocess():
    r = subprocess.run(
        [sys.executable, "-m", "algen.cli", "validate", "varieties/boolean.var"],
        capture_output=True, text=True, cwd=pathlib.Path(__file__).parent.parent)
    assert r.returncode == 0
    assert "variety boolean: ok" in r.stdout


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ["props", "varieties/kleene.var", "--bound"],
    ["con", "varieties/kleene.var", "--bound"],
    ["solve", "varieties/kleene.var", "x", "y", "--bound"],
    ["free", "varieties/kleene.var", "-n", "1", "--budget"],
])
def test_rejects_bounds_without_search(argv, value, capsys):
    from algen.cli import main

    assert main(argv + [value]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_text_is_the_default_not_a_flag(capsys):
    from algen.cli import main

    assert main(["solve", "varieties/n3.var", "x", "--text"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: algen: unrecognized arguments: --text\n"


def test_rejects_negative_generator_count(capsys):
    from algen.cli import main

    assert main(["free", "varieties/kleene.var", "-n", "-3"]) == 1
    _, err = capsys.readouterr()
    assert err == "error: algen free: argument -n: must be at least 0, got -3\n"


@pytest.mark.parametrize("n", ["20000", "1000000000", "100000000000000000000"])
def test_huge_generator_count_exits_on_budget_at_once(n, capsys):
    # the assignment index set is charged without computing 2**n: 2**24
    # cells stand for the assignments, and each variable name costs one
    import time

    from algen.cli import main

    start = time.perf_counter()
    assert main(["free", "varieties/boolean.var", "-n", n]) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: budget exceeded during assignment index set: "
                   f"needs more than {2 ** 24 + int(n)} cells (limit 10000000)\n")


@pytest.mark.parametrize("n,code", [("10000000", 2), ("1000", 0)])
def test_variable_names_are_charged_to_the_budget(tmp_path, capsys, n, code):
    # a one-element algebra has one assignment however many variables, so
    # only the names' charge stops a huge -n before it builds them
    import time

    from algen.cli import main

    doc = {"name": "one", "signature": [["f", 2]],
           "algebras": [{"name": "T", "universe": ["0"], "ops": {"f": [["0"]]}}]}
    path = tmp_path / "one.var"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["free", str(path), "-n", n]) == code
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    if code:
        assert out == ""
        assert err == ("error: budget exceeded during assignment index set: "
                       "needs more than 10000001 cells (limit 10000000)\n")
    else:
        assert out.startswith(f"F_one({n}): 1 elements\n") and err == ""


@pytest.mark.parametrize("arity", [True, False], ids=["true", "false"])
def test_var_file_with_boolean_arity_exits_1(tmp_path, capsys, arity):
    from algen.cli import main

    doc = {"name": "tiny", "signature": [["f", arity]],
           "algebras": [{"name": "S2", "universe": ["0", "1"],
                         "ops": {"f": ["0", "1"] if arity else "0"}}]}
    path = tmp_path / "bool.var"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path), "--json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: signature[0]: arity must be a non-negative integer\n"


def test_internal_verification_error_exit_code(monkeypatch, capsys):
    import algen.solver
    from algen.cli import EXIT_INTERNAL, main

    def failing(ap, entry):
        raise algen.solver.InternalVerificationError("witness fails: planted")

    monkeypatch.setattr(algen.solver, "_verify_entry", failing)
    code = main(["solve", "varieties/boolean.var", "or(x,not(x))", "1"])
    assert code == EXIT_INTERNAL == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: witness fails: planted\n"


@pytest.mark.parametrize("plant,message", [
    ("wrong-value", "is not and(x,y) in the variety"),
    ("outside-variable", "is outside the problem's variables")])
def test_planted_witness_exits_4(plant, message, monkeypatch, capsys):
    # the gate itself, not a stub: a witness term whose value is wrong, or
    # one that uses a variable the problem does not have, is an internal
    # error with one line on stderr
    from algen.cli import EXIT_INTERNAL, main
    from algen.solver import AlgebraicProblem
    from algen.terms import App, Var

    real = AlgebraicProblem.witness
    planted = {"wrong-value": lambda ap, k, e: App("not", (real(ap, k, e),)),
               "outside-variable": lambda ap, k, e: Var("w")}[plant]
    monkeypatch.setattr(AlgebraicProblem, "witness", planted)
    code = main(["solve", "varieties/boolean.var", "and(x,y)", "not(x)"])
    assert code == EXIT_INTERNAL == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: witness fails: ") and message in err
    assert err.count("\n") == 1 and err.endswith("\n")


def _nested(shape: str, depth: int) -> str:
    """A term nested ``depth`` levels deep in one of six ways."""
    if shape == "call":
        return "not(" * depth + "x" + ")" * depth
    if shape == "parens":
        return "(" * depth + "x" + ")" * depth
    if shape == "prefix":
        return "¬" * depth + "x"
    symbol = {"chain": "∧", "imp-chain": "→", "oplus-chain": "⊕"}[shape]
    return symbol.join(["x"] * (depth + 1))  # → nests right, the rest left


@pytest.mark.parametrize("shape,variety,offset", [
    ("call", "boolean", None), ("parens", "boolean", None),
    ("prefix", "boolean", None), ("chain", "boolean", None),
    # one level is "x→" or "x⊕", four bytes: the 101st → fails once read,
    # the 101st ⊕ at its own offset
    ("imp-chain", "godel3", 404), ("oplus-chain", "n3", 401),
], ids=["call", "parens", "prefix", "chain", "imp-chain", "oplus-chain"])
def test_nesting_limit(shape, variety, offset, capsys):
    from algen.cli import main
    from algen.terms import MAX_DEPTH

    path = f"varieties/{variety}.var"
    assert main(["solve", path, _nested(shape, MAX_DEPTH)]) == 0
    capsys.readouterr()
    assert main(["solve", path, _nested(shape, MAX_DEPTH + 1)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: term nested deeper than {MAX_DEPTH} levels "
                          "(byte offset ")
    assert err.count("\n") == 1
    if offset is not None:
        assert err == (f"error: term nested deeper than {MAX_DEPTH} levels "
                       f"(byte offset {offset})\n")


@pytest.mark.parametrize("row", [["1"], ["1", "2"]], ids=["missing", "out-of-range"])
@pytest.mark.parametrize("command", ["validate", "free"])
def test_var_file_with_bad_cell_exits_1(tmp_path, capsys, row, command):
    from algen.cli import main

    doc = {"name": "tiny", "signature": [["or", 2]],
           "algebras": [{"name": "S2", "universe": ["0", "1"],
                         "ops": {"or": [["0", "1"], row]}}]}
    path = tmp_path / "bad.var"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("name", [7, ["x"]], ids=["int", "list"])
@pytest.mark.parametrize("command", [["con"], ["kleene-dual", "K3"]],
                         ids=["con", "kleene-dual"])
def test_var_file_with_non_string_algebra_name_exits_1(tmp_path, capsys, name,
                                                       command):
    from algen.cli import main

    doc = json.loads(pathlib.Path("varieties/kleene.var").read_text())
    doc["algebras"][0]["name"] = name
    path = tmp_path / "named.var"
    path.write_text(json.dumps(doc))
    assert main([command[0], str(path), *command[1:]]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: algebras[0].name: must be a nonempty string\n"


@pytest.mark.parametrize("command", [["validate"], ["kleene-dual", "K3"]],
                         ids=["validate", "kleene-dual"])
def test_var_file_with_duplicate_algebra_name_exits_1(tmp_path, capsys, command):
    from algen.cli import main

    doc = json.loads(pathlib.Path("varieties/kleene.var").read_text())
    doc["algebras"].append(doc["algebras"][0])
    path = tmp_path / "twice.var"
    path.write_text(json.dumps(doc))
    assert main([command[0], str(path), *command[1:]]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: algebras[1].name: duplicate algebra name 'K3'\n"


# two unary operations on a 2- and a 3-element algebra: F(1) has 17 elements
# and Con F(1) 597 congruences
_UNARY = {"name": "unary", "signature": [["f", 1], ["g", 1]], "algebras": [
    {"name": "A0", "universe": ["0", "1"],
     "ops": {"f": ["1", "1"], "g": ["1", "0"]}},
    {"name": "A1", "universe": ["0", "1", "2"],
     "ops": {"f": ["1", "2", "1"], "g": ["0", "0", "1"]}}]}


# one binary operation on a 2- and a 3-element algebra: a congruence of F(1)
# that is not projective has exactness unresolved at bound 2
_UNRESOLVED = {"name": "s", "signature": [["f", 2]], "algebras": [
    {"name": "A0", "universe": ["0", "1"], "ops": {"f": [["0", "1"], ["0", "1"]]}},
    {"name": "A1", "universe": ["0", "1", "2"],
     "ops": {"f": [["0", "1", "0"], ["0", "0", "2"], ["0", "0", "0"]]}}]}


def test_props_with_unresolved_exactness_exits_3(tmp_path, capsys):
    from algen.cli import main

    path = tmp_path / "s.var"
    path.write_text(json.dumps(_UNRESOLVED))
    assert main(["props", str(path)]) == 3
    out = capsys.readouterr().out
    assert "\n1EP: unknown (bound 2)\n" in out
    assert main(["props", str(path), "--json"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["1ep"] == {"status": "unknown", "bound": 2, "detail":
                          "a non-projective congruence has unresolved exactness"}


def test_congruence_lattice_over_budget_exits_2(tmp_path, capsys):
    # Con F(1) took seconds at any budget; the 136 principal congruences
    # are charged before they are computed, 16 merges each through 2
    # translation rows
    from algen.cli import main

    path = tmp_path / "unary.var"
    path.write_text(json.dumps(_UNARY))
    assert main(["con", str(path), "--budget", "500"]) == 2
    assert capsys.readouterr() == ("", "error: budget exceeded during congruence "
                                       "lattice: needs more than 4352 cells (limit 500)\n")


def test_congruence_names_read_each_principal_congruence_once(tmp_path, capsys,
                                                              monkeypatch):
    # counted, not timed: F(1) computes its C(17, 2) principal congruences
    # once; Con F(1) joins them, and naming its 597 members reads the same
    # ones, not one search per name nor a second pass; every module of
    # algen that binds principal_congruence counts its calls
    from algen import algebra
    from algen.cli import main

    path = tmp_path / "unary.var"
    path.write_text(json.dumps(_UNARY))
    calls = []
    real = algebra.principal_congruence
    for name, module in list(sys.modules.items()):
        if name.startswith("algen.") and vars(module).get("principal_congruence") is real:
            monkeypatch.setattr(module, "principal_congruence",
                                lambda *a: calls.append(a) or real(*a))
    assert main(["con", str(path), "--json"]) == 3  # some exactness is unknown
    doc = json.loads(capsys.readouterr().out)
    names = [row["name"] for row in doc["congruences"]]
    assert len(names) == len(set(names)) == 597
    assert len(calls) <= 17 * 16 // 2


def test_con_counts_its_comparisons_and_joins(tmp_path, capsys, monkeypatch):
    # counted, not timed: Con F(1) is the join closure of its 21
    # join-irreducible congruences, and its 2,242 covers are read from
    # bitmasks over the 73 distinct principal ones; closing all 136 under join
    # and the cubic cover scan made 43,508 joins and 380,980 comparisons
    from algen.algebra import Congruence
    from algen.cli import main

    path = tmp_path / "unary.var"
    path.write_text(json.dumps(_UNARY))
    counts = {"leq": 0, "join": 0}

    def counted(name):
        real = getattr(Congruence, name)

        def call(self, other):
            counts[name] += 1
            return real(self, other)
        return call
    for name in counts:
        monkeypatch.setattr(Congruence, name, counted(name))
    assert main(["con", str(path), "--json"]) == 3
    out = capsys.readouterr().out
    assert counts["leq"] <= 100_000 and counts["join"] <= 13_000
    # the 597 rows and the 2,242 cover pairs as they were before
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "5d23cdd7145c8ac46e309b5ec04646a17a69f0753e4ca26baf35bcf9585d23a2"


# |F(1)| = 108 with 217 translation rows: Con F(1)'s 5,778 principal
# congruences took minutes before their union work was charged
_R12 = {"name": "r12", "signature": [["f", 2], ["g", 1]], "algebras": [
    {"name": "A0", "universe": ["0", "1"],
     "ops": {"f": [["1", "1"], ["1", "0"]], "g": ["1", "1"]}},
    {"name": "A1", "universe": ["0", "1", "2"],
     "ops": {"f": [["2", "1", "2"], ["0", "2", "2"], ["0", "2", "0"]],
             "g": ["1", "0", "0"]}}]}


@pytest.mark.parametrize("command", [["con"], ["solve", "x", "f(x,y)"]],
                         ids=["con", "solve"])
def test_principal_congruences_over_budget_exit_before_any(tmp_path, capsys,
                                                           monkeypatch, command):
    # counted, not timed: at the default budget the union bound is charged
    # before the first principal congruence is computed
    from algen import algebra
    from algen.cli import main

    path = tmp_path / "r12.var"
    path.write_text(json.dumps(_R12))
    calls = []
    real = algebra.principal_congruence
    monkeypatch.setattr(algebra, "principal_congruence",
                        lambda *a: calls.append(a) or real(*a))
    argv = [command[0], str(path), *command[1:]]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: budget exceeded during congruence "
                                       "lattice: needs more than 134159382 cells "
                                       "(limit 10000000)\n")
    assert calls == []


_DOT_STRING = re.compile(r'"((?:[^"\\]|\\.)*)"')


def _dot_strings(dot: str) -> list[str]:
    """The quoted strings of DOT text, unescaped; every quote in the text
    must open or close one of them."""
    out = []
    for line in dot.splitlines():
        assert '"' not in _DOT_STRING.sub("", line), line
        out += [re.sub(r"\\(.)", r"\1", s) for s in _DOT_STRING.findall(line)]
    return out


def _kleene_relabelled(label: str) -> dict:
    """The kleene variety file with K3's element ``a`` renamed ``label``."""
    def relabel(node):
        if isinstance(node, list):
            return [relabel(x) for x in node]
        return label if node == "a" else node

    doc = json.loads(pathlib.Path("varieties/kleene.var").read_text())
    k3 = doc["algebras"][0]
    k3["universe"] = relabel(k3["universe"])
    k3["ops"] = {op: relabel(table) for op, table in k3["ops"].items()}
    return doc


def test_dot_quotes_names_from_the_var_file(tmp_path, capsys):
    # variety, algebra and element names reach the graph name and the labels
    # as the var file spells them, quote and backslash included
    from algen.cli import main

    odd = 'a"\\'
    doc = _kleene_relabelled(odd)
    doc["name"] = 'kleene"\\'
    doc["algebras"][0]["name"] = 'K"3\\'
    path = tmp_path / "quoted.var"
    path.write_text(json.dumps(doc))

    assert main(["kleene-dual", str(path), 'K"3\\', "--dot"]) == 0
    assert _dot_strings(capsys.readouterr().out) == ['dual_K"3\\', odd, "1"]
    assert main(["con", str(path), "--json"]) == 0
    names = [row["name"] for row in json.loads(capsys.readouterr().out)["congruences"]]
    assert main(["con", str(path), "--dot"]) == 0
    assert _dot_strings(capsys.readouterr().out) == ['con_kleene"\\', *names]


def test_comma_in_a_generator_label_changes_no_output(tmp_path, capsys):
    # a generating algebra's label with a comma, "0,0", moves no output:
    # nothing that con, props or solve runs reads K3's labels as pairs
    from algen.cli import main

    path = tmp_path / "comma.var"
    path.write_text(json.dumps(_kleene_relabelled("0,0")))
    for command in (["con"], ["props"], ["solve", "x", "not(x)"]):
        runs = []
        for var in ("varieties/kleene.var", str(path)):
            code = main([command[0], var, *command[1:]])
            runs.append((code, capsys.readouterr()))
        assert runs[0] == runs[1], command


# one solve and one compare per shipped variety, in its own signature
_PRESENTED = {
    "boolean": (["or(x,not(x))", "1"], ["1", "z"]),
    "kleene": (["and(x,not(x))", "and(y,not(y))"],
               ["and(x,not(x))", "or(x,not(x))"]),
    "godel3": (["imp(x,0)", "imp(imp(y,0),0)"], ["imp(x,x)", "1"]),
    "n3": (["oplus(x,x)", "oplus(y,oplus(y,y))"], ["oplus(x,x)", "z"]),
    "lattice": (["and(x,y)", "or(y,w)"], ["and(x,y)", "x"]),
}


def _relabelled(a):
    """An isomorphic copy of ``a`` with its universe reversed and renamed:
    element x of ``a`` is element n-1-x of the copy, labelled "e" and x's
    label."""
    from algen.algebra import FiniteAlgebra

    def flip(x):
        return a.size - 1 - x

    def table(op, arity, args=()):
        if len(args) == arity:
            return flip(a.op(op, tuple(map(flip, args))))
        return [table(op, arity, args + (y,)) for y in a.elements()]
    return FiniteAlgebra(a.sig, [f"e{a.labels[flip(y)]}" for y in a.elements()],
                         {op: table(op, arity) for op, arity in a.sig.ops}, a.name)


@pytest.mark.parametrize("variety", list(_PRESENTED))
def test_output_depends_on_the_variety_not_its_presentation(tmp_path, variety):
    # A and A x A generate the same variety, in either order, and so do A
    # with its quotients, A with a proper subalgebra and a copy of A with
    # its universe permuted and relabelled, so no such presentation of a var
    # file's generating algebras may move an output
    from algen.algebra import FiniteAlgebra, congruence_lattice, direct_product, quotient
    from algen.varfile import dump_variety, load_variety
    from algen.variety import VarietySpec
    from oracles import subalgebra_generated

    original = f"varieties/{variety}.var"
    spec = load_variety(original)
    first = spec.generators[0]
    square, _ = direct_product([first] * 2)
    quotients = [quotient(first, theta)[0] for theta in congruence_lattice(first)
                 if not theta.is_identity()]
    presentations = {
        "square-appended": (*spec.generators, square),
        "reordered": (square, *reversed(spec.generators)),
        "relabelled": tuple(map(_relabelled, spec.generators)),
        "quotients-appended": (*spec.generators, *(
            FiniteAlgebra(q.sig, q.labels, q.tables, f"Q{i}")
            for i, q in enumerate(quotients))),
    }
    # the first proper subalgebra generated by the constants or one element;
    # boolean's 2 has none
    subalgebras = (subalgebra_generated(first, gens)[0]
                   for gens in [(), *([x] for x in first.elements())])
    subalgebra = next((sub for sub in subalgebras if 0 < sub.size < first.size), None)
    if subalgebra is not None:
        presentations["subalgebra-appended"] = (*spec.generators, subalgebra)
    for kind, algebras in presentations.items():
        (tmp_path / f"{kind}.var").write_text(
            dump_variety(VarietySpec(spec.name, spec.sig, algebras)), encoding="utf-8")
    solved, compared = _PRESENTED[variety]
    for command in (["free", "-n", "2"], ["con"], ["props"],
                    ["solve", *solved], ["compare", *compared]):
        expected = run_case([command[0], original, *command[1:]])
        for kind in presentations:
            path = str(tmp_path / f"{kind}.var")
            assert run_case([command[0], path, *command[1:]]) == expected, (
                kind, command)


def _reversed_and_relabelled(doc: dict) -> dict:
    """The var-file document with its generating algebras in reverse order,
    each replaced by its ``_relabelled`` copy."""
    from algen.varfile import dump_variety, loads_variety
    from algen.variety import VarietySpec

    spec = loads_variety(json.dumps(doc))
    algebras = tuple(map(_relabelled, reversed(spec.generators)))
    return json.loads(dump_variety(VarietySpec(spec.name, spec.sig, algebras)))


# no element of the 2-element algebra identifies the classes of one
# congruence, so the exactness certificate's reason once named its position
_CERTIFIED_BY_ONE_ALGEBRA = {
    "name": "t", "signature": [["f", 2]],
    "algebras": [
        {"name": "A0", "universe": ["a0", "a1"],
         "ops": {"f": [["a1", "a0"], ["a1", "a0"]]}},
        {"name": "A1", "universe": ["a0", "a1", "a2"],
         "ops": {"f": [["a0", "a0", "a1"], ["a0", "a1", "a2"],
                       ["a1", "a2", "a1"]]}},
    ],
}


def test_certificate_reason_names_no_algebra_position(tmp_path):
    doc = _CERTIFIED_BY_ONE_ALGEBRA
    runs = []
    for kind, algebras in (("given", doc["algebras"]),
                           ("reversed", doc["algebras"][::-1])):
        path = tmp_path / f"{kind}.var"
        path.write_text(json.dumps({**doc, "algebras": algebras}))
        runs.append(run_case(["con", str(path)]))
    assert runs[0] == runs[1]
    assert "a generating algebra has no element that identifies" in runs[0][1]


@pytest.mark.parametrize("sizes,needed", [
    # a 12-element chain's square: 144 pairs of two coordinates, two binary
    # tables of 144^2 cells, one unary table of 144 and two constants; an
    # uncharged square of an 80-element chain took 51 s and 668 MB
    ((12,), 41906),
    # the 7-element chain in HS of the 8-element one: four closures in the
    # 7-chain at 107 cells, then 8^3 tuples for its greedy 3-element
    # generating tuple at 56 cells each and the product's 6,442 cells;
    # chains of 24 and 23 elements ran an uncharged generator search 144 s
    ((8, 7), 35542),
], ids=["square", "hs"])
def test_exactness_certificate_charges_before_it_builds(tmp_path, capsys, sizes,
                                                        needed):
    from factories import kleene_chain

    from algen.cli import main
    from algen.varfile import dump_variety
    from algen.variety import VarietySpec

    chains = tuple(kleene_chain([str(i) for i in range(n)], lambda i, n=n: n - 1 - i)
                   for n in sizes)
    path = tmp_path / "chains.var"
    path.write_text(dump_variety(VarietySpec("chains", chains[0].sig, chains)))
    assert main(["con", str(path), "--budget", str(needed - 1)]) == 2
    assert capsys.readouterr().err == (
        "error: budget exceeded during exactness certificate: needs more than "
        f"{needed} cells (limit {needed - 1})\n")
    assert main(["con", str(path), "--budget", str(needed)]) == 0


# 1EP but not 1ESP: F(1)'s exact congruences are all projective, but not
# all of them strongly projective
_ONE_EP_NOT_ONE_ESP = {
    "name": "r", "signature": [["f0", 1], ["f1", 1]],
    "algebras": [
        {"name": "A0", "universe": ["0", "1", "2"],
         "ops": {"f0": ["2", "2", "1"], "f1": ["0", "1", "0"]}},
        {"name": "A1", "universe": ["0", "1"],
         "ops": {"f0": ["0", "1"], "f1": ["0", "1"]}},
    ],
}


def test_solve_in_a_1ep_variety_that_is_not_1esp_has_a_caveat(tmp_path):
    path = tmp_path / "r.var"
    path.write_text(json.dumps(_ONE_EP_NOT_ONE_ESP))
    code, out = run_case(["solve", str(path), "x", "y"])
    assert code == 0
    lines = out.splitlines()
    assert "type: unitary" in lines
    assert "1EP: yes (bound 2)   1ESP: no" in lines
    assert ("caveat: soundness verified; minimal completeness of the emitted set "
            "rests on 1ESP, which is no at bound 2") in lines


@pytest.mark.parametrize("argv,buffered", [
    (["free", "varieties/kleene.var", "-n", "1", "--json"], True),
    (["kleene-dual", "varieties/kleene.var", "K3", "--dot"], False),
], ids=["free-buffered", "kleene-dual-unbuffered"])
def test_closed_stdout_exits_1_with_one_line(argv, buffered):
    # the reader is gone before the first write: a pipe whose read end is
    # already closed fails every write, whether it happens during the
    # command or at the flush on exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        r = subprocess.run([sys.executable, "-m", "algen.cli", *argv],
                           stdout=write, stderr=subprocess.PIPE, text=True,
                           cwd=pathlib.Path(__file__).parent.parent, env=env)
    finally:
        os.close(write)
    assert r.returncode == 1
    assert r.stderr == "error: stdout was closed before the output was written\n"


# ---------------------------------------------------------------------------
# Fuzzed variety files and terms through the CLI

FUZZ_OPS = ["f", "g"]


@st.composite
def fuzz_var_files(draw):
    """1-2 generating algebras of 2-3 elements over 1-2 operations of arity
    at most 2, as a variety-file document."""
    ops = [(op, draw(st.integers(0, 2)))
           for op in FUZZ_OPS[:draw(st.integers(1, 2))]]

    def table(labels, arity):
        if not arity:
            return draw(st.sampled_from(labels))
        return [table(labels, arity - 1) for _ in labels]

    algebras = []
    for i in range(draw(st.integers(1, 2))):
        labels = [str(a) for a in range(draw(st.integers(2, 3)))]
        algebras.append({"name": f"A{i}", "universe": labels,
                         "ops": {op: table(labels, arity) for op, arity in ops}})
    return {"name": "fuzz", "signature": [[op, arity] for op, arity in ops],
            "algebras": algebras}


def fuzz_terms(ops):
    """Terms over x and y and the given (operation, arity) pairs, in prefix
    syntax."""
    leaf = st.sampled_from(["x", "y"] + [op for op, arity in ops if not arity])
    apps = [(op, arity) for op, arity in ops if arity]
    if not apps:
        return leaf
    return st.recursive(leaf, lambda inner: st.one_of([
        st.lists(inner, min_size=arity, max_size=arity).map(
            lambda args, op=op: f"{op}({','.join(args)})")
        for op, arity in apps]), max_leaves=5)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_varieties_solve_with_sound_witnesses(data):
    # any small variety and problem ends in exit 0-3 with at most a one-line
    # message, and every emitted generalizer's witnesses pass the
    # assignment oracle
    import contextlib
    import io
    import tempfile

    from algen.cli import main
    from algen.terms import Substitution, apply_subst, parse_term
    from algen.varfile import loads_variety
    from oracles import identity_holds_oracle

    doc = data.draw(fuzz_var_files())
    ops = [tuple(entry) for entry in doc["signature"]]
    terms = data.draw(st.lists(fuzz_terms(ops), min_size=1, max_size=3))
    flags = ["--budget", str(data.draw(st.sampled_from([500, 2000, 5000]))),
             "--json"] + (["--pairwise"] if data.draw(st.booleans()) else [])
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "fuzz.var"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["solve", str(path), *terms, *flags])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), err
    if code in (1, 2):
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return
    assert err == ""
    report = json.loads(out)
    assert (code == 3) == (report["type"]["kind"] == "inconclusive")
    spec = loads_variety(json.dumps(doc))
    problem = [parse_term(t, spec.sig) for t in terms]
    for entry in report["mcsg"]:
        term = parse_term(entry["term"], spec.sig)
        assert len(entry["witnesses"]) == len(problem)
        for witness, t in zip(entry["witnesses"], problem):
            sigma = Substitution.make({v: parse_term(s, spec.sig)
                                       for v, s in witness.items()})
            assert identity_holds_oracle(spec.generators, apply_subst(sigma, term), t)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=fuzz_var_files())
def test_fuzzed_output_depends_on_the_variety_not_its_presentation(doc):
    # reversing the generating algebras and permuting and relabelling each
    # universe presents the same variety, so con and props must not move;
    # the budget keeps each run short, and its exit must not move either
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for kind, d in (("given", doc), ("presented", _reversed_and_relabelled(doc))):
            paths.append(pathlib.Path(tmp) / f"{kind}.var")
            paths[-1].write_text(json.dumps(d), encoding="utf-8")
        for command in ("con", "props"):
            given_run, presented_run = (
                run_case([command, str(p), "--budget", "100000"]) for p in paths)
            assert given_run == presented_run, command
