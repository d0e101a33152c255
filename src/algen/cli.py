"""Command-line interface.

Subcommands: validate, free, con, solve, compare, lgg, kleene-dual, props.
Exit codes: 0 success, 1 bad input (or stdout closed early), 2 budget
exceeded, 3 inconclusive by bound, 4 internal verification failure (a bug).
Each subcommand builds one document, the dict that --json prints; its text
and DOT output are rendered from that dict, so the formats cannot drift
apart.  All output is deterministic: JSON keys come in a fixed order, and
DOT nodes are labelled by canonical names, quoted by one writer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .algebra import AlgebraError, Congruence, poset_covers
from .kleene import _exact_by_quasieq, dual_poset, is_projective_by_duality
from .solver import (
    DEFAULT_BOUND,
    InternalVerificationError,
    SolverError,
    SymbolicProblem,
    TypeVerdict,
    check_1ep,
    check_1esp,
    classification_rows,
    classify_all,
    compare_generality,
    output_names,
    pairwise_reduce,
    solve,
)
from .terms import (
    ParseError,
    TermError,
    infer_signature,
    lgg_syntactic,
    parse_term,
    term_to_str,
)
from .varfile import VarFileError, load_variety
from .variety import DEFAULT_BUDGET, BudgetExceeded, VarietyContext

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4


def _emit(text: str):
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit_json(obj):
    _emit(json.dumps(obj, indent=2, ensure_ascii=False))


def _context(args) -> VarietyContext:
    spec = load_variety(args.file)
    return VarietyContext(spec, budget_limit=args.budget)


# Text and DOT output are rendered from the dict that --json prints, so the
# formats cannot drift apart.


def _dot_quote(text: str) -> str:
    # names come from the var file, so a quote or backslash in one must not
    # end the string early
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot(name: str, nodes, edges) -> str:
    """A digraph drawn bottom-up in boxes.  Nodes are (id, label,
    attributes) and edges (tail, head, attributes); attributes is a DOT
    attribute list such as "peripheries=2", or empty."""
    lines = [f"digraph {_dot_quote(name)} {{", "  rankdir=BT;",
             "  node [shape=box];"]
    for node, label, attrs in nodes:
        lines.append(f"  {node} [label={_dot_quote(label)}"
                     + (f", {attrs}" if attrs else "") + "];")
    for tail, head, attrs in edges:
        lines.append(f"  {tail} -> {head}" + (f" [{attrs}]" if attrs else "") + ";")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _verdict_text(v: dict) -> str:
    out = v["status"]
    if "bound" in v:
        out += f" (bound {v['bound']})"
    if v["status"] == "no" and isinstance(v.get("detail"), str):
        out += f": {v['detail']}"
    return out


def _blocks_text(blocks) -> str:
    return " ".join("{" + ",".join(b) + "}" for b in blocks)


def _witness_lines(witnesses) -> list[str]:
    return [f"  sigma{k + 1}: {{"
            + ", ".join(f"{v} -> {t}" for v, t in w.items()) + "}"
            for k, w in enumerate(witnesses)]


# ---------------------------------------------------------------------------
# Subcommands


def cmd_validate(args) -> int:
    spec = load_variety(args.file)
    doc = {
        "variety": spec.name,
        "signature": [[op, arity] for op, arity in spec.sig.ops],
        "algebras": [{"name": a.name, "size": a.size} for a in spec.generators],
        "ok": True,
    }
    if args.json:
        _emit_json(doc)
    else:
        _emit(f"variety {doc['variety']}: ok")
        _emit("signature: " + ", ".join(f"{op}/{arity}"
                                        for op, arity in doc["signature"]))
        for a in doc["algebras"]:
            _emit(f"algebra {a['name']}: {a['size']} elements")
    return EXIT_OK


def cmd_free(args) -> int:
    ctx = _context(args)
    f = ctx.free_algebra(args.n)
    # 1-generated listings read better with the conventional variable z
    terms = output_names(ctx) if args.n == 1 else list(map(term_to_str, f.reps))
    doc = {
        "variety": ctx.spec.name,
        "n": args.n,
        "size": f.size,
        "elements": [{"index": i, "term": t} for i, t in enumerate(terms)],
    }
    if args.json:
        _emit_json(doc)
    else:
        _emit(f"F_{doc['variety']}({doc['n']}): {doc['size']} elements")
        for e in doc["elements"]:
            _emit(f"  {e['index']}\t{e['term']}")
    return EXIT_OK


def cmd_con(args) -> int:
    ctx = _context(args)
    cls = classify_all(ctx, args.bound)
    rows = classification_rows(ctx, cls)
    dense = set(ctx.free_algebra(1).algebra.principal_congruences.values())
    covers = poset_covers(cls, Congruence.leq, dense)  # in the order of the rows
    doc = {
        "variety": ctx.spec.name,
        "bound": args.bound,
        "size": len(rows),
        "congruences": rows,
        "covers": [[rows[i]["name"], rows[j]["name"]] for i, j in covers],
    }
    if args.dot:
        # projective congruences doubled, non-exact ones dashed
        _emit(_dot(f"con_{doc['variety']}",
                   [(f"c{i}", row["name"],
                     "peripheries=2" if row["projective"]["status"] == "yes"
                     else "style=dashed" if row["exact"]["status"] == "no"
                     else "")
                    for i, row in enumerate(rows)],
                   [(f"c{i}", f"c{j}", "") for i, j in covers]))
    elif args.json:
        _emit_json(doc)
    else:
        _emit(f"Con F_{doc['variety']}(1): {doc['size']} congruences  "
              f"[bound {doc['bound']}]")
        for row in rows:
            _emit(f"  {row['name']}")
            _emit(f"    blocks: {_blocks_text(row['blocks'])}")
            for key in ("exact", "projective", "strongly_projective"):
                _emit(f"    {key.replace('_', ' ')}: {_verdict_text(row[key])}")
        _emit("covers:")
        for lo, hi in doc["covers"]:
            _emit(f"  {lo} < {hi}")
    unknown = any(row[key]["status"] == "unknown" for row in rows
                  for key in ("exact", "strongly_projective"))
    return EXIT_INCONCLUSIVE if unknown else EXIT_OK


def cmd_solve(args) -> int:
    ctx = _context(args)
    terms = tuple(parse_term(s, ctx.spec.sig) for s in args.terms)
    problem = SymbolicProblem(ctx, terms)
    report = (pairwise_reduce(problem, args.bound) if args.pairwise
              else solve(problem, args.bound))
    doc = report.to_dict()
    if args.dot:
        # the upper G-congruences, the maximal generalizing ones doubled
        g = doc["g_congruences"]
        dense = set(ctx.free_algebra(1).algebra.principal_congruences.values())
        _emit(_dot(f"g_{doc['variety']}",
                   [(f"c{i}", name, "peripheries=2" if name in g["maximal"] else "")
                    for i, name in enumerate(g["upper"])],
                   [(f"c{i}", f"c{j}", "")
                    for i, j in poset_covers(report.g.upper, Congruence.leq, dense)]))
    elif args.json:
        _emit_json(doc)
    else:
        _emit_solve_text(doc)
    return EXIT_INCONCLUSIVE if report.type.kind == "inconclusive" else EXIT_OK


def _emit_solve_text(doc: dict):
    _emit(f"problem: {', '.join(doc['terms'])}   "
          f"[variety {doc['variety']}, bound {doc['bound']}]")
    _emit(f"kernel: {doc['kernel']['name']}")
    _emit(f"  blocks: {_blocks_text(doc['kernel']['blocks'])}")
    g = doc["g_congruences"]
    if g["status"] == "exact":
        _emit("g-congruences: " + ", ".join(g["members"]))
    else:
        _emit("g-congruences: approximate (two-sided bounds)")
        _emit("  lower: " + ", ".join(g["lower"]))
        _emit("  upper: " + ", ".join(g["upper"]))
    _emit("  maximal: " + ", ".join(g["maximal"]))
    if doc["mcsg"]:
        _emit("mcsg:")
        for entry in doc["mcsg"]:
            _emit(f"  {entry['term']}")
            for line in _witness_lines(entry["witnesses"]):
                _emit(f"  {line}")
    else:
        _emit("mcsg: (none emitted)")
    type_ = doc["type"]
    _emit(f"type: {TypeVerdict(**type_).render()}"
          + (f"  [{type_['reason']}]" if "reason" in type_ else ""))
    props = doc["properties"]
    _emit(f"1EP: {_verdict_text(props['1ep'])}   "
          f"1ESP: {_verdict_text(props['1esp'])}")
    shortcut = doc["shortcut"]
    _emit(f"shortcut: {shortcut['status']}"
          + (f" ({shortcut['reason']})" if "reason" in shortcut else ""))
    for c in doc["caveats"]:
        _emit(f"caveat: {c}")


def cmd_compare(args) -> int:
    ctx = _context(args)
    s = parse_term(args.left, ctx.spec.sig)
    t = parse_term(args.right, ctx.spec.sig)
    rel = compare_generality(ctx, s, t)
    if args.json:
        _emit_json({"left": term_to_str(s), "right": term_to_str(t),
                    "relation": rel})
    else:
        _emit(rel)
    return EXIT_OK


def cmd_lgg(args) -> int:
    if args.file:
        sig = load_variety(args.file).sig
    else:
        sig = infer_signature(args.terms)
    terms = [parse_term(s, sig) for s in args.terms]
    g, sigmas = lgg_syntactic(terms)
    doc = {
        "generalizer": term_to_str(g),
        "witnesses": [{v: term_to_str(t) for v, t in w.bindings}
                      for w in sigmas],
    }
    if args.json:
        _emit_json(doc)
    else:
        _emit(f"lgg: {doc['generalizer']}")
        for line in _witness_lines(doc["witnesses"]):
            _emit(line)
    return EXIT_OK


def cmd_kleene_dual(args) -> int:
    spec = load_variety(args.file)
    named = {a.name: a for a in spec.generators}
    if args.algebra not in named:
        raise VarFileError(f"no algebra named {args.algebra!r} in {args.file} "
                           f"(have {sorted(named)})")
    a = named[args.algebra]
    p = dual_poset(a)
    proj_ok, failed = is_projective_by_duality(p)
    exact_ok, reason = _exact_by_quasieq(a)  # dual_poset verified a
    doc = {
        "algebra": args.algebra,
        "points": list(p.labels),
        "covers": [[p.labels[i], p.labels[j]]
                   for i, j in poset_covers(range(p.size), p.le, range(p.size))],
        "involution": {p.labels[i]: p.labels[p.iota[i]] for i in range(p.size)},
        "projective": {"ok": proj_ok, "failed_condition": failed},
        "exact": {"ok": exact_ok, "reason": reason},
    }
    pos = {x: i for i, x in enumerate(doc["points"])}  # labels are distinct
    orbits = [(x, y) for x, y in doc["involution"].items() if pos[x] <= pos[y]]
    if args.dot:
        # covers solid, the involution as dashed arcs
        _emit(_dot(f"dual_{doc['algebra']}",
                   [(f"p{i}", x, "") for x, i in pos.items()],
                   [(f"p{pos[lo]}", f"p{pos[hi]}", "") for lo, hi in doc["covers"]]
                   + [(f"p{pos[x]}", f"p{pos[y]}",
                       ("" if x == y else "dir=both, ")
                       + "style=dashed, constraint=false") for x, y in orbits]))
    elif args.json:
        _emit_json(doc)
    else:
        _emit(f"dual poset of {doc['algebra']}: {len(pos)} points")
        _emit("  points: " + ", ".join(doc["points"]))
        for lo, hi in doc["covers"]:
            _emit(f"  cover: {lo} < {hi}")
        for x, y in orbits:
            _emit(f"  involution: {x} " + ("fixed" if x == y else f"<-> {y}"))
        proj, exact = doc["projective"], doc["exact"]
        _emit("projective (duality conditions): "
              + ("yes" if proj["ok"]
                 else f"no (condition {proj['failed_condition']} fails)"))
        _emit("exact (quasi-equation): "
              + ("yes" if exact["ok"] else f"no ({exact['reason']})"))
    return EXIT_OK


def cmd_props(args) -> int:
    ctx = _context(args)
    doc = {
        "variety": ctx.spec.name,
        "bound": args.bound,
        "1ep": check_1ep(ctx, args.bound).to_dict(),
        "1esp": check_1esp(ctx, args.bound).to_dict(),
    }
    if args.json:
        _emit_json(doc)
    else:
        _emit(f"variety {doc['variety']}  [bound {doc['bound']}]")
        for label, key in (("1EP", "1ep"), ("1ESP", "1esp")):
            _emit(f"{label}: {_verdict_text(doc[key])}")
            if doc[key]["status"] == "no":
                _emit(f"  witness: {doc[key]['detail']['witness']}")
    if "unknown" in (doc["1ep"]["status"], doc["1esp"]["status"]):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


class UsageError(ValueError):
    """Command-line arguments that argparse rejects."""


class _Parser(argparse.ArgumentParser):
    # argument errors are bad input like any other: one line, exit 1
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


def _add_common(p, bound=False, dot=False, budget=True):
    p.add_argument("file", help="variety file (JSON)")
    if bound:
        p.add_argument("--bound", type=_int_at_least(1), default=DEFAULT_BOUND,
                       help="search bound for exactness and strong "
                            "projectivity (default 2)")
    if budget:
        p.add_argument("--budget", type=_int_at_least(1), default=DEFAULT_BUDGET,
                       help="cell budget for constructions (default 10^7)")
    group = p.add_mutually_exclusive_group()  # text is the default
    group.add_argument("--json", action="store_true",
                       help="JSON output (stable key order)")
    if dot:
        group.add_argument("--dot", action="store_true", help="DOT output")


@cache  # parsing keeps no state in the parser, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="algen",
        description="Equational generalization over varieties presented by "
                    "finite algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a variety file")
    _add_common(p, budget=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("free", help="list a free algebra with representatives")
    _add_common(p)
    p.add_argument("-n", type=_int_at_least(0), required=True,
                   help="number of generators")
    p.set_defaults(func=cmd_free)

    p = sub.add_parser("con", help="congruence lattice of F(1) with "
                                   "classifications")
    _add_common(p, bound=True, dot=True)
    p.set_defaults(func=cmd_con)

    p = sub.add_parser("solve", help="solve a generalization problem")
    _add_common(p, bound=True, dot=True)
    p.add_argument("terms", nargs="+", help="problem terms")
    p.add_argument("--pairwise", action="store_true",
                   help="use the iterated pairing procedure")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("compare", help="compare two terms in the generality "
                                       "preorder")
    _add_common(p)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("lgg", help="syntactic least general generalization")
    p.add_argument("terms", nargs="+", help="terms in prefix syntax")
    p.add_argument("--file", help="variety file providing the signature "
                                  "(otherwise inferred)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_lgg)

    p = sub.add_parser("kleene-dual", help="involutive-poset dual of a "
                                           "Kleene algebra")
    _add_common(p, dot=True, budget=False)
    p.add_argument("algebra", help="algebra name inside the file")
    p.set_defaults(func=cmd_kleene_dual)

    p = sub.add_parser("props", help="1EP / 1ESP verdicts for the variety")
    _add_common(p, bound=True)
    p.set_defaults(func=cmd_props)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except BudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (UsageError, VarFileError, ParseError, TermError, SolverError,
            AlgebraError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except InternalVerificationError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except BrokenPipeError:
        # the reader closed stdout: whatever is still buffered goes to
        # devnull, so the interpreter's flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was written",
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
