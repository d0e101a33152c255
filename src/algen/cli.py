"""Command-line interface.

Subcommands: validate, free, con, solve, compare, lgg, kleene-dual, props.
Exit codes: 0 success, 1 bad input (or stdout closed early), 2 budget
exceeded, 3 inconclusive by bound, 4 internal verification failure (a bug).
Each subcommand returns one document, the dict that --json prints, with its
exit code, and prints nothing.  ``main`` renders the document once: as JSON,
or by the subcommand's text or DOT renderer, which read the document alone,
so the formats cannot drift apart.  All output is deterministic: JSON keys
come in a fixed order, and DOT nodes are labelled by canonical names,
quoted by one writer.
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


def _context(args) -> VarietyContext:
    spec = load_variety(args.file)
    return VarietyContext(spec, budget_limit=args.budget)


# Text and DOT output are rendered from the document alone, so a document
# read back from --json renders the same.


def _dot_quote(text: str) -> str:
    # names come from the var file, so a quote or backslash in one must not
    # end the string early
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot(name: str, nodes, edges):
    """A digraph drawn bottom-up in boxes.  Nodes are (id, label,
    attributes) and edges (tail, head, attributes); attributes is a DOT
    attribute list such as "peripheries=2", or empty."""
    yield f"digraph {_dot_quote(name)} {{"
    yield "  rankdir=BT;"
    yield "  node [shape=box];"
    for node, label, attrs in nodes:
        yield (f"  {node} [label={_dot_quote(label)}"
               + (f", {attrs}" if attrs else "") + "];")
    for tail, head, attrs in edges:
        yield f"  {tail} -> {head}" + (f" [{attrs}]" if attrs else "") + ";"
    yield "}"


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
# Subcommands: each returns (document, exit code) and prints nothing; its
# renderers follow it


def cmd_validate(args) -> tuple[dict, int]:
    spec = load_variety(args.file)
    return {
        "variety": spec.name,
        "signature": [[op, arity] for op, arity in spec.sig.ops],
        "algebras": [{"name": a.name, "size": a.size} for a in spec.generators],
        "ok": True,
    }, EXIT_OK


def _validate_text(doc):
    yield f"variety {doc['variety']}: ok"
    yield "signature: " + ", ".join(f"{op}/{arity}" for op, arity in doc["signature"])
    for a in doc["algebras"]:
        yield f"algebra {a['name']}: {a['size']} elements"


def cmd_free(args) -> tuple[dict, int]:
    ctx = _context(args)
    f = ctx.free_algebra(args.n)
    # 1-generated listings read better with the conventional variable z
    terms = output_names(ctx) if args.n == 1 else list(map(term_to_str, f.reps))
    return {
        "variety": ctx.spec.name,
        "n": args.n,
        "size": f.size,
        "elements": [{"index": i, "term": t} for i, t in enumerate(terms)],
    }, EXIT_OK


def _free_text(doc):
    yield f"F_{doc['variety']}({doc['n']}): {doc['size']} elements"
    for e in doc["elements"]:
        yield f"  {e['index']}\t{e['term']}"


def cmd_con(args) -> tuple[dict, int]:
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
    unknown = any(row[key]["status"] == "unknown" for row in rows
                  for key in ("exact", "strongly_projective"))
    return doc, EXIT_INCONCLUSIVE if unknown else EXIT_OK


def _con_text(doc):
    yield (f"Con F_{doc['variety']}(1): {doc['size']} congruences  "
           f"[bound {doc['bound']}]")
    for row in doc["congruences"]:
        yield f"  {row['name']}"
        yield f"    blocks: {_blocks_text(row['blocks'])}"
        for key in ("exact", "projective", "strongly_projective"):
            yield f"    {key.replace('_', ' ')}: {_verdict_text(row[key])}"
    yield "covers:"
    for lo, hi in doc["covers"]:
        yield f"  {lo} < {hi}"


def _con_dot(doc):
    # projective congruences doubled, non-exact ones dashed; names are
    # unique within a document, so they key the nodes
    rows = doc["congruences"]
    node = {row["name"]: f"c{i}" for i, row in enumerate(rows)}
    return _dot(f"con_{doc['variety']}",
                [(node[row["name"]], row["name"],
                  "peripheries=2" if row["projective"]["status"] == "yes"
                  else "style=dashed" if row["exact"]["status"] == "no" else "")
                 for row in rows],
                [(node[lo], node[hi], "") for lo, hi in doc["covers"]])


def cmd_solve(args) -> tuple[dict, int]:
    ctx = _context(args)
    terms = tuple(parse_term(s, ctx.spec.sig) for s in args.terms)
    problem = SymbolicProblem(ctx, terms)
    report = (pairwise_reduce(problem, args.bound) if args.pairwise
              else solve(problem, args.bound))
    return report.to_dict(), (EXIT_INCONCLUSIVE if report.type.kind == "inconclusive"
                              else EXIT_OK)


def _solve_text(doc):
    yield (f"problem: {', '.join(doc['terms'])}   "
           f"[variety {doc['variety']}, bound {doc['bound']}]")
    yield f"kernel: {doc['kernel']['name']}"
    yield f"  blocks: {_blocks_text(doc['kernel']['blocks'])}"
    g = doc["g_congruences"]
    if g["status"] == "exact":
        yield "g-congruences: " + ", ".join(g["members"])
    else:
        yield "g-congruences: approximate (two-sided bounds)"
        yield "  lower: " + ", ".join(g["lower"])
        yield "  upper: " + ", ".join(g["upper"])
    yield "  maximal: " + ", ".join(g["maximal"])
    if doc["mcsg"]:
        yield "mcsg:"
        for entry in doc["mcsg"]:
            yield f"  {entry['term']}"
            for line in _witness_lines(entry["witnesses"]):
                yield f"  {line}"
    else:
        yield "mcsg: (none emitted)"
    type_ = doc["type"]
    yield (f"type: {TypeVerdict(**type_).render()}"
           + (f"  [{type_['reason']}]" if "reason" in type_ else ""))
    props = doc["properties"]
    yield (f"1EP: {_verdict_text(props['1ep'])}   "
           f"1ESP: {_verdict_text(props['1esp'])}")
    shortcut = doc["shortcut"]
    yield (f"shortcut: {shortcut['status']}"
           + (f" ({shortcut['reason']})" if "reason" in shortcut else ""))
    for c in doc["caveats"]:
        yield f"caveat: {c}"


def _solve_dot(doc):
    # the upper G-congruences, the maximal generalizing ones doubled, ordered
    # by the blocks their rows list: lo <= hi when each block of lo lies
    # inside a block of hi
    g = doc["g_congruences"]
    blocks = {row["name"]: [frozenset(b) for b in row["blocks"]]
              for row in doc["congruences"]}

    def leq(lo, hi):
        return all(any(b <= c for c in blocks[hi]) for b in blocks[lo])
    upper = g["upper"]
    return _dot(f"g_{doc['variety']}",
                [(f"c{i}", name, "peripheries=2" if name in g["maximal"] else "")
                 for i, name in enumerate(upper)],
                [(f"c{i}", f"c{j}", "") for i, j in poset_covers(upper, leq, upper)])


def cmd_compare(args) -> tuple[dict, int]:
    ctx = _context(args)
    s = parse_term(args.left, ctx.spec.sig)
    t = parse_term(args.right, ctx.spec.sig)
    return {"left": term_to_str(s), "right": term_to_str(t),
            "relation": compare_generality(ctx, s, t)}, EXIT_OK


def cmd_lgg(args) -> tuple[dict, int]:
    if args.file:
        sig = load_variety(args.file).sig
    else:
        sig = infer_signature(args.terms)
    terms = [parse_term(s, sig) for s in args.terms]
    g, sigmas = lgg_syntactic(terms)
    return {
        "generalizer": term_to_str(g),
        "witnesses": [{v: term_to_str(t) for v, t in w.bindings}
                      for w in sigmas],
    }, EXIT_OK


def _lgg_text(doc):
    yield f"lgg: {doc['generalizer']}"
    yield from _witness_lines(doc["witnesses"])


def cmd_kleene_dual(args) -> tuple[dict, int]:
    spec = load_variety(args.file)
    named = {a.name: a for a in spec.generators}
    if args.algebra not in named:
        raise VarFileError(f"no algebra named {args.algebra!r} in {args.file} "
                           f"(have {sorted(named)})")
    a = named[args.algebra]
    p = dual_poset(a)
    proj_ok, failed = is_projective_by_duality(p)
    exact_ok, reason = _exact_by_quasieq(a)  # dual_poset verified a
    return {
        "algebra": args.algebra,
        "points": list(p.labels),
        "covers": [[p.labels[i], p.labels[j]]
                   for i, j in poset_covers(range(p.size), p.le, range(p.size))],
        "involution": {p.labels[i]: p.labels[p.iota[i]] for i in range(p.size)},
        "projective": {"ok": proj_ok, "failed_condition": failed},
        "exact": {"ok": exact_ok, "reason": reason},
    }, EXIT_OK


def _dual_orbits(doc):
    """The points' positions, and each involution orbit once, from its first point."""
    pos = {x: i for i, x in enumerate(doc["points"])}  # labels are distinct
    return pos, [(x, y) for x, y in doc["involution"].items() if pos[x] <= pos[y]]


def _kleene_dual_text(doc):
    pos, orbits = _dual_orbits(doc)
    yield f"dual poset of {doc['algebra']}: {len(pos)} points"
    yield "  points: " + ", ".join(doc["points"])
    for lo, hi in doc["covers"]:
        yield f"  cover: {lo} < {hi}"
    for x, y in orbits:
        yield f"  involution: {x} " + ("fixed" if x == y else f"<-> {y}")
    proj, exact = doc["projective"], doc["exact"]
    yield ("projective (duality conditions): "
           + ("yes" if proj["ok"] else f"no (condition {proj['failed_condition']} fails)"))
    yield "exact (quasi-equation): " + ("yes" if exact["ok"] else f"no ({exact['reason']})")


def _kleene_dual_dot(doc):
    # covers solid, the involution as dashed arcs
    pos, orbits = _dual_orbits(doc)
    return _dot(f"dual_{doc['algebra']}",
                [(f"p{i}", x, "") for x, i in pos.items()],
                [(f"p{pos[lo]}", f"p{pos[hi]}", "") for lo, hi in doc["covers"]]
                + [(f"p{pos[x]}", f"p{pos[y]}",
                    ("" if x == y else "dir=both, ") + "style=dashed, constraint=false")
                   for x, y in orbits])


def cmd_props(args) -> tuple[dict, int]:
    ctx = _context(args)
    doc = {
        "variety": ctx.spec.name,
        "bound": args.bound,
        "1ep": check_1ep(ctx, args.bound).to_dict(),
        "1esp": check_1esp(ctx, args.bound).to_dict(),
    }
    unknown = "unknown" in (doc["1ep"]["status"], doc["1esp"]["status"])
    return doc, EXIT_INCONCLUSIVE if unknown else EXIT_OK


def _props_text(doc):
    yield f"variety {doc['variety']}  [bound {doc['bound']}]"
    for label, key in (("1EP", "1ep"), ("1ESP", "1esp")):
        yield f"{label}: {_verdict_text(doc[key])}"
        if doc[key]["status"] == "no":
            yield f"  witness: {doc[key]['detail']['witness']}"


def render(args, doc) -> str:
    """The output of a parsed command line for its subcommand's document:
    JSON for --json, else the DOT renderer for --dot, else the text one."""
    if args.json:
        lines = [json.dumps(doc, indent=2, ensure_ascii=False)]
    else:
        lines = (args.dot_lines if getattr(args, "dot", False) else args.text_lines)(doc)
    return "".join(line + "\n" for line in lines)


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


def _command(sub, name: str, help: str, func, text, dot=None,
             file=True, bound=False, budget=True):
    """The parser of one subcommand: ``func`` returns its document and exit
    code, and ``text`` and ``dot`` render the document.  --dot exists
    exactly where a DOT renderer does."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=func, text_lines=text, dot_lines=dot)
    if file:
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
    return p


@cache  # parsing keeps no state in the parser, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="algen",
        description="Equational generalization over varieties presented by "
                    "finite algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    _command(sub, "validate", "check a variety file", cmd_validate,
             _validate_text, budget=False)

    p = _command(sub, "free", "list a free algebra with representatives",
                 cmd_free, _free_text)
    p.add_argument("-n", type=_int_at_least(0), required=True,
                   help="number of generators")

    _command(sub, "con", "congruence lattice of F(1) with classifications",
             cmd_con, _con_text, _con_dot, bound=True)

    p = _command(sub, "solve", "solve a generalization problem", cmd_solve,
                 _solve_text, _solve_dot, bound=True)
    p.add_argument("terms", nargs="+", help="problem terms")
    p.add_argument("--pairwise", action="store_true",
                   help="use the iterated pairing procedure")

    p = _command(sub, "compare", "compare two terms in the generality preorder",
                 cmd_compare, lambda doc: [doc["relation"]])
    p.add_argument("left")
    p.add_argument("right")

    p = _command(sub, "lgg", "syntactic least general generalization",
                 cmd_lgg, _lgg_text, file=False, budget=False)
    p.add_argument("terms", nargs="+", help="terms in prefix syntax")
    p.add_argument("--file", help="variety file providing the signature "
                                  "(otherwise inferred)")

    p = _command(sub, "kleene-dual", "involutive-poset dual of a Kleene algebra",
                 cmd_kleene_dual, _kleene_dual_text, _kleene_dual_dot, budget=False)
    p.add_argument("algebra", help="algebra name inside the file")

    _command(sub, "props", "1EP / 1ESP verdicts for the variety", cmd_props,
             _props_text, bound=True)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        doc, code = args.func(args)
        sys.stdout.write(render(args, doc))
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
