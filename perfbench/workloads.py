"""The four workloads.  Each is one closed loop with one client: the next
operation starts when the previous one has returned, because library and
CLI callers wait for each report.

A workload has a timed set-up, then passes over a list of operations; the
list is the same for every pass of ``cold-cli`` and ``free-build`` and is
drawn afresh from the seed for every pass of the solve workloads.  The
checks after each operation are not timed and use ``oracle`` only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

import mix
import oracle
from problems import ProblemSource

from algen import cli, solver, varfile
from algen.terms import App, Var
from algen.variety import VarietyContext

ROOT = Path(__file__).resolve().parent.parent
BOUND = 2


def variety_path(name: str) -> str:
    return f"varieties/{name}.var"


def to_program(t):
    if isinstance(t, str):
        return Var(t)
    return App(t[0], tuple(to_program(a) for a in t[1:]))


def from_program(t):
    if isinstance(t, Var):
        return t.name
    return (t.op, *(from_program(a) for a in t.args))


class Outcome:
    """What the checks made of one operation: ``failed`` when it raised or
    missed its reference, ``wrong`` when an independent check refutes it,
    the text it emitted, for the determinism digest, and the verdict of a
    solve."""

    def __init__(self, emitted: str, failed: bool = False, wrong: bool = False,
                 note: str | None = None, kind: str | None = None):
        self.emitted = emitted
        self.failed = failed or wrong
        self.wrong = wrong
        self.note = note
        self.kind = kind


def check_mcsg(variety: oracle.Variety, terms, mcsg) -> str | None:
    """Every emitted generalizer s with witnesses sigma_k must satisfy
    sigma_k(s) = t_k in the variety.  ``mcsg`` is a list of (s, [sigma])."""
    for s, sigmas in mcsg:
        if len(sigmas) != len(terms):
            return f"{oracle.show(s)}: {len(sigmas)} witnesses for {len(terms)} terms"
        for sigma, t in zip(sigmas, terms):
            if not oracle.witness_holds(variety, s, sigma, t):
                return f"{oracle.show(s)}: witness fails for {oracle.show(t)}"
    return None


# ---------------------------------------------------------------------------
# solve-1ep and solve-n3


class SolveWorkload:
    """Warm contexts, a stream of seeded problems interleaved across the
    varieties, one ``solve`` call per operation.  A pass draws one problem
    for each of ``per_pass`` slots a variety, the classes that ``mix.slots``
    samples from the unconstrained generator."""

    min_passes = 1  # a pass has at least 100 solves: ten beyond p90
    # this workload's figures by the names NOTES.md gives them: (source, unit)
    named = {"setup_s": ("setup_s", "s"), "solve_p50_ms": ("op_p50_ms", "ms"),
             "solve_p90_ms": ("op_p90_ms", "ms"),
             "solves_per_s": ("ops_per_s", "1/s")}

    def __init__(self, seed: int, varieties: tuple, per_pass: int, one_ep: bool,
                 nominal_pass_s: float, setup_repeats: int):
        self.setup_repeats = setup_repeats
        self.one_ep = one_ep
        self.nominal_pass_s = nominal_pass_s
        self.unary = {v: oracle.UnaryFunctions(oracle.Variety(ROOT / variety_path(v)))
                      for v in varieties}
        self.slots = {v: mix.slots(unary, per_pass) for v, unary in self.unary.items()}
        self.sources = {
            v: ProblemSource(unary, random.Random(seed * 7919 + k))
            for k, (v, unary) in enumerate(self.unary.items())}
        self.passes = []

    def setup(self):
        state = {}
        for v in self.unary:
            ctx = VarietyContext(varfile.load_variety(variety_path(v)))
            ctx.free_algebra(1)
            solver.classify_all(ctx, BOUND)
            ep = solver.check_1ep(ctx, BOUND)
            solver.check_1esp(ctx, BOUND)
            state[v] = (ctx, ep)
        return state

    def check_setup(self, state) -> Outcome:
        notes = []
        for v, (ctx, ep) in state.items():
            unary = self.unary[v]
            if ctx.free_algebra(1).size != unary.size:
                notes.append(f"{v}: |F(1)| is not {unary.size}")
            if len(solver.classify_all(ctx, BOUND)) != unary.congruence_count():
                notes.append(f"{v}: Con F(1) size differs from brute force")
            if (ep.status == "yes") != self.one_ep:
                notes.append(f"{v}: 1EP is {ep.status}")
        return Outcome("setup", wrong=bool(notes), note="; ".join(notes) or None)

    def pass_ops(self, index: int) -> list:
        while len(self.passes) <= index:
            self.passes.append([
                (v, self.sources[v].draw(cls))
                for slot in zip(*self.slots.values())
                for v, cls in zip(self.slots, slot)])
        return self.passes[index]

    def run(self, state, op):
        v, terms = op
        ctx, _ = state[v]
        problem = solver.SymbolicProblem(ctx, tuple(to_program(t) for t in terms))
        return solver.solve(problem, BOUND)

    def check(self, op, report) -> Outcome:
        v, terms = op
        mcsg = [(from_program(e.term),
                 [{name: from_program(t) for name, t in w.bindings}
                  for w in e.witnesses])
                for e in report.mcsg]
        kind = report.type.kind
        emitted = json.dumps([v, kind, [[oracle.show(s), [
            {k: oracle.show(t) for k, t in sig.items()} for sig in sigmas]]
            for s, sigmas in mcsg]])
        note = check_mcsg(self.unary[v].variety, terms, mcsg)
        if note is None:
            allowed = ({"unitary", "finitary"} if self.one_ep
                       else {"unitary", "inconclusive"})
            if kind not in allowed:
                note = f"verdict {kind} in a variety where 1EP is {self.one_ep}"
            elif (kind == "inconclusive") != (not mcsg):
                note = f"verdict {kind} with {len(mcsg)} generalizers"
            elif kind == "unitary" and len(mcsg) != 1:
                note = f"unitary with {len(mcsg)} generalizers"
        return Outcome(emitted, wrong=note is not None, note=note, kind=kind)

    def summary(self, records) -> dict:
        kinds = {}
        per_variety = {}
        for _, op, latency, outcome in records:
            kind = outcome.kind or "error"
            kinds[kind] = kinds.get(kind, 0) + 1
            per_variety.setdefault(op[0], []).append(latency)
        return {"verdicts": kinds,
                "mean_solve_ms": {v: 1e3 * statistics.fmean(ts)
                                  for v, ts in per_variety.items()}}


# ---------------------------------------------------------------------------
# cold-cli


# The commands of the golden CLI cases, fixed here so that edits to the
# tests cannot change the workload; the expected bytes are read from
# tests/golden/ at run time, so a golden regenerated on purpose carries over.
GOLDEN_CASES = [
    ("boolean_free.txt", ["free", "varieties/boolean.var", "-n", "1"]),
    ("boolean_con.txt", ["con", "varieties/boolean.var"]),
    ("boolean_con.dot", ["con", "varieties/boolean.var", "--dot"]),
    ("boolean_solve.json",
     ["solve", "varieties/boolean.var", "or(x,not(x))", "1", "--json"]),
    ("kleene_free.txt", ["free", "varieties/kleene.var", "-n", "1"]),
    ("kleene_con.txt", ["con", "varieties/kleene.var"]),
    ("kleene_solve.json",
     ["solve", "varieties/kleene.var", "and(x,not(x))", "and(y,not(y))",
      "--json"]),
    ("kleene_solve.dot",
     ["solve", "varieties/kleene.var", "and(x,not(x))", "and(y,not(y))",
      "--dot"]),
    ("kleene_dual_k3.txt", ["kleene-dual", "varieties/kleene.var", "K3"]),
    ("kleene_dual_k3.dot",
     ["kleene-dual", "varieties/kleene.var", "K3", "--dot"]),
    ("godel3_free.txt", ["free", "varieties/godel3.var", "-n", "1"]),
    ("godel3_props.txt", ["props", "varieties/godel3.var"]),
    ("n3_con.txt", ["con", "varieties/n3.var"]),
    ("n3_solve.json",
     ["solve", "varieties/n3.var", "oplus(x,x)", "oplus(y,oplus(y,y))",
      "--json"]),
    ("semilattice_free.txt", ["free", "varieties/semilattice.var", "-n", "1"]),
    ("semilattice_solve.txt",
     ["solve", "varieties/semilattice.var", "or(x,y)", "or(y,w)"]),
    ("lattice_free.txt", ["free", "varieties/lattice.var", "-n", "1"]),
    ("lattice_solve.txt",
     ["solve", "varieties/lattice.var", "and(x,y)", "or(y,w)"]),
    ("lgg_clash.txt", ["lgg", "f(a,a)", "f(b,b)"]),
]

COLD_START_VARIETY = "boolean"


def golden_exit(argv, golden: bytes) -> int:
    """The exit code a golden output implies: 3 when a ``solve`` output
    records an inconclusive verdict (the JSON ``type.kind`` or the text
    ``type:`` line), 0 otherwise; the Graphviz outputs record no verdict."""
    if argv[0] != "solve" or "--dot" in argv:
        return 0
    text = golden.decode()
    if "--json" in argv:
        kind = json.loads(text)["type"]["kind"]
    else:
        kind = next((line.split()[1] for line in text.splitlines()
                     if line.startswith("type: ")), None)
    return 3 if kind == "inconclusive" else 0


def src_env() -> dict:
    """The environment for a fresh interpreter that imports ``algen`` from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def capture_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def parse_text_mcsg(text: str):
    """(term, [witness source]) pairs from the ``mcsg:`` block of text output."""
    lines = text.splitlines()
    if "mcsg:" not in lines:
        return []
    out = []
    for line in lines[lines.index("mcsg:") + 1:]:
        if line.startswith("    sigma"):
            body = line.split(": ", 1)[1].strip("{}")
            out[-1][1].append(dict(part.split(" -> ") for part in body.split(", ")))
        elif line.startswith("  "):
            out.append((line.strip(), []))
        else:
            break
    return out


class ColdCliWorkload:
    """The golden CLI commands run in process through ``algen.cli.main``;
    the set-up is one subprocess cold start of ``algen validate``.  An
    operation is one command and a pass the list of 19; ``cli_total_s`` is
    the median over passes of the list's time."""

    setup_repeats = 9
    min_passes = 4
    named = {"cli_total_s": ("cli_total_s", "s"),
             "cli_cold_start_s": ("setup_s", "s")}
    nominal_pass_s = 2.5

    def __init__(self, seed: int):
        self.goldens = {name: (ROOT / "tests" / "golden" / name).read_bytes()
                        for name, _ in GOLDEN_CASES}
        self.varieties = {}
        for _, argv in GOLDEN_CASES:
            if argv[0] == "solve":
                self.varieties[argv[1]] = oracle.Variety(ROOT / argv[1])
        self.cold = oracle.Variety(ROOT / variety_path(COLD_START_VARIETY))

    def setup(self):
        return subprocess.run(
            [sys.executable, "-m", "algen.cli", "validate",
             variety_path(COLD_START_VARIETY)],
            cwd=ROOT, env=src_env(), capture_output=True, timeout=120)

    def check_setup(self, proc) -> Outcome:
        v = self.cold
        expected = "".join(
            [f"variety {v.name}: ok\n",
             "signature: " + ", ".join(f"{op}/{a}" for op, a in v.ops) + "\n"]
            + [f"algebra {name}: {size} elements\n" for name, size, _ in v.algebras])
        ok = proc.returncode == 0 and proc.stdout.decode() == expected
        return Outcome("validate", wrong=not ok,
                       note=None if ok else f"validate exit {proc.returncode}")

    def pass_ops(self, index: int) -> list:
        return GOLDEN_CASES

    def run(self, state, op):
        return capture_main(op[1])

    def check(self, op, result) -> Outcome:
        name, argv = op
        code, out, err = result
        emitted = hashlib.sha256(out.encode()).hexdigest()
        # drift from the goldens, which are regenerated on purpose, fails
        # the command without refuting it
        want_code = golden_exit(argv, self.goldens[name])
        if code != want_code:
            return Outcome(emitted, failed=True,
                           note=f"{name}: exit {code}, tests/golden implies {want_code}")
        note = None
        if argv[0] == "solve" and "--dot" not in argv:
            variety = self.varieties[argv[1]]
            terms = [oracle.parse(s, variety) for s in argv[2:] if not s.startswith("--")]
            if "--json" in argv:
                entries = [(e["term"], e["witnesses"]) for e in json.loads(out)["mcsg"]]
            else:
                entries = parse_text_mcsg(out)
            mcsg = [(oracle.parse(s, variety),
                     [{k: oracle.parse(t, variety) for k, t in w.items()} for w in ws])
                    for s, ws in entries]
            note = check_mcsg(variety, terms, mcsg)
        if note is not None:
            return Outcome(emitted, wrong=True, note=f"{name}: {note}")
        if out.encode() != self.goldens[name]:
            return Outcome(emitted, failed=True,
                           note=f"{name}: output differs from tests/golden")
        return Outcome(emitted)

    def summary(self, records) -> dict:
        by_pass = {}
        for index, _, latency, _ in records:
            by_pass[index] = by_pass.get(index, 0.0) + latency
        failing = sorted({op[0] for _, op, _, outcome in records if outcome.failed})
        return {"cli_total_s": statistics.median(by_pass.values()),
                "golden_commands": len(GOLDEN_CASES),
                "golden_commands_failing": failing}


# ---------------------------------------------------------------------------
# free-build


# (variety, n, --budget or None for the default, expected size or None for
# a budget exit).  Expected sizes: the free Boolean algebra on 3 generators
# has 2^(2^3) elements; F_N3(3) is the 4^3 sums c1 x1 + c2 x2 + c3 x3 with
# ci in 0..3; the free distributive lattice on 3 generators has 18 (the
# Dedekind number 20, less the two bounds); the free Kleene algebra on 2
# generators has 84 (Berman and Mukaidono, 1984); 162 for godel3 F(2) is
# the count oracle.free_size finds.  selfcheck.py checks all of them against
# oracle.free_size.  The lattice case keeps the case count odd, so that the
# median falls inside one case.  godel3 F(3) grinds for about 100 s before
# exit 2 at the default budget, too long to repeat; at 4.9e6 cells it still
# grinds about 1.5 s before exit 2 (at 5e6, 8 s; at 4e6 it exits at once).
FREE_CASES = [
    ("boolean", 3, None, 256),
    ("n3", 3, None, 64),
    ("godel3", 2, None, 162),
    ("kleene", 2, None, 84),
    ("lattice", 3, None, 18),
    ("kleene", 3, None, None),
    ("godel3", 3, 4_900_000, None),
]

FREE_VARIETIES = sorted({v for v, _, _, _ in FREE_CASES})


class FreeBuildWorkload:
    """Fresh-context free-algebra builds that fit the budget, and budget
    exits through the CLI.  The set-up loads the variety files and builds
    each F(1)."""

    setup_repeats = 25
    min_passes = 4  # the median is one godel3 F(2) build a pass
    named = {"free_build_s": ("free_build_s", "s"),
             "budget_exit_s": ("budget_exit_s", "s")}
    nominal_pass_s = 6.5

    def __init__(self, seed: int):
        self.unary = {v: oracle.UnaryFunctions(oracle.Variety(ROOT / variety_path(v)))
                      for v in FREE_VARIETIES}

    def setup(self):
        specs = {}
        for v in FREE_VARIETIES:
            specs[v] = varfile.load_variety(variety_path(v))
            VarietyContext(specs[v]).free_algebra(1)
        return specs

    def check_setup(self, specs) -> Outcome:
        bad = [v for v, spec in specs.items()
               if VarietyContext(spec).free_algebra(1).size != self.unary[v].size]
        return Outcome("setup", wrong=bool(bad),
                       note=f"|F(1)| differs for {bad}" if bad else None)

    def pass_ops(self, index: int) -> list:
        return FREE_CASES

    def run(self, specs, op):
        v, n, budget, size = op
        if size is not None:
            return VarietyContext(specs[v]).free_algebra(n)
        argv = ["free", variety_path(v), "-n", str(n)]
        if budget is not None:
            argv += ["--budget", str(budget)]
        return capture_main(argv)

    def check(self, op, result) -> Outcome:
        v, n, budget, size = op
        label = f"{v} F({n})"
        if size is not None:
            emitted = f"{label}: {result.size} " + hashlib.sha256(
                "\n".join(map(str, result.reps)).encode()).hexdigest()
            return Outcome(emitted, wrong=result.size != size,
                           note=None if result.size == size
                           else f"{label} has {result.size} elements, not {size}")
        code, _, err = result
        ok = code == 2 and err.startswith("error: budget exceeded")
        return Outcome(f"{label}: exit {code}", wrong=not ok,
                       note=None if ok else f"{label}: exit {code}, expected 2")

    def summary(self, records) -> dict:
        by_pass = {}
        for index, op, latency, _ in records:
            sums = by_pass.setdefault(index, [0.0, 0.0])
            sums[op[3] is None] += latency
        cases = {}
        for _, (v, n, _, _), latency, _ in records:
            cases.setdefault(f"{v} F({n})", []).append(latency)
        return {"free_build_s": statistics.median(b for b, _ in by_pass.values()),
                "budget_exit_s": statistics.median(e for _, e in by_pass.values()),
                "case_median_s": {k: statistics.median(v) for k, v in cases.items()}}


# 34 slots a variety give solve-1ep the 100 solves its p90 needs in one
# pass of about 25 s; n3 solves are cheaper, so its mix is sampled finer
WORKLOADS = {
    "solve-1ep": lambda seed: SolveWorkload(
        seed, ("boolean", "kleene", "godel3"), 34, True, 26.0, 3),
    "solve-n3": lambda seed: SolveWorkload(seed, ("n3",), 100, False, 4.5, 15),
    "cold-cli": ColdCliWorkload,
    "free-build": FreeBuildWorkload,
}
