"""Varieties presented by finite generating algebras.

A finitely generated free algebra for Var(A1, ..., Ar) is realized as the
subalgebra of the product over all assignments, prod_i Ai^(Ai^n), generated
by the n projection tuples, the subpower construction UACalc also uses.
Elements are value vectors, one coordinate per assignment.

The closure is semi-naive: a pass of an operation evaluates only the
argument tuples that use an element added since that operation's previous
pass, in the lexicographic order a full pass would visit them, so element
order, tables and budget charges are those of the plain closure.  The
tuples come as rows: a prefix, which walks the generating algebras' nested
tables down to one innermost row per coordinate, and the range [s, m) of
last arguments it reads ([0, m) if the prefix uses a fresh element, else
[old, m)).  Two kernels read a row's result vectors.  Per entry, each is
looked up from those innermost rows one coordinate at a time.  Shared, each
innermost row of each coordinate's algebra is first mapped over that
coordinate's column of the range, so a prefix walk ends on its whole row of
result vectors, found in the index in one batch.  A range is shared when
at least twice as many prefixes read it as the largest generating algebra
has innermost rows; below that, the mapping costs more than it saves.  The
free algebra's nested tables grow by appending results in tuple order.
Each element's representative is its least term in (size, op-order,
arg-order) rank, settled size by size (Knuth's generalization of Dijkstra's
algorithm) from the table entries whose argument sizes add up to one less.
The order in which the representatives settle is F(n)'s derivation: each
element is a generator, a constant or one operation applied to elements
settled before it.  Every homomorphism out of F(n), fixed by the images of
the generators, walks it with one table lookup per element.

Nothing here materializes the full assignment product; closures only ever
hold the elements actually generated, and a configurable cell budget turns
oversized constructions into BudgetExceeded errors instead of hangs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from operator import getitem
from typing import Callable, Sequence

from .algebra import AlgebraError, FiniteAlgebra
from .terms import (App, Signature, Term, Var, check_term, term_rank,
                    term_to_str, term_vars)

__all__ = [
    "BudgetExceeded",
    "Budget",
    "VarietySpec",
    "VarietyContext",
    "FreeAlgebra",
    "GeneratedSubalgebra",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 10 ** 7


class BudgetExceeded(RuntimeError):
    """A construction would exceed the configured cell budget."""

    def __init__(self, stage: str, needed: int, limit: int):
        super().__init__(
            f"budget exceeded during {stage}: needs more than {needed} cells "
            f"(limit {limit})")
        self.stage = stage
        self.needed = needed
        self.limit = limit


class Budget:
    """Mutable cell counter shared by one construction."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def charge(self, cells: int, stage: str):
        self.used += cells
        if self.used > self.limit:
            raise BudgetExceeded(stage, self.used, self.limit)


@dataclass(frozen=True)
class VarietySpec:
    """A variety presented by finite generating algebras over one signature."""

    name: str
    sig: Signature
    generators: tuple[FiniteAlgebra, ...]

    def __post_init__(self):
        if not self.generators:
            raise AlgebraError("a variety needs at least one generating algebra")
        for g in self.generators:
            if g.sig != self.sig:
                raise AlgebraError("generating algebras must share the signature")


def var_name(i: int) -> str:
    return f"x{i + 1}"


# ---------------------------------------------------------------------------
# Componentwise evaluation over the assignment index set


class _Components:
    """The assignment index set for n variables: for each generator algebra,
    every assignment tuple, in (algebra order, tuple order) lexicographic
    order.  A term's value vector has one coordinate per assignment."""

    def __init__(self, spec: VarietySpec, varnames: Sequence[str] | int,
                 budget: Budget):
        """``varnames`` may be a count n, standing for x1..xn."""
        n = varnames if isinstance(varnames, int) else len(varnames)
        # |A|^n exceeds the limit once |A| >= 2 and n >= the limit's bit
        # length, so such a power is charged as 2^bit_length, not computed
        cap = budget.limit.bit_length()
        self.width = sum(2 ** cap if g.size > 1 and n >= cap else g.size ** n
                         for g in spec.generators)
        budget.charge(n + self.width, "assignment index set")  # a cell per name too
        if isinstance(varnames, int):
            varnames = [var_name(i) for i in range(n)]
        assigns = [assign for g in spec.generators
                   for assign in itertools.product(range(g.size), repeat=n)]
        # each variable's value vector
        self.projections = dict(zip(varnames, zip(*assigns)))
        # for each operation and coordinate, the nested table of the algebra
        # behind the coordinate: a result vector is read coordinate by
        # coordinate with one map over these
        self.op_tables = {
            op: tuple(g.tables[op] for g in spec.generators
                      for _ in range(g.size ** n))
            for op, _ in spec.sig.ops}

    def eval_term(self, t: Term) -> tuple[int, ...]:
        if isinstance(t, Var):
            if t.name not in self.projections:
                raise AlgebraError(f"unknown variable {t.name!r}")
            return self.projections[t.name]
        rows = self.op_tables[t.op]
        for a in t.args:
            rows = tuple(map(getitem, rows, self.eval_term(a)))
        return rows


def _fresh_rows(arity: int, old: int, m: int):
    """The argument tuples of a positive arity over range(m) that use an
    index >= old, in lexicographic order, as rows of (prefix, start s of
    the last argument's range [s, m))."""
    for prefix in itertools.product(range(m), repeat=arity - 1):
        if any(a >= old for a in prefix):
            yield prefix, 0
        elif old < m:
            yield prefix, old


def _apply_last(table, column: tuple[int, ...]):
    """A nested table with each innermost row mapped over a column."""
    if isinstance(table[0], list):
        return [_apply_last(t, column) for t in table]
    return tuple(map(table.__getitem__, column))


class GeneratedSubalgebra:
    """A subalgebra of a free algebra, generated from seed vectors and kept
    with explicit tables and term representatives."""

    def __init__(self, spec: VarietySpec, comps: _Components,
                 seeds: Sequence[tuple[tuple[int, ...], Term]], budget: Budget,
                 name: str = ""):
        self.spec = spec
        self.comps = comps
        vectors: list[tuple[int, ...]] = []
        index: dict[tuple[int, ...], int] = {}
        seed_reps: dict[int, Term] = {}

        def add(vec) -> int:
            budget.charge(comps.width, "free closure")
            index[vec] = len(vectors)
            vectors.append(vec)
            return index[vec]

        self.generator_indices: list[int] = []
        for vec, rep in seeds:
            if vec not in index:
                seed_reps[add(vec)] = rep
            self.generator_indices.append(index[vec])
        tables: dict[str, list | int] = {}
        a_max = max(g.size for g in spec.generators)
        # the element count at each operation's last pass, absent before its
        # first: its table holds every argument tuple over those elements,
        # so the next pass takes only the tuples that use a later one
        seen: dict[str, int] = {}
        changed = True
        while changed:
            changed = False
            for op, arity in spec.sig.ops:
                m = len(vectors)
                old = seen.get(op)
                # charge the whole pass up front so oversized closures fail
                # fast instead of grinding toward the limit
                budget.charge(m ** arity - (0 if old is None else old ** arity),
                              "operation tables")
                seen[op] = m
                if not arity:
                    if old is None:
                        vec = comps.op_tables[op]
                        if vec not in index:
                            add(vec)
                            changed = True
                        tables[op] = index[vec]
                    continue
                # the fresh tuples come in lexicographic order, so each new
                # row, at any depth, is appended where it belongs
                table = tables.setdefault(op, [])
                old = old or 0
                # the ranges shared by enough prefixes, as applied tables
                base, applied = comps.op_tables[op], {}
                if m > a_max:  # else no range has that many readers
                    k = arity - 1
                    for s, readers in (((0, m ** k - old ** k), (old, old ** k))
                                       if old else ((0, m ** k),)):
                        if readers >= 2 * a_max ** k and s < m:
                            applied[s] = list(map(_apply_last, base,
                                                  zip(*vectors[s:m])))
                for prefix, s in _fresh_rows(arity, old, m):
                    cols = applied.get(s)
                    rows = cols or base
                    row = table
                    for a in prefix:
                        rows = tuple(map(getitem, rows, vectors[a]))
                        if a == len(row):
                            row.append([])
                        row = row[a]
                    if not cols:
                        for b in range(s, m):
                            vec = tuple(map(getitem, rows, vectors[b]))
                            res = index.get(vec)
                            if res is None:
                                res = add(vec)
                                changed = True
                            row.append(res)
                        continue
                    vecs = list(zip(*rows))
                    found = list(map(index.get, vecs))
                    if None in found:
                        # add new vectors in order; one may recur in the row
                        found = [(index[v] if v in index else add(v)) if f is None
                                 else f for f, v in zip(found, vecs)]
                        changed = True
                    row.extend(found)
        if not vectors:
            raise AlgebraError(
                "empty free algebra: no generators and no constants in the signature")
        self.reps, self.steps = self._minimize_reps(len(vectors), tables,
                                                    seed_reps)
        labels = [term_to_str(r) for r in self.reps]
        self.algebra = FiniteAlgebra._trusted(spec.sig, labels, tables, name=name)

    def _minimize_reps(self, count: int, tables, seed_reps: dict[int, Term]):
        """Each element's least term in (size, op-order, arg-order) rank,
        and the settle order as steps (element, seed term) or (element,
        (operation, argument elements)), each after its arguments.

        Elements are settled one size level at a time.  A least term is a
        seed term, a constant, or op(r1, ..., rk) with each ri the least term
        of a smaller element, as a lower-ranked argument makes a lower-ranked
        term.  So level s reads the seeds and constants of size s and the
        table entries whose arguments' levels split s - 1, keeps those whose
        result is unsettled, and gives each element found its least code,
        unique as codes are prefix-free.  A settled level files the splits it
        completes under their sums, so only the sizes a seed, a constant or a
        split reaches are visited.  The terms are those of Knuth's (size,
        rank) heap sweep, a generalization of Dijkstra's algorithm.
        """
        sig = self.spec.sig
        found: dict[int, dict] = {}  # size -> {element: (code, derivation)}

        def offer(size: int, code: tuple, e: int, derivation):
            best = found.setdefault(size, {})
            if e not in best or code < best[e][0]:
                best[e] = code, derivation

        for e, t in seed_reps.items():
            offer(*term_rank(t, sig), e, t)
        by_k: dict[int, list] = {}  # the operations by prefix length
        for i, (op, arity) in enumerate(sig.ops):
            if arity:
                by_k.setdefault(arity - 1, []).append((((1, i),), op, tables[op]))
            else:
                offer(1, ((1, i),), tables[op], (op, ()))
        reps, codes, steps = [None] * count, [None] * count, []
        unsettled = bytearray(b"\1") * count
        levels: dict[int, list[int]] = {}  # settled size -> its elements
        pending, splits = set(found), {}  # sizes to visit; size -> its splits
        while 1 in unsettled:
            pending.remove(s := min(pending))
            for ops, *parts, last in splits.pop(s, ()):
                for prefix in itertools.product(*parts):
                    for head, op, table in ops:
                        row = reduce(getitem, prefix, table)
                        for b in last:
                            if unsettled[row[b]]:
                                args = prefix + (b,)
                                code = sum(map(codes.__getitem__, args), head)
                                offer(s, code, row[b], (op, args))
            best = found.pop(s, {})
            settled = [e for e in best if unsettled[e]]  # a seed may be too big
            if not settled:
                continue
            for e in settled:
                codes[e], d = best[e]
                reps[e] = (App(d[0], tuple(map(reps.__getitem__, d[1])))
                           if isinstance(d, tuple) else d)
                unsettled[e] = 0
                steps.append((e, d))
            levels[s] = settled
            for k, ops in by_k.items() if 1 in unsettled else ():
                for split in itertools.product(levels, repeat=k + 1):
                    if s in split:  # the splits this level makes
                        pending.add(t := 1 + sum(split))
                        splits.setdefault(t, []).append((ops, *map(levels.get, split)))
        return tuple(reps), steps


class FreeAlgebra:
    """The free algebra on n generators for a generator-presented variety."""

    def __init__(self, spec: VarietySpec, n: int, budget: Budget):
        if n < 0:
            raise AlgebraError("free algebra arity must be >= 0")
        self.spec = spec
        self.n = n
        comps = _Components(spec, n, budget)
        seeds = [(vec, Var(v)) for v, vec in comps.projections.items()]
        self.sub = GeneratedSubalgebra(spec, comps, seeds, budget,
                                       name=f"F_{spec.name}({n})")
        self.comps = comps
        # F(n)'s derivation: (element, operation, argument elements), or
        # (element, None, i) for the generator x_{i+1}
        position = {v: i for i, v in enumerate(comps.projections)}
        self.steps = [(e, None, position[d.name]) if isinstance(d, Var)
                      else (e, *d) for e, d in self.sub.steps]

    @property
    def algebra(self) -> FiniteAlgebra:
        return self.sub.algebra

    @property
    def size(self) -> int:
        return self.sub.algebra.size

    @property
    def generators(self) -> tuple[int, ...]:
        return tuple(self.sub.generator_indices)

    @property
    def reps(self) -> tuple[Term, ...]:
        return self.sub.reps

    def images(self, target: FiniteAlgebra, points: Sequence[int]) -> list[int]:
        """The homomorphism F(n) -> target with x_i -> points[i], for a
        target in the variety, as the image of every element: one walk of
        the derivation steps with one table lookup per element."""
        images = [0] * self.size
        for e, op, args in self.steps:
            if op is None:
                images[e] = points[args]
                continue
            value = target.tables[op]
            for a in args:
                value = value[images[a]]
            images[e] = value
        return images

    def eval_term(self, t: Term) -> int:
        """Evaluate a term over x1..xn to an element of the free algebra."""
        names = set(term_vars(t))
        allowed = {var_name(i) for i in range(self.n)}
        if not names <= allowed:
            raise AlgebraError(
                f"term uses variables {sorted(names - allowed)} outside x1..x{self.n}")
        env = {var_name(i): self.generators[i] for i in range(self.n)}
        return self.algebra.eval(t, env)


class VarietyContext:
    """A variety plus one memo of free algebras and derived data."""

    def __init__(self, spec: VarietySpec, budget_limit: int = DEFAULT_BUDGET):
        self.spec = spec
        self.budget_limit = budget_limit
        self._memo: dict = {}

    def memo(self, key, compute: Callable[[], object]):
        """The value stored under ``key``, computed on first use; a
        computation that raises stores nothing."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    # -- free algebras ------------------------------------------------------

    def free_algebra(self, n: int) -> FreeAlgebra:
        return self.memo(("free", n), lambda: FreeAlgebra(
            self.spec, n, Budget(self.budget_limit)))

    # -- evaluation without materializing F(X) ------------------------------

    def components_for(self, varnames: Sequence[str]) -> _Components:
        return _Components(self.spec, varnames, Budget(self.budget_limit))

    def generated_by_terms(self, varnames: Sequence[str],
                           terms: Sequence[Term],
                           name: str = "") -> GeneratedSubalgebra:
        """Subalgebra of F(varnames) generated by the given terms, with the
        terms themselves as seed representatives."""
        budget = Budget(self.budget_limit)
        comps = _Components(self.spec, varnames, budget)
        seeds = [(comps.eval_term(t), t) for t in terms]
        return GeneratedSubalgebra(self.spec, comps, seeds, budget, name=name)

    def holds_identity(self, s: Term, t: Term) -> bool:
        """Whether the variety satisfies s = t, by evaluating both sides in
        the free algebra over their joint variables (checked coordinatewise
        over all assignments into the generating algebras)."""
        check_term(s, self.spec.sig)
        check_term(t, self.spec.sig)
        names = term_vars(t, term_vars(s))
        comps = _Components(self.spec, names, Budget(self.budget_limit))
        return comps.eval_term(s) == comps.eval_term(t)
