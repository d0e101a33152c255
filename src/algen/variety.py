"""Varieties presented by finite generating algebras.

A finitely generated free algebra for Var(A1, ..., Ar) is realized as the
subalgebra of the product over all assignments, prod_i Ai^(Ai^n), generated
by the n projection tuples.  Elements are kept as explicit value vectors
(one coordinate per assignment) and are assigned canonical term
representatives, minimal in (size, op-order, arg-order) ranking.

Nothing here materializes the full assignment product; closures only ever
hold the elements actually generated, and a configurable cell budget turns
oversized constructions into BudgetExceeded errors instead of hangs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Callable, Sequence

from .algebra import AlgebraError, FiniteAlgebra
from .terms import (App, Signature, Term, Var, check_term, term_rank,
                    term_size, term_to_str, term_vars)

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

    def digest(self) -> str:
        payload = {
            "sig": list(self.sig.ops),
            "algebras": [
                {"labels": list(g.labels),
                 "tables": {op: sorted((list(k), v) for k, v in t.items())
                            for op, t in g.tables.items()}}
                for g in self.generators
            ],
        }
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def var_name(i: int) -> str:
    return f"x{i + 1}"


# ---------------------------------------------------------------------------
# Componentwise evaluation over the assignment index set


class _Components:
    """The assignment index set for n variables: for each generator algebra,
    every assignment tuple, in (algebra order, tuple order) lexicographic
    order."""

    def __init__(self, spec: VarietySpec, varnames: Sequence[str], budget: Budget):
        self.spec = spec
        self.varnames = tuple(varnames)
        n = len(self.varnames)
        width = sum(g.size ** n for g in spec.generators)
        budget.charge(width, "assignment index set")
        self.entries: list[tuple[FiniteAlgebra, dict[str, int]]] = []
        for g in spec.generators:
            for assign in itertools.product(range(g.size), repeat=n):
                self.entries.append((g, dict(zip(self.varnames, assign))))
        self.width = len(self.entries)

    def eval_term(self, t: Term) -> tuple[int, ...]:
        return tuple(g.eval(t, env) for g, env in self.entries)

    def eval_op(self, op: str, arg_vectors: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
        return tuple(
            g.tables[op][tuple(v[i] for v in arg_vectors)]
            for i, (g, _) in enumerate(self.entries))


class GeneratedSubalgebra:
    """A subalgebra of a free algebra, generated from seed vectors and kept
    with explicit tables, value vectors, and term representatives."""

    def __init__(self, spec: VarietySpec, comps: _Components,
                 seeds: Sequence[tuple[tuple[int, ...], Term]], budget: Budget,
                 name: str = ""):
        self.spec = spec
        self.comps = comps
        vectors: list[tuple[int, ...]] = []
        reps: list[Term] = []
        index: dict[tuple[int, ...], int] = {}

        def add(vec, rep, stage):
            budget.charge(comps.width, stage)
            index[vec] = len(vectors)
            vectors.append(vec)
            reps.append(rep)
            return index[vec]

        self.generator_indices: list[int] = []
        for vec, rep in seeds:
            if vec in index:
                self.generator_indices.append(index[vec])
            else:
                self.generator_indices.append(add(vec, rep, "free closure"))
        tables: dict[str, dict[tuple[int, ...], int]] = {op: {} for op, _ in spec.sig.ops}
        changed = True
        while changed:
            changed = False
            for op, arity in spec.sig.ops:
                table = tables[op]
                # charge the whole pass up front so oversized closures fail
                # fast instead of grinding toward the limit
                budget.charge(len(vectors) ** arity - len(table), "operation tables")
                for args in itertools.product(range(len(vectors)), repeat=arity):
                    if args in table:
                        continue
                    vec = comps.eval_op(op, [vectors[a] for a in args])
                    at = index.get(vec)
                    if at is None:
                        at = add(vec, App(op, tuple(reps[a] for a in args)),
                                 "free closure")
                        changed = True
                    table[args] = at
        if not vectors:
            raise AlgebraError(
                "empty free algebra: no generators and no constants in the signature")
        self._minimize_reps(tables, reps)
        self.reps = tuple(reps)
        labels = [term_to_str(r) for r in self.reps]
        self.algebra = FiniteAlgebra(spec.sig, labels, tables, name=name)

    def _minimize_reps(self, tables, reps: list[Term]):
        """Relax representatives to the (size, op-order, arg-order) minimum.

        Bellman-style passes over all table entries; sizes strictly grow
        through operations, so this reaches a fixpoint.
        """
        sig = self.spec.sig
        sizes = [term_size(r) for r in reps]
        ranks: list[tuple | None] = [None] * len(reps)

        def full_rank(i: int) -> tuple:
            if ranks[i] is None:
                ranks[i] = term_rank(reps[i], sig)
            return ranks[i]

        changed = True
        while changed:
            changed = False
            for op, _ in sig.ops:
                for args, res in tables[op].items():
                    cand_size = 1 + sum(sizes[a] for a in args)
                    if cand_size > sizes[res]:
                        continue
                    cand = App(op, tuple(reps[a] for a in args))
                    cand_rank = term_rank(cand, sig)
                    if cand_rank < full_rank(res):
                        reps[res] = cand
                        sizes[res] = cand_size
                        ranks[res] = cand_rank
                        changed = True


class FreeAlgebra:
    """The free algebra on n generators for a generator-presented variety."""

    def __init__(self, spec: VarietySpec, n: int, budget: Budget):
        if n < 0:
            raise AlgebraError("free algebra arity must be >= 0")
        self.spec = spec
        self.n = n
        varnames = [var_name(i) for i in range(n)]
        comps = _Components(spec, varnames, budget)
        seeds = [(comps.eval_term(Var(v)), Var(v)) for v in varnames]
        self.sub = GeneratedSubalgebra(spec, comps, seeds, budget,
                                       name=f"F_{spec.name}({n})")
        self.comps = comps

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
