"""Finite algebras: operation tables, homomorphisms, congruences, and the
universal-algebra toolbox (products, generated subalgebras, quotients,
principal congruences, congruence lattices, generator search).

All values are immutable after construction and every operation is a pure
function, so everything here is safe to use concurrently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .terms import Signature, Term, Var

__all__ = [
    "AlgebraError",
    "FiniteAlgebra",
    "Homomorphism",
    "Congruence",
    "direct_product",
    "subalgebra_generated",
    "enumerate_homs",
    "quotient",
    "kernel",
    "principal_congruence",
    "congruence_generated",
    "congruence_lattice",
    "min_generators",
    "find_isomorphism",
    "factor_through",
    "poset_covers",
    "close_under",
]


class AlgebraError(ValueError):
    """Ill-formed algebra, homomorphism, or congruence."""


class FiniteAlgebra:
    """A finite algebra: labelled universe plus total operation tables.

    Tables map argument index tuples to result indices and are checked to
    be total at construction.
    """

    def __init__(self, sig: Signature, labels: Sequence[str],
                 tables: Mapping[str, Mapping[tuple[int, ...], int]],
                 name: str = ""):
        self.sig = sig
        self.labels = tuple(str(x) for x in labels)
        self.name = name
        if len(set(self.labels)) != len(self.labels):
            raise AlgebraError("duplicate element labels")
        n = len(self.labels)
        self.tables: dict[str, dict[tuple[int, ...], int]] = {}
        for op, arity in sig.ops:
            if op not in tables:
                raise AlgebraError(f"missing table for operation {op!r}")
            table = dict(tables[op])
            if len(table) != n ** arity:
                raise AlgebraError(f"table for {op!r} is not total")
            for args, res in table.items():
                if len(args) != arity or not all(0 <= a < n for a in args) \
                        or not 0 <= res < n:
                    raise AlgebraError(f"bad table entry for {op!r}: {args} -> {res}")
            self.tables[op] = table
        self.label_index = {lab: i for i, lab in enumerate(self.labels)}

    @classmethod
    def _trusted(cls, sig: Signature, labels: Sequence[str],
                 tables: dict[str, dict[tuple[int, ...], int]],
                 name: str = "") -> "FiniteAlgebra":
        """Wrap tables the program built itself: total and in-range by
        construction, with distinct string labels that the caller ensures.
        The tables are kept, not copied."""
        a = object.__new__(cls)
        a.sig = sig
        a.labels = tuple(labels)
        a.name = name
        a.tables = tables
        a.label_index = {lab: i for i, lab in enumerate(a.labels)}
        return a

    @property
    def size(self) -> int:
        return len(self.labels)

    def elements(self) -> range:
        return range(self.size)

    def op(self, name: str, args: tuple[int, ...]) -> int:
        return self.tables[name][args]

    def constants(self) -> dict[str, int]:
        return {op: self.tables[op][()] for op, a in self.sig.ops if a == 0}

    def eval(self, t: Term, env: Mapping[str, int]) -> int:
        """Table-driven evaluation of a term under a variable assignment."""
        if isinstance(t, Var):
            if t.name not in env:
                raise AlgebraError(f"unknown variable {t.name!r}")
            return env[t.name]
        return self.tables[t.op][tuple(self.eval(a, env) for a in t.args)]

    def subuniverse(self, gens: Iterable[int]) -> tuple[int, ...]:
        """Closure of the generators under all operations, ascending order."""
        return tuple(sorted(self.closure_with_derivations(list(gens))[0]))

    def closure_with_derivations(self, gens: Sequence[int]):
        """Closure order plus, for each element, how it was first produced.

        Returns (order, deriv) where deriv[e] is ('gen', e) for seeds or
        (op, argtuple) for the first operation application producing e.
        Deterministic: seeds in given order, then constants, then rounds of
        signature-ordered operations over index-ordered argument tuples.
        """
        order: list[int] = []
        deriv: dict[int, tuple] = {}
        for g in gens:
            if g not in deriv:
                deriv[g] = ("gen", g)
                order.append(g)
        changed = True
        while changed:
            changed = False
            for op, arity in self.sig.ops:
                table = self.tables[op]
                for args in itertools.product(order, repeat=arity):
                    r = table[args]
                    if r not in deriv:
                        deriv[r] = (op, args)
                        order.append(r)
                        changed = True
        return order, deriv

    def is_hom_map(self, mapping: Sequence[int], cod: "FiniteAlgebra") -> bool:
        if len(mapping) != self.size:
            return False
        for op, arity in self.sig.ops:
            table = self.tables[op]
            cod_table = cod.tables[op]
            for args, res in table.items():
                if cod_table[tuple(mapping[a] for a in args)] != mapping[res]:
                    return False
        return True

    def __repr__(self):
        name = self.name or "algebra"
        return f"<{name}: {self.size} elements>"


@dataclass(frozen=True)
class Homomorphism:
    """A homomorphism between finite algebras; commutation with every
    operation table is checked at construction."""

    dom: FiniteAlgebra
    cod: FiniteAlgebra
    mapping: tuple[int, ...]

    def __post_init__(self):
        if not self.dom.is_hom_map(self.mapping, self.cod):
            raise AlgebraError("mapping is not a homomorphism")

    @classmethod
    def _trusted(cls, dom: FiniteAlgebra, cod: FiniteAlgebra,
                 mapping: tuple[int, ...]) -> "Homomorphism":
        """Wrap a mapping that is a homomorphism by construction or that the
        caller has already verified with is_hom_map."""
        h = object.__new__(cls)
        object.__setattr__(h, "dom", dom)
        object.__setattr__(h, "cod", cod)
        object.__setattr__(h, "mapping", mapping)
        return h

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def is_injective(self) -> bool:
        return len(set(self.mapping)) == len(self.mapping)

    def is_surjective(self) -> bool:
        return len(set(self.mapping)) == self.cod.size


@dataclass(frozen=True)
class Congruence:
    """A compatible partition in canonical form: blocks[i] is the least
    element index in the class of i."""

    blocks: tuple[int, ...]

    @classmethod
    def from_map(cls, images: Sequence) -> "Congruence":
        """Partition by equal images (kernel of an arbitrary function)."""
        first: dict = {}
        blocks = []
        for i, img in enumerate(images):
            if img not in first:
                first[img] = i
            blocks.append(first[img])
        return cls(tuple(blocks))

    @classmethod
    def identity(cls, n: int) -> "Congruence":
        return cls(tuple(range(n)))

    @classmethod
    def total(cls, n: int) -> "Congruence":
        return cls((0,) * n)

    @property
    def size(self) -> int:
        return len(self.blocks)

    def related(self, x: int, y: int) -> bool:
        return self.blocks[x] == self.blocks[y]

    def classes(self) -> tuple[tuple[int, ...], ...]:
        out: dict[int, list[int]] = {}
        for i, b in enumerate(self.blocks):
            out.setdefault(b, []).append(i)
        return tuple(tuple(v) for _, v in sorted(out.items()))

    def num_blocks(self) -> int:
        return len(set(self.blocks))

    def is_identity(self) -> bool:
        return self.blocks == tuple(range(len(self.blocks)))

    def is_total(self) -> bool:
        return len(set(self.blocks)) <= 1

    def leq(self, other: "Congruence") -> bool:
        """Refinement order: every block of self lies inside a block of other."""
        rep: dict[int, int] = {}
        for i, b in enumerate(self.blocks):
            ob = other.blocks[i]
            if rep.setdefault(b, ob) != ob:
                return False
        return True

    def meet(self, other: "Congruence") -> "Congruence":
        return Congruence.from_map(list(zip(self.blocks, other.blocks)))

    def join(self, other: "Congruence") -> "Congruence":
        """Join of the two partitions, by union-find.  The join of two
        congruences in Con A is their join as equivalence relations, so no
        closure under the operations is needed."""
        parent = list(self.blocks)  # every tree is rooted at its least element

        def find(x: int) -> int:
            while parent[x] != x:
                x = parent[x]
            return x

        for i, j in enumerate(other.blocks):
            ri, rj = find(i), find(j)
            parent[max(ri, rj)] = min(ri, rj)
        return Congruence(tuple(find(i) for i in range(self.size)))

    def sort_key(self) -> tuple:
        # identity first, total last, deterministic in between
        return (self.size - self.num_blocks(), self.blocks)


# ---------------------------------------------------------------------------
# Constructions


def direct_product(algebras: Sequence[FiniteAlgebra]):
    """Direct product; universe is tuples in lexicographic order.

    Returns (product, projections).  Element labels are tuple strings
    "(e1,e2,...)".
    """
    if not algebras:
        raise AlgebraError("nullary product unsupported")
    sig = algebras[0].sig
    for a in algebras[1:]:
        if a.sig != sig:
            raise AlgebraError("signature mismatch in product")
    tuples = list(itertools.product(*[range(a.size) for a in algebras]))
    index = {t: i for i, t in enumerate(tuples)}
    labels = ["(" + ",".join(a.labels[x] for a, x in zip(algebras, t)) + ")"
              for t in tuples]
    if len(set(labels)) != len(labels):  # labels may contain commas
        raise AlgebraError("duplicate element labels")
    tables: dict[str, dict[tuple[int, ...], int]] = {}
    for op, arity in sig.ops:
        table: dict[tuple[int, ...], int] = {}
        for args in itertools.product(range(len(tuples)), repeat=arity):
            arg_tuples = [tuples[a] for a in args]
            res = tuple(alg.tables[op][tuple(at[i] for at in arg_tuples)]
                        for i, alg in enumerate(algebras))
            table[args] = index[res]
        tables[op] = table
    prod = FiniteAlgebra._trusted(sig, labels, tables,
                                  name="x".join(a.name or "?" for a in algebras))
    # a projection commutes with the operations by construction
    projections = [Homomorphism._trusted(prod, alg, tuple(t[i] for t in tuples))
                   for i, alg in enumerate(algebras)]
    return prod, projections


def subalgebra_generated(a: FiniteAlgebra, gens: Iterable[int]):
    """Subalgebra generated by the given elements (constants included).

    Returns (subalgebra, inclusion).  The subalgebra universe keeps the
    parent's element order and labels.
    """
    gens = list(gens)
    for g in gens:
        if not 0 <= g < a.size:
            raise AlgebraError(f"generator index {g} out of range")
    members = a.subuniverse(gens)
    pos = {e: i for i, e in enumerate(members)}
    tables = {
        op: {tuple(pos[x] for x in args): pos[a.tables[op][args]]
             for args in itertools.product(members, repeat=arity)}
        for op, arity in a.sig.ops
    }
    sub = FiniteAlgebra._trusted(a.sig, [a.labels[e] for e in members], tables,
                                 name=f"Sg({a.name})" if a.name else "Sg")
    inclusion = Homomorphism(sub, a, tuple(members))
    return sub, inclusion


def min_generators(a: FiniteAlgebra, max_size: int | None = None):
    """Smallest generating set, by increasing-size exhaustive search.

    Deterministic: first witness in element order.  Returns (n, gens) or
    raises AlgebraError if max_size is given and no generating set of that
    size exists.
    """
    limit = a.size if max_size is None else min(max_size, a.size)
    universe = set(a.elements())
    for k in range(limit + 1):
        for combo in itertools.combinations(range(a.size), k):
            if set(a.subuniverse(combo)) == universe:
                return k, tuple(combo)
    raise AlgebraError(f"no generating set of size <= {limit}")


def enumerate_homs(a: FiniteAlgebra, b: FiniteAlgebra,
                   constraints: Mapping[int, int] | None = None,
                   *, injective: bool = False,
                   surjective: bool = False,
                   gens: Sequence[int] | None = None) -> Iterator[Homomorphism]:
    """All homomorphisms a -> b, deterministically ordered.

    Backtracks over images of a generating set only (generator images
    determine the map); every emitted map is verified once to be a total
    homomorphism, after the cheaper constraint and injectivity/surjectivity
    filters.  ``constraints`` pins images of chosen elements.  A known
    generating set may be passed to skip the minimal-generator search.
    """
    if a.sig != b.sig:
        raise AlgebraError("signature mismatch")
    constraints = dict(constraints or {})
    if gens is None:
        _, gens = min_generators(a)
    order, deriv = a.closure_with_derivations(gens)
    if set(order) != set(a.elements()):
        raise AlgebraError("generators do not generate")  # pragma: no cover

    choice_space = [
        [constraints[g]] if g in constraints else list(range(b.size))
        for g in gens
    ]
    for images in itertools.product(*choice_space):
        mapping: dict[int, int] = dict(zip(gens, images))
        for e in order:
            kind = deriv[e]
            if kind[0] == "gen":
                continue
            op, args = kind
            mapping[e] = b.tables[op][tuple(mapping[x] for x in args)]
        full = tuple(mapping[e] for e in range(a.size))
        if any(full[e] != img for e, img in constraints.items()):
            continue
        if injective and len(set(full)) != a.size:
            continue
        if surjective and len(set(full)) != b.size:
            continue
        if a.is_hom_map(full, b):
            yield Homomorphism._trusted(a, b, full)


def quotient(a: FiniteAlgebra, theta: Congruence):
    """Quotient algebra and natural epimorphism; blocks are labelled by
    their least member's label."""
    if theta.size != a.size:
        raise AlgebraError("congruence size mismatch")
    reps = sorted(set(theta.blocks))
    pos = {r: i for i, r in enumerate(reps)}
    nat = tuple(pos[theta.blocks[e]] for e in range(a.size))
    tables = {}
    for op, arity in a.sig.ops:
        table = {}
        for args in itertools.product(reps, repeat=arity):
            res = a.tables[op][args]
            key = tuple(pos[x] for x in args)
            table[key] = pos[theta.blocks[res]]
        tables[op] = table
    q = FiniteAlgebra._trusted(a.sig, [a.labels[r] for r in reps], tables,
                               name=f"{a.name}/~" if a.name else "quotient")
    # well-definedness is implied by compatibility; verify defensively
    epi = Homomorphism(a, q, nat)
    return q, epi


def kernel(h: Homomorphism) -> Congruence:
    return Congruence.from_map(h.mapping)


def congruence_generated(a: FiniteAlgebra, pairs: Iterable[tuple[int, int]]) -> Congruence:
    """Least congruence containing the given pairs.

    Closes under symmetry/transitivity (union-find) and under images of
    unary polynomial translations of every operation, to a fixpoint.
    """
    parent = list(range(a.size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    worklist: list[tuple[int, int]] = []

    def union(x: int, y: int):
        rx, ry = find(x), find(y)
        if rx != ry:
            if ry < rx:
                rx, ry = ry, rx
            parent[ry] = rx
            worklist.append((rx, ry))

    for x, y in pairs:
        union(x, y)
    while worklist:
        x, y = worklist.pop()
        for op, arity in a.sig.ops:
            if arity == 0:
                continue
            table = a.tables[op]
            for pos_i in range(arity):
                others = itertools.product(range(a.size), repeat=arity - 1)
                for ctx in others:
                    args_x = ctx[:pos_i] + (x,) + ctx[pos_i:]
                    args_y = ctx[:pos_i] + (y,) + ctx[pos_i:]
                    union(table[args_x], table[args_y])
    return Congruence(tuple(find(i) for i in range(a.size)))


def principal_congruence(a: FiniteAlgebra, x: int, y: int) -> Congruence:
    if not (0 <= x < a.size and 0 <= y < a.size):
        raise AlgebraError("element out of range")
    return congruence_generated(a, [(x, y)])


def congruence_lattice(a: FiniteAlgebra) -> tuple[Congruence, ...]:
    """All congruences: principal congruences closed under the partition
    join, plus the identity.  Sorted identity-first, total-last."""
    found = close_under(Congruence.join, [Congruence.identity(a.size)] + [
        principal_congruence(a, x, y)
        for x in range(a.size) for y in range(x + 1, a.size)])
    if a.size:
        found.add(Congruence.total(a.size))
    return tuple(sorted(found, key=Congruence.sort_key))


def find_isomorphism(a: FiniteAlgebra, b: FiniteAlgebra) -> Homomorphism | None:
    if a.size != b.size:
        return None
    for h in enumerate_homs(a, b, injective=True, surjective=True):
        return h
    return None


def factor_through(f: Homomorphism, g: Homomorphism) -> Homomorphism:
    """Unique h with g = h . f, for f surjective and ker f <= ker g."""
    if f.dom is not g.dom:
        raise AlgebraError("domain mismatch")
    if not f.is_surjective():
        raise AlgebraError("first map must be surjective")
    if not kernel(f).leq(kernel(g)):
        raise AlgebraError("kernel condition ker f <= ker g fails")
    images: dict[int, int] = {}
    for x in range(f.dom.size):
        images.setdefault(f.mapping[x], g.mapping[x])
    return Homomorphism(f.cod, g.cod, tuple(images[i] for i in range(f.cod.size)))


def close_under(op, items: Iterable) -> set:
    """The closure of a set under a binary operation, in semi-naive rounds:
    each round applies the operation only to pairs with a new member."""
    found = set(items)
    frontier = set(found)
    while frontier:
        frontier = {op(a, b) for a in frontier for b in found} - found
        found |= frontier
    return found


def poset_covers(items: Sequence, leq) -> list[tuple[int, int]]:
    """Hasse cover pairs (i, j) with items[i] < items[j], no element between."""
    n = len(items)
    lt = [[leq(items[i], items[j]) and i != j and not leq(items[j], items[i])
           for j in range(n)] for i in range(n)]
    return [(i, j) for i in range(n) for j in range(n)
            if lt[i][j] and not any(lt[i][k] and lt[k][j] for k in range(n))]
