"""Finite algebras: operation tables, homomorphisms, congruences, and the
universal-algebra toolbox (products, generated subalgebras, quotients,
principal congruences, congruence lattices, generator search).

All values are immutable after construction and every operation is a pure
function, so everything here is safe to use concurrently.
"""

from __future__ import annotations

import itertools
from functools import cached_property, reduce
from operator import getitem
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

from .terms import Signature, Term, Var, _set_values, _Value

__all__ = [
    "AlgebraError",
    "FiniteAlgebra",
    "Congruence",
    "direct_product",
    "subpower",
    "enumerate_homs",
    "quotient",
    "principal_congruence",
    "congruence_generated",
    "congruence_lattice",
    "min_generators",
    "poset_covers",
    "close_under",
    "join_irreducibles",
    "walk_steps",
]


class AlgebraError(ValueError):
    """Ill-formed algebra, homomorphism, or congruence."""


def _build_table(row, arity: int, points: Sequence, step, leaf):
    """A nested table over range(len(points)), built by peeling ``row`` one
    argument at a time: entry [i1]...[ik] is leaf(row'), where row' is
    ``row`` stepped through points[i1], ..., points[ik]."""
    if not arity:
        return leaf(row)
    return [_build_table(step(row, p), arity - 1, points, step, leaf)
            for p in points]


def _commutes(row, cod_row, depth: int, m: Sequence[int]) -> bool:
    """Whether m maps the nested table ``row`` onto ``cod_row``:
    cod_row[m[a1]]...[m[ad]] == m[row[a1]...[ad]] for every argument."""
    if not depth:
        return cod_row == m[row]
    if depth == 1:
        return [cod_row[y] for y in m] == [m[r] for r in row]
    return all(_commutes(r, cod_row[y], depth - 1, m) for r, y in zip(row, m))


class FiniteAlgebra:
    """A finite algebra: labelled universe plus total operation tables.

    A table of arity k is a list nested k deep, read table[a1]...[ak], with
    element indices for labels; a constant's table is its index.  This is
    the variety-file layout.  The constructor checks the shape and copies
    the lists, so later changes to the caller's lists do not reach it.
    """

    def __init__(self, sig: Signature, labels: Sequence[str],
                 tables: Mapping[str, list | int], name: str = ""):
        self.sig = sig
        self.labels = tuple(str(x) for x in labels)
        self.name = name
        if len(set(self.labels)) != len(self.labels):
            raise AlgebraError("duplicate element labels")
        n = len(self.labels)

        def copy(op: str, node, prefix: tuple[int, ...], arity: int):
            if len(prefix) == arity:
                if not isinstance(node, int) or not 0 <= node < n:
                    raise AlgebraError(
                        f"bad table entry for {op!r}: {prefix} -> {node!r}")
                return node
            if not isinstance(node, list) or len(node) != n:
                raise AlgebraError(f"table for {op!r} is not total")
            return [copy(op, row, prefix + (i,), arity) for i, row in enumerate(node)]

        self.tables: dict[str, list | int] = {}
        for op, arity in sig.ops:
            if op not in tables:
                raise AlgebraError(f"missing table for operation {op!r}")
            self.tables[op] = copy(op, tables[op], (), arity)

    @classmethod
    def _trusted(cls, sig: Signature, labels: Sequence[str],
                 tables: dict[str, list | int],
                 name: str = "") -> "FiniteAlgebra":
        """Wrap tables the program built itself: total and in-range by
        construction, with distinct string labels that the caller ensures.
        The tables are kept, not copied."""
        a = object.__new__(cls)
        a.sig = sig
        a.labels = tuple(labels)
        a.name = name
        a.tables = tables
        return a

    @property
    def size(self) -> int:
        return len(self.labels)

    def elements(self) -> range:
        return range(self.size)

    def op(self, name: str, args: tuple[int, ...]) -> int:
        r = self.tables[name]
        for a in args:
            r = r[a]
        return r

    @cached_property
    def label_index(self) -> dict[str, int]:
        """Each label's element, built on first read."""
        return {lab: i for i, lab in enumerate(self.labels)}

    @cached_property
    def _translations(self) -> tuple[tuple[int, ...], ...]:
        """Each distinct basic translation x -> f(c1, .., x, .., ck) as its
        row of values, without the constant ones and the identity, which
        relate no new pair."""
        rows = dict.fromkeys(
            tuple(self.op(op, ctx[:i] + (x,) + ctx[i:]) for x in self.elements())
            for op, arity in self.sig.ops for i in range(arity)
            for ctx in itertools.product(self.elements(), repeat=arity - 1))
        return tuple(row for row in rows
                     if len(set(row)) > 1 and row != tuple(self.elements()))

    @cached_property
    def principal_congruences(self) -> dict[tuple[int, int], "Congruence"]:
        """Cg(x, y) for each pair of elements x < y, computed once per
        algebra: the congruence lattice, its covers and names read them."""
        return {(x, y): principal_congruence(self, x, y)
                for x, y in itertools.combinations(self.elements(), 2)}

    def eval(self, t: Term, env: Mapping[str, int]) -> int:
        """Table-driven evaluation of a term under a variable assignment."""
        if isinstance(t, Var):
            if t.name not in env:
                raise AlgebraError(f"unknown variable {t.name!r}")
            return env[t.name]
        return self.op(t.op, [self.eval(a, env) for a in t.args])

    def subuniverse(self, gens: Iterable[int]) -> tuple[int, ...]:
        """Closure of the generators under all operations, ascending order."""
        return tuple(sorted(e for e, _, _ in self.steps(gens)))

    def steps(self, gens: Iterable[int]) -> list[tuple]:
        """The derivation of the subalgebra that ``gens`` generate, in
        closure order: (e, None, i) for gens[i], (e, op, args) for the first
        application of op that yields e.  Deterministic: seeds in given
        order, then constants, then rounds of signature-ordered operations
        over argument tuples in closure order, each pass over the elements
        found before it began.
        """
        deriv: dict[int, tuple] = {}  # each element's step, in closure order
        for i, g in enumerate(gens):
            deriv.setdefault(g, (g, None, i))
        changed = True
        while changed:
            changed = False
            for op, arity in self.sig.ops:
                table = self.tables[op]
                if not arity:
                    if table not in deriv:
                        deriv[table] = (table, op, ())
                        changed = True
                    continue
                elems = tuple(deriv)
                # one peeled row per argument prefix, then one lookup per last
                for prefix in itertools.product(elems, repeat=arity - 1):
                    row = table
                    for a in prefix:
                        row = row[a]
                    for b in elems:
                        r = row[b]
                        if r not in deriv:
                            deriv[r] = (r, op, prefix + (b,))
                            changed = True
        return list(deriv.values())

    def is_hom_map(self, mapping: Sequence[int], cod: "FiniteAlgebra") -> bool:
        if len(mapping) != self.size:
            return False
        return all(_commutes(self.tables[op], cod.tables[op], arity, mapping)
                   for op, arity in self.sig.ops)

    def __repr__(self):
        name = self.name or "algebra"
        return f"<{name}: {self.size} elements>"


class Congruence(_Value):
    """A compatible partition in canonical form: blocks[i] is the least
    element index in the class of i."""

    __slots__ = _fields = ("blocks",)

    def __init__(self, blocks: tuple[int, ...]):
        _set_values(self, (blocks,))
        _set_blocks(self, blocks)

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
        """Join of the two partitions.  The join of two congruences in Con A
        is their join as equivalence relations, so no closure under the
        operations is needed: the union-find runs with no translation rows."""
        return _union_find(list(self.blocks), enumerate(other.blocks), ())

    def sort_key(self) -> tuple:
        # identity first, total last, deterministic in between
        return (self.size - self.num_blocks(), self.blocks)


_set_blocks = Congruence.blocks.__set__


# ---------------------------------------------------------------------------
# Constructions


def direct_product(algebras: Sequence[FiniteAlgebra]):
    """Direct product; universe is tuples in lexicographic order.

    Returns (product, projections), each projection the tuple of its
    factor's coordinates.  Element labels are tuple strings "(e1,e2,...)";
    a backslash or a comma inside a factor's label is escaped by a
    backslash, so distinct tuples keep distinct labels.
    """
    if not algebras:
        raise AlgebraError("nullary product unsupported")
    sig = algebras[0].sig
    for a in algebras[1:]:
        if a.sig != sig:
            raise AlgebraError("signature mismatch in product")
    tuples = list(itertools.product(*[range(a.size) for a in algebras]))
    index = {t: i for i, t in enumerate(tuples)}
    escaped = [[lab.replace("\\", "\\\\").replace(",", "\\,") for lab in a.labels]
               for a in algebras]
    labels = ["(" + ",".join(map(getitem, escaped, t)) + ")" for t in tuples]
    tables = {op: _build_table(tuple(alg.tables[op] for alg in algebras), arity,
                               tuples, lambda rows, t: tuple(map(getitem, rows, t)),
                               index.__getitem__)
              for op, arity in sig.ops}
    prod = FiniteAlgebra._trusted(sig, labels, tables,
                                  name="x".join(a.name or "?" for a in algebras))
    # a projection commutes with the operations by construction
    return prod, [tuple(t[i] for t in tuples) for i in range(len(algebras))]


def _fresh_rows(arity: int, old: int, m: int):
    """The argument tuples of a positive arity over range(m) that use an
    index >= old, in lexicographic order, as rows of (prefix, start s of
    the last argument's range [s, m))."""
    for prefix in itertools.product(range(m), repeat=arity - 1):
        if any(a >= old for a in prefix):
            yield prefix, 0
        elif old < m:
            yield prefix, old


def _walk(rows, vectors: list, prefix: tuple) -> tuple:
    """Each coordinate's nested table walked down by the prefix's elements."""
    for a in prefix:
        rows = tuple(map(getitem, rows, vectors[a]))
    return rows


def subpower(algebras: Sequence[FiniteAlgebra],
             seeds: Iterable[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """The tuples that ``seeds`` and the constants generate in the product
    of ``algebras``, read off the factors' own tables: each round reads only
    the argument tuples, in ``_fresh_rows`` order, with a new tuple in them."""
    ops = [(tuple(a.tables[op] for a in algebras), arity) for op, arity in algebras[0].sig.ops]
    members = {*seeds, *(base for base, arity in ops if not arity)}
    found, old = list(members), 0
    while old < len(found):
        m = len(found)
        for base, arity in ops:
            for prefix, s in _fresh_rows(arity, old, m) if arity else ():
                rows = _walk(base, found, prefix)
                for t in found[s:m]:
                    if (r := tuple(map(getitem, rows, t))) not in members:
                        members.add(r)
                        found.append(r)
        old = m
    return members


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


def walk_steps(steps: Iterable[tuple], size: int, target: FiniteAlgebra,
               points: Sequence[int]) -> list[int]:
    """The images of an algebra's ``size`` elements under the homomorphism
    into ``target`` that sends seed i of the derivation ``steps`` (in the
    format of ``FiniteAlgebra.steps``) to points[i]: one table lookup per
    step.  Elements no step derives read 0."""
    images = [0] * size
    for e, op, args in steps:
        if op is None:
            images[e] = points[args]
            continue
        value = target.tables[op]
        for a in args:
            value = value[images[a]]
        images[e] = value
    return images


def enumerate_homs(a: FiniteAlgebra, b: FiniteAlgebra,
                   constraints: Mapping[int, Collection[int]] | None = None,
                   *, injective: bool = False,
                   surjective: bool = False,
                   gens: Sequence[int] | None = None) -> Iterator[tuple[int, ...]]:
    """All homomorphisms a -> b as image tuples, deterministically ordered.

    Backtracks over images of a generating set only (generator images
    determine the map); every emitted map is verified once to be a total
    homomorphism, after the cheaper constraint and injectivity/surjectivity
    filters.  ``constraints`` maps chosen elements to the images allowed
    for them: on a generator it narrows the choices, elsewhere it filters
    the built map.  A known generating set may be passed to skip the
    minimal-generator search; a repeated generator counts once.
    """
    if a.sig != b.sig:
        raise AlgebraError("signature mismatch")
    constraints = dict(constraints or {})
    if gens is None:
        _, gens = min_generators(a)
    gens = tuple(dict.fromkeys(gens))
    steps = a.steps(gens)
    if len(steps) != a.size:
        raise AlgebraError("generators do not generate")

    choice_space = [
        [y for y in range(b.size) if g not in constraints or y in constraints[g]]
        for g in gens
    ]
    for images in itertools.product(*choice_space):
        full = tuple(walk_steps(steps, a.size, b, images))
        if any(full[e] not in allowed for e, allowed in constraints.items()):
            continue
        if injective and len(set(full)) != a.size:
            continue
        if surjective and len(set(full)) != b.size:
            continue
        if a.is_hom_map(full, b):
            yield full


def quotient(a: FiniteAlgebra, theta: Congruence):
    """Quotient algebra and natural epimorphism, the tuple of each
    element's block; blocks are labelled by their least member's label.
    ``theta`` must be a congruence of ``a``: the tables read each block's
    least member, so a partition that is not compatible gives tables that
    are not a quotient."""
    if theta.size != a.size:
        raise AlgebraError("congruence size mismatch")
    reps = sorted(set(theta.blocks))
    pos = {r: i for i, r in enumerate(reps)}
    nat = tuple(pos[theta.blocks[e]] for e in range(a.size))
    tables = {op: _build_table(a.tables[op], arity, reps, getitem,
                               lambda r: pos[theta.blocks[r]])
              for op, arity in a.sig.ops}
    q = FiniteAlgebra._trusted(a.sig, [a.labels[r] for r in reps], tables,
                               name=f"{a.name}/~" if a.name else "quotient")
    return q, nat


def _union_find(parent: list[int], pairs: Iterable[tuple[int, int]],
                rows: Sequence[Sequence[int]]) -> Congruence:
    """The least equivalence containing the partition ``parent``, a forest
    with each tree rooted at its least element, and ``pairs``, closed under
    the images of each merged pair by every row in ``rows``, to a fixpoint.
    Path halving; a merge hangs the larger root under the smaller, so no
    parent exceeds its child and one pass in index order reads off the
    roots."""
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
        for row in rows:
            union(row[x], row[y])
    for i, p in enumerate(parent):
        parent[i] = parent[p]
    return Congruence(tuple(parent))


def congruence_generated(a: FiniteAlgebra, pairs: Iterable[tuple[int, int]]) -> Congruence:
    """Least congruence containing the given pairs: the union-find closed
    under every basic translation, read as value rows once per algebra."""
    return _union_find(list(range(a.size)), pairs, a._translations)


def principal_congruence(a: FiniteAlgebra, x: int, y: int) -> Congruence:
    if not (0 <= x < a.size and 0 <= y < a.size):
        raise AlgebraError("element out of range")
    return congruence_generated(a, [(x, y)])


def congruence_lattice(a: FiniteAlgebra,
                       charge: Callable[[int], None] | None = None) -> tuple[Congruence, ...]:
    """All congruences, sorted identity-first, total-last: the
    join-irreducible ones, which are principal (Freese, Algebra Universalis
    59, 2008), closed under the partition join, plus the identity (also the
    total one when a.size <= 1).  ``charge``, if given, is called before
    each batch, even when the principal congruences are already held: their
    union work, a.size - 1 merges each read through every translation row,
    then a.size cells per principal congruence, per step of the
    join-irreducible search and per join of each round."""
    n, bottom = a.size, Congruence.identity(a.size)
    if charge:
        charge(n * (n - 1) // 2 * (n - 1) * len(a._translations))
        charge(n * n * (n - 1) // 2)
        m = len(set(a.principal_congruences.values()))
        charge(3 * m * (m - 1) // 2 * n)  # m * (m - 1) comparisons, at most half as many joins
    found = close_under(Congruence.join, join_irreducibles(
        set(a.principal_congruences.values()), Congruence.leq, Congruence.join, bottom),
        None if charge is None else lambda joins: charge(joins * n))
    return tuple(sorted(found | {bottom}, key=Congruence.sort_key))


def close_under(op, items: Iterable,
                charge: Callable[[int], None] | None = None) -> set:
    """The closure of a set under an associative, commutative and idempotent
    binary operation, such as a meet or a join.  Each member of the closure
    is op applied to finitely many items, so each round applies the
    operation only to pairs of a member new in the last round and an item.
    ``charge``, if given, is called with each round's number of applications
    before the round."""
    items = set(items)
    found, frontier = set(items), items
    while frontier:
        if charge:
            charge(len(frontier) * len(items))
        frontier = {op(a, b) for a in frontier for b in items} - found
        found |= frontier
    return found


def join_irreducibles(items: Collection, leq, join, bottom) -> list:
    """The items unequal to the join, from ``bottom``, of those strictly below."""
    return [x for x in items
            if reduce(join, (y for y in items if y != x and leq(y, x)), bottom) != x]


def poset_covers(items: Iterable, leq, dense: Collection) -> list[tuple[int, int]]:
    """Hasse cover pairs (i, j), items[i] < items[j] with no item between;
    each item must be the join of the ``dense`` members below it, read as a bitmask."""
    masks = [sum(1 << k for k, d in enumerate(dense) if leq(d, x)) for x in items]
    above = [[j for j, hi in enumerate(masks) if hi != lo and not lo & ~hi] for lo in masks]
    up = [sum(1 << j for j in js) for js in above]
    return [(i, j) for i, js in enumerate(above)
            for inner in [reduce(int.__or__, map(up.__getitem__, js), 0)]
            for j in js if not inner >> j & 1]
