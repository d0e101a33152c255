"""Varieties presented by finite generating algebras.

A finitely generated free algebra for Var(A1, ..., Ar) is realized as the
subalgebra of the product over all assignments, prod_i Ai^(Ai^n), generated
by the n projection tuples, the subpower construction UACalc also uses.
Elements are value vectors, one coordinate per assignment, bytes when no
generating algebra has more than 256 elements, else tuples.  The assignment
index set for n variables, its projection vectors and its per-coordinate op
tables, depends only on n, so the spec builds it once per variable count;
each caller, F(n) or a term evaluation, charges its own budget for it
before the lookup and pairs its own variable names with the projections.
The projections are built from runs of values, so no assignment tuple is
ever made.  A term is evaluated node by node over whole vectors: where the
keys a1*q**(k-1) + ... + ak fit a byte, q the largest algebra's size,
Horner's rule over the argument vectors as ints gives every key at once and
one translate per algebra reads them; other nodes go one coordinate at a
time.

The closure is semi-naive: a pass of an operation evaluates only the
argument tuples that use an element added since that operation's previous
pass, in the lexicographic order a full pass would visit them, so element
order, tables and budget charges are those of the plain closure.  The
tuples come as rows: a prefix, which walks the generating algebras' nested
tables down to one innermost row per coordinate, and the range [s, m) of
last arguments it reads ([0, m) if the prefix uses a fresh element, else
[old, m)).  Three kernels read a row's results.  Per entry, each is looked
up from those innermost rows one coordinate at a time.  The other two read
a range shared by enough prefixes, for byte vectors, whose columns are
first translated through each innermost row of their algebra, as 256-byte
tables, so a prefix walk ends on one result column per coordinate.
Packed, where an element's coordinates fit a key of one or two bytes (as
many to a byte as fit, each byte a mixed-radix number), each column is
spread one key apart, read as one int and multiplied by its coordinate's
place in the key, so a row's keys are the sum of its columns' ints written
out as bytes; a dict maps each key to its element, filled in where a row
first meets it from that entry's vector, a strided slice of the row's byte
columns, which a packed range keeps beside their ints (each column is
translated once, then widened).  Joined, otherwise, the columns' strided
slices are the result vectors, found in the index in one batch.  Wider keys
stay joined: an int per coordinate as long as the key would cost the width
times the key length per row (n3 F(4), 64-byte keys, took 8.5 times as long
packed).  Fewer than 64 elements stay joined too: there nearly every key is
met first in some row and read twice, and lattice F(3), 18 elements, took
1.11 times as long packed.  A range is shared when at least twice as many
prefixes read it as the largest generating algebra has innermost rows;
below that, as in the shipped varieties' F(1), translating costs more than
it saves.  The key layout is made at the first shared range of a pass over
64 elements or more.  The free algebra's nested tables grow by appending
results in tuple order.  Seeds, constants and results go through one
lookup-or-add (the per-entry kernel keeps its hits inline), and the closure
ends with a round of passes that adds no element.

When every seed is a variable, as in F(n), a swap of two adjacent seeds
permutes the variables, hence the assignments, so it commutes with every
operation, fixes the constants and exchanges two projections: it acts on
the elements as an automorphism p, read off the seeds.  A pass adds only
results over the elements it starts with, so the elements at every pass
start, [0, m) and [0, old), are closed under p, and a binary row a over
[s, m) is p . row(p a) . p.  Where a swap maps a to an earlier row,
the closure derives row a from that row with two gathers instead of
evaluating it: one, made once per pass from p over [s, m), picks row(p
a)'s entries, and the other applies p to them.  p of an element from an
earlier pass is read off the tables from its first table entry,
p(op(a, b)) = op(p a, p b); a result whose image is not known yet, which
only an element added in this pass can be, is read in column order, so
each new element lands where the plain closure puts it: where the range is
shared, as a strided slice of the row's translated columns, else
evaluated one coordinate at a time.  No permutation of the coordinates is
built: at width |A|^n it would outweigh the closure.
The closure keeps its own derivation, each element's first table entry:
every element is a generator, a constant or one operation applied to
elements made before it.  Every homomorphism out of F(n), fixed by the
images of the generators, walks it in element order with one table lookup
per element, or walks only the cone that the images of a few elements read.
Each element's representative is its least term in (size, op-order,
arg-order) rank, settled size by size (Knuth's generalization of Dijkstra's
algorithm) from the table entries whose argument sizes add up to one less.
That sweep, the labels and the rank order are not part of the closure: each
closure keeps one sweep, and a read that needs one element, or the
rank-least of a set, resumes it only until that level has settled, as a
settled level's terms are final.  A context builds each F(n) once;
free_algebra(n) settles every representative, while classification and the
product shortcut read F(k) as a closure and settle only what they print.

A binary operation commutative in every generating algebra is commutative,
coordinatewise, in every algebra built here, and the spec finds these once.
The closure mirrors them: a fresh prefix a with range [s, m) and a > s
copies its entries for b in [s, a) from rows b, which the same pass filled
to m before it, and evaluates only [a, m).  A copied result is already
indexed, so element order and tables are those of the plain closure, and as
a pass is charged before it runs, so are the charges: a mirrored entry
still costs its cell.  The sweep visits each unordered pair of elements
once for such an operation and offers the argument order whose first code
is smaller; codes are prefix-free, so that order is the lesser term.

The exact factor E(t), the subalgebra of F(X) generated by one term t, is
F(1)/ker(x1 -> t).  Two unary terms u, v agree at t exactly when they agree
at every (generating algebra, value) pair that t's value vector hits, t's
range, so the kernel is the meet of the value kernels ker(x1 -> a) over the
range, and E(t) is found once per range with no closure.  The quotient
numbers its blocks by their least members, which is the order in which
closing x1 over E(t) would reach them: a pass visits argument tuples in
lexicographic order, and the first tuple that yields a new block is made of
least members, so F(1)'s closure meets the blocks in E(t)'s closure order.
Only the least terms built from t, a solve's witnesses, are each term's
own.  Element 0's needs no sweep: a term containing t ranks above t, so it
is t or, when that ranks lower, the least ground term of 0, which is
settled once per range from the constants alone.  Another element's comes
from a sweep seeded with t, resumed only until that element's level has
settled.

Nothing here materializes the full assignment product; closures only ever
hold the elements actually generated, and a configurable cell budget turns
oversized constructions into BudgetExceeded errors instead of hangs.  A
closure charges each element's coordinates as it adds it and each pass's
fresh argument tuples before the pass, so one that ends with c elements has
charged c times the width plus c**k per operation of arity k, besides what
was charged before it.  Counts only grow, so the closure raises as soon as
that total for the elements it holds exceeds the limit, instead of running
passes that cannot fit; the total is then a lower bound on the cells
needed.  A construction that fits never trips this and charges as before.
Added elements are checked against the largest count that fits, found by
doubling and, near the limit, bisection.
"""

from __future__ import annotations

import itertools
from functools import cached_property, reduce
from operator import getitem, itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from .algebra import (AlgebraError, Congruence, FiniteAlgebra, _fresh_rows, _walk,
                      quotient, walk_steps)
from .terms import (App, Signature, Term, Var, _Value, check_term, term_rank,
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


class VarietySpec(_Value):
    """A variety presented by finite generating algebras over one signature."""

    _fields = ("name", "sig", "generators")
    __slots__ = _fields + ("__dict__",)  # the __dict__ holds cached properties

    def __init__(self, name: str, sig: Signature, generators: tuple[FiniteAlgebra, ...]):
        self._init(name, sig, generators)
        if not generators:
            raise AlgebraError("a variety needs at least one generating algebra")
        for g in generators:
            if g.sig != sig:
                raise AlgebraError("generating algebras must share the signature")

    @cached_property
    def commutative(self) -> frozenset[str]:
        """The binary operations commutative in every generating algebra, so
        in every algebra of the variety."""
        return frozenset(op for op, arity in self.sig.ops if arity == 2 and all(
            t[a][b] == t[b][a] for g in self.generators for t in [g.tables[op]]
            for a in range(g.size) for b in range(a)))

    @cached_property
    def packed_tables(self) -> dict[str, tuple[int, list[bytes]]]:
        """Each operation whose keys a1*q**(k-1) + ... + ak fit a byte, q the
        largest algebra's size: q and each generating algebra's table at
        those keys, 256 bytes.  Each assignment view holds them."""
        q = max(g.size for g in self.generators)
        return {op: (q, [_radix_table(g.tables[op], q, arity).ljust(256, b"\0")
                         for g in self.generators])
                for op, arity in self.sig.ops if arity and q ** arity <= 256}

    def assignment_index(self, n: int, budget: Budget) -> _AssignmentIndex:
        """The assignment index set for n variables, charged to ``budget``
        before it is looked up and built once per n."""
        # |A|^n exceeds the limit once |A| >= 2 and n >= the limit's bit
        # length, so such a power is charged as 2^bit_length, not computed
        cap = budget.limit.bit_length()
        width = sum(2 ** cap if g.size > 1 and n >= cap else g.size ** n
                    for g in self.generators)
        budget.charge(n + width, "assignment index set")  # a cell per name too
        indexes = self.__dict__.setdefault("_indexes", {})
        return indexes.get(n) or indexes.setdefault(n, _AssignmentIndex(self, n))


def var_name(i: int) -> str:
    return f"x{i + 1}"


# ---------------------------------------------------------------------------
# Componentwise evaluation over the assignment index set


class _AssignmentIndex:
    """The assignment index set for n variables: for each generator algebra,
    every assignment tuple, in (algebra order, tuple order) lexicographic
    order.  A term's value vector has one coordinate per assignment, each
    algebra's a segment.  It holds the vector type, each variable position's
    projection vector, each constant's vector and, for each other operation,
    the nested table of the algebra behind each coordinate; the spec builds
    it once per n.  Its nodes read packed keys where they fit a byte, else
    one coordinate at a time."""

    def __init__(self, spec: VarietySpec, n: int):
        gens = spec.generators
        self.packed = spec.packed_tables
        self.code = code = bytes if max(g.size for g in gens) <= 256 else tuple
        # over one algebra, position i repeats each value size**(n-1-i)
        # times, and that run size**i times; no assignment tuple is made
        self.projections = tuple(reduce(code.__add__, (
            code(v for v in range(g.size) for _ in range(g.size ** (n - 1 - i)))
            * g.size ** i for g in gens)) for i in range(n))
        stops = list(itertools.accumulate(g.size ** n for g in gens))
        self.width, self.segments = stops[-1], list(zip([0] + stops, stops))
        self.op_tables = {op: (tuple if arity else code)(reduce(
            tuple.__add__, ((g.tables[op],) * g.size ** n for g in gens)))
                          for op, arity in spec.sig.ops}

    def eval_term(self, t: Term, env: dict) -> bytes | tuple:
        """t's value vector, its variables read as the vectors ``env``
        binds them to."""
        if isinstance(t, Var):
            if t.name not in env:
                raise AlgebraError(f"unknown variable {t.name!r}")
            return env[t.name]
        if not t.args:
            return self.op_tables[t.op]
        packed = self.packed.get(t.op)
        if packed is None:  # one coordinate at a time
            rows = self.op_tables[t.op]
            for a in t.args[:-1]:
                rows = tuple(map(getitem, rows, self.eval_term(a, env)))
            return _evaluate(self.code, rows, self.eval_term(t.args[-1], env))
        q, tables = packed
        if len(t.args) == 1:
            keys = self.eval_term(t.args[0], env)
        else:  # Horner's rule: no key byte carries into the next
            key = 0
            for a in t.args:
                key = key * q + int.from_bytes(self.eval_term(a, env), "little")
            keys = key.to_bytes(self.width, "little")
        if len(tables) == 1:
            return keys.translate(tables[0])
        return b"".join(keys[start:stop].translate(table)
                        for (start, stop), table in zip(self.segments, tables))

    def term_range(self, vec: Sequence[int]) -> tuple[tuple[int, int], ...]:
        """The range of a term: the (generating algebra, value) pairs that
        ``vec``, its value vector, hits."""
        return tuple((gi, a) for gi, (start, stop) in enumerate(self.segments)
                     for a in sorted(set(vec[start:stop])))


def _radix_table(table, q: int, arity: int) -> bytes:
    """A nested table's entries at the keys a1*q**(k-1) + ... + ak."""
    if arity == 1:
        return bytes(table).ljust(q, b"\0")
    return b"".join([_radix_table(r, q, arity - 1) for r in table]).ljust(q ** arity, b"\0")


def _gather(indices: Sequence[int]) -> Callable:
    """The items at ``indices``, not empty, of a sequence, as a tuple."""
    if len(indices) == 1:
        i = indices[0]
        return lambda seq: (seq[i],)
    return itemgetter(*indices)


def _conjugate_row(perm: list, gather: Callable, row: list) -> tuple:
    """p . row . p over a range, for the permutation ``perm`` and ``gather``,
    its gather of p over the range; None where p of a result is not known
    yet."""
    return _gather(gather(row))(perm)


def _lane_layout(sizes: Sequence[int]) -> tuple[int, list[int]] | None:
    """The bytes a packed key takes and each coordinate's multiplier in it:
    the coordinates, of the given sizes, in order, as many to a byte as fit,
    each byte a mixed-radix number; None when that takes more than two
    bytes."""
    factors, byte, scale = [], 0, 1
    for size in sizes:
        if scale * size > 256:
            byte, scale = byte + 1, 1
        factors.append(scale << 8 * byte)
        scale *= size
    return (byte + 1, factors) if byte < 2 else None


def _byte_rows(table):
    """A nested table, each innermost row a 256-byte translation table."""
    if isinstance(table[0], list):
        return [_byte_rows(t) for t in table]
    return bytes(table).ljust(256, b"\0")


def _translate(rows, column: bytes):
    """Nested translation tables, each mapped over a column of values."""
    if isinstance(rows, bytes):
        return column.translate(rows)
    return [_translate(r, column) for r in rows]


def _widen(cols, lanes: int, factor: int):
    """Nested translated columns, each as the low bytes of keys ``lanes``
    bytes wide, read as one little-endian int times ``factor``, its
    coordinate's multiplier.  A coordinate's values times its multiplier
    stay inside its byte, so the sum of such ints over a row's coordinates
    holds its results' packed keys."""
    if not isinstance(cols, bytes):
        return [_widen(c, lanes, factor) for c in cols]
    if lanes == 2:
        wide = bytearray(2 * len(cols))
        wide[::2] = cols
        cols = wide
    return int.from_bytes(cols, "little") * factor


def _evaluate(code: type, rows, vector) -> bytes | tuple:
    """The result vector at a last argument's ``vector``, read one
    coordinate at a time off ``rows``, the row's walked innermost tables."""
    return code(map(getitem, rows, vector))


class GeneratedSubalgebra:
    """A subalgebra of a free algebra, generated from seed vectors and kept
    with explicit tables and term representatives."""

    def __init__(self, spec: VarietySpec, assignments: _AssignmentIndex,
                 seeds: Sequence[tuple[Sequence[int], Term]], budget: Budget):
        """When every seed term is a variable, rows are derived across swaps."""
        self.spec = spec
        a_max = max(g.size for g in spec.generators)
        code = assignments.code  # the type of value vectors
        vectors: list = []
        index: dict = {}
        # the derivation in element order: (element, operation, argument
        # elements), or (element, None, i) for seed i
        self.steps = steps = []
        perms: list[list] = []  # each swap's permutation, None where not known yet
        seed_reps: dict[int, Term] = {}
        before = budget.used  # the cells charged before the closure
        cap = 0  # need fits the limit up to this count

        def need(count: int) -> int:
            """The cells charged in all by a closure that ends with ``count``
            elements: a cell per coordinate of each element and one per
            argument tuple of each operation, besides those made before."""
            return (before + count * assignments.width
                    + sum(count ** arity for _, arity in spec.sig.ops))

        def largest_fit(count: int) -> int:
            """The largest count up to 2 * ``count`` whose need fits the
            limit; raises if ``count``'s does not, as the closure cannot end
            with fewer elements than it holds."""
            top = 2 * count
            if need(top) <= budget.limit:
                return top
            if need(count) > budget.limit:
                raise BudgetExceeded("operation tables", need(count), budget.limit)
            while top - count > 1:  # need(count) fits, need(top) does not
                mid = (count + top) // 2
                if need(mid) <= budget.limit:
                    count = mid
                else:
                    top = mid
            return count

        def element(vec, op, args) -> int:
            """``vec``'s element, looked up, else added as first made by
            ``op`` applied to ``args``, or as seed ``args`` when op is None."""
            nonlocal cap
            e = index.get(vec)
            if e is None:
                budget.charge(assignments.width, "free closure")
                e = index[vec] = len(vectors)
                vectors.append(vec)
                steps.append((e, op, args))
                for perm in perms:
                    perm.append(None)
                if len(vectors) > cap:
                    cap = largest_fit(len(vectors))
            return e

        # the seeds' elements, in seed order
        self.generators = tuple(element(code(vec), None, i)
                                for i, (vec, _) in enumerate(seeds))
        for e, (_, rep) in zip(self.generators, seeds):
            seed_reps.setdefault(e, rep)
        if all(isinstance(rep, Var) for _, rep in seeds):
            for gi, gj in zip(self.generators, self.generators[1:]):
                perm = list(range(len(vectors)))
                perm[gi], perm[gj] = gj, gi
                perms.append(perm)
        known = len(vectors)  # each perm is known on the elements below this
        tables: dict[str, list | int] = {}
        # the element count at each operation's last pass, absent before its
        # first: its table holds every argument tuple over those elements,
        # so the next pass takes only the tuples that use a later one
        seen: dict[str, int] = {}
        # packed keys, set up at the first shared range of a pass over 64
        # elements or more: the bytes a key takes, 0 where that would be more
        # than two, and each coordinate's multiplier in it; keyed maps each
        # key a row has met to its element
        lanes = factors = None
        keyed: dict[int, int] = {}
        count = None
        while count != len(vectors):  # a round that adds nothing ends it
            count = len(vectors)
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
                        tables[op] = element(assignments.op_tables[op], op, ())
                    continue
                # the fresh tuples come in lexicographic order, so each new
                # row, at any depth, is appended where it belongs
                table = tables.setdefault(op, [])
                old = old or 0
                mirror = op in spec.commutative
                # binary rows derived from earlier rows: a -> (perm, each
                # range start's gather of perm over the range)
                source = {}
                if arity == 2 and perms:
                    for perm in perms:  # [0, m) is closed under each swap
                        for e in range(known, m):
                            if perm[e] is None:  # e is no seed, as e >= known
                                _, op_e, args = steps[e]
                                perm[e] = reduce(getitem, map(perm.__getitem__, args),
                                                 tables[op_e])
                        gathers = {s: _gather(perm[s:m]) for s in (0, old) if s < m}
                        for a in range(m):
                            if perm[a] < a:
                                source.setdefault(a, (perm, gathers))
                    known = m
                # the ranges shared by enough prefixes, as translated byte
                # columns and, where packed, those widened to ints
                base, applied, widened, packed = assignments.op_tables[op], {}, {}, 0
                if code is bytes and m > a_max:  # else no range has that many readers
                    k = arity - 1
                    for s, readers in (((0, m ** k - old ** k), (old, old ** k))
                                       if old else ((0, m ** k),)):
                        if readers >= 2 * a_max ** k and s < m:
                            if m >= 64 and lanes is None:
                                # a coordinate's size is its table's length
                                lanes, factors = (_lane_layout(list(map(len, base)))
                                                  or (0, []))
                            packed = lanes if m >= 64 else 0
                            flat, w = b"".join(vectors[s:m]), assignments.width
                            trans = {id(g.tables[op]): _byte_rows(g.tables[op])
                                     for g in spec.generators}
                            applied[s] = cols = [_translate(trans[id(t)], flat[c::w])
                                                 for c, t in enumerate(base)]
                            if packed:
                                widened[s] = [_widen(col, lanes, f)
                                              for col, f in zip(cols, factors)]
                for prefix, s in _fresh_rows(arity, old, m):
                    if source and prefix[0] in source:
                        # row a is p . row(p a) . p over [s, m)
                        perm, gathers = source[prefix[0]]
                        a = prefix[0]
                        if a == len(table):
                            table.append([])
                        src = table[perm[a]]
                        found = _conjugate_row(perm, gathers[s], src)
                        # only an element added in this pass can have an
                        # image not known yet
                        if len(vectors) > m and None in found:
                            found = list(found)  # a new image, in column order
                            # its vector, a slice of the row's columns where
                            # the range is shared
                            cols = applied.get(s)
                            rows = _walk(cols or base, vectors, (a,))
                            flat = cols and b"".join(rows)
                            for j in [j for j, e in enumerate(found) if e is None]:
                                r = src[perm[s + j]]
                                if perm[r] is None:
                                    e = element(flat[j::m - s] if flat else
                                                _evaluate(code, rows, vectors[s + j]),
                                                op, (a, s + j))
                                    perm[r], perm[e] = e, r
                                found[j] = perm[r]
                        table[a].extend(found)
                        continue
                    cols = applied.get(s)
                    rows = widened.get(s) or cols or base
                    row = table
                    for a in prefix:
                        rows = tuple(map(getitem, rows, vectors[a]))
                        if a == len(row):
                            row.append([])
                        row = row[a]
                    lo = s
                    if mirror and prefix[0] > s:  # rows s..a-1 are complete
                        lo = prefix[0]
                        row.extend([r[lo] for r in table[s:lo]])
                    if not cols:
                        for b in range(lo, m):
                            vec = code(map(getitem, rows, vectors[b]))
                            res = index.get(vec)  # inline: most entries hit
                            if res is None:
                                res = element(vec, op, prefix + (b,))
                            row.append(res)
                        continue
                    if packed:  # the row's keys, from lo on
                        keys = (sum(rows) >> 8 * lanes * (lo - s)).to_bytes(
                            lanes * (m - lo), "little")
                        if lanes == 2:
                            keys = memoryview(keys).cast("H")
                        lookup = keyed
                    else:  # the result vectors, from lo on
                        flat, lookup = b"".join(rows), index
                        keys = [flat[j::m - s] for j in range(lo - s, m - s)]
                    found = list(map(lookup.get, keys))
                    if None in found:  # keys first met here, in column order
                        if packed:
                            flat = b"".join(_walk(cols, vectors, prefix))
                        for j in [j for j, e in enumerate(found) if e is None]:
                            e = lookup.get(keys[j])  # met earlier in this row?
                            if e is None:
                                e = lookup[keys[j]] = element(
                                    flat[lo - s + j::m - s], op, prefix + (lo + j,))
                            found[j] = e
                    row.extend(found)
        if not vectors:
            raise AlgebraError(
                "empty free algebra: no generators and no constants in the signature")
        self.size = len(vectors)
        self._terms = _LeastTerms(spec.sig, tables, self.size, seed_reps,
                                  spec.commutative)
        self.algebra = _ClosureAlgebra(spec.sig, tables, self._terms)

    @cached_property
    def reps(self) -> tuple[Term, ...]:
        """Each element's least term; the first read settles them all."""
        return self._terms.complete()

    @cached_property
    def order(self) -> tuple[int, ...]:
        """The elements by their representatives' term_rank, the settle order."""
        self._terms.complete()
        return tuple(e for e, _ in self._terms.steps)

    def rep(self, e: int) -> Term:
        """Element ``e``'s least term, settling levels only up to its own."""
        return self._terms.rep(e)

    def least(self, elements: Iterable[int]) -> int:
        """The rank-least of ``elements``, not empty, settling levels only up
        to its own."""
        return self._terms.least(elements)


class _ClosureAlgebra(FiniteAlgebra):
    """A closure's tables as an algebra, kept as ``FiniteAlgebra._trusted``
    keeps them.  Its labels, the representatives as text, are settled when
    first read; its size and tables are not."""

    def __init__(self, sig: Signature, tables: dict, terms: "_LeastTerms"):
        self.sig, self.tables, self.name = sig, tables, ""
        self._terms = terms

    @property
    def size(self) -> int:
        return self._terms.size

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(map(term_to_str, self._terms.complete()))


def _settle_levels(sig: Signature, tables, reps: list,
                   seeds: dict[int, Term], mirrored: frozenset[str]):
    """Each element's least term in (size, op-order, arg-order) rank,
    written into ``reps`` one size level at a time; yields each settled
    level's steps, (element, seed term) or (element, (operation, argument
    elements)), each after its arguments and in (size, code) order, that of
    ``term_rank``.  It returns after the level that settles the last
    element, or when no size is left to visit, as without seeds, when the
    constants reach only part of the elements; unsettled elements' terms
    stay None.  ``mirrored`` names binary operations commutative in these
    tables.

    A least term is a seed term, a constant, or op(r1, ..., rk) with each
    ri the least term of a smaller element, as a lower-ranked argument
    makes a lower-ranked term.  So level s reads the seeds and constants of
    size s and the table entries whose arguments' levels split s - 1, keeps
    those whose result is unsettled, and gives each element found its least
    code, unique as codes are prefix-free.  A settled level files the splits
    it completes under their sums, so only the sizes a seed, a constant or a
    split reaches are visited.  The terms are those of Knuth's (size, rank)
    heap sweep, a generalization of Dijkstra's algorithm.
    """
    found: dict[int, dict] = {}  # size -> {element: (code, derivation)}

    def offer(size: int, code: tuple, e: int, derivation):
        best = found.setdefault(size, {})
        if e not in best or code < best[e][0]:
            best[e] = code, derivation

    for e, t in seeds.items():
        offer(*term_rank(t, sig), e, t)
    by_k: dict[tuple, list] = {}  # the operations by (prefix length, mirrored)
    for i, (op, arity) in enumerate(sig.ops):
        if arity:
            by_k.setdefault((arity - 1, op in mirrored), []).append(
                (((1, i),), op, tables[op]))
        else:
            offer(1, ((1, i),), tables[op], (op, ()))
    codes = [None] * len(reps)
    unsettled = bytearray(b"\1") * len(reps)
    levels: dict[int, list[int]] = {}  # settled size -> its elements
    pending, splits = set(found), {}  # sizes to visit; size -> its splits
    left = len(reps)  # how many are unsettled
    while pending:
        pending.remove(s := min(pending))
        for ops, mirror, *parts, last in splits.pop(s, ()):
            for i, prefix in enumerate(itertools.product(*parts)):
                # a mirrored pair of elements of one level is visited once
                tail = last[i:] if mirror and parts[0] is last else last
                for head, op, table in ops:
                    row = reduce(getitem, prefix, table)
                    for b in tail:
                        if unsettled[row[b]]:
                            args = prefix + (b,)
                            if mirror and codes[b] < codes[args[0]]:
                                args = args[::-1]  # the lesser term
                            code = sum(map(codes.__getitem__, args), head)
                            offer(s, code, row[b], (op, args))
        best = found.pop(s, {})
        settled = [e for e in best if unsettled[e]]  # a seed may be too big
        if not settled:
            continue
        settled.sort(key=lambda e: best[e][0])
        steps = []
        for e in settled:
            codes[e], d = best[e]
            reps[e] = (App(d[0], tuple(map(reps.__getitem__, d[1])))
                       if isinstance(d, tuple) else d)
            unsettled[e] = 0
            steps.append((e, d))
        yield steps
        left -= len(settled)
        if not left:
            return  # every element has settled
        levels[s] = settled
        for (k, mirror), ops in by_k.items():
            for split in itertools.product(levels, repeat=k + 1):
                # the splits this level makes, a mirrored pair's once
                if s in split and not (mirror and split[0] > split[1]):
                    pending.add(t := 1 + sum(split))
                    splits.setdefault(t, []).append(
                        (ops, mirror, *map(levels.get, split)))


class _LeastTerms:
    """Each element's least term, settled on demand by one sweep, which a
    read resumes only until what it needs has settled: a settled level's
    terms are final, and every element with a smaller term is settled too,
    in rank order."""

    def __init__(self, sig: Signature, tables, size: int,
                 seeds: dict[int, Term], mirrored: frozenset[str]):
        self.size = size
        self.terms: list = [None] * size
        self.steps: list = []  # the settle order, as _settle_levels yields it
        self._levels = _settle_levels(sig, tables, self.terms, seeds, mirrored)

    def _settle_level(self) -> bool:
        """Settle the next level; False when the sweep has ended."""
        level = next(self._levels, [])
        self.steps += level
        return bool(level)

    def complete(self) -> tuple:
        """Every element's term."""
        while self._settle_level():
            pass
        return tuple(self.terms)

    def rep(self, e: int) -> Term | None:
        """Element ``e``'s term, None when the seeds and constants do not
        reach it."""
        while self.terms[e] is None and self._settle_level():
            pass
        return self.terms[e]

    def least(self, elements: Iterable[int]) -> int:
        """The rank-least of ``elements``, some of which the sweep reaches."""
        wanted = set(elements)
        while all(self.terms[e] is None for e in wanted) and self._settle_level():
            pass
        return next(e for e, _ in self.steps if e in wanted)


class RangeFactor(NamedTuple):
    """What E(t) = F(1)/ker(x1 -> t) takes from t's range, once per range:
    the quotient algebra, its kernel (the meet of the value kernels over the
    range), the quotient map, element 0's least ground term (None where the
    constants do not reach it) and that term's rank (None with it)."""
    algebra: FiniteAlgebra
    kernel: Congruence
    natural: list[int]
    ground: Term | None
    rank: tuple | None

    def seed_rep(self, term: Term) -> Term:
        """Element 0's least term in E(term): term or the ground term, whichever
        ranks lower.  Ranks order by size first, so term's nodes are counted
        up to one past the ground's size, and its full rank is read on a tie."""
        if self.ground is None:
            return term
        rank, size, stack = self.rank, 0, [term]
        while stack and size <= rank[0]:
            size += 1
            if isinstance(u := stack.pop(), App):
                stack.extend(u.args)
        below = rank < term_rank(term, self.algebra.sig) if size == rank[0] else rank[0] < size
        return self.ground if below else term


class FreeAlgebra(GeneratedSubalgebra):
    """The free algebra on n generators for a generator-presented variety:
    the subalgebra its n projection vectors generate."""

    def __init__(self, spec: VarietySpec, n: int, budget: Budget):
        if n < 0:
            raise AlgebraError("free algebra arity must be >= 0")
        self.n = n
        index = spec.assignment_index(n, budget)
        super().__init__(spec, index, [(vec, Var(var_name(i))) for i, vec
                                       in enumerate(index.projections)], budget)

    def images(self, target: FiniteAlgebra, points: Sequence[int],
               steps: Sequence | None = None) -> list[int]:
        """The homomorphism F(n) -> target with x_i -> points[i], for a
        target in the variety, as the image of every element: one walk of
        the derivation steps with one table lookup per element.  Given
        ``steps``, a cone of the derivation, only those are walked, and the
        other elements' images read 0."""
        return walk_steps(self.steps if steps is None else steps, self.size,
                          target, points)

    def cone(self, elements: Iterable[int]) -> list:
        """The derivation steps that the images of ``elements`` read, in
        element order: theirs and, in turn, their arguments'."""
        need = bytearray(self.size)
        for e in elements:
            need[e] = 1
        for e in reversed(range(self.size)):  # arguments come before results
            _, op, args = self.steps[e]
            if need[e] and op is not None:
                for a in args:
                    need[a] = 1
        return [step for step, wanted in zip(self.steps, need) if wanted]

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
        """F(n) with every representative settled."""
        f = self.free_closure(n)
        f.reps  # the first read settles them all
        return f

    def free_closure(self, n: int) -> FreeAlgebra:
        """F(n), built once per n; its representatives settle when read."""
        return self.memo(("free", n), lambda: FreeAlgebra(
            self.spec, n, Budget(self.budget_limit)))

    # -- evaluation without materializing F(X) ------------------------------

    def generated_by_terms(self, varnames: Sequence[str],
                           terms: Sequence[Term]) -> GeneratedSubalgebra:
        """Subalgebra of F(varnames) generated by the given terms, with the
        terms themselves as seed representatives."""
        budget = Budget(self.budget_limit)
        index = self.spec.assignment_index(len(varnames), budget)
        env = dict(zip(varnames, index.projections))
        seeds = [(index.eval_term(t, env), t) for t in terms]
        return GeneratedSubalgebra(self.spec, index, seeds, budget)

    def evaluation_images(self, gen: FiniteAlgebra) -> list[list[int]]:
        """F(1)'s images under x1 -> a for each element a of ``gen``, a
        generating algebra, computed once per algebra."""
        return self.memo(("evaluation-images", gen), lambda: [
            self.free_algebra(1).images(gen, (a,)) for a in gen.elements()])

    def evaluation_kernels(self, target: FiniteAlgebra) -> list[Congruence]:
        """The kernels ker(x1 -> a) for each element a of ``target``, a
        generating algebra or a free algebra, once per target; only a
        generating algebra's images are kept, as ``evaluation_images``."""
        def kernels():
            if target in self.spec.generators:
                images = self.evaluation_images(target)
            else:
                f1 = self.free_algebra(1)
                images = (f1.images(target, (a,)) for a in target.elements())
            return list(map(Congruence.from_map, images))
        return self.memo(("evaluation-kernels", target), kernels)

    def range_factor(self, term_range: tuple[tuple[int, int], ...]) -> RangeFactor:
        """The ``RangeFactor`` of a term range, built once per range."""
        def build():
            kernels = [self.evaluation_kernels(g) for g in self.spec.generators]
            kernel = reduce(Congruence.meet, (kernels[gi][a] for gi, a in term_range))
            alg, nat = quotient(self.free_algebra(1).algebra, kernel)
            ground = self.least_terms(alg, {}).rep(0)
            return RangeFactor(alg, kernel, nat, ground,
                               None if ground is None else term_rank(ground, alg.sig))
        return self.memo(("factor", term_range), build)

    def least_terms(self, alg: FiniteAlgebra, seeds: dict[int, Term]) -> _LeastTerms:
        """The least-term sweep over ``alg``, an algebra of the variety, from
        ``seeds``; a read resumes it only until what it needs has settled."""
        return _LeastTerms(alg.sig, alg.tables, alg.size, seeds, self.spec.commutative)

    def holds_identity(self, s: Term, t: Term) -> bool:
        """Whether the variety satisfies s = t, by evaluating both sides in
        the free algebra over their joint variables (checked coordinatewise
        over all assignments into the generating algebras)."""
        names: list[str] = []  # the joint variables, found by the arity walks
        check_term(s, self.spec.sig, names)
        check_term(t, self.spec.sig, names)
        index = self.spec.assignment_index(len(names), Budget(self.budget_limit))
        env = dict(zip(names, index.projections))
        return index.eval_term(s, env) == index.eval_term(t, env)
