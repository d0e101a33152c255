"""Reference computations that share no code with the program under test.

Variety files are read with ``json`` alone, terms are nested tuples
``(op, arg, ...)`` with variables as plain strings, and every check
evaluates terms over the generating algebras' tables by exhaustive
assignment.  The benchmark judges the program's answers with these
functions only.
"""

from __future__ import annotations

import itertools
import json
import re


class Variety:
    """A variety file read as plain tables: ``ops`` lists (name, arity) in
    file order; ``algebras`` is a list of (name, size, tables) where
    ``tables[op]`` maps argument index tuples to result indices."""

    def __init__(self, path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        self.name = doc["name"]
        self.ops = [(op, arity) for op, arity in doc["signature"]]
        self.algebras = []
        for a in doc["algebras"]:
            index = {lab: i for i, lab in enumerate(a["universe"])}
            tables = {}
            for op, arity in self.ops:
                node = a["ops"][op]
                tables[op] = {
                    args: index[_cell(node, args)]
                    for args in itertools.product(range(len(index)),
                                                  repeat=arity)}
            self.algebras.append((a["name"], len(index), tables))
        self.constants = [op for op, arity in self.ops if arity == 0]
        self.functions = [(op, arity) for op, arity in self.ops if arity > 0]


def _cell(node, args):
    for a in args:
        node = node[a]
    return node


# ---------------------------------------------------------------------------
# Terms


_TOKEN = re.compile(r"\s*([A-Za-z0-9_]+|[(),])")


def parse(src: str, variety: Variety):
    """Prefix syntax ``op(t1,...,tn)``; bare names that are operations of
    the variety are constants, every other bare name is a variable."""
    tokens = _TOKEN.findall(src)
    if "".join(tokens) != re.sub(r"\s+", "", src):
        raise ValueError(f"unexpected character in {src!r}")
    arity = dict(variety.ops)
    pos = 0

    def term():
        nonlocal pos
        name = tokens[pos]
        pos += 1
        if pos < len(tokens) and tokens[pos] == "(":
            pos += 1
            args = [term()]
            while tokens[pos] == ",":
                pos += 1
                args.append(term())
            if tokens[pos] != ")":
                raise ValueError(f"expected ')' in {src!r}")
            pos += 1
            if arity.get(name) != len(args):
                raise ValueError(f"bad arity for {name!r} in {src!r}")
            return (name, *args)
        if name in arity:
            return (name,)
        return name

    out = term()
    if pos != len(tokens):
        raise ValueError(f"trailing input in {src!r}")
    return out


def show(t) -> str:
    if isinstance(t, str):
        return t
    if len(t) == 1:
        return t[0]
    return f"{t[0]}({','.join(show(a) for a in t[1:])})"


def variables(t, acc=None) -> list:
    acc = [] if acc is None else acc
    if isinstance(t, str):
        if t not in acc:
            acc.append(t)
    else:
        for a in t[1:]:
            variables(a, acc)
    return acc


def evaluate(tables, t, env) -> int:
    if isinstance(t, str):
        return env[t]
    return tables[t[0]][tuple(evaluate(tables, a, env) for a in t[1:])]


def witness_holds(variety: Variety, s, sigma: dict, t) -> bool:
    """Whether sigma(s) = t holds in every generating algebra, checked
    over all assignments to the variables of t and of sigma's images."""
    names = variables(t)
    for image in sigma.values():
        variables(image, names)
    for v in variables(s):
        if v not in sigma and v not in names:
            names.append(v)
    for _, size, tables in variety.algebras:
        for values in itertools.product(range(size), repeat=len(names)):
            env = dict(zip(names, values))
            inner = {v: evaluate(tables, sigma[v], env) if v in sigma
                     else env[v] for v in variables(s)}
            if evaluate(tables, s, inner) != evaluate(tables, t, env):
                return False
    return True


def free_size(variety: Variety, n: int) -> int:
    """|F(n)|: the size of the subalgebra of the product over all
    assignments of n variables that the n projections generate, closed
    round by round over argument tuples that involve a new element."""
    points = [(tables, values) for _, size, tables in variety.algebras
              for values in itertools.product(range(size), repeat=n)]
    found = list(dict.fromkeys(
        tuple(values[i] for _, values in points) for i in range(n)))
    seen = set(found)
    old = 0
    while old < len(found):
        new = len(found)
        for op, arity in variety.ops:
            for args in itertools.product(range(new), repeat=arity):
                if arity and max(args) < old:
                    continue
                if not arity and old:
                    continue
                vec = tuple(tables[op][tuple(found[a][i] for a in args)]
                            for i, (tables, _) in enumerate(points))
                if vec not in seen:
                    seen.add(vec)
                    found.append(vec)
        old = new
    return len(found)


# ---------------------------------------------------------------------------
# The 1-generated free algebra as unary term functions


class UnaryFunctions:
    """F(1) built as the unary term functions of the variety: each element
    is its value vector over every (algebra, point) pair, closed from the
    projection and the constants under the operations applied pointwise."""

    def __init__(self, variety: Variety):
        self.variety = variety
        self.points = [(tables, a) for _, size, tables in variety.algebras
                       for a in range(size)]
        identity = tuple(a for _, a in self.points)
        found = [identity]
        seen = {identity}
        changed = True
        while changed:
            changed = False
            for op, arity in variety.ops:
                for args in itertools.product(list(found), repeat=arity):
                    vec = tuple(tables[op][tuple(u[i] for u in args)]
                                for i, (tables, _) in enumerate(self.points))
                    if vec not in seen:
                        seen.add(vec)
                        found.append(vec)
                        changed = True
        self.elements = found
        self.index = {u: i for i, u in enumerate(found)}

    @property
    def size(self) -> int:
        return len(self.elements)

    def kernel(self, t) -> tuple:
        """Kernel of F(1) -> E(t), z -> t, as a canonical block tuple:
        u and u' are identified when u(t) = u'(t) holds in the variety."""
        names = variables(t)
        slices = []
        offset = 0
        for _, size, tables in self.variety.algebras:
            for values in itertools.product(range(size), repeat=len(names)):
                slices.append((offset, evaluate(tables, t, dict(zip(names, values)))))
            offset += size
        images = [tuple(u[off + v] for off, v in slices) for u in self.elements]
        first = {}
        return tuple(first.setdefault(img, i) for i, img in enumerate(images))

    def congruence_count(self) -> int:
        """Number of congruences of F(1), by testing every partition."""
        n = self.size
        tables = {}
        for op, arity in self.variety.ops:
            tables[op] = {
                args: self.index[tuple(
                    t[op][tuple(self.elements[a][i] for a in args)]
                    for i, (t, _) in enumerate(self.points))]
                for args in itertools.product(range(n), repeat=arity)}
        count = 0
        for blocks in _partitions(n):
            if all(blocks[table[args]] == blocks[table[args[:k] + (y,) + args[k + 1:]]]
                   for op, arity in self.variety.functions
                   for table in [tables[op]]
                   for args in itertools.product(range(n), repeat=arity)
                   for k in range(arity)
                   for y in range(n) if blocks[y] == blocks[args[k]]):
                count += 1
        return count


def _partitions(n):
    if n == 0:
        yield ()
        return
    for smaller in _partitions(n - 1):
        for b in sorted(set(smaller)):
            yield smaller + (b,)
        yield smaller + (n - 1,)
