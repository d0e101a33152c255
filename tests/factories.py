"""Hand-built finite algebras used across the test suite.

Tables are nested lists of element indices, read table[a1]...[ak], written
out from their textbook definitions (min/max lattices, involutions,
truncated addition, Goedel implication) independently of any package
construction code, so they double as fixtures and oracles.  ``renamed_op``
edits a variety-file document for tests of rejected signatures.
"""

import itertools

from algen.algebra import FiniteAlgebra
from algen.terms import Signature

LATTICE_BOUNDED_SIG = Signature.make(
    [("and", 2), ("or", 2), ("not", 1), ("0", 0), ("1", 0)])
GODEL_SIG = Signature.make(
    [("and", 2), ("or", 2), ("imp", 2), ("0", 0), ("1", 0)])
MONOID_SIG = Signature.make([("oplus", 2), ("0", 0)])
SEMILATTICE_SIG = Signature.make([("or", 2)])
LATTICE_SIG = Signature.make([("and", 2), ("or", 2)])


def _binary(n, f):
    return [[f(i, j) for j in range(n)] for i in range(n)]


def _unary(n, f):
    return [f(i) for i in range(n)]


def kleene_chain(labels, neg):
    """Bounded chain 0 < ... < 1 with the given involution (by index)."""
    n = len(labels)
    tables = {
        "and": _binary(n, min),
        "or": _binary(n, max),
        "not": _unary(n, neg),
        "0": 0,
        "1": n - 1,
    }
    return FiniteAlgebra(LATTICE_BOUNDED_SIG, labels, tables)


def bool2():
    return kleene_chain(["0", "1"], lambda i: 1 - i)


def k3():
    """Standard 3-element Kleene algebra: neg fixes the middle element."""
    return kleene_chain(["0", "a", "1"], lambda i: 2 - i)


def k4():
    """4-element Kleene chain 0 < m < M < 1 with neg m = M."""
    return kleene_chain(["0", "m", "M", "1"], lambda i: 3 - i)


def ka4_diamond():
    """4-element Boolean algebra viewed as a Kleene algebra (diamond)."""
    # elements 0 < a, b < 1 with a, b incomparable; not a = b
    meet = [[0, 0, 0, 0],
            [0, 1, 0, 1],
            [0, 0, 2, 2],
            [0, 1, 2, 3]]
    join = [[0, 1, 2, 3],
            [1, 1, 3, 3],
            [2, 3, 2, 3],
            [3, 3, 3, 3]]
    tables = {"and": meet, "or": join, "not": [3, 2, 1, 0], "0": 0, "1": 3}
    return FiniteAlgebra(LATTICE_BOUNDED_SIG, ["0", "a", "b", "1"], tables)


def trivial_kleene():
    tables = {"and": [[0]], "or": [[0]], "not": [0], "0": 0, "1": 0}
    return FiniteAlgebra(LATTICE_BOUNDED_SIG, ["*"], tables)


def goedel_chain(k):
    """k-element Goedel chain: min/max lattice with x -> y = 1 if x <= y else y."""
    labels = ["0"] + [f"c{i}" for i in range(1, k - 1)] + ["1"]
    if k == 3:
        labels = ["0", "a", "1"]
    if k == 4:
        labels = ["0", "a", "b", "1"]
    tables = {
        "and": _binary(k, min),
        "or": _binary(k, max),
        "imp": _binary(k, lambda i, j: k - 1 if i <= j else j),
        "0": 0,
        "1": k - 1,
    }
    return FiniteAlgebra(GODEL_SIG, labels, tables)


def truncated_monoid(k):
    """Additive monoid {0..k} with addition truncated at k."""
    labels = [str(i) for i in range(k + 1)]
    tables = {
        "oplus": _binary(k + 1, lambda i, j: min(i + j, k)),
        "0": 0,
    }
    return FiniteAlgebra(MONOID_SIG, labels, tables)


def n3():
    return truncated_monoid(3)


def semilattice2():
    return FiniteAlgebra(SEMILATTICE_SIG, ["0", "1"], {"or": _binary(2, max)})


def lattice2():
    return FiniteAlgebra(
        LATTICE_SIG, ["0", "1"],
        {"and": _binary(2, min), "or": _binary(2, max)})


def renamed_op(doc, old, new):
    """A variety-file document with operation ``old`` renamed ``new`` in
    its signature and in every algebra's tables, changed in place."""
    doc["signature"] = [[new if op == old else op, arity]
                        for op, arity in doc["signature"]]
    for a in doc["algebras"]:
        a["ops"] = {new if op == old else op: t for op, t in a["ops"].items()}
    return doc


def all_partitions(n):
    """Every partition of range(n), as canonical block tuples."""
    if n == 0:
        yield ()
        return
    for smaller in all_partitions(n - 1):
        blocks = sorted(set(smaller))
        for b in blocks:
            yield smaller + (b,)
        yield smaller + (n - 1,)


def brute_force_congruences(a):
    """Oracle: all compatible partitions, by exhaustive enumeration."""
    from algen.algebra import Congruence

    found = []
    for blocks in all_partitions(a.size):
        theta = Congruence(blocks)
        ok = True
        for op, arity in a.sig.ops:
            if arity == 0:
                continue
            for args in itertools.product(range(a.size), repeat=arity):
                for pos in range(arity):
                    for other in range(a.size):
                        if theta.related(args[pos], other):
                            alt = args[:pos] + (other,) + args[pos + 1:]
                            if not theta.related(a.op(op, args), a.op(op, alt)):
                                ok = False
                                break
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            found.append(theta)
    return set(found)
