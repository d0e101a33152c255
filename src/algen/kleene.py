"""Finite involutive-poset duality for Kleene algebras.

Independent criteria for exactness (a quasi-equation plus join-irreducibility
of the top) and projectivity (four order-theoretic conditions on the dual
poset); used to cross-check the generic congruence classification.
"""

from __future__ import annotations

import functools
import itertools
from math import comb

from .algebra import AlgebraError, FiniteAlgebra, join_irreducibles
from .terms import Signature, _Value, parse_term
from .variety import DEFAULT_BUDGET, Budget, VarietyContext, VarietySpec

__all__ = [
    "NotKleeneError",
    "InvolutivePoset",
    "verify_kleene",
    "dual_poset",
    "is_projective_by_duality",
    "is_exact_by_quasieq",
]

_REQUIRED_OPS = {"and": 2, "or": 2, "not": 1, "0": 0, "1": 0}

# identities checked on the input algebra, each side evaluated once over the
# assignment index set under the default budget
_AXIOMS = [
    ("meet commutative", "and(x,y)", "and(y,x)"),
    ("join commutative", "or(x,y)", "or(y,x)"),
    ("meet associative", "and(x,and(y,w))", "and(and(x,y),w)"),
    ("join associative", "or(x,or(y,w))", "or(or(x,y),w)"),
    ("absorption", "and(x,or(x,y))", "x"),
    ("absorption dual", "or(x,and(x,y))", "x"),
    ("distributivity", "and(x,or(y,w))", "or(and(x,y),and(x,w))"),
    ("bottom", "and(x,0)", "0"),
    ("top", "or(x,1)", "1"),
    ("involution", "not(not(x))", "x"),
    ("De Morgan", "not(or(x,y))", "and(not(x),not(y))"),
    ("Kleene", "and(and(x,not(x)),or(y,not(y)))", "and(x,not(x))"),
]


class NotKleeneError(AlgebraError):
    """The input algebra is not a Kleene algebra.  ``axiom`` names the
    failed axiom, or is None when the signature lacks a Kleene operation."""

    def __init__(self, reason: str, axiom: str | None = None):
        super().__init__(f"not a Kleene algebra: {reason}")
        self.axiom = axiom


@functools.lru_cache(maxsize=8)
def _parsed_axioms(sig: Signature) -> tuple:
    """The axioms parsed over ``sig``."""
    return tuple((name, parse_term(s, sig), parse_term(t, sig))
                 for name, s, t in _AXIOMS)


def verify_kleene(a: FiniteAlgebra) -> None:
    """Raise NotKleeneError unless the algebra is a Kleene algebra; the laws
    are identities of the variety that ``a`` alone generates."""
    for op, arity in _REQUIRED_OPS.items():
        if not a.sig.has_op(op) or a.sig.arity(op) != arity:
            raise NotKleeneError(f"signature lacks {op}/{arity}")
    ctx = VarietyContext(VarietySpec(a.name, a.sig, (a,)))
    for name, s, t in _parsed_axioms(a.sig):
        if not ctx.holds_identity(s, t):
            raise NotKleeneError(f"{name} fails", name)


def _leq(a: FiniteAlgebra, x: int, y: int) -> bool:
    return a.tables["and"][x][y] == x


def _has_least(s: int, up) -> bool:
    """Whether the bitmask s has a member u with s inside the mask up[u]."""
    return any(s >> u & 1 and not s & ~up[u] for u in range(len(up)))


class InvolutivePoset(_Value):
    """A finite poset with an order-reversing involution where every point
    is comparable with its image; the laws are checked at construction on
    ``up`` and ``down``, each point's upper and lower set as a bitmask."""

    _fields = ("labels", "leq", "iota")  # a __dict__ holds cached properties

    def __init__(self, labels: tuple[str, ...], leq: frozenset, iota: tuple[int, ...]):
        self._init(labels, leq, iota)  # leq: pairs of positions
        n, up, down = self.size, self.up, self.down
        if not all(x in range(n) and y in range(n) for x, y in leq):
            raise AlgebraError("order pair out of range")
        if not all(up[x] >> x & 1 for x in range(n)):
            raise AlgebraError("order not reflexive")
        if any(up[x] & down[x] != 1 << x for x in range(n)):
            raise AlgebraError("order not antisymmetric")
        if any(up[y] & ~up[x] for x in range(n) for y in range(n) if up[x] >> y & 1):
            raise AlgebraError("order not transitive")
        if sorted(iota) != list(range(n)):
            raise AlgebraError("involution is not a bijection")
        for x, i in enumerate(iota):
            if iota[i] != x:
                raise AlgebraError("involution is not an involution")
            if not (up[x] | down[x]) >> i & 1:
                raise AlgebraError("a point is incomparable with its image")
            if any(not down[i] >> iota[y] & 1 for y in range(n) if up[x] >> y & 1):
                raise AlgebraError("involution is not order-reversing")

    @property
    def size(self) -> int:
        return len(self.labels)

    @functools.cached_property
    def up(self) -> tuple[int, ...]:
        r = range(self.size)
        return tuple(sum(1 << y for y in r if (x, y) in self.leq) for x in r)

    @functools.cached_property
    def down(self) -> tuple[int, ...]:
        r = range(self.size)
        return tuple(sum(1 << x for x in r if self.up[x] >> y & 1) for y in r)

    def le(self, x: int, y: int) -> bool:
        return bool(self.up[x] >> y & 1)


def dual_poset(a: FiniteAlgebra) -> InvolutivePoset:
    """The involutive poset dual to a finite Kleene algebra: its
    join-irreducible elements with the inherited order, the involution
    sending x to the meet of the complement of {not a : x <= a} (meets
    taken in the algebra, which quantifies over all its elements)."""
    verify_kleene(a)
    points = join_irreducibles(a.elements(), functools.partial(_leq, a),
                               lambda x, y: a.tables["or"][x][y], a.tables["0"])
    pos = {p: i for i, p in enumerate(points)}
    iota = []
    for x in points:
        excluded = {a.tables["not"][y] for y in range(a.size) if _leq(a, x, y)}
        m = functools.reduce(lambda u, v: a.tables["and"][u][v],
                             (y for y in range(a.size) if y not in excluded), a.tables["1"])
        if m not in pos:
            raise AlgebraError(
                "involution left the join-irreducibles; input is not Kleene")
        iota.append(pos[m])
    leq = frozenset((i, j) for i, p in enumerate(points)
                    for j, q in enumerate(points) if _leq(a, p, q))
    return InvolutivePoset(tuple(a.labels[p] for p in points), leq, tuple(iota))


def is_projective_by_duality(p: InvolutivePoset):
    """The four conditions characterizing duals of projective finite Kleene
    algebras.  Returns (True, None) or (False, first failed condition 1-4).

    1. every x <= iota(x) lies below an involution fixpoint;
    2. {x : x <= iota(x)} is 3-complete (any subset whose pairs all have
       upper bounds there has a join there);
    3. {x : x <= iota(x)} is a non-empty meet-semilattice;
    4. points x, y below both iota(x) and iota(y) have a common upper
       bound w with w <= iota(w).

    Condition 2 reads only the pairs and triples of that set, charged to
    the default budget first: bounded pairs have joins, and a bounded set's
    join folds them, as its bounds bound each partial join; pairwise-bounded
    triples are bounded, and a bound of {x1, x2, xi} bounds x1 v x2 and xi,
    so by induction on k, a bound of x1 v x2, ..., xk bounds x1, ..., xk.
    """
    n, up, down, iota = p.size, p.up, p.down, p.iota
    q = [x for x in range(n) if up[x] >> iota[x] & 1]
    in_q = sum(1 << x for x in q)
    fixed = sum(1 << y for y in range(n) if iota[y] == y)

    if not all(up[x] & fixed for x in q):
        return False, 1

    Budget(DEFAULT_BUDGET).charge(comb(len(q), 2) + comb(len(q), 3), "kleene duality")
    ub = {(x, y): up[x] & up[y] & in_q for x, y in itertools.combinations(q, 2)}
    if any(s and not _has_least(s, up) for s in ub.values()) or any(
            ub[x, y] and ub[x, w] and ub[y, w] and not ub[x, y] & up[w]
            for x, y, w in itertools.combinations(q, 3)):
        return False, 2

    if not q or not all(_has_least(down[x] & down[y] & in_q, down)
                        for x, y in itertools.combinations(q, 2)):
        return False, 3

    # x = y is bounded by itself; y <= iota(x) exactly when x <= iota(y)
    if not all(ub[x, y] for x, y in ub if down[iota[x]] >> y & 1):
        return False, 4

    return True, None


def is_exact_by_quasieq(a: FiniteAlgebra):
    """Exactness criterion for finite Kleene algebras: non-trivial, 1 join
    irreducible, and the quasi-equation

        not x <= x  and  x and not y <= not x or y   implies   not y <= y

    holds (checked over all element pairs).  Returns (True, None) or
    (False, reason)."""
    verify_kleene(a)
    return _exact_by_quasieq(a)


def _exact_by_quasieq(a: FiniteAlgebra):
    """is_exact_by_quasieq for an algebra that has passed verify_kleene."""
    if a.size == 1:
        return False, "trivial algebra"
    if a.tables["1"] not in join_irreducibles(a.elements(), functools.partial(_leq, a),
                                              lambda x, y: a.tables["or"][x][y], a.tables["0"]):
        return False, "1 is not join irreducible"
    neg = lambda x: a.tables["not"][x]
    for x in range(a.size):
        if not _leq(a, neg(x), x):
            continue
        for y in range(a.size):
            premise = _leq(a, a.tables["and"][x][neg(y)],
                           a.tables["or"][neg(x)][y])
            if premise and not _leq(a, neg(y), y):
                return False, (f"quasi-equation fails at x={a.labels[x]}, "
                               f"y={a.labels[y]}")
    return True, None

