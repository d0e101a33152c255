"""Independent checks and test-only algebra shared across the test suite.

The engine never needs these: isomorphism search, generated subalgebras,
kernels of homomorphisms and factoring one homomorphism through another
cross-check its results, each homomorphism a tuple of images as in the
engine; the assignment oracle decides an identity by evaluating both sides
at every assignment into every generating algebra, and the Bellman
relaxation finds least terms from every table entry, in both argument
orders.  Kleene projectivity is also read off the dual poset with every
subset checked.  A problem's least general generalizers are found among
F(2)'s elements by walking its derivation into F(m) and into F(2) under
every assignment of its two generators.
"""

import itertools

from algen.algebra import AlgebraError, Congruence, FiniteAlgebra, enumerate_homs
from algen.terms import (App, Substitution, Var, apply_subst, term_rank, term_to_str,
                         term_vars)
from algen.variety import var_name


def identity_holds_oracle(gens, s, t):
    """Exhaustive assignment checking over every generating algebra."""
    names = sorted(set(term_vars(s)) | set(term_vars(t)))
    for a in gens:
        for assign in itertools.product(range(a.size), repeat=len(names)):
            env = dict(zip(names, assign))
            if a.eval(s, env) != a.eval(t, env):
                return False
    return True


def first_failing_law(a, laws):
    """The name of the first law (name, s, t) that fails in the algebra by
    the assignment oracle, or None when all hold."""
    return next((name for name, s, t in laws
                 if not identity_holds_oracle([a], s, t)), None)


def is_injective(h) -> bool:
    return len(set(h)) == len(h)


def is_surjective(h, cod: FiniteAlgebra) -> bool:
    return len(set(h)) == cod.size


def kernel(h) -> Congruence:
    return Congruence.from_map(h)


def find_isomorphism(a: FiniteAlgebra, b: FiniteAlgebra) -> tuple[int, ...] | None:
    if a.size != b.size:
        return None
    return next(enumerate_homs(a, b, injective=True, surjective=True), None)


def _restrict(table, arity, members, pos):
    """A nested table restricted to a subuniverse, renumbered by ``pos``."""
    if not arity:
        return pos[table]
    return [_restrict(table[e], arity - 1, members, pos) for e in members]


def subalgebra_generated(a: FiniteAlgebra, gens):
    """Subalgebra generated by the given elements (constants included).

    Returns (subalgebra, inclusion), the inclusion as its tuple of images.
    The subalgebra universe keeps the parent's element order and labels.
    """
    gens = list(gens)
    for g in gens:
        if not 0 <= g < a.size:
            raise AlgebraError(f"generator index {g} out of range")
    members = a.subuniverse(gens)
    pos = {e: i for i, e in enumerate(members)}
    tables = {op: _restrict(a.tables[op], arity, members, pos)
              for op, arity in a.sig.ops}
    sub = FiniteAlgebra(a.sig, [a.labels[e] for e in members], tables,
                        name=f"Sg({a.name})" if a.name else "Sg")
    return sub, tuple(members)


def factor_through(f, g, cod: FiniteAlgebra):
    """Unique h with g = h . f, for maps out of one algebra, f onto ``cod``
    and ker f <= ker g; all maps are image tuples."""
    if len(f) != len(g):
        raise AlgebraError("domain mismatch")
    if not is_surjective(f, cod):
        raise AlgebraError("first map must be surjective")
    if not kernel(f).leq(kernel(g)):
        raise AlgebraError("kernel condition ker f <= ker g fails")
    images = dict(zip(f, g))
    return tuple(images[i] for i in range(cod.size))


def least_terms(a: FiniteAlgebra, seeds):
    """Each element's least term in ``term_rank`` order built from the seed
    terms ({element: term}) and the constants, None where they do not reach
    it: Bellman passes over every table entry until none makes a lesser
    term."""
    best = [None] * a.size
    ranks = [None] * a.size

    def relax(e, t):
        rank = term_rank(t, a.sig)
        if best[e] is None or rank < ranks[e]:
            best[e], ranks[e] = t, rank
            return True
        return False

    for e, t in seeds.items():
        relax(e, t)
    changed = True
    while changed:
        changed = False
        for op, arity in a.sig.ops:
            for args in itertools.product(a.elements(), repeat=arity):
                if all(best[x] is not None for x in args):
                    term = App(op, tuple(best[x] for x in args))
                    changed |= relax(a.op(op, args), term)
    return best


def projective_by_all_subsets(p):
    """``kleene.is_projective_by_duality`` read literally: the first of the
    four conditions that the involutive poset ``p`` fails, with condition 2
    checked on every subset of q = {x : x <= iota(x)}, not only on its
    pairs and triples.  The order is read from the pairs ``p.leq``, and the
    bounds within q are found by scanning q.  Returns (True, None) or
    (False, condition)."""
    n = p.size
    le = lambda x, y: (x, y) in p.leq
    q = [x for x in range(n) if le(x, p.iota[x])]

    def upper_bounds(xs):
        return [u for u in q if all(le(x, u) for x in xs)]

    def lower_bounds(xs):
        return [u for u in q if all(le(u, x) for x in xs)]

    def least(xs, le):  # whether xs has a least element under le
        return any(all(le(u, v) for v in xs) for u in xs)

    if not all(any(le(x, y) and p.iota[y] == y for y in range(n)) for x in q):
        return False, 1
    for r in range(1, len(q) + 1):
        for xs in itertools.combinations(q, r):
            if all(upper_bounds(pair) for pair in itertools.combinations(xs, 2)):
                if not least(upper_bounds(xs), le):
                    return False, 2
    if not q or not all(least(lower_bounds(pair), lambda u, v: le(v, u))
                        for pair in itertools.combinations(q, 2)):
        return False, 3
    for x, y in itertools.product(range(n), repeat=2):
        if (all(le(a, p.iota[b]) for a in (x, y) for b in (x, y))
                and not upper_bounds((x, y))):
            return False, 4
    return True, None


def _instances(source, target):
    """For each element of the free algebra ``source``, the set of its
    images under every map of its generators into the free algebra
    ``target``: one walk of ``source``'s derivation steps per map."""
    reached = [set() for _ in range(source.size)]
    for points in itertools.product(target.algebra.elements(), repeat=source.n):
        images = [0] * source.size
        for e, op, args in source.steps:
            if op is None:
                images[e] = points[args]
                continue
            value = target.algebra.tables[op]
            for a in args:
                value = value[images[a]]
            images[e] = value
        for seen, image in zip(reached, images):
            seen.add(image)
    return reached


def lgg_violations(ctx, terms, emitted):
    """How the terms ``emitted``, over z or z1, z2, fail to be a complete
    set of least general generalizers of ``terms`` among F(2)'s elements;
    empty when they are one.  A generalizer is an element s of F(2) whose
    images under the maps F(2) -> F(m), over the problem's m variables,
    include every term; s is an instance of g when some map F(2) -> F(2)
    sends g to s.  Checked: each emitted term is a generalizer with no
    generalizer strictly less general, no emitted term is an instance of
    another, and every generalizer has an emitted instance."""
    names = []
    for t in terms:
        term_vars(t, names)
    fm, f2 = ctx.free_algebra(len(names)), ctx.free_algebra(2)

    def element(free, t, renaming):
        return free.eval_term(apply_subst(Substitution.make(
            {v: Var(x) for v, x in renaming.items()}), t))

    targets = {element(fm, t, {v: var_name(i) for i, v in enumerate(names)})
               for t in terms}
    reached = _instances(f2, fm)
    generalizers = [s for s in f2.algebra.elements() if targets <= reached[s]]
    below = _instances(f2, f2)  # below[g]: the instances of g
    chosen = [(term_to_str(t), element(f2, t, {"z": "x1", "z1": "x1", "z2": "x2"}))
              for t in emitted]
    out = []
    for text, e in chosen:
        if e not in generalizers:
            out.append(f"{text} is not a generalizer")
        elif any(s in below[e] and e not in below[s] for s in generalizers):
            out.append(f"{text} is not least general")
    for (text, e), (other, f) in itertools.permutations(chosen, 2):
        if e in below[f]:
            out.append(f"{text} is an instance of {other}")
    for g in generalizers:
        if not any(e in below[g] for _, e in chosen):
            out.append(f"generalizer {term_to_str(f2.rep(g))} has no emitted instance")
    return out
