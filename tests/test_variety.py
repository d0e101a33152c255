import itertools
import json
import random
from functools import partial, reduce

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from algen.algebra import AlgebraError, FiniteAlgebra, _closure, direct_product
from algen.solver import SymbolicProblem, alg_of
from algen.terms import (App, Signature, Term, Var, parse_term, term_rank,
                         term_size, term_to_str, term_vars)
from algen.varfile import load_variety, loads_variety
from algen.variety import (DEFAULT_BUDGET, Budget, BudgetExceeded,
                           FreeAlgebra, GeneratedSubalgebra, RangeFactor,
                           VarietyContext, VarietySpec, _LeastTerms,
                           _settle_levels, var_name)

from factories import (
    bool2,
    goedel_chain,
    k3,
    kleene_chain,
    lattice2,
    n3,
    semilattice2,
    truncated_monoid,
)
from oracles import find_isomorphism, identity_holds_oracle, least_terms
from test_cli import fuzz_terms, fuzz_var_files
from test_terms import KLEENE_SIG, terms_strategy

SHIPPED = ["boolean", "kleene", "godel3", "n3", "semilattice", "lattice"]


def ctx_for(name, *gens, budget=None):
    spec = VarietySpec(name, gens[0].sig, tuple(gens))
    if budget is None:
        return VarietyContext(spec)
    return VarietyContext(spec, budget_limit=budget)


BA = lambda: ctx_for("BA", bool2())
KA = lambda: ctx_for("KA", k3())
G3 = lambda: ctx_for("G3", goedel_chain(3))
SL = lambda: ctx_for("SL", semilattice2())
LAT = lambda: ctx_for("LAT", lattice2())
N3V = lambda: ctx_for("N3", n3())


def index_env(spec, names, budget=None):
    """The assignment index set for ``names``, charged to ``budget`` (a
    fresh default one if None), and its projections by name."""
    index = spec.assignment_index(len(names), budget or Budget(DEFAULT_BUDGET))
    return index, dict(zip(names, index.projections))


# ---------------------------------------------------------------------------
# Oracles


def free_size_oracle(gens, max_depth=6):
    """Count distinct unary term functions by enumerating terms depth by
    depth until the vector set saturates (independent of the BFS closure)."""
    assigns = [(a, {"x1": v}) for a in gens for v in range(a.size)]

    def vec(t):
        return tuple(a.eval(t, env) for a, env in assigns)

    layer = [Var("x1")] + [App(n, ()) for n, ar in gens[0].sig.ops if ar == 0]
    seen = {vec(t): t for t in layer}
    for _ in range(max_depth):
        pool = list(seen.values())
        new = {}
        for n, ar in gens[0].sig.ops:
            if ar == 0:
                continue
            for args in itertools.product(pool, repeat=ar):
                t = App(n, args)
                v = vec(t)
                if v not in seen and v not in new:
                    new[v] = t
        if not new:
            return len(seen)
        seen.update(new)
    raise AssertionError("oracle did not saturate")


def random_term(rng, sig, names, depth):
    if depth == 0 or rng.random() < 0.3:
        choices = [Var(n) for n in names] + [App(n, ()) for n, a in sig.ops if a == 0]
        return rng.choice(choices)
    candidates = [(n, a) for n, a in sig.ops if a > 0]
    n, a = rng.choice(candidates)
    return App(n, tuple(random_term(rng, sig, names, depth - 1) for _ in range(a)))


class RecordingBudget(Budget):
    """A budget that keeps every charge, in order."""

    def __init__(self, limit: int = DEFAULT_BUDGET):
        super().__init__(limit)
        self.charges: list[tuple[int, str]] = []

    def charge(self, cells: int, stage: str):
        self.charges.append((cells, stage))
        super().charge(cells, stage)


def reference_subalgebra(spec, varnames, terms):
    """The subalgebra the terms generate, by the plain coordinatewise
    closure: every pass walks the whole argument product and evaluates each
    new result one coordinate at a time; representatives are the terms that
    first produced each element, relaxed by Bellman passes over all table
    entries to the (size, op-order, arg-order) minimum.

    Returns (generators, vectors, tables, reps, charges, ahead,
    born), where tables are keyed by argument tuples, charges lists the
    budget charges the closure would make, ahead gives, beside each charge
    that adds an element (None beside the others), the cells charged so far
    plus those the later passes must still charge: every argument tuple over
    the elements so far that no pass has charged yet, and born gives each
    element's first table entry (operation, arguments), None for a seed."""
    sig = spec.sig
    entries = [(g, dict(zip(varnames, assign))) for g in spec.generators
               for assign in itertools.product(range(g.size), repeat=len(varnames))]
    vectors, reps, index, charges, ahead, born = [], [], {}, [], [], []
    charged = {}  # op -> the argument tuples its passes have charged

    def eval_op(op, arg_vectors):
        return tuple(g.op(op, tuple(v[i] for v in arg_vectors))
                     for i, (g, _) in enumerate(entries))

    def add(vec, rep, entry=None):
        charges.append((len(entries), "free closure"))
        index[vec] = len(vectors)
        vectors.append(vec)
        reps.append(rep)
        born.append(entry)
        ahead.append(sum(cells for cells, _ in charges)
                     + sum(len(vectors) ** arity - charged.get(op, 0)
                           for op, arity in sig.ops))

    generators = []
    for t in terms:
        vec = tuple(g.eval(t, env) for g, env in entries)
        if vec not in index:
            add(vec, t)
        generators.append(index[vec])
    tables = {op: {} for op, _ in sig.ops}
    changed = True
    while changed:
        changed = False
        for op, arity in sig.ops:
            table = tables[op]
            charges.append((len(vectors) ** arity - len(table), "operation tables"))
            ahead.append(None)
            charged[op] = len(vectors) ** arity
            for args in itertools.product(range(len(vectors)), repeat=arity):
                if args in table:
                    continue
                vec = eval_op(op, [vectors[a] for a in args])
                if vec not in index:
                    add(vec, App(op, tuple(reps[a] for a in args)), (op, args))
                    changed = True
                table[args] = index[vec]
    if not vectors:
        raise AlgebraError("empty closure")

    sizes = [term_size(r) for r in reps]
    ranks = [term_rank(r, sig) for r in reps]
    changed = True
    while changed:
        changed = False
        for op, _ in sig.ops:
            for args, res in tables[op].items():
                if 1 + sum(sizes[a] for a in args) > sizes[res]:
                    continue
                cand = App(op, tuple(reps[a] for a in args))
                if term_rank(cand, sig) < ranks[res]:
                    reps[res] = cand
                    sizes[res] = term_size(cand)
                    ranks[res] = term_rank(cand, sig)
                    changed = True
    return generators, vectors, tables, reps, charges, ahead, born


def nested(table, arity, m, prefix=()):
    """A tuple-keyed table over range(m) in the nested layout."""
    if len(prefix) == arity:
        return table[prefix]
    return [nested(table, arity, m, prefix + (i,)) for i in range(m)]


def assert_closure_matches_reference(spec, varnames, terms=None):
    """GeneratedSubalgebra agrees with reference_subalgebra on generator
    indices, element order, tables, representatives, the derivation steps,
    each element's first table entry (or seed position) in element order,
    and budget charges.  When the seeds are the variables x1..xn, so does
    FreeAlgebra, which derives rows across variable swaps; its rank order is
    the subalgebra's."""
    index, env = index_env(spec, varnames)
    free = terms is None and varnames == [var_name(i) for i in range(len(varnames))]
    if terms is None:
        terms = [Var(v) for v in varnames]
    seeds = [(index.eval_term(t, env), t) for t in terms]
    budget, free_budget = RecordingBudget(), RecordingBudget()
    try:
        sub = GeneratedSubalgebra(spec, index, seeds, budget)
    except AlgebraError:
        with pytest.raises(AlgebraError):
            reference_subalgebra(spec, varnames, terms)
        if free:
            with pytest.raises(AlgebraError):
                FreeAlgebra(spec, len(varnames), free_budget)
        return
    gens, vectors, tables, reps, charges, _, born = reference_subalgebra(
        spec, varnames, terms)
    assert sub.generators == tuple(gens)
    assert [tuple(index.eval_term(r, env)) for r in sub.reps] == vectors
    assert sub.algebra.tables == {op: nested(tables[op], arity, len(vectors))
                                  for op, arity in spec.sig.ops}
    assert sub.reps == tuple(reps)
    steps = [(e, None, gens.index(e)) if entry is None else (e, *entry)
             for e, entry in enumerate(born)]
    assert sub.steps == steps
    assert budget.charges == charges
    if not free:
        return
    f = FreeAlgebra(spec, len(varnames), free_budget)
    assert f.generators == tuple(gens)
    assert f.algebra.tables == sub.algebra.tables
    assert f.reps == sub.reps
    assert f.order == sub.order
    assert f.steps == steps
    # the assignment index set, then the closure's own charges
    assert free_budget.charges[0][1] == "assignment index set"
    assert free_budget.charges[1:] == charges


# ---------------------------------------------------------------------------
# Free algebra construction


def test_free_boolean_four_elements():
    f = BA().free_algebra(1)
    assert f.size == 4
    assert {term_to_str(r) for r in f.reps} == {"x1", "not(x1)", "0", "1"}


def test_free_kleene_six_elements():
    f = KA().free_algebra(1)
    assert f.size == 6
    assert {term_to_str(r) for r in f.reps} == {
        "x1", "not(x1)", "0", "1", "and(x1,not(x1))", "or(x1,not(x1))"}


def test_free_semilattice_trivial():
    f = SL().free_algebra(1)
    assert f.size == 1
    assert term_to_str(f.reps[0]) == "x1"


def test_free_lattice_trivial():
    assert LAT().free_algebra(1).size == 1


def test_free_goedel_six_elements_vs_term_enumeration_oracle():
    assert free_size_oracle([goedel_chain(3)]) == 6
    assert G3().free_algebra(1).size == 6


def test_free_kleene_two_generators_vs_oracle():
    f = KA().free_algebra(2)
    assert f.size == 84


def test_free_n3_isomorphic_to_generator():
    f = N3V().free_algebra(1)
    assert f.size == 4
    assert find_isomorphism(f.algebra, n3()) is not None


def test_free_zero_generators():
    assert BA().free_algebra(0).size == 2
    with pytest.raises(AlgebraError):
        SL().free_algebra(0)  # no constants: empty closure


def test_representatives_evaluate_back():
    for ctx, n in [(BA(), 1), (BA(), 2), (KA(), 1), (KA(), 2), (G3(), 1), (N3V(), 2)]:
        f = ctx.free_algebra(n)
        for e in range(f.size):
            assert f.eval_term(f.reps[e]) == e


def test_generators_map_to_themselves():
    f = KA().free_algebra(2)
    for i in range(2):
        assert f.eval_term(Var(f"x{i+1}")) == f.generators[i]


def test_free_algebra_cached():
    ctx = KA()
    assert ctx.free_algebra(1) is ctx.free_algebra(1)


# ---------------------------------------------------------------------------
# Semi-naive closure against the coordinatewise reference


def majority2():
    sig = Signature.make([("maj", 3)])
    table = [[[int(a + b + c >= 2) for c in range(2)] for b in range(2)]
             for a in range(2)]
    return FiniteAlgebra(sig, ["0", "1"], {"maj": table})


def constants_only():
    sig = Signature.make([("c", 0), ("d", 0)])
    return (FiniteAlgebra(sig, ["0", "1"], {"c": 0, "d": 1}),
            FiniteAlgebra(sig, ["0", "1", "2"], {"c": 2, "d": 2}))


def groupoid(table):
    sig = Signature.make([("f", 2)])
    return FiniteAlgebra(sig, [str(i) for i in range(len(table))], {"f": table})


def chain_semilattice(size):
    sig = Signature.make([("or", 2)])
    return FiniteAlgebra(sig, [str(a) for a in range(size)], {
        "or": [[max(a, b) for b in range(size)] for a in range(size)]})


# too many elements for byte vectors: F(1) and F(2) have 1 and 3
CHAIN300 = ctx_for("C300", chain_semilattice(300)).spec
# as many elements as byte vectors hold: values up to 255
CHAIN256 = ctx_for("C256", chain_semilattice(256)).spec
# nor beside Webb's (max(a, b) + 1) mod 3, each primal: F(1) holds all
# 4 * 27 pairs of unary maps, 108 elements whose 5 coordinates, of sizes 2
# and 3, pack into one key byte
PRIMAL2X3 = ctx_for("NORxWEBB", groupoid([[1, 0], [0, 0]]), groupoid(
    [[(max(a, b) + 1) % 3 for b in range(3)] for a in range(3)])).spec


def half_commutative():
    """f is the join of {0, 1} and 2x + y on Z3: commutative in the first
    generating algebra only, and in no F(n) for n >= 1."""
    z3 = groupoid([[(2 * x + y) % 3 for y in range(3)] for x in range(3)])
    return ctx_for("HALF", groupoid([[0, 1], [1, 1]]), z3).spec


def random_groupoids(seed, count):
    """Varieties of one or two random groupoids of 2-3 elements; every
    even-numbered one is forced commutative."""
    rng = random.Random(seed)
    specs = []
    for i in range(count):
        gens = []
        for _ in range(rng.randint(1, 2)):
            k = rng.randint(2, 3)
            table = [[rng.randrange(k) for _ in range(k)] for _ in range(k)]
            if i % 2 == 0:
                table = [[table[min(a, b)][max(a, b)] for b in range(k)]
                         for a in range(k)]
            gens.append(groupoid(table))
        specs.append(ctx_for(f"G{i}", *gens).spec)
    return specs


GROUPOIDS = random_groupoids(22, 16)


@pytest.mark.parametrize("variety,n", [(v, n) for v in SHIPPED for n in range(3)]
                         + [("boolean", 3), ("n3", 3), ("lattice", 3),
                            ("semilattice", 3)])
def test_closure_matches_reference_on_shipped(variety, n):
    spec = load_variety(f"varieties/{variety}.var")
    assert_closure_matches_reference(spec, [f"x{i + 1}" for i in range(n)])


@pytest.mark.parametrize("variety,n", [(v, n) for v in SHIPPED for n in (1, 2, 3)
                                       if (v, n) not in {("kleene", 3), ("godel3", 3)}])
def test_free_algebra_order_is_the_one_closure_order(variety, n):
    # F(n) is the closure of the projection vectors in the product of one
    # generating algebra per coordinate, and algebra._closure lists that
    # closure's tuples in F(n)'s element order (kleene's and godel3's F(3)
    # exceed the default budget)
    ctx = VarietyContext(load_variety(f"varieties/{variety}.var"))
    f = ctx.free_algebra(n)
    index, env = index_env(ctx.spec, [var_name(i) for i in range(n)])
    factors = [g for g, (start, stop) in zip(ctx.spec.generators, index.segments)
               for _ in range(start, stop)]
    seeds = [tuple(p) for p in index.projections]
    assert [tuple(index.eval_term(r, env)) for r in f.reps] == list(
        _closure(factors, seeds))


@pytest.mark.parametrize("spec,n", [
    (ctx_for("G3xG4", goedel_chain(3), goedel_chain(4)).spec, 0),
    (ctx_for("G3xG4", goedel_chain(3), goedel_chain(4)).spec, 1),
    (ctx_for("MAJ", majority2()).spec, 1),
    (ctx_for("MAJ", majority2()).spec, 3),
    (ctx_for("MAJ", majority2()).spec, 4),
    (ctx_for("CONST", *constants_only()).spec, 0),
    (ctx_for("CONST", *constants_only()).spec, 2),
    # shared rows of generating algebras of two sizes
    (ctx_for("G2xG3", goedel_chain(2), goedel_chain(3)).spec, 2),
    (CHAIN300, 1),
    (CHAIN300, 2),
    (CHAIN256, 1),
    (CHAIN256, 2),
    # packed keys: 16 coordinates of size 2 fill two key bytes (G2xG3 F(2)
    # takes a third), and two sizes share one
    (load_variety("varieties/lattice.var"), 4),
    (PRIMAL2X3, 1),
], ids=["g3g4-0", "g3g4-1", "maj-1", "maj-3", "maj-4", "const-0", "const-2",
        "g2g3-2", "chain300-1", "chain300-2", "chain256-1", "chain256-2",
        "lattice-4", "primal2x3-1"])
def test_closure_matches_reference_on_fixtures(spec, n):
    assert_closure_matches_reference(spec, [f"x{i + 1}" for i in range(n)])


def test_commutative_operations_of_the_shipped_varieties():
    commutative = {v: sorted(load_variety(f"varieties/{v}.var").commutative)
                   for v in SHIPPED}
    assert commutative == {
        "boolean": ["and", "or"], "kleene": ["and", "or"],
        "godel3": ["and", "or"], "n3": ["oplus"], "semilattice": ["or"],
        "lattice": ["and", "or"]}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closure_does_not_mirror_an_operation_commutative_in_one_algebra(n):
    # a mirrored closure would copy f(x2, x1) from f(x1, x2), which differ
    # in the Z3 coordinates
    spec = half_commutative()
    assert spec.commutative == frozenset()
    assert_closure_matches_reference(spec, [f"x{i + 1}" for i in range(n)])


@pytest.mark.parametrize("i", range(len(GROUPOIDS)))
def test_closure_matches_reference_on_random_groupoids(i):
    spec = GROUPOIDS[i]
    if i % 2 == 0:
        assert spec.commutative == {"f"}
    rng = random.Random(i)
    for n in (1, 2):
        names = [f"x{j + 1}" for j in range(n)]
        try:  # keep the reference closure small
            FreeAlgebra(spec, n, Budget(20000))
        except BudgetExceeded:
            assert n == 2
            continue
        assert_closure_matches_reference(spec, names)
        terms = [random_term(rng, spec.sig, names, 3) for _ in range(2)]
        assert_closure_matches_reference(spec, names, terms)


@pytest.mark.parametrize("spec,n,terms,shared,packed,derived", [
    # ternary: translated columns, and no row is derived; 12 elements are
    # too few to pack
    (ctx_for("MAJ", majority2()).spec, 4, None, True, False, False),
    (load_variety("varieties/boolean.var"), 3, None, True, True, True),
    # 2^4 * 3^9 values take a third key byte
    (ctx_for("G2xG3", goedel_chain(2), goedel_chain(3)).spec, 2, None, True, False,
     True),
    # a factor closure as solve builds them: few elements, 27 coordinates,
    # and no swaps
    (load_variety("varieties/kleene.var"), 3, ["and(x,not(x))"], False, False, False),
    # F(1) has no swap, and its ranges are read by too few prefixes
    (load_variety("varieties/godel3.var"), 1, None, False, False, False),
    # 300 elements: tuple vectors, so every evaluated row is per entry
    (CHAIN300, 1, None, False, False, False),
    (CHAIN300, 2, None, False, False, True),
    # variable seeds, as compare builds F(Var(s)): the closure reads the
    # swaps off the seeds
    (load_variety("varieties/boolean.var"), 3, ["x", "y", "z"], True, True, True),
    # two-byte keys: 9 coordinates of size 3, and 16 of size 2
    (load_variety("varieties/godel3.var"), 2, None, True, True, True),
    (load_variety("varieties/lattice.var"), 4, None, True, True, True),
    # one key byte, but 18 elements are too few to pack
    (load_variety("varieties/lattice.var"), 3, None, True, False, True),
    # sizes 2 and 3 in one key byte, and no swap
    (PRIMAL2X3, 1, None, True, True, False),
    # 64-byte keys: joined columns
    (load_variety("varieties/n3.var"), 4, None, True, False, True),
], ids=["maj-4", "boolean-3", "g2g3-2", "kleene-factor", "godel3-1",
        "chain300-1", "chain300-2", "boolean-vars-3", "godel3-2", "lattice-4",
        "lattice-3", "primal2x3-1", "n3-4"])
def test_closure_kernel_choice(monkeypatch, spec, n, terms, shared, packed, derived):
    # shared: a range was translated, for either kernel; packed: its columns
    # were read as packed keys; derived: some row was derived from an
    # earlier one across a variable swap
    from algen import variety

    calls = {"_translate": 0, "_widen": 0, "_conjugate_row": 0}
    for name in calls:
        monkeypatch.setattr(variety, name, lambda *args, name=name, real=getattr(
            variety, name): calls.__setitem__(name, calls[name] + 1) or real(*args))
    if terms is None:
        FreeAlgebra(spec, n, Budget(DEFAULT_BUDGET))
    else:
        VarietyContext(spec).generated_by_terms(
            ["x", "y", "z"][:n], [parse_term(t, spec.sig) for t in terms])
    assert (calls["_translate"] > 0, calls["_widen"] > 0,
            calls["_conjugate_row"] > 0) == (shared, packed, derived)


def test_no_f1_of_a_shipped_variety_sets_up_packed_keys(monkeypatch):
    # F(1)'s ranges have too few readers to be translated, so its closure
    # never lays out packed keys; godel3 F(2) lays them out once, at its
    # first shared range, for its 9 coordinates
    from algen import variety

    sizes = []
    monkeypatch.setattr(variety, "_lane_layout", lambda s, real=variety._lane_layout:
                        sizes.append(len(s)) or real(s))
    for name in SHIPPED:
        FreeAlgebra(load_variety(f"varieties/{name}.var"), 1, Budget(DEFAULT_BUDGET))
    assert sizes == []
    FreeAlgebra(load_variety("varieties/godel3.var"), 2, Budget(DEFAULT_BUDGET))
    assert sizes == [9]


@pytest.mark.parametrize("seed", range(40))
def test_generated_by_terms_matches_reference(seed):
    rng = random.Random(seed)
    spec = load_variety(f"varieties/{SHIPPED[seed % len(SHIPPED)]}.var")
    names = ["x", "y"][:rng.randint(1, 2)]
    terms = [random_term(rng, spec.sig, names, 3) for _ in range(rng.randint(1, 3))]
    terms.insert(rng.randint(0, len(terms)), rng.choice(terms))  # a repeated seed
    assert_closure_matches_reference(spec, names, terms)


# ---------------------------------------------------------------------------
# Representatives by size levels against the Bellman relaxation


def seeded(spec, names, seeds):
    index, env = index_env(spec, names)
    terms = [parse_term(t, spec.sig) for t in seeds]
    sub = GeneratedSubalgebra(spec, index, [(index.eval_term(t, env), t) for t in terms],
                              Budget(DEFAULT_BUDGET))
    return sub, terms


@pytest.mark.parametrize("variety,names,seeds", [
    ("boolean", ["x", "y"], ["not(not(not(not(and(x,y)))))", "not(and(not(x),not(not(y))))"]),
    ("kleene", ["x"], ["not(not(and(not(not(x)),not(x))))", "or(not(x),not(not(not(not(0)))))"]),
    ("godel3", ["x"], ["and(1,and(1,and(1,and(1,imp(x,0)))))",
                       "or(0,or(0,or(0,or(0,imp(imp(x,0),0)))))"]),
    ("n3", ["x", "y"], ["oplus(oplus(oplus(oplus(oplus(0,x),0),0),y),0)",
                        "oplus(0,oplus(0,oplus(y,oplus(y,0))))"]),
], ids=["boolean", "kleene", "godel3", "n3"])
def test_deep_seeds_lose_to_smaller_terms(variety, names, seeds):
    # seeds four to six operations deep whose elements have smaller terms
    # over the variables: each seed is a candidate on a level above the one
    # its element settles at, and must not replace the smaller term
    spec = load_variety(f"varieties/{variety}.var")
    sub, terms = seeded(spec, names, names + seeds)
    assert len(set(sub.generators)) == len(terms)
    for i, t in zip(sub.generators[len(names):], seeds):
        assert term_size(sub.reps[i]) < term_size(parse_term(t, spec.sig))
    assert_closure_matches_reference(spec, names, terms)


def test_seed_equal_to_a_constant_gets_the_constant():
    spec = load_variety("varieties/boolean.var")
    sub, terms = seeded(spec, ["x"], ["and(x,not(x))", "x"])
    assert term_to_str(sub.reps[sub.generators[0]]) == "0"
    assert_closure_matches_reference(spec, ["x"], terms)


def test_repeated_seed_keeps_one_element():
    spec = load_variety("varieties/boolean.var")
    seeds = ["or(y,x)", "x", "or(y,x)", "y", "or(y,x)"]
    sub, terms = seeded(spec, ["x", "y"], seeds)
    assert sub.generators[0] == sub.generators[2] == sub.generators[4]
    # or(x,y) is found on the seed's own level and ranks below it, so it
    # must replace the seed term although the seed was offered first
    assert term_to_str(sub.reps[sub.generators[0]]) == "or(x,y)"
    assert_closure_matches_reference(spec, ["x", "y"], terms)


@pytest.mark.parametrize("seed", range(16))
def test_majority_seeds_match_reference(seed):
    # a ternary operation: every split walks a prefix over two levels
    rng = random.Random(seed)
    spec = ctx_for("MAJ", majority2()).spec
    names = ["x", "y", "z", "w"][:rng.randint(3, 4)]
    terms = [random_term(rng, spec.sig, names, rng.randint(1, 3))
             for _ in range(rng.randint(2, 3))]
    assert_closure_matches_reference(spec, names, terms)


def test_level_sweep_ranks_only_open_entries(monkeypatch):
    # the sweep gives a preorder code, one sum with a start value, only to
    # the entries whose result is still unsettled: 394 on boolean F(3),
    # where and/or are mirrored, each unordered pair ranked once (724 when
    # both argument orders were); a sweep that ranked every entry would make
    # the same terms, slower
    import builtins

    from algen import variety

    ranked = []

    def counting_sum(*args):
        ranked.extend(args[1:2])
        return builtins.sum(*args)

    monkeypatch.setattr(variety, "sum", counting_sum, raising=False)
    FreeAlgebra(load_variety("varieties/boolean.var"), 3, Budget(DEFAULT_BUDGET)).reps
    assert len(ranked) == 394


@pytest.mark.parametrize("variety,n,codes", [
    ("boolean", 3, 394), ("godel3", 2, 397), ("kleene", 2, 144), ("n3", 3, 440)])
def test_reads_resume_one_sweep(monkeypatch, variety, n, codes):
    # rep(e) for every element in element order, then reps: each read
    # resumes the closure's one sweep where the last stopped, so together
    # they rank exactly the codes one full sweep ranks (a sweep restarted
    # from size 1 for each read ranked 3,444, 1,757, 668 and 2,116)
    import builtins

    from algen import variety as module

    ranked = []

    def counting_sum(*args):
        ranked.extend(args[1:2])
        return builtins.sum(*args)

    monkeypatch.setattr(module, "sum", counting_sum, raising=False)
    f = FreeAlgebra(load_variety(f"varieties/{variety}.var"), n,
                    Budget(DEFAULT_BUDGET))
    reps = [f.rep(e) for e in f.algebra.elements()]
    assert f.reps == tuple(reps)
    assert len(ranked) == codes


@pytest.mark.parametrize("variety,n", [(v, n) for v in SHIPPED for n in (1, 2)])
def test_sweep_stopped_at_an_element_settles_its_levels(variety, n):
    # rep(e) on a fresh holder sweeps until e's level has settled: every
    # element with a term that small has the full sweep's term and step,
    # and every later element has none
    f = FreeAlgebra(load_variety(f"varieties/{variety}.var"), n,
                    Budget(DEFAULT_BUDGET))
    seeds = {e: Var(var_name(i)) for i, e in enumerate(f.generators)}

    def holder():
        return _LeastTerms(f.spec.sig, f.algebra.tables, f.size, seeds,
                           f.spec.commutative)

    whole = holder()
    full, steps = whole.complete(), whole.steps
    for e in f.algebra.elements():
        part = holder()
        part.rep(e)
        reps, prefix = tuple(part.terms), part.steps
        cut = term_size(full[e])
        assert reps == tuple(r if term_size(r) <= cut else None for r in full)
        assert prefix == steps[:sum(r is not None for r in reps)]


# ---------------------------------------------------------------------------
# Exact factors, found once per range


def factor_problem(ctx, names, t):
    """A problem over ``names`` with t at position 0, as a solve builds it."""
    return alg_of(SymbolicProblem(ctx, (t, *map(Var, names))))


def factor_of(ctx, names, t):
    """E(t) over ``names``: its range's entry and element e's least term
    built from t, as a solve reads each witness."""
    ap = factor_problem(ctx, names, t)
    return ap.entries[0], partial(ap.witness, 0)


def ground_terms(alg):
    """Each element's least ground term, None where the constants do not
    reach it."""
    return _LeastTerms(alg.sig, alg.tables, alg.size, {}, frozenset()).complete()


def exact_factor_cases(variety):
    """(problem variables, term) pairs: seeded random terms over 0-3 of the
    problem's variables, ground terms, a bare variable, and terms that miss
    some of the problem's variables."""
    sig = load_variety(f"varieties/{variety}.var").sig
    names = ["x", "y", "w"]
    rng = random.Random(variety)
    cases = [(["x", "y"], Var("y")), (["x", "y", "w"], Var("x"))]
    for k in range(0 if has_constants(variety) else 1, 4):
        for _ in range(10):
            t = random_term(rng, sig, names[:k], rng.randint(1, 4))
            cases.append((names[:rng.randint(k, 3)], t))
    if has_constants(variety):
        ground = random_term(random.Random(1), sig, [], 3)
        cases += [([], ground), (["x", "y"], ground)]
    return cases


@pytest.mark.parametrize("variety", SHIPPED)
def test_exact_factor_matches_generated_by_terms(variety):
    ctx = VarietyContext(load_variety(f"varieties/{variety}.var"))
    for names, t in exact_factor_cases(variety):
        factor, rep = factor_of(ctx, names, t)
        ref = ctx.generated_by_terms(names, [t])
        assert factor.algebra.tables == ref.algebra.tables, (names, t)
        assert ref.generators == (0,)  # a factor is generated by 0
        assert [rep(e) for e in factor.algebra.elements()] == list(
            ref.reps), (names, t)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_exact_factors_match_generated_by_terms(data):
    # the quotient of F(1) numbers its blocks by their least members; that
    # is the order in which closing t reaches them, with the same tables and
    # least terms, on small random varieties as on the shipped ones
    doc = data.draw(fuzz_var_files())
    spec = loads_variety(json.dumps(doc))
    try:
        FreeAlgebra(spec, 1, Budget(20000))
    except BudgetExceeded:
        return  # keep each example fast: no factor is larger than F(1)
    ctx = VarietyContext(spec)
    ops = [tuple(entry) for entry in doc["signature"]]
    for src in data.draw(st.lists(fuzz_terms(ops), min_size=1, max_size=3)):
        t = parse_term(src, spec.sig)
        names = data.draw(st.sampled_from([["x", "y"], list(term_vars(t))]))
        factor, rep = factor_of(ctx, names, t)
        ref = ctx.generated_by_terms(names, [t])
        assert factor.algebra.tables == ref.algebra.tables, (doc, names, src)
        assert [rep(e) for e in factor.algebra.elements()] == list(
            ref.reps), (doc, names, src)


@pytest.mark.parametrize("variety", SHIPPED)
def test_exact_factor_reps_match_the_bellman_oracle(variety):
    # every element's term from rep(e), on seeded random terms over one and
    # two variables, is the least term built from t, found by relaxing every
    # table entry in both argument orders
    ctx = VarietyContext(load_variety(f"varieties/{variety}.var"))
    sig = ctx.spec.sig
    rng = random.Random(f"factor-oracle/{variety}")
    for k in (1, 2):
        names = ["x", "y"][:k]
        for _ in range(12):
            t = random_term(rng, sig, names, rng.randint(1, 4))
            factor, rep = factor_of(ctx, names, t)
            reps = [rep(e) for e in factor.algebra.elements()]
            assert reps == least_terms(factor.algebra, {0: t}), (names, t)


def test_exact_factors_of_one_range_share_one_closure():
    # x and not(x) both take every value of K3, so they share E's algebra,
    # but each gets its own least terms
    ctx = KA()
    sig = ctx.spec.sig
    px = factor_problem(ctx, ["x"], parse_term("x", sig))
    pnot = factor_problem(ctx, ["x", "y"], parse_term("not(x)", sig))
    assert px.ranges[0] == pnot.ranges[0] == ((0, 0), (0, 1), (0, 2))
    assert px.entries[0].algebra is pnot.entries[0].algebra
    # terms in E(not(x)) are built from not(x), so x is not(not(x)) there
    x_elem = px.entries[0].algebra.eval(parse_term("not(x1)", sig), {"x1": 0})
    assert [term_to_str(ap.witness(0, e)) for ap in (px, pnot) for e in (0, x_elem)] == [
        "x", "not(x)", "not(x)", "not(not(x))"]


@pytest.mark.parametrize("variety", SHIPPED)
def test_seed_witness_matches_the_full_sweep(variety, monkeypatch):
    # rep(0) is t or the least ground term of element 0, read without
    # settling a level of the seeded sweep; it equals the full sweep seeded
    # with t, on seeded random terms over 1-3 variables and ground terms
    ctx = VarietyContext(load_variety(f"varieties/{variety}.var"))
    sig = ctx.spec.sig
    rng = random.Random(f"seed-witness/{variety}")
    names = ["x", "y", "w"]
    cases = [(names[:k], random_term(rng, sig, names[:k], rng.randint(1, 4)))
             for k in range(0 if has_constants(variety) else 1, 4)
             for _ in range(25)]
    expected = []
    for vs, t in cases:
        f, _ = factor_of(ctx, vs, t)
        expected.append(_LeastTerms(sig, f.algebra.tables, f.algebra.size,
                                    {0: t}, ctx.spec.commutative).complete()[0])
    sweeps = []

    def counting(*args):  # each level a sweep settles
        for level in _settle_levels(*args):
            sweeps.append(level)
            yield level

    monkeypatch.setattr("algen.variety._settle_levels", counting)
    assert [factor_of(ctx, vs, t)[1](0) for vs, t in cases] == expected
    assert sweeps == []


@pytest.mark.parametrize("variety,source,expected", [
    ("boolean", "or(x,not(x))", "1"), ("boolean", "and(x,not(x))", "0"),
    ("boolean", "or(x,or(y,not(y)))", "1"), ("boolean", "x", "x"),
    ("kleene", "or(x,not(x))", "or(x,not(x))"), ("godel3", "imp(x,x)", "1")])
def test_seed_witness_examples(variety, source, expected):
    ctx = VarietyContext(load_variety(f"varieties/{variety}.var"))
    t = parse_term(source, ctx.spec.sig)
    assert term_to_str(factor_of(ctx, term_vars(t), t)[1](0)) == expected


def test_seed_witness_keeps_a_term_below_its_ground_term():
    # g is constantly 1 and 1 is no constant, so g(x) and g(c) are the same
    # element; g(x) ranks lower (a variable before an operation), so it is
    # its own witness, and the least ground term g(c) is only the second
    sig = Signature.make([("c", 0), ("g", 1)])
    ctx = VarietyContext(VarietySpec("cg", sig, (
        FiniteAlgebra(sig, ["0", "1"], {"c": 0, "g": [1, 1]}),)))
    t = parse_term("g(x)", sig)
    f, rep = factor_of(ctx, ["x"], t)
    assert term_to_str(f.ground) == "g(c)"
    assert rep(0) == t
    assert term_to_str(factor_of(ctx, ["x"], parse_term("g(g(x))", sig))[1](0)) == "g(c)"


def test_least_ground_term_is_its_own_witness():
    # 1 is the least ground term of its range, so a tie in rank keeps the
    # problem's own term rather than an equal copy
    ctx = VarietyContext(load_variety("varieties/boolean.var"))
    t = parse_term("1", ctx.spec.sig)
    f, rep = factor_of(ctx, ["x"], t)
    assert f.ground == t and f.ground is not t
    assert rep(0) is t


@pytest.mark.parametrize("variety,source", [("boolean", "or(x,not(x))"),
                                            ("kleene", "and(x,not(x))")])
def test_factor_sweeps_only_for_elements_other_than_0(variety, source):
    # element 0's witness is read off t and the range's ground term, whose
    # rank the range's memo holds; no sweep seeded with t is made, or
    # settles a level, before the first read of another element
    ctx = VarietyContext(load_variety(f"varieties/{variety}.var"))
    t = parse_term(source, ctx.spec.sig)
    ap = factor_problem(ctx, ["x"], t)
    ap.witness(0, 0)
    assert ap._sweeps == {}
    entry = ctx.range_factor(ap.ranges[0])
    assert entry is ap.entries[0]
    assert entry.rank == (None if entry.ground is None
                          else term_rank(entry.ground, entry.algebra.sig))
    if entry.algebra.size > 1:
        ap.witness(0, 1)
        assert ap._sweeps[0].steps != []


@st.composite
def rank_pairs(draw):
    """Two Kleene terms: drawn apart, or the second the first relabelled
    node by node, an operation for one of its arity and a leaf for a leaf,
    so that their sizes tie."""
    t = draw(terms_strategy(KLEENE_SIG))
    if draw(st.booleans()):
        return t, draw(terms_strategy(KLEENE_SIG))
    leaves = st.sampled_from([Var("x"), Var("y"), App("0"), App("1")])

    def relabel(u):
        if isinstance(u, Var) or not u.args:
            return draw(leaves)
        ops = [op for op, arity in KLEENE_SIG.ops if arity == len(u.args)]
        return App(draw(st.sampled_from(ops)), tuple(map(relabel, u.args)))
    return t, relabel(t)


@given(rank_pairs())
@settings(max_examples=300)
def test_seed_rep_compares_sizes_before_ranks(pair):
    # the size-first comparison against the full ranks: the ground term g
    # is chosen over t exactly when term_rank(g) < term_rank(t), and t's
    # full rank is read only when the sizes tie; g and t the same object
    # tie and keep t
    import types

    import algen.variety

    s, u = pair
    for g, t in [(s, u), (u, s), (s, s)]:
        rank, read = term_rank(g, KLEENE_SIG), []
        entry = RangeFactor(types.SimpleNamespace(sig=KLEENE_SIG), None, None, g, rank)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(algen.variety, "term_rank",
                       lambda v, sig: read.append(v) or term_rank(v, sig))
            chosen = entry.seed_rep(t)
        assert chosen is (g if rank < term_rank(t, KLEENE_SIG) else t)
        assert read == ([t] if term_size(t) == term_size(g) else [])


@pytest.mark.parametrize("variety", ["lattice", "semilattice"])
def test_without_constants_no_element_has_a_ground_term(variety):
    ctx = VarietyContext(load_variety(f"varieties/{variety}.var"))
    sig = ctx.spec.sig
    factors = [factor_of(ctx, ["x", "y"], parse_term(src, sig))[0]
               for src in ("x", "or(x,y)")]
    assert [f.ground for f in factors] == [None, None]
    for alg in [ctx.free_algebra(n).algebra for n in (1, 2)] + [
            f.algebra for f in factors]:
        assert ground_terms(alg) == (None,) * alg.size


def test_ground_sweep_ends_where_the_constants_stop():
    # in F(1) and F(2) of the Boolean algebras the constants reach 0 and 1
    # only: those get their terms and the sweep ends with the rest open
    ctx = BA()
    for n in (1, 2):
        f = ctx.free_algebra(n)
        ground = {e: term_to_str(r) for e, r in enumerate(ground_terms(f.algebra))
                  if r is not None}
        assert sorted(ground.values()) == ["0", "1"]
        assert all(f.algebra.labels[e] == label for e, label in ground.items())
        assert len(ground) < f.size


# ---------------------------------------------------------------------------
# Evaluation and identities


def has_constants(variety):
    spec = load_variety(f"varieties/{variety}.var")
    return any(not arity for _, arity in spec.sig.ops)


@pytest.mark.parametrize("variety,n", [(v, n) for v in SHIPPED for n in range(3)
                                       if n or has_constants(v)])
def test_free_images_match_evaluating_each_representative(variety, n):
    # the homomorphism F(n) -> target with x_i -> points[i], read off F(n)'s
    # derivation steps, against evaluating every representative there
    ctx = VarietyContext(load_variety(f"varieties/{variety}.var"))
    fk = ctx.free_algebra(n)
    rng = random.Random(f"{variety}/{n}")
    for target in (*ctx.spec.generators, ctx.free_algebra(1).algebra):
        for _ in range(6):
            points = [rng.randrange(target.size) for _ in range(n)]
            env = {f"x{i + 1}": p for i, p in enumerate(points)}
            assert fk.images(target, points) == [target.eval(rep, env)
                                                 for rep in fk.reps]


@pytest.mark.parametrize("variety", SHIPPED)
def test_cone_walk_matches_the_full_walk(variety):
    # a cone of F(2)'s derivation holds the elements asked for and every
    # argument of its steps, and the images it reads are the full walk's;
    # neither walk settles a representative
    ctx = VarietyContext(load_variety(f"varieties/{variety}.var"))
    f2 = ctx.free_closure(2)
    rng = random.Random(f"cone/{variety}")
    for target in ctx.spec.generators:
        for _ in range(6):
            points = [rng.randrange(target.size) for _ in range(2)]
            wanted = rng.sample(range(f2.size), min(3, f2.size))
            cone = f2.cone(wanted)
            held = {e for e, _, _ in cone}
            assert set(wanted) <= held
            assert all(set(args) <= held for _, op, args in cone if op is not None)
            assert [e for e, _, _ in cone] == sorted(held)
            full, part = f2.images(target, points), f2.images(target, points, cone)
            assert all(part[e] == full[e] for e in held)
    assert f2._terms.steps == []  # nothing settled


@pytest.mark.parametrize("variety,n", [(v, n) for v in SHIPPED for n in range(3)
                                       if n or has_constants(v)])
def test_free_order_is_the_rank_order(variety, n):
    # F(n)'s elements in settle order are in the term_rank order of their
    # representatives, which naming and the embedding searches read
    f = FreeAlgebra(load_variety(f"varieties/{variety}.var"), n,
                    Budget(DEFAULT_BUDGET))
    sig = f.spec.sig
    assert list(f.order) == sorted(f.algebra.elements(),
                                   key=lambda e: term_rank(f.reps[e], sig))
    # two signatures without constants, whose F(0) is empty
    for spec in [ctx_for("maj", majority2()).spec,
                 ctx_for("M5", truncated_monoid(5)).spec][:2 if n else 0]:
        f = FreeAlgebra(spec, n, Budget(DEFAULT_BUDGET))
        assert list(f.order) == sorted(f.algebra.elements(),
                                       key=lambda e: term_rank(f.reps[e], spec.sig))


def test_eval_term_examples():
    fb = BA().free_algebra(1)
    one = fb.algebra.label_index["1"]
    assert fb.eval_term(parse_term("or(x1,not(x1))", fb.spec.sig)) == one

    fk = KA().free_algebra(1)
    one_k = fk.algebra.label_index["1"]
    top = fk.eval_term(parse_term("or(x1,not(x1))", fk.spec.sig))
    assert top != one_k
    assert fk.algebra.labels[top] == "or(x1,not(x1))"


def test_eval_term_unknown_variable():
    f = BA().free_algebra(1)
    with pytest.raises(AlgebraError):
        f.eval_term(Var("y"))
    with pytest.raises(AlgebraError, match="unknown variable 'y'"):
        index, env = index_env(f.spec, ["x"])
        index.eval_term(parse_term("and(x,y)", f.spec.sig), env)


def test_holds_identity_examples():
    ka = KA()
    sig = ka.spec.sig
    # the Kleene inequality x and not x <= y or not y, as an equation
    lhs = parse_term("and(and(x,not(x)),or(y,not(y)))", sig)
    rhs = parse_term("and(x,not(x))", sig)
    assert ka.holds_identity(lhs, rhs)
    assert not ka.holds_identity(parse_term("or(x,not(x))", sig),
                                 parse_term("1", sig))
    ba = BA()
    assert ba.holds_identity(parse_term("or(x,not(x))", ba.spec.sig),
                             parse_term("1", ba.spec.sig))


@pytest.mark.parametrize("ctx_factory,gens", [
    (KA, [k3()]),
    (BA, [bool2()]),
    (G3, [goedel_chain(3)]),
    (N3V, [n3()]),
])
def test_holds_identity_agrees_with_assignment_oracle(ctx_factory, gens):
    ctx = ctx_factory()
    rng = random.Random(20240811)
    for _ in range(60):
        s = random_term(rng, ctx.spec.sig, ["x", "y"], 3)
        t = random_term(rng, ctx.spec.sig, ["x", "y"], 3)
        assert ctx.holds_identity(s, t) == identity_holds_oracle(gens, s, t)


# ---------------------------------------------------------------------------
# The assignment index set, built once per variable count


@pytest.mark.parametrize("ctx_factory", [
    lambda: VarietyContext(load_variety("varieties/boolean.var")),
    lambda: VarietyContext(load_variety("varieties/n3.var")),
    lambda: ctx_for("G2xG3", goedel_chain(2), goedel_chain(3)),
], ids=["boolean", "n3", "G2xG3"])
def test_shared_index_set_matches_a_fresh_one(ctx_factory):
    # every variable count up to 3 under every order of its names, the
    # counts interleaved, so each count's shared index set is read again
    # under other names: projections, op tables and value vectors are those
    # of an index set built for the call alone
    ctx = ctx_factory()
    rng = random.Random(ctx.spec.name)
    cases = [list(p) for n in range(4)
             for p in itertools.permutations(["x", "y", "w"][:n])]
    rng.shuffle(cases)
    for names in cases:
        view, env = index_env(ctx.spec, names)
        # an equal spec holds no index set yet, so it builds one
        fresh, fresh_env = index_env(VarietySpec(*ctx.spec._values), names)
        assert env == fresh_env
        assert (view.width, view.op_tables) == (fresh.width, fresh.op_tables)
        assert view.op_tables is index_env(ctx.spec, names[::-1])[0].op_tables
        for _ in range(8):
            t = random_term(rng, ctx.spec.sig, names, 3)
            assert view.eval_term(t, env) == fresh.eval_term(t, fresh_env), (names, t)
        unknown = App(ctx.spec.sig.ops[0][0], (Var("v"),) * ctx.spec.sig.ops[0][1])
        errors = []
        for index, names_env in ((view, env), (fresh, fresh_env)):
            with pytest.raises(AlgebraError) as exc:
                index.eval_term(unknown if unknown.args else Var("v"), names_env)
            errors.append(str(exc.value))
        assert errors == ["unknown variable 'v'"] * 2


def random_algebra(rng, size, sig):
    """An algebra of ``size`` elements with seeded random tables over ``sig``."""
    def table(arity):
        return [table(arity - 1) for _ in range(size)] if arity else rng.randrange(size)
    return FiniteAlgebra(sig, [str(a) for a in range(size)],
                         {op: table(arity) for op, arity in sig.ops})


def reference_vector(spec, names, t):
    """t's value vector, one coordinate at a time: each generating algebra's
    own tables at each assignment to ``names``, in index order."""
    envs = [(g, values) for g in spec.generators
            for values in itertools.product(range(g.size), repeat=len(names))]

    def value(t):
        if isinstance(t, Var):
            return [values[names.index(t.name)] for _, values in envs]
        args = [value(a) for a in t.args]
        return [g.op(t.op, col) for (g, _), col in zip(envs, zip(*args) if args
                                                       else itertools.repeat(()))]
    return tuple(value(t))


def evaluation_cases():
    """(name, spec, the operations with packed tables, most variables)."""
    shipped = [(v, load_variety(f"varieties/{v}.var")) for v in SHIPPED]
    n3_spec = dict(shipped)["n3"]
    square = direct_product([n3_spec.generators[0]] * 2)[0]
    rng = random.Random(43)
    sig = Signature.make([("f", 2), ("g", 3), ("h", 1), ("c", 0)])
    binary = Signature.make([("f", 2)])
    # every shipped operation is packed: none has more than 16 keys
    cases = [(v, spec, {op for op, arity in spec.sig.ops if arity}, 3)
             for v, spec in shipped] + [
        ("G2xG3", ctx_for("G2xG3", goedel_chain(2), goedel_chain(3)).spec,
         {"and", "or", "imp"}, 3),
        # a 16-element binary operation: 16 * 16 keys fill a byte exactly
        ("n3+square", VarietySpec("n3", n3_spec.sig, (*n3_spec.generators, square)),
         {"oplus"}, 3),
        # segments of 3 and 17 values: not packs both, and and or neither
        ("K3+chain17", ctx_for("K17", k3(), kleene_chain(
            [str(i) for i in range(17)], lambda i: 16 - i)).spec, {"not"}, 3),
        ("groupoid17", ctx_for("G17", random_algebra(rng, 17, binary)).spec, set(), 3),
        ("random6", ctx_for("R6", random_algebra(rng, 6, sig)).spec, {"f", "g", "h"}, 3),
        # a ternary operation on 7 elements: 343 keys
        ("random7", ctx_for("R7", random_algebra(rng, 7, sig)).spec, {"f", "h"}, 3),
        # tuple vectors, which no node packs
        ("chain300", CHAIN300, set(), 1),
    ]
    return [pytest.param(*case, id=case[0]) for case in cases]


@pytest.mark.parametrize("name,spec,packed,most", evaluation_cases())
def test_packed_evaluation_matches_a_per_coordinate_reference(name, spec, packed, most):
    # seeded random terms over 1-3 variables: each value vector, read
    # through packed keys where a node's table fits a byte, else one
    # coordinate at a time, is the reference's
    assert set(spec.packed_tables) == packed
    code = bytes if max(g.size for g in spec.generators) <= 256 else tuple
    rng = random.Random(name)
    ctx = VarietyContext(spec)
    for n in range(1, most + 1):
        names = ["x", "y", "w"][:n]
        index, env = index_env(ctx.spec, names)
        for _ in range(12):
            t = random_term(rng, spec.sig, names, 4)
            vec = index.eval_term(t, env)
            assert type(vec) is code
            assert tuple(vec) == reference_vector(spec, names, t), (names, t)


# ---------------------------------------------------------------------------
# Budget behavior


def test_budget_error_for_free_monoid_style_presentation():
    # N_9 truncates the free 1-generated monoid; a large arity blows the
    # assignment index set and must fail gracefully, not hang.
    ctx = ctx_for("M9", truncated_monoid(9))
    with pytest.raises(BudgetExceeded) as exc:
        ctx.free_algebra(8)
    assert exc.value.limit == 10 ** 7
    assert exc.value.stage == "assignment index set"


def test_budget_error_during_closure():
    ctx = ctx_for("M9b", truncated_monoid(9), budget=500)
    with pytest.raises(BudgetExceeded) as exc:
        ctx.free_algebra(2)
    assert (exc.value.stage, exc.value.needed) == ("free closure", 506)


@pytest.mark.parametrize("variety,n,limit,stage,needed", [
    ("kleene", 3, DEFAULT_BUDGET, "operation tables", 10008272),
    ("godel3", 3, 4_900_000, "operation tables", 4903658),
    # packed keys, the closure made mostly of new elements
    ("boolean", 4, DEFAULT_BUDGET, "operation tables", 10001614),
    ("lattice", 5, DEFAULT_BUDGET, "operation tables", 10008247),
])
def test_budget_exit_stage_and_cells(variety, n, limit, stage, needed):
    # the closure exits at the first element after which the passes it must
    # still make would charge more than the limit, however fast it evaluates
    ctx = VarietyContext(load_variety(f"varieties/{variety}.var"), budget_limit=limit)
    with pytest.raises(BudgetExceeded) as exc:
        ctx.free_algebra(n)
    assert (exc.value.stage, exc.value.needed) == (stage, needed)


@pytest.mark.parametrize("variety,n,limit,unshared", [
    ("kleene", 3, DEFAULT_BUDGET, 36),
    ("godel3", 3, 4_900_000, 12),
    ("boolean", 4, DEFAULT_BUDGET, 0),
])
def test_budget_exits_read_shared_ranges_as_column_slices(monkeypatch, variety, n,
                                                          limit, unshared):
    # a new vector of a shared range, a swap image not known yet or a packed
    # key first met, is a strided slice of its row's translated columns;
    # only rows of unshared ranges evaluate one coordinate at a time.
    # Evaluated so, the 1,502, 960 and 2,801 shared ones took about half of
    # each exit
    from algen import variety as module

    spec = load_variety(f"varieties/{variety}.var")
    a_max = max(g.size for g in spec.generators)
    shared = [None]  # whether the current row's range is shared

    def fresh_rows(arity, old, m, real=module._fresh_rows):
        k = arity - 1
        for prefix, s in real(arity, old, m):
            readers = old ** k if s else m ** k - old ** k
            shared[0] = m > a_max and readers >= 2 * a_max ** k
            yield prefix, s

    evaluated = {True: 0, False: 0}

    def evaluate(*args, real=module._evaluate):
        evaluated[shared[0]] += 1
        return real(*args)

    monkeypatch.setattr(module, "_fresh_rows", fresh_rows)
    monkeypatch.setattr(module, "_evaluate", evaluate)
    with pytest.raises(BudgetExceeded):
        FreeAlgebra(spec, n, Budget(limit))
    assert evaluated == {True: 0, False: unshared}


@pytest.mark.parametrize("variety", ["kleene", "godel3"])
def test_budget_exit_comes_before_the_grind(variety, capsys):
    # work, not wall time: the elements F(3) adds before the default budget
    # stops it.  Exiting only once a pass charged too much, the closure
    # added 10,778 (kleene) and 24,609 (godel3) of them
    from algen.cli import main

    budget = RecordingBudget()
    with pytest.raises(BudgetExceeded):
        FreeAlgebra(load_variety(f"varieties/{variety}.var"), 3, budget)
    assert sum(stage == "free closure" for _, stage in budget.charges) <= 2500
    assert main(["free", f"varieties/{variety}.var", "-n", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: budget exceeded during operation tables: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("spec,n", [
    pytest.param(load_variety("varieties/boolean.var"), 3, id="boolean-3"),
    pytest.param(load_variety("varieties/godel3.var"), 2, id="godel3-2"),
    pytest.param(load_variety("varieties/kleene.var"), 2, id="kleene-2"),
    pytest.param(load_variety("varieties/n3.var"), 3, id="n3-3"),
    # a commutative groupoid whose F(2) has 130 elements
    pytest.param(GROUPOIDS[14], 2, id="groupoid-2"),
    # non-commutative groupoids whose F(2) have 170 and 162 elements, so
    # no operation is mirrored
    pytest.param(GROUPOIDS[5], 2, id="groupoid5-2"),
    pytest.param(GROUPOIDS[15], 2, id="groupoid15-2"),
    pytest.param(ctx_for("MAJ", majority2()).spec, 3, id="maj-3"),
    pytest.param(ctx_for("G2xG3", goedel_chain(2), goedel_chain(3)).spec, 2,
                 id="g2g3-2"),
])
def test_budget_exits_mid_pass_match_reference(spec, n):
    # limits just below the reference's cumulative charges and at its
    # look-ahead needs: the closure must exit where the reference's
    # look-ahead first exceeds the limit, with its stage and cells, never
    # after the plain exit, and fit every limit the plain closure fits.
    # FreeAlgebra, which derives rows across variable swaps, first charges
    # the assignment index set, then must exit or fit alike
    names = [f"x{i + 1}" for i in range(n)]
    charges, ahead = reference_subalgebra(spec, names, [Var(v) for v in names])[4:6]
    totals = list(itertools.accumulate(cells for cells, _ in charges))
    steps = [i for i, (_, stage) in enumerate(charges) if stage == "operation tables"]
    steps += range(0, len(charges), 17)
    assert {charges[i][1] for i in steps} == {"free closure", "operation tables"}
    limits = {totals[i] - 1 for i in steps}
    limits |= {ahead[i] + d for i in range(0, len(charges), 7) if ahead[i]
               for d in (-1, 0)}
    limits.add(totals[-1])
    index, env = index_env(spec, names)
    seeds = [(index.eval_term(Var(v), env), Var(v)) for v in names]
    index_cells = n + index.width
    exits = 0
    for limit in sorted(limits):
        plain = next((j for j, total in enumerate(totals) if total > limit), None)
        early = next((j for j, total in enumerate(totals)
                      if total > limit or (ahead[j] or 0) > limit), None)
        if early is None:  # the look-ahead never exceeds what the closure charges
            assert plain is None
            budget, free_budget = Budget(limit), Budget(limit + index_cells)
            GeneratedSubalgebra(spec, index, seeds, budget)
            FreeAlgebra(spec, n, free_budget)
            assert budget.used == totals[-1]
            assert free_budget.used == totals[-1] + index_cells
            continue
        assert plain is not None and early <= plain
        expected = ((charges[early][1], totals[early]) if totals[early] > limit
                    else ("operation tables", ahead[early]))
        assert limit < expected[1] <= totals[-1]
        with pytest.raises(BudgetExceeded) as exc:
            GeneratedSubalgebra(spec, index, seeds, Budget(limit))
        assert (exc.value.stage, exc.value.needed) == expected
        with pytest.raises(BudgetExceeded) as exc:
            FreeAlgebra(spec, n, Budget(limit + index_cells))
        assert (exc.value.stage, exc.value.needed - index_cells) == expected
        exits += 1
    assert exits > len(steps) // 2


def test_budget_error_is_not_a_crash():
    err = BudgetExceeded("stage", 10, 5)
    assert "stage" in str(err) and err.needed == 10


def test_index_set_budget_exit_repeats_and_stores_nothing(monkeypatch):
    # each caller charges n + width cells before the shared index set is
    # looked up or built: a count that fits is built once, and one that
    # does not raises with the same stage and cells at every call
    from algen import variety

    built = []

    class CountingIndex(variety._AssignmentIndex):
        def __init__(self, spec, n):
            built.append(n)
            super().__init__(spec, n)

    monkeypatch.setattr(variety, "_AssignmentIndex", CountingIndex)
    ctx = ctx_for("BA", bool2(), budget=150)
    sig = ctx.spec.sig
    fits = [f"v{i}" for i in range(4)]  # 4 + 2**4 = 20 cells
    over = [f"v{i}" for i in range(8)]  # 8 + 2**8 = 264 cells
    wide = reduce(lambda a, b: App("and", (a, b)), map(Var, over))
    for _ in range(2):
        budget = RecordingBudget(150)
        ctx.spec.assignment_index(len(fits), budget)
        assert budget.charges == [(20, "assignment index set")]
        assert ctx.generated_by_terms(fits, [Var("v0")]).algebra.size == 4
        for call in (lambda: ctx.spec.assignment_index(len(over), Budget(150)),
                     lambda: ctx.generated_by_terms(over, [Var("v0")]),
                     lambda: ctx.holds_identity(wide, wide)):
            with pytest.raises(BudgetExceeded) as exc:
                call()
            assert (exc.value.stage, exc.value.needed) == ("assignment index set", 264)
    assert built == [4]
    assert ctx.holds_identity(parse_term("and(v0,v1)", sig), parse_term("and(v1,v0)", sig))
    assert built == [4, 2]


def test_free_algebra_and_terms_share_one_index_set_per_count(monkeypatch):
    # F(n) and term evaluation over n variables read the spec's one index
    # set for n: a cold kleene solve over x and y builds it for 1 and 2 once
    from algen import solver, variety

    built = []

    class CountingIndex(variety._AssignmentIndex):
        def __init__(self, spec, n):
            built.append(n)
            super().__init__(spec, n)

    monkeypatch.setattr(variety, "_AssignmentIndex", CountingIndex)
    ctx = VarietyContext(load_variety("varieties/kleene.var"))
    sig = ctx.spec.sig
    solver.solve(solver.SymbolicProblem(ctx, (parse_term("and(x,not(x))", sig),
                                              parse_term("and(y,not(y))", sig))))
    assert sorted(built) == [1, 2]


def test_index_set_peaks_at_what_it_holds():
    # a 60-element chain at n = 3, width 216,000: the projections are
    # built from runs, with no tuple per assignment, so the traced peak
    # stays near the memory the index holds
    import tracemalloc

    from algen.variety import _AssignmentIndex

    spec = ctx_for("C60", chain_semilattice(60)).spec
    tracemalloc.start()
    try:
        index = _AssignmentIndex(spec, 3)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert index.width == 60 ** 3
    assert peak <= 1.25 * held


# ---------------------------------------------------------------------------
# Free algebras as plain finite algebras


def test_min_generators_of_free_boolean():
    from algen.algebra import min_generators

    f = BA().free_algebra(1)
    size, gens = min_generators(f.algebra)
    assert size == 1
    assert gens == (f.generators[0],)
    assert term_to_str(f.reps[gens[0]]) == "x1"


def test_quotient_of_free_boolean_by_z_equals_1():
    from algen.algebra import principal_congruence, quotient

    ctx = BA()
    f = ctx.free_algebra(1)
    theta = principal_congruence(
        f.algebra, f.generators[0], f.algebra.label_index["1"])
    q, _ = quotient(f.algebra, theta)
    assert q.size == 2
    assert find_isomorphism(q, bool2()) is not None


def test_principal_zero_one_in_free_boolean_is_total():
    from algen.algebra import principal_congruence

    f = BA().free_algebra(1)
    theta = principal_congruence(f.algebra, f.algebra.label_index["0"],
                                 f.algebra.label_index["1"])
    assert theta.is_total()


def test_principal_z_notz_in_free_kleene_gives_k3():
    from algen.algebra import principal_congruence, quotient
    from factories import k3

    f = KA().free_algebra(1)
    theta = principal_congruence(f.algebra, f.generators[0],
                                 f.algebra.label_index["not(x1)"])
    q, _ = quotient(f.algebra, theta)
    assert find_isomorphism(q, k3()) is not None


def test_kernel_of_free_kleene_onto_k4():
    from algen.algebra import enumerate_homs, principal_congruence
    from factories import k4
    from oracles import kernel

    f = KA().free_algebra(1)
    target = k4()
    pinned = {f.generators[0]: (target.label_index["m"],)}
    homs = list(enumerate_homs(f.algebra, target, pinned, surjective=True))
    assert len(homs) == 1
    expected = principal_congruence(f.algebra, f.generators[0],
                                    f.algebra.label_index["and(x1,not(x1))"])
    assert kernel(homs[0]) == expected


# ---------------------------------------------------------------------------
# Algebras the program builds skip the constructor's checks; they must pass


def assert_passes_full_check(a):
    b = FiniteAlgebra(a.sig, a.labels, a.tables, name=a.name)
    assert (b.labels, b.tables, b.label_index) == (a.labels, a.tables, a.label_index)


@pytest.mark.parametrize("variety", SHIPPED)
def test_program_built_algebras_pass_the_full_check(variety):
    from algen.algebra import congruence_lattice, direct_product, quotient

    spec = load_variety(f"varieties/{variety}.var")
    ctx = VarietyContext(spec)
    f1 = ctx.free_algebra(1).algebra
    # the var-file reader wraps the tables it checked, like the builders
    built = [*spec.generators, f1, ctx.free_algebra(2).algebra,
             direct_product([f1, spec.generators[0]])[0],
             direct_product(list(spec.generators) * 2)[0]]
    for theta in congruence_lattice(f1):
        # quotient builds its tables unchecked; the natural map must commute
        q, nat = quotient(f1, theta)
        assert f1.is_hom_map(nat, q)
        built.append(q)
    rng = random.Random(variety)
    built += [ctx.generated_by_terms(["x", "y"], [random_term(rng, spec.sig, ["x", "y"], 3)]).algebra
              for _ in range(5)]
    for a in built:
        assert_passes_full_check(a)
