import copy
import itertools
import random
import re
from operator import setitem

import pytest

from algen.algebra import (
    AlgebraError,
    Congruence,
    FiniteAlgebra,
    congruence_generated,
    congruence_lattice,
    direct_product,
    enumerate_homs,
    join_irreducibles,
    min_generators,
    poset_covers,
    principal_congruence,
    quotient,
    subpower,
)

from factories import (
    LATTICE_BOUNDED_SIG,
    bool2,
    brute_force_congruences,
    goedel_chain,
    k3,
    k4,
    ka4_diamond,
    lattice2,
    n3,
    semilattice2,
    trivial_kleene,
)
from oracles import factor_through, find_isomorphism, kernel, subalgebra_generated

SMALL_ALGEBRAS = [bool2, k3, k4, ka4_diamond, n3, semilattice2, lattice2,
                  lambda: goedel_chain(3), lambda: goedel_chain(4)]
FACTORY_ALGEBRAS = {
    "bool2": bool2, "k3": k3, "k4": k4, "ka4": ka4_diamond,
    "trivial": trivial_kleene, "g3": lambda: goedel_chain(3),
    "g4": lambda: goedel_chain(4), "n3": n3, "sl2": semilattice2,
    "lat2": lattice2,
}

K3_TABLES = {"and": [[0, 0, 0], [0, 1, 1], [0, 1, 2]],
             "or": [[0, 1, 2], [1, 1, 2], [2, 2, 2]],
             "not": [2, 1, 0], "0": 0, "1": 2}


@pytest.mark.parametrize("breaks,message", [
    (lambda t: t.pop("or"), "missing table for operation 'or'"),
    (lambda t: t["and"][1].pop(), "table for 'and' is not total"),
    (lambda t: t["and"][1].append(0), "table for 'and' is not total"),
    (lambda t: setitem(t["and"], slice(None), [0, 1, 2]),
     "table for 'and' is not total"),
    (lambda t: setitem(t["not"], 0, [2]), "bad table entry for 'not': (0,) -> [2]"),
    (lambda t: setitem(t["or"][2], 0, 3), "bad table entry for 'or': (2, 0) -> 3"),
    (lambda t: setitem(t["not"], 1, "a"), "bad table entry for 'not': (1,) -> 'a'"),
], ids=["missing-op", "short-row", "long-row", "flat-binary", "too-deep",
        "out-of-range", "label-leaf"])
def test_constructor_checks_and_copies_tables(breaks, message):
    tables = copy.deepcopy(K3_TABLES)
    a = FiniteAlgebra(LATTICE_BOUNDED_SIG, ["0", "a", "1"], tables)
    breaks(tables)
    # the algebra holds copies, so breaking the caller's lists leaves it be
    assert a.tables == K3_TABLES
    with pytest.raises(AlgebraError, match=re.escape(message)):
        FiniteAlgebra(LATTICE_BOUNDED_SIG, ["0", "a", "1"], tables)


def test_is_hom_map_rejects_swapped_constants():
    a = bool2()
    assert a.is_hom_map((0, 1), a)
    assert not a.is_hom_map((1, 0), a)  # swaps the constants
    assert not a.is_hom_map((0,), a)  # not total


def test_direct_product_sizes():
    p, projs = direct_product([bool2(), bool2()])
    assert p.size == 4
    assert len(projs) == 2
    q, _ = direct_product([k3(), k3()])
    assert q.size == 9


def test_direct_product_empty_is_error():
    with pytest.raises(AlgebraError):
        direct_product([])


def test_direct_product_componentwise():
    a = k3()
    p, projs = direct_product([a, a])
    for x in range(p.size):
        for y in range(p.size):
            z = p.op("and", (x, y))
            for pr in projs:
                assert pr[z] == a.op("and", (pr[x], pr[y]))


def test_direct_product_escapes_colliding_labels():
    # unescaped, "(a,a,a)" would name both ("a", "a,a") and ("a,a", "a")
    from algen.terms import Signature
    sig = Signature.make([("f", 1)])
    g = FiniteAlgebra(sig, ["a", "a,a", "b\\", "b\\,"], {"f": [0, 1, 2, 3]})
    p, _ = direct_product([g, g])
    assert len(set(p.labels)) == p.size == 16
    assert p.labels[1] == "(a,a\\,a)" and p.labels[4] == "(a\\,a,a)"
    assert p.labels[10] == "(b\\\\,b\\\\)"
    # labels without a backslash or a comma read as before
    four, _ = direct_product([bool2(), bool2()])
    assert four.labels == ("(0,0)", "(0,1)", "(1,0)", "(1,1)")


def test_direct_product_projections_are_homomorphisms():
    # projections are built unchecked, as homomorphisms by construction
    for factors in ([k3(), k3()], [n3(), n3(), n3()]):
        p, projs = direct_product(factors)
        assert len(projs) == len(factors)
        for pr, alg in zip(projs, factors):
            assert p.is_hom_map(pr, alg)


def test_subalgebra_k3_single_generator_is_whole():
    a = k3()
    sub, inc = subalgebra_generated(a, [a.label_index["a"]])
    assert sub.size == 3
    assert set(inc) == {0, 1, 2}
    assert sub.is_hom_map(inc, a)


def test_subalgebra_n3_generated_by_2():
    a = n3()
    sub, inc = subalgebra_generated(a, [a.label_index["2"]])
    assert [a.labels[e] for e in inc] == ["0", "2", "3"]
    assert sub.is_hom_map(inc, a)


def test_subalgebra_full_generators():
    a = ka4_diamond()
    sub, inc = subalgebra_generated(a, range(a.size))
    assert sub.size == a.size
    assert inc == tuple(range(a.size))


def test_enumerate_homs_bool2_endos():
    a = bool2()
    homs = list(enumerate_homs(a, a))
    assert len(homs) == 1
    assert homs == [(0, 1)]


def test_enumerate_homs_n3_onto_S_and_no_section():
    a = n3()
    s, _ = subalgebra_generated(a, [a.label_index["2"]])
    pinned = {a.label_index["1"]: (s.label_index["2"],)}
    surjections = list(enumerate_homs(a, s, pinned, surjective=True))
    assert surjections
    for j in surjections:
        for i in enumerate_homs(s, a, injective=True):
            composite = [j[i[x]] for x in range(s.size)]
            assert composite != list(range(s.size))


def test_enumerate_homs_no_embedding_k3_into_bool2():
    assert list(enumerate_homs(k3(), bool2(), injective=True)) == []


def test_enumerate_homs_deterministic():
    a, b = k3(), k3()
    first = list(enumerate_homs(a, b))
    second = list(enumerate_homs(a, b))
    assert first == second


def reference_closure(a, gens):
    """The round-based closure over tuple-keyed lookups, as derivation
    steps: each round runs every operation, in signature order, over the
    whole argument product of the closure order as it stood when that
    operation's pass began."""
    order, steps = [], []
    for i, g in enumerate(gens):
        if g not in order:
            order.append(g)
            steps.append((g, None, i))
    changed = True
    while changed:
        changed = False
        for op, arity in a.sig.ops:
            for args in itertools.product(order, repeat=arity):
                r = a.op(op, args)
                if r not in order:
                    order.append(r)
                    steps.append((r, op, args))
                    changed = True
    return steps


@pytest.mark.parametrize("factory", list(FACTORY_ALGEBRAS.values())
                         + [lambda: direct_product([n3(), n3()])[0]],
                         ids=list(FACTORY_ALGEBRAS) + ["n3xn3"])
def test_closure_matches_round_based_reference(factory):
    # the order and the first derivations set enumerate_homs' yield order
    # and min_generators' witness, so both must match exactly
    a = factory()
    for k in range(3):
        for gens in itertools.product(range(a.size), repeat=k):
            assert a.steps(gens) == reference_closure(a, gens)


def test_enumerate_homs_rejects_non_generating_gens():
    # a set that generates only a proper subalgebra fixes no map on the rest
    a = k3()
    assert a.subuniverse([0]) != tuple(a.elements())
    with pytest.raises(AlgebraError, match="^generators do not generate$"):
        next(enumerate_homs(a, k3(), gens=[0]))


def test_enumerate_homs_counts_a_repeated_generator_once():
    # one choice space per entry of gens gave k3's one endomorphism 3 times
    a = k3()
    assert list(enumerate_homs(a, a, gens=(1, 1))) == list(
        enumerate_homs(a, a, gens=(1,))) == [(0, 1, 2)]


def brute_force_homs(a, b):
    """Every map a -> b that commutes with every operation, in map order."""
    return [m for m in itertools.product(range(b.size), repeat=a.size)
            if all(b.op(op, tuple(m[x] for x in args)) == m[a.op(op, args)]
                   for op, arity in a.sig.ops
                   for args in itertools.product(range(a.size), repeat=arity))]


SAME_SIG_PAIRS = [(x, y) for x in FACTORY_ALGEBRAS for y in FACTORY_ALGEBRAS
                  if FACTORY_ALGEBRAS[x]().sig == FACTORY_ALGEBRAS[y]().sig]


@pytest.mark.parametrize("names", [*SAME_SIG_PAIRS, ("n3",) * 3],
                         ids=["-".join(x) for x in [*SAME_SIG_PAIRS, ("n3",) * 3]])
def test_subpower_is_the_decoded_product_closure(names):
    # read off the factors' tables, the closure of 0, 1 or 2 seed tuples
    # (0 seeds: the constants alone) is the product's subuniverse, decoded
    algebras = [FACTORY_ALGEBRAS[x]() for x in names]
    prod, projs = direct_product(algebras)
    decode = list(zip(*projs))
    index = {t: m for m, t in enumerate(decode)}
    for k in range(3):
        for seeds in itertools.combinations(decode, k):
            expected = {decode[m] for m in prod.subuniverse(map(index.get, seeds))}
            assert subpower(algebras, seeds) == expected, seeds


@pytest.mark.parametrize("dom,cod", SAME_SIG_PAIRS,
                         ids=[f"{x}-{y}" for x, y in SAME_SIG_PAIRS])
def test_enumerate_homs_matches_brute_force(dom, cod):
    a, b = FACTORY_ALGEBRAS[dom](), FACTORY_ALGEBRAS[cod]()
    _, gens = min_generators(a)
    expected = sorted(brute_force_homs(a, b), key=lambda m: [m[g] for g in gens])
    assert list(enumerate_homs(a, b)) == expected
    # allowed-image sets narrow the generators' choices and filter the rest;
    # each set holds one homomorphism's image, so some trials yield maps
    rng = random.Random(f"{dom}-{cod}")
    for trial in range(6):
        hom = rng.choice(expected) if expected and trial % 2 else None
        constrained = [g for g in gens if rng.random() < 0.7]
        constrained += [e for e in range(a.size)
                        if e not in gens and rng.random() < 0.5]
        allowed = {}
        for e in constrained:
            images = set(rng.sample(range(b.size), rng.randint(0, b.size - 1)))
            allowed[e] = images | {hom[e]} if hom else images
        assert list(enumerate_homs(a, b, allowed)) == [
            m for m in expected if all(m[e] in s for e, s in allowed.items())]


def test_quotient_by_identity_and_total():
    a = k4()
    q, epi = quotient(a, Congruence.identity(a.size))
    assert q.size == a.size
    assert epi == tuple(range(a.size)) and a.is_hom_map(epi, q)
    assert find_isomorphism(q, a) is not None
    q2, epi2 = quotient(a, Congruence.total(a.size))
    assert q2.size == 1
    assert epi2 == (0,) * a.size and a.is_hom_map(epi2, q2)


def test_kernel_identity_and_constant():
    a = bool2()
    ident, const = (0, 1), (0, 0)
    t = trivial_kleene()
    assert a.is_hom_map(ident, a) and a.is_hom_map(const, t)
    assert kernel(ident).is_identity()
    assert kernel(const).is_total()


def test_principal_congruence_reflexive_pair():
    a = k4()
    assert principal_congruence(a, 2, 2).is_identity()


@pytest.mark.parametrize("factory", SMALL_ALGEBRAS)
def test_congruence_lattice_matches_brute_force(factory):
    a = factory()
    computed = set(congruence_lattice(a))
    assert computed == brute_force_congruences(a)


@pytest.mark.parametrize("factory", [bool2, k3, n3, semilattice2])
def test_principal_congruence_is_least(factory):
    a = factory()
    allcon = brute_force_congruences(a)
    for x in range(a.size):
        for y in range(a.size):
            p = principal_congruence(a, x, y)
            containing = [t for t in allcon if t.related(x, y)]
            assert p in containing
            for t in containing:
                assert p.leq(t)


def test_congruence_lattice_closure_properties():
    for factory in (k3, n3, ka4_diamond):
        a = factory()
        lat = congruence_lattice(a)
        lat_set = set(lat)
        assert Congruence.identity(a.size) in lat_set
        assert Congruence.total(a.size) in lat_set
        for t1 in lat:
            for t2 in lat:
                assert t1.meet(t2) in lat_set
                join = t1.join(t2)
                assert join in lat_set
                # the old closure join is the oracle for the partition join
                assert join == congruence_generated(
                    a, [(i, t1.blocks[i]) for i in range(a.size)]
                    + [(i, t2.blocks[i]) for i in range(a.size)])


@pytest.mark.parametrize("factory", SMALL_ALGEBRAS)
def test_congruence_lattice_charges_each_batch_before_it(factory):
    # the union bound of the principal congruences, n - 1 merges each read
    # through every translation row, then a.size cells per congruence a
    # batch computes: the principal ones, the m * (m - 1) comparisons and
    # at most half as many joins that find the join-irreducible ones among
    # the m distinct principal ones, then each semi-naive join round, which
    # joins the congruences new in the last round with the join-irreducible
    # ones, replayed here
    a = factory()
    n = a.size
    charges = []
    lattice = congruence_lattice(a, charges.append)
    assert lattice == congruence_lattice(a)
    principal = {principal_congruence(a, x, y)
                 for x in range(n) for y in range(x + 1, n)}
    # join-irreducible: exactly one lower cover in the lattice
    below = {t: {u for u in lattice if u != t and u.leq(t)} for t in lattice}
    irreducible = {t for t in lattice
                   if len(below[t] - {v for u in below[t] for v in below[u]}) == 1}
    assert irreducible <= principal
    assert set(join_irreducibles(principal, Congruence.leq, Congruence.join,
                                 Congruence.identity(n))) == irreducible
    m = len(principal)
    unions = n * (n - 1) // 2 * (n - 1) * len(a._translations)
    expected = [unions, n * n * (n - 1) // 2, 3 * m * (m - 1) // 2 * n]
    found, frontier = set(irreducible), irreducible
    while frontier:
        expected.append(len(frontier) * len(irreducible) * n)
        frontier = {t.join(u) for t in frontier for u in irreducible} - found
        found |= frontier
    assert charges == expected
    assert found | {Congruence.identity(n), Congruence.total(n)} == set(lattice)
    # the full join closure of every pair found reaches no more
    full = found | {Congruence.identity(n)}
    assert {t.join(u) for t in full for u in full} <= full | {Congruence.total(n)}


def test_congruence_lattice_trivial_algebra():
    lat = congruence_lattice(trivial_kleene())
    assert len(lat) == 1
    assert lat[0].is_identity() and lat[0].is_total()


def test_min_generators_examples():
    four, _ = direct_product([bool2(), bool2()])
    size, gens = min_generators(four)
    assert size == 1
    assert gens == (1,)  # first atom in element order
    t = trivial_kleene()
    assert min_generators(t) == (0, ())
    assert min_generators(n3()) == (1, (1,))


def test_first_isomorphism_theorem_instances():
    # every enumerated surjection h: A -> B satisfies A/ker(h) iso B
    cases = [(n3(), subalgebra_generated(n3(), [n3().label_index["2"]])[0]),
             (k4(), k3()), (bool2(), bool2())]
    checked = 0
    for a, b in cases:
        for h in enumerate_homs(a, b, surjective=True):
            q, _ = quotient(a, kernel(h))
            assert find_isomorphism(q, b) is not None
            checked += 1
    assert checked > 0


def test_second_isomorphism_theorem_instances():
    a = n3()
    s, _ = subalgebra_generated(a, [a.label_index["2"]])
    checked = 0
    for f in enumerate_homs(a, s, surjective=True):
        for g in enumerate_homs(a, s):
            if kernel(f).leq(kernel(g)):
                h = factor_through(f, g, s)
                assert s.is_hom_map(h, s)
                assert [h[f[x]] for x in range(a.size)] == list(g)
                checked += 1
    assert checked > 0


def test_factor_through_rejects_bad_kernels():
    a = bool2()
    t = trivial_kleene()
    const, ident = (0, 0), (0, 1)
    with pytest.raises(AlgebraError, match="kernel condition"):
        factor_through(const, ident, t)  # ker f = total, ker g = identity


def test_congruence_canonical_form_and_order():
    theta = Congruence.from_map(["x", "y", "x", "z"])
    assert theta.blocks == (0, 1, 0, 3)
    assert theta.classes() == ((0, 2), (1,), (3,))
    assert Congruence.identity(3).leq(theta := Congruence.total(3))


def test_poset_covers_diamond():
    items = ["bot", "l", "r", "top"]
    order = {("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top"),
             ("bot", "top")} | {(x, x) for x in items}
    # the atoms are join-dense, and so is every item
    for dense in (["l", "r"], items):
        covers = poset_covers(items, lambda x, y: (x, y) in order, dense)
        assert covers == [(0, 1), (0, 2), (1, 3), (2, 3)]


@pytest.mark.parametrize("factory", SMALL_ALGEBRAS)
def test_poset_covers_of_con_match_brute_force(factory):
    # Con A's covers read from the principal masks, against the pairs
    # with nothing between them by pairwise comparison
    a = factory()
    lattice = congruence_lattice(a)
    lt = [(i, j) for i, t in enumerate(lattice) for j, u in enumerate(lattice)
          if i != j and t.leq(u)]
    between = {(i, j) for i, k in lt for k2, j in lt if k == k2}
    assert poset_covers(lattice, Congruence.leq, a.principal_congruences.values()) \
        == sorted(set(lt) - between)
