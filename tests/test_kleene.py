import copy
import itertools
import math
import pathlib
import random
import subprocess
import sys

import pytest

from algen.algebra import AlgebraError, FiniteAlgebra, quotient
from algen.kleene import (
    InvolutivePoset,
    NotKleeneError,
    dual_poset,
    is_exact_by_quasieq,
    is_projective_by_duality,
    verify_kleene,
)
from algen.solver import classify_all
from algen.terms import parse_term
from algen.varfile import dump_variety
from algen.variety import DEFAULT_BUDGET, BudgetExceeded, VarietyContext, VarietySpec

from factories import (
    LATTICE_BOUNDED_SIG,
    bool2,
    goedel_chain,
    k3,
    k4,
    ka4_diamond,
    kleene_chain,
    trivial_kleene,
)
from oracles import first_failing_law, projective_by_all_subsets


def de_morgan_fence():
    """4-element De Morgan diamond with both atoms negation-fixed: a De
    Morgan algebra that is not Kleene."""
    base = ka4_diamond()
    tables = {**base.tables, "not": [3, 1, 2, 0]}
    return FiniteAlgebra(LATTICE_BOUNDED_SIG, base.labels, tables)


def ka_ctx():
    return VarietyContext(VarietySpec("KA", k3().sig, (k3(),)))


def by_label(p, label):
    return p.labels.index(label)


# ---------------------------------------------------------------------------
# Verification of the Kleene axioms


def test_verify_kleene_accepts_standard_models():
    for a in (bool2(), k3(), k4(), ka4_diamond(), trivial_kleene()):
        verify_kleene(a)


def test_axioms_parsed_once_and_kleene_dual_verifies_once(monkeypatch, capsys):
    import algen.kleene as kleene
    from algen.cli import main

    kleene._parsed_axioms.cache_clear()
    parses, verifies = [], []
    parse = kleene.parse_term
    monkeypatch.setattr(kleene, "parse_term",
                        lambda *a: parses.append(a) or parse(*a))
    verify_kleene(k3())
    assert len(parses) == 2 * len(kleene._AXIOMS)
    verify_kleene(k4())
    assert len(parses) == 2 * len(kleene._AXIOMS)

    verify = kleene.verify_kleene
    monkeypatch.setattr(kleene, "verify_kleene",
                        lambda a: verifies.append(a) or verify(a))
    assert main(["kleene-dual", "varieties/kleene.var", "K3"]) == 0
    capsys.readouterr()
    assert len(verifies) == 1


def test_verify_kleene_names_failed_axiom():
    with pytest.raises(NotKleeneError) as exc:
        dual_poset(de_morgan_fence())
    assert exc.value.axiom == "Kleene"


def test_verify_kleene_names_the_first_failing_law_as_the_oracle_does():
    # single table entries of K3 and K4 changed at random (seeded): the law
    # check over the assignment index names the law that the assignment
    # oracle finds failing first, or none when both find the mutant Kleene
    import algen.kleene as kleene

    rng = random.Random(0)
    named = set()
    for base in (k3(), k4()):
        laws = [(name, parse_term(s, base.sig), parse_term(t, base.sig))
                for name, s, t in kleene._AXIOMS]
        for _ in range(60):
            op, arity = rng.choice(base.sig.ops)
            args = [rng.randrange(base.size) for _ in range(arity)]
            value = rng.choice([v for v in base.elements()
                                if v != base.op(op, tuple(args))])
            tables = copy.deepcopy(base.tables)
            if arity:
                row = tables[op]
                for x in args[:-1]:
                    row = row[x]
                row[args[-1]] = value
            else:
                tables[op] = value
            mutant = FiniteAlgebra(base.sig, base.labels, tables)
            try:
                verify_kleene(mutant)
                axiom = None
            except NotKleeneError as e:
                axiom = e.axiom
            assert axiom == first_failing_law(mutant, laws), (op, args, value)
            named.add(axiom)
    assert len(named) >= 8, named


def test_kleene_dual_charges_the_law_check_to_the_default_budget(tmp_path):
    # 216^3 + 3 assignment cells exceed 10^7, so the first three-variable
    # law ends the run with the budget exit instead of |A|^3 evaluations
    chain = kleene_chain([str(i) for i in range(216)], lambda i: 215 - i)
    path = tmp_path / "chain.var"
    path.write_text(dump_variety(VarietySpec("chain", chain.sig, (chain,))))
    r = subprocess.run([sys.executable, "-m", "algen.cli", "kleene-dual",
                        str(path), "A0"], capture_output=True, text=True,
                       timeout=5, cwd=pathlib.Path(__file__).parent.parent)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.count("\n") == 1
    assert "assignment index set" in r.stderr


def test_verify_kleene_rejects_wrong_signature():
    with pytest.raises(NotKleeneError) as exc:
        verify_kleene(goedel_chain(3))
    assert exc.value.axiom is None


def test_kleene_dual_names_the_missing_operation(capsys):
    from algen.cli import main

    assert main(["kleene-dual", "varieties/n3.var", "N3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: not a Kleene algebra: signature lacks and/2\n"


# ---------------------------------------------------------------------------
# Duals of the 1-generated exact Kleene algebras (the three figure posets)


def test_dual_of_free_algebra_is_four_point_poset():
    ka = ka_ctx()
    p = dual_poset(ka.free_algebra(1).algebra)
    assert p.size == 4
    bot = by_label(p, "and(x1,not(x1))")
    z = by_label(p, "x1")
    nz = by_label(p, "not(x1)")
    top = by_label(p, "1")
    assert p.le(bot, z) and p.le(bot, nz) and p.le(z, top) and p.le(nz, top)
    assert not p.le(z, nz) and not p.le(nz, z)
    assert p.iota[bot] == top and p.iota[top] == bot
    assert p.iota[z] == z and p.iota[nz] == nz


def test_dual_of_k4_is_three_point_chain():
    p = dual_poset(k4())
    assert p.size == 3
    m, mm, top = by_label(p, "m"), by_label(p, "M"), by_label(p, "1")
    assert p.le(m, mm) and p.le(mm, top)
    assert p.iota[m] == top and p.iota[top] == m and p.iota[mm] == mm


def test_dual_of_2ka_is_single_fixpoint():
    p = dual_poset(bool2())
    assert p.size == 1
    assert p.labels == ("1",)
    assert p.iota == (0,)


def test_dual_of_k3_is_swapped_two_chain():
    p = dual_poset(k3())
    assert p.size == 2
    a, top = by_label(p, "a"), by_label(p, "1")
    assert p.le(a, top)
    assert p.iota[a] == top and p.iota[top] == a


# ---------------------------------------------------------------------------
# Projectivity via the dual poset


def test_projectivity_conditions_on_figure_posets():
    ka = ka_ctx()
    assert is_projective_by_duality(dual_poset(ka.free_algebra(1).algebra)) \
        == (True, None)
    assert is_projective_by_duality(dual_poset(bool2())) == (True, None)
    assert is_projective_by_duality(dual_poset(k4())) == (True, None)


def test_k3_dual_fails_condition_one():
    ok, failed = is_projective_by_duality(dual_poset(k3()))
    assert not ok
    assert failed == 1


def test_diamond_dual_not_projective():
    ok, failed = is_projective_by_duality(dual_poset(ka4_diamond()))
    assert not ok


def random_involutive_poset(rng):
    """m points x < iota(x), k fixpoints and the m images, with random
    relations from each of the m points to later ones of them, to the
    fixpoints and to the images, closed under iota and transitivity; every
    relation leads upward through those three groups, so none closes to a
    cycle."""
    m, k = rng.randint(0, 4), rng.randint(0, 3)
    n = 2 * m + k
    iota = [*range(m + k, n), *range(m, m + k), *range(m)]
    le = [[x == y for y in range(n)] for x in range(n)]
    for x in range(m):
        le[x][iota[x]] = True
        for y in range(x + 1, m + k):
            le[x][y] |= rng.random() < 0.4
        for y in range(m):
            le[x][iota[y]] |= rng.random() < 0.2
    for x, y in itertools.product(range(n), repeat=2):
        if le[x][y]:
            le[iota[y]][iota[x]] = True
    for w, x in itertools.product(range(n), repeat=2):
        if le[x][w]:
            le[x] = list(map(max, le[x], le[w]))
    return InvolutivePoset(tuple(map(str, range(n))), frozenset(
        (x, y) for x, y in itertools.product(range(n), repeat=2) if le[x][y]),
        tuple(iota))


def test_condition_two_on_pairs_and_triples_agrees_with_all_subsets():
    # seeded random involutive posets: the verdict that checks condition 2
    # on the pairs and triples of q is the one that checks every subset
    rng = random.Random(0)
    verdicts = []
    for _ in range(400):
        p = random_involutive_poset(rng)
        verdicts.append(is_projective_by_duality(p))
        assert verdicts[-1] == projective_by_all_subsets(p), p
    assert verdicts.count((False, 2)) >= 5
    assert (True, None) in verdicts


def test_a_poset_that_fails_only_condition_four():
    # draw 692, counted from 0, of random_involutive_poset(random.Random(0)):
    # 1 and 2 lie below each other's images 7 and 8, but no point
    # w <= iota(w) lies above both
    strict = [(0, y) for y in range(1, 9)] + [
        (1, 5), (1, 6), (1, 7), (1, 8), (2, 3), (2, 4), (2, 6), (2, 7), (2, 8),
        (3, 6), (3, 8), (4, 6), (4, 8), (5, 6), (5, 7), (7, 6), (8, 6)]
    p = InvolutivePoset(tuple(map(str, range(9))),
                        frozenset(strict + [(x, x) for x in range(9)]),
                        (6, 7, 8, 3, 4, 5, 0, 1, 2))
    assert is_projective_by_duality(p) == (False, 4)
    assert projective_by_all_subsets(p) == (False, 4)


def test_conditions_read_the_order_without_pairwise_lookups(monkeypatch):
    # the conditions read the order's bitmasks, not ``le``: scanning lists
    # of bounds made 1,083,680 lookups here
    p = dual_poset(kleene_chain([str(i) for i in range(60)], lambda i: 59 - i))
    calls = []
    le = InvolutivePoset.le
    monkeypatch.setattr(InvolutivePoset, "le",
                        lambda self, x, y: calls.append(1) or le(self, x, y))
    assert is_projective_by_duality(p) == (True, None)
    assert len(calls) <= p.size ** 2


def test_condition_two_charges_its_pairs_and_triples_first():
    # a fan: 400 points a_i below the fixpoint f, each swapped with a point
    # b_i above it, so q has 401 points; C(401, 2) + C(401, 3) exceeds the
    # default budget, so the check ends before it scans a triple
    m = 400
    a, f, b = range(m), m, range(m + 1, 2 * m + 1)
    leq = frozenset([*((x, x) for x in range(2 * m + 1)),
                     *((x, f) for x in a), *((f, y) for y in b),
                     *((x, y) for x in a for y in b)])
    p = InvolutivePoset(tuple(map(str, range(2 * m + 1))), leq,
                        (*b, f, *a))
    with pytest.raises(BudgetExceeded) as exc:
        is_projective_by_duality(p)
    assert exc.value.stage == "kleene duality"
    assert exc.value.needed == math.comb(m + 1, 2) + math.comb(m + 1, 3)
    assert exc.value.limit == DEFAULT_BUDGET


def test_kleene_dual_of_a_forty_element_chain_ends_quickly(tmp_path):
    # condition 2 over every subset of q took hours here; pairs and triples
    # take well under a second
    chain = kleene_chain([str(i) for i in range(40)], lambda i: 39 - i)
    path = tmp_path / "chain.var"
    path.write_text(dump_variety(VarietySpec("chain", chain.sig, (chain,))))
    r = subprocess.run([sys.executable, "-m", "algen.cli", "kleene-dual",
                        str(path), "A0"], capture_output=True, text=True,
                       timeout=10, cwd=pathlib.Path(__file__).parent.parent)
    assert r.returncode == 0, r.stderr
    assert "projective (duality conditions): yes\n" in r.stdout


# ---------------------------------------------------------------------------
# Exactness via the quasi-equation


def test_quasieq_diamond_top_not_join_irreducible():
    assert is_exact_by_quasieq(ka4_diamond()) == (False, "1 is not join irreducible")


def test_quasieq_k3_fails_at_fixpoint():
    ok, reason = is_exact_by_quasieq(k3())
    assert not ok
    assert "quasi-equation fails" in reason


def test_quasieq_k4_and_friends_exact():
    assert is_exact_by_quasieq(k4()) == (True, None)
    assert is_exact_by_quasieq(bool2()) == (True, None)
    ka = ka_ctx()
    assert is_exact_by_quasieq(ka.free_algebra(1).algebra) == (True, None)


def test_quasieq_trivial_algebra():
    assert is_exact_by_quasieq(trivial_kleene()) == (False, "trivial algebra")


# ---------------------------------------------------------------------------
# Cross-validation against the generic searches


def test_duality_agrees_with_generic_on_all_quotients():
    ka = ka_ctx()
    f1 = ka.free_algebra(1)
    cls = classify_all(ka)
    assert len(cls) == 8
    for theta, c in cls.items():
        q, _ = quotient(f1.algebra, theta)
        assert c.exact.status in ("yes", "no")
        assert is_exact_by_quasieq(q)[0] == (c.exact.status == "yes")
        if q.size > 1:
            assert is_projective_by_duality(dual_poset(q))[0] \
                == (c.projective.status == "yes")
        else:
            # the trivial algebra has an empty dual; condition 3 fails
            ok, failed = is_projective_by_duality(dual_poset(q))
            assert not ok and failed == 3
            assert c.projective.status == "no"


# ---------------------------------------------------------------------------
# Structural invariants and serialization


def test_involutive_poset_validation():
    # one poset per law the constructor checks, each breaking that law only
    def make(n, leq, iota):
        return InvolutivePoset(tuple("abcd"[:n]), frozenset(leq), iota)

    discrete = [(0, 0), (1, 1)]
    cases = [
        # pairs outside the points, which the order's bitmasks would drop
        ("order pair out of range", (1, [(0, 0), (3, 5), (-1, 0)], (0,))),
        ("order not reflexive", (2, [(0, 1)], (1, 0))),
        ("order not antisymmetric", (2, [*discrete, (0, 1), (1, 0)], (1, 0))),
        # 0 <= 1 <= 2 <= 0 with none of the composites
        ("order not transitive",
         (3, [*discrete, (2, 2), (0, 1), (1, 2), (2, 0)], (2, 1, 0))),
        # a map of the points that is not a bijection is not an involution
        # either, so this one is an involution of the two points with an
        # entry too many
        ("involution is not a bijection", (2, discrete, (0, 1, 1))),
        # a 4-cycle reversing the crown 1, 3 < 0, 2
        ("involution is not an involution",
         (4, [*discrete, (2, 2), (3, 3), (1, 0), (1, 2), (3, 0), (3, 2)],
          (1, 2, 3, 0))),
        ("a point is incomparable with its image", (2, discrete, (1, 0))),
        ("involution is not order-reversing", (2, [*discrete, (1, 0)], (0, 1))),
    ]
    for message, args in cases:
        with pytest.raises(AlgebraError, match=f"^{message}$"):
            make(*args)


def test_iota_laws_on_produced_posets():
    for a in (bool2(), k3(), k4(), ka4_diamond()):
        p = dual_poset(a)
        for x in range(p.size):
            assert p.iota[p.iota[x]] == x
            for y in range(p.size):
                if p.le(x, y):
                    assert p.le(p.iota[y], p.iota[x])


def test_poset_dot_output(tmp_path, capsys):
    # K4 = 0 < m < M < 1: its dual poset is m < M < 1 with M fixed, an arc
    # the K3 golden has no instance of
    from algen.cli import main

    path = tmp_path / "k4.var"
    path.write_text(dump_variety(VarietySpec("k4", k4().sig, (k4(),))))
    argv = ["kleene-dual", str(path), "A0", "--dot"]
    assert main(argv) == 0
    dot = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == dot
    assert dot.startswith('digraph "dual_A0" {\n')
    assert "  p1 -> p1 [style=dashed, constraint=false];\n" in dot
    assert "  p0 -> p2 [dir=both, style=dashed, constraint=false];\n" in dot
