"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import json
import random

import pytest

from algen.algebra import (
    Congruence,
    congruence_lattice,
    direct_product,
    enumerate_homs,
    principal_congruence,
    quotient,
)
from algen.kleene import dual_poset, is_exact_by_quasieq, is_projective_by_duality
from algen.solver import (
    SymbolicProblem,
    alg_of,
    check_1ep,
    check_1esp,
    classify_all,
    compare_generality,
    e_congruences,
    g_congruences,
    pairwise_reduce,
    solve,
)
from algen.terms import Substitution, Var, apply_subst, parse_term, term_to_str
from algen.varfile import load_variety
from algen.variety import VarietyContext

from factories import brute_force_congruences, goedel_chain
from golden_cases import run_case
from oracles import (find_isomorphism, identity_holds_oracle, is_injective,
                     kernel, subalgebra_generated)
from test_solver import kernel_by_product_oracle, unary_solution_classes
from test_variety import free_size_oracle, random_term


def ok(n, message):
    print(f"ACCEPTANCE {n} PASS: {message}")


def ctx_for(path):
    return VarietyContext(load_variety(path))


def named_congruence(ctx, src_x, src_y):
    f1 = ctx.free_algebra(1)
    return principal_congruence(
        f1.algebra,
        f1.eval_term(parse_term(src_x, ctx.spec.sig)),
        f1.eval_term(parse_term(src_y, ctx.spec.sig)))


def solve_and_check(ctx, sources, bound=2):
    p = SymbolicProblem(ctx, tuple(parse_term(s, ctx.spec.sig) for s in sources))
    r = solve(p, bound)
    for entry in r.mcsg:
        for sigma, t in zip(entry.witnesses, p.terms):
            assert identity_holds_oracle(ctx.spec.generators,
                                         apply_subst(sigma, entry.term), t)
    return r


# ---------------------------------------------------------------------------


def test_criterion_1_boolean():
    ctx = ctx_for("varieties/boolean.var")
    f1 = ctx.free_algebra(1)
    assert f1.size == 4
    labels = {term_to_str(r) for r in f1.reps}
    assert labels == {"0", "x1", "not(x1)", "1"}

    lat = congruence_lattice(f1.algebra)
    assert len(lat) == 4
    delta = Congruence.identity(4)
    nabla = Congruence.total(4)
    t_z1 = named_congruence(ctx, "x1", "1")
    t_nz1 = named_congruence(ctx, "not(x1)", "1")
    assert set(lat) == {delta, t_z1, t_nz1, nabla}
    # the diamond, exactly: two incomparable middles
    assert delta.leq(t_z1) and delta.leq(t_nz1)
    assert t_z1.leq(nabla) and t_nz1.leq(nabla)
    assert not t_z1.leq(t_nz1) and not t_nz1.leq(t_z1)

    cls = classify_all(ctx, 2)
    for theta in (delta, t_z1, t_nz1):
        assert cls[theta].projective.status == "yes"
    assert cls[nabla].exact.status == "no"
    assert check_1ep(ctx, 2).status == "yes"
    assert check_1esp(ctx, 2).status == "yes"

    r = solve_and_check(ctx, ["or(x,not(x))", "1"])
    assert [term_to_str(e.term) for e in r.mcsg] == ["1"]
    assert r.type.render() == "unitary"
    ok(1, "Boolean: F(1), diamond Con, classifications, 1EP/1ESP, solve")


def test_criterion_2_kleene():
    ctx = ctx_for("varieties/kleene.var")
    f1 = ctx.free_algebra(1)
    assert f1.size == 6

    cls = classify_all(ctx, 2)
    assert len(cls) == 8
    projective = {t for t, c in cls.items() if c.projective.status == "yes"}
    expected_projective = {
        Congruence.identity(6),
        named_congruence(ctx, "x1", "and(x1,not(x1))"),
        named_congruence(ctx, "x1", "or(x1,not(x1))"),
        named_congruence(ctx, "x1", "1"),
        named_congruence(ctx, "x1", "0"),
    }
    assert projective == expected_projective
    assert len(projective) == 5

    # exact 1-generated quotients are F(1), K4 and the 2-element algebra
    from factories import bool2, k4

    exact_quotients = [quotient(f1.algebra, t)[0]
                       for t, c in cls.items() if c.exact.status == "yes"]
    expected = [f1.algebra, k4(), bool2()]
    assert all(any(find_isomorphism(q, e) for e in expected)
               for q in exact_quotients)
    assert all(any(find_isomorphism(q, e) for q in exact_quotients)
               for e in expected)

    members, complete = e_congruences(ctx, 2)
    assert complete
    extra = named_congruence(ctx, "or(x1,not(x1))", "1")
    assert set(members) == projective | {extra}

    # sampled problems over depth <= 3 terms in <= 3 variables: all unitary
    rng = random.Random(20260810)
    for _ in range(60):
        m = rng.choice([2, 2, 3])
        terms = tuple(random_term(rng, ctx.spec.sig, ["x", "y", "w"], 3)
                      for _ in range(m))
        r = solve(SymbolicProblem(ctx, terms), 2)
        assert r.type.render() == "unitary"
    ok(2, "Kleene: F(1)=6, Con=8 with 5 projective, exact quotients, "
          "E-congruences, sampled solves unitary")


def test_criterion_3_kleene_duality():
    ctx = ctx_for("varieties/kleene.var")
    f1 = ctx.free_algebra(1)

    p_free = dual_poset(f1.algebra)
    assert p_free.size == 4
    bot = p_free.labels.index("and(x1,not(x1))")
    top = p_free.labels.index("1")
    z = p_free.labels.index("x1")
    nz = p_free.labels.index("not(x1)")
    assert p_free.iota[bot] == top and p_free.iota[z] == z \
        and p_free.iota[nz] == nz
    assert p_free.le(bot, z) and p_free.le(bot, nz) \
        and p_free.le(z, top) and p_free.le(nz, top)

    from factories import bool2, k3, k4

    p_k4 = dual_poset(k4())
    assert p_k4.size == 3
    m, mm, one = (p_k4.labels.index(s) for s in ("m", "M", "1"))
    assert p_k4.le(m, mm) and p_k4.le(mm, one)
    assert p_k4.iota[m] == one and p_k4.iota[mm] == mm

    p_2 = dual_poset(bool2())
    assert p_2.size == 1 and p_2.iota == (0,)

    cls = classify_all(ctx, 2)
    for theta, c in cls.items():
        q, _ = quotient(f1.algebra, theta)
        assert is_exact_by_quasieq(q)[0] == (c.exact.status == "yes")
        ok_duality, _failed = is_projective_by_duality(dual_poset(q))
        assert ok_duality == (c.projective.status == "yes")

    ok_k3, failed = is_projective_by_duality(dual_poset(k3()))
    assert not ok_k3 and failed == 1
    ok(3, "Kleene duality: figure posets, agreement with generic searches, "
          "K3 fails condition (1)")


def test_criterion_4_n3_subalgebra():
    ctx = ctx_for("varieties/n3.var")
    gen = ctx.spec.generators[0]
    s, inc = subalgebra_generated(gen, [gen.label_index["2"]])
    assert [gen.labels[e] for e in inc] == ["0", "2", "3"]

    theta = named_congruence(ctx, "oplus(x1,x1)", "oplus(x1,oplus(x1,x1))")
    f1 = ctx.free_algebra(1)
    q, _ = quotient(f1.algebra, theta)
    assert find_isomorphism(q, s) is not None

    c = classify_all(ctx, 2)[theta]
    assert c.exact.status == "yes"
    assert c.projective.status == "no"
    transcript = c.projective.detail["search"]
    assert transcript
    for row in transcript:
        assert row["retraction_images_tried"] == 3
        assert row["retraction_found"] is False
    ok(4, "N3: Sg({2}) = {0,2,3}, exact but not projective, with the "
          "failed-retraction transcript")


def test_criterion_5_goedel():
    ctx = ctx_for("varieties/godel3.var")
    assert free_size_oracle([ctx.spec.generators[0]]) == 6  # independent oracle
    assert ctx.free_algebra(1).size == 6
    assert check_1ep(ctx, 2).status == "yes"

    g3, g4 = goedel_chain(3), goedel_chain(4)
    i = (g4.label_index["0"], g4.label_index["b"], g4.label_index["1"])
    assert g3.is_hom_map(i, g4) and is_injective(i)
    pinned = {i[x]: (x,) for x in range(g3.size)}
    sections = list(enumerate_homs(g4, g3, pinned))
    assert sections == []
    ok(5, "Goedel: F(1)=6 vs oracle, 1EP yes at bound 2, no retraction for "
          "G3 -> G4")


def test_criterion_6_trivial_free_varieties():
    for path, sources_list in [
        ("varieties/semilattice.var",
         [["or(x,y)", "or(y,w)"], ["x", "or(x,y)"], ["or(x,x)"]]),
        ("varieties/lattice.var",
         [["and(x,y)", "or(y,w)"], ["x", "y", "and(x,or(y,w))"]]),
    ]:
        ctx = ctx_for(path)
        assert ctx.free_algebra(1).size == 1
        for sources in sources_list:
            r = solve_and_check(ctx, sources)
            assert [term_to_str(e.term) for e in r.mcsg] == ["z"]
            assert r.type.render() == "unitary"
    ok(6, "semilattice and lattice: trivial F(1), every problem mcsg {z}, "
          "unitary")


def test_criterion_7a_congruence_lattice_oracle():
    paths = ["varieties/boolean.var", "varieties/kleene.var",
             "varieties/godel3.var", "varieties/n3.var",
             "varieties/semilattice.var", "varieties/lattice.var"]
    checked = 0
    for path in paths:
        ctx = ctx_for(path)
        algebras = list(ctx.spec.generators)
        algebras.append(ctx.free_algebra(1).algebra)
        for a in algebras:
            if a.size <= 6:
                assert set(congruence_lattice(a)) == brute_force_congruences(a)
                checked += 1
    assert checked >= 10
    ok("7a", f"congruence lattices equal brute-force enumeration "
             f"({checked} algebras)")


def test_criterion_7b_round_trip():
    cases = {
        "varieties/boolean.var": [
            ("or(x,not(x))", "1"), ("x", "not(x)"), ("and(x,y)", "or(x,y)"),
            ("x", "y"), ("0", "1"),
        ],
        "varieties/kleene.var": [
            ("and(x,not(x))", "and(y,not(y))"), ("x", "y"),
            ("or(x,not(x))", "1"), ("0", "1"), ("and(x,y)", "not(x)"),
        ],
    }
    for path, problems in cases.items():
        ctx = ctx_for(path)
        f1 = ctx.free_algebra(1)
        for sources in problems:
            terms = tuple(parse_term(s, ctx.spec.sig) for s in sources)
            ap = alg_of(SymbolicProblem(ctx, terms))
            g = g_congruences(ap, 2)
            assert g.status == "exact"
            assert g.upper == g.lower
            classes, _ = unary_solution_classes(ctx, terms)
            kernels = []
            for cls_ in classes:
                elem = f1.eval_term(
                    apply_subst(Substitution.make({"z": Var("x1")}), cls_[0]))
                kernels.append(kernel(f1.images(f1.algebra, (elem,))))
            assert len(set(kernels)) == len(kernels)
            assert set(kernels) == set(g.lower)
            for i, ci in enumerate(classes):
                for j, cj in enumerate(classes):
                    rel = compare_generality(ctx, ci[0], cj[0])
                    assert (rel in ("less", "equal")) == \
                        (kernels[j].leq(kernels[i]))
    ok("7b", "poset of 1-variable solutions is dually isomorphic to the "
             "G-congruences (Boolean and Kleene samples)")


def test_criterion_7c_kernel_two_ways():
    rng = random.Random(11)
    paths = ["varieties/boolean.var", "varieties/kleene.var",
             "varieties/godel3.var", "varieties/n3.var",
             "varieties/semilattice.var", "varieties/lattice.var"]
    for path in paths:
        ctx = ctx_for(path)
        for _ in range(100):
            m = rng.choice([1, 2, 3])
            terms = tuple(random_term(rng, ctx.spec.sig, ["x", "y"], 2)
                          for _ in range(m))
            ap = alg_of(SymbolicProblem(ctx, terms))
            assert ap.kernel == kernel_by_product_oracle(ap)
    ok("7c", "kernel via kernel intersection equals kernel via direct "
             "product evaluation (100 random problems x 6 varieties)")


def test_criterion_7d_pairwise_vs_solve():
    rng = random.Random(23)
    for path in ["varieties/boolean.var", "varieties/kleene.var"]:
        ctx = ctx_for(path)
        for _ in range(25):
            m = rng.choice([3, 4, 5])
            terms = tuple(random_term(rng, ctx.spec.sig, ["x", "y"], 2)
                          for _ in range(m))
            p = SymbolicProblem(ctx, terms)
            r1 = pairwise_reduce(p, 2)
            r2 = solve(p, 2)
            assert compare_generality(ctx, r1.mcsg[0].term,
                                      r2.mcsg[0].term) == "equal"
    ok("7d", "pairwise reduction agrees with solve up to equal generality "
             "(50 random problems)")


def test_criterion_7e_soundness_gate():
    # every emitted report re-verifies its witnesses; re-check a spread of
    # reports against the independent assignment oracle here
    checked = 0
    for path, sources in [
        ("varieties/boolean.var", ["or(x,not(x))", "1"]),
        ("varieties/kleene.var", ["and(x,not(x))", "and(y,not(y))"]),
        ("varieties/kleene.var", ["x", "not(x)"]),
        ("varieties/godel3.var", ["or(x,imp(x,0))", "1"]),
        ("varieties/semilattice.var", ["or(x,y)", "or(y,w)"]),
        ("varieties/lattice.var", ["and(x,y)", "or(y,w)"]),
    ]:
        ctx = ctx_for(path)
        r = solve_and_check(ctx, sources)
        checked += len(r.mcsg)
    assert checked >= 6
    ok("7e", "soundness gate: all emitted witnesses verified against the "
             "assignment oracle")


def test_criterion_8_out_of_scope_and_budget(tmp_path):
    readme = open("README.md", encoding="utf-8").read()
    assert "out of" in readme and "scope" in readme  # documented limitation

    labels = [str(i) for i in range(10)]
    doc = {
        "name": "freemonoidish",
        "signature": [["oplus", 2], ["0", 0]],
        "algebras": [{
            "name": "M9",
            "universe": labels,
            "ops": {
                "oplus": [[labels[min(i + j, 9)] for j in range(10)]
                          for i in range(10)],
                "0": "0",
            },
        }],
    }
    path = tmp_path / "freemonoidish.var"
    path.write_text(json.dumps(doc))
    code, _ = run_case(["free", str(path), "-n", "8"])
    assert code == 2
    ok(8, "infinite varieties documented out of scope; budget path exits "
          "with code 2")
