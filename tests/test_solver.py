import functools
import itertools
import json
import math
import random
import re
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from algen.algebra import (
    AlgebraError,
    Congruence,
    FiniteAlgebra,
    direct_product,
    enumerate_homs,
    min_generators,
    principal_congruence,
    quotient,
)
from algen.solver import (
    InternalVerificationError,
    SolutionEntry,
    _instance_substitution,
    _verify_entry,
    _product_shortcut,
    _shortcut_solution,
    SolverError,
    SymbolicProblem,
    alg_of,
    check_1ep,
    check_1esp,
    classify_all,
    classify_congruence,
    compare_generality,
    congruence_name,
    e_congruences,
    g_congruences,
    pairwise_reduce,
    solve,
    symbolic_solution,
    two_term_unitary,
)
from algen.terms import (App, Substitution, TermError, Var, apply_subst, parse_term, term_to_str,
                         term_vars)
from algen.variety import (Budget, BudgetExceeded, FreeAlgebra, VarietyContext,
                           VarietySpec)

from factories import (bool2, goedel_chain, k3, k4, ka4_diamond, lattice2, n3,
                       semilattice2)
from golden_cases import CASES, EXPECTED_EXIT
from oracles import (find_isomorphism, identity_holds_oracle, kernel, lgg_violations,
                     subalgebra_generated)
from test_variety import index_env


def mk(name, *gens, budget=None):
    spec = VarietySpec(name, gens[0].sig, tuple(gens))
    if budget is None:
        return VarietyContext(spec)
    return VarietyContext(spec, budget_limit=budget)


@pytest.fixture(scope="module")
def ba():
    return mk("BA", bool2())


@pytest.fixture(scope="module")
def ka():
    return mk("KA", k3())


@pytest.fixture(scope="module")
def n3v():
    return mk("N3", n3())


@pytest.fixture(scope="module")
def sl():
    return mk("SL", semilattice2())


@pytest.fixture(scope="module")
def la():
    return mk("L", lattice2())


def prob(ctx, *sources):
    return SymbolicProblem(ctx, tuple(parse_term(s, ctx.spec.sig) for s in sources))


def f1_element(ctx, src):
    f1 = ctx.free_algebra(1)
    return f1.eval_term(parse_term(src, ctx.spec.sig))


def f1_congruence(ctx, src_x, src_y):
    f1 = ctx.free_algebra(1)
    return principal_congruence(f1.algebra, f1_element(ctx, src_x),
                                f1_element(ctx, src_y))


# ---------------------------------------------------------------------------
# Oracles


def kernel_by_product_oracle(ap):
    """Lemma-free route: materialize the factor product and take the kernel
    of the evaluation into it directly."""
    algebras = [f.algebra for f in ap.entries]
    prod, projs = direct_product(algebras)
    f1 = ap.ctx.free_algebra(1)
    images = []
    for rep in f1.reps:
        per_factor = tuple(alg.eval(rep, {"x1": 0}) for alg in algebras)
        elem = next(e for e in range(prod.size)
                    if tuple(pr[e] for pr in projs) == per_factor)
        images.append(elem)
    return Congruence.from_map(images)


def double_search_shortcut(ap, bound):
    """The product shortcut as an injective-hom search from the factor
    product P into F(n), each candidate followed by a search for a
    retraction pinned on its image: P is a retract of F(n).  Returns the
    report dict and the solution entry built from the first such pair."""
    ctx, factors = ap.ctx, ap.entries
    no_gens = {"status": "skipped",
               "reason": f"no generating set of size <= {bound}"}
    # the program's prune: a k-generated algebra has at most |F(k)| elements
    try:
        if math.prod(f.algebra.size for f in factors) > ctx.free_algebra(bound).size:
            return no_gens, None
    except BudgetExceeded:
        pass
    prod, projs = direct_product([f.algebra for f in factors])
    try:
        n, gens = min_generators(prod, max_size=bound)
    except AlgebraError:
        return no_gens, None
    try:
        fk = ctx.free_algebra(max(n, 1))
    except BudgetExceeded:
        return {"status": "skipped", "reason": "free algebra above budget"}, None
    for i_hom in enumerate_homs(prod, fk.algebra, injective=True, gens=gens):
        pinned = {i_hom[x]: (x,) for x in range(prod.size)}
        for j_hom in enumerate_homs(fk.algebra, prod, pinned, gens=fk.generators):
            h = next(e for e in range(prod.size)
                     if all(pr[e] == 0 for pr in projs))
            out_vars = {f"x{i + 1}": Var(f"z{i + 1}") for i in range(fk.n)}
            term = apply_subst(Substitution.make(out_vars), fk.reps[i_hom[h]])
            witnesses = tuple(
                Substitution.make({f"z{i + 1}": ap.witness(k, pr[j_hom[x]])
                                   for i, x in enumerate(fk.generators)})
                for k, pr in enumerate(projs))
            note = {"status": "projective", "generators": n,
                    "note": "the problem is the minimum of its solution "
                            "poset; type unitary"}
            return note, SolutionEntry(term, witnesses)
    return {"status": "not-projective", "generators": n}, None


def solve_with_double_search(p, bound=2):
    """solve() with the double search in place of the section search."""
    import algen.solver as solver_mod

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_mod, "_product_shortcut", double_search_shortcut)
        mp.setattr(solver_mod, "_shortcut_solution", lambda ap, entry: entry)
        return solve(p, bound)


def vector_search_instance(ctx, s, more_general):
    """A substitution sending ``more_general`` to ``s``, by substituting each
    candidate and comparing value vectors over all assignments."""
    vars_target = term_vars(more_general)
    if not vars_target:
        return (Substitution.empty()
                if ctx.holds_identity(s, more_general) else None)
    vars_s = term_vars(s)
    try:
        free_s = ctx.generated_by_terms(vars_s, [Var(v) for v in vars_s])
    except AlgebraError:
        return None
    Budget(ctx.budget_limit).charge(
        free_s.algebra.size ** len(vars_target), "generality search")
    index, env = index_env(ctx.spec, vars_s, Budget(ctx.budget_limit))
    target_vec = index.eval_term(s, env)
    for assign in itertools.product(range(free_s.algebra.size),
                                    repeat=len(vars_target)):
        sigma = Substitution.make(
            {v: free_s.reps[e] for v, e in zip(vars_target, assign)})
        if index.eval_term(apply_subst(sigma, more_general), env) == target_vec:
            return sigma
    return None


def vector_search_witnesses(ap, final):
    """Per exact factor, the first z -> element under which ``final``
    has the value vector of the factor's term."""
    out = []
    index, env = index_env(ap.ctx.spec, ap.problem.variables, Budget(ap.ctx.budget_limit))
    for k, (factor, t) in enumerate(zip(ap.entries, ap.problem.terms)):
        target = index.eval_term(t, env)
        out.append(next(
            sigma for sigma in (Substitution.make({"z": ap.witness(k, e)})
                                for e in factor.algebra.elements())
            if index.eval_term(apply_subst(sigma, final), env) == target))
    return tuple(out)


def unary_solution_classes(ctx, terms):
    """Oracle: all 1-variable solutions of the problem, found by exhaustive
    search over generalization images in F(X), grouped into equal-generality
    classes and returned with their minimal classes.

    A 1-variable candidate s solves {t_k} iff every t_k lies in the range of
    s as a function on F(X)."""
    names = []
    for t in terms:
        term_vars(t, names)
    fx = ctx.generated_by_terms(names, [Var(v) for v in names])
    index, env = index_env(ctx.spec, names, Budget(ctx.budget_limit))
    f1 = ctx.free_algebra(1)
    rename = Substitution.make({"x1": Var("z")})

    sols = []
    for u in range(f1.size):
        s = apply_subst(rename, f1.reps[u])
        ok = True
        for t in terms:
            target = index.eval_term(t, env)
            if not any(index.eval_term(
                    apply_subst(Substitution.make({"z": fx.reps[e]}), s), env) == target
                    for e in range(fx.algebra.size)):
                ok = False
                break
        if ok:
            sols.append(s)

    classes = []
    for s in sols:
        for cls in classes:
            if compare_generality(ctx, s, cls[0]) == "equal":
                cls.append(s)
                break
        else:
            classes.append([s])

    def class_leq(c1, c2):
        return compare_generality(ctx, c1[0], c2[0]) in ("less", "equal")

    minimal = [c for c in classes
               if not any(c2 is not c and class_leq(c2, c) for c2 in classes)]
    return classes, minimal


# ---------------------------------------------------------------------------
# alg_of


def test_alg_of_boolean_factors(ba):
    ap = alg_of(prob(ba, "or(x,not(x))", "1"))
    for k, f in enumerate(ap.entries):
        assert f.algebra.size == 2
        assert term_to_str(ap.witness(k, 0)) == "1"


def test_alg_of_kleene_chain_factors(ka):
    ap = alg_of(prob(ka, "and(x,not(x))", "and(y,not(y))"))
    factors = ap.entries
    assert [f.algebra.size for f in factors] == [4, 4]
    for f in factors:
        assert find_isomorphism(f.algebra, k4()) is not None


def test_alg_of_single_term_injective(ka):
    ap = alg_of(prob(ka, "x"))
    assert len(ap.entries) == 1
    assert ap.kernel.is_identity()


def test_alg_of_projections_surjective(ka):
    # p_k . h is onto E(t_k): the unary-term images of t_k cover the factor
    ap = alg_of(prob(ka, "and(x,not(x))", "or(y,1)"))
    f1 = ap.ctx.free_algebra(1)
    for f in ap.entries:
        images = {f.algebra.eval(rep, {"x1": 0}) for rep in f1.reps}
        assert images == set(range(f.algebra.size))


# ---------------------------------------------------------------------------
# Kernels


def test_kernel_kleene_meet_of_contradictions(ka):
    ap = alg_of(prob(ka, "and(x,not(x))", "and(y,not(y))"))
    assert ap.kernel == f1_congruence(ka, "x1", "and(x1,not(x1))")


def test_kernel_boolean_tautology(ba):
    ap = alg_of(prob(ba, "or(x,not(x))", "1"))
    assert ap.kernel == f1_congruence(ba, "x1", "1")


def test_kernel_intersection_vs_product_oracle(ba, ka):
    rng = random.Random(7)
    from test_variety import random_term

    for ctx in (ba, ka):
        for _ in range(100):
            m = rng.choice([1, 2, 3])
            terms = tuple(random_term(rng, ctx.spec.sig, ["x", "y"], 2)
                          for _ in range(m))
            ap = alg_of(SymbolicProblem(ctx, terms))
            assert ap.kernel == kernel_by_product_oracle(ap)


# ---------------------------------------------------------------------------
# Classification


def test_classify_kleene_k4_quotient(ka):
    theta = f1_congruence(ka, "x1", "and(x1,not(x1))")
    c = classify_congruence(ka, theta)
    assert c.exact.status == "yes"
    assert c.projective.status == "yes"
    q, _ = quotient(ka.free_algebra(1).algebra, theta)
    assert find_isomorphism(q, k4()) is not None


def test_classify_kleene_k3_quotient_not_exact(ka):
    theta = f1_congruence(ka, "x1", "not(x1)")
    c = classify_congruence(ka, theta)
    assert c.exact.status == "no"
    q, _ = quotient(ka.free_algebra(1).algebra, theta)
    assert find_isomorphism(q, k3()) is not None


def test_classify_kleene_diamond_quotient_not_exact(ka):
    theta = f1_congruence(ka, "or(x1,not(x1))", "1")
    c = classify_congruence(ka, theta)
    assert c.exact.status == "no"
    q, _ = quotient(ka.free_algebra(1).algebra, theta)
    assert find_isomorphism(q, ka4_diamond()) is not None


def test_classify_kleene_exact_quotients_are_f1_k4_2(ka):
    f1 = ka.free_algebra(1)
    exact_quotients = []
    for theta, c in classify_all(ka).items():
        assert c.exact.status in ("yes", "no")  # all definitive at bound 2
        if c.exact.status == "yes":
            q, _ = quotient(f1.algebra, theta)
            exact_quotients.append(q)
    expected = [ka.free_algebra(1).algebra, k4(), bool2()]
    for q in exact_quotients:
        assert any(find_isomorphism(q, e) is not None for e in expected)
    for e in expected:
        assert any(find_isomorphism(q, e) is not None for q in exact_quotients)


def test_classify_rejects_a_congruence_out_of_canonical_form():
    # blocks (4, 5, 2, 3, 4, 5) partition F(1) as (0, 1, 2, 3, 0, 1) does,
    # but name no least member; read as they stand they matched no kernel,
    # and both verdicts came out an unsound "no"
    from algen.varfile import load_variety

    ctx = VarietyContext(load_variety("varieties/kleene.var"))
    canonical = Congruence((0, 1, 2, 3, 0, 1))
    c = classify_congruence(ctx, canonical)
    assert (c.exact.status, c.projective.status) == ("yes", "yes")
    with pytest.raises(SolverError, match="canonical form"):
        classify_congruence(ctx, Congruence((4, 5, 2, 3, 4, 5)))


def test_classify_rejects_a_partition_that_is_not_a_congruence(ka):
    # canonical, but F(1)'s first two elements generate a larger congruence;
    # the quotient's tables would read each block's least member regardless
    with pytest.raises(SolverError,
                       match=r"partition \(0, 0, 2, 3, 4, 5\) is not a congruence"):
        classify_congruence(ka, Congruence((0, 0, 2, 3, 4, 5)))


@pytest.mark.parametrize("variety", ["boolean", "kleene", "godel3", "n3",
                                     "semilattice", "lattice"])
def test_engine_paths_run_no_homomorphism_check(variety, monkeypatch):
    # the quotient's natural map commutes by construction, and the tests
    # check it; classification and solving must not recheck it on every call
    from algen.varfile import load_variety

    def refuse(*args):
        raise AssertionError("is_hom_map called on an engine path")

    monkeypatch.setattr(FiniteAlgebra, "is_hom_map", refuse)
    ctx = VarietyContext(load_variety(f"varieties/{variety}.var"))
    classify_all(ctx)
    check_1esp(ctx)
    op, arity = max(ctx.spec.sig.ops, key=lambda o: o[1])
    terms = tuple(App(op, (Var(v),) * arity) for v in "xy")
    solve(SymbolicProblem(ctx, terms))


def test_classify_all_builds_con_f1_once_per_context(monkeypatch):
    # counted: the lattice does not depend on the bound, and F(1)'s
    # C(4, 2) principal congruences are computed once, also for the names
    from algen import algebra
    from algen.solver import classification_rows
    from algen.varfile import load_variety

    counted = {"congruence_lattice": [], "principal_congruence": []}
    for name, calls in counted.items():
        real = getattr(algebra, name)
        for modname, module in list(sys.modules.items()):
            if modname.startswith("algen.") and vars(module).get(name) is real:
                monkeypatch.setattr(module, name, lambda *a, real=real, calls=calls:
                                    calls.append(a) or real(*a))
    ctx = VarietyContext(load_variety("varieties/n3.var"))
    assert ctx.free_algebra(1).size == 4
    for bound in (2, 3):
        classification_rows(ctx, classify_all(ctx, bound))
    assert [len(calls) for calls in counted.values()] == [1, 6]


@pytest.mark.parametrize("variety", ["boolean", "kleene"])
def test_classification_walks_each_free_algebra_once(variety, monkeypatch):
    # counted: each congruence scans each F(k) up to the bound for
    # embeddings once and searches it for retractions at most once, so F(1)
    # is not scanned again for exactness nor searched again for strong
    # projectivity
    from algen import solver
    from algen.varfile import load_variety

    calls = {"_embedding_elements": 0, "_first_assignments": 0}
    for name in calls:
        real = getattr(solver, name)

        def counting(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(solver, name, counting)
    ctx = VarietyContext(load_variety(f"varieties/{variety}.var"))
    cls = classify_all(ctx, 2)
    assert all(n <= 2 * len(cls) for n in calls.values()), (calls, len(cls))


def test_exactness_certificate_reads_the_generators_once(monkeypatch):
    # the certificate closes its relations on the generating algebras' own
    # tables, so it builds no product: neither the square A x A of its
    # pointed relations nor A x B of its HS test, which kleene with K3's
    # subalgebra {0,1} appended reaches.  Its values, ranges and relations
    # do not depend on the congruence, so a context builds them once, and
    # its values are the evaluation kernels' images: F(1)'s images at each
    # element of a generating algebra are taken once
    from algen import algebra, solver
    from algen.varfile import load_variety

    kleene = load_variety("varieties/kleene.var")
    k3_ = kleene.generators[0]
    appended = VarietySpec(kleene.name, kleene.sig,
                           (k3_, subalgebra_generated(k3_, ())[0]))

    def no_product(algebras):
        raise AssertionError(f"a product of {algebras} was built")

    def counting_subpower(algebras, seeds):
        closures.append(algebras)
        return real_subpower(algebras, seeds)

    def counting_images(self, target, points, *rest):
        if target in spec.generators:
            images.append(points)
        return real_images(self, target, points, *rest)
    real_subpower, real_images = solver.subpower, FreeAlgebra.images
    monkeypatch.setattr(algebra, "direct_product", no_product)
    monkeypatch.setattr(solver, "subpower", counting_subpower)
    monkeypatch.setattr(FreeAlgebra, "images", counting_images)
    for spec in (kleene, appended):
        ctx = VarietyContext(spec)
        closures, images = [], []
        classify_all(ctx, 2)
        assert closures, spec
        assert solver._irredundant_generators(ctx) == [k3_]
        assert len(images) <= sum(a.size for a in spec.generators), images


# the golden solve problems that exit 0, so have a unitary or finitary
# verdict, each once: (golden file, var file, terms, pairwise)
_SOLVED = {(argv[1], tuple(a for a in argv[2:] if not a.startswith("--")),
            "--pairwise" in argv): fname
           for fname, argv in reversed(CASES)
           if argv[0] == "solve" and not EXPECTED_EXIT.get(fname)}


@pytest.mark.parametrize("path,terms,pairwise", list(_SOLVED), ids=_SOLVED.values())
def test_emitted_set_is_least_general_by_the_oracle(path, terms, pairwise):
    # the oracle finds the generalizers in F(2) and their instance order by
    # walking F(2) itself, without the engine's generality search
    from algen.varfile import load_variety

    ctx = VarietyContext(load_variety(path))
    problem = SymbolicProblem(ctx, tuple(parse_term(t, ctx.spec.sig) for t in terms))
    report = (pairwise_reduce if pairwise else solve)(problem)
    assert report.type.kind in ("unitary", "finitary")
    assert lgg_violations(ctx, problem.terms, [e.term for e in report.mcsg]) == []


@pytest.mark.parametrize("variety,count", [("boolean", 60), ("kleene", 16), ("n3", 60)])
def test_emitted_set_is_least_general_on_seeded_random_problems(variety, count):
    # two or three terms of depth <= 2 in x and y; the oracle has nothing to
    # check on an inconclusive verdict, which about half the n3 ones are.
    # kleene gets fewer problems: the oracle walks its F(2) of 84 elements
    # under 84^2 assignments twice per problem
    from algen.varfile import load_variety
    from test_variety import random_term

    ctx = VarietyContext(load_variety(f"varieties/{variety}.var"))
    rng = random.Random(1)
    checked = 0
    for _ in range(count):
        terms = tuple(random_term(rng, ctx.spec.sig, ["x", "y"], 2)
                      for _ in range(rng.choice([2, 3])))
        report = solve(SymbolicProblem(ctx, terms))
        if report.type.kind in ("unitary", "finitary"):
            emitted = [e.term for e in report.mcsg]
            assert lgg_violations(ctx, terms, emitted) == [], terms
            checked += 1
    assert checked >= count // 3


@pytest.mark.parametrize("variety", ["boolean", "kleene", "godel3", "n3",
                                     "semilattice", "lattice"])
def test_classify_all_is_in_lattice_order(variety):
    # the classification's readers take its order as the rows' order
    from algen.varfile import load_variety

    cls = classify_all(VarietyContext(load_variety(f"varieties/{variety}.var")))
    assert list(cls) == sorted(cls, key=Congruence.sort_key)


def test_classify_n3_subalgebra_exact_not_projective(n3v):
    theta = f1_congruence(n3v, "oplus(x1,x1)", "oplus(x1,oplus(x1,x1))")
    c = classify_congruence(n3v, theta)
    assert c.exact.status == "yes"
    assert c.projective.status == "no"
    search = c.projective.detail["search"]
    assert search and all(not row["retraction_found"] for row in search)
    assert all(row["retraction_images_tried"] > 0 for row in search)


def test_classify_flag_consistency(ba, ka, n3v):
    for ctx in (ba, ka, n3v):
        for c in classify_all(ctx).values():
            if c.projective.status == "yes":
                assert c.exact.status == "yes"
            if c.strongly_projective.status == "yes":
                assert c.projective.status == "yes"


def test_classify_retraction_search_transcript(ba, ka, n3v):
    to_z = Substitution.make({"x1": Var("z")})
    for ctx in (ba, ka, n3v):
        f1 = ctx.free_algebra(1)
        sig = ctx.spec.sig
        for theta, c in classify_all(ctx).items():
            q_alg, nat = quotient(f1.algebra, theta)
            zq = nat[f1.generators[0]]
            blocks = {tuple(term_to_str(apply_subst(to_z, f1.reps[e])) for e in cls):
                      cls for cls in theta.classes()}
            search = c.projective.detail["search"]
            # the search stops at the first embedding that retracts
            assert all(not row["retraction_found"] for row in search[:-1])
            for row in search:
                tried = row["retraction_images_tried"]
                assert 1 <= tried <= q_alg.size
                if not row["retraction_found"]:
                    assert tried == q_alg.size
                    assert row["retraction_image"] is None
                    continue
                image = tuple(row["retraction_image"])
                assert image in blocks
                q = nat[blocks[image][0]]
                # the hit is the last quotient element evaluated
                assert tried == q + 1
                emb = parse_term(row["embedding"], sig)
                assert q_alg.eval(emb, {"z": q}) == zq
                assert c.retract[1] == q


def ranked_embeddings(ctx, theta, k):
    """The embeddings of F(1)/theta into F(k), the elements t with
    ker(x1 -> t) = theta, ranked by their representatives' term_rank in
    F(k) with every representative settled."""
    from algen.terms import term_rank

    f1, fk = ctx.free_algebra(1), ctx.free_algebra(k)
    hits = [t for t in fk.algebra.elements()
            if Congruence.from_map(f1.images(fk.algebra, (t,))) == theta]
    return sorted(hits, key=lambda t: term_rank(fk.reps[t], ctx.spec.sig))


def per_term_retraction_searches(ctx, theta, bound):
    """The retraction searches evaluating each embedding's representative
    under each assignment, embeddings ranked by term_rank: the tried counts
    of the projectivity search, and the (arity, embedding) of the first
    embedding into some F(k), k up to the bound, that admits no retraction,
    or None."""
    from algen.solver import _first_assignment

    f1 = ctx.free_algebra(1)
    q_alg, nat = quotient(f1.algebra, theta)
    zq = nat[f1.generators[0]]

    tried = []
    for t in ranked_embeddings(ctx, theta, 1):
        found = _first_assignment(q_alg, f1.reps[t], ["x1"], zq)
        tried.append(q_alg.size if found is None else found[0] + 1)
        if found is not None:
            break
    for k in range(1, bound + 1):
        fk = ctx.free_algebra(k)
        names = [f"x{i + 1}" for i in range(k)]
        for t in ranked_embeddings(ctx, theta, k):
            if _first_assignment(q_alg, fk.reps[t], names, zq) is None:
                return tried, (k, term_to_str(fk.reps[t]))
    return tried, None


def groupoid3():
    """A 3-element groupoid whose first-ranked embedding into F(1), f(x1,x1),
    of a projective quotient admits no retraction."""
    from algen.terms import Signature

    sig = Signature.make([("f", 2)])
    return FiniteAlgebra(sig, ["0", "1", "2"],
                         {"f": [[0, 0, 2], [0, 2, 0], [2, 2, 0]]})


@pytest.mark.parametrize("name", ["boolean", "kleene", "godel3", "n3", "G34",
                                  "K34", "groupoid3"])
def test_retraction_searches_match_per_term_evaluation(name):
    # the searches answer every embedding from one derivation walk per
    # assignment; they give the transcript counts and the failure of the
    # searches that evaluate each representative on its own
    from algen.varfile import load_variety

    ctx = {"G34": lambda: mk("G34", goedel_chain(3), goedel_chain(4)),
           "K34": lambda: mk("K34", k3(), k4()),
           "groupoid3": lambda: mk("groupoid3", groupoid3())}.get(
        name, lambda: VarietyContext(load_variety(f"varieties/{name}.var")))()
    failures = 0
    for bound in (1, 2):
        for theta, c in classify_all(ctx, bound).items():
            tried, failure = per_term_retraction_searches(ctx, theta, bound)
            assert [row["retraction_images_tried"]
                    for row in c.projective.detail["search"]] == tried
            if c.projective.status != "yes":
                continue
            sp = c.strongly_projective
            assert (sp.status == "no") == (failure is not None)
            if failure is not None:
                failures += 1
                assert (sp.detail["arity"], sp.detail["embedding"]) == failure
    if name in ("G34", "groupoid3"):  # 1ESP fails there
        assert failures


def exact_at_two():
    """Two algebras over one binary operation, found by a seeded search of
    small varieties: some quotients of F(1) embed into F(2) but not into
    F(1), so classification prints their exactness element from F(2)."""
    from algen.terms import Signature

    sig = Signature.make([("f", 2)])
    return (FiniteAlgebra(sig, ["0", "1"], {"f": [[1, 1], [1, 0]]}),
            FiniteAlgebra(sig, ["0", "1", "2"],
                          {"f": [[2, 0, 2], [2, 1, 2], [2, 2, 2]]}))


def assert_printed_elements_are_rank_least(ctx, bound):
    """Each element of F(k) that classify_all prints, the exactness element
    and the strong projectivity failure, is the rank-least of its set in a
    fresh context whose F(k) has every representative settled, each
    embedding evaluated on its own; returns how many have arity 2."""
    oracle = VarietyContext(ctx.spec, ctx.budget_limit)
    at_two = 0
    for theta, c in classify_all(ctx, bound).items():
        if c.exact.status == "yes" and c.projective.status != "yes":
            k = c.exact.detail["arity"]
            assert not any(ranked_embeddings(oracle, theta, j) for j in range(1, k))
            least = ranked_embeddings(oracle, theta, k)[0]
            assert c.exact.detail["element"] == term_to_str(
                oracle.free_algebra(k).reps[least])
            at_two += k == 2
        sp = c.strongly_projective
        if sp.status == "no" and c.projective.status == "yes":
            assert (sp.detail["arity"], sp.detail["embedding"]) == (
                per_term_retraction_searches(oracle, theta, bound)[1])
            at_two += sp.detail["arity"] == 2
    return at_two


@pytest.mark.parametrize("name,at_two", [("G34", 2), ("groupoid3", 0),
                                         ("unary", 0), ("exact-at-two", 3)])
def test_printed_free_elements_are_rank_least(name, at_two):
    # classification reads F(2) as a closure and settles representatives
    # only up to the element it prints; that element must be the one a
    # fully settled F(2) ranks first
    from algen.varfile import loads_variety

    from test_cli import _UNARY

    ctx = {"G34": lambda: mk("G34", goedel_chain(3), goedel_chain(4)),
           "groupoid3": lambda: mk("groupoid3", groupoid3()),
           "unary": lambda: VarietyContext(loads_variety(json.dumps(_UNARY))),
           "exact-at-two": lambda: mk("exact-at-two", *exact_at_two())}[name]()
    assert assert_printed_elements_are_rank_least(ctx, 2) == at_two


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_printed_free_elements_are_rank_least_property(data):
    # the same on small fuzzed varieties whose F(2) fits a small budget
    from algen.varfile import loads_variety

    from test_cli import fuzz_var_files

    ctx = VarietyContext(loads_variety(json.dumps(data.draw(fuzz_var_files()))),
                         budget_limit=100_000)
    try:
        if ctx.free_algebra(1).size > 12 or ctx.free_closure(2).size > 150:
            return
        classify_all(ctx, 2)
    except (AlgebraError, BudgetExceeded):
        return  # no closure, or one above the budget
    assert_printed_elements_are_rank_least(ctx, 2)


def test_classification_settles_no_element_of_f2(monkeypatch):
    # counted, not timed: classify_all, 1EP and 1ESP at bound 2 read
    # godel3's F(2) of 162 elements as a closure, and no verdict prints an
    # element of it, so no level of a sweep over it settles;
    # free_algebra(2) then settles all 162 in one sweep, one level per term
    # size.  Each settled level is counted by its holder's element count
    from algen import variety
    from algen.terms import term_size
    from algen.varfile import load_variety

    settled = []
    real = variety._settle_levels

    def counting(sig, tables, reps, *rest):
        for level in real(sig, tables, reps, *rest):
            settled.append(len(reps))
            yield level

    monkeypatch.setattr(variety, "_settle_levels", counting)
    ctx = VarietyContext(load_variety("varieties/godel3.var"))
    classify_all(ctx, 2)
    check_1ep(ctx, 2)
    check_1esp(ctx, 2)
    assert 162 not in settled
    f2 = ctx.free_algebra(2)
    assert f2.size == 162
    assert settled.count(162) == len({term_size(r) for r in f2.reps})
    assert None not in f2.reps and len(f2.order) == 162


# ---------------------------------------------------------------------------
# E-congruences


def test_e_congruences_boolean(ba):
    members, complete = e_congruences(ba)
    assert complete
    cls = classify_all(ba)
    projective = {t for t, c in cls.items() if c.projective.status == "yes"}
    assert set(members) == projective
    assert len(members) == 3


def test_e_congruences_kleene(ka):
    members, complete = e_congruences(ka)
    assert complete
    cls = classify_all(ka)
    projective = {t for t, c in cls.items() if c.projective.status == "yes"}
    extra = f1_congruence(ka, "or(x1,not(x1))", "1")
    assert set(members) == projective | {extra}
    assert len(members) == 6


def test_e_congruences_trivial_free_algebra(sl):
    members, complete = e_congruences(sl)
    assert complete
    assert len(members) == 1
    assert members[0].is_identity() and members[0].is_total()


def test_e_congruence_characterization_depth2(ba, ka):
    # kernels of problems built from depth<=2 terms (variables at depth 0)
    # generate exactly the E-congruences, for Boolean and Kleene
    from algen.terms import App

    for ctx in (ba, ka):
        sig = ctx.spec.sig
        layer = [Var("x"), Var("y")] + [App(n, ()) for n, a in sig.ops if a == 0]
        terms = set(layer)
        for _ in range(2):
            grown = set(terms)
            for n, a in sig.ops:
                if a == 1:
                    grown |= {App(n, (t,)) for t in terms}
                if a == 2:
                    grown |= {App(n, (u, v)) for u in terms for v in terms}
            terms = grown
        f1 = ctx.free_algebra(1)
        index, env = index_env(ctx.spec, ["x", "y"], Budget(ctx.budget_limit))
        rename = Substitution.make({"x1": Var("w")})
        single_kernels = set()
        for t in terms:
            images = [index.eval_term(
                apply_subst(Substitution.make({"w": t}),
                            apply_subst(rename, rep)), env) for rep in f1.reps]
            single_kernels.add(Congruence.from_map(images))
        found = set(single_kernels)
        frontier = set(single_kernels)
        while frontier:
            new = set()
            for a_ in frontier:
                for b_ in found:
                    m = a_.meet(b_)
                    if m not in found and m not in new:
                        new.add(m)
            found |= new
            frontier = new
        members, complete = e_congruences(ctx)
        assert complete
        assert found == set(members)


# ---------------------------------------------------------------------------
# G-congruences and properties


def test_g_congruences_kleene(ka):
    ap = alg_of(prob(ka, "and(x,not(x))", "and(y,not(y))"))
    g = g_congruences(ap)
    assert g.status == "exact"
    expected = {Congruence.identity(6), f1_congruence(ka, "x1", "and(x1,not(x1))")}
    assert set(g.lower) == expected
    assert g.upper == g.lower
    assert set(g.maximal) == {f1_congruence(ka, "x1", "and(x1,not(x1))")}


def test_g_congruences_boolean(ba):
    ap = alg_of(prob(ba, "or(x,not(x))", "1"))
    g = g_congruences(ap)
    assert set(g.lower) == {Congruence.identity(4), f1_congruence(ba, "x1", "1")}


def test_g_congruences_identity_kernel(ka):
    ap = alg_of(prob(ka, "x", "not(x)"))
    assert ap.kernel.is_identity()
    g = g_congruences(ap)
    assert set(g.lower) == {Congruence.identity(6)}
    assert set(g.maximal) == {Congruence.identity(6)}


def test_1ep_1esp_verdicts(ba, ka, n3v):
    assert check_1ep(ba).status == "yes"
    assert check_1esp(ba).status == "yes"
    assert check_1ep(ka).status == "yes"
    assert check_1esp(ka).status == "yes"
    assert check_1esp(ka).bound == 2
    ep_n3 = check_1ep(n3v)
    assert ep_n3.status == "no"
    assert "con(" in ep_n3.detail["witness"]


def test_goedel_engine_1ep_yes_1esp_no_with_g4():
    g3 = mk("G3", goedel_chain(3))
    assert check_1ep(g3).status == "yes"
    g34 = mk("G34", goedel_chain(3), goedel_chain(4))
    assert check_1ep(g34).status == "yes"
    esp = check_1esp(g34)
    assert esp.status == "no"
    assert esp.detail["failure"]["reason"] == "embedding admits no retraction"


# ---------------------------------------------------------------------------
# solve


def assert_report_sound(report):
    ctx = report.ctx
    gens = ctx.spec.generators
    for entry in report.mcsg:
        for sigma, t in zip(entry.witnesses, report.problem.terms):
            assert identity_holds_oracle(gens, apply_subst(sigma, entry.term), t)
    for theta in report.g.maximal:
        assert theta.leq(report.kernel)


def test_solve_kleene_contradictions(ka):
    r = solve(prob(ka, "and(x,not(x))", "and(y,not(y))"))
    assert [term_to_str(e.term) for e in r.mcsg] == ["and(z,not(z))"]
    assert r.type.render() == "unitary"
    assert [str(w) for w in r.mcsg[0].witnesses] == [
        "{z -> and(x,not(x))}", "{z -> and(y,not(y))}"]
    assert_report_sound(r)
    # oracle: exhaustive 1-variable search agrees
    classes, minimal = unary_solution_classes(ka, r.problem.terms)
    assert len(minimal) == 1
    assert compare_generality(ka, r.mcsg[0].term, minimal[0][0]) == "equal"


def test_solve_boolean_tautology(ba):
    r = solve(prob(ba, "or(x,not(x))", "1"))
    assert [term_to_str(e.term) for e in r.mcsg] == ["1"]
    assert r.type.render() == "unitary"
    assert_report_sound(r)
    classes, minimal = unary_solution_classes(ba, r.problem.terms)
    assert len(minimal) == 1
    assert compare_generality(ba, r.mcsg[0].term, minimal[0][0]) == "equal"


def test_solve_semilattice_fresh_variable(sl):
    r = solve(prob(sl, "or(x,y)", "or(y,w)"))
    assert [term_to_str(e.term) for e in r.mcsg] == ["z"]
    assert r.type.render() == "unitary"
    assert_report_sound(r)


def test_solve_kleene_involution_pair(ka):
    r = solve(prob(ka, "x", "not(x)"))
    assert [term_to_str(e.term) for e in r.mcsg] == ["z"]
    assert r.kernel.is_identity()
    assert r.type.render() == "unitary"
    assert_report_sound(r)


def test_solve_kleene_classical_pair_maximal_is_identity(ka):
    # kernel con(0,and(z,not(z))) is an E-congruence but not projective;
    # the best generalizer is the fresh variable
    r = solve(prob(ka, "1", "0"))
    assert r.kernel == f1_congruence(ka, "or(x1,not(x1))", "1")
    assert [term_to_str(e.term) for e in r.mcsg] == ["z"]
    assert_report_sound(r)


def test_solve_n3_inconclusive(n3v):
    r = solve(prob(n3v, "oplus(x,x)", "oplus(y,oplus(y,y))"))
    assert r.type.kind == "inconclusive"
    assert r.mcsg == ()
    assert r.g.status == "approximate"
    assert len(r.g.upper) > len(r.g.lower)


def test_solve_duplicate_terms_kept(ka):
    p = prob(ka, "and(x,not(x))", "and(x,not(x))")
    assert len(p.terms) == 2
    r = solve(p)
    assert len(r.mcsg[0].witnesses) == 2
    assert_report_sound(r)


def test_solve_shortcut_consistency(ba, ka, sl, la):
    # solve() skips the product shortcut in 1EP varieties, so run it here
    # directly: a projective factor product must agree with the congruence
    # route's unitary verdict, and the section search with the double search
    samples = [
        (ba, ("or(x,not(x))", "1")), (ba, ("x", "not(x)")),
        (ba, ("and(x,y)", "and(y,x)")), (ba, ("0", "1")),
        (sl, ("or(x,y)", "or(y,w)")), (sl, ("x", "or(x,y)")),
        (la, ("and(x,y)", "or(y,w)")), (la, ("and(x,y)", "x")),
        (ka, ("x",)), (ka, ("1",)), (ka, ("and(x,not(x))",)),
        (ka, ("0", "1")), (ka, ("0", "and(x,not(x))")),
    ]
    projective = 0
    for ctx, sources in samples:
        p = prob(ctx, *sources)
        ap = alg_of(p)
        note, data = _product_shortcut(ap, 2)
        assert note["status"] in ("projective", "not-projective"), sources
        old_note, old_entry = double_search_shortcut(ap, 2)
        assert note == old_note, sources
        if note["status"] == "projective":
            assert (_shortcut_solution(ap, data).to_dict()
                    == old_entry.to_dict()), sources
            projective += 1
            r = solve(p)
            assert r.type.render() == "unitary", sources
            assert len(r.mcsg) == 1, sources
    assert projective >= 1


def test_solve_1ep_skips_product_shortcut(ba, ka, sl, la, monkeypatch):
    import algen.solver as solver_mod

    for ctx in (ba, ka, sl, la):
        check_1esp(ctx)  # warm the per-variety classification

    def forbidden(*args, **kwargs):
        raise AssertionError("the product shortcut ran in a 1EP variety")

    for name in ("_first_generators", "_product_shortcut"):
        monkeypatch.setattr(solver_mod, name, forbidden)
    for ctx, sources in [(ba, ("or(x,not(x))", "1")), (ba, ("x", "y")),
                         (ka, ("and(x,not(x))", "and(y,not(y))")),
                         (ka, ("x", "not(x)")),
                         (sl, ("or(x,y)", "or(y,w)")),
                         (la, ("and(x,y)", "or(y,w)"))]:
        r = solve(prob(ctx, *sources))
        assert r.ep.status == "yes"
        assert r.shortcut == {"status": "skipped", "reason": "variety is 1EP"}


def test_solve_n3_runs_product_shortcut(n3v):
    # outside 1EP the shortcut is the only route to a verdict
    r = solve(prob(n3v, "oplus(x,x)", "oplus(y,oplus(y,y))"))
    assert r.shortcut["status"] == "not-projective"
    r = solve(prob(n3v, "x", "y"))
    assert r.shortcut["status"] == "projective"
    assert r.type.render() == "unitary"
    assert_report_sound(r)


def test_section_search_matches_double_search_n3(n3v):
    from test_variety import random_term

    problems = [prob(n3v, *sources) for sources in
                [("0", "0"), ("x", "0"), ("x", "y"), ("oplus(x,x)", "0")]]
    rng = random.Random(7)
    problems += [SymbolicProblem(n3v, tuple(
        random_term(rng, n3v.spec.sig, ["x", "y"], 2)
        for _ in range(rng.choice([1, 2, 3])))) for _ in range(40)]
    seen = set()
    for p in problems:
        note, _ = _product_shortcut(alg_of(p), 2)
        assert note == double_search_shortcut(alg_of(p), 2)[0], p.terms
        assert solve(p).to_dict() == solve_with_double_search(p).to_dict(), p.terms
        seen.add((note["status"], note.get("generators")))
    assert {("projective", 0), ("projective", 1), ("projective", 2),
            ("not-projective", 1), ("not-projective", 2)} <= seen
    # n = 0: the product is generated by constants and x1 goes to element 0
    r = solve(problems[0])
    assert r.shortcut["generators"] == 0
    assert [e.to_dict() for e in r.mcsg] == [
        {"term": "0", "witnesses": [{"z1": "0"}, {"z1": "0"}]}]
    assert [e.to_dict() for e in solve(problems[2]).mcsg] == [
        {"term": "oplus(z1,z2)", "witnesses": [{"z1": "x", "z2": "0"},
                                               {"z1": "0", "z2": "y"}]}]


_CENSUS = {}


@functools.lru_cache(maxsize=None)
def solve_stream(workload, seed):
    """A solve workload's stream of the benchmark and its term reader.  Each
    variety's problem mix is sampled once a session, which takes seconds:
    the sample is drawn with a fixed seed, not the workload's."""
    import pathlib

    perfbench = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(perfbench))
        import mix
        from workloads import WORKLOADS, to_program

        census = mix.census

        def sampled_once(unary, *args):
            key = (unary.variety.name, *args)
            if key not in _CENSUS:
                _CENSUS[key] = census(unary, *args)
            return _CENSUS[key]

        mp.setattr(mix, "census", sampled_once)
        return WORKLOADS[workload](seed), to_program


def n3_stream_problems(ctx, count, passes=1):
    """The first ``count`` problems of the first ``passes`` passes of the
    benchmark's solve-n3 stream (seed 7), over ``ctx``."""
    stream, to_program = solve_stream("solve-n3", 7)
    ops = [op for i in range(passes) for op in stream.pass_ops(i)][:count]
    return [SymbolicProblem(ctx, tuple(to_program(t) for t in terms))
            for _, terms in ops]


@pytest.mark.parametrize("workload", ["solve-1ep", "solve-n3"])
def test_factor_rep_stops_at_its_element(workload):
    # each factor of the benchmark's streams (passes 0 and 1, seeds 1, 2, 3
    # and 7): witness(k, e) on a fresh problem, asked for in increasing and
    # in decreasing order, resumes the sweep only up to e's level, and its
    # terms are those of the full sweep
    from algen.varfile import load_variety
    from algen.variety import _LeastTerms

    ctxs, seen = {}, set()
    for seed in (1, 2, 3, 7):
        stream, to_program = solve_stream(workload, seed)
        for v, terms in (op for i in range(2) for op in stream.pass_ops(i)):
            if v not in ctxs:
                ctxs[v] = VarietyContext(load_variety(f"varieties/{v}.var"))
            p = SymbolicProblem(ctxs[v], tuple(map(to_program, terms)))
            ap = alg_of(p)
            for k, (f, t) in enumerate(zip(ap.entries, p.terms)):
                if (v, ap.ranges[k], t) in seen:
                    continue
                seen.add((v, ap.ranges[k], t))
                full = _LeastTerms(f.algebra.sig, f.algebra.tables, f.algebra.size,
                                   {0: t}, ctxs[v].spec.commutative).complete()
                elements = list(f.algebra.elements())
                for order in (elements, elements[::-1]):
                    fresh = alg_of(p)
                    assert [fresh.witness(k, e) for e in order] == [full[e] for e in order]
    assert len(seen) > 500


def test_warm_context_solves_build_no_closure(monkeypatch):
    # once classify_all has run at the bound, a solve reads each exact
    # factor off F(1) as a quotient: 50 stream problems per variety (seed 1,
    # passes 0 and 1) construct no GeneratedSubalgebra
    from algen import variety
    from algen.varfile import load_variety

    problems = {}
    for workload in ("solve-1ep", "solve-n3"):
        stream, to_program = solve_stream(workload, 1)
        for v, terms in (op for i in range(2) for op in stream.pass_ops(i)):
            problems.setdefault(v, []).append(tuple(map(to_program, terms)))
    ctxs = {v: VarietyContext(load_variety(f"varieties/{v}.var")) for v in problems}
    for ctx in ctxs.values():
        classify_all(ctx, 2)
    closures = []
    real = variety.GeneratedSubalgebra.__init__
    monkeypatch.setattr(variety.GeneratedSubalgebra, "__init__",
                        lambda self, *a, **k: closures.append(a) or real(self, *a, **k))
    for v, terms in problems.items():
        assert len(terms) >= 50
        for ts in terms[:50]:
            solve(SymbolicProblem(ctxs[v], ts), 2)
    assert len(problems) == 4 and closures == []


def test_each_section_found_is_a_homomorphism():
    # the section the shortcut reads off psi, on the n3 stream at bound 2:
    # a homomorphism P -> F(k) that pi sends back to every element of P
    from algen.varfile import load_variety

    ctx = VarietyContext(load_variety("varieties/n3.var"))
    seen = set()
    for p in n3_stream_problems(ctx, 200, passes=2):
        note, data = _product_shortcut(alg_of(p), 2)
        if note["status"] != "projective":
            continue
        points, fk, section, _ = data
        # the built product numbers its tuples in lexicographic order
        algebras = [f.algebra for f in alg_of(p).entries]
        prod, _ = direct_product(algebras)
        tuples = list(itertools.product(*(range(a.size) for a in algebras)))
        index = {t: i for i, t in enumerate(tuples)}
        as_list = [section[t] for t in tuples]
        pi = fk.images(prod, [index[t] for t in points])
        assert prod.is_hom_map(as_list, fk.algebra), p.terms
        assert [pi[as_list[x]] for x in range(prod.size)] == list(range(prod.size))
        seen.add(note["generators"])
    assert seen == {0, 1, 2}


def test_first_generators_match_min_generators_n3():
    # the first surjection F(k) -> P against the subset search, on the
    # factor products the shortcut meets: its generators, its pi, and the
    # prune that skips a product larger than F(bound) before building it
    from algen.varfile import load_variety
    from algen.variety import var_name
    from test_variety import random_term

    import algen.solver as solver_mod

    ctx = VarietyContext(load_variety("varieties/n3.var"))
    problems = [prob(ctx, "0", "0"), prob(ctx, "x", "y")]
    problems += n3_stream_problems(ctx, 60)
    rng = random.Random(19)
    problems += [SymbolicProblem(ctx, tuple(
        random_term(rng, ctx.spec.sig, ["x", "y", "w"], 2)
        for _ in range(rng.choice([1, 2, 3])))) for _ in range(30)]
    products = {}
    for p in problems:
        ap = alg_of(p)
        algebras = [f.algebra for f in ap.entries]
        key = tuple(repr(alg.tables) for alg in algebras)
        # larger products are pruned at every bound here, and the subset
        # search grinds on them
        if math.prod(alg.size for alg in algebras) <= 128:
            products.setdefault(key, ap)
    calls = []
    real_search = solver_mod._first_generators

    def recording_search(ctx, factors, bound, budget):
        found = real_search(ctx, factors, bound, budget)
        calls.append(found)
        return found

    seen = set()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_mod, "_first_generators", recording_search)
        for ap in products.values():
            for bound in (1, 2, 3):
                calls.clear()
                note, _ = _product_shortcut(ap, bound)
                pruned = not calls
                algebras = [f.algebra for f in ap.entries]
                prod, _ = direct_product(algebras)
                [found] = calls or [None]
                assert pruned == (prod.size > ctx.free_algebra(bound).size)
                if bound == 3 and pruned:
                    # the subset search grinds for seconds here, and bounds
                    # 1 and 2 check the prune against it
                    expected = None
                else:
                    try:
                        expected = min_generators(prod, max_size=bound)
                    except AlgebraError:
                        expected = None
                if expected is None:
                    assert found is None
                    assert note == {"status": "skipped", "reason":
                                    f"no generating set of size <= {bound}"}
                    seen.add(("none", pruned))
                    continue
                assert found is not None
                gens, fk, pi = found
                # P's tuples, mapped to the built product's elements
                index = {t: i for i, t in enumerate(itertools.product(
                    *(range(a.size) for a in algebras)))}
                gens = tuple(index[t] for t in gens)
                assert (len(gens), gens) == expected
                assert note["generators"] == len(gens)
                points = gens or (0,)
                assert fk.n == len(points)
                env = {var_name(i): e for i, e in enumerate(points)}
                assert [index[t] for t in pi] == [prod.eval(rep, env) for rep in fk.reps]
                seen.add(("found", len(gens), prod.size == fk.size))
    # the constants alone, free products of rank 1 and 2, and both skips
    assert {("found", 0, False), ("found", 1, True), ("found", 2, True),
            ("found", 3, False), ("none", True), ("none", False)} <= seen


def test_product_shortcut_free_algebra_above_budget():
    # F(1) fits this budget and F(2) does not, so the prune cannot read
    # |F(2)| and the search meets the budget once it needs F(2)
    ctx = mk("N3", n3(), budget=400)
    above = {"status": "skipped", "reason": "free algebra above budget"}
    assert _product_shortcut(alg_of(prob(ctx, "x", "y")), 2)[0] == above
    # no pair generates this 24-element product, but its cells, charged
    # before its tuples are listed, are already 24 * 3 + 24 ** 2 + 1 = 649
    assert _product_shortcut(alg_of(prob(
        ctx, "x", "oplus(x,x)", "oplus(x,oplus(x,x))")), 2)[0] == {
            "status": "skipped", "reason": "search above budget"}
    # one generator needs only F(1)
    note, _ = _product_shortcut(alg_of(prob(ctx, "x")), 2)
    assert (note["status"], note["generators"]) == ("projective", 1)


def test_product_shortcut_stops_on_its_budget(monkeypatch):
    # at bound 4 both products fit under |F(4)| = 256, so the prune keeps
    # them, but C(|P|, 4) walks of F(4) far exceed the default budget: the
    # shortcut stops before its first walk instead of grinding through them
    from algen.varfile import load_variety

    real_images = FreeAlgebra.images
    walks = []

    def counting_images(self, target, points):
        if self.n == 4:
            walks.append(points)
            if len(walks) > 1000:
                raise AssertionError("the shortcut walks F(4)")
        return real_images(self, target, points)

    monkeypatch.setattr(FreeAlgebra, "images", counting_images)
    ctx = VarietyContext(load_variety("varieties/n3.var"))
    assert ctx.free_algebra(4).size == 256
    for sources, size in [(("x", "oplus(y,y)", "oplus(w,w)", "oplus(v,v)"), 108),
                          (("x", "y", "w", "oplus(v,v)"), 192)]:
        ap = alg_of(prob(ctx, *sources))
        assert math.prod(f.algebra.size for f in ap.entries) == size
        assert _product_shortcut(ap, 4) == (
            {"status": "skipped", "reason": "search above budget"}, None)
    assert not walks


def test_product_shortcut_walks_each_factor_tuple_once(monkeypatch):
    # factors of 2, 2, 4 and 4 elements, so |P| = 64 = |F(3)|, and no triple
    # generates P: pi is the zip of the maps F(3) -> E_j, each walked once
    # per coordinate tuple, at most sum |E_j|^3 = 144 walks, where a walk of
    # P per candidate triple makes C(64, 3) = 41,664.  A candidate's maps
    # are zipped only when each is onto its E_j: 10,960 of the 41,664
    # triples, each of which was zipped before.  The search still charges
    # C(64, k) walks of F(k) for each k tried, before the first
    import builtins

    import algen.solver as solver_mod
    from algen.varfile import load_variety

    ctx = VarietyContext(load_variety("varieties/n3.var"))
    ap = alg_of(prob(ctx, "oplus(oplus(0,oplus(x,x)),x)",
                     "oplus(oplus(oplus(x,x),oplus(x,0)),oplus(oplus(x,0),x))", "x", "x"))
    assert [f.algebra.size for f in ap.entries] == [2, 2, 4, 4]
    ctx.free_closure(3)
    real_images, real_search = FreeAlgebra.images, solver_mod._first_generators
    walks, zipped, charged = [], [], []

    def counting_images(self, target, points, *rest):
        walks.append(points)
        return real_images(self, target, points, *rest)

    def counting_zip(*args):
        if args and all(isinstance(a, list) for a in args):  # F(k)'s maps
            zipped.append(len(args))
        return builtins.zip(*args)

    def charging_search(ctx, factors, bound, budget):
        used = budget.used
        found = real_search(ctx, factors, bound, budget)
        charged.append(budget.used - used)
        return found

    monkeypatch.setattr(FreeAlgebra, "images", counting_images)
    monkeypatch.setattr(solver_mod, "zip", counting_zip, raising=False)
    monkeypatch.setattr(solver_mod, "_first_generators", charging_search)
    assert _product_shortcut(ap, 3) == (
        {"status": "skipped", "reason": "no generating set of size <= 3"}, None)
    assert 0 < len(walks) <= 144
    assert set(zipped) == {4} and len(zipped) <= 11_000, len(zipped)
    assert charged == [sum(math.comb(64, k) * ctx.free_closure(k).size
                           for k in (1, 2, 3) if 64 <= ctx.free_closure(k).size)]


def test_equal_ranges_share_the_shortcut_but_not_the_witnesses():
    # x, y and oplus(x,y), w have the same factor ranges, so one algebra per
    # factor and one product shortcut; the witnesses are each problem's own
    ctx = mk("N3", n3())
    p1, p2 = prob(ctx, "x", "y"), prob(ctx, "oplus(x,y)", "w")
    ap1, ap2 = alg_of(p1), alg_of(p2)
    assert ap1.ranges == ap2.ranges
    for f1, f2 in zip(ap1.entries, ap2.entries):
        assert f1.algebra is f2.algebra
    assert _product_shortcut(ap1, 2)[1] is _product_shortcut(ap2, 2)[1]
    r1, r2 = solve(p1), solve(p2)
    assert [e.to_dict() for e in r2.mcsg] == [
        {"term": "oplus(z1,z2)", "witnesses": [{"z1": "oplus(x,y)", "z2": "0"},
                                               {"z1": "0", "z2": "w"}]}]
    # the same reports as on contexts that never saw the other problem
    for p, r in ((p1, r1), (p2, r2)):
        fresh = mk("N3", n3())
        assert r.to_dict() == solve(SymbolicProblem(fresh, p.terms)).to_dict()


def test_equal_ranges_get_their_own_solutions_in_a_1ep_variety(ka):
    # x and not(x) share one factor algebra; each answer is its own term
    r1, r2 = solve(prob(ka, "x")), solve(prob(ka, "not(x)"))
    assert [w.to_dict()["witnesses"] for w in r1.mcsg] == [[{"z": "x"}]]
    assert [w.to_dict()["witnesses"] for w in r2.mcsg] == [[{"z": "not(x)"}]]


def test_shortcut_memo_keys_on_the_bound():
    # three generators are needed, so bound 2 finds none and bound 3 does
    ctx = mk("N3", n3())
    p = prob(ctx, "x", "y", "w")
    r2, r3 = solve(p, 2), solve(p, 3)
    assert r2.shortcut == {"status": "skipped",
                           "reason": "no generating set of size <= 2"}
    assert (r3.shortcut["status"], r3.shortcut["generators"]) == ("projective", 3)
    assert solve(p, 2).to_dict() == r2.to_dict()
    for bound, r in ((3, r3), (2, r2)):  # the other order on a fresh context
        fresh = mk("N3", n3())
        assert solve(SymbolicProblem(fresh, p.terms), bound).to_dict() == r.to_dict()


def test_each_report_owns_its_shortcut_dict():
    ctx = mk("N3", n3())
    r1 = solve(prob(ctx, "x", "y"))
    expected = dict(r1.shortcut)
    r1.shortcut["status"] = "mutated"
    r1.shortcut.clear()
    assert solve(prob(ctx, "x", "y")).shortcut == expected
    assert solve(prob(ctx, "oplus(x,y)", "w")).shortcut == expected


def test_solve_verifies_each_entry_once(ba, ka, n3v, monkeypatch):
    # the gate checks each entry's generalizer once and, per witness, checks
    # and evaluates each binding of its variables once, except a binding
    # that is the problem's own term, whose vector alg_of already holds: in
    # a solve, alg_of's evaluation is the only walk of a problem term
    import algen.solver
    from algen.variety import _AssignmentIndex

    real_check, real_eval = algen.solver.check_term, _AssignmentIndex.eval_term
    read_off = 0  # bindings that are the problem's own term
    for ctx, sources in [(ba, ("1", "or(x,not(x))", "or(y,not(y))")),
                         (ka, ("and(x,not(x))", "and(y,not(y))")),
                         (n3v, ("x", "y"))]:
        p = prob(ctx, *sources)
        checked, evaluated, walked, depth = [], [], [], [0]

        def counting_eval(self, t, env):
            walked.append(t)
            if not depth[0]:
                evaluated.append(t)  # a call from outside eval_term
            depth[0] += 1
            try:
                return real_eval(self, t, env)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(algen.solver, "check_term",
                            lambda t, sig, *names: checked.append(t)
                            or real_check(t, sig, *names))
        monkeypatch.setattr(_AssignmentIndex, "eval_term", counting_eval)
        r = solve(p)
        monkeypatch.setattr(algen.solver, "check_term", real_check)
        monkeypatch.setattr(_AssignmentIndex, "eval_term", real_eval)
        assert len(r.mcsg) >= 1
        expected_checks, expected_evals = [], list(p.terms)
        for e in r.mcsg:
            expected_checks.append(e.term)
            for sigma, t in zip(e.witnesses, p.terms):
                others = [b for v in term_vars(e.term) if (b := sigma.get(v)) is not t]
                read_off += len(term_vars(e.term)) - len(others)
                expected_checks += others
                expected_evals += others + [e.term]
        assert checked == expected_checks, sources
        assert evaluated == expected_evals, sources
        assert sum(any(u is t for t in p.terms) for u in walked) == len(p.terms)
    # kleene's two witnesses, and one binding in each of n3's
    assert read_off == 4


def test_gate_rejects_misplaced_and_foreign_bindings(ka):
    # a binding equal to a problem term but not that term, or that term at
    # another witness's place, is evaluated like any other and fails there;
    # so do a variable outside the problem and a malformed binding
    p = prob(ka, "and(x,not(x))", "and(y,not(y))")
    ap, (t0, t1) = alg_of(p), p.terms
    term = solve(p).mcsg[0].term
    assert term_to_str(term) == "and(z,not(z))"

    def gate(*witnesses):
        _verify_entry(ap, SolutionEntry(term, tuple(witnesses)))

    def z_to(*bindings):
        return [Substitution.make({"z": b}) for b in bindings]

    def copy(t):
        return App(t.op, t.args)

    gate(*z_to(t0, t1))
    gate(*z_to(copy(t0), copy(t1)))
    for bindings in [(t1, t0), (copy(t1), copy(t0)), (t1, t1), (copy(t1), t1)]:
        with pytest.raises(InternalVerificationError,
                           match=re.escape("is not and(x,not(x)) in the variety")):
            gate(*z_to(*bindings))
    with pytest.raises(InternalVerificationError,
                       match=re.escape("(and(z,not(z))) is outside the problem's "
                                       "variables: unknown variable 'w'")):
        gate(*z_to(parse_term("and(w,not(w))", ka.spec.sig), t1))
    with pytest.raises(InternalVerificationError, match="unknown variable 'z'"):
        gate(Substitution.empty(), *z_to(t1))
    with pytest.raises(TermError, match="'not' expects 1 arguments, got 2"):
        gate(*z_to(t0, App("not", (Var("y"), Var("y")))))
    with pytest.raises(InternalVerificationError, match="wrong number of witnesses"):
        gate(*z_to(t0))


def test_solve_builds_one_assignment_view(monkeypatch):
    # a context charges the assignment index set once per variable count,
    # and each problem with that many variables evaluates its terms in it
    # under its own names, which the gate reuses: on a warm context a solve
    # builds no index set and charges none, and a problem over other names
    # of the same count shares it
    import algen.variety
    from algen.varfile import load_variety

    views, charges = [], []
    real = algen.variety._AssignmentIndex.__init__
    real_charge = VarietySpec.assignment_index
    renamed = Substitution.make({"x": Var("u"), "y": Var("v")})
    for variety, sources in [("boolean", ("and(x,y)", "not(x)")),
                             ("kleene", ("and(x,not(x))", "and(y,not(y))", "x")),
                             ("godel3", ("imp(x,y)", "1")), ("n3", ("x", "y")),
                             ("n3", ("oplus(x,x)", "0"))]:
        ctx = VarietyContext(load_variety(f"varieties/{variety}.var"))
        p = SymbolicProblem(ctx, tuple(parse_term(t, ctx.spec.sig) for t in sources))
        q = SymbolicProblem(ctx, tuple(apply_subst(renamed, t) for t in p.terms))
        solve(p)  # warms the context: free algebras, classification, the view
        monkeypatch.setattr(algen.variety._AssignmentIndex, "__init__",
                            lambda self, *a: views.append(a) or real(self, *a))
        monkeypatch.setattr(VarietySpec, "assignment_index",
                            lambda self, *a: charges.append(a) or real_charge(self, *a))
        reports = [solve(p), solve(q)]
        ap, aq = alg_of(p), alg_of(q)
        monkeypatch.setattr(algen.variety._AssignmentIndex, "__init__", real)
        monkeypatch.setattr(VarietySpec, "assignment_index", real_charge)
        assert views == [], sources
        assert charges == [], sources
        assert ap.index is aq.index
        assert list(aq.env) == list(q.variables) == [renamed.get(v).name
                                                      for v in p.variables]
        assert list(ap.env.values()) == list(aq.env.values())
        for r in reports:
            assert_report_sound(r)


def test_packed_keys_evaluate_every_n3_node(monkeypatch):
    # n3's one operation is binary on 4 elements, 16 keys, so a warm solve
    # stream never evaluates one coordinate at a time; a 40-element Kleene
    # chain's and and or have 1,600 keys each, so a solve there does, while
    # its not, 40 keys, is packed
    import algen.variety
    from algen.varfile import load_variety
    from factories import kleene_chain

    calls = []
    real = algen.variety._evaluate
    monkeypatch.setattr(algen.variety, "_evaluate",
                        lambda *a: calls.append(a) or real(*a))
    ctx = VarietyContext(load_variety("varieties/n3.var"))
    problems = n3_stream_problems(ctx, 200, passes=2)
    for p in problems:
        solve(p)  # warms the context
    calls.clear()
    kinds = {solve(p).type.kind for p in problems}
    assert calls == [] and kinds == {"unitary", "inconclusive"}
    chain = kleene_chain([str(i) for i in range(40)], lambda i: 39 - i)
    ctx = VarietyContext(VarietySpec("chain40", chain.sig, (chain,)))
    assert set(ctx.spec.packed_tables) == {"not"}
    p = SymbolicProblem(ctx, tuple(parse_term(t, chain.sig)
                                   for t in ("and(x,not(x))", "or(y,not(y))")))
    solve(p)  # warms the context
    calls.clear()
    report = solve(p)
    assert calls
    assert_report_sound(report)


def test_solve_builds_factors_and_checks_retract_pairs_for_answers_only(monkeypatch):
    # on a warm context a solve reads its kernel and its shortcut off the
    # term ranges: an inconclusive n3 solve starts no least-term sweep, and
    # an answer starts one, seeded with the term, for each term whose
    # witness is an element other than 0, the term's own, found here from
    # the shortcut's points and from each retraction's block under the
    # range's quotient map; a range met for the first time also starts its
    # ground-term sweep, seeded with nothing.  The
    # retract pair of each (theta, retract) is checked once per context;
    # its composition to the identity is the only walk of F(1) into itself
    # that a solve on a classified context makes
    from algen.varfile import load_variety

    built, walks = [], []  # each sweep's seeds; each walk of F(1) into itself
    real_sweep, real_images = VarietyContext.least_terms, FreeAlgebra.images

    def counting_images(self, target, points, *rest):
        if target is self.algebra:
            walks.append(points)
        return real_images(self, target, points, *rest)
    monkeypatch.setattr(VarietyContext, "least_terms",
                        lambda self, alg, seeds: built.append(seeds)
                        or real_sweep(self, alg, seeds))
    monkeypatch.setattr(FreeAlgebra, "images", counting_images)

    ctx = VarietyContext(load_variety("varieties/n3.var"))
    problems = n3_stream_problems(ctx, 100)
    for p in problems:
        solve(p)  # warms the context
    kinds, other = [], 0
    for p in problems:
        built.clear()
        kinds.append(solve(p).type.kind)
        _, data = _product_shortcut(alg_of(p), 2)
        expected = [] if data is None else [
            j for j in range(len(p.terms)) if any(point[j] for point in data[0])]
        assert [seeds[0] for seeds in built] == [p.terms[j] for j in expected], p.terms
        other += len(expected)
    assert kinds.count("inconclusive") > 50 and "unitary" in kinds
    assert other > 0

    stream, to_program = solve_stream("solve-1ep", 1)
    ctxs = {v: VarietyContext(load_variety(f"varieties/{v}.var"))
            for v in ("boolean", "kleene", "godel3")}
    for c in ctxs.values():
        classify_all(c, 2)
        check_1ep(c, 2)
        check_1esp(c, 2)
    problems = [SymbolicProblem(ctxs[v], tuple(map(to_program, terms)))
                for v, terms in stream.pass_ops(0)]
    for run in range(2):
        walks.clear()
        pairs, other = set(), 0
        for p in problems:
            built.clear()
            cls = classify_all(p.ctx, 2)
            maximal = solve(p).g.maximal
            pairs.update((p.ctx.spec.name, theta, cls[theta].retract) for theta in maximal)
            blocks = [sorted(set(theta.blocks))[cls[theta].retract[1]] for theta in maximal]
            expected = [k for k, factor in enumerate(alg_of(p).entries)
                        if any(factor.natural[u] for u in blocks)]
            # the ground-term sweeps of new ranges, on the first run only
            assert [seeds[0] for seeds in built if seeds] == [
                p.terms[k] for k in expected], p.terms
            assert run == 0 or all(built), p.terms
            other += len(expected)
        assert len(walks) == (len(pairs) if run == 0 else 0), run
        assert 0 < other < sum(len(p.terms) for p in problems) / 2
    assert len(pairs) > 3


@pytest.mark.parametrize("workload,seed", [("solve-1ep", 1), ("solve-1ep", 7),
                                           ("solve-n3", 1), ("solve-n3", 7)])
def test_range_memos_match_a_fresh_context_per_problem(workload, seed):
    # the memos a solve reads, keyed on term ranges, kernels and retract
    # pairs, give what a context that saw no other problem gives: over
    # passes 0 and 1 of a benchmark stream, at bounds 2 and 3, each report
    # on one warm context per variety equals the same problem's report on a
    # fresh context, and the memoised kernel is the meet of the fresh
    # context's exact factor kernels.  A variety whose classification does
    # not fit the budget at the bound raises the same error on both
    from algen.varfile import load_variety

    stream, to_program = solve_stream(workload, seed)
    ops = [(v, tuple(map(to_program, terms)))
           for i in range(2) for v, terms in stream.pass_ops(i)]
    specs = {v: load_variety(f"varieties/{v}.var") for v, _ in ops}
    for bound in (2, 3):
        warm, solved = {}, 0
        for v, spec in specs.items():
            try:
                classify_all(ctx := VarietyContext(spec), bound)
                warm[v] = ctx
            except BudgetExceeded as e:
                with pytest.raises(BudgetExceeded, match=re.escape(str(e))):
                    solve(SymbolicProblem(VarietyContext(spec), (Var("x"),)), bound)
        for v, terms in ops:
            if v not in warm:
                continue
            p, fresh = SymbolicProblem(warm[v], terms), VarietyContext(specs[v])
            q = SymbolicProblem(fresh, terms)
            assert solve(p, bound).to_dict() == solve(q, bound).to_dict(), terms
            index, env = index_env(fresh.spec, q.variables, Budget(fresh.budget_limit))
            assert alg_of(p).kernel == functools.reduce(Congruence.meet, (
                fresh.range_factor(index.term_range(index.eval_term(t, env))).kernel
                for t in terms))
            solved += 1
        assert solved >= 60, (bound, solved)


@pytest.mark.parametrize("workload,seed", [("solve-1ep", 1), ("solve-n3", 7)])
def test_gate_agrees_with_holds_identity(workload, seed):
    # the gate against the identity check over each side's joint
    # variables, on pass 0 of a fixed-seed stream: every emitted witness
    # holds, and the witnesses of each entry shifted by one term fail the
    # gate exactly when some identity fails
    from algen.varfile import load_variety

    stream, to_program = solve_stream(workload, seed)
    ctxs, entries, rejected = {}, 0, 0
    for v, terms in stream.pass_ops(0):
        if v not in ctxs:
            ctxs[v] = VarietyContext(load_variety(f"varieties/{v}.var"))
        ctx = ctxs[v]
        p = SymbolicProblem(ctx, tuple(map(to_program, terms)))
        ap = alg_of(p)
        for e in solve(p).mcsg:
            entries += 1
            assert all(ctx.holds_identity(apply_subst(sigma, e.term), t)
                       for sigma, t in zip(e.witnesses, p.terms))
            shifted = SolutionEntry(e.term, e.witnesses[1:] + e.witnesses[:1])
            holds = all(ctx.holds_identity(apply_subst(sigma, e.term), t)
                        for sigma, t in zip(shifted.witnesses, p.terms))
            try:
                _verify_entry(ap, shifted)
            except InternalVerificationError:
                rejected += 1
                assert not holds, (terms, e.to_dict())
            else:
                assert holds, (terms, e.to_dict())
    assert entries >= 20 and rejected >= 5


# the sha256 of each stream's reports: a change to any report byte shows here
STREAM_DIGESTS = {
    ("solve-1ep", 1, 2): "305e6be942d01d8f8ad4516ee9771b8b4f497983022b2159efea3f4f9a75b2c1",
    ("solve-1ep", 1, 3): "0d0e3b5001631cc2529f15c0a4020ebff937f541cd0c341f159a8256e131de4e",
    ("solve-1ep", 7, 2): "7bcc756a802fb583ec536154f7e4726c13183cbda09aa6e88ab236188c51123d",
    ("solve-1ep", 7, 3): "7d1c7191a88557e3ddbdf9eaa6bdf0d39aaa9a2e6c260b08dbf2f25edc457a20",
    ("solve-n3", 1, 2): "6b56c6cef4b37610e26f00c9caab3adf43811ddb57dfb7ad6983922442655b1d",
    ("solve-n3", 1, 3): "4e15f20a90841859b1e38262cd3cfbbc3d41e0804ce69ee326a96252316efff7",
    ("solve-n3", 7, 2): "b228f1a170857f35aad4086c4237cca73dea3240892507916c8f451352f8b417",
    ("solve-n3", 7, 3): "dd67eb4934059465c92abf4d1d9ac14958aa7d493ca62e879714c27a0ebf0b01",
}


@pytest.mark.parametrize("workload,seed,bound", list(STREAM_DIGESTS))
def test_stream_reports_are_pinned(workload, seed, bound):
    # passes 0 and 1 of a benchmark stream, solved on one warm context per
    # variety: the JSON reports, as ``solve --json`` prints them, one after
    # another, hash to the recorded digest.  A variety whose classification
    # does not fit the budget at the bound contributes its error message
    import hashlib

    from algen.varfile import load_variety

    stream, to_program = solve_stream(workload, seed)
    ctxs, digest = {}, hashlib.sha256()
    for i in range(2):
        for v, terms in stream.pass_ops(i):
            if v not in ctxs:
                ctxs[v] = VarietyContext(load_variety(f"varieties/{v}.var"))
                try:
                    classify_all(ctxs[v], bound)
                except BudgetExceeded as e:
                    ctxs[v] = str(e)
            if isinstance(ctxs[v], str):
                doc = {"error": ctxs[v]}
            else:
                p = SymbolicProblem(ctxs[v], tuple(map(to_program, terms)))
                doc = solve(p, bound).to_dict()
            digest.update(json.dumps(doc, indent=2, ensure_ascii=False).encode() + b"\n")
    assert digest.hexdigest() == STREAM_DIGESTS[workload, seed, bound]


@pytest.mark.parametrize("variety", ["boolean", "kleene", "godel3", "n3"])
def test_g_congruences_memo_matches_a_fresh_computation(variety):
    # every congruence of Con F(1) as the kernel, at bounds 1 and 2, asked
    # twice in interleaved order: the memoised answer equals the one computed
    # here from the classification
    from types import SimpleNamespace

    from algen.varfile import load_variety

    ctx = VarietyContext(load_variety(f"varieties/{variety}.var"))
    for bound in (1, 2):
        for ker in classify_all(ctx, bound):
            g_congruences(SimpleNamespace(ctx=ctx, kernel=ker), bound)
    for bound in (2, 1):
        cls = classify_all(ctx, bound)
        for ker in reversed(list(cls)):
            lower = sorted((t for t, c in cls.items()
                            if c.projective.status == "yes" and t.leq(ker)),
                           key=Congruence.sort_key)
            upper = sorted((t for t, c in cls.items()
                            if c.exact.status != "no" and t.leq(ker)),
                           key=Congruence.sort_key)
            maximal = [t for t in lower if not any(t != u and t.leq(u) for u in lower)]
            g = g_congruences(SimpleNamespace(ctx=ctx, kernel=ker), bound)
            assert g is g_congruences(SimpleNamespace(ctx=ctx, kernel=ker), bound)
            assert (g.status, list(g.lower), list(g.upper), list(g.maximal)) == (
                "exact" if check_1ep(ctx, bound).status == "yes" else "approximate",
                lower, upper, maximal)


@pytest.mark.parametrize("bound", [0, -3])
def test_solver_rejects_bound_below_one(ka, bound):
    with pytest.raises(SolverError):
        classify_all(ka, bound)
    with pytest.raises(SolverError):
        solve(prob(ka, "x", "y"), bound)


def test_solve_budget_error():
    from factories import truncated_monoid

    ctx = mk("M9", truncated_monoid(9), budget=200)
    with pytest.raises(BudgetExceeded):
        solve(prob(ctx, "oplus(x,x)", "oplus(y,y)"))


def test_solve_three_variable_kleene_terms(ka):
    # F(3) is far beyond budget; the solver must not need it
    r = solve(prob(ka, "and(x,and(y,w))", "and(w,not(w))"))
    assert r.type.render() == "unitary"
    assert_report_sound(r)


# ---------------------------------------------------------------------------
# Round trip: symbolic solutions vs G-congruences


def test_round_trip_poset_isomorphism(ba, ka):
    cases = [
        (ba, ("or(x,not(x))", "1")),
        (ba, ("and(x,y)", "and(y,x)")),
        (ba, ("x", "not(x)")),
        (ka, ("and(x,not(x))", "and(y,not(y))")),
        (ka, ("x", "y")),
        (ka, ("or(x,not(x))", "1")),
    ]
    for ctx, sources in cases:
        p = prob(ctx, *sources)
        ap = alg_of(p)
        g = g_congruences(ap)
        classes, _ = unary_solution_classes(ctx, p.terms)
        # the kernel map is a bijection classes -> G(h)
        f1 = ctx.free_algebra(1)
        kernels = []
        for cls in classes:
            elem = f1.eval_term(apply_subst(Substitution.make({"z": Var("x1")}),
                                            cls[0]))
            kernels.append(kernel(f1.images(f1.algebra, (elem,))))
        assert len(set(kernels)) == len(kernels)
        assert set(kernels) == set(g.lower)
        # and it reverses the generality order
        for i, ci in enumerate(classes):
            for j, cj in enumerate(classes):
                rel = compare_generality(ctx, ci[0], cj[0])
                if rel == "less":
                    assert kernels[j].leq(kernels[i])
                    assert not kernels[i].leq(kernels[j])


# ---------------------------------------------------------------------------
# compare_generality


def test_compare_generality_examples(ba, ka):
    sig_b = ba.spec.sig
    assert compare_generality(ba, parse_term("1", sig_b),
                              parse_term("z", sig_b)) == "less"
    t = parse_term("and(z,not(z))", ka.spec.sig)
    assert compare_generality(ka, t, t) == "equal"
    assert compare_generality(ka, parse_term("and(z,not(z))", ka.spec.sig),
                              parse_term("or(z,not(z))", ka.spec.sig)) == "incomparable"


def test_instance_substitution_matches_vector_search():
    # the term evaluated in the free algebra, against substituting each
    # candidate and comparing value vectors; a small budget makes some
    # pairs fail, and both searches must fail there alike.  n3 at 500 cells
    # runs out on its first pass over three variables, where an element's 64
    # coordinates cost more than the argument tuples the look-ahead counts
    from test_variety import SHIPPED, random_term
    from algen.varfile import load_variety

    def outcome(search, ctx, s, t):
        try:
            return search(ctx, s, t)
        except BudgetExceeded as e:
            return ("budget", e.stage, e.needed)

    found, stages = 0, set()
    for variety, limit in [(v, 5_000) for v in SHIPPED] + [("n3", 500)]:
        ctx = VarietyContext(load_variety(f"varieties/{variety}.var"),
                             budget_limit=limit)
        rng = random.Random(variety)
        for _ in range(125):
            s, t = (random_term(rng, ctx.spec.sig, ["x", "y", "w"], 3)
                    for _ in range(2))
            for a, b in ((s, t), (t, s)):
                new = outcome(_instance_substitution, ctx, a, b)
                assert new == outcome(vector_search_instance, ctx, a, b), (a, b)
                found += isinstance(new, Substitution)
                if isinstance(new, tuple):
                    stages.add(new[1])
    assert found
    assert stages == {"free closure", "operation tables", "generality search"}


def test_compare_generality_modulo_variety(ka):
    sig = ka.spec.sig
    # not(not(z)) equals z in the variety
    assert compare_generality(ka, parse_term("not(not(z))", sig),
                              parse_term("z", sig)) == "equal"


# ---------------------------------------------------------------------------
# pairwise_reduce


def test_pairwise_boolean_three_terms(ba):
    p = prob(ba, "1", "or(x,not(x))", "or(y,not(y))")
    r = pairwise_reduce(p)
    assert r.type.render() == "unitary"
    # the generalizer is ground, so every z fits; the first, the seed, is kept
    assert r.mcsg[0].witnesses == vector_search_witnesses(alg_of(p), r.mcsg[0].term)
    assert r.mcsg[0].to_dict()["witnesses"] == [{"z": "1"}] * 3
    full = solve(p)
    assert compare_generality(ba, r.mcsg[0].term, full.mcsg[0].term) == "equal"
    assert_report_sound(r)


def test_pairwise_single_term(ka):
    p = prob(ka, "and(x,not(x))")
    r = pairwise_reduce(p)
    assert compare_generality(ka, r.mcsg[0].term,
                              solve(p).mcsg[0].term) == "equal"


def test_pairwise_kleene_four_contradictions(ka):
    p = prob(ka, *[f"and({v},not({v}))" for v in ("x", "y", "w", "v")])
    r = pairwise_reduce(p)
    assert term_to_str(r.mcsg[0].term) == "and(z,not(z))"
    assert r.mcsg[0].witnesses == vector_search_witnesses(alg_of(p), r.mcsg[0].term)
    assert_report_sound(r)


def test_pairwise_requires_unitary_two_type(n3v):
    assert two_term_unitary(n3v).status != "yes"
    with pytest.raises(SolverError):
        pairwise_reduce(prob(n3v, "x", "oplus(y,y)", "0"))


def test_pairwise_agrees_with_solve_random(ba, ka):
    from test_variety import random_term

    rng = random.Random(20250810)
    for ctx in (ba, ka):
        for _ in range(12):
            m = rng.choice([3, 4, 5])
            terms = tuple(random_term(rng, ctx.spec.sig, ["x", "y"], 2)
                          for _ in range(m))
            p = SymbolicProblem(ctx, terms)
            r1 = pairwise_reduce(p)
            assert r1.mcsg[0].witnesses == vector_search_witnesses(
                alg_of(p), r1.mcsg[0].term)
            r2 = solve(p)
            assert r2.type.render() == "unitary"
            assert compare_generality(ctx, r1.mcsg[0].term,
                                      r2.mcsg[0].term) == "equal"


# ---------------------------------------------------------------------------
# Report shape


def test_report_dict_stable(ka):
    r = solve(prob(ka, "and(x,not(x))", "and(y,not(y))"))
    d1 = r.to_dict()
    d2 = solve(prob(ka, "and(x,not(x))", "and(y,not(y))")).to_dict()
    assert d1 == d2
    assert list(d1.keys()) == [
        "variety", "terms", "variables", "bound", "method", "kernel",
        "congruences", "g_congruences", "mcsg", "type", "properties",
        "caveats", "shortcut"]


def test_symbolic_solution_rejects_bad_retract(ka):
    ap = alg_of(prob(ka, "and(x,not(x))", "and(y,not(y))"))
    theta = f1_congruence(ka, "x1", "and(x1,not(x1))")
    cls = classify_all(ka)[theta]
    t, _ = cls.retract
    q_alg, nat = quotient(ka.free_algebra(1).algebra, theta)
    zq = nat[ka.free_algebra(1).generators[0]]
    bad_q = next(q for q in range(q_alg.size)
                 if q_alg.eval(ka.free_algebra(1).reps[t], {"x1": q}) != zq)
    with pytest.raises(InternalVerificationError):
        symbolic_solution(ap, theta, (t, bad_q))
    bad_t = ka.free_algebra(1).algebra.label_index["0"]
    with pytest.raises(InternalVerificationError):
        symbolic_solution(ap, theta, (bad_t, 0))
