"""The generalization solver.

Pipeline: a symbolic problem (a multiset of terms) is translated to an
algebraic one (a homomorphism from the 1-generated free algebra into a
product of 1-generated exact factors), its kernel is computed factorwise,
the congruences of F(1) are classified as exact / projective / strongly
projective, the generalizing congruences are read off, and maximal ones are
translated back to witnessed 1-variable terms.  Every emitted solution is
re-verified against the variety before it leaves this module.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce
from typing import Sequence

from .algebra import (
    AlgebraError,
    Congruence,
    FiniteAlgebra,
    close_under,
    congruence_generated,
    congruence_lattice,
    quotient,
    subpower,
)
from .terms import (
    Substitution,
    Term,
    Var,
    _Value,
    apply_subst,
    check_term,
    term_rank,
    term_to_str,
    term_vars,
)
from .variety import (
    Budget,
    BudgetExceeded,
    FreeAlgebra,
    VarietyContext,
    var_name,
)

__all__ = [
    "DEFAULT_BOUND",
    "SolverError",
    "InternalVerificationError",
    "Verdict",
    "SymbolicProblem",
    "AlgebraicProblem",
    "CongruenceClassification",
    "GCongruences",
    "SolutionEntry",
    "TypeVerdict",
    "GeneralizationReport",
    "alg_of",
    "classify_congruence",
    "classify_all",
    "e_congruences",
    "g_congruences",
    "check_1ep",
    "check_1esp",
    "symbolic_solution",
    "solve",
    "compare_generality",
    "pairwise_reduce",
    "output_names",
    "congruence_name",
    "congruence_blocks_labels",
    "classification_rows",
]

DEFAULT_BOUND = 2

OUTPUT_VAR = "z"


class SolverError(ValueError):
    """Violated precondition of a solver operation."""


class InternalVerificationError(RuntimeError):
    """The final soundness re-check failed; indicates a bug, not bad input."""


def _check_bound(bound: int) -> None:
    # a verdict carries the bound it rests on; below 1 nothing is searched
    if bound < 1:
        raise SolverError(f"search bound must be at least 1, got {bound}")


class Verdict(_Value):
    """A three-valued answer.  ``bound`` records the search bound a "yes"
    or "unknown" rests on; "no" verdicts always carry an explicit witness
    or reason in ``detail``."""

    __slots__ = _fields = ("status", "bound", "detail")

    def __init__(self, status: str, bound: int | None = None, detail: object = None):
        if status not in ("yes", "no", "unknown"):
            raise SolverError(f"bad verdict status {status!r}")
        self._init(status, bound, detail)

    def to_dict(self) -> dict:
        """The fields that are set, in field order."""
        return {f: v for f, v in zip(self._fields, self._values) if v is not None}


# ---------------------------------------------------------------------------
# Problems


class SymbolicProblem(_Value):
    """A finite multiset of terms over one variety; duplicates preserved.
    ``variables``, the terms' variable names in first-occurrence order, is
    collected by the arity check's walk; it is not a field, as the terms
    determine it."""

    _fields = ("ctx", "terms")
    __slots__ = _fields + ("variables",)

    def __init__(self, ctx: VarietyContext, terms: tuple[Term, ...]):
        if not terms:
            raise SolverError("a problem needs at least one term")
        names: list[str] = []
        for t in terms:
            check_term(t, ctx.spec.sig, names)
        self._init(ctx, terms)
        object.__setattr__(self, "variables", tuple(names))


class AlgebraicProblem:
    """The algebraic form of a symbolic problem: the 1-generated free
    algebra, the exact factors generated by each term, and the problem
    kernel, the intersection of the factors' kernels.

    The context charges the assignment index set once per variable count;
    a problem evaluates its terms once in it, under ``env``, the index's
    projections by the problem's variable names, which the verification
    gate reuses.  Everything else depends only on the term ranges, so the
    context finds it once: each range's ``range_factor`` entry, which the
    problem fetches once per term, and the kernel of each set of ranges."""

    def __init__(self, problem: SymbolicProblem):
        self.problem, self.ctx = problem, problem.ctx
        ctx, n = problem.ctx, len(problem.variables)
        self.index = ctx.memo(("view", n), lambda: ctx.spec.assignment_index(
            n, Budget(ctx.budget_limit)))
        self.env = dict(zip(problem.variables, self.index.projections))
        self.vectors = tuple(self.index.eval_term(t, self.env) for t in problem.terms)
        self.ranges = tuple(map(self.index.term_range, self.vectors))
        self.entries = tuple(map(ctx.range_factor, self.ranges))
        self.kernel: Congruence = ctx.memo(
            ("kernel", frozenset(self.ranges)), lambda: reduce(
                Congruence.meet, (entry.kernel for entry in self.entries)))
        self._sweeps: dict = {}  # position -> the least-term sweep seeded with t_k

    def witness(self, k: int, e: int) -> Term:
        """Element ``e``'s least term built from t_k in t_k's exact factor:
        ``RangeFactor.seed_rep`` for 0, else read off one sweep per
        position, resumed only up to e's level, whose terms are final."""
        t = self.problem.terms[k]
        if e == 0:
            return self.entries[k].seed_rep(t)
        if k not in self._sweeps:
            self._sweeps[k] = self.ctx.least_terms(self.entries[k].algebra, {0: t})
        return self._sweeps[k].rep(e)


def alg_of(problem: SymbolicProblem) -> AlgebraicProblem:
    return AlgebraicProblem(problem)


# ---------------------------------------------------------------------------
# Classification of congruences of F(1)


class CongruenceClassification(_Value):
    __slots__ = _fields = ("theta", "exact", "projective", "strongly_projective", "retract")

    # retract, if projective: (t in F(1) embedding the quotient, q in it retracting)
    def __init__(self, theta: Congruence, exact: Verdict, projective: Verdict,
                 strongly_projective: Verdict, retract: tuple[int, int] | None = None):
        if projective.status == "yes" and exact.status != "yes":
            raise InternalVerificationError("projective implies exact")
        if strongly_projective.status == "yes" and projective.status != "yes":
            raise InternalVerificationError("strongly projective implies projective")
        self._init(theta, exact, projective, strongly_projective, retract)


def _embedding_elements(ctx: VarietyContext, theta: Congruence,
                        target_free: FreeAlgebra) -> list[int]:
    """Elements t of a free algebra with ker(z -> t) equal to theta, i.e.
    the embeddings of F(1)/theta determined by their generator image, in
    element order, so that finding them settles no representative."""
    kernels = ctx.evaluation_kernels(target_free.algebra)
    return [t for t in target_free.algebra.elements() if kernels[t] == theta]


def classify_congruence(ctx: VarietyContext, theta: Congruence,
                        bound: int = DEFAULT_BOUND) -> CongruenceClassification:
    """Classify a congruence of F(1) as exact / projective / strongly
    projective.

    Projectivity is decided exactly: the quotient is 1-generated, so it is
    projective iff it is a retract of F(1).  Exactness searches generator
    images in F(k) for k up to the bound and falls back to a sound
    impossibility certificate; only when neither settles it is the verdict
    unknown(bound).  Strong projectivity is checked against free codomains
    F(k), k up to the bound (an embedding into a projective algebra factors
    through its section into a free algebra, so free targets suffice);
    "yes" carries the bound, "no" carries an explicit witness.  A theta
    that is not a congruence of F(1) in canonical form is a SolverError.

    The projectivity verdict's detail holds the search transcript under
    ``"search"``, one row per embedding tried, in rank order; the search
    stops at the first embedding that admits a retraction.  The exactness
    element and the strong projectivity failure are the rank-least of their
    sets in F(k); F(k) is read as a closure, and only that element's level
    of representatives is settled.  Each row has:

    ``embedding``
        the generator image of the embedding F(1)/theta -> F(1);
    ``retraction_images_tried``
        how many quotient elements were evaluated as the image of the
        generator under the retraction: the position of the hit plus one,
        or the quotient size when none retracts;
    ``retraction_found``
        whether one of them sends the embedding back to the generator's
        block;
    ``retraction_image``
        the labels of the quotient block the generator is sent to by the
        retraction found, or ``None`` (JSON ``null``) when there is none.
    """
    _check_bound(bound)
    f1 = ctx.free_algebra(1)
    a1 = f1.algebra
    if theta.size != a1.size:
        raise SolverError("congruence is not over F(1)")
    if theta != Congruence.from_map(theta.blocks):
        raise SolverError("congruence is not in canonical form")
    if congruence_generated(a1, enumerate(theta.blocks)) != theta:
        raise SolverError(f"partition {theta.blocks} is not a congruence of F(1)")
    q_alg, nat = quotient(a1, theta)
    zq = nat[f1.generators[0]]

    names = output_names(ctx)
    blocks = congruence_blocks_labels(ctx, theta)
    # one walk of F(1)..F(bound): each F(k) is scanned for embeddings once
    # and searched for retractions at most once; F(1)'s search gives the
    # projectivity transcript and both verdicts at arity 1
    exact = sp = retract = None
    for k in range(1, bound + 1):
        fk = ctx.free_closure(k)
        hits = _embedding_elements(ctx, theta, fk)
        if k == 1 or sp is None:
            first = _first_assignments(fk, q_alg, hits, zq)
        if k == 1:
            attempts, into = [], set(hits)
            for t in [t for t in f1.order if t in into]:  # tried in rank order
                found = first.get(t)
                attempts.append({"embedding": names[t],
                                 "retraction_images_tried": q_alg.size
                                 if found is None else found[0] + 1,
                                 "retraction_found": found is not None,
                                 "retraction_image": None if found is None
                                 else blocks[found[0]]})
                if found is not None:
                    retract = (t, found[0])
                    break
            detail = {"search": attempts}
            if retract is None:
                detail["reason"] = ("every embedding into F(1) admits no retraction"
                                    if hits else
                                    "no embedding of the quotient into F(1) exists")
                sp = Verdict("no", None, "not projective")
            else:
                exact = Verdict("yes", None, {"arity": 1, "element": names[retract[0]]})
            projective = Verdict("no" if retract is None else "yes", None, detail)
        if exact is None and hits:
            exact = Verdict("yes", None, {
                "arity": k, "element": term_to_str(fk.rep(fk.least(hits)))})
        if sp is None and (failing := [t for t in hits if t not in first]):
            sp = Verdict("no", None, {
                "arity": k,
                "embedding": term_to_str(fk.rep(fk.least(failing))),
                "reason": "embedding admits no retraction",
            })
        if exact is not None and sp is not None:
            break
    if exact is None:
        reason = _no_exact_certificate(ctx, theta)
        exact = (Verdict("no", None, reason) if reason is not None else
                 Verdict("unknown", bound, "no generator image found within the bound"))
    if sp is None:
        sp = Verdict("yes", bound)

    return CongruenceClassification(theta, exact, projective, sp, retract)


def _first_assignments(fk: FreeAlgebra, alg: FiniteAlgebra,
                       elements: Sequence[int], target: int) -> dict:
    """The first assignment of elements of ``alg`` to x1..xk, in product
    order, under which each of ``elements`` of F(k) evaluates to
    ``target``, keyed by element; an element that never does is absent.
    One walk per assignment, of the cone of F(k)'s derivation that the
    open elements read, answers every open one."""
    first, open_ = {}, list(elements)
    cone = fk.cone(open_)
    for vals in itertools.product(range(alg.size), repeat=fk.n):
        images = fk.images(alg, vals, cone)
        found = [t for t in open_ if images[t] == target]
        if found:
            first.update((t, vals) for t in found)
            if not (open_ := [t for t in open_ if t not in first]):
                break
            cone = fk.cone(open_)
    return first


def _first_assignment(alg: FiniteAlgebra, term: Term, names: Sequence[str],
                      target: int) -> tuple[int, ...] | None:
    """The first assignment of elements of ``alg`` to ``names``, in product
    order, under which ``term`` evaluates to ``target``; None if none does.
    On a quotient of F(1), with the generator's block as the target, such an
    assignment determines a retraction of the embedding ``term`` induces."""
    return next((vals for vals in itertools.product(range(alg.size),
                                                    repeat=len(names))
                 if alg.eval(term, dict(zip(names, vals))) == target), None)


def _product_cells(factors: Sequence[FiniteAlgebra]) -> int:
    """The cells of the product of ``factors``, each element's coordinates
    and each operation's table: its closures and tuple listings charge so."""
    size = math.prod(f.size for f in factors)
    return size * len(factors) + sum(size ** arity for _, arity in factors[0].sig.ops)


def _irredundant_generators(ctx: VarietyContext) -> list[FiniteAlgebra]:
    """The generating algebras not in HS of another one, which generate the
    same variety; of two each in HS of the other, so isomorphic, the first.
    B is in HS(A) when some tuple of A, paired with a generating tuple of B,
    generates a functional relation in A x B, the graph of a homomorphism
    from a subalgebra of A onto B; any generating tuple of B decides it, so
    the tuple is built greedily, each element the least outside the
    subalgebra the earlier ones generate.  Each closure in B is charged
    B's table cells before it runs, and each pair its product's cells and
    |A|^k |A||B| cells for its k-tuples before their relations are closed.
    Found once per context."""
    budget, algebras = Budget(ctx.budget_limit), ctx.spec.generators
    stage = "exactness certificate"

    def in_hs(b: FiniteAlgebra, a: FiniteAlgebra) -> bool:
        gens: list[int] = []
        while True:
            budget.charge(sum(b.size ** arity for _, arity in b.sig.ops), stage)
            sub = b.subuniverse(gens)
            if len(sub) == b.size:
                break
            gens.append(min(set(b.elements()).difference(sub)))
        budget.charge(a.size ** len(gens) * a.size * b.size + _product_cells([a, b]),
                      stage)
        for tup in itertools.product(a.elements(), repeat=len(gens)):
            graph = subpower([a, b], zip(tup, gens))
            if len({x for x, _ in graph}) == len(graph):
                return True
        return False
    return ctx.memo("irredundant-generators", lambda: [
        b for i, b in enumerate(algebras)
        # a larger algebra, or an earlier one of the same size
        if not any((a.size, -j) > (b.size, -i) and in_hs(b, a)
                   for j, a in enumerate(algebras))])


def _no_exact_certificate(ctx: VarietyContext, theta: Congruence) -> str | None:
    """Sound, bound-free impossibility argument for exactness.

    A generator image t in any F(k) yields ker(t) as the intersection of
    the value kernels kappa[A,a] over the values a that t attains on each
    generating algebra A.  Three facts prune the attainable value sets:
    the values lie inside Allowed = {a : kappa[A,a] >= theta}; they include
    the range of the diagonal collapse of t, a unary term function; and for
    every base point b they lie inside the row of the compatible relation
    generated by {b} x A at the diagonal's value at b.  If no unary term
    function is consistent with these constraints, theta is not exact.
    It reads only the generating algebras not in HS of another: t's values
    on one in HS(A) follow from those on A, and relaxing them would loosen it.
    Each square A x A is charged its cells before its relations are closed.
    Returns a reason string, or None when no certificate exists.
    """
    f1 = ctx.free_algebra(1)
    algebras = _irredundant_generators(ctx)
    kappas = [ctx.evaluation_kernels(gen) for gen in algebras]
    allowed = [
        [a for a in range(gen.size) if theta.leq(kappas[gi][a])]
        for gi, gen in enumerate(algebras)
    ]
    if not all(allowed):
        return ("a generating algebra has no element that identifies the "
                "classes of the congruence")

    def theta_free():
        # values[gi][a][u]: the unary term function u at a on generator gi,
        # one homomorphism F(1) -> generator per value a (kernel kappas[gi][a])
        values = [ctx.evaluation_images(gen) for gen in algebras]
        ranges = [[frozenset(at_u) for at_u in zip(*per_a)] for per_a in values]
        # the pointed compatible relations Sg_{A^2}({b} x A), as sets of pairs
        relations, budget = [], Budget(ctx.budget_limit)
        for gen in algebras:
            budget.charge(_product_cells([gen, gen]), "exactness certificate")
            relations.append([subpower([gen, gen], ((b, c) for c in gen.elements()))
                              for b in gen.elements()])
        return values, ranges, relations
    values, ranges, relations = ctx.memo("exactness-certificate", theta_free)
    unary_ok = [u for u in range(f1.size)
                if all(ranges[gi][u] <= set(allowed[gi])
                       for gi in range(len(algebras)))]
    if not unary_ok:
        return ("every unary term function attains a value outside the "
                "admissible generator values")

    # theta is below the meet of the value kernels over each u's range with
    # no check: that range lies inside Allowed, whose value kernels are all
    # >= theta, so their meet is too
    total = Congruence.total(f1.size)
    for u in unary_ok:
        theta_u = total
        for gi, gen in enumerate(algebras):
            for a in allowed[gi]:
                if all((values[gi][b][u], a) in relations[gi][b] for b in gen.elements()):
                    theta_u = theta_u.meet(kappas[gi][a])
        if theta_u == theta:
            return None
    return ("no unary diagonal is consistent with the admissible generator "
            "values under the pointed compatible relations")


def classify_all(ctx: VarietyContext,
                 bound: int = DEFAULT_BOUND) -> dict[Congruence, CongruenceClassification]:
    """Each congruence of F(1), in ``Congruence.sort_key`` order, with its
    classification at the bound; Con F(1) is built once per context."""
    _check_bound(bound)

    def lattice():
        budget = Budget(ctx.budget_limit)
        return congruence_lattice(
            ctx.free_algebra(1).algebra,
            lambda cells: budget.charge(cells, "congruence lattice"))
    return ctx.memo(("classify", bound), lambda: {
        theta: classify_congruence(ctx, theta, bound)
        for theta in ctx.memo("congruence-lattice", lattice)})


# ---------------------------------------------------------------------------
# E- and G-congruences


def e_congruences(ctx: VarietyContext, bound: int = DEFAULT_BOUND):
    """All finite intersections of exact congruences of F(1).

    Returns (congruences, complete); ``complete`` is False when some
    exactness verdict is unknown at the bound, in which case the set is a
    lower approximation.
    """
    cls = classify_all(ctx, bound)
    exact = [t for t, c in cls.items() if c.exact.status == "yes"]
    complete = all(c.exact.status in ("yes", "no") for c in cls.values())
    return sorted(close_under(Congruence.meet, exact), key=Congruence.sort_key), complete


class GCongruences(_Value):
    """Generalizing congruences of a problem, ``status`` "exact" or "approximate".

    When the variety is 1EP the set is exact: the projective congruences
    below the kernel, which ``lower`` and ``upper`` then both hold.
    Otherwise only two-sided bounds are available: every projective
    congruence below the kernel generalizes (``lower``), and every
    generalizing congruence is exact and below the kernel (``upper``).
    """

    __slots__ = _fields = ("status", "lower", "upper", "maximal")

    def __init__(self, status: str, lower: tuple[Congruence, ...],
                 upper: tuple[Congruence, ...], maximal: tuple[Congruence, ...]):
        self._init(status, lower, upper, maximal)


def _maximal(congs: Sequence[Congruence]) -> tuple[Congruence, ...]:
    return tuple(t for t in congs
                 if not any(t is not u and t.leq(u) for u in congs))


def g_congruences(ap: AlgebraicProblem,
                  bound: int = DEFAULT_BOUND) -> GCongruences:
    """The problem's G-congruences.  They depend only on the bound and the
    kernel, a congruence of F(1), so the context finds them once per pair."""
    ctx, ker = ap.ctx, ap.kernel

    def compute() -> GCongruences:
        cls = classify_all(ctx, bound)
        lower = tuple(t for t, c in cls.items()
                      if c.projective.status == "yes" and t.leq(ker))
        upper = tuple(t for t, c in cls.items()
                      if c.exact.status in ("yes", "unknown") and t.leq(ker))
        # in a 1EP variety every exact congruence, and none unresolved, is
        # projective, so the two bounds meet
        status = "exact" if check_1ep(ctx, bound).status == "yes" else "approximate"
        return GCongruences(status, lower, upper, _maximal(lower))
    return ctx.memo(("g-congruences", bound, ker), compute)


def _every_exact_is(ctx: VarietyContext, bound: int, prop: str,
                    detail_key: str) -> Verdict:
    """Whether every exact congruence of F(1) has the classification
    ``prop``: "no" names the first exact one without it, "unknown" means
    one without it has unresolved exactness.  Cached on the context."""
    def verdict() -> Verdict:
        cls = classify_all(ctx, bound)
        for theta, c in cls.items():
            if c.exact.status == "yes" and getattr(c, prop).status == "no":
                return Verdict("no", None,
                               {"witness": congruence_name(ctx, theta),
                                detail_key: getattr(c, prop).detail})
        if any(c.exact.status == "unknown" and getattr(c, prop).status != "yes"
               for c in cls.values()):
            kind = prop.replace("_", "-")
            return Verdict("unknown", bound,
                           f"a non-{kind} congruence has unresolved exactness")
        return Verdict("yes", bound)
    return ctx.memo((prop, bound), verdict)


def check_1ep(ctx: VarietyContext, bound: int = DEFAULT_BOUND) -> Verdict:
    """Whether every 1-generated exact algebra in the variety is projective."""
    return _every_exact_is(ctx, bound, "projective", "projectivity_search")


def check_1esp(ctx: VarietyContext, bound: int = DEFAULT_BOUND) -> Verdict:
    """Whether every 1-generated exact algebra is strongly projective."""
    return _every_exact_is(ctx, bound, "strongly_projective", "failure")


# ---------------------------------------------------------------------------
# Translating solutions back to terms


def _rename_to_output(t: Term) -> Term:
    return apply_subst(Substitution.make({var_name(0): Var(OUTPUT_VAR)}), t)


class SolutionEntry(_Value):
    __slots__ = _fields = ("term", "witnesses")

    def __init__(self, term: Term, witnesses: tuple[Substitution, ...]):
        self._init(term, witnesses)

    def to_dict(self) -> dict:
        return {
            "term": term_to_str(self.term),
            "witnesses": [
                {v: term_to_str(t) for v, t in w.bindings} for w in self.witnesses
            ],
        }


def symbolic_solution(ap: AlgebraicProblem, theta: Congruence,
                      retract: tuple[int, int]) -> SolutionEntry:
    """Translate the natural-epimorphism solution for a projective
    congruence back to a witnessed 1-variable term, via the supplied
    retract pair (generator images of the embedding and retraction).

    Per (theta, retract), once on the context: the retract pair is
    re-verified, and the context keeps u, the least member of the block the
    retraction sends the generator to, with the solution term.  Per
    problem: theta is checked against the problem kernel, u's element in
    each exact factor is read off its range's quotient map, each witness is
    that element's least term built from the problem's own term, and the
    witnesses are re-checked against the variety.  Any failure raises
    InternalVerificationError.
    """
    def retract_pair() -> tuple[int, Term]:
        f1 = ap.ctx.free_algebra(1)
        a1 = f1.algebra
        t, q = retract
        # the quotient numbers its blocks by their least members; u is the
        # least member of block q, so the retraction sends the generator to
        # u's block
        u = sorted(set(theta.blocks))[q]
        if ap.ctx.evaluation_kernels(a1)[t] != theta:
            raise InternalVerificationError("embedding element does not realize the kernel")
        if not theta.related(f1.images(a1, (u,))[t], f1.generators[0]):
            raise InternalVerificationError("retract pair does not compose to the identity")
        return u, _rename_to_output(f1.reps[t])
    u, s_term = ap.ctx.memo(("retract-pair", theta, retract), retract_pair)
    if not theta.leq(ap.kernel):
        raise InternalVerificationError("solution kernel exceeds the problem kernel")

    # f factors the problem through the quotient; its value on block q is
    # h(u), u's image under each factor's quotient map
    return _gated_entry(ap, s_term, {
        OUTPUT_VAR: [factor.natural[u] for factor in ap.entries]})


def _gated_entry(ap: AlgebraicProblem, term: Term,
                 points: dict[str, Sequence[int]]) -> SolutionEntry:
    """The entry of ``term`` whose k-th witness binds each variable v to
    the witness of ``points[v][k]`` in t_k's exact factor, once it has
    passed the gate."""
    entry = SolutionEntry(term, tuple(
        Substitution.make({v: ap.witness(k, p[k]) for v, p in points.items()})
        for k in range(len(ap.entries))))
    _verify_entry(ap, entry)
    return entry


def _verify_entry(ap: AlgebraicProblem, entry: SolutionEntry) -> None:
    """The soundness gate, once per witness: sigma_k(s) = t_k must hold in
    the variety.  Every assignment to the joint variables extends to the
    problem's, so comparing the two in the problem's view decides it; a
    witness that uses any other variable fails.

    By the substitution lemma for term functions, sigma_k(s) evaluates as s
    with each variable v bound to sigma_k(v)'s vector (Burris and
    Sankappanavar, A Course in Universal Algebra, 1981, II.10).  So s is
    checked once, and per witness each binding of a variable of s is checked
    and evaluated once, all before any is evaluated, as sigma_k(s) would be;
    a binding that is t_k itself reads the vector the problem holds for it,
    and an unbound variable reads its projection."""
    terms = ap.problem.terms
    if len(entry.witnesses) != len(terms):
        raise InternalVerificationError("wrong number of witnesses")
    sig, names = ap.ctx.spec.sig, []
    check_term(entry.term, sig, names)
    for sigma, t, vec in zip(entry.witnesses, terms, ap.vectors):
        bindings = [sigma.get(v) for v in names]
        for b in bindings:
            if b is not t:
                check_term(b, sig)
        try:
            env = {v: vec if b is t else ap.index.eval_term(b, ap.env)
                   for v, b in zip(names, bindings)}
        except AlgebraError as e:
            raise InternalVerificationError(
                f"witness fails: {sigma}({term_to_str(entry.term)}) is outside "
                f"the problem's variables: {e}") from None
        if ap.index.eval_term(entry.term, env) != vec:
            raise InternalVerificationError(
                f"witness fails: {sigma}({term_to_str(entry.term)}) is not "
                f"{term_to_str(t)} in the variety")


# ---------------------------------------------------------------------------
# Generality comparison


def _instance_substitution(ctx: VarietyContext, s: Term, more_general: Term):
    """A substitution sending ``more_general`` to ``s`` modulo the variety,
    or None.  Candidate images range over the free algebra on Var(s)."""
    vars_target = term_vars(more_general)
    if not vars_target:
        return (Substitution.empty()
                if ctx.holds_identity(s, more_general) else None)
    vars_s = term_vars(s)
    try:
        free_s = ctx.generated_by_terms(vars_s, [Var(v) for v in vars_s])
    except AlgebraError:
        return None  # no ground terms exist, so nothing to map into
    Budget(ctx.budget_limit).charge(
        free_s.algebra.size ** len(vars_target), "generality search")
    alg = free_s.algebra
    target = alg.eval(s, dict(zip(vars_s, free_s.generators)))
    found = _first_assignment(alg, more_general, vars_target, target)
    return None if found is None else Substitution.make(
        {v: free_s.rep(e) for v, e in zip(vars_target, found)})


def compare_generality(ctx: VarietyContext, s: Term, s2: Term) -> str:
    """Compare two terms in the generality preorder of the variety.

    Returns "less" when s is strictly less general than s2, "greater",
    "equal", or "incomparable"; both directions are decided by exhaustive
    search over images in the free algebra on the other side's variables.
    """
    check_term(s, ctx.spec.sig)
    check_term(s2, ctx.spec.sig)
    le = _instance_substitution(ctx, s, s2) is not None
    ge = _instance_substitution(ctx, s2, s) is not None
    if le and ge:
        return "equal"
    if le:
        return "less"
    if ge:
        return "greater"
    return "incomparable"


# ---------------------------------------------------------------------------
# Reports and the top-level pipeline


class TypeVerdict(_Value):
    __slots__ = _fields = ("kind", "size", "reason")

    # kind: unitary, finitary or inconclusive
    def __init__(self, kind: str, size: int | None = None, reason: str | None = None):
        self._init(kind, size, reason)

    def render(self) -> str:
        if self.kind == "finitary":
            return f"finitary({self.size})"
        return self.kind

    to_dict = Verdict.to_dict


def output_names(ctx: VarietyContext) -> list[str]:
    """F(1)'s elements as printed: each representative in the output
    variable z.  Computed once per context."""
    return ctx.memo("output-names", lambda: [
        term_to_str(_rename_to_output(r)) for r in ctx.free_algebra(1).reps])


def congruence_blocks_labels(ctx: VarietyContext, theta: Congruence) -> list[list[str]]:
    names = output_names(ctx)
    return [[names[e] for e in block] for block in theta.classes()]


def congruence_name(ctx: VarietyContext, theta: Congruence) -> str:
    """Stable display name: identity/total, else a minimal generating pair,
    the first in rank order in one pass over F(1)'s principal congruences
    per context."""
    if theta.is_identity():
        return "identity" if not theta.is_total() else "identity=total"
    if theta.is_total():
        return "total"

    def principal_names() -> dict[Congruence, str]:
        f1, names = ctx.free_algebra(1), output_names(ctx)
        principal = f1.algebra.principal_congruences
        found = {}
        for x, y in itertools.combinations(f1.order, 2):
            found.setdefault(principal[min(x, y), max(x, y)],
                             f"con({names[x]},{names[y]})")
        return found
    return ctx.memo("principal-names", principal_names).get(
        theta, "congruence" + str(theta.blocks))


def classification_rows(ctx: VarietyContext,
                        cls: dict[Congruence, CongruenceClassification]) -> list[dict]:
    """One row per classified congruence, in the order of ``cls``: its
    name, its blocks and its three verdicts."""
    return [{"name": congruence_name(ctx, t),
             "blocks": congruence_blocks_labels(ctx, t),
             "exact": c.exact.to_dict(),
             "projective": c.projective.to_dict(),
             "strongly_projective": c.strongly_projective.to_dict()}
            for t, c in cls.items()]


class GeneralizationReport(_Value):
    __slots__ = _fields = ("problem", "bound", "kernel", "classifications", "g", "mcsg",
                           "type", "ep", "esp", "caveats", "shortcut", "method")

    # its dict fields, the classifications and the shortcut note, leave it unhashable
    def __init__(self, problem: SymbolicProblem, bound: int, kernel: Congruence,
                 classifications: dict[Congruence, CongruenceClassification],
                 g: GCongruences, mcsg: tuple[SolutionEntry, ...], type: TypeVerdict,
                 ep: Verdict, esp: Verdict, caveats: tuple[str, ...], shortcut: dict,
                 method: str = "congruence-pipeline"):
        self._init(problem, bound, kernel, classifications, g, mcsg, type, ep, esp,
                   caveats, shortcut, method)

    @property
    def ctx(self) -> VarietyContext:
        return self.problem.ctx

    def to_dict(self) -> dict:
        ctx = self.ctx
        return {
            "variety": ctx.spec.name,
            "terms": [term_to_str(t) for t in self.problem.terms],
            "variables": list(self.problem.variables),
            "bound": self.bound,
            "method": self.method,
            "kernel": {
                "name": congruence_name(ctx, self.kernel),
                "blocks": congruence_blocks_labels(ctx, self.kernel),
            },
            "congruences": classification_rows(ctx, self.classifications),
            "g_congruences": {
                "status": self.g.status,
                "members": [congruence_name(ctx, t) for t in self.g.lower],
                "lower": [congruence_name(ctx, t) for t in self.g.lower],
                "upper": [congruence_name(ctx, t) for t in self.g.upper],
                "maximal": [congruence_name(ctx, t) for t in self.g.maximal],
            },
            "mcsg": [e.to_dict() for e in self.mcsg],
            "type": self.type.to_dict(),
            "properties": {"1ep": self.ep.to_dict(), "1esp": self.esp.to_dict()},
            "caveats": list(self.caveats),
            "shortcut": self.shortcut,
        }


def _first_generators(ctx: VarietyContext, factors: Sequence[FiniteAlgebra],
                      bound: int, budget: Budget):
    """The first generating tuple of the product P of ``factors`` by size,
    then lexicographic order, with at most ``bound`` elements, as
    (generators, F(k), pi) with pi the images of F(k)'s elements under
    x_i -> p_i; None if there is none.  P's elements are the tuples of
    factor elements, in lexicographic order, and pi is the zip of the maps
    F(k) -> E_j with x_i -> p_i[j], each walked once per coordinate tuple.
    A tuple generates iff pi is onto, by the universal property of F(k),
    hence only if each map is, so a map not onto E_j is kept as None and
    drops its candidates; a k-generated algebra has at most |F(k)|
    elements, so a k with |P| > |F(k)| is skipped.  When the constants generate, k = 0 and x1
    goes to (0, ..., 0).  Each k charges its C(|P|, k) walks of |F(k)|
    steps to ``budget`` before the first; raises BudgetExceeded for those
    or for an F(k) above the budget."""
    size = math.prod(f.size for f in factors)
    if len(subpower(factors, ())) == size:
        f1 = ctx.free_closure(1)
        return (), f1, list(zip(*(f1.images(f, (0,)) for f in factors)))
    elements = list(itertools.product(*(f.elements() for f in factors)))
    for k in range(1, min(bound, size) + 1):
        fk = ctx.free_closure(k)
        if size > fk.size:
            continue
        budget.charge(math.comb(size, k) * fk.size, "product shortcut")
        walks = [{} for _ in factors]  # per factor, its images by coordinate tuple
        for gens in itertools.combinations(elements, k):
            columns = []
            for f, seen, c in zip(factors, walks, zip(*gens)):
                if c not in seen:
                    seen[c] = None if len(set(image := fk.images(f, c))) < f.size else image
                if (column := seen[c]) is None:
                    break
                columns.append(column)
            if len(columns) == len(factors) and len(set(zip(*columns))) == size:
                return gens, fk, list(zip(*columns))
    return None


def _product_shortcut(ap: AlgebraicProblem, bound: int):
    """Whether the product P of the exact factors is itself projective:
    then the problem is its own least general solution and the type is
    unitary.  The answer depends only on the factors, so it is found once
    per bound and ordered tuple of term ranges on the context, from each
    range's factor algebra; each call gets its own report dict.  No product
    algebra is built: P's elements are tuples over the factors' own tables.
    The generator search is capped at the bound, and a P larger than
    F(bound) is skipped before its tuples are listed.  Listing them, each
    size of the generator walk and the section search are charged to one
    budget before each runs; a charge that does not fit skips the shortcut.

    P, generated by p_1..p_n, is projective iff the epimorphism
    pi: F(n) -> P with x_i -> p_i has a section (Ghilardi, Unification
    through projectivity, 1997).  With n = 0, x1 goes to (0, ..., 0).  For
    each choice f of f_i in the fibre of p_i, in ascending order,
    psi: F(n) -> F(n) with x_i -> f_i factors through pi exactly when it is
    constant on pi's fibres; the factor s with s(p_i) = f_i is then a
    section, as pi(s(p_i)) = p_i on generators.  So the first such f
    decides it.

    Returns (report dict, retract data or None); the retract data is
    (the points p_i, free algebra, section, s), the section a dict over P's
    tuples and s its image of the problem tuple as a term in z1..zn, found
    with the rest, so each solve reads it.
    """
    ctx = ap.ctx

    def search():
        factors = [factor.algebra for factor in ap.entries]
        no_gens = {"status": "skipped",
                   "reason": f"no generating set of size <= {bound}"}
        try:
            if math.prod(f.size for f in factors) > ctx.free_closure(bound).size:
                return no_gens, None
        except BudgetExceeded:
            pass  # the search below decides, or meets the budget itself
        budget = Budget(ctx.budget_limit)
        try:
            budget.charge(_product_cells(factors), "product shortcut")
            found = _first_generators(ctx, factors, bound, budget)
            if found is None:
                return no_gens, None
            gens, fk, pi = found
            points = gens or ((0,) * len(factors),)
            fibres: dict[tuple[int, ...], list[int]] = {}
            for e, p in enumerate(pi):
                fibres.setdefault(p, []).append(e)
            budget.charge(math.prod(len(fibres[p]) for p in points) * fk.size,
                          "product shortcut")
        except BudgetExceeded:
            # the shortcut's own charges overdraw its budget; an F(k) does not
            reason = ("search above budget" if budget.used > budget.limit
                      else "free algebra above budget")
            return {"status": "skipped", "reason": reason}, None
        for choice in itertools.product(*(fibres[p] for p in points)):
            psi = fk.images(fk.algebra, choice)
            section = {p: psi[fibre[0]] for p, fibre in fibres.items()}
            if all(psi[e] == section[p] for e, p in enumerate(pi)):
                note = {"status": "projective", "generators": len(gens),
                        "note": "the problem is the minimum of its solution poset; "
                                "type unitary"}
                # the section's image of the problem tuple, each factor's
                # generator, in the output variables z1..zn
                out_vars = {var_name(i): Var(f"z{i + 1}") for i in range(fk.n)}
                s_term = apply_subst(Substitution.make(out_vars),
                                     fk.rep(section[(0,) * len(factors)]))
                return note, (points, fk, section, s_term)
        return {"status": "not-projective", "generators": len(gens)}, None
    note, data = ctx.memo(("shortcut", bound, ap.ranges), search)
    return dict(note), data


def solve(problem: SymbolicProblem,
          bound: int = DEFAULT_BOUND) -> GeneralizationReport:
    """Full pipeline: kernel, classification, G-congruences, minimal
    complete set of generalizers, and the type verdict.

    In a 1EP variety the G-congruences decide the answer, so the product
    shortcut is skipped; elsewhere it is the only route to a verdict.
    Every emitted entry has been verified once, by the function that
    built it."""
    _check_bound(bound)
    ctx = problem.ctx
    ap = alg_of(problem)
    cls = classify_all(ctx, bound)
    ep = check_1ep(ctx, bound)
    esp = check_1esp(ctx, bound)
    g = g_congruences(ap, bound)
    caveats: list[str] = []
    mcsg: list[SolutionEntry] = []

    if ep.status == "yes":
        shortcut = {"status": "skipped", "reason": "variety is 1EP"}
        for theta in g.maximal:
            mcsg.append(symbolic_solution(ap, theta, cls[theta].retract))
        if len(mcsg) > 1:
            mcsg.sort(key=lambda e: term_rank(e.term, ctx.spec.sig))
        size = len(mcsg)
        type_verdict = TypeVerdict("unitary" if size == 1 else "finitary", size)
        if esp.status != "yes":
            caveats.append(
                "soundness verified; minimal completeness of the emitted set "
                f"rests on 1ESP, which is {esp.status} at bound {bound}")
    else:
        shortcut, retract_data = _product_shortcut(ap, bound)
        if shortcut.get("status") == "projective":
            mcsg.append(_shortcut_solution(ap, retract_data))
            type_verdict = TypeVerdict("unitary", 1,
                                       "product of exact factors is projective")
            caveats.append("variety is not 1EP; verdict rests on the "
                           "projectivity of the factor product")
        else:
            type_verdict = TypeVerdict(
                "inconclusive", None,
                f"variety is not 1EP (1EP is {ep.status}); only two-sided "
                "congruence bounds are available")
            caveats.append("no minimal complete set emitted; G-congruences are "
                           "bracketed by the lower and upper sets")

    return GeneralizationReport(
        problem=problem, bound=bound, kernel=ap.kernel, classifications=cls,
        g=g, mcsg=tuple(mcsg), type=type_verdict, ep=ep, esp=esp,
        caveats=tuple(caveats), shortcut=shortcut)


def _shortcut_solution(ap: AlgebraicProblem, retract_data) -> SolutionEntry:
    """Sym of the problem itself, valid when the factor product is
    projective: the section sends the problem tuple h to a term s over
    x1..xn with s(p_1, ..., p_n) = h, so z_i -> p_i, projected to each
    factor, witnesses it.  Output variables are z1..zn."""
    points, _, _, s_term = retract_data
    return _gated_entry(ap, s_term, {f"z{i + 1}": p for i, p in enumerate(points)})


# ---------------------------------------------------------------------------
# Pairwise reduction


def two_term_unitary(ctx: VarietyContext, bound: int = DEFAULT_BOUND) -> Verdict:
    """Whether every 2-term problem in the variety has unitary type:
    1ESP must hold and every intersection of two exact congruences must
    have a unique maximal projective congruence below it."""
    esp = check_1esp(ctx, bound)
    if esp.status != "yes":
        return Verdict(esp.status, bound, {"1esp": esp.to_dict()})
    cls = classify_all(ctx, bound)
    exact = [t for t, c in cls.items() if c.exact.status == "yes"]
    projective = [t for t, c in cls.items() if c.projective.status == "yes"]
    for t1 in exact:
        for t2 in exact:
            ker = t1.meet(t2)
            below = [p for p in projective if p.leq(ker)]
            if len(_maximal(below)) != 1:
                return Verdict("no", bound,
                               {"kernel": congruence_name(ctx, ker)})
    return Verdict("yes", bound)


def pairwise_reduce(problem: SymbolicProblem,
                    bound: int = DEFAULT_BOUND) -> GeneralizationReport:
    """Iterated pairing: solve 2-term subproblems and recurse on their
    solutions (duplicating the odd tail) until a single term remains.
    Requires the variety to be verified unitary on 2-term problems."""
    ctx = problem.ctx
    ok = two_term_unitary(ctx, bound)
    if ok.status != "yes":
        raise SolverError(
            f"pairwise reduction requires unitary 2-term type; check is {ok.status}")
    terms = list(problem.terms)
    if len(terms) == 1:
        terms = [terms[0], terms[0]]
    while len(terms) > 1:
        if len(terms) % 2 == 1:
            terms.append(terms[-1])
        next_terms = []
        for i in range(0, len(terms), 2):
            sub = SymbolicProblem(ctx, (terms[i], terms[i + 1]))
            rep = solve(sub, bound)
            if rep.type.kind != "unitary":
                raise SolverError("a 2-term subproblem was not unitary")
            next_terms.append(rep.mcsg[0].term)
        terms = next_terms
    final = terms[0]

    ap = alg_of(problem)
    elements = []
    for factor in ap.entries:
        found = _first_assignment(factor.algebra, final, [OUTPUT_VAR], 0)
        if found is None:
            raise InternalVerificationError(
                "no witness for the pairwise solution inside the exact factor")
        elements.append(found[0])
    entry = _gated_entry(ap, final, {OUTPUT_VAR: elements})

    cls = classify_all(ctx, bound)
    report = GeneralizationReport(
        problem=problem, bound=bound, kernel=ap.kernel, classifications=cls,
        g=g_congruences(ap, bound), mcsg=(entry,),
        type=TypeVerdict("unitary", 1), ep=check_1ep(ctx, bound),
        esp=check_1esp(ctx, bound), caveats=(),
        shortcut={"status": "skipped", "reason": "pairwise reduction"},
        method="pairwise-reduction")
    return report
