import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algen.terms import (
    App,
    ParseError,
    Signature,
    Substitution,
    TermError,
    Var,
    apply_subst,
    infer_signature,
    lgg_syntactic,
    parse_term,
    term_to_str,
    term_vars,
)

KLEENE_SIG = Signature.make([("and", 2), ("or", 2), ("not", 1), ("0", 0), ("1", 0)])
BOOL_SIG = KLEENE_SIG
FAB_SIG = Signature.make([("f", 2), ("a", 0), ("b", 0)])
FG_SIG = Signature.make([("f", 1), ("g", 1), ("a", 0)])
SUGAR_SIG = Signature.make([("and", 2), ("or", 2), ("not", 1), ("imp", 2),
                            ("plus", 2), ("oplus", 2)])


# ---------------------------------------------------------------------------
# Syntactic matching oracle: derived lgg expectations are re-checked against
# brute-force enumeration of candidate generalizers.


def match(pattern, target, binding=None):
    """Substitution sending pattern to target syntactically, or None."""
    if binding is None:
        binding = {}
    if isinstance(pattern, Var):
        if pattern.name in binding:
            return binding if binding[pattern.name] == target else None
        binding[pattern.name] = target
        return binding
    if isinstance(target, App) and target.op == pattern.op and len(target.args) == len(pattern.args):
        for p, t in zip(pattern.args, target.args):
            if match(p, t, binding) is None:
                return None
        return binding
    return None


def generalizes(pattern, terms):
    return all(match(pattern, t, {}) is not None for t in terms)


def enumerate_terms(sig, var_names, depth):
    """All terms over sig and the given variables up to the given depth."""
    if depth == 0:
        return []
    out = [Var(v) for v in var_names]
    out += [App(n, ()) for n, a in sig.ops if a == 0]
    if depth > 1:
        smaller = enumerate_terms(sig, var_names, depth - 1)
        for n, a in sig.ops:
            if a == 0:
                continue
            stack = [()]
            for _ in range(a):
                stack = [s + (t,) for s in stack for t in smaller]
            out += [App(n, args) for args in stack]
    return out


# ---------------------------------------------------------------------------
# Parsing / printing


def test_parse_prefix():
    t = parse_term("and(x,not(x))", KLEENE_SIG)
    assert t == App("and", (Var("x"), App("not", (Var("x"),))))


def test_parse_bare_nullary():
    assert parse_term("1", BOOL_SIG) == App("1", ())
    assert parse_term("0", BOOL_SIG) == App("0", ())


def test_parse_unbalanced_offset():
    with pytest.raises(ParseError) as exc:
        parse_term("f(x", Signature.make([("f", 1)]))
    assert exc.value.offset == 3


def test_parse_unknown_op():
    with pytest.raises(ParseError):
        parse_term("h(x)", FG_SIG)


def test_parse_arity_mismatch():
    with pytest.raises(ParseError):
        parse_term("f(x,y)", FG_SIG)


def test_parse_infix_sugar():
    t = parse_term("x ∧ ¬ x", KLEENE_SIG)
    assert t == App("and", (Var("x"), App("not", (Var("x"),))))
    t2 = parse_term("(x∧¬x)∨(y∨¬y)", KLEENE_SIG)
    assert t2.op == "or"


@pytest.mark.parametrize("src,expected", [
    ("x → y → z", "imp(x,imp(y,z))"),
    ("x + y ⊕ z", "oplus(plus(x,y),z)"),
    ("x ∨ y ∧ z", "or(x,and(y,z))"),
    ("x ∧ y ∨ z → w + v", "imp(or(and(x,y),z),plus(w,v))"),
], ids=["imp-right", "sum-left", "and-over-or", "all-levels"])
def test_parse_sugar_precedence_and_associativity(src, expected):
    # loosest first: → (right-associative), then + and ⊕, ∨, ∧ (left)
    assert term_to_str(parse_term(src, SUGAR_SIG)) == expected


def test_parse_sugar_requires_named_op():
    with pytest.raises(ParseError):
        parse_term("x + y", KLEENE_SIG)  # no 'plus' in this signature


def test_parse_rejects_minted_names():
    with pytest.raises(ParseError):
        parse_term("g1", KLEENE_SIG)


def test_print_parse_roundtrip_examples():
    for src in ["and(x,not(x))", "1", "or(and(x,y),0)"]:
        t = parse_term(src, KLEENE_SIG)
        assert parse_term(term_to_str(t), KLEENE_SIG) == t


def terms_strategy(sig, max_depth=3):
    leaves = st.sampled_from([Var("x"), Var("y"), Var("z")]
                             + [App(n, ()) for n, a in sig.ops if a == 0])

    def extend(children):
        ops = [(n, a) for n, a in sig.ops if a > 0]
        return st.sampled_from(ops).flatmap(
            lambda op: st.tuples(*([children] * op[1])).map(lambda args: App(op[0], args)))

    return st.recursive(leaves, extend, max_leaves=8)


@given(terms_strategy(KLEENE_SIG))
@settings(max_examples=200)
def test_print_parse_roundtrip_property(t):
    assert parse_term(term_to_str(t), KLEENE_SIG) == t


# ---------------------------------------------------------------------------
# Signature inference: the parser, recording arities instead of checking them


def test_infer_signature_counts_only_its_own_commas():
    assert infer_signature(["f(g(a,b),c)"]) == Signature.make(
        [("f", 2), ("g", 2)])


def test_infer_signature_blank_argument_list_is_nullary():
    assert infer_signature(["f( )", "f()"]) == Signature.make([("f", 0)])


def test_infer_signature_applied_once_is_a_constant_everywhere():
    # bare a is a variable until a() somewhere makes a a constant
    sig = infer_signature(["a", "a()"])
    assert sig == Signature.make([("a", 0)])
    assert parse_term("a", sig) == App("a", ())


def test_infer_signature_leaves_sugar_to_the_checking_read():
    sig = infer_signature(["and(x,y)", "x∧z"])
    assert sig == Signature.make([("and", 2)])
    assert parse_term("x∧z", sig) == App("and", (Var("x"), Var("z")))
    assert infer_signature(["x∨y"]) == Signature.make([])


def test_infer_signature_rejects_an_arity_clash():
    with pytest.raises(TermError, match="'f' used with arities 1 and 2"):
        infer_signature(["f(a)", "f(a,b)"])


def test_infer_signature_rejects_an_operation_named_like_a_variable():
    with pytest.raises(TermError, match="'g1' is reserved for variables"):
        infer_signature(["g1(a)", "g1(b)"])


def operations(t):
    if isinstance(t, App):
        yield t.op, len(t.args)
        for a in t.args:
            yield from operations(a)


@st.composite
def constant_free_problems(draw):
    arities = draw(st.dictionaries(
        st.sampled_from(["f", "h", "k", "and", "not", "op_2"]),
        st.integers(1, 3), min_size=1))
    sig = Signature.make(sorted(arities.items()))
    return draw(st.lists(terms_strategy(sig), min_size=1, max_size=3))


@given(constant_free_problems())
@settings(max_examples=100)
def test_infer_signature_reads_back_the_operations_property(ts):
    # without constants every operation prints applied, so the text shows
    # each one with its arity and nothing else
    contained = {op for t in ts for op in operations(t)}
    assert infer_signature([term_to_str(t) for t in ts]) == Signature.make(
        sorted(contained))


# ---------------------------------------------------------------------------
# Substitutions


def test_apply_subst_examples():
    z_to = Substitution.make({"z": parse_term("and(x,y)", KLEENE_SIG)})
    assert apply_subst(z_to, Var("z")) == parse_term("and(x,y)", KLEENE_SIG)
    t = parse_term("and(z,not(z))", KLEENE_SIG)
    assert apply_subst(Substitution.empty(), t) == t
    s = Substitution.make({"z": Var("x")})
    assert apply_subst(s, t) == parse_term("and(x,not(x))", KLEENE_SIG)


@given(terms_strategy(KLEENE_SIG))
@settings(max_examples=100)
def test_subst_composition_property(t):
    sigma = Substitution.make({"x": parse_term("or(y,0)", KLEENE_SIG)})
    tau = Substitution.make({"y": parse_term("not(x)", KLEENE_SIG), "z": Var("x")})
    lhs = apply_subst(sigma.compose(tau), t)
    rhs = apply_subst(sigma, apply_subst(tau, t))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# Syntactic lgg


def test_lgg_same_shape():
    t1 = parse_term("f(a,a)", FAB_SIG)
    t2 = parse_term("f(b,b)", FAB_SIG)
    g, sigmas = lgg_syntactic([t1, t2])
    assert g == App("f", (Var("g1"), Var("g1")))
    assert apply_subst(sigmas[0], g) == t1
    assert apply_subst(sigmas[1], g) == t2
    # Oracle: no generalizer of depth <= 2 with fewer variables exists.
    for cand in enumerate_terms(FAB_SIG, [], 2):
        assert not generalizes(cand, [t1, t2])
    # And the result is itself a valid generalizer per the matching oracle.
    assert generalizes(g, [t1, t2])


def test_lgg_single_term():
    t = parse_term("f(a,b)", FAB_SIG)
    g, sigmas = lgg_syntactic([t])
    assert g == t
    assert sigmas == [Substitution.empty()]


def test_lgg_head_clash():
    t1 = parse_term("f(a)", FG_SIG)
    t2 = parse_term("g(a)", FG_SIG)
    g, sigmas = lgg_syntactic([t1, t2])
    assert g == Var("g1")
    assert apply_subst(sigmas[0], g) == t1
    assert apply_subst(sigmas[1], g) == t2
    # Oracle: every depth-1 candidate other than a variable fails.
    for cand in enumerate_terms(FG_SIG, [], 1):
        assert not generalizes(cand, [t1, t2])


def test_lgg_shared_mismatch_reuses_variable():
    sig = Signature.make([("f", 2), ("a", 0), ("b", 0), ("c", 0), ("d", 0)])
    t1 = parse_term("f(a,a)", sig)
    t2 = parse_term("f(b,b)", sig)
    t3 = parse_term("f(c,d)", sig)
    g, sigmas = lgg_syntactic([t1, t2, t3])
    # first and second positions disagree as tuples, so two variables
    assert g == App("f", (Var("g1"), Var("g2")))
    for k, t in enumerate([t1, t2, t3]):
        assert apply_subst(sigmas[k], g) == t


def test_lgg_witnesses_recover_inputs_property():
    pool = [
        parse_term(s, KLEENE_SIG)
        for s in ["and(x,not(x))", "and(y,not(y))", "or(x,1)", "not(and(x,y))", "0"]
    ]
    for i in range(len(pool)):
        for j in range(len(pool)):
            g, sigmas = lgg_syntactic([pool[i], pool[j]])
            assert apply_subst(sigmas[0], g) == pool[i]
            assert apply_subst(sigmas[1], g) == pool[j]


def test_term_vars_first_occurrence():
    t = parse_term("and(or(y,x),not(y))", KLEENE_SIG)
    assert term_vars(t) == ["y", "x"]


def test_signature_validation():
    with pytest.raises(TermError):
        Signature.make([("f", 2), ("f", 1)])
    with pytest.raises(TermError):
        Signature.make([("f", -1)])
