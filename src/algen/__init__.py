"""Equational generalization (anti-unification) over locally finite
varieties presented by finite generating algebras."""

from .algebra import (
    AlgebraError,
    Congruence,
    FiniteAlgebra,
    congruence_lattice,
    direct_product,
    enumerate_homs,
    min_generators,
    principal_congruence,
    quotient,
)
from .kleene import (
    InvolutivePoset,
    NotKleeneError,
    dual_poset,
    is_exact_by_quasieq,
    is_projective_by_duality,
)
from .solver import (
    AlgebraicProblem,
    CongruenceClassification,
    GeneralizationReport,
    InternalVerificationError,
    SolverError,
    SymbolicProblem,
    Verdict,
    alg_of,
    check_1ep,
    check_1esp,
    classify_all,
    classify_congruence,
    compare_generality,
    e_congruences,
    g_congruences,
    pairwise_reduce,
    solve,
    symbolic_solution,
)
from .terms import (
    App,
    ParseError,
    Signature,
    Substitution,
    Term,
    TermError,
    Var,
    apply_subst,
    infer_signature,
    lgg_syntactic,
    parse_term,
    term_to_str,
)
from .varfile import VarFileError, dump_variety, load_variety, loads_variety
from .variety import (
    BudgetExceeded,
    FreeAlgebra,
    VarietyContext,
    VarietySpec,
)

__version__ = "0.1.0"
