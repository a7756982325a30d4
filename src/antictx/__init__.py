"""Contextuality scenarios, antidistinguishability, and the noncontextuality
inequalities they generate, over exact rational arithmetic."""

from .antidist import (
    AntidistCertificate,
    AntidistVerdict,
    TripleOverlaps,
    corollary_check,
    scenario_antidistinguishable,
    triple_antidistinguishable,
    verify_certificate,
)
from .antiset import (
    NoncontextualityInequality,
    PairwiseAntiset,
    add_constrained_outcome,
    add_context_normalization,
    add_inequality,
    evaluate_inequality,
    find_strong_antisets,
    inequality_from_antiset,
    verify_strong_antiset,
    verify_weak_antiset,
)
from .ensembles import FamilySpec, generate_scenario, generate_states
from .quantum import (
    TOLERANCE,
    DensityOperator,
    GramData,
    PureStateSet,
    frame_operator,
    gram,
    quantum_value,
    scenario_from_states,
)
from .ratlp import (
    LinearProgram,
    LPResult,
    Rational,
    build_state_polytope,
    solve,
    state_optimize,
    state_uniqueness,
)
from .scenario import (
    Scenario,
    ValidationReport,
    load_scenario,
    make_scenario,
    save_scenario,
    validate_scenario,
)
from .valuefns import (
    ClassicalBoundResult,
    MembershipVerdict,
    NoncontextualDecomposition,
    ValueFunction,
    brute_force_antiset_bound,
    classical_bound,
    count_value_functions,
    definite_intersection,
    enumerate_value_functions,
    is_noncontextual_state,
)

__version__ = "0.1.0"
