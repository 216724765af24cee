"""Numerical analysis toolkit for monotone operators on finite
dimensional norm pairs: Fitzpatrick functions, quasidensity gaps, fuzzy
density criteria, operator class checks, and constructive approximate
subgradient procedures, with a scenario-driven CLI."""

from .br import BRRequest, BRResult, br_corollary, br_point, quasidense_witness, van_point
from .classifiers import (
    ClassifierVerdict,
    StrongMaxResult,
    check_fp,
    check_fpv,
    ni_infimum,
    strong_max_dual,
    strong_max_primal,
)
from .fitzpatrick import (
    FitzEvaluation,
    fitz_membership,
    phi,
    phi_conj,
    theta,
    theta_conj,
)
from .functions import (
    Affine,
    ConvexFn,
    HalfSqNorm,
    IndicatorFn,
    NormFn,
    Quadratic,
    Separable,
    Staircase,
    SumFn,
    SupportFn,
    Translate,
    add_fns,
    minimize,
    separable_pieces,
)
from .harness import (
    Scenario,
    ScenarioError,
    load_scenario,
    parse_fn,
    parse_operator,
    parse_scenario,
    parse_set,
    parse_space,
    report_csv,
    report_json,
    run_scenario,
    strip_timings,
    sum_test,
    tail_experiment,
)
from .operators import (
    FiniteGraph,
    InverseOp,
    Linear,
    MonotoneOperator,
    MonotonicityVerdict,
    NormalCone,
    ResolventError,
    Shift,
    Subdifferential,
    SumOp,
    SupportSubdiff,
    add,
    inverse,
    monotone_check,
    normal_cone,
    parallel_sum,
    support_subdiff,
    tail_operator,
)
from .quasidensity import (
    GapQuery,
    GapReport,
    QuasidensityReport,
    default_probes,
    fuzzy_gap_dual,
    fuzzy_gap_primal,
    gap,
    gap_euclidean_oracle,
    gaps,
    is_quasidense,
    r_objective,
)
from .sets import Ball, Capsule, CompactConvexSet, Polytope, box, interval, singleton
from .spaces import (
    DualPair,
    NormTag,
    PairedPoint,
    graph_norm,
    norm_subgradient,
    vector_norm,
)

__version__ = "0.1.0"
