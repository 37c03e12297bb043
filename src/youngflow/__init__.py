"""youngflow: Young differential equations driven by finite p-variation paths.

Sampled-path p-variation analysis, certified Young integration,
greedy-time adaptive Picard solving (forward and backward), growth and
Gronwall-type bound certificates, and two-parameter flow verification.
"""

from .coefficients import (
    BUILTIN_FIELDS,
    CoefficientField,
    DerivedConstants,
    ExponentSet,
    GronwallData,
    bounded_smooth_field,
    composed_difference_bound,
    composed_path,
    composed_variation_bound,
    derived_constants,
    linear_field,
    scalar_field,
    select_exponents,
    time_varying_field,
    verify_hypotheses,
)
from .drivers import FbmSpec, analytic_driver, fbm_covariance_defect, fbm_sample
from .errors import (
    DataError,
    DomainError,
    GreedyExhausted,
    InfeasibleExponentsError,
    JoinError,
    ParameterError,
    PreconditionError,
    RegularityError,
    ShapeError,
    SizeError,
    SolveError,
    YoungflowError,
)
from .flow import (
    FlowCheckReport,
    cauchy_operator,
    flow_axiom_check,
    non_intersection_check,
)
from .greedy import (
    CountBound,
    GreedySequence,
    count_bound,
    greedy_sequence,
    next_greedy_time,
)
from .io import path_from_csv, path_to_csv
from .paths import (
    ControlFunction,
    Interval,
    SampledPath,
    concatenate,
    dominated_variation_bound,
    holder_norm,
    metric_d,
    p_variation,
    p_variation_bruteforce,
    p_variation_norm,
)
from .scenarios import DETERMINISTIC_BUNDLE, FLOW_BUNDLE, SCENARIOS, closed_form_error, run_scenario
from .solver import (
    FApplication,
    GronwallInput,
    SolveOptions,
    SolveReport,
    apply_F,
    apply_F_certificate,
    build_gronwall_input,
    euler_solve,
    gronwall_certificate,
    growth_certificate,
    solve_backward,
    solve_forward,
)
from .young import (
    Certificate,
    IntegralResult,
    YoungConstants,
    reverse_integral,
    rs_sum,
    young_integral,
    young_loeve_check,
)

__version__ = "0.1.0"
