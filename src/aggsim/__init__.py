"""Accelerated distributed aggregative optimization: solvers, stability
analysis, and an experiment harness."""

from .exceptions import (
    ConfigError,
    ConstructionFailed,
    DivergenceDetected,
    InconsistentResult,
    InvalidArgument,
    OutOfValidityRegion,
    UnsupportedDegree,
)
from .graph import CommGraph, build_topology
from .oracle import OracleSolution, solve
from .problems import (
    AggregativeProblem,
    RegularityConstants,
    make_cournot,
    make_placement,
    make_quadratic,
)
from .solver import (
    ALGORITHMS,
    CommChannel,
    IterTrace,
    SolverConfig,
    SolverState,
    init_state,
    run,
    step,
)
from .stability import (
    ConservativeBounds,
    ErrorSystemMatrix,
    JuryVerdict,
    StabilityConstants,
    attained_optimal_radius,
    char_poly_4x4,
    compare_char_coeffs,
    conservative_bounds_hb,
    conservative_bounds_nes,
    error_matrix_hb,
    error_matrix_nes,
    error_matrix_nes_relaxed,
    jury_stable,
    momentum_threshold_bound,
    optimal_params,
    optimal_rate_formula,
    quad_full_matrix,
    quad_reduced_radius,
    quadratic_rates,
    region_member_hb,
    region_member_nes,
)

__version__ = "0.1.0"
