"""Multivariate Krawtchouk polynomials as eigenfunctions of a
multidimensional birth-death process: lattice and operator construction,
spectral data, polynomial tables with dual orthogonality, the rational
two-dimensional family with its explicit dual system, and stochastic /
uniformized evolution."""

__version__ = "0.1.0"

from .bdcore import (
    check_compatibility,
    check_rate_tables,
    difference_operator_from_tables,
    generator_from_tables,
    ladder_from_tables,
    stationary_weight_generic,
    symmetrized_from_tables,
    verify_structure,
)
from .errors import (
    AbsorbingState,
    CapExceeded,
    ExceptionalParameters,
    NoConvergence,
    SingularParameters,
    ValidationError,
)
from .lattice import StateSpace, simplex_size
from .model import (
    ModelParams,
    multinomial_weight,
    probabilities,
    rate_tables,
    weight_vector,
)
from .polynomials import (
    dual_gram,
    eigen_residuals,
    eval_P,
    eval_P_via_generating_function,
    eval_Q,
    gram_matrix,
    kr_P,
    orthonormal_map,
    table,
    table_via_generating_function,
)
from .rational import (
    DualPair,
    RationalParams,
    derive_dual_pair,
    eval_rational,
    rational_table,
    verify_recurrence,
)
from .report import Check, Report
from .simulate import (
    EvolveResult,
    GillespieResult,
    RelaxationFit,
    evolve_distribution,
    gillespie_run,
    kl_divergence,
    relaxation_rate,
    run_replicas,
    total_variation,
)
from .spectrum import (
    EigenBasis,
    SpectralData,
    identity_checks,
    numeric_eigenbasis,
    rational_case_n2,
    secular_function,
    solve_spectrum,
)

__all__ = [name for name in dir() if not name.startswith("_")]
