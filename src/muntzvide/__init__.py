"""Muntz-Jacobi spectral collocation for weakly singular delay VIDEs.

Solves y'(t) = a1 y + b1 y(eps t) + f1 + (K1 y)(t) + (K2 y)(eps t) with
weakly singular kernels (t-s)^(-mu) on [0, T], using a collocation basis of
fractional powers theta^(k*lam) that absorbs the solution's initial-point
singularity.  See the README for the CLI and a library walkthrough.
"""

from .analysis import (
    ConvergenceTable,
    InsufficientDataError,
    RateFit,
    RateReport,
    SolverConfig,
    SweepRow,
    convergence_sweep,
    fit_rates,
    linf_error,
    reference_solution,
    solve_once,
    weighted_l2_error,
)
from .collocation import (
    DiscreteSolution,
    SingularSystemError,
    SystemMatrices,
    assemble,
    solve,
)
from .muntz_basis import (
    CollocationGrid,
    basis_matrix_z,
    build_grid,
    interpolate,
)
from .problem import (
    EXAMPLE_KEYS,
    OracleDisagreement,
    ScaledProblem,
    VideProblem,
    default_lambda,
    exact_phi_pair,
    make_example,
    manufactured_forcing,
    scale_to_unit,
    scaled_residual,
    singular_integral,
)
from .quadrature import (
    FractionalRule,
    QuadratureError,
    QuadratureRule,
    beta,
    gauss_jacobi,
    singular_ratio,
    to_fractional,
)

__version__ = "0.1.0"
