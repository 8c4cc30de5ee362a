"""Error norms, convergence sweeps, rate fitting, and reference solutions."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from .collocation import DiscreteSolution, SingularSystemError, assemble, solve
from .muntz_basis import build_grid, interpolate
from .problem import (
    OracleDisagreement,
    VideProblem,
    default_lambda,
    exact_phi_pair,
    sample,
    scale_to_unit,
)
from .quadrature import QuadratureError, _validate_count, _validate_exponents, _validate_lam, gauss_jacobi, to_fractional

__all__ = [
    "ERROR_CHANNELS",
    "SOLVER_ERRORS",
    "SolverConfig",
    "SweepRow",
    "ConvergenceTable",
    "RateFit",
    "RateReport",
    "InsufficientDataError",
    "weighted_l2_error",
    "linf_error",
    "solve_once",
    "error_row",
    "convergence_sweep",
    "fit_rates",
    "reference_solution",
]

# uniform evaluation grids start here rather than at 0: the exact solutions
# typically have an unbounded second derivative at the left endpoint
_LINF_LEFT = 1e-12

# weighted L2 and sup norm of y (phi), then of y' (phi*), in SweepRow's order
ERROR_CHANNELS = ("l2_e", "linf_e", "l2_estar", "linf_estar")

# the solver's own failures, the only ways a solve fails: a rule or grid that
# cannot be formed, a singular system, disagreeing forcing oracles
SOLVER_ERRORS = (QuadratureError, SingularSystemError, OracleDisagreement)


class InsufficientDataError(ValueError):
    """Not enough successful sweep rows to fit a rate."""


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for a single solve or a sweep.

    ``lam`` is the one basis-exponent setting; None uses default_lambda(mu).
    The kernel and integration rules have N+1 points (one per unknown), and
    the L2 norm is weighted by the grid's (alpha, beta).  A ``lam`` outside
    (0, 1], an exponent not above -1, or a point count that is not an integer
    (a bool is not) of at least 1 for ``l2_points`` and 2 for ``linf_points``
    raises ``ValueError`` here, before any solve.  A config is frozen: make a
    variant with ``dataclasses.replace``, which checks it again.
    """

    lam: Optional[float] = None
    alpha: float = -0.5
    beta: float = -0.5
    l2_points: Optional[int] = None
    linf_points: int = 2001

    def __post_init__(self):
        if self.lam is not None:
            _validate_lam(self.lam)
        _validate_exponents(self.alpha, self.beta)
        if self.l2_points is not None:
            _validate_count("l2_points", self.l2_points, 1)
        _validate_count("linf_points", self.linf_points, 2)


@dataclass
class SweepRow:
    """One solve: N, the ``ERROR_CHANNELS`` (NaN unless measured) and runtime_ms (default 0.0).

    A failed solve also sets ``failed`` and ``message``.
    """

    n: int
    l2_e: float = math.nan
    linf_e: float = math.nan
    l2_estar: float = math.nan
    linf_estar: float = math.nan
    runtime_ms: float = 0.0
    failed: bool = False
    message: str = ""


@dataclass
class ConvergenceTable:
    rows: list[SweepRow] = field(default_factory=list)


@dataclass
class RateFit:
    slope_n: float
    r2_n: float
    slope_loglog: float
    r2_loglog: float
    classification: str


@dataclass
class RateReport:
    channels: dict[str, RateFit]
    classification: str


def _linf_points(grid_size: int) -> np.ndarray:
    _validate_count("grid_size", grid_size, 2)
    return np.linspace(_LINF_LEFT, 1.0, grid_size)


# the two reductions, per channel (column) for 2-d values; a NaN makes its
# channel NaN
def _l2_norm(weights: np.ndarray, vals: np.ndarray):
    return np.sqrt(np.dot(weights, vals * vals))


def _sup_norm(vals: np.ndarray):
    # each channel reduced along its own contiguous row: over the (P, c) array
    # itself numpy would step c elements at a time
    return np.abs(vals.T, order="C").max(axis=-1)


def weighted_l2_error(
    err_fn: Callable[[np.ndarray], np.ndarray], alpha: float, beta: float, m: int
) -> float:
    """Weighted L2 norm of err_fn against (1-theta)^alpha theta^beta on [0, 1].

    ``err_fn`` is called once, on the array of the m quadrature nodes; m < 1
    raises ``ValueError`` (from ``gauss_jacobi``).
    """
    rule = to_fractional(gauss_jacobi(m, alpha, beta), 1.0)
    return float(_l2_norm(rule.weights, sample(err_fn, rule.nodes)))


def linf_error(
    err_fn: Callable[[np.ndarray], np.ndarray],
    grid_size: int = SolverConfig.linf_points,
    extra_points=None,
) -> float:
    """Max |err_fn| over a uniform grid on [~0, 1], plus any extra points.

    ``err_fn`` is called once, on the array of all points; a NaN anywhere
    makes the result NaN.
    """
    pts = _linf_points(grid_size)
    if extra_points is not None:
        pts = np.union1d(pts, np.asarray(extra_points, dtype=float))
    return float(_sup_norm(sample(err_fn, pts)))


def solve_once(problem: VideProblem, n: int, config: SolverConfig):
    """One collocation solve; returns (grid, solution, runtime_ms)."""
    lam = config.lam if config.lam is not None else default_lambda(problem.mu)
    start = perf_counter()
    grid = build_grid(n, config.alpha, config.beta, lam)
    sol = solve(assemble(scale_to_unit(problem), grid))
    runtime_ms = (perf_counter() - start) * 1e3
    return grid, sol, runtime_ms


def _true_values(problem, reference, theta) -> np.ndarray:
    """(phi, phi*) at theta, shape theta.shape + (2,): from ``reference`` if given, else exact."""
    if reference is not None:
        return interpolate(reference.grid, np.column_stack([reference.u, reference.u_star]), theta)
    return np.stack([sample(fn, theta) for fn in exact_phi_pair(problem)], axis=-1)


def _check_reference(problem, reference, n: int) -> None:
    """Errors up to order n need a reference of higher order, or else an exact solution."""
    if reference is None:
        if exact_phi_pair(problem) is None:
            raise ValueError(
                f"problem {problem.label or '<anonymous>'} has no exact solution; "
                "supply a reference solution"
            )
    elif reference.grid.n <= n:
        raise ValueError(f"reference order {reference.grid.n} must exceed the solve order {n}")


def error_row(problem, sol, config, reference, runtime_ms) -> SweepRow:
    """Sweep row for ``sol`` against a ``reference`` of order above its N, else the exact solution."""
    grid = sol.grid
    _check_reference(problem, reference, grid.n)
    m = config.l2_points if config.l2_points is not None else max(4 * grid.n, 200)
    rule = to_fractional(gauss_jacobi(m, config.alpha, config.beta), 1.0)
    # (phi, phi*) in two calls, at the N-independent points and at this solve's
    # grid points: one call over all points lets BLAS sum a reference
    # interpolant in another order, which moves the errors' last digits
    theta = np.concatenate([rule.nodes, _linf_points(config.linf_points)])
    true = np.concatenate([_true_values(problem, reference, theta), _true_values(problem, reference, grid.points)])
    # the sup norm runs over the uniform grid and this solve's own grid points
    theta = np.concatenate([theta, grid.points])
    err = true - interpolate(grid, np.column_stack([sol.u, sol.u_star]), theta)
    l2 = _l2_norm(rule.weights, err[:m]).tolist()
    linf = _sup_norm(err[m:]).tolist()
    return SweepRow(grid.n, l2[0], linf[0], l2[1], linf[1], runtime_ms)


def convergence_sweep(
    problem: VideProblem,
    config: SolverConfig,
    n_list,
    reference: Optional[DiscreteSolution] = None,
) -> ConvergenceTable:
    """One solve and one ``error_row`` per N, against a reference if given, else the exact solution.

    Every N must be an integer (a bool is not) of at least 1, checked before
    the first solve.  A solve that fails with one of ``SOLVER_ERRORS`` marks
    its row instead of aborting the sweep; any other exception propagates.
    """
    n_list = list(n_list)
    for n in n_list:
        _validate_count("n", n, 1)
    if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"n_list must be nonempty and strictly increasing, got {n_list}")
    _check_reference(problem, reference, max(n_list))
    table = ConvergenceTable()
    for n in n_list:
        try:
            _, sol, runtime_ms = solve_once(problem, n, config)
            row = error_row(problem, sol, config, reference, runtime_ms)
        except SOLVER_ERRORS as exc:
            row = SweepRow(n, failed=True, message=str(exc))
        table.rows.append(row)
    return table


def _fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r2


def fit_rates(table: ConvergenceTable) -> RateReport:
    """Fit log10(err) against N and against log10(N) for every channel.

    A channel is classified exponential when the linear-in-N fit explains at
    least 95% of the variance with slope <= -0.5, algebraic otherwise.  The
    report-level classification follows the linf_e channel.  A channel with
    fewer than 3 usable rows (successful, with a finite positive error)
    raises ``InsufficientDataError``.
    """
    rows = [r for r in table.rows if not r.failed]
    ns = np.array([r.n for r in rows], dtype=float)
    channels: dict[str, RateFit] = {}
    for name in ERROR_CHANNELS:
        errs = np.array([getattr(r, name) for r in rows])
        good = np.isfinite(errs) & (errs > 0.0)
        if good.sum() < 3:
            raise InsufficientDataError(f"channel {name} has {good.sum()} usable rows, need at least 3")
        y = np.log10(errs[good])
        slope_n, r2_n = _fit(ns[good], y)
        slope_ll, r2_ll = _fit(np.log10(ns[good]), y)
        cls = "exponential" if (r2_n >= 0.95 and slope_n <= -0.5) else "algebraic"
        channels[name] = RateFit(
            slope_n=slope_n,
            r2_n=r2_n,
            slope_loglog=slope_ll,
            r2_loglog=r2_ll,
            classification=cls,
        )
    return RateReport(channels=channels, classification=channels["linf_e"].classification)


def reference_solution(problem: VideProblem, config: SolverConfig, n_ref: int) -> DiscreteSolution:
    """High-N solve whose interpolant stands in for the exact solution.

    Evaluate it with ``interpolate(ref.grid, ref.u, theta)`` (and ``ref.u_star``
    for the derivative channel).
    """
    return solve_once(problem, n_ref, config)[1]
