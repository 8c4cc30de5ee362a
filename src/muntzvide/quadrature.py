"""Gauss-Jacobi rules and their fractional counterparts.

A Gauss-Jacobi rule integrates against (1-x)^alpha (1+x)^beta on [-1, 1].
Mapping its nodes through theta = ((x+1)/2)^(1/lam), 0 < lam <= 1, and
rescaling the weights by 2^-(alpha+beta+1) yields a rule on [0, 1] that is
exact for the Muntz monomials theta^(k*lam) against the weight

    lam * (1 - theta^lam)^alpha * theta^((beta+1)*lam - 1),

which is the natural weight of the fractional basis used by the collocation
scheme.  Nodes and weights come from the Golub-Welsch algorithm (symmetric
tridiagonal eigenproblem built from the three-term recurrence).  The
eigenvalues are used as they come: a Newton polish on the Jacobi polynomial
moves them by at most 4e-16 for rules of up to 129 points.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

__all__ = [
    "beta",
    "SolverError",
    "QuadratureError",
    "QuadratureRule",
    "FractionalRule",
    "gauss_jacobi",
    "to_fractional",
    "singular_ratio",
]


# the one policy of the four rule and grid caches (gauss_jacobi, _kernel_rule,
# muntz_basis.build_grid, problem._dyadic_rule), keyed by argument value and
# type.  Per N a sweep needs one grid and two kernel rules (mu and 0), plus one
# Gauss-Jacobi L2 parent per L2 size.  A test that patches a rule constructor
# clears them first (``cache_clear()``).
_RULE_CACHE_SIZE = 128
_cached = functools.lru_cache(maxsize=_RULE_CACHE_SIZE, typed=True)


def beta(a: float, b: float) -> float:
    """Beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b) for a, b > 0.

    It sets the total mass mu0 of every Gauss rule, so its accuracy bounds
    the exactness checks of the whole rule hierarchy.  Evaluated in log
    space, so large parameters (the weighted norms use exponents like
    m + 1/lam - 1) cannot overflow intermediate Gammas.
    """
    if not (a > 0 and b > 0):
        raise ValueError(f"beta requires positive arguments, got ({a}, {b})")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


# gauss_jacobi's exponent parameter shadows the name
_beta_fn = beta


class SolverError(RuntimeError):
    """A solve of a valid problem fails; every failure of a solve is one, so catching it catches them all."""


class QuadratureError(SolverError):
    """A rule or grid cannot be formed: bad nodes or weights, an overflowing
    mass, or collapsing collocation points (``muntz_basis.build_grid``)."""


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gauss-Jacobi rule on [-1, 1] for the weight (1-x)^alpha (1+x)^beta."""

    alpha: float
    beta: float
    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True, eq=False)
class FractionalRule:
    """A lambda-mapped Gauss-Jacobi rule on [0, 1].

    ``nodes`` are theta_j = z_j^(1/lam) with z_j the parent rule's nodes
    mapped affinely to [0, 1]; the parent z_j are kept in ``z_nodes`` because
    the collocation matrices sample the basis at products theta_i * z^(1/lam)
    whose lambda-power is known exactly in z coordinates.
    """

    nodes: np.ndarray
    weights: np.ndarray
    z_nodes: np.ndarray


def _validate_exponents(alpha: float, beta: float) -> None:
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not value > -1.0:  # NaN fails too
            raise ValueError(f"Jacobi exponent {name} must exceed -1, got {value}")


def _validate_lam(lam: float) -> None:
    if not 0.0 < lam <= 1.0:  # NaN fails too
        raise ValueError(f"lam must lie in (0, 1], got {lam}")


def _validate_count(name: str, value, least: int) -> None:
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _recurrence(npts: int, alpha: float, beta: float):
    """Diagonal / off-diagonal of the monic-Jacobi tridiagonal matrix."""
    ab = alpha + beta
    diag = np.empty(npts)
    diag[0] = (beta - alpha) / (ab + 2.0)
    k = np.arange(1, npts, dtype=float)
    diag[1:] = (beta * beta - alpha * alpha) / ((2 * k + ab) * (2 * k + ab + 2))
    off = np.empty(max(npts - 1, 0))
    if npts > 1:
        off[0] = math.sqrt(
            4.0 * (alpha + 1) * (beta + 1) / ((ab + 2) ** 2 * (ab + 3))
        )
    k = np.arange(2, npts, dtype=float)
    num = 4 * k * (k + alpha) * (k + beta) * (k + ab)
    den = (2 * k + ab) ** 2 * (2 * k + ab + 1) * (2 * k + ab - 1)
    off[1:] = np.sqrt(num / den)
    return diag, off


@_cached
def gauss_jacobi(npts: int, alpha: float, beta: float) -> QuadratureRule:
    """npts-point Gauss-Jacobi rule, exact to polynomial degree 2*npts - 1.

    Golub-Welsch: nodes are the eigenvalues of the recurrence matrix, weights
    are mu_0 times the squared first eigenvector components.  The most recent
    ``_RULE_CACHE_SIZE`` rules are cached by argument value and type (npts =
    4.0 is checked, not served 4's rule); their arrays are read-only, so a
    repeat call hands every caller the same rule object.
    """
    _validate_count("npts", npts, 1)
    _validate_exponents(alpha, beta)
    try:
        mu0 = 2.0 ** (alpha + beta + 1.0) * _beta_fn(alpha + 1.0, beta + 1.0)
    except OverflowError as exc:
        raise QuadratureError(f"rule mass overflows for alpha={alpha}, beta={beta}") from exc
    diag, off = _recurrence(npts, alpha, beta)
    try:
        nodes, vecs = eigh_tridiagonal(diag, off)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological input
        raise QuadratureError(
            f"tridiagonal eigensolve failed for npts={npts}, "
            f"alpha={alpha}, beta={beta}"
        ) from exc
    weights = mu0 * vecs[0] ** 2
    if not (np.all(np.diff(nodes) > 0) and nodes[0] > -1.0 and nodes[-1] < 1.0):
        raise QuadratureError(
            f"nodes disordered or outside (-1, 1) for npts={npts}, "
            f"alpha={alpha}, beta={beta}"
        )
    if not np.all(weights > 0):
        raise QuadratureError(
            f"nonpositive weights for npts={npts}, alpha={alpha}, beta={beta}"
        )
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(alpha=alpha, beta=beta, nodes=nodes, weights=weights)


def to_fractional(rule: QuadratureRule, lam: float) -> FractionalRule:
    """Map a rule on [-1, 1] to the lambda-power rule on [0, 1], with read-only arrays that cached grids and kernel rules share."""
    _validate_lam(lam)
    z = 0.5 * (rule.nodes + 1.0)
    theta = z ** (1.0 / lam)
    weights = rule.weights * 2.0 ** -(rule.alpha + rule.beta + 1.0)
    for arr in (z, theta, weights):
        arr.flags.writeable = False
    return FractionalRule(nodes=theta, weights=weights, z_nodes=z)


def singular_ratio(xi, lam: float, mu: float):
    """((1 - xi^(1/lam)) / (1 - xi))^(-mu) for xi in (0, 1), stable at both ends.

    Near xi = 1 both numerator and denominator vanish (the ratio tends to
    1/lam, so the value tends to lam^mu); the direct formula loses every
    digit there.  Taking both factors through expm1/log1p avoids the
    cancellation on all of (0, 1).
    """
    if mu == 0.0 or lam == 1.0:
        return 1.0 if np.ndim(xi) == 0 else np.ones_like(np.asarray(xi, dtype=float))
    xi = np.asarray(xi, dtype=float)
    return np.exp(-mu * (np.log(-np.expm1(np.log(xi) / lam)) - np.log1p(-xi)))[()]


@_cached
def _kernel_rule(npts: int, mu: float, lam: float):
    """The weakly singular kernel rule, for the weight (1-xi)^(-mu) xi^(1/lam-1), and ``singular_ratio`` at its z nodes."""
    rule = to_fractional(gauss_jacobi(npts, -mu, 1.0 / lam - 1.0), lam)
    ratio = singular_ratio(rule.z_nodes, lam, mu)
    ratio.flags.writeable = False
    return rule, ratio
