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
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .specfun import beta as beta_fn

__all__ = [
    "QuadratureError",
    "QuadratureRule",
    "FractionalRule",
    "gauss_jacobi",
    "to_fractional",
    "muntz_weight",
    "singular_ratio",
]


# rules kept by gauss_jacobi; a sweep over N needs three per N plus its L2 rule
_RULE_CACHE_SIZE = 128


class QuadratureError(RuntimeError):
    """Node/weight computation failed to converge."""


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

    lam: float
    alpha: float
    beta: float
    nodes: np.ndarray
    weights: np.ndarray
    z_nodes: np.ndarray


def _validate_exponents(alpha: float, beta: float) -> None:
    if alpha <= -1.0 or beta <= -1.0:
        raise ValueError(f"Jacobi exponents must exceed -1, got ({alpha}, {beta})")


def _recurrence(npts: int, alpha: float, beta: float):
    """Diagonal / off-diagonal of the monic-Jacobi tridiagonal matrix."""
    ab = alpha + beta
    diag = np.empty(npts)
    diag[0] = (beta - alpha) / (ab + 2.0)
    if npts > 1:
        k = np.arange(1, npts, dtype=float)
        diag[1:] = (beta * beta - alpha * alpha) / ((2 * k + ab) * (2 * k + ab + 2))
    off = np.empty(max(npts - 1, 0))
    if npts > 1:
        off[0] = math.sqrt(
            4.0 * (alpha + 1) * (beta + 1) / ((ab + 2) ** 2 * (ab + 3))
        )
    if npts > 2:
        k = np.arange(2, npts, dtype=float)
        num = 4 * k * (k + alpha) * (k + beta) * (k + ab)
        den = (2 * k + ab) ** 2 * (2 * k + ab + 1) * (2 * k + ab - 1)
        off[1:] = np.sqrt(num / den)
    return diag, off


@functools.lru_cache(maxsize=_RULE_CACHE_SIZE)
def gauss_jacobi(npts: int, alpha: float, beta: float) -> QuadratureRule:
    """npts-point Gauss-Jacobi rule, exact to polynomial degree 2*npts - 1.

    Golub-Welsch: nodes are the eigenvalues of the recurrence matrix, weights
    are mu_0 times the squared first eigenvector components.  The most recent
    ``_RULE_CACHE_SIZE`` rules are cached; their arrays are read-only, so a
    repeat call hands every caller the same rule object.
    """
    if npts < 1:
        raise ValueError(f"need at least one point, got {npts}")
    _validate_exponents(alpha, beta)
    mu0 = 2.0 ** (alpha + beta + 1.0) * beta_fn(alpha + 1.0, beta + 1.0)
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
    """Map a rule on [-1, 1] to the lambda-power rule on [0, 1]."""
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"lam must lie in (0, 1], got {lam}")
    z = 0.5 * (rule.nodes + 1.0)
    theta = z.copy() if lam == 1.0 else z ** (1.0 / lam)
    weights = rule.weights * 2.0 ** -(rule.alpha + rule.beta + 1.0)
    for arr in (z, theta, weights):
        arr.flags.writeable = False
    return FractionalRule(
        lam=lam,
        alpha=rule.alpha,
        beta=rule.beta,
        nodes=theta,
        weights=weights,
        z_nodes=z,
    )


def muntz_weight(theta, alpha: float, beta: float, lam: float):
    """Weight lam (1-theta^lam)^alpha theta^((beta+1)*lam - 1) on (0, 1)."""
    theta = np.asarray(theta, dtype=float) if np.ndim(theta) else theta
    return lam * (1.0 - theta**lam) ** alpha * theta ** ((beta + 1.0) * lam - 1.0)


def singular_ratio(xi, lam: float, mu: float):
    """((1 - xi^(1/lam)) / (1 - xi))^(-mu) for xi in (0, 1), stable at both ends.

    Near xi = 1 both numerator and denominator vanish (the ratio tends to
    1/lam, so the value tends to lam^mu); the direct formula loses every
    digit there.  For xi >= 1/2 the power is taken through expm1/log so the
    cancellation never happens.
    """
    if mu == 0.0 or lam == 1.0:
        return 1.0 if np.ndim(xi) == 0 else np.ones_like(np.asarray(xi, dtype=float))
    scalar = np.ndim(xi) == 0
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    out = np.empty_like(xi)
    lo = xi < 0.5
    if lo.any():
        x = xi[lo]
        out[lo] = ((1.0 - x ** (1.0 / lam)) / (1.0 - x)) ** -mu
    hi = ~lo
    if hi.any():
        x = xi[hi]
        one_minus = 1.0 - x  # exact for x >= 1/2
        log_pow = np.log(x) / lam
        one_minus_pow = -np.expm1(log_pow)  # 1 - x^(1/lam) without cancellation
        out[hi] = np.exp(-mu * (np.log(one_minus_pow) - np.log(one_minus)))
    return float(out[0]) if scalar else out
