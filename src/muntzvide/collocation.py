"""Assembly and solution of the collocation system.

At the grid points theta_i the unknowns are the nodal values of the solution
(phi_i), of its derivative treated as a separate unknown (phi_i^*), and of
the delayed solution (v_i).  Every integral is pulled to [0, 1] with
eta = theta_i * xi^(1/lam), which turns the cardinal functions into ordinary
polynomials of xi and absorbs the weak singularity into the quadrature
weight (1-xi)^(-mu) xi^(1/lam - 1).  Two rule families appear:

    * ``quad_mu``  - parameters (-mu, 1/lam - 1); its nodes carry every row,
      with the kernel weights for C, D and with E's weights for E, H;
    * ``quad_hat`` - parameters (0, 1/lam - 1), the rule of the integration
      rows E, H.  Their integrands F_j(z_i xi) are polynomials of degree N in
      xi, so on N+1 or more quad_mu nodes the interpolatory weights
      w'_k = sum_m w^_m l_k(xi^_m), with quad_hat's nodes xi^_m and weights
      w^_m and the Lagrange basis l_k on the quad_mu nodes, integrate them
      exactly as quad_hat does: E is exact on the whole trial space.

The delayed rows D, H sample the basis at eps^lam z_i xi_k.  Each F_j is a
degree-N polynomial in z, so F_j(eps^lam y) = sum_l F_j(eps^lam z_l) F_l(y),
and with the delay interpolation matrix L[l, j] = F_j(eps^lam z_l)

    D = D~ L,   H = eps E L,

where D~ is D at the undelayed points z_i xi_k of C.  Assembly thus builds
one Cauchy array of (N+1) x K x (N+1) entries, at those points, which three
channels share: C, D~ and E.

The three coupled relations

    U* = (A + C + D) U + B V + F,   U = U0 + E U*,   V = U0 + H U*

reduce to one dense (N+1) x (N+1) solve for U*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_solve
from scipy.linalg.lapack import get_lapack_funcs

from .muntz_basis import CollocationGrid, basis_product, interpolatory_weights
from .problem import ScaledProblem, sample
from .quadrature import FractionalRule, singular_ratio

__all__ = [
    "SingularSystemError",
    "SystemMatrices",
    "DiscreteSolution",
    "assemble",
    "solve",
]

_COND_LIMIT = 1e14
# rows of C, D~ and E are built in blocks holding at most this many entries of
# a (rows, K, N+1) Cauchy array, which bounds the assembly's scratch memory
_BLOCK_ENTRIES = 2**16


class SingularSystemError(RuntimeError):
    """The reduced collocation matrix is singular or hopelessly conditioned."""

    def __init__(self, message: str, cond: float):
        super().__init__(f"{message} (condition estimate {cond:.3e})")
        self.cond = cond


@dataclass(frozen=True, eq=False)
class SystemMatrices:
    A: np.ndarray  # diag of a_t(theta_i)
    B: np.ndarray  # diag of b_t(theta_i)
    C: np.ndarray  # first kernel quadrature
    D: np.ndarray  # delayed kernel quadrature
    E: np.ndarray  # integration of phi* up to theta_i
    H: np.ndarray  # integration of the delayed phi*
    fvec: np.ndarray
    u0: np.ndarray
    grid: CollocationGrid


@dataclass(frozen=True, eq=False)
class DiscreteSolution:
    u_star: np.ndarray
    u: np.ndarray
    v: np.ndarray
    grid: CollocationGrid


def _check_rule(name: str, rule: FractionalRule, alpha: float, beta: float, lam: float) -> None:
    ok = (
        math.isclose(rule.lam, lam, rel_tol=0.0, abs_tol=1e-14)
        and math.isclose(rule.alpha, alpha, rel_tol=0.0, abs_tol=1e-12)
        and math.isclose(rule.beta, beta, rel_tol=0.0, abs_tol=1e-12)
    )
    if not ok:
        raise ValueError(
            f"{name} has parameters (lam={rule.lam}, alpha={rule.alpha}, "
            f"beta={rule.beta}); expected (lam={lam}, alpha={alpha}, beta={beta})"
        )


def assemble(
    scaled: ScaledProblem,
    grid: CollocationGrid,
    quad_mu: FractionalRule,
    quad_hat: FractionalRule,
) -> SystemMatrices:
    """Build all matrices and vectors of the discrete system.

    The rules enter in parent-variable form: row i samples the basis at
    eta_i(xi_k) = theta_i xi_k^(1/lam), whose exact z coordinate is
    z_i * xi_k, and the weights already absorb (1-xi)^(-mu) xi^(1/lam-1).
    Rows of C, D~ and E are the three channels of one product with the basis
    at the quad_mu points (``basis_product``), filled in blocks of at most
    ``_BLOCK_ENTRIES`` Cauchy entries.  E's channel carries the weights
    ``interpolatory_weights`` moves from quad_hat onto the quad_mu nodes;
    quad_hat supplies nothing else.  D, H follow from D~, E by two matrix
    products with L.  Each kernel is called once per block, on the broadcast
    (theta_i, eta_ik) arrays, and each coefficient once, on all grid points.
    Raises ``ValueError`` if quad_mu has fewer than N+1 nodes, too few for E
    to be exact.
    """
    if scaled.f_t is None:
        raise ValueError("cannot assemble a problem without a forcing term")
    lam, mu, eps = grid.lam, scaled.mu, scaled.eps
    _check_rule("quad_mu", quad_mu, -mu, 1.0 / lam - 1.0, lam)
    _check_rule("quad_hat", quad_hat, 0.0, 1.0 / lam - 1.0, lam)
    n1 = grid.n + 1
    theta, z = grid.points, grid.z_points

    xi, om = quad_mu.z_nodes, quad_mu.weights
    if xi.size < n1:
        raise ValueError(
            f"quad_mu has {xi.size} nodes; E is exact only with at least N+1 = {n1}"
        )
    # E's integrands F_j(z_i xi) have degree N in xi, so quad_hat's weights
    # moved onto the quad_mu nodes integrate them exactly
    om_hat = interpolatory_weights(xi, quad_hat.z_nodes, quad_hat.weights)
    ratio = singular_ratio(xi, lam, mu)
    root_mu = quad_mu.nodes  # xi_k^(1/lam)
    eps_lam = eps**lam

    CDE = np.empty((3, n1, n1))  # C, D~ (the undelayed D) and E / (theta / lam)
    step = max(1, _BLOCK_ENTRIES // (xi.size * n1))
    for start in range(0, n1, step):
        rows = slice(start, start + step)
        ti, zi = theta[rows, None], z[rows, None]
        eta = ti * root_mu
        # transformed kernel weight: (1/lam) theta_i^(1-mu) times the
        # endpoint-stable singular ratio, times the rule weight
        fac = (ti ** (1.0 - mu) / lam) * ratio * om
        v = np.stack((
            fac * scaled.kbar1(ti, eta),
            fac * scaled.kbar2(ti, eps * eta),
            np.broadcast_to(om_hat, eta.shape),
        ))
        CDE[:, rows] = basis_product(grid, v, zi * xi)
    E = (theta / lam)[:, None] * CDE[2]
    # the delay interpolation matrix L[l, j] = F_j(eps^lam z_l) moves the
    # undelayed rows to the delayed points (see the module docstring)
    L = basis_product(grid, 1.0, (eps_lam * z)[:, None])
    C, D = CDE[0], CDE[1] @ L
    H = eps * (E @ L)

    A = np.diag(sample(scaled.a_t, theta))
    B = np.diag(sample(scaled.b_t, theta))
    fvec = np.array(sample(scaled.f_t, theta))
    u0 = np.full(n1, scaled.phi0)
    return SystemMatrices(A=A, B=B, C=C, D=D, E=E, H=H, fvec=fvec, u0=u0, grid=grid)


def solve(sysm: SystemMatrices) -> DiscreteSolution:
    """Solve the reduced system and back-substitute U and V.

    Eliminating U and V gives [I - (A+C+D)E - BH] U* = (A+C+D+B) U0 + F,
    solved by dense LU with partial pivoting.  The condition number is the
    1-norm estimate LAPACK ``gecon`` takes from the same LU factors; a
    non-finite matrix or right-hand side, an exact zero pivot or an estimate
    above ``_COND_LIMIT`` raises ``SingularSystemError``.
    """
    n1 = sysm.fvec.shape[0]
    G = sysm.A + sysm.C + sysm.D
    b = np.diagonal(sysm.B)  # B is diagonal: B X scales the rows of X
    M = np.eye(n1) - G @ sysm.E - b[:, None] * sysm.H
    rhs = G @ sysm.u0 + b * sysm.u0 + sysm.fvec
    if not np.isfinite(M).all():
        raise SingularSystemError("reduced collocation matrix has non-finite entries", math.nan)
    if not np.isfinite(rhs).all():
        raise SingularSystemError("right-hand side has non-finite entries", math.nan)
    anorm = np.linalg.norm(M, 1)
    # getrf is what scipy.linalg.lu_factor calls; called directly it reports an
    # exact zero pivot through info rather than a LinAlgWarning, which only a
    # process-wide (not thread-safe) warnings filter could silence
    getrf, gecon = get_lapack_funcs(("getrf", "gecon"), (M,))
    lu, piv, info = getrf(M, overwrite_a=True)
    if info > 0:
        raise SingularSystemError("reduced collocation matrix is singular", math.inf)
    rcond, _ = gecon(lu, anorm, norm="1")
    cond = 1.0 / rcond if rcond > 0.0 else math.inf
    if cond > _COND_LIMIT:
        raise SingularSystemError("reduced collocation matrix is ill-conditioned", cond)
    u_star = lu_solve((lu, piv), rhs, check_finite=False)
    u = sysm.u0 + sysm.E @ u_star
    v = sysm.u0 + sysm.H @ u_star
    return DiscreteSolution(u_star=u_star, u=u, v=v, grid=sysm.grid)
