"""Assembly and solution of the collocation system.

At the grid points theta_i the unknowns are the nodal values of the solution
(phi_i), of its derivative treated as a separate unknown (phi_i^*), and of
the delayed solution (v_i).  Every integral is pulled to [0, 1] with
eta = theta_i * xi^(1/lam), which turns the cardinal functions into ordinary
polynomials of xi and absorbs the weak singularity into the quadrature
weight (1-xi)^(-mu) xi^(1/lam - 1).  ``assemble`` takes its two
(N+1)-point Gauss-Jacobi rules from N, lam and mu:

    * ``quad_mu``  - parameters (-mu, 1/lam - 1), the rule of the kernel rows
      C, D, from ``quadrature._kernel_rule`` as the manufactured forcing's is;
    * ``quad_hat`` - parameters (0, 1/lam - 1), the rule of the integration
      rows E, H: the kernel rule at mu = 0, from ``_kernel_rule`` too.

Row i samples the basis at z_i xi for the rule's nodes xi.  Each F_j is a
degree-N polynomial in z, so interpolating y -> F_j(z_i y) on the grid gives
the dilation identity

    F_j(z_i xi) = sum_l F_l(xi) F_j(z_i z_l),

which moves every quadrature node onto the grid's dilation table
F_j(z_i z_l), a table symmetric in (i, l).  With Phi[k, l] = F_l(xi_k) on
quad_mu's nodes, a row's weights v_i (kernel times rule weight) become
W_i = v_i Phi, and quad_hat's weights w^ become the one row w^ Phi^ shared by
every row of E.  C, D~ (D at the undelayed points) and E / (theta / lam) are
then the three channels of one ``dilation_product`` call, which builds the
table once for all three (its docstring gives the layout).

The delayed rows D, H sample the basis at eps^lam z_i xi_k.  By the same
argument F_j(eps^lam y) = sum_l F_j(eps^lam z_l) F_l(y), and with the delay
interpolation matrix L[l, j] = F_j(eps^lam z_l)

    D = D~ L,   H = eps E L.

The three coupled relations, with A = diag(a) and B = diag(b),

    U* = (A + C + D) U + B V + F,   U = U0 + E U*,   V = U0 + H U*

reduce to one dense (N+1) x (N+1) solve for U*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .muntz_basis import CollocationGrid, basis_matrix_z, dilation_product
from .problem import ScaledProblem, sample
from .quadrature import SolverError, _kernel_rule

__all__ = [
    "SingularSystemError",
    "SystemMatrices",
    "DiscreteSolution",
    "assemble",
    "solve",
]

_COND_LIMIT = 1e14


class SingularSystemError(SolverError):
    """The reduced collocation matrix is singular or hopelessly conditioned."""

    def __init__(self, message: str, cond: float):
        super().__init__(f"{message} (condition estimate {cond:.3e})")
        self.cond = cond


@dataclass(frozen=True, eq=False)
class SystemMatrices:
    a: np.ndarray  # a_t(theta_i), the diagonal of A
    b: np.ndarray  # b_t(theta_i), the diagonal of B
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
    # 1-norm condition estimate of the reduced matrix; NaN unless ``solve`` made it.
    # It is stable within a process but can differ in its last ulp or two
    # between processes, so compare it to within a few ulps, not bitwise
    cond: float = math.nan


def assemble(scaled: ScaledProblem, grid: CollocationGrid) -> SystemMatrices:
    """Build all matrices and vectors of the discrete system.

    The two (N+1)-point rules, quad_mu and quad_hat (see the module
    docstring), are taken from ``grid.n``, ``grid.lam`` and
    ``scaled.mu``, in parent-variable form: row i samples the basis at
    eta_i(xi_k) = theta_i xi_k^(1/lam), whose exact z coordinate is
    z_i * xi_k, and the weights already absorb (1-xi)^(-mu) xi^(1/lam-1).
    By the dilation identity F_j(z_i xi) = sum_l F_l(xi) F_j(z_i z_l) (see the
    module docstring) the rows are

        C = dilation_product(grid, (fac kbar1) Phi),  D~ likewise with kbar2,
        E = (theta / lam) dilation_product(grid, w^ Phi^),

    with Phi = ``basis_matrix_z`` at quad_mu's nodes and Phi^ at quad_hat's:
    two GEMMs on the (N+1, K) kernel weights and one row for E.  Cauchy
    entries per ``assemble`` are those of the table's tiles (the
    ``dilation_product`` docstring counts them) plus Phi, Phi^ and L,
    4,155,676 at N = 192.  D, H follow from D~, E by two matrix products with
    L = ``basis_matrix_z`` at eps^lam z.  Each kernel is called once, on the
    broadcast (theta_i, eta_ik) arrays of shape (N+1, K), and each
    coefficient once, on all grid points.
    While the table is built its live (N+1)^2 arrays are W (three channels),
    the (i, c, j) sums and one tile scratch: eta, fac, Phi, Phi^ and the kernel
    values die with ``_table_weights``, and L is built after the table.  The
    weights set the peak: tracemalloc reads 1.6 / 2.8 / 4.6 / 18.1 MiB on 5.4
    at N = 128 / 192 / 256 / 512.
    An extreme grid exponent (beta = 300) crowds the nodes and the basis
    overflows far from them: the basis kernels run without numpy warnings, the
    problem's callables under the caller's, and ``solve`` names the non-finite system.
    """
    theta = grid.points
    # W is an argument, so it dies with the table call
    C, Dt, E = dilation_product(grid, _table_weights(scaled, grid, theta))
    E *= (theta / grid.lam)[:, None]
    # L[l, j] = F_j(eps^lam z_l) moves rows to the delayed points
    L = basis_matrix_z(grid, scaled.eps**grid.lam * grid.z_points)
    D = Dt @ L
    H = E @ L
    H *= scaled.eps

    a, b, fvec = (np.array(sample(fn, theta)) for fn in (scaled.a_t, scaled.b_t, scaled.f_t))
    u0 = np.full(theta.size, scaled.phi0)
    return SystemMatrices(a=a, b=b, C=C, D=D, E=E, H=H, fvec=fvec, u0=u0, grid=grid)


def _table_weights(scaled: ScaledProblem, grid: CollocationGrid, theta: np.ndarray) -> np.ndarray:
    """W[c, i, l], the weight of F_l(z_i xi) in row theta_i of C, D~ and E / (theta / lam).

    Its shape is (3, theta.size, N+1); the quadrature-side arrays die on return.
    Both rules come from ``_kernel_rule``: quad_hat is the kernel rule at mu = 0.
    """
    lam, mu = grid.lam, scaled.mu
    n1 = grid.n + 1
    quad_mu, ratio = _kernel_rule(n1, mu, lam)
    quad_hat = _kernel_rule(n1, 0.0, lam)[0]
    ti = theta[:, None]
    eta = ti * quad_mu.nodes  # theta_i xi_k^(1/lam)
    # transformed kernel weight: (1/lam) theta_i^(1-mu) times the
    # endpoint-stable singular ratio, times the rule weight
    fac = (ti ** (1.0 - mu) / lam) * ratio * quad_mu.weights
    phi = basis_matrix_z(grid, quad_mu.z_nodes)
    W = np.empty((3, theta.size, n1))
    for w, kbar in zip(W, (scaled.kbar1, scaled.kbar2)):
        np.matmul(fac * kbar(ti, eta), phi, out=w)
    # Phi^ is built after the kernel calls, so it is never live beside their values
    W[2] = quad_hat.weights @ basis_matrix_z(grid, quad_hat.z_nodes)
    return W


@np.errstate(over="ignore", invalid="ignore")
def solve(sysm: SystemMatrices) -> DiscreteSolution:
    """Solve the reduced system and back-substitute U and V.

    Eliminating U and V gives [I - (A+C+D)E - BH] U* = (A+C+D+B) U0 + F,
    solved by dense LU with partial pivoting.  The condition number is the
    1-norm estimate LAPACK ``gecon`` takes from the same LU factors and the
    matrix's 1-norm from ``lange``; a non-finite matrix, right-hand side or
    U*, U or V, an exact zero pivot or an estimate above ``_COND_LIMIT`` raises
    ``SingularSystemError``, with no numpy overflow or invalid warning first.
    """
    n1 = sysm.fvec.shape[0]
    G = np.diag(sysm.a) + sysm.C + sysm.D
    M = np.eye(n1) - G @ sysm.E - sysm.b[:, None] * sysm.H
    rhs = G @ sysm.u0 + sysm.b * sysm.u0 + sysm.fvec
    if not np.isfinite(M).all():
        raise SingularSystemError("reduced collocation matrix has non-finite entries", math.nan)
    if not np.isfinite(rhs).all():
        raise SingularSystemError("right-hand side has non-finite entries", math.nan)
    # getrf and getrs are what scipy.linalg's LU factor and solve call; called
    # directly getrf reports an exact zero pivot through info rather than a
    # LinAlgWarning, which only a process-wide (not thread-safe) warnings filter could silence
    getrf, gecon, getrs, lange = get_lapack_funcs(("getrf", "gecon", "getrs", "lange"), (M,))
    anorm = lange("1", M)
    lu, piv, info = getrf(M)
    if info > 0:
        raise SingularSystemError("reduced collocation matrix is singular", math.inf)
    rcond, _ = gecon(lu, anorm, norm="1")
    cond = 1.0 / rcond if rcond > 0.0 else math.inf
    if cond > _COND_LIMIT:
        raise SingularSystemError("reduced collocation matrix is ill-conditioned", cond)
    u_star, _ = getrs(lu, piv, rhs)  # info flags only an illegal argument
    u = sysm.u0 + sysm.E @ u_star
    v = sysm.u0 + sysm.H @ u_star
    if not (np.isfinite(u_star).all() and np.isfinite(u).all() and np.isfinite(v).all()):
        raise SingularSystemError("solution has non-finite entries", cond)
    return DiscreteSolution(u_star=u_star, u=u, v=v, grid=sysm.grid, cond=cond)
