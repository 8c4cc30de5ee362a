"""Collocation grid and the generalized Lagrange basis on Muntz monomials.

The grid points theta_0 < ... < theta_N are the lambda-mapped Gauss-Jacobi
nodes; the cardinal functions are products over z = theta^lam,

    F_j(theta) = prod_{i != j} (theta^lam - theta_i^lam) / (theta_j^lam - theta_i^lam),

so all arithmetic happens in z coordinates, where they are ordinary Lagrange
polynomials.  Evaluation uses the second barycentric form (Berrut & Trefethen
2004), which is stable for clustered nodes; the direct product form is kept
in the tests as a small-N cross-check only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import gauss_jacobi, to_fractional

__all__ = [
    "CollocationGrid",
    "build_grid",
    "basis_matrix_z",
    "interpolate",
]

# within this distance of a node (in z) the barycentric form is 0/0: return
# the exact Kronecker value instead
_SNAP_TOL = 1e-15


@dataclass(frozen=True, eq=False)
class CollocationGrid:
    n: int
    lam: float
    alpha: float
    beta: float
    points: np.ndarray
    z_points: np.ndarray
    bary_weights: np.ndarray


def build_grid(n: int, alpha: float, beta: float, lam: float) -> CollocationGrid:
    """Grid of the N+1 lambda-mapped Gauss-Jacobi nodes plus barycentric data."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    frac = to_fractional(gauss_jacobi(n + 1, alpha, beta), lam)
    z = frac.z_nodes
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, 1.0)
    bary = 1.0 / np.prod(diff, axis=1)
    bary.flags.writeable = False
    return CollocationGrid(
        n=n,
        lam=lam,
        alpha=alpha,
        beta=beta,
        points=frac.nodes,
        z_points=z,
        bary_weights=bary,
    )


def basis_matrix_z(grid: CollocationGrid, z) -> np.ndarray:
    """Tabulate all N+1 cardinal functions at mapped coordinates z.

    Returns an array of shape (len(z), N+1); row m holds F_j(z_m) for all j.
    Callers that know z = theta^lam exactly (the collocation matrices sample
    the basis at theta_i * xi^(1/lam), whose z coordinate is the product
    z_i * xi) should use this entry point to avoid a lossy power round trip.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    diff = z[:, None] - grid.z_points[None, :]
    hit = np.abs(diff) <= _SNAP_TOL
    terms = grid.bary_weights / np.where(hit, 1.0, diff)
    out = terms / terms.sum(axis=1, keepdims=True)
    snap = hit.any(axis=1)
    if snap.any():
        out[snap] = hit[snap].astype(float)
    return out


def interpolate(grid: CollocationGrid, values, theta) -> np.ndarray:
    """Evaluate the interpolant through (theta_j, values_j) at every theta.

    ``theta`` may have any shape; the result has the same shape.  At a grid
    point the value is exactly the nodal value.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n + 1,):
        raise ValueError(
            f"expected {grid.n + 1} nodal values, got shape {values.shape}"
        )
    theta = np.asarray(theta, dtype=float)
    return (basis_matrix_z(grid, theta.ravel() ** grid.lam) @ values).reshape(theta.shape)
