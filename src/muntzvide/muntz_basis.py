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
    "basis_product",
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


def _snap(grid: CollocationGrid, z: np.ndarray):
    """Index of the node nearest each z, and whether z lies within _SNAP_TOL of it."""
    nodes = grid.z_points
    right = np.searchsorted(nodes[1:-1], z) + 1  # z lies in (or past) [right-1, right]
    near = right - (z - nodes[right - 1] < nodes[right] - z)
    return near, np.abs(z - nodes[near]) <= _SNAP_TOL


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
    near, snap = _snap(grid, z)
    rows, cols = np.flatnonzero(snap), near[snap]
    diff[rows, cols] = 1.0
    terms = grid.bary_weights / diff
    out = terms / terms.sum(axis=1, keepdims=True)
    out[rows] = 0.0
    out[rows, cols] = 1.0
    return out


def basis_product(grid: CollocationGrid, v, z) -> np.ndarray:
    """Row-wise ``v @ basis_matrix_z(grid, z)`` without forming the basis table.

    ``z`` has shape (m, K) and ``v`` broadcasts to it; row r of the (m, N+1)
    result is sum_k v[r, k] F_j(z[r, k]).  In the second barycentric form
    F_j(z) = (w_j / (z - z_j)) / S(z) with S(z) = sum_l w_l / (z - z_l), so with
    the Cauchy matrix R = 1 / (z - z_j) the product is w * ((v / S) @ R).
    S(z) = 1 / prod_l (z - z_l) never vanishes.  A z within ``_SNAP_TOL`` of a
    node adds its v to that node's column only.
    """
    v, z = np.asarray(v, dtype=float), np.asarray(z, dtype=float)
    near, snap = _snap(grid, z)
    # a snapped z is moved off [0, 1] so its Cauchy row stays finite; its
    # coefficient is zero and its v goes straight to the nearest node
    cauchy = np.subtract.outer(np.where(snap, -1.0, z), grid.z_points)
    np.reciprocal(cauchy, out=cauchy)
    w = grid.bary_weights
    coef = np.where(snap, 0.0, v / (cauchy @ w))
    out = w * (coef[:, None, :] @ cauchy)[:, 0, :]
    if snap.any():
        r, k = np.nonzero(snap)
        np.add.at(out, (r, near[r, k]), np.broadcast_to(v, z.shape)[r, k])
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
