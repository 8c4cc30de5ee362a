"""Collocation grid and the generalized Lagrange basis on Muntz monomials.

The grid points theta_0 < ... < theta_N are the lambda-mapped Gauss-Jacobi
nodes; the cardinal functions are products over z = theta^lam,

    F_j(theta) = prod_{i != j} (theta^lam - theta_i^lam) / (theta_j^lam - theta_i^lam),

so all arithmetic happens in z coordinates, where they are ordinary Lagrange
polynomials.  Evaluation uses the second barycentric form (Berrut & Trefethen
2004), which is stable for clustered nodes; the direct product form is kept
in the tests as a small-N cross-check only.

    * ``interpolate``      - the interpolant of nodal values at any theta;
    * ``basis_matrix_z``   - the table F_j(z_m) at mapped coordinates z;
    * ``dilation_product`` - sum_l W[i, l] F_j(z_i z_l) over the grid's
      dilation table, which is symmetric in (i, l), so only half of it is built.

All three evaluate through the Cauchy matrix R = 1 / (z - z_j) of their
points, and all give a z within ``_SNAP_TOL`` of a node that node's exact
Kronecker value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import gauss_jacobi, to_fractional

__all__ = [
    "CollocationGrid",
    "build_grid",
    "basis_matrix_z",
    "dilation_product",
    "interpolate",
]

# within this distance of a node (in z) the barycentric form is 0/0: return
# the exact Kronecker value instead
_SNAP_TOL = 1e-15
# ``dilation_product`` fills rows in blocks holding at most this many entries
# of a (rows, N+1, N+1) Cauchy array, which bounds its scratch memory
_BLOCK_ENTRIES = 2**17


@dataclass(frozen=True, eq=False)
class CollocationGrid:
    n: int
    lam: float
    points: np.ndarray
    z_points: np.ndarray
    bary_weights: np.ndarray


def build_grid(n: int, alpha: float, beta: float, lam: float) -> CollocationGrid:
    """Grid of the N+1 lambda-mapped Gauss-Jacobi nodes plus barycentric data.

    Raises ``ValueError`` when the mapped nodes theta_j = z_j^(1/lam) are not
    positive and strictly increasing, as when a small lam underflows the first
    ones to zero.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    frac = to_fractional(gauss_jacobi(n + 1, alpha, beta), lam)
    theta = frac.nodes
    if not (theta[0] > 0.0 and np.all(np.diff(theta) > 0.0)):
        raise ValueError(
            f"grid points collapse at N={n}, lam={lam}: the mapped nodes are not positive "
            f"and strictly increasing (theta_0 = {theta[0]:.3e}); use a larger lam"
        )
    z = frac.z_nodes
    # barycentric weights 1 / prod_{l != j} 4 (z_j - z_l): differences in units
    # of 1/4, the capacity of [0, 1], keep the products O(1) at large N, and a
    # power-of-two scale changes no interpolated value
    diff = 4.0 * (z[:, None] - z[None, :])
    np.fill_diagonal(diff, 1.0)
    bary = 1.0 / np.prod(diff, axis=1)
    bary.flags.writeable = False
    return CollocationGrid(n=n, lam=lam, points=theta, z_points=z, bary_weights=bary)


def _cauchy(grid: CollocationGrid, z: np.ndarray):
    """R = 1 / (z - z_j), the node nearest each z, and whether z lies within _SNAP_TOL of it.

    A snapped z is moved off [0, 1] in R, which keeps its row finite; callers
    give such a z its nodal value.
    """
    nodes = grid.z_points
    right = np.searchsorted(nodes[1:-1], z) + 1  # z lies in (or past) [right-1, right]
    near = right - (z - nodes[right - 1] < nodes[right] - z)
    snap = np.abs(z - nodes[near]) <= _SNAP_TOL
    cauchy = np.subtract.outer(np.where(snap, -1.0, z), nodes)
    np.reciprocal(cauchy, out=cauchy)
    return cauchy, near, snap


def basis_matrix_z(grid: CollocationGrid, z) -> np.ndarray:
    """Tabulate all N+1 cardinal functions at mapped coordinates z.

    Returns an array of shape (len(z), N+1); row m holds F_j(z_m) for all j.
    In the second barycentric form F_j(z) = (w_j / (z - z_j)) / S(z) with
    S(z) = sum_l w_l / (z - z_l) = 4^-N / prod_l (z - z_l), which never
    vanishes.  It is formed entry by entry rather than as a product with the
    identity, so column j is bitwise what ``interpolate`` gives for the unit
    vector e_j.  Taking z rather than theta spares a caller who knows z
    exactly a lossy power round trip.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    cauchy, near, snap = _cauchy(grid, z)
    w = grid.bary_weights
    out = (cauchy * w) / (cauchy @ w)[:, None]
    out[snap] = np.eye(grid.n + 1)[near[snap]]
    return out


def dilation_product(grid: CollocationGrid, W) -> np.ndarray:
    """out[..., i, j] = sum_l W[..., i, l] F_j(z_i z_l) over the grid's dilation table.

    ``W`` has shape (N+1, N+1), or (c, N+1, N+1) for c channels, and the result
    has its shape.  The table F_j(z_i z_l) is symmetric in (i, l), so the row
    block [a, b) builds the Cauchy array of the points z_i z_l only for l >= a:
    its rows take the pairs (i, l) directly, and the rows l >= b take the same
    entries as their pairs (l, i).  Each direction is one batched product,
    w * ((W / S) @ R) with S as in ``basis_matrix_z``, and a block holds at
    most ``_BLOCK_ENTRIES`` Cauchy entries; at N+1 rows of one block that is
    (N+1)^3 entries in all, and about half of it once the table spans many
    blocks.  A z_i z_l within ``_SNAP_TOL`` of a node adds its weights, in both
    directions, to that node's column only.
    """
    n1 = grid.n + 1
    W = np.asarray(W, dtype=float)
    chan = W.reshape(-1, n1, n1)
    z, w = grid.z_points, grid.bary_weights
    out = np.zeros(chan.shape)  # the sums over l, still without the factor w_j
    hits = []  # (rows, nodes, weights) of the snapped pairs, added after w_j
    step = max(1, _BLOCK_ENTRIES // (n1 * n1))
    for a in range(0, n1, step):
        b = min(a + step, n1)
        cauchy, near, snap = _cauchy(grid, np.multiply.outer(z[a:b], z[a:]))
        inv_s = np.where(snap, 0.0, 1.0 / (cauchy @ w))  # (rows, l >= a)
        # rows i in [a, b) over l >= a: (i, c, l) @ (i, l, j)
        coef = (chan[:, a:b, a:] * inv_s).transpose(1, 0, 2)
        out[:, a:b] += (coef @ cauchy).transpose(1, 0, 2)
        # rows l >= b over i in [a, b): (l, c, i) @ (l, i, j)
        tail = slice(b - a, None)
        coef = (chan[:, b:, a:b] * inv_s[:, tail].T).transpose(1, 0, 2)
        out[:, b:] += (coef @ cauchy[:, tail].transpose(1, 0, 2)).transpose(1, 0, 2)
        if snap.any():
            r, m = np.nonzero(snap)
            i, l, node = a + r, a + m, near[r, m]
            t = l >= b
            hits.append((
                np.concatenate((i, l[t])),
                np.concatenate((node, node[t])),
                np.concatenate((chan[:, i, l], chan[:, l[t], i[t]]), axis=1),
            ))
    out *= w
    for rows, nodes, weights in hits:
        np.add.at(out, (slice(None), rows, nodes), weights)
    return out.reshape(W.shape)


def interpolate(grid: CollocationGrid, values, theta) -> np.ndarray:
    """Evaluate the interpolant through (theta_j, values_j) at every theta.

    ``values`` holds one channel, shape (N+1,), or c channels, shape
    (N+1, c); the result has shape ``theta.shape`` or ``theta.shape + (c,)``.
    At a grid point the value is exactly the nodal value.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim not in (1, 2) or values.shape[0] != grid.n + 1:
        raise ValueError(
            f"expected {grid.n + 1} nodal values per channel, got shape {values.shape}"
        )
    theta = np.asarray(theta, dtype=float)
    # second barycentric form: every channel shares one Cauchy matrix R, and
    # p = (R @ (w values)) / (R @ w); a snapped point takes its nodal value
    cauchy, near, snap = _cauchy(grid, theta.ravel() ** grid.lam)
    w = grid.bary_weights
    den = cauchy @ w
    if values.ndim == 2:
        w, den = w[:, None], den[:, None]
    out = (cauchy @ (w * values)) / den
    out[snap] = values[near[snap]]
    return out.reshape(theta.shape + values.shape[1:])
