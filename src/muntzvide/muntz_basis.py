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
      dilation table, built in bounded tiles (its docstring gives the layout).

All three evaluate through the Cauchy matrix R = 1 / (z - z_j) of their
points (``_cauchy``).  ``basis_matrix_z`` and ``interpolate`` share one
builder, ``_snapped_cauchy``, which searches every point: one within
``_SNAP_TOL`` of node k takes the Kronecker row e_k as its row of R, computed
at a point moved off [0, 1], and ``interpolate`` then returns the nodal value
itself.  A theta that is a node reaches z = theta^lam only to rounding, and
``basis_matrix_z`` takes its z from rules that can meet the nodes exactly or
to rounding.  The tiles of ``dilation_product`` keep their own rule: they
search only the products z_i z_l whose row sum S = R w is not finite, as for
one that lands exactly on a node (there the form is 0/0); the second form
stays accurate arbitrarily close to a node (Higham, IMA J. Numer. Anal. 24,
2004), so a product near one needs nothing.  No product of a default grid
lands on a node; at alpha = beta = lam = 1/2 the middle node's square does
(N = 88, 124, 148 and 172).
``basis_matrix_z`` and ``dilation_product`` run without numpy's divide,
invalid and overflow warnings, as the basis overflows far from crowded nodes;
the consumer reports non-finite output (``solve`` raises
``SingularSystemError`` naming it).  ``interpolate`` keeps the caller's state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import QuadratureError, _cached, _validate_count, gauss_jacobi, to_fractional

__all__ = [
    "CollocationGrid",
    "build_grid",
    "basis_matrix_z",
    "dilation_product",
    "interpolate",
]

# a point within this distance of a node (in z) is snapped to it (the module
# docstring gives the two rules)
_SNAP_TOL = 1e-15
# a Cauchy tile of ``dilation_product`` holds at most this many entries, which
# bounds its scratch memory (its docstring gives the tile layout)
_BLOCK_ENTRIES = 2**17


@dataclass(frozen=True, eq=False)
class CollocationGrid:
    n: int
    lam: float
    points: np.ndarray
    z_points: np.ndarray
    bary_weights: np.ndarray


@_cached
def build_grid(n: int, alpha: float, beta: float, lam: float) -> CollocationGrid:
    """Grid of the N+1 lambda-mapped Gauss-Jacobi nodes plus barycentric data.

    Raises ``QuadratureError``, which fails a sweep's row, when the mapped
    nodes theta_j = z_j^(1/lam) are not positive and strictly increasing, as
    when a small lam underflows the first ones to zero.  Cached as
    ``gauss_jacobi`` is: a repeat call returns the same grid, and a failing
    call raises every time.
    """
    _validate_count("n", n, 1)
    frac = to_fractional(gauss_jacobi(n + 1, alpha, beta), lam)
    theta = frac.nodes
    if not (theta[0] > 0.0 and np.all(np.diff(theta) > 0.0)):
        raise QuadratureError(
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


def _nearest(grid: CollocationGrid, z: np.ndarray):
    """The node nearest each z, and whether z lies within _SNAP_TOL of it."""
    nodes = grid.z_points
    right = np.searchsorted(nodes[1:-1], z) + 1  # z lies in (or past) [right-1, right]
    near = right - (z - nodes[right - 1] < nodes[right] - z)
    return near, np.abs(z - nodes[near]) <= _SNAP_TOL


def _right_factor(grid: CollocationGrid) -> np.ndarray:
    """The right factor [[1 ... 1], [-z_j]] of ``_cauchy``'s K = 2 product."""
    rhs = np.ones((2, grid.n + 1))
    np.negative(grid.z_points, out=rhs[1])
    return rhs


def _cauchy(rhs: np.ndarray, z: np.ndarray, out: np.ndarray):
    """Write R = 1 / (z - z_j) into ``out`` and return it.

    ``rhs`` is the grid's ``_right_factor`` and ``out`` a C-contiguous array
    of shape ``z.shape + (N+1,)``.  A z on a node divides by zero there;
    snapping is left to the callers (see the module docstring).
    """
    # z - z_j as one K = 2 product [z, 1] @ [[1 ... 1], [-z_j]]: its products
    # are exact and each entry rounds once, so it is bitwise the subtraction,
    # which np.subtract into ``out`` forms 12-18% slower per solve at N = 64-192
    lhs = np.empty((z.size, 2))
    lhs[:, 0] = z.ravel()
    lhs[:, 1] = 1.0
    np.matmul(lhs, rhs, out=out.reshape(z.size, rhs.shape[1]))
    np.reciprocal(out, out=out)
    return out


def _snapped_cauchy(grid: CollocationGrid, z: np.ndarray):
    """(R, near, snap): ``_cauchy`` at z, a snapped point's row e_k (computed at z = -1, off [0, 1])."""
    near, snap = _nearest(grid, z)
    hit = snap.any()
    cauchy = _cauchy(_right_factor(grid), np.where(snap, -1.0, z) if hit else z, np.empty(z.shape + grid.z_points.shape))
    if hit:
        # by index: two boolean-mask writes cost 3x as much at 2,214 points
        at = np.nonzero(snap)
        cauchy[at] = 0.0
        cauchy[(*at, near[at])] = 1.0
    return cauchy, near, snap


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def basis_matrix_z(grid: CollocationGrid, z) -> np.ndarray:
    """Tabulate all N+1 cardinal functions at mapped coordinates z.

    Returns an array of shape ``z.shape + (N+1,)``, a scalar z as shape (1,),
    whose entry [..., j] is F_j(z).  In the second barycentric form
    F_j(z) = (w_j / (z - z_j)) / S(z) with S(z) = sum_l w_l / (z - z_l)
    = 4^-N / prod_l (z - z_l), which never vanishes.  It is formed entry by
    entry rather than as a product with the identity, so column j is bitwise
    what ``interpolate`` gives for the unit vector e_j.  Taking z rather than
    theta spares a caller who knows z exactly a lossy power round trip.
    """
    cauchy = _snapped_cauchy(grid, np.atleast_1d(np.asarray(z, dtype=float)))[0]
    w = grid.bary_weights
    s = cauchy @ w
    cauchy *= w
    cauchy /= s[..., None]
    return cauchy


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def dilation_product(grid: CollocationGrid, W) -> np.ndarray:
    """out[c, i, j] = sum_l W[c, i, l] F_j(z_i z_l) over the grid's dilation table.

    ``W`` has shape (c, N+1, N+1) for c channels, and the result has its
    shape; its channels are strided views of one (N+1, c, N+1) array.
    The table F_j(z_i z_l) is symmetric in (i, l), so it is built in block
    rows: the rows fall in ceil((N+1) / width) blocks whose sizes differ by at
    most one, for width = isqrt(``_BLOCK_ENTRIES`` // (N+1)), so that a square
    tile of two blocks holds at most ``_BLOCK_ENTRIES`` Cauchy entries; block
    row [a, b) is a row of square tiles, one for each l-block [e, f) with
    e >= a, over the points z_i z_l.  A tile's Cauchy array takes its
    pairs (i, l) directly and, off the diagonal, the same entries transposed
    as its pairs (l, i); both are batched products w * ((W / S) @ R), with S
    as in ``basis_matrix_z``, that contract over the tile width and add into
    whole rows of the (i, c, j) sums.
    That is n1 (n1^2 + sum |block|^2) / 2 Cauchy entries for n1 = N+1, and all
    (N+1)^3 when one tile holds the whole table (N <= 49).  Every tile is
    built in one scratch buffer.  Only a pair whose S is not finite is
    searched for a node (no pair of a default grid is): one within
    ``_SNAP_TOL`` takes the node's Kronecker row and S = w_k, and any other
    stays non-finite for the consumer to report.  Any other shape of ``W``
    raises ``ValueError``.
    """
    n1 = grid.n + 1
    W = np.asarray(W, dtype=float)
    if W.ndim != 3 or W.shape[1:] != (n1, n1):
        raise ValueError(f"expected W of shape (c, {n1}, {n1}), got {W.shape}")
    z, w = grid.z_points, grid.bary_weights
    sums = np.zeros((n1, W.shape[0], n1))  # (i, c, j): the sums over l, without w_j
    count = -(-n1 // max(1, math.isqrt(_BLOCK_ENTRIES // n1)))
    edges = [k * n1 // count for k in range(count + 1)]
    blocks = list(zip(edges, edges[1:]))
    largest = -(-n1 // count)
    # one buffer for every tile: allocating each tile is 30-57% slower at N = 64-192
    scratch = np.empty(largest * largest * n1)
    # one K = 2 right factor for every tile: building it per tile is 1-2% slower
    rhs = _right_factor(grid)
    for r, (a, b) in enumerate(blocks):
        row = np.multiply.outer(z[a:b], z[a:])  # the points z_i z_l with l >= a
        for e, f in blocks[r:]:
            points = row[:, e - a : f - a]
            tile = scratch[: (b - a) * (f - e) * n1].reshape(b - a, f - e, n1)
            cauchy = _cauchy(rhs, points, tile)
            s = cauchy @ w  # (i, l)
            hit = ~np.isfinite(s)
            if hit.any():
                # a point on a node divides by zero, so its S is not finite
                # (as is an overflowed one): search only these
                near, snap = _nearest(grid, points[hit])
                i, l = np.nonzero(hit)
                i, l, k = i[snap], l[snap], near[snap]
                cauchy[i, l] = 0.0
                cauchy[i, l, k] = 1.0
                s[i, l] = w[k]
            inv_s = 1.0 / s
            # pairs (i, l): (i, c, l) @ (i, l, j)
            sums[a:b] += (W[:, a:b, e:f] * inv_s).transpose(1, 0, 2) @ cauchy
            if e > a:
                # pairs (l, i) off the diagonal: (l, c, i) @ (l, i, j)
                coef = (W[:, e:f, a:b] * inv_s.T).transpose(1, 0, 2)
                sums[e:f] += coef @ cauchy.transpose(1, 0, 2)
    sums *= w
    return sums.transpose(1, 0, 2)


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
    # second barycentric form: every channel (one-channel values are one
    # column) shares one Cauchy matrix R, and p = (R @ (w values)) / (R @ w);
    # a snapped point takes v_k itself, which (w_k v_k) / w_k need not round to
    cauchy, near, snap = _snapped_cauchy(grid, theta.ravel() ** grid.lam)
    w = grid.bary_weights
    chan = values.reshape(grid.n + 1, -1)
    out = (cauchy @ (w[:, None] * chan)) / (cauchy @ w)[:, None]
    k = np.flatnonzero(snap)  # by index, as in ``_snapped_cauchy``
    out[k] = chan[near[k]]
    return out.reshape(theta.shape + values.shape[1:])
