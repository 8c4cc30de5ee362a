import math

import numpy as np
import pytest

from muntzvide import (
    CollocationGrid,
    QuadratureError,
    SolverConfig,
    basis_matrix_z,
    build_grid,
    convergence_sweep,
    gauss_jacobi,
    interpolate,
    make_example,
    to_fractional,
)
from muntzvide import muntz_basis

LAMBDAS = [1.0, 0.5, 1.0 / 3.0]


def direct_product_basis(grid, j, theta):
    """Literal product formula; numerically fragile, cross-check for N <= 8."""
    z = theta**grid.lam
    out = 1.0
    for i, zi in enumerate(grid.z_points):
        if i != j:
            out *= (z - zi) / (grid.z_points[j] - zi)
    return out


def test_grid_points_match_fractional_rule():
    for lam in LAMBDAS:
        grid = build_grid(7, -0.5, -0.5, lam)
        frac = to_fractional(gauss_jacobi(8, -0.5, -0.5), lam)
        assert grid.points == pytest.approx(frac.nodes, abs=0)
        assert grid.z_points == pytest.approx(frac.z_nodes, abs=0)


def test_two_point_chebyshev_grid():
    # affine images of +-sqrt(2)/2, five digits per the closed form
    grid = build_grid(1, -0.5, -0.5, 1.0)
    assert grid.points == pytest.approx([0.14645, 0.85355], abs=5e-6)


def test_half_lambda_points_are_powers():
    g1 = build_grid(5, -0.5, -0.5, 1.0)
    g2 = build_grid(5, -0.5, -0.5, 0.5)
    assert g2.points == pytest.approx(g1.points**2.0, rel=1e-15)


def test_bary_weights_are_inverse_products():
    # each of the n differences is taken in units of 1/4, the capacity of [0, 1]
    n = 4
    grid = build_grid(n, -0.5, -0.5, 0.5)
    z = grid.z_points
    for j in range(n + 1):
        prod = np.prod([z[j] - z[i] for i in range(n + 1) if i != j])
        assert grid.bary_weights[j] == pytest.approx(4.0**-n / prod, rel=1e-14)


@pytest.mark.parametrize("n", [600, 1024])
def test_large_n_weights_stay_finite_and_interpolate_exactly(n):
    # unscaled, 1/prod(z_i - z_j) overflows to inf near N = 600
    grid = build_grid(n, -0.5, -0.5, 0.5)  # RuntimeWarnings are errors here
    assert np.isfinite(grid.bary_weights).all()
    theta = np.linspace(0.0, 1.0, 97)
    for k in (1, 7, n // 2, n):
        got = interpolate(grid, grid.points ** (k * grid.lam), theta)
        np.testing.assert_allclose(got, theta ** (k * grid.lam), rtol=0, atol=1e-12)


def test_build_grid_validates():
    with pytest.raises(ValueError):
        build_grid(0, -0.5, -0.5, 0.5)


@pytest.mark.parametrize("n", [14, 64, 128])
def test_build_grid_rejects_collapsed_points(n):
    # at lam = 1/128 theta_0 = z_0^128 underflows to 0 and repeats; a failure
    # is not cached, so the second call raises too
    for _ in range(2):
        with pytest.raises(QuadratureError, match=f"N={n}, lam=0.0078125"):
            build_grid(n, -0.5, -0.5, 1.0 / 128.0)


def test_repeat_grid_is_the_cached_object():
    grid = build_grid(9, -0.5, 1.0, 0.5)
    assert build_grid(9, -0.5, 1.0, 0.5) is grid
    for arr in (grid.points, grid.z_points, grid.bary_weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_float_count_is_refused_after_the_int_is_cached():
    # 4.0 equals the cached key 4, but it is not a count
    build_grid(4, -0.5, -0.5, 0.5)
    for _ in range(2):
        with pytest.raises(ValueError, match="n must be an integer"):
            build_grid(4.0, -0.5, -0.5, 0.5)


def test_build_grid_keeps_tiny_distinct_points():
    grid = build_grid(128, -0.5, -0.5, 1.0 / 64.0)
    assert 0.0 < grid.points[0] < 1e-280
    assert np.all(np.diff(grid.points) > 0.0)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_kronecker_property(lam):
    # one array call over all grid points gives exact 0/1 values by snapping
    grid = build_grid(6, -0.5, -0.5, lam)
    for j in range(7):
        vals = interpolate(grid, np.eye(7)[j], grid.points)
        assert vals.shape == grid.points.shape
        assert vals == pytest.approx(np.eye(7)[j], abs=0)


def test_basis_eval_single_matches_all():
    # the interpolant of a unit vector is one column of the basis table
    grid = build_grid(5, -0.5, -0.5, 0.5)
    thetas = np.array([0.12, 0.5, 0.93])
    table = basis_matrix_z(grid, thetas**grid.lam)
    for j in range(6):
        assert np.array_equal(interpolate(grid, np.eye(6)[j], thetas), table[:, j])
    with pytest.raises(ValueError):
        interpolate(grid, np.ones(7), thetas)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_partition_of_unity(lam):
    grid = build_grid(8, -0.5, -0.5, lam)
    thetas = np.array([0.0, 0.37, 0.85, 1.0])
    assert interpolate(grid, np.ones(9), thetas) == pytest.approx(1.0, abs=1e-13)


def test_direct_product_cross_check():
    rng = np.random.default_rng(3)
    for lam in LAMBDAS:
        grid = build_grid(8, -0.5, -0.5, lam)
        thetas = rng.uniform(0.0, 1.0, 5)
        for j in (0, 4, 8):
            vals = interpolate(grid, np.eye(9)[j], thetas)
            for theta, val in zip(thetas, vals):
                assert val == pytest.approx(
                    direct_product_basis(grid, j, theta), abs=1e-12
                )


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("n", [4, 12, 20])
def test_interpolation_exact_on_muntz_monomials(n, lam):
    grid = build_grid(n, -0.5, -0.5, lam)
    thetas = np.linspace(0.0, 1.0, 1001)
    fm = basis_matrix_z(grid, thetas**lam)
    for k in range(n + 1):
        values = grid.points ** (k * lam)
        err = np.abs(fm @ values - thetas ** (k * lam))
        assert float(err.max()) <= 1e-11


def test_interpolate_constants_and_units():
    grid = build_grid(6, -0.5, -0.5, 0.5)
    thetas = np.array([[0.1, 0.44], [0.9, 0.2]])
    vals = interpolate(grid, np.full(7, 3.25), thetas)
    assert vals.shape == (2, 2)
    assert vals == pytest.approx(np.full((2, 2), 3.25), abs=1e-13)
    # a scalar theta gives a 0-d array with the same value as the array call
    for theta in thetas.ravel():
        assert interpolate(grid, np.eye(7)[2], theta).shape == ()
        assert interpolate(grid, np.eye(7)[2], theta) == pytest.approx(
            basis_matrix_z(grid, theta**grid.lam)[0, 2], abs=1e-15
        )


def test_interpolate_validates_length():
    grid = build_grid(4, -0.5, -0.5, 0.5)
    with pytest.raises(ValueError):
        interpolate(grid, np.ones(3), 0.5)


def test_change_of_variable_identity():
    # evaluating through the lambda grid equals evaluating the lambda=1 grid
    # at z = theta^lam: both grids share the same parent Gauss nodes
    lam = 0.5
    grid_lam = build_grid(9, -0.5, -0.5, lam)
    grid_one = build_grid(9, -0.5, -0.5, 1.0)
    rng = np.random.default_rng(11)
    values = rng.standard_normal(10)
    thetas = rng.uniform(0.0, 1.0, 20)
    a = interpolate(grid_lam, values, thetas)
    b = interpolate(grid_one, values, thetas**lam)
    assert a == pytest.approx(b, abs=1e-12)


def test_lebesgue_constant_log_growth():
    # sup-norm of the interpolation operator for alpha=beta=-1/2 grows like
    # log N; the ratio against log N stays below 3 on N in {4, 8, 16, 32}
    zgrid = np.linspace(0.0, 1.0, 5001)
    for n in (4, 8, 16, 32):
        grid = build_grid(n, -0.5, -0.5, 0.5)
        leb = float(np.abs(basis_matrix_z(grid, zgrid)).sum(axis=1).max())
        assert leb / math.log(n) <= 3.0


def test_snapping_tolerance_near_grid_point():
    grid = build_grid(5, -0.5, -0.5, 0.5)
    theta = grid.points[2]
    # a theta within float noise of the node must return the exact nodal value
    near = np.array([np.nextafter(theta, 1.0), np.nextafter(theta, 0.0)])
    values = np.arange(1.0, 7.0)
    assert np.array_equal(interpolate(grid, values, near), [values[2], values[2]])


@pytest.mark.parametrize("n, lam", [(6, 0.5), (8, 1.0), (40, 0.5), (64, 1.0 / 3.0)])
def test_basis_table_snaps_nodes_and_stays_finite_at_the_ends(n, lam):
    # exact node hits and nodes +- 1e-16 take exact Kronecker rows; z = 0 and
    # z = 1 lie outside the nodes' hull and still give finite rows summing to 1
    grid = build_grid(n, -0.5, -0.5, lam)
    nodes = grid.z_points
    z = np.concatenate([nodes, nodes + 1e-16, nodes - 1e-16, [0.0, 1.0]])
    table = basis_matrix_z(grid, z)
    assert table.shape == (z.size, n + 1)
    assert np.array_equal(table[: 3 * (n + 1)], np.tile(np.eye(n + 1), (3, 1)))
    assert np.isfinite(table).all()
    np.testing.assert_allclose(table.sum(axis=1), 1.0, rtol=0, atol=1e-13)
    if n <= 8:
        theta = z ** (1.0 / lam)
        want = np.column_stack([direct_product_basis(grid, j, theta) for j in range(n + 1)])
        np.testing.assert_allclose(table, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n, lam", [(4, 0.5), (40, 1.0 / 3.0)])
def test_basis_table_of_2d_z_stacks_the_row_calls(n, lam):
    grid = build_grid(n, -0.5, -0.5, lam)
    rng = np.random.default_rng(n)
    for shape in ((5, 5), (3, 2)):
        z = rng.uniform(0.0, 1.0, shape)
        z[0, 0] = grid.z_points[1]  # a snapped entry
        got = basis_matrix_z(grid, z)
        assert got.shape == shape + (n + 1,)
        want = np.stack([basis_matrix_z(grid, row) for row in z])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())
        assert np.array_equal(got[0, 0], np.eye(n + 1)[1])


@pytest.mark.parametrize("n, lam", [(6, 0.5), (40, 1.0 / 3.0)])
def test_multichannel_interpolate_equals_per_channel_calls(n, lam):
    grid = build_grid(n, -0.5, -0.5, lam)
    rng = np.random.default_rng(n)
    values = rng.standard_normal((n + 1, 3))
    near = (grid.z_points[[1, n // 2]] + 1e-16) ** (1.0 / lam)  # within rounding of a node
    thetas = np.concatenate([grid.points, near, [0.0, np.nan, 1.0], rng.uniform(0.0, 1.0, 4)])
    for theta in (thetas, thetas[-12:].reshape(3, 4), thetas[-1], 0.0):
        got = interpolate(grid, values, theta)
        assert got.shape == np.shape(theta) + (3,)
        want = np.stack([interpolate(grid, values[:, c], theta) for c in range(3)], axis=-1)
        # one matrix product for all channels accumulates in another order
        finite = np.isfinite(want)
        atol = 1e-14 * np.abs(want[finite]).max()
        np.testing.assert_allclose(got[finite], want[finite], rtol=0, atol=atol)
        assert np.array_equal(np.isnan(got), np.isnan(want))
    got = interpolate(grid, values, thetas)
    # node hits and near-hits take the nodal values exactly; NaN stays NaN
    assert np.array_equal(got[: n + 1], values)
    assert np.array_equal(got[n + 1 : n + 3], values[[1, n // 2]])
    assert np.isnan(got[n + 4]).all() and np.isfinite(got[n + 3]).all()
    with pytest.raises(ValueError):
        interpolate(grid, np.ones((n + 2, 2)), thetas)


def lagrange(nodes, j, x):
    """Product-form Lagrange polynomial l_j of ``nodes`` at x."""
    others = np.delete(nodes, j)
    return np.prod((x - others) / (nodes[j] - others))


@pytest.mark.parametrize("n, lam", [(8, 0.5), (40, 1.0 / 3.0)])
def test_cauchy_product_is_bitwise_the_subtraction(n, lam):
    # _cauchy forms z - z_j as a K = 2 matrix product; it must round exactly
    # as the subtraction does, which keeps the default outputs byte-identical.
    # It snaps nothing: a point on a node divides by zero there
    grid = build_grid(n, -0.5, -0.5, lam)
    nodes = grid.z_points
    rng = np.random.default_rng(n)
    z = np.concatenate([nodes, nodes + 1e-16, nodes - 1e-16, rng.uniform(0.0, 1.0, 3 * (n + 1))])
    rhs = muntz_basis._right_factor(grid)
    for points in (z, z.reshape(6, n + 1)):
        with np.errstate(divide="ignore"):
            cauchy = muntz_basis._cauchy(rhs, points, np.empty(points.shape + (n + 1,)))
            want = 1 / np.subtract.outer(points, nodes)
        assert np.array_equal(cauchy, want)
        assert np.isinf(cauchy).sum() == np.isin(points, nodes).sum() >= n + 1
        buffer = np.full(points.size * (n + 1) + 7, np.nan)
        out = buffer[: points.size * (n + 1)].reshape(points.shape + (n + 1,))
        with np.errstate(divide="ignore"):
            got = muntz_basis._cauchy(rhs, points, out)
        assert got is out and np.array_equal(out, want)


@pytest.mark.parametrize("block_entries", [9, 12, 2**17])
def test_dilation_product_on_a_grid_closed_under_products(monkeypatch, block_entries):
    # z = {1/4, 1/2, 1}: z_i z_l lands on a node for every pair but (1/4, 1/4)
    # and (1/4, 1/2).  Blocks of 1 row (9 entries) and the blocks [0, 1) and
    # [1, 3) (12 entries) put snapped pairs in the tiles of both block rows,
    # and off the diagonal through both the direct and the transposed
    # direction; 2**17 builds the table as one tile
    monkeypatch.setattr(muntz_basis, "_BLOCK_ENTRIES", block_entries)
    tiles = []  # per tile, the points searched for a node
    cauchy, nearest = muntz_basis._cauchy, muntz_basis._nearest

    def tile(rhs, z, out):
        tiles.append(0)
        return cauchy(rhs, z, out)

    def search(grid, z):
        # only the points that land on a node are searched, and each snaps
        assert np.isin(z, grid.z_points).all()
        tiles[-1] += z.size
        near, snap = nearest(grid, z)
        assert snap.all()
        return near, snap

    z = np.array([0.25, 0.5, 1.0])
    bary = 1.0 / np.array([np.prod(np.delete(z[j] - z, j)) for j in range(3)])
    grid = CollocationGrid(n=2, lam=1.0, points=z, z_points=z, bary_weights=bary)
    W = np.random.default_rng(5).standard_normal((2, 3, 3))
    want = np.array([
        [[sum(W[c, i, l] * lagrange(z, j, z[i] * z[l]) for l in range(3)) for j in range(3)]
         for i in range(3)]
        for c in range(2)
    ])
    with monkeypatch.context() as spies:
        spies.setattr(muntz_basis, "_cauchy", tile)
        spies.setattr(muntz_basis, "_nearest", search)
        got = muntz_basis.dilation_product(grid, W)
    # snapped points per tile, block row by block row: the 6 products on a
    # node when one tile holds the whole table
    assert tiles == {9: [0, 0, 1, 1, 1, 1], 12: [0, 1, 4], 2**17: [6]}[block_entries]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())
    # the row-by-row reference goes through basis_matrix_z, which snaps every
    # point it is given itself
    rows = rowwise_dilation(grid, W)
    np.testing.assert_allclose(got, rows, rtol=0, atol=1e-14 * np.abs(rows).max())
    assert got.shape == (2, 3, 3)
    assert muntz_basis.dilation_product(grid, W[:1]).shape == (1, 3, 3)


@pytest.mark.parametrize("first, searched", [(0.25, [0.25]), (0.375, [])])
def test_dilation_product_leaves_near_hits_to_the_barycentric_form(monkeypatch, first, searched):
    # z = {first, 1/2, 1 - 2^-53}: 1/2 (1 - 2^-53) lies 2^-54 from the node
    # 1/2, and (1 - 2^-53)^2 rounds to 2^-53 below the node 1 - 2^-53, both
    # within _SNAP_TOL without landing on a node.  The second barycentric form
    # is accurate there, so they are not searched; only 1/2 * 1/2, exactly the
    # node 1/4 of the first grid, is
    z = np.array([first, 0.5, 1.0 - 2.0**-53])
    products = np.multiply.outer(z, z)
    near = np.abs(products[..., None] - z)
    assert ((near > 0) & (near <= muntz_basis._SNAP_TOL)).sum() >= 2
    calls = []
    nearest = muntz_basis._nearest

    def search(grid, points):
        calls.extend(points.tolist())
        return nearest(grid, points)

    monkeypatch.setattr(muntz_basis, "_nearest", search)
    bary = 1.0 / np.array([np.prod(np.delete(z[j] - z, j)) for j in range(3)])
    grid = CollocationGrid(n=2, lam=1.0, points=z, z_points=z, bary_weights=bary)
    W = np.random.default_rng(7).standard_normal((2, 3, 3))
    want = np.array([
        [[sum(W[c, i, l] * lagrange(z, j, z[i] * z[l]) for l in range(3)) for j in range(3)]
         for i in range(3)]
        for c in range(2)
    ])
    got = muntz_basis.dilation_product(grid, W)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())
    assert calls == searched


@pytest.mark.parametrize("shape", [(5, 2, 5), (50,), (2, 25), (5, 5)])
def test_dilation_product_rejects_other_shapes(shape):
    # each has a multiple of (N+1)^2 entries, which a reshape would accept; a
    # single (N+1, N+1) channel is a stack of one, shape (1, N+1, N+1)
    grid = build_grid(4, -0.5, -0.5, 0.5)
    with pytest.raises(ValueError, match=r"expected W of shape \(c, 5, 5\), got \("):
        muntz_basis.dilation_product(grid, np.ones(shape))


def rowwise_dilation(grid, W):
    """Row i of every channel as W[:, i] @ F(z_i z): the table one row at a time."""
    z = grid.z_points
    return np.stack([W[:, i] @ basis_matrix_z(grid, z[i] * z) for i in range(grid.n + 1)], axis=1)


@pytest.mark.parametrize("width", [1, 2, 3])
def test_dilation_product_tiles_match_one_tile(monkeypatch, width):
    # 41 rows in 41, 21 and 14 near-equal blocks: 1, 1-2 and 2-3 rows each
    n, lam = 40, 0.5
    grid = build_grid(n, -0.5, -0.5, lam)
    W = np.random.default_rng(n).standard_normal((3, n + 1, n + 1))
    assert muntz_basis._BLOCK_ENTRIES >= (n + 1) ** 3  # one tile by default
    whole = muntz_basis.dilation_product(grid, W)
    ref = rowwise_dilation(grid, W)
    np.testing.assert_allclose(whole, ref, rtol=0, atol=1e-13 * np.abs(ref).max())
    monkeypatch.setattr(muntz_basis, "_BLOCK_ENTRIES", width**2 * (n + 1))
    got = muntz_basis.dilation_product(grid, W)
    np.testing.assert_allclose(got, whole, rtol=0, atol=1e-14 * np.abs(whole).max())


@pytest.mark.parametrize("n", [80, 184, 192])
def test_dilation_product_many_tiles_match_rows(monkeypatch, n):
    # the N+1 rows fall in -(-(N+1) // width) near-equal blocks for the tile
    # width isqrt(_BLOCK_ENTRIES // (N+1)); blocks of that width would leave a
    # last block of 1 row at N = 80 and 3 rows at N = 184
    grid = build_grid(n, -0.5, -0.5, 0.5)
    width = math.isqrt(muntz_basis._BLOCK_ENTRIES // (n + 1))
    shapes, searched = [], []
    cauchy, nearest = muntz_basis._cauchy, muntz_basis._nearest

    def tile(rhs, z, out):
        shapes.append(z.shape)
        return cauchy(rhs, z, out)

    def search(grid, z):
        searched.append(z.size)
        return nearest(grid, z)

    monkeypatch.setattr(muntz_basis, "_cauchy", tile)
    monkeypatch.setattr(muntz_basis, "_nearest", search)
    W = np.random.default_rng(n).standard_normal((3, n + 1, n + 1))
    got = muntz_basis.dilation_product(grid, W)
    # the first block row has one tile per block
    count = -(-(n + 1) // width)
    rows = [shape[1] for shape in shapes[:count]]
    assert (width, sorted(set(rows))) == {80: (40, [27]), 184: (26, [23, 24]), 192: (26, [24, 25])}[n]
    assert len(shapes) == count * (count + 1) // 2 and sum(rows) == n + 1
    # no product of a default grid lands on a node: no snap search at all
    assert searched == []
    ref = rowwise_dilation(grid, W)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * np.abs(ref).max())


def test_dilation_product_snaps_the_node_hits_of_a_built_grid(monkeypatch):
    # at alpha = beta = 1/2, lam = 1/2 the middle node's square z_44^2 is
    # exactly a node at N = 88 (likewise the middle node at N = 124, 148 and
    # 172); it is the one product searched
    grid = build_grid(88, 0.5, 0.5, 0.5)
    z = grid.z_points
    assert np.argwhere(np.isin(np.multiply.outer(z, z), z)).tolist() == [[44, 44]]
    searched, nearest = [], muntz_basis._nearest

    def search(grid, points):
        searched.append(points.size)
        return nearest(grid, points)

    monkeypatch.setattr(muntz_basis, "_nearest", search)
    W = np.random.default_rng(88).standard_normal((2, 89, 89))
    got = muntz_basis.dilation_product(grid, W)
    assert searched == [1]
    ref = rowwise_dilation(grid, W)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * np.abs(ref).max())
    for n in (124, 148, 172):
        z = build_grid(n, 0.5, 0.5, 0.5).z_points
        assert np.argwhere(np.isin(np.multiply.outer(z, z), z)).tolist() == [[n // 2, n // 2]]
    # the config alpha = beta = 0.5 reaches it; 5.1 (mu = 1/2, lam = 1/2) solves
    # to 2.3e-15 there
    row = convergence_sweep(make_example("5.1"), SolverConfig(alpha=0.5, beta=0.5), [88]).rows[0]
    assert not row.failed and row.linf_e <= 1e-14


def test_basis_table_at_the_grids_own_rule_is_the_identity():
    # at alpha = -1/2, beta = 1 and lam = 1/2 (mu = 1/2), the kernel rule
    # quad_mu of assemble, with exponents (-mu, 1/lam - 1), is the grid's own
    # rule: every point lands exactly on a node
    grid = build_grid(16, -0.5, 1.0, 0.5)
    quad_mu = to_fractional(gauss_jacobi(17, -0.5, 1.0 / 0.5 - 1.0), 0.5)
    assert np.array_equal(quad_mu.z_nodes, grid.z_points)
    assert np.array_equal(basis_matrix_z(grid, quad_mu.z_nodes), np.eye(17))


def test_basis_table_snaps_a_near_hit_that_is_not_exact():
    # the delay points eps^lam z at eps = 1/2, lam = 1: 0.5 z_74 lies 2.8e-17
    # from the node z_49 without landing on it, and takes its Kronecker row
    grid = build_grid(148, 0.5, 0.5, 1.0)
    points = 0.5 * grid.z_points
    assert not np.isin(points, grid.z_points).any()
    assert 0.0 < abs(points[74] - grid.z_points[49]) <= muntz_basis._SNAP_TOL
    table = basis_matrix_z(grid, points)
    assert np.array_equal(table[74], np.eye(149)[49])
