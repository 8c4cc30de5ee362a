import math

import numpy as np
import pytest

from muntzvide import (
    basis_matrix_z,
    build_grid,
    gauss_jacobi,
    interpolate,
    to_fractional,
)
from muntzvide.muntz_basis import basis_product

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
    grid = build_grid(4, -0.5, -0.5, 0.5)
    z = grid.z_points
    for j in range(5):
        prod = np.prod([z[j] - z[i] for i in range(5) if i != j])
        assert grid.bary_weights[j] == pytest.approx(1.0 / prod, rel=1e-14)


def test_build_grid_validates():
    with pytest.raises(ValueError):
        build_grid(0, -0.5, -0.5, 0.5)


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


@pytest.mark.parametrize("n, lam", [(8, 1.0), (40, 0.5), (64, 1.0 / 3.0)])
def test_basis_product_matches_basis_table(n, lam):
    # row r of the product is v[r] @ basis_matrix_z(grid, z[r]), also where a
    # z hits a node exactly, lies within rounding of one, or is the origin
    grid = build_grid(n, -0.5, -0.5, lam)
    nodes = grid.z_points
    rng = np.random.default_rng(n)
    z = rng.uniform(0.0, 1.0, (4, n + 1))
    z[0, :3] = nodes[[0, n // 2, n]]
    z[1, 0] = nodes[1] + 1e-16
    z[2, 0] = 0.0
    z[3, 0] = nodes[0] * (1.0 + 2e-16)
    v = rng.standard_normal(z.shape)
    got = basis_product(grid, v, z)
    want = np.array([vr @ basis_matrix_z(grid, zr) for vr, zr in zip(v, z)])
    assert got.shape == (4, n + 1)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


def test_basis_product_snaps_nodes_and_broadcasts_weights():
    # z on the nodes gives the Kronecker table: the product returns v itself
    grid = build_grid(6, -0.5, -0.5, 0.5)
    v = np.arange(1.0, 8.0)
    assert np.array_equal(basis_product(grid, v, grid.z_points[None, :]), v[None, :])
    # a 1-d v is shared by every row
    z = np.array([[0.1, 0.4, 0.7], [0.2, 0.5, 0.9]])
    w = np.array([0.5, -1.0, 2.0])
    assert np.array_equal(basis_product(grid, w, z), basis_product(grid, np.tile(w, (2, 1)), z))
