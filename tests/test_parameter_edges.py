"""Parameter edges, exercised on purpose: mu near 1, eps near 0 or 1, small
lam, long horizons and large N.

These tests pin "finite or named", not "right": every solve either returns
finite values with a finite condition estimate, or raises one of the
solver's named errors, with no numpy warning first.  A finite answer can
still be wrong; 5.4 at T = 20 is finite and far from its reference.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muntzvide import (
    ERROR_CHANNELS,
    SOLVER_ERRORS,
    QuadratureError,
    SolverConfig,
    basis_matrix_z,
    build_grid,
    collocation,
    convergence_sweep,
    default_lambda,
    dilation_product,
    gauss_jacobi,
    interpolate,
    make_example,
    scale_to_unit,
    solve_once,
    to_fractional,
)


def finite_or_named(p, n, lam):
    """Solve; True for a finite solution, False for a named error."""
    try:
        _, sol, _ = solve_once(p, n, SolverConfig(lam=lam))
    except SOLVER_ERRORS:
        return False
    for values in (sol.u, sol.u_star, sol.v):
        assert np.isfinite(values).all()
    assert math.isfinite(sol.cond) and sol.cond >= 1.0
    return True


@settings(deadline=None, max_examples=40, derandomize=True)
@given(
    key=st.sampled_from(["5.4", "5.1"]),
    mu=st.floats(0.0, 0.99),
    eps=st.floats(1e-6, 1.0 - 1e-6),
    T=st.floats(0.05, 20.0),
    q=st.integers(1, 16),
    n=st.sampled_from([8, 16, 32, 64]),
)
def test_every_solve_is_finite_or_named(key, mu, eps, T, q, n):
    finite_or_named(make_example(key, mu=mu, eps=eps, T=T), n, 1.0 / q)


def test_smallest_lam_edges():
    # lam = 1/128 underflows theta_0 = z_0^128 to zero at N = 14
    with pytest.raises(QuadratureError, match="grid points collapse"):
        build_grid(14, -0.5, -0.5, 1.0 / 128.0)
    # lam = 1/64 keeps theta_0 positive even at N = 128, and the solve is finite
    assert build_grid(128, -0.5, -0.5, 1.0 / 64.0).points[0] > 0.0
    assert finite_or_named(make_example("5.4"), 128, 1.0 / 64.0)


def test_grid_collapse_fails_only_its_rows():
    # lam = 1/128 collapses the grid from N = 14 on; the rows before are
    # exactly those of a sweep that stops at N = 12
    p, config = make_example("5.1"), SolverConfig(lam=1.0 / 128.0)
    rows = convergence_sweep(p, config, range(4, 17, 2)).rows
    assert [r.failed for r in rows] == [False] * 5 + [True] * 2
    for r in rows[5:]:
        assert r.message.startswith(f"grid points collapse at N={r.n}, lam=0.0078125")
    short = convergence_sweep(p, config, range(4, 13, 2)).rows
    for got, want in zip(rows, short):
        assert np.array_equal([getattr(got, c) for c in ERROR_CHANNELS], [getattr(want, c) for c in ERROR_CHANNELS])


def test_extreme_beta_fails_by_name():
    # beta = 300 crowds the grid toward z = 1 and the basis overflows far
    # from it: the row fails by solve's finiteness check, with no numpy
    # warning before it (warnings are errors here)
    (row,) = convergence_sweep(make_example("5.1"), SolverConfig(beta=300.0), [14]).rows
    assert row.failed and "non-finite entries" in row.message


@pytest.mark.filterwarnings("error")
def test_basis_kernels_own_their_warning_policy():
    # the same grid, with assemble's kernel calls made directly: the two
    # tabulating kernels return their non-finite tables with no numpy warning
    # of any kind, while interpolate keeps the caller's error state
    p = make_example("5.1")
    scaled, lam = scale_to_unit(p), default_lambda(p.mu)
    grid = build_grid(14, -0.5, 300.0, lam)
    xi = to_fractional(gauss_jacobi(15, -scaled.mu, 1.0 / lam - 1.0), lam).z_nodes
    phi = basis_matrix_z(grid, xi)
    table = dilation_product(grid, collocation._table_weights(scaled, grid, grid.points))
    assert phi.shape == (15, 15) and not np.isfinite(phi).all()
    assert table.shape == (3, 15, 15) and not np.isfinite(table).all()
    with pytest.warns(RuntimeWarning, match="encountered in divide"):
        interpolate(grid, np.ones(15), xi ** (1.0 / lam))


def test_mu_near_one_passes_the_oracle_gate():
    # the singular integrals reach about 5e5 and the two oracles agree to
    # about 2e-15 of that: a tolerance of 1e-9 relative, not absolute
    rows = convergence_sweep(make_example("5.1", mu=0.999999), SolverConfig(), [4, 6, 8]).rows
    assert not any(r.failed for r in rows)
    assert all(np.isfinite([getattr(r, c) for c in ERROR_CHANNELS]).all() for r in rows)
