"""Parameter edges, exercised on purpose: mu near 1, eps near 0 or 1, small
lam, long horizons and large N.

These tests pin "finite or named", not "right": every solve either returns
finite values with a finite condition estimate, or raises a ``SolverError``
(a ``QuadratureError``, ``SingularSystemError`` or ``OracleDisagreement``, or
the base class itself for a horizon too long to rescale), with no numpy
warning first unless the problem's own callables overflow.  A finite answer can
still be wrong; 5.4 at T = 20 is finite and far from its reference.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muntzvide import (
    ERROR_CHANNELS,
    EXAMPLE_KEYS,
    QuadratureError,
    SingularSystemError,
    SolverConfig,
    SolverError,
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


def finite_or_named(p, n, lam, alpha=SolverConfig.alpha):
    """Solve; True for a finite solution, False for a named error."""
    try:
        _, sol, _ = solve_once(p, n, SolverConfig(lam=lam, alpha=alpha))
    except SolverError:
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


# warnings are ignored here: the problem's callables keep the caller's warning
# settings and overflow by design at such horizons (the kernels' exp(s) long
# before T = 1e300), and assemble's products of those values warn after them;
# that solve itself does not warn is pinned by test_huge_initial_value_fails_by_name
@pytest.mark.filterwarnings("ignore")
@settings(deadline=None, max_examples=200, derandomize=True)
@given(
    key=st.sampled_from(EXAMPLE_KEYS),
    mu=st.floats(0.0, 0.999999),
    eps=st.floats(1e-300, 1.0 - 1e-16),
    log_t=st.floats(-300.0, 308.0),
    y0=st.floats(allow_nan=False, allow_infinity=False),
    q=st.integers(1, 1000),
    alpha=st.floats(-0.999, 1e3),
    n=st.sampled_from([1, 2, 4, 8, 16]),
)
def test_every_valid_solve_is_finite_or_a_solver_error(key, mu, eps, log_t, y0, q, alpha, n):
    p = make_example(key, mu=mu, eps=eps, T=10.0**log_t, y0=y0 if key == "5.4" else None)
    finite_or_named(p, n, 1.0 / q, alpha)


# a numpy scalar T, as np.logspace gives, overflows by name too
@pytest.mark.parametrize("T", [1e250, np.float64(1e250)], ids=["float", "float64"])
def test_long_horizon_fails_its_rows(T):
    # T^(2 - mu) overflows a float from T = DBL_MAX^(2/3) ~ 3.19e205 at mu = 1/2
    # (T = 3e205 still rescales): the rescaling cannot be formed, so each row
    # fails by name
    rows = convergence_sweep(make_example("5.1", T=T), SolverConfig(), [4, 8]).rows
    assert [r.failed for r in rows] == [True, True]
    for r in rows:
        assert r.message == "T=1e+250 is too long to rescale: T^(2-mu) overflows a float at mu=0.5"


@pytest.mark.parametrize(
    "y0, T, message",
    [
        # a finite system whose solution overflows
        (5e306, 5.0, "solution has non-finite entries"),
        # G @ u0 overflows inside solve, which names it without a warning first
        (1.7e308, 0.5, "right-hand side has non-finite entries"),
    ],
)
def test_huge_initial_value_fails_by_name(y0, T, message):
    with pytest.raises(SingularSystemError, match=message):
        solve_once(make_example("5.4", y0=y0, T=T), 8, SolverConfig())


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


@pytest.mark.parametrize("key", ["5.1", "5.2", "5.3"])
def test_mu_near_one_passes_the_oracle_gate(key):
    # the singular integrals reach 3e5-2e6 and the mapped rule matches the
    # closed forms to about 2e-15 of that: a tolerance of 1e-9 relative, not absolute
    rows = convergence_sweep(make_example(key, mu=0.999999), SolverConfig(), [4, 6, 8]).rows
    assert not any(r.failed for r in rows)
    assert all(np.isfinite([getattr(r, c) for c in ERROR_CHANNELS]).all() for r in rows)
