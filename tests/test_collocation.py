import math

import numpy as np
import pytest

from muntzvide import (
    SingularSystemError,
    SolverConfig,
    SystemMatrices,
    VideProblem,
    assemble,
    basis_matrix_z,
    beta,
    build_grid,
    convergence_sweep,
    exact_phi_pair,
    gauss_jacobi,
    interpolate,
    make_example,
    scale_to_unit,
    singular_integral,
    singular_ratio,
    solve,
    to_fractional,
)
from muntzvide.collocation import _BLOCK_ENTRIES


def zero_problem(mu=0.5, eps=0.5, y0=0.0, f1=None):
    return VideProblem(
        a1=lambda t: 0.0,
        b1=lambda t: 0.0,
        f1=f1 or (lambda t: 0.0),
        k1=lambda t, s: 0.0,
        k2=lambda t, s: 0.0,
        mu=mu,
        eps=eps,
        T=1.0,
        y0=y0,
    )


def rules_for(n, mu, lam, npts=None):
    npts = npts or n + 1
    qmu = to_fractional(gauss_jacobi(npts, -mu, 1.0 / lam - 1.0), lam)
    qhat = to_fractional(gauss_jacobi(npts, 0.0, 1.0 / lam - 1.0), lam)
    return qmu, qhat


def assembled(problem, n, lam, alpha=-0.5, beta_=-0.5, npts=None):
    grid = build_grid(n, alpha, beta_, lam)
    qmu, qhat = rules_for(n, problem.mu, lam, npts)
    return grid, assemble(scale_to_unit(problem), grid, qmu, qhat)


# --- transformed kernel ---------------------------------------------------------


def test_kernel_tilde_lambda_one_cancels_ratio():
    # with lam = 1 the singular ratio is 1 and the (N+1)-point rule is exact for
    # the linear kernel 2 + s: sum_j C_ij = int_0^theta (theta-eta)^(-mu) (2+eta)
    mu = 0.5
    p = VideProblem(
        a1=lambda t: 0.0, b1=lambda t: 0.0, f1=lambda t: 0.0,
        k1=lambda t, s: 2.0 + s, k2=lambda t, s: 0.0,
        mu=mu, eps=0.5, T=1.0, y0=0.0,
    )
    grid, sysm = assembled(p, 4, 1.0)
    th = grid.points
    want = 2.0 * th ** (1.0 - mu) / (1.0 - mu) + beta(2.0, 1.0 - mu) * th ** (2.0 - mu)
    assert sysm.C.sum(axis=1) == pytest.approx(want, rel=1e-13)


# --- assembly -------------------------------------------------------------------


@pytest.mark.parametrize("lam", [1.0, 0.5, 1.0 / 3.0])
def test_zero_problem_matrices(lam):
    p = zero_problem()
    grid, sysm = assembled(p, 8, lam)
    assert np.all(sysm.A == 0) and np.all(sysm.B == 0)
    assert np.allclose(sysm.C, 0.0, atol=0) and np.allclose(sysm.D, 0.0, atol=0)
    # row sums of the integration matrices are the collocation points
    assert sysm.E.sum(axis=1) == pytest.approx(grid.points, rel=1e-12)
    assert sysm.H.sum(axis=1) == pytest.approx(p.eps * grid.points, rel=1e-12)


def test_integration_rows_exact_on_trial_space():
    # the E rows integrate any member of the trial space exactly: compare
    # against term-by-term antiderivatives of the Muntz monomials
    lam, n = 0.5, 6
    grid, sysm = assembled(zero_problem(), n, lam)
    rng = np.random.default_rng(23)
    for _ in range(20):
        coeffs = rng.uniform(-1.0, 1.0, n + 1)
        nodal = sum(c * grid.points ** (k * lam) for k, c in enumerate(coeffs))
        for i, ti in enumerate(grid.points):
            want = sum(
                c * ti ** (k * lam + 1.0) / (k * lam + 1.0)
                for k, c in enumerate(coeffs)
            )
            got = float(sysm.E[i] @ nodal)
            assert got == pytest.approx(want, abs=1e-12)


def test_delayed_integration_rows_exact_on_trial_space():
    lam, n, eps = 1.0 / 3.0, 5, 0.6
    grid, sysm = assembled(zero_problem(eps=eps), n, lam)
    rng = np.random.default_rng(29)
    for _ in range(5):
        coeffs = rng.uniform(-1.0, 1.0, n + 1)
        nodal = sum(c * grid.points ** (k * lam) for k, c in enumerate(coeffs))
        for i, ti in enumerate(grid.points):
            # eps * int_0^theta_i p(eps eta) d eta = (eps theta_i)^(k lam + 1)/(k lam + 1)
            want = sum(
                c * (eps * ti) ** (k * lam + 1.0) / (k * lam + 1.0)
                for k, c in enumerate(coeffs)
            )
            got = float(sysm.H[i] @ nodal)
            assert got == pytest.approx(want, abs=1e-12)


def test_constant_kernel_row_sums_closed_form():
    # K1 = 1, T = 1: sum_j C_ij -> int_0^theta (theta-eta)^(-mu) d eta
    mu, lam = 0.5, 0.5
    p = VideProblem(
        a1=lambda t: 0.0, b1=lambda t: 0.0, f1=lambda t: 0.0,
        k1=lambda t, s: 1.0, k2=lambda t, s: 0.0,
        mu=mu, eps=0.5, T=1.0, y0=0.0,
    )
    grid, sysm = assembled(p, 10, lam)
    want = grid.points ** (1.0 - mu) / (1.0 - mu)
    assert sysm.C.sum(axis=1) == pytest.approx(want, rel=1e-10)


def test_smooth_kernel_row_sums_against_panel_oracle():
    # sum_j C_ij approximates int_0^theta_i (theta_i - eta)^(-mu) Kbar1 d eta
    p = make_example("5.2")
    lam = 1.0 / 3.0
    grid, sysm = assembled(p, 10, lam)
    sp = scale_to_unit(p)
    for i, ti in enumerate(grid.points):
        want = singular_integral(ti, lambda eta: sp.kbar1(ti, eta), p.mu)
        assert float(sysm.C[i].sum()) == pytest.approx(want, rel=1e-8)


def test_brute_force_kernel_entries_small_n():
    # with lam = 1 and a constant kernel the (N+1)-point rule integrates the
    # C-entry integrand exactly, so entries must match the panel oracle
    p = VideProblem(
        a1=lambda t: 0.0, b1=lambda t: 0.0, f1=lambda t: 0.0,
        k1=lambda t, s: 2.0, k2=lambda t, s: 0.0,
        mu=0.5, eps=0.5, T=1.0, y0=0.0,
    )
    n, lam = 3, 1.0
    grid, sysm = assembled(p, n, lam)
    sp = scale_to_unit(p)

    for i, ti in enumerate(grid.points):
        for j in range(n + 1):
            unit = np.eye(n + 1)[j]
            want = singular_integral(
                ti, lambda eta: sp.kbar1(ti, eta) * interpolate(grid, unit, eta), p.mu
            )
            assert sysm.C[i, j] == pytest.approx(want, rel=1e-10, abs=1e-12)


def rowwise_assembly(scaled, grid, qmu, qhat):
    """C, D, E, H one row at a time from the tabulated, normalised basis."""
    lam, mu, eps = grid.lam, scaled.mu, scaled.eps
    xi, om, xih, omh = qmu.z_nodes, qmu.weights, qhat.z_nodes, qhat.weights
    ratio = singular_ratio(xi, lam, mu)
    rows = []
    for ti, zi in zip(grid.points, grid.z_points):
        eta = ti * qmu.nodes
        fac = (ti ** (1.0 - mu) / lam) * ratio * om
        rows.append((
            (fac * scaled.kbar1(ti, eta)) @ basis_matrix_z(grid, zi * xi),
            (fac * scaled.kbar2(ti, eps * eta)) @ basis_matrix_z(grid, eps**lam * zi * xi),
            (ti / lam) * (omh @ basis_matrix_z(grid, zi * xih)),
            (eps * ti / lam) * (omh @ basis_matrix_z(grid, eps**lam * zi * xih)),
        ))
    return [np.array(m) for m in zip(*rows)]


def kernel_problem(mu, constant=False):
    if constant:  # as the CLI kernel tables write them
        k1, k2 = (lambda t, s: 1.0), (lambda t, s: -1.0)
    else:
        k1, k2 = (lambda t, s: np.cos(t - s) + s), (lambda t, s: np.exp(-t * s))
    return VideProblem(
        a1=np.cos, b1=lambda t: 0.5 + 0.0 * t, f1=np.sin, k1=k1, k2=k2,
        mu=mu, eps=0.6, T=1.5, y0=1.0,
    )


ASSEMBLY_CASES = [
    (n, lam, mu, False) for n in (8, 40) for lam in (1.0, 0.5, 1.0 / 3.0) for mu in (0.0, 0.5)
] + [(40, 0.5, 0.5, True)]


@pytest.mark.parametrize("n, lam, mu, constant", ASSEMBLY_CASES)
def test_blocked_assembly_matches_rowwise_basis_tables(n, lam, mu, constant):
    p = kernel_problem(mu, constant)
    grid, sysm = assembled(p, n, lam)
    want = rowwise_assembly(scale_to_unit(p), grid, *rules_for(n, mu, lam))
    for got, ref in zip((sysm.C, sysm.D, sysm.E, sysm.H), want):
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())


def test_assembly_calls_each_kernel_once_per_block():
    n = 40  # 41 rows of 41 x 41 Cauchy entries: more than one block
    step = max(1, _BLOCK_ENTRIES // (n + 1) ** 2)
    blocks = math.ceil((n + 1) / step)
    assert blocks >= 2
    calls = []
    p = VideProblem(
        a1=lambda t: 0.0, b1=lambda t: 0.0, f1=lambda t: 0.0,
        k1=lambda t, s: calls.append(np.shape(s)) or 1.0, k2=lambda t, s: 0.0,
        mu=0.5, eps=0.5, T=1.0, y0=0.0,
    )
    assembled(p, n, 0.5)
    assert len(calls) == blocks
    assert sum(rows for rows, _ in calls) == n + 1


def test_assemble_validates_rule_parameters():
    p = zero_problem()
    grid = build_grid(4, -0.5, -0.5, 0.5)
    qmu, qhat = rules_for(4, p.mu, 0.5)
    bad_mu = to_fractional(gauss_jacobi(5, -0.25, 1.0), 0.5)  # wrong alpha
    with pytest.raises(ValueError):
        assemble(scale_to_unit(p), grid, bad_mu, qhat)
    bad_lam = to_fractional(gauss_jacobi(5, -0.5, 1.0), 1.0)  # wrong lambda
    with pytest.raises(ValueError):
        assemble(scale_to_unit(p), grid, bad_lam, qhat)


def test_assemble_requires_forcing():
    p = make_example("5.1")
    skeleton = VideProblem(
        a1=p.a1, b1=p.b1, f1=None, k1=p.k1, k2=p.k2,
        mu=p.mu, eps=p.eps, T=p.T, y0=p.y0,
    )
    grid = build_grid(4, -0.5, -0.5, 0.5)
    qmu, qhat = rules_for(4, p.mu, 0.5)
    with pytest.raises(ValueError):
        assemble(scale_to_unit(skeleton), grid, qmu, qhat)


# --- solve ----------------------------------------------------------------------


def test_zero_data_gives_zero_solution():
    grid, sysm = assembled(zero_problem(), 6, 0.5)
    sol = solve(sysm)
    assert np.max(np.abs(sol.u_star)) <= 1e-14
    assert np.max(np.abs(sol.u)) <= 1e-14
    assert np.max(np.abs(sol.v)) <= 1e-14


def test_constant_solution():
    c = 2.5
    grid, sysm = assembled(zero_problem(y0=c), 6, 0.5)
    sol = solve(sysm)
    assert np.max(np.abs(sol.u_star)) <= 1e-13
    assert sol.u == pytest.approx(np.full(7, c), abs=1e-13)
    assert sol.v == pytest.approx(np.full(7, c), abs=1e-13)


def test_post_solve_consistency_residuals():
    p = make_example("5.1")
    grid, sysm = assembled(p, 12, 0.5)
    sol = solve(sysm)
    scale = 1.0 + float(np.max(np.abs(sol.u_star)))
    r1 = sol.u_star - (
        (sysm.A + sysm.C + sysm.D) @ sol.u + sysm.B @ sol.v + sysm.fvec
    )
    r2 = sol.u - (sysm.u0 + sysm.E @ sol.u_star)
    r3 = sol.v - (sysm.u0 + sysm.H @ sol.u_star)
    assert float(np.max(np.abs(r1))) <= 1e-11 * scale
    assert float(np.max(np.abs(r2))) <= 1e-11 * scale
    assert float(np.max(np.abs(r3))) <= 1e-11 * scale


def test_nodal_accuracy_example_51():
    p = make_example("5.1")
    grid, sysm = assembled(p, 12, 0.5)
    sol = solve(sysm)
    phi, phip = exact_phi_pair(p)
    err = max(abs(sol.u[i] - phi(t)) for i, t in enumerate(grid.points))
    err_star = max(abs(sol.u_star[i] - phip(t)) for i, t in enumerate(grid.points))
    assert err <= 1e-11
    assert err_star <= 1e-11


# --- evaluation -----------------------------------------------------------------


def test_eval_solution_at_nodes_and_constants():
    c = 1.75
    grid, sysm = assembled(zero_problem(y0=c), 5, 0.5)
    sol = solve(sysm)
    assert np.array_equal(interpolate(grid, sol.u, grid.points), sol.u)
    assert np.array_equal(interpolate(grid, sol.u_star, grid.points), sol.u_star)
    thetas = np.array([0.0, 0.33, 1.0])
    assert interpolate(grid, sol.u, thetas) == pytest.approx(np.full(3, c), abs=1e-13)
    assert interpolate(grid, sol.u_star, thetas) == pytest.approx(np.zeros(3), abs=1e-13)


def test_eval_solution_near_origin_approximates_initial_value():
    p = make_example("5.1")
    grid, sysm = assembled(p, 12, 0.5)
    sol = solve(sysm)
    phi0 = interpolate(grid, sol.u, 0.0)
    # zero is not a collocation point, so this holds only to scheme accuracy
    assert phi0 == pytest.approx(p.y0, abs=1e-9)


# --- condition gate -------------------------------------------------------------


def system_with_matrix(m):
    """System whose reduced matrix I - (A+C+D)E - BH is exactly m."""
    eye, zero = np.eye(len(m)), np.zeros_like(m)
    return SystemMatrices(
        A=eye, B=zero, C=zero, D=zero, E=eye - m, H=zero,
        fvec=np.ones(len(m)), u0=np.zeros(len(m)), grid=None,
    )


@pytest.mark.filterwarnings("error")
def test_exactly_singular_system_raises():
    with pytest.raises(SingularSystemError, match="is singular") as exc:
        solve(system_with_matrix(np.array([[1.0, 1.0], [1.0, 1.0]])))
    assert exc.value.cond == math.inf


@pytest.mark.filterwarnings("error")
def test_ill_conditioned_system_raises():
    # [[1, 1], [1, 1 + d]] with d = 2^-48 has condition number about 4/d = 1.1e15
    d = 2.0**-48
    with pytest.raises(SingularSystemError, match="ill-conditioned") as exc:
        solve(system_with_matrix(np.array([[1.0, 1.0], [1.0, 1.0 + d]])))
    assert 1e14 < exc.value.cond < 1e16


def test_non_finite_system_is_a_failed_sweep_row():
    # a1 is NaN on half the interval, so the reduced matrix has NaN rows
    p = VideProblem(
        a1=lambda t: np.where(t < 0.5, np.nan, 1.0), b1=lambda t: 0.0,
        f1=lambda t: 1.0, k1=lambda t, s: 0.0, k2=lambda t, s: 0.0,
        mu=0.5, eps=0.5, T=1.0, y0=0.0, exact=lambda t: t, exact_deriv=lambda t: 1.0,
    )
    table = convergence_sweep(p, SolverConfig(), [4, 6])
    assert [row.failed for row in table.rows] == [True, True]
    assert all("non-finite" in row.message for row in table.rows)
    with pytest.raises(SingularSystemError, match="non-finite"):
        solve(assembled(p, 4, 0.5)[1])
