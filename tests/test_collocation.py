import dataclasses
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
    manufactured_forcing,
    scale_to_unit,
    singular_integral,
    singular_ratio,
    solve,
    to_fractional,
)
from muntzvide.quadrature import _kernel_rule


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


def rules_for(n, mu, lam):
    """The two (N+1)-point rules ``assemble`` builds, for the row-wise references."""
    qmu = to_fractional(gauss_jacobi(n + 1, -mu, 1.0 / lam - 1.0), lam)
    qhat = to_fractional(gauss_jacobi(n + 1, 0.0, 1.0 / lam - 1.0), lam)
    return qmu, qhat


@pytest.mark.parametrize("lam", [1.0, 1.0 / 2.0, 1.0 / 3.0, 1.0 / 4.0])
@pytest.mark.parametrize("kernel_first", [True, False])
def test_the_hat_rule_is_the_kernel_rule_at_mu_zero(lam, kernel_first):
    # assemble takes quad_hat from _kernel_rule(N+1, 0, lam), whose parent is
    # gauss_jacobi at alpha = -0.0: each rule is built from cold caches
    def build(kernel):
        gauss_jacobi.cache_clear()
        _kernel_rule.cache_clear()
        if kernel:
            return _kernel_rule(n + 1, 0.0, lam)[0]
        return to_fractional(gauss_jacobi(n + 1, 0.0, 1.0 / lam - 1.0), lam)

    for n in (4, 16, 64, 192):
        first, second = build(kernel_first), build(not kernel_first)
        for name in ("nodes", "weights", "z_nodes"):
            assert getattr(first, name).tobytes() == getattr(second, name).tobytes(), (n, name)


def assembled(problem, n, lam, alpha=-0.5, beta_=-0.5):
    grid = build_grid(n, alpha, beta_, lam)
    return grid, assemble(scale_to_unit(problem), grid)


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
    assert sysm.a.shape == sysm.b.shape == (9,)
    assert np.all(sysm.a == 0) and np.all(sysm.b == 0)
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


def rowwise_integration(grid, qhat, eps):
    """E and H one row at a time from the basis tabulated at quad_hat's own nodes."""
    lam, xih, omh = grid.lam, qhat.z_nodes, qhat.weights
    rows = [
        (
            (ti / lam) * (omh @ basis_matrix_z(grid, zi * xih)),
            (eps * ti / lam) * (omh @ basis_matrix_z(grid, eps**lam * zi * xih)),
        )
        for ti, zi in zip(grid.points, grid.z_points)
    ]
    return [np.array(m) for m in zip(*rows)]


def rowwise_assembly(scaled, grid, qmu, qhat):
    """C, D, E, H one row at a time from the tabulated, normalised basis."""
    lam, mu, eps = grid.lam, scaled.mu, scaled.eps
    xi, om = qmu.z_nodes, qmu.weights
    ratio = singular_ratio(xi, lam, mu)
    rows = []
    for ti, zi in zip(grid.points, grid.z_points):
        eta = ti * qmu.nodes
        fac = (ti ** (1.0 - mu) / lam) * ratio * om
        rows.append((
            (fac * scaled.kbar1(ti, eta)) @ basis_matrix_z(grid, zi * xi),
            (fac * scaled.kbar2(ti, eta)) @ basis_matrix_z(grid, eps**lam * zi * xi),
        ))
    return [np.array(m) for m in zip(*rows)] + rowwise_integration(grid, qhat, eps)


def kernel_problem(mu, constant=False, eps=0.6):
    if constant:  # constant returns, which the solver broadcasts
        k1, k2 = (lambda t, s: 1.0), (lambda t, s: -1.0)
    else:
        k1, k2 = (lambda t, s: np.cos(t - s) + s), (lambda t, s: np.exp(-t * s))
    return VideProblem(
        a1=np.cos, b1=lambda t: 0.5 + 0.0 * t, f1=np.sin, k1=k1, k2=k2,
        mu=mu, eps=eps, T=1.5, y0=1.0,
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


@pytest.mark.parametrize("eps", [1.0, 1e-3, 0.999])
@pytest.mark.parametrize("n, lam, mu", [(8, 0.5, 0.0), (40, 0.5, 0.5), (40, 1.0 / 3.0, 0.0)])
def test_delayed_rows_match_rowwise_basis_tables_at_eps_edges(n, lam, mu, eps):
    # D and H come from the undelayed rows through the delay interpolation
    # matrix; eps = 1 lies outside VideProblem's range, so it is set on the
    # scaled problem, the only place assembly reads it
    scaled = dataclasses.replace(scale_to_unit(kernel_problem(mu, eps=min(eps, 0.999))), eps=eps)
    grid = build_grid(n, -0.5, -0.5, lam)
    sysm = assemble(scaled, grid)
    _, d_ref, _, h_ref = rowwise_assembly(scaled, grid, *rules_for(n, mu, lam))
    for got, ref in ((sysm.D, d_ref), (sysm.H, h_ref)):
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())
    if eps == 1.0:
        # at eps = 1 the delayed points are the nodes: L is exactly the identity
        L = basis_matrix_z(grid, eps**lam * grid.z_points)
        assert np.array_equal(L, np.eye(n + 1))
        assert np.array_equal(sysm.H, sysm.E)


def test_assembly_builds_half_the_dilation_table_and_the_delay_matrix(monkeypatch):
    # C, D~ and E share the dilation table F_j(z_i z_l), built in square tiles
    # of near-equal blocks of the rows: a tile off the diagonal serves both
    # (i, l) and (l, i), a diagonal tile is built whole.  Phi and Phi^ (the
    # basis at the quad_mu and quad_hat nodes) and L take one (N+1) x (N+1)
    # array each; D and H need no Cauchy array of their own
    import muntzvide.muntz_basis as muntz_basis

    entries = []
    cauchy = muntz_basis._cauchy

    def counting(rhs, z, out):
        entries.append(out.size)
        return cauchy(rhs, z, out)

    monkeypatch.setattr(muntz_basis, "_cauchy", counting)
    totals = {}
    for n in (8, 40, 128, 192):
        n1 = n + 1
        count = -(-n1 // math.isqrt(muntz_basis._BLOCK_ENTRIES // n1))
        blocks = [n1 // count + (k < n1 % count) for k in range(count)]
        table = n1 * (n1**2 + sum(size**2 for size in blocks)) // 2
        entries.clear()
        assembled(kernel_problem(0.5), n, 0.5)
        assert sum(entries) == table + 3 * n1**2
        totals[n] = sum(entries)
    # at N = 128 the 129 rows fall in 5 blocks (tiles up to 31 wide): 26, 26,
    # 26, 26 and 25 rows; at N = 192 in 8 blocks of 24 and 25 rows
    assert totals[128] == 1_337_988 and totals[192] == 4_155_676


@pytest.mark.parametrize("mu", [0.0, 0.5, 0.95])
@pytest.mark.parametrize("lam", [1.0, 0.5, 1.0 / 20.0])
@pytest.mark.parametrize("n", [64, 192])
def test_integration_rows_from_the_dilation_table_match_quad_hat_rows(n, lam, mu):
    # E's channel carries quad_hat's weights moved onto the grid nodes (w^ Phi^)
    # through the dilation table: E, and H = eps E L, are the rows quad_hat
    # gives at its own nodes, one row at a time
    grid, sysm = assembled(zero_problem(mu=mu, eps=0.6), n, lam)
    want = rowwise_integration(grid, rules_for(n, mu, lam)[1], 0.6)
    for got, ref in zip((sysm.E, sysm.H), want):
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("mu", [0.0, 0.5, 0.95, 0.99])
@pytest.mark.parametrize("lam", [1.0, 0.5, 1.0 / 3.0, 1.0 / 20.0])
@pytest.mark.parametrize("n", [8, 64, 192])
def test_interpolatory_weights_reproduce_quad_hat_moments(n, lam, mu):
    # assemble moves each rule's weights onto the grid nodes as w Phi, the
    # interpolatory weights of the rule there: they integrate z^k, k <= N,
    # as the rule does (quad_hat for E, quad_mu for C and D~)
    grid = build_grid(n, -0.5, -0.5, lam)
    k = np.arange(n + 1)[:, None]
    for rule in rules_for(n, mu, lam)[::-1]:
        weights = rule.weights @ basis_matrix_z(grid, rule.z_nodes)
        want = (rule.z_nodes**k) @ rule.weights
        np.testing.assert_allclose((grid.z_points**k) @ weights, want, rtol=1e-14, atol=0)


def test_assembly_calls_each_kernel_once():
    n = 40
    calls = {"k1": [], "k2": []}
    p = VideProblem(
        a1=lambda t: 0.0, b1=lambda t: 0.0, f1=lambda t: 0.0,
        k1=lambda t, s: calls["k1"].append(np.shape(s)) or 1.0,
        k2=lambda t, s: calls["k2"].append(np.shape(s)) or 0.0,
        mu=0.5, eps=0.5, T=1.0, y0=0.0,
    )
    assembled(p, n, 0.5)
    assert calls == {"k1": [(n + 1, n + 1)], "k2": [(n + 1, n + 1)]}


def test_assembly_scratch_memory_at_large_n():
    # one assemble of 5.4 holds nothing of size N^3, and the quadrature-side
    # arrays die before the table and L is built after it, so its peak is the
    # table weights' construction: 18.1 MiB at N = 512, where each (N+1)^2
    # array is 2 MiB
    import tracemalloc

    p = scale_to_unit(make_example("5.4"))
    for n, mib in ((192, 3.25), (512, 20)):
        grid = build_grid(n, -0.5, -0.5, 0.5)
        assemble(p, grid)
        tracemalloc.start()
        try:
            assemble(p, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= mib * 2**20, (n, peak)


def test_assemble_requires_forcing():
    # a problem without a callable forcing is refused when it is built, so
    # assemble never meets one
    p = make_example("5.1")
    for f1 in (None, 0.0):
        with pytest.raises(ValueError, match=f"^f1 must be callable, got {f1}$"):
            VideProblem(a1=p.a1, b1=p.b1, f1=f1, k1=p.k1, k2=p.k2, mu=p.mu, eps=p.eps, T=p.T, y0=p.y0)


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
        (np.diag(sysm.a) + sysm.C + sysm.D) @ sol.u + sysm.b * sol.v + sysm.fvec
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


def all_terms_problem():
    """A problem with every term live and f1 manufactured from its exact y.

    It has y0 != 0, a1 and b1 of t, kernels of both t and s and T != 1; its
    y = y0 + t^(3/2) e^-t lies on lam = 1/2's lattice.
    """
    y0 = 1.5
    skeleton = VideProblem(
        a1=lambda t: np.cos(t) - 1.0,
        b1=lambda t: np.exp(-t) + 0.5,
        f1=lambda t: 0.0,
        k1=lambda t, s: -(1.0 + np.sin(t * s)) / 3.0,
        k2=lambda t, s: np.cos(t + s) / 4.0,
        mu=0.5,
        eps=0.5,
        T=2.0,
        y0=y0,
    )

    def y(t):
        return y0 + t**1.5 * np.exp(-t)

    def yp(t):
        return np.exp(-t) * (1.5 * np.sqrt(t) - t**1.5)

    f1 = manufactured_forcing(y, yp, skeleton)
    return dataclasses.replace(skeleton, f1=f1, exact=y, exact_deriv=yp, label="all-terms")


def test_all_terms_problem_converges_to_its_exact_solution():
    # the registry problems leave terms unchecked against a truth outside the
    # solver (5.1-5.3 have y0 = 0, constant a1 and b1 and kernels of s alone;
    # 5.4 has no closed form): dropping b u0 from solve's right-hand side, or
    # a missing T or eps in scale_to_unit's b_t, kbar1 or kbar2, leaves a sup
    # error of 0.18-1.6 here at N = 16
    rows = convergence_sweep(all_terms_problem(), SolverConfig(), range(4, 17, 2)).rows
    assert not any(r.failed for r in rows)
    linf_e = [r.linf_e for r in rows]
    assert all(b < a for a, b in zip(linf_e, linf_e[1:]))
    assert rows[-1].linf_e <= 1e-10 and rows[-1].linf_estar <= 1e-10


# Equations off the registry are written in Python as a VideProblem.  These are
# the six coefficients and three constant kernels that a named-term config
# menu once offered, each a one-line callable; constant returns must broadcast
# through the forcing, the assembly and the error norms.
NAMED_COEFFS = {
    "zero": lambda t: 0.0,
    "one": lambda t: 1.0,
    "neg_one": lambda t: -1.0,
    "cos": np.cos,
    "exp_neg": lambda t: np.exp(-t),
    "sin2": lambda t: np.sin(2.0 * t),
}
NAMED_KERNELS = {
    "zero": lambda t, s: 0.0,
    "one": lambda t, s: 1.0,
    "neg_one": lambda t, s: -1.0,
}


def named_terms_problem(a1, b1, kernel):
    """mu = eps = 1/2 on [0, 1] with f1 manufactured from y = 2 + t^(3/2) e^-t."""
    skeleton = VideProblem(
        a1=a1, b1=b1, f1=lambda t: 0.0, k1=kernel, k2=kernel, mu=0.5, eps=0.5, T=1.0, y0=2.0
    )

    def y(t):
        return 2.0 + t**1.5 * np.exp(-t)

    def yp(t):
        return np.exp(-t) * (1.5 * np.sqrt(t) - t**1.5)

    f1 = manufactured_forcing(y, yp, skeleton)
    return dataclasses.replace(skeleton, f1=f1, exact=y, exact_deriv=yp)


def assert_converges(p):
    rows = convergence_sweep(p, SolverConfig(), (8, 16)).rows
    assert not any(r.failed for r in rows)
    assert rows[1].linf_e < rows[0].linf_e
    assert rows[1].linf_e <= 1e-10 and rows[1].linf_estar <= 1e-10


@pytest.mark.parametrize("name", sorted(NAMED_COEFFS))
def test_named_coefficient_problem_converges(name):
    coeff = NAMED_COEFFS[name]
    assert_converges(named_terms_problem(coeff, coeff, NAMED_KERNELS["zero"]))


@pytest.mark.parametrize("name", sorted(NAMED_KERNELS))
def test_named_kernel_problem_converges(name):
    assert_converges(named_terms_problem(NAMED_COEFFS["neg_one"], NAMED_COEFFS["one"], NAMED_KERNELS[name]))


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
    n1 = len(m)
    eye, zero = np.eye(n1), np.zeros_like(m)
    return SystemMatrices(
        a=np.ones(n1), b=np.zeros(n1), C=zero, D=zero, E=eye - m, H=zero,
        fvec=np.ones(n1), u0=np.zeros(n1), grid=None,
    )


def test_solution_keeps_the_condition_estimate():
    grid, sysm = assembled(make_example("5.1"), 16, 0.5)
    sol = solve(sysm)
    G = np.diag(sysm.a) + sysm.C + sysm.D
    M = np.eye(17) - G @ sysm.E - sysm.b[:, None] * sysm.H
    exact = np.linalg.cond(M, 1)
    assert math.isfinite(sol.cond) and sol.cond >= 1.0
    assert exact / 10.0 <= sol.cond <= 10.0 * exact
    # a hand-built solution has no estimate
    assert math.isnan(type(sol)(sol.u_star, sol.u, sol.v, grid).cond)


def test_solve_factors_the_reduced_matrix_as_lu_factor_does(monkeypatch):
    # solve's LU factors of M are bitwise those lu_factor gives for the C-ordered M
    import muntzvide.collocation as collocation
    from scipy.linalg import lu_factor

    factors = []
    lapack = collocation.get_lapack_funcs

    def recording(names, arrays):
        getrf, *rest = lapack(names, arrays)

        def factor(a, **kwargs):
            lu, piv, info = getrf(a, **kwargs)
            factors.append((lu, piv))
            return lu, piv, info

        return (factor, *rest)

    monkeypatch.setattr(collocation, "get_lapack_funcs", recording)
    grid, sysm = assembled(make_example("5.1"), 16, 0.5)
    solve(sysm)
    G = np.diag(sysm.a) + sysm.C + sysm.D
    lu, piv = lu_factor(np.eye(17) - G @ sysm.E - sysm.b[:, None] * sysm.H)
    [(got_lu, got_piv)] = factors
    assert np.array_equal(got_lu, lu) and np.array_equal(got_piv, piv)


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


def test_non_finite_forcing_is_a_failed_sweep_row():
    # the matrix is finite but f1 is NaN on half the interval: the solve must
    # not return NaN nodal values as a successful row
    p = VideProblem(
        a1=lambda t: 0.0, b1=lambda t: 0.0,
        f1=lambda t: np.where(t < 0.5, np.nan, 1.0), k1=lambda t, s: 0.0, k2=lambda t, s: 0.0,
        mu=0.5, eps=0.5, T=1.0, y0=0.0, exact=lambda t: t, exact_deriv=lambda t: 1.0,
    )
    table = convergence_sweep(p, SolverConfig(), [4, 6])
    assert [row.failed for row in table.rows] == [True, True]
    assert all("right-hand side has non-finite" in row.message for row in table.rows)
    with pytest.raises(SingularSystemError, match="right-hand side"):
        solve(assembled(p, 4, 0.5)[1])
