import dataclasses
import math

import numpy as np
import pytest

from muntzvide import (
    ConvergenceTable,
    InsufficientDataError,
    SolverConfig,
    SweepRow,
    VideProblem,
    beta,
    convergence_sweep,
    exact_phi_pair,
    fit_rates,
    interpolate,
    linf_error,
    make_example,
    reference_solution,
    solve_once,
    weighted_l2_error,
)
from muntzvide.analysis import error_row


def constant_problem(c=2.0):
    return VideProblem(
        a1=lambda t: 0.0,
        b1=lambda t: 0.0,
        f1=lambda t: 0.0,
        k1=lambda t, s: 0.0,
        k2=lambda t, s: 0.0,
        mu=0.5,
        eps=0.5,
        T=1.0,
        y0=c,
        exact=lambda t: c,
        exact_deriv=lambda t: 0.0,
    )


def synthetic_table(errs_by_n):
    rows = [
        SweepRow(n=n, l2_e=e, linf_e=e, l2_estar=e, linf_estar=e, runtime_ms=1.0)
        for n, e in errs_by_n
    ]
    return ConvergenceTable(rows=rows)


# --- norms ----------------------------------------------------------------------


def test_weighted_l2_zero_and_unit():
    assert weighted_l2_error(lambda t: 0.0, -0.5, -0.5, 64) == 0.0
    # unit error against the unit weight has total mass 1
    assert weighted_l2_error(lambda t: 1.0, 0.0, 0.0, 64) == pytest.approx(1.0, rel=1e-14)


def test_weighted_l2_linear_error_beta_value():
    # err = theta against the Chebyshev weight: (B(5/2, 1/2))^(1/2)
    want = math.sqrt(beta(2.5, 0.5))
    assert want == pytest.approx(math.sqrt(3.0 * math.pi / 8.0), rel=1e-15)
    got = weighted_l2_error(lambda t: t, -0.5, -0.5, 128)
    assert got == pytest.approx(want, rel=1e-13)


def test_weighted_l2_scaling_and_absolute_value():
    err = lambda t: np.sin(3.0 * t) - 0.4  # noqa: E731
    base = weighted_l2_error(err, -0.5, 0.0, 200)
    assert weighted_l2_error(lambda t: np.abs(err(t)), -0.5, 0.0, 200) == pytest.approx(
        base, rel=1e-12
    )
    assert weighted_l2_error(lambda t: -3.5 * err(t), -0.5, 0.0, 200) == pytest.approx(
        3.5 * base, rel=1e-12
    )


def test_weighted_l2_validates_m():
    with pytest.raises(ValueError):
        weighted_l2_error(lambda t: 0.0, 0.0, 0.0, 0)


def test_linf_zero_and_parabola():
    assert linf_error(lambda t: 0.0, 101) == 0.0
    assert linf_error(lambda t: t * (1.0 - t), 2001) == pytest.approx(0.25, abs=1e-7)
    for grid_size in (1, 2.5, 3.0):
        with pytest.raises(ValueError, match="grid_size must be an integer >= 2"):
            linf_error(lambda t: 0.0, grid_size)


def test_linf_includes_extra_points():
    # spike exactly on an off-grid point is only seen through extra_points
    spike = 0.123456789
    err = lambda t: np.where(t == spike, 1.0, 0.0)  # noqa: E731
    assert linf_error(err, 11) == 0.0
    assert linf_error(err, 11, extra_points=[spike]) == 1.0


def test_norms_call_err_fn_once_on_all_points():
    calls = []

    def err(t):
        calls.append(np.shape(t))
        return t

    weighted_l2_error(err, -0.5, -0.5, 64)
    linf_error(err, 101, extra_points=[0.123])
    assert calls == [(64,), (102,)]


def test_linf_reports_interior_nan():
    # a NaN that is not the first value must not be dropped by the max
    err = lambda t: np.where((0.4 < t) & (t < 0.6), np.nan, 0.1)  # noqa: E731
    assert math.isnan(linf_error(err, 11))
    assert math.isnan(weighted_l2_error(err, 0.0, 0.0, 11))
    # an error row reduces the (P, 2) errors of (phi, phi*) together: a NaN
    # node value makes its own channel NaN and leaves the other bitwise as it was
    p, config = make_example("5.1"), SolverConfig()
    _, sol, _ = solve_once(p, 6, config)
    clean = error_row(p, sol, config, None, 1.0)
    for field, own, other in (("u", ("l2_e", "linf_e"), ("l2_estar", "linf_estar")),
                              ("u_star", ("l2_estar", "linf_estar"), ("l2_e", "linf_e"))):
        values = getattr(sol, field).copy()
        values[3] = np.nan
        row = error_row(p, dataclasses.replace(sol, **{field: values}), config, None, 1.0)
        assert all(math.isnan(getattr(row, name)) for name in own)
        assert [getattr(row, name) for name in other] == [getattr(clean, name) for name in other]


# --- sweeps ---------------------------------------------------------------------


def test_sweep_constant_solution_machine_eps():
    table = convergence_sweep(constant_problem(), SolverConfig(), [2, 4, 6])
    for row in table.rows:
        assert not row.failed
        assert row.l2_e <= 1e-12 and row.linf_e <= 1e-12
        assert row.l2_estar <= 1e-12 and row.linf_estar <= 1e-12


def test_sweep_meta_and_ordering():
    p = make_example("5.1")
    table = convergence_sweep(p, SolverConfig(), [4, 6])
    assert [r.n for r in table.rows] == [4, 6]
    assert all(r.runtime_ms > 0 for r in table.rows)


def test_sweep_validates_n_list():
    p = make_example("5.1")
    with pytest.raises(ValueError):
        convergence_sweep(p, SolverConfig(), [])
    with pytest.raises(ValueError):
        convergence_sweep(p, SolverConfig(), [6, 4])


def _assigned(field, value):
    cfg = SolverConfig()
    setattr(cfg, field, value)
    return cfg


@pytest.mark.parametrize(
    "make, error",
    [
        pytest.param(lambda f, v: SolverConfig(**{f: v}), ValueError, id="init"),
        pytest.param(lambda f, v: dataclasses.replace(SolverConfig(), **{f: v}), ValueError, id="replace"),
        pytest.param(_assigned, dataclasses.FrozenInstanceError, id="assign"),
    ],
)
@pytest.mark.parametrize(
    "field, value",
    [("l2_points", 0), ("linf_points", 1), ("lam", 0.0), ("lam", 1.5), ("lam", math.nan),
     ("alpha", -1.5), ("beta", -1.0), ("l2_points", 1.5), ("l2_points", math.nan),
     ("linf_points", 100.5), ("linf_points", True)],
)
def test_config_rejects_bad_values_before_any_solve(monkeypatch, make, error, field, value):
    import muntzvide.analysis

    calls = []
    original = muntzvide.analysis.solve_once

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(muntzvide.analysis, "solve_once", counted)
    with pytest.raises(error, match=field):
        convergence_sweep(make_example("5.1"), make(field, value), [4, 6])
    assert calls == []


@pytest.mark.parametrize("n_list", [[4.5], [4, 6.0], [True, 4], [4, np.float64(6)]], ids=str)
def test_sweep_rejects_a_non_integer_n_before_any_solve(monkeypatch, n_list):
    # every N passes the one count rule before the first solve: a float never
    # reaches numpy, and a bool is not a count
    import muntzvide.analysis

    calls = []
    original = muntzvide.analysis.solve_once
    monkeypatch.setattr(muntzvide.analysis, "solve_once", lambda *a: calls.append(a[1]) or original(*a))
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        convergence_sweep(make_example("5.1"), SolverConfig(), n_list)
    assert calls == []


@pytest.mark.parametrize("n", [4.0, 4.5, True])
def test_solve_once_rejects_a_non_integer_n(n):
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        solve_once(make_example("5.1"), n, SolverConfig())


def test_numpy_integer_n_is_a_count():
    p = make_example("5.1")
    table = convergence_sweep(p, SolverConfig(), [np.int64(4), np.int64(6)])
    assert [r.n for r in table.rows] == [4, 6] and not any(r.failed for r in table.rows)
    grid, _, _ = solve_once(p, np.int64(4), SolverConfig())
    assert grid.n == 4


def test_sweep_without_exact_needs_reference():
    p = make_example("5.4")
    with pytest.raises(ValueError):
        convergence_sweep(p, SolverConfig(), [4, 6])
    ref = reference_solution(p, SolverConfig(), 10)
    with pytest.raises(ValueError):
        convergence_sweep(p, SolverConfig(), [8, 10], reference=ref)  # ref not larger
    # a single error row makes the same two checks
    _, sol, _ = solve_once(p, 10, SolverConfig())
    with pytest.raises(ValueError, match="supply a reference"):
        error_row(p, sol, SolverConfig(), None, 1.0)
    with pytest.raises(ValueError, match="reference order 10 must exceed the solve order 10"):
        error_row(p, sol, SolverConfig(), ref, 1.0)


def test_sweep_51_decays_at_least_ten_x_per_step():
    p = make_example("5.1")
    table = convergence_sweep(p, SolverConfig(), [4, 6, 8, 10, 12])
    errs = [r.linf_e for r in table.rows]
    for a, b in zip(errs, errs[1:]):
        assert b <= a / 10.0


def test_sweep_propagates_programming_errors():
    # a stale scalar-only coefficient cannot take the array of grid points;
    # the sweep must raise instead of recording a failed row
    p = constant_problem()
    stale = VideProblem(
        a1=lambda t: 1.0 if t > 0.5 else 0.0,
        b1=p.b1, f1=p.f1, k1=p.k1, k2=p.k2,
        mu=p.mu, eps=p.eps, T=p.T, y0=p.y0,
        exact=p.exact, exact_deriv=p.exact_deriv,
    )
    with pytest.raises(ValueError, match="truth value"):
        convergence_sweep(stale, SolverConfig(), [4])


def test_sweep_l2_quadrature_converged():
    # doubling the L2 quadrature size moves the reported norm by < 1%
    p = make_example("5.1")
    base = convergence_sweep(p, SolverConfig(l2_points=200), [6])
    fine = convergence_sweep(p, SolverConfig(l2_points=400), [6])
    a, b = base.rows[0].l2_e, fine.rows[0].l2_e
    assert abs(a - b) <= 0.01 * max(a, b)


# --- rate fitting ---------------------------------------------------------------


def test_fit_rates_synthetic_exponential():
    table = synthetic_table([(n, 10.0**-n) for n in (4, 6, 8, 10, 12)])
    report = fit_rates(table)
    fit = report.channels["linf_e"]
    assert fit.slope_n == pytest.approx(-1.0, abs=1e-6)
    assert fit.r2_n >= 0.999999
    assert report.classification == "exponential"


def test_fit_rates_synthetic_algebraic():
    table = synthetic_table([(n, float(n) ** -2.0) for n in (4, 8, 16, 32, 64)])
    report = fit_rates(table)
    fit = report.channels["linf_e"]
    assert fit.slope_loglog == pytest.approx(-2.0, abs=1e-6)
    assert report.classification == "algebraic"


def test_fit_rates_insufficient_data():
    with pytest.raises(InsufficientDataError):
        fit_rates(synthetic_table([(4, 1e-3), (6, 1e-4)]))
    rows = [
        SweepRow(n=4, l2_e=1e-3, linf_e=1e-3, l2_estar=1e-3, linf_estar=1e-3, runtime_ms=1.0),
        SweepRow(n=6, l2_e=1e-4, linf_e=1e-4, l2_estar=1e-4, linf_estar=1e-4, runtime_ms=1.0),
        SweepRow(
            n=8, l2_e=1e-5, linf_e=1e-5, l2_estar=1e-5, linf_estar=1e-5,
            runtime_ms=1.0, failed=True,
        ),
    ]
    with pytest.raises(InsufficientDataError, match="channel l2_e has 2 usable rows"):
        fit_rates(ConvergenceTable(rows=rows))


def test_fit_rates_needs_three_usable_rows_per_channel():
    # four successful rows, but only two positive linf_estar errors
    table = synthetic_table([(n, 10.0**-n) for n in (4, 6, 8, 10)])
    table.rows[1].linf_estar = 0.0
    table.rows[3].linf_estar = math.nan
    with pytest.raises(InsufficientDataError, match="channel linf_estar has 2 usable rows"):
        fit_rates(table)


# --- reference solutions --------------------------------------------------------


def test_reference_against_itself_is_zero():
    p = make_example("5.4")
    ref = reference_solution(p, SolverConfig(), 12)
    thetas = np.array([0.1, 0.5, 0.9])
    for values in (ref.u, ref.u_star):
        first = interpolate(ref.grid, values, thetas)
        assert np.array_equal(first - interpolate(ref.grid, values, thetas), np.zeros(3))
        # on its own grid the reference reproduces its nodal values exactly
        assert np.array_equal(interpolate(ref.grid, values, ref.grid.points), values)


def test_reference_matches_closed_form_for_51():
    p = make_example("5.1")
    ref = reference_solution(p, SolverConfig(), 16)
    phi, _ = exact_phi_pair(p)
    thetas = np.linspace(1e-6, 1.0, 101)
    err = float(np.max(np.abs(interpolate(ref.grid, ref.u, thetas) - phi(thetas))))
    assert err <= 1e-10


def test_compare_sweep_uses_reference_channels():
    p = make_example("5.4")
    ref = reference_solution(p, SolverConfig(), 12)
    table = convergence_sweep(p, SolverConfig(), [4, 6, 8], reference=ref)
    errs = [r.linf_e for r in table.rows]
    assert errs[0] > errs[-1] > 0.0


# --- error rows -----------------------------------------------------------------


def four_callable_row(problem, grid, sol, config, reference, n):
    """The errors as four one-channel callables through the public norms.

    The truth is the reference's interpolant when one is given, else the
    exact solution.
    """
    if reference is None:
        phi_fn, phistar_fn = exact_phi_pair(problem)
    else:
        phi_fn = lambda th: interpolate(reference.grid, reference.u, th)  # noqa: E731
        phistar_fn = lambda th: interpolate(reference.grid, reference.u_star, th)  # noqa: E731
    e = lambda th: phi_fn(th) - interpolate(grid, sol.u, th)  # noqa: E731
    estar = lambda th: phistar_fn(th) - interpolate(grid, sol.u_star, th)  # noqa: E731
    m = config.l2_points if config.l2_points is not None else max(4 * n, 200)
    return [
        weighted_l2_error(e, config.alpha, config.beta, m),
        linf_error(e, config.linf_points, extra_points=grid.points),
        weighted_l2_error(estar, config.alpha, config.beta, m),
        linf_error(estar, config.linf_points, extra_points=grid.points),
    ]


# (problem, N, lam, reference order): exact and reference mode, each with the
# default L2 size 200 and with m = 4N at N > 50; lam = 1 keeps the errors at
# N > 50 far above rounding level
@pytest.mark.parametrize(
    "key, n, lam, ref_n",
    [("5.1", 6, None, None), ("5.1", 56, 1.0, None), ("5.4", 8, None, 24), ("5.4", 52, 1.0, 60)],
)
def test_error_row_matches_four_callable_norms(key, n, lam, ref_n):
    p = make_example(key)
    config = SolverConfig(lam=lam)
    ref = reference_solution(p, config, ref_n) if ref_n is not None else None
    grid, sol, _ = solve_once(p, n, config)
    row = error_row(p, sol, config, ref, 1.0)
    got = [row.l2_e, row.linf_e, row.l2_estar, row.linf_estar]
    want = four_callable_row(p, grid, sol, config, ref, n)
    assert min(want) > 1e-9
    # grouping the points differently changes how BLAS accumulates each
    # interpolated value, by a few ulps of the O(1) nodal values
    scale = max(np.abs(sol.u).max(), np.abs(sol.u_star).max())
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14 * scale)
    # a sweep row (one error_row per N) is the same row
    swept = convergence_sweep(p, config, [n], reference=ref).rows[0]
    assert [swept.l2_e, swept.linf_e, swept.l2_estar, swept.linf_estar] == got


def test_each_sweep_row_interpolates_the_reference_at_its_own_points(monkeypatch):
    import muntzvide.analysis as analysis

    calls = []

    def counting(grid, values, theta):
        calls.append((grid, np.shape(values), np.size(theta)))
        return interpolate(grid, values, theta)

    monkeypatch.setattr(analysis, "interpolate", counting)
    p = make_example("5.4")
    config = SolverConfig(linf_points=301)
    ref = reference_solution(p, config, 16)
    n_list = [4, 6, 8, 10]
    convergence_sweep(p, config, n_list, reference=ref)
    on_ref = [size for grid, _, size in calls if grid is ref.grid]
    # each row on its own: at the 200 L2 nodes and 301 sup-norm points, then
    # at the row's grid points; nothing is kept between rows
    assert on_ref == [size for n in n_list for size in (200 + 301, n + 1)]
    # each row evaluates (u, u*) in one two-channel call at all its points
    on_rows = [(shape, size) for grid, shape, size in calls if grid is not ref.grid]
    assert on_rows == [((n + 1, 2), 200 + 301 + n + 1) for n in n_list]


def test_a_given_reference_wins_over_the_closed_form():
    p = make_example("5.1")
    config = SolverConfig(linf_points=301)
    ref = reference_solution(p, config, 10)
    n_list = [4, 6]
    compared = convergence_sweep(p, config, n_list, reference=ref).rows
    swept = convergence_sweep(p, config, n_list).rows
    for n, row, exact_row in zip(n_list, compared, swept):
        grid, sol, _ = solve_once(p, n, config)
        got = [row.l2_e, row.linf_e, row.l2_estar, row.linf_estar]
        # measured against the reference's interpolant, not the exact solution
        want = four_callable_row(p, grid, sol, config, ref, n)
        scale = max(np.abs(sol.u).max(), np.abs(sol.u_star).max())
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14 * scale)
        assert got != [exact_row.l2_e, exact_row.linf_e, exact_row.l2_estar, exact_row.linf_estar]
    # a given reference's order is checked even when a closed form exists
    with pytest.raises(ValueError, match="reference order 10 must exceed the solve order 10"):
        convergence_sweep(p, config, [10], reference=ref)
