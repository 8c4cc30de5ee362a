"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines as they execute.
"""

import math
import time

import numpy as np
import pytest

from muntzvide import (
    SolverConfig,
    VideProblem,
    beta,
    build_grid,
    convergence_sweep,
    exact_phi_pair,
    fit_rates,
    gauss_jacobi,
    make_example,
    reference_solution,
    scale_to_unit,
    scaled_residual,
    solve,
    to_fractional,
)
from muntzvide.cli import main as cli_main
from muntzvide.collocation import assemble
from muntzvide.muntz_basis import basis_matrix_z

PAIRS = [(0.0, 0.0), (-0.5, -0.5), (-1.0 / 3.0, 2.0), (-0.5, 1.0)]
LAMBDAS = [1.0, 0.5, 1.0 / 3.0]


def _report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\n[{status}] criterion {num:>2}: {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc} {detail}"


def classical_moment(alpha, beta_, k):
    """Beta-expansion oracle for int (1-x)^a (1+x)^b x^k dx in 50 digits."""
    from mpmath import binomial, mp, mpf
    from mpmath import beta as mp_beta

    mp.dps = 50
    a, b = mpf(alpha), mpf(beta_)
    total = mpf(0)
    for j in range(k + 1):
        total += (
            binomial(k, j) * (-1) ** (k - j) * mpf(2) ** (a + b + j + 1) * mp_beta(a + 1, b + j + 1)
        )
    return float(total)


def zero_problem(y0=0.0):
    return VideProblem(
        a1=lambda t: 0.0,
        b1=lambda t: 0.0,
        f1=lambda t: 0.0,
        k1=lambda t, s: 0.0,
        k2=lambda t, s: 0.0,
        mu=0.5,
        eps=0.5,
        T=1.0,
        y0=y0,
    )


def estar_tracks_e(table, floor=1e-13):
    """The derivative-channel errors stay within two orders of the e channel."""
    for row in table.rows:
        if row.l2_e > floor and row.l2_estar > floor:
            ratio = row.l2_estar / row.l2_e
            if not 1e-2 <= ratio <= 1e2:
                return False
    return True


def test_criterion_01_quadrature_exactness():
    start = time.perf_counter()
    worst = 0.0
    for alpha, beta_ in PAIRS:
        rule = gauss_jacobi(10, alpha, beta_)
        for k in range(20):
            want = classical_moment(alpha, beta_, k)
            got = float(np.dot(rule.weights, rule.nodes**k))
            denom = max(abs(want), 1e-30)
            err = abs(got - want) / denom if abs(want) > 1e-20 else abs(got - want)
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-11 and elapsed < 1.0
    _report(
        1,
        "10-point rules reproduce Beta-oracle moments k=0..19 (rel <= 1e-11, < 1 s)",
        ok,
        f"worst rel err {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_02_fractional_muntz_moments():
    worst = 0.0
    npts = 10  # N = 9, so k runs to 2N+1 = 19
    for lam in LAMBDAS:
        for alpha, beta_ in PAIRS:
            frac = to_fractional(gauss_jacobi(npts, alpha, beta_), lam)
            for k in range(2 * npts):
                want = beta(k + beta_ + 1.0, alpha + 1.0)
                got = float(np.dot(frac.nodes ** (k * lam), frac.weights))
                worst = max(worst, abs(got - want) / want)
    ok = worst <= 1e-11
    _report(
        2,
        "fractional rules hit the Muntz-monomial moments B(k+beta+1, alpha+1)",
        ok,
        f"worst rel err {worst:.2e}",
    )


def test_criterion_03_interpolation_exactness():
    worst = 0.0
    thetas = np.linspace(0.0, 1.0, 1001)
    for lam in LAMBDAS:
        for n in (4, 8, 12, 16, 20):
            grid = build_grid(n, -0.5, -0.5, lam)
            fm = basis_matrix_z(grid, thetas**lam)
            for k in range(n + 1):
                err = np.abs(fm @ grid.points ** (k * lam) - thetas ** (k * lam))
                worst = max(worst, float(err.max()))
    ok = worst <= 1e-11
    _report(
        3,
        "interpolation reproduces theta^(k lam), k <= N <= 20, on 1001 points",
        ok,
        f"worst abs err {worst:.2e}",
    )


def test_criterion_04_row_integration_identity():
    worst = 0.0
    rng = np.random.default_rng(101)
    for lam in (0.5, 1.0 / 3.0):
        p = zero_problem()
        n = 8
        grid = build_grid(n, -0.5, -0.5, lam)
        sysm = assemble(scale_to_unit(p), grid)
        for _ in range(20):
            coeffs = rng.uniform(-1.0, 1.0, n + 1)
            nodal = sum(c * grid.points ** (k * lam) for k, c in enumerate(coeffs))
            for i, ti in enumerate(grid.points):
                want = sum(
                    c * ti ** (k * lam + 1.0) / (k * lam + 1.0)
                    for k, c in enumerate(coeffs)
                )
                worst = max(worst, abs(float(sysm.E[i] @ nodal) - want))
    ok = worst <= 1e-12
    _report(
        4,
        "row-integration identity is exact on random Muntz polynomials",
        ok,
        f"worst abs err {worst:.2e}",
    )


def test_criterion_05_degenerate_solves():
    lam, n = 0.5, 8
    p0 = zero_problem()
    grid = build_grid(n, -0.5, -0.5, lam)
    sol0 = solve(assemble(scale_to_unit(p0), grid))
    zero_err = max(
        float(np.max(np.abs(v))) for v in (sol0.u_star, sol0.u, sol0.v)
    )
    c = 3.5
    solc = solve(assemble(scale_to_unit(zero_problem(y0=c)), grid))
    const_err = max(
        float(np.max(np.abs(solc.u_star))),
        float(np.max(np.abs(solc.u - c))),
        float(np.max(np.abs(solc.v - c))),
    )
    ok = zero_err <= 1e-14 and const_err <= 1e-13
    _report(
        5,
        "zero data solves to zero (1e-14); constant solution to U*=0, U=c (1e-13)",
        ok,
        f"zero {zero_err:.2e}, const {const_err:.2e}",
    )


def test_criterion_06_example_52():
    p = make_example("5.2")
    start = time.perf_counter()
    table = convergence_sweep(p, SolverConfig(), [5, 7, 9, 11, 13])
    elapsed = time.perf_counter() - start
    linf_13 = table.rows[-1].linf_e
    report = fit_rates(table)
    ok = (
        linf_13 <= 1e-6
        and report.classification == "exponential"
        and elapsed < 2.0
        and estar_tracks_e(table)
    )
    _report(
        6,
        "benchmark 5.2 (eps=0.6, T=1/2, mu=1/3), lam=1/3: Linf(N=13) <= 1e-6, exponential",
        ok,
        f"linf(13)={linf_13:.2e}, class={report.classification}, {elapsed:.2f} s",
    )


def test_criterion_07_example_51_eps_family():
    details = []
    ok = True
    for eps in (0.25, 0.5, 0.75):
        p = make_example("5.1", eps=eps)
        start = time.perf_counter()
        table = convergence_sweep(p, SolverConfig(), [4, 6, 8, 10, 12])
        elapsed = time.perf_counter() - start
        first, last = table.rows[0].linf_e, table.rows[-1].linf_e
        decay = first / max(last, 1e-300)
        ok = ok and last <= 1e-9 and decay >= 1e7 and elapsed < 2.0
        ok = ok and estar_tracks_e(table)
        details.append(f"eps={eps}: linf(12)={last:.1e}, decay={decay:.1e}, {elapsed:.2f}s")
    _report(
        7,
        "benchmark 5.1, lam=1/2, eps in {0.25, 0.5, 0.75}: Linf(N=12) <= 1e-9, >= 7 orders decay",
        ok,
        "; ".join(details),
    )


def test_criterion_08_fractional_advantage():
    p = make_example("5.1")
    table_poly = convergence_sweep(p, SolverConfig(lam=1.0), [4, 6, 8, 10, 12])
    linf_poly = table_poly.rows[-1].linf_e
    table_frac = convergence_sweep(p, SolverConfig(lam=0.5), [12])
    linf_frac = table_frac.rows[0].linf_e
    report = fit_rates(table_poly)
    ratio = linf_poly / max(linf_frac, 1e-300)
    ok = linf_poly >= 1e-6 and ratio >= 1e3 and report.classification == "algebraic"
    _report(
        8,
        "lam=1 on benchmark 5.1 stalls at >= 1e-6 (>= 1e3 x worse than lam=1/2), algebraic",
        ok,
        f"linf(lam=1)={linf_poly:.2e}, ratio={ratio:.1e}, class={report.classification}",
    )


def test_criterion_09_example_54_self_convergence():
    p = make_example("5.4")
    start = time.perf_counter()
    ref = reference_solution(p, SolverConfig(), 18)
    table = convergence_sweep(p, SolverConfig(), [6, 8, 10, 12, 14], reference=ref)
    elapsed = time.perf_counter() - start
    linf_14 = table.rows[-1].linf_e
    report = fit_rates(table)
    ok = (
        linf_14 <= 1e-6
        and report.classification == "exponential"
        and elapsed < 2.0
        and estar_tracks_e(table)
    )
    _report(
        9,
        "benchmark 5.4 vs reference N=18: Linf(N=14) <= 1e-6, exponential N=6..14",
        ok,
        f"linf(14)={linf_14:.2e}, class={report.classification}, {elapsed:.2f} s",
    )


def test_criterion_10_residual_oracle():
    rng = np.random.default_rng(2024)
    thetas = rng.uniform(0.0, 1.0, 20)
    thetas = np.clip(thetas, 1e-3, 1.0)
    worst_corrected = 0.0
    for key in ("5.1", "5.2", "5.3"):
        p = make_example(key)
        sp = scale_to_unit(p)
        phi, phip = exact_phi_pair(p)
        for th in thetas:
            worst_corrected = max(worst_corrected, abs(scaled_residual(sp, phi, phip, th)))
    printed = make_example("5.1", forcing="printed")
    spp = scale_to_unit(printed)
    phi, phip = exact_phi_pair(printed)
    printed_max = max(abs(scaled_residual(spp, phi, phip, th)) for th in thetas)
    ok = worst_corrected <= 1e-9 and printed_max >= 1e-3
    _report(
        10,
        "corrected forcings satisfy the equation (<= 1e-9); the printed 5.1 forcing does not",
        ok,
        f"corrected max {worst_corrected:.2e}, printed max {printed_max:.2e}",
    )


def test_criterion_11_determinism(tmp_path):
    cfg = tmp_path / "det.cfg"
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"det_{tag}.csv"
        cfg.write_text(f"problem = 5.1\nN = 4:8:2\noutput = {out}\n")
        assert cli_main(["sweep", "--config", str(cfg)]) == 0
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1]
    _report(
        11,
        "repeated identical sweep runs produce byte-identical CSVs",
        ok,
        f"{len(outs[0])} bytes",
    )
