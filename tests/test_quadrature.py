import math

import numpy as np
import pytest

from muntzvide import (
    QuadratureError,
    QuadratureRule,
    beta,
    build_grid,
    gauss_jacobi,
    singular_ratio,
    to_fractional,
)
from muntzvide.problem import _dyadic_rule
from muntzvide.quadrature import _RULE_CACHE_SIZE, _kernel_rule

PAIRS = [(0.0, 0.0), (-0.5, -0.5), (-1.0 / 3.0, 2.0), (-0.5, 1.0)]


def _poch(a, m):
    """Rising factorial a (a+1) ... (a+m-1)."""
    out = 1.0
    for i in range(m):
        out *= a + i
    return out


def jacobi_sum_oracle(n, alpha, beta_, x):
    """Explicit sum form of J_n; cancels badly, usable for n <= 5 only.

    The Gamma ratios Gamma(n+a+1)/Gamma(k+a+1) and
    Gamma(n+k+a+b+1)/Gamma(n+a+b+1) are written as rising factorials so the
    formula stays finite when a+b+1 hits a nonpositive integer.
    """
    total = 0.0
    for k in range(n + 1):
        term = (
            math.comb(n, k)
            * _poch(k + alpha + 1.0, n - k)
            * _poch(n + alpha + beta_ + 1.0, k)
        )
        total += term * ((x - 1.0) / 2.0) ** k
    return total / math.factorial(n)


def classical_moment(alpha, beta_, k):
    """int_{-1}^{1} (1-x)^alpha (1+x)^beta x^k dx via binomial + Beta.

    The alternating binomial sum cancels to ~1e-9 of its largest term for
    k ~ 20, so it is accumulated in 50-digit arithmetic; only the final
    result is rounded to a float.
    """
    from mpmath import binomial, mp
    from mpmath import beta as mp_beta
    from mpmath import mpf

    mp.dps = 50
    total = mpf(0)
    a, b = mpf(alpha), mpf(beta_)
    for j in range(k + 1):
        total += (
            binomial(k, j)
            * (-1) ** (k - j)
            * mpf(2) ** (a + b + j + 1)
            * mp_beta(a + 1, b + j + 1)
        )
    return float(total)


def jacobi_from_nodes(n, alpha, beta_, x):
    """J_n(x) = k_n prod_k (x - x_k) over the n-point Gauss-Jacobi nodes x_k.

    k_n = (n+alpha+beta+1)_n / (2^n n!) is the leading coefficient, so this
    reproduces J_n exactly when the Golub-Welsch nodes are its roots.
    """
    nodes = gauss_jacobi(n, alpha, beta_).nodes if n else np.empty(0)
    lead = _poch(n + alpha + beta_ + 1.0, n) / (2.0**n * math.factorial(n))
    return lead * float(np.prod(x - nodes))


# --- nodes as roots of J_n -----------------------------------------------------


def test_degree_one_legendre():
    for x in np.linspace(-1, 1, 7):
        assert jacobi_from_nodes(1, 0.0, 0.0, x) == pytest.approx(x, abs=1e-15)


def test_value_at_one_closed_form():
    # J_n(1) = Gamma(n+alpha+1) / (n! Gamma(alpha+1))
    expected = math.exp(math.lgamma(3.5) - math.lgamma(0.5)) / math.factorial(3)
    assert expected == pytest.approx(0.3125, rel=1e-14)
    assert jacobi_from_nodes(3, -0.5, -0.5, 1.0) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("alpha,beta_", PAIRS)
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_recurrence_matches_gamma_sum(n, alpha, beta_):
    # the eigenvalues of the recurrence matrix are the roots of the explicit
    # Gamma-sum form of J_n
    for x in np.linspace(-0.95, 0.95, 9):
        assert jacobi_from_nodes(n, alpha, beta_, x) == pytest.approx(
            jacobi_sum_oracle(n, alpha, beta_, x), rel=1e-11, abs=1e-12
        )


def test_low_degree_closed_forms():
    alpha, beta_ = -0.4, 0.7
    for x in np.linspace(-1, 1, 11):
        p1 = 0.5 * (alpha + beta_ + 2) * x + 0.5 * (alpha - beta_)
        assert jacobi_from_nodes(1, alpha, beta_, x) == pytest.approx(p1, abs=1e-14)
        p2 = jacobi_sum_oracle(2, alpha, beta_, x)
        assert jacobi_from_nodes(2, alpha, beta_, x) == pytest.approx(p2, abs=1e-14)


# --- Gauss rules -------------------------------------------------------------


def test_one_point_legendre():
    rule = gauss_jacobi(1, 0.0, 0.0)
    assert rule.nodes[0] == pytest.approx(0.0, abs=1e-15)
    assert rule.weights[0] == pytest.approx(2.0, rel=1e-15)


def test_two_point_chebyshev():
    # closed-form Chebyshev-Gauss nodes cos((2k+1)pi/(2n)) and weights pi/n
    rule = gauss_jacobi(2, -0.5, -0.5)
    assert rule.nodes == pytest.approx([-math.sqrt(2) / 2, math.sqrt(2) / 2], abs=1e-15)
    assert rule.weights == pytest.approx([math.pi / 2, math.pi / 2], rel=1e-14)


@pytest.mark.parametrize("alpha,beta_", PAIRS)
def test_moment_exactness(alpha, beta_):
    rule = gauss_jacobi(10, alpha, beta_)
    for k in range(20):
        want = classical_moment(alpha, beta_, k)
        got = float(np.dot(rule.weights, rule.nodes**k))
        assert got == pytest.approx(want, rel=1e-11, abs=1e-13)


@pytest.mark.parametrize("alpha,beta_", PAIRS)
def test_total_mass(alpha, beta_):
    rule = gauss_jacobi(12, alpha, beta_)
    want = 2.0 ** (alpha + beta_ + 1.0) * beta(alpha + 1.0, beta_ + 1.0)
    assert float(rule.weights.sum()) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("alpha,beta_", PAIRS)
def test_node_interlacing(alpha, beta_):
    small = gauss_jacobi(8, alpha, beta_).nodes
    big = gauss_jacobi(9, alpha, beta_).nodes
    for i, x in enumerate(small):
        assert big[i] < x < big[i + 1]


def test_nodes_open_interval_increasing():
    rule = gauss_jacobi(30, -0.5, 2.0)
    assert rule.nodes[0] > -1.0 and rule.nodes[-1] < 1.0
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights > 0)


def test_invalid_rule_requests():
    with pytest.raises(ValueError):
        gauss_jacobi(0, 0.0, 0.0)
    with pytest.raises(ValueError):
        gauss_jacobi(4, -1.5, 0.0)


def test_repeat_rule_is_the_cached_object():
    rule = gauss_jacobi(17, -0.5, 1.0)
    assert gauss_jacobi(17, -0.5, 1.0) is rule
    for arr in (rule.nodes, rule.weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("alpha, beta", [(1100.0, -0.5), (-0.5, 1100.0)])
def test_overflowing_rule_mass_is_a_quadrature_error(alpha, beta):
    with pytest.raises(QuadratureError, match="rule mass overflows"):
        gauss_jacobi(4, alpha, beta)


def test_invalid_rule_requests_raise_on_every_call():
    cases = [
        ((0, 0.0, 0.0), "npts must be an integer >= 1"),
        # equal to cached keys (4, 0.0, 0.0) and (1, 0.0, 0.0), but not counts
        ((4.0, 0.0, 0.0), "npts must be an integer >= 1"),
        ((True, 0.0, 0.0), "npts must be an integer >= 1"),
        ((4, -1.5, 0.0), "exceed -1"),
        ((4, 0.0, -1.0), "exceed -1"),
        ((4, math.nan, 0.0), "exceed -1"),
        ((4, 0.0, -1.5), "exponent beta must exceed -1, got -1.5"),
    ]
    gauss_jacobi(4, 0.0, 0.0)
    gauss_jacobi(1, 0.0, 0.0)
    for args, match in cases:
        for _ in range(2):
            with pytest.raises(ValueError, match=match):
                gauss_jacobi(*args)


# --- fractional rules --------------------------------------------------------


def test_fractional_rule_is_read_only():
    # cached grids and kernel rules share its arrays
    frac = to_fractional(gauss_jacobi(17, -0.5, 1.0), 0.5)
    for arr in (frac.nodes, frac.weights, frac.z_nodes):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_fractional_rule_follows_a_changed_parent():
    # a hand-built parent's arrays are writable; the mapped rule is of their
    # values now, not of the ones an earlier call saw
    rule = QuadratureRule(alpha=0.0, beta=0.0, nodes=np.array([-0.5, 0.5]), weights=np.ones(2))
    assert list(to_fractional(rule, 1.0).nodes) == [0.25, 0.75]
    rule.nodes[:] = [-0.9, 0.9]
    rule.weights[:] = 2.0
    frac = to_fractional(rule, 1.0)
    assert list(frac.nodes) == [0.5 * (1.0 - 0.9), 0.5 * (1.0 + 0.9)]
    assert list(frac.weights) == [1.0, 1.0]


def test_every_fixed_rule_shares_one_cache_policy():
    policy = {"maxsize": _RULE_CACHE_SIZE, "typed": True}
    for cached in (gauss_jacobi, _kernel_rule, build_grid, _dyadic_rule):
        assert cached.cache_parameters() == policy, cached.__name__
    assert not hasattr(to_fractional, "cache_clear")


def test_invalid_lambda_raises_on_every_call():
    rule = gauss_jacobi(6, 0.0, 0.0)
    to_fractional(rule, 1.0)
    for lam in (1.5, 0.0, math.nan):
        for _ in range(2):
            with pytest.raises(ValueError, match="lam must lie in"):
                to_fractional(rule, lam)


# general formula, mu = 0 and lam = 1 (the ones array)
@pytest.mark.parametrize("mu, lam", [(0.5, 0.5), (0.0, 0.5), (0.5, 1.0)])
def test_repeat_kernel_rule_is_the_cached_object(mu, lam):
    rule, ratio = _kernel_rule(12, mu, lam)
    again = _kernel_rule(12, mu, lam)
    assert again[0] is rule and again[1] is ratio
    mapped = to_fractional(gauss_jacobi(12, -mu, 1.0 / lam - 1.0), lam)
    for name in ("nodes", "weights", "z_nodes"):
        assert np.array_equal(getattr(rule, name), getattr(mapped, name))
    assert np.array_equal(ratio, singular_ratio(rule.z_nodes, lam, mu))
    for arr in (rule.nodes, rule.weights, rule.z_nodes, ratio):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_lambda_one_is_affine():
    rule = gauss_jacobi(6, 0.0, 0.0)
    frac = to_fractional(rule, 1.0)
    assert frac.nodes == pytest.approx(0.5 * (rule.nodes + 1.0), abs=0)
    assert frac.weights == pytest.approx(0.5 * rule.weights, rel=1e-15)
    # theta = z^1 is z bitwise, in its own (read-only) array
    assert np.array_equal(frac.nodes, frac.z_nodes)
    assert not np.shares_memory(frac.nodes, frac.z_nodes)


def test_half_lambda_squares_the_midpoint():
    # parent node t=0 maps to ((0+1)/2)^(1/lam) = (1/2)^2
    frac = to_fractional(gauss_jacobi(1, 0.0, 0.0), 0.5)
    assert frac.nodes[0] == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("lam", [1.0, 0.5, 1.0 / 3.0])
@pytest.mark.parametrize("alpha,beta_", PAIRS)
def test_muntz_moments(lam, alpha, beta_):
    npts = 10
    frac = to_fractional(gauss_jacobi(npts, alpha, beta_), lam)
    for k in range(2 * npts):  # k <= 2N+1 with N = npts-1
        want = beta(k + beta_ + 1.0, alpha + 1.0)
        got = float(np.dot(frac.nodes ** (k * lam), frac.weights))
        assert got == pytest.approx(want, rel=1e-11)


def test_fractional_mass_is_beta():
    frac = to_fractional(gauss_jacobi(9, -0.5, 1.0), 0.5)
    assert float(frac.weights.sum()) == pytest.approx(beta(2.0, 0.5), rel=1e-12)


def test_spec_moment_example():
    # lam=1/2, alpha=-1/2, beta=1: sum theta^(k lam) omega = B(k+2, 1/2)
    frac = to_fractional(gauss_jacobi(8, -0.5, 1.0), 0.5)
    for k in range(16):
        got = float(np.dot(frac.nodes ** (k * 0.5), frac.weights))
        assert got == pytest.approx(beta(k + 2.0, 0.5), rel=1e-11)


# --- weight function ---------------------------------------------------------


@pytest.mark.parametrize("alpha,beta_,lam", [(0.0, 0.0, 0.5), (-0.5, 1.0, 0.5), (-1.0 / 3.0, 2.0, 1.0 / 3.0)])
def test_fractional_weights_total_mass(alpha, beta_, lam):
    # the Muntz weight lam (1-theta^lam)^alpha theta^((beta+1) lam - 1) has
    # int_0^1 weight(theta) dtheta = B(beta+1, alpha+1): tanh-sinh quadrature
    # handles the endpoint singularities independently of our rules (the
    # integrand is rebuilt in mpf arithmetic; tanh-sinh abscissas underflow
    # plain floats near the endpoints)
    from mpmath import mp, mpf, quad

    mp.dps = 30
    la, al, be = mpf(lam), mpf(alpha), mpf(beta_)
    got = float(
        quad(lambda th: la * (1 - th**la) ** al * th ** ((be + 1) * la - 1), [0, 1])
    )
    want = beta(beta_ + 1.0, alpha + 1.0)
    assert got == pytest.approx(want, rel=1e-12)
    # the k=0 Muntz moment gives the same number at machine accuracy
    frac = to_fractional(gauss_jacobi(40, alpha, beta_), lam)
    assert float(frac.weights.sum()) == pytest.approx(want, rel=1e-12)


# --- singular ratio ----------------------------------------------------------


def test_ratio_identity_at_lambda_one():
    for xi in (1e-8, 0.3, 0.9999):
        assert singular_ratio(xi, 1.0, 0.5) == 1.0


def test_ratio_endpoint_limit():
    # first-order expansion 1 - xi^(1/lam) ~ (1-xi)/lam gives limit lam^mu
    lam, mu = 0.5, 0.5
    limit = lam**mu
    near = singular_ratio(1.0 - 1e-12, lam, mu)
    far = singular_ratio(1.0 - 1e-6, lam, mu)
    assert near == pytest.approx(limit, rel=1e-10)
    assert abs(near - limit) < abs(far - limit)


@pytest.mark.parametrize("lam,mu", [(0.5, 0.5), (1.0 / 3.0, 1.0 / 3.0), (0.5, 0.9)])
def test_ratio_monotone_bounded_near_one(lam, mu):
    vals = [singular_ratio(1.0 - 10.0**-k, lam, mu) for k in range(4, 15)]
    assert all(np.isfinite(vals))
    diffs = np.diff(np.abs(np.array(vals) - lam**mu))
    assert np.all(diffs <= 1e-12)  # monotone approach to the limit
    assert vals[-1] == pytest.approx(lam**mu, rel=1e-9)


def test_ratio_agrees_with_naive_formula_at_benign_points():
    lam, mu = 1.0 / 3.0, 0.45
    for xi in (0.1, 0.3, 0.6, 0.9):
        naive = ((1.0 - xi ** (1.0 / lam)) / (1.0 - xi)) ** -mu
        assert singular_ratio(xi, lam, mu) == pytest.approx(naive, rel=1e-13)


@pytest.mark.parametrize("lam,mu", [(0.5, 0.5), (1.0 / 3.0, 1.0 / 3.0), (1.0 / 16.0, 15.0 / 16.0)])
def test_ratio_matches_extended_precision_over_whole_domain(lam, mu):
    # 40-digit reference at the exact float arguments: tiny xi, xi = 1 - 10^-k
    # up to the last representable digits, and interior points on both sides
    # of 1/2
    mp = pytest.importorskip("mpmath")
    xi = np.concatenate(
        [np.logspace(-300, -1, 40), 1.0 - 10.0 ** -np.arange(1, 16), [0.2, 0.45, 0.5, 0.55, 0.8]]
    )
    got = singular_ratio(xi, lam, mu)
    with mp.workdps(40):
        for x, g in zip(xi, got):
            x = mp.mpf(float(x))
            want = ((1 - x ** (1 / mp.mpf(lam))) / (1 - x)) ** -mp.mpf(mu)
            assert abs(g - want) <= 1e-14 * want, float(x)


# --- large-n weights against an extended-precision closed form ------------------


def _jacobi_p(n, a, b, x):
    """P_n^(a,b)(x) by the classical three-term recurrence, in mpmath numbers."""
    p0, p1 = 1, (a + 1) + (a + b + 2) * (x - 1) / 2
    for k in range(2, n + 1):
        c = 2 * k + a + b
        p0, p1 = p1, (
            (c - 1) * (c * (c - 2) * x + a * a - b * b) * p1
            - 2 * (k + a - 1) * (k + b - 1) * c * p0
        ) / (2 * k * (k + a + b) * (c - 2))
    return p1


def test_large_n_end_weights_match_extended_precision():
    # The solver's kernel rule at lam = 1/2, mu = 1/2 has (alpha, beta) =
    # (-1/2, 1).  Each node is Newton-refined once at 32 digits and its weight
    # taken from the closed form 2^(a+b+1) G(n+a+1) G(n+b+1) /
    # (G(n+a+b+1) n! (1-x^2) P_n'(x)^2).  Golub-Welsch stays within 4.3e-13
    # here; scipy.special.roots_jacobi is off by 3.6e-11.
    mp = pytest.importorskip("mpmath")
    n, alpha, beta_ = 120, -0.5, 1.0
    rule = gauss_jacobi(n, alpha, beta_)
    ends = np.r_[0:10, n - 10 : n]
    with mp.workdps(32):
        a, b = mp.mpf(alpha), mp.mpf(beta_)

        def dp(x):
            return (n + a + b + 1) / 2 * _jacobi_p(n - 1, a + 1, b + 1, x)

        scale = (
            2 ** (a + b + 1) * mp.gamma(n + a + 1) * mp.gamma(n + b + 1)
            / (mp.gamma(n + a + b + 1) * mp.factorial(n))
        )
        want = []
        for x in map(mp.mpf, rule.nodes[ends].tolist()):
            x -= _jacobi_p(n, a, b, x) / dp(x)
            want.append(float(scale / ((1 - x * x) * dp(x) ** 2)))
    np.testing.assert_allclose(rule.weights[ends], want, rtol=2e-12, atol=0)
