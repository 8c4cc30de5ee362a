import dataclasses
import itertools
import math

import numpy as np
import pytest

from muntzvide import (
    EXAMPLE_KEYS,
    FORCINGS,
    OracleDisagreement,
    SolverConfig,
    VideProblem,
    beta,
    default_lambda,
    exact_phi_pair,
    make_example,
    manufactured_forcing,
    scale_to_unit,
    scaled_residual,
    singular_integral,
    solve_once,
)
from muntzvide import problem
from muntzvide.problem import _apply_rule, _dyadic_rule, _mapped_rule, sample

SQRT2 = math.sqrt(2.0)


def corrected_f1_ex51(t, mu=0.5, eps=0.5):
    """Hand re-derivation of the first benchmark's forcing.

    The kernel factors e^{s^{1-mu}} cancel against the solution's
    exponential, leaving moment integrals of s: the two Volterra terms
    contribute B(1-mu, 2) t^{2-mu} (1 - eps^{2-mu}).
    """
    om = 1.0 - mu
    return (
        (1.0 - om * t**om + t) * math.exp(-(t**om))
        + beta(om, 2.0) * t ** (2.0 - mu) * (1.0 - eps ** (2.0 - mu))
        - eps * t * math.exp(-((eps * t) ** om))
    )


def corrected_f1_ex52(t, mu=1.0 / 3.0, eps=0.6):
    """Same derivation for the second benchmark (solution t^{2-mu} e^{-t})."""
    return (
        (2.0 - mu) * t ** (1.0 - mu) * math.exp(-t)
        + beta(1.0 - mu, 3.0 - mu) * t ** (3.0 - 2.0 * mu) * (1.0 - eps ** (3.0 - 2.0 * mu))
        - (eps * t) ** (2.0 - mu) * math.exp(-eps * t)
    )


# --- construction and validation ----------------------------------------------


def test_problem_validation():
    mk = lambda **kw: VideProblem(  # noqa: E731
        a1=lambda t: 0.0,
        b1=lambda t: 0.0,
        f1=lambda t: 0.0,
        k1=lambda t, s: 0.0,
        k2=lambda t, s: 0.0,
        **kw,
    )
    with pytest.raises(ValueError):
        mk(mu=1.0, eps=0.5, T=1.0, y0=0.0)
    with pytest.raises(ValueError):
        mk(mu=0.5, eps=1.0, T=1.0, y0=0.0)
    with pytest.raises(ValueError):
        mk(mu=0.5, eps=0.5, T=0.0, y0=0.0)
    with pytest.raises(ValueError, match="T must"):
        mk(mu=0.5, eps=0.5, T=math.inf, y0=0.0)
    with pytest.raises(ValueError, match="y0 must"):
        mk(mu=0.5, eps=0.5, T=1.0, y0=math.nan)


def test_problem_lambda_defaults_to_heuristic():
    zero, kernel = (lambda t: 0.0), (lambda t, s: 0.0)
    kw = dict(a1=zero, b1=zero, f1=zero, k1=kernel, k2=kernel, eps=0.5, T=1.0, y0=0.0)
    # the exponent a default-config solve uses; the grid records it
    assert solve_once(VideProblem(mu=0.75, **kw), 4, SolverConfig())[0].lam == 0.25
    assert solve_once(make_example("5.2", mu=0.25), 4, SolverConfig())[0].lam == 0.25


def test_default_lambda_heuristic():
    assert default_lambda(0.5) == pytest.approx(0.5)
    assert default_lambda(1.0 / 3.0) == pytest.approx(1.0 / 3.0)
    assert default_lambda(0.75) == pytest.approx(0.25)
    assert default_lambda(0.0) == 1.0
    # 0.95 = 19/20: its denominator exceeds 16, so it falls back to 1/2
    assert default_lambda(0.95) == 0.5


# --- rescaling ------------------------------------------------------------------


def test_scale_identity_horizon():
    p = make_example("5.1")  # T = 1
    sp = scale_to_unit(p)
    for th in (0.2, 0.7):
        assert sp.a_t(th) == pytest.approx(p.a1(th), rel=1e-15)
        assert sp.f_t(th) == pytest.approx(p.f1(th), rel=1e-14)
        assert sp.kbar1(th, 0.1) == pytest.approx(p.k1(th, 0.1), rel=1e-15)
        # only the delayed kernel picks up the eps^(1-mu) factor, and it
        # takes the pulled-back variable: K2 is read at tau = eps * eta
        assert sp.kbar2(th, 0.1) == pytest.approx(
            p.eps ** (1.0 - p.mu) * p.k2(th, p.eps * 0.1), rel=1e-15
        )


def test_scale_coefficient_example():
    p = VideProblem(
        a1=np.cos,
        b1=lambda t: 0.0,
        f1=lambda t: 0.0,
        k1=lambda t, s: 0.0,
        k2=lambda t, s: 0.0,
        mu=0.5,
        eps=0.5,
        T=0.5,
        y0=0.0,
    )
    sp = scale_to_unit(p)
    for th in (0.0, 0.3, 1.0):
        assert sp.a_t(th) == pytest.approx(0.5 * math.cos(0.5 * th), rel=1e-15)


def test_scale_kernel_constant_factor():
    p = make_example("5.2")  # eps=0.6, T=0.5, mu=1/3, K2 = e^tau
    sp = scale_to_unit(p)
    factor = 0.6 ** (2.0 / 3.0) * 0.5 ** (5.0 / 3.0)
    for th, eta in ((0.3, 0.1), (0.9, 0.5)):
        # tau = T * eps * eta
        assert sp.kbar2(th, eta) == pytest.approx(factor * math.exp(0.5 * 0.6 * eta), rel=1e-14)


def test_scale_round_trip_random_points():
    p = make_example("5.2")
    sp = scale_to_unit(p)
    rng = np.random.default_rng(5)
    for th in rng.uniform(0.0, 1.0, 10):
        assert sp.a_t(th) == pytest.approx(p.T * p.a1(p.T * th), rel=1e-14)
        assert sp.b_t(th) == pytest.approx(p.T * p.b1(p.T * th), rel=1e-14)
        assert sp.f_t(th) == pytest.approx(p.T * p.f1(p.T * th), rel=1e-14)
        eta = 0.5 * th
        assert sp.kbar1(th, eta) == pytest.approx(
            p.T ** (2.0 - p.mu) * p.k1(p.T * th, p.T * eta), rel=1e-14
        )
        assert sp.kbar2(th, eta) == pytest.approx(
            p.eps ** (1.0 - p.mu) * p.T ** (2.0 - p.mu) * p.k2(p.T * th, p.T * p.eps * eta), rel=1e-14
        )


# --- registry -------------------------------------------------------------------


def test_registry_keys_and_parameters():
    reg = {key: make_example(key) for key in EXAMPLE_KEYS}
    assert set(reg) == {"5.1", "5.2", "5.3", "5.4"}

    p1 = reg["5.1"]
    assert (p1.mu, p1.T, p1.y0) == (0.5, 1.0, 0.0)
    assert solve_once(p1, 4, SolverConfig())[0].lam == pytest.approx(0.5)
    assert p1.exact(0.49) == pytest.approx(0.49 * math.exp(-math.sqrt(0.49)))

    p2 = reg["5.2"]
    assert (p2.mu, p2.eps, p2.T) == (pytest.approx(1.0 / 3.0), 0.6, 0.5)
    assert p2.exact(0.3) == pytest.approx(0.3 ** (5.0 / 3.0) * math.exp(-0.3))
    assert solve_once(p2, 4, SolverConfig())[0].lam == pytest.approx(1.0 / 3.0)

    p3 = reg["5.3"]
    assert (p3.mu, p3.T) == (0.5, 1.0)
    assert p3.exact(0.3) == pytest.approx(
        (0.3**1.5 + 0.3 ** (1.0 + SQRT2)) * math.exp(-0.3)
    )

    p4 = reg["5.4"]
    assert (p4.mu, p4.eps, p4.T, p4.y0) == (0.5, 0.5, 0.5, 3.0)
    assert p4.a1(0.2) == pytest.approx(math.cos(0.2))
    assert p4.b1(0.2) == pytest.approx(math.exp(-0.2))
    assert p4.f1(0.2) == pytest.approx(math.sin(0.4))
    assert p4.k1(0.2, 0.1) == pytest.approx(-(1.0 + math.sin(0.02)))
    assert p4.k2(0.2, 0.1) == pytest.approx(-(1.0 + math.cos(0.02)))
    assert p4.exact is None


def test_make_example_overrides():
    p = make_example("5.1", eps=0.25)
    assert p.eps == 0.25
    with pytest.raises(KeyError):
        make_example("9.9")
    assert make_example("5.4", y0=2.0, forcing=None).y0 == 2.0  # None keeps the default
    # the factory's signature says which overrides an example takes
    with pytest.raises(ValueError, match="y0"):
        make_example("5.1", y0=2.0)
    with pytest.raises(ValueError, match="forcing"):
        make_example("5.4", forcing="printed")
    with pytest.raises(ValueError, match="forcing must be one of"):
        make_example("5.1", forcing="bogus")
    # an out-of-range mu is named, for the printed forcing too
    for forcing in FORCINGS:
        with pytest.raises(ValueError, match="mu must"):
            make_example("5.1", mu=1.0, forcing=forcing)


def test_exact_phi_pair_scaling():
    p = make_example("5.2")  # T = 1/2
    phi, phip = exact_phi_pair(p)
    assert phi(0.8) == pytest.approx(p.exact(0.4), rel=1e-15)
    assert phip(0.8) == pytest.approx(0.5 * p.exact_deriv(0.4), rel=1e-15)
    assert exact_phi_pair(make_example("5.4")) is None


# --- the array callable contract ------------------------------------------------

CONTRACT_T = np.array([0.0, 0.13, 0.37, 0.71, 1.0])
CONTRACT_S = np.array([0.0, 0.05, 0.2, 0.5, 0.9])


def assert_array_matches_scalar(fn, *args):
    """fn on 5-element arrays equals fn called element by element."""
    vec = np.broadcast_to(fn(*args), args[-1].shape)
    one = np.array([fn(*(float(a[k]) for a in args)) for k in range(args[-1].size)])
    np.testing.assert_allclose(vec, one, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("key", EXAMPLE_KEYS)
def test_registry_callables_are_array_native(key):
    p = make_example(key)
    sp = scale_to_unit(p)
    for fn in (p.a1, p.b1, p.f1, p.exact, p.exact_deriv, sp.a_t, sp.b_t, sp.f_t):
        if fn is not None:
            assert_array_matches_scalar(fn, CONTRACT_T)
    for kernel in (p.k1, p.k2, sp.kbar1, sp.kbar2):
        assert_array_matches_scalar(kernel, CONTRACT_T, CONTRACT_S)


def test_sample_broadcasts_constant_returns():
    out = sample(lambda t: 2.0, CONTRACT_T)
    assert out.shape == (5,) and np.all(out == 2.0)
    assert sample(np.cos, 0.3) == pytest.approx(math.cos(0.3), rel=1e-15)


# --- singular integral oracles --------------------------------------------------


def test_singular_integral_moment_closed_forms():
    # int_0^t (t-s)^(-mu) s^p ds = B(p+1, 1-mu) t^(p+1-mu)
    for mu, p in ((0.5, 1.0), (1.0 / 3.0, 5.0 / 3.0), (0.9, 0.5)):
        for t in (0.3, 1.0):
            want = beta(p + 1.0, 1.0 - mu) * t ** (p + 1.0 - mu)
            got = singular_integral(t, lambda s: s**p, mu)
            assert got == pytest.approx(want, rel=1e-12)


def test_singular_integral_zero_horizon():
    assert singular_integral(0.0, lambda s: 1.0, 0.5) == 0.0
    assert np.all(singular_integral(np.array([-0.5, 0.0]), lambda s: 1.0, 0.5) == 0.0)


def test_singular_integral_takes_arrays():
    # the t-dependent integrand reaches g as t[..., None]
    t = np.array([[0.1, 0.4], [0.7, 1.0]])
    got = singular_integral(t, lambda s: t[..., None] * s, 0.5)
    assert got.shape == (2, 2)
    for idx, tk in np.ndenumerate(t):
        assert got[idx] == pytest.approx(tk * singular_integral(tk, lambda s: s, 0.5), rel=1e-15)
    np.testing.assert_allclose(got, beta(2.0, 0.5) * t**2.5, rtol=1e-13)


def test_cached_dyadic_rule_is_read_only():
    # the rule is cached per mu, so a write would reach every later integral
    for arr in _dyadic_rule(0.5):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    assert singular_integral(1.0, lambda s: 1.0, 0.5) == pytest.approx(2.0, rel=1e-14)


# --- manufactured forcing -------------------------------------------------------


def test_manufactured_matches_corrected_closed_form_51():
    p = make_example("5.1")
    for t in (0.02, 0.2, 0.55, 0.9, 1.0):
        assert p.f1(t) == pytest.approx(corrected_f1_ex51(t), abs=1e-10)


def test_manufactured_matches_corrected_closed_form_52():
    p = make_example("5.2")
    t = np.array([[0.05, 0.2], [0.4, 0.5]])  # one call on a 2-d array
    want = [[corrected_f1_ex52(tk) for tk in row] for row in t]
    np.testing.assert_allclose(p.f1(t), want, rtol=0, atol=1e-10)


def test_manufactured_zero_solution():
    base = make_example("5.1")
    f1 = manufactured_forcing(lambda t: 0.0, lambda t: 0.0, base)
    for t in (0.1, 0.7):
        assert f1(t) == 0.0


def test_manufactured_constant_solution():
    skeleton = VideProblem(
        a1=lambda t: 0.0,
        b1=lambda t: 0.0,
        f1=lambda t: 0.0,
        k1=lambda t, s: 0.0,
        k2=lambda t, s: 0.0,
        mu=0.5,
        eps=0.5,
        T=1.0,
        y0=4.0,
    )
    f1 = manufactured_forcing(lambda t: 4.0, lambda t: 0.0, skeleton)
    for t in (0.1, 0.9):
        assert f1(t) == 0.0


@pytest.fixture
def dyadic_calls(monkeypatch):
    """The argument tuples of every later call to ``singular_integral``."""
    calls, real = [], problem.singular_integral

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(problem, "singular_integral", counted)
    return calls


@pytest.fixture
def registry_oracles(monkeypatch):
    """build(key, scale=1, **overrides): a registry problem and its closed-form pair.

    The pair is the one ``_manufactured`` built for the problem's forcing,
    with the first (c, p) term's c multiplied by ``scale`` beforehand.
    """
    real, built, state = problem._power_integrals, [], {}

    def spy(terms, mu, eps):
        (c, p), *rest = terms
        built.append(real([(state["scale"] * c, p), *rest], mu, eps))
        return built[-1]

    monkeypatch.setattr(problem, "_power_integrals", spy)

    def build(key, scale=1.0, **overrides):
        state["scale"] = scale
        return make_example(key, **overrides), built[-1]

    return build


def test_oracle_disagreement_raises(dyadic_calls):
    # a jump at s = 0.15 defeats both rules differently: they differ by
    # 1.3e-3 at t = 0.2 and 1.6e-2 at t = 0.5, and agree (both 0) before it;
    # no closed form is given, so the dyadic rule is the oracle
    f1 = manufactured_forcing(lambda t: np.where(t < 0.15, 0.0, 1.0), lambda t: 0.0, make_example("5.1"))
    assert f1(0.1) == 0.0
    assert len(dyadic_calls) == 2
    with pytest.raises(OracleDisagreement, match="t=0.5"):
        f1(0.5)
    with pytest.raises(OracleDisagreement, match="t=0.2"):
        f1(np.array([0.2, 0.5]))


def test_oracle_gate_rejects_nan(dyadic_calls):
    # sqrt(s - 0.3) is NaN on [0, 0.3): both rules return NaN at t = 0.8
    f1 = manufactured_forcing(
        lambda t: np.sqrt(t - 0.3), lambda t: 0.5 / np.sqrt(t - 0.3), make_example("5.1")
    )
    with np.errstate(invalid="ignore"), pytest.raises(OracleDisagreement, match="t=0.8"):
        f1(0.8)
    assert len(dyadic_calls) == 1


# --- closed-form oracle of the registry forcings ---------------------------------


@pytest.mark.parametrize("key", ["5.1", "5.2", "5.3"])
def test_closed_forms_match_the_dyadic_rule(registry_oracles, key):
    grid = itertools.product((0.0, 0.25, 0.5, 0.9, 0.99, 0.999999), (0.1, 0.5, 0.9), (0.5, 1.0, 5.0))
    for mu, eps, T in grid:
        p, (exact1, exact2) = registry_oracles(key, mu=mu, eps=eps, T=T)
        t = np.append(-T, np.linspace(0.0, T, 41))  # both rules give 0 where t <= 0
        for horizon, kernel, exact in ((t, p.k1, exact1), (eps * t, p.k2, exact2)):
            want = singular_integral(horizon, lambda s: kernel(t[..., None], s) * p.exact(s), mu)
            np.testing.assert_allclose(exact(t), want, rtol=1e-12, atol=0, err_msg=f"{key} {mu} {eps} {T}")


def test_wrong_closed_form_is_caught(registry_oracles, dyadic_calls):
    # c (1 + 1e-6) moves I1 = -B(1/2, 2) t^(3/2) by 1.3e-6 t^(3/2), which
    # passes the 1e-9 tolerance from t = 0.01 on
    p, _ = registry_oracles("5.1", scale=1.0 + 1e-6)
    assert np.isfinite(p.f1(np.array([0.0, 0.005]))).all()
    with pytest.raises(OracleDisagreement, match="t=0.5"):
        p.f1(0.5)
    with pytest.raises(OracleDisagreement, match="t=0.2"):
        p.f1(np.array([0.005, 0.2, 0.5]))
    assert not dyadic_calls


@pytest.mark.parametrize("key", ["5.1", "5.2", "5.3"])
def test_registry_forcing_value_is_the_mapped_rule(key, dyadic_calls):
    # the closed forms only check: the value is the mapped rule's, bit for bit
    p = make_example(key)
    y, mapped = p.exact, _mapped_rule(p.mu)
    for t in (np.float64(0.3 * p.T), np.linspace(0.0, p.T, 9)):
        i1 = _apply_rule(mapped, t, lambda s: p.k1(t[..., None], s) * y(s), p.mu)
        i2 = _apply_rule(mapped, p.eps * t, lambda s: p.k2(t[..., None], s) * y(s), p.mu)
        want = p.exact_deriv(t) - p.a1(t) * y(t) - p.b1(t) * y(p.eps * t) - i1 - i2
        assert np.array_equal(p.f1(t), want)
    assert not dyadic_calls


# --- residual oracle ------------------------------------------------------------


@pytest.mark.parametrize("key", ["5.1", "5.2", "5.3"])
def test_corrected_forcing_residuals(key):
    p = make_example(key)
    sp = scale_to_unit(p)
    phi, phip = exact_phi_pair(p)
    rng = np.random.default_rng(17)
    for th in rng.uniform(0.0, 1.0, 5) + 1e-3:
        assert abs(scaled_residual(sp, phi, phip, min(th, 1.0))) <= 1e-9


def test_scaled_residual_needs_a_forcing():
    # replace runs the construction check, so no scaled problem lacks its f_t
    with pytest.raises(ValueError, match="^f1 must be a callable forcing, got None$"):
        dataclasses.replace(make_example("5.4"), f1=None)


def test_scaled_residual_takes_arrays():
    sp = scale_to_unit(make_example("5.1", forcing="printed"))
    phi, phip = exact_phi_pair(make_example("5.1"))
    theta = np.array([0.3, 0.6, 0.9])
    got = scaled_residual(sp, phi, phip, theta)
    want = [scaled_residual(sp, phi, phip, th) for th in theta]
    np.testing.assert_allclose(got, want, rtol=1e-14)


def test_printed_forcing_violates_equation():
    for key in ("5.1", "5.2", "5.3"):
        p = make_example(key, forcing="printed")
        sp = scale_to_unit(p)
        phi, phip = exact_phi_pair(p)
        residuals = [abs(scaled_residual(sp, phi, phip, th)) for th in (0.3, 0.6, 0.9)]
        assert max(residuals) >= 1e-3, key
