"""Problem definitions for delay Volterra integro-differential equations.

The equation family solved by this package is

    y'(t) = a1(t) y(t) + b1(t) y(eps*t) + f1(t)
            + int_0^t (t-s)^(-mu) K1(t, s) y(s) ds
            + int_0^(eps*t) (eps*t - tau)^(-mu) K2(t, tau) y(tau) d tau,
    y(0) = y0,        t in [0, T],  0 <= mu < 1,  0 < eps < 1.

``scale_to_unit`` rewrites an instance on [0, 1]: with t = T*theta the delay
integral is first pulled back to [0, t] via tau = eps*s, which moves a factor
eps^(1-mu) onto the second kernel, and every coefficient picks up the horizon
powers shown in ``ScaledProblem``.

A registry of four benchmark problems is provided.  Three of them have
closed-form solutions; their forcing functions are *manufactured*: f1 is
recovered from the exact solution by evaluating the two weakly singular
integrals with a mapped Gauss-Jacobi rule, and every call checks each value
against one independent oracle: for these three, the integrals' closed-form
Beta sums; for any other manufactured forcing, a dyadic-panel rule.
(Closed-form forcings for these benchmarks circulate
with sign/typo variants; the printed variants are kept available under
``forcing="printed"`` for comparison runs, but the manufactured forcing is
authoritative.)

Every problem callable takes numpy arrays and broadcasts: a1, b1, f1, exact
and exact_deriv map an array of times to an array of the same shape, and k1,
k2 broadcast their two arguments against each other.  A callable may return
a constant (``lambda t: 0.0``); ``sample`` broadcasts it to the argument's
shape for callers that need a full array.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .quadrature import beta, gauss_jacobi, singular_ratio, to_fractional

__all__ = [
    "VideProblem",
    "ScaledProblem",
    "OracleDisagreement",
    "scale_to_unit",
    "default_lambda",
    "sample",
    "singular_integral",
    "manufactured_forcing",
    "make_example",
    "scaled_residual",
    "exact_phi_pair",
    "EXAMPLE_KEYS",
    "FORCINGS",
]

ArrayFn = Callable[[np.ndarray], np.ndarray]
KernelFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


class OracleDisagreement(RuntimeError):
    """A manufactured forcing's quadrature value fails its oracle check."""


def sample(fn: ArrayFn, x) -> np.ndarray:
    """fn(x) as a float array of x's shape, broadcasting a constant return."""
    return np.broadcast_to(np.asarray(fn(x), dtype=float), np.shape(x))


@dataclass(frozen=True, eq=False)
class VideProblem:
    """One equation instance on [0, T].

    ``k1``/``k2`` include any sign in front of their integral; ``exact`` and
    ``exact_deriv`` are optional closed-form y and y'.  The forcing ``f1`` is
    required: a non-callable one raises ``ValueError``, here or in ``replace``.
    """

    a1: ArrayFn
    b1: ArrayFn
    f1: ArrayFn
    k1: KernelFn
    k2: KernelFn
    mu: float
    eps: float
    T: float
    y0: float
    exact: Optional[ArrayFn] = None
    exact_deriv: Optional[ArrayFn] = None
    label: str = ""

    def __post_init__(self):
        if not callable(self.f1):
            raise ValueError(f"f1 must be a callable forcing, got {self.f1!r}")
        _validate_parameters(mu=self.mu, eps=self.eps, T=self.T, y0=self.y0)


# each problem parameter's range: its test, and the rule an error states
_PARAMETER_RULES = {
    "mu": (lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)"),
    "eps": (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
    "T": (lambda v: 0.0 < v < math.inf, "must be positive and finite"),
    "y0": (math.isfinite, "must be finite"),
}


def _validate_parameters(**values: float) -> None:
    """Check the given problem parameters, any of mu, eps, T and y0, in order."""
    for name, value in values.items():
        in_range, rule = _PARAMETER_RULES[name]
        if not in_range(value):  # NaN fails every rule
            raise ValueError(f"{name} {rule}, got {value}")


@dataclass(frozen=True, eq=False)
class ScaledProblem:
    """The same equation rescaled to theta in [0, 1].

    a_t(theta) = T a1(T theta)            (same for b_t, f_t)
    kbar1(theta, eta) = T^(2-mu) K1(T theta, T eta)
    kbar2(theta, eta) = eps^(1-mu) T^(2-mu) K2(T theta, T eps eta)
    phi0 = y0
    """

    a_t: ArrayFn
    b_t: ArrayFn
    f_t: ArrayFn
    kbar1: KernelFn
    kbar2: KernelFn
    mu: float
    eps: float
    phi0: float


def scale_to_unit(p: VideProblem) -> ScaledProblem:
    """Rescale a problem from [0, T] to [0, 1]."""
    T, mu, eps = p.T, p.mu, p.eps
    c1 = T ** (2.0 - mu)
    c2 = eps ** (1.0 - mu) * c1
    return ScaledProblem(
        a_t=lambda th: T * p.a1(T * th),
        b_t=lambda th: T * p.b1(T * th),
        f_t=lambda th: T * p.f1(T * th),
        kbar1=lambda th, eta: c1 * p.k1(T * th, T * eta),
        kbar2=lambda th, eta: c2 * p.k2(T * th, T * (eps * eta)),
        mu=mu,
        eps=eps,
        phi0=p.y0,
    )


def exact_phi_pair(p: VideProblem):
    """(phi, phi') on [0, 1] from the closed-form solution, or None."""
    if p.exact is None or p.exact_deriv is None:
        return None
    T, y, yp = p.T, p.exact, p.exact_deriv
    return (lambda th: y(T * th)), (lambda th: T * yp(T * th))


def default_lambda(mu: float) -> float:
    """Basis exponent heuristic: 1/q when mu is (close to) p/q with small q.

    Solutions behave like sums of powers t^(i + j(2-mu)); for rational mu the
    exponents all lie on the 1/q lattice, so the matching Muntz basis removes
    the initial-point singularity.  Falls back to 1/2 for awkward mu.
    """
    if mu == 0.0:
        return 1.0
    frac = Fraction(mu).limit_denominator(16)
    if frac.denominator > 1 and abs(float(frac) - mu) <= 1e-12:
        return 1.0 / frac.denominator
    return 0.5


# ---------------------------------------------------------------------------
# weakly singular integral rules
# ---------------------------------------------------------------------------
#
# Both rules are fixed rules (u_k, W_k) on [0, 1]: substituting s = t*u,
#     int_0^t (t-s)^(-mu) g(s) ds = t^(1-mu) * sum_k W_k g(t u_k).

# panel levels of the dyadic rule, size of the mapped Gauss-Jacobi rule, and
# the largest accepted difference between a forcing's mapped-rule integral and
# its oracle (relative above an integral of 1)
_DYADIC_LEVELS = 50
_ORACLE_POINTS = 200
_ORACLE_TOL = 1e-9


@functools.lru_cache(maxsize=32)
def _dyadic_rule(mu: float):
    """12-point Gauss-Legendre panels halving toward both ends of [0, 1].

    The kernel is singular at u = 1 and g may carry a fractional power at
    u = 0; on each dyadic panel the integrand is analytic.  The same panel
    offsets f serve u = 1 - f at the singular end, where the kernel f^(-mu)
    is taken from f itself so it never cancels, and u = f at the data end.
    The sliver [1 - h, 1] is integrated with g frozen at u = 1, the sliver
    [0, h] by a midpoint term.
    """
    x, w = np.polynomial.legendre.leggauss(12)
    lo = 2.0 ** -np.arange(2.0, _DYADIC_LEVELS + 2.0)  # panel k is [lo, 2 lo]
    f = (lo[:, None] * (1.5 + 0.5 * x)).ravel()
    fw = (lo[:, None] * (0.5 * w)).ravel()
    h = lo[-1]
    nodes = np.concatenate([1.0 - f, f, [1.0, 0.5 * h]])
    slivers = [h ** (1.0 - mu) / (1.0 - mu), h * (1.0 - 0.5 * h) ** -mu]
    weights = np.concatenate([fw * f**-mu, fw * (1.0 - f) ** -mu, slivers])
    nodes.flags.writeable = weights.flags.writeable = False  # cached: shared by every call at this mu
    return nodes, weights


def _mapped_rule(mu: float):
    """Gauss-Jacobi rule in xi = (s/t)^lam, lam = default_lambda(mu); it absorbs the singular weight."""
    lam = default_lambda(mu)
    rule = to_fractional(gauss_jacobi(_ORACLE_POINTS, -mu, 1.0 / lam - 1.0), lam)
    return rule.nodes, rule.weights * singular_ratio(rule.z_nodes, lam, mu) / lam


def _apply_rule(rule, t, g: ArrayFn, mu: float):
    """t^(1-mu) * sum_k W_k g(t u_k) at every t of the array, 0 where t <= 0.

    ``g`` is called once, on the array t[..., None] * u of shape
    t.shape + (len(u),).
    """
    nodes, weights = rule
    t = np.asarray(t, dtype=float)
    tp = np.maximum(t, 0.0)
    vals = sample(g, tp[..., None] * nodes) @ weights
    return np.where(t > 0.0, tp ** (1.0 - mu) * vals, 0.0)[()]


def singular_integral(t, g: ArrayFn, mu: float):
    """int_0^t (t-s)^(-mu) g(s) ds at every t, by the dyadic-panel rule.

    A scalar t gives a scalar.  ``g`` is called once, on s of shape
    t.shape + (1202,); a g that also depends on t takes t[..., None].
    """
    return _apply_rule(_dyadic_rule(mu), t, g, mu)


def manufactured_forcing(
    y: ArrayFn,
    y_prime: ArrayFn,
    skeleton: VideProblem,
    exact_integrals: Optional[tuple[ArrayFn, ArrayFn]] = None,
) -> ArrayFn:
    """Forcing f1 that makes ``y`` the exact solution of ``skeleton``.

    Rearranges the equation: f1 = y' - a1 y - b1 y(eps t) - (K1 y) - (K2 y).
    Each weakly singular integral is evaluated at all t at once by the
    mapped Gauss-Jacobi rule, which gives the value, and by one oracle that
    checks it: ``exact_integrals``, a pair of callables giving (K1 y)(t) and
    (K2 y)(t) exactly, or the dyadic-panel rule when it is None.  Unless the
    two agree at every t to ``_ORACLE_TOL`` = 1e-9 times max(1, |I|), with I
    the oracle's value (1e-9 absolute where |I| <= 1, relative above it; a
    NaN never agrees), ``OracleDisagreement`` names the first t that fails.
    """
    mu, eps = skeleton.mu, skeleton.eps
    mapped = _mapped_rule(mu)
    oracles = exact_integrals or (None, None)

    def f1(t):
        t = np.asarray(t, dtype=float)
        total = y_prime(t) - skeleton.a1(t) * y(t) - skeleton.b1(t) * y(eps * t)
        for horizon, kernel, exact in zip((t, eps * t), (skeleton.k1, skeleton.k2), oracles):
            g = lambda s: kernel(t[..., None], s) * y(s)  # noqa: E731
            i = _apply_rule(mapped, horizon, g, mu)
            i_alt = singular_integral(horizon, g, mu) if exact is None else exact(t)
            tol = _ORACLE_TOL * np.maximum(1.0, np.abs(i_alt))
            bad = np.flatnonzero(~(np.abs(i - i_alt) <= tol))
            if bad.size:
                k = bad[0]
                raise OracleDisagreement(
                    f"singular-integral oracles disagree at t={np.ravel(t)[k]}: "
                    f"|{np.ravel(i)[k]} - {np.ravel(i_alt)[k]}| vs tol {np.ravel(tol)[k]:.3g}"
                )
            total = total - i
        return total

    return f1


def scaled_residual(scaled: ScaledProblem, phi: ArrayFn, phi_prime: ArrayFn, theta):
    """Residual of the rescaled equation at every theta for a candidate solution.

    Both Volterra terms are evaluated with the dyadic-panel oracle, so a
    correct (phi, phi', f_t) triple gives residuals at oracle accuracy.
    """
    mu, eps = scaled.mu, scaled.eps
    theta = np.asarray(theta, dtype=float)
    th = theta[..., None]
    i1 = singular_integral(theta, lambda eta: scaled.kbar1(th, eta) * phi(eta), mu)
    i2 = singular_integral(theta, lambda eta: scaled.kbar2(th, eta) * phi(eps * eta), mu)
    rhs = (
        scaled.a_t(theta) * phi(theta)
        + scaled.b_t(theta) * phi(eps * theta)
        + scaled.f_t(theta)
        + i1
        + i2
    )
    return phi_prime(theta) - rhs


# ---------------------------------------------------------------------------
# benchmark registry
# ---------------------------------------------------------------------------

# the f1 variants of 5.1-5.3: manufactured from the exact solution, or as printed
FORCINGS = ("corrected", "printed")


def _power_integrals(terms, mu: float, eps: float) -> tuple[ArrayFn, ArrayFn]:
    """The exact memory integrals of 5.1-5.3, whose g(s) y(s) is sum c s^p over ``terms``.

    int_0^h (h-s)^(-mu) s^p ds = B(1-mu, p+1) h^(p+1-mu), with h = t for
    K1 = -g and h = eps t for K2 = g; both are 0 where t <= 0.
    """
    scaled = [(c * beta(1.0 - mu, p + 1.0), p + 1.0 - mu) for c, p in terms]

    def integral(h):
        h = np.maximum(h, 0.0)
        return sum(c * h**q for c, q in scaled)

    return (lambda t: -integral(t)), (lambda t: integral(eps * t))


def _manufactured(
    label: str,
    g: ArrayFn,
    y: ArrayFn,
    yp: ArrayFn,
    printed: ArrayFn,
    terms,
    mu: float,
    eps: float,
    T: float,
    forcing: str,
) -> VideProblem:
    """The equation shared by 5.1-5.3: a1 = -1, b1 = 1, K1 = -g(s), K2 = g(s), y0 = 0.

    Its f1 is ``printed``, or manufactured from the exact solution (y, yp)
    and checked against the closed-form integrals of g(s) y(s) = sum c s^p
    over the (c, p) ``terms``.
    """
    if forcing not in FORCINGS:
        raise ValueError(f"forcing must be one of {FORCINGS}, got {forcing!r}")
    problem = VideProblem(
        a1=lambda t: -1.0,
        b1=lambda t: 1.0,
        f1=printed,
        k1=lambda t, s: -g(s),
        k2=lambda t, s: g(s),
        mu=mu,
        eps=eps,
        T=T,
        y0=0.0,
        exact=y,
        exact_deriv=yp,
        label=label,
    )
    if forcing == "printed":
        return problem
    exact_integrals = _power_integrals(terms, mu, eps)
    return replace(problem, f1=manufactured_forcing(y, yp, problem, exact_integrals))


def _example_5_1(mu: float = 0.5, eps: float = 0.5, T: float = 1.0, forcing: str = "corrected") -> VideProblem:
    """Exponentially damped kernels, exact solution y(t) = t exp(-t^(1-mu))."""
    om = 1.0 - mu

    def y(t):
        return t * np.exp(-(t**om))

    def yp(t):
        return np.exp(-(t**om)) * (1.0 - om * t**om)

    def printed(t):
        # circulated closed form; the Beta-term factor reads (1 + e^(2-mu))
        # where the manufactured forcing gives (1 - eps^(2-mu))
        return (
            (1.0 - om * t**om + t) * np.exp(-(t**om))
            + (1.0 + math.e ** (2.0 - mu)) * beta(om, 2.0) * t ** (2.0 - mu)
            - y(eps * t)
        )

    return _manufactured("5.1", lambda s: np.exp(s**om), y, yp, printed, [(1.0, 1.0)], mu, eps, T, forcing)


def _example_5_2(mu: float = 1.0 / 3.0, eps: float = 0.6, T: float = 0.5, forcing: str = "corrected") -> VideProblem:
    """Exponential kernels, exact solution y(t) = t^(2-mu) exp(-t)."""

    def y(t):
        return t ** (2.0 - mu) * np.exp(-t)

    def yp(t):
        return t ** (1.0 - mu) * np.exp(-t) * (2.0 - mu - t)

    def printed(t):
        return (
            (2.0 - mu) * t ** (1.0 - mu) * np.exp(-t)
            + beta(1.0 - mu, 3.0 - mu) * t ** (3.0 - 2.0 * mu) * (1.0 + math.e ** (3.0 - 2.0 * mu))
            - y(eps * t)
        )

    return _manufactured("5.2", np.exp, y, yp, printed, [(1.0, 2.0 - mu)], mu, eps, T, forcing)


def _example_5_3(mu: float = 0.5, eps: float = 0.5, T: float = 1.0, forcing: str = "corrected") -> VideProblem:
    """Two incommensurate powers: y(t) = (t^(1+w1) + t^(1+w2)) exp(-t)."""
    w1 = 0.5
    w2 = math.sqrt(2.0)

    def y(t):
        return (t ** (1.0 + w1) + t ** (1.0 + w2)) * np.exp(-t)

    def yp(t):
        return np.exp(-t) * (
            t**w1 * (1.0 + w1 - t) + t**w2 * (1.0 + w2 - t)
        )

    def printed(t):
        return (
            yp(t) + y(t) - y(eps * t)
            - beta(1.0 - mu, w1 + 2.0) * t ** (2.0 - mu + w1) * (math.e ** (2.0 - mu + w1) + 1.0)
            - beta(1.0 - mu, w2 + 2.0) * t ** (2.0 - mu + w2) * (math.e ** (2.0 - mu + w2) + 1.0)
        )

    terms = [(1.0, 1.0 + w1), (1.0, 1.0 + w2)]
    return _manufactured("5.3", np.exp, y, yp, printed, terms, mu, eps, T, forcing)


def _example_5_4(mu: float = 0.5, eps: float = 0.5, T: float = 0.5, y0: float = 3.0) -> VideProblem:
    """No closed-form solution; compared against a high-order reference run."""
    return VideProblem(
        a1=np.cos,
        b1=lambda t: np.exp(-t),
        f1=lambda t: np.sin(2.0 * t),
        k1=lambda t, s: -(1.0 + np.sin(t * s)),
        k2=lambda t, s: -(1.0 + np.cos(t * s)),
        mu=mu,
        eps=eps,
        T=T,
        y0=y0,
        label="5.4",
    )


_FACTORIES = {
    "5.1": _example_5_1,
    "5.2": _example_5_2,
    "5.3": _example_5_3,
    "5.4": _example_5_4,
}
EXAMPLE_KEYS = tuple(_FACTORIES)


def make_example(key: str, **overrides) -> VideProblem:
    """Build a registry problem with the given overrides; None keeps the default.

    The example's factory signature says which overrides it takes; any other
    raises ``ValueError``.
    """
    if key not in _FACTORIES:
        raise KeyError(f"unknown example {key!r}; choose from {EXAMPLE_KEYS}")
    factory = _FACTORIES[key]
    kwargs = {k: v for k, v in overrides.items() if v is not None}
    unknown = sorted(kwargs.keys() - inspect.signature(factory).parameters.keys())
    if unknown:
        raise ValueError(f"example {key} does not take {', '.join(unknown)}")
    return factory(**kwargs)

