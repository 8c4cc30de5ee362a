"""Parameter edges, exercised on purpose: mu near 1, eps near 0 or 1, small
lam, long horizons and large N.

These tests pin "finite or named", not "right": every solve either returns
finite values with a finite condition estimate, or raises one of the
solver's named errors.  A finite answer can still be wrong; 5.4 at T = 20 is
finite and far from its reference.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muntzvide import SOLVER_ERRORS, SolverConfig, build_grid, make_example, solve_once


def finite_or_named(p, n, lam):
    """Solve; True for a finite solution, False for a named error or a grid collapse."""
    try:
        _, sol, _ = solve_once(p, n, SolverConfig(lam=lam))
    except SOLVER_ERRORS:
        return False
    except ValueError as exc:
        assert "grid points collapse" in str(exc)
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
    with pytest.raises(ValueError, match="grid points collapse"):
        build_grid(14, -0.5, -0.5, 1.0 / 128.0)
    # lam = 1/64 keeps theta_0 positive even at N = 128, and the solve is finite
    assert build_grid(128, -0.5, -0.5, 1.0 / 64.0).points[0] > 0.0
    assert finite_or_named(make_example("5.4"), 128, 1.0 / 64.0)
