import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muntzvide import beta

# frozen from 50-digit tanh-sinh quadrature of the defining integrals
B_HALF_TWO = 4.0 / 3.0  # oracle quad of t^(-1/2)(1-t) on [0,1] agrees to 27 digits
B_23_83 = 0.73335364926399185036901104878537106670794084490


def test_beta_trivial():
    assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-15)


def test_beta_half_two():
    # hand simplification Gamma(1/2)Gamma(2)/Gamma(5/2) = 4/3, confirmed by
    # high-precision quadrature of the defining integral
    assert beta(0.5, 2.0) == pytest.approx(B_HALF_TWO, rel=1e-14)


def test_beta_two_thirds_eight_thirds():
    # value needed by the mu = 1/3 benchmark forcing; quadrature oracle
    assert beta(2.0 / 3.0, 8.0 / 3.0) == pytest.approx(B_23_83, rel=1e-13)


@pytest.mark.parametrize("args", [(0.0, 1.0), (1.0, 0.0), (-2.0, 3.0)])
def test_beta_domain(args):
    with pytest.raises(ValueError):
        beta(*args)


@settings(deadline=None, max_examples=100)
@given(
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_beta_symmetry(a, b):
    x, y = beta(a, b), beta(b, a)
    assert abs(x - y) <= 1e-14 * max(abs(x), abs(y))


@settings(deadline=None, max_examples=100)
@given(
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_beta_recurrence(a, b):
    lhs = beta(a + 1.0, b)
    rhs = beta(a, b) * a / (a + b)
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)
