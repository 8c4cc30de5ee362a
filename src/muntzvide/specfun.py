"""The Beta function.

Every Gauss weight, Muntz-monomial moment and closed-form forcing term
downstream is a ratio of Gamma values, so the accuracy here bounds the
exactness checks of the whole rule hierarchy.
"""

import math

__all__ = ["beta"]


def beta(a: float, b: float) -> float:
    """Beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b) for a, b > 0.

    Evaluated in log space, so large parameters (the weighted norms use
    exponents like m + 1/lam - 1) cannot overflow intermediate Gammas.
    """
    if not (a > 0 and b > 0):
        raise ValueError(f"beta requires positive arguments, got ({a}, {b})")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
