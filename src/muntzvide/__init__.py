"""Muntz-Jacobi spectral collocation for weakly singular delay VIDEs.

Solves y'(t) = a1 y + b1 y(eps t) + f1 + (K1 y)(t) + (K2 y)(eps t) with
weakly singular kernels (t-s)^(-mu) on [0, T], using a collocation basis of
fractional powers theta^(k*lam) that absorbs the solution's initial-point
singularity.  See the README for the CLI and a library walkthrough.

Every name in the ``__all__`` of ``analysis``, ``collocation``,
``muntz_basis``, ``problem`` and ``quadrature`` is exported here; the
package's ``__all__`` is their lists joined, so each name is declared once.
"""

from . import analysis, collocation, muntz_basis, problem, quadrature
from .analysis import *  # noqa: F403
from .collocation import *  # noqa: F403
from .muntz_basis import *  # noqa: F403
from .problem import *  # noqa: F403
from .quadrature import *  # noqa: F403

__all__ = analysis.__all__ + collocation.__all__ + muntz_basis.__all__ + problem.__all__ + quadrature.__all__

__version__ = "0.1.0"
