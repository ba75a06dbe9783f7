"""Mean-reverting diffusions with state-dependent variable-exponent volatility.

The core model is dv = kappa*(theta - v) dt + xi * v**p(v) dW with an
admissible exponent p taking values in [1/2, 1]; the classical
square-root diffusion is the constant-exponent special case. The
package simulates these processes reproducibly, classifies the zero
boundary, constructs band-truncated Lipschitz coefficients with their
constants, cross-checks the Euler scheme against a Picard fixed point,
and verifies moment and martingale properties on Monte Carlo batches.
"""

__version__ = "0.1.0"

from . import analysis, exponent, model, solver, stochastic, truncation
from .analysis import *  # noqa: F403
from .exponent import *  # noqa: F403
from .model import *  # noqa: F403
from .solver import *  # noqa: F403
from .stochastic import *  # noqa: F403
from .truncation import *  # noqa: F403

# the public names of every module, which each declares in its own __all__
__all__ = sorted(
    analysis.__all__
    + exponent.__all__
    + model.__all__
    + solver.__all__
    + stochastic.__all__
    + truncation.__all__
)
