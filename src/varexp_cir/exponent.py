"""Variable exponent functions for state-dependent diffusion powers.

The diffusion coefficient of the generalized mean-reverting model is
``xi * x**p(x)`` where ``p`` is a differentiable function of the state.
Admissible exponents stay inside [1/2, 1] and have a bounded derivative
near zero; this module provides the built-in exponent family, constant
exponents, and a numerical validator for the admissibility conditions.
A user-supplied exponent is an ``ExponentFunction`` of kind ``"custom"``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ExponentFunction",
    "HypothesisReport",
    "constant_exponent",
    "eval_dp",
    "eval_p",
    "make_builtin",
    "validate_hypotheses",
]

#: Validation tolerance on the [1/2, 1] range check.
RANGE_TOL = 1e-12

#: Radius of the neighbourhood of zero on which the derivative bound is
#: checked and the boundary profile is sampled.
NEAR_ZERO_RADIUS = 1.0

#: The range check's log-spaced grid approximating inf/sup over x >= 0,
#: and the size of the near-zero derivative sample.
GRID_MIN, GRID_MAX, GRID_POINTS = 1e-12, 1e12, 10_000
NEAR_ZERO_POINTS = 2_000


@dataclass(frozen=True)
class ExponentFunction:
    """A state-dependent exponent p(.) with its analytic derivative.

    Parameters
    ----------
    kind : str
        Identifier: ``"p1"``, ``"p2"``, ``"p3"``, ``"const:<c>"`` or
        ``"custom"``.
    func : callable
        Vectorized map from state x >= 0 to the exponent value; it must
        accept scalars and numpy arrays.
    deriv : callable
        Vectorized analytic derivative dp/dx; no derivative is computed
        for a custom exponent, so its correctness is the caller's.
    declared_pminus, declared_pplus : float
        Declared infimum / supremum of p over x >= 0.
    constant : float or None
        The value of a constant exponent, None for a varying one. The
        diffusion raises states to this scalar instead of an array of
        copies of it, which numpy computes as a square root at 1/2.
    """

    kind: str
    func: Callable
    deriv: Callable
    declared_pminus: float
    declared_pplus: float
    constant: float | None = None


def scalar_like(x, out):
    """Return ``out`` as a python float when ``x`` was scalar."""
    if np.ndim(x) == 0:
        return float(out)
    return out


def check_state(x, what: str = "state", lower: str | None = "nonnegative") -> np.ndarray:
    """``x`` as a float array; raises ``ValueError`` unless every entry is
    finite and, for ``lower`` "nonnegative" or "positive", of that sign."""
    xa = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xa)):
        raise ValueError(f"{what} must be finite")
    if (lower == "nonnegative" and np.any(xa < 0.0)) or (lower == "positive" and np.any(xa <= 0.0)):
        raise ValueError(f"{what} must be {lower}")
    return xa


def eval_p(fn: ExponentFunction, x) -> float | np.ndarray:
    """Evaluate the exponent at state ``x`` (scalar or array), x >= 0.

    Raises ``ValueError`` for negative or non-finite states.
    """
    return scalar_like(x, fn.func(check_state(x, "exponent argument")))


def eval_dp(fn: ExponentFunction, x) -> float | np.ndarray:
    """Evaluate dp/dx at state ``x`` (scalar or array), x > 0."""
    return scalar_like(x, fn.deriv(check_state(x, "exponent derivative argument", "positive")))


def _sech2_nonneg(v):
    # sech(v)^2 written to avoid cosh overflow for large v >= 0
    e = np.exp(-2.0 * np.asarray(v, dtype=float))
    return 4.0 * e / (1.0 + e) ** 2


#: name -> (p, p', declared inf, declared sup)
_BUILTINS = {
    # 0.5 + 0.3*(1 - exp(-v)): ranges over [0.5, 0.8), p'(0+) = 0.3
    "p1": (lambda v: 0.5 + 0.3 * (1.0 - np.exp(-v)), lambda v: 0.3 * np.exp(-v), 0.5, 0.8),
    # 0.6 + 0.2*tanh(v): ranges over [0.6, 0.8), p'(0+) = 0.2
    "p2": (lambda v: 0.6 + 0.2 * np.tanh(v), lambda v: 0.2 * _sech2_nonneg(v), 0.6, 0.8),
    # 0.55 + 0.2*v/(1+v): ranges over [0.55, 0.75), p'(0+) = 0.2
    "p3": (lambda v: 0.55 + 0.2 * v / (1.0 + v), lambda v: 0.2 / (1.0 + v) ** 2, 0.55, 0.75),
}


def constant_exponent(c: float) -> ExponentFunction:
    """Constant exponent p(x) = c for any finite c.

    Unchecked against [1/2, 1], so that :func:`validate_hypotheses` can
    diagnose an out-of-range constant; :func:`model.parse_model` refuses
    one for a ``gm`` model.
    """
    c = float(c)
    if not math.isfinite(c):
        raise ValueError("constant exponent must be finite")
    return ExponentFunction(
        kind=f"const:{c:g}",
        func=lambda v, _c=c: np.full_like(np.asarray(v, dtype=float), _c),
        deriv=lambda v: np.zeros_like(np.asarray(v, dtype=float)),
        declared_pminus=c,
        declared_pplus=c,
        constant=c,
    )


def make_builtin(name: str) -> ExponentFunction:
    """Build an exponent from its selection string.

    Grammar: ``"p1" | "p2" | "p3" | "const:<float>"``, any finite
    constant; ``const:0.5`` reproduces the classical square-root
    diffusion exponent.
    """
    if name in _BUILTINS:
        return ExponentFunction(name, *_BUILTINS[name])
    if name.startswith("const:"):
        try:
            c = float(name[len("const:"):])
        except ValueError:
            raise ValueError(f"malformed constant exponent spec: {name!r}") from None
        return constant_exponent(c)
    raise ValueError(f"unknown exponent function {name!r}")


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the numerical admissibility check.

    ``verdict`` is ``"pass"`` iff ``observed_inf >= 1/2 - tol``,
    ``observed_sup <= 1 + tol`` and the derivative sup near zero is
    finite, else ``"fail(<clause>)"`` naming the first clause that
    fails. The inf/sup are grid approximations; the grid bounds are
    recorded in ``grid_used``.
    """

    observed_inf: float
    observed_sup: float
    observed_dsup_near_zero: float
    p_at_zero_plus: float
    grid_used: str
    verdict: str
    tol: float = RANGE_TOL

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def validate_hypotheses(fn: ExponentFunction) -> HypothesisReport:
    """Check the admissibility conditions on a finite grid.

    The range condition (p stays inside [1/2, 1]) is checked over a
    log-spaced grid on [GRID_MIN, GRID_MAX]; the near-zero derivative
    bound is checked on a dense sample of (0, NEAR_ZERO_RADIUS). The
    value p(0+) is estimated by evaluation at GRID_MIN (all supported
    functions are continuous at 0).
    """
    grid = np.geomspace(GRID_MIN, GRID_MAX, GRID_POINTS)
    # stay strictly inside (0, NEAR_ZERO_RADIUS)
    near_zero = np.geomspace(GRID_MIN, NEAR_ZERO_RADIUS, NEAR_ZERO_POINTS + 1)[:-1]

    values = np.asarray(fn.func(grid), dtype=float)
    if values.shape != grid.shape or not np.all(np.isfinite(values)):
        raise ValueError(f"exponent evaluation failed on the check grid ({fn.kind})")

    derivs = np.asarray(fn.deriv(near_zero), dtype=float)
    if derivs.shape != near_zero.shape:
        raise ValueError(f"exponent derivative failed on the check grid ({fn.kind})")

    observed_inf = float(values.min())
    observed_sup = float(values.max())
    abs_d = np.abs(derivs)
    dsup_near_zero = float(abs_d.max()) if np.all(np.isfinite(abs_d)) else math.inf
    p_zero = float(fn.func(GRID_MIN))

    verdict = "pass"
    if observed_inf < 0.5 - RANGE_TOL:
        verdict = "fail(inf_below_half)"
    elif observed_sup > 1.0 + RANGE_TOL:
        verdict = "fail(sup_above_one)"
    elif not math.isfinite(dsup_near_zero):
        verdict = "fail(derivative_unbounded_near_zero)"

    grid_desc = (
        f"log[{GRID_MIN:g},{GRID_MAX:g}]x{GRID_POINTS}"
        f"+near-zero log(0,{NEAR_ZERO_RADIUS:g})x{NEAR_ZERO_POINTS}"
    )
    return HypothesisReport(
        observed_inf=observed_inf,
        observed_sup=observed_sup,
        observed_dsup_near_zero=dsup_near_zero,
        p_at_zero_plus=p_zero,
        grid_used=grid_desc,
        verdict=verdict,
    )
