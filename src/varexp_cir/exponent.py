"""Variable exponent functions for state-dependent diffusion powers.

The diffusion coefficient of the generalized mean-reverting model is
``xi * x**p(x)`` where ``p`` is a differentiable function of the state.
Admissible exponents stay inside [1/2, 1] and have a bounded derivative
near zero; this module provides the built-in exponent family, constant
exponents, user-supplied custom exponents, and a numerical validator for
the admissibility conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ExponentFunction",
    "GridConfig",
    "HypothesisReport",
    "HypothesisViolationError",
    "constant_exponent",
    "custom_exponent",
    "eval_dp",
    "eval_p",
    "make_builtin",
    "validate_hypotheses",
]

#: Default validation tolerance on the [1/2, 1] range check.
RANGE_TOL = 1e-12


class HypothesisViolationError(ValueError):
    """An exponent function violates the admissibility bounds."""


@dataclass(frozen=True)
class ExponentFunction:
    """A state-dependent exponent p(.) with its analytic derivative.

    Parameters
    ----------
    kind : str
        Identifier: ``"p1"``, ``"p2"``, ``"p3"``, ``"const:<c>"`` or
        ``"custom"``.
    func : callable
        Vectorized map from state x >= 0 to the exponent value.
    deriv : callable
        Vectorized analytic derivative dp/dx.
    declared_pminus, declared_pplus : float
        Declared infimum / supremum of p over x >= 0.
    delta : float
        Radius of the neighbourhood of zero on which the derivative
        bound is declared (any positive value works for the builtins,
        which have globally bounded derivatives; kept explicit so the
        boundary test can reuse it).
    dsup : float
        Declared sup of ``|p'|`` on (0, delta).
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
    delta: float = 1.0
    dsup: float = math.inf
    constant: float | None = None

    def __call__(self, x):
        return self.func(x)


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


#: name -> (p, p', declared inf, declared sup, sup |p'| near zero)
_BUILTINS = {
    # 0.5 + 0.3*(1 - exp(-v)): ranges over [0.5, 0.8), p'(0+) = 0.3
    "p1": (lambda v: 0.5 + 0.3 * (1.0 - np.exp(-v)), lambda v: 0.3 * np.exp(-v), 0.5, 0.8, 0.3),
    # 0.6 + 0.2*tanh(v): ranges over [0.6, 0.8), p'(0+) = 0.2
    "p2": (lambda v: 0.6 + 0.2 * np.tanh(v), lambda v: 0.2 * _sech2_nonneg(v), 0.6, 0.8, 0.2),
    # 0.55 + 0.2*v/(1+v): ranges over [0.55, 0.75), p'(0+) = 0.2
    "p3": (lambda v: 0.55 + 0.2 * v / (1.0 + v), lambda v: 0.2 / (1.0 + v) ** 2, 0.55, 0.75, 0.2),
}


def constant_exponent(c: float) -> ExponentFunction:
    """Constant exponent p(x) = c, without the admissibility gate.

    Deliberately unchecked so that :func:`validate_hypotheses` can
    diagnose out-of-range constants; use :func:`make_builtin` with
    ``"const:<c>"`` for the gated constructor.
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
        delta=1.0,
        dsup=0.0,
        constant=c,
    )


def custom_exponent(
    func: Callable,
    deriv: Callable,
    pminus: float,
    pplus: float,
    delta: float = 1.0,
    dsup: float = math.inf,
) -> ExponentFunction:
    """Wrap a user-supplied exponent.

    Both callables must accept scalars and numpy arrays (the solvers
    evaluate them vectorized across paths); no automatic differentiation
    is attempted, the analytic derivative is the caller's contract and
    is cross-checked against finite differences by the validator tests.
    """
    return ExponentFunction(
        kind="custom",
        func=func,
        deriv=deriv,
        declared_pminus=float(pminus),
        declared_pplus=float(pplus),
        delta=float(delta),
        dsup=float(dsup),
    )


def make_builtin(name: str) -> ExponentFunction:
    """Build an exponent from its selection string.

    Grammar: ``"p1" | "p2" | "p3" | "const:<float>"``. Constant
    exponents are gated to [1/2, 1]; ``const:0.5`` reproduces the
    classical square-root diffusion exponent.
    """
    if name in _BUILTINS:
        func, deriv, pminus, pplus, dsup = _BUILTINS[name]
        return ExponentFunction(name, func, deriv, pminus, pplus, delta=1.0, dsup=dsup)
    if name.startswith("const:"):
        try:
            c = float(name[len("const:"):])
        except ValueError:
            raise ValueError(f"malformed constant exponent spec: {name!r}") from None
        if not math.isfinite(c):
            raise ValueError("constant exponent must be finite")
        if not (0.5 <= c <= 1.0):
            raise HypothesisViolationError(
                f"constant exponent {c} outside the admissible range [1/2, 1]"
            )
        return constant_exponent(c)
    raise ValueError(f"unknown exponent function {name!r}")


@dataclass(frozen=True)
class GridConfig:
    """Evaluation grid for the numerical hypothesis check.

    A log-spaced grid on [x_min, x_max] approximates the inf/sup over
    x >= 0; a dense log-spaced sample on (0, delta) probes the
    derivative bound near zero.
    """

    x_min: float = 1e-12
    x_max: float = 1e12
    n_points: int = 10_000
    n_near_zero: int = 2_000

    def main_grid(self) -> np.ndarray:
        if self.n_points < 2 or self.x_min <= 0 or self.x_max <= self.x_min:
            raise ValueError("invalid hypothesis-check grid")
        return np.geomspace(self.x_min, self.x_max, self.n_points)

    def near_zero_grid(self, delta: float) -> np.ndarray:
        if self.n_near_zero < 2:
            raise ValueError("invalid hypothesis-check grid")
        hi = min(delta, self.x_max)
        # stay strictly inside (0, delta)
        return np.geomspace(self.x_min, hi, self.n_near_zero + 1)[:-1]


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the numerical admissibility check.

    ``passed`` is true iff ``observed_inf >= 1/2 - tol``,
    ``observed_sup <= 1 + tol`` and the derivative sup near zero is
    finite. The inf/sup are grid approximations; the grid bounds are
    recorded in ``grid_used``.
    """

    observed_inf: float
    observed_sup: float
    observed_dsup_near_zero: float
    p_at_zero_plus: float
    grid_used: str
    passed: bool
    failing_clause: str | None
    tol: float = RANGE_TOL

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else f"fail({self.failing_clause})"

    def to_dict(self) -> dict:
        return {
            "observed_inf": self.observed_inf,
            "observed_sup": self.observed_sup,
            "observed_dsup_near_zero": self.observed_dsup_near_zero,
            "p_at_zero_plus": self.p_at_zero_plus,
            "grid_used": self.grid_used,
            "verdict": self.verdict,
            "tol": self.tol,
        }


def validate_hypotheses(
    fn: ExponentFunction,
    grid_cfg: GridConfig | None = None,
    tol: float = RANGE_TOL,
) -> HypothesisReport:
    """Check the admissibility conditions on a finite grid.

    The range condition (p stays inside [1/2, 1]) is checked over a
    log-spaced grid; the near-zero derivative bound is checked on a
    dense sample of (0, delta). The value p(0+) is estimated by
    evaluation at x_min (all supported functions are continuous at 0).
    """
    cfg = grid_cfg or GridConfig()
    grid = cfg.main_grid()
    near_zero = cfg.near_zero_grid(fn.delta)

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
    p_zero = float(fn.func(cfg.x_min))

    failing = None
    if observed_inf < 0.5 - tol:
        failing = "inf_below_half"
    elif observed_sup > 1.0 + tol:
        failing = "sup_above_one"
    elif not math.isfinite(dsup_near_zero):
        failing = "derivative_unbounded_near_zero"

    grid_desc = (
        f"log[{cfg.x_min:g},{cfg.x_max:g}]x{cfg.n_points}"
        f"+near-zero log(0,{fn.delta:g})x{cfg.n_near_zero}"
    )
    return HypothesisReport(
        observed_inf=observed_inf,
        observed_sup=observed_sup,
        observed_dsup_near_zero=dsup_near_zero,
        p_at_zero_plus=p_zero,
        grid_used=grid_desc,
        passed=failing is None,
        failing_clause=failing,
        tol=tol,
    )
