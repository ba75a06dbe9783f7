"""Band truncation of the model coefficients and its Lipschitz constants.

The radial truncation maps the whole line into [-n, -1/n] u {0} u
[1/n, n]; composing the drift and diffusion with it yields globally
Lipschitz coefficients that agree with the originals on the middle band
[1/n + eps, n - eps]. The gap intervals are bridged with a monotone C^1
cubic Hermite so the truncation has a computable derivative bound.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .exponent import ExponentFunction, check_state, scalar_like
from .model import Model, coefficients

__all__ = [
    "LipschitzReport",
    "TruncationParams",
    "lipschitz_constants",
    "rho_n",
    "theta_n",
    "theta_n_deriv",
    "truncated_coefficients",
    "truncated_drift",
    "truncated_diffusion",
]


#: Largest band index n at which the upper band edge resolves in double
#: precision: n - 1/(2 n**2) < n holds up to 185,363 and rounds to n
#: from 185,364 on, where the upper bridge and its zero slope at n vanish.
MAX_BAND = 185_363


@dataclass(frozen=True)
class TruncationParams:
    """Band index n in [2, MAX_BAND]; the gap width eps = 1/(2 n**2)
    follows from it and keeps the bands ordered, 1/n + eps < n - eps."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or not (2 <= self.n <= MAX_BAND):
            raise ValueError(f"band index n must be an integer in [2, {MAX_BAND}], got {self.n}")

    @property
    def epsilon(self) -> float:
        return 1.0 / (2.0 * self.n**2)

    @property
    def lower(self) -> float:
        return 1.0 / self.n

    @property
    def band(self) -> tuple[float, float]:
        """Interval on which the truncated coefficients equal the originals."""
        return (1.0 / self.n + self.epsilon, self.n - self.epsilon)


def _pieces(tp: TruncationParams, ra: np.ndarray):
    """The conditions selecting the pieces of theta_n (lower bridge,
    band, upper bridge; else flat) at the array ``ra``, and the
    coordinates t1, t2 in [0, 1] across the two bridges. At and below
    1/n, t1 = 0 and the lower bridge is the flat: value 1/n, slope 0."""
    n, eps, lo = tp.n, tp.epsilon, tp.lower
    t1 = np.minimum(np.maximum((ra - lo) / eps, 0.0), 1.0)
    t2 = np.minimum(np.maximum((ra - (n - eps)) / eps, 0.0), 1.0)
    return [ra < lo + eps, ra <= n - eps, ra < n], t1, t2


def _select(pieces, choices, default):
    """np.select over the three pieces of theta_n, as nested np.where,
    which costs less on the few-element arrays of each solver step."""
    (c0, c1, c2), (x0, x1, x2) = pieces, choices
    return np.where(c0, x0, np.where(c1, x1, np.where(c2, x2, default)))


def _theta(tp: TruncationParams, ra: np.ndarray) -> np.ndarray:
    n, eps, lo = tp.n, tp.epsilon, tp.lower
    # Outside the two open gaps the pieces are the clamp onto [1/n, n], bit for bit: the
    # lower bridge at t1 = 0 is 1/n, the band is the identity, the default is n. A state
    # in a gap, or a nan, takes the pieces.
    if np.logical_and.reduce((ra <= lo) | ((ra >= lo + eps) & (ra <= n - eps)) | (ra >= n), None):
        return np.minimum(np.maximum(ra, lo), float(n))
    pieces, t1, t2 = _pieces(tp, ra)
    bridge_lo = lo + eps * t1**2 * (2.0 - t1)
    bridge_hi = (n - eps) + eps * t2 * (1.0 + t2 - t2**2)
    return _select(pieces, [bridge_lo, ra, bridge_hi], float(n))


def _theta_deriv(tp: TruncationParams, ra: np.ndarray) -> np.ndarray:
    pieces, t1, t2 = _pieces(tp, ra)
    slopes = [t1 * (4.0 - 3.0 * t1), 1.0, (1.0 - t2) * (1.0 + 3.0 * t2)]
    return _select(pieces, slopes, 0.0)


def _rho(tp: TruncationParams, xa: np.ndarray) -> np.ndarray:
    return _theta(tp, np.abs(xa)) * np.sign(xa)


def theta_n(tp: TruncationParams, r) -> float | np.ndarray:
    """Radial clamp onto [1/n, n]: constant 1/n below, identity on the
    middle band, constant n above, monotone C^1 Hermite bridges on the
    two gap intervals (value-matching, slope 0 on the flat side and 1
    on the identity side)."""
    return scalar_like(r, _theta(tp, check_state(r, "radial truncation argument")))


def theta_n_deriv(tp: TruncationParams, r) -> float | np.ndarray:
    """Analytic derivative of theta_n (0 on the flats, 1 on the band,
    t(4-3t) and (1-t)(1+3t) on the lower/upper bridges; both peak at 4/3)."""
    return scalar_like(r, _theta_deriv(tp, check_state(r, "radial truncation argument")))


def rho_n(tp: TruncationParams, x) -> float | np.ndarray:
    """Odd extension theta_n(|x|) * sgn(x); zero at zero, |rho_n| <= n."""
    return scalar_like(x, _rho(tp, check_state(x, "truncation argument", lower=None)))


def truncated_coefficients(tp: TruncationParams, model: Model):
    """Unvalidated (f_n, g_n) on all of R for finite states: the model's
    own :func:`coefficients` composed with the truncation, which the
    solvers use. f_n(x) = f(rho_n(x)) and g_n(x) = g(theta_n(x)); g_n
    extends the diffusion below the band floor by its constant value
    g(1/n), negative states included, since theta_n maps every state
    below 1/n to 1/n; so g_n stays globally Lipschitz."""
    if model.kind == "pkm":
        raise ValueError("band truncation is defined for the variable-exponent model only")
    f, g = coefficients(model)
    return lambda x: f(_rho(tp, x)), lambda x: g(_theta(tp, x))


def truncated_drift(tp: TruncationParams, model: Model, x) -> float | np.ndarray:
    """The model drift at rho_n(x); defined and Lipschitz on all of R."""
    f_n, _ = truncated_coefficients(tp, model)
    return scalar_like(x, f_n(check_state(x, "truncation argument", lower=None)))


def truncated_diffusion(tp: TruncationParams, model: Model, x) -> float | np.ndarray:
    """xi * rho_n(x)**p(rho_n(x)) for x >= 0.

    Negative inputs are rejected: the exponent is only defined on
    nonnegative states and a fractional power of a negative base has no
    principled value here. Solvers use the globally defined g_n of
    :func:`truncated_coefficients` instead.
    """
    _, g_n = truncated_coefficients(tp, model)
    xa = check_state(x, "truncated diffusion argument")
    return scalar_like(x, np.where(xa == 0.0, 0.0, g_n(xa)))  # rho_n(0) = 0


@dataclass(frozen=True)
class LipschitzReport:
    """Closed-form Lipschitz constants of the truncated coefficients.

    L_n bounds the radial truncation (1 + n * sup|phi'| with
    phi(r) = theta_n(r)/r measured on [1/n, n]); C_n bounds the
    derivative of z -> z**p(z) on [1/n, n]; the drift and diffusion
    constants follow as kappa*L_n and xi*L_n*C_n. The empirical
    quotient is the largest observed difference quotient of the
    truncated diffusion over random pairs in the band.
    """

    n: int
    epsilon: float
    L_n: float
    C_n: float
    Lf_n: float
    Lg_n: float
    Lhat_n: float
    empirical_sup_quotient: float
    phi_deriv_sup: float
    p_deriv_sup: float

    def to_dict(self) -> dict:
        """Every field but the two numerical sups behind C_n and L_n."""
        return {k: v for k, v in asdict(self).items() if k not in ("phi_deriv_sup", "p_deriv_sup")}


def _phi_deriv_sup(tp: TruncationParams) -> float:
    """Numerical sup of |phi'| on [1/n, n], phi(r) = theta_n(r)/r.

    Dense log grid plus linear refinement of the two gap intervals,
    where the bridge makes phi' largest.
    """
    n, eps = tp.n, tp.epsilon
    lo = 1.0 / n
    grids = [
        np.geomspace(lo, n, 10_000),
        np.linspace(lo, lo + eps, 2001),
        np.linspace(n - eps, n, 2001),
    ]
    r = np.concatenate(grids)
    phi_prime = (_theta_deriv(tp, r) * r - _theta(tp, r)) / r**2
    return float(np.max(np.abs(phi_prime)))


def _p_deriv_sup(fn: ExponentFunction, tp: TruncationParams) -> float:
    """Numerical sup of |p'| on [1/n, n] (where the mean-value bound is applied)."""
    grid = np.geomspace(1.0 / tp.n, tp.n, 10_000)
    return float(np.max(np.abs(np.asarray(fn.deriv(grid), dtype=float))))


def lipschitz_constants(tp: TruncationParams, model: Model) -> LipschitzReport:
    """Compute the closed-form constants and an empirical cross-check
    over 10,000 random pairs in the band (fixed seed 0)."""
    _, g_n = truncated_coefficients(tp, model)
    kappa, xi = model.params.kappa, model.params.xi
    exp_fn = model.exponent
    n = tp.n

    p_plus = exp_fn.declared_pplus
    dp_sup = _p_deriv_sup(exp_fn, tp)
    C_n = n**p_plus * (n * p_plus + dp_sup * math.log(n))

    phi_sup = _phi_deriv_sup(tp)
    L_n = 1.0 + n * phi_sup
    Lf_n = kappa * L_n
    Lg_n = xi * L_n * C_n
    Lhat_n = max(Lf_n**2, Lg_n**2)

    rng = np.random.default_rng(0)
    x = rng.uniform(1.0 / n, n, size=10_000)
    y = rng.uniform(1.0 / n, n, size=10_000)
    keep = x != y
    x, y = x[keep], y[keep]
    empirical = float(np.max(np.abs(g_n(x) - g_n(y)) / np.abs(x - y)))

    return LipschitzReport(
        n=n,
        epsilon=tp.epsilon,
        L_n=L_n,
        C_n=C_n,
        Lf_n=Lf_n,
        Lg_n=Lg_n,
        Lhat_n=Lhat_n,
        empirical_sup_quotient=empirical,
        phi_deriv_sup=phi_sup,
        p_deriv_sup=dp_sup,
    )
