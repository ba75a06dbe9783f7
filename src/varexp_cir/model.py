"""Mean-reverting diffusion models and their boundary analysis.

Three model families share the parameter record (kappa, theta, xi, v0):

* ``gm``  -- drift kappa*(theta - x), diffusion xi * x**p(x) with a
  state-dependent exponent p drawn from the exponent module;
* ``cir`` -- the classical square-root diffusion, i.e. ``gm`` with a
  constant exponent 1/2;
* ``pkm`` -- the constant-power family with drift kappa * x**a *
  (theta - x) and diffusion xi * x**b, a in {0, 1}, b in {1/2, 1, 3/2}.

The module also provides the differential form of the zero-boundary
non-attainability test and the linear-growth constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exponent import (
    NEAR_ZERO_RADIUS,
    ExponentFunction,
    check_state,
    constant_exponent,
    make_builtin,
    scalar_like,
)

__all__ = [
    "FellerReport",
    "Model",
    "ModelParams",
    "cir_model",
    "coefficients",
    "diffusion",
    "drift",
    "feller_check",
    "feller_function",
    "gm_model",
    "growth_constant",
    "parse_model",
    "pkm_model",
]

PKM_A_VALUES = (0, 1)
PKM_B_VALUES = (0.5, 1.0, 1.5)

#: Tolerance used to decide whether p(0+) equals 1/2.
P_HALF_TOL = 1e-9


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the mean-reverting diffusion, all strictly positive.

    kappa : speed of mean reversion (1/time)
    theta : long-run level (state units)
    xi    : volatility scale
    v0    : initial state
    """

    kappa: float
    theta: float
    xi: float
    v0: float

    def __post_init__(self):
        for name in ("kappa", "theta", "xi", "v0"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be strictly positive and finite, got {value}")

    def to_dict(self) -> dict:
        return {"kappa": self.kappa, "theta": self.theta, "xi": self.xi, "v0": self.v0}


@dataclass(frozen=True)
class Model:
    """Drift kappa * x**a * (theta - x) and diffusion xi * x**p(x).

    Build via gm_model / cir_model / pkm_model. ``exponent`` is the
    effective diffusion exponent: the variable p for ``gm``, the
    constant 1/2 for ``cir`` and the constant b for ``pkm`` (possibly
    outside [1/2, 1], which is why the unchecked constant constructor is
    used). ``kind`` only names the model.
    """

    params: ModelParams
    kind: str
    exponent: ExponentFunction
    a: int = 0

    @property
    def b(self) -> float | None:
        """The diffusion power of a constant exponent, None otherwise."""
        return self.exponent.constant

    @property
    def model_id(self) -> str:
        """Filesystem-friendly identifier, e.g. ``gm_p1`` or ``pkm_a1_b1.5``."""
        if self.kind == "gm":
            return "gm_" + self.exponent.kind.replace(":", "_")
        if self.kind == "pkm":
            return f"pkm_a{self.a}_b{self.b:g}"
        return self.kind


def gm_model(params: ModelParams, exponent: ExponentFunction) -> Model:
    """Variable-exponent model with diffusion xi * x**p(x)."""
    return Model(params=params, kind="gm", exponent=exponent)


def cir_model(params: ModelParams) -> Model:
    """Classical square-root diffusion xi * sqrt(x): the constant exponent 1/2."""
    return Model(params=params, kind="cir", exponent=constant_exponent(0.5))


def pkm_model(params: ModelParams, a: int, b: float) -> Model:
    """Constant-power model with drift kappa * x**a * (theta - x)."""
    if a not in PKM_A_VALUES:
        raise ValueError(f"pkm drift power a must be 0 or 1, got {a}")
    if b not in PKM_B_VALUES:
        raise ValueError(f"pkm diffusion power b must be one of {PKM_B_VALUES}, got {b}")
    return Model(params=params, kind="pkm", exponent=constant_exponent(b), a=int(a))


def parse_model(spec: str, params: ModelParams) -> Model:
    """Build a model from its selection string.

    Grammar: ``"gm:<exponent-spec>" | "cir" | "pkm:a=<0|1>,b=<0.5|1|1.5>"``
    where ``<exponent-spec>`` follows the exponent selection grammar.
    """
    if spec == "cir":
        return cir_model(params)
    if spec.startswith("gm:"):
        return gm_model(params, make_builtin(spec[len("gm:"):]))
    if spec.startswith("pkm:"):
        fields = {}
        for piece in spec[len("pkm:"):].split(","):
            key, _, value = piece.partition("=")
            fields[key.strip()] = value.strip()
        if set(fields) != {"a", "b"}:
            raise ValueError(f"malformed pkm spec: {spec!r}")
        try:
            return pkm_model(params, a=int(fields["a"]), b=float(fields["b"]))
        except ValueError as exc:
            raise ValueError(f"malformed pkm spec: {spec!r} ({exc})") from None
    raise ValueError(f"unknown model spec {spec!r}")


def coefficients(model: Model) -> tuple[Callable, Callable]:
    """Unvalidated vectorized (drift, diffusion) closures.

    Fast path for the solvers: callers must guarantee states are
    nonnegative and finite before applying the diffusion (the
    full-truncation scheme clamps states first).
    """
    kappa, theta, xi = model.params.kappa, model.params.theta, model.params.xi
    if model.a == 0:
        f = lambda x: kappa * (theta - x)
    else:
        f = lambda x: kappa * x * (theta - x)
    c = model.exponent.constant
    if c is None:
        p = model.exponent.func
        return f, lambda x: xi * np.power(x, p(x))
    return f, lambda x: xi * np.power(x, c)


def drift(model: Model, x) -> float | np.ndarray:
    """Drift coefficient at state x >= 0."""
    f, _ = coefficients(model)
    return scalar_like(x, f(check_state(x)))


def diffusion(model: Model, x) -> float | np.ndarray:
    """Diffusion coefficient at state x >= 0, with 0**p := 0.

    Negative states are rejected; the solvers clamp before calling.
    """
    _, g = coefficients(model)
    return scalar_like(x, g(check_state(x)))


def growth_constant(model: Model) -> float:
    """Linear-growth constant K with |f|^2 v |g|^2 <= K(1 + x^2) on x >= 0.

    Closed form max(2*kappa^2*max(theta^2, 1), xi^2), valid because
    x**(2p) <= 1 + x^2 whenever p in [1/2, 1]. Verified on an internal
    grid before returning. Models with superlinear coefficients (drift
    power a = 1 or an exponent above 1, such as pkm's b = 3/2) admit no
    such constant and are rejected.
    """
    if model.a == 1 or model.exponent.declared_pplus > 1.0:
        raise ValueError("growth constant undefined: coefficients are superlinear")
    kappa, theta, xi = model.params.kappa, model.params.theta, model.params.xi
    K = max(2.0 * kappa**2 * max(theta**2, 1.0), xi**2)
    grid = np.linspace(0.0, 1e3, 2049)
    f, g = coefficients(model)
    bound = K * (1.0 + grid**2)
    if np.any(f(grid) ** 2 > bound) or np.any(g(grid) ** 2 > bound):
        raise AssertionError("growth constant failed its internal grid check")
    return K


def feller_function(model: Model, x) -> float | np.ndarray:
    """Boundary test function T(x) = f(x) - 1/2 d(g^2)/dx at x > 0.

    Expanded form: f(x) - xi^2 * x**(2 p(x)) * (p'(x) ln x + p(x)/x).
    """
    xa = check_state(x, "boundary test argument", "positive")
    f, _ = coefficients(model)
    exp_fn = model.exponent
    p = np.asarray(exp_fn.func(xa), dtype=float)
    dp = np.asarray(exp_fn.deriv(xa), dtype=float)
    xi = model.params.xi
    out = f(xa) - xi**2 * np.power(xa, 2.0 * p) * (dp * np.log(xa) + p / xa)
    return scalar_like(x, out)


@dataclass(frozen=True)
class FellerReport:
    """Outcome of the zero-boundary non-attainability test.

    ``analytic_limit`` is the closed-form limit of the boundary test
    function at 0+; the numeric profile samples it on a log grid near
    zero so a sign contradiction can demote the verdict to
    inconclusive. For constant exponent 1/2 the report also states the
    classical condition 2*kappa*theta >= xi^2.
    """

    analytic_limit: float
    numeric_profile: tuple
    criterion_used: str
    verdict: str
    p_at_zero: float
    classical_lhs: float | None = None
    classical_rhs: float | None = None
    classical_holds: bool | None = None

    def to_dict(self) -> dict:
        d = {
            "analytic_limit": self.analytic_limit,
            "criterion_used": self.criterion_used,
            "verdict": self.verdict,
            "p_at_zero": self.p_at_zero,
            "numeric_profile": [[x, t] for x, t in self.numeric_profile],
        }
        if self.classical_holds is not None:
            d["classical_lhs_2kt"] = self.classical_lhs
            d["classical_rhs_xi2"] = self.classical_rhs
            d["classical_holds"] = self.classical_holds
        return d


def feller_check(model: Model) -> FellerReport:
    """Classify the zero boundary as non-attainable / attainable.

    The limit of the boundary test function at 0+ splits on the
    exponent value at zero: above 1/2 the diffusion term vanishes and
    the limit is the drift limit; at exactly 1/2 (within tolerance) the
    term x**(2p-1) * p contributes 1/2, so the limit picks up -xi^2/2.
    The verdict is non-attainable iff the limit is nonnegative and the
    numeric profile shows no contradicting sign below x = 1e-6.
    """
    params = model.params
    kappa, theta, xi = params.kappa, params.theta, params.xi

    exp_fn = model.exponent
    p_zero = float(exp_fn.func(1e-12))
    drift_limit = float(coefficients(model)[0](0.0))

    constant_half = (
        model.a == 0 and exp_fn.constant is not None and abs(p_zero - 0.5) <= P_HALF_TOL
    )
    if constant_half:
        criterion = "constant_half"
        analytic_limit = drift_limit - xi**2 / 2.0
    elif p_zero > 0.5 + P_HALF_TOL:
        criterion = "p0_above_half"
        analytic_limit = drift_limit
    elif abs(p_zero - 0.5) <= P_HALF_TOL:
        criterion = "p0_equal_half"
        analytic_limit = drift_limit - xi**2 / 2.0
    else:
        # below 1/2 the diffusion term diverges; the limit is -inf
        criterion = "p0_equal_half"
        analytic_limit = -math.inf

    try:
        xs = np.geomspace(1e-10, NEAR_ZERO_RADIUS, 200)
        ts = np.asarray(feller_function(model, xs), dtype=float)
        profile_ok = bool(np.all(np.isfinite(ts)))
    except (ValueError, FloatingPointError, ZeroDivisionError):
        xs = np.array([])
        ts = np.array([])
        profile_ok = False
    profile = tuple(zip(xs.tolist(), ts.tolist()))

    if not profile_ok:
        verdict = "inconclusive"
    elif analytic_limit >= 0.0:
        near = xs < 1e-6
        tol_neg = 1e-9 * max(1.0, abs(analytic_limit))
        contradiction = bool(np.any(ts[near] < -tol_neg))
        verdict = "inconclusive" if contradiction else "non-attainable"
    else:
        verdict = "attainable"

    classical_lhs = classical_rhs = classical_holds = None
    if constant_half:
        classical_lhs = 2.0 * kappa * theta
        classical_rhs = xi**2
        classical_holds = classical_lhs >= classical_rhs

    return FellerReport(
        analytic_limit=analytic_limit,
        numeric_profile=profile,
        criterion_used=criterion,
        verdict=verdict,
        p_at_zero=p_zero,
        classical_lhs=classical_lhs,
        classical_rhs=classical_rhs,
        classical_holds=classical_holds,
    )

