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
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .exponent import (
    GRID_MIN,
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
        for field in fields(self):
            value = getattr(self, field.name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{field.name} must be strictly positive and finite, got {value}")
            object.__setattr__(self, field.name, float(value))  # so the kernel steps in float64


@dataclass(frozen=True)
class Model:
    """Drift kappa * x**a * (theta - x) and diffusion xi * x**p(x).

    Build via gm_model / cir_model / pkm_model. ``exponent`` is the
    effective diffusion exponent: the variable p for ``gm``, the
    constant 1/2 for ``cir`` and the constant b for ``pkm`` (possibly
    outside [1/2, 1], which is why the unchecked constant constructor is
    used). ``model_id`` is a filesystem-friendly name, e.g. ``gm_p1`` or
    ``pkm_a1_b1.5``; it names the model's output files.
    """

    params: ModelParams
    model_id: str
    exponent: ExponentFunction
    a: int = 0

    @property
    def superlinear(self) -> bool:
        """Drift power 1 or an exponent above 1: no linear-growth bound, no band truncation."""
        return self.a == 1 or self.exponent.declared_pplus > 1.0


def gm_model(params: ModelParams, exponent: ExponentFunction) -> Model:
    """Variable-exponent model with diffusion xi * x**p(x)."""
    return Model(params, "gm_" + exponent.kind.replace(":", "_"), exponent)


def cir_model(params: ModelParams) -> Model:
    """Classical square-root diffusion xi * sqrt(x): the constant exponent 1/2."""
    return Model(params, "cir", constant_exponent(0.5))


def pkm_model(params: ModelParams, a: int, b: float) -> Model:
    """Constant-power model with drift kappa * x**a * (theta - x)."""
    if a not in PKM_A_VALUES:
        raise ValueError(f"pkm drift power a must be 0 or 1, got {a}")
    if b not in PKM_B_VALUES:
        raise ValueError(f"pkm diffusion power b must be one of {PKM_B_VALUES}, got {b}")
    return Model(params, f"pkm_a{int(a)}_b{b:g}", constant_exponent(b), int(a))


def parse_model(spec: str, params: ModelParams) -> Model:
    """Build a model from its selection string.

    Grammar: ``"gm:<exponent-spec>" | "cir" | "pkm:a=<0|1>,b=<0.5|1|1.5>"``
    where ``<exponent-spec>`` follows the exponent selection grammar. A
    ``gm`` model's constant exponent must be admissible, inside [1/2, 1].
    """
    if spec == "cir":
        return cir_model(params)
    if spec.startswith("gm:"):
        p = make_builtin(spec[len("gm:"):])
        if (c := p.constant) is not None and not 0.5 <= c <= 1.0:
            raise ValueError(f"constant exponent {c} outside the admissible range [1/2, 1]")
        return gm_model(params, p)
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
    grid before returning. A superlinear model (``Model.superlinear``,
    such as pkm's b = 3/2) admits no such constant and is rejected.
    """
    if model.superlinear:
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
    function at 0+ and decides the verdict; the numeric profile samples
    the function on a log grid near zero and can demote only a zero
    limit to inconclusive. For constant exponent 1/2 the report also
    states the classical condition 2*kappa*theta >= xi^2.
    """

    analytic_limit: float
    criterion_used: str
    verdict: str
    p_at_zero: float
    numeric_profile: tuple
    classical_lhs_2kt: float | None = None
    classical_rhs_xi2: float | None = None
    classical_holds: bool | None = None


def feller_check(model: Model) -> FellerReport:
    """Classify the zero boundary as non-attainable / attainable.

    The limit of the boundary test function at 0+ splits on the
    exponent value at zero: above 1/2 the diffusion term vanishes and
    the limit is the drift limit; at exactly 1/2 (within tolerance) the
    term x**(2p-1) * p contributes 1/2, so the limit picks up -xi^2/2.
    A limit above 1e-9 * max(1, |limit|) is non-attainable, as the test
    function is then positive near 0+; a negative one is attainable. A
    zero limit (pkm's a = 1) is inconclusive if the profile is negative
    below x = 1e-6, as is a profile that cannot be evaluated; a profile
    that is not finite raises ArithmeticError.
    """
    params = model.params
    kappa, theta, xi = params.kappa, params.theta, params.xi

    exp_fn = model.exponent
    p_zero = float(exp_fn.func(GRID_MIN))
    drift_limit = float(coefficients(model)[0](0.0))

    half = abs(p_zero - 0.5) <= P_HALF_TOL
    constant_half = half and model.a == 0 and exp_fn.constant is not None
    if half:
        criterion = "constant_half" if constant_half else "p0_equal_half"
        analytic_limit = drift_limit - xi**2 / 2.0
    elif p_zero > 0.5 + P_HALF_TOL:
        criterion = "p0_above_half"
        analytic_limit = drift_limit
    else:
        # below 1/2 the diffusion term diverges; the limit is -inf
        criterion = "p0_below_half"
        analytic_limit = -math.inf

    xs = np.geomspace(1e-10, NEAR_ZERO_RADIUS, 200)
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ts = np.asarray(feller_function(model, xs), dtype=float)
    except (ValueError, ZeroDivisionError):  # a custom exponent that cannot be evaluated
        xs = ts = np.array([])
    if not np.all(np.isfinite(ts)):
        raise ArithmeticError(f"{model.model_id}'s boundary test function is not finite near 0")
    profile = tuple(zip(xs.tolist(), ts.tolist()))

    tol = 1e-9 * max(1.0, abs(analytic_limit))
    if not profile:
        verdict = "inconclusive"
    elif analytic_limit > tol:
        verdict = "non-attainable"
    elif analytic_limit >= 0.0:  # a zero limit: the profile's sign below 1e-6 decides
        contradiction = bool(np.any(ts[xs < 1e-6] < -tol))
        verdict = "inconclusive" if contradiction else "non-attainable"
    else:
        verdict = "attainable"

    if not constant_half:
        return FellerReport(analytic_limit, criterion, verdict, p_zero, profile)
    lhs, rhs = 2.0 * kappa * theta, xi**2
    return FellerReport(analytic_limit, criterion, verdict, p_zero, profile, lhs, rhs, lhs >= rhs)
