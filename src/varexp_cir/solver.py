"""Path solvers: Euler-Maruyama production scheme and a discrete Picard
fixed-point scheme used as an independent cross-check.

The Euler scheme evaluates coefficients at the clamped state max(v, 0)
and stores clamped values (full truncation), the standard
positivity-preserving discretization for square-root-type diffusions;
reflection is available as an alternative. The Picard solver iterates
the left-point integral map on the band-truncated coefficients; its
fixed point is algebraically the plain Euler recursion on those same
coefficients, which turns the successive-approximation construction
into a sharp numerical test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .model import Model, coefficients
from .stochastic import BrownianBatch, TimeGrid
from .truncation import TruncationParams, truncated_coefficients

# Not called here: bench/tracer.py wraps these two names in this module.
from .truncation import truncated_diffusion, truncated_drift  # noqa: F401

__all__ = [
    "Path",
    "PathBatch",
    "PathOverflowError",
    "PicardReport",
    "band_exit_index",
    "euler_maruyama",
    "euler_maruyama_truncated",
    "picard_solve",
    "simulate_batch",
]

POLICIES = ("full-truncation", "reflection")


class PathOverflowError(ArithmeticError):
    """A non-finite state was produced; carries the offending step index."""

    def __init__(self, step_index: int, path_index: int | None = None):
        self.step_index = step_index
        self.path_index = path_index
        where = f"step {step_index}" if path_index is None else f"path {path_index}, step {step_index}"
        super().__init__(f"non-finite state produced at {where}")


@dataclass(frozen=True)
class Path:
    """One discrete trajectory: values[j] approximates the state at t_j.

    clamp_count is the number of steps whose pre-clamp value was
    negative; with the full-truncation policy every stored value is
    nonnegative.
    """

    grid: TimeGrid
    values: np.ndarray
    clamp_count: int


@dataclass(frozen=True)
class PathBatch:
    """Per-path trajectories stacked row-wise, plus clamp statistics."""

    grid: TimeGrid
    values: np.ndarray
    clamp_counts: np.ndarray
    policy: str

    @property
    def m_paths(self) -> int:
        return self.values.shape[0]

    @property
    def clamp_fraction(self) -> float:
        return float(self.clamp_counts.sum()) / (self.m_paths * self.grid.n_steps)


def _check_policy(policy: str):
    if policy not in POLICIES:
        raise ValueError(f"unknown positivity policy {policy!r}; expected one of {POLICIES}")


def _euler(f, g, v0: float, grid: TimeGrid, increments: np.ndarray, policy: str | None):
    """The Euler kernel; increments has shape (..., n_steps).

    v[j+1] = v[j] + f(v[j]) dt + g(v[j]) dW[j]. With a positivity policy
    the coefficients see the clamped state max(v, 0) and the stored
    value is clamped (full truncation) or reflected; ``policy=None``
    applies no clamp. Vectorizes over leading axes, so a batch run
    performs bit-identical arithmetic to a per-path run (numpy ufuncs
    are lane-consistent).
    """
    dt = grid.dt
    lead = increments.shape[:-1]
    n_steps = increments.shape[-1]
    if n_steps != grid.n_steps:
        raise ValueError("increments length does not match the grid")

    values = np.empty(lead + (n_steps + 1,))
    values[..., 0] = v0
    clamps = np.zeros(lead, dtype=np.int64)
    v = np.full(lead, v0) if lead else np.float64(v0)
    for j in range(n_steps):
        vplus = v if policy is None else np.maximum(v, 0.0)
        raw = v + f(vplus) * dt + g(vplus) * increments[..., j]
        if not np.all(np.isfinite(raw)):
            bad = np.argwhere(~np.isfinite(np.atleast_1d(raw)))
            path_idx = int(bad[0][0]) if lead else None
            raise PathOverflowError(step_index=j + 1, path_index=path_idx)
        if policy is None:
            v = raw
        else:
            clamps += raw < 0.0
            v = np.maximum(raw, 0.0) if policy == "full-truncation" else np.abs(raw)
        values[..., j + 1] = v
    return values, clamps


def _one_row(increments_row, grid: TimeGrid) -> np.ndarray:
    row = np.asarray(increments_row, dtype=float)
    if row.ndim != 1 or row.shape[0] != grid.n_steps:
        raise ValueError("increments_row must be one-dimensional and match the grid")
    return row


def euler_maruyama(
    model: Model,
    grid: TimeGrid,
    increments_row: np.ndarray,
    policy: str = "full-truncation",
) -> Path:
    """Simulate one path of the model along the given increments.

    Full truncation: v[j+1] = v[j] + f(v[j]+) dt + g(v[j]+) dW[j],
    stored clamped at zero; reflection stores |v[j+1]| instead.
    Raises PathOverflowError (with the step index) if the state leaves
    the representable range.
    """
    _check_policy(policy)
    row = _one_row(increments_row, grid)
    values, clamps = _euler(*coefficients(model), model.params.v0, grid, row, policy)
    return Path(grid=grid, values=values, clamp_count=int(clamps))


def simulate_batch(
    model: Model,
    batch: BrownianBatch,
    policy: str = "full-truncation",
) -> PathBatch:
    """Simulate every path of the batch.

    Each row is advanced by the same kernel as euler_maruyama, so the
    result is independent of how paths are grouped or ordered.
    """
    _check_policy(policy)
    values, clamps = _euler(
        *coefficients(model), model.params.v0, batch.grid, batch.increments, policy
    )
    values.setflags(write=False)
    return PathBatch(grid=batch.grid, values=values, clamp_counts=clamps, policy=policy)


def euler_maruyama_truncated(
    tp: TruncationParams,
    model: Model,
    grid: TimeGrid,
    increments_row: np.ndarray,
) -> Path:
    """Plain Euler recursion on the band-truncated coefficients.

    No positivity policy is applied: the truncated coefficients are
    globally Lipschitz, so the recursion is well defined for any state
    and is exactly the fixed point of the discrete Picard map.
    """
    row = _one_row(increments_row, grid)
    values, _ = _euler(*truncated_coefficients(tp, model), model.params.v0, grid, row, None)
    return Path(grid=grid, values=values, clamp_count=0)


@dataclass(frozen=True)
class PicardReport:
    """Successive-approximation record.

    sup_diffs[k] is the sup-norm distance between iterates k and k+1
    over the grid nodes; the fitted envelope constant describes the
    (M*T)**k / k! decay shape and is diagnostic only.
    """

    iterations_used: int
    sup_diffs: tuple
    converged: bool
    fixed_point: Path
    rate_envelope_constant: float

    def to_dict(self) -> dict:
        """Every field but the fixed-point path."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "fixed_point"}


def _fit_rate_envelope(sup_diffs: np.ndarray, horizon: float) -> float:
    """Least-squares fit of log d_k ~ k log(M*T) - log k!, returning M."""
    k = np.arange(len(sup_diffs), dtype=float)
    mask = np.isfinite(sup_diffs) & (sup_diffs > 0.0) & (k > 0)
    if not np.any(mask):
        return math.nan
    kk = k[mask]
    y = np.log(sup_diffs[mask]) + np.array([math.lgamma(v + 1.0) for v in kk])
    c = float(np.sum(kk * y) / np.sum(kk * kk))
    return math.exp(c) / horizon


def picard_solve(
    tp: TruncationParams,
    model: Model,
    grid: TimeGrid,
    increments_row: np.ndarray,
    tol: float = 1e-9,
    k_max: int = 200,
) -> PicardReport:
    """Iterate the discrete Picard map on the truncated coefficients.

    Starting from the constant path v0, each sweep rebuilds the path
    from left-point Riemann/Ito sums of the previous iterate:

        v[k+1](t_j) = v0 + sum_{i<j} f_n(v[k](t_i)) dt
                         + sum_{i<j} g_n(v[k](t_i)) dW_i

    and stops when the sup-norm update d_k drops below tol. Failure to
    converge within k_max returns a partial report (converged=False)
    rather than raising.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    row = _one_row(increments_row, grid)

    f_n, g_n = truncated_coefficients(tp, model)
    dt = grid.dt
    v0 = model.params.v0

    v = np.full(grid.n_steps + 1, v0)
    sup_diffs = []
    converged = False
    for _ in range(k_max):
        left = v[:-1]
        steps = f_n(left) * dt + g_n(left) * row
        v_next = np.concatenate(([v0], v0 + np.cumsum(steps)))
        if not np.all(np.isfinite(v_next)):
            # blown-up iterate: report the partial history, do not crash
            sup_diffs.append(math.inf)
            break
        d = float(np.max(np.abs(v_next - v)))
        sup_diffs.append(d)
        v = v_next
        if d <= tol:
            converged = True
            break

    diffs = np.asarray(sup_diffs)
    return PicardReport(
        iterations_used=len(sup_diffs),
        sup_diffs=tuple(sup_diffs),
        converged=converged,
        fixed_point=Path(grid=grid, values=v, clamp_count=0),
        rate_envelope_constant=_fit_rate_envelope(diffs, grid.horizon),
    )


def band_exit_index(path: Path, n: int) -> int | None:
    """First grid index where the path leaves [1/n, n]; None if it never does."""
    if n < 1:
        raise ValueError("band index n must be >= 1")
    outside = (path.values < 1.0 / n) | (path.values > float(n))
    hits = np.flatnonzero(outside)
    return int(hits[0]) if hits.size else None
