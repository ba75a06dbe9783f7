"""Monte Carlo statistics and executable forms of the solution properties.

Turns the model's structural guarantees into checks on simulated
batches: polynomial moment growth bounds, the uniform second-moment
ceiling from the linear-growth constant, the drift-compensated
martingale statistic, and terminal-distribution histograms.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .model import Model, ModelParams, growth_constant
from .solver import PathBatch
from .stochastic import TimeGrid

__all__ = [
    "Histogram",
    "MartingaleReport",
    "MomentReport",
    "check_moment_bounds",
    "empirical_moment",
    "martingale_report",
    "moment_bound",
    "second_moment_bound",
    "terminal_histogram",
]

#: Statistical acceptance threshold: 4 standard errors keeps the
#: false-failure probability per check below 1e-4.
SIGMA_FACTOR = 4.0


def default_checkpoints(grid: TimeGrid) -> tuple[float, ...]:
    """Quarter-horizon checkpoints {T/4, T/2, 3T/4, T}, snapped to grid nodes."""
    n = grid.n_steps
    indices = sorted({n // 4, n // 2, (3 * n) // 4, n} - {0})
    return tuple(float(j * grid.dt) for j in indices)


def _mean_stderr(col: np.ndarray) -> tuple[float, float]:
    """Sample mean of one column over paths and its standard error."""
    stderr = float(col.std(ddof=1) / math.sqrt(col.size)) if col.size > 1 else 0.0
    return float(col.mean()), stderr


def empirical_moment(batch: PathBatch, t: float, m: int) -> tuple[float, float]:
    """Sample mean of v(t)**m over paths and its standard error."""
    if m < 1:
        raise ValueError("moment order must be >= 1")
    if batch.m_paths < 1:
        raise ValueError("empty batch")
    return _mean_stderr(batch.values[:, batch.column(t)] ** m)


def moment_bound(params: ModelParams, m: int, t: float) -> tuple[float, float]:
    """Growth constant C_m and the m-th moment ceiling at time t.

    C_m = m*kappa*(theta+1) + (xi^2/2)*m*(m-1), and the ceiling is
    2**(m-1) * (1 + v0**m) * exp(C_m * t). Only orders m >= 2 are
    covered by the estimate. A ceiling beyond the largest double is
    returned as inf, which is still a true bound.
    """
    if not isinstance(m, (int, np.integer)) or m < 2:
        raise ValueError(f"moment order must be an integer >= 2, got {m}")
    if t < 0.0:
        raise ValueError("checkpoint must be nonnegative")
    kappa, theta, xi, v0 = params.kappa, params.theta, params.xi, params.v0
    C_m = m * kappa * (theta + 1.0) + (xi**2 / 2.0) * m * (m - 1)
    try:
        bound = 2.0 ** (m - 1) * (1.0 + v0**m) * math.exp(C_m * t)
    except OverflowError:
        bound = math.inf
    return C_m, bound


@dataclass(frozen=True)
class MomentReport:
    """One (order, checkpoint) comparison of empirical moment vs ceiling.

    satisfied is the plain inequality empirical <= bound; no tolerance
    is applied because the ceiling is slack by orders of magnitude at
    realistic parameters.
    """

    order: int
    checkpoint: float
    empirical: float
    stderr: float
    theoretical_bound: float
    C_m: float
    satisfied: bool

    def to_dict(self) -> dict:
        return asdict(self)


def check_moment_bounds(batch: PathBatch, orders=(2, 3, 4), checkpoints=None) -> list[MomentReport]:
    """One MomentReport per (order, checkpoint) pair, for the batch's model."""
    if checkpoints is None:
        checkpoints = default_checkpoints(batch.grid)
    reports = []
    for m in orders:
        for t in checkpoints:
            C_m, bound = moment_bound(batch.model.params, m, t)
            empirical, stderr = empirical_moment(batch, t, m)
            reports.append(
                MomentReport(
                    order=int(m),
                    checkpoint=float(t),
                    empirical=empirical,
                    stderr=stderr,
                    theoretical_bound=bound,
                    C_m=C_m,
                    satisfied=empirical <= bound,
                )
            )
    return reports


def second_moment_bound(model: Model, grid: TimeGrid) -> float:
    """Ceiling for E sup |v|^2 from the linear-growth constant:
    (1 + 3*v0^2) * exp(3*K*T*(T+4)), with deterministic initial state.

    Astronomically slack at realistic parameters; reported for sanity
    comparison only. A ceiling beyond the largest double is inf.
    """
    K = growth_constant(model)
    T = grid.horizon
    try:
        return (1.0 + 3.0 * model.params.v0**2) * math.exp(3.0 * K * T * (T + 4.0))
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class MartingaleReport:
    """Batch means of the drift-compensated statistic at checkpoints.

    In expectation the statistic stays at v0; satisfied requires every
    checkpoint mean within 4 standard errors plus a documented
    discretization allowance kappa*(theta+v0)*dt.
    """

    checkpoints: tuple
    mh_means: tuple
    mh_stderrs: tuple
    max_abs_drift: float
    satisfied: bool
    bias_allowance: float

    def to_dict(self) -> dict:
        return asdict(self)


def martingale_report(batch: PathBatch, checkpoints=None) -> MartingaleReport:
    """Check that M(t) = v(t) - sum_{t_i<t} f(v(t_i)) dt, the statistic the
    Euler kernel compensated as it stepped, has mean v0. On a path never
    clamped it telescopes to v0 + sum_{t_i<t} g(v(t_i)) dW_i exactly."""
    if checkpoints is None:
        checkpoints = default_checkpoints(batch.grid)
    if len(checkpoints) == 0:
        raise ValueError("at least one checkpoint is required")
    columns = [batch.column(t) for t in checkpoints]
    means, stderrs = zip(*(_mean_stderr(batch.compensated[:, k]) for k in columns))
    params = batch.model.params
    v0 = params.v0
    allowance = params.kappa * (params.theta + v0) * batch.grid.dt
    deviations = [abs(mu - v0) for mu in means]
    satisfied = all(
        dev <= SIGMA_FACTOR * se + allowance for dev, se in zip(deviations, stderrs)
    )
    return MartingaleReport(
        checkpoints=tuple(float(t) for t in checkpoints),
        mh_means=means,
        mh_stderrs=stderrs,
        max_abs_drift=max(deviations),
        satisfied=satisfied,
        bias_allowance=allowance,
    )


@dataclass(frozen=True)
class Histogram:
    """Equal-width histogram; densities integrate to one."""

    bin_edges: np.ndarray
    counts: np.ndarray
    densities: np.ndarray

    def to_dict(self) -> dict:
        return {
            "bin_edges": self.bin_edges.tolist(),
            "counts": self.counts.tolist(),
            "densities": self.densities.tolist(),
        }


def terminal_histogram(batch: PathBatch, t: float, n_bins: int) -> Histogram:
    """Histogram of the state at time t with equal-width bins on [min, max].

    A batch whose values at t are all identical yields a single bin of
    machine-epsilon-scaled width centered on the common value.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    vals = batch.values[:, batch.column(t)]
    lo, hi = float(vals.min()), float(vals.max())
    if lo == hi:
        half = max(abs(lo), 1.0) * np.finfo(float).eps
        edges = np.array([lo - half, lo + half])
        counts = np.array([vals.size], dtype=np.int64)
    else:
        counts, edges = np.histogram(vals, bins=n_bins, range=(lo, hi))
        counts = counts.astype(np.int64)
    widths = np.diff(edges)
    densities = counts / (vals.size * widths)
    return Histogram(bin_edges=edges, counts=counts, densities=densities)
