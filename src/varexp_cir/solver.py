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
    "PathBatch",
    "PathOverflowError",
    "PicardReport",
    "band_exit_index",
    "euler_maruyama_truncated",
    "picard_solve",
    "simulate_batch",
]

POLICIES = ("full-truncation", "reflection")


class PathOverflowError(ArithmeticError):
    """A non-finite state was produced; carries the path and step index."""

    def __init__(self, step_index: int, path_index: int):
        self.step_index = step_index
        self.path_index = path_index
        super().__init__(f"non-finite state produced at path {path_index}, step {step_index}")


@dataclass(frozen=True)
class PathBatch:
    """Per-path states at the grid nodes kept, plus clamp statistics.

    model is the model the paths were simulated from; the analysis
    functions read its parameters and drift from here, so a batch
    cannot be checked against another model's. nodes holds the grid
    indices kept, increasing; values[:, k] is every path's state at node
    nodes[k] and compensated[:, k] the statistic v - sum f(v) dt there,
    both time-major. clamp_counts[i] is the number of steps of path i
    whose pre-clamp value was negative; path0 is row 0 at every node.
    """

    model: Model
    grid: TimeGrid
    nodes: np.ndarray
    values: np.ndarray
    compensated: np.ndarray
    clamp_counts: np.ndarray
    path0: np.ndarray

    @property
    def m_paths(self) -> int:
        return self.values.shape[0]

    @property
    def clamp_fraction(self) -> float:
        return float(self.clamp_counts.sum()) / (self.m_paths * self.grid.n_steps)

    def column(self, t: float) -> int:
        """The column holding grid time t; ValueError if it was not kept."""
        j = self.grid.index_of(t)
        if j not in self.nodes:
            raise ValueError(f"time {t} is not a node this path batch kept")
        return int(np.searchsorted(self.nodes, j))


def _euler(f, g, v0: float, grid: TimeGrid, increments: np.ndarray, policy, nodes):
    """The Euler kernel; increments has shape (m_paths, n_steps).

    v[j+1] = v[j] + f(v[j]) dt + g(v[j]) dW[j]. A positivity policy clamps
    (full truncation) or reflects the stored value, so the coefficients see
    max(v, 0) = v (v0 > 0, the clamp is idempotent); ``policy=None``
    applies none. Every path advances in the same elementwise arithmetic
    (numpy ufuncs are lane-consistent), so a row's values do not depend on
    the other rows of its batch. Each step's f(v) dt is also summed, in
    step order, into the martingale compensator. Returns, time-major at
    the grid indices in nodes (increasing), the state and the state minus
    the compensator, then the clamp counts and row 0 at every node.
    """
    if increments.ndim != 2 or increments.shape[1] != grid.n_steps or not len(increments):
        raise ValueError("increments must have shape (m_paths, grid.n_steps), m_paths >= 1")
    dt = grid.dt
    m_paths, n_steps = increments.shape
    values, compensated = (np.empty((m_paths, len(nodes)), order="F") for _ in range(2))
    path0, clamps = np.empty(n_steps + 1), np.zeros(m_paths, dtype=np.int64)
    v, compensator, k = np.full(m_paths, v0), 0.0, 0
    # The isfinite check reports an overflow, so numpy's warning is silenced: printed
    # once per process, it would make stderr depend on how many workers walked the run.
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n_steps + 1):
            if j:
                fd = f(v) * dt
                raw = v + fd + g(v) * increments[:, j - 1]
                if not np.isfinite(raw).all():
                    path_idx = int(np.flatnonzero(~np.isfinite(raw))[0])
                    raise PathOverflowError(step_index=j, path_index=path_idx)
                if policy is None:
                    v = raw
                else:
                    clamps += raw < 0.0
                    v = np.maximum(raw, 0.0) if policy == "full-truncation" else np.abs(raw)
                compensator = compensator + fd if j > 1 else fd
            path0[j] = v[0]
            if k < len(nodes) and nodes[k] == j:
                values[:, k], compensated[:, k] = v, v - compensator
                k += 1
    return values, compensated, clamps, path0


def simulate_batch(
    model: Model, batch: BrownianBatch, policy: str = "full-truncation", nodes=None
) -> PathBatch:
    """Simulate every path of the batch, keeping the grid indices in nodes
    (every node by default).

    Full truncation: v[j+1] = v[j] + f(v[j]+) dt + g(v[j]+) dW[j],
    stored clamped at zero; reflection stores |v[j+1]| instead. Each
    row's result is independent of how paths are grouped or ordered,
    so a run walked in chunks of rows gives the rows of one batch.
    Raises PathOverflowError (with the path and step index) if a state
    leaves the representable range.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown positivity policy {policy!r}; expected one of {POLICIES}")
    n_steps = batch.grid.n_steps
    # sorted(set()), not np.unique, which loads numpy.ma on its first call
    nodes = np.arange(n_steps + 1) if nodes is None else np.array(
        sorted(set(np.asarray(nodes, dtype=int).flat)), dtype=int
    )
    if nodes.size == 0 or nodes[0] < 0 or nodes[-1] > n_steps:
        raise ValueError(f"nodes must be a nonempty set of grid indices in [0, {n_steps}]")
    values, compensated, clamps, path0 = _euler(
        *coefficients(model), model.params.v0, batch.grid, batch.increments, policy, nodes
    )
    for a in (nodes, values, compensated, path0):
        a.setflags(write=False)
    return PathBatch(model, batch.grid, nodes, values, compensated, clamps, path0)


def euler_maruyama_truncated(
    tp: TruncationParams,
    model: Model,
    grid: TimeGrid,
    increments: np.ndarray,
) -> np.ndarray:
    """Plain Euler recursion on the band-truncated coefficients, one row
    of (m_paths, n_steps + 1) values per row of (m_paths, n_steps)
    increments.

    No positivity policy is applied: the truncated coefficients are
    globally Lipschitz, so the recursion is well defined for any state
    and is exactly the fixed point of the discrete Picard map.
    """
    f_n, g_n = truncated_coefficients(tp, model)
    increments = np.asarray(increments, dtype=float)
    return _euler(f_n, g_n, model.params.v0, grid, increments, None, range(grid.n_steps + 1))[0]


@dataclass(frozen=True)
class PicardReport:
    """Successive-approximation record.

    fixed_point holds the last iterate at the n_steps + 1 grid nodes.
    sup_diffs[k] is the sup-norm distance between iterates k and k+1
    over the grid nodes; the fitted envelope constant describes the
    (M*T)**k / k! decay shape and is diagnostic only.
    """

    iterations_used: int
    sup_diffs: tuple
    converged: bool
    fixed_point: np.ndarray
    rate_envelope_constant: float

    def to_dict(self) -> dict:
        """Every field but the fixed-point values."""
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
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be positive and finite")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    row = np.asarray(increments_row, dtype=float)
    if row.ndim != 1 or row.shape[0] != grid.n_steps:
        raise ValueError("increments_row must be one-dimensional and match the grid")

    f_n, g_n = truncated_coefficients(tp, model)
    dt = grid.dt
    v0 = model.params.v0

    v = np.full(grid.n_steps + 1, v0)
    sup_diffs = []
    converged = False
    # The isfinite check reports a blown-up iterate, so numpy's warnings are silenced
    with np.errstate(over="ignore", invalid="ignore"):
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
        fixed_point=v,
        rate_envelope_constant=_fit_rate_envelope(diffs, grid.horizon),
    )


def band_exit_index(tp: TruncationParams, values: np.ndarray) -> np.ndarray:
    """For each row of values, the first index outside tp.band, where the
    truncated coefficients equal the originals; values.shape[1] if the
    row never leaves."""
    lo, hi = tp.band
    outside = (values < lo) | (values > hi)
    return np.where(outside.any(axis=1), outside.argmax(axis=1), values.shape[1])
