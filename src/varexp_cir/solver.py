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
from dataclasses import dataclass, field

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
    "simulate_models",
]

POLICIES = ("full-truncation", "reflection")
#: picard_solve's default stopping tolerance; picard-verify also holds the fixed point
#: to the Euler recursion within it, in the sup norm.
PICARD_TOL = 1e-9
#: Values (models x rows) that one kernel step works on, so a tile stays in cache (BENCH_19.json).
_TILE = 2**15


class PathOverflowError(ArithmeticError):
    """A non-finite state was produced; carries the step, path and model index."""

    def __init__(self, step_index: int, path_index: int, model_index: int = 0):
        self.step_index, self.path_index, self.model_index = step_index, path_index, model_index
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


def _euler(fs, gs, v0s, grid, increments: np.ndarray, policy, nodes, out=None):
    """The Euler kernel on a stack of models; increments has shape (m_paths, n_steps).

    v[j+1] = v[j] + f(v[j]) dt + g(v[j]) dW[j], each f(v) dt summed in step order into the
    compensator; the policy clamps or reflects the stored state (None: neither), so f and g
    see max(v, 0) = v. Model i starts at v0s[i] with diffusion gs[i] and drift fs[i], or fs[0]
    on the whole stack if fs holds one. Tiles of the (models, rows) state step in lane-consistent
    ufuncs: a row depends on no other row or model. Returns the state and the state minus the
    compensator at nodes, as (models, nodes, m_paths), the clamp counts and row 0 at every
    node; raises PathOverflowError at the least (step, model, path) whose state is not finite.
    out, if given, holds the first three arrays to write, views of the caller's."""
    if increments.ndim != 2 or increments.shape[1] != grid.n_steps or not len(increments):
        raise ValueError("increments must have shape (m_paths, grid.n_steps), m_paths >= 1")
    dt, (m_paths, n_steps), n_models = grid.dt, increments.shape, len(gs)
    values, compensated, clamps = out or (*np.empty((2, n_models, len(nodes), m_paths)),
                                          np.empty((n_models, m_paths), np.int64))
    path0, clamps[...] = np.empty((n_models, n_steps + 1)), 0  # the clamps add up from 0
    rows, full = _TILE // (n_models or 1) or 1, policy == "full-truncation"
    fault = (n_steps, n_models)  # the least failing (step, model, path); sorts after any
    # Overflow is reported below; numpy's warning, once per process, would vary with the workers
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, m_paths, rows):
            tile = slice(start, min(start + rows, m_paths))
            v, k = np.repeat(np.reshape(v0s, (-1, 1)), tile.stop - start, axis=1), 0
            fd, gdw, comp, below = np.empty_like(v), np.empty_like(v), -0.0 * v, v < 0
            drifts = list(zip(fs, v, fd)) if len(fs) != 1 else [(fs[0], v.ravel(), fd.ravel())]
            diffusions, dws, p0 = list(zip(gs, v, gdw)), increments[tile].T, path0.T
            vals, comps = (a[..., tile].swapaxes(0, 1) for a in (values, compensated))
            for j in range(fault[0] + 1):  # all models step together: stop at the least failure
                if j:
                    for f, x, out in drifts:
                        np.multiply(f(x), dt, out=out)
                    for g, x, out in diffusions:
                        np.multiply(g(x), dws[j - 1], out=out)
                    np.add(np.add(v, fd, out=v), gdw, out=v)  # (v + f dt) + g dW
                    np.add(comp, fd, out=comp)  # -0.0 + f dt is f dt
                    if not np.logical_and.reduce(np.isfinite(v, out=below), None):
                        n = int(below.all(axis=1).argmin())
                        fault = min(fault, (j, n, start + int(below[n].argmin())))
                        break
                    # with no state below zero, the clamp would change no bit
                    if policy and np.logical_or.reduce(np.less(v, 0.0, out=below), None):
                        clamps[:, tile] += below
                        np.maximum(v, 0.0, out=v) if full else np.abs(v, out=v)
                if start == 0:
                    p0[j] = v[:, 0]
                if k < len(nodes) and nodes[k] == j:
                    vals[k], comps[k] = v, v - comp
                    k += 1
    if fault[1] < n_models:
        raise PathOverflowError(fault[0], fault[2], model_index=fault[1])
    return values, compensated, clamps, path0


def simulate_models(models, batch: BrownianBatch, policy="full-truncation", nodes=None, out=None):
    """One PathBatch per model, of every path of the batch at the grid indices in nodes (every
    node by default). Full truncation: v[j+1] = v[j] + f(v[j]+) dt + g(v[j]+) dW[j], clamped
    at zero; reflection stores |v[j+1]|. The models step as one stack, sharing a drift of equal
    parameters and power. Rows are independent, so chunks of rows give one batch's rows. out,
    if given, holds the arrays for _euler to write in place, which the batches then view."""
    if policy not in POLICIES:
        raise ValueError(f"unknown positivity policy {policy!r}; expected one of {POLICIES}")
    n_steps = batch.grid.n_steps
    items = list(np.asarray(range(n_steps + 1) if nodes is None else nodes, dtype=object).flat)
    integral = [isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in items]
    if not (items and all(integral) and 0 <= min(items) <= max(items) <= n_steps):
        raise ValueError(f"nodes must be a nonempty set of integer grid indices in [0, {n_steps}]")
    nodes = np.array(sorted(set(items)), dtype=int)  # not np.unique, which loads numpy.ma
    fs, gs = zip(*map(coefficients, models)) if models else ((), ())
    fs = fs[:1] if len({(m.a, m.params) for m in models}) == 1 else fs  # a shared drift
    values, compensated, clamps, path0 = _euler(fs, gs, [m.params.v0 for m in models],
                                                batch.grid, batch.increments, policy, nodes, out)
    for a in (nodes, values, compensated, path0):
        a.setflags(write=False)
    return [PathBatch(model, batch.grid, nodes, values[i].T, compensated[i].T, clamps[i], path0[i])
            for i, model in enumerate(models)]


def simulate_batch(
    model: Model, batch: BrownianBatch, policy: str = "full-truncation", nodes=None
) -> PathBatch:
    """simulate_models for one model: its PathBatch."""
    return simulate_models([model], batch, policy, nodes)[0]


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
    increments = np.asarray(increments, dtype=float)
    one_row = increments.shape == (1, grid.n_steps)  # stepped on Python floats, as _euler would
    f_n, g_n = truncated_coefficients(tp, model, one_float=one_row)
    if not one_row:
        return _euler([f_n], [g_n], [model.params.v0], grid, increments, None,
                      range(grid.n_steps + 1))[0][0].T
    path, v, dt = [], float(model.params.v0), grid.dt
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite state is raised below
        for j, dw in enumerate(increments[0].tolist(), 1):
            path.append(v)
            if not math.isfinite(v := float((v + f_n(v) * dt) + g_n(v) * dw)):
                raise PathOverflowError(j, 0)
    return np.array([path + [v]])


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
    fixed_point: np.ndarray = field(repr=False)
    rate_envelope_constant: float


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
    tol: float = PICARD_TOL,
    k_max: int = 200,
) -> PicardReport:
    """Iterate the discrete Picard map on the truncated coefficients.

    Starting from the constant path v0, each sweep rebuilds the path
    from left-point Riemann/Ito sums of the previous iterate:

        v[k+1](t_j) = v0 + sum_{i<j} f_n(v[k](t_i)) dt
                         + sum_{i<j} g_n(v[k](t_i)) dW_i

    and stops when the sup-norm update d_k drops below tol. Failure to
    converge within k_max returns a partial report (converged=False)
    rather than raising. A tolerance that is not positive and finite, or
    fewer than one sweep, is refused.
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
