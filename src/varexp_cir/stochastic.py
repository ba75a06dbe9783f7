"""Deterministic Brownian increment generation with per-path substreams.

Increments are produced by a counter-based generator (Philox-4x64)
keyed by (seed, path_index), so any row of a batch can be regenerated
on its own and batch construction is order-independent. Normals come
from the inverse CDF applied to a 64-bit uniform, which keeps the
mapping stateless per (path, step) and reproducible across platforms.
These properties are what make common-random-number comparisons across
models exact: two models simulated against the same batch consume
bit-identical increments.

A batch is stored time-major: the (m_paths, n_steps) matrix is
Fortran-ordered, so the increments of one time step over all paths are
contiguous, which is the order the Euler kernel reads them in. It is
filled a block of paths at a time: each path's raw words come from the
one generator re-keyed to (seed, path_index), and the block is mapped
to normals in one vectorized pass. Row j is still a function of
(seed, j) alone, equal bit for bit to path_increments(seed, j, grid).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

__all__ = ["BrownianBatch", "TimeGrid", "make_grid", "path_increments", "sample_batch"]

MAX_SEED = 2**64 - 1

#: Refuse batches above this many stored increments (~8 GB of float64);
#: regenerate rows on demand via path_increments for larger studies.
MAX_STORED_INCREMENTS = 10**9

# Paths per block when filling and hashing a batch: a 32 x 1000 block of
# 64-bit words is 256 KB, small enough that its buffers stay in cache and
# no path-sized temporary is built.
_BLOCK = 32


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_j = j*dt, j = 0..n_steps, with n_steps*dt = T."""

    horizon: float
    dt: float
    n_steps: int

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt

    def index_of(self, t: float) -> int:
        """Grid index of a checkpoint time; errors if t is off-grid."""
        j = round(t / self.dt)
        if not (0 <= j <= self.n_steps) or abs(j * self.dt - t) > self.dt * 1e-9:
            raise ValueError(f"time {t} is not a node of the grid (dt={self.dt})")
        return j


def make_grid(T: float, dt: float) -> TimeGrid:
    """Build the uniform grid; T must be an integer multiple of dt."""
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError(f"horizon must be positive and finite, got {T}")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    ratio = T / dt
    if not math.isfinite(ratio):
        raise ValueError(f"horizon {T} holds too many steps of size {dt}")
    n_steps = round(ratio)
    if n_steps < 1 or abs(n_steps * dt - T) > dt * 1e-9:
        raise ValueError(f"horizon {T} is not an integer number of steps of size {dt}")
    return TimeGrid(horizon=float(T), dt=float(dt), n_steps=n_steps)


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or not (0 <= int(seed) <= MAX_SEED):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


def path_increments(seed: int, path_index: int, grid: TimeGrid) -> np.ndarray:
    """Increments of one path, Normal(0, dt), from substream (seed, path_index).

    The raw 64-bit Philox stream keyed by (seed, path_index) is mapped
    to uniforms u = ((r >> 11) + 0.5) * 2**-53 in (0, 1) and through the
    inverse normal CDF (scipy.special.ndtri, Cephes; peak relative error
    about 1e-15 in the central region, so increments are reproducible
    across platforms to that precision at worst).
    """
    seed = _check_seed(seed)
    if path_index < 0:
        raise ValueError("path_index must be nonnegative")
    key = np.array([seed, path_index], dtype=np.uint64)
    raw = np.random.Philox(key=key).random_raw(grid.n_steps)
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(u) * math.sqrt(grid.dt)


@dataclass(frozen=True)
class BrownianBatch:
    """An m_paths x n_steps matrix of Gaussian increments, Normal(0, dt).

    Fully determined by (seed, m_paths, grid); row j depends only on
    (seed, j), so subsets of paths can be regenerated independently.
    sample_batch stores the matrix time-major (Fortran order); the
    checksum does not depend on the memory layout.
    """

    seed: int
    m_paths: int
    grid: TimeGrid
    increments: np.ndarray

    def checksum(self) -> str:
        """SHA-256 over the shape, then the matrix's bytes in C (row) order;
        recorded in run manifests. Hashed a block of rows at a time, so
        no copy of the whole matrix is made."""
        inc = self.increments
        h = hashlib.sha256()
        h.update(np.array(inc.shape, dtype=np.uint64).tobytes())
        for start in range(0, len(inc), _BLOCK):
            h.update(np.ascontiguousarray(inc[start : start + _BLOCK]))
        return h.hexdigest()


def sample_batch(seed: int, m_paths: int, grid: TimeGrid) -> BrownianBatch:
    """Generate the full increment matrix, time-major, a block of paths
    at a time; row j equals path_increments(seed, j, grid) bit for bit.

    Default experiment sizes are stored whole (5000 x 1000 doubles is
    40 MB); absurd sizes are refused, use path_increments to stream
    rows instead.
    """
    seed = _check_seed(seed)
    if m_paths < 1:
        raise ValueError("m_paths must be at least 1")
    n_steps = grid.n_steps
    if m_paths * n_steps > MAX_STORED_INCREMENTS:
        raise ValueError(
            "batch too large to store; regenerate rows on demand with path_increments"
        )
    increments = np.empty((m_paths, n_steps), order="F")
    # One generator, re-keyed per path to the state Philox(key=(seed, j)) starts in.
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    state = bitgen.state
    key = state["state"]["key"]
    raw = np.empty((_BLOCK, n_steps), dtype=np.uint64)
    normals = np.empty((_BLOCK, n_steps))
    scale = math.sqrt(grid.dt)
    for start in range(0, m_paths, _BLOCK):
        stop = min(start + _BLOCK, m_paths)
        r, z = raw[: stop - start], normals[: stop - start]
        for i, j in enumerate(range(start, stop)):
            key[1] = j
            bitgen.state = state
            r[i] = bitgen.random_raw(n_steps)
        # ((r >> 11) + 0.5) * 2**-53, then ndtri, then sqrt(dt), as in path_increments
        np.right_shift(r, np.uint64(11), out=r)
        z[...] = r
        z += 0.5
        z *= 2.0**-53
        ndtri(z, out=z)
        z *= scale
        increments[start:stop] = z
    increments.setflags(write=False)
    return BrownianBatch(seed=seed, m_paths=m_paths, grid=grid, increments=increments)
