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
(seed, j) alone; path_increments(seed, j, grid) is the one-row batch of j.

The inverse CDF is scipy's compiled ``ndtri`` ufunc, loaded from its
extension module ``scipy.special._ufuncs`` without running the
``scipy.special`` package's own import, which spends about 0.3 s loading
its array-API layer (``numpy.testing``, ``numpy.f2py``). It is the very
object ``scipy.special.ndtri`` names; see _load_ndtri.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.machinery
import math
import sys
import types
from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  else loaded on first use, in the walk, once per worker

__all__ = ["BrownianBatch", "TimeGrid", "make_grid", "path_increments", "sample_batch"]

MAX_SEED = 2**64 - 1

#: Refuse batches, and CLI runs, that would hold more than this many
#: float64 values (~8 GB).
MAX_STORED_INCREMENTS = 10**9

# Paths per block when filling and hashing a batch: a 32 x 1000 block of
# 64-bit words is 256 KB, small enough that its buffers stay in cache and
# no path-sized temporary is built.
_BLOCK = 32

# The largest 53-bit word mapped to a uniform: 2**53 - 1 would give
# (2**53 - 0.5) * 2**-53, which rounds to 1.0, where ndtri is inf.
_TOP = np.uint64(2**53 - 2)


def _load_ndtri():
    """scipy's ndtri ufunc. While scipy.special._ufuncs loads, a bare module
    holding only the package's path stands in for scipy.special, so its
    __init__ does not run; the stand-in is then dropped, and a later import
    of scipy.special runs the real package, which finds the same _ufuncs.
    As in a real import of scipy.special, its module lock is held and the
    stand-in is marked as loading meanwhile: another thread importing
    scipy.special waits, then gets the package, and a thread left holding
    the stand-in reads its names from the package.
    If scipy.special is loaded already, or that load fails, import it."""
    try:
        import scipy

        with importlib._bootstrap._ModuleLockManager("scipy.special"):
            if "scipy.special" not in sys.modules:
                stand_in = types.ModuleType("scipy.special")
                stand_in.__path__ = [scipy.__path__[0] + "/special"]
                spec = importlib.machinery.ModuleSpec("scipy.special", None, is_package=True)
                spec._initializing = True  # as the import system marks a module mid-import
                stand_in.__spec__ = spec

                def forward(name):
                    package = importlib.import_module("scipy.special")
                    if package is stand_in:  # this thread, still loading _ufuncs
                        raise AttributeError(name)
                    return getattr(package, name)

                stand_in.__getattr__ = forward
                sys.modules["scipy.special"] = stand_in
                try:
                    return importlib.import_module("scipy.special._ufuncs").ndtri
                finally:
                    if sys.modules.get("scipy.special") is stand_in:
                        del sys.modules["scipy.special"]
    except Exception:  # scipy's or importlib's private layout moved: the public import still works
        pass
    from scipy.special import ndtri

    return ndtri


ndtri = _load_ndtri()


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
        ratio = t / self.dt
        j = round(ratio) if -1 < ratio < self.n_steps + 1 else -1  # nan and far times too
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
    """Increments of one path, Normal(0, dt), from substream (seed, path_index):
    row 0 of sample_batch(seed, range(path_index, path_index + 1), grid), read-only."""
    if path_index < 0:
        raise ValueError("path_index must be nonnegative")
    return sample_batch(seed, range(path_index, path_index + 1), grid).increments[0]


def checksum_start(m_paths: int, n_steps: int):
    """A running SHA-256 of an (m_paths, n_steps) matrix, fed its shape."""
    return hashlib.sha256(np.array((m_paths, n_steps), dtype=np.uint64).tobytes())


def hash_rows(h, increments: np.ndarray):
    """Feed rows to the running hash h in C (row) order, a block of rows at
    a time, and return h; rows fed over several calls hash as one matrix."""
    for start in range(0, len(increments), _BLOCK):
        h.update(np.ascontiguousarray(increments[start : start + _BLOCK]))
    return h


@dataclass(frozen=True)
class BrownianBatch:
    """An m_paths x n_steps matrix of Gaussian increments, Normal(0, dt).

    Each row depends only on (seed, its path index), so subsets of paths
    can be regenerated independently.
    sample_batch stores the matrix time-major (Fortran order); the
    checksum does not depend on the memory layout.
    """

    seed: int
    grid: TimeGrid
    increments: np.ndarray

    @property
    def m_paths(self) -> int:
        return self.increments.shape[0]

    def checksum(self) -> str:
        """SHA-256 over the shape, then the matrix's bytes in C (row) order;
        recorded in run manifests."""
        return hash_rows(checksum_start(*self.increments.shape), self.increments).hexdigest()


def sample_batch(seed: int, m_paths, grid: TimeGrid, out=None) -> BrownianBatch:
    """Increments of paths 0..m_paths-1, or of a range of path indices (a chunk of a
    larger run), time-major, a block of paths at a time, into out (float64, a row per
    path) if given; the row of path j depends on (seed, j) alone.

    The raw 64-bit Philox stream keyed by (seed, j) is mapped to uniforms
    u = ((r >> 11) + 0.5) * 2**-53 in (0, 1), with r >> 11 capped at 2**53 - 2
    so that u < 1 (a 2**-53 chance per draw), and through the inverse normal
    CDF: scipy's ndtri ufunc (Cephes; peak relative error about 1e-15 in the
    central region, so increments are reproducible across platforms to that
    precision at worst), taken from scipy.special._ufuncs by _load_ndtri, the
    object scipy.special.ndtri is. Buffers hold at most _BLOCK rows, and no
    more rows than the batch has."""
    seed = _check_seed(seed)
    paths = range(m_paths) if isinstance(m_paths, (int, np.integer)) else m_paths
    if not isinstance(paths, range) or paths.step != 1 or not 0 <= paths.start < paths.stop:
        raise ValueError("m_paths must be at least 1, or a nonempty range of path indices")
    if paths.stop - 1 > MAX_SEED:  # a path index is Philox's second key word, as the seed its first
        raise ValueError(f"path index {paths.stop - 1} is past the largest key word, 2**64 - 1")
    n_steps = grid.n_steps
    if (paths.stop - paths.start) * n_steps > MAX_STORED_INCREMENTS:
        raise ValueError("batch too large to store; walk the paths in chunks of rows")
    increments = np.empty((len(paths), n_steps), order="F") if out is None else out[...]
    if increments.shape != (len(paths), n_steps) or increments.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape {(len(paths), n_steps)}")
    # One generator, re-keyed per path to the state Philox(key=(seed, j)) starts in.
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    state = bitgen.state
    key = state["state"]["key"]
    raw = np.empty((min(_BLOCK, len(paths)), n_steps), dtype=np.uint64)
    normals = np.empty(raw.shape)
    scale = math.sqrt(grid.dt)
    for start in range(0, len(paths), _BLOCK):
        stop = min(start + _BLOCK, len(paths))
        r, z = raw[: stop - start], normals[: stop - start]
        for i, j in enumerate(paths[start:stop]):
            key[1] = j
            bitgen.state = state
            r[i] = bitgen.random_raw(n_steps)
        # ((r >> 11 capped) + 0.5) * 2**-53, then ndtri, then sqrt(dt)
        np.right_shift(r, np.uint64(11), out=r)
        np.minimum(r, _TOP, out=r)
        z[...] = r
        z += 0.5
        z *= 2.0**-53
        ndtri(z, out=z)
        z *= scale
        increments[start:stop] = z
    increments.setflags(write=False)  # a view's flag: the caller's out stays writable
    return BrownianBatch(seed=seed, grid=grid, increments=increments)
