import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import varexp_cir
from varexp_cir import stochastic
from varexp_cir.stochastic import BrownianBatch, make_grid, path_increments, sample_batch


def test_make_grid_examples():
    assert make_grid(1.0, 0.001).n_steps == 1000
    assert make_grid(1.0, 1.0).n_steps == 1
    with pytest.raises(ValueError):
        make_grid(1.0, 0.0003)  # not an integer number of steps
    with pytest.raises(ValueError):
        make_grid(-1.0, 0.001)
    with pytest.raises(ValueError):
        make_grid(1.0, 0.0)


def test_grid_times_and_index():
    grid = make_grid(1.0, 0.25)
    assert np.allclose(grid.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert grid.index_of(0.75) == 3
    with pytest.raises(ValueError):
        grid.index_of(0.3)


def test_batch_determinism(grid):
    a = sample_batch(42, 16, grid)
    b = sample_batch(42, 16, grid)
    assert np.array_equal(a.increments, b.increments)
    assert a.checksum() == b.checksum()
    c = sample_batch(43, 16, grid)
    assert c.checksum() != a.checksum()


def test_per_path_substreams(grid, small_batch):
    # extracting path 7 alone equals row 7 of the full batch
    row7 = path_increments(small_batch.seed, 7, grid)
    assert np.array_equal(row7, small_batch.increments[7])
    # a smaller batch is a prefix of a larger one
    small = sample_batch(small_batch.seed, 8, grid)
    assert np.array_equal(small.increments, small_batch.increments[:8])


def test_increment_moments_at_scale(full_batch):
    dt = full_batch.grid.dt
    z = full_batch.increments.ravel() / np.sqrt(dt)
    n = z.size
    assert n == 5_000_000
    var = full_batch.increments.var()
    assert abs(var - dt) <= 0.03 * dt
    skew = np.mean(z**3)
    exkurt = np.mean(z**4) - 3.0
    assert abs(skew) <= 0.01
    assert abs(exkurt) <= 0.05


def test_seed_validation(grid):
    with pytest.raises(ValueError):
        sample_batch(-1, 4, grid)
    with pytest.raises(ValueError):
        sample_batch(2**64, 4, grid)
    with pytest.raises(ValueError):
        sample_batch(1.5, 4, grid)
    with pytest.raises(ValueError):
        sample_batch(42, 0, grid)
    with pytest.raises(ValueError, match="path_index must be nonnegative"):
        path_increments(42, -1, grid)


def test_a_path_index_past_the_key_word_is_refused_before_allocating(grid, monkeypatch):
    # a path index is Philox's second 64-bit key word: 2**64 - 1 draws, 2**64 is named
    top = path_increments(42, 2**64 - 1, grid)
    pair = sample_batch(42, range(2**64 - 2, 2**64), grid).increments
    np.testing.assert_array_equal(pair[1], top)
    monkeypatch.setattr(np, "empty", None)  # refused before a buffer is made
    past = [(range(2**64 - 1, 2**64 + 1), 2**64), (range(2**70), 2**70 - 1), (2**70, 2**70 - 1)]
    for paths, last in past:
        with pytest.raises(ValueError, match=f"^path index {last} is past the largest key word"):
            sample_batch(42, paths, grid)
    with pytest.raises(ValueError, match=f"^path index {2**64} is past the largest key word"):
        path_increments(42, 2**64, grid)


def test_absurd_sizes_rejected(grid):
    with pytest.raises(ValueError):
        sample_batch(42, 10**7, grid)  # would exceed the storage cap


def test_increments_are_read_only(small_batch):
    with pytest.raises(ValueError):
        small_batch.increments[0, 0] = 1.0


def test_the_largest_raw_words_map_below_one(monkeypatch):
    # both words shift to 2**53 - 1, and (2**53 - 1 + 0.5) * 2**-53 rounds to
    # 1.0, where ndtri is inf: a bogus overflow once in 2**53 draws
    class AllOnes(np.random.Philox):
        def random_raw(self, size=None, output=True):
            return np.resize(np.array([2**64 - 1, 2**64 - 2**11], dtype=np.uint64), size)

    seen, real_ndtri = [], stochastic.ndtri
    monkeypatch.setattr(np.random, "Philox", AllOnes)
    monkeypatch.setattr(stochastic, "ndtri", lambda u, **kw: seen.append(u.copy()) or real_ndtri(u, **kw))
    grid = make_grid(1.0, 0.01)
    rows = [sample_batch(42, 33, grid).increments, path_increments(42, 5, grid)]
    assert len(seen) == 3  # two blocks of the batch, then the one path
    assert all(np.all(u == 1.0 - 2.0**-52) for u in seen)
    assert all(np.all(np.isfinite(r)) for r in rows)
    assert np.array_equal(rows[0][5], rows[1])


@pytest.mark.parametrize("m_paths", [1, 31, 32, 33, 97])
def test_batch_rows_equal_path_increments_across_block_edges(m_paths):
    grid = make_grid(1.0, 0.01)
    batch = sample_batch(42, m_paths, grid)
    rows = np.stack([path_increments(42, j, grid) for j in range(m_paths)])
    assert np.array_equal(batch.increments, rows)
    assert batch.increments.flags.f_contiguous


def test_a_batch_fills_the_rows_it_is_given_bit_for_bit():
    # a chunk's later parts fill their rows of one time-major buffer in place
    grid = make_grid(1.0, 0.01)
    buffer = np.full((grid.n_steps, 80), np.nan).T
    batch = sample_batch(42, range(40, 75), grid, out=buffer[5:40])
    assert np.shares_memory(batch.increments, buffer) and not batch.increments.flags.writeable
    assert np.array_equal(buffer[5:40], sample_batch(42, range(40, 75), grid).increments)
    assert np.isnan(buffer[:5]).all() and np.isnan(buffer[40:]).all()
    buffer[5, 0] = 1.0  # the caller's array stays writable
    for wrong in (buffer[5:39], buffer[5:40, :-1], np.zeros((35, 100), dtype=np.float32)):
        with pytest.raises(ValueError, match="out must be a float64 array of shape"):
            sample_batch(42, range(40, 75), grid, out=wrong)


def test_checksum_is_the_one_shot_formula_in_any_layout():
    grid = make_grid(1.0, 0.01)
    batch = sample_batch(3, 70, grid)
    # the definition: SHA-256 of the shape, then the C-order bytes
    h = hashlib.sha256()
    h.update(np.array(batch.increments.shape, dtype=np.uint64).tobytes())
    h.update(np.ascontiguousarray(batch.increments).tobytes())
    expected = h.hexdigest()
    assert batch.checksum() == expected
    c_order = np.ascontiguousarray(batch.increments)
    assert c_order.flags.c_contiguous
    assert BrownianBatch(3, grid, c_order).checksum() == expected


def test_checksum_copies_no_matrix(grid):
    batch = sample_batch(42, 1000, grid)
    tracemalloc.start()
    try:
        batch.checksum()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < batch.increments.nbytes / 4


def test_a_one_row_batch_holds_no_block_of_buffers():
    # the row, its raw words, its normals and one draw: 32 MB at 10**6 steps, where
    # buffers of a whole block of 32 rows traced 528 MB
    grid = make_grid(1.0, 1e-6)
    tracemalloc.start()
    try:
        sample_batch(42, range(5, 6), grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def _uniforms(seed: int, paths: int, n_steps: int) -> np.ndarray:
    """The uniforms path_increments feeds to ndtri, for paths 0..paths-1."""
    raw = np.stack([
        np.random.Philox(key=np.array([seed, j], dtype=np.uint64)).random_raw(n_steps)
        for j in range(paths)
    ])
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def _same_bits(ndtri, u: np.ndarray) -> bool:
    import scipy.special

    return np.array_equal(ndtri(u).view(np.uint64), scipy.special.ndtri(u).view(np.uint64))


def test_loaded_ndtri_is_scipys_bit_for_bit():
    import scipy.special

    extremes = np.array([2.0**-54, 1.0 - 2.0**-53, 0.5])
    u = np.concatenate([_uniforms(42, 64, 1000).ravel(), extremes])
    assert stochastic.ndtri is scipy.special.ndtri
    assert _same_bits(stochastic.ndtri, u)
    assert stochastic.ndtri(0.5) == 0.0 and np.all(np.isfinite(stochastic.ndtri(extremes)))


def test_ndtri_loader_takes_the_loaded_package_as_it_is(monkeypatch):
    import importlib

    import scipy.special

    tried = []
    monkeypatch.setattr(importlib, "import_module", lambda name, *args: tried.append(name))
    assert stochastic._load_ndtri() is scipy.special.ndtri and tried == []


def _fresh_import(code: str):
    """Run code in a fresh interpreter that has this checkout's package on its
    path; return the one JSON value it prints."""
    src = str(Path(varexp_cir.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_a_later_scipy_special_import_is_the_full_package():
    seen = _fresh_import(
        "import json, sys\n"
        "from varexp_cir import stochastic\n"
        "import scipy.special\n"
        "print(json.dumps({'same': scipy.special.ndtri is stochastic.ndtri,\n"
        "                  'erf': hasattr(scipy.special, 'erf'),\n"
        "                  'ufuncs': hasattr(scipy.special, '_ufuncs')}))\n"
    )
    assert seen == {"same": True, "erf": True, "ufuncs": True}


def test_importing_the_cli_leaves_scipy_special_unloaded():
    # the narrow load leans on scipy's private layout (the ndtri ufunc lives in
    # scipy.special._ufuncs); this pins that it still holds at the version CI installs
    import scipy

    if scipy.__version__ != "1.17.1":  # the pin in .github/constraints.txt
        pytest.skip(f"the module layout is pinned for scipy 1.17.1, not {scipy.__version__}")
    heavy = ("scipy.special", "scipy._lib._array_api", "numpy.f2py", "numpy.testing")
    loaded = _fresh_import(
        "import json, sys\n"
        "import varexp_cir.cli\n"
        f"print(json.dumps([m for m in {heavy!r} if m in sys.modules]))\n"
    )
    assert loaded == []


def test_ndtri_loader_falls_back_to_the_package_import():
    # scipy.special not loaded and the narrow import failing: the package is
    # imported, and no stand-in is left behind
    seen = _fresh_import(
        "import importlib, json, sys\n"
        "import numpy as np\n"
        "tried, real = [], importlib.import_module\n"
        "def narrow_fails(name, *args):\n"
        "    if name == 'scipy.special._ufuncs':\n"
        "        tried.append(name)\n"
        "        raise ImportError(name)\n"
        "    return real(name, *args)\n"
        "importlib.import_module = narrow_fails\n"
        "from varexp_cir import stochastic\n"
        "import scipy.special\n"
        "u = np.array([2.0**-54, 0.25, 0.5, 1.0 - 2.0**-53])\n"
        "print(json.dumps({'tried': tried,\n"
        "                  'same': stochastic.ndtri is scipy.special.ndtri,\n"
        "                  'bits': stochastic.ndtri(u).view(np.uint64).tolist()\n"
        "                          == scipy.special.ndtri(u).view(np.uint64).tolist(),\n"
        "                  'erf': hasattr(sys.modules['scipy.special'], 'erf')}))\n"
    )
    assert seen == {"tried": ["scipy.special._ufuncs"], "same": True, "bits": True, "erf": True}


def test_a_thread_importing_scipy_special_meanwhile_gets_the_package():
    # a second thread imports scipy.special while the stand-in is in place: it
    # waits on scipy.special's module lock and still gets the package's names
    seen = _fresh_import(
        "import json, sys, threading, time\n"
        "seen, started = {}, threading.Event()\n"
        "def other():\n"
        "    started.set()\n"
        "    held = sys.modules.get('scipy.special')\n"
        "    seen['stand_in'] = held is not None and 'erf' not in vars(held)\n"
        "    try:\n"
        "        from scipy.special import erf\n"
        "        seen['erf'] = erf is sys.modules['scipy.special'].erf\n"
        "    except ImportError as exc:\n"
        "        seen['erf'] = repr(exc)\n"
        "thread = threading.Thread(target=other)\n"
        "class StartOther:  # starts the thread while scipy.special._ufuncs is found\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'scipy.special._ufuncs' and not started.is_set():\n"
        "            thread.start()\n"
        "            started.wait()\n"
        "            time.sleep(0.5)\n"
        "sys.meta_path.insert(0, StartOther())\n"
        "from varexp_cir import stochastic\n"
        "thread.join()\n"
        "import scipy.special\n"
        "seen['same'] = stochastic.ndtri is scipy.special.ndtri\n"
        "print(json.dumps(seen))\n"
    )
    assert seen == {"stand_in": True, "erf": True, "same": True}
