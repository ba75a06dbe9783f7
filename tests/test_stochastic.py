import hashlib
import tracemalloc

import numpy as np
import pytest

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


def test_absurd_sizes_rejected(grid):
    with pytest.raises(ValueError):
        sample_batch(42, 10**7, grid)  # would exceed the storage cap


def test_increments_are_read_only(small_batch):
    with pytest.raises(ValueError):
        small_batch.increments[0, 0] = 1.0


@pytest.mark.parametrize("m_paths", [1, 31, 32, 33, 97])
def test_batch_rows_equal_path_increments_across_block_edges(m_paths):
    grid = make_grid(1.0, 0.01)
    batch = sample_batch(42, m_paths, grid)
    rows = np.stack([path_increments(42, j, grid) for j in range(m_paths)])
    assert np.array_equal(batch.increments, rows)
    assert batch.increments.flags.f_contiguous


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
