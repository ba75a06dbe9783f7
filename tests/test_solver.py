import math

import numpy as np
import pytest

from varexp_cir.exponent import make_builtin
from varexp_cir.model import ModelParams, cir_model, gm_model, parse_model
from varexp_cir.solver import (
    PathOverflowError,
    band_exit_index,
    euler_maruyama_truncated,
    picard_solve,
    simulate_batch,
)
from varexp_cir.stochastic import BrownianBatch, make_grid, path_increments, sample_batch
from varexp_cir.truncation import TruncationParams, truncated_diffusion, truncated_drift


def one_path(model, grid, row, policy="full-truncation"):
    """simulate_batch on the one-row batch holding ``row``."""
    batch = BrownianBatch(0, grid, np.asarray(row, dtype=float)[None])
    return simulate_batch(model, batch, policy)


def test_zero_increments_at_fixed_point(gm_p1, grid):
    # v0 = theta: the drift fixed point, path stays constant
    path = one_path(gm_p1, grid, np.zeros(grid.n_steps))
    assert np.all(path.values[0] == 0.05)
    assert path.clamp_counts[0] == 0


def test_zero_increments_decay_toward_theta(params, grid):
    model = gm_model(
        ModelParams(params.kappa, params.theta, params.xi, v0=0.2), make_builtin("p1")
    )
    path = one_path(model, grid, np.zeros(grid.n_steps))
    assert np.all(np.diff(path.values[0]) < 0)  # strictly decreasing toward theta
    assert np.all(path.values[0] > 0.05)
    # explicit Euler on the linear ODE: v_j = theta + (v0-theta)*(1-kappa*dt)^j
    expected_T = 0.05 + 0.15 * (1.0 - 2.0 * 0.001) ** 1000
    assert path.values[0, -1] == pytest.approx(expected_T, rel=1e-12)


def test_one_step_hand_value(gm_p1):
    # v1 = v0 + 0 + 0.3 * 0.05**p1(0.05) * 0.02, recomputed by hand
    grid = make_grid(0.001, 0.001)
    path = one_path(gm_p1, grid, np.array([0.02]))
    p_at = 0.5 + 0.3 * (1.0 - math.exp(-0.05))
    expected = 0.05 + 0.3 * 0.05**p_at * 0.02
    assert expected == pytest.approx(0.0512840, abs=5e-7)
    assert path.values[0, 1] == pytest.approx(expected, rel=1e-14)


def test_full_truncation_clamps_and_counts(gm_p1):
    # a giant negative increment forces the pre-clamp state below zero
    grid = make_grid(0.002, 0.001)
    path = one_path(gm_p1, grid, np.array([-10.0, 0.0]))
    assert path.clamp_counts[0] == 1
    assert np.all(path.values[0] >= 0.0)
    assert path.values[0, 1] == 0.0


def test_reflection_policy(gm_p1):
    grid = make_grid(0.002, 0.001)
    truncated = one_path(gm_p1, grid, np.array([-10.0, 0.0]), policy="full-truncation")
    reflected = one_path(gm_p1, grid, np.array([-10.0, 0.0]), policy="reflection")
    assert reflected.clamp_counts[0] == 1
    assert reflected.values[0, 1] > 0.0
    assert truncated.values[0, 1] == 0.0
    with pytest.raises(ValueError):
        one_path(gm_p1, grid, np.array([0.0, 0.0]), policy="clip")


def test_overflow_raises_with_step_index(params):
    model = gm_model(
        ModelParams(kappa=1e150, theta=1e150, xi=0.3, v0=0.05), make_builtin("p1")
    )
    grid = make_grid(0.003, 0.001)
    with pytest.raises(PathOverflowError) as exc:
        one_path(model, grid, np.zeros(3))
    assert exc.value.step_index >= 1
    assert exc.value.path_index == 0


def test_batch_rows_equal_single_paths(gm_p1, small_batch):
    pb = simulate_batch(gm_p1, small_batch)
    for j in (0, 7, 127):
        single = one_path(gm_p1, small_batch.grid, small_batch.increments[j])
        assert np.array_equal(single.values[0], pb.values[j])
        assert single.clamp_counts[0] == pb.clamp_counts[j]


def test_batch_order_independence(gm_p1, grid):
    # simulating a permuted batch permutes the results bit-exactly
    batch = sample_batch(7, 32, grid)
    pb = simulate_batch(gm_p1, batch)
    perm = np.random.default_rng(0).permutation(32)
    shuffled = batch.increments[perm]

    class _FakeBatch:
        grid = batch.grid
        increments = shuffled

    pb2 = simulate_batch(gm_p1, _FakeBatch())
    assert np.array_equal(pb2.values, pb.values[perm])


def test_crn_contract_batch_unchanged(gm_p1, cir, small_batch):
    checksum_before = small_batch.checksum()
    simulate_batch(gm_p1, small_batch)
    simulate_batch(cir, small_batch)
    assert small_batch.checksum() == checksum_before


def test_positivity_full_truncation(full_runs):
    for mid, (model, pb) in full_runs.items():
        assert np.all(pb.values >= 0.0), mid


def test_picard_zeroth_iterate_is_constant(gm_p1, grid):
    tp = TruncationParams(10)
    row = np.zeros(grid.n_steps)
    report = picard_solve(tp, gm_p1, grid, row, tol=1e-30, k_max=1)
    # after one sweep the path is no longer constant, and the recorded
    # first correction is measured against the constant start
    assert report.sup_diffs[0] > 0.0
    assert report.fixed_point[0] == 0.05


def test_picard_converges_on_ode(gm_p1, grid):
    tp = TruncationParams(10)
    report = picard_solve(tp, gm_p1, grid, np.zeros(grid.n_steps), tol=1e-12, k_max=1200)
    assert report.converged
    em = euler_maruyama_truncated(tp, gm_p1, grid, np.zeros(grid.n_steps)[None])[0]
    assert np.max(np.abs(report.fixed_point - em)) <= 1e-12


def test_picard_fixed_point_equals_euler_brute_force(gm_p1):
    # 10-step grid: iterate the recursion by hand and compare both routes
    grid = make_grid(0.01, 0.001)
    tp = TruncationParams(10)
    row = path_increments(123, 0, grid)
    report = picard_solve(tp, gm_p1, grid, row, tol=1e-14, k_max=50)
    assert report.converged

    floor = 1.0 / tp.n
    v = 0.05
    manual = [v]
    for j in range(grid.n_steps):
        v = (
            v
            + truncated_drift(tp, gm_p1, v) * grid.dt
            + truncated_diffusion(tp, gm_p1, max(v, floor)) * row[j]
        )
        manual.append(v)
    manual = np.array(manual)
    assert np.max(np.abs(report.fixed_point - manual)) <= 1e-12

    em = euler_maruyama_truncated(tp, gm_p1, grid, row[None])[0]
    assert np.max(np.abs(em - manual)) <= 1e-15


def test_picard_euler_equivalence_random_seeds(gm_p1, grid):
    tp = TruncationParams(10)
    for seed in range(5):
        row = path_increments(seed, 0, grid)
        report = picard_solve(tp, gm_p1, grid, row, tol=1e-9, k_max=200)
        assert report.converged
        em = euler_maruyama_truncated(tp, gm_p1, grid, row[None])[0]
        assert np.max(np.abs(report.fixed_point - em)) <= 1e-9
        diffs = np.asarray(report.sup_diffs)
        assert np.all(np.diff(diffs[3:]) <= 0.0)


def test_picard_euler_equivalence_other_levels(gm_p1, grid):
    for n in (2, 3, 25):
        tp = TruncationParams(n)
        row = path_increments(17, 0, grid)
        report = picard_solve(tp, gm_p1, grid, row, tol=1e-9, k_max=200)
        assert report.converged, n
        em = euler_maruyama_truncated(tp, gm_p1, grid, row[None])[0]
        assert np.max(np.abs(report.fixed_point - em)) <= 1e-9


def test_picard_nonconvergence_returns_partial_report(gm_p1, grid):
    row = path_increments(0, 0, grid)
    report = picard_solve(TruncationParams(10), gm_p1, grid, row, tol=1e-30, k_max=3)
    assert not report.converged
    assert report.iterations_used == 3
    assert len(report.sup_diffs) == 3


def test_picard_input_validation(gm_p1, grid):
    tp = TruncationParams(10)
    with pytest.raises(ValueError):
        picard_solve(tp, gm_p1, grid, np.zeros(5))  # wrong length
    with pytest.raises(ValueError):
        picard_solve(tp, gm_p1, grid, np.zeros(grid.n_steps), tol=0.0)
    with pytest.raises(ValueError):
        picard_solve(tp, gm_p1, grid, np.zeros(grid.n_steps), k_max=0)


def test_band_exit_index(gm_p1):
    grid = make_grid(0.01, 0.001)
    values = simulate_batch(gm_p1, BrownianBatch(0, grid, np.zeros((2, grid.n_steps)))).values
    # constant 0.05 rows: outside tp.band at n=10 immediately, inside it at n=100
    assert band_exit_index(TruncationParams(10), values).tolist() == [0, 0]
    assert band_exit_index(TruncationParams(100), values).tolist() == [11, 11]
    broken = values.copy()
    broken[1, 5] = 0.0
    assert band_exit_index(TruncationParams(100), broken).tolist() == [11, 5]
    with pytest.raises(ValueError):
        TruncationParams(0)


def test_truncated_euler_refuses_other_increment_shapes(gm_p1, grid):
    tp = TruncationParams(10)
    with pytest.raises(ValueError):
        euler_maruyama_truncated(tp, gm_p1, grid, np.zeros(grid.n_steps))  # one row, 1-D
    with pytest.raises(ValueError):
        euler_maruyama_truncated(tp, gm_p1, grid, np.zeros((3, grid.n_steps - 1)))


def test_cir_is_the_constant_half_exponent_bit_for_bit(params, small_batch):
    # a constant exponent is a scalar power, which numpy takes as sqrt at 1/2
    cir = simulate_batch(cir_model(params), small_batch)
    half = simulate_batch(gm_model(params, make_builtin("const:0.5")), small_batch)
    assert np.array_equal(cir.values, half.values)
    assert np.array_equal(cir.clamp_counts, half.clamp_counts)


@pytest.mark.parametrize("spec", ["cir", "gm:p1", "gm:p2", "gm:p3"])
@pytest.mark.parametrize("n", [2, 10, 100])
def test_truncated_euler_equals_scalar_recursion_bit_for_bit(params, spec, n):
    grid = make_grid(0.2, 0.001)
    model = parse_model(spec, params)
    tp = TruncationParams(n)
    row = path_increments(2024, 0, grid)
    v = params.v0
    manual = [v]
    for j in range(grid.n_steps):
        v = (
            v
            + truncated_drift(tp, model, v) * grid.dt
            + truncated_diffusion(tp, model, max(v, tp.lower)) * row[j]
        )
        manual.append(v)
    em = euler_maruyama_truncated(tp, model, grid, row[None])[0]
    assert np.array_equal(em, np.array(manual))


def test_batch_paths_are_time_major_and_layout_free(gm_p1, small_batch):
    pb = simulate_batch(gm_p1, small_batch)
    assert small_batch.increments.flags.f_contiguous
    assert pb.values.flags.f_contiguous
    c_order = np.ascontiguousarray(small_batch.increments)
    assert c_order.flags.c_contiguous
    pb_c = simulate_batch(
        gm_p1, BrownianBatch(small_batch.seed, small_batch.grid, c_order)
    )
    assert np.array_equal(pb_c.values, pb.values)
    assert np.array_equal(pb_c.clamp_counts, pb.clamp_counts)


def test_overflow_names_the_path_in_a_time_major_batch(cir):
    grid = make_grid(0.01, 0.001)
    batch = sample_batch(5, 40, grid)
    increments = np.array(batch.increments, order="F")
    increments[37, 3] = np.inf  # step 4 of path 37, in the second block of paths
    increments[12, 5] = np.inf  # a later step of an earlier path
    with pytest.raises(PathOverflowError) as exc:
        simulate_batch(cir, BrownianBatch(5, grid, increments))
    assert (exc.value.path_index, exc.value.step_index) == (37, 4)


def _euler_oracle(f, g, v0, grid, increments, policy, nodes):
    """The Euler step as it was before the kernel dropped max(v, 0): the
    coefficients saw the clamped copy of the (never negative) state."""
    dt = grid.dt
    m_paths, n_steps = increments.shape
    values, compensated = (np.empty((m_paths, len(nodes)), order="F") for _ in range(2))
    path0, clamps = np.empty(n_steps + 1), np.zeros(m_paths, dtype=np.int64)
    v, compensator, k = np.full(m_paths, v0), 0.0, 0
    for j in range(n_steps + 1):
        if j:
            vplus = np.maximum(v, 0.0)
            fd = f(vplus) * dt
            raw = v + fd + g(vplus) * increments[:, j - 1]
            if not np.all(np.isfinite(raw)):
                raise PathOverflowError(j, int(np.flatnonzero(~np.isfinite(raw))[0]))
            clamps += raw < 0.0
            v = np.maximum(raw, 0.0) if policy == "full-truncation" else np.abs(raw)
            compensator = compensator + fd if j > 1 else fd
        path0[j] = v[0]
        if k < len(nodes) and nodes[k] == j:
            values[:, k], compensated[:, k] = v, v - compensator
            k += 1
    return values, compensated, clamps, path0


@pytest.mark.parametrize("policy", ["full-truncation", "reflection"])
@pytest.mark.parametrize(
    "spec, xi, v0",
    [
        ("cir", 1.0, 0.01),
        ("gm:p1", 1.0, 0.01),
        ("pkm:a=0,b=0.5", 1.5, 0.05),
        ("pkm:a=1,b=1", 20.0, 0.2),
    ],
)
def test_euler_kernel_equals_the_previous_step_bit_for_bit(spec, xi, v0, policy):
    from varexp_cir.model import coefficients

    grid = make_grid(0.5, 0.001)
    batch = sample_batch(3, 300, grid)
    model = parse_model(spec, ModelParams(2.0, 0.05, xi, v0))
    nodes = np.array([0, 100, 250, 499, 500])
    pb = simulate_batch(model, batch, policy, nodes)
    expected = _euler_oracle(*coefficients(model), v0, grid, batch.increments, policy, nodes)
    assert expected[2].sum() > 100  # a clamp-heavy configuration
    for got, want in zip((pb.values, pb.compensated, pb.clamp_counts, pb.path0), expected):
        assert np.array_equal(np.asarray(got).view(np.uint64), want.view(np.uint64))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_euler_kernel_overflows_where_the_previous_step_did():
    from varexp_cir.model import coefficients

    grid = make_grid(1.0, 0.01)
    batch = sample_batch(10, 1000, grid)
    model = parse_model("pkm:a=0,b=1.5", ModelParams(2.0, 0.05, 30.0, 30.0))
    with pytest.raises(PathOverflowError) as want:
        _euler_oracle(*coefficients(model), 30.0, grid, batch.increments, "full-truncation", [100])
    with pytest.raises(PathOverflowError) as got:
        simulate_batch(model, batch, "full-truncation", [100])
    assert (got.value.path_index, got.value.step_index) == (want.value.path_index, 13) == (602, 13)
