import contextlib
import dataclasses
import hashlib
import io
import json
import math

import numpy as np
import pytest

from varexp_cir.exponent import make_builtin
from varexp_cir.model import ModelParams, cir_model, gm_model, parse_model
from varexp_cir import solver
from varexp_cir.solver import (
    PathOverflowError,
    band_exit_index,
    euler_maruyama_truncated,
    picard_solve,
    simulate_batch,
    simulate_models,
)
from varexp_cir.stochastic import BrownianBatch, make_grid, path_increments, sample_batch
from varexp_cir.truncation import (
    MAX_BAND,
    TruncationParams,
    truncated_coefficients,
    truncated_diffusion,
    truncated_drift,
)


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


def test_the_nested_bands_localize_each_production_path():
    # the bands [1/n + eps_n, n - eps_n] grow with n, so a path leaves a wider band no earlier:
    # the exit index is non-decreasing in n on every path and P(tau_n <= T) non-increasing,
    # the paper's localization read off one batch. v0 = theta = 1 starts inside every band
    grid = make_grid(1.0, 0.01)
    model = parse_model("gm:p2", ModelParams(2.0, 1.0, 1.0, 1.0))
    values = simulate_batch(model, sample_batch(3, 2000, grid)).values
    exits = np.array([band_exit_index(TruncationParams(n), values) for n in (2, 3, 10, 100)])
    assert np.all(np.diff(exits, axis=0) >= 0)
    fractions = np.mean(exits < grid.n_steps + 1, axis=1)
    assert np.all(np.diff(fractions) <= 0.0)
    assert fractions[0] > fractions[-1]  # the paths do leave the narrow bands, not the wide one


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


@pytest.mark.parametrize("nodes", [[2.7], [True], ["3"], [1, True], [np.True_], [2.0]])
def test_nodes_that_are_not_integers_are_refused(gm_p1, nodes):
    # np.asarray(nodes, dtype=int) kept node 2 for 2.7, node 1 for True and node 3 for "3"
    batch = sample_batch(1, 4, make_grid(0.01, 0.001))
    with pytest.raises(ValueError, match="integer grid indices"):
        simulate_batch(gm_p1, batch, nodes=nodes)


def _counting_coefficients(monkeypatch):
    """Make the solver's coefficients log each call of a drift; return the log."""
    calls = []
    real = solver.coefficients

    def counted(model):
        f, g = real(model)

        def drift(x):
            calls.append(x.shape)
            return f(x)

        return drift, g

    monkeypatch.setattr(solver, "coefficients", counted)
    return calls


@pytest.mark.parametrize("nodes", [[0, 10, 33, 49, 50], None], ids=["subset", "every-node"])
@pytest.mark.parametrize("policy", ["full-truncation", "reflection"])
@pytest.mark.parametrize(
    "specs",
    [("cir", "gm:p1", "gm:p3"), ("cir", "gm:p1", "gm:p3", "pkm:a=1,b=1")],
    ids=["shared-drift", "mixed"],
)
def test_each_model_of_a_stack_equals_the_previous_step_bit_for_bit(
    monkeypatch, specs, policy, nodes
):
    # 11,000 rows are two row tiles of the stack at 3 models and at 4; one pkm model with
    # a = 1 makes every model evaluate its own drift
    from varexp_cir.model import coefficients

    grid = make_grid(0.05, 0.001)
    batch = sample_batch(3, 11000, grid)
    params = ModelParams(2.0, 0.05, 1.0, 0.01)
    models = [parse_model(spec, params) for spec in specs]
    tiles = -(-11000 // (solver._TILE // len(models)))
    assert tiles == 2
    drift_calls = _counting_coefficients(monkeypatch)
    pbs = simulate_models(models, batch, policy, nodes)
    shared = len(specs) == 3
    assert len(drift_calls) == tiles * grid.n_steps * (1 if shared else len(models))
    every = range(grid.n_steps + 1)
    clamped = 0
    for model, pb in zip(models, pbs):
        expected = _euler_oracle(*coefficients(model), params.v0, grid, batch.increments, policy,
                                 every if nodes is None else nodes)
        clamped += expected[2].sum()
        for got, want in zip((pb.values, pb.compensated, pb.clamp_counts, pb.path0), expected):
            assert np.array_equal(np.asarray(got).view(np.uint64), want.view(np.uint64))
    assert clamped > 100  # a clamp-heavy configuration


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "poisoned, expected",
    [
        # the (path, step) of each increment set to inf, where both models fail, and the
        # (model, step, path) raised, the least by (step, model, path). Without one, only
        # the later model, pkm's b = 3/2, overflows (path 602 at step 13, in rows 512-767)
        ([], (1, 13, 602)),
        # cir fails earlier, in tile 0, and wins by its step
        ([(37, 10)], (0, 10, 37)),
        # cir fails at pkm's step in pkm's tile: the earlier model wins, at a higher path
        ([(700, 13)], (0, 13, 700)),
        # cir fails in two tiles; the least step wins, whichever tile holds it
        ([(37, 12), (700, 10)], (0, 10, 700)),
        ([(37, 10), (700, 12)], (0, 10, 37)),
        # cir fails at one step on three paths in two tiles: the lowest path wins
        ([(300, 10), (41, 10), (37, 10)], (0, 10, 37)),
        # cir fails later than pkm, in an earlier tile: the earlier step wins over the model
        ([(37, 40)], (1, 13, 602)),
        # cir fails at pkm's step in the tile after pkm's: that tile is walked through the
        # step, and the earlier model wins
        ([(800, 13)], (0, 13, 800)),
    ],
)
def test_a_stack_raises_the_overflow_of_least_model_step_and_path(monkeypatch, poisoned, expected):
    from varexp_cir.model import coefficients

    monkeypatch.setattr(solver, "_TILE", 512)  # 256 rows of 2 models per tile
    grid = make_grid(1.0, 0.01)
    increments = np.array(sample_batch(10, 1000, grid).increments, order="F")
    for path, step in poisoned:
        increments[path, step - 1] = np.inf
    params = ModelParams(2.0, 0.05, 30.0, 30.0)
    models = [parse_model(spec, params) for spec in ("cir", "pkm:a=0,b=1.5")]
    faults = []
    for i, model in enumerate(models):  # each model alone, by the previous step
        try:
            _euler_oracle(*coefficients(model), 30.0, grid, increments, "full-truncation", [100])
        except PathOverflowError as exc:
            faults.append((exc.step_index, i, exc.path_index))
    step, model, path = min(faults)
    assert (model, step, path) == expected
    with pytest.raises(PathOverflowError) as got:
        simulate_models(models, BrownianBatch(10, grid, increments), "full-truncation", [100])
    assert (got.value.model_index, got.value.step_index, got.value.path_index) == expected
    assert str(got.value) == f"non-finite state produced at path {expected[2]}, step {expected[1]}"


#: SHA-256 of the truncated Euler oracle's bytes and of Picard's fixed point at
#: n = 25 on the reference grid, seed 42, path 0. Each path enters the lower gap
#: (1/25, 1/25 + 1/1250), so theta_n's bridge is pinned, not only its flats.
BRIDGE_PINS = {
    "cir": (
        "2a3c24a2a3ab8fcc78e9cd0b2b9671a3e318015fa374c7619c26b76d31535705",
        "db2c72e993523f534e0ae462f56b8a55f0c011777a092d8f06423090edfd1385",
    ),
    "gm:p1": (
        "a5f8c9fe2b10bdcf4b6dd6f207ee7718f701c6614c3bad4668502f4612c95bfe",
        "afdafdc5897c37dc33acb7569dbfd0f00486d9ad8537b7f9e17ffc7ef4a252f5",
    ),
    "gm:p2": (
        "d21e63ab23f5fc48bfce0dcd1fafbc3f65d3e146daecf7d2a6ed89004af6c0b0",
        "36e1fc634a334e7c190442139e1d2ccc3f83f88a59454035ff262fd54a1009c8",
    ),
    "gm:p3": (
        "552238ed62de9dc4727a09cbb87caf6f42cc017d52428704f115da17f76ae92f",
        "9c1df2702c8bf64e50a2138cfacae449af2e2a9813442bf4de6a8f9a5003b26a",
    ),
}


@pytest.mark.parametrize("spec", sorted(BRIDGE_PINS))
def test_oracle_and_picard_through_the_lower_gap_are_pinned(params, grid, spec):
    tp = TruncationParams(25)
    model = parse_model(spec, params)
    row = path_increments(42, 0, grid)
    euler = euler_maruyama_truncated(tp, model, grid, row[None])[0]
    assert np.any((euler > tp.lower) & (euler < tp.lower + tp.epsilon))
    report = picard_solve(tp, model, grid, row)
    assert report.converged
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (euler, report.fixed_point))
    assert digests == BRIDGE_PINS[spec]


def _through_zero(tp, spec, params, grid):
    """A model started a few ulps above params.v0 and an increment row whose first step lands
    on 0.0 exactly, where g dW cancels v0 + f dt; then the reference noise."""
    v0 = params.v0
    for _ in range(64):  # g dW hits every float near -(v0 + f dt) at about half the starts
        model = parse_model(spec, dataclasses.replace(params, v0=v0))
        f_n, g_n = truncated_coefficients(tp, model)
        a, g = v0 + f_n(np.array([v0])) * grid.dt, g_n(np.array([v0]))
        for dw in (np.nextafter(-a / g, -np.inf), -a / g, np.nextafter(-a / g, np.inf)):
            if (a + g * dw)[0] == 0.0:
                return model, np.concatenate([dw, path_increments(42, 0, grid)[1:]])
        v0 = float(np.nextafter(v0, 1.0))
    raise AssertionError(f"no step to 0.0 exactly near v0 = {params.v0}")


@pytest.mark.parametrize("n", [2, 3, 25, 1000, MAX_BAND])
@pytest.mark.parametrize("spec", ["cir", "gm:p1", "gm:p2", "gm:p3", "gm:const:0.75"])
def test_one_row_oracle_equals_its_row_of_the_kernel_bit_for_bit(params, spec, n):
    # each row alone (Python floats) against its row of one multi-row call (the kernel): from
    # the reference start, from inside each gap, with xi = 0.9, and through 0.0, where rho_n
    # takes sign(0.0) = 0.0; a first increment of -1 sends a low start below zero
    grid, tp = make_grid(0.1, 0.001), TruncationParams(n)
    lo, eps, noise = tp.lower, tp.epsilon, sample_batch(7, 3, grid).increments
    kicked = np.concatenate([[-1.0], noise[0, 1:]])
    starts = [(params.v0, params.xi), (lo + eps / 2, params.xi), (n - eps / 2, params.xi),
              (params.v0, 0.9)]
    assert n == MAX_BAND or (lo < starts[1][0] < lo + eps and n - eps < starts[2][0] < n)
    cases = [(parse_model(spec, dataclasses.replace(params, v0=v0, xi=xi)), [])
             for v0, xi in starts]
    model, row = _through_zero(tp, spec, params, grid)
    cases.append((model, [row]))
    negative = False
    for model, extra in cases:
        increments = np.vstack([noise, np.zeros(grid.n_steps), kicked, *extra])
        rows = euler_maruyama_truncated(tp, model, grid, increments)
        assert rows.shape == (len(increments), grid.n_steps + 1)
        for i, row in enumerate(increments):
            alone = euler_maruyama_truncated(tp, model, grid, row[None])
            assert alone.shape == (1, grid.n_steps + 1)
            assert alone.tobytes() == np.ascontiguousarray(rows[i : i + 1]).tobytes()
        negative |= bool((rows < 0).any())
    assert negative and rows[-1, 1] == 0.0


def test_one_row_oracle_overflows_at_the_kernels_step_and_path(params):
    # at n = 2, g_n is xi * 2**p(2) ~ 8.5e307 on states above 2 and xi * 0.5**p(0.5) ~ 3.3e307
    # on negative ones: steady increments of 0.25, -0.5 and 0.5 overflow at steps 10, 12 and 5
    grid, tp = make_grid(0.1, 0.001), TruncationParams(2)
    model = parse_model("gm:p1", dataclasses.replace(params, xi=5e307))
    steady = np.ones(grid.n_steps)
    increments = np.vstack([path_increments(42, 0, grid) * 1e-10, 0.25 * steady, -0.5 * steady,
                            0.5 * steady])
    f_n, g_n = truncated_coefficients(tp, model)
    with pytest.raises(PathOverflowError) as batch:
        euler_maruyama_truncated(tp, model, grid, increments)
    assert (batch.value.step_index, batch.value.path_index) == (5, 3)
    for i, row in enumerate(increments):
        kernel = lambda: solver._euler([f_n], [g_n], [model.params.v0], grid, row[None], None,
                                       range(grid.n_steps + 1))[0][0].T
        if i == 0:  # finite all the way
            assert euler_maruyama_truncated(tp, model, grid, row[None]).tobytes() == (
                np.ascontiguousarray(kernel()).tobytes())
            continue
        with pytest.raises(PathOverflowError) as alone:
            euler_maruyama_truncated(tp, model, grid, row[None])
        with pytest.raises(PathOverflowError) as walked:
            kernel()
        assert (alone.value.step_index, alone.value.path_index) == (
            walked.value.step_index, walked.value.path_index)
        assert (alone.value.step_index, alone.value.path_index) == ([10, 12, 5][i - 1], 0)


def test_the_one_row_oracle_and_picard_verify_never_walk_the_kernel(monkeypatch, params, grid):
    from varexp_cir.cli import run

    def refused(*args, **kwargs):
        raise AssertionError("the one-row oracle walked the stacked kernel")

    monkeypatch.setattr(solver, "_euler", refused)
    model = parse_model("gm:p1", params)
    row = path_increments(42, 0, grid)[None]
    assert euler_maruyama_truncated(TruncationParams(10), model, grid, row).shape == (1, 1001)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["picard-verify", "--model", "gm:p1", "--n", "10", "--T", "0.2"]) == 0
    assert json.loads(out.getvalue())["sup_diff_vs_euler"] <= 1e-9


def test_a_stack_written_into_given_arrays_equals_a_fresh_one(params, small_batch):
    # the walk hands the kernel views of its kept arrays; whatever they held is overwritten
    models = [parse_model(spec, params) for spec in ("cir", "gm:p1", "gm:p3")]
    nodes, m_paths = [250, 500, 1000], small_batch.increments.shape[0]
    fresh = simulate_models(models, small_batch, "full-truncation", nodes)
    shape = (len(models), len(nodes), m_paths)
    out = np.full(shape, np.nan), np.full(shape, np.nan), np.full((len(models), m_paths), -7)
    given = simulate_models(models, small_batch, "full-truncation", nodes, out)
    for i, (a, b) in enumerate(zip(fresh, given)):
        for field in ("values", "compensated", "clamp_counts", "path0"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        assert np.shares_memory(b.values, out[0][i]) and np.shares_memory(b.clamp_counts, out[2])
