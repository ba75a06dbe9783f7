import math
import tracemalloc

import numpy as np
import pytest

from varexp_cir.analysis import (
    check_moment_bounds,
    empirical_moment,
    martingale_report,
    moment_bound,
    second_moment_bound,
    terminal_histogram,
)
from varexp_cir.exponent import make_builtin
from varexp_cir.model import ModelParams, cir_model, coefficients, gm_model, pkm_model
from varexp_cir.solver import PathBatch, simulate_batch, simulate_models
from varexp_cir.stochastic import BrownianBatch, make_grid, sample_batch


def _constant_batch(model, grid, value, m_paths=8):
    values = np.full((m_paths, grid.n_steps + 1), value)
    return PathBatch(
        model=model,
        grid=grid,
        nodes=np.arange(grid.n_steps + 1),
        values=values,
        compensated=values,
        clamp_counts=np.zeros(m_paths, dtype=np.int64),
        path0=values[0],
    )


def _martingale_paths(pb):
    """The compensated statistic at every grid node, one row per path, as
    the Euler kernel accumulated it on a full-node library batch."""
    assert np.array_equal(pb.nodes, np.arange(pb.grid.n_steps + 1))
    return pb.compensated


def test_empirical_moment_constant_batch(cir, grid):
    batch = _constant_batch(cir, grid, 0.07)
    mean, stderr = empirical_moment(batch, 0.5, 3)
    assert mean == pytest.approx(0.07**3, rel=1e-14)
    assert stderr == 0.0


def test_empirical_moment_initial_condition(full_runs):
    for mid, (model, pb) in full_runs.items():
        mean, stderr = empirical_moment(pb, 0.0, 1)
        # exact up to summation rounding (one ulp across 5000 terms)
        assert mean == pytest.approx(0.05, abs=1e-16)
        assert stderr <= 1e-18


def test_empirical_moment_validation(cir, grid):
    batch = _constant_batch(cir, grid, 0.07)
    with pytest.raises(ValueError):
        empirical_moment(batch, 0.5, 0)
    with pytest.raises(ValueError):
        empirical_moment(batch, 0.0001234, 2)  # off-grid time
    small = make_grid(0.01, 0.001)
    kept_t = simulate_batch(cir, BrownianBatch(1, small, np.zeros((4, 10))), nodes=[10])
    with pytest.raises(ValueError, match="time 0.005 is not a node this path batch kept"):
        empirical_moment(kept_t, 0.005, 2)  # a node of the grid that the walk did not keep


def test_moment_bound_paper_arithmetic(params):
    C2, bound = moment_bound(params, 2, 1.0)
    assert C2 == pytest.approx(4.29)
    assert bound == pytest.approx(146.29776934176377, rel=1e-12)


def test_moment_bound_at_time_zero():
    p = ModelParams(kappa=2.0, theta=0.05, xi=0.3, v0=1.0)
    _, bound = moment_bound(p, 2, 0.0)
    assert bound == pytest.approx(4.0)  # 2 * (1 + 1) * 1
    with pytest.raises(ValueError, match="checkpoint must be nonnegative"):
        moment_bound(p, 2, -1e-300)


def test_a_ceiling_at_time_zero_is_finite_when_c_m_overflows():
    # at xi = 1.3e154, C_3 and C_4 overflow; exp(C_m t) at t = 0 is 1, not exp(inf * 0)
    params = ModelParams(kappa=2.0, theta=0.05, xi=1.3e154, v0=0.05)
    batch = sample_batch(42, 4, make_grid(0.02, 0.01))
    reports = check_moment_bounds(simulate_batch(gm_model(params, make_builtin("p1")), batch),
                                  checkpoints=(0.0,))
    assert [math.isinf(r.C_m) for r in reports] == [False, True, True]
    assert [r.theoretical_bound for r in reports] == [2.0 ** (m - 1) * (1.0 + 0.05**m)
                                                      for m in (2, 3, 4)]
    assert all(r.satisfied for r in reports)


def test_moment_bound_past_the_largest_double_is_inf(params):
    # an order that no double holds overflows C_m itself, which is still a true bound
    assert moment_bound(params, 10**400, 1.0) == (math.inf, math.inf)


def test_one_path_has_no_standard_error(cir, grid):
    # with one path, a standard error of 0 would make the 4-sigma test demand equality
    batch = _constant_batch(cir, grid, 0.07, m_paths=1)
    with pytest.raises(ValueError, match="a standard error needs at least 2 paths, got 1"):
        empirical_moment(batch, 0.5, 2)
    with pytest.raises(ValueError, match="a standard error needs at least 2 paths, got 1"):
        martingale_report(batch)


def test_moment_bound_monotone_in_order(params):
    cs = [moment_bound(params, m, 1.0)[0] for m in range(2, 8)]
    assert all(b > a for a, b in zip(cs, cs[1:]))


def test_moment_bound_rejects_first_order(params):
    with pytest.raises(ValueError):
        moment_bound(params, 1, 1.0)


def test_check_moment_bounds_degenerate_batch(params, cir, grid):
    batch = _constant_batch(cir, grid, params.v0)
    reports = check_moment_bounds(batch, orders=(2, 3, 4))
    assert len(reports) == 12
    assert all(r.satisfied for r in reports)


def test_check_moment_bounds_full_runs(full_runs):
    for mid, (model, pb) in full_runs.items():
        reports = check_moment_bounds(pb, orders=(2, 3, 4))
        assert len(reports) == 12
        assert all(r.satisfied for r in reports), mid


def test_second_moment_bound_examples(gm_p1, grid):
    # K = 8, T = 1: (1 + 3*0.0025) * exp(120); slack by design
    bound = second_moment_bound(gm_p1, grid)
    assert bound == pytest.approx((1 + 3 * 0.05**2) * math.exp(120.0), rel=1e-12)
    assert bound > 1e50


def test_second_moment_bound_t_to_zero():
    p = ModelParams(kappa=1.0, theta=1.0, xi=1.0, v0=0.3)
    bound = second_moment_bound(cir_model(p), make_grid(1e-9, 1e-9))
    assert bound == pytest.approx(1.0 + 3 * 0.09, rel=1e-6)
    assert bound >= p.v0**2


def test_second_moment_bound_doubling_identity():
    grid = make_grid(1.0, 0.5)
    p1 = ModelParams(kappa=1.0, theta=1.0, xi=1.0, v0=0.3)
    p2 = ModelParams(kappa=math.sqrt(2.0), theta=1.0, xi=1.0, v0=0.3)
    b1 = second_moment_bound(cir_model(p1), grid)  # K = 2
    b2 = second_moment_bound(cir_model(p2), grid)  # K = 4
    assert b2 == pytest.approx(b1**2 / (1.0 + 3 * 0.3**2), rel=1e-9)


def test_martingale_at_time_zero(params, full_runs):
    _, pb = full_runs["gm_p1"]
    report = martingale_report(pb, checkpoints=(0.0, 0.5))
    assert report.mh_means[0] == pytest.approx(params.v0, abs=1e-16)
    assert report.mh_stderrs[0] <= 1e-18


def test_martingale_deterministic_batch(params, gm_p1, grid):
    # zero increments: the compensated statistic telescopes back to v0
    pb = simulate_batch(gm_p1, BrownianBatch(0, grid, np.zeros((1, grid.n_steps))))
    mh = _martingale_paths(pb)
    assert np.max(np.abs(mh - params.v0)) <= 1e-14


def _telescoping_gap(pb, increments, rows):
    """Worst |M(t_j) - v0 - sum_{i<j} g(v(t_i)) dW_i| over the given rows."""
    _, g = coefficients(pb.model)
    mh = _martingale_paths(pb)
    worst = 0.0
    for i in rows:
        gsum = np.concatenate(([0.0], np.cumsum(g(pb.values[i, :-1]) * increments[i])))
        worst = max(worst, float(np.max(np.abs(mh[i] - pb.model.params.v0 - gsum))))
    return worst


def test_martingale_telescoping_identity(params, full_runs, full_batch):
    # per path: M(t_j) - v0 equals the accumulated diffusion sum
    _, pb = full_runs["gm_p1"]
    rng = np.random.default_rng(5)
    rows = rng.integers(0, pb.m_paths, size=10)
    assert _telescoping_gap(pb, full_batch.increments, rows) <= 1e-12
    # the compensator is the model's own drift, kappa * x * (theta - x) for
    # pkm a=1, checked on paths the clamp never touched
    pkm = simulate_batch(pkm_model(params, 1, 0.5), full_batch)
    unclamped = np.flatnonzero(pkm.clamp_counts == 0)
    assert unclamped.size >= 10
    rows = rng.choice(unclamped, size=10, replace=False)
    assert _telescoping_gap(pkm, full_batch.increments, rows) <= 1e-12


def test_martingale_report_full_runs(full_runs):
    for mid, (model, pb) in full_runs.items():
        report = martingale_report(pb)
        assert report.satisfied, mid
        assert report.max_abs_drift <= 4.0 * max(report.mh_stderrs) + report.bias_allowance


def test_martingale_rule_false_failure_rate_at_150_paths(capsys):
    """The size of the 4 sigma rule where its stated rate holds. From M = 149 on the Student t
    model gives P(|t| > 4) <= 1e-4 a check, so at most 4e-4 a run of 4 checkpoints. Bound,
    written before the first run: P(Binomial(800, 4e-4) > 3) = 3.4e-4, so at most 3 of 800
    runs (cir and gm p1 at 400 seeds outside every reserved set) fail on correct models."""
    params = ModelParams(kappa=2.0, theta=0.05, xi=0.3, v0=0.05)
    models = [cir_model(params), gm_model(params, make_builtin("p1"))]
    grid = make_grid(1.0, 0.01)
    failed = sum(not martingale_report(pb).satisfied
                 for seed in range(10_000, 10_400)
                 for pb in simulate_models(models, sample_batch(seed, 150, grid)))
    with capsys.disabled():
        print(f"\nmartingale rule at M = 150: {failed} of 800 runs failed")
    assert failed <= 3


def test_martingale_requires_checkpoints(full_runs):
    _, pb = full_runs["cir"]
    with pytest.raises(ValueError):
        martingale_report(pb, checkpoints=())


def test_jensen_inequality_on_batches(full_runs):
    for mid, (model, pb) in full_runs.items():
        m1, _ = empirical_moment(pb, 1.0, 1)
        m2, _ = empirical_moment(pb, 1.0, 2)
        assert m2 >= m1**2


def test_terminal_histogram_conservation(full_runs):
    _, pb = full_runs["cir"]
    hist = terminal_histogram(pb, 1.0, 50)
    assert hist.counts.sum() == pb.m_paths
    widths = np.diff(hist.bin_edges)
    assert abs(float(np.sum(hist.densities * widths)) - 1.0) <= 1e-12
    assert np.all(hist.counts >= 0)
    assert np.all(np.diff(hist.bin_edges) > 0)


def test_terminal_histogram_degenerate(cir, grid):
    batch = _constant_batch(cir, grid, 0.05, m_paths=11)
    hist = terminal_histogram(batch, 1.0, 50)
    assert len(hist.counts) == 1
    assert hist.counts[0] == 11
    width = hist.bin_edges[1] - hist.bin_edges[0]
    assert width < 1e-12
    assert float(np.sum(hist.densities * width)) == pytest.approx(1.0, abs=1e-12)


def test_terminal_histogram_validation(full_runs):
    _, pb = full_runs["cir"]
    with pytest.raises(ValueError):
        terminal_histogram(pb, 1.0, 0)


def test_aggregation_determinism(full_runs):
    _, pb = full_runs["gm_p2"]
    a = martingale_report(pb)
    b = martingale_report(pb)
    assert a == b


def test_ceilings_past_the_largest_double_are_inf():
    # C_4 * t = 15008.4 and 3*K*T*(T+4) = 37500 are far past log(max double):
    # the ceilings are inf, still true bounds
    params = ModelParams(kappa=2.0, theta=0.05, xi=50.0, v0=0.05)
    C_m, bound = moment_bound(params, 4, 1.0)
    assert math.isfinite(C_m)
    assert bound == math.inf
    assert moment_bound(params, 2, 0.01)[1] < math.inf
    assert second_moment_bound(cir_model(params), make_grid(1.0, 0.001)) == math.inf


def test_martingale_report_holds_no_path_matrix(params):
    grid = make_grid(0.5, 0.001)
    values = np.random.default_rng(9).uniform(0.0, 0.2, size=(2000, grid.n_steps + 1))
    pb = PathBatch(
        model=cir_model(params),
        grid=grid,
        nodes=np.arange(grid.n_steps + 1),
        values=values,
        compensated=values,
        clamp_counts=np.zeros(2000, dtype=np.int64),
        path0=values[0],
    )
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        martingale_report(pb)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < values.nbytes / 2


def test_martingale_paths_equals_the_cumsum_formula(params, small_batch):
    for model in (cir_model(params), gm_model(params, make_builtin("p1"))):
        pb = simulate_batch(model, small_batch)
        drift = params.kappa * (params.theta - pb.values[:, :-1]) * pb.grid.dt
        compensator = np.concatenate(
            [np.zeros((pb.m_paths, 1)), np.cumsum(drift, axis=1)], axis=1
        )
        expected = pb.values - compensator
        assert _martingale_paths(pb).tobytes() == expected.tobytes()
