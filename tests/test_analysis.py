import math
import tracemalloc

import numpy as np
import pytest

from varexp_cir.analysis import (
    check_moment_bounds,
    empirical_moment,
    martingale_paths,
    martingale_report,
    moment_bound,
    second_moment_bound,
    terminal_histogram,
)
from varexp_cir.exponent import make_builtin
from varexp_cir.model import ModelParams, cir_model, coefficients, gm_model
from varexp_cir.solver import PathBatch, simulate_batch
from varexp_cir.stochastic import BrownianBatch, make_grid


def _constant_batch(grid, value, m_paths=8):
    values = np.full((m_paths, grid.n_steps + 1), value)
    return PathBatch(
        grid=grid,
        values=values,
        clamp_counts=np.zeros(m_paths, dtype=np.int64),
        policy="full-truncation",
    )


def test_empirical_moment_constant_batch(grid):
    batch = _constant_batch(grid, 0.07)
    mean, stderr = empirical_moment(batch, 0.5, 3)
    assert mean == pytest.approx(0.07**3, rel=1e-14)
    assert stderr == 0.0


def test_empirical_moment_initial_condition(full_runs):
    for mid, (model, pb) in full_runs.items():
        mean, stderr = empirical_moment(pb, 0.0, 1)
        # exact up to summation rounding (one ulp across 5000 terms)
        assert mean == pytest.approx(0.05, abs=1e-16)
        assert stderr <= 1e-18


def test_empirical_moment_validation(grid):
    batch = _constant_batch(grid, 0.07)
    with pytest.raises(ValueError):
        empirical_moment(batch, 0.5, 0)
    with pytest.raises(ValueError):
        empirical_moment(batch, 0.0001234, 2)  # off-grid time


def test_moment_bound_paper_arithmetic(params):
    C2, bound = moment_bound(params, 2, 1.0)
    assert C2 == pytest.approx(4.29)
    assert bound == pytest.approx(146.29776934176377, rel=1e-12)


def test_moment_bound_at_time_zero():
    p = ModelParams(kappa=2.0, theta=0.05, xi=0.3, v0=1.0)
    _, bound = moment_bound(p, 2, 0.0)
    assert bound == pytest.approx(4.0)  # 2 * (1 + 1) * 1


def test_moment_bound_monotone_in_order(params):
    cs = [moment_bound(params, m, 1.0)[0] for m in range(2, 8)]
    assert all(b > a for a, b in zip(cs, cs[1:]))


def test_moment_bound_rejects_first_order(params):
    with pytest.raises(ValueError):
        moment_bound(params, 1, 1.0)


def test_check_moment_bounds_degenerate_batch(params, grid):
    batch = _constant_batch(grid, params.v0)
    reports = check_moment_bounds(batch, params, orders=(2, 3, 4))
    assert len(reports) == 12
    assert all(r.satisfied for r in reports)


def test_check_moment_bounds_full_runs(params, full_runs):
    for mid, (model, pb) in full_runs.items():
        reports = check_moment_bounds(pb, params, orders=(2, 3, 4))
        assert len(reports) == 12
        assert all(r.satisfied for r in reports), mid


def test_second_moment_bound_examples(params, gm_p1, grid):
    # K = 8, T = 1: (1 + 3*0.0025) * exp(120); slack by design
    bound = second_moment_bound(params, gm_p1, grid)
    assert bound == pytest.approx((1 + 3 * 0.05**2) * math.exp(120.0), rel=1e-12)
    assert bound > 1e50


def test_second_moment_bound_t_to_zero():
    p = ModelParams(kappa=1.0, theta=1.0, xi=1.0, v0=0.3)
    bound = second_moment_bound(p, cir_model(p), make_grid(1e-9, 1e-9))
    assert bound == pytest.approx(1.0 + 3 * 0.09, rel=1e-6)
    assert bound >= p.v0**2


def test_second_moment_bound_doubling_identity():
    grid = make_grid(1.0, 0.5)
    p1 = ModelParams(kappa=1.0, theta=1.0, xi=1.0, v0=0.3)
    p2 = ModelParams(kappa=math.sqrt(2.0), theta=1.0, xi=1.0, v0=0.3)
    b1 = second_moment_bound(p1, cir_model(p1), grid)  # K = 2
    b2 = second_moment_bound(p2, cir_model(p2), grid)  # K = 4
    assert b2 == pytest.approx(b1**2 / (1.0 + 3 * 0.3**2), rel=1e-9)


def test_martingale_at_time_zero(params, full_runs):
    _, pb = full_runs["gm_p1"]
    report = martingale_report(pb, params, checkpoints=(0.0, 0.5))
    assert report.mh_means[0] == pytest.approx(params.v0, abs=1e-16)
    assert report.mh_stderrs[0] <= 1e-18


def test_martingale_deterministic_batch(params, gm_p1, grid):
    # zero increments: the compensated statistic telescopes back to v0
    pb = simulate_batch(gm_p1, BrownianBatch(0, 1, grid, np.zeros((1, grid.n_steps))))
    mh = martingale_paths(pb, params)
    assert np.max(np.abs(mh - params.v0)) <= 1e-14


def test_martingale_telescoping_identity(params, full_runs, full_batch):
    # per path: M(t_j) - v0 equals the accumulated diffusion sum
    model, pb = full_runs["gm_p1"]
    _, g = coefficients(model)
    mh = martingale_paths(pb, params)
    rng = np.random.default_rng(5)
    for i in rng.integers(0, pb.m_paths, size=10):
        gsum = np.concatenate(
            ([0.0], np.cumsum(g(pb.values[i, :-1]) * full_batch.increments[i]))
        )
        assert np.max(np.abs(mh[i] - params.v0 - gsum)) <= 1e-12


def test_martingale_report_full_runs(params, full_runs):
    for mid, (model, pb) in full_runs.items():
        report = martingale_report(pb, params)
        assert report.satisfied, mid
        assert report.max_abs_drift <= 4.0 * max(report.mh_stderrs) + report.bias_allowance


def test_martingale_requires_checkpoints(params, full_runs):
    _, pb = full_runs["cir"]
    with pytest.raises(ValueError):
        martingale_report(pb, params, checkpoints=())


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


def test_terminal_histogram_degenerate(grid):
    batch = _constant_batch(grid, 0.05, m_paths=11)
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


def test_aggregation_determinism(params, full_runs):
    _, pb = full_runs["gm_p2"]
    a = martingale_report(pb, params)
    b = martingale_report(pb, params)
    assert a == b


def test_ceilings_past_the_largest_double_are_inf():
    # C_4 * t = 15008.4 and 3*K*T*(T+4) = 37500 are far past log(max double):
    # the ceilings are inf, still true bounds
    params = ModelParams(kappa=2.0, theta=0.05, xi=50.0, v0=0.05)
    C_m, bound = moment_bound(params, 4, 1.0)
    assert math.isfinite(C_m)
    assert bound == math.inf
    assert moment_bound(params, 2, 0.01)[1] < math.inf
    assert second_moment_bound(params, cir_model(params), make_grid(1.0, 0.001)) == math.inf


def test_martingale_report_holds_no_path_matrix(params):
    grid = make_grid(0.5, 0.001)
    values = np.random.default_rng(9).uniform(0.0, 0.2, size=(2000, grid.n_steps + 1))
    pb = PathBatch(
        grid=grid,
        values=values,
        clamp_counts=np.zeros(2000, dtype=np.int64),
        policy="full-truncation",
    )
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        martingale_report(pb, params)
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
        assert martingale_paths(pb, params).tobytes() == expected.tobytes()
