"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line. Run with ``pytest tests/test_acceptance.py -v -s``.

Statistical criteria use the reference configuration (kappa=2,
theta=0.05, xi=0.3, v0=0.05, T=1, dt=0.001, M=5000) with fixed seeds so
the suite is deterministic.
"""

import json
import time

import numpy as np
import pytest

from varexp_cir.analysis import check_moment_bounds, martingale_paths, martingale_report
from varexp_cir.cli import run as cli_run
from varexp_cir.exponent import constant_exponent, make_builtin, validate_hypotheses
from varexp_cir.model import ModelParams, cir_model, coefficients, feller_check, gm_model
from varexp_cir.solver import (
    euler_maruyama_truncated,
    picard_solve,
    simulate_batch,
)
from varexp_cir.stochastic import make_grid, path_increments, sample_batch
from varexp_cir.truncation import (
    TruncationParams,
    lipschitz_constants,
    truncated_diffusion,
    truncated_drift,
)

from conftest import DT, KAPPA, M_PATHS, SEED, T, THETA, V0, XI


def _report(criterion: int, name: str, ok: bool, detail: str = ""):
    print(f"\n[ACCEPTANCE {criterion}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"acceptance criterion {criterion} ({name}) failed: {detail}"


def test_criterion_1_hypothesis_validation():
    start = time.monotonic()
    ok = True
    details = []
    for name in ("p1", "p2", "p3"):
        rep = validate_hypotheses(make_builtin(name))
        inside = rep.observed_inf >= 0.5 - 1e-9 and rep.observed_sup <= 0.8 + 1e-9
        ok &= rep.passed and inside
        details.append(f"{name}:[{rep.observed_inf:.6f},{rep.observed_sup:.6f}]")
    for c in (1.2, 0.4):
        rep = validate_hypotheses(constant_exponent(c))
        ok &= not rep.passed
        details.append(f"const:{c}:{rep.verdict}")
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    _report(1, "hypothesis validation", ok, f"{'; '.join(details)}; {elapsed:.2f}s")


def test_criterion_2_feller_reproduction():
    start = time.monotonic()
    params = ModelParams(KAPPA, THETA, XI, V0)
    rep = feller_check(cir_model(params))
    ok = (
        rep.verdict == "non-attainable"
        and rep.classical_lhs == pytest.approx(0.2)
        and rep.classical_rhs == pytest.approx(0.09)
    )
    rng = np.random.default_rng(2024)
    agree = 0
    for _ in range(100):
        kappa, theta, xi = rng.uniform(0.05, 3.0, size=3)
        verdict = feller_check(cir_model(ModelParams(kappa, theta, xi, 0.05))).verdict
        expected = "non-attainable" if 2 * kappa * theta >= xi**2 else "attainable"
        agree += verdict == expected
    ok &= agree == 100
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    _report(2, "boundary test vs classical condition", ok, f"sweep {agree}/100; {elapsed:.2f}s")


def _fresh_runs(seed=SEED, dt=DT, m_paths=M_PATHS):
    params = ModelParams(KAPPA, THETA, XI, V0)
    grid = make_grid(T, dt)
    batch = sample_batch(seed, m_paths, grid)
    models = {"cir": cir_model(params)}
    for name in ("p1", "p2", "p3"):
        models[f"gm_{name}"] = gm_model(params, make_builtin(name))
    return params, batch, {mid: (m, simulate_batch(m, batch)) for mid, m in models.items()}


def test_criterion_3_mean_reproduction():
    start = time.monotonic()
    params, batch, runs = _fresh_runs()
    allowance_bias = KAPPA * (THETA + V0) * DT
    ok = True
    details = []
    for mid, (model, pb) in runs.items():
        terminal = pb.values[:, -1]
        mean = float(terminal.mean())
        stderr = float(terminal.std(ddof=1) / np.sqrt(pb.m_paths))
        dev = abs(mean - 0.05)
        ok &= dev <= 4.0 * stderr + allowance_bias
        details.append(f"{mid}:|{mean:.5f}-0.05|={dev:.1e}<={4 * stderr + allowance_bias:.1e}")
    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    _report(3, "terminal mean reproduction", ok, f"{'; '.join(details)}; {elapsed:.1f}s")


def test_criterion_4_moment_bounds(params, full_runs):
    checkpoints = (T / 4, T / 2, 3 * T / 4, T)
    total = satisfied = 0
    for mid, (model, pb) in full_runs.items():
        reports = check_moment_bounds(pb, params, orders=(2, 3, 4), checkpoints=checkpoints)
        total += len(reports)
        satisfied += sum(r.satisfied for r in reports)
    ok = total == 48 and satisfied == 48
    _report(4, "moment growth ceilings", ok, f"{satisfied}/{total} (12 checks x 4 models)")


def test_criterion_5_martingale_property(params, full_runs, full_batch):
    ok = True
    details = []
    for mid, (model, pb) in full_runs.items():
        rep = martingale_report(pb, params, checkpoints=(T / 4, T / 2, 3 * T / 4, T))
        per_checkpoint = all(
            abs(mu - V0) <= 4.0 * se for mu, se in zip(rep.mh_means, rep.mh_stderrs)
        )
        ok &= per_checkpoint
        details.append(f"{mid}:max|dev|={rep.max_abs_drift:.1e}")
    # telescoping identity on 10 random paths of the p1 run
    model, pb = full_runs["gm_p1"]
    _, g = coefficients(model)
    mh = martingale_paths(pb, params)
    rng = np.random.default_rng(99)
    worst = 0.0
    for i in rng.integers(0, pb.m_paths, size=10):
        gsum = np.concatenate(
            ([0.0], np.cumsum(g(pb.values[i, :-1]) * full_batch.increments[i]))
        )
        worst = max(worst, float(np.max(np.abs(mh[i] - V0 - gsum))))
    ok &= worst <= 1e-12
    _report(5, "martingale statistic", ok, f"{'; '.join(details)}; telescoping<= {worst:.1e}")


def test_criterion_6_picard_euler_equivalence(gm_p1, grid):
    start = time.monotonic()
    tp = TruncationParams(10)
    ok = True
    details = []
    for seed in range(5):
        row = path_increments(seed, 0, grid)
        rep = picard_solve(tp, gm_p1, grid, row, tol=1e-9, k_max=200)
        em = euler_maruyama_truncated(tp, gm_p1, grid, row[None])[0]
        sup = float(np.max(np.abs(rep.fixed_point - em)))
        tail = np.asarray(rep.sup_diffs)[3:]
        monotone = bool(np.all(np.diff(tail) <= 0.0)) if tail.size > 1 else True
        ok &= rep.converged and sup <= 1e-9 and monotone
        details.append(f"s{seed}:k={rep.iterations_used},sup={sup:.1e}")
    elapsed = time.monotonic() - start
    ok &= elapsed < 5.0
    _report(6, "Picard/Euler fixed point", ok, f"{'; '.join(details)}; {elapsed:.2f}s")


def test_criterion_7_truncation_lipschitz(gm_p1):
    rng = np.random.default_rng(77)
    ok = True
    details = []
    for n in (2, 10, 100):
        tp = TruncationParams(n)
        rep = lipschitz_constants(tp, gm_p1)
        x = rng.uniform(1.0 / n, n, size=10_000)
        y = rng.uniform(1.0 / n, n, size=10_000)
        keep = x != y
        x, y = x[keep], y[keep]
        qf = np.abs(
            np.asarray(truncated_drift(tp, gm_p1, x)) - np.asarray(truncated_drift(tp, gm_p1, y))
        ) / np.abs(x - y)
        qg = np.abs(
            np.asarray(truncated_diffusion(tp, gm_p1, x))
            - np.asarray(truncated_diffusion(tp, gm_p1, y))
        ) / np.abs(x - y)
        ok &= float(np.max(qf)) <= rep.Lf_n and float(np.max(qg)) <= rep.Lg_n
        details.append(f"n={n}:f {np.max(qf):.3g}<={rep.Lf_n:.3g},g {np.max(qg):.3g}<={rep.Lg_n:.3g}")
    _report(7, "truncation Lipschitz domination", ok, "; ".join(details))


def test_criterion_8_positivity(full_runs, tmp_path, capsys):
    ok = True
    details = []
    for mid, (model, pb) in full_runs.items():
        nonneg = bool(np.all(pb.values >= 0.0))
        ok &= nonneg and pb.values.shape == (M_PATHS, 1001)
        details.append(f"{mid}:min={pb.values.min():.3g},clamps={int(pb.clamp_counts.sum())}")
    # clamp fractions are reported in run manifests
    out = tmp_path / "pos"
    code = cli_run(
        ["simulate", "--model", "gm:p1", "--paths", "50", "--T", "0.05", "--out", str(out)]
    )
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    ok &= code == 0 and "fraction" in manifest["clamp_stats"]["gm_p1"]
    _report(8, "positivity under full truncation", ok, "; ".join(details))


def test_criterion_9_determinism_crn(tmp_path, capsys):
    args = ["compare", "--exponents", "p1,p2,p3", "--seed", str(SEED)]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_run(args + ["--out", str(out1), "--no-svg"]) == 0
    assert cli_run(args + ["--out", str(out2), "--no-svg"]) == 0
    capsys.readouterr()
    csvs = sorted(p.name for p in out1.iterdir() if p.suffix == ".csv")
    identical = all((out1 / n).read_bytes() == (out2 / n).read_bytes() for n in csvs)
    sums = [
        json.loads((out1 / p.name).read_text())
        for p in out1.iterdir()
        if p.name.endswith("_summary.json")
    ]
    shared = len({s["increment_checksum"] for s in sums}) == 1
    ok = identical and shared and len(csvs) == 8 and len(sums) == 4
    _report(9, "byte determinism and common random numbers", ok,
            f"{len(csvs)} CSVs identical={identical}, shared checksum={shared}")


def test_criterion_10_weak_consistency(params, full_runs):
    # halve the step: independent batch (different seed), same path count
    grid2 = make_grid(T, 0.002)
    batch2 = sample_batch(1042, M_PATHS, grid2)
    ok = True
    details = []
    for mid, (model, pb_fine) in full_runs.items():
        pb_coarse = simulate_batch(model, batch2)
        fine = pb_fine.values[:, -1]
        coarse = pb_coarse.values[:, -1]
        m1, m2 = float(fine.mean()), float(coarse.mean())
        se = np.hypot(
            fine.std(ddof=1) / np.sqrt(fine.size), coarse.std(ddof=1) / np.sqrt(coarse.size)
        )
        dev = abs(m1 - m2)
        ok &= dev <= 2.0 * se
        details.append(f"{mid}:|{m1:.5f}-{m2:.5f}|={dev:.1e}<={2 * se:.1e}")
    _report(10, "weak consistency across step sizes", ok, "; ".join(details))
