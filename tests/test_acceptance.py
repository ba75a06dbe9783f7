"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line. Run with ``pytest tests/test_acceptance.py -v -s``.

Statistical criteria use the reference configuration (kappa=2,
theta=0.05, xi=0.3, v0=0.05, T=1, dt=0.001, M=5000) with fixed seeds so
the suite is deterministic.
"""

import json
import math
import time

import numpy as np
import pytest

from varexp_cir.analysis import check_moment_bounds, martingale_report
from varexp_cir.cli import run as cli_run
from varexp_cir.exponent import constant_exponent, make_builtin, validate_hypotheses
from varexp_cir.model import (
    ModelParams,
    cir_model,
    coefficients,
    feller_check,
    gm_model,
    parse_model,
)
from varexp_cir.solver import (
    band_exit_index,
    euler_maruyama_truncated,
    picard_solve,
    simulate_batch,
    simulate_models,
)
from varexp_cir.stochastic import BrownianBatch, make_grid, path_increments, sample_batch
from varexp_cir.truncation import (
    TruncationParams,
    lipschitz_constants,
    truncated_diffusion,
    truncated_drift,
)

from conftest import DT, KAPPA, M_PATHS, SEED, T, THETA, V0, XI


def _report(criterion: int | str, name: str, ok: bool, detail: str = ""):
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
        and rep.classical_lhs_2kt == pytest.approx(0.2)
        and rep.classical_rhs_xi2 == pytest.approx(0.09)
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


def test_criterion_4_moment_bounds(full_runs):
    checkpoints = (T / 4, T / 2, 3 * T / 4, T)
    total = satisfied = 0
    for mid, (model, pb) in full_runs.items():
        reports = check_moment_bounds(pb, orders=(2, 3, 4), checkpoints=checkpoints)
        total += len(reports)
        satisfied += sum(r.satisfied for r in reports)
    ok = total == 48 and satisfied == 48
    _report(4, "moment growth ceilings", ok, f"{satisfied}/{total} (12 checks x 4 models)")


def test_criterion_5_martingale_property(full_runs, full_batch):
    ok = True
    details = []
    for mid, (model, pb) in full_runs.items():
        rep = martingale_report(pb, checkpoints=(T / 4, T / 2, 3 * T / 4, T))
        per_checkpoint = all(
            abs(mu - V0) <= 4.0 * se for mu, se in zip(rep.mh_means, rep.mh_stderrs)
        )
        ok &= per_checkpoint
        details.append(f"{mid}:max|dev|={rep.max_abs_drift:.1e}")
    # telescoping identity on 10 random paths of the p1 run
    model, pb = full_runs["gm_p1"]
    _, g = coefficients(model)
    mh = pb.compensated  # the kernel's compensated statistic at every node
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


def test_criterion_6b_oracle_chain(params):
    # The paper's chain on one batch: Picard iterates converge to truncated
    # Euler, which equals production full-truncation Euler bit for bit up
    # to and including the first state outside tp.band (inside the band
    # f_n = f, g_n = g and max(v, 0) = v exactly). n <= 20 is left out:
    # there v0 = 0.05 < 1/n puts every path outside the band at t = 0.
    grid = make_grid(1.0, 0.001)
    batch = sample_batch(7, 500, grid)
    columns = np.arange(grid.n_steps + 1)
    exit_fractions, worst_gap = [], 0.0
    for spec in ("cir", "gm:p1", "gm:p2", "gm:p3"):
        model = parse_model(spec, params)
        production = simulate_batch(model, batch).values
        for n in (25, 100, 1000):
            tp = TruncationParams(n)
            truncated = euler_maruyama_truncated(tp, model, grid, batch.increments)
            exits = band_exit_index(tp, truncated)
            assert np.array_equal(band_exit_index(tp, production), exits), (spec, n)
            upto = columns[None, :] <= exits[:, None]
            assert np.array_equal(
                production.view(np.uint64)[upto], truncated.view(np.uint64)[upto]
            ), (spec, n)
            if n == 100:  # some paths do leave the band, so the check above bites
                assert np.mean(exits < columns.size) > 0.0, spec
                exit_fractions.append(f"{spec}:{np.mean(exits < columns.size):.3f}")
            for i in range(16):
                report = picard_solve(tp, model, grid, batch.increments[i], tol=1e-9, k_max=200)
                assert report.converged, (spec, n, i)
                gap = float(np.max(np.abs(report.fixed_point - truncated[i])))
                assert gap <= 1e-9, (spec, n, i)
                worst_gap = max(worst_gap, gap)
    detail = f"n=100 exit fractions {', '.join(exit_fractions)}; worst Picard gap {worst_gap:.1e}"
    _report("6b", "Picard/truncated Euler/production Euler chain", True, detail)


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


#: Rejection level of the terminal-law test, fixed before any run: a p-value below it fails.
#: It matches the false-failure rate of the 4-sigma checks above.
KS_LEVEL = 1e-4


def test_criterion_11_cir_terminal_law(full_batch):
    # v_T of CIR is c chi'^2(d, lambda) with c = xi^2 (1 - e^{-kappa T}) / (4 kappa),
    # d = 4 kappa theta / xi^2 and lambda = v0 e^{-kappa T} / c (Cox, Ingersoll & Ross 1985).
    # Started off equilibrium (v0 = 2 theta), so a wrong drift rate moves the law
    from scipy import stats

    kappa, theta, xi, v0 = 2.0, 0.05, 0.3, 0.1
    pb = simulate_batch(parse_model("cir", ModelParams(kappa, theta, xi, v0)), full_batch,
                        nodes=[int(T / DT)])
    c = xi**2 * -np.expm1(-kappa * T) / (4.0 * kappa)
    law = stats.ncx2(df=4.0 * kappa * theta / xi**2, nc=v0 * np.exp(-kappa * T) / c, scale=c)
    result = stats.kstest(pb.values[:, -1], law.cdf)
    clamps = int(pb.clamp_counts.sum())
    _report(11, "CIR terminal law (KS against the scaled noncentral chi-square)",
            result.pvalue >= KS_LEVEL,
            f"D={result.statistic:.4f}, p={result.pvalue:.3g} (rejected below {KS_LEVEL:g}); "
            f"clamped steps {clamps}")


GM_SPECS = ("gm:p1", "gm:p2", "gm:p3")


def _euler_moment_identities(full_batch, v0, orders):
    # With f(v) = kappa (theta - v) and g(v)^2 = xi^2 v^{2 p(v)} from the paper, an Euler step
    # y = x + g dW_j, x = v_j + f dt, is normal given v_j with variance s^2 = g^2 dt, so
    # E[y^m | v_j] = sum_{k even} C(m, k) x^{m-k} s^k (k-1)!! and
    # S_m = v_N^m - sum_j (E[y^m | v_j] - v_j^m) has mean v0^m on Euler paths. A clamped step
    # stores 0 for y < 0 and moves S_m by -y^m, so the mean is v0^m within the mean over paths
    # of sum |y|^m at clamped steps: that is the allowance. Bound: |mean - v0^m| <= 4 SE plus
    # the allowance. gm p1-p3 walk the reference batch 500 rows at a time, 4 MB per model.
    # Per model: its spec, clamped steps and, per order, (m, z, within the bound, allowance).
    grid, n_steps = full_batch.grid, int(T / DT)
    models = [parse_model(spec, ModelParams(KAPPA, THETA, XI, v0)) for spec in GM_SPECS]
    exponents = [make_builtin(spec[3:]).func for spec in GM_SPECS]
    s_values = [{m: [] for m in orders} for _ in GM_SPECS]
    allowance = [dict.fromkeys(orders, 0.0) for _ in GM_SPECS]
    clamped = [0] * len(GM_SPECS)
    for start in range(0, M_PATHS, 500):
        batch = BrownianBatch(SEED, grid, full_batch.increments[start : start + 500])
        for i, pb in enumerate(simulate_models(models, batch)):
            v = pb.values[:, :n_steps]
            f, g = KAPPA * (THETA - v), XI * np.power(v, exponents[i](v))
            x, s2 = v + f * DT, g * g * DT
            y = x + g * batch.increments
            below = np.abs(y[pb.values[:, 1:] == 0.0])
            for m in orders:
                step_mean = sum(math.comb(m, k) * math.prod(range(k - 1, 0, -2))
                                * x ** (m - k) * s2 ** (k // 2) for k in range(0, m + 1, 2))
                s_values[i][m].append(pb.values[:, -1] ** m - (step_mean - v**m).sum(axis=1))
                allowance[i][m] += float((below**m).sum()) / M_PATHS
            clamped[i] += int(pb.clamp_counts.sum())
    results = []
    for i, spec in enumerate(GM_SPECS):
        checks = []
        for m in orders:
            s = np.concatenate(s_values[i][m])
            mean, se = float(s.mean()), float(s.std(ddof=1) / np.sqrt(s.size))
            within = abs(mean - v0**m) <= 4.0 * se + allowance[i][m]
            checks.append((m, (mean - v0**m) / se, within, allowance[i][m]))
        results.append((spec, clamped[i], checks))
    return results


def test_criterion_12_second_order_ito_identity(full_batch):
    # the order-2 identity at the reference start: E[y^2 | v_j] = x^2 + s^2
    ok, details = True, []
    for spec, clamped, [(_, z, within, allowance)] in _euler_moment_identities(full_batch, V0, (2,)):
        ok &= within
        details.append(f"{spec}: z={z:+.2f}, clamped steps {clamped}, allowance {allowance:.1e}")
    _report(12, "second-order Ito identity", ok, "; ".join(details))


def test_criterion_13_exact_mean_off_equilibrium(full_batch):
    # With the linear drift f(v) = kappa (theta - v), an Euler step that is not clamped has
    # E[v_{j+1} | v_j] = v_j + kappa (theta - v_j) dt, so on paths that are never clamped
    # E[v_j] = theta + (v0 - theta)(1 - kappa dt)^j exactly, whatever the diffusion. Started
    # off equilibrium (v0 = 2 theta), a wrong drift rate moves the mean. Bound, fixed before
    # any run: |mean - target| <= 4 standard errors at T/4, T/2, 3T/4 and T, with no clamp.
    v0, n_steps = 0.1, int(T / DT)
    nodes = [n_steps // 4, n_steps // 2, 3 * n_steps // 4, n_steps]
    specs = ("cir", "gm:p1", "gm:p2", "gm:p3")
    models = [parse_model(spec, ModelParams(KAPPA, THETA, XI, v0)) for spec in specs]
    ok, details = True, []
    for spec, pb in zip(specs, simulate_models(models, full_batch, nodes=nodes)):
        clamps, z = int(pb.clamp_counts.sum()), []
        for k, j in enumerate(nodes):
            v, target = pb.values[:, k], THETA + (v0 - THETA) * (1.0 - KAPPA * DT) ** j
            z.append((float(v.mean()) - target) / float(v.std(ddof=1) / np.sqrt(v.size)))
        ok &= clamps == 0 and max(map(abs, z)) <= 4.0
        details.append(f"{spec}: z={', '.join(f'{x:+.2f}' for x in z)}, clamped steps {clamps}")
    _report(13, "exact Euler mean off equilibrium", ok, "; ".join(details))


def test_criterion_14_third_and_fourth_order_euler_identities(full_batch):
    # criterion 12's identity at orders 3 and 4, started off equilibrium (v0 = 2 theta), under
    # the same bound: |mean(S_m) - v0^m| <= 4 SE plus the clamp allowance
    start = time.monotonic()
    ok, details = True, []
    for spec, clamped, checks in _euler_moment_identities(full_batch, 0.1, (3, 4)):
        ok &= all(within for _, _, within, _ in checks)
        orders = ", ".join(f"m={m} z={z:+.2f} allowance {a:.1e}" for m, z, _, a in checks)
        details.append(f"{spec}: {orders}, clamped steps {clamped}")
    elapsed = time.monotonic() - start
    _report(14, "third- and fourth-order Euler identities", ok, f"{'; '.join(details)}; {elapsed:.2f}s")


def test_criterion_15_zero_boundary_verdict_against_the_paths():
    # Under full truncation a path touches zero when one of its steps is clamped. Where zero
    # is attainable the fraction of paths that touch it stays put as h falls; where it is not,
    # the fraction falls toward 0. At xi = 0.6 (2 kappa theta = 0.2 < xi^2 = 0.36, so the
    # classical Feller condition fails) on cir, gm:p1 (p(0+) = 0.5), gm:p2 (0.6) and
    # gm:const:0.75, seed 2718, M = 2000, T = 1 and h = 2^-6, 2^-8, 2^-10 and 2^-12. Bound,
    # fixed before any run, by the feller verdict: attainable, the finest fraction is at least
    # half the coarsest, which is above 0; non-attainable, it is at most a tenth of the
    # coarsest; any other verdict fails. gm:p3 (p(0+) = 0.55, whose fraction falls slowly) and
    # xi = 1.0 are left out: there feller calls p3 non-attainable, but its fraction stays at
    # 0.87-0.88 from h = 2^-6 to 2^-12 (seed 2718), as one step's noise xi x^0.55 sqrt(h)
    # passes x long before the drift repels.
    start = time.monotonic()
    specs = ("cir", "gm:p1", "gm:p2", "gm:const:0.75")
    models = [parse_model(spec, ModelParams(KAPPA, THETA, 0.6, V0)) for spec in specs]
    m_paths, levels = 2000, (6, 8, 10, 12)
    touched = np.zeros((len(levels), len(specs)))
    for i, k in enumerate(levels):
        grid = make_grid(1.0, 2.0**-k)
        for rows in range(0, m_paths, 500):  # 16 MB of increments at the finest level
            batch = sample_batch(2718, range(rows, rows + 500), grid)
            for j, pb in enumerate(simulate_models(models, batch, nodes=[grid.n_steps])):
                touched[i, j] += np.count_nonzero(pb.clamp_counts) / m_paths
    ok, details = True, []
    for j, (spec, model) in enumerate(zip(specs, models)):
        verdict, coarse, fine = feller_check(model).verdict, touched[0, j], touched[-1, j]
        if verdict == "attainable":
            ok &= fine >= coarse / 2 and coarse > 0
        else:
            ok &= verdict == "non-attainable" and fine <= coarse / 10
        details.append(f"{spec} ({verdict}): {', '.join(f'{x:.3f}' for x in touched[:, j])}")
    elapsed = time.monotonic() - start
    _report(15, "zero-boundary verdict against the fraction of paths touching zero", ok,
            f"{'; '.join(details)}; {elapsed:.2f}s")


def test_criterion_16_stationary_law(params):
    # Where zero is not attainable, the stationary density is the normalised speed density
    # pi(x) ~ g(x)^-2 exp(int_theta^x 2 f / g^2) (Karlin & Taylor 1981, ch. 15), built here from
    # the paper's f(v) = kappa (theta - v) and g(v) = xi v^p(v), not from the model's closures.
    # At T = 5 (e^{-kappa T} = 4.5e-5) v_T follows pi up to the Euler bias. pi's CDF: quad of
    # 2f/g^2 between the points of an 800-point geometric grid on [1e-8, 2], summed, then
    # Simpson's rule (the trapezoid rule is 9.2e-5 off cir's Gamma law on this grid). Bounds,
    # fixed before any run: each model's KS p-value is at least KS_LEVEL, and cir's quadrature
    # CDF is within 1e-5 of the Gamma law with shape 2 kappa theta / xi^2 and scale
    # xi^2 / (2 kappa). A halved drift rate fails every model, and an exponent raised by 0.1
    # fails gm p1-p3 (p <= 9e-41).
    from scipy import integrate, stats

    start = time.monotonic()
    specs = ("cir", "gm:p1", "gm:p2", "gm:p3")
    grid = make_grid(5.0, 0.01)
    runs = simulate_models([parse_model(spec, params) for spec in specs],
                           sample_batch(31337, M_PATHS, grid), nodes=[grid.n_steps])
    xs = np.geomspace(1e-8, 2.0, 800)
    ok, details = True, []
    for spec, pb in zip(specs, runs):
        p = (lambda y: 0.5) if spec == "cir" else make_builtin(spec[3:]).func
        two_f_over_g2 = lambda y: 2.0 * KAPPA * (THETA - y) / (XI**2 * y ** (2.0 * p(y)))
        s = np.cumsum([0.0] + [integrate.quad(two_f_over_g2, a, b)[0]
                               for a, b in zip(xs[:-1], xs[1:])])
        density = np.exp(s - s.max()) / (XI**2 * xs ** (2.0 * p(xs)))
        cdf = integrate.cumulative_simpson(density, x=xs, initial=0.0)
        cdf /= cdf[-1]
        result = stats.kstest(pb.values[:, -1], lambda x: np.interp(x, xs, cdf))
        ok &= result.pvalue >= KS_LEVEL
        details.append(f"{spec}: D={result.statistic:.4f}, p={result.pvalue:.3g}")
        if spec == "cir":
            law = stats.gamma(2.0 * KAPPA * THETA / XI**2, scale=XI**2 / (2.0 * KAPPA))
            gap = float(np.max(np.abs(cdf - law.cdf(xs))))
            ok &= gap <= 1e-5
            details.append(f"cir quadrature CDF within {gap:.1e} of the Gamma law")
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.5
    _report(16, "stationary law from the speed density (KS)", ok,
            f"{'; '.join(details)} (rejected below {KS_LEVEL:g}); {elapsed:.2f}s")
