import dataclasses
import json
import math

import numpy as np
import pytest

from varexp_cir.cli import json_text
from varexp_cir.exponent import ExponentFunction, constant_exponent, make_builtin
from varexp_cir.model import (
    ModelParams,
    cir_model,
    diffusion,
    drift,
    feller_check,
    feller_function,
    gm_model,
    growth_constant,
    parse_model,
    pkm_model,
)


def test_params_must_be_positive():
    with pytest.raises(ValueError):
        ModelParams(kappa=0.0, theta=0.05, xi=0.3, v0=0.05)
    with pytest.raises(ValueError):
        ModelParams(kappa=2.0, theta=-1.0, xi=0.3, v0=0.05)
    with pytest.raises(ValueError):
        ModelParams(kappa=2.0, theta=0.05, xi=math.inf, v0=0.05)


@pytest.mark.parametrize("one", [1, np.int64(1), np.float32(1.0)], ids=["int", "int64", "float32"])
def test_params_store_floats_so_the_walk_steps_in_float64(one):
    # an integer start failed the kernel's first in-place step, and a float32 one stepped
    # every state in single precision; each must walk as 1.0 does, bit for bit
    from varexp_cir import make_grid, sample_batch, simulate_batch

    params = ModelParams(2.0, 0.05, 0.3, one)
    assert type(params.v0) is float and params == ModelParams(2.0, 0.05, 0.3, 1.0)
    batch = sample_batch(1, 4, make_grid(0.01, 0.001))
    pb, expected = (simulate_batch(parse_model("gm:p1", p), batch)
                    for p in (params, ModelParams(2.0, 0.05, 0.3, 1.0)))
    assert pb.values.dtype == np.float64
    assert pb.values.tobytes() == expected.values.tobytes()


def test_drift_examples(params, gm_p1):
    assert drift(gm_p1, 0.05) == 0.0  # x = theta
    assert drift(gm_p1, 0.0) == pytest.approx(0.1)  # kappa * theta
    pkm = pkm_model(params, a=1, b=0.5)
    assert drift(pkm, 0.0) == 0.0


def test_drift_vanishes_at_theta_for_all_kinds():
    for kappa, theta in ((0.7, 0.3), (2.0, 0.05), (5.0, 1.4)):
        p = ModelParams(kappa=kappa, theta=theta, xi=0.1, v0=0.1)
        for model in (cir_model(p), gm_model(p, make_builtin("p2")), pkm_model(p, 1, 1.0)):
            assert drift(model, theta) == pytest.approx(0.0, abs=1e-15)


def test_diffusion_examples(params, gm_p1, cir):
    assert diffusion(cir, 0.04) == pytest.approx(0.06)
    # hand evaluation: 0.3 * 0.05**p1(0.05), p1(0.05) = 0.5 + 0.3*(1 - e^-0.05)
    p_at = 0.5 + 0.3 * (1.0 - math.exp(-0.05))
    assert p_at == pytest.approx(0.51463, abs=1e-5)
    assert diffusion(gm_p1, 0.05) == pytest.approx(0.3 * 0.05**p_at, rel=1e-14)
    for model in (gm_p1, cir, pkm_model(params, 0, 1.5)):
        assert diffusion(model, 0.0) == 0.0


def test_diffusion_rejects_negative_state(gm_p1):
    with pytest.raises(ValueError):
        diffusion(gm_p1, -0.01)
    with pytest.raises(ValueError):
        drift(gm_p1, math.nan)


def test_diffusion_nondecreasing_near_zero():
    p = ModelParams(kappa=2.0, theta=0.05, xi=0.3, v0=0.05)
    xs = np.linspace(0.0, 1.0, 500)
    for name in ("p1", "p2", "p3"):
        g = diffusion(gm_model(p, make_builtin(name)), xs)
        assert np.all(np.diff(g) >= -1e-15)
        assert np.all(g >= 0.0)


def test_growth_constant_closed_form(params, gm_p1):
    assert growth_constant(gm_p1) == pytest.approx(8.0)  # max(2*4*1, 0.09)
    cir111 = cir_model(ModelParams(1.0, 1.0, 1.0, 1.0))
    assert growth_constant(cir111) == pytest.approx(2.0)


def test_growth_constant_dominates_on_grid(params, gm_p1, cir):
    xs = np.linspace(0.0, 1e3, 4001)
    for model in (gm_p1, cir, pkm_model(params, 0, 1.0)):
        K = growth_constant(model)
        f2 = np.asarray(drift(model, xs)) ** 2
        g2 = np.asarray(diffusion(model, xs)) ** 2
        assert np.all(np.maximum(f2, g2) <= K * (1.0 + xs**2) * (1.0 + 1e-12))


def test_growth_constant_rejects_superlinear(params):
    with pytest.raises(ValueError):
        growth_constant(pkm_model(params, a=1, b=0.5))
    with pytest.raises(ValueError):
        growth_constant(pkm_model(params, a=0, b=1.5))


def test_feller_function_constant_half_identity(params):
    # with p = 1/2 the test function is kappa*(theta - x) - xi^2/2 exactly
    model = gm_model(params, make_builtin("const:0.5"))
    xs = np.geomspace(1e-8, 10.0, 200)
    expected = params.kappa * (params.theta - xs) - params.xi**2 / 2.0
    got = np.asarray(feller_function(model, xs))
    assert np.allclose(got, expected, rtol=0, atol=1e-15)
    assert feller_function(model, 0.05) == pytest.approx(-0.045, abs=1e-15)


def test_feller_function_rejects_nonpositive(gm_p1):
    with pytest.raises(ValueError):
        feller_function(gm_p1, 0.0)
    with pytest.raises(ValueError):
        feller_function(gm_p1, -1.0)


def test_feller_check_cir_paper_params(cir):
    report = feller_check(cir)
    assert report.verdict == "non-attainable"
    assert report.criterion_used == "constant_half"
    assert report.classical_lhs_2kt == pytest.approx(0.2)
    assert report.classical_rhs_xi2 == pytest.approx(0.09)
    assert report.classical_holds


def test_feller_check_cir_attainable_counterexample():
    model = cir_model(ModelParams(kappa=0.1, theta=0.1, xi=0.5, v0=0.05))
    report = feller_check(model)
    assert report.verdict == "attainable"  # 0.02 < 0.25
    assert not report.classical_holds


def test_feller_check_gm_builtins(params):
    r1 = feller_check(gm_model(params, make_builtin("p1")))
    # p1(0) = 1/2 exactly: refined limit kappa*theta - xi^2/2 = 0.055
    assert r1.criterion_used == "p0_equal_half"
    assert r1.analytic_limit == pytest.approx(0.055)
    assert r1.verdict == "non-attainable"

    r2 = feller_check(gm_model(params, make_builtin("p2")))
    assert r2.criterion_used == "p0_above_half"
    assert r2.analytic_limit == pytest.approx(0.1)
    assert r2.verdict == "non-attainable"

    r3 = feller_check(gm_model(params, make_builtin("p3")))
    assert r3.verdict == "non-attainable"

    # p(0+) = 0.4 < 1/2: the diffusion term wins and the limit is -inf
    r4 = feller_check(gm_model(params, constant_exponent(0.4)))
    assert r4.criterion_used == "p0_below_half"
    assert r4.analytic_limit == -math.inf
    assert r4.verdict == "attainable"


def test_feller_check_sweep_matches_inequality():
    # classical criterion 2*kappa*theta >= xi^2 over a random parameter sweep
    rng = np.random.default_rng(7)
    agreements = 0
    for _ in range(100):
        kappa, theta, xi = rng.uniform(0.05, 3.0, size=3)
        model = cir_model(ModelParams(kappa=kappa, theta=theta, xi=xi, v0=0.05))
        report = feller_check(model)
        assert report.verdict in ("non-attainable", "attainable")
        expected = "non-attainable" if 2 * kappa * theta >= xi**2 else "attainable"
        agreements += report.verdict == expected
    assert agreements == 100


def test_feller_check_pkm(params):
    assert feller_check(pkm_model(params, 0, 1.0)).verdict == "non-attainable"
    assert feller_check(pkm_model(params, 0, 1.5)).verdict == "non-attainable"
    # a=1, b=1/2: drift limit 0, diffusion contributes -xi^2/2 < 0
    assert feller_check(pkm_model(params, 1, 0.5)).verdict == "attainable"


def test_feller_check_of_an_exponent_that_cannot_be_differentiated_is_inconclusive(params):
    def deriv(x):
        raise ValueError("no derivative")

    fn = ExponentFunction(
        kind="custom", func=lambda x: np.full_like(np.asarray(x, dtype=float), 0.75), deriv=deriv,
        declared_pminus=0.75, declared_pplus=0.75,
    )
    report = feller_check(gm_model(params, fn))
    assert (report.verdict, report.numeric_profile) == ("inconclusive", ())
    assert report.criterion_used == "p0_above_half"


def test_feller_check_a_zero_limit_is_decided_by_the_profile():
    # pkm a=1, b=1 has f(0) = 0, so the limit is 0, and near 0 the test function is
    # (kappa theta - xi^2) x - kappa x^2: negative at xi = 0.6 (0.1 < 0.36), positive at 0.3
    for xi, verdict in ((0.6, "inconclusive"), (0.3, "non-attainable")):
        report = feller_check(parse_model("pkm:a=1,b=1", ModelParams(2.0, 0.05, xi, 0.05)))
        near = [t for x, t in report.numeric_profile if x < 1e-6]
        assert (report.analytic_limit, report.verdict, min(near) < 0.0) == (0.0, verdict, xi == 0.6)


@pytest.mark.parametrize("xi", [0.3, 0.6, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("spec", ["cir", "gm:p1", "gm:p2", "gm:p3", "gm:const:0.75", "gm:const:1",
                                  "pkm:a=0,b=0.5", "pkm:a=0,b=1", "pkm:a=0,b=1.5"])
def test_feller_verdict_is_the_closed_form_class(spec, xi):
    # with f(0) = kappa theta > 0, the scale function is -inf at 0+ when p(0+) > 1/2, and when
    # p(0+) = 1/2 iff 2 kappa theta >= xi^2 (Feller 1952; Karlin & Taylor 1981, 15.6), whatever
    # sign the test function takes inside the profile window (gm p2 and p3 at xi >= 1)
    kappa, theta = 2.0, 0.05
    model = parse_model(spec, ModelParams(kappa, theta, xi, 0.05))
    half = float(model.exponent.func(0.0)) == 0.5
    expected = "attainable" if half and 2.0 * kappa * theta < xi**2 else "non-attainable"
    assert feller_check(model).verdict == expected


def test_parse_model_grammar(params):
    assert parse_model("cir", params).model_id == "cir"
    gm = parse_model("gm:p2", params)
    assert gm.model_id == "gm_p2" and gm.exponent.kind == "p2"
    gmc = parse_model("gm:const:0.5", params)
    assert gmc.exponent.declared_pplus == 0.5
    pkm = parse_model("pkm:a=1,b=1.5", params)
    assert (pkm.a, pkm.exponent.constant) == (1, 1.5)
    with pytest.raises(ValueError):
        parse_model("heston", params)
    with pytest.raises(ValueError):
        parse_model("pkm:a=2,b=0.5", params)
    with pytest.raises(ValueError):
        parse_model("pkm:a=1", params)


def test_model_ids(params, gm_p1, cir):
    # an id names a model's output files, so every spec's id is pinned
    ids = {
        "cir": "cir", "gm:p1": "gm_p1", "gm:p2": "gm_p2", "gm:p3": "gm_p3",
        "gm:const:0.5": "gm_const_0.5", "gm:const:1": "gm_const_1",
        "pkm:a=0,b=0.5": "pkm_a0_b0.5", "pkm:a=0,b=1": "pkm_a0_b1", "pkm:a=0,b=1.5": "pkm_a0_b1.5",
        "pkm:a=1,b=0.5": "pkm_a1_b0.5", "pkm:a=1,b=1": "pkm_a1_b1", "pkm:a=1,b=1.5": "pkm_a1_b1.5",
    }
    assert {spec: parse_model(spec, params).model_id for spec in ids} == ids
    assert (gm_p1.model_id, cir.model_id) == ("gm_p1", "cir")
    assert pkm_model(params, 1, 1).model_id == "pkm_a1_b1"  # an int b formats as the float
    custom = ExponentFunction(kind="custom", func=lambda x: np.full_like(x, 0.75),
                              deriv=np.zeros_like, declared_pminus=0.75, declared_pplus=0.75)
    assert gm_model(params, custom).model_id == "gm_custom"


def test_feller_check_pkm_square_root_is_classical(params, cir):
    # pkm a=0, b=1/2 is the square-root model: same verdict and limit as cir,
    # now with the classical condition stated
    pkm = feller_check(pkm_model(params, 0, 0.5))
    ref = feller_check(cir)
    assert pkm.criterion_used == "constant_half"
    assert (pkm.verdict, pkm.analytic_limit) == (ref.verdict, ref.analytic_limit)
    assert (pkm.classical_lhs_2kt, pkm.classical_rhs_xi2, pkm.classical_holds) == (
        ref.classical_lhs_2kt, ref.classical_rhs_xi2, ref.classical_holds,
    )
    # with the quadratic drift the classical condition does not apply
    assert feller_check(pkm_model(params, 1, 0.5)).criterion_used == "p0_equal_half"


FELLER_KEYS = ("analytic_limit", "criterion_used", "verdict", "p_at_zero", "numeric_profile",
               "classical_lhs_2kt", "classical_rhs_xi2", "classical_holds")

#: report kind -> its payload's keys, in the order the CLI prints them; a golden digest
#: mismatch does not say which key moved
REPORT_KEYS = {
    "params": ("kappa", "theta", "xi", "v0"),
    "moment": ("order", "checkpoint", "empirical", "stderr", "theoretical_bound", "C_m",
               "satisfied"),
    "martingale": ("checkpoints", "mh_means", "mh_stderrs", "max_abs_drift", "satisfied",
                   "bias_allowance"),
    "histogram": ("bin_edges", "counts", "densities"),
    "picard": ("iterations_used", "sup_diffs", "converged", "rate_envelope_constant"),
    "lipschitz": ("n", "epsilon", "L_n", "C_n", "Lf_n", "Lg_n", "Lhat_n",
                  "empirical_sup_quotient"),
    "hypothesis": ("observed_inf", "observed_sup", "observed_dsup_near_zero", "p_at_zero_plus",
                   "grid_used", "verdict", "tol"),
}


def _report(kind: str, params):
    """A report of kind, or for a model spec its Feller report, on a small gm:p1 run."""
    from varexp_cir import (TruncationParams, check_moment_bounds, lipschitz_constants, make_grid,
                            martingale_report, path_increments, picard_solve, sample_batch,
                            simulate_batch, terminal_histogram, validate_hypotheses)

    if kind not in REPORT_KEYS:
        return feller_check(parse_model(kind, params))
    model, grid = parse_model("gm:p1", params), make_grid(0.1, 0.01)
    pb = simulate_batch(model, sample_batch(42, 20, grid))
    return {
        "params": lambda: params,
        "moment": lambda: check_moment_bounds(pb, (2,), (0.05,))[0],
        "martingale": lambda: martingale_report(pb, (0.05,)),
        "histogram": lambda: terminal_histogram(pb, 0.1, 5),
        "picard": lambda: picard_solve(TruncationParams(10), model, grid,
                                       path_increments(42, 0, grid)),
        "lipschitz": lambda: lipschitz_constants(TruncationParams(10), model),
        "hypothesis": lambda: validate_hypotheses(make_builtin("p1")),
    }[kind]()


@pytest.mark.parametrize("spec, keys", [("cir", FELLER_KEYS), ("pkm:a=0,b=0.5", FELLER_KEYS),
                                        ("gm:p1", FELLER_KEYS[:5]), *REPORT_KEYS.items()])
def test_feller_payload_keys_come_in_order(params, spec, keys):
    # every report the CLI prints writes these keys in this order: its fields but those
    # declared repr=False and those that are None. Feller's classical three are set only for
    # a constant exponent 1/2 under the linear drift
    report = _report(spec, params)
    assert tuple(json.loads(json_text(report))) == keys
    # repr=False marks only a value the program reads but does not print: Picard's fixed point
    hidden = [f.name for f in dataclasses.fields(report) if not f.repr]
    assert hidden == (["fixed_point"] if spec == "picard" else [])


def test_model_carries_its_coefficient_data(params):
    assert cir_model(params).exponent.constant == 0.5
    pkm = pkm_model(params, 1, 1.5)
    assert (pkm.a, pkm.exponent.constant) == (1, 1.5)
    assert gm_model(params, make_builtin("p1")).exponent.constant is None
