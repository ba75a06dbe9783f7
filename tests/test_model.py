import math

import numpy as np
import pytest

from varexp_cir.exponent import make_builtin
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
    assert report.classical_lhs == pytest.approx(0.2)
    assert report.classical_rhs == pytest.approx(0.09)
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


def test_parse_model_grammar(params):
    assert parse_model("cir", params).kind == "cir"
    gm = parse_model("gm:p2", params)
    assert gm.kind == "gm" and gm.exponent.kind == "p2"
    gmc = parse_model("gm:const:0.5", params)
    assert gmc.exponent.declared_pplus == 0.5
    pkm = parse_model("pkm:a=1,b=1.5", params)
    assert (pkm.a, pkm.b) == (1, 1.5)
    with pytest.raises(ValueError):
        parse_model("heston", params)
    with pytest.raises(ValueError):
        parse_model("pkm:a=2,b=0.5", params)
    with pytest.raises(ValueError):
        parse_model("pkm:a=1", params)


def test_model_ids(params, gm_p1, cir):
    assert gm_p1.model_id == "gm_p1"
    assert cir.model_id == "cir"
    assert parse_model("pkm:a=0,b=0.5", params).model_id == "pkm_a0_b0.5"
    assert parse_model("gm:const:0.5", params).model_id == "gm_const_0.5"


def test_feller_check_pkm_square_root_is_classical(params, cir):
    # pkm a=0, b=1/2 is the square-root model: same verdict and limit as cir,
    # now with the classical condition stated
    pkm = feller_check(pkm_model(params, 0, 0.5))
    ref = feller_check(cir)
    assert pkm.criterion_used == "constant_half"
    assert (pkm.verdict, pkm.analytic_limit) == (ref.verdict, ref.analytic_limit)
    assert (pkm.classical_lhs, pkm.classical_rhs, pkm.classical_holds) == (
        ref.classical_lhs, ref.classical_rhs, ref.classical_holds,
    )
    # with the quadratic drift the classical condition does not apply
    assert feller_check(pkm_model(params, 1, 0.5)).criterion_used == "p0_equal_half"


def test_model_carries_its_coefficient_data(params):
    assert cir_model(params).exponent.constant == 0.5
    pkm = pkm_model(params, 1, 1.5)
    assert (pkm.a, pkm.exponent.constant) == (1, 1.5)
    assert gm_model(params, make_builtin("p1")).exponent.constant is None
