import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varexp_cir import ModelParams, parse_model
from varexp_cir.exponent import (
    ExponentFunction,
    constant_exponent,
    eval_dp,
    eval_p,
    make_builtin,
    validate_hypotheses,
)

BUILTINS = ("p1", "p2", "p3")


def test_builtin_values_at_zero():
    assert eval_p(make_builtin("p1"), 0.0) == pytest.approx(0.5, abs=1e-15)
    assert eval_p(make_builtin("p2"), 0.0) == pytest.approx(0.6, abs=1e-15)
    assert eval_p(make_builtin("p3"), 0.0) == pytest.approx(0.55, abs=1e-15)


def test_constant_is_constant():
    fn = make_builtin("const:0.5")
    for x in (0.0, 1e-9, 7.3, 1e12):
        assert eval_p(fn, x) == 0.5
    assert eval_dp(fn, 7.3) == 0.0


def test_p3_limit_at_infinity():
    # 0.55 + 0.2*v/(1+v) -> 0.75
    assert eval_p(make_builtin("p3"), 1e9) == pytest.approx(0.75, abs=1e-6)


def test_p1_bounded_by_declared_sup():
    fn = make_builtin("p1")
    for x in (10.0, 100.0, 1e6):
        assert eval_p(fn, x) <= 0.8


def test_derivatives_at_zero_plus():
    # d/dv of 0.3*(1 - e^-v) at 0 is 0.3; of 0.2*tanh at 0 is 0.2
    assert eval_dp(make_builtin("p1"), 1e-10) == pytest.approx(0.3, rel=1e-8)
    assert eval_dp(make_builtin("p2"), 1e-10) == pytest.approx(0.2, rel=1e-8)
    assert eval_dp(make_builtin("p3"), 1e-10) == pytest.approx(0.2, rel=1e-8)


@pytest.mark.parametrize("name", BUILTINS)
def test_derivative_matches_central_difference(name):
    fn = make_builtin(name)
    xs = np.geomspace(1e-5, 1e6, 300)
    for x in xs:
        h = 1e-6 * max(1.0, x)
        fd = (eval_p(fn, x + h) - eval_p(fn, x - h)) / (2.0 * h)
        d = eval_dp(fn, x)
        assert abs(d - fd) <= 1e-5 * (1.0 + abs(d))


@pytest.mark.parametrize("name", BUILTINS)
def test_builtin_range_within_half_and_08(name):
    fn = make_builtin(name)
    xs = np.geomspace(1e-12, 1e12, 10_000)
    vals = eval_p(fn, xs)
    assert vals.min() >= 0.5 - 1e-12
    assert vals.max() <= 0.8 + 1e-12
    assert fn.declared_pminus <= vals.min() + 1e-12
    assert vals.max() <= fn.declared_pplus + 1e-12


def test_eval_p_rejects_bad_states():
    fn = make_builtin("p1")
    with pytest.raises(ValueError):
        eval_p(fn, -1.0)
    with pytest.raises(ValueError):
        eval_p(fn, math.nan)
    with pytest.raises(ValueError):
        eval_dp(fn, 0.0)
    with pytest.raises(ValueError):
        eval_dp(fn, math.inf)


def test_make_builtin_gates_constants():
    # make_builtin only parses; a gm model's spec is refused outside [1/2, 1]
    assert make_builtin("const:1.2").constant == 1.2
    params = ModelParams(2.0, 0.05, 0.3, 0.05)
    for c in ("1.2", "0.4"):
        with pytest.raises(ValueError, match=f"^constant exponent {c} outside the admissible"):
            parse_model(f"gm:const:{c}", params)
    with pytest.raises(ValueError, match="^constant exponent must be finite$"):
        make_builtin("const:inf")
    with pytest.raises(ValueError):
        make_builtin("const:abc")
    with pytest.raises(ValueError):
        make_builtin("p9")


@pytest.mark.parametrize("name", BUILTINS)
def test_validate_hypotheses_builtins_pass(name):
    report = validate_hypotheses(make_builtin(name))
    assert report.passed
    assert report.verdict == "pass"
    assert math.isfinite(report.observed_dsup_near_zero)


def test_validate_hypotheses_p1_range():
    report = validate_hypotheses(make_builtin("p1"))
    assert report.observed_inf == pytest.approx(0.5, abs=1e-9)
    assert report.observed_sup == pytest.approx(0.8, abs=1e-9)
    assert report.p_at_zero_plus == pytest.approx(0.5, abs=1e-9)


def test_validate_hypotheses_constant_cases():
    ok = validate_hypotheses(constant_exponent(0.5))
    assert ok.passed and ok.observed_inf == 0.5 and ok.observed_sup == 0.5

    high = validate_hypotheses(constant_exponent(1.2))
    assert not high.passed and high.verdict == "fail(sup_above_one)"

    low = validate_hypotheses(constant_exponent(0.4))
    assert not low.passed and low.verdict == "fail(inf_below_half)"


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
def test_constant_passes_iff_in_range(c):
    report = validate_hypotheses(constant_exponent(c))
    assert report.passed == (0.5 - 1e-12 <= c <= 1.0 + 1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_custom_exponent_with_infinite_derivative_fails_clause():
    # derivative blows up near zero and overflows to inf on the grid
    fn = ExponentFunction(
        kind="custom",
        func=lambda x: np.full_like(np.asarray(x, dtype=float), 0.75),
        deriv=lambda x: 1.0 / (np.asarray(x, dtype=float) ** 200),
        declared_pminus=0.75,
        declared_pplus=0.75,
    )
    report = validate_hypotheses(fn)
    assert not report.passed
    assert report.verdict == "fail(derivative_unbounded_near_zero)"


@pytest.mark.parametrize("which, message", [("func", "evaluation"), ("deriv", "derivative")])
def test_a_custom_exponent_of_the_wrong_shape_is_refused(which, message):
    # a callable that ignores its array argument gives one value, not one per state
    fns = {
        "func": lambda x: np.full_like(np.asarray(x, dtype=float), 0.75),
        "deriv": lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        which: lambda x: 0.75,
    }
    fn = ExponentFunction(kind="custom", **fns, declared_pminus=0.75, declared_pplus=0.75)
    with pytest.raises(ValueError, match=rf"exponent {message} failed on the check grid \(custom\)"):
        validate_hypotheses(fn)


def test_vectorized_evaluation_matches_scalar():
    fn = make_builtin("p2")
    xs = np.array([0.0, 0.3, 2.5, 40.0])
    vec = eval_p(fn, xs)
    assert vec.shape == xs.shape
    for x, v in zip(xs, vec):
        assert eval_p(fn, float(x)) == v
