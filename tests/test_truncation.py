from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varexp_cir.exponent import make_builtin
from varexp_cir.model import diffusion, drift, gm_model, parse_model, pkm_model
from varexp_cir.truncation import (
    MAX_BAND,
    TruncationParams,
    lipschitz_constants,
    rho_n,
    theta_n,
    theta_n_deriv,
    truncated_coefficients,
    truncated_diffusion,
    truncated_drift,
)


def test_truncation_params_validation():
    tp = TruncationParams(10)
    assert tp.epsilon == pytest.approx(1.0 / 200.0)
    assert MAX_BAND == 185_363
    # the largest n whose upper band edge n - eps still differs from n
    assert MAX_BAND - 1.0 / (2.0 * MAX_BAND**2) < MAX_BAND
    assert (MAX_BAND + 1) - 1.0 / (2.0 * (MAX_BAND + 1) ** 2) == MAX_BAND + 1
    assert theta_n_deriv(TruncationParams(MAX_BAND), float(MAX_BAND)) == 0.0
    for n in (0, 1, MAX_BAND + 1, 2**20, 2**40, 2**53):
        with pytest.raises(ValueError):
            TruncationParams(n)
    assert [f.name for f in fields(TruncationParams)] == ["n"]  # eps follows from n


def test_theta_n_branch_values():
    tp10 = TruncationParams(10)
    assert theta_n(tp10, 0.05) == pytest.approx(0.1)  # below the band: 1/n
    assert theta_n(tp10, 5.0) == 5.0  # identity on the middle band
    assert theta_n(tp10, 50.0) == 10.0  # capped at n
    with pytest.raises(ValueError):
        theta_n(tp10, -0.1)


def test_theta_n_is_monotone_continuous_bounded():
    for n in (2, 10, 100):
        tp = TruncationParams(n)
        r = np.linspace(0.0, n * 1.5, 20_001)
        th = np.asarray(theta_n(tp, r))
        assert np.all(np.diff(th) >= -1e-15)
        assert np.all(th >= 1.0 / n - 1e-15)
        assert np.all(th <= n + 1e-15)
        # continuity: increments bounded by sup-slope (4/3) times spacing
        dr = r[1] - r[0]
        assert np.all(np.diff(th) <= 4.0 / 3.0 * dr + 1e-12)


def test_theta_n_deriv_matches_finite_difference():
    tp = TruncationParams(5)
    r = np.linspace(1e-6, 7.0, 5001)
    h = 1e-7
    fd = (np.asarray(theta_n(tp, r + h)) - np.asarray(theta_n(tp, r - h))) / (2 * h)
    d = np.asarray(theta_n_deriv(tp, r))
    # away from the three breakpoints the derivative must match
    breaks = np.array([1 / 5, 1 / 5 + tp.epsilon, 5 - tp.epsilon, 5.0])
    far = np.min(np.abs(r[:, None] - breaks[None, :]), axis=1) > 1e-4
    assert np.max(np.abs(d[far] - fd[far])) < 1e-6
    assert np.max(np.abs(d)) <= 4.0 / 3.0 + 1e-12


def _theta_five_pieces(tp, r):
    """theta_n and its derivative with an explicit lower flat below 1/n."""
    n, eps, lo = tp.n, tp.epsilon, tp.lower
    t1 = np.clip((r - lo) / eps, 0.0, 1.0)
    t2 = np.clip((r - (n - eps)) / eps, 0.0, 1.0)
    pieces = [r <= lo, r < lo + eps, r <= n - eps, r < n]
    bridge_lo = lo + eps * t1**2 * (2.0 - t1)
    bridge_hi = (n - eps) + eps * t2 * (1.0 + t2 - t2**2)
    value = np.select(pieces, [lo, bridge_lo, r, bridge_hi], default=float(n))
    slopes = [0.0, t1 * (4.0 - 3.0 * t1), 1.0, (1.0 - t2) * (1.0 + 3.0 * t2)]
    return value, np.select(pieces, slopes, default=0.0)


@pytest.mark.parametrize("n", [2, 3, 7, 10, 25, 100, 1000, 2**17, MAX_BAND])
def test_theta_n_equals_the_five_piece_formula_bit_for_bit(n):
    """At every band edge and its neighbours, up to the largest band
    level; the reference keeps an explicit lower flat that theta_n
    folds into its lower bridge."""
    tp = TruncationParams(n)
    eps, lo = tp.epsilon, tp.lower
    edges = np.array([lo, lo + eps, n - eps, float(n)])
    below, above = [edges], [edges]
    for _ in range(3):  # three nextafter steps to either side of each edge
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    r = np.concatenate(
        below
        + above
        + [
            np.array([0.0, 0.5 * lo, 2.0 * n]),
            np.linspace(lo - eps, lo + 2.0 * eps, 257),
            np.linspace(n - 2.0 * eps, n + eps, 257),
        ]
    )
    value, slope = _theta_five_pieces(tp, r)
    got_value = np.asarray(theta_n(tp, r))
    got_slope = np.asarray(theta_n_deriv(tp, r))
    assert np.array_equal(got_value.view(np.uint64), value.view(np.uint64))
    assert np.array_equal(got_slope.view(np.uint64), slope.view(np.uint64))


def test_rho_n_basics():
    tp = TruncationParams(10)
    assert rho_n(tp, 0.0) == 0.0
    assert rho_n(tp, -5.0) == -5.0  # theta_10(5) * sgn(-5)
    assert rho_n(tp, 1e6) == 10.0
    assert abs(rho_n(tp, -1e6)) == 10.0


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_rho_n_is_odd(x):
    tp = TruncationParams(10)
    assert rho_n(tp, -x) == -rho_n(tp, x)


def test_rho_n_lipschitz_with_constant(gm_p1):
    # pairs on the local-Lipschitz domain |x|, |y| >= 1/n (rho_n jumps
    # from 0 to +-1/n at the origin, so pairs straddling it are excluded)
    for n in (2, 10):
        tp = TruncationParams(n)
        L = lipschitz_constants(tp, gm_p1).L_n
        rng = np.random.default_rng(3)
        x = rng.uniform(1.0 / n, 2.0 * n, size=10_000) * rng.choice([-1, 1], size=10_000)
        y = rng.uniform(1.0 / n, 2.0 * n, size=10_000) * rng.choice([-1, 1], size=10_000)
        keep = x != y
        x, y = x[keep], y[keep]
        q = np.abs(np.asarray(rho_n(tp, x)) - np.asarray(rho_n(tp, y))) / np.abs(x - y)
        assert np.max(q) <= L + 1e-9


def test_truncated_drift_examples(params, gm_p1):
    tp = TruncationParams(10)
    assert truncated_drift(tp, gm_p1, 1e6) == pytest.approx(-19.9)  # 2*(0.05 - 10)
    lo, hi = tp.band
    xs = np.linspace(lo, hi, 101)
    assert np.allclose(truncated_drift(tp, gm_p1, xs), drift(gm_p1, xs), rtol=0, atol=0)


def test_truncated_coefficients_agree_on_band(params, gm_p1):
    for n in (2, 10, 100):
        tp = TruncationParams(n)
        lo, hi = tp.band
        xs = np.linspace(lo, hi, 257)
        assert np.array_equal(np.asarray(truncated_drift(tp, gm_p1, xs)), np.asarray(drift(gm_p1, xs)))
        assert np.array_equal(
            np.asarray(truncated_diffusion(tp, gm_p1, xs)), np.asarray(diffusion(gm_p1, xs))
        )


def test_truncation_nesting(params, gm_p1):
    # on the level-n band, levels n and n+1 produce identical coefficients
    for n in (2, 10):
        tp, tp1 = TruncationParams(n), TruncationParams(n + 1)
        lo, hi = tp.band
        xs = np.linspace(lo, hi, 257)
        assert np.array_equal(
            np.asarray(truncated_diffusion(tp, gm_p1, xs)),
            np.asarray(truncated_diffusion(tp1, gm_p1, xs)),
        )


def test_truncated_diffusion_rejects_negative(gm_p1):
    tp = TruncationParams(10)
    with pytest.raises(ValueError):
        truncated_diffusion(tp, gm_p1, -0.5)
    assert truncated_diffusion(tp, gm_p1, 0.0) == 0.0  # rho_n(0) = 0


def test_truncation_rejects_pkm(params):
    tp = TruncationParams(10)
    pkm = pkm_model(params, 0, 0.5)
    for call in (
        lambda: truncated_drift(tp, pkm, 1.0),
        lambda: truncated_coefficients(tp, pkm),
        lambda: lipschitz_constants(tp, pkm),
    ):
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("spec", ["cir", "gm:p1", "gm:p2", "gm:p3"])
def test_raw_truncated_maps_equal_the_public_ones(params, spec):
    model = parse_model(spec, params)
    for n in (2, 10, 100):
        tp = TruncationParams(n)
        lo, eps = tp.lower, tp.epsilon
        # every piece of theta_n: below 1/n, both bridges, the band, above n
        r = np.concatenate([
            np.linspace(lo / 64, lo, 33),
            np.linspace(lo, lo + eps, 33),
            np.linspace(lo + eps, n - eps, 65),
            np.linspace(n - eps, n, 33),
            np.linspace(n, 4.0 * n, 33),
        ])
        f_n, g_n = truncated_coefficients(tp, model)
        x = np.concatenate([-r[::-1], [0.0], r])
        assert f_n(x).tobytes() == np.asarray(truncated_drift(tp, model, x)).tobytes()
        assert g_n(r).tobytes() == np.asarray(truncated_diffusion(tp, model, r)).tobytes()


def test_cn_closed_form_constant_exponent(params):
    # constant exponent (p' = 0), n = 2, p+ = 1: C_2 = 2^1 * (2*1 + 0) = 4
    model = gm_model(params, make_builtin("const:1"))
    report = lipschitz_constants(TruncationParams(2), model)
    assert report.C_n == pytest.approx(4.0)
    assert report.p_deriv_sup == 0.0


def test_lipschitz_constants_dominate_empirical(params):
    for name in ("p1", "p2", "p3"):
        model = gm_model(params, make_builtin(name))
        for n in (2, 10, 100):
            rep = lipschitz_constants(TruncationParams(n), model)
            assert rep.Lf_n == pytest.approx(params.kappa * rep.L_n)
            assert rep.Lg_n == pytest.approx(params.xi * rep.L_n * rep.C_n)
            assert rep.Lhat_n == pytest.approx(max(rep.Lf_n**2, rep.Lg_n**2))
            assert rep.Lf_n > 0.0
            assert rep.empirical_sup_quotient <= max(rep.Lf_n, rep.Lg_n) + 1e-9


def test_difference_quotients_below_constants(params, gm_p1):
    # every sampled difference quotient of f_n (resp. g_n) is below
    # Lf_n (resp. Lg_n)
    rng = np.random.default_rng(11)
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
        assert np.max(qf) <= rep.Lf_n
        assert np.max(qg) <= rep.Lg_n


def test_lipschitz_report_json_keys(params, gm_p1):
    d = lipschitz_constants(TruncationParams(10), gm_p1).to_dict()
    assert set(d) == {
        "n", "epsilon", "L_n", "C_n", "Lf_n", "Lg_n", "Lhat_n", "empirical_sup_quotient",
    }
