import dataclasses
import decimal
import tracemalloc
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitgrad import schedules
from splitgrad.algorithms import make_stepper
from splitgrad.schedules import (
    Schedule,
    a_coefficients,
    check_assumptions,
    gn_hn_in,
    make_schedule,
    n2,
    n_prime,
    n_prime_reference_variant,
)

EPS = np.finfo(float).eps


def _e24(s, alpha=3.0, **params):
    return make_schedule("e24", s=s, alpha=alpha, **params).coeffs_at


def _e25(s, **params):
    return make_schedule("e25", s=s, **params).coeffs_at


def _e26(s, **params):
    return make_schedule("e26", s=s, **params).coeffs_at


def test_e24_frozen_values():
    # s=0.1, a=0, b=1, mu=0: gamma_1 = s*sqrt((alpha-1)/(1+a))
    a1, lam, om, gam = _e24(0.1, b=1.0)(1)
    assert gam == 0.14142135623730953
    assert lam == 0.0
    assert om == 0.24142135623730954
    assert a1 == -2.0

    at = _e24(0.1, a=4.0, b=10.0, mu=1e-2)
    got = [at(n) for n in (1, 2, 5, 10)]
    want = [
        (0.0632455532033676, 0.0, 0.1641546441124585),
        (0.057735026918962574, 0.05045454545454546, 0.10811381479775047),
        (0.04714045207910317, 0.08057142857142857, 0.06723569017434126),
        (0.03779644730092272, 0.09047368421052632, 0.04782276309039641),
    ]
    for (_, lam, om, gam), (w_gam, w_lam, w_om) in zip(got, want):
        assert gam == w_gam
        assert lam == w_lam
        assert om == w_om


def test_e25_frozen_values():
    at = _e25(0.01, beta=0.1, b=2.0, mu=0.1)
    got = [at(n) for n in (1, 2, 3)]
    want = [(0.060000000000000005, 0.026666666666666665),
            (0.043333333333333335, 0.00916666666666667),
            (0.035, 0.005)]
    for (_, lam, om, gam), (w_lam, w_om) in zip(got, want):
        assert gam == 0.0
        assert lam == w_lam
        assert om == w_om


def test_e25_rejects_out_of_range_beta():
    with pytest.raises(ValueError):
        _e25(0.01, beta=0.2, b=2.0)   # beta = 2*sqrt(s) exactly
    with pytest.raises(ValueError):
        _e25(0.01, beta=-0.05, b=2.0)
    with pytest.raises(ValueError):
        _e25(0.01, beta=0.1, b=0.0)   # b must be positive


def test_e26_frozen_values():
    at = _e26(0.1, a=1.25, b=5.5, mu=1e-3)
    got = [at(n) for n in (1, 2, 7)]
    want = [(-0.044444444444444446, 0.0, 0.05570940170940172),
            (-0.03076923076923077, 0.05007692307692308, 0.01928717948717949),
            (-0.012121212121212121, 0.08578881987577641, 0.0021699680030114825)]
    for (_, lam, om, gam), (w_gam, w_lam, w_om) in zip(got, want):
        assert gam == w_gam
        assert lam == w_lam
        assert om == w_om


def test_positive_mu_needs_positive_shifted_index():
    # mu > 0 with n + b - 1 <= 0 has no finite coefficient
    with pytest.raises(ValueError):
        _e24(0.1, a=1.0, b=0.0, mu=0.5)
    with pytest.raises(ValueError):
        _e26(0.1, a=1.0, b=0.0, mu=0.5)
    # mu = 0 is fine at the same indices
    _e24(0.1, a=1.0, b=0.0)(1)
    _e26(0.1, a=1.0, b=0.0)(1)


def test_vectorized_matches_scalar():
    ns = np.arange(1, 30, dtype=float)
    at = _e24(0.1, a=4.0, b=10.0, mu=1e-2)
    lam_v = at(ns)[1]
    lam_s = np.array([at(int(n))[1] for n in ns])
    np.testing.assert_array_equal(lam_v, lam_s)


def test_coupling_identity_holds_each_family():
    # gamma_n = (lambda_n + omega_n) - ((n+1)/n) lambda_{n+1}, exactly
    configs = [
        ("e24", dict(a=4.0, b=10.0, mu=1e-2), 0.1),
        ("e25", dict(beta=0.1, b=2.0, mu=0.1), 0.01),
        ("e26", dict(a=1.25, b=5.5, mu=1e-3), 0.1),
    ]
    for label, params, s in configs:
        sch = make_schedule(label, s=s, **params)
        for n in range(1, 200):
            _, lam, om, gam = sch.coeffs_at(n)
            _, lam_next, _, _ = sch.coeffs_at(n + 1)
            resid = gam - (lam + om) + (n + 1) / n * lam_next
            scale = max(abs(gam), abs(lam + om), (n + 1) / n * abs(lam_next))
            assert abs(resid) <= 16.0 * EPS * scale


def test_a_coefficients_and_g_h_i():
    s, lip = 0.1, np.sqrt(2.0)
    a1, a2, a3, a4, a5 = a_coefficients(s, lip, 0.0)
    assert (a1, a2, a3, a4, a5) == (s, -s, 0.0, s / 2.0, 0.0)
    g, h, i = gn_hn_in(s, lip, 0.0, 0.1, 0.0)
    assert g == 0.010000000000000002
    assert h == 0.010000000000000002
    assert i == 0.010000000000000002
    assert n2(3.0, g, h, i) == 3.23606797749979


def _g_neg_factored(s: float, lipschitz: float, gamma_n, lambda_n, omega_n):
    """-G_n in factored form, (gamma_n^2 - s^2) + [(s + gamma_n(1 - Ls)) -
    (lambda_n + omega_n)]^2; a second route to check gn_hn_in. It squares
    as products, as gn_hn_in does, so a number and an array agree bitwise."""
    gamma_n = np.asarray(gamma_n, dtype=float)
    w = np.asarray(lambda_n, dtype=float) + np.asarray(omega_n, dtype=float)
    d = (s + gamma_n * (1.0 - lipschitz * s)) - w
    return (gamma_n * gamma_n - s * s) + d * d


def test_factored_g_matches_direct():
    rng = np.random.RandomState(991)
    for _ in range(200):
        s = rng.uniform(0.01, 0.9)
        lip = rng.uniform(0.1, 4.0)
        gam = rng.uniform(-s, s)
        lam = rng.uniform(0.0, 1.0)
        om = rng.uniform(0.0, 1.0)
        g = gn_hn_in(s, lip, gam, lam, om)[0]
        gf = _g_neg_factored(s, lip, gam, lam, om)
        scale = max(1.0, abs(g), abs(gf))
        assert abs(g + gf) <= 8.0 * EPS * scale


@settings(max_examples=40, deadline=None, derandomize=True)
@given(s=st.floats(1e-3, 1.0), lip=st.floats(0.0, 10.0), seed=st.integers(0, 2**32 - 1))
def test_gn_hn_in_of_numbers_is_its_array_form_bitwise(s, lip, seed):
    # a number's square may differ from an array's in the last bit for about
    # one input in a thousand, so each example checks 500 of them
    gam, lam, om = np.random.default_rng(seed).uniform(-1.0, 1.0, (3, 500))
    arrays = np.stack(gn_hn_in(s, lip, gam, lam, om), axis=1)
    numbers = np.array([gn_hn_in(s, lip, *c) for c in zip(gam.tolist(), lam.tolist(),
                                                           om.tolist())])
    assert numbers.tobytes() == arrays.tobytes()


def test_n2_requires_positive_g():
    with pytest.raises(ValueError):
        n2(3.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        n2(3.0, -0.5, 1.0, 1.0)


_E24_FROZEN = make_schedule("e24", s=0.1, a=4.0, b=10.0, mu=1e-2)
_E25_FROZEN = make_schedule("e25", s=0.04, beta=0.1, b=1.0, mu=0.0)
_E26_FROZEN = make_schedule("e26", s=0.1, a=1.25, b=5.5, mu=1e-3)


def test_n_prime_frozen_values():
    assert n_prime(_E24_FROZEN, 4.0) == -1.5568629150101523
    assert n_prime(_E25_FROZEN, 0.0) == 0.3333333333333333
    assert n_prime(_E26_FROZEN, 4.0) == 0.48207967484177816


def test_n_prime_reference_variant_frozen_values():
    # the alternate closed forms reproduce the recorded thresholds
    assert n_prime_reference_variant(_E24_FROZEN, 4.0) == -3.5568629150101523
    v = n_prime_reference_variant(_E24_FROZEN, np.sqrt(2.0))
    assert f"{v:.2f}" == "-3.91"
    assert n_prime_reference_variant(_E26_FROZEN, 4.0) == -0.1729206157390255
    # families without an alternate form fall through to the primary one
    assert n_prime_reference_variant(_E25_FROZEN, 0.0) == 0.3333333333333333


@pytest.mark.parametrize("label,partial", [
    ("e24", {}), ("e24", {"b": 10.0, "mu": 1e-2}), ("e25", {"beta": 0.1}),
    ("e25", {"beta": 0.1, "mu": 0.2}), ("e26", {}), ("e26", {"b": 5.5}),
], ids=["e24-none", "e24-b-mu", "e25-beta", "e25-beta-mu", "e26-none", "e26-b"])
def test_n_prime_fills_missing_parameters_from_the_family(label, partial):
    # make_schedule fills them, and the thresholds read the schedule's own
    sch = make_schedule(label, s=0.04, **partial)
    assert sch.params.keys() > partial.keys()
    for threshold in (n_prime, n_prime_reference_variant):
        assert threshold(sch, 4.0) == threshold(make_schedule(label, s=0.04, **sch.params), 4.0)


_PAST_THE_FLOATS = [("e24", {"b": 1.0, "mu": 1e300}),
                    ("e25", {"beta": 0.1, "b": 1.0, "mu": 1e300})]


@pytest.mark.parametrize("label,params", _PAST_THE_FLOATS, ids=["e24", "e25"])
def test_n_prime_past_the_float_range_is_inf(label, params):
    # (mu/s)^2 overflows a Python float; the threshold is +inf, not an OverflowError
    sch = make_schedule(label, s=0.1, **params)
    for threshold in (n_prime, n_prime_reference_variant):
        assert threshold(sch, 4.0) == np.inf, threshold.__name__
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_assumptions(sch, 4.0, n_max=1000)
    assert rep.n_prime == np.inf and rep.assumption_i_holds_from == 1001


@pytest.mark.parametrize("label,params", _PAST_THE_FLOATS, ids=["e24", "e25"])
def test_n_prime_past_the_float_range_is_inf_on_numpy_floats(label, params):
    # numpy's `**` warns where the Python float's raises; the thresholds take Python floats
    params = {k: np.float64(v) for k, v in params.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sch = make_schedule(label, s=np.float64(0.1), alpha=np.float64(3.0), **params)
        for threshold in (n_prime, n_prime_reference_variant):
            assert threshold(sch, np.float64(4.0)) == np.inf, threshold.__name__


@pytest.mark.parametrize("number", [float, np.float64], ids=["python-floats", "numpy-floats"])
def test_e26_threshold_where_its_square_overflows_is_its_root(number):
    # (mu/s)^2 passes the float range, but sqrt(3 + (mu/s)^2) = 1e301 does not
    sch = make_schedule("e26", s=number(0.1), alpha=number(3.0), b=number(1.0), mu=number(1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for threshold in (n_prime, n_prime_reference_variant):
            got = threshold(sch, number(4.0))
            assert type(got) is float and got == 1e300 / 0.1, threshold.__name__
        rep = check_assumptions(sch, 4.0, n_max=1000)
    assert rep.n_prime == 1e300 / 0.1 and rep.assumption_i_holds_from == 1001


@pytest.mark.parametrize("label,mu,n_prime_value", [
    ("e24", 1.7e307, np.inf), ("e24", 2e307, np.inf),
    ("e26", 1.7e307, 1.6999999999999997e308), ("e26", 2e307, np.inf)])
def test_scan_where_the_coefficients_overflow_reports_without_a_warning(label, mu, n_prime_value):
    # mu (n - 1) overflows within the scan, at mu/s = 1.7e308 already, and
    # inf - inf in the coupling residual is nan: (ii) and (i) both fail
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_assumptions(make_schedule(label, s=0.1, b=1.0, mu=mu), 4.0, n_max=1000)
    assert rep.assumption_ii_exact is False and rep.assumption_i_holds_from == 1001
    assert rep.n_prime == n_prime_value


_E26_RATIOS = [10.0 ** k for k in range(-3, 301, 7)] + [1.3e154, 1.35e154, 1e155, 1e300]


@pytest.mark.parametrize("ratio", _E26_RATIOS)
def test_e26_threshold_is_its_root_to_8_ulps(ratio):
    # against 60 digits, across the point where (mu/s)^2 overflows a float
    a, b, s, lip = 0.5, 2.0, 0.25, 1.5
    mu = ratio * s
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        m = Decimal(mu) / Decimal(s)
        sl = Decimal(s) * Decimal(lip)
        want = {n_prime: float((3 + m * m).sqrt() - Decimal(a)),
                n_prime_reference_variant: float((sl * sl + 1 + m * m).sqrt() - Decimal(a))}
    sch = make_schedule("e26", s=s, a=a, b=b, mu=mu)
    for threshold, value in want.items():
        got = threshold(sch, lip)
        assert abs(got - value) <= 8 * np.spacing(value), threshold.__name__


@settings(max_examples=200, deadline=None, derandomize=True)
@given(s=st.floats(1e-4, 1.0), lip=st.floats(0.0, 100.0), a=st.floats(0.0, 20.0),
       b=st.floats(1e-3, 1e12), exponent=st.floats(-3.0, 154.127))
def test_e26_threshold_below_the_overflow_keeps_its_bits(s, lip, a, b, exponent):
    # mu/s up to 1.34e154, whose square is still a float
    mu = 10.0 ** exponent * s
    sch = make_schedule("e26", s=s, a=a, b=b, mu=mu)
    old = float(np.sqrt(3.0 + (mu / s) ** 2) - min(a, b))
    old_variant = float(np.sqrt((s * lip) ** 2 + 1.0 + (mu / s) ** 2) - min(a, b))
    assert np.float64(n_prime(sch, lip)).tobytes() == np.float64(old).tobytes()
    assert np.float64(n_prime_reference_variant(sch, lip)).tobytes() \
        == np.float64(old_variant).tobytes()


def test_e24_threshold_past_the_float_range_is_inf_without_a_warning():
    # 2 mu L sqrt(alpha - 1) passes the float range before (mu/s)^2 does
    sch = make_schedule("e24", s=0.01, alpha=101.0, b=1.0, mu=1e306)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for threshold in (n_prime, n_prime_reference_variant):
            assert threshold(sch, 50.0) == np.inf


@settings(max_examples=200, deadline=None, derandomize=True)
@given(label=st.sampled_from(["e24", "e25", "e26"]), s=st.floats(1e-4, 1.0),
       alpha=st.floats(3.0, 50.0), lip=st.floats(0.0, 100.0), a=st.floats(0.0, 20.0),
       b=st.floats(1e-3, 1e12), mu=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
       frac=st.floats(0.01, 0.99))
def test_n_prime_has_the_bits_of_python_floats_on_numpy_floats(label, s, alpha, lip, a, b,
                                                                 mu, frac):
    params = {"b": b, "mu": mu}
    params.update({"beta": frac * 2.0 * float(np.sqrt(s))} if label == "e25" else {"a": a})
    wide = {k: np.float64(v) for k, v in params.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        narrow_sch = make_schedule(label, s=s, alpha=alpha, **params)
        wide_sch = make_schedule(label, s=np.float64(s), alpha=np.float64(alpha), **wide)
        for threshold in (n_prime, n_prime_reference_variant):
            want = threshold(narrow_sch, lip)
            got = threshold(wide_sch, np.float64(lip))
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), threshold.__name__


_E25_BS = [1.0, 1e8, 1e14, 1e16, 1e100, 1e300]


@pytest.mark.parametrize("b", _E25_BS)
def test_e25_threshold_at_mu_zero_is_beta_over_its_margin(b):
    # at mu = 0, P^2 + Q = (P + 2 beta)^2, so the root is beta / (2 sqrt(s) - beta)
    # for every b; the textbook form read 0.19074 at b = 1e14, 0 at 1e16 and inf at 1e300
    beta, s = 0.1, 0.1
    got = n_prime(make_schedule("e25", s=s, beta=beta, b=b, mu=0.0), 4.0)
    assert got == pytest.approx(beta / (2.0 * np.sqrt(s) - beta), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("b", _E25_BS)
def test_e25_threshold_is_its_cancellation_free_root(b):
    beta, s, mu = 0.1, 0.1, 0.1
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        d_beta, d_b, d_mu, root_s = Decimal(beta), Decimal(b), Decimal(mu), Decimal(s).sqrt()
        p = 2 * d_b * root_s - d_beta * (d_b + 1) - d_mu / root_s
        r = d_beta * d_b + d_mu / root_s
        q = 4 * (2 * root_s - d_beta) * r
        assert p > 0
        want = float(2 * r / (p + (p * p + q).sqrt()))
    got = n_prime(make_schedule("e25", s=s, beta=beta, b=b, mu=mu), 4.0)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def _e25_root(s, beta, b, mu):
    """(P, root): e25's P as n_prime forms it in floats, and the positive
    root of d x^2 + P x - r to 60 digits for the (P, d, r) so formed."""
    root_s = float(np.sqrt(s))
    d, r = 2.0 * root_s - beta, beta * b + mu / root_s
    p = 2.0 * b * root_s - beta * (b + 1.0) - mu / root_s
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        big_p, d, r = Decimal(p), Decimal(d), Decimal(r)
        return p, float(2 * r / (big_p + (big_p * big_p + 4 * d * r).sqrt()))


def _e25_log_grid(n, seed):
    """n draws of (s, beta, b, mu), each log-uniform: s in [1e-4, 1], beta
    in [1e-3, 0.999] times 2 sqrt(s), b in [1e-2, 1e8] and mu in [1e-6, 10]."""
    rng = np.random.default_rng(seed)
    s, frac, b, mu = (10.0 ** rng.uniform(lo, hi, n) for lo, hi in
                      ((-4.0, 0.0), (-3.0, np.log10(0.999)), (-2.0, 8.0), (-6.0, 1.0)))
    return list(zip(s.tolist(), (frac * 2.0 * np.sqrt(s)).tolist(), b.tolist(), mu.tolist()))


# b log-spaced over [1e2, 1e8] at mu = 0 and beta = s = 0.1, where the textbook
# root cancels: it is up to 1.5e6 ulps off there
_E25_B_SCAN = [(0.1, 0.1, b, 0.0) for b in np.logspace(2.0, 8.0, 601).tolist()]
# at s = 1 a P of 2^-1049 leaves 4 d r / P^2 past the float range
_E25_TINY_P = (1.0, 1e-300, 1e-300, float(np.nextafter(1e-300, 0.0)))


def test_e25_threshold_is_the_root_of_its_quadratic_to_8_ulps():
    draws = _E25_B_SCAN + _e25_log_grid(4000, 35) + [_E25_TINY_P]
    checked = 0
    for s, beta, b, mu in draws:
        p, want = _e25_root(s, beta, b, mu)
        if not p > 0.0:
            continue
        got = n_prime(make_schedule("e25", s=s, beta=beta, b=b, mu=mu), 4.0)
        assert abs(got - want) <= 8 * np.spacing(want), (s, beta, b, mu)
        checked += 1
    assert checked > 2500


def test_make_schedule_labels_and_errors():
    sch = make_schedule("e24", s=0.1, a=4.0, b=10.0, mu=1e-2)
    assert sch.label == "e24"
    assert n_prime(sch, 4.0) == -1.5568629150101523
    assert make_schedule("e25", s=0.04, beta=0.1).coeffs_at(3)[3] == 0.0
    with pytest.raises(ValueError):
        make_schedule("custom", s=0.1)
    # agm2 is a method, and igahd the e25 family at mu = 0, not schedules
    for label in ("e99", "agm2", "igahd"):
        with pytest.raises(ValueError, match="unknown schedule label"):
            make_schedule(label, s=0.1)


@pytest.mark.parametrize("label,required,defaults", [
    ("e24", {}, {"a": 0.0, "b": 0.0, "mu": 0.0}),
    ("e25", {"beta": 0.1}, {"b": 1.0, "mu": 0.0}),
    ("e26", {}, {"a": 0.0, "b": 0.0, "mu": 0.0}),
], ids=["e24", "e25", "e26"])
def test_make_schedule_parameters(label, required, defaults):
    assert make_schedule(label, s=0.04, **required).params == {**required, **defaults}
    with pytest.raises(ValueError, match=rf"for schedule '{label}': \['nu'\]"):
        make_schedule(label, s=0.04, nu=2.0, **required)
    for key in required:   # a missing parameter is named before an unknown one
        with pytest.raises(ValueError, match=f"schedule '{label}' needs the parameter '{key}'"):
            make_schedule(label, s=0.04, nu=2.0)


@pytest.mark.parametrize("label", ["e24", "e25", "e26"])
def test_a_family_schedule_built_by_hand_checks_its_parameters(label):
    # the thresholds read a family's params by key: a hand-built schedule
    # without one raised KeyError in check_assumptions, so Schedule itself
    # holds a family label to exactly its family's keys and to its checks
    sch = make_schedule(label, s=0.1, **({"beta": 0.1} if label == "e25" else {}))

    def build(params):
        return Schedule(label, 3.0, 0.1, sch.coeffs_at, params)

    assert check_assumptions(build(dict(sch.params)), 1.0, 100) == check_assumptions(sch, 1.0, 100)
    for key in sch.params:
        missing = {k: v for k, v in sch.params.items() if k != key}
        with pytest.raises(ValueError, match=f"^schedule '{label}' needs the parameter '{key}'$"):
            build(missing)
    with pytest.raises(ValueError, match=rf"^unexpected parameters for schedule '{label}': "
                                         r"\['nu'\]$"):
        build({**sch.params, "nu": 1.0})
    with pytest.raises(ValueError, match="^mu must be nonnegative, got -1.0$"):
        build({**sch.params, "mu": -1.0})
    with pytest.raises(ValueError, match="needs the parameter"):
        check_assumptions(Schedule(label, 3.0, 0.1, sch.coeffs_at, {}), 1.0, 100)
    # replacing the map, as a tracer does, keeps the checked parameters
    traced = dataclasses.replace(sch, coeffs_at=lambda n: sch.coeffs_at(n))
    assert traced.params == sch.params and traced.coeffs_at(2) == sch.coeffs_at(2)


def test_check_assumptions_report():
    lip = np.sqrt(2.0)
    s = 0.5 / lip
    sch = make_schedule("e24", s=s, a=4.0, b=10.0, mu=1e-2)
    rep = check_assumptions(sch, lip, n_max=1000)
    assert rep.n1 == 2.0
    assert rep.assumption_ii_exact
    assert rep.assumption_i_holds_from == 1
    assert rep.n_threshold == max(rep.n1, rep.n2, rep.n_prime)
    assert np.isfinite(rep.n2)


def test_check_assumptions_flags_inadmissible():
    # gamma exceeding s breaks the strict inequality at small n
    sch = make_schedule("custom", s=0.01,
                        coeffs=lambda n: (np.asarray((np.asarray(n) - 3.0) / np.asarray(n)),
                                          np.zeros_like(np.asarray(n, dtype=float)),
                                          np.zeros_like(np.asarray(n, dtype=float)),
                                          np.full_like(np.asarray(n, dtype=float), 0.02)))
    rep = check_assumptions(sch, 1.0, n_max=50)
    assert rep.assumption_i_holds_from == 51   # never settles on the scan
    with pytest.raises(ValueError):
        check_assumptions(sch, 1.0, n_max=2)   # below alpha


def test_schedule_stepsize_guard():
    with pytest.raises(ValueError):
        _e24(-0.1, a=1.0, b=1.0)
    with pytest.raises(ValueError):
        _e26(0.1, a=1.0, b=1.0, mu=-0.5)    # negative mu


def test_n_prime_unknown_label():
    # a custom schedule has no closed form: n_prime names its label, and
    # check_assumptions takes N' from its scan, the last n where (i) fails
    def coeffs(n):
        n = np.asarray(n, dtype=float)
        lam, gam = np.full_like(n, 0.005), np.where(n <= 7.0, 0.02, 0.0)   # gamma > s fails (i)
        return (n - 3.0) / n, lam, gam - lam + (n + 1.0) / n * lam, gam

    sch = make_schedule("custom", s=0.01, coeffs=coeffs)
    for threshold in (n_prime, n_prime_reference_variant):
        with pytest.raises(ValueError, match="^no closed-form threshold for schedule label "
                                             "'custom'$"):
            threshold(sch, 1.0)
    rep = check_assumptions(sch, 1.0, n_max=50)
    assert rep.n_prime == 7.0 and rep.assumption_i_holds_from == 8 and rep.assumption_ii_exact


@pytest.mark.parametrize("label,key,message", [
    ("e24", "s", "stepsize must be positive"), ("e24", "alpha", "alpha >= 3"),
    ("e24", "mu", "mu must be nonnegative"), ("e24", "a", "shifts must be nonnegative"),
    ("e26", "b", "shifts must be nonnegative"), ("e25", "beta", "beta must lie in"),
    ("e25", "b", "b must be positive"),
])
def test_make_schedule_rejects_nan_parameters(label, key, message):
    # a NaN fails each check; a NaN mu would otherwise run as mu = 0
    args = {"s": 0.04, "beta": 0.1} if label == "e25" else {"s": 0.04}
    with pytest.raises(ValueError, match=rf"{message}.*nan"):
        make_schedule(label, **{**args, key: float("nan")})


@pytest.mark.parametrize("label,key", [("e24", "a"), ("e24", "b"), ("e24", "mu"), ("e25", "b"),
                                       ("e25", "mu"), ("e26", "a"), ("e26", "b"), ("e26", "mu")])
def test_make_schedule_rejects_an_infinite_parameter(label, key):
    # an infinite shift or mu would build, and check_assumptions read n_threshold: nan
    args = {"s": 0.04, "beta": 0.1} if label == "e25" else {"s": 0.04}
    with pytest.raises(ValueError, match=rf"^{key} must be finite, got inf$"):
        make_schedule(label, **{**args, key: float("inf")})


def test_check_matches_rejects_a_nan_stepsize():
    sch = make_schedule("e25", s=0.04, beta=0.1)
    with pytest.raises(ValueError, match="stepsize nan disagrees"):
        sch.check_matches(float("nan"), 3.0)
    with pytest.raises(ValueError, match="stepsize nan disagrees"):
        make_stepper("lt_s_igahd", float("nan"), schedule=sch)
    sch.check_matches(0.04 * (1.0 + EPS), 3.0)   # within 8 eps


def test_check_assumptions_takes_a_custom_map_of_numbers():
    # a map may give numbers that hold for every n; the scan broadcasts them
    sch = make_schedule("custom", s=0.1, coeffs=lambda n: (0.5, 0.0, 0.0, 0.0))
    rep = check_assumptions(sch, 1.0, n_max=50)
    assert rep.assumption_ii_exact and rep.n1 == 2.0


def test_custom_schedule_needs_a_positive_stepsize():
    # neither route could run a custom schedule at such an s
    for s in (-0.1, 0.0, float("nan")):
        with pytest.raises(ValueError, match=rf"^stepsize must be positive, got {s}$"):
            make_schedule("custom", s=s, coeffs=lambda n: (0.5, 0.0, 0.0, 0.0))


@pytest.mark.parametrize("label,params", [("e24", {}), ("e25", {"beta": 0.1}), ("e26", {}),
                                          ("E25", {"beta": 0.1})])
def test_a_family_label_refuses_coeffs(label, params):
    # a family's coefficients are its body's; only 'custom' reads `coeffs`
    def f(n):
        return (0.5, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match=rf"^schedule '{label.lower()}' takes no `coeffs`; "
                                         r"only 'custom' does$"):
        make_schedule(label, s=0.1, coeffs=f, **params)
    assert make_schedule(label, s=0.1, **params).coeffs_at(5) != f(5)


def test_e25_beta_range_has_one_message():
    message = r"^beta must lie in \(0, 2\*sqrt\(s\)\) = \(0, 0\.4\), got 0\.8$"
    with pytest.raises(ValueError, match=message):
        make_schedule("e25", s=0.04, beta=0.8)


def _holds_from(mask):
    suffix = np.minimum.accumulate(mask[::-1].astype(bool))[::-1]
    idx = np.nonzero(suffix)[0]
    return int(idx[0] + 1) if idx.size else int(mask.size + 1)


def _one_array_scan(schedule, lipschitz, n_max):
    """The admissibility scan over one array of n = 1..n_max, the reference
    that the block scan of `check_assumptions` must match bit for bit."""
    n = np.arange(1, n_max + 2, dtype=float)
    s, alpha = schedule.s, schedule.alpha
    with np.errstate(over="ignore"):
        _, lam, om, gam = (np.broadcast_to(c, n.shape) for c in schedule.coeffs_at(n))
        lam_next = lam[1:]
        n, lam, om, gam = n[:-1], lam[:-1], om[:-1], gam[:-1]
        ratio = (n + 1.0) / n
        residual = gam - (lam + om) + ratio * lam_next
        scale = np.maximum(np.abs(gam), np.maximum(np.abs(lam + om), ratio * np.abs(lam_next)))
        ii_exact = bool(np.all(np.abs(residual) <= 16.0 * EPS * scale))
        lhs = (s * (1.0 - gam * lipschitz) - ratio * lam_next) ** 2
        holds_i = lhs < s * s - gam * gam
        g, h, i = gn_hn_in(s, lipschitz, gam, lam, om)
        g_pos = g > 0.0
    i_from = _holds_from(holds_i)
    n1 = alpha - 1.0
    try:
        npr = n_prime(schedule, lipschitz)
    except ValueError:
        npr = float(i_from - 1) if i_from <= n_max else float("inf")
    lo = max(n1, np.ceil(npr)) if np.isfinite(npr) else float("inf")
    sel = (n > lo) & g_pos
    n2_val = float(np.max(n2(alpha, g[sel], h[sel], i[sel]))) if np.any(sel) else float("nan")
    return schedules.AdmissibilityReport(n1=float(n1), n2=n2_val, n_prime=float(npr),
                                         n_threshold=float(np.max([n1, n2_val, npr])),
                                         assumption_i_holds_from=i_from,
                                         assumption_ii_exact=ii_exact)


def _bits(value):
    """A float's bits, with every NaN as one value."""
    return "nan" if value != value else np.float64(value).tobytes()


_CHUNK = schedules._SCAN_CHUNK
_N_MAX = ("ceil-alpha", _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7)


@st.composite
def _scanned_schedules(draw):
    """A schedule of e24, e25, e26 or a custom map, its Lipschitz constant
    and an n_max of `_N_MAX`. The custom map meets the coupling identity
    but at the one index where its lambda is inf or NaN; its N2 rises and
    falls with sin(n), so that its max over n > N' depends on where N'
    falls, and its gamma breaks the strict inequality at every multiple of
    a period, which may fall on n_max itself."""
    s = draw(st.floats(1e-3, 1.0))
    lip = draw(st.floats(0.1, 10.0))
    alpha = draw(st.floats(3.0, 40.0))
    mu = draw(st.sampled_from([0.0, 1e-3, 0.5, 30.0, 1e300]))
    label = draw(st.sampled_from(["e24", "e25", "e26", "custom", "custom"]))
    n_max = draw(st.sampled_from(_N_MAX))
    n_max = int(np.ceil(alpha)) if n_max == "ceil-alpha" else n_max
    if label == "e25":
        sch = make_schedule("e25", s=s, alpha=alpha, mu=mu, b=draw(st.floats(0.1, 10.0)),
                            beta=draw(st.floats(0.01, 0.99)) * 2.0 * float(np.sqrt(s)))
    elif label != "custom":
        sch = make_schedule(label, s=s, alpha=alpha, mu=mu, a=draw(st.floats(0.0, 20.0)),
                            b=draw(st.floats(1e-3, 20.0)))
    else:
        lam0 = draw(st.floats(0.0, 0.5)) * s
        gam0 = draw(st.floats(0.0, 2.0)) * s
        period = draw(st.sampled_from([1, 7, _CHUNK, 3000, n_max, 10**9]))
        k_bad = draw(st.integers(1, n_max + 1))
        bad = draw(st.sampled_from([np.inf, -np.inf, np.nan, 1e300]))

        def lam_at(n):
            return np.where(n == k_bad, bad, lam0 * (1.0 + 0.9 * np.sin(n)))

        def coeffs(n):
            lam, gam = lam_at(n), np.where(n % period == 0, gam0, 0.0)
            return (n - alpha) / n, lam, gam - lam + ((n + 1.0) / n) * lam_at(n + 1.0), gam

        sch = make_schedule("custom", s=s, alpha=alpha, coeffs=coeffs)
    return sch, lip, n_max


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_scanned_schedules())
def test_block_scan_equals_the_one_array_scan(case):
    sch, lip, n_max = case
    with np.errstate(invalid="ignore"):
        got = check_assumptions(sch, lip, n_max)
        want = _one_array_scan(sch, lip, n_max)
    for field in ("n1", "n2", "n_prime", "n_threshold"):
        assert _bits(getattr(got, field)) == _bits(getattr(want, field)), field
    assert got.assumption_i_holds_from == want.assumption_i_holds_from
    assert got.assumption_ii_exact is want.assumption_ii_exact


def test_family_scan_memory_does_not_grow_with_n_max():
    sch = make_schedule("e24", s=0.1, a=4.0, b=10.0, mu=1e-2)
    check_assumptions(sch, 4.0, n_max=1000)   # warm up imports and caches
    tracemalloc.start()
    try:
        rep = check_assumptions(sch, 4.0, n_max=200_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.assumption_ii_exact
    assert peak < 0.5 * 2**20, f"traced peak {peak} bytes"
