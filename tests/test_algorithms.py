import dataclasses
import hashlib
import re

import numpy as np
import pytest

import splitgrad
from splitgrad import algorithms
from splitgrad import constructions as con
from splitgrad.algorithms import (
    ALGORITHM_NAMES,
    StoppingRule,
    check_alpha,
    coefficient_map,
    coefficient_step,
    default_theta,
    init_state,
    make_stepper,
    run,
    run_methods,
)
from splitgrad.objectives import Objective, f1, f2, quadratic
from splitgrad.schedules import make_schedule
from splitgrad.splitting import compose, euler_advance, lie_trotter, strang

S = 0.01
X0 = [1.0, 0.0]
EPS = float(np.finfo(float).eps)


def _iterates(name, n_steps=5, **kw):
    stepper = make_stepper(name, S, **kw)
    traj, _ = run(stepper, f1(), X0, S, StoppingRule("max_iter"), max_iter=n_steps)
    return traj.xs


def _assert_rows(xs, start, want):
    for k, row in enumerate(want):
        got = tuple(xs[start + k])
        assert got == row, f"row {start + k}: {got} != {row}"


def test_bootstrap():
    st = init_state(f1(), X0, S)
    assert st.n == 1
    assert np.array_equal(st.x_prev, [1.0, 0.0])
    assert np.array_equal(st.x_curr, [0.98, -0.02])
    assert np.array_equal(st.grad_prev, [2.0, 2.0])


def test_agm2_iterates():
    _assert_rows(_iterates("agm2"), 2, [
        (0.9992, -0.0008000000000000021),
        (0.970016, -0.029984000000000004),
        (0.95121536, -0.048784640000000004),
        (0.9286545919999999, -0.071345408),
    ])


def test_pim_iterates():
    _assert_rows(_iterates("pim", gamma=1.0), 2, [
        (0.9428, -0.0572),
        (0.891608, -0.10839199999999999),
        (0.82987088, -0.17012912),
        (0.7611126368000001, -0.2388873632),
    ])


def test_polyak_igahd_iterates():
    _assert_rows(_iterates("polyak_igahd", beta=1.0), 2, [
        (0.8168000000000001, -0.1832),
        (0.8876480000000001, -0.11235200000000002),
        (0.7921164800000001, -0.20788352000000004),
        (0.7655499008000002, -0.23445009920000004),
    ])


def test_igahd_iterates():
    _assert_rows(_iterates("igahd", beta=1.0), 2, [
        (0.8225600000000001, -0.17744000000000001),
        (0.8837542400000001, -0.11624576000000002),
        (0.7957849395200001, -0.20421506048000004),
        (0.7682257670144, -0.23177423298560004),
    ])


def test_lt_se1_iterates():
    xs = _iterates("lt_se1")
    _assert_rows(xs, 2, [
        (1.0552640000000002, 0.055263999999999994),
        (1.0297983488, 0.029798348799999996),
    ])
    # the outgoing and incoming corrections cancel the move entirely here
    assert np.array_equal(xs[4], xs[3])
    _assert_rows(xs, 5, [(1.02471228465152, 0.024712284651519995)])


def test_lt_sv2_iterates():
    _assert_rows(_iterates("lt_sv2"), 2, [
        (1.0272320000000001, 0.027232),
        (0.9990774272, -0.0009225728000000002),
        (0.989095878656, -0.010904121344000001),
        (0.9745707292147712, -0.0254292707852288),
    ])


def test_ardm_iterates():
    _assert_rows(_iterates("ardm"), 2, [
        (1.017632, 0.017632),
        (0.9689248256, -0.031075174400000002),
        (0.93216111927296, -0.06783888072704),
        (0.8853076512584499, -0.11469234874155007),
    ])


def test_lt_se3_iterates():
    _assert_rows(_iterates("lt_se3"), 2, [
        (1.0552640000000002, 0.055263999999999994),
        (1.0186930688, 0.018693068799999994),
        (1.004861253632, 0.0048612536319999925),
        (0.9847802243710978, -0.015219775628902414),
    ])


def test_lt_s_igahd_iterates():
    sch = make_schedule("e25", s=S, beta=0.1, b=2.0, mu=0.1)
    _assert_rows(_iterates("lt_s_igahd", schedule=sch), 2, [
        (0.954656, -0.04534399999999999),
        (0.9368482304, -0.0631517696),
        (0.9133801793945601, -0.08661982060543999),
        (0.8886248931570485, -0.11137510684295168),
    ])


def test_theta_default():
    assert [default_theta(n) for n in (0, 1, 2, 3)] == [1.0, 1.0, 0.5, 1.0 / 3.0]


def test_nag_standard_clock_matches_agm2():
    # nag's velocity form on the clock t_n = n h reaches agm2's iterates
    # at s = h^2 by a route that shares no step with the stepper
    h = 0.1
    for obj in (f1(), f2()):
        t_agm, _ = run(make_stepper("agm2", h * h), obj, [1.0, -2.0], h * h,
                       StoppingRule("max_iter"), max_iter=50)
        t_nag, _ = run(make_stepper("nag", h * h), obj, [1.0, -2.0], h * h,
                       StoppingRule("max_iter"), max_iter=50)
        xs = con.nesterov_velocity_form(obj, [1.0, -2.0], 3.0, h, 50)
        assert np.max(np.abs(t_nag.xs - t_agm.xs)) <= 1e-12
        assert np.max(np.abs(xs - t_agm.xs)) <= 1e-12


def test_nag_guards():
    # the velocity form's w_n and c_n divide by alpha - 1, and w_n by the
    # clock t_n = n h, which vanishes unless h > 0
    with pytest.raises(ValueError, match="must exceed 1"):
        con.nesterov_velocity_form(f1(), X0, 1.0, 0.1, 10)
    with pytest.raises(ValueError, match="stepsize must be positive"):
        con.nesterov_velocity_form(f1(), X0, 3.0, 0.0, 10)


def test_stopping_rule_validation():
    with pytest.raises(ValueError):
        StoppingRule("until_tired")
    for epsilon in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            StoppingRule("consecutive_f", epsilon=epsilon)
    StoppingRule("max_iter")


def test_stop_fires_from_stationary_start():
    # start on the minimizing line of f1: the bootstrap does not move,
    # so consecutive values agree at n = 1 already
    traj, res = run(make_stepper("agm2", S), f1(), [1.5, -1.5], S,
                    StoppingRule("consecutive_f", 1e-10))
    assert res.termination == "tolerance_met"
    assert res.n_final == 1
    assert traj.xs.shape == (2, 2)


def test_stop_threshold_delays_firing():
    rule = StoppingRule("consecutive_f", 1e-10, n_threshold=5)
    _, res = run(make_stepper("agm2", S), f1(), [1.5, -1.5], S, rule)
    assert res.n_final == 6


def test_known_min_requires_f_min():
    plain = Objective(name="plain", dim=1, value=lambda x: float(x[0] ** 2),
                      gradient=lambda x: 2.0 * x, lipschitz=2.0)
    with pytest.raises(ValueError):
        run(make_stepper("agm2", S), plain, [1.0], S, StoppingRule("known_min_f", 1e-8))


def test_max_iter_termination_and_error():
    traj, res = run(make_stepper("agm2", S), f2(), [1.0, -2.0], S,
                    StoppingRule("max_iter"), max_iter=7)
    assert res.termination == "max_iter"
    assert res.n_final == 7
    assert traj.xs.shape == (8, 2)
    assert res.error_final == float(traj.fs[-1] - 2.0)


@pytest.mark.parametrize("max_iter", [0, -5, 2.0, True])
def test_every_run_refuses_max_iter_below_one(max_iter):
    # the command line's rule and message hold for every run, not a stop at n = 1
    message = f"^{re.escape(f'max_iter must be a positive integer, got {max_iter!r}')}$"
    for stop in (StoppingRule("max_iter"), StoppingRule("known_min_f", 1e-8)):
        with pytest.raises(ValueError, match=message):
            run(make_stepper("agm2", S), f2(), X0, S, stop, max_iter)
        with pytest.raises(ValueError, match=message):
            run_methods(f2(), [("agm2", S, {}), ("pim", S, {})], X0, stop, max_iter)
    _, res = run(make_stepper("agm2", S), f2(), X0, S, StoppingRule("max_iter"), np.int64(1))
    assert (res.termination, res.n_final) == ("max_iter", 1)


def test_divergence_keeps_finite_trajectory():
    with np.errstate(over="ignore"):
        traj, res = run(make_stepper("agm2", 10.0), f1(), X0, 10.0,
                        StoppingRule("max_iter"), max_iter=10000)
    assert res.termination == "diverged"
    assert np.all(np.isfinite(traj.xs))
    assert np.all(np.isfinite(traj.fs))


def test_run_rejects_nonfinite_start():
    with pytest.raises(ValueError):
        run(make_stepper("agm2", S), f1(), [np.nan, 0.0], S, StoppingRule("max_iter"))


def test_trajectory_helpers():
    traj, _ = run(make_stepper("agm2", S), f2(), [1.0, -2.0], S,
                  StoppingRule("max_iter"), max_iter=10)
    v = traj.velocities(S)
    assert np.array_equal(v[0], [0.0, 0.0])
    assert np.allclose(v[1], (traj.xs[1] - traj.xs[0]) / 0.1)
    assert np.allclose(traj.grad_norms(), np.linalg.norm(traj.grads, axis=1))
    assert np.all(traj.fgaps() >= 0.0)
    assert np.array_equal(traj.fgaps(0.0), traj.fs)


def test_run_refuses_a_stepsize_its_stepper_was_not_made_with():
    with pytest.raises(ValueError, match=r"^stepsizes \[0\.2\] disagree with the \[0\.1\] "
                                         r"the stepper was made with$"):
        run(make_stepper("agm2", 0.1), f2(), [1.0, -2.0], 0.2, StoppingRule("max_iter"))


def test_fgaps_needs_reference():
    plain = Objective(name="plain", dim=1, value=lambda x: float(x[0] ** 2),
                      gradient=lambda x: 2.0 * x, lipschitz=2.0)
    traj, _ = run(make_stepper("agm2", S), plain, [1.0], S,
                  StoppingRule("max_iter"), max_iter=3)
    with pytest.raises(ValueError):
        traj.fgaps()


def test_make_stepper_errors():
    with pytest.raises(ValueError):
        make_stepper("sgd", S)
    with pytest.raises(ValueError):
        make_stepper("lt_s_igahd", S)   # schedule required
    sch = make_schedule("e25", s=0.04, beta=0.1, b=2.0)
    with pytest.raises(ValueError):
        make_stepper("lt_s_igahd", S, schedule=sch)  # s mismatch


def test_make_stepper_takes_one_stepsize_and_one_schedule():
    # many stepsizes or schedules are the cells of run_methods, one per lane
    sch = make_schedule("e25", s=S, beta=0.1, b=2.0)
    message = ("^make_stepper takes one stepsize and one schedule; "
               "run_methods runs one cell per lane$")
    for call in (lambda: make_stepper("agm2", [S, 2.0 * S]), lambda: make_stepper("agm2", [S]),
                 lambda: make_stepper("pim", np.array([S])),
                 lambda: make_stepper("lt_s_igahd", S, schedule=[sch]),
                 lambda: make_stepper("lt_s_igahd", [S, S], schedule=(sch, sch))):
        with pytest.raises(ValueError, match=message):
            call()


def test_run_methods_is_the_one_lane_runner():
    assert "run_lanes" not in splitgrad.__all__
    assert not hasattr(splitgrad, "run_lanes") and not hasattr(algorithms, "run_lanes")


def test_make_stepper_rejects_alpha_mismatch():
    # as lt_s_igahd_construction does, rather than run with the schedule's alpha
    sch = make_schedule("e25", s=S, alpha=3.0, beta=0.1, b=2.0)
    with pytest.raises(ValueError, match="alpha"):
        make_stepper("lt_s_igahd", S, alpha=5.0, schedule=sch)
    make_stepper("lt_s_igahd", S, alpha=3.0, schedule=sch)


@pytest.mark.parametrize("name,kw,needle", [
    ("igahd", {"beta": float("nan")}, "beta must be finite"),
    ("polyak_igahd", {"beta": float("inf")}, "beta must be finite"),
    ("igahd", {"beta": -float("inf")}, "beta must be finite"),
    ("pim", {"gamma": -5.0}, "gamma must be nonnegative"),
    ("pim", {"gamma": float("inf")}, "gamma must be nonnegative and finite"),
    ("pim", {"gamma": float("nan")}, "gamma must be nonnegative and finite"),
    ("igahd", {"beta": -50.0}, "beta must be finite and nonnegative"),
])
def test_make_stepper_and_coefficient_map_reject_bad_beta_or_gamma(name, kw, needle):
    # the rule of igahd_construction and pim_construction, in both entry points
    with pytest.raises(ValueError, match=needle):
        make_stepper(name, S, **kw)
    with pytest.raises(ValueError, match=needle):
        coefficient_map(name, S, **kw)


@pytest.mark.parametrize("alpha", [1.0, 0.5, -3.0, float("nan")])
@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_every_entry_point_refuses_alpha_at_most_one(name, alpha):
    # one rule with one message in coefficient_map, make_stepper and
    # run_methods; pim's coefficients do not read alpha, so it takes any
    kw = {}
    if name == "lt_s_igahd":
        kw["schedule"] = make_schedule("custom", s=S, alpha=alpha,
                                       coeffs=coefficient_map("agm2", S))
    calls = (lambda: coefficient_map(name, S, alpha=alpha, **kw),
             lambda: make_stepper(name, S, alpha=alpha, **kw),
             lambda: run_methods(f1(), [(name, S, dict(kw, alpha=alpha))], X0,
                                 StoppingRule("max_iter"), 5))
    for call in calls:
        if name == "pim":
            call()
        else:
            with pytest.raises(ValueError, match=f"^alpha must exceed 1 for {name}, got {alpha}$"):
                call()


@pytest.mark.parametrize("s", [-0.1, 0.0, float("nan")])
def test_both_routes_refuse_a_stepsize_that_is_not_positive(s):
    # one rule with one message in both routes, so that no method runs gradient
    # ascent or stands still. lt_s_igahd steps at its schedule's s, which
    # make_schedule holds to the same rule.
    message = f"^{re.escape(f'stepsize must be positive, got {s}')}$"
    direct = [n for n in ALGORITHM_NAMES if n != "lt_s_igahd"]
    calls = [call for name in direct for call in (
        lambda name=name: coefficient_map(name, s),
        lambda name=name: make_stepper(name, s),
        lambda name=name: run_methods(f1(), [(name, s, {})], X0, StoppingRule("max_iter"), 5))]
    calls += [lambda: make_schedule("e24", s=s)]
    calls += [lambda c=c: c(f1(), X0, 3.0, s, 5) for c in (
        con.nesterov_lie_trotter, con.nesterov_velocity_form, con.ardm_construction,
        con.lt_se1_construction, con.lt_sv2_construction, con.lt_se3_construction)]
    calls += [lambda: con.igahd_construction(f1(), X0, 3.0, 1.0, s, 5),
              lambda: con.pim_construction(f1(), X0, 1.0, s, 5),
              lambda: con.lt_s_igahd_construction(f1(), X0, 3.0,
                                                  make_schedule("e25", s=S, beta=0.1), s, 5)]
    drift = euler_advance(lambda t, x, v: (v, -x))
    calls += [lambda table=table: compose(table([drift]), (np.ones(2), np.zeros(2)), 1.0, s)
              for table in (lie_trotter, strang)]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


def test_make_stepper_stepsize_tolerance():
    # the schedule's s is matched to 8 eps relative, as in the construction
    sch = make_schedule("e25", s=S, beta=0.1, b=2.0)
    make_stepper("lt_s_igahd", S * (1.0 + 2.0 * EPS), schedule=sch)
    with pytest.raises(ValueError):
        make_stepper("lt_s_igahd", S * (1.0 + 16.0 * EPS), schedule=sch)


def test_algorithm_name_registry():
    assert set(ALGORITHM_NAMES) == {
        "agm2", "lt_s_igahd", "lt_se1", "lt_sv2", "ardm", "lt_se3", "pim",
        "polyak_igahd", "igahd", "nag",
    }
    sch = make_schedule("e25", s=S, beta=0.1, b=2.0)
    for name in ALGORITHM_NAMES:
        assert callable(make_stepper(name, S, schedule=sch))


def test_algorithm_names_keep_their_order():
    # perfbench/inputs.py mirrors this tuple, and --algorithm lists it in order
    assert ALGORITHM_NAMES == ("agm2", "lt_s_igahd", "lt_se1", "lt_sv2", "ardm", "lt_se3",
                               "pim", "polyak_igahd", "igahd", "nag")


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_kernel_of_steps_at_x_for_pim_and_polyak_igahd_alone(name):
    # a method's kernel, the step its stepper advances by, is coefficient_step
    # at its row's gradient point, bit for bit; the other point's step differs
    kw = {"schedule": make_schedule("e25", s=S, beta=0.1)} if name == "lt_s_igahd" else {}
    obj = f2()
    state = init_state(obj, [1.0, -2.0], S)
    at_x = name in ("pim", "polyak_igahd")
    coeffs = coefficient_map(name, S, **kw)(state.n)
    want = coefficient_step(state, obj, S, coeffs, grad_at_x=at_x)
    for spelled in (name, name.upper()):
        got = make_stepper(spelled, S, **kw)(state, obj)
        assert got.n == want.n == 2 and got.f_curr == want.f_curr
        for field in ("x_prev", "x_curr", "grad_prev", "grad_curr"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
    other = coefficient_step(state, obj, S, coeffs, grad_at_x=not at_x)
    assert other.x_curr.tobytes() != want.x_curr.tobytes()


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_check_alpha_refuses_one_for_every_method_but_pim(name):
    if name == "pim":
        check_alpha(name, 1.0)
    else:
        with pytest.raises(ValueError, match=f"^--alpha must exceed 1 for {name}, got 1.0$"):
            check_alpha(name, 1.0, "--alpha")
    check_alpha(name, 1.5)


def test_an_unknown_method_has_no_row():
    for call in (lambda: make_stepper("nesterov", S), lambda: check_alpha("nesterov", 3.0),
                 lambda: coefficient_map("nesterov", S, alpha=0.5)):
        with pytest.raises(ValueError, match="^unknown algorithm 'nesterov'$"):
            call()


# SHA-256 of xs, fs and grads over 1000 steps at s = 0.01 and s = 0.1,
# recorded from the engine that still recorded ys, whose xs were those of
# the hand-written steppers the coefficient table replaced; nag steps
# agm2's bits (test_nag_steps_agm2_bitwise)
GOLDEN = {
    ("f1", "agm2"): "bd819a170eb232b7a6ee365c7cc8d1939668ac4b45fd6d402abeec774f75b5a1",
    ("f1", "lt_s_igahd"): "7317caa4674cf3b3c382857f752dd5f9754161a493f903f426220a0b6279ecec",
    ("f1", "lt_se1"): "8e9d7ce26c58f3a2c8b86c3c5b7835783ce9ae86467388325286e9b2a51a4dfc",
    ("f1", "lt_sv2"): "d8a46d1485e99649d7d8d435134a9eeb06c347fe7102211201d87f1b8ab279d5",
    ("f1", "ardm"): "27fa913ffb44fe82f60d199cd49f20129ff7ec785ae8f07fded47ceb9db1f167",
    ("f1", "lt_se3"): "9b5d4a4656fb6a7864052ed9c5be963d7e29792aa6bbd98cf9eef1f72369b74f",
    ("f1", "pim"): "60bc0063c782cbda3196e1fbf0759c6b4aab5eea4d1f2a3d7e5f0a5626f7afef",
    ("f1", "polyak_igahd"): "aa80e24179c6c2166aa30bc8eb7b0615cea77a18895ad044228afbe16d9f49a2",
    ("f1", "igahd"): "32a885b7a1b1e4287fb3311a27550697df7b4479989d5a746a42368e51203f2c",
    ("f2", "agm2"): "e1ce5e8324ce9756b6d932826cc68efa56fbb63bb5fd172e14f52084abafb608",
    ("f2", "lt_s_igahd"): "a991978e075f7dbcc61aceb17458acad6475d515f530fce0bbef609f708edc85",
    ("f2", "lt_se1"): "f4b25943cc0756b76355a2ce2392971325c683eba4da63d14418523c7edeccb7",
    ("f2", "lt_sv2"): "6bd7294307990fa5d711e956c468b47ad940d07b4db12536198800ab4cbcf4a4",
    ("f2", "ardm"): "b124733bf25f6b9dfd55c8cb8f5b76fb82c50e9e5595209d184debd06df54dbc",
    ("f2", "lt_se3"): "650fafa1899954edbd419266c50228ae6b7db124723e72433d4066060e087e24",
    ("f2", "pim"): "b4f32d377706ed3a5e7738e4bd105d53dd71cd4ee57e9eb1277339f6cf40eee5",
    ("f2", "polyak_igahd"): "6f6db5c9922ac6d7911bafcd5edd7b6ca88952c24faf65493723ffbcf18abbd7",
    ("f2", "igahd"): "321780b407206ab3e8adb07d1f0de4f2850aee15de4e4a1b643b5fecea11f3f0",
}


@pytest.mark.parametrize("objective,name", sorted(GOLDEN))
def test_golden_iterates(objective, name):
    obj = {"f1": f1, "f2": f2}[objective]()
    digest = hashlib.sha256()
    for s in (0.01, 0.1):
        sch = make_schedule("e25", s=s, beta=0.2 * float(np.sqrt(s)), b=2.0, mu=0.1)
        traj, _ = run(make_stepper(name, s, schedule=sch), obj, [1.0, -2.0], s,
                      StoppingRule("max_iter"), max_iter=1000)
        for arr in (traj.xs, traj.fs, traj.grads):
            digest.update(arr.tobytes())
    assert digest.hexdigest() == GOLDEN[(objective, name)]


def _counting(obj):
    counts = {"grad": 0, "eval": 0, "eval_grad": 0}

    def value(x):
        counts["eval"] += 1
        return obj.value(x)

    def gradient(x):
        counts["grad"] += 1
        return obj.gradient(x)

    def value_and_gradient(x):
        counts["eval_grad"] += 1
        return obj.value_and_gradient(x)

    fused = None if obj.value_and_gradient is None else value_and_gradient
    return dataclasses.replace(obj, value=value, gradient=gradient,
                               value_and_gradient=fused), counts


def _quad50():
    """A seeded, well-conditioned dim-50 quadratic and its start."""
    rng = np.random.default_rng(50)
    m = rng.standard_normal((50, 50))
    obj = quadratic(m @ m.T / 50.0 + 0.1 * np.eye(50), rng.standard_normal(50))
    return obj, rng.standard_normal(50)


# L of _quad50 as the digests below were recorded: eigh's largest
# eigenvalue, which eigvalsh's may differ from in the last bits
QUAD50_L = 3.6011020553867454


def _quad50_run(name, obj):
    """200 steps of `name` on `obj` (a variant of _quad50) at s = 1/(2L),
    with L pinned to QUAD50_L."""
    x0 = _quad50()[1]
    s = 0.5 / QUAD50_L
    sch = make_schedule("e25", s=s, beta=0.2 * float(np.sqrt(s)), b=1.0, mu=0.1)
    traj, _ = run(make_stepper(name, s, schedule=sch), obj, x0, s,
                  StoppingRule("max_iter"), max_iter=200)
    return traj


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_gradient_economy(name):
    # two gradients per step from y_n, one from x_n; one value per iterate
    obj, counts = _counting(f2())
    sch = make_schedule("e25", s=S, beta=0.1, b=2.0)
    traj, _ = run(make_stepper(name, S, schedule=sch), obj, [1.0, -2.0], S,
                  StoppingRule("max_iter"), max_iter=101)
    assert traj.n_final == 101
    assert counts["grad"] == (102 if name in ("pim", "polyak_igahd") else 202)
    assert counts["eval"] == 102


# gradients at y_n over the 100 steps of test_gradient_economy_fused: none
# for a step at x_n, none where lambda_n = omega_n = 0 on an affine gradient
# (always for agm2 and nag, at n = alpha = 3 where a_n = 0 for three more)
FUSED_GRADS = {"pim": 0, "polyak_igahd": 0, "agm2": 0, "nag": 0,
               "lt_se1": 99, "lt_sv2": 99, "lt_se3": 99}


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_gradient_economy_fused(name):
    # one fused call per iterate; a separate gradient only at some y_n
    obj, counts = _counting(_quad50()[0])
    sch = make_schedule("e25", s=S, beta=0.1, b=2.0)
    traj, _ = run(make_stepper(name, S, schedule=sch), obj, np.ones(50), S,
                  StoppingRule("max_iter"), max_iter=101)
    assert traj.n_final == 101
    assert counts["eval_grad"] == 102
    assert counts["eval"] == 0
    assert counts["grad"] == FUSED_GRADS.get(name, 100)


@pytest.mark.parametrize("name", ["agm2", "lt_se1", "pim"])
def test_recorded_run_derives_its_gradients_once_when_read(name):
    # a recorded run keeps x_n and f_n: one fused call per iterate and the
    # gradients its steps take at y_n. Reading traj.grads then evaluates one
    # gradient per iterate, once, bitwise the gradients the engine cached.
    obj, counts = _counting(_quad50()[0])
    stepper = make_stepper(name, S)
    traj, res = run(stepper, obj, np.ones(50), S, StoppingRule("max_iter"), max_iter=101)
    assert counts["eval_grad"] == res.n_final + 1 == 102
    assert counts["grad"] == FUSED_GRADS[name]
    grads = traj.grads
    assert counts["grad"] == FUSED_GRADS[name] + res.n_final + 1
    assert traj.grads is grads and counts["grad"] == FUSED_GRADS[name] + res.n_final + 1
    state = init_state(obj, np.ones(50), S)
    want = [state.grad_prev]
    while True:
        want.append(state.grad_curr)
        if state.n >= 101:
            break
        state = stepper(state, obj)
    assert grads.shape == (102, 50) and grads.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("name", ["agm2", "nag"])
def test_affine_gradient_shortcut_matches_the_direct_recursion(name):
    obj, x0 = _quad50()
    s = 0.5 / obj.lipschitz
    got, want = [run(make_stepper(name, s), o, x0, s, StoppingRule("max_iter"),
                     max_iter=2000)[0].xs
                 for o in (obj, dataclasses.replace(obj, affine_gradient=False))]
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_fused_run_is_bitwise_unfused(name):
    # the same run with value and gradient taken by separate calls
    obj = _quad50()[0]
    fused = _quad50_run(name, obj)
    plain = _quad50_run(name, dataclasses.replace(obj, value_and_gradient=None))
    for attr in ("xs", "fs", "grads"):
        assert getattr(fused, attr).tobytes() == getattr(plain, attr).tobytes()


def _blas_digest(obj):
    """SHA-256 of the value and gradient at eight seeded points: it tells
    whether this BLAS sums A x and x'Ax in the order that QUAD_GOLDEN saw."""
    rng = np.random.default_rng(0)
    digest = hashlib.sha256()
    for _ in range(8):
        f, g = obj.eval_grad(rng.standard_normal(obj.dim))
        digest.update(np.float64(f).tobytes() + g.tobytes())
    return digest.hexdigest()


QUAD_BLAS = "632d93419aedf531862289758a9c369bc94d2191935d412412a8508491d843c3"

# SHA-256 of xs, fs and grads over 200 steps on _quad50, recorded from the
# runner that took each value by a separate Objective.eval. The bytes hold
# only under a BLAS that sums in the same order (OpenBLAS's SkylakeX
# kernels), so elsewhere the test skips and test_fused_run_is_bitwise_unfused
# carries the bitwise check.
QUAD_GOLDEN = {
    "agm2": "5d4fbb3688fe5ac4f168b786587aa99558ec642e4896a41564470b13d7ba8e4a",
    "lt_s_igahd": "8e6ebc620ea30dd5d6ed3377ee1cfa3420b77c8c8bfeab78b71cd55081c49a41",
    "lt_se1": "e17a2e606900366983a8b1288f62aaf4b3de4634e5f35abe5418b6393df1d69b",
    "lt_sv2": "fc97e622380188e25a65c4b7d84be7107239ed8e3f7e37b1a45162d1eb71d872",
    "ardm": "048d8ad262bc5791796e5dd7132048e1b89f3fddec710748dd5afe55b17a82f8",
    "lt_se3": "9aebf782b003ba54de71eb8839eb36c8316541c910bb5be9bbcb6e6f2d2e12e5",
    "pim": "03a94ea564bf71155fcb4e83db0f132e38014c18624164200e633bd8758eb9fb",
    "polyak_igahd": "e16eda46b3faba4c7352c257504f271f5f78dcade058e29b782edb9659c67fbe",
    "igahd": "3f9fb97ffbd860eee5a1c9208d20fb809330edd595d94d43822d6b1bed1bd7da",
}


@pytest.mark.parametrize("name", [n for n in ALGORITHM_NAMES if n in QUAD_GOLDEN])
def test_golden_iterates_quadratic(name):
    # undeclared, so that the digests pin the direct recursion
    obj = dataclasses.replace(_quad50()[0], affine_gradient=False)
    if _blas_digest(obj) != QUAD_BLAS:
        pytest.skip("this BLAS sums in another order than the recorded digests")
    assert abs(obj.lipschitz - QUAD50_L) <= 4 * np.finfo(float).eps * QUAD50_L
    traj = _quad50_run(name, obj)
    digest = hashlib.sha256()
    for arr in (traj.xs, traj.fs, traj.grads):
        digest.update(arr.tobytes())
    assert digest.hexdigest() == QUAD_GOLDEN[name]


def _agm2_and_nag_runs(objective):
    """Every recorded array of agm2's and of nag's runs on `objective`: as
    GOLDEN records them on f1 and f2, as QUAD_GOLDEN on the quadratic."""
    out = []
    for name in ("agm2", "nag"):
        if objective == "quadratic":
            traj = _quad50_run(name, dataclasses.replace(_quad50()[0], affine_gradient=False))
            out.append([traj.xs, traj.fs, traj.grads])
            continue
        obj = {"f1": f1, "f2": f2}[objective]()
        arrays = []
        for s in (0.01, 0.1):
            traj, _ = run(make_stepper(name, s), obj, [1.0, -2.0], s,
                          StoppingRule("max_iter"), max_iter=1000)
            arrays += [traj.xs, traj.fs, traj.grads]
        out.append(arrays)
    return out


@pytest.mark.parametrize("objective", ["f1", "f2", "quadratic"])
def test_nag_steps_agm2_bitwise(objective):
    # nag is agm2's row under its classical name; its velocity form is the
    # construction nesterov_velocity_form
    agm2, nag = _agm2_and_nag_runs(objective)
    assert [a.tobytes() for a in nag] == [a.tobytes() for a in agm2]
