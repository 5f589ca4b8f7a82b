import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitgrad.algorithms import StoppingRule, make_stepper, run, run_methods
from splitgrad.analysis import (
    EnergySeries,
    check_descent_lemma,
    check_monotone,
    check_quadratic_lemma,
    energy,
    energy_series,
    fit_rate,
    rate_bound_first_violation,
    spurious_root_residual,
)
from splitgrad.objectives import f1, f2, quadratic
from splitgrad.schedules import check_assumptions, make_schedule
from splitgrad.verify import _energy_configs

X_STAR = np.zeros(2)


def _counting(obj):
    """obj with every gradient its `gradient` evaluates counted in grads[0]."""
    grads = [0]

    def gradient(x):
        grads[0] += 1 if x.ndim == 1 else x.shape[0]
        return obj.gradient(x)

    return dataclasses.replace(obj, gradient=gradient), grads


def _agm2_run(s=0.025, n=200):
    traj, _ = run(make_stepper("agm2", s), f2(), [1.0, -2.0], s,
                  StoppingRule("max_iter"), max_iter=n)
    return traj


def test_energy_frozen_values_agm2():
    s = 0.025
    traj = _agm2_run(s)
    assert tuple(traj.xs[1]) == (0.9823223304703363, -1.977639320225002)
    assert tuple(traj.xs[2]) == (0.9998458033598334, -1.9999506633924622)
    # t_1 = 0, so E_1 is the scaled squared distance of x_0: 5/(2s) = 100
    assert energy(traj, 1, s, 3.0, None, X_STAR) == 100.0
    assert energy(traj, 2, s, 3.0, None, X_STAR) == 99.16359503840177


def test_energy_frozen_values_scheduled():
    s = 0.5 / np.sqrt(2.0)
    sch = make_schedule("e25", s=s, beta=0.1 * 2.0 * np.sqrt(s), b=1.0, mu=0.1)
    traj, _ = run(make_stepper("lt_s_igahd", s, schedule=sch), f2(), [1.0, -2.0],
                  s, StoppingRule("known_min_f", 1e-10), max_iter=20000)
    assert energy(traj, 1, s, 3.0, sch.coeffs_at, X_STAR) == 7.687040432114152
    assert energy(traj, 2, s, 3.0, sch.coeffs_at, X_STAR) == 6.780592007391671


def test_energy_index_bounds():
    traj = _agm2_run(n=10)
    with pytest.raises(ValueError):
        energy(traj, 0, 0.025, 3.0, None, X_STAR)
    with pytest.raises(ValueError):
        energy(traj, 11, 0.025, 3.0, None, X_STAR)


def test_energy_series_matches_scalar():
    s = 0.025
    traj = _agm2_run(s, n=60)
    series = energy_series(traj, s, 3.0, None, x_star=X_STAR)
    assert series.n_start == 1
    assert len(series.e_seq) == 60
    for n in (1, 2, 17, 42, 60):
        assert series.e_seq[n - 1] == pytest.approx(
            energy(traj, n, s, 3.0, None, X_STAR), rel=1e-15)
    assert series.z_seq.shape == (60, 2)


def test_energy_series_window_validation():
    traj = _agm2_run(n=10)
    with pytest.raises(ValueError):
        energy_series(traj, 0.025, 3.0, None, n_lo=0)
    with pytest.raises(ValueError):
        energy_series(traj, 0.025, 3.0, None, n_hi=11)


@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_energy_needs_alpha_above_one(alpha):
    # the clock t_n = (n - 1)/(alpha - 1) divides by zero at 1 and runs
    # backward below it
    traj = _agm2_run(n=10)
    for call in (lambda: energy(traj, 5, 0.025, alpha, None, X_STAR),
                 lambda: energy_series(traj, 0.025, alpha, None, x_star=X_STAR)):
        with pytest.raises(ValueError, match=f"^alpha must exceed 1 for the energy, "
                                             f"got {alpha}$"):
            call()


def test_energy_terminal_surrogate():
    s = 0.025
    traj, _ = run(make_stepper("agm2", s), f2(), [1.0, -2.0], s,
                  StoppingRule("known_min_f", 1e-12), max_iter=20000)
    series = energy_series(traj, s, 3.0, None)   # x_star defaults to terminal
    assert np.array_equal(series.x_star, traj.xs[-1])
    for n in (5, 20, traj.n_final // 2):
        surrogate = energy(traj, n, s, 3.0, None, traj.xs[-1])
        assert surrogate == series.e_seq[n - 1]
        exact = energy(traj, n, s, 3.0, None, X_STAR)
        assert abs(surrogate - exact) <= 1e-5 * (1.0 + exact)


def test_energy_at_one_index_evaluates_one_gradient():
    # the energy takes g_{n-1} for its window only, and the same bits as
    # from the gradients of the whole run
    s = 0.025
    sch = make_schedule("e25", s=s, beta=0.2 * np.sqrt(s), b=1.0, mu=0.1)
    obj, grads = _counting(f2())
    traj, _ = run(make_stepper("lt_s_igahd", s, schedule=sch), obj, [1.0, -2.0], s,
                  StoppingRule("max_iter"), max_iter=2200)
    grads[0] = 0
    e = energy(traj, 500, s, 3.0, sch.coeffs_at, X_STAR)
    assert grads[0] == 1
    assert traj.grads.shape == (2201, 2) and grads[0] == 1 + 2201
    assert energy(traj, 500, s, 3.0, sch.coeffs_at, X_STAR) == e
    assert grads[0] == 1 + 2201


def _fake_series(e_values):
    e = np.asarray(e_values, dtype=float)
    return EnergySeries(t_seq=np.zeros(len(e)), e_seq=e,
                        z_seq=np.zeros((len(e), 1)), x_star=np.zeros(1))


def test_check_monotone():
    series = _fake_series([5.0, 4.0, 4.5, 3.0])
    rep = check_monotone(series, from_n=1, tol=0.0)
    assert not rep.ok
    assert rep.first_violation == 2
    assert rep.max_increase == 0.5
    assert rep.n_checked == 3
    assert check_monotone(series, from_n=1, tol=0.6).ok
    assert check_monotone(series, from_n=3, tol=0.0).ok
    empty = check_monotone(series, from_n=4, tol=0.0)
    assert empty.n_checked == 0 and empty.ok


def test_fit_rate_recovers_power_law():
    ns = np.arange(0, 3001, dtype=float)
    fg = np.zeros_like(ns)
    fg[1:] = 3.0 / ns[1:] ** 2
    slope, c = fit_rate(fg, (10, 2500))
    assert slope == pytest.approx(-2.0, abs=1e-9)
    assert c == pytest.approx(3.0, rel=1e-9)
    slope, c = fit_rate(np.full(100, 7.0), (5, 90))
    assert abs(slope) <= 1e-12
    assert c == pytest.approx(7.0, rel=1e-12)


def test_fit_rate_contracts():
    fg = np.full(100, 1e-20)
    with pytest.raises(ValueError):
        fit_rate(fg, (5, 90), f_scale=1.0)    # everything under the floor
    with pytest.raises(ValueError):
        fit_rate(fg, (0, 90))                 # window must start at n >= 1
    with pytest.raises(ValueError):
        fit_rate(fg, (99, 2000))              # clipped window is empty


def test_rate_bound_detection():
    e_ref = 2.5
    fg = np.zeros(100)
    ns = np.arange(2, 100)
    fg[2:] = e_ref * 4.0 / (ns - 1.0) ** 2    # exactly on the bound
    assert rate_bound_first_violation(fg, e_ref, 3.0, 2) is None
    fg[50] *= 1.0 + 1e-7
    assert rate_bound_first_violation(fg, e_ref, 3.0, 2) == 50
    with pytest.raises(ValueError):
        rate_bound_first_violation(fg, e_ref, 3.0, 1)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 10), u=st.floats(0.05, 0.95))
def test_tail_bound_holds_on_random_definite_quadratics(seed, dim, u):
    # fgap(n) <= E(n_from) (alpha - 1)^2/(n - 1)^2 for every n >= n_from, with
    # n_from as the rate suite takes it, for agm2 and a schedule of each
    # family with the energy suite's parameters. At n = n_from the bound
    # reads t_n^2 fgap(n) <= E_n, which holds with the margin |z_n|^2/(2s).
    rng = np.random.default_rng([seed, dim])
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    a = (q * rng.uniform(1e-3, 1.0, dim)) @ q.T
    obj = quadratic(0.5 * (a + a.T), rng.standard_normal(dim))
    lip = obj.lipschitz
    s, alpha, steps = u / lip, 3.0, 400
    runs = [("agm2", None)] + [("lt_s_igahd", make_schedule(label, s=s, alpha=alpha, **params))
                               for label, params in _energy_configs(s)]
    trajs, results = run_methods(obj, [(name, s, {"alpha": alpha, "schedule": sch})
                                       for name, sch in runs],
                                 rng.standard_normal(dim), StoppingRule("max_iter"), steps,
                                 record=True)
    for (name, sch), traj, res in zip(runs, trajs, results):
        assert res.termination == "max_iter"
        if sch is None:
            n_from = int(np.floor(alpha - 1.0)) + 1
        else:
            n_from = int(np.floor(check_assumptions(sch, lip, n_max=steps).n_threshold)) + 1
        e_ref = energy(traj, n_from, s, alpha, sch and sch.coeffs_at, obj.argmin_point)
        viol = rate_bound_first_violation(traj.fgaps(), e_ref, alpha, n_from)
        assert viol is None, (name, sch and sch.label, n_from, viol)


def test_descent_lemma_hand_values():
    obj = f1()
    # f(y) - [f(x) + <g, y-x> + (L/2)|y-x|^2] at x=(1,0), y=(0,0):
    # 1 - 2 + 2 = 1 against 0
    assert check_descent_lemma(obj, [1.0, 0.0], [0.0, 0.0], "dl") == 1.0
    # at s = 1/L the extended inequality is tight for this pair
    assert check_descent_lemma(obj, [1.0, 0.0], [0.0, 0.0], "edl", s=0.25) == 0.0


def test_descent_lemma_gamma_zero_reduces_to_edl():
    obj = f2()
    rng = np.random.RandomState(4242)
    for _ in range(50):
        x, y, z = rng.randn(3, 2) * 2.0
        s = rng.uniform(0.05, 1.0) / obj.lipschitz
        r_eedl = check_descent_lemma(obj, x, y, "eedl", s=s, gamma=0.0, z=z)
        r_edl = check_descent_lemma(obj, x, y, "edl", s=s)
        assert abs(r_eedl - r_edl) <= 1e-12 * max(1.0, abs(r_edl))


def test_descent_lemma_nonnegative_on_samples():
    rng = np.random.RandomState(515)
    obj = f2()
    lip = obj.lipschitz
    for _ in range(200):
        x, y, z = rng.randn(3, 2) * 3.0
        s = rng.uniform(0.05, 1.0) / lip
        gam = rng.uniform(0.0, s)
        scale = max(1.0, abs(obj.eval(x)), abs(obj.eval(y)),
                    lip * float(x @ x + y @ y + z @ z))
        assert check_descent_lemma(obj, x, y, "dl") >= -8e-16 * scale
        assert check_descent_lemma(obj, x, y, "edl", s=s) >= -8e-16 * scale
        assert check_descent_lemma(obj, x, y, "eedl", s=s, gamma=gam, z=z) \
            >= -8e-16 * scale


def test_descent_lemma_contracts():
    obj = f1()
    with pytest.raises(ValueError):
        check_descent_lemma(obj, [1.0, 0.0], [0.0, 0.0], "edl")          # s missing
    with pytest.raises(ValueError):
        check_descent_lemma(obj, [1.0, 0.0], [0.0, 0.0], "edl", s=0.3)   # s > 1/L
    with pytest.raises(ValueError):
        check_descent_lemma(obj, [1.0, 0.0], [0.0, 0.0], "eedl", s=0.1)  # z missing
    with pytest.raises(ValueError):
        check_descent_lemma(obj, [1.0, 0.0], [0.0, 0.0], "taylor")
    # negative gamma is tolerated as a probe and just returns the residual
    r = check_descent_lemma(obj, [1.0, 0.0], [0.5, 0.5], "eedl", s=0.1,
                            gamma=-0.05, z=[0.2, -0.2])
    assert np.isfinite(r)


def test_quadratic_lemma():
    assert check_quadratic_lemma(1.0, 0.0, 1.0, 17.0, "l17")
    assert check_quadratic_lemma(1.0, -2.0, 1.0, 1.0, "l17")   # double root, q = 0
    assert check_quadratic_lemma(1.0, 0.0, -1.0, 2.0, "l18")
    assert check_quadratic_lemma(1.0, 0.0, -1.0, -1.0, "l18")  # boundary point
    with pytest.raises(ValueError):
        check_quadratic_lemma(-1.0, 0.0, 1.0, 0.0, "l17")      # a <= 0
    with pytest.raises(ValueError):
        check_quadratic_lemma(1.0, 0.0, -1.0, 0.0, "l17")      # disc > 0
    with pytest.raises(ValueError):
        check_quadratic_lemma(1.0, 0.0, 1.0, 0.0, "l18")       # disc < 0
    with pytest.raises(ValueError):
        check_quadratic_lemma(1.0, 0.0, -1.0, 0.5, "l18")      # inside roots
    with pytest.raises(ValueError):
        check_quadratic_lemma(1.0, 0.0, 1.0, 0.0, "positivity")


# the fixed-points suite's three omegas at s = 0.01: 0.05, and 2s and s,
# which weigh the second gradient by 1/2 and by 1
_OMEGAS = (0.05, 0.02, 0.01)


def test_spurious_root_residual_zero_at_minimizers():
    s = 0.01
    for obj, xm in ((f2(), [0.0, 0.0]), (f1(), [0.0, 0.0]), (f1(), [1.5, -1.5])):
        for omega in _OMEGAS:
            assert spurious_root_residual(obj, xm, omega, s) == 0.0


def test_spurious_root_residual_frozen_off_minimizer():
    obj = f2()
    s = 0.01
    got = [spurious_root_residual(obj, [1.0, 0.0], omega, s) for omega in _OMEGAS]
    assert got == [0.8459606659446149, 1.0581334672302674, 1.411700257177338]


def test_spurious_root_residual_contracts():
    with pytest.raises(ValueError, match="^the fixed-point residual needs a nonzero omega$"):
        spurious_root_residual(f2(), [1.0, 0.0], 0.0, 0.01)
