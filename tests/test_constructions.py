import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitgrad import constructions as con
from splitgrad.algorithms import StoppingRule, make_stepper, run, run_lanes
from splitgrad.objectives import f1, f2, quadratic
from splitgrad.schedules import make_schedule

H = 0.1
S = H * H
X0 = [1.0, -2.0]
N = 300


def _stepper_xs(obj, name, n_steps, **kw):
    traj, _ = run(make_stepper(name, S, **kw), obj, X0, S,
                  StoppingRule("max_iter"), max_iter=n_steps)
    return traj.xs


def _rel_gap(a, b):
    d = np.max(np.abs(a - b), axis=1)
    m = np.maximum(1.0, np.max(np.abs(b), axis=1))
    return float(np.max(d / m))


def test_nesterov_split_equals_direct_stepper():
    for obj in (f1(), f2()):
        xs = con.nesterov_lie_trotter(obj, X0, 3.0, H, N)
        assert _rel_gap(xs, _stepper_xs(obj, "agm2", N)) <= 1e-12


def test_igahd_construction_equals_stepper():
    for obj in (f1(), f2()):
        xs = con.igahd_construction(obj, X0, 3.0, 1.0, H, N)
        assert _rel_gap(xs, _stepper_xs(obj, "igahd", N, beta=1.0)) <= 1e-12


def test_igahd_construction_beta_zero_drops_hessian_terms():
    obj = f2()
    xs = con.igahd_construction(obj, X0, 3.0, 0.0, H, N)
    assert _rel_gap(xs, _stepper_xs(obj, "igahd", N, beta=0.0)) <= 1e-12
    # beta = 0 removes every correction term, leaving the plain method
    assert _rel_gap(xs, _stepper_xs(obj, "agm2", N)) <= 1e-12


def test_lt_s_igahd_construction_equals_stepper():
    sch = make_schedule("e25", s=S, beta=0.1, b=2.0, mu=0.1)
    for obj in (f1(), f2()):
        xs = con.lt_s_igahd_construction(obj, X0, 3.0, sch, H, N)
        assert _rel_gap(xs, _stepper_xs(obj, "lt_s_igahd", N, schedule=sch)) <= 1e-12


def test_lt_s_igahd_construction_validates_consistency():
    sch = make_schedule("e25", s=0.04, beta=0.1, b=2.0)
    with pytest.raises(ValueError):
        con.lt_s_igahd_construction(f1(), X0, 3.0, sch, H, 10)  # h^2 != s
    sch4 = make_schedule("e24", s=S, alpha=4.0, a=1.0, b=1.0)
    with pytest.raises(ValueError):
        con.lt_s_igahd_construction(f1(), X0, 3.0, sch4, H, 10)  # alpha clash


def test_ardm_construction_equals_stepper_and_hand_value():
    for obj in (f1(), f2()):
        xs = con.ardm_construction(obj, X0, 3.0, H, N)
        assert _rel_gap(xs, _stepper_xs(obj, "ardm", N)) <= 1e-12
    # hand-computed second iterate on f1 from (1, 0) at s = 0.01:
    # y_1 = x_1 - 2(x_1 - x_0) + s grad(x_1) = (1.0392, 0.0392),
    # x_2 = y_1 - s grad(y_1) = (1.017632, 0.017632)
    xs = con.ardm_construction(f1(), [1.0, 0.0], 3.0, 0.1, 2)
    assert np.max(np.abs(xs[2] - [1.017632, 0.017632])) <= 1e-15


def test_pim_construction_equals_stepper():
    for obj in (f1(), f2()):
        xs = con.pim_construction(obj, X0, 1.0, H, N)
        assert _rel_gap(xs, _stepper_xs(obj, "pim", N, gamma=1.0)) <= 1e-12


def test_pim_friction_dissipates_hamiltonian():
    obj = f2()
    xs = con.pim_construction(obj, X0, 1.0, H, 500)
    vs = np.diff(xs, axis=0) / H
    ham = np.array([0.5 * float(v @ v) + obj.eval(x) for x, v in zip(xs[1:], vs)])
    assert np.max(np.diff(ham)) <= 1e-12          # monotone decrease
    assert abs(ham[-1] - 2.0) <= 1e-6             # settles at the minimum value


def test_pim_gamma_zero_keeps_bounded_band():
    obj = f2()
    xs = con.pim_construction(obj, X0, 0.0, H, 500)
    vs = np.diff(xs, axis=0) / H
    ham = np.array([0.5 * float(v @ v) + obj.eval(x) for x, v in zip(xs[1:], vs)])
    assert np.max(np.abs(ham - ham[0])) <= 0.1    # no drift, just wiggle
    assert np.min(ham) >= 2.0


def test_pim_rejects_negative_friction():
    with pytest.raises(ValueError):
        con.pim_construction(f1(), X0, -0.5, H, 10)


def test_lt_se1_construction_equals_stepper():
    for obj in (f1(), f2()):
        xs = con.lt_se1_construction(obj, X0, 3.0, H, N)
        assert _rel_gap(xs, _stepper_xs(obj, "lt_se1", N)) <= 1e-12


def test_lt_sv2_construction_equals_stepper():
    for obj in (f1(), f2()):
        xs = con.lt_sv2_construction(obj, X0, 3.0, H, N)
        assert _rel_gap(xs, _stepper_xs(obj, "lt_sv2", N)) <= 1e-12


def test_lt_se3_construction_equals_stepper():
    for obj in (f1(), f2()):
        xs = con.lt_se3_construction(obj, X0, 3.0, H, N)
        assert _rel_gap(xs, _stepper_xs(obj, "lt_se3", N)) <= 1e-12


def test_lt_se3_constant_theta_reduces_to_lt_se1():
    obj = f2()
    xs3 = con.lt_se3_construction(obj, X0, 3.0, H, N, theta=lambda n: 1.0)
    xs1 = con.lt_se1_construction(obj, X0, 3.0, H, N)
    assert np.array_equal(xs3, xs1)


def test_stationary_start_stays_fixed():
    # gradient zero at the start: the bootstrap and every composite step
    # must hold the point exactly
    cases = [
        (f1(), [1.5, -1.5]),
        (f2(), [0.0, 0.0]),
    ]
    sch = make_schedule("e25", s=S, beta=0.1, b=2.0, mu=0.1)
    for obj, x_star in cases:
        for xs in (
            con.nesterov_lie_trotter(obj, x_star, 3.0, H, 25),
            con.igahd_construction(obj, x_star, 3.0, 1.0, H, 25),
            con.lt_s_igahd_construction(obj, x_star, 3.0, sch, H, 25),
            con.ardm_construction(obj, x_star, 3.0, H, 25),
            con.pim_construction(obj, x_star, 1.0, H, 25),
            con.lt_se1_construction(obj, x_star, 3.0, H, 25),
            con.lt_sv2_construction(obj, x_star, 3.0, H, 25),
            con.lt_se3_construction(obj, x_star, 3.0, H, 25),
        ):
            assert np.array_equal(xs, np.tile(np.asarray(x_star), (26, 1)))


def test_construction_guards():
    with pytest.raises(ValueError):
        con.nesterov_lie_trotter(f1(), X0, 1.0, H, 10)   # alpha <= 1
    with pytest.raises(ValueError):
        con.ardm_construction(f1(), X0, 3.0, -0.1, 10)   # bad h
    with pytest.raises(ValueError):
        con.lt_se1_construction(f1(), X0, 3.0, H, -1)    # bad count


# each construction and integrator with p as its alpha (pim's: gamma) and
# h as its stepsize (the integrators': dt)
_PARAM_ROUTES = {
    "nesterov_lie_trotter": lambda p, h: con.nesterov_lie_trotter(f2(), X0, p, h, 3),
    "igahd": lambda p, h: con.igahd_construction(f2(), X0, p, 1.0, h, 3),
    "lt_s_igahd": lambda p, h: con.lt_s_igahd_construction(
        f2(), X0, p, make_schedule("e25", s=S, beta=0.1), h, 3),
    "ardm": lambda p, h: con.ardm_construction(f2(), X0, p, h, 3),
    "pim": lambda p, h: con.pim_construction(f2(), X0, p, h, 3),
    "lt_se1": lambda p, h: con.lt_se1_construction(f2(), X0, p, h, 3),
    "lt_sv2": lambda p, h: con.lt_sv2_construction(f2(), X0, p, h, 3),
    "lt_se3": lambda p, h: con.lt_se3_construction(f2(), X0, p, h, 3),
    "first_order_vd": lambda p, h: con.integrate_first_order_vd(
        f2(), X0, [0.0, 0.0], p, 0.1, 1.0, 2.0, h),
    "second_order_hessian_vd": lambda p, h: con.integrate_second_order_hessian_vd(
        f2(), X0, [0.0, 0.0], p, 0.1, 1.0, 2.0, h),
}


@pytest.mark.parametrize("name", sorted(_PARAM_ROUTES))
def test_nan_parameters_are_rejected(name):
    with pytest.raises(ValueError, match="must exceed 1|must be nonnegative"):
        _PARAM_ROUTES[name](float("nan"), H)
    with pytest.raises(ValueError, match="must be positive"):
        _PARAM_ROUTES[name](3.0, float("nan"))


def test_route_imports_nothing_from_the_direct_steppers():
    # the agreement checks certify two routes only while they share no
    # formula, theta_n included
    tree = ast.parse(Path(con.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".") + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            parts = [p for a in node.names for p in a.name.split(".")]
        else:
            continue
        assert "algorithms" not in parts, ast.unparse(node)


def _routes(h):
    """Each construction at stepsize h from its start velocity, keyed by
    the direct stepper it reproduces at s = h^2, with that stepper's
    keywords."""
    sch = make_schedule("e25", s=h * h, beta=0.1, b=2.0, mu=0.1)
    return {
        "agm2": (lambda obj, x0, n: con.nesterov_lie_trotter(obj, x0, 3.0, h, n), {}),
        "igahd": (lambda obj, x0, n: con.igahd_construction(obj, x0, 3.0, 1.0, h, n),
                  {"beta": 1.0}),
        "lt_s_igahd": (lambda obj, x0, n: con.lt_s_igahd_construction(obj, x0, 3.0, sch, h, n),
                       {"schedule": sch}),
        "ardm": (lambda obj, x0, n: con.ardm_construction(obj, x0, 3.0, h, n), {}),
        "pim": (lambda obj, x0, n: con.pim_construction(obj, x0, 1.0, h, n),
                {"gamma": 1.0}),
        "lt_se1": (lambda obj, x0, n: con.lt_se1_construction(obj, x0, 3.0, h, n), {}),
        "lt_sv2": (lambda obj, x0, n: con.lt_sv2_construction(obj, x0, 3.0, h, n), {}),
        "lt_se3": (lambda obj, x0, n: con.lt_se3_construction(obj, x0, 3.0, h, n), {}),
    }


@pytest.mark.parametrize("n_steps", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(_routes(H)))
def test_short_runs_keep_shape_and_bootstrap_row(name, n_steps):
    obj = f1()
    construct, _ = _routes(H)[name]
    xs = construct(obj, X0, n_steps)
    assert xs.shape == (n_steps + 1, 2)
    assert np.array_equal(xs[0], X0)
    if n_steps:
        # bootstrap x1 = x0 - h^2 grad f(x0)
        assert np.array_equal(xs[1], np.asarray(X0) - S * obj.grad(np.asarray(X0)))


def _psd_quadratic(rng, dim):
    """A random positive-semidefinite quadratic with L in [1, 10]: some
    eigenvalues may be 0, and the linear term lies in the matrix range. L
    at least 1 keeps h <= 1, where the friction map of pim is stable."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = rng.uniform(0.0, 1.0, dim) * (rng.random(dim) < 0.8)
    eigs[0] = 1.0
    a = (q * (10.0 ** rng.uniform(0.0, 1.0) * eigs)) @ q.T
    a = 0.5 * (a + a.T)
    return quadratic(a, a @ rng.standard_normal(dim))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 8), u=st.floats(0.05, 0.95))
def test_every_construction_equals_its_stepper_on_random_quadratics(seed, dim, u):
    rng = np.random.default_rng([seed, dim])
    obj = _psd_quadratic(rng, dim)
    h = float(np.sqrt(u / obj.lipschitz_constant()))
    x0 = rng.normal(scale=2.0, size=dim)
    for name, (construct, kw) in _routes(h).items():
        traj, _ = run(make_stepper(name, h * h, **kw), obj, x0, h * h,
                      StoppingRule("max_iter"), max_iter=N)
        assert _rel_gap(construct(obj, x0, N), traj.xs) <= 1e-12, name


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 8),
       name=st.sampled_from(["agm2", "nag"]), n_lanes=st.integers(1, 5))
def test_affine_gradient_lanes_match_the_direct_recursion(seed, dim, name, n_lanes):
    # the undeclared copy of the quadratic takes grad(y_n) by a new product
    rng = np.random.default_rng([seed, dim])
    obj = _psd_quadratic(rng, dim)
    ss = list(rng.uniform(0.02, 0.98, n_lanes) / obj.lipschitz_constant())
    x0s = rng.standard_normal((n_lanes, dim)) * 3.0
    trajs = [run_lanes(make_stepper(name, ss), o, x0s, ss, StoppingRule("max_iter"),
                       max_iter=150, record=True)[0]
             for o in (obj, dataclasses.replace(obj, affine_gradient=False))]
    for got, ref in zip(*trajs):
        assert _rel_gap(got.xs, ref.xs) <= 1e-12


def test_continuous_routes_agree_after_change_of_variables():
    obj = f1()
    alpha, beta, t0, t1, dt = 3.0, 0.1, 1.0, 10.0, 1e-2
    x0 = np.array([1.0, -2.0])
    v0 = np.zeros(2)
    xdot0 = con.xdot_from_v(obj, x0, v0, t0, alpha, beta)
    tr1 = con.integrate_first_order_vd(obj, x0, v0, alpha, beta, t0, t1, dt)
    tr2 = con.integrate_second_order_hessian_vd(obj, x0, xdot0, alpha, beta,
                                                t0, t1, dt)
    v_rec = np.array([con.v_from_x(obj, tr2.xs[k], tr2.vs[k], float(tr2.ts[k]),
                                   alpha, beta)
                      for k in range(len(tr2.ts))])
    # the ode suite maps the whole trajectory in one call, with the same bits
    stacked = con.v_from_x(obj, tr2.xs, tr2.vs, tr2.ts[:, None], alpha, beta)
    assert stacked.shape == v_rec.shape and stacked.tobytes() == v_rec.tobytes()
    assert float(np.max(np.abs(tr1.xs - tr2.xs))) <= 1e-8
    assert float(np.max(np.abs(tr1.vs - v_rec))) <= 1e-8
    assert tr1.ts[0] == t0 and tr1.ts[-1] == pytest.approx(t1)


def test_change_of_variables_roundtrip():
    obj = f2()
    rng = np.random.RandomState(77)
    for _ in range(20):
        x = rng.randn(2)
        xdot = rng.randn(2)
        t = rng.uniform(0.5, 10.0)
        v = con.v_from_x(obj, x, xdot, t, 3.0, 0.1)
        back = con.xdot_from_v(obj, x, v, t, 3.0, 0.1)
        assert np.max(np.abs(back - xdot)) <= 1e-13


def test_time_grid_validation():
    obj = f1()
    with pytest.raises(ValueError):
        con.integrate_first_order_vd(obj, [1.0, 0.0], [0.0, 0.0], 3.0, 0.1,
                                     0.0, 1.0, 0.01)   # t0 must be positive
    with pytest.raises(ValueError):
        con.integrate_first_order_vd(obj, [1.0, 0.0], [0.0, 0.0], 3.0, 0.1,
                                     2.0, 1.0, 0.01)   # t1 <= t0
    with pytest.raises(ValueError):
        con.integrate_second_order_hessian_vd(obj, [1.0, 0.0], [0.0, 0.0], 3.0,
                                              0.1, 1.0, 2.0, -0.5)  # bad dt
    with pytest.raises(ValueError):
        con.integrate_first_order_vd(obj, [1.0, 0.0], [0.0, 0.0], 0.5, 0.1,
                                     1.0, 2.0, 0.01)   # alpha <= 1
