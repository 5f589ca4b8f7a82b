import ast
import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splitgrad
from splitgrad import constructions as con
from splitgrad.algorithms import StoppingRule, make_stepper, run, run_methods
from splitgrad.objectives import Objective, f1, f2, quadratic
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
    # and an infinite one, as make_stepper does
    for gamma in (-0.5, float("inf")):
        with pytest.raises(ValueError, match="gamma must be nonnegative and finite"):
            con.pim_construction(f1(), X0, gamma, H, 10)


@pytest.mark.parametrize("beta", [float("nan"), float("inf"), -float("inf"), -1.0])
def test_igahd_rejects_non_finite_beta(beta):
    # and a negative one, which anti-damps the Hessian-driven terms
    with pytest.raises(ValueError, match="beta must be finite"):
        con.igahd_construction(f1(), X0, 3.0, beta, H, 10)


@pytest.mark.parametrize("beta", [-5.0, float("nan"), float("inf")])
@pytest.mark.parametrize("integrate", [con.integrate_first_order_vd,
                                       con.integrate_second_order_hessian_vd])
def test_ode_integrators_reject_negative_or_non_finite_beta(integrate, beta):
    # at beta = -5 the first-order flow from (1, -2) reaches |x| ~ 1e75 by t = 10
    with pytest.raises(ValueError, match=r"^beta must be finite and nonnegative, got "):
        integrate(f1(), X0, np.zeros(2), 3.0, beta, 1.0, 10.0, 0.01)


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
            con.nesterov_velocity_form(obj, x_star, 3.0, H, 25),
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
    "nesterov_velocity_form": lambda p, h: con.nesterov_velocity_form(f2(), X0, p, h, 3),
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


def _routes(h, sched_beta=0.1):
    """Each construction at stepsize h from its start velocity, keyed by
    the direct stepper it reproduces at s = h^2 (agm2's velocity form by
    agm2_velocity), with that stepper's keywords. lt_s_igahd runs on an e25
    schedule with beta = sched_beta."""
    sch = make_schedule("e25", s=h * h, beta=sched_beta, b=2.0, mu=0.1)
    return {
        "agm2": (lambda obj, x0, n: con.nesterov_lie_trotter(obj, x0, 3.0, h, n), {}),
        "agm2_velocity": (lambda obj, x0, n: con.nesterov_velocity_form(obj, x0, 3.0, h, n),
                          {}),
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


@pytest.mark.parametrize("name", sorted(_routes(H)))
def test_a_record_no_memory_can_hold_raises_before_any_step(name):
    # the x-iterates go into one preallocated array, so a run too long for
    # it fails at once instead of stepping until memory runs out
    construct, _ = _routes(H)[name]
    n = 10**18
    with pytest.raises(ValueError, match=f"^n_steps = {n} asks for a record of {n + 1} "
                                         "iterates, which cannot be allocated$"):
        construct(f1(), X0, n)


# SHA-256 of each construction's x-iterates over 1000 steps from X0, keyed
# by (route, objective, h); lt_s_igahd's schedule has beta = h, which e25
# admits at both stepsizes
ROUTE_DIGESTS = {
    ("agm2", "f1", 0.1):
        "d7f22964e02675d72c8789ab6eec9eef7efdc5ce9b3e1f2506a0af5130cba4cc",
    ("agm2", "f2", 0.1):
        "bca72a707d6e6a506cb1a7f5830501783c15140180564cc4af439848cb5404c1",
    ("agm2_velocity", "f1", 0.1):
        "a4ed90a68b366464d522ef33a7c9acbe6c8d7106166436efa18947e293b7df32",
    ("agm2_velocity", "f2", 0.1):
        "669bec2154e41115a4f42f3f85d9b709ba82760a1fd76e0d4520abb0c76c4275",
    ("igahd", "f1", 0.1):
        "e4a9c35105b866a1b99c2b87fa9fc9903fdc352794740df1db3c42797a5b3063",
    ("igahd", "f2", 0.1):
        "fd56806125be89c31ac6e2fc31088384c54e00d26b0981245162e3c19af35152",
    ("lt_s_igahd", "f1", 0.1):
        "0b99b28273b9c6b9c775a8b948bc330464b4dc00137aaed0bbde0647962587fb",
    ("lt_s_igahd", "f2", 0.1):
        "5f04d1edca93eca5cd82be129c9fec5427646197a3a3f11deacbbc731b127bf4",
    ("ardm", "f1", 0.1):
        "6623afc68300a212876f737e41d1821a423d7fb49d124d6363b5c6db833d4a0b",
    ("ardm", "f2", 0.1):
        "398b8066f1c6d1def64be2838227dae22338468d3f1ac8d61aadf165527db40b",
    ("pim", "f1", 0.1):
        "653b9ffd6db9a4ef9bf5176191cbfbf8dc1e2746fa989af7c6e2544f6e5633ec",
    ("pim", "f2", 0.1):
        "fc9561b88e66afccc7dbac9dacdc0693a3eb5f486c53120c7aad0a76bf94e910",
    ("lt_se1", "f1", 0.1):
        "a724c5aa943692061ad31e51a6ae51bc38d367b943dafa9d89e63305499446be",
    ("lt_se1", "f2", 0.1):
        "5b5cb27944163a4cb19bb4766f55d3e1b7ace271a4673842344e3d10ffd1b05b",
    ("lt_sv2", "f1", 0.1):
        "578e65df484f204eb1245396932f2ac82731bbc160935885c7486ef6c2bb6557",
    ("lt_sv2", "f2", 0.1):
        "d402741104ef140b939a0eb6577eb5c02e667198791d531829cae133ece18eee",
    ("lt_se3", "f1", 0.1):
        "b9c4810f16459a976a35f7c2c4e132bd6016727f7724e1a783d6c3d1e7d7d411",
    ("lt_se3", "f2", 0.1):
        "c5e6a3a7c042f51da8c11f02ef13b5e9430e03ead871de680ca0b1ef24a216a9",
    ("agm2", "f1", 0.05):
        "a366605a2463de5f204820e196b123b15838eecca1ba807f87642508cd772d69",
    ("agm2", "f2", 0.05):
        "04c8f3c6cf1b4fbc6a74f24e5c5972194474c2f020778ab113ce9f63974c4d5e",
    ("agm2_velocity", "f1", 0.05):
        "9fc6feb4248a6f6e0cc1fd7051f0c7b3df28541c87efff75573234e7ea400501",
    ("agm2_velocity", "f2", 0.05):
        "7363b07ac2f668ce5e2a00c1f1968b04d4801f589ce04ffde4d9546f15ae8152",
    ("igahd", "f1", 0.05):
        "833e7969fa7c40a8d58015eae51b50adbcd018ae3b8d0e4974d2a98d2c46f884",
    ("igahd", "f2", 0.05):
        "aee21beb0e7336261ba80e5ab10af8852ea51038223955bb4fbf5b5c8be019a6",
    ("lt_s_igahd", "f1", 0.05):
        "bbe4db5ac3a49395e809455eaba19a66fa09e527ce305cfb13c186eb567f5919",
    ("lt_s_igahd", "f2", 0.05):
        "2e061bca3f3d1411c9e0633766abfc9b0d14d335c6ca4d716f512a7a212c6273",
    ("ardm", "f1", 0.05):
        "287179fffaabfe95901afb4a3ce7bb112d976a924d87011340a0902670c9618b",
    ("ardm", "f2", 0.05):
        "08f6d042b046f8a5a2021942ae6e1680f13b7702a8774dd92e541787e2e08b58",
    ("pim", "f1", 0.05):
        "5226de6a34eb43d9a57de689aec3eac566d632f2b356f83217118f6956905103",
    ("pim", "f2", 0.05):
        "2f04eba9d595cca6abfb1c63170abb4602bb776d52b263704437fb160e762f92",
    ("lt_se1", "f1", 0.05):
        "f433e47130e9443445036eab5d4a3c193345b006cddf42ea9993b336932f2a4a",
    ("lt_se1", "f2", 0.05):
        "b17b14e8484a8e396048a8d723363ed1e53db555522bf5a5b6271c828b2abcee",
    ("lt_sv2", "f1", 0.05):
        "66b32891f53772524d9670fbfe528261d9ebf77b746d72e7eb3206b153415f47",
    ("lt_sv2", "f2", 0.05):
        "ff9cb8ad0f6b7ce90d9a662883e8a13102fa39ee7171be042320433d192c54fe",
    ("lt_se3", "f1", 0.05):
        "2f171baa9e924829ba86cff8f954f20f171c805cac03c3ceb93f105e0cbf40ae",
    ("lt_se3", "f2", 0.05):
        "6e8b5d5cd6091ca12016dfe8faab9ca6e0741b50becbb1b4fddffd5d5121d7a7",
}


@pytest.mark.parametrize("h", [0.1, 0.05])
@pytest.mark.parametrize("name", sorted(_routes(H)))
def test_construction_digests(name, h):
    construct, _ = _routes(h, sched_beta=h)[name]
    for objective, obj in (("f1", f1()), ("f2", f2())):
        xs = construct(obj, X0, 1000)
        assert hashlib.sha256(xs.tobytes()).hexdigest() == ROUTE_DIGESTS[(name, objective, h)]


def _counting(obj):
    """obj with its gradient calls counted in calls[0]."""
    calls = [0]

    def gradient(x):
        calls[0] += 1
        return obj.gradient(x)

    return dataclasses.replace(obj, gradient=gradient), calls


@pytest.mark.parametrize("construct,want", [
    # the bootstrap, then grad f(x_n), grad f(y_n) and the kick's grad f(x_n)
    (lambda obj: con.ardm_construction(obj, X0, 3.0, H, 100), 1 + 99 * 3),
    # plus grad f(x_n - h v_n) for the Hessian drive, skipped where
    # lambda_n = 0: on e24 at n = 1 only
    (lambda obj: con.lt_s_igahd_construction(obj, X0, 3.0, make_schedule("e24", s=S), H, 100),
     1 + 99 * 4 - 1),
], ids=["ardm", "lt_s_igahd-e24"])
def test_gradient_calls_over_100_steps(construct, want):
    obj, calls = _counting(f2())
    construct(obj)
    assert calls[0] == want


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
    h = float(np.sqrt(u / obj.lipschitz))
    x0 = rng.normal(scale=2.0, size=dim)
    for name, (construct, kw) in _routes(h).items():
        method = name.removesuffix("_velocity")
        traj, _ = run(make_stepper(method, h * h, **kw), obj, x0, h * h,
                      StoppingRule("max_iter"), max_iter=N)
        assert _rel_gap(construct(obj, x0, N), traj.xs) <= 1e-12, name


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 8), n_lanes=st.integers(1, 5))
def test_affine_gradient_lanes_match_the_direct_recursion(seed, dim, n_lanes):
    # the undeclared copy of the quadratic takes grad(y_n) by a new product
    rng = np.random.default_rng([seed, dim])
    obj = _psd_quadratic(rng, dim)
    cells = [("agm2", s, {}) for s in rng.uniform(0.02, 0.98, n_lanes) / obj.lipschitz]
    x0 = rng.standard_normal(dim) * 3.0
    trajs = [run_methods(o, cells, x0, StoppingRule("max_iter"), max_iter=150, record=True)[0]
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


def test_package_exports_every_public_construction():
    # README names nesterov_velocity_form as public; every exported name resolves
    assert splitgrad.nesterov_velocity_form is con.nesterov_velocity_form
    assert "nesterov_velocity_form" in splitgrad.__all__
    assert [n for n in splitgrad.__all__ if not hasattr(splitgrad, n)] == []


# every entry that steps from a start point, as entry(obj, x0, v0): the two
# routes' runners, each construction, and both integrators (v0 is the
# second-order one's xdot0)
_ENTRIES = dict(
    {"run": lambda obj, x0, v0: run(make_stepper("agm2", S), obj, x0, S,
                                    StoppingRule("max_iter"), 5),
     "run_methods": lambda obj, x0, v0: run_methods(obj, [("agm2", S, {}), ("agm2", S / 2, {})],
                                                    x0, StoppingRule("max_iter"), 5),
     "first_order_vd": lambda obj, x0, v0: con.integrate_first_order_vd(
         obj, x0, v0, 3.0, 0.1, 1.0, 2.0, H),
     "second_order_hessian_vd": lambda obj, x0, v0: con.integrate_second_order_hessian_vd(
         obj, x0, v0, 3.0, 0.1, 1.0, 2.0, H)},
    **{name: lambda obj, x0, v0, construct=construct: construct(obj, x0, 5)
       for name, (construct, _) in _routes(H).items()})
_INTEGRATORS = {"first_order_vd": "v0", "second_order_hessian_vd": "xdot0"}


def _bad_inputs(entry):
    """(case, objective, x0, v0, error, message) for each bad input the
    entry reads."""
    listy = dataclasses.replace(f1(), name="listy",
                                gradient=lambda x: f1().gradient(x).tolist())
    shape = r"\(2, 2\)" if entry == "run_methods" else r"\(2,\)"   # its lanes' stack
    cases = [
        ("wrong-shape", f1(), [1.0, -2.0, 0.5], [0.0, 0.0], ValueError,
         r"x0 has shape \(3,\), expected \(2,\) for objective 'f1'"),
        ("non-finite-x0", f1(), [np.nan, 0.0], [0.0, 0.0], ValueError, "x0 must be finite"),
        ("list-gradient", listy, X0, [0.0, 0.0], ValueError,
         f"the gradient of objective 'listy' returned a list, expected a float array "
         f"of shape {shape}"),
    ]
    if entry in _INTEGRATORS:
        label = _INTEGRATORS[entry]
        cases.append(("wrong-v0-shape", f1(), X0, [0.0, 0.0, 0.0], ValueError,
                      rf"{label} has shape \(3,\), expected \(2,\) for objective 'f1'"))
    if entry == "second_order_hessian_vd":
        cases.append(("no-hessian-vec", dataclasses.replace(f1(), hessian_vec=None), X0,
                      [0.0, 0.0], NotImplementedError,
                      "objective 'f1' does not provide a Hessian-vector product"))
    return cases


@pytest.mark.parametrize("entry,case", [(entry, case[0]) for entry in _ENTRIES
                                        for case in _bad_inputs(entry)])
def test_every_entry_refuses_a_bad_start_before_any_step(entry, case):
    # the entry checks the start once: the loops then call the objective's
    # own callables, so a bad input must raise before the first step
    (_, obj, x0, v0, error, message), = [c for c in _bad_inputs(entry) if c[0] == case]
    calls = [0]

    def gradient(x, own=obj.gradient):
        calls[0] += 1
        return own(x)

    counted = dataclasses.replace(obj, gradient=gradient)
    with pytest.raises(error, match=f"^{message}$"):
        _ENTRIES[entry](counted, x0, v0)
    assert calls[0] <= 1   # at most the entry's one checked gradient


def _one_point_objective():
    """f(x) = sum sqrt(1 + x_i^2), written for one point, unfused."""
    return Objective(
        name="plain", dim=2, value=lambda x: float(np.sum(np.sqrt(1.0 + x * x))),
        gradient=lambda x: x / np.sqrt(1.0 + x * x),
        hessian_vec=lambda x, v: v / np.sqrt(1.0 + x * x) ** 3, lipschitz=1.0)


def test_raw_callables_step_the_bits_of_the_checked_calls():
    # the loops call `value`, `gradient` and `hessian_vec` themselves; routed
    # through the checked eval, grad and hess_vec instead, as every step once
    # was, they give the same bits
    plain = _one_point_objective()
    checked = dataclasses.replace(plain, value=plain.eval, gradient=plain.grad,
                                  hessian_vec=plain.hess_vec)
    got, want = ([run(make_stepper("lt_sv2", S), obj, X0, S, StoppingRule("max_iter"), 300)[0]
                  for obj in (plain, checked)])
    assert got.xs.tobytes() == want.xs.tobytes() and got.fs.tobytes() == want.fs.tobytes()
    assert (con.lt_sv2_construction(plain, X0, 3.0, H, 300).tobytes()
            == con.lt_sv2_construction(checked, X0, 3.0, H, 300).tobytes())
    got, want = (con.integrate_second_order_hessian_vd(obj, X0, [0.5, 0.0], 3.0, 0.1, 1.0,
                                                       4.0, 0.01) for obj in (plain, checked))
    assert got.xs.tobytes() == want.xs.tobytes() and got.vs.tobytes() == want.vs.tobytes()
