import numpy as np
import pytest

from splitgrad.splitting import (
    HamiltonianSystem,
    compose,
    euler_advance,
    forward_euler_hamiltonian,
    lie_trotter,
    rk4_step,
    stormer_verlet,
    strang,
    symplectic_euler,
)


def _oscillator():
    return HamiltonianSystem(potential=lambda x: 0.5 * float(np.dot(x, x)),
                             grad_potential=lambda x: x)


START = (np.array([1.0]), np.array([0.0]))
H = 0.1


def test_symplectic_euler_one_step_oracles():
    hs = _oscillator()
    x, v = symplectic_euler(hs, START, H, "se1")
    assert (float(x[0]), float(v[0])) == (1.0, -0.1)
    assert hs.energy(x, v) == 0.505
    x, v = symplectic_euler(hs, START, H, "se2")
    assert (float(x[0]), float(v[0])) == (0.99, -0.1)
    assert hs.energy(x, v) == 0.49505
    x, v = symplectic_euler(hs, (x, v), H, "se2")
    assert (float(x[0]), float(v[0])) == (0.9701, -0.199)


def test_stormer_verlet_one_step_oracles():
    hs = _oscillator()
    x, v = stormer_verlet(hs, START, H, "sv1")
    assert (float(x[0]), float(v[0])) == (0.995, -0.1)
    assert hs.energy(x, v) == 0.5000125
    x, v = stormer_verlet(hs, START, H, "sv2")
    assert (float(x[0]), float(v[0])) == (0.995, -0.09975)
    assert hs.energy(x, v) == 0.49998753125


def test_se2_with_negative_step_inverts_se1():
    hs = _oscillator()
    state = (np.array([0.7, -0.3]), np.array([0.2, 0.9]))
    fwd = symplectic_euler(hs, state, H, "se1")
    back = symplectic_euler(hs, fwd, -H, "se2")
    assert np.max(np.abs(back[0] - state[0])) <= 1e-15
    assert np.max(np.abs(back[1] - state[1])) <= 1e-15


def _march(stepfn, state, h, t_end, **kw):
    x, v = state
    for _ in range(int(round(t_end / h))):
        x, v = stepfn((x, v), h, **kw)
    return x, v


def _oscillator_error(stepfn, h, t_end=1.0, **kw):
    x, v = _march(stepfn, START, h, t_end, **kw)
    return abs(float(x[0]) - np.cos(t_end)) + abs(float(v[0]) + np.sin(t_end))


def test_stormer_verlet_is_second_order():
    hs = _oscillator()
    for variant in ("sv1", "sv2"):
        step = lambda st, h: stormer_verlet(hs, st, h, variant)
        ratio = _oscillator_error(step, 0.01) / _oscillator_error(step, 0.005)
        assert 3.6 < ratio < 4.4


def test_symplectic_euler_is_first_order():
    hs = _oscillator()
    step = lambda st, h: symplectic_euler(hs, st, h, "se1")
    ratio = _oscillator_error(step, 0.01) / _oscillator_error(step, 0.005)
    assert 1.8 < ratio < 2.2


def _drift_kick_split():
    drift = euler_advance(lambda t, x, v: (v, np.zeros_like(v)))
    kick = euler_advance(lambda t, x, v: (np.zeros_like(x), -x))
    return (drift, kick)


@pytest.mark.parametrize("table, order, step, variant", [
    (lie_trotter, slice(None), symplectic_euler, "se1"),
    (lie_trotter, slice(None, None, -1), symplectic_euler, "se2"),
    (strang, slice(None), stormer_verlet, "sv1"),
    (strang, slice(None, None, -1), stormer_verlet, "sv2"),
], ids=["se1", "se2", "sv1", "sv2"])
def test_composition_of_drift_and_kick_is_the_symplectic_map(table, order, step, variant):
    # Euler is the exact flow of either frozen sub-field, so the sequential
    # composition of (drift, kick) reproduces se1 bit for bit and that of
    # (kick, drift) se2; the palindromic ones reproduce sv1 and sv2
    split = _drift_kick_split()[order]
    hs = _oscillator()
    state = (np.array([0.4, -1.1]), np.array([0.6, 0.2]))
    xa, va = compose(table(split), state, 0.0, H)
    xb, vb = step(hs, state, H, variant)
    assert np.array_equal(xa, xb) and np.array_equal(va, vb)


def test_strang_is_second_order_with_exact_subflows():
    # drift and kick do not commute, yet their Euler advances are the exact
    # sub-flows, so the palindromic composition gains an order
    split = _drift_kick_split()
    step = lambda st, h: compose(strang(split), st, 0.0, h)
    ratio = _oscillator_error(step, 0.01) / _oscillator_error(step, 0.005)
    assert 3.6 < ratio < 4.4


def test_strang_is_second_order_on_a_time_dependent_split():
    # x' = v, v' = -(3/t) v on [1, 2], split into its exact damping and drift
    # flows: the closing damping half-step must start at t_n + h/2
    damping = lambda t, x, v, tau: (x, v * (t / (t + tau)) ** 3)
    drift = lambda t, x, v, tau: (x + tau * v, v)
    split = (damping, drift)

    def err(n):
        h = 1.0 / n
        x, v = np.array([0.0]), np.array([1.0])
        for k in range(n):
            x, v = compose(strang(split), (x, v), 1.0 + k * h, h)
        # the exact solution from (0, 1) at t = 1: v = t^-3, x = (1 - t^-2)/2
        return abs(float(x[0]) - 0.375) + abs(float(v[0]) - 0.125)

    errs = np.array([err(n) for n in (10, 20, 40, 80)])
    orders = np.log2(errs[:-1] / errs[1:])
    assert np.all(orders >= 1.8), orders


def test_lie_trotter_is_first_order_on_noncommuting_pair():
    split = _drift_kick_split()
    step = lambda st, h: compose(lie_trotter(split), st, 0.0, h)
    ratio = _oscillator_error(step, 0.01) / _oscillator_error(step, 0.005)
    assert 1.8 < ratio < 2.2


def test_lie_trotter_on_commuting_fields_is_plain_euler():
    # decoupled decays commute; the composite is Euler on the sum, order 1
    split = (
        euler_advance(lambda t, x, v: (-x, np.zeros_like(v))),
        euler_advance(lambda t, x, v: (np.zeros_like(x), -2.0 * v)),
    )
    state = (np.array([1.0]), np.array([1.0]))

    def err(h):
        x, v = _march(lambda st, hh: compose(lie_trotter(split), st, 0.0, hh),
                      state, h, 1.0)
        return abs(float(x[0]) - np.exp(-1.0)) + abs(float(v[0]) - np.exp(-2.0))

    ratio = err(0.01) / err(0.005)
    assert 1.8 < ratio < 2.2


def test_strang_single_flow_takes_one_full_step():
    flow = euler_advance(lambda t, x, v: (-x, np.zeros_like(v)))
    state = (np.array([2.0]), np.array([0.0]))
    xs, vs = compose(strang((flow,)), state, 0.0, H)
    xe, ve = flow(0.0, state[0], state[1], H)
    assert np.array_equal(xs, xe) and np.array_equal(vs, ve)


def test_compose_rejects_an_empty_split():
    for table in (lie_trotter, strang):
        for split in ((), []):
            with pytest.raises(ValueError, match="at least one advance map"):
                compose(table(split), START, 0.0, H)


def test_compose_rejects_nonpositive_step():
    split = _drift_kick_split()
    state = START
    with pytest.raises(ValueError):
        compose(lie_trotter(split), state, 0.0, 0.0)
    with pytest.raises(ValueError):
        compose(strang(split), state, 0.0, -0.1)


def test_hamiltonian_system_contracts():
    dx, dv = _oscillator().field(0.0, np.array([1.0]), np.array([2.0]))
    assert float(dx[0]) == 2.0
    assert float(dv[0]) == -1.0


def test_unknown_variants_rejected():
    hs = _oscillator()
    with pytest.raises(ValueError):
        symplectic_euler(hs, START, H, "se3")
    with pytest.raises(ValueError):
        stormer_verlet(hs, START, H, "leapfrog")


def test_forward_euler_steps_the_field_and_grows_energy():
    plain = _oscillator()
    x, v = forward_euler_hamiltonian(plain, (np.array([1.0]), np.array([2.0])), H)
    assert float(x[0]) == 1.0 + H * 2.0
    assert float(v[0]) == 2.0 + H * -1.0

    x, v = START
    for _ in range(100):
        x, v = forward_euler_hamiltonian(plain, (x, v), H)
    assert plain.energy(x, v) > 2.0 * plain.energy(*START)


def test_free_flight_conserves_velocity_and_energy():
    free = HamiltonianSystem(potential=lambda x: 0.0,
                             grad_potential=lambda x: np.zeros_like(x))
    x, v = np.array([0.0, 1.0]), np.array([0.5, -0.25])
    e0 = free.energy(x, v)
    for _ in range(50):
        x, v = symplectic_euler(free, (x, v), H, "se1")
    assert np.array_equal(v, [0.5, -0.25])
    assert free.energy(x, v) == e0
    assert np.allclose(x, [0.0 + 5.0 * 0.5, 1.0 - 5.0 * 0.25], atol=1e-13)


def test_rk4_is_fourth_order():
    field = lambda t, x, v: (v, -x)

    def err(h):
        x, v = START
        for _ in range(int(round(1.0 / h))):
            x, v = rk4_step(field, 0.0, x, v, h)
        return abs(float(x[0]) - np.cos(1.0)) + abs(float(v[0]) + np.sin(1.0))

    ratio = err(0.05) / err(0.025)
    assert 14.0 < ratio < 18.0


def test_euler_advance_shape():
    adv = euler_advance(lambda t, x, v: (v, -x))
    x, v = adv(0.0, np.array([1.0]), np.array([0.0]), H)
    assert float(x[0]) == 1.0 and float(v[0]) == -0.1
