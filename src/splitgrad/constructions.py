"""Splitting-derived realizations of the discrete algorithms, plus the
continuous reference systems they discretize.

Each *_construction assembles the underlying continuous system's split,
advances it with the stated one-step maps (explicit Euler on non-potential
parts, a symplectic map on the Hamiltonian part), and returns the x-iterates.
Pointwise agreement with the direct steppers in `algorithms` is the central
anti-drift property of the test suite: the two code paths share no update
formulas, only the common bootstrap x1 = x0 - h^2 grad f(x0).

Conventions: the discretization clock is t_n = n*h. Every construction
runs through one driver, which takes the bootstrap x1, starts from v_1, the
auxiliary velocity that the method computes from x0 and x1 so as to
reproduce the discrete method, and applies composite step n, which maps
(x_n, v_n) to (x_{n+1}, v_{n+1}), for n = 1, ..., n_steps - 1. The nine
constructions share five composite steps: the three-field Lie-Trotter split
(nesterov_lie_trotter), the velocity form (nesterov_velocity_form, the one
construction that is no split: the classical form of the accelerated
method, a third route to agm2's iterates), the friction split (pim), the
Hessian-damped step `_hessian_damped` (igahd, lt_s_igahd, ardm) and the
rescaled step `_rescaled_se1` (lt_se1, lt_sv2, lt_se3). A public
construction adds only its parameter checks and the coefficients of its
step, calls no other public one, and imports no formula from `algorithms`,
not even theta_n.

Checks happen once, at the entry: the driver and the integrators take the
start through `Objective.start_point`, then make the one checked `grad`
call at x0 (and the second-order integrator one `hess_vec`, so an
objective without a Hessian-vector product raises before the first step).
The steps call the objective's own `gradient` and `hessian_vec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .objectives import Objective
from .schedules import Schedule, check_alpha, check_beta, check_gamma, check_step, coeffs_of
from .splitting import (Field, HamiltonianSystem, Phase, compose, euler_advance,
                        lie_trotter, rk4_step, symplectic_euler, stormer_verlet)

Array = np.ndarray


def _iterate(obj: Objective, x0, h: float, n_steps: int,
             start_v: Callable[[Array, Array], Array],
             step: Callable[[int, Array, Array], Phase]) -> Array:
    """The driver of the module docstring: step(n, x_n, v_n) is composite
    step n, start_v(x0, x1) the start velocity. Returns x_0, ...,
    x_{n_steps} stacked, written row by row into one array; a record that
    cannot be allocated raises ValueError. x0 is checked here, once."""
    check_step(h)
    if n_steps < 0:
        raise ValueError(f"n_steps must be nonnegative, got {n_steps}")
    x0 = obj.start_point(x0)
    try:
        xs = np.empty((n_steps + 1,) + x0.shape)
    except (MemoryError, ValueError):   # numpy: too many bytes to address
        raise ValueError(f"n_steps = {n_steps} asks for a record of {n_steps + 1} iterates, "
                         f"which cannot be allocated") from None
    xs[0] = x0
    if n_steps == 0:
        return xs
    x = x0 - (h * h) * obj.grad(x0)
    xs[1] = x
    v = start_v(x0, x)
    for n in range(1, n_steps):
        x, v = step(n, x, v)
        xs[n + 1] = x
    return xs


def _unit_mass_system(obj: Objective, c: float = 1.0) -> HamiltonianSystem:
    """The unit-mass system of the potential U = c f, whose symplectic maps
    step in drift/kick form."""
    if c == 1.0:
        return HamiltonianSystem(obj.value, obj.gradient)
    return HamiltonianSystem(lambda x: c * obj.value(x), lambda x: c * obj.gradient(x))


def nesterov_lie_trotter(obj: Objective, x0, alpha: float, h: float, n_steps: int) -> Array:
    """Sequential splitting of the first-order averaged system

        x' = ((alpha-1)/t)(v - x) - h grad f(x),
        v' = -(t/(alpha-1)) grad f(x)

    into three sub-fields (x-drift, v-kick, gradient flow), each advanced by
    one explicit Euler step at the shared time t_n = n*h. The returned
    x-iterates coincide with the accelerated-gradient stepper at stepsize
    s = h^2.
    """
    check_alpha(alpha, "inertia exponent")
    gradient = obj.gradient
    split = (lambda t, x, vv: (((alpha - 1.0) / t) * (vv - x), np.zeros_like(vv)),   # x-drift
             lambda t, x, vv: (np.zeros_like(x), -(t / (alpha - 1.0)) * gradient(x)),   # v-kick
             lambda t, x, vv: (-h * gradient(x), np.zeros_like(vv)))   # gradient flow
    stages = lie_trotter([euler_advance(field) for field in split])
    return _iterate(obj, x0, h, n_steps, lambda x0, x1: x0.copy(),
                    lambda n, x, v: compose(stages, (x, v), n * h, h))


def nesterov_velocity_form(obj: Objective, x0, alpha: float, h: float,
                           n_steps: int) -> Array:
    """The accelerated method in its velocity form, the discretization of
    the ODE x'' + (alpha/t) x' + grad f(x) = 0 of Su, Boyd and Candes
    (arXiv 1503.01243), on the clock t_n = n*h from v_1 = x_0:

        y_n     = x_n + w_n (v_n - x_n),    w_n = h (alpha-1) / t_n,
        x_{n+1} = y_n - h^2 grad f(y_n),
        v_{n+1} = v_n - c_n grad f(y_n),    c_n = h t_n / (alpha-1).

    As c_n w_n = h^2, v_{n+1} = x_n + (x_{n+1} - x_n) / w_n, so
    y_n - x_n = ((n - alpha)/n)(x_n - x_{n-1}): the x-iterates are the
    accelerated-gradient stepper's at s = h^2, reached by a route that
    shares no step with it or with nesterov_lie_trotter.
    """
    check_alpha(alpha, "inertia exponent")

    def step(n, x, v):
        t_n = n * h
        y = x + (h * (alpha - 1.0) / t_n) * (v - x)
        g = obj.gradient(y)
        return y - (h * h) * g, v - (h * t_n / (alpha - 1.0)) * g

    return _iterate(obj, x0, h, n_steps, lambda x0, x1: x0.copy(), step)


def igahd_construction(obj: Objective, x0, alpha: float, beta: float,
                       h: float, n_steps: int) -> Array:
    """Two-way split of the Hessian-damped inertial system: the
    non-potential part (inertial averaging plus the Hessian-drive terms)
    advanced by explicit Euler, then the kinetic-plus-potential part by the
    kick-then-drift symplectic Euler map. It runs `_hessian_damped` at the
    fixed coefficients (lambda_n, omega_n, gamma_n) = (beta h, beta h / n, 0),
    which match the stepper variant whose vanishing correction uses
    grad f(x_n). beta must be finite and nonnegative."""
    check_alpha(alpha, "inertia exponent")
    check_beta(beta)
    return _hessian_damped(obj, x0, h, n_steps,
                           lambda n: ((n - alpha) / n, beta * h, beta * h / n, 0.0))


def lt_s_igahd_construction(obj: Objective, x0, alpha: float,
                            schedule: Schedule, h: float, n_steps: int) -> Array:
    """The general scheduled form of igahd_construction: the non-potential
    Euler leg carries the per-step coefficients (lambda_n, omega_n, gamma_n)
    sampled from the schedule at t_n, and the potential leg is the same
    kick-then-drift map. Output equals the four-coefficient stepper."""
    check_alpha(alpha, "inertia exponent")
    check_step(h)
    schedule.check_matches(h * h, alpha)
    return _hessian_damped(obj, x0, h, n_steps, schedule.coeffs_at)


def ardm_construction(obj: Objective, x0, alpha: float, h: float, n_steps: int) -> Array:
    """Split of the relaxed dynamical system whose damping acts through an
    extra gradient term: Euler on the non-potential part, kick-then-drift
    on the potential part. It runs `_hessian_damped` with no Hessian drive,
    at (lambda_n, omega_n, gamma_n) = (0, h^2 (1 + a_n), 0). As h -> 0 on
    the clock t = n h the method tracks x'' + (alpha/t) x' + 3 grad f(x) = 0:
    with a_n -> 1 each step takes three gradient steps of size h^2 (observed
    order 1.00 on f2, alpha = 3, t in [1, 8], h from 0.1 to 0.0125)."""
    check_alpha(alpha, "inertia exponent")

    def coeffs(n):
        a_n = (n - alpha) / n
        return a_n, 0.0, h * h * (1.0 + a_n), 0.0

    return _hessian_damped(obj, x0, h, n_steps, coeffs)


# Indices whose coefficients `_hessian_damped` tabulates per call of its map
_CHUNK = 128


def _hessian_damped(obj: Objective, x0, h: float, n_steps: int,
                    coeffs: Callable[[int], tuple]) -> Array:
    """The body of the three constructions above; coeffs(n) gives
    (a_n, lambda_n, omega_n, gamma_n), and an array of n gives their
    arrays (or numbers that hold for every n), bitwise equal to the values
    n by n, as a `Schedule`'s `coeffs_at` does. The step reads them from a
    table of up to `_CHUNK` indices, one call of the map each. The
    Hessian-velocity product is replaced by the consecutive-gradient
    quotient (grad f(x) - grad f(x - h v)) / h, which keeps the whole step
    first order in gradient calls; a step with lambda_n = 0 skips it."""
    hs = _unit_mass_system(obj)
    gradient = obj.gradient
    lo, rows = 1, []   # rows[j] holds the coefficients at n = lo + j

    def step(n, x, v):
        nonlocal lo, rows
        if n - lo >= len(rows):
            lo, rows = n, coeffs_of([coeffs], np.arange(n, min(n + _CHUNK, n_steps),
                                                        dtype=float))[..., 0].tolist()
        a_n, lam, om, gam = rows[n - lo]
        g = gradient(x)
        hess_v = (g - gradient(x - h * v)) / h if lam else 0.0
        y = x + h * a_n * v - h * lam * hess_v - om * g
        v_half = (a_n * v - lam * hess_v - (om / h) * g + (gam / h) * g
                  + h * g - h * gradient(y))
        return symplectic_euler(hs, (x, v_half), h, "se2")

    return _iterate(obj, x0, h, n_steps, lambda x0, x1: (x1 - x0) / h, step)


def pim_construction(obj: Objective, x0, gamma: float, h: float, n_steps: int) -> Array:
    """Momentum as a dissipative/conservative split of the damped
    Hamiltonian flow: Euler on the friction field (0, -gamma v), then
    kick-then-drift symplectic Euler on the conservative field. gamma = 0
    leaves the bare symplectic map; gamma must be finite."""
    check_gamma(gamma)
    hs = _unit_mass_system(obj)
    stages = lie_trotter((euler_advance(lambda t, x, vv: (np.zeros_like(x), -gamma * vv)),
                          lambda t, x, vv, hh: symplectic_euler(hs, (x, vv), hh, "se2")))
    return _iterate(obj, x0, h, n_steps, lambda x0, x1: (x1 - x0) / h,
                    lambda n, x, v: compose(stages, (x, v), n * h, h))


def lt_se1_construction(obj: Objective, x0, alpha: float, h: float, n_steps: int) -> Array:
    """Split with the drift-then-kick symplectic Euler map on the potential
    part. The auxiliary velocity carries a gradient perturbation,
    v_n = (x_n - x_{n-1})/h - h grad f(x_n), maintained exactly by the
    composite step. It runs `_rescaled_se1` at theta identically 1."""
    return _rescaled_se1(obj, x0, alpha, h, n_steps, lambda n: 1.0,
                         symplectic_euler, "se1", 1.0)


def lt_sv2_construction(obj: Objective, x0, alpha: float, h: float, n_steps: int) -> Array:
    """As lt_se1_construction with the potential part advanced by the
    kick-drift-kick second-order map instead; the velocity perturbation is
    halved accordingly, v_n = (x_n - x_{n-1})/h - (h/2) grad f(x_n)."""
    return _rescaled_se1(obj, x0, alpha, h, n_steps, lambda n: 1.0,
                         stormer_verlet, "sv2", 0.5)


def lt_se3_construction(obj: Objective, x0, alpha: float, h: float, n_steps: int) -> Array:
    """Time-rescaled variant of lt_se1_construction: the potential entering
    the symplectic leg at step n is theta_n * f with theta_n = 1/max(n, 1),
    so the gradient perturbation in the velocity decays with theta."""
    return _rescaled_se1(obj, x0, alpha, h, n_steps, lambda n: 1.0 / max(n, 1),
                         symplectic_euler, "se1", 1.0)


def _rescaled_se1(obj: Objective, x0, alpha: float, h: float, n_steps: int,
                  theta: Callable[[int], float], leg: Callable, variant: str,
                  c: float) -> Array:
    """The body of the three constructions above: the symplectic leg
    leg(..., variant) at step n runs on the potential theta_n * f, and
    the start velocity is v_1 = (x_1 - x_0)/h - c h grad f(x_1)."""
    check_alpha(alpha, "inertia exponent")
    gradient = obj.gradient

    def step(n, x, v):
        g = gradient(x)
        a_n = (n - alpha) / n
        th = theta(n)
        v_half = a_n * v - h * gradient(x + h * a_n * v) + h * th * g
        return leg(_unit_mass_system(obj, th), (x, v_half), h, variant)

    return _iterate(obj, x0, h, n_steps,
                    lambda x0, x1: (x1 - x0) / h - c * h * gradient(x1), step)


@dataclass(frozen=True)
class ContinuousTrajectory:
    """Sampled solution of one of the reference systems: ts on a uniform
    grid, xs the primary variable, vs the companion (auxiliary average or
    time derivative, depending on the system)."""

    ts: Array
    xs: Array
    vs: Array


def check_interval(t0: float, t1: float, dt: float) -> None:
    """ValueError unless 0 < t0 < t1 and dt > 0."""
    if not t0 > 0.0:
        raise ValueError(f"initial time must be positive, got {t0}")
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")


def _start_phase(obj: Objective, x0, v0, label: str):
    """The entry of the integrators: x0 and v0 (named `label`) as finite
    points of obj's dimension, and the checked gradient at x0."""
    x0, v0 = obj.start_point(x0), obj.start_point(v0, label)
    obj.grad(x0)
    return x0, v0


def _rk4_trajectory(field: Field, x0: Array, v0: Array, t0: float, t1: float,
                    dt: float) -> ContinuousTrajectory:
    """rk4_step on field from the checked start (x0, v0) at t0 to t1, at dt
    rounded so that the grid hits t1 exactly, each step written into arrays
    of the whole grid. A step count that is not finite, or a grid that
    cannot be allocated, raises ValueError; the grid size is given to three
    digits."""
    check_interval(t0, t1, dt)
    steps = (t1 - t0) / dt
    if not np.isfinite(steps):
        raise ValueError(f"dt = {dt} leaves no finite step count on [{t0}, {t1}]")
    n = max(1, int(round(steps)))
    dt_eff = (t1 - t0) / n
    x, v = x0, v0
    try:
        ts = t0 + dt_eff * np.arange(n + 1)
        xs = np.empty((n + 1,) + x.shape)
        vs = np.empty((n + 1,) + v.shape)
    except (MemoryError, ValueError):   # numpy: too many bytes to address
        raise ValueError(f"dt = {dt} on [{t0}, {t1}] asks for a grid of {n + 1:.3g} points, "
                         f"which cannot be allocated") from None
    xs[0], vs[0] = x, v
    for k in range(n):
        x, v = rk4_step(field, float(ts[k]), x, v, dt_eff)
        xs[k + 1], vs[k + 1] = x, v
    return ContinuousTrajectory(ts=ts, xs=xs, vs=vs)


def integrate_first_order_vd(obj: Objective, x0, v0, alpha: float, beta: float,
                             t0: float, t1: float, dt: float) -> ContinuousTrajectory:
    """Reference integration of the averaged first-order system

        x' = ((alpha-1)/t)(v - x) - beta grad f(x),
        v' = -(t/(alpha-1)) grad f(x)

    with the classical 4-stage one-step method at fixed dt (dt is rounded
    so the grid hits t1 exactly). beta must be finite and nonnegative."""
    check_alpha(alpha, "inertia exponent")
    check_beta(beta)
    x0, v0 = _start_phase(obj, x0, v0, "v0")
    gradient = obj.gradient

    def field(t, xx, vv):
        g = gradient(xx)
        return ((alpha - 1.0) / t) * (vv - xx) - beta * g, -(t / (alpha - 1.0)) * g

    return _rk4_trajectory(field, x0, v0, t0, t1, dt)


def integrate_second_order_hessian_vd(obj: Objective, x0, xdot0, alpha: float,
                                      beta: float, t0: float, t1: float,
                                      dt: float) -> ContinuousTrajectory:
    """Reference integration of the Hessian-damped second-order system

        x'' + (alpha/t) x' + beta hess f(x) x' = -(1 + beta/t) grad f(x)

    as a first-order system in (x, x'). Needs an objective with an exact
    Hessian-vector product. The returned vs field holds x'. beta must be
    finite and nonnegative."""
    check_alpha(alpha, "inertia exponent")
    check_beta(beta)
    x0, xdot0 = _start_phase(obj, x0, xdot0, "xdot0")
    obj.hess_vec(x0, xdot0)
    gradient, hessian_vec = obj.gradient, obj.hessian_vec

    def field(t, xx, ww):
        return ww, (-(alpha / t) * ww - beta * hessian_vec(xx, ww)
                    - (1.0 + beta / t) * gradient(xx))

    return _rk4_trajectory(field, x0, xdot0, t0, t1, dt)


def v_from_x(obj: Objective, x, xdot, t: float, alpha: float, beta: float) -> Array:
    """Change of variables sending a second-order state to the averaged
    auxiliary variable: v = x + (t/(alpha-1))(x' + beta grad f(x))."""
    x = np.asarray(x, dtype=float)
    return x + (t / (alpha - 1.0)) * (np.asarray(xdot, dtype=float) + beta * obj.grad(x))


def xdot_from_v(obj: Objective, x, v, t: float, alpha: float, beta: float) -> Array:
    """Inverse change of variables: x' = ((alpha-1)/t)(v - x) - beta grad f(x)."""
    x = np.asarray(x, dtype=float)
    return ((alpha - 1.0) / t) * (np.asarray(v, dtype=float) - x) - beta * obj.grad(x)
