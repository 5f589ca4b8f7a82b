"""Discrete inertial gradient algorithms as one coefficient-driven step.

Every method except `nag` is the four-coefficient step `coefficient_step`
driven by a per-name coefficient map n -> (alpha_n, lambda_n, omega_n,
gamma_n), with a_n = (n - alpha)/n, h = sqrt(s) and theta_n = 1/max(n, 1):

    agm2          (a_n, 0, 0, 0)
    lt_se1        (a_n, 0, s a_n, s)
    lt_sv2        (a_n, 0, s a_n / 2, s / 2)
    ardm          (a_n, 0, s (1 + a_n), 0)
    lt_se3        (a_n, 0, s a_n theta_{n-1}, s theta_n)
    igahd         (a_n, beta h, beta h / n, 0)
    polyak_igahd  (a_n, beta h, beta h / n, 0), gradient step at x_n
    pim           (1 - h gamma, 0, 0, 0), gradient step at x_n
    lt_s_igahd    the coefficients of a Schedule

`nag` keeps its velocity form. Every stepper is a pure function (state,
objective) -> state over a shared IterState carrying the two most recent
iterates with their cached gradients and values. All methods share the
same bootstrap: x1 = x0 - s*grad(x0), y0 = x0, and the main recursion runs
from n = 1. Iterations are counted from n = 0, so a trajectory that stops
at index M holds M + 1 points.

Gradient economy: the cache makes grad(x_n) and grad(x_{n-1}) free inside a
step. Every step takes f(x_{n+1}) and grad(x_{n+1}) together from one
`Objective.eval_grad` call (the value feeds the stopping rule, the gradient
seeds the next step's cache), as the bootstrap does for x_0 and x_1; the
methods that step from y_n spend one further gradient on y_n, and the
methods whose gradient step is taken at x_n spend nothing more. So a run to
index M makes M + 1 `eval_grad` calls, plus M - 1 gradients at the y_n. An
objective with a fused `value_and_gradient` (the quadratic) shares the
product A x between the value and the gradient at x_{n+1}; any other pays
one value and one gradient for each `eval_grad`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import objectives, schedules
from .objectives import Objective
from .schedules import Schedule, coeffs_agm2

Array = np.ndarray

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class IterState:
    """Rolling two-point state of a run: x_{n-1}, x_n with their gradients
    and values, plus the latest inertial point and, for velocity-form
    methods, the auxiliary velocity. A stepper must fill f_curr: `run`
    records it as the value of the new iterate."""

    n: int
    x_prev: Array
    x_curr: Array
    grad_prev: Array
    grad_curr: Array
    f_prev: Optional[float] = None
    f_curr: Optional[float] = None
    y_last: Optional[Array] = None
    v_aux: Optional[Array] = None


@dataclass(frozen=True)
class StoppingRule:
    """kind is one of "consecutive_f" (|f(x_n) - f(x_{n-1})| <= epsilon),
    "known_min_f" (f(x_n) - f_min <= epsilon), or "max_iter". When
    n_threshold is set, tolerance-based stops additionally require
    n > n_threshold."""

    kind: str = "consecutive_f"
    epsilon: float = 1e-10
    n_threshold: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("consecutive_f", "known_min_f", "max_iter"):
            raise ValueError(f"unknown stopping kind {self.kind!r}")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")


def init_state(obj: Objective, x0, s: float) -> IterState:
    """Bootstrap: one explicit gradient step produces x1."""
    x0 = np.asarray(x0, dtype=float)
    f0, g0 = obj.eval_grad(x0)
    x1 = x0 - s * g0
    f1, g1 = obj.eval_grad(x1)
    return IterState(1, x0, x1, g0, g1, f0, f1, y_last=x0.copy())


def default_theta(n: int) -> float:
    """1/n extended to the bootstrap index: theta(0) = theta(1) = 1."""
    return 1.0 / max(n, 1)


def coefficient_step(state: IterState, obj: Objective, s: float,
                     coeffs: Callable[[int], tuple], grad_at_x: bool = False) -> IterState:
    """The four-coefficient step with (alpha_n, lambda_n, omega_n, gamma_n) =
    coeffs(n):

    y_n     = x_n + alpha_n (x_n - x_{n-1}) - lambda_n [grad(x_n) - grad(x_{n-1})]
              - omega_n grad(x_n)
    x_{n+1} = y_n - s grad(y_n) + gamma_n grad(x_n)

    With grad_at_x the gradient step is taken at x_n instead.
    """
    n = state.n
    a_n, lam, om, gam = coeffs(n)
    y = (state.x_curr + a_n * (state.x_curr - state.x_prev)
         - lam * (state.grad_curr - state.grad_prev) - om * state.grad_curr)
    x_next = y - s * (state.grad_curr if grad_at_x else obj.grad(y)) + gam * state.grad_curr
    f_next, g_next = obj.eval_grad(x_next)
    return IterState(n + 1, state.x_curr, x_next, state.grad_curr, g_next,
                     state.f_curr, f_next, y_last=y)


def _clock_time(n: int, h: float, alpha: float, clock: str) -> float:
    if clock == "standard":
        return n * h
    if clock == "shifted":
        return h * (n + alpha)
    raise ValueError(f"unknown clock {clock!r}; use 'standard' or 'shifted'")


def step_nag_velocity(state: IterState, obj: Objective, s: float, alpha: float = 3.0,
                      clock: str = "standard") -> IterState:
    """Velocity form of the accelerated method on the clock t_n = n*h
    (or h*(n + alpha) with clock="shifted"):

    y_n     = x_n + (h(alpha-1)/t_n)(v_n - x_n)
    x_{n+1} = y_n - s grad(y_n)
    v_{n+1} = v_n - (h t_n/(alpha-1)) grad(y_n)

    When v_aux is unset the velocity is recovered from the position pair,
    v_n = x_{n-1} + (t_{n-1}/(h(alpha-1)))(x_n - x_{n-1}); on the standard
    clock this gives v_1 = x_0.
    """
    h = float(np.sqrt(s))
    n = state.n
    t_n = _clock_time(n, h, alpha, clock)
    if t_n == 0.0:
        raise ValueError(f"clock time vanishes at n = {n}")
    v = state.v_aux
    if v is None:
        t_prev = _clock_time(n - 1, h, alpha, clock)
        v = state.x_prev + (t_prev / (h * (alpha - 1.0))) * (state.x_curr - state.x_prev)
    w = (h * (alpha - 1.0) / t_n) * (v - state.x_curr)
    y = state.x_curr + w
    gy = obj.grad(y)
    x_next = y - s * gy
    v_next = v - (h * t_n / (alpha - 1.0)) * gy
    f_next, g_next = obj.eval_grad(x_next)
    return IterState(n + 1, state.x_curr, x_next, state.grad_curr, g_next,
                     state.f_curr, f_next, y_last=y, v_aux=v_next)


@dataclass
class Trajectory:
    """Recorded run: iterates x_0..x_M with values, gradients and optional
    inertial points. Velocities are derived on demand."""

    obj: Objective
    xs: Array            # (M+1, dim)
    fs: Array            # (M+1,)
    grads: Array         # (M+1, dim)
    ys: Optional[Array] = None

    @property
    def n_final(self) -> int:
        return self.xs.shape[0] - 1

    def grad_norms(self) -> Array:
        return np.linalg.norm(self.grads, axis=1)

    def fgaps(self, f_star: Optional[float] = None) -> Array:
        if f_star is None:
            f_star = self.obj.f_min
        if f_star is None:
            raise ValueError("no reference minimum available for this objective")
        return self.fs - f_star

    def velocities(self, s: float) -> Array:
        """Discrete velocity v_n = (x_n - x_{n-1})/sqrt(s); the n = 0 row
        is zero by convention."""
        h = float(np.sqrt(s))
        v = np.zeros_like(self.xs)
        v[1:] = (self.xs[1:] - self.xs[:-1]) / h
        return v


@dataclass(frozen=True)
class RunResult:
    termination: str              # "tolerance_met" | "max_iter" | "diverged"
    n_final: int
    error_final: float


def _stop_error(rule: StoppingRule, fs, f_star: Optional[float]) -> float:
    if rule.kind == "consecutive_f":
        return abs(fs[-1] - fs[-2])
    if rule.kind == "known_min_f":
        if f_star is None:
            raise ValueError("known_min_f stopping needs an objective with known minimum")
        return fs[-1] - f_star
    return float("nan")


def run(stepper: Callable[[IterState, Objective], IterState], obj: Objective, x0,
        s: float, stopping: StoppingRule, max_iter: int = 50000,
        record_y: bool = False):
    """Drive a stepper from the common bootstrap until the stopping rule
    fires, max_iter is reached, or an iterate goes non-finite (divergence:
    the trajectory keeps the last finite state).

    Returns (Trajectory, RunResult).
    """
    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    f_star = obj.f_min
    state = init_state(obj, x0, s)
    xs = [state.x_prev, state.x_curr]
    fs = [state.f_prev, state.f_curr]
    grads = [state.grad_prev, state.grad_curr]
    ys = [state.x_prev.copy(), state.y_last] if record_y else None

    termination = "max_iter"
    while True:
        if stopping.kind != "max_iter":
            err = _stop_error(stopping, fs, f_star)
            past_threshold = (stopping.n_threshold is None
                              or state.n > stopping.n_threshold)
            if past_threshold and err <= stopping.epsilon:
                termination = "tolerance_met"
                break
        if state.n >= max_iter:
            break
        new_state = stepper(state, obj)
        f_new = new_state.f_curr
        if not (np.all(np.isfinite(new_state.x_curr)) and np.isfinite(f_new)):
            termination = "diverged"
            break
        xs.append(new_state.x_curr)
        fs.append(f_new)
        grads.append(new_state.grad_curr)
        if record_y:
            ys.append(new_state.y_last)
        state = new_state

    traj = Trajectory(obj=obj, xs=np.asarray(xs), fs=np.asarray(fs),
                      grads=np.asarray(grads),
                      ys=np.asarray(ys) if record_y else None)
    error_final = _stop_error(stopping, fs, f_star) if stopping.kind != "max_iter" \
        else float(fs[-1] - f_star) if f_star is not None else float("nan")
    return traj, RunResult(termination=termination, n_final=traj.n_final,
                           error_final=float(error_final))


def coefficient_map(name: str, s: float, alpha: float = 3.0,
                    schedule: Optional[Schedule] = None, beta: float = 1.0,
                    gamma: float = 1.0) -> Callable[[int], tuple]:
    """The map n -> (alpha_n, lambda_n, omega_n, gamma_n) of a named
    four-coefficient method (every algorithm but `nag`). lt_s_igahd takes its
    coefficients from `schedule`, whose s must equal `s` to 8 eps relative
    and whose alpha must equal `alpha`."""
    name = name.lower()
    if name == "nag":
        raise ValueError("nag has no four-coefficient form; it steps in velocity form")
    h = float(np.sqrt(s))
    # the coefficients at n of each method, given a = (n - alpha)/n
    table = {
        "agm2": lambda n, a: coeffs_agm2(n, alpha),
        "lt_se1": lambda n, a: (a, 0.0, s * a, s),
        "lt_sv2": lambda n, a: (a, 0.0, 0.5 * s * a, 0.5 * s),
        "ardm": lambda n, a: (a, 0.0, s * (1.0 + a), 0.0),
        "lt_se3": lambda n, a: (a, 0.0, s * a * default_theta(n - 1), s * default_theta(n)),
        "igahd": lambda n, a: (a, beta * h, beta * h / n, 0.0),
        "pim": lambda n, a: (1.0 - h * gamma, 0.0, 0.0, 0.0),
    }
    table["polyak_igahd"] = table["igahd"]
    if name == "lt_s_igahd":
        if schedule is None:
            raise ValueError("lt_s_igahd needs a schedule")
        if abs(s - schedule.s) > 8.0 * _EPS * abs(schedule.s):
            raise ValueError(f"stepsize {s} disagrees with the schedule's s = {schedule.s}")
        if alpha != schedule.alpha:
            raise ValueError(f"alpha = {alpha} disagrees with the schedule's {schedule.alpha}")
        return schedule.coeffs_at
    if name not in table:
        raise ValueError(f"unknown algorithm {name!r}")
    method = table[name]
    return lambda n: method(n, (n - alpha) / n)


def make_stepper(name: str, s: float, alpha: float = 3.0,
                 schedule: Optional[Schedule] = None, beta: float = 1.0,
                 gamma: float = 1.0,
                 clock: str = "standard") -> Callable[[IterState, Objective], IterState]:
    """Bind a named algorithm to its parameters; the result has the
    (state, obj) -> state shape that `run` expects. `nag` steps in velocity
    form on `clock`; every other name steps by its `coefficient_map`."""
    name = name.lower()
    if name == "nag":
        return lambda st, ob: step_nag_velocity(st, ob, s, alpha, clock)
    coeffs = coefficient_map(name, s, alpha, schedule, beta, gamma)
    grad_at_x = name in ("pim", "polyak_igahd")
    return lambda st, ob: coefficient_step(st, ob, s, coeffs, grad_at_x)


def check_stepsize(s: float, obj: Objective) -> None:
    """Reject a stepsize outside the open interval (0, 1/L)."""
    lip = obj.lipschitz_constant()
    hi = np.inf if lip == 0.0 else 1.0 / lip
    if not 0.0 < s < hi:
        raise ValueError(f"stepsize s must lie strictly inside (0, {hi:g}) "
                         f"for objective {obj.name!r}, got {s}")


def default_stop(obj: Objective) -> str:
    """known_min_f for a unique minimizer of known value, else consecutive_f."""
    if obj.f_min is not None and obj.argmin_kind == "unique":
        return "known_min_f"
    return "consecutive_f"


def run_schedule(objective: str, label: str, params: dict, s: float, alpha: float,
                 x0, epsilon: float, max_iter: int):
    """Run lt_s_igahd on a built-in objective under the named coefficient
    schedule, stopping by the objective's default rule at `epsilon`.
    Returns (objective, schedule, Trajectory, RunResult)."""
    obj = objectives.make_objective(objective)
    check_stepsize(s, obj)
    sched = schedules.make_schedule(label, s=s, alpha=alpha,
                                    lipschitz=obj.lipschitz_constant(), **params)
    stepper = make_stepper("lt_s_igahd", s, alpha=alpha, schedule=sched)
    traj, res = run(stepper, obj, x0, s, StoppingRule(default_stop(obj), epsilon),
                    max_iter=max_iter)
    return obj, sched, traj, res


ALGORITHM_NAMES = ("agm2", "lt_s_igahd", "lt_se1", "lt_sv2", "ardm", "lt_se3",
                   "pim", "polyak_igahd", "igahd", "nag")
