"""Discrete inertial gradient algorithms as one lane-batched engine.

Every method is the four-coefficient step `coefficient_step` driven by a
coefficient map n -> (alpha_n, lambda_n, omega_n, gamma_n), with
a_n = (n - alpha)/n, h = sqrt(s) and theta_n = 1/max(n, 1). `_METHODS` has
one row per method: the body that gives its coefficients, the parameters
it takes and the point of its gradient step, x_n or the inertial point y_n.
Its map binds the body to the parameters' values as a
`schedules.CoefficientMap`, as a schedule family's does:

    method        coefficients                            takes            step
    agm2, nag     (a_n, 0, 0, 0)                          alpha            y_n
    lt_se1        (a_n, 0, s a_n, s)                      alpha            y_n
    lt_sv2        (a_n, 0, s a_n / 2, s / 2)              alpha            y_n
    ardm          (a_n, 0, s (1 + a_n), 0)                alpha            y_n
    lt_se3        (a_n, 0, s a_n theta_{n-1}, s theta_n)  alpha            y_n
    igahd         (a_n, beta h, beta h / n, 0)            alpha, beta      y_n
    polyak_igahd  (a_n, beta h, beta h / n, 0)            alpha, beta      x_n
    pim           (1 - h gamma, 0, 0, 0)                  gamma            x_n
    lt_s_igahd    those of its Schedule                   alpha, schedule  y_n

`nag` is agm2 under its classical name and steps agm2's bits. Its velocity
form, a third route to the same recursion, is the construction
`constructions.nesterov_velocity_form`, which `verify` holds to agm2.
ardm's omega_n = s (1 + a_n) tends to 2 s, so a step takes three gradient
steps of size s where agm2 takes one, and on the clock t = n h its
continuous limit is x'' + (alpha/t) x' + 3 grad f(x) = 0, not agm2's
x'' + (alpha/t) x' + grad f(x) = 0: on f2 from (1, -2) at alpha = 3, its sup gap to that
flow over t in [1, 8] falls at observed order 1.00 as h halves from 0.1 to
0.0125.
Every stepper is a function (state, objective) -> state over a shared
IterState carrying the two most recent iterates with their cached
gradients and values. All methods share the same bootstrap:
x1 = x0 - s*grad(x0), and the main recursion runs from n = 1.
Iterations are counted from n = 0, so a trajectory that stops at index M
holds M + 1 points.

Lanes: `run_methods`, the one runner of every command (`run`, `table`,
`sweep`) and of `verify`, runs cells (method, s, keywords) from one start
point, and hands each cell its own result back in order. The cells whose
methods take their gradient step at the same point (x_n or y_n) run as the
lanes of one batch, stepped together over (B, dim) arrays in one Python
loop, each with its own stepsize and coefficient map (for lt_s_igahd, its
own Schedule). The batch's `Stepper` does not call the maps at every step:
it tabulates the running lanes' coefficients over chunks of indices from
the maps' vector form, with one call of each coefficient body (a method's
or a schedule family's) for all the lanes of that body.
Each lane stops on its own, and a lane that stops leaves the batch: the
engine records its result at once and drops it from the (B, dim) state, so
the loop steps, evaluates and tabulates only the lanes still running. The
engine alone decides which lanes run, and tells a `Stepper` so at each
departure. It tiles the one start point over a batch's lanes, while a
group's lone cell steps the point of shape (dim,) with the lane axis
dropped, as `run` does, and a one-lane Stepper hands `coefficient_step`
its coefficients as floats, so one trajectory keeps the arithmetic of a
loop written for one point. The
objectives evaluate over the last axis, so each lane's iterates are bitwise
those of its own `run` on f1 and f2, and a lone cell's on every objective;
on a quadratic, B > 1 lanes share one matrix product, whose summation order
may differ from the one-lane product in the last bits. `make_stepper` and
`run` are the one-stepper API: a method bound by hand at one stepsize,
driven from one point.

Recording: a recorded run writes each field (x_n and f_n) into one
float64 buffer, whose row n holds index n of every lane still running; a
lane that leaves writes no further row, and its trajectory is its column up
to its last index. A run whose only stop is
max_iter takes its max_iter + 1 rows at once; a max_iter that no buffer can
hold raises ValueError before the first step. Under a tolerance stop the
buffer starts at `_CHUNK` rows and doubles when full, never past
max_iter + 1; growing copies only the filled rows. A one-lane trajectory's
arrays are views of the filled rows, and the buffer's extra rows are never
written and hold no memory; the lanes of a batch get copies of their own
columns. No gradient is recorded: `Trajectory.grads` derives them from x_n
when first read.

Checks: `run` and `run_methods` check the start point once
(`Objective.start_point`), and `init_state` takes x_0 and x_1 from the
checked `Objective.eval_grad`, which refuses a gradient that is not a
float array of the point's shape. The steps then call the objective's own
`value_and_gradient` (or `value` and `gradient`) and `gradient` on the
points they make, with the bits the checked calls give.

Gradient economy: the cache makes grad(x_n) and grad(x_{n-1}) free inside a
step. Every step takes f(x_{n+1}) and grad(x_{n+1}) together from one
evaluation (the value feeds the stopping rule, the gradient seeds the next
step's cache), as the bootstrap does for x_0 and x_1; the methods that step
from y_n spend one further gradient on y_n, and the methods whose gradient
step is taken at x_n spend nothing more. So a run to index M makes M + 1
value-and-gradient evaluations, plus M - 1 gradients at the y_n; a
trajectory whose `grads` are read spends M + 1 gradients more, once. An
objective with a fused `value_and_gradient` (the quadratic) shares the
product A x between the value and the gradient at x_{n+1}; any other pays
one `value` and one `gradient` for each.

An objective that declares `affine_gradient` (the quadratic) also gives
grad(y_n) as a combination of the cached grad(x_n) and grad(x_{n-1})
whenever lambda_n = omega_n = 0, with no new evaluation. On it a step costs
one product A x, counting the fused value and gradient as one, and a
second for grad(y_n) at each n where the step is at y_n and lambda_n or
omega_n is not 0: never for agm2, nag, pim and polyak_igahd, and for
lt_se1, lt_sv2 and lt_se3 at every n but n = alpha, where a_n = 0.
"""

from __future__ import annotations

import numbers
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from . import schedules
from .objectives import Objective
from .schedules import Schedule

Array = np.ndarray

# Indices a Stepper tabulates per call of its coefficient maps: a
# tabulation from index n covers min(_CHUNK, _FIRST_CHUNK + n - 1) of them,
# so a run's chunks, from n = 1, double from _FIRST_CHUNK to _CHUNK. A
# chunk costs one `schedules.coeffs_of` call: one broadcast call of each
# coefficient body (a method's or a schedule family's) among the running
# lanes, over a (lanes, chunk) grid, and one call of every other running
# lane's map (a custom or a wrapped one). Its table holds
# chunk x 4 x running lanes floats. `table --infer-s` scans the stepsizes of
# all the rows on one objective as one batch of 840 lanes, which run about
# 34 steps on average. Against 60-lane batches with chunks of 128, its
# peak resident set (Linux, glibc) rose by about 4 MB when the first chunk
# was 128 too, and by about 1.2 MB with a first chunk of 16; 8 saved some
# 0.2 MB more but was no faster.
_CHUNK = 128
_FIRST_CHUNK = 16


@dataclass(frozen=True)
class IterState:
    """Rolling two-point state of a run: x_{n-1}, x_n with their gradients
    and values. The points are one point of shape (dim,) or B lanes of
    shape (B, dim), and the values a float or B values; `run` steps one
    point, and `run_methods` lanes. A stepper must fill f_curr: the engine
    records it as the value of the new iterate."""

    n: int
    x_prev: Array
    x_curr: Array
    grad_prev: Array
    grad_curr: Array
    f_prev: Optional[float] = None
    f_curr: Optional[float] = None


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
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")


def init_state(obj: Objective, x0, s) -> IterState:
    """Bootstrap: one explicit gradient step produces x1. x0 is one point or
    a (B, dim) stack of lanes, with s one stepsize or a (B, 1) column. x0,
    f(x0) and grad f(x0) must be finite; x1 and its value need not be."""
    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        f0, g0 = obj.eval_grad(x0)
        bad = ~(np.isfinite(f0) & np.isfinite(g0).all(axis=-1))
        if _any(bad):
            at = np.reshape(x0, (-1, x0.shape[-1]))[np.flatnonzero(bad)[0]]
            raise ValueError(f"f or its gradient is not finite at x0 = {at.tolist()}")
        x1 = x0 - s * g0
        f1, g1 = obj.eval_grad(x1)
    return IterState(1, x0, x1, g0, g1, f0, f1)


def default_theta(n):
    """1/n extended to the bootstrap index: theta(0) = theta(1) = 1; n may
    be an array."""
    return 1.0 / np.maximum(n, 1)


def coefficient_step(state: IterState, obj: Objective, s, coeffs,
                     grad_at_x: bool = False) -> IterState:
    """The four-coefficient step with (alpha_n, lambda_n, omega_n, gamma_n) =
    coeffs, their values at state.n (numbers, or (B, 1) columns for B lanes,
    as s is):

    y_n     = x_n + alpha_n (x_n - x_{n-1}) - lambda_n [grad(x_n) - grad(x_{n-1})]
              - omega_n grad(x_n)
    x_{n+1} = y_n - s grad(y_n) + gamma_n grad(x_n)

    With grad_at_x the gradient step is taken at x_n instead. When the
    objective declares an affine gradient and lambda_n and omega_n are zero
    (in every lane), y_n - x_n = alpha_n (x_n - x_{n-1}), so grad(y_n) is
    taken as grad(x_n) + alpha_n [grad(x_n) - grad(x_{n-1})] from the
    cached gradients, with no new evaluation.

    The step calls the objective's own `gradient` and `value_and_gradient`
    (or `value` and `gradient`) on the points it makes: `init_state`
    checked the start.
    """
    a_n, lam, om, gam = coeffs
    y = (state.x_curr + a_n * (state.x_curr - state.x_prev)
         - lam * (state.grad_curr - state.grad_prev) - om * state.grad_curr)
    if obj.affine_gradient and not grad_at_x and not _any(lam) and not _any(om):
        g = state.grad_curr
        x_next = y - s * (g + a_n * (g - state.grad_prev)) + gam * g
    else:
        x_next = (y - s * (state.grad_curr if grad_at_x else obj.gradient(y))
                  + gam * state.grad_curr)
    if obj.value_and_gradient is None:
        f_next, g_next = obj.value(x_next), obj.gradient(x_next)
    else:
        f_next, g_next = obj.value_and_gradient(x_next)
    return IterState(state.n + 1, state.x_curr, x_next, state.grad_curr, g_next,
                     state.f_curr, f_next)


# The method table of the module docstring, one row per name in the order of
# `ALGORITHM_NAMES`: (body, the `coefficient_map` keywords the method takes,
# gradient step at x_n). A body gives the coefficients at n from s and the
# values of those keywords, as numbers or (lanes, 1) columns. nag's and
# polyak_igahd's rows hold agm2's and igahd's body objects, so
# `schedules.coeffs_of` evaluates each pair in one call.
_Method = namedtuple("_Method", "body takes at_x", defaults=(False,))
_AGM2 = _Method(lambda n, s, alpha: ((n - alpha) / n, 0.0, 0.0, 0.0), ("alpha",))
_IGAHD = _Method(lambda n, s, alpha, beta: ((n - alpha) / n, beta * np.sqrt(s),
                                            beta * np.sqrt(s) / n, 0.0), ("alpha", "beta"))
_METHODS = {
    "agm2": _AGM2,
    "lt_s_igahd": _Method(None, ("alpha", "schedule")),
    "lt_se1": _Method(lambda n, s, alpha: (a := (n - alpha) / n, 0.0, s * a, s), ("alpha",)),
    "lt_sv2": _Method(lambda n, s, alpha: (a := (n - alpha) / n, 0.0, 0.5 * s * a, 0.5 * s),
                      ("alpha",)),
    "ardm": _Method(lambda n, s, alpha: (a := (n - alpha) / n, 0.0, s * (1.0 + a), 0.0),
                    ("alpha",)),
    "lt_se3": _Method(lambda n, s, alpha: (a := (n - alpha) / n, 0.0,
                                           s * a * default_theta(n - 1), s * default_theta(n)),
                      ("alpha",)),
    "pim": _Method(lambda n, s, gamma: (1.0 - np.sqrt(s) * gamma, 0.0, 0.0, 0.0), ("gamma",),
                   at_x=True),
    "polyak_igahd": _IGAHD._replace(at_x=True),
    "igahd": _IGAHD,
    "nag": _AGM2,
}
ALGORITHM_NAMES = tuple(_METHODS)


def _method(name: str):
    """The row of `_METHODS` of a method name, in any case."""
    if name.lower() not in _METHODS:
        raise ValueError(f"unknown algorithm {name!r}")
    return _METHODS[name.lower()]


class Stepper:
    """A method bound to its parameters for B lanes: stepper(state, obj)
    advances every lane of `state` by one `coefficient_step`, with the
    gradient step at x_n when `at_x` is set and at y_n otherwise. Lane i steps
    with s[i] and with the coefficients of maps[i], a map from an array of
    indices n to coefficient arrays; they are tabulated over chunks of
    indices by `schedules.coeffs_of` (see `_CHUNK`) rather than taken from
    the maps at every step.
    The step gets them as (B, 1) columns, or for one lane as floats, which
    serve a (dim,) state as well as a (1, dim) one; so does `s`, the
    running lanes' stepsizes.
    A Stepper serves one run of all its lanes, and the engine tells it of
    each departure by `keep`: until the next table the stepper reads the
    columns of the running lanes, and the next table holds columns for
    them alone. A one-lane Stepper, which no departure leaves running, is
    never told, so it may serve many runs and be wrapped by a function."""

    def __init__(self, maps: Sequence[Callable], s, at_x: bool = False):
        self._at_x = at_x
        self._maps = tuple(maps)
        s = np.asarray(s, dtype=float)
        self.s = s.item() if s.size == 1 else s[:, None]
        self._lanes = None      # the running lanes, as indices of the run's; None: all
        self._at = None         # their columns in the table; None: every column
        self._lo, self._rows = 0, []  # row j holds the coefficients at n = lo + j

    def keep(self, positions: Array) -> None:
        """Step only the running lanes at `positions` from now on."""
        self.s = self.s[positions]
        self._lanes = positions if self._lanes is None else self._lanes[positions]
        self._at = positions if self._at is None else self._at[positions]

    def _tabulate(self, n: int) -> None:
        """Fill the table from index n with a column for each running lane."""
        self._rows = []  # let the old table go before the new one is built
        ns = np.arange(n, n + min(_CHUNK, _FIRST_CHUNK + max(n - 1, 0)), dtype=float)
        maps = self._maps if self._lanes is None else [self._maps[i] for i in self._lanes.tolist()]
        table = schedules.coeffs_of(maps, ns)  # (chunk, k, columns)
        self._rows = table[..., 0].tolist() if len(self._maps) == 1 else table[..., None]
        self._lo, self._at = n, None

    def __call__(self, state: IterState, obj: Objective) -> IterState:
        row = state.n - self._lo
        if not 0 <= row < len(self._rows):
            self._tabulate(state.n)
            row = 0
        coeffs = self._rows[row]
        if self._at is not None:
            coeffs = coeffs.take(self._at, axis=1)
        return coefficient_step(state, obj, self.s, coeffs, self._at_x)


@dataclass
class Trajectory:
    """Recorded run: iterates x_0..x_M with their values. Gradients and
    velocities are derived on demand. The arrays of a one-lane run are views
    of the engine's row buffers: a run that reaches max_iter views a buffer
    of exactly its length, and any other may view a longer one, whose extra
    rows are never written."""

    obj: Objective
    xs: Array            # (M+1, dim)
    fs: Array            # (M+1,)
    ys = None   # read by perfbench's tracer alone; ROADMAP item 1 removes the read and it

    @cached_property
    def grads(self) -> Array:
        """(M+1, dim): grad f(x_n) at every iterate, derived on first read."""
        return self.grads_at(range(len(self.xs)))

    def grads_at(self, ns) -> Array:
        """grad f(x_n) for each index n of `ns`: rows of `grads` once read,
        else taken one point at a time, which for a one-lane run is bitwise
        the gradient the engine cached at x_n."""
        if "grads" in self.__dict__:
            return self.grads[ns]
        rows = [self.obj.grad(self.xs[n]) for n in ns]
        return np.array(rows).reshape(len(rows), self.xs.shape[1])

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


def _stop_error(rule: StoppingRule, state: IterState, f_star: Optional[float]):
    """Each lane's error under the stopping rule; for max_iter, the gap to
    f_star when it is known."""
    if rule.kind == "consecutive_f":
        return abs(state.f_curr - state.f_prev)
    if f_star is None:
        return np.full(np.shape(state.f_curr), np.nan)
    return state.f_curr - f_star


# A lane mask or coefficient is an array over lanes, or for one lane without
# its lane axis a bool or a float; these two skip the slower array
# reductions in the second case.
def _any(mask) -> bool:
    return np.count_nonzero(mask) > 0 if isinstance(mask, np.ndarray) else bool(mask)


def _all(mask) -> bool:
    return np.count_nonzero(mask) == mask.size if isinstance(mask, np.ndarray) else bool(mask)


def _take(state: IterState, keep: Array) -> IterState:
    """The lanes `keep` of a (B, dim) state."""
    return IterState(state.n, state.x_prev[keep], state.x_curr[keep], state.grad_prev[keep],
                     state.grad_curr[keep], state.f_prev[keep], state.f_curr[keep])


def _drive(stepper, obj: Objective, x0: Array, s, stopping: StoppingRule, max_iter: int,
           record: bool):
    """The engine behind `run` and `run_methods`: it steps one lane per
    stepsize in `s` from the one start point x0, of shape (dim,), tiled to
    (B, dim) for B > 1 lanes; one lane steps x0 itself, which keeps the
    objective calls and the arithmetic of a single point. A lane that stops
    gets its RunResult then and leaves the batch, so the loop steps only the
    lanes still running, and the stepper is told which by `keep`. A recorded
    run writes row n of every running lane at index n, and each lane's
    trajectory is its column of the rows up to its last index."""
    check_max_iter(max_iter)
    f_star = obj.f_min
    if stopping.kind == "known_min_f" and f_star is None:
        raise ValueError("known_min_f stopping needs an objective with known minimum")
    s = np.asarray(s, dtype=float)
    lanes = s.size
    one = lanes == 1
    state = init_state(obj, x0 if one else np.tile(x0, (lanes, 1)),
                       s.item() if one else s[:, None])
    # what a lane whose x1 is not finite keeps: x0, with no value before it
    prev = IterState(0, state.x_prev, state.x_prev, state.grad_prev, state.grad_prev,
                     np.full(np.shape(state.f_prev), np.nan), state.f_prev)
    idx = np.arange(lanes)  # the run's index of each lane still in the batch
    cols = slice(None)      # their columns in the record: every one until a lane leaves
    results = [None] * lanes
    # the (rows, lanes) + shape buffer of each recorded field (x_n and f_n),
    # sized as the module docstring's Recording says; they grow one field at
    # a time, so that each old buffer goes before the next one grows
    shapes = [(x0.shape[-1],), ()] if record else []
    tolerance = stopping.kind != "max_iter"
    most = max_iter + 1
    bufs = []

    def push(st: IterState) -> None:
        n = st.n
        if not bufs:
            first = min(_CHUNK, most) if tolerance else most
            try:
                bufs.extend(np.empty((first, lanes) + shape) for shape in shapes)
            except (MemoryError, ValueError):   # numpy: too many bytes to address
                raise ValueError(f"max_iter = {max_iter} asks for a record of {first} rows, "
                                 f"which cannot be allocated") from None
        elif n == len(bufs[0]):
            for k, old in enumerate(bufs):
                bufs[k] = np.empty((min(2 * n, most),) + old.shape[1:])
                bufs[k][:n] = old
        for buf, r in zip(bufs, (st.x_curr, st.f_curr)):
            buf[n, cols] = r

    def leave(mask, reason: str, kept: IterState) -> int:
        """Stop the lanes in `mask` with the state `kept`, which holds the
        same lanes as the batch, and drop them from the batch; returns how
        many lanes still run."""
        nonlocal state, idx, cols
        errors = np.reshape(_stop_error(stopping, kept, f_star), idx.size)
        for j in np.flatnonzero(mask):
            results[idx[j]] = RunResult(reason, kept.n, float(errors[j]))
        keep = np.flatnonzero(np.logical_not(mask))
        if keep.size:
            idx = cols = idx[keep]
            state = _take(state, keep)
            stepper.keep(keep)
        return keep.size

    if record:
        push(prev)  # x0's row
    # a diverging lane overflows on its way out; its non-finite state is the signal
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if not (_all(np.isfinite(state.f_curr)) and _all(np.isfinite(state.x_curr))):
                finite = np.isfinite(state.f_curr) & np.isfinite(state.x_curr).all(axis=-1)
                if not leave(~finite, "diverged", prev):
                    break
            if record:
                push(state)
            if tolerance and (stopping.n_threshold is None or state.n > stopping.n_threshold):
                met = _stop_error(stopping, state, f_star) <= stopping.epsilon
                if _any(met) and not leave(met, "tolerance_met", state):
                    break
            if state.n >= max_iter:
                leave(np.ones(idx.size, dtype=bool), "max_iter", state)
                break
            prev, state = state, stepper(state, obj)

    if not record:
        return None, results
    # a lane's column is contiguous, and so a view, when the batch has one lane
    trajs = [Trajectory(obj, *(np.ascontiguousarray(buf[:res.n_final + 1, i]) for buf in bufs))
             for i, res in enumerate(results)]
    return trajs, results


def run(stepper: Callable[[IterState, Objective], IterState], obj: Objective, x0,
        s: float, stopping: StoppingRule, max_iter: int = 50000):
    """Drive a stepper from the common bootstrap until the stopping rule
    fires, max_iter is reached, or an iterate goes non-finite (divergence:
    the trajectory keeps the last finite state). s must be the stepsize a
    `Stepper` was made with, and f and its gradient must be finite at x0.
    This is the one-lane path of `run_methods`' engine, on a start point of
    shape (dim,), which `Objective.start_point` checks; one lane has no
    departure to tell, so any function (state, obj) -> state may step it.

    Returns (Trajectory, RunResult).
    """
    x0 = obj.start_point(x0)
    if isinstance(stepper, Stepper) and (own := np.ravel(stepper.s).tolist()) != [s]:
        raise ValueError(f"stepsizes {[float(s)]} disagree with the {own} "
                         f"the stepper was made with")
    trajs, results = _drive(stepper, obj, x0, [s], stopping, max_iter, True)
    return trajs[0], results[0]


def coefficient_map(name: str, s: float, alpha: float = 3.0,
                    schedule: Optional[Schedule] = None, beta: float = 1.0,
                    gamma: float = 1.0) -> Callable:
    """The map n -> (alpha_n, lambda_n, omega_n, gamma_n) of a named method:
    the `CoefficientMap` of its row of `_METHODS`, or lt_s_igahd's
    `schedule`'s, whose s must equal `s` to 8 eps relative and alpha equal
    `alpha`. A number n gives floats, an array of n arrays, bitwise equal to
    the numbers n by n. The constructions' rules hold: alpha > 1 for every
    method that takes alpha (`check_alpha`), beta and gamma finite and
    nonnegative whichever method is named, and s > 0."""
    name = name.lower()
    row = _method(name)
    check_alpha(name, alpha)
    schedules.check_beta(beta)
    schedules.check_gamma(gamma)
    if row.body is None:
        if schedule is None:
            raise ValueError(f"{name} needs a schedule")
        schedule.check_matches(s, alpha)   # first, to name a stepsize it was not made with
        coeffs = schedule.coeffs_at
    else:
        given = {"alpha": alpha, "beta": beta, "gamma": gamma}
        coeffs = schedules.CoefficientMap(row.body, (s, *[given[k] for k in row.takes]))
    schedules.check_step(s)
    return coeffs


def make_stepper(name: str, s: float, alpha: float = 3.0, schedule: Optional[Schedule] = None,
                 beta: float = 1.0, gamma: float = 1.0) -> Stepper:
    """Bind a named algorithm to its parameters at one stepsize s, with
    lt_s_igahd's one `schedule`; the result has the (state, obj) -> state
    shape that `run` expects. Each name steps by its `coefficient_map`,
    which takes the same parameters. A sequence of stepsizes or schedules
    raises ValueError: `run_methods` runs one cell per lane."""
    if np.ndim(s) or isinstance(schedule, (list, tuple)):
        raise ValueError("make_stepper takes one stepsize and one schedule; "
                         "run_methods runs one cell per lane")
    s = float(s)
    return Stepper([coefficient_map(name, s, alpha, schedule, beta, gamma)], [s],
                   _method(name).at_x)


def check_alpha(name: str, alpha: float, label: str = "alpha") -> None:
    """`schedules.check_alpha` for every method that takes alpha (all but
    pim); `label` names alpha in the message."""
    if "alpha" in _method(name).takes:
        schedules.check_alpha(alpha, label, name)


def check_max_iter(max_iter) -> int:
    """max_iter when it is an integer of at least 1, not a bool; ValueError
    naming max_iter otherwise. Every run and every command takes this rule."""
    if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral) or max_iter < 1:
        raise ValueError(f"max_iter must be a positive integer, got {max_iter!r}")
    return max_iter


def check_stepsize(s: float, obj: Objective) -> None:
    """Reject a stepsize outside the open interval (0, 1/L)."""
    lip = obj.lipschitz
    hi = np.inf if lip == 0.0 else 1.0 / lip
    if not 0.0 < s < hi:
        raise ValueError(f"stepsize s must lie strictly inside (0, {hi:g}) "
                         f"for objective {obj.name!r}, got {s}")


def default_stop(obj: Objective) -> str:
    """known_min_f for a unique minimizer of known value, else consecutive_f."""
    if obj.f_min is not None and obj.argmin_kind == "unique":
        return "known_min_f"
    return "consecutive_f"


def run_methods(obj: Objective, cells, x0, stopping: StoppingRule, max_iter: int = 50000,
                record: bool = False):
    """Run each cell (name, s, keywords), a method at stepsize s with its
    `coefficient_map` keywords, from the one start point x0 on `obj`, a
    batched objective. The cells whose methods take their gradient step at
    the same point (their rows' `at_x`) run as the lanes of one batch, and
    a group's lone cell as the one-lane run of the (dim,) point; so each
    cell has the bits of its own `run` on f1 and f2, and a lone cell on
    every objective. A lane stops when the stopping rule fires for it, at
    max_iter, or when its iterate goes non-finite (divergence: it keeps its
    last finite state, x0 when x1 is not finite), and the others run on
    without it. x0 must be a finite point of obj.dim
    (`Objective.start_point`), and a cell whose keywords `coefficient_map`
    rejects raises before any lane runs.

    Returns (trajectories, results): one RunResult per cell, in order, and
    one Trajectory per cell when `record` is set, else None."""
    x0 = obj.start_point(x0)
    if not obj.batched:
        raise ValueError(f"objective {obj.name!r} takes one point at a time; "
                         f"run_methods needs a batched one")
    cells = list(cells)
    maps = [coefficient_map(name, s, **keywords) for name, s, keywords in cells]
    groups = {}
    for i, (name, _, _) in enumerate(cells):
        groups.setdefault(_method(name).at_x, []).append(i)
    trajs, results = [None] * len(cells), [None] * len(cells)
    for at_x, lanes in groups.items():
        ss = [cells[i][1] for i in lanes]
        got, res = _drive(Stepper([maps[i] for i in lanes], ss, at_x), obj, x0, ss,
                          stopping, max_iter, record)
        for j, i in enumerate(lanes):
            results[i] = res[j]
            if record:
                trajs[i] = got[j]
    return (trajs if record else None), results

