"""Lyapunov energy bookkeeping, rate fitting, and the inequality family
used to certify runs.

The discrete energy attached to a run with inertia exponent alpha and
stepsize s is

    E_n = t_n^2 (f(x_n) - f(x*)) + (1/2s) ||z_n||^2,
    z_n = (x_{n-1} - x*) + t_n (x_n - x_{n-1}) + lambda_n t_{n+1} grad f(x_{n-1}),

on the clock t_{n+1} = n/(alpha-1) (so t_1 = 0 and the first energy value
carries no function-gap weight). Its non-increase beyond the admissibility
threshold is what buys the O(1/n^2) guarantee, and both facts are checked
here numerically rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .algorithms import Trajectory
from .objectives import Objective
from .schedules import Schedule, a_coefficients

Array = np.ndarray

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class EnergySeries:
    """Energy values E_n for n = n_start, n_start+1, ... along one run,
    with the matching clock values and displacement vectors kept for
    inspection. x_star is the reference point the gaps were taken against
    (the exact minimizer, or a terminal-iterate surrogate)."""

    t_seq: Array
    e_seq: Array
    z_seq: Array
    x_star: Array
    n_start: int = 1


def energy(trajectory: Trajectory, n: int, s: float, alpha: float,
           schedule: Optional[Schedule], x_star) -> float:
    """E_n for a single index: `energy_series` over the window [n, n].
    Pass schedule=None for methods without a gradient-correction
    coefficient (lambda_n = 0)."""
    return float(energy_series(trajectory, s, alpha, schedule, x_star, n, n).e_seq[0])


def energy_xm_variant(trajectory: Trajectory, n: int, s: float, alpha: float,
                      schedule: Optional[Schedule]) -> float:
    """Energy against the terminal iterate instead of the true minimizer;
    the right reference when the argmin is non-unique but the run has
    settled."""
    return energy(trajectory, n, s, alpha, schedule, trajectory.xs[-1])


def energy_series(trajectory: Trajectory, s: float, alpha: float,
                  schedule: Optional[Schedule], x_star=None,
                  n_lo: int = 1, n_hi: Optional[int] = None) -> EnergySeries:
    """Vectorized E_n over n = n_lo..n_hi. x_star=None selects the
    terminal-iterate surrogate."""
    if n_hi is None:
        n_hi = trajectory.n_final
    if not (1 <= n_lo <= n_hi <= trajectory.n_final):
        raise ValueError(f"bad energy window [{n_lo}, {n_hi}] for a trajectory "
                         f"ending at {trajectory.n_final}")
    x_star = np.asarray(x_star if x_star is not None else trajectory.xs[-1],
                        dtype=float)
    f_star = trajectory.obj.eval(x_star)
    ns = np.arange(n_lo, n_hi + 1)
    t_n = (ns - 1) / (alpha - 1.0)
    t_next = ns / (alpha - 1.0)
    lam = (np.zeros(len(ns)) if schedule is None
           else np.asarray(schedule.coeffs_at(ns)[1], dtype=float))
    x_prev = trajectory.xs[ns - 1]
    x_curr = trajectory.xs[ns]
    g_prev = trajectory.grads[ns - 1]
    z = ((x_prev - x_star) + t_n[:, None] * (x_curr - x_prev)
         + (lam * t_next)[:, None] * g_prev)
    # row-wise np.dot(z_n, z_n), so every window gives the same bits
    zz = np.matmul(z[:, None, :], z[:, :, None])[:, 0, 0]
    e = t_n ** 2 * (trajectory.fs[ns] - f_star) + zz / (2.0 * s)
    return EnergySeries(t_seq=t_n, e_seq=e, z_seq=z, x_star=x_star, n_start=n_lo)


@dataclass(frozen=True)
class MonotoneReport:
    n_checked: int
    first_violation: Optional[int]   # smallest n with E_{n+1} > E_n + tol
    max_increase: float              # largest E_{n+1} - E_n seen (signed)

    @property
    def ok(self) -> bool:
        return self.first_violation is None


def check_monotone(series: EnergySeries, from_n: int, tol: float) -> MonotoneReport:
    """Scan E_{n+1} <= E_n + tol for n >= from_n over the series."""
    e = series.e_seq
    ns = series.n_start + np.arange(len(e))
    diffs = e[1:] - e[:-1]
    sel = ns[:-1] >= from_n
    if not np.any(sel):
        return MonotoneReport(n_checked=0, first_violation=None, max_increase=float("-inf"))
    bad = sel & (diffs > tol)
    first = int(ns[:-1][bad][0]) if np.any(bad) else None
    return MonotoneReport(n_checked=int(np.sum(sel)), first_violation=first,
                          max_increase=float(np.max(diffs[sel])))


def fit_rate(fgap_series, n_range: Tuple[int, int], f_scale: float = 0.0):
    """Least-squares slope p and constant C of log(fgap) vs log(n) over
    the index window, so fgap ~ C n^p. Non-positive entries and entries
    below the floating-point resolution floor 100 eps |f_scale| are
    dropped before fitting."""
    fg = np.asarray(fgap_series, dtype=float)
    n_lo, n_hi = n_range
    if n_lo < 1:
        raise ValueError(f"rate window must start at n >= 1, got {n_lo}")
    n_hi = min(n_hi, len(fg) - 1)
    if n_hi <= n_lo:
        raise ValueError(f"empty rate window [{n_lo}, {n_hi}]")
    ns = np.arange(n_lo, n_hi + 1)
    vals = fg[ns]
    floor = 100.0 * _EPS * abs(f_scale)
    keep = vals > floor
    if int(np.sum(keep)) < 2:
        raise ValueError("fewer than two resolvable gap values in the window")
    slope, intercept = np.polyfit(np.log(ns[keep]), np.log(vals[keep]), 1)
    return float(slope), float(np.exp(intercept))


def rate_bound_first_violation(fgap_series, e_ref: float, alpha: float,
                               n_from: int) -> Optional[int]:
    """Check the explicit tail bound fgap(n) <= e_ref (alpha-1)^2/(n-1)^2
    for all n >= n_from (n_from > 1); e_ref is the energy at the threshold
    index. Returns the first violating n, or None."""
    if n_from <= 1:
        raise ValueError(f"bound needs n_from > 1, got {n_from}")
    fg = np.asarray(fgap_series, dtype=float)
    ns = np.arange(n_from, len(fg))
    bound = e_ref * (alpha - 1.0) ** 2 / (ns - 1.0) ** 2
    bad = fg[ns] > bound
    return int(ns[bad][0]) if np.any(bad) else None


def check_descent_lemma(obj: Objective, x, y, variant: str, s: Optional[float] = None,
                        gamma: float = 0.0, z=None) -> float:
    """Residual RHS - LHS of the chosen smoothness inequality; the math
    says it is nonnegative, so anything below a few ulps of the involved
    magnitudes is a defect.

    dl:   f(y) <= f(x) + <grad f(x), y-x> + (L/2)||y-x||^2
    edl:  f(y - s grad f(y)) <= f(x) + <grad f(y), y-x>
              - (s/2)||grad f(y)||^2 - (s/2)||grad f(x) - grad f(y)||^2
    eedl: the three-point extension with the extra gamma grad f(z) move,
          expanded through the coefficient family A1..A5 below.

    The eedl statement assumes gamma >= 0; negative gamma is accepted as a
    diagnostic probe and its residual returned without any claim attached.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lip = obj.lipschitz_constant()
    if variant == "dl":
        gx = obj.grad(x)
        rhs = (obj.eval(x) + float(np.dot(gx, y - x))
               + 0.5 * lip * float(np.dot(y - x, y - x)))
        return float(rhs - obj.eval(y))
    if s is None:
        raise ValueError(f"variant {variant!r} needs a stepsize")
    if not (0.0 < s <= 1.0 / lip):
        raise ValueError(f"stepsize must lie in (0, 1/L] = (0, {1.0 / lip}], got {s}")
    gx = obj.grad(x)
    gy = obj.grad(y)
    if variant == "edl":
        lhs = obj.eval(y - s * gy)
        rhs = (obj.eval(x) + float(np.dot(gy, y - x))
               - 0.5 * s * float(np.dot(gy, gy))
               - 0.5 * s * float(np.dot(gx - gy, gx - gy)))
        return float(rhs - lhs)
    if variant == "eedl":
        if z is None:
            raise ValueError("eedl needs the third point z")
        z = np.asarray(z, dtype=float)
        gz = obj.grad(z)
        a1, a2, a3, a4, a5 = a_coefficients(s, lip, gamma)
        lhs = obj.eval(y - s * gy + gamma * gz)
        rhs = (obj.eval(x) + float(np.dot(gy, y - x))
               - a1 * float(np.dot(gy, gy)) - a2 * float(np.dot(gy, gx))
               - a3 * float(np.dot(gy, gz)) - a4 * float(np.dot(gx, gx))
               - a5 * float(np.dot(gz, gz)))
        return float(rhs - lhs)
    raise ValueError(f"unknown descent-lemma variant {variant!r}")


def check_quadratic_lemma(a: float, b: float, c: float, x: float, variant: str) -> bool:
    """Sign lemmas for a quadratic q(x) = a x^2 + b x + c with a > 0.

    l17: discriminant <= 0, so q >= 0 everywhere.
    l18: discriminant >= 0 and x outside the open root interval, so
         q(x) >= 0 there.

    Raises when the hypothesis does not hold; otherwise returns whether
    the evaluated quadratic is nonnegative up to evaluation roundoff.
    """
    if a <= 0.0:
        raise ValueError(f"leading coefficient must be positive, got {a}")
    disc = b * b - 4.0 * a * c
    if variant == "l17":
        if disc > 0.0:
            raise ValueError(f"discriminant {disc} > 0 violates the hypothesis")
    elif variant == "l18":
        if disc < 0.0:
            raise ValueError(f"discriminant {disc} < 0 violates the hypothesis")
        root = float(np.sqrt(disc))
        lo = (-b - root) / (2.0 * a)
        hi = (-b + root) / (2.0 * a)
        if lo < x < hi:
            raise ValueError(f"x = {x} lies inside the root interval ({lo}, {hi})")
    else:
        raise ValueError(f"unknown quadratic-lemma variant {variant!r}")
    value = a * x * x + b * x + c
    scale = abs(a) * x * x + abs(b) * abs(x) + abs(c)
    return bool(value >= -8.0 * _EPS * scale)


def spurious_root_residual(obj: Objective, x, omega: float, s: float,
                           variant: str) -> float:
    """Residual of the fixed-point equation a non-vanishing final
    gradient coefficient would impose on limit points:

    eq1: ||grad f(x) + (s/omega) grad f(x - omega grad f(x))||
    eq2: omega pinned to 2s, so the weight is 1/2
    eq3: omega pinned to s, weight 1

    Zero at every minimizer; a strictly positive value at a non-minimizer
    shows the equation does not create a spurious rest point there.
    """
    x = np.asarray(x, dtype=float)
    g = obj.grad(x)
    if variant == "eq2":
        omega = 2.0 * s
    elif variant == "eq3":
        omega = s
    elif variant != "eq1":
        raise ValueError(f"unknown fixed-point variant {variant!r}")
    if omega == 0.0:
        raise ValueError("eq1 needs a nonzero omega")
    return float(np.linalg.norm(g + (s / omega) * obj.grad(x - omega * g)))
