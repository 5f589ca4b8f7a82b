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
from typing import Callable, Optional, Tuple

import numpy as np

from .algorithms import Trajectory
from .objectives import Objective, _row_dot
from .schedules import a_coefficients, check_alpha

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
           coeffs: Optional[Callable], x_star) -> float:
    """E_n for a single index: `energy_series` over the window [n, n]."""
    return float(energy_series(trajectory, s, alpha, coeffs, x_star, n, n).e_seq[0])


def energy_series(trajectory: Trajectory, s: float, alpha: float,
                  coeffs: Optional[Callable], x_star=None,
                  n_lo: int = 1, n_hi: Optional[int] = None) -> EnergySeries:
    """Vectorized E_n over n = n_lo..n_hi. lambda_n comes from `coeffs`, the
    map n -> (alpha_n, lambda_n, omega_n, gamma_n) the run stepped by, taken
    over an array of n; None stands for lambda_n = 0. x_star=None selects
    the terminal-iterate surrogate. alpha must exceed 1, or the clock
    t_n = (n - 1)/(alpha - 1) would not run forward."""
    check_alpha(alpha, use="the energy")
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
    lam = np.zeros(len(ns)) if coeffs is None else np.asarray(coeffs(ns)[1], dtype=float)
    x_prev = trajectory.xs[ns - 1]
    x_curr = trajectory.xs[ns]
    g_prev = trajectory.grads_at(ns - 1)   # the window's gradients only
    z = ((x_prev - x_star) + t_n[:, None] * (x_curr - x_prev)
         + (lam * t_next)[:, None] * g_prev)
    # row-wise np.dot(z_n, z_n), so every window gives the same bits
    e = t_n ** 2 * (trajectory.fs[ns] - f_star) + _row_dot(z, z) / (2.0 * s)
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


def _first_bad(bad: Array, what: Callable[[tuple], str]) -> None:
    """Raise ValueError when any element of the boolean array `bad` is set,
    with the message what(i) for the first such element i (an index tuple,
    () when `bad` is a scalar), followed by the index for arrays."""
    if np.any(bad):
        i = tuple(int(k) for k in np.argwhere(bad)[0])
        where = f" at index {i[0] if len(i) == 1 else i}" if i else ""
        raise ValueError(what(i) + where)


def _row_param(value, x: Array, label: str) -> Array:
    """A scalar parameter, or one value per row of the stack x, shaped to
    scale the rows of x."""
    value = np.asarray(value, dtype=float)
    if value.ndim == 0:
        return value
    if x.ndim != 2 or value.shape != (x.shape[0],):
        raise ValueError(f"{label} has shape {value.shape}; per-row values need a "
                         f"(B, dim) stack of points and shape (B,)")
    return value[:, None]


def check_descent_lemma(obj: Objective, x, y, variant: str, s=None, gamma=0.0, z=None):
    """Residual RHS - LHS of the chosen smoothness inequality; the math
    says it is nonnegative, so anything below a few ulps of the involved
    magnitudes is a defect.

    dl:   f(y) <= f(x) + <grad f(x), y-x> + (L/2)||y-x||^2
    edl:  f(y - s grad f(y)) <= f(x) + <grad f(y), y-x>
              - (s/2)||grad f(y)||^2 - (s/2)||grad f(x) - grad f(y)||^2
    eedl: the three-point extension with the extra gamma grad f(z) move,
          expanded through the coefficient family A1..A5 below.

    x, y (and z) are one point each, giving a float, or equal-shape (B, dim)
    stacks of points, giving the B residuals row by row through the
    objective's batched evaluation (the objective must be batched). With
    stacks, s and gamma may also be arrays of shape (B,), one value per
    row; 0 < s <= 1/L is required of every row.

    The eedl statement assumes gamma >= 0; negative gamma is accepted as a
    diagnostic probe and its residual returned without any claim attached.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.shape != x.shape:
        raise ValueError(f"x has shape {x.shape} but y has shape {y.shape}")
    lip = obj.lipschitz
    if variant == "dl":
        gx = obj.grad(x)
        rhs = obj.eval(x) + _row_dot(gx, y - x) + 0.5 * lip * _row_dot(y - x, y - x)
        r = rhs - obj.eval(y)
    elif variant in ("edl", "eedl"):
        if s is None:
            raise ValueError(f"variant {variant!r} needs a stepsize")
        s_row = _row_param(s, x, "s")
        s = np.asarray(s, dtype=float)
        _first_bad(~((0.0 < s) & (s <= 1.0 / lip)),
                   lambda i: f"stepsize must lie in (0, 1/L] = (0, {1.0 / lip}], got {s[i]}")
        gx = obj.grad(x)
        gy = obj.grad(y)
        if variant == "edl":
            lhs = obj.eval(y - s_row * gy)
            rhs = (obj.eval(x) + _row_dot(gy, y - x)
                   - 0.5 * s * _row_dot(gy, gy)
                   - 0.5 * s * _row_dot(gx - gy, gx - gy))
        else:
            if z is None:
                raise ValueError("eedl needs the third point z")
            z = np.asarray(z, dtype=float)
            if z.shape != x.shape:
                raise ValueError(f"x has shape {x.shape} but z has shape {z.shape}")
            gz = obj.grad(z)
            a1, a2, a3, a4, a5 = a_coefficients(s, lip, gamma)
            lhs = obj.eval(y - s_row * gy + _row_param(gamma, x, "gamma") * gz)
            rhs = (obj.eval(x) + _row_dot(gy, y - x)
                   - a1 * _row_dot(gy, gy) - a2 * _row_dot(gy, gx)
                   - a3 * _row_dot(gy, gz) - a4 * _row_dot(gx, gx)
                   - a5 * _row_dot(gz, gz))
        r = rhs - lhs
    else:
        raise ValueError(f"unknown descent-lemma variant {variant!r}")
    return float(r) if x.ndim == 1 else r


def check_quadratic_lemma(a, b, c, x, variant: str):
    """Sign lemmas for a quadratic q(x) = a x^2 + b x + c with a > 0.

    l17: discriminant <= 0, so q >= 0 everywhere.
    l18: discriminant >= 0 and x outside the open root interval, so
         q(x) >= 0 there.

    Raises when the hypothesis does not hold; otherwise returns whether
    the evaluated quadratic is nonnegative up to evaluation roundoff.
    a, b, c and x are numbers, giving a bool, or equal-shape arrays, giving
    a boolean array whose elements equal the scalar calls' results; the
    hypothesis must then hold at every element, and the error names the
    first element where it fails.
    """
    a, b, c, x = (np.asarray(v, dtype=float) for v in (a, b, c, x))
    if not a.shape == b.shape == c.shape == x.shape:
        raise ValueError(f"a, b, c and x must have one shape, got "
                         f"{a.shape}, {b.shape}, {c.shape}, {x.shape}")
    _first_bad(a <= 0.0, lambda i: f"leading coefficient must be positive, got {a[i]}")
    disc = b * b - 4.0 * a * c
    if variant == "l17":
        _first_bad(disc > 0.0,
                   lambda i: f"discriminant {disc[i]} > 0 violates the hypothesis")
    elif variant == "l18":
        _first_bad(disc < 0.0,
                   lambda i: f"discriminant {disc[i]} < 0 violates the hypothesis")
        root = np.sqrt(disc)
        lo = (-b - root) / (2.0 * a)
        hi = (-b + root) / (2.0 * a)
        _first_bad((lo < x) & (x < hi), lambda i: f"x = {x[i]} lies inside the root "
                                                  f"interval ({lo[i]}, {hi[i]})")
    else:
        raise ValueError(f"unknown quadratic-lemma variant {variant!r}")
    value = a * x * x + b * x + c
    scale = np.abs(a) * x * x + np.abs(b) * np.abs(x) + np.abs(c)
    ok = value >= -8.0 * _EPS * scale
    return bool(ok) if ok.ndim == 0 else ok


def spurious_root_residual(obj: Objective, x, omega: float, s: float) -> float:
    """Residual ||grad f(x) + (s/omega) grad f(x - omega grad f(x))|| of the
    fixed-point equation a non-vanishing final gradient coefficient would
    impose on limit points; omega = 2s weighs the second gradient by 1/2,
    omega = s by 1.

    Zero at every minimizer; a strictly positive value at a non-minimizer
    shows the equation does not create a spurious rest point there.
    """
    if omega == 0.0:
        raise ValueError("the fixed-point residual needs a nonzero omega")
    x = np.asarray(x, dtype=float)
    g = obj.grad(x)
    return float(np.linalg.norm(g + (s / omega) * obj.grad(x - omega * g)))
