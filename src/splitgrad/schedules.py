"""Per-iteration coefficient schedules for the splitting-based inertial
family, with admissibility checking.

A schedule supplies (alpha_n, lambda_n, omega_n, gamma_n) at each n >= 1 for
the four-coefficient step `algorithms.coefficient_step`. Three worked families
are built in (labels "e24", "e25", "e26"), each satisfying the exact
coupling identity

    gamma_n = (lambda_n + omega_n) - ((n+1)/n) * lambda_{n+1}

by construction (the e25 family at mu = 0 is the Hessian-correction
scheme). `Schedule(label, alpha, s, coeffs)` with any other label takes
any coefficient map.

Index convention: the families are stated through a lambda_{n+1} recurrence
for n >= 1; lambda_n is the same closed form shifted by one, which pins
lambda_1 = 0 for e24/e26 and lambda_1 = beta*sqrt(s) + mu/b for e25.

The thresholds (`n_prime`, `n_prime_reference_variant`, `check_assumptions`)
take a Schedule and a Lipschitz constant, and read the label, parameters, s
and alpha from the schedule: `make_schedule` fills a family's defaults,
and `Schedule` checks a family's parameters however it is built.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import wraps
from typing import Callable, Dict, Sequence

import numpy as np

Array = np.ndarray

_EPS = float(np.finfo(float).eps)


def _with_mu(mu, lam, omega, lam_term, omega_term):
    """(lam, omega) plus their mu terms lam_term() and omega_term() where
    mu > 0; mu is a number or a column of lanes, and np.where drops the
    terms of the lanes at mu = 0, which may divide by zero. A term whose
    denominator overflows (b near the float range) is 0, its limit."""
    on = np.greater(mu, 0.0)
    if not on.any():
        return lam, omega
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(on, lam + lam_term(), lam), np.where(on, omega + omega_term(), omega)


# The family bodies: the coefficients (alpha_n, lambda_n, omega_n, gamma_n)
# at n from parameters that are numbers or (lanes, 1) columns, unchecked
# (`make_schedule` checks them). Each is elementwise in n and the
# parameters, so a lane of a broadcast call has the bits of its own call.

def _shifted(n, s, alpha, b, mu, gamma):
    """The e24/e26 body; the two families differ only in gamma_n."""
    lam, omega = _with_mu(mu, s * (n - 1.0) / n, gamma + s / n,
                          lambda: mu * (n - 1.0) / (n * (n + b - 1.0)),
                          lambda: mu * (1.0 / (n + b) - (n - 1.0) / (n * (n + b - 1.0))))
    return (n - alpha) / n, lam, omega, gamma


def _e24(n, s, alpha, a, b, mu):
    """Family with gamma_n = s*sqrt((alpha-1)/(n+a)) > 0:

    lambda_{n+1} = s*n/(n+1) + mu*n/((n+1)(n+b)) and
    omega_n = gamma_n + s/n + mu*[1/(n+b) - (n-1)/(n(n+b-1))].
    """
    return _shifted(n, s, alpha, b, mu, s * np.sqrt((alpha - 1.0) / (n + a)))


def _e25(n, s, alpha, beta, b, mu):
    """Family with gamma_n = 0, for 0 < beta < 2*sqrt(s) and b > 0:

    lambda_{n+1} = beta*sqrt(s) + mu/(n+b) and
    omega_n = beta*sqrt(s)/n + mu*[(n+1)/(n(n+b)) - 1/(n+b-1)].
    At mu = 0 this is exactly the Hessian-correction scheme with a constant
    lambda_n = beta*sqrt(s).
    """
    root_s = np.sqrt(s)
    lam, omega = _with_mu(mu, beta * root_s, beta * root_s / n,
                          lambda: mu / (n + b - 1.0),
                          lambda: mu * ((n + 1.0) / (n * (n + b)) - 1.0 / (n + b - 1.0)))
    return (n - alpha) / n, lam, omega, 0.0


def _e26(n, s, alpha, a, b, mu):
    """Family with negative gamma_n = -s/(n+a); lambda_n and omega_n as in
    the e24 family."""
    return _shifted(n, s, alpha, b, mu, -s / (n + a))


# label -> (family body, its parameters after n, s and alpha with their
# defaults); a default of None marks a parameter the label needs.
_FAMILIES = {
    "e24": (_e24, {"a": 0.0, "b": 0.0, "mu": 0.0}),
    "e25": (_e25, {"beta": None, "b": 1.0, "mu": 0.0}),
    "e26": (_e26, {"a": 0.0, "b": 0.0, "mu": 0.0}),
}
# The labels a command line can build; any other label needs a coefficient map.
FAMILY_LABELS = tuple(_FAMILIES)


# The parameter rules of the direct steppers (`algorithms`), the constructions
# and the splittings, each raised here alone. A NaN fails each of them.

def check_step(s) -> None:
    """ValueError unless the stepsize s (or h) is positive."""
    if not s > 0.0:
        raise ValueError(f"stepsize must be positive, got {s}")


def check_alpha(alpha, label: str = "alpha", use: str = "") -> None:
    """ValueError unless alpha > 1, the rule of the constructions, of every
    method that takes alpha and of the energy; `label` names alpha in the
    message, and `use`, when given, what needs the rule."""
    if not alpha > 1.0:
        raise ValueError(f"{label} must exceed 1{use and ' for ' + use}, got {alpha}")


def check_beta(beta) -> None:
    """ValueError unless beta is finite and nonnegative: a negative one anti-damps."""
    if not 0.0 <= beta < np.inf:
        raise ValueError(f"beta must be finite and nonnegative, got {beta}")


def check_gamma(gamma) -> None:
    """ValueError unless the friction gamma is finite and nonnegative."""
    if not 0.0 <= gamma < np.inf:
        raise ValueError(f"friction gamma must be nonnegative and finite, got {gamma}")


def _check_family(label: str, s, alpha, params: dict) -> None:
    """ValueError unless (s, alpha, params) is a schedule of the family
    `label`, params holding exactly its keys. A NaN fails every test (x != x
    holds for NaN alone), and a, b and mu must be finite; the comparisons
    come first, so a parameter that is not a number raises their TypeError."""
    keys = _FAMILIES[label][1].keys()
    for key in keys:
        if key not in params:
            raise ValueError(f"schedule {label!r} needs the parameter {key!r}")
    extra = sorted(params.keys() - keys)
    if extra:
        raise ValueError(f"unexpected parameters for schedule {label!r}: {extra}")
    check_step(s)
    if alpha < 3.0 or alpha != alpha:
        raise ValueError(f"damping parameter must satisfy alpha >= 3, got {alpha}")
    b, mu = params["b"], params["mu"]
    if mu < 0.0 or mu != mu:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    for key in ("a", "b", "mu"):   # inf, or an int past the float range
        v = params.get(key)
        if v == np.inf or isinstance(v, int) and v > sys.float_info.max:
            raise ValueError(f"{key} must be finite, got {v}")
    if label == "e25":
        beta, root_s = params["beta"], float(np.sqrt(s))
        if not 0.0 < beta < 2.0 * root_s:
            raise ValueError(f"beta must lie in (0, 2*sqrt(s)) = (0, {2.0 * root_s}), got {beta}")
        if b <= 0.0 or b != b:
            raise ValueError(f"b must be positive, got {b}")
        return
    a = params["a"]
    if a < 0.0 or b < 0.0 or a != a or b != b:
        raise ValueError(f"shifts must be nonnegative, got a={a}, b={b}")
    if mu > 0.0 and b == 0.0:
        raise ValueError("mu > 0 with n + b - 1 <= 0 divides by zero; need b > 0 at n = 1")


@dataclass(frozen=True, slots=True, eq=False)
class CoefficientMap:
    """A built-in coefficient map, n -> body(n, *args): `body` is a row of a
    coefficient table (a schedule family of `_FAMILIES`, or a method of
    `algorithms._METHODS`) and `args` its stepsize s and the further values
    the body takes, in its order. `coeffs_of` calls each body once for all
    the maps of that body in a batch."""

    body: Callable
    args: tuple

    def __call__(self, n):
        """Floats for a number n, else arrays of n's shape."""
        values = self.body(np.asarray(n, dtype=float), *self.args)
        if np.isscalar(n):
            return tuple(float(v) for v in values)
        return tuple(v if np.shape(v) == np.shape(n) else np.full(np.shape(n), v)
                     for v in values)


def coeffs_of(maps: Sequence[Callable], n) -> Array:
    """The coefficients of every map in `maps` at n, as an array of shape
    (m, k, lanes) for maps of k coefficients: n is a row of m indices that
    every lane shares, or a (lanes, 1) column of each lane's own index
    (m = 1). The `CoefficientMap`s of one body take one broadcast call of
    the body over their argument columns; any other map (a custom one, a
    wrapped `coeffs_at`) is called lane by lane. Each lane gets the bits of
    its own map's call. A map that does not give four coefficients raises
    ValueError."""
    n = np.asarray(n, dtype=float)
    per_lane = n.ndim == 2
    width = 1 if per_lane else n.size
    out = None

    def put(lanes: list, values) -> None:
        nonlocal out
        if len(values) != 4:   # a custom map is the caller's own
            raise ValueError(f"a coefficient map must give 4 coefficients, got {len(values)}")
        if out is None:
            out = np.empty((width, 4, len(maps)))
        for k, v in enumerate(values):
            out[:, k, lanes] = np.broadcast_to(v, (len(lanes), width)).T

    groups: Dict[Callable, list] = {}
    for i, m in enumerate(maps):
        if type(m) is CoefficientMap:
            groups.setdefault(m.body, []).append(i)
        else:
            put([i], m(n[i] if per_lane else n))
    for body, lanes in groups.items():
        cols = np.array([maps[i].args for i in lanes], dtype=float).T[:, :, None]
        put(lanes, body(n[lanes] if per_lane else n, *cols))
    return out


@dataclass(frozen=True)
class Schedule:
    """Immutable coefficient schedule.

    `coeffs_at` maps n (scalar or array, n >= 1) to the 4-tuple
    (alpha_n, lambda_n, omega_n, gamma_n). An array of n must give arrays,
    or numbers that hold for every n, bitwise equal to the values n by n:
    the steppers tabulate the coefficients from one call over a chunk of
    indices. A family schedule's `coeffs_at` is the `CoefficientMap` of its
    family's body with s, alpha and `params`, which `coeffs_of` evaluates
    together with the other maps of its family; a schedule whose
    `coeffs_at` is replaced (`dataclasses.replace`) steps by the new map.
    Building one checks a family label's `params`, its exact keys and then
    its rules, and any other label's stepsize.
    """

    label: str
    alpha: float
    s: float
    coeffs_at: Callable
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.label in _FAMILIES:
            _check_family(self.label, self.s, self.alpha, self.params)
        else:
            check_step(self.s)

    def check_matches(self, s: float, alpha: float) -> None:
        """Raise ValueError unless s is this schedule's stepsize, to 8 eps
        relative, and alpha its inertia exponent."""
        if not abs(s - self.s) <= 8.0 * _EPS * abs(self.s):
            raise ValueError(f"stepsize {s} disagrees with the schedule's s = {self.s}")
        if alpha != self.alpha:
            raise ValueError(f"alpha = {alpha} disagrees with the schedule's {self.alpha}")


def _inf_on_overflow(closed_form: Callable) -> Callable:
    """`closed_form`, giving +inf where one of its Python-float squares
    passes the float range (e24's and e25's past mu/s of about 1.3e154), as
    a threshold that no scan reaches. The Python-float `**` is kept, as it
    gives every finite threshold its recorded bits; e26's root is a float
    there, and `_root_of_sum` takes it."""
    @wraps(closed_form)
    def guarded(*args, **kwargs) -> float:
        try:
            return closed_form(*args, **kwargs)
        except OverflowError:
            return float("inf")
    return guarded


def _root_of_sum(c: float, m: float):
    """sqrt(c + m^2) for c >= 0, as np.sqrt(c + m ** 2) wherever the Python-float
    m ** 2 is finite, so that every such root keeps its recorded bits. Where
    m ** 2 overflows (|m| beyond about 1.3e154) the root is still a float,
    and is taken scaled, as |m| sqrt(1 + c/m^2)."""
    try:
        return np.sqrt(c + m ** 2)
    except OverflowError:
        return abs(m) * np.sqrt(1.0 + c / m / m)


def _as_floats(schedule: Schedule, lipschitz) -> tuple:
    """The family schedule's parameters, s, alpha and `lipschitz` as Python
    floats, whose `**` raises the OverflowError that `_inf_on_overflow`
    catches where a numpy float's warns."""
    return ({k: float(v) for k, v in schedule.params.items()}, float(schedule.s),
            float(schedule.alpha), float(lipschitz))


def _n_prime_e24(params: dict, s: float, alpha: float, lipschitz: float,
                 curvature: float) -> float:
    """The e24 threshold of `n_prime` with (s L)^2 + 1 replaced by `curvature`;
    `params` holds every parameter of the family."""
    a, b, mu = params["a"], params["b"], params["mu"]
    base = ((alpha - 1.0) * curvature
            + 2.0 * mu * lipschitz * float(np.sqrt(alpha - 1.0)) + (mu / s) ** 2 - a)
    if b - a > 0.25:
        return float(base)
    return float(max(base, (1.0 - 2.0 * b + np.sqrt(4.0 * (a - b) + 1.0)) / 2.0))


@_inf_on_overflow
def n_prime(schedule: Schedule, lipschitz: float) -> float:
    """Closed-form threshold N' beyond which the strict coupling inequality
    (assumption (i) of the energy-decrease conditions) is guaranteed for
    the family schedule `schedule` on an objective of gradient-Lipschitz
    constant `lipschitz`; ValueError naming the label of a schedule of no
    family.

    e24: (alpha-1)(s^2 L^2 + 1) + 2 mu L sqrt(alpha-1) + (mu/s)^2 - a,
         maxed with (1 - 2b + sqrt(4(a-b)+1))/2 when b - a <= 1/4.
    e25: the positive root (-P + sqrt(P^2 + 4 d r)) / (2 d) of
         d x^2 + P x - r, with d = 2 sqrt(s) - beta, r = beta b + mu/sqrt(s)
         and P = 2 b sqrt(s) - beta (b + 1) - mu/sqrt(s), each formed once.
         Where P > 0 and q = 4 d r/P^2 < 1 the textbook form cancels, and
         the root is taken as 2 (r/P) / (1 + sqrt(1 + q)); either form is
         within a few ulps of the root of the computed (P, d, r).
    e26: sqrt(3 + (mu/s)^2) - min(a, b)  (the L-free variant; see
         n_prime_reference_variant for the alternative).

    The parameters are taken as Python floats. A closed form that overflows
    the float range gives +inf.
    """
    label = schedule.label
    if label not in _FAMILIES:
        raise ValueError(f"no closed-form threshold for schedule label {label!r}")
    params, s, alpha, lipschitz = _as_floats(schedule, lipschitz)
    if label == "e24":
        return _n_prime_e24(params, s, alpha, lipschitz,
                            s * s * lipschitz * lipschitz + 1.0)
    b, mu = params["b"], params["mu"]
    if label == "e25":
        beta, root_s = params["beta"], float(np.sqrt(s))
        d, r = 2.0 * root_s - beta, beta * b + mu / root_s
        p = 2.0 * b * root_s - beta * (b + 1.0) - mu / root_s
        # q is taken without P^2; where a tiny P overflows it, q = inf takes the textbook root
        if p > 0.0 and (q := 4.0 * d * (r / p) / p) < 1.0:
            return float(2.0 * (r / p) / (1.0 + np.sqrt(1.0 + q)))
        return float((np.sqrt(p ** 2 + 4.0 * d * r) - p) / (2.0 * d))
    return float(_root_of_sum(3.0, mu / s) - min(params["a"], b))


@_inf_on_overflow
def n_prime_reference_variant(schedule: Schedule, lipschitz: float) -> float:
    """Alternate closed forms that reproduce the recorded reference tables
    at s = 0.1 (the recording omitted s, so the match is diagnostic):
    e24 without the additive (alpha-1) offset, e26 in its curvature-aware
    form sqrt((sL)^2 + 1 + (mu/s)^2) - min(a, b); `n_prime` for any other
    label. Emitted next to the primary threshold by the table command. The
    parameters are taken as Python floats, as `n_prime` takes them."""
    if schedule.label not in ("e24", "e26"):
        return n_prime(schedule, lipschitz)
    p, s, alpha, lipschitz = _as_floats(schedule, lipschitz)
    if schedule.label == "e24":
        return _n_prime_e24(p, s, alpha, lipschitz, (s * lipschitz) ** 2)
    return float(_root_of_sum((s * lipschitz) ** 2 + 1.0, p["mu"] / s) - min(p["a"], p["b"]))


def make_schedule(label: str, s: float, alpha: float = 3.0, **params) -> Schedule:
    """Build a family Schedule by label, "e24"/"e26" (params a, b, mu) or
    "e25" (beta, b, mu), with the family's defaults filled in."""
    label = label.lower()
    if label not in _FAMILIES:
        raise ValueError(f"unknown schedule label {label!r}")
    body, defaults = _FAMILIES[label]
    # a needed parameter (default None) not given stays out, for Schedule to name
    full = {k: v for k, v in {**defaults, **params}.items() if v is not None or k in params}
    return Schedule(label, alpha, s,
                    CoefficientMap(body, (s, alpha, *map(full.get, defaults))), full)


def a_coefficients(s: float, lipschitz: float, gamma):
    """The five quadratic-form coefficients of the three-point extended
    descent inequality: A1 = s, A2 = -s, A3 = -gamma*(1 - L*s), A4 = s/2,
    A5 = -gamma^2/(2s). `gamma` may be an array."""
    gamma = np.asarray(gamma, dtype=float)
    a1 = s
    a2 = -s
    a3 = -gamma * (1.0 - lipschitz * s)
    a4 = s / 2.0
    a5 = -gamma * gamma / (2.0 * s)
    return a1, a2, a3, a4, a5


def gn_hn_in(s: float, lipschitz: float, gamma_n, lambda_n, omega_n):
    """Quadratic coefficients (G_n, H_n, I_n) controlling the energy-decrease
    condition; G_n > 0 is equivalent to the strict coupling inequality."""
    _, a2, a3, a4, a5 = a_coefficients(s, lipschitz, gamma_n)
    w = np.asarray(lambda_n, dtype=float) + np.asarray(omega_n, dtype=float)
    p = a2 + a3
    # p * p, not p ** 2: a number's ** 2 calls pow, which may differ from an array's
    g = -(p * p) + 2.0 * s * (a4 + a5) - w * w - 2.0 * w * p
    h = -2.0 * a2 * a2 - 2.0 * a2 * a3 - 2.0 * w * a2 + 2.0 * s * a4
    i = np.full_like(np.asarray(g, dtype=float), a2 * a2)
    return g, h, i


def n2(alpha: float, g_n, h_n, i_n):
    """Threshold N2 = (alpha-1)(H_n + sqrt(H_n^2 + 4 G_n I_n))/(2 G_n).

    Requires G_n > 0; a vanishingly small positive G_n overflows to +inf,
    which is the documented divergence of the formula.
    """
    scalar_in = np.isscalar(g_n) or (np.ndim(g_n) == 0)
    g = np.asarray(g_n, dtype=float)
    if np.any(g <= 0.0):
        raise ValueError("N2 requires G_n > 0; the coupling inequality fails here")
    h = np.asarray(h_n, dtype=float)
    i = np.asarray(i_n, dtype=float)
    with np.errstate(over="ignore"):
        val = (alpha - 1.0) * (h + np.sqrt(h * h + 4.0 * g * i)) / (2.0 * g)
    return float(val) if scalar_in else val


@dataclass(frozen=True)
class AdmissibilityReport:
    """Scan summary for one schedule.

    n1/n2/n_prime are the three threshold components and n_threshold their
    max (nan when no finite n2 exists on the scanned range).
    assumption_i_holds_from is the smallest scanned n from which the
    strict coupling inequality holds onward; the sentinel n_max + 1 means
    it never settles.
    """

    n1: float
    n2: float
    n_prime: float
    n_threshold: float
    assumption_i_holds_from: int
    assumption_ii_exact: bool


# Indices n per block of the admissibility scan: a block's arrays, some
# twenty of them, take about 16 kB each, whatever n_max is.
_SCAN_CHUNK = 2048

# Largest alpha whose admissibility scan `check_run` sets up: the scan's
# time, not its memory, grows with n_max.
SCAN_ALPHA_MAX = 100_000


def check_assumptions(schedule: Schedule, lipschitz: float, n_max: int) -> AdmissibilityReport:
    """Scan n = 1..n_max and report the energy-decrease admissibility data.

    Checks the exact coupling identity (assumption (ii), tolerance
    16*eps*scale), the strict coupling inequality (assumption (i)), and the
    sign of G_n; computes N1 = alpha - 1, the closed-form N' of `n_prime`
    where the label has one (else the scan, +inf if the inequality never
    settles), and N2 as the supremum of the per-n formula over scanned
    n > max(N1, ceil(N')) with G_n > 0. Violations are reported, never
    raised.

    The scan runs in blocks of `_SCAN_CHUNK` indices and carries from one
    block to the next only the conjunction of (ii), the last n where (i)
    fails and the running max of N2, so its memory does not grow with
    n_max. Every per-n value has the bits of a one-array scan, and so does
    the report. Without a closed form, the N2 range starts past the last
    failure of (i) seen so far: a later failure restarts the max.
    """
    if n_max < schedule.alpha:
        raise ValueError(f"n_max must be at least alpha = {schedule.alpha}, got {n_max}")
    s = schedule.s
    alpha = schedule.alpha
    n1 = alpha - 1.0
    if schedule.label in FAMILY_LABELS:
        npr = n_prime(schedule, lipschitz)
        lo = max(n1, np.ceil(npr)) if np.isfinite(npr) else float("inf")
    else:
        npr, lo = None, n1   # N' is taken from the scan: the last failure of (i)

    ii_exact = True
    last_fail = 0        # the last scanned n where (i) fails, 0 while none has
    n2_max = None        # max of N2 over the scanned n > lo with G_n > 0
    for start in range(1, n_max + 1, _SCAN_CHUNK):
        stop = min(start + _SCAN_CHUNK, n_max + 1)
        # one call over n = start..stop gives lambda_{n+1} at the block's edge as well
        n = np.arange(start, stop + 1, dtype=float)
        # coefficients, or their squares, past the float range become inf, and
        # sums of such infs nan, unwarned: a nan fails (ii) and (i) as it should
        with np.errstate(over="ignore", invalid="ignore"):
            _, lam, om, gam = (np.broadcast_to(c, n.shape) for c in schedule.coeffs_at(n))
            lam_next = lam[1:]
            n, lam, om, gam = n[:-1], lam[:-1], om[:-1], gam[:-1]
            ratio = (n + 1.0) / n

            residual = gam - (lam + om) + ratio * lam_next
            scale = np.maximum(np.abs(gam),
                               np.maximum(np.abs(lam + om), ratio * np.abs(lam_next)))
            ii_exact = ii_exact and bool(np.all(np.abs(residual) <= 16.0 * _EPS * scale))

            lhs = (s * (1.0 - gam * lipschitz) - ratio * lam_next) ** 2
            fails = np.flatnonzero(~(lhs < s * s - gam * gam))
            g, h, i = gn_hn_in(s, lipschitz, gam, lam, om)
        if fails.size:
            last_fail = start + int(fails[-1])
            if npr is None:
                lo, n2_max = max(n1, last_fail), None
        sel = (n > lo) & (g > 0.0)
        if np.any(sel):
            top = np.max(n2(alpha, g[sel], h[sel], i[sel]))
            n2_max = top if n2_max is None else np.maximum(n2_max, top)   # keeps a NaN, as np.max
    i_from = last_fail + 1

    if npr is None:
        npr = float(last_fail) if i_from <= n_max else float("inf")
    n2_val = float("nan") if n2_max is None else float(n2_max)

    n_threshold = float(np.max([n1, n2_val, npr]))
    return AdmissibilityReport(
        n1=float(n1),
        n2=n2_val,
        n_prime=float(npr),
        n_threshold=n_threshold,
        assumption_i_holds_from=i_from,
        assumption_ii_exact=ii_exact,
    )


def check_run(schedule: Schedule, lipschitz: float, n_final: int) -> AdmissibilityReport:
    """The admissibility scan reported beside a run of `schedule` that
    stopped at n_final: to two indices past the stop, and to at least 1000
    and alpha, as `check_assumptions` needs. An alpha above SCAN_ALPHA_MAX
    raises ValueError rather than set up a scan that long."""
    alpha = schedule.alpha
    if alpha > SCAN_ALPHA_MAX:
        raise ValueError(f"alpha = {alpha} needs an admissibility scan past "
                         f"n = {SCAN_ALPHA_MAX}; use alpha <= {SCAN_ALPHA_MAX}")
    # by its module name, n_max by keyword: a tracer that replaces it reads both
    return check_assumptions(schedule, lipschitz,
                             n_max=max(n_final + 2, 1000, int(np.ceil(alpha))))
