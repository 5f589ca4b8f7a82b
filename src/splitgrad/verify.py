"""Named verification suites shared by the command line and the test bed.

Every suite returns a list of CheckResult rows; a suite passes when every
row does. The suites are deliberately end-to-end: they run the actual
steppers, constructions, and analysis ops against each other rather than
re-deriving any formula locally, so a silent regression in one route is
caught by the other.

The `nesterov-split` and `constructions` suites read one route table,
`ROUTES`: one row per construction, naming the method it reproduces, the
construction and its parameters, which both routes take. agm2 has two
rows, its Lie-Trotter split and its velocity form. Each later
per-method fact (its continuous limit, its expected order) becomes one
more field of a row, not one more list kept in step with the others.

Every direct run goes through `algorithms.run_methods`, the runner of
every command too: the suites, and the recorded rows through
`run_case_cells`, hand it cells (method, s, keywords) from X0, and it
batches the cells whose methods take their gradient step at the same point,
x_n or y_n. A group's lone cell (agm2 in nesterov-split, pim in
constructions) takes `run`'s one-lane path.

The suites are pure functions of the seed and share no state, so
`run_suite("all")` runs them in a pool of worker processes forked from
this one: one worker per CPU this process may run on, never more than
there are suites. A task is a suite's name, which the worker looks up in
`SUITES` when it runs; only the CheckResult rows come back, and they are
joined in `SUITES` order, so the report keeps its bytes. The suites run
in this process instead with one usable CPU, without the "fork" start
method, or when `SUITES` is not this module's own table: a test's stand-in
or a tracer's wrapper may record into this process's memory, which a
worker's copy of it would not. Two things follow from the pool. This
process's own peak resident set (`RUSAGE_SELF`) no longer holds the
suites' working sets, which are the workers' (`RUSAGE_CHILDREN`). And a
profiler, or a tracer that leaves `SUITES` as it is, sees none of the
suites' calls: pin the process to one CPU (`taskset -c 0`) to keep them
in it.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from numbers import Integral
from typing import Callable, Dict, List

import numpy as np

from . import algorithms, analysis, constructions, schedules
from .cases import all_cases
from .objectives import Objective, f1, f2, make_objective, quadratic
from .splitting import HamiltonianSystem, forward_euler_hamiltonian, symplectic_euler

DEFAULT_SEED = 20260818

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


X0 = (1.0, -2.0)   # start point of every fixed-length run and every recorded row


def _max_rel_gap(xs_a, xs_b) -> float:
    d = np.max(np.abs(xs_a - xs_b), axis=1)
    m = np.maximum(1.0, np.max(np.abs(xs_b), axis=1))
    return float(np.max(d / m))


@dataclass(frozen=True)
class Route:
    """A constructed method, as `algorithms` steps it, and the name of its
    function in `constructions`, looked up when the route runs. keywords(s)
    gives its parameters at stepsize s under the names both routes take:
    those of `coefficient_map` and of the construction."""

    method: str
    construction: str
    keywords: Callable[[float], dict]


# the table of the nesterov-split suite (agm2) and the constructions suite (the rest)
ROUTES = (
    Route("agm2", "nesterov_lie_trotter", lambda s: {"alpha": 3.0}),
    Route("agm2", "nesterov_velocity_form", lambda s: {"alpha": 3.0}),
    Route("igahd", "igahd_construction", lambda s: {"alpha": 3.0, "beta": 1.0}),
    Route("lt_s_igahd", "lt_s_igahd_construction",
          lambda s: {"alpha": 3.0, "schedule": schedules.make_schedule("e25", s=s, beta=0.1,
                                                                      b=2.0, mu=0.1)}),
    Route("pim", "pim_construction", lambda s: {"gamma": 1.0}),
    Route("ardm", "ardm_construction", lambda s: {"alpha": 3.0}),
    Route("lt_se1", "lt_se1_construction", lambda s: {"alpha": 3.0}),
    Route("lt_sv2", "lt_sv2_construction", lambda s: {"alpha": 3.0}),
    Route("lt_se3", "lt_se3_construction", lambda s: {"alpha": 3.0}),
)


def _route_gaps(routes, s: float, n_steps: int):
    """(objective tag, route, gap) for each test objective and each route,
    in order: the max relative gap over n_steps steps from X0 between the
    route's construction at h = sqrt(s) and its direct stepper at s. The
    direct steppers of one objective run as one `run_methods` call, each
    distinct (method, keywords) once, so agm2's two rows share one run."""
    h = float(np.sqrt(s))
    rows = [(route, route.keywords(s)) for route in routes]
    runs = [(route.method, kw) for route, kw in rows]
    methods = [run for i, run in enumerate(runs) if run not in runs[:i]]
    stop = algorithms.StoppingRule("max_iter")
    out = []
    for tag, obj in (("f1", f1()), ("f2", f2())):
        direct, _ = algorithms.run_methods(obj, [(name, s, kw) for name, kw in methods], X0,
                                           stop, n_steps, record=True)
        for (route, kw), run in zip(rows, runs):
            xs = getattr(constructions, route.construction)(obj, list(X0), h=h,
                                                            n_steps=n_steps, **kw)
            out.append((tag, route, _max_rel_gap(xs, direct[methods.index(run)].xs)))
    return out


def suite_nesterov_split(seed: int = DEFAULT_SEED) -> List[CheckResult]:
    """Three-field sequential split and velocity form vs the direct
    accelerated stepper: one check per objective, which both must pass."""
    gaps: Dict[str, list] = {}
    for tag, route, gap in _route_gaps([r for r in ROUTES if r.method == "agm2"], 0.025, 1000):
        gaps.setdefault(tag, []).append((route.construction, gap))
    return [CheckResult(f"nesterov-split/{tag}", all(gap <= 1e-12 for _, gap in rows),
                        "max relative gaps "
                        + ", ".join(f"{gap:.3e} ({name})" for name, gap in rows)
                        + " over 1000 steps")
            for tag, rows in gaps.items()]


def suite_constructions(seed: int = DEFAULT_SEED) -> List[CheckResult]:
    """Each other splitting construction against its direct stepper, both
    test objectives, 1000 steps at h = 0.1."""
    h, n = 0.1, 1000
    return [CheckResult(f"construction/{route.method}/{tag}", gap <= 1e-12,
                        f"max relative gap {gap:.3e} over {n} steps")
            for tag, route, gap in _route_gaps([r for r in ROUTES if r.method != "agm2"],
                                               h * h, n)]


def ode_route_gaps(obj: Objective, x0, v0, alpha: float, beta: float, t0: float,
                   t1: float, dt: float):
    """Sup gaps between the first-order averaged system and the second-order
    Hessian-damped system at dt, dt/2 and dt/4, the two observed orders
    log2(gap_k / gap_{k+1}), and the first-order trajectory at dt/4. beta
    must be finite and nonnegative: a negative one anti-damps both flows. A
    run that leaves the floats, or a zero gap, raises ValueError."""
    schedules.check_beta(beta)
    constructions.check_interval(t0, t1, dt)   # before xdot_from_v divides by t0
    xdot0 = constructions.xdot_from_v(obj, x0, v0, t0, alpha, beta)
    gaps = []
    for h in (dt, dt / 2.0, dt / 4.0):
        with np.errstate(over="ignore", invalid="ignore"):   # a blow-up is named below
            tr1 = constructions.integrate_first_order_vd(obj, x0, v0, alpha, beta, t0, t1, h)
            tr2 = constructions.integrate_second_order_hessian_vd(obj, x0, xdot0, alpha, beta,
                                                                  t0, t1, h)
        for system, tr in (("first-order averaged", tr1), ("second-order Hessian-damped", tr2)):
            ok = np.isfinite(tr.xs).all(axis=-1) & np.isfinite(tr.vs).all(axis=-1)
            if not ok.all():
                raise ValueError(f"the {system} system went non-finite at dt = {h}, "
                                 f"first at t = {tr.ts[np.argmin(ok)]}")
        v_rec = constructions.v_from_x(obj, tr2.xs, tr2.vs, tr2.ts[:, None], alpha, beta)
        gaps.append(max(float(np.max(np.abs(tr1.xs - tr2.xs))),
                        float(np.max(np.abs(tr1.vs - v_rec)))))
        if gaps[-1] == 0.0:   # a start at rest: both systems stay there
            raise ValueError(f"the two systems agree exactly at dt = {h}: no order to observe")
    orders = [float(np.log2(gaps[i] / gaps[i + 1])) for i in range(2)]
    return gaps, orders, tr1


def suite_ode(seed: int = DEFAULT_SEED) -> List[CheckResult]:
    """First-order averaged system vs second-order Hessian-damped system
    after the change of variables; the gap must shrink at the reference
    integrator's order."""
    gaps, orders, _ = ode_route_gaps(f1(), np.array(X0), np.zeros(2), 3.0, 0.1,
                                     1.0, 10.0, 1e-2)
    return [CheckResult("ode/gaps-shrink", gaps[0] > gaps[1] > gaps[2],
                        f"sup gaps {gaps[0]:.3e} -> {gaps[1]:.3e} -> {gaps[2]:.3e}"),
            CheckResult("ode/order", min(orders) >= 3.5,
                        f"observed orders {orders[0]:.2f}, {orders[1]:.2f}")]


def _energy_configs(s: float):
    return (("e24", dict(a=4.0, b=10.0, mu=1e-2)),
            ("e25", dict(beta=0.1 * 2.0 * float(np.sqrt(s)), b=1.0, mu=0.1)),
            ("e26", dict(a=1.25, b=5.5, mu=1e-3)))


def suite_energy(seed: int = DEFAULT_SEED) -> List[CheckResult]:
    """Lyapunov energy non-increase beyond the admissibility threshold for
    one admissible parameter set per coefficient family."""
    obj = f2()
    lip = obj.lipschitz
    s = 0.5 / lip
    x_star = np.zeros(2)
    out = []
    scheds = [schedules.make_schedule(label, s=s, alpha=3.0, **params)
              for label, params in _energy_configs(s)]
    trajs, results = algorithms.run_methods(
        obj, [("lt_s_igahd", s, {"alpha": 3.0, "schedule": sch}) for sch in scheds], X0,
        algorithms.StoppingRule(algorithms.default_stop(obj), 1e-10), 20000, record=True)
    for sch, traj, res in zip(scheds, trajs, results):
        rep = schedules.check_assumptions(sch, lip,
                                          n_max=schedules.scan_end(traj.n_final, 3.0))
        series = analysis.energy_series(traj, s, 3.0, sch.coeffs_at, x_star=x_star)
        from_n = int(np.floor(rep.n_threshold)) + 1
        tol = 1e-12 * float(np.max(series.e_seq))
        mono = analysis.check_monotone(series, from_n, tol)
        out.append(CheckResult(
            f"energy/{sch.label}", res.termination == "tolerance_met" and mono.ok,
            f"N={rep.n_threshold:.3f} checked n in [{from_n}, {traj.n_final - 1}] "
            f"violations={'none' if mono.ok else mono.first_violation} "
            f"max increase={mono.max_increase:.3e}"))
    return out


def suite_rate(seed: int = DEFAULT_SEED) -> List[CheckResult]:
    """Fitted decay exponent and the explicit Lyapunov tail bound.

    On f2 both runs reach f* exactly in floats, so the slope window
    [50, 2000] sees far fewer indices than it spans: `fit_rate` drops the
    gaps at or below 100 eps f*, which leaves 672 of its 1951 indices for
    agm2, all in [50, 755] (1316 of agm2's 2201 gaps are exactly zero,
    from n = 802), and 560 for lt_s_igahd, all in [50, 636] (1459 zeros,
    from n = 684)."""
    obj = f2()
    lip = obj.lipschitz
    s = 0.025
    alpha = 3.0
    x_star = np.zeros(2)
    e25 = schedules.make_schedule("e25", s=s, **dict(_energy_configs(s))["e25"])
    runs = (("agm2", None), ("lt_s_igahd", e25))
    trajs, _ = algorithms.run_methods(obj, [(name, s, {"alpha": alpha, "schedule": sch})
                                            for name, sch in runs],
                                      X0, algorithms.StoppingRule("max_iter"), 2200, record=True)
    out = []
    for (name, sch), traj in zip(runs, trajs):
        fgaps = traj.fgaps()
        slope, _ = analysis.fit_rate(fgaps, (50, 2000), f_scale=obj.f_min)
        out.append(CheckResult(f"rate/slope/{name}", slope <= -1.8,
                               f"log-log slope {slope:.3f} over n in [50, 2000]"))
        if sch is None:
            # no coefficient schedule: only the inertia floor applies
            n_from = int(np.floor(alpha - 1.0)) + 1
        else:
            rep = schedules.check_assumptions(sch, lip, n_max=2200)
            n_from = int(np.floor(rep.n_threshold)) + 1
        e_ref = analysis.energy(traj, n_from, s, alpha, sch and sch.coeffs_at, x_star)
        viol = analysis.rate_bound_first_violation(fgaps, e_ref, alpha, n_from)
        out.append(CheckResult(
            f"rate/tail-bound/{name}", viol is None,
            f"fgap(n) <= {e_ref:.3e}*(alpha-1)^2/(n-1)^2 from n={n_from}: "
            f"{'holds' if viol is None else f'violated at n={viol}'}"))
    return out


def _check_seed(seed) -> None:
    """ValueError unless seed is a nonnegative integer."""
    if not isinstance(seed, Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


class _Draws:
    """Seeded samples from the standard library's `random.Random(seed)`.
    A draw of `size` samples takes one call of the generator and gives an
    array of that shape; a draw without `size` gives a float."""

    def __init__(self, seed: int):
        _check_seed(seed)
        self._rng = random.Random(seed)

    def _unit(self, count: int):
        """count uniforms on [0, 1), 53 random bits each."""
        bits = np.frombuffer(self._rng.randbytes(8 * count), dtype="<u8") >> np.uint64(11)
        return bits * 2.0 ** -53

    def uniform(self, lo, hi, size=None):
        """Uniforms on [lo, hi); lo and hi broadcast against `size`."""
        if size is None:
            return lo + (hi - lo) * self._rng.random()
        return lo + (hi - lo) * self._unit(math.prod(np.atleast_1d(size))).reshape(size)

    def normal(self, scale: float, size):
        """Normals of mean 0, by Box-Muller: each pair of uniforms gives two."""
        count = math.prod(np.atleast_1d(size))
        u = self._unit(2 * ((count + 1) // 2)).reshape(2, -1)
        r = np.sqrt(-2.0 * np.log1p(-u[0]))   # 1 - u is in (0, 1]
        angle = (2.0 * np.pi) * u[1]
        z = np.concatenate((r * np.cos(angle), r * np.sin(angle)))
        return scale * z[:count].reshape(size)

    def integer(self, lo: int, hi: int) -> int:
        """An integer in [lo, hi)."""
        return self._rng.randrange(lo, hi)


_FAMILY_DRAWS = 20   # draws of each family in assumption-exact and threshold-scan


def _random_family_draws(rng, n_draws: int):
    """Admissible (label, params, s, lipschitz) tuples for the three
    coefficient families, n_draws of each."""
    draws = []
    for _ in range(n_draws):
        lip = rng.uniform(0.8, 4.0)
        s = rng.uniform(0.2, 0.95) / lip
        draws.append(("e24", dict(a=rng.uniform(0.0, 20.0), b=rng.uniform(1e-3, 20.0),
                                  mu=rng.uniform(0.0, 2.0)), s, lip))
        draws.append(("e25", dict(beta=rng.uniform(0.05, 0.95) * 2.0 * float(np.sqrt(s)),
                                  b=rng.uniform(0.1, 10.0), mu=rng.uniform(0.0, 1.0)),
                      s, lip))
        draws.append(("e26", dict(a=rng.uniform(0.0, 10.0), b=rng.uniform(0.1, 10.0),
                                  mu=rng.uniform(0.0, 1.0)), s, lip))
    return draws


def suite_assumption_exact(seed: int = DEFAULT_SEED) -> List[CheckResult]:
    """The coefficient-coupling identity must hold to a few ulps for
    every family at every n."""
    fails = {"e24": 0, "e25": 0, "e26": 0}
    for label, params, s, lip in _random_family_draws(_Draws(seed), _FAMILY_DRAWS):
        sch = schedules.make_schedule(label, s=s, alpha=3.0, **params)
        fails[label] += not schedules.check_assumptions(sch, lip, n_max=10_000).assumption_ii_exact
    return [CheckResult(f"assumption-exact/{label}", not bad,
                        f"{_FAMILY_DRAWS - bad}/{_FAMILY_DRAWS} draws exact over n = 1..10000")
            for label, bad in fails.items()]


def suite_threshold_scan(seed: int = DEFAULT_SEED) -> List[CheckResult]:
    """Closed-form readiness thresholds vs brute-force scans of the strict
    coupling inequality."""
    fails = {"e24": 0, "e25": 0, "e26": 0}
    for label, params, s, lip in _random_family_draws(_Draws(seed), _FAMILY_DRAWS):
        sch = schedules.make_schedule(label, s=s, alpha=3.0, **params)
        npr = schedules.n_prime(sch, lip)
        scan_to = min(int(10 * np.ceil(max(npr, 0.0)) + 100), 100_000)
        rep = schedules.check_assumptions(sch, lip, n_max=scan_to)
        fails[label] += rep.assumption_i_holds_from > max(1, int(np.floor(npr)) + 1)
    return [CheckResult(f"threshold-scan/{label}", not bad,
                        f"{_FAMILY_DRAWS - bad}/{_FAMILY_DRAWS} draws: "
                        f"no violation beyond the closed form")
            for label, bad in fails.items()]


_SIGN_CHUNK = 5000   # quadratic-lemma samples drawn and checked per call


def _sign_samples(rng, variant: str, n: int):
    """n random (a, b, c, x) meeting the hypothesis of the sign lemma
    `variant`: a nonpositive discriminant for l17; for l18 a positive one,
    with x on or beyond a root."""
    a = rng.uniform(0.1, 5.0, n)
    b = rng.normal(2.0, n)
    if variant == "l17":
        c = b * b / (4.0 * a) + rng.uniform(0.0, 5.0, n)
        return a, b, c, rng.normal(3.0, n)
    c = b * b / (4.0 * a) - rng.uniform(1e-12, 5.0, n)
    root = np.sqrt(b * b - 4.0 * a * c)
    off = rng.uniform(0.0, 3.0, n)
    x = np.where(rng.uniform(0.0, 1.0, n) < 0.5, (-b + root) / (2.0 * a) + off,
                 (-b - root) / (2.0 * a) - off)
    return a, b, c, x


def suite_lemmas(seed: int = DEFAULT_SEED) -> List[CheckResult]:
    """Randomized nonnegativity sweeps for the smoothness inequalities and
    the quadratic sign lemmas. Each quadratic's point triples go to the
    descent lemmas as one stack, and the sign samples in chunks."""
    rng = _Draws(seed)
    n_desc = 0
    desc_viol = 0
    worst = np.inf
    for _ in range(50):
        dim = rng.integer(2, 6)
        m = rng.normal(1.0, (dim, dim))
        obj = quadratic(m.T @ m + np.diag(rng.uniform(0.0, 1.0, dim)), rng.normal(1.0, dim))
        lip = obj.lipschitz
        x, y, z = rng.normal(2.0, (3, 70, dim))
        s = rng.uniform(0.05, 1.0, 70) / lip
        gam = rng.uniform(0.0, s, 70)
        scale = np.maximum.reduce([np.ones(70), np.abs(obj.eval(x)), np.abs(obj.eval(y)),
                                   np.abs(obj.eval(z)),
                                   lip * np.sum(x * x + y * y + z * z, axis=1)])
        for var, kw in (("dl", {}), ("edl", {"s": s}),
                        ("eedl", {"s": s, "gamma": gam, "z": z})):
            r = analysis.check_descent_lemma(obj, x, y, var, **kw)
            n_desc += len(r)
            worst = min(worst, float(np.min(r)))
            desc_viol += int(np.sum(r < -8.0 * _EPS * scale))
    out = [CheckResult("lemmas/descent-family", desc_viol == 0,
                       f"{n_desc} samples, {desc_viol} violations, "
                       f"worst residual {worst:.3e}")]

    n_sign = 0
    sign_viol = 0
    for variant in ("l17", "l18"):
        for _ in range(50_000 // _SIGN_CHUNK):
            ok = analysis.check_quadratic_lemma(*_sign_samples(rng, variant, _SIGN_CHUNK),
                                                variant)
            n_sign += len(ok)
            sign_viol += int(np.sum(~ok))
    out.append(CheckResult("lemmas/sign-family", sign_viol == 0,
                           f"{n_sign} samples, {sign_viol} violations"))
    return out


def suite_fixed_points(seed: int = DEFAULT_SEED) -> List[CheckResult]:
    """Stationarity diagnostics: zero residual at minimizers, strictly
    positive away from them."""
    s = 0.01
    at_min = (("f1", f1(), [0.0, 0.0]), ("f1", f1(), [1.5, -1.5]),
              ("f2", f2(), [0.0, 0.0]))
    out = []
    for var in ("eq1", "eq2", "eq3"):
        worst = max(analysis.spurious_root_residual(o, xm, 0.05, s, var)
                    for _, o, xm in at_min)
        out.append(CheckResult(f"fixed-points/{var}/at-minimizers", worst <= 1e-14,
                               f"max residual {worst:.3e} over {len(at_min)} minimizers"))
    obj = f2()
    for var in ("eq1", "eq2", "eq3"):
        r = analysis.spurious_root_residual(obj, [1.0, 0.0], 0.05, s, var)
        out.append(CheckResult(f"fixed-points/{var}/off-minimizer", r > 1e-3,
                               f"residual {r:.3e} at (1, 0)"))
    return out


def run_case_cells(cases, cells: Callable, alpha: float, max_iter: int, reduce: Callable):
    """Run lt_s_igahd from X0 under the cells (label, params, s), a schedule
    family with its parameters and a stepsize, that `cells(case)` gives for
    each recorded row: the cells of all the rows that share an objective
    and epsilon as one `run_methods` batch, stopped by the objective's
    default rule at epsilon. Each row is reduced to reduce(case, objective,
    its (Schedule, RunResult) pairs) before the next batch runs. A stepsize
    outside (0, 1/L) or a schedule that cannot be built raises ValueError.
    Returns one reduction per case, in order."""
    groups: Dict[tuple, list] = {}
    for i, case in enumerate(cases):
        groups.setdefault((case.objective, case.epsilon), []).append(i)

    def run_group(objective: str, epsilon: float, rows: list) -> list:
        # a batch's schedules and results go when it returns, before the next batch runs
        obj = make_objective(objective)
        row_cells = [cells(cases[i]) for i in rows]
        scheds = []
        for label, params, s in (cell for cs in row_cells for cell in cs):
            algorithms.check_stepsize(s, obj)
            scheds.append(schedules.make_schedule(label, s=s, alpha=alpha, **params))
        _, results = algorithms.run_methods(
            obj, [("lt_s_igahd", sch.s, {"alpha": alpha, "schedule": sch}) for sch in scheds],
            X0, algorithms.StoppingRule(algorithms.default_stop(obj), epsilon), max_iter)
        runs = iter(zip(scheds, results))
        return [reduce(cases[i], obj, [next(runs) for _ in cs])
                for i, cs in zip(rows, row_cells)]

    out = [None] * len(cases)
    for (objective, epsilon), rows in groups.items():
        for i, reduced in zip(rows, run_group(objective, epsilon, rows)):
            out[i] = reduced
    return out


def run_cases(cases, s: float, alpha: float, max_iter: int):
    """Run each recorded row from X0 at stepsize s, the rows that
    share an objective and epsilon as one batch (`run_case_cells`). Returns
    one (objective, (Schedule, RunResult)) pair per case, in order."""
    return run_case_cells(cases, lambda case: [(case.schedule, case.schedule_params(), s)],
                          alpha, max_iter, lambda case, obj, runs: (obj, runs[0]))


def suite_tables(seed: int = DEFAULT_SEED) -> List[CheckResult]:
    """All recorded benchmark rows terminate at tolerance, and the
    readiness thresholds split into the expected heuristic families."""
    s = 0.1
    out = []
    npr_by_group: Dict[str, list] = {}
    for case, (obj, (sch, res)) in zip(all_cases(), run_cases(all_cases(), s, 3.0, 30_000)):
        ok = res.termination == "tolerance_met" and (res.error_final <= case.epsilon
                                                     or res.error_final < 1e-15)
        out.append(CheckResult(f"table/{case.label}", ok,
                               f"{res.termination} at n={res.n_final}, "
                               f"error {res.error_final:.3e}"))
        npr_by_group.setdefault(case.group[0], []).append(schedules.n_prime(sch, obj.lipschitz))
    slow = npr_by_group["B"]
    fast = [v for g, vals in npr_by_group.items() if g != "B" for v in vals]
    pattern_ok = min(slow) > 3.0 > max(fast) and min(slow) > max(fast)
    out.append(CheckResult(
        "table/threshold-pattern", pattern_ok,
        f"N' in [{min(fast):.2f}, {max(fast):.2f}] for small-mu rows vs "
        f"[{min(slow):.2f}, {max(slow):.2f}] for the heavy-mu family"))
    return out


_BAND_BLOCK = 1000   # symplectic states stored between energy evaluations


def symplectic_drift(hs: HamiltonianSystem, state, h: float, n_steps: int) -> float:
    """max |H(x_n, v_n) - H(x_0, v_0)| over n = 1..n_steps of the se2
    symplectic Euler map. Each block's states are stacked once and their
    energies taken in one `hs.energy` call, so `hs` must evaluate stacks. A
    state is 1-D or 0-d (a number); a 0-d state is stacked as a one-element
    row, so that a block is still a stack of states."""
    x, v = state
    if np.ndim(x) > 1 or np.ndim(v) > 1:
        raise ValueError("symplectic_drift needs 0-d or 1-D x and v, got shapes "
                         f"{np.shape(x)} and {np.shape(v)}")
    e0 = hs.energy(x, v)
    drift = 0.0
    for start in range(0, n_steps, _BAND_BLOCK):
        k = min(_BAND_BLOCK, n_steps - start)
        xs, vs = [], []
        for _ in range(k):
            x, v = symplectic_euler(hs, (x, v), h, "se2")
            xs.append(x)
            vs.append(v)
        energies = hs.energy(np.reshape(xs, (k, -1)), np.reshape(vs, (k, -1)))
        drift = max(drift, float(np.max(np.abs(energies - e0))))
    return drift


def suite_symplectic(seed: int = DEFAULT_SEED) -> List[CheckResult]:
    """Long-run oscillator energy: bounded band for the symplectic map,
    unbounded growth for explicit Euler. The oscillator is one-dimensional,
    so both maps step a state of two floats; a float operation rounds as
    the same operation on a one-element array does."""
    hs = HamiltonianSystem(lambda x: 0.5 * np.sum(x * x, axis=-1), lambda x: x)
    h, n_steps = 0.01, 100_000
    x, v = 1.0, 0.0
    e0 = hs.energy(x, v)
    drift = symplectic_drift(hs, (x, v), h, n_steps)
    for _ in range(n_steps):
        x, v = forward_euler_hamiltonian(hs, (x, v), h)
    growth = hs.energy(x, v) / e0
    return [
        CheckResult("symplectic/bounded-band", drift <= 0.05 * e0,
                    f"max |H - H0| = {drift:.3e} ({drift / e0:.2%} of H0) "
                    f"over {n_steps} steps"),
        CheckResult("symplectic/euler-grows", growth >= 100.0,
                    f"explicit Euler energy grew {growth:.0f}x"),
    ]


SUITES: Dict[str, Callable[[int], List[CheckResult]]] = {
    "nesterov-split": suite_nesterov_split,
    "constructions": suite_constructions,
    "ode": suite_ode,
    "energy": suite_energy,
    "rate": suite_rate,
    "assumption-exact": suite_assumption_exact,
    "threshold-scan": suite_threshold_scan,
    "lemmas": suite_lemmas,
    "fixed-points": suite_fixed_points,
    "tables": suite_tables,
    "symplectic": suite_symplectic,
}


# the table as this module defines it; a run_suite("all") that finds
# another in SUITES runs it in this process
_OWN_SUITES = dict(SUITES)


def _suite_results(name: str, seed: int) -> List[CheckResult]:
    """The checks of the suite that `SUITES` names `name` when this runs: a
    pool's task is a name, and only CheckResult rows come back."""
    return SUITES[name](seed)


def run_suite(name: str, seed: int = DEFAULT_SEED) -> List[CheckResult]:
    """The checks of the suite `name`, or of every suite for "all", in
    `SUITES` order. A seed that is not a nonnegative integer raises
    ValueError before any suite runs.

    "all" runs the suites in a process pool on the "fork" start method, one
    worker per CPU this process may run on and never more than there are
    suites. One usable CPU, a platform without fork, or a `SUITES` that is
    not this module's own table (a suite replaced, as a test or a tracer
    does) runs them in this process, so what a replacement records stays
    here. A suite's exception is raised here either way, and the pool's
    workers are joined before this returns or raises."""
    _check_seed(seed)
    if name != "all":
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from "
                             f"{', '.join(list(SUITES) + ['all'])}")
        return SUITES[name](seed)
    names, seeds = list(SUITES), [seed] * len(SUITES)
    runs = map(_suite_results, names, seeds)   # in this process, unless a pool takes them
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(cpus, len(names))
    if workers > 1 and SUITES == _OWN_SUITES:
        import multiprocessing   # imported here: the command line's start-up never pays for it
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(workers, multiprocessing.get_context("fork")) as pool:
                runs = list(pool.map(_suite_results, names, seeds))
    return [result for results in runs for result in results]


def format_report(results: List[CheckResult], elapsed: float = float("nan")) -> str:
    lines = [f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}" for r in results]
    n_pass = sum(r.passed for r in results)
    tail = f"{n_pass}/{len(results)} checks passed"
    if np.isfinite(elapsed):
        tail += f" in {elapsed:.2f}s"
    lines.append(tail)
    return "\n".join(lines)
