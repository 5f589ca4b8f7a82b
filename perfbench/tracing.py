"""Spans around the calls into each module of `splitgrad`.

Nothing is added inside the program. Each wrapper replaces a public function
at the point where its caller looks it up (a module attribute such as
`splitgrad.cli.make_objective` or `splitgrad.constructions.rk4_step`), or is
passed in through a public seam: the `grad`/`eval` methods of the objectives
the builders return, `Schedule.coeffs_at`, and the stepper that
`make_stepper` returns. A span records its name, start, end and parent; spans
are kept in flat in-memory arrays and written out when the run ends.
"""

from __future__ import annotations

import dataclasses
import time
from array import array
from collections import defaultdict

import numpy as np

_MB = 1024.0 * 1024.0

CONSTRUCTIONS = ("nesterov_lie_trotter", "igahd_construction", "lt_s_igahd_construction",
                 "pim_construction", "ardm_construction", "lt_se1_construction",
                 "lt_sv2_construction", "lt_se3_construction")
INTEGRATORS = ("integrate_first_order_vd", "integrate_second_order_hessian_vd")


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list = []
        self.counters = defaultdict(int)
        self._patches: list = []

    # ------------------------------------------------------------ recording

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def timed(self, name: str, fn):
        """fn wrapped so that each call records one span."""
        nid = self._id(name)
        stack, names, parents, starts, ends = (self._stack, self.name_id, self.parent,
                                               self.start, self.end)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return wrapper

    def clear(self) -> None:
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]
        self.counters.clear()

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_item(self, mapping: dict, key, replacement) -> None:
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = replacement

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # ------------------------------------------------------------ reading

    def snapshot(self) -> "Spans":
        return Spans(list(self.names), np.frombuffer(self.name_id, dtype=np.int32).copy(),
                     np.frombuffer(self.parent, dtype=np.int64).copy(),
                     np.frombuffer(self.start, dtype=np.int64).copy(),
                     np.frombuffer(self.end, dtype=np.int64).copy(),
                     dict(self.counters))


@dataclasses.dataclass
class Spans:
    names: list
    name_id: np.ndarray
    parent: np.ndarray
    start: np.ndarray
    end: np.ndarray
    counters: dict

    def __post_init__(self):
        self.dur = (self.end - self.start).astype(float)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=len(self.dur))
        self.self_time = self.dur - child

    def _mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name_id, ids)

    def count(self, name: str) -> int:
        return int(np.count_nonzero(self._mask(name)))

    def total_ns(self, *names: str) -> float:
        """Time inside any of the named spans, a span nested in another of
        them counted once."""
        mask = self._mask(*names)
        anc = self.parent[mask]
        outer = np.ones(len(anc), dtype=bool)
        while True:
            live = anc >= 0
            if not live.any():
                break
            outer[live] &= ~mask[anc[live]]
            anc[live] = self.parent[anc[live]]
        return float(self.dur[mask][outer].sum())

    def self_ns(self, *names: str) -> float:
        return float(self.self_time[self._mask(*names)].sum())

    def per_call_us(self, name: str) -> float:
        n = self.count(name)
        return self.total_ns(name) / n / 1e3 if n else 0.0

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name_id=self.name_id,
                 parent=self.parent, start=self.start, end=self.end)


# ---------------------------------------------------------------- install


def install(tracer: Tracer, sg) -> None:
    """Wrap the public entry points of every splitgrad module; `sg` is the
    imported package."""
    cli, verify, algorithms = sg.cli, sg.verify, sg.algorithms
    objectives, schedules, analysis = sg.objectives, sg.schedules, sg.analysis
    constructions = sg.constructions

    # objectives: builders return objectives whose grad/eval are timed
    traced_cls = type("TracedObjective", (objectives.Objective,), {
        "grad": tracer.timed("objectives.grad", objectives.Objective.grad),
        "eval": tracer.timed("objectives.eval", objectives.Objective.eval),
    })

    def traced_objective(obj):
        if isinstance(obj, traced_cls):
            return obj
        return traced_cls(**{f.name: getattr(obj, f.name)
                             for f in dataclasses.fields(obj)})

    def builder(fn):
        timed = tracer.timed("objectives.build", fn)
        return lambda *a, **k: traced_objective(timed(*a, **k))

    for owner, attr in ((objectives, "make_objective"), (objectives, "quadratic"),
                        (objectives, "f1"), (objectives, "f2"),
                        (cli, "make_objective"), (verify, "f1"), (verify, "f2"),
                        (verify, "quadratic")):
        tracer.patch(owner, attr, builder(getattr(owner, attr)))

    # schedules: make_schedule returns a schedule whose coeffs_at is timed
    timed_make = tracer.timed("schedules.make_schedule", schedules.make_schedule)

    def make_schedule(*a, **k):
        sched = timed_make(*a, **k)
        return dataclasses.replace(
            sched, coeffs_at=tracer.timed("schedules.coeffs_at", sched.coeffs_at))

    tracer.patch(schedules, "make_schedule", make_schedule)

    timed_check = tracer.timed("schedules.check_assumptions", schedules.check_assumptions)

    def check_assumptions(*a, **k):
        tracer.counters["schedules.scanned_n"] += int(k["n_max"] if "n_max" in k else a[2])
        return timed_check(*a, **k)

    tracer.patch(schedules, "check_assumptions", check_assumptions)
    for attr in ("n_prime", "n_prime_reference_variant", "gn_hn_in", "n2"):
        tracer.patch(schedules, attr, tracer.timed("schedules.thresholds",
                                                   getattr(schedules, attr)))

    # algorithms: run, and the stepper of each algorithm by name
    timed_run = tracer.timed("algorithms.run", algorithms.run)

    def run(*a, **k):
        traj, res = timed_run(*a, **k)
        tracer.counters["algorithms.iterates"] += res.n_final
        size = sum(v.nbytes for v in (traj.xs, traj.fs, traj.grads, traj.ys)
                   if v is not None)
        tracer.counters["algorithms.trajectory_bytes"] = max(
            tracer.counters["algorithms.trajectory_bytes"], size)
        return traj, res

    tracer.patch(algorithms, "run", run)
    timed_make_stepper = tracer.timed("algorithms.make_stepper", algorithms.make_stepper)

    def make_stepper(name, *a, **k):
        return tracer.timed(f"algorithms.step.{name.lower()}",
                            timed_make_stepper(name, *a, **k))

    tracer.patch(algorithms, "make_stepper", make_stepper)

    # splitting: one-step maps where verify and constructions look them up
    for owner, attr, name in ((verify, "symplectic_euler", "splitting.symplectic_step"),
                              (constructions, "symplectic_euler", "splitting.symplectic_step"),
                              (constructions, "stormer_verlet", "splitting.symplectic_step"),
                              (verify, "forward_euler_hamiltonian",
                               "splitting.forward_euler_step"),
                              (constructions, "rk4_step", "splitting.rk4_step")):
        tracer.patch(owner, attr, tracer.timed(name, getattr(owner, attr)))

    # constructions
    for attr in CONSTRUCTIONS:
        tracer.patch(constructions, attr,
                     tracer.timed("constructions.construction", getattr(constructions, attr)))
    for attr in INTEGRATORS:
        tracer.patch(constructions, attr,
                     tracer.timed("constructions.integrate", getattr(constructions, attr)))

    # analysis
    for attr, name in (("check_descent_lemma", "analysis.descent_lemma"),
                       ("check_quadratic_lemma", "analysis.quadratic_lemma"),
                       ("energy_series", "analysis.energy_series"),
                       ("energy", "analysis.energy_series")):
        tracer.patch(analysis, attr, tracer.timed(name, getattr(analysis, attr)))

    # verify: each suite as run_suite finds it
    for key in list(verify.SUITES):
        tracer.patch_item(verify.SUITES, key,
                          tracer.timed(f"verify.suite.{key}", verify.SUITES[key]))

    # cli
    for attr, name in (("main", "cli.main"), ("cmd_table", "cli.table"),
                       ("cmd_verify", "cli.verify")):
        tracer.patch(cli, attr, tracer.timed(name, getattr(cli, attr)))


# ---------------------------------------------------------------- metrics


def round_metrics(setup: Spans, r: Spans, algorithm_names, suite_names) -> dict:
    """Per-layer metrics of one traced round. Object building also counts
    what set-up built."""
    m = {
        "objectives.grad_calls": r.count("objectives.grad"),
        "objectives.grad_us": r.per_call_us("objectives.grad"),
        "objectives.eval_calls": r.count("objectives.eval"),
        "objectives.eval_us": r.per_call_us("objectives.eval"),
        "objectives.build_s": (setup.total_ns("objectives.build")
                               + r.total_ns("objectives.build")) / 1e9,
        "schedules.coeffs_at_calls": r.count("schedules.coeffs_at"),
        "schedules.coeffs_at_us": r.per_call_us("schedules.coeffs_at"),
        "schedules.make_schedule_calls": r.count("schedules.make_schedule"),
        "schedules.make_schedule_us": r.per_call_us("schedules.make_schedule"),
        "schedules.check_assumptions_calls": r.count("schedules.check_assumptions"),
        "schedules.check_assumptions_s": r.total_ns("schedules.check_assumptions") / 1e9,
        "schedules.scan_ns_per_n": (r.total_ns("schedules.check_assumptions")
                                    / max(r.counters.get("schedules.scanned_n", 0), 1)),
        "algorithms.run_calls": r.count("algorithms.run"),
        "algorithms.iterates": r.counters.get("algorithms.iterates", 0),
        "algorithms.run_self_us_per_iter": (
            r.self_ns("algorithms.run") / 1e3
            / max(r.counters.get("algorithms.iterates", 0), 1)),
    }
    for name in algorithm_names:
        m[f"algorithms.step_us.{name}"] = r.per_call_us(f"algorithms.step.{name}")
    m["algorithms.trajectory_mb"] = r.counters.get("algorithms.trajectory_bytes", 0) / _MB
    for key in ("symplectic_step", "forward_euler_step", "rk4_step"):
        m[f"splitting.{key}_calls"] = r.count(f"splitting.{key}")
        m[f"splitting.{key}_us"] = r.per_call_us(f"splitting.{key}")
    m["constructions.construction_s"] = r.total_ns("constructions.construction") / 1e9
    m["constructions.integrate_s"] = r.total_ns("constructions.integrate") / 1e9
    for key in ("descent_lemma", "quadratic_lemma"):
        m[f"analysis.{key}_calls"] = r.count(f"analysis.{key}")
        m[f"analysis.{key}_us"] = r.per_call_us(f"analysis.{key}")
    m["analysis.energy_series_s"] = r.total_ns("analysis.energy_series") / 1e9
    for suite in suite_names:
        m[f"verify.suite_s.{suite}"] = r.total_ns(f"verify.suite.{suite}") / 1e9
    m["cli.table_s"] = r.total_ns("cli.table") / 1e9
    m["cli.self_s"] = r.self_ns("cli.main", "cli.table", "cli.verify") / 1e9
    return m


def is_count(key: str) -> bool:
    return key.endswith("_calls") or key in ("algorithms.iterates",
                                             "algorithms.trajectory_mb")


def combine(rounds: list) -> dict:
    """Counts from the first round (they repeat exactly from round to
    round), everything else as the median over rounds."""
    return {k: rounds[0][k] if is_count(k) else float(np.median([r[k] for r in rounds]))
            for k in rounds[0]}


def counts_of(spans: Spans) -> dict:
    """Every span count and counter of one round, for the repeat check."""
    counts = dict(zip(spans.names, np.bincount(spans.name_id,
                                               minlength=len(spans.names)).tolist()))
    counts.update(spans.counters)
    return counts
