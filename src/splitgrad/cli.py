"""Command-line harness.

Subcommands: run (single trajectory), table (recorded benchmark rows),
sweep (parameter grids), verify (named check suites),
ode-compare (continuous-time route comparison at three grids).

Every report and CSV is written without timestamps and with floats at 17
significant digits, so re-running a command reproduces the output files
bit for bit.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import algorithms, analysis, schedules, verify
from .cases import TableCase, all_cases
from .objectives import make_objective


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    if isinstance(v, (list, tuple, np.ndarray)):
        return ",".join(_fmt(x) for x in v)
    return str(v)


def _dumps(v, **kw) -> str:
    """Sorted-key JSON of v, whose numpy scalars and arrays go as their values."""
    return json.dumps(v, sort_keys=True, default=lambda x: x.tolist(), **kw)


def _parse_vec(option: str, value, dim: int) -> np.ndarray:
    """A point of dimension `dim`, from comma-separated text or a config's
    list; ValueError naming `option` otherwise."""
    parts = value.split(",") if isinstance(value, str) else value   # or a config's list
    try:
        vec = np.array([float(p) for p in parts], dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{option}: expected a vector, got {value!r}") from None
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"{option} must hold finite numbers, got {value!r}")
    if vec.shape != (dim,):
        raise ValueError(f"{option} must be a point of dimension {dim}, got {value!r}")
    return vec


def _parse_json(text, what: str = "a JSON object"):
    """Inline JSON, or else the JSON held in the file the text names."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        pass
    try:
        return json.loads(Path(text).read_text())
    except OSError as e:
        raise ValueError(f"expected {what} or a readable JSON file, got {text!r} "
                         f"({e.strerror})") from None
    except json.JSONDecodeError as e:
        raise ValueError(f"{text}: not valid JSON ({e})") from None


def _parse_params(text) -> dict:
    return _as_params(_parse_json(text), "parameter payload")


def _as_params(obj, label: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"{label} must be a JSON object")
    return obj


def _finite(option: str, value) -> float:
    """`value` as a float when it is a finite number; ValueError naming
    `option` otherwise."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    # an exact comparison, so that an int beyond the float range fails it too
    if not (number and abs(value) <= sys.float_info.max):
        raise ValueError(f"{option} must be a finite number, got {value!r}")
    return float(value)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _emit_report(out_dir: Path, payload: dict) -> None:
    """Text report in insertion order plus a sorted-key JSON twin; the text
    is also echoed to stdout."""
    txt = "".join(f"{k}: {_fmt(v)}\n" for k, v in payload.items())
    (out_dir / "report.txt").write_text(txt)
    (out_dir / "report.json").write_text(_dumps(payload, indent=2) + "\n")
    sys.stdout.write(txt)


def _cfg(args, config: dict, key: str, default):
    v = getattr(args, key, None)
    if v is not None:
        return v
    return config.get(key, default)


# ---------------------------------------------------------------- run


def cmd_run(args) -> int:
    config = _parse_params(args.config) if args.config else {}
    # a config holds run options, and objective_params, which only it can give
    known = (set(vars(args)) - {"command", "func", "config"}) | {"objective_params"}
    unknown = sorted(set(config) - known)
    if unknown:
        raise ValueError(f"--config keys that are not run options: {', '.join(unknown)}")
    obj = make_objective(_cfg(args, config, "objective", "f2"),
                         **_as_params(config.get("objective_params", {}), "objective_params"))
    algorithm = _cfg(args, config, "algorithm", "agm2")
    if algorithm not in algorithms.ALGORITHM_NAMES:
        raise ValueError(f"--algorithm must be one of {algorithms.ALGORITHM_NAMES}, "
                         f"got {algorithm!r}")
    # an option of a method parameter applies only to the methods whose row takes it
    takes = algorithms._METHODS[algorithm].takes
    for key in ("beta", "gamma", "schedule", "schedule_params"):
        param = key.removesuffix("_params")
        if _cfg(args, config, key, None) is not None and param not in takes:
            methods = sorted(m for m, row in algorithms._METHODS.items() if param in row.takes)
            raise ValueError(f"--{key.replace('_', '-')} applies only to "
                             f"{' and '.join(methods)}, not to {algorithm}")
    s = _finite("--s", _cfg(args, config, "s", 0.1))
    alpha = _finite("--alpha", _cfg(args, config, "alpha", 3.0))
    algorithms.check_alpha(algorithm, alpha, "--alpha")
    x0 = _parse_vec("--x0", _cfg(args, config, "x0", "1,-2"), obj.dim)
    epsilon = _finite("--epsilon", _cfg(args, config, "epsilon", 1e-10))
    max_iter = algorithms.check_max_iter(_cfg(args, config, "max_iter", 50000))
    stop_kind = _cfg(args, config, "stop", algorithms.default_stop(obj))
    out = _cfg(args, config, "out", "out")
    if not isinstance(out, str):
        raise ValueError(f"--out must be a path, got {out!r}")
    out_dir = Path(out)
    record_energy = _cfg(args, config, "record_energy", False)
    if not isinstance(record_energy, bool):
        raise ValueError(f"--record-energy must be true or false, got {record_energy!r}")
    if record_energy:
        schedules.check_alpha(alpha, "--alpha", "the energy")

    algorithms.check_stepsize(s, obj)
    sched_label = _cfg(args, config, "schedule", None)
    if sched_label is not None and sched_label not in schedules.FAMILY_LABELS:
        raise ValueError(f"--schedule must be one of {schedules.FAMILY_LABELS}, "
                         f"got {sched_label!r}")
    sched_params = _parse_params(args.schedule_params) if args.schedule_params \
        else _as_params(config.get("schedule_params", {}), "schedule_params")
    for key, value in sched_params.items():
        _finite(f"--schedule-params {key}", value)
    sched = None
    if sched_label is not None:
        sched = schedules.make_schedule(sched_label, s=s, alpha=alpha, **sched_params)

    beta = _finite("--beta", _cfg(args, config, "beta", 1.0))
    gamma = _finite("--gamma", _cfg(args, config, "gamma", 1.0))
    keywords = {"alpha": alpha, "schedule": sched, "beta": beta, "gamma": gamma}
    (traj,), (res,) = algorithms.run_methods(obj, [(algorithm, s, keywords)], x0,
                                             algorithms.StoppingRule(stop_kind, epsilon),
                                             max_iter, record=True)

    out_dir.mkdir(parents=True, exist_ok=True)
    dim = obj.dim
    fgaps = traj.fgaps() if obj.f_min is not None else np.full(traj.n_final + 1, np.nan)
    vels = traj.velocities(s)
    gnorms = traj.grad_norms()
    header = (["n"] + [f"x{i}" for i in range(dim)] + ["f", "fgap", "gradnorm"]
              + [f"v{i}" for i in range(dim)])
    e_col = None
    if record_energy:
        x_star = obj.argmin_point if obj.argmin_kind == "unique" else None
        # the energy takes lambda_n from the coefficients the run stepped by
        coeffs = algorithms.coefficient_map(algorithm, s, **keywords)
        series = analysis.energy_series(traj, s, alpha, coeffs, x_star=x_star)
        e_col = np.full(traj.n_final + 1, np.nan)
        e_col[series.n_start:series.n_start + len(series.e_seq)] = series.e_seq
        header.append("E")
    rows = []
    for n in range(traj.n_final + 1):
        row = [n] + list(traj.xs[n]) + [float(traj.fs[n]), float(fgaps[n]),
                                        float(gnorms[n])] + list(vels[n])
        if e_col is not None:
            row.append(float(e_col[n]))
        rows.append(row)
    _write_csv(out_dir / "trajectory.csv", header, rows)

    payload = {
        "command": "run", "objective": obj.name, "algorithm": algorithm,
        "schedule": sched_label if sched_label is not None else "",
        "schedule_params": _dumps(sched_params),
        "s": s, "alpha": alpha, "x0": x0, "stop": stop_kind, "epsilon": epsilon,
        "max_iter": max_iter,
        "termination": res.termination, "n_final": res.n_final,
        "error_final": res.error_final, "f_final": float(traj.fs[-1]),
        "fgap_final": float(fgaps[-1]), "gradnorm_final": float(gnorms[-1]),
        "x_final": traj.xs[-1],
    }
    if sched is not None:
        rep = schedules.check_assumptions(sched, obj.lipschitz,
                                          n_max=schedules.scan_end(res.n_final, alpha))
        payload.update({"n1": rep.n1, "n2": rep.n2, "n_prime": rep.n_prime,
                        "n_threshold": rep.n_threshold,
                        "assumption_i_holds_from": rep.assumption_i_holds_from,
                        "assumption_ii_exact": rep.assumption_ii_exact})
    payload["files"] = "trajectory.csv,report.txt,report.json"
    _emit_report(out_dir, payload)
    return 0


# ---------------------------------------------------------------- table


def _n2_at_stops(runs, lipschitz, alpha: float) -> np.ndarray:
    """N2 at the stop index of each of `runs` ((Schedule, RunResult) pairs
    on objectives of Lipschitz constant `lipschitz`, a number or one per
    run), from one `schedules.coeffs_of` call; nan for a run whose G_n <= 0
    there, where N2 is undefined."""
    n = np.array([[res.n_final] for _, res in runs], dtype=float)
    _, lam, om, gam = schedules.coeffs_of([sched.coeffs_at for sched, _ in runs], n)[0]
    s = np.array([sched.s for sched, _ in runs])
    with np.errstate(over="ignore"):   # coefficients past the float range give G_n = -inf
        g, h, i = schedules.gn_hn_in(s, lipschitz, gam, lam, om)
    out = np.full(len(runs), np.nan)
    ok = g > 0.0
    if ok.any():
        out[ok] = schedules.n2(alpha, g[ok], h[ok], i[ok])
    return out


def _match2(value: float, ref: float) -> bool:
    return f"{value:.2f}" == f"{ref:.2f}"


def _scan_cells(case: TableCase, n_grid: int = 60):
    """The cells of a row's stepsize scan: n_grid stepsizes evenly inside
    (0, 1/L) under the row's schedule."""
    hi = 1.0 / make_objective(case.objective).lipschitz
    params = case.schedule_params()
    return [(case.schedule, params, hi * k / (n_grid + 1)) for k in range(1, n_grid + 1)]


def _infer_s(cases, alpha: float, max_iter: int):
    """Each row's scanned stepsize whose terminal-iteration N2 is nearest
    the recorded one, with that N2: (s_best, n2_at_stop_best) per case. The
    scans of all the rows that share an objective and epsilon run as the
    lanes of one batch (`verify.run_case_cells`). A stepsize that diverges,
    or whose N2 is undefined at its stop, is skipped."""
    def best(case, obj, runs):
        runs = [(sched, res) for sched, res in runs if res.termination != "diverged"]
        if not runs:
            return np.nan, np.nan
        vals = _n2_at_stops(runs, obj.lipschitz, alpha)
        gaps = np.abs(vals - case.ref_n2)
        k = int(np.argmin(np.where(np.isnan(gaps), np.inf, gaps)))
        return (runs[k][0].s, float(vals[k])) if gaps[k] < np.inf else (np.nan, np.nan)

    return verify.run_case_cells(cases, _scan_cells, alpha, max_iter, best)


# JSON types accepted for each annotated TableCase field type
_CASE_FIELD_TYPES = {"int": int, "float": (int, float), "str": str}


def _load_cases(text) -> list:
    """Table rows from inline JSON or a JSON file: a list of objects with
    exactly the fields of `TableCase`, each of its declared type."""
    raw = _parse_json(text, "a JSON list of table rows")
    if not isinstance(raw, list):
        raise ValueError("table cases must be a JSON list of objects")
    cases = []
    for i, row in enumerate(raw):
        try:
            case = TableCase(**_as_params(row, f"table case {i}"))
        except TypeError as e:
            raise ValueError(f"table case {i}: {e}") from None
        for field in dataclasses.fields(TableCase):
            v = row[field.name]
            if isinstance(v, bool) or not isinstance(v, _CASE_FIELD_TYPES[field.type]):
                raise ValueError(f"table case {i}: {field.name} must be a {field.type}, "
                                 f"got {v!r}")
        cases.append(case)
    return cases


def cmd_table(args) -> int:
    cases = _load_cases(args.cases) if args.cases else list(all_cases())
    if args.table is not None:
        cases = [c for c in cases if c.table == args.table]
    if not cases:
        raise ValueError("no table rows to run")
    s, alpha = _finite("--s", args.s), _finite("--alpha", args.alpha)
    max_iter = algorithms.check_max_iter(args.max_iter)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    header = ["case", "table", "group", "objective", "schedule", "mu", "a", "b",
              "epsilon", "s", "termination", "n_final", "error",
              "below_print_precision", "n1", "n2_scan", "n2_at_stop", "nprime",
              "nprime_alt", "n_threshold", "ref_error", "ref_n2", "ref_nprime",
              "ref_n", "match_error", "match_n2", "match_nprime", "match_n"]
    if args.infer_s:
        header += ["s_best", "n2_at_stop_best"]
    rows = []
    n_met = 0
    n_matched_n = 0
    runs = verify.run_cases(cases, s, alpha, max_iter)
    scans = _infer_s(cases, alpha, max_iter) if args.infer_s else [()] * len(cases)
    n2_stops = _n2_at_stops([run for _, run in runs],
                            np.array([obj.lipschitz for obj, _ in runs]), alpha)
    for case, (obj, (sched, res)), scan, n2_stop in zip(cases, runs, scans, n2_stops.tolist()):
        lip = obj.lipschitz
        rep = schedules.check_assumptions(sched, lip,
                                          n_max=schedules.scan_end(res.n_final, alpha))
        npr_alt = schedules.n_prime_reference_variant(sched, lip)
        n_rec = max(v for v in (rep.n1, n2_stop, npr_alt) if not np.isnan(v))
        below = res.error_final < 1e-15
        m_err = (f"{res.error_final:.1e}" == f"{case.ref_error:.1e}"
                 if case.ref_error > 0.0 else below)
        m_n2 = _match2(n2_stop, case.ref_n2)
        m_npr = _match2(npr_alt, case.ref_nprime)
        m_n = _match2(n_rec, case.ref_n)
        n_met += res.termination == "tolerance_met"
        n_matched_n += m_n
        row = [case.label, case.table, case.group, case.objective, case.schedule,
               case.mu, case.a, case.b, case.epsilon, s, res.termination,
               res.n_final, res.error_final, below, rep.n1, rep.n2, n2_stop, rep.n_prime,
               npr_alt, rep.n_threshold, case.ref_error, case.ref_n2,
               case.ref_nprime, case.ref_n, m_err, m_n2, m_npr, m_n]
        rows.append(row + list(scan))
    _write_csv(out_dir / "tables.csv", header, rows)
    _emit_report(out_dir, {
        "command": "table", "rows": len(rows), "s": s, "alpha": alpha,
        "max_iter": max_iter, "tolerance_met": n_met,
        "threshold_matches_at_2dp": n_matched_n,
        "infer_s": bool(args.infer_s),
        "files": "tables.csv,report.txt,report.json",
    })
    return 0


# ---------------------------------------------------------------- sweep


def cmd_sweep(args) -> int:
    grid = _parse_params(args.grid)
    if not grid:
        raise ValueError("sweep needs a non-empty --grid JSON object")
    keys = sorted(grid)
    for k in keys:
        option = {"s": "--s", "alpha": "--alpha", "label": "--schedule"}.get(k)
        if option:
            raise ValueError(f"grid key {k!r} cannot be swept: {option} sets it for every cell")
        if not isinstance(grid[k], (list, tuple)) or not grid[k]:
            raise ValueError(f"grid entry {k!r} must be a non-empty list")
    points = [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]
    obj = make_objective(args.objective)
    x0 = _parse_vec("--x0", args.x0, obj.dim)
    s, alpha = _finite("--s", args.s), _finite("--alpha", args.alpha)
    max_iter = algorithms.check_max_iter(args.max_iter)
    stopping = algorithms.StoppingRule(algorithms.default_stop(obj), args.epsilon)
    # each cell's schedule, or the exception that rejected its stepsize or
    # schedule, which becomes an error row; the schedules run as one batch
    built = []
    for params in points:
        try:
            algorithms.check_stepsize(s, obj)
            built.append(schedules.make_schedule(args.schedule, s=s, alpha=alpha, **params))
        except Exception as e:  # the cell's own inputs: reported, not raised
            built.append(e)
    scheds = [sch for sch in built if isinstance(sch, schedules.Schedule)]
    _, results = algorithms.run_methods(
        obj, [("lt_s_igahd", sch.s, {"alpha": alpha, "schedule": sch}) for sch in scheds], x0,
        stopping, max_iter)
    results = iter(results)
    rows = []
    for params, sched in zip(points, built):
        if isinstance(sched, Exception):
            tail = ["error", "", -1] + [np.nan] * 5 + [f"{type(sched).__name__}: {sched}"]
        else:
            res = next(results)
            rep = schedules.check_assumptions(sched, obj.lipschitz,
                                              n_max=schedules.scan_end(res.n_final, alpha))
            tail = ["ok", res.termination, res.n_final, res.error_final, rep.n1, rep.n2,
                    rep.n_prime, rep.n_threshold, ""]
        rows.append([params[k] for k in keys] + tail)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = keys + ["status", "termination", "n_final", "error", "n1", "n2",
                     "n_prime", "n_threshold", "message"]
    _write_csv(out_dir / "sweep.csv", header, rows)
    _emit_report(out_dir, {
        "command": "sweep", "schedule": args.schedule,
        "objective": args.objective, "s": s, "alpha": alpha,
        "cells": len(built), "errors": len(built) - len(scheds),
        "files": "sweep.csv,report.txt,report.json",
    })
    return 0


# ---------------------------------------------------------------- verify


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    results = verify.run_suite(args.suite, seed=args.seed)
    print(verify.format_report(results, time.monotonic() - t0))
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------- ode-compare


def cmd_ode_compare(args) -> int:
    obj = make_objective(args.objective)
    alpha, beta, t0, t1, dt0 = (_finite(f"--{key}", getattr(args, key))
                                for key in ("alpha", "beta", "t0", "t1", "dt"))
    x0 = _parse_vec("--x0", args.x0, obj.dim)
    v0 = _parse_vec("--v0", args.v0, obj.dim) if args.v0 is not None else np.zeros(obj.dim)
    gaps, orders, finest = verify.ode_route_gaps(obj, x0, v0, alpha, beta, t0, t1, dt0)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "ode_compare.csv", ["dt", "sup_gap", "order"],
               [[dt0, gaps[0], np.nan], [dt0 / 2.0, gaps[1], orders[0]],
                [dt0 / 4.0, gaps[2], orders[1]]])
    dim = obj.dim
    fmin = obj.f_min
    header = ["t"] + [f"x{i}" for i in range(dim)] + [f"v{i}" for i in range(dim)] \
        + ["fgap"]
    rows = [[float(finest.ts[k])] + list(finest.xs[k]) + list(finest.vs[k])
            + [obj.eval(finest.xs[k]) - fmin if fmin is not None else np.nan]
            for k in range(len(finest.ts))]
    _write_csv(out_dir / "trajectory.csv", header, rows)
    _emit_report(out_dir, {
        "command": "ode-compare", "objective": obj.name, "alpha": alpha,
        "beta": beta, "t0": t0, "t1": t1, "dt": dt0,
        "sup_gap_dt": gaps[0], "sup_gap_dt2": gaps[1], "sup_gap_dt4": gaps[2],
        "order_1": orders[0], "order_2": orders[1],
        "files": "ode_compare.csv,trajectory.csv,report.txt,report.json",
    })
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitgrad",
        description="Inertial gradient algorithms from operator splitting: "
                    "run, benchmark, sweep, and verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one algorithm and export the trajectory")
    p_run.add_argument("--objective", help="f1, f2, or quadratic (params via --config)")
    p_run.add_argument("--algorithm", choices=algorithms.ALGORITHM_NAMES)
    p_run.add_argument("--schedule", choices=schedules.FAMILY_LABELS,
                       help="coefficient family label")
    p_run.add_argument("--schedule-params", help="JSON object or file with family parameters")
    p_run.add_argument("--s", type=float, help="stepsize, strictly inside (0, 1/L)")
    p_run.add_argument("--alpha", type=float)
    p_run.add_argument("--x0", help="comma-separated start point")
    p_run.add_argument("--epsilon", type=float)
    p_run.add_argument("--max-iter", type=int, dest="max_iter")
    p_run.add_argument("--stop", choices=("consecutive_f", "known_min_f", "max_iter"))
    p_run.add_argument("--beta", type=float, help="damping weight for igahd variants")
    p_run.add_argument("--gamma", type=float, help="friction for the proximal inertial map")
    p_run.add_argument("--record-energy", action="store_true", default=None,
                       help="add the Lyapunov energy column to the CSV")
    p_run.add_argument("--config", help="JSON file with any of the above keys")
    p_run.add_argument("--out")
    p_run.set_defaults(func=cmd_run)

    p_tab = sub.add_parser("table", help="re-run the recorded benchmark rows")
    p_tab.add_argument("--cases", help="JSON list (or file) overriding the built-in rows")
    p_tab.add_argument("--table", type=int, choices=(1, 2, 3, 4))
    p_tab.add_argument("--s", type=float, default=0.1)
    p_tab.add_argument("--alpha", type=float, default=3.0)
    p_tab.add_argument("--max-iter", type=int, dest="max_iter", default=30000)
    p_tab.add_argument("--infer-s", action="store_true",
                       help="also scan stepsizes to best match the recorded N2")
    p_tab.add_argument("--out", default="out")
    p_tab.set_defaults(func=cmd_table)

    p_sw = sub.add_parser("sweep", help="grid sweep over schedule parameters")
    p_sw.add_argument("--schedule", required=True, choices=schedules.FAMILY_LABELS)
    p_sw.add_argument("--grid", required=True,
                      help="JSON object mapping parameter names to value lists")
    p_sw.add_argument("--objective", default="f2")
    p_sw.add_argument("--s", type=float, default=0.1)
    p_sw.add_argument("--alpha", type=float, default=3.0)
    p_sw.add_argument("--x0", default="1,-2")
    p_sw.add_argument("--epsilon", type=float, default=1e-10)
    p_sw.add_argument("--max-iter", type=int, dest="max_iter", default=30000)
    p_sw.add_argument("--out", default="out")
    p_sw.set_defaults(func=cmd_sweep)

    p_ver = sub.add_parser("verify", help="run a named verification suite")
    p_ver.add_argument("suite", choices=sorted(verify.SUITES) + ["all"])
    p_ver.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p_ver.set_defaults(func=cmd_verify)

    p_ode = sub.add_parser("ode-compare",
                           help="compare the two continuous-time formulations")
    p_ode.add_argument("--objective", default="f1")
    p_ode.add_argument("--alpha", type=float, default=3.0)
    p_ode.add_argument("--beta", type=float, default=0.1)
    p_ode.add_argument("--t0", type=float, default=1.0)
    p_ode.add_argument("--t1", type=float, default=10.0)
    p_ode.add_argument("--dt", type=float, default=1e-2)
    p_ode.add_argument("--x0", default="1,-2")
    p_ode.add_argument("--v0", help="default: zero")
    p_ode.add_argument("--out", default="out")
    p_ode.set_defaults(func=cmd_ode_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
