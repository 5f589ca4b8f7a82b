"""Correctness checks of one round's outputs against `reference`.

Each check function returns (failed, problems): how many of the workload's
operations (table rows, verify checks, algorithm runs) failed their check,
and one line per problem found.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

import inputs
import reference as ref

TABLE_X0 = (1.0, -2.0)       # start point of every table row
TABLE_MAX_ITER = 30000       # the table command's default iteration cap
REL = 1e-12


def _close(value: float, want: float, rel: float = REL) -> bool:
    return abs(value - want) <= rel * max(1.0, abs(want))


# ---------------------------------------------------------------- reproduce


def _check_row(row: dict) -> list:
    problems = []
    objective, label = row["objective"], row["schedule"]
    params = {k: float(row[k]) for k in ("a", "b", "mu")}
    s, eps = float(row["s"]), float(row["epsilon"])
    lip = ref.LIPSCHITZ[objective]
    n_final, err = int(row["n_final"]), float(row["error"])

    if row["termination"] != "tolerance_met":
        problems.append(f"termination {row['termination']}")
    if not (err <= eps or err < 1e-15):
        problems.append(f"error {err} above epsilon {eps}")

    coeff = ref.coeffs(label, params, s)
    term, n_ref, err_ref, _ = ref.planar_run(objective, coeff, s, TABLE_X0, eps, TABLE_MAX_ITER)
    if (term, n_ref) != (row["termination"], n_final):
        problems.append(f"stop ({row['termination']}, {n_final}) vs reference ({term}, {n_ref})")
    if not abs(err - err_ref) <= 1e-6 * eps:
        problems.append(f"final error {err} vs reference {err_ref}")

    for column, want in (("n1", ref.n1()),
                         ("nprime", ref.n_prime(label, params, s, lip)),
                         ("nprime_alt", ref.n_prime_alt(label, params, s, lip)),
                         ("n2_at_stop", ref.n2_at(coeff, s, lip, n_final))):
        if not _close(float(row[column]), want):
            problems.append(f"{column} {row[column]} vs reference {want!r}")

    s_best = float(row["s_best"])
    if not 0.0 < s_best < 1.0 / lip:
        problems.append(f"s_best {s_best} outside (0, 1/L)")
    else:
        coeff_b = ref.coeffs(label, params, s_best)
        _, n_b, _, _ = ref.planar_run(objective, coeff_b, s_best, TABLE_X0, eps, TABLE_MAX_ITER)
        want = ref.n2_at(coeff_b, s_best, lip, n_b)
        if not _close(float(row["n2_at_stop_best"]), want):
            problems.append(f"n2_at_stop_best {row['n2_at_stop_best']} vs reference {want!r}")
    return problems


def check_reproduce(out: Path, seed: int, exit_code: int):
    with open(out / "table" / "tables.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = [] if exit_code == 0 else [f"table exited {exit_code}"]
    failed = max(inputs.REPRODUCE_ROWS - len(rows), 0)
    for row in rows[:inputs.REPRODUCE_ROWS]:
        row_problems = _check_row(row)
        failed += bool(row_problems)
        problems += [f"{row['case']}: {p}" for p in row_problems]
    if len(rows) != inputs.REPRODUCE_ROWS:
        problems.append(f"{len(rows)} table rows, expected {inputs.REPRODUCE_ROWS}")
    return failed, problems


# ---------------------------------------------------------------- certify

# first component of a check name -> the suite that reports it
SUITE_OF = {"nesterov-split": "nesterov-split", "construction": "constructions",
            "ode": "ode", "energy": "energy", "rate": "rate",
            "assumption-exact": "assumption-exact", "threshold-scan": "threshold-scan",
            "lemmas": "lemmas", "fixed-points": "fixed-points", "table": "tables",
            "symplectic": "symplectic"}


def check_certify(out: Path, seed: int, exit_code: int):
    lines = (out / "verify.txt").read_text().splitlines()
    checks = [ln for ln in lines if ln.startswith(("PASS  ", "FAIL  "))]
    problems = [ln for ln in checks if ln.startswith("FAIL")]
    failed = len(problems) + max(inputs.CERTIFY_CHECKS - len(checks), 0)
    if len(checks) != inputs.CERTIFY_CHECKS:
        problems.append(f"{len(checks)} checks reported, expected {inputs.CERTIFY_CHECKS}")
    per_suite = {suite: 0 for suite in inputs.CERTIFY_SUITES}
    for ln in checks:
        suite = SUITE_OF.get(ln[6:].split("/", 1)[0])
        if suite is None:
            problems.append(f"check of no known suite: {ln}")
        else:
            per_suite[suite] += 1
    problems += [f"suite {s} reported no check" for s, n in per_suite.items() if n == 0]
    if exit_code != (1 if failed else 0):
        problems.append(f"verify exited {exit_code} with {failed} failed checks")
    return failed, problems


# ---------------------------------------------------------------- quad1000


def _energy_problems(xs, gaps, lams, a, b, x_star, n0):
    """Energy non-increase from n0 on, and f(x_n) - f* <= E_n0 (alpha-1)^2/(n-1)^2."""
    grads = xs @ a + b
    e = ref.energy(xs, grads, gaps, lams, x_star, inputs.QUAD_S)   # e[k] = E_{k+1}
    e0 = e[n0 - 1]
    problems = []
    rise = np.diff(e[n0 - 1:])
    if np.any(rise > 1e-12 * e0):
        problems.append(f"energy rises by {rise.max():.3e} after n0 = {n0}")
    ns = np.arange(n0, len(xs))
    bound = e0 * (ref.ALPHA - 1.0) ** 2 / (ns - 1.0) ** 2
    bad = np.nonzero(gaps[ns] > bound * (1.0 + 1e-12))[0]
    if bad.size:
        problems.append(f"rate bound fails at n = {ns[bad[0]]}")
    return problems


def _check_run(name, xs, a, b, x0, x_star, gap0):
    n_iter = inputs.quad_iterates(name)
    if xs.shape != (n_iter + 1, inputs.QUAD_DIM):
        return [f"trajectory shape {xs.shape}"]
    if not np.all(np.isfinite(xs)):
        return ["non-finite iterate"]
    gaps = ref.dense_gaps(a, xs, x_star)
    problems = [] if gaps[-1] < gap0 else [f"final gap {gaps[-1]:.3e} >= start {gap0:.3e}"]
    if name == "agm2":
        gap = ref.max_rel_gap(xs, ref.agm2_dense(a, b, x0, inputs.QUAD_S, n_iter))
        if gap > REL:
            problems.append(f"relative gap {gap:.3e} to the reference recursion")
        n0 = int(math.floor(ref.n1())) + 1
        problems += _energy_problems(xs, gaps, np.zeros(n_iter), a, b, x_star, n0)
    elif name == "lt_s_igahd":
        coeff = ref.coeffs("e25", inputs.QUAD_E25, inputs.QUAD_S)
        n_thr = ref.threshold(coeff, "e25", inputs.QUAD_E25, inputs.QUAD_S,
                              inputs.QUAD_EIG_MAX, n_iter)
        lams = [coeff(n)[1] for n in range(1, n_iter + 1)]
        problems += _energy_problems(xs, gaps, lams, a, b, x_star, int(math.floor(n_thr)) + 1)
    return problems


def check_quad1000(out: Path, seed: int, exit_code: int):
    a, b, x0 = inputs.quad_problem(seed)
    x_star, _ = ref.dense_minimum(a, b)
    gap0 = float(ref.dense_gaps(a, x0[None, :], x_star)[0])
    failed, problems = 0, []
    for name in inputs.ALGORITHMS:
        path = out / f"{name}.npy"
        run_problems = (_check_run(name, np.load(path), a, b, x0, x_star, gap0)
                        if path.is_file() else ["no trajectory written"])
        failed += bool(run_problems)
        problems += [f"{name}: {p}" for p in run_problems]
    return failed, problems


CHECKS = {"reproduce": (inputs.REPRODUCE_ROWS, check_reproduce),
          "certify": (inputs.CERTIFY_CHECKS, check_certify),
          "quad1000": (len(inputs.ALGORITHMS), check_quad1000)}
