"""Workload inputs, made from the benchmark's --seed alone.

Shared by the workload process, which hands the inputs to the program, and
by the checker, which rebuilds them to compute its own reference answers.
Imports nothing from `splitgrad`.
"""

from __future__ import annotations

import numpy as np

# reproduce: one operation per recorded table row.
REPRODUCE_ROWS = 28

# certify: every suite; the suite seed is the benchmark seed.
CERTIFY_SUITES = ("nesterov-split", "constructions", "ode", "energy", "rate",
                  "assumption-exact", "threshold-scan", "lemmas", "fixed-points",
                  "tables", "symplectic")
CERTIFY_CHECKS = 70

# quad1000: f(x) = x'Ax/2 + b'x with A = H2 H1 D H1 H2 for two seeded
# Householder reflections H = I - 2vv' and D a fixed geometric spectrum on
# [1e-3, 1], so L = 1 and the condition number is 1e3 whatever the seed.
# b = -A x_t for a seeded x_t, so the linear term is nonzero and x* = x_t.
QUAD_DIM = 1000
QUAD_EIG_MIN = 1e-3
QUAD_EIG_MAX = 1.0
QUAD_S = 0.5 / QUAD_EIG_MAX            # s = 1/(2L)
QUAD_E25 = {"beta": 0.2 * float(np.sqrt(QUAD_S)), "b": 1.0, "mu": 0.1}
# agm2 runs long enough that its trajectory storage, not set-up, sets the
# peak resident set; every other algorithm takes QUAD_SHORT iterates.
QUAD_LONG = 2000
QUAD_SHORT = 150
# splitgrad's ALGORITHM_NAMES, in its order; quad1000 runs each of them.
ALGORITHMS = ("agm2", "lt_s_igahd", "lt_se1", "lt_sv2", "ardm", "lt_se3", "pim",
              "polyak_igahd", "igahd", "nag")


def quad_iterates(name: str) -> int:
    return QUAD_LONG if name == "agm2" else QUAD_SHORT


def _reflect(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """H m H for H = I - 2vv' (|v| = 1) and symmetric m, as a rank-2 update."""
    w = m @ v
    u = 2.0 * (v @ w) * v - 2.0 * w
    m += np.outer(v, u)
    m += np.outer(u, v)
    return m


def quad_problem(seed: int):
    """(A, b, x0) of the quad1000 workload."""
    rng = np.random.default_rng([seed, QUAD_DIM])
    a = np.diag(np.geomspace(QUAD_EIG_MIN, QUAD_EIG_MAX, QUAD_DIM))
    for _ in range(2):
        v = rng.standard_normal(QUAD_DIM)
        a = _reflect(a, v / np.linalg.norm(v))
    a = 0.5 * (a + a.T)
    x_t = rng.standard_normal(QUAD_DIM)
    return a, -(a @ x_t), np.zeros(QUAD_DIM)
