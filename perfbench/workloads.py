"""The three workloads, each driving splitgrad through its public entry points.

A workload builds its inputs once (set-up), then runs whole rounds of the
same work. `round` returns the seconds the program spent, a digest of its
outputs (equal from round to round when the program is deterministic), and
the program's exit code. The first round also leaves the outputs the checker
reads in the output directory. Every splitgrad function is looked up at call
time, so the wrappers of a traced run are the ones called.
"""

from __future__ import annotations

import hashlib
import io
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import inputs


class Reproduce:
    """`splitgrad table --infer-s`, in-process through cli.main."""

    def __init__(self, sg, seed: int, out: Path):
        self.sg = sg
        self.out = out / "table"
        self.argv = ["table", "--infer-s", "--out", str(self.out)]

    def round(self, first: bool):
        with redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc = self.sg.cli.main(self.argv)
            wall = time.perf_counter() - t0
        digest = hashlib.sha256((self.out / "tables.csv").read_bytes()).hexdigest()
        return wall, digest, rc


class Certify:
    """`splitgrad verify all --seed <seed>`, in-process through cli.main."""

    def __init__(self, sg, seed: int, out: Path):
        self.sg = sg
        self.report = out / "verify.txt"
        self.argv = ["verify", "all", "--seed", str(seed)]

    def round(self, first: bool):
        buf = io.StringIO()
        with redirect_stdout(buf):
            t0 = time.perf_counter()
            rc = self.sg.cli.main(self.argv)
            wall = time.perf_counter() - t0
        text = buf.getvalue()
        if first:
            self.report.write_text(text)
        # the last line carries the elapsed time, which differs between rounds
        checks = text.rstrip("\n").rsplit("\n", 1)[0]
        return wall, hashlib.sha256(checks.encode()).hexdigest(), rc


class Quad1000:
    """Each algorithm from x0 on the seeded dim-1000 quadratic at s = 1/(2L)."""

    def __init__(self, sg, seed: int, out: Path):
        self.sg = sg
        self.out = out
        a, b, self.x0 = inputs.quad_problem(seed)
        self.obj = sg.objectives.quadratic(a, b)

    def round(self, first: bool):
        algorithms, schedules = self.sg.algorithms, self.sg.schedules
        wall = 0.0
        digest = hashlib.sha256()
        for name in inputs.ALGORITHMS:
            t0 = time.perf_counter()
            sched = (schedules.make_schedule("e25", s=inputs.QUAD_S, alpha=3.0,
                                             **inputs.QUAD_E25)
                     if name == "lt_s_igahd" else None)
            stepper = algorithms.make_stepper(name, inputs.QUAD_S, schedule=sched)
            traj, _ = algorithms.run(stepper, self.obj, self.x0, inputs.QUAD_S,
                                     algorithms.StoppingRule("max_iter"),
                                     max_iter=inputs.quad_iterates(name))
            wall += time.perf_counter() - t0
            if first:
                np.save(self.out / f"{name}.npy", traj.xs)
            digest.update(traj.xs)
            del traj
        return wall, digest.hexdigest(), 0


WORKLOADS = {"reproduce": Reproduce, "certify": Certify, "quad1000": Quad1000}
