"""Benchmark entry point.

    python3 perfbench/run.py --workload {reproduce,certify,quad1000} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from src/.
With --trace 0 it prints the end-to-end metrics (setup_s, wall_s,
peak_rss_mb); with --trace 1 the per-layer metrics of a traced run. The last
line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads here and inherited by every child.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

SETUP_PROBES = 5          # fresh processes timed per run for setup_s
PROBE_TIMEOUT = 30.0
WORKER_GRACE = 100.0      # seconds a worker may run past --seconds


def metric_units(kind: str) -> dict:
    """Name -> unit of the "end_to_end" or "per_layer" metrics that
    BENCHMARK.json at the checkout root declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def worker(args, out: Path, *extra: str, timeout: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")   # the same str hashing in every process
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=timeout, check=True)


def setup_seconds(args, out: Path) -> float:
    """Median over fresh processes of the time from spawning the
    interpreter to the workload's inputs being ready."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = worker(args, out, "--setup-only", timeout=PROBE_TIMEOUT)
        times.append(json.loads(proc.stdout.splitlines()[-1])["ready"] - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(checks.CHECKS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "splitgrad" / "__init__.py").is_file():
        print(f"perfbench: no splitgrad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out = HERE / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    try:
        setup_s = None if args.trace else setup_seconds(args, out)
        worker(args, out, "--seconds", str(args.seconds), *(["--trace"] if args.trace else []),
               timeout=args.seconds + WORKER_GRACE)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: workload process failed: {e}", file=sys.stderr)
        return 1
    result = json.loads((out / "result.json").read_text())

    per_round, check = checks.CHECKS[args.workload]
    rounds = len(result["walls"])
    failed, problems = check(out, args.seed, result["exit_codes"][0])
    if not result["outputs_repeat"]:
        problems.append("outputs differ between rounds")
    if len(set(result["exit_codes"])) != 1:
        problems.append(f"exit codes differ between rounds: {result['exit_codes']}")
    if result["blas_threads"] not in (1, None):
        problems.append(f"BLAS runs {result['blas_threads']} threads, expected 1")
    if args.trace and not result["counts_repeat"]:
        problems.append("span counts differ between traced rounds")
    for line in problems[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed={args.seed} rounds={rounds} "
          f"blas_threads={result['blas_threads']} walls={result['walls']}", file=sys.stderr)

    # The run's whole rounds taken as one measurement: a median of a handful
    # of rounds jumps between the host's fast and slow phases.
    wall_s = statistics.fmean(result["walls"])
    if args.trace:
        values = dict(result["layers"], **{"trace.wall_s": wall_s})
        units = metric_units("per_layer")
    else:
        values = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": result["peak_rss_mb"]}
        units = metric_units("end_to_end")
    print(json.dumps({
        "correct": not problems,
        "attempted": per_round * rounds,
        "failed": failed * rounds,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
