"""The workload process: set up one workload, then run whole rounds of it.

    python3 perfbench/worker.py --workload W --seed N --out DIR --setup-only
        builds the inputs and prints {"ready": <perf_counter>} (CLOCK_MONOTONIC,
        so the parent can time the whole start-up of this process);
    python3 perfbench/worker.py --workload W --seed N --out DIR --seconds S [--trace]
        runs rounds until the next one would end after S seconds and writes
        DIR/result.json; with --trace every call into splitgrad is a span.

The BLAS thread count comes from the environment run.py sets.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def blas_threads():
    """The thread count the loaded OpenBLAS reports, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for path in libs:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    return int(getattr(lib, sym)())
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import splitgrad as sg
    import splitgrad.cli  # noqa: F401  (the command-line layer and verify)
    import inputs
    import workloads

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer, sg)

    out = Path(args.out)
    wl = workloads.WORKLOADS[args.workload](sg, args.seed, out)
    ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    if tracer is not None:
        setup_spans = tracer.snapshot()
        per_round, counts = [], []

    walls, digests, codes = [], [], []
    t_begin = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.clear()
        wall, digest, rc = wl.round(first=not walls)
        walls.append(wall)
        digests.append(digest)
        codes.append(rc)
        if tracer is not None:
            spans = tracer.snapshot()
            per_round.append(tracing.round_metrics(setup_spans, spans, inputs.ALGORITHMS,
                                                   inputs.CERTIFY_SUITES))
            counts.append(tracing.counts_of(spans))
        elapsed = time.perf_counter() - t_begin
        if elapsed * (len(walls) + 1) / len(walls) > args.seconds:
            break

    result = {
        "walls": walls,
        "outputs_repeat": len(set(digests)) == 1,
        "exit_codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        tracer.uninstall()
        spans.save(out / "spans.npz")
        result["layers"] = tracing.combine(per_round)
        result["counts_repeat"] = all(c == counts[0] for c in counts)
    (out / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
