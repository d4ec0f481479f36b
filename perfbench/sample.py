"""One benchmark sample: a fresh interpreter that runs one workload once.

    PYTHONPATH=src python3 perfbench/sample.py --workload NAME [--trace] [--smoke]
    PYTHONPATH=src python3 perfbench/sample.py --probe

The sample imports switchdeck first, so the time from interpreter start to
that import is its set-up time; --probe stops there.  It then runs each
operation of the workload, timing only the public call, checks the output
against the workload's reference facts, and prints one JSON line.  With
--trace the calls run under the Tracer and the line carries the per-layer
values.  The parent passes its clock reading from just before the spawn in
SWITCHDECK_BENCH_SPAWN (CLOCK_MONOTONIC is shared by all processes).
"""

from __future__ import annotations

import os
import sys
import time

SPAWNED = float(os.environ.get("SWITCHDECK_BENCH_SPAWN", time.monotonic()))

import switchdeck  # noqa: E402  (set-up time ends here)

SETUP_S = time.monotonic() - SPAWNED

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import metrics  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def run_sample(workload: str, trace: bool = False, smoke: bool = False) -> dict:
    """Run every operation of one workload; a failure never stops the rest."""
    ops = workloads.operations(workload, smoke)
    tracer = Tracer() if trace else None
    results = []
    wall = cpu = 0.0
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            error = None
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                out = op.call(switchdeck)
            except Exception:
                error = traceback.format_exc(limit=3)
            dt = time.perf_counter() - t0
            cpu += time.process_time() - c0
            wall += dt
            if error is None:
                try:
                    error = op.check(out)
                except Exception:
                    error = traceback.format_exc(limit=3)
            results.append({"op": op.name, "wall_s": dt, "error": error})
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {
        "workload": workload,
        "traced": trace,
        "setup_s": SETUP_S,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": _peak_rss_mb(),
        "ops": results,
        "caches": metrics.cache_counters(switchdeck.canon),
    }
    if tracer is not None:
        counters = dict(out["caches"],
                        card_repeats=tracer.card_repeats,
                        verify_candidates=tracer.verify_candidates,
                        verify_members=tracer.verify_members)
        out["spans"] = tracer.spans()
        out["layers"] = metrics.layer_values(out["spans"], counters)
    return out


def _versions() -> dict:
    import numpy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "switchdeck": switchdeck.__version__}


def main(argv: list[str]) -> int:
    if "--probe" in argv:
        print(json.dumps({"setup_s": SETUP_S, "versions": _versions()}))
        return 0
    workload = argv[argv.index("--workload") + 1]
    print(json.dumps(run_sample(workload, trace="--trace" in argv, smoke="--smoke" in argv)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
