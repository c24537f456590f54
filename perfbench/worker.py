"""One pass of one workload, in a fresh interpreter.

``run.py`` starts this once per pass, one at a time, so that no pass
sees caches a previous one warmed (``Algebra._size_cache`` never
evicts).  Prints one JSON line: set-up time, the pass's end-to-end
metrics, peak memory, the operation ledger and, when traced, the
per-layer counters.

    PYTHONPATH=src python3 perfbench/worker.py --workload decide --seed 1 [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    scratch = Path(__file__).resolve().parent.parent / ".perfbench_tmp" / str(os.getpid())
    p = workloads.Pass(args.workload, args.seed, scratch)
    t0 = time.perf_counter()
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer().install()
        p.untraced = tracer.paused
    p.setup()
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if not args.setup_only:
        p.run()
        result.update(
            samples=p.samples,
            attempted=p.attempted,
            failed=p.failed,
            failures=p.failures,
        )
        if tracer is not None:
            result["layers"] = layer_metrics(tracer, time.perf_counter() - t0)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, wall_s) -> dict:
    """Flatten the tracer's counters into per-layer metric names."""
    out = {}
    for span, stats in tracer.stats.items():
        for counter, value in stats.items():
            out[span if counter == "count" else f"{span}.{counter}"] = value
    calls = lambda span: tracer.stats[span]["calls"]  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    out["algebra.is_sat.true_ratio"] = ratio(
        tracer.stats["algebra.is_sat"]["true"], calls("algebra.is_sat"))
    out["normal.LazyNorm.successors.hit_ratio"] = ratio(
        tracer.stats["normal.LazyNorm.successors"]["hits"],
        calls("normal.LazyNorm.successors"))
    out["trace.wall_s"] = wall_s
    out["trace.checks_s"] = tracer.paused_s
    out["trace.unattributed_s"] = wall_s - tracer.paused_s - tracer.self_total()
    return out


if __name__ == "__main__":
    sys.exit(main())
