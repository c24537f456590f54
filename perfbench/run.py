"""The repository benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload decide|match|build --seed N --seconds S --trace 0|1

Run from the repository root.  Each pass runs in a fresh interpreter
(``worker.py``), one after another, until the next pass would end after
``--seconds``; at least one pass always runs.  Set-up is also sampled on
its own in a few extra interpreters.

Every metric is the median of its samples in the run.  Set-up time is
in seconds; the other timings are in reference seconds (see
``workloads.REFERENCE_S``), which a drift in machine speed does not move.

Lines before the last describe the run; the last line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, with the
``end_to_end`` metrics of BENCHMARK.json untraced (``--trace 0``) or
its ``per_layer`` metrics traced (``--trace 1``).  Exits 2 without a
result when the sources or BENCHMARK.json are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 8  # set-up-only interpreters per untraced run
RUN_LIMIT_S = 170  # a run, child interpreters included, ends within this


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "sra" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no src/sra package or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    start = time.monotonic()
    ledger = {"attempted": 0, "failed": 0}
    setups, passes = [], []

    def child(*extra):
        budget = RUN_LIMIT_S - (time.monotonic() - start)
        out = run_child(args, extra, budget, ledger)
        if out is not None:
            setups.append(out["setup_s"])
        return out

    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            child("--setup-only")
    pass_start = time.monotonic()
    while True:
        t0 = time.monotonic()
        out = child(*(["--trace"] if args.trace else []))
        if out is None:
            break
        passes.append(out)
        ledger["attempted"] += out["attempted"]
        ledger["failed"] += out["failed"]
        for failure in out["failures"]:
            print(f"FAILED: {failure}", file=sys.stderr)
        pass_s = time.monotonic() - t0
        if time.monotonic() - pass_start + pass_s > args.seconds:
            break
    if not passes:
        print("error: no pass completed", file=sys.stderr)
        return 1

    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    pooled = defaultdict(list)
    for p in passes:
        for name, samples in p["samples"].items():
            pooled[name] += samples
    for name, samples in pooled.items():
        values[name] = statistics.median(samples)
    if args.trace:
        traced = values
        values = {}
        for name in passes[0]["layers"]:
            values[name] = statistics.median(p["layers"].get(name, 0.0) for p in passes)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes, {len(setups)} set-up samples, "
          f"{sum(len(s) for s in pooled.values())} timing samples, "
          f"{time.monotonic() - start:.1f} s")
    if args.trace:
        for name, value in traced.items():
            print(f"  traced {name} = {value:.6g}")
    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None:
            print(f"  n/a {m['name']}: not produced on this workload")
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']} = {value:.6g} {m['unit']}")
    ratio = ledger["failed"] / ledger["attempted"] if ledger["attempted"] else 1.0
    print(f"  failed_ratio = {ratio:.6g} ({ledger['failed']}/{ledger['attempted']})")
    print(json.dumps({
        "correct": ledger["failed"] == 0,
        "attempted": ledger["attempted"],
        "failed": ledger["failed"],
        "metrics": metrics,
    }))
    return 0


def run_child(args, extra, budget, ledger):
    """One worker interpreter; its JSON result, or None when it failed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(budget, 1))
    except subprocess.TimeoutExpired:
        print(f"FAILED: worker {' '.join(extra)} exceeded {budget:.0f} s", file=sys.stderr)
        ledger["attempted"] += 1
        ledger["failed"] += 1
        return None
    try:
        if proc.returncode == 0:
            return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        pass
    sys.stderr.write(proc.stderr[-4000:])
    print(f"FAILED: worker {' '.join(extra)} exited {proc.returncode}", file=sys.stderr)
    ledger["attempted"] += 1
    ledger["failed"] += 1
    return None


if __name__ == "__main__":
    sys.exit(main())
