#!/usr/bin/env python3
"""Measure the benchmark's spread and write a baseline.

Usage (from the repository root):

    python3 perfbench/measure.py

For every workload in BENCHMARK.json it makes ten untraced runs of
`run_seconds`, seeds 1..10, and reports each end-to-end metric's median
and its spread: the distance between the first and third quartile
(`statistics.quantiles(n=4)`) as a share of the median. It then makes
two traced runs at seed 1 and checks that their work counters
(per-layer metrics with unit `count` or `bytes`) agree exactly.
Everything lands in perfbench/baseline.json.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
COUNTER_UNITS = ("count", "bytes")
RUNS = 10
OUT = BENCH_DIR / "baseline.json"


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    ok = p.returncode == 0 and result.get("correct") is True
    print(f"{workload} seed {seed} trace {trace}: exit {p.returncode}, {time.time() - t0:.1f} s, "
          f"correct {result.get('correct')}, {result.get('failed')} of {result.get('attempted')} failed",
          flush=True)
    if not ok:
        sys.stderr.write(p.stderr[-4000:])
    return ok, result, [l.strip() for l in lines[:-1] if l.startswith("  ")]


def spread(values):
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med if med else float("nan")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    report = {
        "measured": time.strftime("%Y-%m-%d"),
        "host": f"{platform.machine()}, {len(os.sched_getaffinity(0))} cores, {platform.system()}",
        "run_seconds": seconds,
        "runs": RUNS,
        "workloads": {},
    }
    all_ok = True
    for w in workloads:
        values = {}
        info = []
        for seed in range(1, RUNS + 1):
            ok, r, lines = run(w, seed, seconds, 0)
            all_ok &= ok
            info = lines
            for k, v in r.get("metrics", {}).items():
                values.setdefault(k, []).append(v["value"])
        e2e = {}
        for k, v in values.items():
            med, s = spread(v)
            e2e[k] = {"median": med, "spread": round(s, 4), "bound": bounds.get(k), "values": v,
                      "within_third_of_bound": bool(bounds.get(k) and s < bounds[k] / 3)}
            print(f"  {k:24s} median {med:.6g}  spread {s:.4f}  bound {bounds.get(k)}")
        traced = []
        for _ in range(2):
            ok, r, lines = run(w, 1, seconds, 1)
            all_ok &= ok
            traced.append((r.get("metrics", {}), lines))
        counters = [{k: v["value"] for k, v in m.items() if v["unit"] in COUNTER_UNITS} for m, _ in traced]
        same = counters[0] == counters[1]
        all_ok &= same
        print(f"  work counters {'match' if same else 'DIFFER'} across two traced runs")
        report["workloads"][w] = {
            "end_to_end": e2e,
            "untraced_info": info,
            "per_layer": {k: v["value"] for k, v in traced[0][0].items()},
            "traced_info": traced[0][1],
            "work_counters": counters[0],
            "work_counters_repeat_exactly": same,
        }
    OUT.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {OUT}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
