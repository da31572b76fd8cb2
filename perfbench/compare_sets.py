#!/usr/bin/env python3
"""Two independent sets of benchmark runs of one checkout, compared.

Run from the repository root:

    python3 perfbench/compare_sets.py

Set A uses seeds 1..10 and set B seeds 1001..1010, on every workload in
BENCHMARK.json; every run is ``perfbench/run.py --trace 0`` for
``run_seconds``, one process at a time.  For each workload and end-to-end
metric the report gives both medians and quartiles, the spread (quartile
distance over the median) of each set, and whether the two sets agree
within the metric's bound: each spread within the bound, set B's median
no worse than set A's by more than the bound, and the same share of
failed operations.  The report is also written as JSON to
``perfbench/out/``; the exit code is 1 when some metric disagrees.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SET_SEED_BASE = (1, 1001)  # sets A and B
RUNS = 10  # runs per set and workload
RUN_TIMEOUT_S = 200


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(statistics.median(values))}


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse b is than a, as a share of a (negative when better)."""
    return (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]

    results = {}  # (set, workload) -> list of run results
    for s, base in enumerate(SET_SEED_BASE):
        for wl in workloads:
            runs = []
            for seed in range(base, base + RUNS):
                t0 = time.perf_counter()
                res = run_once(wl, seed, spec["run_seconds"])
                runs.append(res)
                print(f"set {'AB'[s]} {wl} seed {seed}: {time.perf_counter() - t0:.1f}s "
                      f"attempted {res['attempted']} failed {res['failed']}", file=sys.stderr)
            results[(s, wl)] = runs

    report = {"runs": RUNS, "run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for wl in workloads:
        sets = (results[(0, wl)], results[(1, wl)])
        rows = {}
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"\n{wl}: failed share {shares[0]:.6f} / {shares[1]:.6f}, correct {correct}")
        print(f"  {'metric':<18} {'bound':>6} {'median A':>12} {'spread A':>9}"
              f" {'median B':>12} {'spread B':>9} {'B worse':>8}  verdict")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a, b = (summary([r["metrics"][name]["value"] for r in runs]) for runs in sets)
            worse = worse_by(a["median"], b["median"], m["better"])
            agree = a["spread"] <= bound and b["spread"] <= bound and worse <= bound
            steady = a["spread"] < bound / 3 and b["spread"] < bound / 3
            rows[name] = {"bound": bound, "better": m["better"], "sets": [a, b], "b_worse_by": worse,
                          "agree": agree, "steady": steady}
            print(f"  {name:<18} {bound:>6.2f} {a['median']:>12.5g} {a['spread']:>9.4f}"
                  f" {b['median']:>12.5g} {b['spread']:>9.4f} {worse:>8.4f}"
                  + ("  agree" if agree else "  DISAGREE") + ("" if steady else " (spread above bound/3)"))
            ok = ok and agree
        ok = ok and shares[0] == shares[1] and correct
        report["workloads"][wl] = {"failed_share": shares, "correct": correct, "metrics": rows,
                                   "raw": list(sets)}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"compare-{int(time.time())}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"\n{'all metrics agree' if ok else 'some metrics disagree'}; report in {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
