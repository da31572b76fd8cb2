#!/usr/bin/env python3
"""Benchmark of the minor-decomp pipeline, one workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload tree-fine --seed 1 --seconds 35 --trace 0

The run generates its workload's graph, warms up with one untimed build,
then repeats whole rounds (see ``rounds.py``) until ``--seconds`` have
passed.  The last line of standard output is one JSON object: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The traced run also writes its spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")


def process_age() -> float:
    """Seconds since this process started (Linux)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "minor_decomp", "__init__.py")):
        print(f"error: the library source is missing ({SRC}); run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import reference
    import rounds
    from minor_decomp import _kernels

    w = rounds.WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(rounds.WORKLOADS)}", file=sys.stderr)
        return 2
    bench = rounds.Bench(w, args.seed)
    bench.warm_up()
    setup_s = process_age()

    # the checker's distances: built after set-up, outside every timing
    g = bench.g
    ref = reference.Reference(bench.n, g.edges_u, g.edges_v, g.edges_w)

    if args.trace:
        from tracing import PER_LAYER, Tracer

        bench.tracer = Tracer(bench.n)
        bench.tracer.install(rounds.MODULES)

    t_loop = time.perf_counter()
    done = 0
    while True:
        bench.round(ref, done)
        done += 1
        # every cover seed gets at least one round
        if done >= len(rounds.COVER_SEEDS) and time.perf_counter() - t_loop >= args.seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if bench.tracer is not None:
        bench.tracer.uninstall()
        os.makedirs(OUT, exist_ok=True)
        trace_path = os.path.join(OUT, f"trace-{w.name}-seed{args.seed}.json")
        bench.tracer.write(trace_path)
        print(f"# spans written to {os.path.relpath(trace_path)}")
        values = bench.tracer.metrics(bench.summary("first_partition") - bench.summary("untraced_first_partition"))
        metrics = {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in values.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "first_partition_s": {"value": bench.summary("first_partition"), "unit": "s"},
            "partitions_per_s": {"value": bench.summary("partitions_rate"), "unit": "1/s"},
            "verify_s": {"value": bench.summary("verify"), "unit": "s"},
            "mc_trials_per_s": {"value": bench.summary("mc_rate"), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "cover_sparsity": {"value": float(statistics.mean(bench.sparsities)), "unit": "clusters"},
        }
    print(
        f"# workload={w.name} seed={args.seed} backend={_kernels.get_backend()} rounds={done} "
        f"n={bench.n} delta={w.delta} rho={w.rho} mc_radius={bench.gamma * bench.delta_p:g}"
    )
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
