"""One fresh benchmark process: set up a workload, then optionally time it.

Started by run.py, never by hand. Prints one line, ``result <json>``, and
exits 0 only when every correctness check passed.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --t0 T

--t0 is the CLOCK_MONOTONIC reading the parent took just before starting
this process, so set-up time covers interpreter start and every import.
--seconds 0 stops after set-up. A traced process replays a fixed number of
passes instead of running for --seconds, so its counts repeat exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

import nearfields as nf
from calibrate import slowdown
from tracing import Tracer
from workloads import CEILINGS, WORKLOADS, CheckFailed, Recorder, Slice, ceiling_label, check_goldens, require, run_steps

# Tail percentiles tried, in basis points; the tail is the highest with at
# least ten samples beyond it. The ladder stops at p99: on a shared host
# p99.9 of a fast operation measures bursts of interference from other
# machines (0.44 to 1.22 ms between runs of rho-chain-q), not the program.
TAIL_LADDER_BP = (5000, 9000, 9900)


def _rank(bp: int, n: int) -> int:
    """Nearest-rank index of the bp/100 percentile of n sorted samples."""
    return max(-(-bp * n // 10000) - 1, 0)


def timed_stats(rec: Recorder, slices: list[Slice]) -> dict:
    """Throughput and latency of a timed region, scaled to the reference
    speed, with the unscaled wall-clock figures beside them."""
    whole = [s for s in slices if s.whole] or slices
    wall = sorted(rec.latencies)
    scaled = sorted(rec.scaled_latencies())
    n = len(scaled)
    require(n > 0, "no operation completed in the timed region")
    tail_bp = max((bp for bp in TAIL_LADDER_BP if n - 1 - _rank(bp, n) >= 10), default=TAIL_LADDER_BP[0])
    p50, tail = _rank(5000, n), _rank(tail_bp, n)
    return {
        "slices": len(whole),
        "slowdown": statistics.median(rec.slowdowns),
        "ops_per_s": statistics.median(s.completed / s.seconds * s.slowdown for s in whole),
        "wall_ops_per_s": statistics.median(s.completed / s.seconds for s in whole),
        "samples": n,
        "p50_ms": scaled[p50] * 1e3,
        "wall_p50_ms": wall[p50] * 1e3,
        "tail_ms": scaled[tail] * 1e3,
        "wall_tail_ms": wall[tail] * 1e3,
        "tail_percentile": tail_bp / 100,
        "tail_beyond": n - 1 - tail,
    }


def refusals(rec: Recorder) -> dict[str, int]:
    return {ceiling_label(c): k for c, k in sorted(rec.refused.items())}


def env_stamp() -> dict:
    from nearfields import kernels

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_imports": kernels.HAS_NUMBA,
        "kernels_backend": kernels.backend(),
        "NEARFIELDS_KERNELS": os.environ.get("NEARFIELDS_KERNELS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "DEFAULT_CORRESPONDENCE_CEILING": nf.DEFAULT_CORRESPONDENCE_CEILING,
        "DEFAULT_SUM_NORM_CEILING": nf.DEFAULT_SUM_NORM_CEILING,
    }


def run(args) -> dict:
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.active = True
    wl = WORKLOADS[args.workload](args.seed)
    warm = Recorder()
    reference, _ = run_steps(wl, warm, passes=1)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
    setup_slowdown = slowdown()

    expected = [wl.summary(o) for o in reference]
    out = {
        "setup_s": setup_s,
        "setup_slowdown": setup_slowdown,
        "warm": {
            "attempted": warm.attempted,
            "refused": refusals(warm),
            "digest": hashlib.sha256(repr(expected).encode()).hexdigest(),
        },
    }
    if args.seconds <= 0:
        return out

    if tracer:
        # Calibrate only between steps, outside every span, so no layer's
        # self time includes it.
        rec = Recorder(calibrate=slowdown, every=math.inf)
        outcomes, slices = run_steps(wl, rec, passes=wl.trace_passes)
    else:
        rec = Recorder(calibrate=slowdown)
        outcomes, slices = run_steps(wl, rec, seconds=args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer:
        check_goldens(wl.goldens)  # still traced, so cli.main is counted
        pairs_final = nf.default_correspondence().pair_count
        tracer.active = False
    for i, outcome in enumerate(outcomes):
        require(wl.summary(outcome) == expected[i % len(expected)], f"replayed step {i % len(expected)} changed its answer")
    wl.check(reference)
    if not tracer:
        check_goldens(wl.goldens)

    out.update(
        rss_mb=rss_mb,
        env=env_stamp(),
        timed={
            "attempted": rec.attempted,
            "completed": len(rec.latencies),
            "refused": refusals(rec),
            "elapsed_s": sum(s.seconds for s in slices),
            **timed_stats(rec, slices),
        },
    )
    if tracer:
        for key in wl.expected:
            require(tracer.stats[key][0] > 0, f"traced {key} never fired on {args.workload}")
        for key in wl.bypassed:
            require(tracer.stats[key][0] == 0, f"traced {key} fired on {args.workload}, which bypasses it")
        out["layers"] = tracer.layer_metrics(pairs_final, CEILINGS)
        out["growth"] = tracer.growth
        out["sites"] = tracer.sites
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    args = p.parse_args()
    try:
        out = run(args)
    except CheckFailed as exc:
        print(f"worker: wrong answer on {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    print("result " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
