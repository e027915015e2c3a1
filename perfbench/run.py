"""Benchmark of the nearfields package: one workload, one run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload qsum-h1e4 --seed 0 --seconds 10 --trace 0

Workloads, metrics and bounds are declared in BENCHMARK.json; perfbench/README.md
says why each workload is there and which end-to-end metric each layer
metric should move.

--trace 0 starts three fresh processes one after another. Each imports the
package from ./src and runs the workload's warm-up pass; set-up time is
measured from just before the process starts until the pass ends, and the
median of the three is reported. The last process then replays the pass in
a closed loop for --seconds and reports the end-to-end metrics.

--trace 1 runs one untraced process like the last one above, then one
traced process that wraps the public functions of every layer and replays a
fixed number of passes. It reports the per-layer metrics, and the tracing
overhead from the two processes' throughput.

Every timed process checks every answer after its timed region; a wrong
answer, or a warm-up that differs between processes of the same seed, ends
the run with exit status 1 and no result. The readable report goes first;
the last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import slowdown

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3
DEADLINE_S = 170.0


class RunFailed(Exception):
    pass


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nearfields").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )

    def _call(self, cmd: list[str]) -> subprocess.CompletedProcess:
        try:
            return subprocess.run(
                cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True,
                timeout=max(self.deadline - time.monotonic(), 1.0),
            )
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            raise RunFailed(f"{cmd[1]} did not finish within the run's time limit") from exc

    def compile_sources(self) -> None:
        """Import the package once before any timing: fail fast when ./src
        does not import, and write the bytecode caches where Python may, so
        that either every set-up compiles the sources or none does."""
        done = self._call([sys.executable, "-c", "import nearfields, nearfields.cli"])
        if done.returncode != 0:
            raise RunFailed("cannot import nearfields from ./src")

    def worker(self, seconds: float, trace: int) -> dict:
        """Run one fresh worker process; its set-up time is scaled to the
        reference speed by the slowdowns measured just before it started
        and just after its set-up ended."""
        before = slowdown()
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = self._call([
            sys.executable, str(ROOT / "perfbench" / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--seconds", str(seconds), "--trace", str(trace), "--t0", repr(t0),
        ])
        lines = [ln for ln in done.stdout.splitlines() if ln.startswith("result ")]
        if done.returncode != 0 or not lines:
            raise RunFailed(f"worker exited with status {done.returncode}")
        result = json.loads(lines[-1][len("result "):])
        result["wall_setup_s"] = result["setup_s"]
        result["setup_s"] /= (before + result["setup_slowdown"]) / 2
        return result


def _same_warm_up(results: list[dict]) -> None:
    """Every process of one seed must see the same warm-up, refusals included."""
    first = results[0]["warm"]
    for r in results[1:]:
        if r["warm"] != first:
            raise RunFailed(f"warm-up differs between processes of one seed: {first} vs {r['warm']}")


def _report_timed(r: dict) -> None:
    t = r["timed"]
    print(f"  timed region: {t['attempted']} operations attempted in {t['elapsed_s']:.3f} s, "
          f"{t['completed']} completed, refused by ceiling {t['refused']}")
    print(f"  latency samples: {t['samples']} completed operations; tail is p{t['tail_percentile']:g} "
          f"with {t['tail_beyond']} samples beyond it")
    print(f"  wall clock, unscaled: {t['wall_ops_per_s']:.6g} ops/s over {t['slices']} slices, "
          f"p50 {t['wall_p50_ms']:.6g} ms, tail {t['wall_tail_ms']:.6g} ms; "
          f"median slowdown {t['slowdown']:.4f}")


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    results = [runner.worker(0, 0) for _ in range(SETUPS - 1)]
    results.append(runner.worker(seconds, 0))
    _same_warm_up(results)
    last = results[-1]
    t = last["timed"]
    setups = [r["setup_s"] for r in results]
    walls = [r["wall_setup_s"] for r in results]
    print(f"env {json.dumps(last['env'], sort_keys=True)}")
    print(f"  set-up: {', '.join(f'{s:.3f}' for s in setups)} s scaled, "
          f"{', '.join(f'{s:.3f}' for s in walls)} s wall clock, in {SETUPS} fresh processes; "
          f"warm-up pass of {last['warm']['attempted']} operations refused {last['warm']['refused']} "
          f"in every process")
    _report_timed(last)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (t["ops_per_s"], "1/s"),
        "op_p50_ms": (t["p50_ms"], "ms"),
        "op_tail_ms": (t["tail_ms"], "ms"),
        "completed_share": (t["completed"] / t["attempted"], "ratio"),
        "peak_rss_mb": (last["rss_mb"], "MB"),
    }
    return metrics, t


def per_layer(runner: Runner, seconds: float) -> tuple[dict, dict]:
    base = runner.worker(seconds, 0)
    traced = runner.worker(seconds, 1)
    _same_warm_up([base, traced])
    print(f"env {json.dumps(traced['env'], sort_keys=True)}")
    print("  traced run (set-up, then a fixed number of replayed passes):")
    _report_timed(traced)
    for secs, before, after in traced["growth"]:
        print(f"  correspondence growth: {before} -> {after} pairs in {secs:.3f} s")
    for key, sites in traced["sites"].items():
        print(f"  wrapped {key} at {', '.join(sites)}")
    print("  kernels.triples_swept is computed from argument shapes, not measured")
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    overhead = 1 - traced["timed"]["ops_per_s"] / base["timed"]["ops_per_s"]
    metrics["trace.overhead_share"] = (overhead, "ratio")
    return metrics, traced["timed"]


def main() -> int:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"run.py: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    p = argparse.ArgumentParser(description="Benchmark one nearfields workload.")
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "nearfields" / "__init__.py").is_file() or not (ROOT / "tests" / "golden").is_dir():
        print("run.py: no nearfields sources (src/nearfields) or goldens (tests/golden) here", file=sys.stderr)
        return 2

    print(f"nearfields benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"source {_source_digest()}, git {_git_sha()}")
    runner = Runner(args.workload, args.seed)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        runner.compile_sources()
        if args.trace:
            metrics, timed = per_layer(runner, args.seconds)
        else:
            metrics, timed = end_to_end(runner, args.seconds)
        units = {name: unit for name, (_, unit) in metrics.items()}
        if units != declared:
            raise RunFailed(f"metrics differ from BENCHMARK.json: {sorted(set(units.items()) ^ set(declared.items()))}")
    except RunFailed as exc:
        print(f"run.py: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": timed["attempted"],
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
