"""tileforge benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload box_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The benchmark uses the checkout's own
`src/` (nothing is installed) and writes only under `bench/out/`.

With `--trace 0` it measures set-up time in fresh interpreters, then runs
the workload for `--seconds` in one more fresh interpreter (so tileforge's
module-level caches start cold) and reports the end-to-end metrics.  With
`--trace 1` the workload runs a fixed number of ops (about a third of
`--seconds` at the seed commit) three times, each in a fresh interpreter:
untraced, with every listed public function wrapped in a span, and untraced
again.  It reports the per-layer metrics of the traced pass, and the tracing
overhead against the mean of the two untraced passes, which cancels a
steady drift in machine speed.  The op count depends only on
`--seconds`, so the per-layer sums do not move with the program's speed.  Every op's output is checked;
the last stdout line is the result JSON, the line before it the machine
and run description.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metric_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("box_sweep", "plane_render", "tile_decide", "oned_sweep")

#: Fresh interpreters timed for set-up; the median is reported.
SETUP_PROBES = 5
#: Threads for BLAS and OpenMP in every child: ops run one at a time.
THREADS = 1
#: Hard cap on one worker pass, beyond its --seconds.
WORKER_GRACE_S = 30
#: Ops per pass of a traced run, per second of --seconds: about a third of
#: the untraced rate of the seed commit on the reference VM (see
#: baseline.json), so that the three passes together take about --seconds.
TRACE_RATE = {"box_sweep": 5.5, "plane_render": 3, "tile_decide": 6, "oned_sweep": 900}

SETUP_CODE = ("import tileforge, tileforge.cli, scipy.ndimage, scipy.spatial; "
              "assert tileforge.__file__.startswith({src!r})")

END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "peak_rss_mb": "MiB", "setup_s": "s"}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    return env


def setup_seconds(env):
    """Median wall time of fresh interpreters importing tileforge and its scipy parts."""
    code = SETUP_CODE.format(src=str(SRC))
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       stdin=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_worker(env, workload, seed, seconds, ops=None, trace_file=None):
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--workdir", str(workdir)]
    if ops is not None:
        cmd += ["--ops", str(ops)]
    if trace_file is not None:
        cmd += ["--trace", str(trace_file)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              stdin=subprocess.DEVNULL, timeout=seconds + WORKER_GRACE_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine(seed, versions):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
            "blas_threads": THREADS, **versions}


def main(argv=None):
    ap = argparse.ArgumentParser(description="tileforge benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tileforge" / "__init__.py").is_file():
        print(f"error: no tileforge sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    try:
        if args.trace:
            OUT.mkdir(parents=True, exist_ok=True)
            spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
            ops = math.ceil(TRACE_RATE[args.workload] * args.seconds)
            passes = [run_worker(env, args.workload, args.seed, args.seconds / 3, ops=ops,
                                 trace_file=spans if i == 1 else None) for i in range(3)]
            plain_s = (passes[0]["timed_s"] + passes[2]["timed_s"]) / 2
            metrics = dict(passes[1]["layers"])
            metrics["trace_overhead_frac"] = passes[1]["timed_s"] / plain_s - 1.0
            units = metric_names()
            run = dict(passes[1], attempted=sum(p["attempted"] for p in passes),
                       failed=sum(p["failed"] for p in passes),
                       failures=sum((p["failures"] for p in passes), []))
        else:
            setup = setup_seconds(env)
            run = run_worker(env, args.workload, args.seed, args.seconds)
            metrics = {name: run[name] for name in END_TO_END
                       if name != "setup_s" and run[name] is not None}
            metrics["setup_s"] = setup
            units = END_TO_END
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for failure in run["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"machine": machine(args.seed, run["versions"]),
                      "workload": args.workload, "seconds": args.seconds,
                      "wall_s": run["wall_s"], "timed_s": run["timed_s"]}))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
