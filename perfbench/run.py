#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload sim|smp|net --seed N --seconds S \
        --trace 0|1

Run from the root of a source checkout. Builds the mca2a library and the
measurement binary (perfbench/a2abench.cpp) from that checkout in Release
mode, runs one workload for S seconds with inputs derived from N, and
prints one JSON line as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. Both come from the same kind of run:
the per-layer numbers are a2abench's own timers around the calls into
each layer plus counter deltas from the library's metrics registry, which
are always on and too cheap to need a separate instrumented run.

Build output goes to standard error; the build tree is
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), relative to
the checkout root. Exits non-zero without a result line when the build,
the run or its output is broken.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must finish within 180 s of its start; the first run in a checkout
# additionally compiles everything (an incremental build is a no-op of
# about a second).
BUILD_LIMIT_S = 700.0
MEASURE_LIMIT_S = 160.0


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure and (incrementally) build a2abench."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "a2abench", "-j", jobs],
    ]
    deadline = time.monotonic() + BUILD_LIMIT_S
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if proc.returncode != 0:
            fail(f"build step {' '.join(cmd)} exited {proc.returncode}")
    exe = os.path.join(out, "a2abench")
    if not os.access(exe, os.X_OK):
        fail(f"no a2abench binary at {exe}")
    return exe


def run_a2abench(exe, args, limit_s):
    """Run a2abench in its own process group; on timeout kill the whole
    group (its net rank processes included) and wait for it."""
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            cwd=ROOT, start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=limit_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"a2abench exceeded {limit_s:.0f} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray rank processes
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        fail(f"a2abench exited {proc.returncode}")
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        fail("a2abench printed no result")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"a2abench result is not JSON: {e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    exe = build()
    res = run_a2abench(exe, args, MEASURE_LIMIT_S)

    raw = res.get("metrics", {})
    metrics = {}
    for m in wanted:
        v = raw.get(m["name"])
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail(f"a2abench did not measure {m['name']}")
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    out = {
        "correct": bool(res.get("correct")),
        "attempted": int(res.get("attempted", 0)),
        "failed": int(res.get("failed", 0)),
        "metrics": metrics,
    }
    if out["attempted"] < 1:
        fail("a2abench attempted no operation")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
