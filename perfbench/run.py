#!/usr/bin/env python3
"""Builds and runs the simulator's host-time benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds perfbench/ (and the simulator library under src/) in Release mode
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
benchmark's self-tests, then one perfbench process for the workload. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Any build or run failure exits non-zero without
printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest"])
    for step in steps:
        # Build output goes to stderr: stdout carries only the benchmark.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir)

    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              cwd=ROOT, capture_output=True, text=True)
    for line in selftest.stdout.splitlines():
        print("# selftest: " + line)

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.jsonl")]
    run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        fail(f"perfbench exited with {run.returncode}")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("perfbench printed no result")
    missing = expected_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        fail("metrics differ from BENCHMARK.json: " + ", ".join(sorted(missing)))
    result["correct"] = bool(result["correct"]) and selftest.returncode == 0
    sys.stdout.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
