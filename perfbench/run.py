#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The benchmark package is built
with cargo into $CARGO_TARGET_DIR (default: .bench_build). With
--trace 0 the binary is also started in --setup-only mode four times
before and four times after the measured run, and setup_s is the median
of those nine set-ups (the eight and the measured run's own), spread
over the run so that one slow phase of a shared host cannot set it.
The last line of standard output is the result object; see
perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CONFIG_ENV = ("CDSSPEC_WORKERS", "CDSSPEC_FIBER_HOSTING", "CDSSPEC_FIBER_STACK")
SETUP_ONLY_RUNS = 4  # before, and again after, the measured run
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(ROOT, target, "release", "perfbench")


def run(binary, args, extra, timeout):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0-ns", str(time.time_ns())] + extra
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{args.workload} did not finish: {e}")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"{args.workload} exited with code {done.returncode}")
    try:
        return lines[:-1], json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"unreadable result line {lines[-1]!r}: {e}")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    set_vars = [v for v in CONFIG_ENV if v in os.environ]
    if set_vars:
        fail(f"refusing to run with {', '.join(set_vars)} set: it changes the measured config")

    binary = build()

    def setup_samples():
        if args.trace == 1:
            return []
        return [run(binary, args, ["--setup-only"], RUN_TIMEOUT_S)[1]["setup_s"]
                for _ in range(SETUP_ONLY_RUNS)]

    setups = setup_samples()
    lines, result = run(binary, args, [], RUN_TIMEOUT_S)
    setups += setup_samples()

    metrics = result["metrics"]
    if args.trace == 0:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
        print("setup_s samples: " + " ".join(f"{s:.6f}" for s in setups))
    want = expected_metrics(args.trace)
    if sorted(metrics) != sorted(want):
        fail(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(want)}")
    for line in lines:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
