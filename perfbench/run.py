#!/usr/bin/env python3
"""Build and run the liquidd end-to-end benchmark.

    python3 perfbench/run.py --workload run_large|sweep_grid|serve_mixed \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root.  The first call configures and builds
perfbench/ (which compiles the liquidd library from ../src) in Release
mode under $CARGO_TARGET_DIR (default .bench_build); later calls rebuild
incrementally.  Each run first executes the helper self-tests, then the
workload, and checks that the result line names exactly the metrics
BENCHMARK.json lists for the mode.  Build output goes to stderr; the last
stdout line is the JSON result.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOAD_TIMEOUT_S = 170


def build_base():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)


def git_describe():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty", "--tags"],
                             capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def expected_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json lists for the mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(binary, args, run_dir):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", ".", "--git-describe", git_describe()]
    proc = subprocess.Popen(cmd, cwd=run_dir, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: workload timed out", file=sys.stderr)
        return 1
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        print(f"perfbench: workload exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    body = "\n".join(lines[:-1])
    try:
        result = json.loads(lines[-1])
        metrics = result["metrics"]
        keys = set(result)
    except (ValueError, KeyError, TypeError):
        print(body)
        print("perfbench: the last line is not a result object", file=sys.stderr)
        return 1
    expected = expected_metrics(args.trace == 1)
    wrong_unit = sorted(n for n in metrics if n in expected and metrics[n]["unit"] != expected[n])
    if (keys != {"correct", "attempted", "failed", "metrics"} or set(metrics) != set(expected)
            or wrong_unit):
        print(body)
        print("perfbench: result metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(expected) - set(metrics))}, "
              f"extra {sorted(set(metrics) - set(expected))}, wrong unit {wrong_unit}",
              file=sys.stderr)
        return 1
    print(f"run directory: {run_dir}", file=sys.stderr)
    print(body)
    print(json.dumps(result), flush=True)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["run_large", "sweep_grid", "serve_mixed"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required (or --selftest)")

    build_dir = os.path.join(build_base(), "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=subprocess.PIPE, text=True)
    print(selftest.stdout, end="", file=sys.stdout if args.selftest else sys.stderr)
    if selftest.returncode != 0 or args.selftest:
        return selftest.returncode

    run_dir = os.path.join(build_base(), "perfbench-run", args.workload)
    os.makedirs(run_dir, exist_ok=True)
    return run_workload(os.path.join(build_dir, "perfbench"), args, run_dir)


if __name__ == "__main__":
    sys.exit(main())
