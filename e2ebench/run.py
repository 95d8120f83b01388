#!/usr/bin/env python3
"""Build bench_e2e from source, run one workload, print one JSON result.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It configures and builds the benchmark
package (e2ebench/CMakeLists.txt, Release) into .bench_build/, runs
bench_e2e on the workload, and prints as the last line of stdout

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1), each with the unit bench_e2e reported. The
build log and bench_e2e's own table go to stderr. The full result document
stays in .bench_build/results/ and, for traced runs, the Chrome trace in
.bench_build/traces/. Any failure to build, run, or report a listed metric
exits non-zero without printing a result.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 175


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def call(cmd, timeout):
    """Runs cmd with its stdout sent to stderr; returns the exit code."""
    log("+", " ".join(cmd))
    try:
        return subprocess.run(cmd, stdout=sys.stderr, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout} s")
        return -1


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if call(["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"], 600) != 0:
            return False
    return call(["cmake", "--build", BUILD_DIR, "-j", "4",
                 "--target", "bench_e2e"], 850) == 0


def git_sha():
    # Never look above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 1
    if not build():
        log("build failed")
        return 1

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = os.path.join(BUILD_DIR, "results", tag + ".json")
    os.makedirs(os.path.dirname(result_path), exist_ok=True)
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [os.path.join(BUILD_DIR, "bench_e2e"), "--workloads", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--json", result_path, "--git-sha", git_sha()]
    if args.trace:
        cmd += ["--trace", "--trace-dir", os.path.join(BUILD_DIR, "traces")]
    code = call(cmd, RUN_TIMEOUT_S)
    # 2: every rep ran but some failed a check; still a result to report.
    if code not in (0, 2) or not os.path.exists(result_path):
        log(f"bench_e2e exited with {code}")
        return 1

    with open(result_path) as f:
        rows = json.load(f)["rows"]
    units = next(r for r in rows if r["row"] == "units")
    row = next(r for r in rows if r["row"] == "workload")
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        value = row.get(m["name"])
        if not isinstance(value, (int, float)) or units.get(m["name"]) != m["unit"]:
            log(f"metric {m['name']}: got {value!r} {units.get(m['name'])!r},"
                f" want a number in {m['unit']}")
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": code == 0 and row["correct"] == 1,
                      "attempted": int(row["attempted"]),
                      "failed": int(row["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
