#!/usr/bin/env python3
"""End-to-end benchmark of the real VodService.

Usage (from the repository root):

    python3 perfbench/run.py --workload remote_wide|local_churn|contended_storm
                             --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, default
.bench_build, runs the vodbench harness for S seconds, prints its readable
table and, as the last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end_to_end metrics of BENCHMARK.json with
--trace 0, its per_layer metrics with --trace 1.  Traced runs also leave
spans and the per-layer table in .bench_out/.  Exits non-zero when a
correctness check fails or the program cannot be built.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("remote_wide", "local_churn", "contended_storm")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures and builds vodbench; build output goes to stderr."""
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("no service sources next to perfbench/ (expected src/)")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "vodbench", "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "vodbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    spec_path = os.path.join(REPO, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    out_dir = ".bench_out"
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=3 * args.seconds + 60)
    except subprocess.TimeoutExpired:
        fail("vodbench timed out")  # run() has killed and reaped it
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"vodbench exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    detail = json.loads(lines[-1])

    metrics = {}
    problems = []
    for m in wanted:
        got = detail["metrics"].get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} missing")
        elif got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} in {got['unit']}, "
                            f"BENCHMARK.json says {m['unit']}")
        else:
            metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    for p in problems:
        print(f"CHECK FAILED: {p}")
    correct = bool(detail["correct"]) and not problems
    print(json.dumps({"correct": correct, "attempted": detail["attempted"],
                      "failed": detail["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
