#!/usr/bin/env python3
"""Repeated-run steadiness check and baseline record for perfbench.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workloads remote_wide,...] [--out perfbench/baseline.json]

Runs `perfbench/run.py --trace 0` once per seed (seeds first-seed ..
first-seed+runs-1) on each workload.  For every end-to-end metric it
reports the median, the quartiles (statistics.quantiles(values, n=4)) and
the spread (Q3 - Q1) / median, and flags a spread that is not below a third
of the metric's bound in BENCHMARK.json (setup_s is exempt: its bound only
limits drift between medians).  Writes every value, and each run's
determinism digest, to --out.  Exits 1 if
any run fails or is incorrect.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    record = {"run_seconds": spec["run_seconds"], "seeds": seeds,
              "nproc": os.cpu_count(), "machine": platform.machine(),
              "stepping": "workers=1, epoch_barrier=off", "workloads": {}}
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        digests = {}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: FAILED", file=sys.stderr)
                ok = False
                continue
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            digests[seed] = next((l.split()[1] for l in lines
                                  if l.startswith("digest ")), None)
        summary = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            steady = m["name"] == "setup_s" or spread < m["bound"] / 3
            ok = ok and steady
            summary[m["name"]] = {"unit": m["unit"], "median": med,
                                  "q1": q1, "q3": q3, "spread": spread,
                                  "bound": m["bound"], "steady": steady,
                                  "values": v}
            print(f"{workload:16s} {m['name']:22s} median {med:<14.6g} "
                  f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.4f} "
                  f"(bound {m['bound']}){'' if steady else '  NOT STEADY'}")
        summary["digests"] = digests
        record["workloads"][workload] = summary
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
