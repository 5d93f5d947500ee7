#!/usr/bin/env python3
"""Repeatability mode of the Perm benchmark (the issue's `--repeat N`).

Reads BENCHMARK.json, runs the whole set of workloads N times through the declared command,
alternating the workload order from one set to the next, and prints per workload and
end-to-end metric the median, the quartiles, the spread (interquartile range as a share of
the median, the figure the driver compares with a third of the bound) and the largest
relative deviation from the median. Exits non-zero when a run fails, or when two sets
disagree on a metric by more than its bound.

    python3 perm_benchmark/repeat.py 2                  # two sets on the default seed
    python3 perm_benchmark/repeat.py 10 --vary-seed     # ten sets, seeds 1..10
    python3 perm_benchmark/repeat.py 2 --seed 7 --bin perm_benchmark/target/release/perm_benchmark

Run it from the repository root. `--bin` replaces the declared command by an already built
executable (so that a second copy of the repository can be measured with this benchmark).
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("sets", type=int)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--vary-seed", action="store_true", help="set i uses seed i (1-based)")
    parser.add_argument("--bin", help="run this executable instead of the declared command")
    parser.add_argument("--workload", action="append", help="only these workloads")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    command = [args.bin] if args.bin else spec["command"]
    workloads = [w["name"] for w in spec["workloads"] if not args.workload or w["name"] in args.workload]
    metrics = spec["end_to_end"]
    values = {w: {m["name"]: [] for m in metrics} for w in workloads}

    for i in range(args.sets):
        seed = i + 1 if args.vary_seed else args.seed
        for workload in workloads if i % 2 == 0 else reversed(workloads):
            run = subprocess.run(
                command + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180)
            if run.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited with {run.returncode}:\n{run.stderr}")
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
            for m in metrics:
                values[workload][m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"set {i + 1} seed {seed} {workload}: " + "  ".join(
                f"{m['name']}={result['metrics'][m['name']]['value']:.4g}" for m in metrics),
                flush=True)

    disagree = False
    print(f"\n{'workload':<18}{'metric':<16}{'median':>11}{'q1':>11}{'q3':>11}"
          f"{'spread':>9}{'max dev':>9}{'bound':>7}")
    for workload in workloads:
        for m in metrics:
            v = values[workload][m["name"]]
            median = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
            max_dev = max(abs(x - median) for x in v) / median
            # Two sets disagree when the worse reads worse than the better by more than the bound.
            worst = (max(v) - min(v)) / (min(v) if m["better"] == "lower" else max(v))
            flag = ""
            if worst > m["bound"]:
                disagree = True
                flag = "  DISAGREE"
            print(f"{workload:<18}{m['name']:<16}{median:>11.4g}{q1:>11.4g}{q3:>11.4g}"
                  f"{(q3 - q1) / median:>9.2%}{max_dev:>9.2%}{m['bound']:>7.0%}{flag}")
    sys.exit(1 if disagree else 0)


if __name__ == "__main__":
    main()
