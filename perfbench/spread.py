"""Run one workload on several seeds and summarise each end-to-end metric.

    python3 perfbench/spread.py --workload kl-sample --seeds 1-10 [--trace 1]

Runs perfbench/run.py once per seed, one run at a time, and prints per
metric the median, the first and third quartiles (statistics.quantiles,
n=4) and the quartile spread as a share of the median.  The raw results
go to perfbench/out/spread-<workload>-<seeds>-trace<0|1>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    parser.add_argument("--seconds", type=int,
                        default=json.load(open(os.path.join(run.HERE, "..", "BENCHMARK.json")))
                        ["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))

    results = []
    for seed in range(first, last + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=True, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().split("\n")
        result = json.loads(lines[-1])
        result["seed"], result["wall_s"] = seed, time.perf_counter() - t0
        result["timed_phase"] = lines[-2]
        results.append(result)
        print("seed %d: correct %s, %d/%d failed, %.1f s wall"
              % (seed, result["correct"], result["failed"], result["attempted"],
                 result["wall_s"]), flush=True)

    os.makedirs(run.OUT, exist_ok=True)
    name = "spread-%s-%s-trace%d.json" % (args.workload, args.seeds, args.trace)
    with open(os.path.join(run.OUT, name), "w") as fh:
        json.dump(results, fh, indent=1)
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        if len(values) < 2:
            print("%-12s %.6g" % (name, med))
            continue
        q1, _, q3 = statistics.quantiles(values, n=4)
        print("%-12s median %.6g  q1 %.6g  q3 %.6g  spread %.4f"
              % (name, med, q1, q3, (q3 - q1) / med if med else float("nan")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
