#!/usr/bin/env python3
"""Run one workload under several seeds and print, per end-to-end metric,
the median and the quartile spread ((Q3 - Q1) / median, quartiles as
statistics.quantiles gives them).

    python3 perfbench/spread.py --workload fig-diverge --seeds 101-110 \
        --seconds 20

A metric is steady when its spread stays under a third of its bound in
BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="101-110",
                        help="inclusive range A-B")
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}

    values = {}
    for seed in range(first, last + 1):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        print(seed, "correct" if result["correct"] else "FAILED",
              {k: round(v["value"], 4) for k, v in result["metrics"].items()},
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        spread = benchlib.quartile_spread(series)
        flag = "" if spread < bounds[name] / 3 else "  (over a third " \
            "of its bound)"
        print(f"{name}: median {statistics.median(series):.6g} spread "
              f"{spread:.4f} bound {bounds[name]}{flag}")


if __name__ == "__main__":
    main()
