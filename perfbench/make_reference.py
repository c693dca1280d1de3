#!/usr/bin/env python3
"""Regenerate perfbench/reference.json: digests of every cell record
(wall time left out), figure and served response the benchmark produces
at the program's default seed. The benchmark compares its default-seed
runs against these; other seeds use the untimed oracles instead.

    python3 perfbench/make_reference.py

Only rerun it when a change is meant to alter simulated results.
"""

import argparse
import json

import benchlib
import run
from benchlib import Client


def main():
    run.build()
    args = argparse.Namespace(workload="reference", seed=run.DEFAULT_SEED,
                              seconds=0, trace=0)
    bench = run.Bench(args)
    bench.reference = {}
    ref = {"seed": run.DEFAULT_SEED}
    try:
        for workload, experiments in run.FIG_EXPERIMENTS.items():
            cache = bench.fresh(workload)
            sweep = run.lab_sweep(bench, experiments, cache)
            ref[workload] = {
                "cells": benchlib.cache_digests(cache),
                "figures": {name: benchlib.sha(data)
                            for name, data in sweep["figures"].items()}}

        cache = bench.fresh("archive")
        run.populate(bench, cache)
        daemon, port = run.start_lab_daemon(bench, cache)
        client = Client(port)
        _, _, bodies = run.rotate(bench, client, run.archive_targets(bench),
                                  rounds=1)
        client.close()
        bench.children.stop(daemon)
        ref["archive-read"] = {
            "cells": benchlib.cache_digests(cache),
            "responses": {t: benchlib.sha(b) for t, b in bodies.items()}}
    finally:
        bench.cleanup()
    if bench.failed:
        raise SystemExit(f"reference run failed: {bench.problems}")
    with open(run.REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
