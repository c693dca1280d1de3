"""Tests of the benchmark's own code (no program build needed):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import argparse
import json
import os
import shutil
import statistics
import tempfile
import unittest

import benchlib
import run

RECORD = "\n".join(json.dumps(line) for line in [
    {"schema": 1, "kind": "cell", "fingerprint": "00000000000000aa",
     "key": {"workload": "gsm", "mode": "protected", "errors": 100,
             "trials": 4, "seed": "0xe77"}},
    {"schema": 1, "kind": "summary", "trials": 4, "completed": 3,
     "crashed": 1, "timed_out": 0, "total_instructions": 1000,
     "wall_seconds_bits": "0x3fc8f46bf3d5358e", "fidelities": 1},
    {"schema": 1, "kind": "fidelity", "bits": "0x4036d4f701afadb8",
     "value": "22.8", "acceptable": True, "unit": "dB PSNR"},
    {"schema": 1, "kind": "end", "lines": 4, "fnv": "0xa6e0437e60ab0f2d"},
]) + "\n"


class TailTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        samples = list(range(1, 1001))
        p, mean, beyond, n = benchlib.tail(samples)
        self.assertEqual((p, beyond, n), (99.0, 10, 1000))
        self.assertEqual(mean, statistics.fmean(range(991, 1001)))
        p, _, beyond, _ = benchlib.tail(samples[:999])
        self.assertEqual((p, beyond), (95.0, 49))  # 9 beyond p99: too few

    def test_small_samples_fall_back(self):
        self.assertEqual(benchlib.tail(list(range(20)))[:3], (50.0, 14.5, 10))
        self.assertEqual(benchlib.tail([3.0, 1.0, 2.0]), (100.0, 3.0, 1, 3))

    def test_percentile_interpolates(self):
        self.assertEqual(benchlib.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertEqual(benchlib.percentile([5], 99), 5)


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 10.0, 9.7]
        q1, median, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(benchlib.quartile_spread(values),
                               (q3 - q1) / statistics.median(values))
        self.assertEqual(benchlib.quartile_spread([2.0] * 10), 0.0)


class DigestTest(unittest.TestCase):
    def test_wall_time_is_ignored(self):
        other_wall = RECORD.replace("0x3fc8f46bf3d5358e", "0x3fd0000000000000")
        other_wall = other_wall.replace("0xa6e0437e60ab0f2d", "0x1")
        self.assertEqual(benchlib.record_digest(RECORD),
                         benchlib.record_digest(other_wall))

    def test_tampered_record_differs(self):
        for old, new in (('"completed": 3', '"completed": 2'),
                         ("0x4036d4f701afadb8", "0x4036d4f701afadb9"),
                         ('"total_instructions": 1000',
                          '"total_instructions": 1001')):
            self.assertNotEqual(benchlib.record_digest(RECORD),
                                benchlib.record_digest(
                                    RECORD.replace(old, new)), old)

    def test_compare_counts_missing_and_changed(self):
        expected = {"a": "1", "b": "2", "c": "3"}
        self.assertEqual(benchlib.compare_digests(expected, expected), 0)
        self.assertEqual(benchlib.compare_digests({"a": "1", "b": "x"},
                                                  expected), 2)


class CheckTest(unittest.TestCase):
    """A tampered record or figure must raise the failed count."""

    def setUp(self):
        self.bench = run.Bench(argparse.Namespace(
            workload="selftest", seed=run.DEFAULT_SEED, seconds=1, trace=0))
        self.tmp = tempfile.mkdtemp()

    def tearDown(self):
        self.bench.cleanup()
        shutil.rmtree(self.tmp)

    def cache(self, name, record):
        cells = os.path.join(self.tmp, name, "cells")
        os.makedirs(cells)
        with open(os.path.join(cells, "00000000000000aa.jsonl"), "w") as f:
            f.write(record)
        return os.path.dirname(cells)

    def fig_check(self, record, figure):
        bench = self.bench
        good = self.cache("good", RECORD)
        sweep = {"cells": [("fig1", 100, "protected")],
                 "figures": {"fig1:200": figure}}
        bench.reference = {"fig-lockstep": {
            "cells": benchlib.cache_digests(good),
            "figures": {"fig1:200": benchlib.sha(b"figure\n")}}}
        bench.run = lambda argv, timeout=0: (0, figure)  # etc_lab report
        run.check_fig_sweeps(bench, "fig-lockstep",
                             [(self.cache("run", record), sweep)])
        return bench.failed

    def test_clean_run_passes(self):
        self.assertEqual(self.fig_check(RECORD, b"figure\n"), 0)
        self.assertGreater(self.bench.attempted, 0)

    def test_tampered_record_fails(self):
        self.assertGreater(
            self.fig_check(RECORD.replace('"crashed": 1', '"crashed": 2'),
                           b"figure\n"), 0)

    def test_tampered_figure_fails(self):
        self.assertGreater(self.fig_check(RECORD, b"figure?\n"), 0)

    def test_query_envelopes_checked_against_records(self):
        bench = self.bench
        records = benchlib.decode_records(self.cache("archive", RECORD))
        bodies = {
            f"/v1/query?agg=cells&seed={bench.seed}": json.dumps(
                dict(benchlib.query_cells(records, bench.seed),
                     agg="cells")).encode(),
            f"/v1/query?{run.ARCHIVE_QUERIES[7]}": json.dumps(
                benchlib.query_curve(records, *run.ARCHIVE_CURVE)).encode()}
        run.check_query_folds(bench, os.path.join(self.tmp, "archive"),
                              bodies)
        self.assertEqual(bench.failed, 0)
        tampered = self.cache("tampered", RECORD.replace('"crashed": 1',
                                                         '"crashed": 2'))
        run.check_query_folds(bench, tampered, bodies)
        self.assertEqual(bench.failed, 1)  # the curve's tallies moved


class QueryFoldTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp()
        os.makedirs(os.path.join(self.tmp, "cells"))
        for fingerprint, seed in (("00000000000000aa", "0xe77"),
                                  ("00000000000000bb", "0xe78")):
            with open(os.path.join(self.tmp, "cells",
                                   f"{fingerprint}.jsonl"), "w") as f:
                f.write(RECORD.replace("0xe77", seed))
        self.records = benchlib.decode_records(self.tmp)

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def test_cells_filters_by_seed(self):
        answer = benchlib.query_cells(self.records, 0xE77)
        self.assertEqual((answer["cellsMatched"], answer["trialsCovered"]),
                         (1, 4))
        self.assertEqual(answer["rows"][0]["fingerprint"], "00000000000000aa")
        self.assertEqual(answer["rows"][0]["policy"], "protected")

    def test_curve_sums_tallies_and_rates(self):
        row, = benchlib.query_curve(self.records, "gsm",
                                    "protected")["rows"]
        self.assertEqual((row["cells"], row["trials"], row["crashed"]),
                         (2, 8, 2))
        self.assertEqual(row["failureRate"], "0.25")
        self.assertEqual(row["acceptableRate"], "0.25")
        self.assertAlmostEqual(float(row["meanFidelity"]), 22.83, places=2)
        self.assertEqual(
            benchlib.query_curve(self.records, "gsm", "unprotected")["rows"],
            [])


if __name__ == "__main__":
    unittest.main()
