#!/usr/bin/env python3
"""The repository benchmark: cold figure sweeps and archive reads, with a
separate traced run for per-layer timing.

    python3 perfbench/run.py --workload fig-lockstep --seed 1 \
        --seconds 20 --trace 0

Run from the repository root (or anywhere: paths resolve from this
file). The first run configures and builds etc_lab and the benchmark's
layer probe under .bench_build/perfbench; later runs reuse the build.
The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones, and a
`traced_report` line before it gives every layer's busy time, counts,
and each ratio with its base. See perfbench/README.md.
"""

import argparse
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time

import benchlib
from benchlib import Children, Client

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
LAB = os.path.join(BUILD, "etc", "etc_lab")
PROBE = os.path.join(BUILD, "etc_probe")
REFERENCE = os.path.join(HERE, "reference.json")

THREADS = max(1, min(4, os.cpu_count() or 1))
DEFAULT_SEED = 0xE77  # the program's default study seed

FIG_TRIALS = 200
FIG_EXPERIMENTS = {"fig-lockstep": ["fig1", "fig2"], "fig-diverge": ["fig3"]}
# Seconds one cold sweep takes on a 4-core host. A run makes a fixed
# number of sweeps, --seconds / this, so every run of a workload has the
# same number of cell samples: cell times cluster by cell, and a varying
# sample count moves the tail percentile from one cluster to another.
FIG_SWEEP_S = {"fig-lockstep": 8.0, "fig-diverge": 3.8}
# Warm re-runs per fig run over the first sweep's store. Each serves
# every cell from the store, so it adds a set-up sample (a few ms, with
# a long right tail) for little time, and setup_s is their median.
FIG_WARM_RUNS = 30

ARCHIVE_EXPERIMENTS = ["smoke", "smoke-gsm", "ablation_policies", "fig5",
                       "fig6"]
ARCHIVE_SEEDS = 8
ARCHIVE_CURVE = ("gsm", "protected")
ARCHIVE_QUERIES = [
    "agg=cells", "agg=coverage", "agg=curve", "agg=delta", "agg=cdf",
    "agg=avf&workload=adpcm", "agg=avf&workload=gsm",
    "agg=curve&workload={0}&policy={1}".format(*ARCHIVE_CURVE),
    "agg=cdf&workload=adpcm&errors=1&errors=3",
    "agg=delta&workload=art&base=protected",
    "agg=cells&seed={seed}", "agg=coverage&trials=25",
]

# The traced run's in-process daemon splits each cell into this many
# leases, so the lease and shard endpoints see many requests.
SERVICE_CHUNKS = 16
POLL_INTERVAL_S = 0.01

# archive-read restarts its daemon this many times per run and pools
# the samples: one daemon process stays fast or slow for its whole life
# (by up to 1.5x on a shared 4-vCPU host), so pooling several processes
# is what makes one run's numbers repeat.
SESSIONS = 5

CELL_LINE = re.compile(r"^info: (\S+): errors=(\d+) \(([^,]+), (\d+) trials")
LAB_JSON = re.compile(r"^ETC_LAB_JSON (\{.*\})$")
SERVE_PORT = re.compile(r"serving campaign API on http://127\.0\.0\.1:(\d+)")
PROBE_PORT = re.compile(r'\{"port":(\d+)\}')

SERVICE_ENDPOINTS = ["jobs_post", "jobs_get", "figures", "query",
                     "leases_acquire", "leases_complete", "shards",
                     "healthz", "metricz"]
QUERY_AGGS = ["cells", "coverage", "curve", "delta", "cdf", "avf"]


def endpoint_of(method, target):
    """The probe's endpoint name of a request (probe.cc endpointOf)."""
    path = target.split("?", 1)[0]
    if path == "/v1/jobs":
        return "jobs_post" if method == "POST" else "other"
    for prefix, name in (("/v1/jobs/", "jobs_get"),
                         ("/v1/figures/", "figures")):
        if path.startswith(prefix):
            return name
    return {"/v1/query": "query", "/v1/healthz": "healthz",
            "/v1/metricz": "metricz"}.get(path, "other")


class Bench:
    """One benchmark run: its options, children, scratch space, and the
    attempted/failed tally of every checked operation."""

    def __init__(self, args):
        self.args = args
        self.seed = args.seed
        self.children = Children()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self._dirs = 0
        self.reference = {}
        if os.path.exists(REFERENCE):
            with open(REFERENCE) as f:
                self.reference = json.load(f)

    def fresh(self, name):
        self._dirs += 1
        path = os.path.join(self.work, f"{self._dirs:03d}-{name}")
        os.makedirs(path)
        return path

    def check(self, ok, what, count=1):
        """Count @p count operations; all fail when @p ok is false."""
        self.attempted += count
        if not ok:
            self.failed += count
            self.problems.append(what)

    def default_seed(self):
        return self.seed == DEFAULT_SEED

    def run(self, argv, timeout=170):
        """Run a tool to completion; (returncode, stdout bytes)."""
        proc = subprocess.run(argv, capture_output=True, timeout=timeout)
        return proc.returncode, proc.stdout

    def probe(self, *argv):
        code, out = self.run([PROBE, *argv])
        if code != 0:
            raise RuntimeError(f"etc_probe {argv[0]} failed")
        return json.loads(out.decode().strip().splitlines()[-1])

    def cleanup(self):
        """Stop every child and delete the scratch stores. The sync makes
        the file system finish freeing (and discarding) the thousands of
        deleted record files now, not during the next run's timing."""
        self.children.stop_all()
        shutil.rmtree(self.work, ignore_errors=True)
        os.sync()


def check_oracle_cell(bench, what, digests, exp, errors, policy, trials,
                      seed):
    """Re-run one cell through ErrorToleranceStudy::runCell with the
    scalar engine and no checkpoints (untimed); the record in
    @p digests must equal the oracle's."""
    oracle = bench.fresh("oracle")
    cell = bench.probe("cell", "--experiment", exp, "--errors", str(errors),
                       "--policy", policy, "--trials", str(trials),
                       "--seed", str(seed), "--cache-dir", oracle,
                       "--threads", str(THREADS), "--gang-width", "0",
                       "--checkpoint-interval", "0")
    expected = benchlib.cache_digests(oracle).get(cell["fingerprint"])
    bench.check(expected is not None and
                digests.get(cell["fingerprint"]) == expected,
                f"{what}: {exp} errors={errors} {policy} seed={seed} "
                "differs from the scalar oracle")


# ---- fig-lockstep / fig-diverge -------------------------------------------

def lab_sweep(bench, experiments, cache, trace_out=None):
    """One `etc_lab run` per experiment into @p cache: cold when the
    store is empty, served from it when a sweep already filled it.

    Set-up is spawn to the first cell's progress line: process start,
    workload assembly, protection analysis and the first store probe.
    The program runs each policy's golden run lazily, inside that
    policy's first cell, so the golden runs count in the sweep wall."""
    sweep = {"wall": 0.0, "setup": 0.0, "cells": [], "latencies": [],
             "figures": {}, "trials": 0, "rss_kb": 0, "cpu": 0.0,
             "traces": []}
    for exp in experiments:
        argv = [LAB, "run", "--experiment", exp, "--trials",
                str(FIG_TRIALS), "--seed", str(bench.seed), "--cache-dir",
                cache, "--threads", str(THREADS)]
        if trace_out:
            path = f"{trace_out}.{exp}.jsonl"
            argv += ["--trace-out", path]
            sweep["traces"].append(path)
        out_path = os.path.join(cache, f"{exp}.out")
        starts = []
        start = time.perf_counter()
        with open(out_path, "wb") as out:
            proc = bench.children.spawn(argv, stdout=out,
                                        stderr=subprocess.PIPE, text=True)
            for line in proc.stderr:
                if match := CELL_LINE.match(line):
                    starts.append(time.perf_counter())
                    sweep["cells"].append(
                        (exp, int(match.group(2)), match.group(3)))
                elif match := LAB_JSON.match(line.strip()):
                    sweep["trials"] += json.loads(
                        match.group(1))["trials_executed"]
            usage = bench.children.wait(proc)
        end = time.perf_counter()
        bench.check(proc.returncode == 0 and starts, f"etc_lab run {exp} "
                    f"exited {proc.returncode}")
        sweep["wall"] += end - start
        sweep["setup"] += (starts or [end])[0] - start
        sweep["latencies"] += [b - a for a, b in
                               zip(starts, starts[1:] + [end])]
        with open(out_path, "rb") as f:
            sweep["figures"][f"{exp}:{FIG_TRIALS}"] = f.read()
        sweep["rss_kb"] = max(sweep["rss_kb"], usage.ru_maxrss)
        sweep["cpu"] += usage.ru_utime + usage.ru_stime
    return sweep


def check_fig_sweeps(bench, workload, sweeps):
    """Every sweep's records and figures against the reference (default
    seed) or the first sweep plus an untimed scalar oracle cell."""
    first_cache, first = sweeps[0]
    digests = benchlib.cache_digests(first_cache)
    bench.check(len(digests) == len(first["cells"]),
                f"{workload}: {len(digests)} records for "
                f"{len(first['cells'])} cells", len(first["cells"]))
    for cache, sweep in sweeps[1:]:
        bad = benchlib.compare_digests(benchlib.cache_digests(cache),
                                       digests)
        bench.check(bad == 0, f"{workload}: sweep records differ",
                    len(digests))
        for name, data in sweep["figures"].items():
            bench.check(data == first["figures"][name],
                        f"{workload}: figure {name} differs")
    for name, data in first["figures"].items():
        exp, trials = name.split(":")
        code, report = bench.run([LAB, "report", "--experiment", exp,
                                  "--trials", trials, "--seed",
                                  str(bench.seed), "--cache-dir",
                                  first_cache])
        bench.check(code == 0 and report == data,
                    f"{workload}: report {name} differs from run")
    if bench.default_seed() and workload in bench.reference:
        ref = bench.reference[workload]
        bad = benchlib.compare_digests(digests, ref["cells"])
        bench.check(bad == 0 and len(digests) == len(ref["cells"]),
                    f"{workload}: {bad} records differ from reference",
                    len(ref["cells"]))
        for name, digest in ref["figures"].items():
            bench.check(benchlib.sha(first["figures"].get(name, b"")) ==
                        digest, f"{workload}: figure {name} differs "
                        "from reference")
    else:
        exp, errors, policy = random.Random(bench.seed).choice(
            first["cells"])
        check_oracle_cell(bench, workload, digests, exp, errors, policy,
                          FIG_TRIALS, bench.seed)


def run_fig(bench, workload):
    experiments = FIG_EXPERIMENTS[workload]
    sweeps = []
    for _ in range(max(1, int(bench.args.seconds / FIG_SWEEP_S[workload]))):
        cache = bench.fresh("sweep")
        sweeps.append((cache, lab_sweep(bench, experiments, cache)))
    check_fig_sweeps(bench, workload, sweeps)
    first_cache, first = sweeps[0]
    warm = [lab_sweep(bench, experiments, first_cache)
            for _ in range(FIG_WARM_RUNS)]
    for sweep in warm:
        bench.check(sweep["trials"] == 0 and
                    sweep["figures"] == first["figures"],
                    f"{workload}: a warm re-run simulated or changed a "
                    "figure")
    walls = [s["wall"] for _, s in sweeps]
    setups = [s["setup"] for _, s in sweeps] + [s["setup"] for s in warm]
    latencies = [x for _, s in sweeps for x in s["latencies"]]
    campaign = statistics.median(walls)
    return end_to_end(
        setup=statistics.median(setups),
        campaign=campaign,
        latencies=latencies,
        rss_kb=max(s["rss_kb"] for _, s in sweeps),
        detail={"sweeps": len(sweeps), "sweep_walls_s": walls,
                "setup_samples_s": setups,
                "trials_per_s": first["trials"] / campaign})


def trace_fig(bench, workload):
    experiments = FIG_EXPERIMENTS[workload]
    setup = probe_setup(bench, experiments)
    plain_cache = bench.fresh("plain")
    plain = lab_sweep(bench, experiments, plain_cache)
    traced_cache = bench.fresh("traced")
    traced = lab_sweep(bench, experiments, traced_cache,
                       trace_out=os.path.join(traced_cache, "trace"))
    specs = [f"{exp}:{FIG_TRIALS}" for exp in experiments]
    probe_cache = bench.fresh("probe")
    sweep = probe_sweep(bench, specs, probe_cache)
    reference = benchlib.cache_digests(plain_cache)
    for cache in (traced_cache, probe_cache):
        bad = benchlib.compare_digests(benchlib.cache_digests(cache),
                                       reference)
        bench.check(bad == 0, f"{workload}: traced/probe records differ",
                    len(reference))
    read = probe_read(bench, specs, probe_cache)
    exp, errors, policy = plain["cells"][0]
    avf_workload = {"fig1": "susan", "fig3": "mcf"}[experiments[0]]
    service = service_pass(
        bench, probe_cache,
        lambda client: read_requests(
            bench, client, [f"/v1/figures/{e}?trials={FIG_TRIALS}"
                            for e in experiments], avf_workload, rounds=3)
        + single_cell_job(bench, client, exp, errors))
    spans = span_totals(traced["traces"])
    per_experiment = {
        exp: span_totals([p for p in traced["traces"]
                          if p.endswith(f".{exp}.jsonl")])
        for exp in experiments}
    return layer_metrics(
        setup=setup, sweep=sweep, read=read, service=service, spans=spans,
        cpu_util=plain["cpu"] / (plain["wall"] * THREADS),
        overhead=traced["wall"] - plain["wall"],
        overhead_base=("campaign_s", plain["wall"]),
        extra={"drain_share_by_experiment": {
            exp: ratio(t["drain"], t["gang"])
            for exp, t in per_experiment.items()}})


# ---- archive-read ----------------------------------------------------------

def populate(bench, cache, trace_dir=None):
    """Fill the archive: every archive experiment under ARCHIVE_SEEDS
    seeds. Returns (seconds, figures at the benchmark seed, archived
    cells as (seed, experiment, errors, policy, trials), CPU seconds,
    trace files)."""
    figures, cells, traces, logs = {}, [], [], []
    cpu = 0.0
    log_dir = bench.fresh("populate")
    start = time.perf_counter()
    for offset in range(ARCHIVE_SEEDS):
        seed = bench.seed + offset
        for exp in ARCHIVE_EXPERIMENTS:
            argv = [LAB, "run", "--experiment", exp, "--seed", str(seed),
                    "--cache-dir", cache, "--threads", str(THREADS)]
            if trace_dir:
                traces.append(os.path.join(trace_dir,
                                           f"{exp}.{offset}.jsonl"))
                argv += ["--trace-out", traces[-1]]
            out_path = os.path.join(log_dir, f"{exp}.{offset}.out")
            err_path = os.path.join(log_dir, f"{exp}.{offset}.err")
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                proc = bench.children.spawn(argv, stdout=out, stderr=err)
                usage = bench.children.wait(proc)
            bench.check(proc.returncode == 0, f"populate {exp} failed")
            cpu += usage.ru_utime + usage.ru_stime
            logs.append((seed, exp, out_path, err_path))
    seconds = time.perf_counter() - start
    for seed, exp, out_path, err_path in logs:
        if seed == bench.seed:
            with open(out_path, "rb") as f:
                figures[exp] = f.read()
        with open(err_path) as f:
            cells += [(seed, exp, int(m.group(2)), m.group(3),
                       int(m.group(4)))
                      for m in map(CELL_LINE.match, f) if m]
    return seconds, figures, cells, cpu, traces


def archive_targets(bench):
    targets = [f"/v1/query?{q.format(seed=bench.seed)}"
               for q in ARCHIVE_QUERIES]
    return targets + [f"/v1/figures/{exp}" for exp in ARCHIVE_EXPERIMENTS]


def start_lab_daemon(bench, cache, extra=()):
    log = os.path.join(bench.fresh("daemon"), "serve.log")
    with open(log, "w") as err:
        proc = bench.children.spawn(
            [LAB, "serve", "--workers", "0", "--port", "0", "--cache-dir",
             cache, "--seed", str(bench.seed), "--threads", str(THREADS),
             *extra], stdout=subprocess.DEVNULL, stderr=err)
    port = benchlib.wait_for_port(log, proc, SERVE_PORT)
    benchlib.wait_healthy(port)
    return proc, port


def metric_value(scrape, name):
    for line in scrape.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    return 0.0


def rotate(bench, client, targets, seconds=None, rounds=None):
    """Closed-loop GETs over @p targets; (rotation walls, latencies,
    bodies by target). Stops after @p rounds, or once another rotation
    would overrun @p seconds."""
    walls, latencies, bodies = [], [], {}
    began = time.perf_counter()
    while True:
        start = time.perf_counter()
        for target in targets:
            status, body, dt = client.request("GET", target)
            latencies.append(dt)
            first = bodies.setdefault(target, body)
            bench.check(status == 200 and body == first,
                        f"GET {target}: status {status} or changed bytes")
        walls.append(time.perf_counter() - start)
        if rounds is not None and len(walls) >= rounds:
            break
        if seconds is not None and \
                time.perf_counter() - began + walls[-1] > seconds:
            break
    return walls, latencies, bodies


def check_query_folds(bench, cache, bodies):
    """The served agg=cells (benchmark seed) and agg=curve envelopes
    against the benchmark's own fold of the archive's decoded records:
    an oracle that shares no code with the program's query engine."""
    records = benchlib.decode_records(cache)
    for query, expected in (
            (f"agg=cells&seed={bench.seed}",
             benchlib.query_cells(records, bench.seed)),
            (ARCHIVE_QUERIES[7], benchlib.query_curve(records,
                                                      *ARCHIVE_CURVE))):
        envelope = json.loads(bodies.get(f"/v1/query?{query}") or "{}")
        bench.check(all(envelope.get(k) == v for k, v in expected.items()),
                    f"{query} differs from the decoded records")


def check_archive(bench, cache, figures, cells, bodies):
    """Served figures against the `etc_lab run` renders, served query
    envelopes against `etc_lab query --json`, two aggregations against
    the benchmark's own fold of the decoded records, and the archive's
    records against the reference (default seed) or one sampled cell
    against the scalar oracle (other seeds)."""
    for exp, data in figures.items():
        bench.check(bodies.get(f"/v1/figures/{exp}") == data,
                    f"figure {exp} differs from the etc_lab run render")
    for query in ARCHIVE_QUERIES:
        params = [p.split("=", 1) for p in
                  query.format(seed=bench.seed).split("&")]
        argv = [LAB, "query", "--cache-dir", cache, "--json"]
        for key, value in params:
            argv += ["--agg" if key == "agg" else f"--{key}", value]
        code, out = bench.run(argv)
        target = f"/v1/query?{query.format(seed=bench.seed)}"
        bench.check(code == 0 and out == bodies.get(target),
                    f"{target} differs from etc_lab query --json")
    check_query_folds(bench, cache, bodies)
    digests = benchlib.cache_digests(cache)
    if bench.default_seed() and "archive-read" in bench.reference:
        ref = bench.reference["archive-read"]
        bad = benchlib.compare_digests(digests, ref["cells"])
        bench.check(bad == 0 and len(digests) == len(ref["cells"]),
                    f"archive: {bad} records differ from reference",
                    len(ref["cells"]))
        for target, digest in ref["responses"].items():
            bench.check(benchlib.sha(bodies.get(target, b"")) == digest,
                        f"{target} differs from reference")
    else:
        seed, exp, errors, policy, trials = random.Random(
            bench.seed).choice(cells)
        check_oracle_cell(bench, "archive-read", digests, exp, errors,
                          policy, trials, seed)


def run_archive(bench):
    cache = bench.fresh("archive")
    populate_s, figures, cells, _, _ = populate(bench, cache)
    starts, walls, latencies, rss, served = [], [], [], 0, None
    for _ in range(SESSIONS):
        start = time.perf_counter()
        proc, port = start_lab_daemon(bench, cache)
        starts.append(time.perf_counter() - start)
        client = Client(port)
        before = metric_value(client.get_text("/v1/metricz"),
                              "etc_trials_simulated_total")
        session_walls, session_latencies, bodies = rotate(
            bench, client, archive_targets(bench),
            seconds=bench.args.seconds / SESSIONS)
        after = metric_value(client.get_text("/v1/metricz"),
                             "etc_trials_simulated_total")
        bench.check(after == before, "archive-read simulated trials")
        rss = max(rss, benchlib.peak_rss_kb(proc.pid))
        client.close()
        bench.children.stop(proc)
        walls += session_walls
        latencies += session_latencies
        served = served or bodies
        bench.check(bodies == served, "archive-read answers differ "
                    "between daemon sessions")
    check_archive(bench, cache, figures, cells, served)
    return end_to_end(
        setup=populate_s + statistics.median(starts),
        campaign=statistics.median(walls), latencies=latencies,
        rss_kb=rss, detail={"rotations": len(walls),
                            "populate_s": populate_s,
                            "daemon_start_s": starts})


def trace_archive(bench):
    cache = bench.fresh("archive")
    traces = bench.fresh("traces")
    populate_s, figures, cells, cpu, trace_files = populate(bench, cache,
                                                            traces)
    targets = archive_targets(bench)
    walls = {}
    for label, extra in (("plain", ()), ("traced", (
            "--trace-out", os.path.join(traces, "serve.jsonl")))):
        proc, port = start_lab_daemon(bench, cache, extra)
        client = Client(port)
        walls[label], _, bodies = rotate(bench, client, targets, rounds=5)
        client.close()
        bench.children.stop(proc)
    check_archive(bench, cache, figures, cells, bodies)
    specs = ARCHIVE_EXPERIMENTS
    setup = probe_setup(bench, specs)
    probe_cache = bench.fresh("probe")
    sweep = probe_sweep(bench, specs, probe_cache)
    check_subset(bench, "archive-read", probe_cache, cache)
    read = probe_read(bench, specs, cache)
    service = service_pass(
        bench, cache,
        lambda client: read_requests(bench, client, targets, "adpcm",
                                     rounds=3)
        + single_cell_job(bench, client, "smoke", 1))
    plain = statistics.median(walls["plain"])
    return layer_metrics(
        setup=setup, sweep=sweep, read=read, service=service,
        spans=span_totals(trace_files),
        cpu_util=cpu / (populate_s * THREADS),
        overhead=statistics.median(walls["traced"]) - plain,
        overhead_base=("campaign_s", plain))


# ---- traced-run layers -----------------------------------------------------

def check_subset(bench, workload, probe_cache, cache):
    """The probe's records must equal the program's records of the same
    cells, bit for bit (wall time aside)."""
    probe = benchlib.cache_digests(probe_cache)
    bad = benchlib.compare_digests(benchlib.cache_digests(cache), probe)
    bench.check(bad == 0 and probe, f"{workload}: {bad} probe records "
                "differ from the program's", max(1, len(probe)))


def probe_setup(bench, experiments):
    flags = [a for exp in experiments for a in ("--experiment", exp)]
    return bench.probe("setup", *flags, "--seed", str(bench.seed))


def probe_sweep(bench, specs, cache):
    flags = [a for spec in specs for a in ("--experiment", spec)]
    return bench.probe("sweep", *flags, "--seed", str(bench.seed),
                       "--cache-dir", cache, "--chunks", "4", "--threads",
                       str(THREADS))


def probe_read(bench, specs, cache):
    flags = [a for spec in specs for a in ("--experiment", spec)]
    return bench.probe("read", *flags, "--seed", str(bench.seed),
                       "--cache-dir", cache)


def read_requests(bench, client, targets, avf_workload, rounds):
    """GET @p targets plus one query per aggregation, healthz and
    metricz, @p rounds times; (endpoint, seconds) per request."""
    sent = []
    aggs = [f"/v1/query?agg={agg}" +
            (f"&workload={avf_workload}" if agg == "avf" else "")
            for agg in QUERY_AGGS]
    for _ in range(rounds):
        for target in targets + aggs + ["/v1/healthz", "/v1/metricz"]:
            status, _, dt = client.request("GET", target)
            bench.check(status == 200, f"GET {target}: {status}")
            sent.append((endpoint_of("GET", target), dt))
    return sent


def single_cell_job(bench, client, exp, errors):
    """One single-cell job through the coordinator and its agent, so the
    lease and shard endpoints are timed on every workload. Polls job
    status on a fixed schedule until the job drains; (endpoint, seconds)
    per request."""
    body = {"experiment": exp, "trials": 64, "errors": errors,
            "policy": "protected"}
    status, reply, dt = client.request("POST", "/v1/jobs", json.dumps(body))
    sent = [("jobs_post", dt)]
    bench.check(200 <= status < 300, f"POST /v1/jobs {body}: {status}")
    if not 200 <= status < 300:
        return sent
    job = json.loads(reply)["job"]
    due = time.perf_counter()
    while True:
        due += POLL_INTERVAL_S
        time.sleep(max(0.0, due - time.perf_counter()))
        status, reply, dt = client.request("GET", f"/v1/jobs/{job}")
        sent.append(("jobs_get", dt))
        state = json.loads(reply) if status == 200 else {"state": "failed"}
        if state["state"] in ("done", "failed"):
            break
    bench.check(state["state"] == "done", f"job {body} failed")
    return sent


def start_agent(bench, port):
    """One `etc_lab work` agent with THREADS campaign threads; returns
    it once the coordinator lists it."""
    agent = bench.children.spawn(
        [LAB, "work", "--coordinator", f"http://127.0.0.1:{port}",
         "--threads", str(THREADS), "--poll-ms", "5", "--name", "agent0",
         "--cache-dir", bench.fresh("agent")],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    client = Client(port)
    deadline = time.time() + 60
    while client.get_json("/v1/fleet")["workers"] < 1:
        if time.time() > deadline:
            raise TimeoutError("the agent never reached the coordinator")
        time.sleep(0.002)
    client.close()
    return agent


def service_pass(bench, cache, client_loop):
    """The in-process daemon (etc_probe serve) over @p cache with one
    `etc_lab work` agent; runs @p client_loop and returns the probe's
    handler stats plus client-observed latency per endpoint."""
    log = os.path.join(bench.fresh("probe-serve"), "stdout")
    with open(log, "w") as out:
        daemon = bench.children.spawn(
            [PROBE, "serve", "--cache-dir", cache, "--seed", str(bench.seed),
             "--chunks", str(SERVICE_CHUNKS), "--threads", str(THREADS)],
            stdout=out, stderr=subprocess.DEVNULL)
    port = benchlib.wait_for_port(log, daemon, PROBE_PORT)
    benchlib.wait_healthy(port)
    agent = start_agent(bench, port)
    client = Client(port)
    sent = client_loop(client)
    stats = client.get_json("/probe/stats")
    client.close()
    bench.children.stop(agent)
    bench.children.stop(daemon)
    client_seconds = {}
    for endpoint, seconds in sent:
        n, total = client_seconds.get(endpoint, (0, 0.0))
        client_seconds[endpoint] = (n + 1, total + seconds)
    return {"stats": stats, "client": client_seconds}


def span_totals(paths):
    """Busy seconds of the program's engine/gang and engine/drain-lane
    spans across trace files."""
    totals = {"gang": 0.0, "drain": 0.0}
    for path in paths:
        if not os.path.exists(path):
            continue
        with open(path) as f:
            for line in f:
                if not line.strip():
                    continue
                event = json.loads(line)
                if event.get("cat") != "engine":
                    continue
                if event.get("name") == "gang":
                    totals["gang"] += event["dur"] / 1e6
                elif event.get("name") == "drain-lane":
                    totals["drain"] += event["dur"] / 1e6
    return totals


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(setup, sweep, read, service, spans, cpu_util, overhead,
                  overhead_base, extra=None):
    """Every per-layer metric, plus the traced report: each layer's busy
    time and counts, and every ratio with its base."""
    stats = service["stats"]
    values = {
        "analysis.protect_s": (setup["protect_s"], "s"),
        "sim.golden_s": (setup["golden_s"], "s"),
        "sim.checkpoints": (setup["checkpoints"], "count"),
        "sim.interp_minstr_per_s": (
            ratio(setup["interp_instructions"], setup["interp_s"]) / 1e6,
            "Minstr/s"),
        "sim.restores": (sweep["restores"], "count"),
        "sim.pages_applied": (sweep["pages_applied"], "count"),
        "sim.pages_reverted": (sweep["pages_reverted"], "count"),
        "fault.run_s": (sweep["run_s"], "s"),
        "fault.gang_s": (spans["gang"], "s"),
        "fault.drain_s": (spans["drain"], "s"),
        "fault.drain_share": (ratio(spans["drain"], spans["gang"]), "ratio"),
        "fault.eviction_ratio": (
            ratio(sweep["gang_evictions"], sweep["gang_lanes"]), "ratio"),
        "fault.gang_occupancy": (
            ratio(sweep["gang_lanes"], sweep["gang_lane_slots"]), "ratio"),
        "fault.cpu_util": (cpu_util, "ratio"),
        "fault.trials": (sweep["trials"], "count"),
        "fault.trial_minstr": (sweep["trial_instructions"] / 1e6, "Minstr"),
        "fidelity.score_s": (sweep["score_s"], "s"),
        "core.chunk_s": (sweep["chunk_s"], "s"),
        "core.assemble_s": (sweep["assemble_s"], "s"),
        "store.shard_write_s": (sweep["shard_write_s"], "s"),
        "store.cell_write_s": (sweep["cell_write_s"], "s"),
        "store.bytes_written": (sweep["bytes_written"], "bytes"),
        "store.merge_s": (sweep["merge_s"], "s"),
        "index.journal_appends": (sweep["journal_appends"], "count"),
        "store.load_s": (read["store_load_s"], "s"),
        "store.bytes_read": (read["bytes_read"], "bytes"),
        "index.load_s": (read["index_load_s"], "s"),
        "query.records_loaded": (read["records_loaded"], "count"),
        "report.render_ms": (read["render_s"] * 1e3, "ms"),
    }
    for agg in QUERY_AGGS:
        values[f"query.{agg}_ms"] = (read[f"query_{agg}_s"] * 1e3, "ms")
    handler_s = 0.0
    for endpoint in SERVICE_ENDPOINTS:
        n = stats.get(f"{endpoint}_n", 0)
        values[f"service.{endpoint}_ms"] = (
            ratio(stats.get(f"{endpoint}_s", 0.0), n) * 1e3, "ms")
    client_s, client_n = 0.0, 0
    for endpoint, (n, seconds) in service["client"].items():
        if endpoint not in SERVICE_ENDPOINTS:
            continue
        client_s += seconds
        client_n += n
        handler_s += ratio(stats.get(f"{endpoint}_s", 0.0),
                           stats.get(f"{endpoint}_n", 0)) * n
    values["service.transport_ms"] = (
        ratio(client_s - handler_s, client_n) * 1e3, "ms")
    values["service.lease_turnaround_ms"] = (
        ratio(stats["turnaround_s"], stats["turnaround_n"]) * 1e3, "ms")
    for name in ("leases_issued", "leases_reissued", "leases_expired",
                 "heartbeats"):
        values[f"service.{name}"] = (stats[name], "count")
    values["trace.overhead_s"] = (overhead, "s")
    service_s = sum(stats.get(f"{e}_s", 0.0) for e in SERVICE_ENDPOINTS)
    store_s = sweep["shard_write_s"] + sweep["cell_write_s"] + \
        sweep["merge_s"]

    report = {
        "busy_s": {k: v for k, (v, unit) in values.items() if unit == "s"},
        "counts": {k: v for k, (v, unit) in values.items()
                   if unit in ("count", "bytes")},
        "ratios": {
            "fault.drain_share": {"value": values["fault.drain_share"][0],
                                  "num": "fault.drain_s",
                                  "base": "fault.gang_s",
                                  "base_value": spans["gang"]},
            "fault.eviction_ratio": {
                "value": values["fault.eviction_ratio"][0],
                "num": "gang lane evictions", "base": "gang lanes",
                "base_value": sweep["gang_lanes"]},
            "fault.gang_occupancy": {
                "value": values["fault.gang_occupancy"][0],
                "num": "gang lanes", "base": "gang lane slots",
                "base_value": sweep["gang_lane_slots"]},
            "fault.cpu_util": {"value": cpu_util,
                               "num": "process CPU seconds",
                               "base": "wall x threads",
                               "threads": THREADS},
            "service_store_over_run": {
                "value": ratio(service_s + store_s, sweep["run_s"]),
                "num": "service handler seconds + store write/merge "
                       "seconds",
                "base": "fault.run_s", "base_value": sweep["run_s"],
                "service_s": service_s, "store_s": store_s},
            "trace.overhead_share": {
                "value": ratio(overhead, overhead_base[1]),
                "num": "traced - untraced " + overhead_base[0],
                "base": "untraced " + overhead_base[0],
                "base_value": overhead_base[1]},
        },
        "service_requests": {e: stats.get(f"{e}_n", 0)
                             for e in SERVICE_ENDPOINTS},
        "probe": {"setup": setup, "sweep": sweep, "read": read},
    }
    if extra:
        report.update(extra)
    return {"metrics": values, "report": report}


# ---- end-to-end assembly ---------------------------------------------------

def end_to_end(setup, campaign, latencies, rss_kb, detail):
    tail_p, tail_mean, beyond, n = benchlib.tail(latencies)
    values = {
        "setup_s": (setup, "s"),
        "campaign_s": (campaign, "s"),
        "latency_mean_ms": (statistics.fmean(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail_mean * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    detail = dict(detail, latency_samples=n, latency_tail_percentile=tail_p,
                  latency_tail_samples=beyond,
                  latency_p50_ms=benchlib.percentile(latencies, 50) * 1e3)
    return {"metrics": values, "report": detail}


RUNNERS = {
    "fig-lockstep": (lambda b: run_fig(b, "fig-lockstep"),
                     lambda b: trace_fig(b, "fig-lockstep")),
    "fig-diverge": (lambda b: run_fig(b, "fig-diverge"),
                    lambda b: trace_fig(b, "fig-diverge")),
    "archive-read": (run_archive, trace_archive),
}


def build():
    """Configure (once) and build etc_lab + etc_probe from the sources of
    this checkout; exits nonzero without a result when they are absent."""
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no program sources next to perfbench/ "
                 "(expected ../CMakeLists.txt and ../src)")
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    with open(log, "w") as out:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", str(THREADS),
                      "--target", "etc_lab", "etc_probe"])
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=out).returncode:
                sys.stderr.write(open(log).read()[-4000:])
                sys.exit("perfbench: build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=RUNNERS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    build()

    bench = Bench(args)
    try:
        result = RUNNERS[args.workload][args.trace](bench)
    finally:
        bench.cleanup()
    for problem in bench.problems:
        sys.stderr.write(f"perfbench: FAILED {problem}\n")
    label = "traced_report" if args.trace else "report"
    print(json.dumps({label: result["report"], "workload": args.workload,
                      "seed": args.seed, "threads": THREADS}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": max(1, bench.attempted),
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
