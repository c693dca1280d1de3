"""Helpers of the repository benchmark: statistics, record and figure
digests, child-process hygiene, and a timing HTTP client.

Kept free of workload logic so test_benchlib.py can exercise it without
building the program.
"""

import hashlib
import http.client
import json
import os
import signal
import statistics
import struct
import subprocess
import sys
import time

# Tail percentiles tried from the highest down; the tail is the highest
# one with at least TAIL_MIN_BEYOND samples above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def percentile(samples, p):
    """Linear-interpolated percentile (0..100) of a non-empty sample."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail(samples):
    """(percentile, tail mean, samples beyond, sample count).

    The percentile is the highest ladder entry with at least
    TAIL_MIN_BEYOND samples beyond it (the maximum when the sample is
    too small for any); the tail mean averages those samples. A mean
    over ten or more samples repeats from run to run, where a single
    order statistic of clustered data (a figure sweep's cells) jumps
    from one cluster to the next."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_LADDER:
        beyond = int(n * (100.0 - p) / 100.0)
        if beyond >= TAIL_MIN_BEYOND:
            return p, statistics.fmean(ordered[-beyond:]), beyond, n
    return 100.0, ordered[-1], 1, n


def quartile_spread(values):
    """(Q3 - Q1) / median, with the quartiles statistics.quantiles gives."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def sha(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:24]


def record_digest(text):
    """Digest of a decoded cell record with its wall time left out.

    The summary line's wall_seconds_bits is host timing, and the end
    line's checksum covers it, so both are dropped; every other field
    (key, tallies, instruction total, each fidelity's bits) counts."""
    lines = []
    for line in text.splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        obj.pop("wall_seconds_bits", None)
        if obj.get("kind") == "end":
            obj.pop("fnv", None)
        lines.append(json.dumps(obj, sort_keys=True))
    return sha("\n".join(lines))


def cache_digests(cache_dir):
    """{fingerprint: record digest} of every complete cell in a store."""
    cells = os.path.join(cache_dir, "cells")
    out = {}
    if not os.path.isdir(cells):
        return out
    for name in sorted(os.listdir(cells)):
        if name.endswith(".jsonl"):
            with open(os.path.join(cells, name)) as f:
                out[name[: -len(".jsonl")]] = record_digest(f.read())
    return out


def compare_digests(actual, expected):
    """Number of expected entries that are missing or differ."""
    return sum(1 for key, value in expected.items()
               if actual.get(key) != value)


def decode_records(cache_dir):
    """[(fingerprint, key, summary, fidelities)] of every complete cell
    in a store, in fingerprint order (the order the program's index
    folds them in). fidelities are (value, acceptable) pairs, each value
    decoded from its exact bits."""
    cells = os.path.join(cache_dir, "cells")
    out = []
    if not os.path.isdir(cells):
        return out
    for name in sorted(os.listdir(cells)):
        if not name.endswith(".jsonl"):
            continue
        key, summary, fidelities = None, None, []
        with open(os.path.join(cells, name)) as f:
            for line in f:
                obj = json.loads(line)
                if obj["kind"] == "cell":
                    key = obj["key"]
                elif obj["kind"] == "summary":
                    summary = obj
                elif obj["kind"] == "fidelity":
                    bits = struct.pack("<Q", int(obj["bits"], 16))
                    fidelities.append((struct.unpack("<d", bits)[0],
                                       obj["acceptable"]))
        out.append((name[: -len(".jsonl")], key, summary, fidelities))
    return out


def exact(value):
    """A double as the program's query envelopes print it (%.17g)."""
    return "%.17g" % value


def query_cells(records, seed):
    """The agg=cells answer to a seed filter, folded from decoded
    records: the envelope's cellsMatched, trialsCovered and rows."""
    rows = [{"fingerprint": fingerprint, "workload": key["workload"],
             "policy": key["mode"], "errors": key["errors"],
             "trials": key["trials"], "seed": key["seed"]}
            for fingerprint, key, _, _ in records
            if int(key["seed"], 16) == seed]
    return {"cellsMatched": len(rows),
            "trialsCovered": sum(row["trials"] for row in rows),
            "rows": rows}


def query_curve(records, workload, policy):
    """The agg=curve answer to a workload + policy filter, folded from
    decoded records: one row per error count with the summed tallies
    and the failure, acceptable and mean-fidelity rates."""
    tallies = ("cells", "trials", "completed", "crashed", "timedOut",
               "trialsPruned")
    groups = {}
    for _, key, summary, fidelities in records:
        if key["workload"] != workload or key["mode"] != policy:
            continue
        group = groups.setdefault(key["errors"], dict.fromkeys(
            tallies + ("acceptable", "scores", "sum"), 0))
        group["cells"] += 1
        group["trials"] += summary["trials"]
        group["completed"] += summary["completed"]
        group["crashed"] += summary["crashed"]
        group["timedOut"] += summary["timed_out"]
        group["trialsPruned"] += summary.get("trials_pruned", 0)
        for value, acceptable in fidelities:
            group["acceptable"] += acceptable
            group["scores"] += 1
            group["sum"] += value  # one at a time, as the program adds
    rows = []
    for errors, group in sorted(groups.items()):
        trials = group["trials"]
        rows.append(dict(
            {"workload": workload, "policy": policy, "errors": errors},
            **{name: group[name] for name in tallies},
            failureRate=exact((group["crashed"] + group["timedOut"]) /
                              trials if trials else 0.0),
            acceptableRate=exact(group["acceptable"] / trials
                                 if trials else 0.0),
            meanFidelity=exact(group["sum"] / group["scores"]
                               if group["scores"] else 0.0)))
    return {"cellsMatched": sum(row["cells"] for row in rows),
            "trialsCovered": sum(row["trials"] for row in rows),
            "rows": rows}


class Children:
    """Every process the benchmark starts, so each exit path stops them.

    stop() sends SIGTERM, waits, then SIGKILLs a straggler. The caller
    runs stop_all() on its way out; the SIGTERM/SIGINT handlers
    installed here run it too."""

    def __init__(self):
        self.procs = []
        signal.signal(signal.SIGTERM, self._on_signal)
        signal.signal(signal.SIGINT, self._on_signal)

    def _on_signal(self, signum, _frame):
        self.stop_all()
        sys.exit(128 + signum)

    def spawn(self, argv, **kwargs):
        proc = subprocess.Popen(argv, **kwargs)
        self.procs.append(proc)
        return proc

    def wait(self, proc):
        """Reap @p proc; returns its rusage."""
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.procs.remove(proc)
        return usage

    def stop(self, proc, timeout=20.0):
        if proc not in self.procs:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        self.procs.remove(proc)

    def stop_all(self):
        for proc in list(self.procs):
            self.stop(proc)


def peak_rss_kb(pid):
    """VmHWM of a live process, in KiB (0 if unreadable)."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Client:
    """Keep-alive HTTP client that times every request it sends. The
    caller decides which statuses count as failures (a figure answers
    409 while its cells are missing)."""

    def __init__(self, port, timeout=30.0):
        self.port = port
        self.timeout = timeout
        self.conn = None

    def request(self, method, target, body=None):
        """(status, body bytes, seconds); status 0 on transport error."""
        start = time.perf_counter()
        try:
            if self.conn is None:
                self.conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=self.timeout)
            self.conn.request(method, target, body=body)
            response = self.conn.getresponse()
            data = response.read()
            status = response.status
        except (OSError, http.client.HTTPException):
            self.close()
            status, data = 0, b""
        return status, data, time.perf_counter() - start

    def get_text(self, target):
        status, data, _ = self.request("GET", target)
        if status != 200:
            raise RuntimeError(f"GET {target} answered {status}")
        return data.decode()

    def get_json(self, target):
        return json.loads(self.get_text(target))

    def close(self):
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def wait_for_port(log_path, proc, pattern, timeout=60.0):
    """Poll a child's log file for the port it printed."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"{proc.args[0]} exited before listening")
        if os.path.exists(log_path):
            with open(log_path) as f:
                match = pattern.search(f.read())
            if match:
                return int(match.group(1))
        time.sleep(0.002)
    raise TimeoutError(f"{proc.args[0]} never printed its port")


def wait_healthy(port, timeout=60.0):
    deadline = time.time() + timeout
    client = Client(port, timeout=5.0)
    try:
        while time.time() < deadline:
            status, _, _ = client.request("GET", "/v1/healthz")
            if status == 200:
                return
            time.sleep(0.002)
    finally:
        client.close()
    raise TimeoutError("daemon never answered /v1/healthz")
