#!/usr/bin/env python3
"""End-to-end benchmark of the dlsr-hpc trainer, server and simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. Builds perfbench/ (and the library sources it
compiles) into .bench_build/perfbench, runs the workload in a child process
(dlsr_perfbench), and prints one JSON object as the last stdout line:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 the per-layer ones, from a run with the span tracer on. The child
streams one record per finished operation, so a child that dies on a signal
still reports what it finished: the operations it did not finish count as
failed and the signal is named on stderr. Such a run is never retried.
See perfbench/README.md for workloads, metrics and checks.
"""

import argparse
import fcntl
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "dlsr_perfbench")

# serve_open: the latency limit on p99 for a ladder rate to count as met, a
# refused or unresolved request's stand-in latency (it misses any limit),
# and the backlog rule (last third of a rung much slower than its first).
SERVE_P99_LIMIT_MS = 100.0
SERVE_MISS_MS = 10000.0
BACKLOG_FACTOR = 2.0
BACKLOG_MIN_MS = 10.0
# A child still running this long after its measured time is killed.
CHILD_GRACE_S = 120.0


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures once and builds the executable; library sources come from
    ../src. Fails (exit 2) when they are not there."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources not found (src/CMakeLists.txt); run from a "
            "checkout of the repository")
        sys.exit(2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            rc = subprocess.call(
                ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                stdout=sys.stderr, stderr=sys.stderr)
            if rc != 0:
                log("cmake configure failed")
                sys.exit(2)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        rc = subprocess.call(
            ["cmake", "--build", BUILD_DIR, "--target", "dlsr_perfbench",
             "-j", jobs], stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0 or not os.path.isfile(BINARY):
            log("build failed")
            sys.exit(2)


def run_child(args):
    """Runs the workload; returns (records, wait status, rusage)."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    timer = threading.Timer(args.seconds + CHILD_GRACE_S, proc.kill)
    timer.start()
    records = []
    try:
        for line in proc.stdout:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                log("ignoring malformed record: %r" % line[:200])
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = 0  # reaped above; keep Popen from waiting again
        timer.cancel()
    return records, status, usage


def quantile(values, q):
    """Linear interpolation between order statistics (q in [0, 1])."""
    v = sorted(values)
    if not v:
        return 0.0
    idx = q * (len(v) - 1)
    lo = int(math.floor(idx))
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (idx - lo)


def train_metrics(ops, records):
    ms = [o["ms"] for o in ops]
    images = sum(o["images"] for o in ops)
    return {
        "train_img_per_s": (images / (sum(ms) / 1e3), "img/s"),
        "train_step_ms_p50": (quantile(ms, 0.5), "ms"),
        "train_step_ms_p90": (quantile(ms, 0.9), "ms"),
    }


def rung_ok(ops):
    """A ladder rate is met when every request is Ok, p99 (from due time)
    is under the limit, and the backlog does not grow."""
    if not ops or any(o["status"] != "ok" for o in ops):
        return False
    lat = [o["ms"] for o in ops]
    if quantile(lat, 0.99) > SERVE_P99_LIMIT_MS:
        return False
    third = max(1, len(lat) // 3)
    first = statistics.median(lat[:third])
    last = statistics.median(lat[-third:])
    return not (last > BACKLOG_FACTOR * first and last - first > BACKLOG_MIN_MS)


def serve_metrics(ops, records):
    ref = [o for o in ops if o["phase"] == "ref"]
    lat = [o["ms"] if o["status"] == "ok" else SERVE_MISS_MS for o in ref]
    rungs = {}
    for o in ops:
        if o["phase"].startswith("rung_"):
            rungs.setdefault(o["rate"], []).append(o)
    # The highest ladder rate met, with every lower rate met too.
    max_rps = 0.0
    for rate in sorted(rungs):
        if not rung_ok(rungs[rate]):
            break
        max_rps = rate
    return {
        "serve_max_rps": (max_rps, "req/s"),
        "serve_ms_p50": (quantile(lat, 0.5), "ms"),
        "serve_ms_p99": (quantile(lat, 0.99), "ms"),
    }


def sim_metrics(ops, records):
    sim = next((r for r in records if r["t"] == "sim"), None)
    if sim is None:
        return {}
    rounds = {}
    for o in ops:
        rounds.setdefault(o["round"], []).append(o["ms"])
    # Whole rounds only: the last one may have been cut by a signal.
    size = len(rounds.get(0, []))
    wall = [sum(v) for v in rounds.values() if len(v) == size]
    return {
        "sim_img_per_s": (sim["img_per_s"], "img/s"),
        "sim_scaling_eff_pct": (sim["eff_pct"], "%"),
        "sim_exposed_comm_ms": (sim["exposed_comm_ms"], "ms"),
        "sim_round_ms_p95": (quantile(wall, 0.95), "ms"),
    }


def setup_seconds(setups):
    """The 90th percentile of the run's set-ups. The host runs the same work
    up to 1.5x slower in spells lasting seconds; a run's median set-up lands
    in whichever spell the run mostly saw, while the 90th percentile of
    set-ups spread through the run sees a slow spell in nearly every run."""
    return quantile(setups, 0.9)


E2E = {"train_fp32": train_metrics, "train_bf16": train_metrics,
       "serve_open": serve_metrics, "sim_scaling": sim_metrics,
       "sim_overlap": sim_metrics}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(E2E))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        log("BENCHMARK.json not found at the repository root")
        sys.exit(2)
    spec = load_spec()

    build()
    records, status, usage = run_child(args)

    ops = [r for r in records if r["t"] == "op"]
    checks = [r for r in records if r["t"] == "check"]
    setups = [r["s"] for r in records if r["t"] == "setup"]
    plan = next((r["ops"] for r in records if r["t"] == "plan"), 0)
    finished = any(r["t"] == "end" for r in records)

    failed_ops = 0
    if args.workload == "serve_open":
        failed_ops = sum(1 for o in ops if o["status"] == "unresolved")
    attempted = len(ops)
    if os.WIFSIGNALED(status):
        sig = os.WTERMSIG(status)
        try:
            name = signal.Signals(sig).name
        except ValueError:
            name = "signal %d" % sig
        attempted = max(plan, len(ops) + 1)
        failed_ops += attempted - len(ops)
        log("child killed by %s after %d of %d planned operations; %d "
            "counted as failed" % (name, len(ops), plan,
                                   attempted - len(ops)))
        print("killed_by_signal %s finished %d planned %d" %
              (name, len(ops), plan), flush=True)
    elif os.WEXITSTATUS(status) != 0 or not finished:
        log("child exited with status %d" % os.WEXITSTATUS(status))

    for c in checks:
        log("check %-32s %s  %s" % (c["name"], "ok  " if c["ok"] else "FAIL",
                                    c["detail"]))
    # Correct only when the child ran to its end and every check it made
    # passed: a child cut by a signal never reached its checks.
    correct = (finished and os.WIFEXITED(status) and
               os.WEXITSTATUS(status) == 0 and bool(checks) and
               all(c["ok"] for c in checks))
    if not ops or not setups:
        # Died before its first timed operation: report the loss, no metrics.
        log("no operation finished; no metrics to report")
        print(json.dumps({"correct": bool(correct), "attempted": attempted,
                          "failed": failed_ops, "metrics": {}}), flush=True)
        sys.exit(1)

    # Workloads listed in BENCHMARK.json print exactly its metrics (0 for
    # a layer that did no work); the others print what they measured.
    listed = any(w["name"] == args.workload for w in spec["workloads"])
    if args.trace:
        found = {r["name"]: (r["value"], r["unit"])
                 for r in records if r["t"] == "metric"}
        wanted = spec["per_layer"]
    else:
        found = E2E[args.workload](ops, records)
        found["setup_s"] = (setup_seconds(setups), "s")
        found["peak_rss_mib"] = (usage.ru_maxrss / 1024.0, "MiB")
        wanted = spec["end_to_end"]
    if listed:
        metrics = {m["name"]: {"value": found.get(m["name"], (0.0,))[0],
                               "unit": m["unit"]} for m in wanted}
    else:
        metrics = {name: {"value": v, "unit": unit}
                   for name, (v, unit) in sorted(found.items())}

    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed_ops, "metrics": metrics}), flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
