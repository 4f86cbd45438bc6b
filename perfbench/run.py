#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for the metric definitions):

  study_export   the `study_cli export --checkpoint-dir` job through
                 LongitudinalStudy: 75 months, 11 CSVs, grouped journal, at
                 nproc total threads and at one thread
  study_resume   the same job resumed from a complete journal (written by an
                 untimed preparation step)
  daemon_ingest  an in-process NotaryDaemon on loopback, driven open-loop
                 with fresh client/server randoms and session ids on every
                 capture, over a ladder of rates and an overload rate

BENCHMARK.json gates study_export and study_resume only. daemon_ingest runs
and checks the same way, but its figures move with the shared host's load
phases by more than any bound allows, so it is not listed there; the
daemon's layers are measured by every traced run.

The script builds the measuring binary (perfbench/CMakeLists.txt, the
library sources under src/) into $CARGO_TARGET_DIR or .bench_build, runs
it once per repetition, checks every output, and prints one JSON object as
the last line of stdout. --trace 0 reports the end-to-end metrics (medians
over the repetitions); --trace 1 runs the per-layer attribution once and
writes its spans as Chrome trace JSON to .bench_out/trace_<workload>.json.
Any failed check exits 1 without a result line.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Connections generated per month of the 75-month study window: study_cli's
# default. At this size generate and observe take about 37% and 59% of the
# pool's task time (core.task_share_* in the traced run), the shape of the
# full-size job.
STUDY_CPM = 6000
# One daemon cycle, per shard: (rung, captures/s per shard, seconds). Rates
# are per shard so the load scales with the shard count. A cycle runs
# LADDER on a fresh daemon with nproc-2 shards, then SERIAL_LADDER on a
# fresh one-shard daemon; --seconds sets the number of cycles (about 4 s
# each with the checks), and each rung's windows are pooled over the
# cycles. One leading cycle and the "warmup" rungs are checked but not
# measured: the first traffic in a fresh process, and on a fresh daemon,
# runs markedly slower.
LADDER = [
    ("warmup", 12500, 0.3),
    ("r12pct", 12500, 0.25),
    ("steady", 25000, 0.75),
    ("r50pct", 50000, 0.25),
    ("r75pct", 75000, 0.25),
    ("overload", 200000, 0.4),
]
SERIAL_LADDER = [("warmup", 12500, 0.2), ("overload", 200000, 0.4)]
# Latency windows hold 1000 due captures, so each window's p99 has ten
# samples beyond it; the overload rung's ingest rate is read over 50 ms
# windows.
WINDOW_CAPTURES = 1000
OVERLOAD_WINDOW_S = 0.05
CYCLE_SECONDS = 4.0
# The ROADMAP target for the daemon's p99 ingest latency.
P99_TARGET_US = 5000.0
# Extra daemon set-ups (database + start()) per measured cycle, at the main
# ladder's shard count, besides that ladder's own.
DAEMON_EXTRA_SETUPS = 8
# Runs of the main ladder against a daemon in a child process, for the
# daemon's own peak RSS.
DAEMON_MEMORY_RUNS = 2
# Extra study set-ups (LongitudinalStudy construction) per repetition,
# besides one per export.
STUDY_EXTRA_SETUPS = 4
# A run must end within 180 s; a repetition still running at this point is
# killed and the run fails (set in main()).
RUN_LIMIT_S = 170
DEADLINE = 0.0


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail(message):
    log("perfbench: " + message)
    sys.exit(1)


def nproc():
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    out = os.path.join(build_dir(), "perfbench")
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("configure failed")
    jobs = str(max(1, min(4, nproc())))
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    binary = os.path.join(out, "perfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no perfbench binary")
    return binary


# ---------------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------------

def run_rep(binary, args, echo_stderr=False):
    """Runs one repetition in its own process; returns its JSON result."""
    remaining = DEADLINE - time.monotonic()
    try:
        proc = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, remaining))
    except subprocess.TimeoutExpired:
        fail("repetition did not finish in time (killed): perfbench " + " ".join(args))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail("repetition failed: perfbench " + " ".join(args))
    if echo_stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("repetition printed nothing: perfbench " + " ".join(args))
    return json.loads(lines[-1])


def work_dir(name):
    path = os.path.join(ROOT, ".bench_work", name)
    os.makedirs(path, exist_ok=True)
    return path


def study_args(seed, threads, work, extra=()):
    return ["study", "--seed", str(seed), "--cpm", str(STUDY_CPM),
            "--threads", ",".join(str(t) for t in threads),
            "--ckpt", os.path.join(work, "ckpt"),
            "--csv", os.path.join(work, "csv")] + list(extra)


def check_jobs(jobs, digest, expect_resume=False):
    """Byte-identity of the 11 CSVs across thread counts, repetitions and
    resume; a resume must replay every frame and recompute nothing."""
    for job in jobs:
        if job["csv_digest"] != digest:
            fail("CSV digest %s at %d threads%s differs from %s" % (
                job["csv_digest"], job["threads_total"],
                " (resumed)" if job["resume"] else "", digest))
        if expect_resume and (job["frames_replayed"] != job["tasks"]
                              or job["tasks_recomputed"] != 0):
            fail("resume replayed %d of %d frames and recomputed %d tasks" % (
                job["frames_replayed"], job["tasks"], job["tasks_recomputed"]))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def workload_study(binary, seed, seconds, resume):
    """study_export / study_resume: repetitions of the job at nproc total
    threads and at one thread, each repetition in a fresh process. The peak
    RSS is read right after the repetition's first job, at nproc threads."""
    n = nproc()
    work = work_dir("study_resume" if resume else "study_export")
    # study_export: an untimed warm-up (the first journal fsyncs after an
    # idle spell are slow). study_resume: the untimed journal preparation.
    first = run_rep(binary, study_args(seed, [n], work))
    digest = first["jobs"][0]["csv_digest"]
    flags = (["--resume"] if resume else []) + ["--extra-setups", str(STUDY_EXTRA_SETUPS)]
    # One job of each per process: a second nproc-thread resume in the same
    # process ran about 20% faster than the first, and a median over both
    # kinds fell in the gap between them. The one-thread job runs second, in
    # a process already warm.
    threads = [n, 1]
    setups, walls, serial, rss, jobs = [], [], [], [], []
    start = time.monotonic()
    while len(rss) < 3 or time.monotonic() - start < seconds:
        result = run_rep(binary, study_args(seed, threads, work, flags))
        check_jobs(result["jobs"], digest, expect_resume=resume)
        jobs.extend(result["jobs"])
        setups.extend(result["extra_setup_s"])
        for job in result["jobs"]:
            setups.append(job["setup_s"])
            (walls if job["threads_total"] == n else serial).append(job["wall_s"])
        rss.append(result["jobs"][0]["peak_rss_mb"])
    report = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "serial_wall_s": (statistics.median(serial), "s", len(serial)),
        "peak_rss_mb": (statistics.median(rss), "MB", len(rss)),
    }
    if resume:
        aliases = {"resume_s": report["wall_s"], "resume_serial_s": report["serial_wall_s"]}
    else:
        aliases = {"study_wall_s": report["wall_s"],
                   "study_serial_wall_s": report["serial_wall_s"]}
    attempted = sum(j["tasks"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    extra = {"threads_total": n, "threads_serial": 1, "csv_digest": digest,
             "connections": first["jobs"][0]["connections"], "host": first["host"]}
    return report, aliases, attempted, failed, extra


def workload_study_export(binary, seed, seconds):
    return workload_study(binary, seed, seconds, resume=False)


def workload_study_resume(binary, seed, seconds):
    return workload_study(binary, seed, seconds, resume=True)


def daemon_shards():
    return max(1, nproc() - 2)


def ladder_spec(shards, ladder):
    rungs = []
    for name, per_shard, secs in ladder:
        rate = per_shard * shards
        if name == "overload":
            windows = round(secs / OVERLOAD_WINDOW_S)
        else:
            windows = int(rate * secs / WINDOW_CAPTURES)
        rungs.append("%s:%g:%g:%d" % (name, rate, secs, max(1, windows)))
    return "%d/%s" % (shards, ",".join(rungs))


def daemon_args(seed, seconds):
    shards = daemon_shards()
    spec = ladder_spec(shards, LADDER) + ";" + ladder_spec(1, SERIAL_LADDER)
    cycles = max(2, round(seconds / CYCLE_SECONDS))
    return ["daemon", "--seed", str(seed),
            "--extra-setups", str(DAEMON_EXTRA_SETUPS), "--cycles", str(cycles),
            "--warmup-cycles", "1", "--memory-runs", str(DAEMON_MEMORY_RUNS),
            "--ladder", spec]


def rung(ladder, name):
    for r in ladder["rungs"]:
        if r["name"] == name:
            return r
    fail("ladder has no rung " + name)


def workload_daemon_ingest(binary, seed, seconds):
    result = run_rep(binary, daemon_args(seed, seconds))
    main, serial = result["ladders"]
    for ladder in result["ladders"]:
        if ladder["digests_matched"] != ladder["runs"]:
            fail("daemon aggregate differs from batch")
        if ladder["offered"] != ladder["ingested"] + ladder["shed"] + ladder["malformed"]:
            fail("daemon ledger does not close")
        if ladder["distinct_client_randoms"] != ladder["sent"]:
            fail("replayed client randoms")
    steady = rung(main, "steady")
    overload = rung(main, "overload")
    serial_overload = rung(serial, "overload")
    for r in (overload, serial_overload):
        if r["ingest_cps"] <= 0:
            fail("no capture ingested under overload")
        # The daemon, not the generator, must set the overload limit: its
        # credit backpressure refuses part of the offered captures.
        if r["refused"] == 0:
            fail("overload rung saw no credit refusal: the generator, not the "
                 "daemon, limited the rate")
    if steady["p99_us"] is None:
        fail("steady rung has no finite p99 (captures refused for credit)")
    # Sustained: the highest measured rate meeting the p99 target.
    below = [r for r in main["rungs"] if not r["warmup"] and r["name"] != "overload"]
    passing = [r for r in below
               if r["p99_us"] is not None and r["p99_us"] <= P99_TARGET_US]
    sustained = max((r["ingest_cps"] for r in passing), default=0.0)
    # fail_frac: captures scheduled up to the steady rate and not ingested.
    upto = [r for r in below if r["rate"] <= steady["rate"]]
    attempted = sum(r["scheduled"] for r in upto)
    failed = sum(r["scheduled"] - r["sent"] for r in upto)
    report = {
        "setup_s": (statistics.median(result["setup_s"]), "s", len(result["setup_s"])),
        "wall_s": (1e5 / overload["ingest_cps"], "s", overload["sent"]),
        "serial_wall_s": (1e5 / serial_overload["ingest_cps"], "s", serial_overload["sent"]),
        "peak_rss_mb": (statistics.median(result["daemon_peak_rss_mb"]), "MB",
                        len(result["daemon_peak_rss_mb"])),
    }
    aliases = {
        "ingest_p50_us": (steady["p50_us"], "us", steady["latency_samples"]),
        "ingest_p99_us": (steady["p99_us"], "us", steady["latency_samples"]),
        "ingest_pooled_p99_us": (steady["pooled_p99_us"], "us", steady["latency_samples"]),
        "overload_cps": (overload["ingest_cps"], "1/s", overload["sent"]),
        "serial_overload_cps": (serial_overload["ingest_cps"], "1/s", serial_overload["sent"]),
        "sustained_cps": (sustained, "1/s", len(passing)),
    }
    log("rate ladder (%d shards, one connection each; serial ladder: 1 shard):"
        % main["shards"])
    log("  %-9s %6s %9s %9s %8s %10s %10s %10s %10s %10s" % (
        "rung", "shards", "offered", "ingested", "refused", "ingest/s",
        "p50_us", "p99_us", "lag_p50", "lag_p99"))
    for ladder in result["ladders"]:
        for r in ladder["rungs"]:
            log("  %-9s %6d %9.0f %9d %8d %10.0f %10s %10s %10.1f %10.1f" % (
                r["name"], ladder["shards"], r["rate"], r["sent"], r["refused"],
                r["ingest_cps"], fmt(r["p50_us"]), fmt(r["p99_us"]),
                r["lag_p50_us"], r["lag_p99_us"]))
    extra = {"shards": main["shards"], "connections": main["shards"],
             "threads_total": main["shards"] + 2, "steady_rate": steady["rate"],
             "overload_rate": overload["rate"], "host": result["host"],
             "cycles": result["cycles"],
             "cache_client_hit_ratio": ratio(main["cache_client_hits"],
                                             main["cache_client_lookups"]),
             "cache_server_hit_ratio": ratio(main["cache_server_hits"],
                                             main["cache_server_lookups"])}
    return report, aliases, attempted, failed, extra


def ratio(num, den):
    return num / den if den else 0.0


def fmt(value):
    return "inf" if value is None else "%.1f" % value


WORKLOADS = {
    "study_export": workload_study_export,
    "study_resume": workload_study_resume,
    "daemon_ingest": workload_daemon_ingest,
}


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def load_json(name):
    with open(os.path.join(ROOT, name)) as f:
        return json.load(f)


def traced(binary, workload, seed):
    shards = daemon_shards()
    spec = (ladder_spec(shards, [LADDER[0], ("steady", 25000, 1.5)]) + ";"
            + ladder_spec(shards, [LADDER[0], ("overload", 200000, 1.0)]))
    work = work_dir("trace_" + workload)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    trace_file = os.path.join(out_dir, "trace_%s.json" % workload)
    result = run_rep(binary, [
        "trace", "--seed", str(seed), "--cpm", str(STUDY_CPM), "--threads", str(nproc()),
        "--ckpt", os.path.join(work, "ckpt"), "--csv", os.path.join(work, "csv"),
        "--ladder", spec, "--out", trace_file],
        echo_stderr=True)
    return result, trace_file


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    binary = build()
    global DEADLINE
    DEADLINE = time.monotonic() + RUN_LIMIT_S

    if args.trace:
        per_layer = load_json("BENCHMARK.json")["per_layer"]
        moves = {m["name"]: m for m in load_json("perfbench/attribution.json")["per_layer"]}
        result, trace_file = traced(binary, args.workload, args.seed)
        layers = result["layers"]
        missing = [m["name"] for m in per_layer
                   if not isinstance(layers.get(m["name"]), (int, float))]
        if missing:
            fail("traced run lacks per-layer metrics: " + ", ".join(missing))
        print("host: " + json.dumps(result["host"]) + " threads_total=%d" % result["threads_total"])
        print("trace: " + os.path.relpath(trace_file, ROOT))
        for m in per_layer:
            target = moves.get(m["name"], {"moves": [], "on": []})
            print("%-40s %16.6g %-6s -> %s on %s" % (
                m["name"], layers[m["name"]], m["unit"], ",".join(target["moves"]),
                ",".join(target["on"])))
        print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                          "metrics": {m["name"]: metric(layers[m["name"]], m["unit"])
                                      for m in per_layer}}))
        return

    report, aliases, attempted, failed, extra = WORKLOADS[args.workload](
        binary, args.seed, args.seconds)
    for name, (value, unit, count) in report.items():
        if value is None or not value > 0:
            fail("metric %s is %r" % (name, value))
    print("workload: %s seed=%d" % (args.workload, args.seed))
    print("host: " + json.dumps(extra.pop("host")))
    print("context: " + json.dumps(extra))
    for name, (value, unit, count) in list(report.items()) + list(aliases.items()):
        print("%-24s %14.6g %-4s (n=%d)" % (name, value if value is not None else float("inf"),
                                           unit, count))
    print("fail_frac %.6g (%d of %d)" % (failed / attempted if attempted else 0.0,
                                         failed, attempted))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metric(value, unit) for name, (value, unit, _) in report.items()},
    }))


if __name__ == "__main__":
    main()
