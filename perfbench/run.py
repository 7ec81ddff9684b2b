#!/usr/bin/env python3
"""Build and run the flux benchmark.

    python3 perfbench/run.py --workload kap|kvs-durable|jobs|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and builds
perfbench/ (which compiles the libraries under src/) into the directory named
by CARGO_TARGET_DIR, or .bench_build; later runs reuse that build.

A run starts one process per repetition of the workload, each from a fresh
heap, at least three times and until --seconds of wall time have passed.
Host metrics are the median over repetitions; virtual metrics must be
identical in every repetition of a seed. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json. With
--trace 1 the repetitions alternate untraced and traced, and the metrics are
its per-layer metrics. --workload all runs the three workloads one after
another and prints the paper-facing figures of all of them.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["kap", "kvs-durable", "jobs"]
RUN_BUDGET_S = 170  # a run must end within 180 s

# End-to-end metrics: every workload reports each one (README.md says what
# each measures on each workload). The first three are host-time metrics,
# the median over repetitions; the others are virtual and must repeat.
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("host_ops_per_s", "ops/s"),
    ("virtual_ops_per_s", "ops/s"),
    ("ack_p50_us", "us"),
    ("ack_p99_us", "us"),
    ("ack_max_ms", "ms"),
    ("result_p50_us", "us"),
    ("result_p99_us", "us"),
    ("result_max_ms", "ms"),
]
HOST_END_TO_END = {"setup_s", "peak_rss_mb", "host_ops_per_s"}

# Per-layer metrics of the traced run: the median over the repetitions that
# measured them. A layer a workload does not reach reads 0 there.
PER_LAYER = [
    ("kap.fence_p50_ms", "ms"),
    ("kap.get_p50_ms", "ms"),
    ("broker.wireup_us", "us"),
    ("broker.rpc_p50_us", "us"),
    ("broker.rpc_p99_us", "us"),
    ("broker.rpc_timeouts", "count"),
    ("broker.restart_online_ms", "ms"),
    ("net.messages", "count"),
    ("net.bytes", "bytes"),
    ("net.messages_per_op", "count"),
    ("net.bytes_per_op", "bytes"),
    ("net.messages_per_job", "count"),
    ("exec.events", "count"),
    ("exec.host_ns_per_event", "ns"),
    ("kvs.cache_hit_ratio", "ratio"),
    ("kvs.cache_hits", "count"),
    ("kvs.cache_misses", "count"),
    ("kvs.faults_issued", "count"),
    ("kvs.objects", "count"),
    ("kvs.apply_batches", "count"),
    ("kvs.apply_batch_mean", "count"),
    ("kvs.announces", "count"),
    ("kvs.announce_batch_mean", "count"),
    ("kvs.commits_per_job", "count"),
    ("kvs.store_bytes_per_job", "bytes"),
    ("kvs.restart_to_serving_ms", "ms"),
    ("kvs.content.log_bytes_per_commit", "bytes"),
    ("kvs.content.checkpoints", "count"),
    ("kvs.content.gc_passes", "count"),
    ("kvs.content.recover_ms", "ms"),
    ("kvs.content.recover_mb_per_s", "MB/s"),
    ("kvs.content.gc_pause_ms", "ms"),
    ("kvs.content.gc_swept_ratio", "ratio"),
    ("hash.sha1_mb_per_s", "MB/s"),
    ("json.parse_mb_per_s", "MB/s"),
    ("json.dump_mb_per_s", "MB/s"),
    ("jobs.ingest_p50_us", "us"),
    ("jobs.ingest_p99_us", "us"),
    ("jobs.queue_p50_us", "us"),
    ("jobs.queue_p99_us", "us"),
    ("jobs.run_p50_us", "us"),
    ("jobs.foldback_p99_us", "us"),
    ("jobs.queue_depth_mean", "count"),
    ("jobs.host_us_per_job_first", "us"),
    ("jobs.host_us_per_job_last", "us"),
    ("jobs.host_growth", "ratio"),
    ("sched.alloc_mean_us", "us"),
    ("trace.overhead_ratio", "ratio"),
]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt next to perfbench/: run from a full "
             "source checkout")
    bdir = os.path.abspath(os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    tmp = os.path.join(bdir, "tmp")  # keeps compiler temporaries in the tree
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(bdir, "perfbench-build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "flux_perfbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=env).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "flux_perfbench"), os.path.join(
        bdir, "perfbench-out")


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    src/."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if rev.returncode == 0 and rev.stdout.strip():
                return "git:" + rev.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha1:" + h.hexdigest()


def run_rep(binary, out_dir, workload, seed, traced, source, deadline):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--out", out_dir, "--source", source]
    if traced:
        cmd += ["--trace", os.path.join(
            out_dir, "%s-seed%d.trace.jsonl" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("%s did not finish within the run's time budget" % workload)
    if proc.returncode != 0:
        fail("%s exited with code %d" % (workload, proc.returncode))
    return json.loads(proc.stdout.strip().split("\n")[-1])


def run_workload(binary, out_dir, workload, seed, seconds, trace, source):
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    reps = []
    # At least three repetitions, so the host median never rests on fewer.
    while len(reps) < 3 or time.monotonic() - start < seconds:
        traced = trace and len(reps) % 2 == 1
        rep = run_rep(binary, out_dir, workload, seed, traced, source, deadline)
        rep["traced"] = traced
        reps.append(rep)
    return aggregate(reps)


def aggregate(reps):
    failures = []
    for r in reps:
        failures += [f for f in r["failures"] if f not in failures]
    first = reps[0]
    for name, _ in END_TO_END:
        if name not in HOST_END_TO_END and any(
                r["e2e"].get(name) != first["e2e"].get(name) for r in reps):
            failures.append("virtual %s differs between repetitions of one "
                            "seed" % name)

    def med(values):
        return statistics.median(values) if values else None

    e2e = {
        "setup_s": med([s for r in reps for s in r["setup_s"]]),
        "peak_rss_mb": med([r["peak_rss_mb"] for r in reps]),
    }
    for name, _ in END_TO_END:
        if name not in e2e:
            e2e[name] = med([r["e2e"][name] for r in reps if name in r["e2e"]])
    layer = {}
    for name, _ in PER_LAYER:
        layer[name] = med([r["layer"][name] for r in reps
                           if name in r["layer"]])
    traced = [r["phase_host_s"] for r in reps if r["traced"]]
    untraced = [r["phase_host_s"] for r in reps if not r["traced"]]
    if traced and untraced:
        layer["trace.overhead_ratio"] = med(traced) / med(untraced)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if failures and failed == 0:
        failed = 1  # a check over the whole run, such as the repeat check
    report = {"setup_s": ("s", e2e["setup_s"]),
              "peak_rss_mb": ("MB", e2e["peak_rss_mb"]),
              "error_rate": ("ratio", failed / attempted)}
    for name in dict.fromkeys(m["name"] for r in reps for m in r["report"]):
        values = [m for r in reps for m in r["report"] if m["name"] == name]
        report[name] = (values[0]["unit"], med([m["value"] for m in values]))
    return {
        "meta": first["meta"], "reps": reps, "failures": failures,
        "attempted": attempted, "failed": failed, "e2e": e2e, "layer": layer,
        "report": report,
        "spans": next((r["spans"] for r in reps if "spans" in r), None),
    }


def table(title, defs, values):
    print(title)
    for name, unit in defs:
        v = values.get(name)
        if v is None:
            print("  %-34s %16s" % (name, "n/a"))
        else:
            print("  %-34s %16.6g %s" % (name, v, unit))


def print_report(workload, agg, trace):
    reps = agg["reps"]
    print("perfbench %s  %s" % (workload, json.dumps(agg["meta"])))
    if not agg["meta"].get("release_build"):
        print("  WARNING: built as %s, not Release: host-time metrics are not "
              "comparable with Release runs" % agg["meta"].get("build_type"))
    print("%s: %s, %d attempted, %d failed (error_rate %.6g)" % (
        workload, "correct" if not agg["failures"] else "INCORRECT",
        agg["attempted"], agg["failed"],
        agg["failed"] / max(1, agg["attempted"])))
    for f in agg["failures"]:
        print("  FAILED: " + f)
    for note in reps[0]["notes"]:
        print("  note: " + note)
    print("  note: %d repetitions (%s); measured-phase host s: %s" % (
        len(reps), ", ".join("traced" if r["traced"] else "untraced"
                             for r in reps),
        " ".join("%.4g" % r["phase_host_s"] for r in reps)))
    print("paper-facing metrics (this workload's names):")
    for name, (unit, value) in agg["report"].items():
        print("  %-34s %16.6g %s" % (name, value, unit))
    table("end-to-end metrics:", END_TO_END, agg["e2e"])
    if trace:
        table("per-layer metrics:", PER_LAYER, agg["layer"])
        absent = [n for n, _ in PER_LAYER if agg["layer"].get(n) is None]
        if absent:
            print("  not reached by this workload (reported as 0): " +
                  " ".join(absent))
        if agg["spans"]:
            print("span totals of one traced repetition "
                  "(host ms, self | virtual ms, self):")
            for name, t in sorted(agg["spans"].items()):
                print("  %-28s n=%-7d %11.3f %11.3f | %10.3f %10.3f" % (
                    name, t["count"], t["host_ms"], t["host_self_ms"],
                    t["virtual_ms"], t["virtual_self_ms"]))


def result_line(agg, trace):
    defs, values = (PER_LAYER, agg["layer"]) if trace else (END_TO_END,
                                                          agg["e2e"])
    return {
        "correct": not agg["failures"],
        "attempted": agg["attempted"],
        "failed": agg["failed"],
        "metrics": {name: {"value": values.get(name) or 0.0, "unit": unit}
                    for name, unit in defs},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    binary, out_dir = build()
    source = source_id()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for w in names:
        agg = run_workload(binary, out_dir, w, args.seed, args.seconds,
                           args.trace, source)
        print_report(w, agg, args.trace)
        results[w] = (agg, result_line(agg, args.trace))
        with open(os.path.join(out_dir, "%s-seed%d%s.result.json" % (
                w, args.seed, "-trace" if args.trace else "")), "w") as f:
            json.dump({"aggregate": {k: v for k, v in agg.items()
                                     if k != "spans"},
                       "result": results[w][1]}, f, indent=1)

    if len(names) == 1:
        print(json.dumps(results[names[0]][1]))
        return
    print("paper-facing metrics, all workloads (seed %d):" % args.seed)
    for w in names:
        for name, (unit, value) in results[w][0]["report"].items():
            print("  %-12s %-24s %16.6g %s" % (w, name, value, unit))
    print(json.dumps({
        "correct": all(r[1]["correct"] for r in results.values()),
        "attempted": sum(r[1]["attempted"] for r in results.values()),
        "failed": sum(r[1]["failed"] for r in results.values()),
        "metrics": {"%s.%s" % (w, k): v for w in names
                    for k, v in results[w][1]["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
