#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark for one workload.

    python3 metisbench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the library and the benchmark binary
(Release) into $CARGO_TARGET_DIR/metisbench (default .bench_build), runs the
workload defined in metisbench/workloads.json, and prints a JSON record of
the run followed, as the last line, by the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics. --smoke shrinks every phase so a run
takes a few seconds (the benchmark's own test uses it); a smoke run may
report percentiles that have fewer than ten samples beyond them.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("metisbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(build_root), "metisbench")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "metisbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def phase_arg(phase, smoke):
    p = dict(phase)
    if smoke:
        if "decisions" in p:
            p["decisions"] = min(p["decisions"], smoke["decisions"])
        if "jobs" in p:
            p["jobs"] = min(p["jobs"], smoke["jobs"])
    return ",".join("%s=%s" % (k, v) for k, v in p.items())


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(BENCH_DIR, "workloads.json")) as f:
        workloads = json.load(f)
    if args.workload not in workloads["workloads"]:
        fail("unknown workload %r (known: %s)" % (
            args.workload, ", ".join(sorted(workloads["workloads"]))))
    smoke = workloads["smoke"] if args.smoke else None
    seconds = smoke["seconds"] if smoke else args.seconds

    binary = build()
    out_dir = os.path.join(BENCH_DIR, "out")
    work = os.path.join(BENCH_DIR, ".work", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    if smoke:
        cmd += ["--setups", str(smoke["setups"])]
    for phase in workloads["workloads"][args.workload]:
        cmd += ["--phase", phase_arg(phase, smoke)]
    try:
        proc = subprocess.run(cmd, cwd=work, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work, ignore_errors=True)
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark binary exited with %d" % proc.returncode)
    raw = json.loads(lines[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = raw["per_layer"] if args.trace else raw["end_to_end"]
    metrics, unsupported = {}, []
    for m in wanted:
        got = source.get(m["name"])
        if got is None:
            fail("metric %s was not measured" % m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, expected %s" % (
                m["name"], got["unit"], m["unit"]))
        if not got["supported"]:
            unsupported.append(m["name"])
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    if unsupported and not args.smoke:
        fail("too few samples for the percentile of " + ", ".join(unsupported))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "trace": args.trace, "smoke": args.smoke,
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "meta": raw["meta"], "gates": raw["gates"], "fatal": raw["fatal"],
        "samples": {k: v["samples"] for k, v in source.items()},
        "unsupported_percentiles": unsupported,
        "end_to_end": raw["end_to_end"], "per_layer": raw["per_layer"],
    }
    with open(os.path.join(out_dir, "record-%s-%d-%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": bool(raw["correct"]),
                      "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
