#!/usr/bin/env python3
"""Repository benchmark: training and wire serving, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test     # the benchmark's own unit tests

Builds the library and the phase runner from source into `.bench_build/`,
then runs one workload in `.bench_run/<workload>/`, a directory the benchmark
owns (no stray profile file can steer the dispatcher there):

  1. `train`  generates the seeded inputs and fits/writes the served models;
  2. `setup`  is run SETUP_REPEATS times, each a fresh process (the host
              profile calibration is once per process), median reported;
  3. `serve`  measures latency at the nominal rate, the goodput ladder and
              the answers' correctness.

With `--trace 0` the last stdout line carries every end-to-end metric of
BENCHMARK.json; with `--trace 1` every per-layer metric. Lines before it are
a human-readable table with units and sample counts.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(ROOT, ".bench_run")
BINARY = os.path.join(BUILD, "perfbench")
SETUP_REPEATS = 7
# a run must end well inside the 180 s a benchmark run may take
PHASE_TIMEOUT_S = 150
# a dispatch path share that moves by more than this against the earlier
# runs of the workload is flagged
PATH_MIX_TOLERANCE = 0.15


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchError("BENCHMARK.json not found at " + path)
    with open(path) as f:
        return json.load(f)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "plssvm", "core", "csvm.hpp")):
        raise BenchError("no plssvm source tree next to perfbench/ (expected " + os.path.join(ROOT, "src", "plssvm") + ")")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        os.makedirs(BUILD, exist_ok=True)
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1), "--target"] + targets
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def run_phase(phase, args, cwd, deadline):
    cmd = [BINARY, phase, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=timeout)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        raise BenchError("phase %s exited with %d and no result" % (phase, proc.returncode))
    return json.loads(lines[-1])


def median_of(phases, name):
    values = [p["values"][name] for p in phases if p["values"].get(name) is not None]
    return statistics.median(values) if values else None


def flag_path_mix(workload, serve):
    """Compare this run's dispatch path mix with the earlier runs in this checkout."""
    history = os.path.join(RUNS, "history.jsonl")
    keys = sorted(k for k in serve["info"] if k.startswith("dispatch.binary_") and k.endswith("_share"))
    record = {"workload": workload, "mix": {k: serve["info"][k] for k in keys},
              "profile": {k: v for k, v in serve["info"].items() if k.startswith("dispatch.profile")}}
    earlier = []
    if os.path.isfile(history):
        with open(history) as f:
            for line in f:
                try:
                    r = json.loads(line)
                except ValueError:
                    continue
                if r.get("workload") == workload:
                    earlier.append(r)
    flags = []
    for k in keys:
        past = [r["mix"][k] for r in earlier if k in r.get("mix", {})]
        if past and abs(record["mix"][k] - statistics.median(past)) > PATH_MIX_TOLERANCE:
            flags.append("%s %.3f vs median %.3f of %d earlier runs" % (k, record["mix"][k], statistics.median(past), len(past)))
    record["flagged"] = bool(flags)
    with open(history, "a") as f:
        f.write(json.dumps(record) + "\n")
    return flags


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    if args.self_test:
        build(["perfbench_tests"])
        return subprocess.run([os.path.join(BUILD, "perfbench_tests")], cwd=BUILD).returncode
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        raise BenchError("unknown workload %r (known: %s)" % (args.workload, ", ".join(workloads)))

    build(["perfbench"])
    deadline = time.monotonic() + PHASE_TIMEOUT_S
    run_dir = os.path.join(RUNS, args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    train = run_phase("train", args, run_dir, deadline)
    setups = [run_phase("setup", args, run_dir, deadline) for _ in range(SETUP_REPEATS)]
    serve = run_phase("serve", args, run_dir, deadline)
    phases = [train] + setups + [serve]

    values = {}
    values.update(train["values"])
    values.update(serve["values"])
    values["setup_s"] = median_of(setups, "setup_s")
    values["peak_rss_mb"] = max(p["values"]["peak_rss_mb"] for p in phases)

    errors = [e for p in phases for e in p["errors"]]
    flags = flag_path_mix(args.workload, serve)
    counts = {"setup_s": len(setups)}
    for p in phases:
        for k, v in p["info"].items():
            if k.endswith(".n"):
                counts[k[:-2]] = v

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    not_run = []
    print("%-36s %16s  %-8s %s" % ("metric", "value", "unit", "n"))
    for m in wanted:
        v = values.get(m["name"])
        if v is None or (isinstance(v, float) and not math.isfinite(v)):
            if not args.trace:
                errors.append("end-to-end metric %s was not measured" % m["name"])
                continue
            # a per-layer metric of a layer this workload does not run
            v = 0.0
            not_run.append(m["name"])
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        n = counts.get(m["name"], "")
        print("%-36s %16.6g  %-8s %s" % (m["name"], v, m["unit"], "n=%d" % n if n != "" else ""))
    if not args.trace:
        failed_total = sum(p["failed"] for p in phases)
        attempted_total = sum(p["attempted"] for p in phases)
        print("%-36s %16.6g  %-8s n=%d" % ("fail_frac", failed_total / max(1, attempted_total), "fraction", attempted_total))
    if not_run:
        print("layers not run by %s (reported as 0): %s" % (args.workload, ", ".join(not_run)))
    for k in sorted(serve["info"]):
        if k.startswith("dispatch.") or k.startswith("goodput."):
            print("%-36s %s" % (k, serve["info"][k]))
    for f in flags:
        print("FLAG dispatch path mix differs: " + f)
    for e in errors:
        print("CHECK FAILED: " + e)

    result = {
        "correct": not errors and all(p["correct"] for p in phases),
        "attempted": int(sum(p["attempted"] for p in phases)),
        "failed": int(sum(p["failed"] for p in phases)),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        log("perfbench: " + str(e))
        sys.exit(1)
