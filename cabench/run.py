#!/usr/bin/env python3
"""CA-model pipeline benchmark: builds the library and the benchmark from
source, runs one workload and prints its metrics.

    python3 cabench/run.py --workload characterize|learn|serve|route \\
        --seed N --seconds S --trace 0|1
    python3 cabench/run.py --self-test

Run from the repository root. The build goes to .bench_build/cabench, the
workload's scratch files to .bench_build/work, temporaries to
.bench_build/tmp. Stdout ends with one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it
is the run context (nproc, build type, compiler, git SHA, seed).
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics. --self-test runs a seconds-long size of every workload
and checks the metric names, units and work counts.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cabench")
WORK = os.path.join(ROOT, ".bench_build", "work")
TMP = os.path.join(ROOT, ".bench_build", "tmp")
WORKLOADS = ("characterize", "learn", "serve", "route")
RUN_TIMEOUT_S = 170
# Work counts that must repeat exactly across runs and seeds.
WORK_COUNTS = ("camodel.defect_sims", "ml.walk_rows", "ml.fit_rows", "camatrix.matrix_rows")


def fail(message):
    print("cabench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark and the caml CLI."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the caml sources (src/) are missing; run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    # Compiler and benchmark temporaries stay inside the checkout too.
    os.makedirs(TMP, exist_ok=True)
    os.environ["TMPDIR"] = TMP
    log_path = os.path.join(ROOT, ".bench_build", "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                  "--target", "cabench", "caml_cli"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(step))
    return os.path.join(BUILD, "cabench"), os.path.join(BUILD, "caml_tools", "caml")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.check_output(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                       stderr=subprocess.DEVNULL, text=True).strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_binary(binary, caml, workload, seed, seconds, trace, smoke=False):
    """Runs one workload in its own process group; returns its stdout lines.
    Whatever the run leaves behind (a serve daemon) is killed and reaped."""
    os.makedirs(WORK, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--caml", caml, "--git-sha", git_sha()]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, cwd=WORK, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if out is None:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        fail("%s exited with code %d" % (workload, proc.returncode))
    lines = out.strip().splitlines()
    if not lines:
        fail(workload + " printed no result")
    return lines


def select_metrics(result, trace):
    """Keeps the metrics BENCHMARK.json lists for the run's kind, in its
    order. Every measured metric must be listed with the unit it was
    measured in; an end-to-end metric must be measured on every workload,
    while a per-layer metric of a layer the workload never calls is 0."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    measured = result["metrics"]
    for name, metric in measured.items():
        if units.get(name) != metric["unit"]:
            fail("metric %s in %s is not in BENCHMARK.json with that unit"
                 % (name, metric["unit"]))
        if not isinstance(metric["value"], (int, float)):
            fail("metric %s has no finite value" % name)
    selected = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        if m["name"] in measured:
            selected[m["name"]] = measured[m["name"]]
        elif trace:
            selected[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            fail("%s was not measured" % m["name"])
    result["metrics"] = selected
    return result


def self_test(binary, caml):
    """Smoke size of every workload: metric names and units, correctness,
    and work counts identical across a repeat and across two seeds."""
    for workload in WORKLOADS:
        counts = {}
        for seed, trace in ((1, 0), (1, 1), (1, 1), (2, 1)):
            lines = run_binary(binary, caml, workload, seed, 1, trace, smoke=True)
            result = select_metrics(json.loads(lines[-1]), trace)
            if not result["correct"]:
                fail("self-test: %s seed %d trace %d is not correct" % (workload, seed, trace))
            if trace:
                work = tuple(result["metrics"][name]["value"] for name in WORK_COUNTS)
                counts.setdefault(seed, set()).add(work)
        if len(counts[1]) != 1 or counts[1] != counts[2]:
            fail("self-test: %s work counts %s vary (%s)" % (workload, WORK_COUNTS, counts))
        print("self-test: %s ok, work counts %s" % (workload, dict(zip(WORK_COUNTS, *counts[1]))))
    print("self-test: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    binary, caml = build()
    if args.self_test:
        self_test(binary, caml)
        return
    lines = run_binary(binary, caml, args.workload, args.seed, args.seconds, args.trace)
    result = select_metrics(json.loads(lines[-1]), args.trace)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
