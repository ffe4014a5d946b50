#!/usr/bin/env python3
"""Builds and runs the regression benchmark for one workload.

    python3 perfbench/run.py --workload power_serial --seed 1 --seconds 25 --trace 0

Run from the repository root. The first run configures and builds
`ma_benchmark` (perfbench/CMakeLists.txt) into `.bench_build/`; later runs
only rebuild what changed. Every metric is printed as one
`name value unit (n=samples)` line, and the last line of standard output
is the result object:

    {"correct": true, "attempted": 352, "failed": 0,
     "metrics": {"setup_s": {"value": 1.99, "unit": "s"}, ...}}

`--trace 0` reports the `end_to_end` metrics of BENCHMARK.json, `--trace 1`
the `per_layer` ones, and then also writes the recorded spans to
`.bench_build/trace_<workload>_<seed>.json`. End-to-end timings are
divided by the host slowdown measured during the run (see
perfbench/README.md); the slowdown is printed too. The exit code is 0
only when every checked result was correct.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "ma_benchmark")
# A run must end within 180 s; the binary gets what is left after start-up.
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures once, then brings ma_benchmark up to date."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    # A configure that failed leaves a cache but no build file.
    if not any(os.path.exists(os.path.join(BUILD_DIR, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "ma_benchmark",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD_DIR, "trace_%s_%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("ma_benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("ma_benchmark printed no report (exit code %d)" % proc.returncode)
    report = json.loads(lines[-1])

    section = "per_layer" if args.trace else "end_to_end"
    measured = report[section]
    declared = {m["name"]: m["unit"] for m in spec[section]}
    if set(measured) != set(declared):
        fail("metric names differ from BENCHMARK.json %s: missing %s, extra %s"
             % (section, sorted(set(declared) - set(measured)),
                sorted(set(measured) - set(declared))))
    wrong_units = ["%s is reported in %s, BENCHMARK.json says %s"
                   % (name, measured[name]["unit"], unit)
                   for name, unit in declared.items() if measured[name]["unit"] != unit]
    if wrong_units:
        fail("; ".join(wrong_units))
    metrics = {}
    for name, unit in declared.items():
        m = measured[name]
        print("%-34s %14.6g %-6s (n=%d)" % (name, m["value"], unit, m["samples"]))
        metrics[name] = {"value": m["value"], "unit": unit}
    host = report["host_slowdown"]
    print("%-34s %14.6g %-6s (n=%d)" % ("host slowdown (timings divided by it)",
                                        host["value"], "x", host["samples"]))

    correct = bool(report["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
