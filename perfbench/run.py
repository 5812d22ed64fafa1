#!/usr/bin/env python3
"""Repository benchmark: builds madbench from source and runs one workload.

    python3 perfbench/run.py --workload rpc_short --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Run it from the repository root. The first run configures and builds
perfbench/ (and through it src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs rebuild only what changed. Each workload
runs in a fresh madbench process, so its peak RSS and set-up time are its
own. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics with --trace 0 and the per-layer metrics of
the traced run with --trace 1; the table above it shows every metric the
run measured, with unit, clock and sample count, so

    python3 perfbench/run.py --workload all --trace 1

prints every metric of every workload. The exit status is non-zero when any
operation delivered wrong bytes, size or order, or when a pass read a
different virtual clock than the first.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure (once) and build madbench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/) are missing next to perfbench/")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j4"], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "madbench")


def run_madbench(binary, workload, seed, seconds, trace, plant_corrupt=False):
    """One workload in a fresh process; returns (exit code, full JSON or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "spans-%s-%d.csv" % (workload, seed))]
    if plant_corrupt:
        cmd.append("--plant-corrupt")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          timeout=RUN_TIMEOUT_S, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return proc.returncode, None
    return proc.returncode, json.loads(lines[-1])


def check_metrics(full, names, section):
    missing = [n for n in names if n not in full[section]]
    if missing:
        raise RuntimeError("%s lacks metrics %s" % (full["workload"], missing))
    return {n: full[section][n] for n in names}


def print_table(full, sections):
    print("%s seed=%d passes=%d (traced %d) correct=%s attempted=%d failed=%d"
          % (full["workload"], full["seed"], full["passes"],
             full["traced_passes"], full["correct"], full["attempted"],
             full["failed"]))
    if full["error"]:
        print("  error: " + full["error"])
    for metrics in sections:
        for name, m in metrics.items():
            print("  %-34s %16.6f %-9s %-8s samples=%d"
                  % (name, m["value"], m["unit"], m["clock"], m["samples"]))


def main():
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    seeds = load_json(os.path.join(HERE, "seeds.json"))
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=seeds["default"])
    parser.add_argument("--seconds", type=float,
                        default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--plant-corrupt", action="store_true",
                        help="flip one payload byte; the run must fail")
    args = parser.parse_args()

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        log("build failed: %s" % err)
        return 2

    shown = ["end_to_end", "per_layer"] if args.trace else ["end_to_end"]
    names = {section: [m["name"] for m in bench[section]] for section in shown}
    chosen = workloads if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in chosen:
        try:
            code, full = run_madbench(binary, workload, args.seed,
                                      args.seconds, args.trace,
                                      args.plant_corrupt)
        except subprocess.TimeoutExpired:
            log("%s: no result within %d s" % (workload, RUN_TIMEOUT_S))
            return 2
        if full is None:
            log("%s: madbench exited %d without a result" % (workload, code))
            return 2
        try:
            tables = [check_metrics(full, names[section], section)
                      for section in shown]
        except RuntimeError as err:
            log(str(err))
            return 2
        print_table(full, tables)
        selected = tables[-1]
        correct = correct and full["correct"] and code == 0
        attempted += full["attempted"]
        failed += full["failed"]
        prefix = workload + "." if args.workload == "all" else ""
        for name, m in selected.items():
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
