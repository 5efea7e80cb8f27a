#!/usr/bin/env python3
"""Serving-path benchmark: builds bench/e2e, runs its workloads, checks answers.

    python3 bench/e2e/run.py --seed=N                  # every workload
    python3 bench/e2e/run.py --workload=ingest_haar --seed=N --trace=0
    python3 bench/e2e/run.py --seed=N --trace          # traced: per_layer.json

The library and e2e_bench are built from this checkout's sources into
.bench_build/e2e (Release; any other build type is refused). Each
workload run writes one result row, with its full configuration, to
--out (default .bench_build/results); compare.py reads those rows.

Every metric is printed by name with its unit. The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"} -- the
end-to-end metrics untraced, the per-layer metrics with --trace. The exit
status is non-zero when any answer or check fails.
"""

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
BINARY = os.path.join(BUILD, "e2e_bench")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def cache_value(key):
    """A CMakeCache.txt entry of the benchmark build, or None."""
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    """Configures (once) and builds e2e_bench; False on any failure."""
    if cache_value("CMAKE_BUILD_TYPE") is None:
        command = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            return False
    built = subprocess.run(["cmake", "--build", BUILD, "-j3"],
                           stdout=sys.stderr).returncode == 0
    return built and os.path.exists(BINARY)


def host_config():
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cache_value("CMAKE_CXX_COMPILER") or "unknown"
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()
        if version:
            compiler = version[0]
    except OSError:
        pass
    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            commit = result.stdout.strip()
    return {
        "host_cpus": os.cpu_count(),
        "cpu_model": cpu_model,
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "compiler": compiler,
        "commit": commit,
    }


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def run_workload(workload, seed, seconds, trace, out_dir):
    """Runs one workload; returns e2e_bench's result row or None."""
    command = [BINARY, f"--workload={workload}", f"--seed={seed}",
               f"--seconds={seconds}", f"--trace={1 if trace else 0}",
               f"--out-dir={out_dir}"]
    before = cpu_ticks()
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s")
        return None
    after = cpu_ticks()
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        log(f"run.py: {workload} exited with {result.returncode}")
        return None
    row = json.loads(lines[-1])
    # Time the hypervisor ran something else on this guest's CPUs: on a
    # shared host it explains runs that read slow across every metric.
    if before and after and after[1] > before[1]:
        row["config"]["host_steal_frac"] = \
            (after[0] - before[0]) / (after[1] - before[1])
    return row


def result_line(row, specs, trace):
    """The result object for one workload, checking every metric exists."""
    section = row["per_layer"] if trace else row["end_to_end"]
    metrics = {}
    correct = bool(row["correct"])
    for spec in specs:
        value = section.get(spec["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            log(f"run.py: metric {spec['name']} missing or not finite")
            correct = False
            continue
        if not trace and value <= 0:
            log(f"run.py: metric {spec['name']} is {value}")
            correct = False
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return {
        "correct": correct,
        "attempted": int(row["attempted"]),
        "failed": int(row["failed"]),
        "metrics": metrics,
    }


def update_per_layer(out_dir, row):
    path = os.path.join(out_dir, "per_layer.json")
    try:
        with open(path) as f:
            table = json.load(f)
    except (OSError, ValueError):
        table = {}
    path_info = row["blocking_path"]
    table[row["workload"]] = {
        "seed": row["seed"],
        "per_layer": row["per_layer"],
        "blocking_path": path_info,
        "unaccounted_ms": path_info["ingest"]["unaccounted_ms"],
        "trace": f"trace-{row['workload']}.json",
    }
    with open(path, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)


def main():
    benchmark = load_benchmark()
    workloads = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads,
                        help="one workload (default: all)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int,
                        default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_build",
                                                      "results"))
    args = parser.parse_args()

    if not build():
        log("run.py: build failed")
        return 1
    build_type = cache_value("CMAKE_BUILD_TYPE")
    if build_type != "Release":
        log(f"run.py: refusing a {build_type} build; Release only")
        return 1
    os.makedirs(args.out, exist_ok=True)
    host = host_config()
    trace = args.trace == 1
    specs = benchmark["per_layer"] if trace else benchmark["end_to_end"]

    results = {}
    for workload in [args.workload] if args.workload else workloads:
        row = run_workload(workload, args.seed, args.seconds, trace, args.out)
        if row is None:
            return 1
        row["config"].update(host)
        row["config"]["command"] = " ".join(sys.argv)
        suffix = "-trace" if trace else ""
        with open(os.path.join(args.out,
                               f"{workload}-seed{args.seed}{suffix}.json"),
                  "w") as f:
            json.dump(row, f, indent=1)
        if trace:
            update_per_layer(args.out, row)
        line = result_line(row, specs, trace)
        for name, metric in line["metrics"].items():
            print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
        failed_frac = row["per_layer"]["failed_frac"]
        print(f"{workload} failed_frac {failed_frac:.6g} ratio "
              f"({line['failed']} of {line['attempted']} operations)")
        checks = row["checks"]
        print(f"{workload} answers {checks['answers_checked']} checked, "
              f"{checks['byte_mismatches']} byte mismatches, "
              f"{checks['accuracy_violations']} beyond 6 sigma, "
              f"max |z| {checks['max_abs_z']:.3g}; "
              f"{int(row['samples']['kept_rounds'])} of "
              f"{int(row['samples']['rounds'])} rounds kept, "
              f"{int(row['samples']['query_samples'])} query samples")
        for problem in checks["problems"]:
            print(f"{workload} PROBLEM {problem}")
        results[workload] = line

    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": metric
                        for w, r in results.items()
                        for name, metric in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
