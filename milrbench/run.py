#!/usr/bin/env python3
"""End-to-end MILR serving benchmark: build, run one workload, report.

    python3 milrbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--results-dir <dir>]

Builds the library sources and the benchmark binary with CMake into
.bench_build/milrbench (incremental after the first run), runs the named
workload and prints, as the last line of stdout, one JSON object with
"correct", "attempted", "failed" and "metrics": the end-to-end metrics of
BENCHMARK.json for --trace 0, its per-layer metrics for --trace 1. The full
record of the run (every metric with its unit, operations by kind, seed,
commit, core count, diagnostics) is written to
<results-dir>/<workload>-trace<t>-seed<n>.json, default .bench_results/,
and a traced run also writes its span file next to it.
"""
import argparse
import hashlib
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
BUILD_DIR = os.path.join(ROOT, ".bench_build", "milrbench")
BINARY = os.path.join(BUILD_DIR, "milrbench")
RUN_TIMEOUT_S = 170
# An untraced run is split over this many benchmark processes, one round
# each, and reports the median over them: kernel autotune winners, memory
# layout and thread placement are drawn per process.
PROCESSES = 5
# A traced run is one process (its per-layer sweep is the costly part).
TRACED_ROUNDS = 3


def log(message):
    print(f"milrbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; build output -> stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)


def source_identity():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "milrbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def merge(records):
    """One record from the per-process ones: medians of the metrics and of
    the diagnostics, sums of operation counts."""
    def medians(key):
        names = sorted({n for r in records for n in r[key]})
        return {n: statistics.median(r[key][n] for r in records if n in r[key])
                for n in names}
    metrics = {}
    for name in sorted({n for r in records for n in r["metrics"]}):
        got = [r["metrics"][name] for r in records if name in r["metrics"]]
        metrics[name] = {"value": statistics.median(m["value"] for m in got),
                         "unit": got[0]["unit"]}
    operations = {}
    for r in records:
        for kind, count in r["operations"].items():
            total = operations.setdefault(kind, {"attempted": 0, "failed": 0})
            total["attempted"] += count["attempted"]
            total["failed"] += count["failed"]
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
        "operations": operations,
        "diagnostics": medians("diagnostics"),
        "labels": records[0]["labels"],
        "notes": [n for r in records for n in r["notes"]],
        "per_process_metrics": [{n: m["value"] for n, m in r["metrics"].items()}
                                for r in records],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--results-dir",
                        default=os.path.join(ROOT, ".bench_results"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    os.makedirs(args.results_dir, exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}-seed{args.seed}"
    base = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
            "--trace", str(args.trace)]
    if args.trace:
        invocations = [base + [
            "--seconds", str(args.seconds), "--rounds", str(TRACED_ROUNDS),
            "--spans", os.path.join(args.results_dir, stem + "-spans.json")]]
    else:
        invocations = [base + [
            "--seconds", str(args.seconds / PROCESSES), "--rounds", "1",
            "--first-round", str(i)] for i in range(PROCESSES)]
    started = time.time()
    records = []
    log_lines = []
    for cmd in invocations:
        remaining = RUN_TIMEOUT_S - (time.time() - started)
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=max(1.0, remaining))
        except subprocess.TimeoutExpired:
            log(f"run exceeded {RUN_TIMEOUT_S} s")
            return 1
        sys.stderr.write(proc.stderr)
        log_lines.append(f"{' '.join(cmd)}\nexit {proc.returncode}\n{proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            log(f"benchmark binary exited with {proc.returncode}")
            return 1
        records.append(json.loads(lines[-1]))
    with open(os.path.join(args.results_dir, stem + ".log"), "w") as f:
        f.write("\n".join(log_lines))
    record = merge(records)

    metrics = {}
    for m in declared:
        got = record["metrics"].get(m["name"])
        if got is None or got["value"] is None or not math.isfinite(got["value"]):
            log(f"metric {m['name']} missing from the run")
            return 1
        if got["unit"] != m["unit"]:
            log(f"metric {m['name']} in {got['unit']}, declared {m['unit']}")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "commit": source_identity(),
        "cores": os.cpu_count(),
        "wall_seconds": time.time() - started,
    })
    with open(os.path.join(args.results_dir, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
