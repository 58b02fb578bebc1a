#!/usr/bin/env python3
"""Compare two sets of benchmark result records.

    python3 milrbench/steadiness.py SET_A [SET_B] [--trace 0|1]

A set is a directory of records written by run.py (one JSON file per run).
For every workload and end-to-end metric (per-layer with --trace 1) it
prints each side's median and quartiles (statistics.quantiles, n=4) and
the spread, the interquartile range as a share of the median. With two
sets it also prints the change of the second median against the first and
a verdict:

  agree       the change stays within the metric's bound from BENCHMARK.json
  DISAGREE    the change exceeds the bound
  unresolved  either side's spread exceeds the bound, so the sets cannot
              tell a change of that size from noise

With one set it checks each spread against a third of the bound, the
margin the bounds were set with. It also compares the share of failed
operations between the sets, which must be identical. Exit status 1 when
any metric disagrees, is unresolved, or the failed shares differ.
"""
import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_set(directory, trace):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith("-spans.json"):
            continue
        with open(path) as f:
            record = json.load(f)
        if record.get("trace") != trace:
            continue
        runs.setdefault(record["workload"], []).append(record)
    return runs


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / abs(med) if med else float("inf")


def failed_share(records):
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return failed / attempted if attempted else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="+", help="one or two result directories")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    if len(args.sets) > 2:
        parser.error("at most two sets")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    sets = [load_set(d, args.trace) for d in args.sets]
    problems = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        sides = [s.get(workload, []) for s in sets]
        if any(len(side) < 2 for side in sides):
            print(f"{workload}: fewer than two runs in a set, skipped")
            continue
        shares = [failed_share(side) for side in sides]
        print(f"{workload}: runs {[len(s) for s in sides]}, "
              f"failed share {shares}")
        if len(set(shares)) > 1:
            print("  failed shares differ")
            problems += 1
        for m in metrics:
            name = m["name"]
            values = [[r["metrics"][name]["value"] for r in side
                       if name in r["metrics"]] for side in sides]
            if any(len(v) < 2 for v in values):
                continue
            stats = [summary(v) for v in values]
            bound = m.get("bound")
            cols = "  ".join(f"{q1:.4g} [{med:.4g}] {q3:.4g} spread {sp:.3f}"
                             for q1, med, q3, sp in stats)
            verdict = ""
            if bound is not None and len(stats) == 2:
                change = (stats[1][1] - stats[0][1]) / abs(stats[0][1])
                worse = change if m["better"] == "lower" else -change
                if max(stats[0][3], stats[1][3]) > bound and name != "setup_s":
                    verdict = f"change {change:+.3f} unresolved"
                    problems += 1
                elif worse > bound:
                    verdict = f"change {change:+.3f} DISAGREE"
                    problems += 1
                else:
                    verdict = f"change {change:+.3f} agree"
            elif bound is not None:
                target = bound / 3
                ok = stats[0][3] <= target or name == "setup_s"
                verdict = (f"spread {'within' if ok else 'ABOVE'} "
                           f"bound/3 = {target:.3f}")
                problems += 0 if ok else 1
            print(f"  {name:<34} {cols}  {verdict}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
