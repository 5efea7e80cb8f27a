#!/usr/bin/env python3
"""Compares two sets of run.py result rows, metric by metric.

    python3 bench/e2e/compare.py A/*.json B/*.json

The rows are grouped by directory: exactly two directories, the first
named being the baseline A. Traced rows (--trace) and per_layer.json are
skipped. For every (workload, end-to-end metric) it prints each side's
median and quartiles and a verdict against BENCHMARK.json's bound:

  unresolved  a side's quartile spread exceeds the bound (unless every B
              run beats every A run)
  worse       B's median is worse than A's by more than the bound
  gain        B wins at least 9 of 10 seed-matched pairs and the medians
              differ by more than A's quartile spread
  within      otherwise

The exit status is non-zero when any verdict is worse or unresolved.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def load_rows(paths):
    sides = {}
    for path in paths:
        if os.path.basename(path) == "per_layer.json":
            continue
        with open(path) as f:
            row = json.load(f)
        if row.get("trace"):
            continue
        sides.setdefault(os.path.dirname(os.path.abspath(path)), []).append(row)
    return sides


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a, b, bound, higher_is_better):
    """(verdict, relative change of B's median, worse-positive)."""
    qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
    sign = -1.0 if higher_is_better else 1.0
    change = sign * (qb[1] - qa[1]) / qa[1]
    spread_a = (qa[2] - qa[0]) / qa[1]
    spread_b = (qb[2] - qb[0]) / qb[1]
    better = (lambda x, y: x > y) if higher_is_better else (lambda x, y: x < y)
    all_better = all(better(x, y) for x in b.values() for y in a.values())
    seeds = sorted(set(a) & set(b))
    wins = sum(1 for s in seeds if better(b[s], a[s]))
    if max(spread_a, spread_b) > bound and not all_better:
        return "unresolved", change
    if change > bound:
        return "worse", change
    if seeds and wins >= 0.9 * len(seeds) and \
            abs(qb[1] - qa[1]) > qa[2] - qa[0]:
        return "gain", change
    return "within", change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    sides = load_rows(sys.argv[1:])
    if len(sides) != 2:
        print("compare.py: name result rows from exactly two directories",
              file=sys.stderr)
        return 2
    order = []
    for path in sys.argv[1:]:
        directory = os.path.dirname(os.path.abspath(path))
        if directory in sides and directory not in order:
            order.append(directory)
    side_a, side_b = (sides[d] for d in order)
    print(f"A = {order[0]} ({len(side_a)} rows)\nB = {order[1]} "
          f"({len(side_b)} rows)")
    print(f"{'workload':<20} {'metric':<22} {'A q1/median/q3':<34} "
          f"{'B q1/median/q3':<34} {'worse by':>9}  verdict")
    bad = 0
    for workload in [w["name"] for w in benchmark["workloads"]]:
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a = {r["seed"]: r["end_to_end"][name] for r in side_a
                 if r["workload"] == workload}
            b = {r["seed"]: r["end_to_end"][name] for r in side_b
                 if r["workload"] == workload}
            if not a or not b:
                continue
            result, change = verdict(a, b, metric["bound"],
                                     metric["better"] == "higher")
            qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"{workload:<20} {name:<22} {fmt.format(*qa):<34} "
                  f"{fmt.format(*qb):<34} {change:>+8.1%}  {result} "
                  f"(bound {metric['bound']:.0%})")
            bad += result in ("worse", "unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
