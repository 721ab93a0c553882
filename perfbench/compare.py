#!/usr/bin/env python3
"""Compare two sets of benchmark runs: a parent commit and a change.

    python3 perfbench/compare.py PARENT CHANGE [--benchmark BENCHMARK.json]

PARENT and CHANGE are files or directories of saved benchmark output
(the standard output of `cargo run ... -- --workload ...`, one run per
file). Every line that is a result record (`"schema": "eba-perfbench-v1"`)
counts as one run. The comparator prints one row per workload and metric
with one verdict:

  better      the change won at least 9 of 10 pairs (ties count for
              neither), the medians differ by more than the parent's
              interquartile range, and no more operations failed;
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json (per-layer metrics have
              no bound: worse is then the mirror image of better);
  unresolved  neither, and the parent's own spread (interquartile range
              over median) is wider than the bound, unless every change
              run reads better than every parent run;
  unchanged   otherwise.

Runs pair up in the order they started; the output says whether the pairs
alternated which side ran first, as they should. An increase in the error
rate (failed over attempted operations) is reported as worse on its own
row. The exit status is 1 when any row is worse.
"""

import argparse
import json
import os
import statistics
import sys

SCHEMA = "eba-perfbench-v1"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(paths):
    """All result records under the given files and directories."""
    files = []
    for path in paths:
        if os.path.isdir(path):
            for root, _, names in os.walk(path):
                files.extend(os.path.join(root, n) for n in sorted(names))
        else:
            files.append(path)
    runs = []
    for name in files:
        with open(name, encoding="utf-8", errors="replace") as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(record, dict) and record.get("schema") == SCHEMA:
                    runs.append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def better_than(a, b, direction):
    return a > b if direction == "higher" else a < b


def verdict(parent, change, direction, bound, error_rate_rose):
    """The verdict of one row and a note on how it was reached."""
    pairs = list(zip(parent, change))
    wins = sum(better_than(c, p, direction) for p, c in pairs)
    losses = sum(better_than(p, c, direction) for p, c in pairs)
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    gap = abs(mc - mp)
    note = f"{wins}/{len(pairs)} wins, {losses} losses"
    enough = len(pairs) >= MIN_PAIRS
    if (
        enough
        and not error_rate_rose
        and wins >= WIN_SHARE * len(pairs)
        and gap > iqr
        and better_than(mc, mp, direction)
    ):
        return "better", note
    if bound is not None:
        if mp != 0 and better_than(mp, mc, direction) and gap > bound * abs(mp):
            return "worse", note + f", median gap beyond the {bound:.0%} bound"
    elif (
        enough
        and losses >= WIN_SHARE * len(pairs)
        and gap > iqr
        and better_than(mp, mc, direction)
    ):
        return "worse", note
    spread = iqr / abs(mp) if mp else 0.0
    every_run_better = all(better_than(c, p, direction) for p in parent for c in change)
    if bound is not None and spread > bound and not every_run_better:
        return "unresolved", note + f", parent spread {spread:.1%} exceeds the bound"
    if not enough:
        return "unchanged", note + f", fewer than {MIN_PAIRS} pairs"
    return "unchanged", note


def runs_of(runs, workload, traced):
    """The runs of one workload and trace mode, in the order they started."""
    chosen = [r for r in runs if r["workload"] == workload and r["trace"] == traced]
    return sorted(chosen, key=lambda r: r["started_unix"])


def error_rate(runs):
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def summary(values):
    return "{:.6g} [{:.6g}, {:.6g}]".format(statistics.median(values), *quartiles(values))


def alternated(parent_runs, change_runs):
    """Whether the side that ran first alternated from pair to pair."""
    firsts = [
        p["started_unix"] < c["started_unix"] for p, c in zip(parent_runs, change_runs)
    ]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="parent runs: a file or a directory")
    parser.add_argument("change", help="change runs: a file or a directory")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args()

    with open(args.benchmark, encoding="utf-8") as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layers = {m["name"]: m for m in bench["per_layer"]}
    parent, change = load_runs([args.parent]), load_runs([args.change])
    if not parent or not change:
        sys.exit("compare.py: no result records on one side")

    any_worse = False
    header = (
        f"{'workload':14} {'run':6} {'metric':34} {'unit':6} "
        f"{'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}  verdict"
    )
    print(header)
    print("-" * len(header))
    workloads = sorted({r["workload"] for r in parent} & {r["workload"] for r in change})
    for workload in workloads:
        for traced in (0, 1):
            p_runs = runs_of(parent, workload, traced)
            c_runs = runs_of(change, workload, traced)
            if not p_runs or not c_runs:
                continue
            mode = "traced" if traced else "plain"
            rose = error_rate(c_runs) > error_rate(p_runs)
            any_worse |= rose
            print(
                f"{workload:14} {mode:6} {'error_rate':34} {'ratio':6} "
                f"{error_rate(p_runs):>34.6g} {error_rate(c_runs):>34.6g}  "
                + ("worse (more operations failed)" if rose else "unchanged")
            )
            table, key = (layers, "per_layer") if traced else (e2e, "end_to_end")
            for name, spec in table.items():
                pv = [r[key][name]["value"] for r in p_runs if name in r[key]]
                cv = [r[key][name]["value"] for r in c_runs if name in r[key]]
                if not pv or not cv or not any(pv + cv):
                    continue  # missing, or a layer this workload does not reach
                v, note = verdict(pv, cv, spec["better"], spec.get("bound"), rose)
                any_worse |= v == "worse"
                print(
                    f"{workload:14} {mode:6} {name:34} {spec['unit']:6} "
                    f"{summary(pv):>34} {summary(cv):>34}  {v} ({note})"
                )
            print(
                f"{workload:14} {mode:6} {'(runs)':34} {'':6} {len(p_runs):>34} {len(c_runs):>34}  "
                + (
                    "pairs alternated"
                    if alternated(p_runs, c_runs)
                    else "pairs did NOT alternate which side ran first"
                )
            )
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
