#!/usr/bin/env python3
"""Summarise saved benchmark runs, or compare two sets of them.

    python3 perfbench/compare.py RUN.out ...
    python3 perfbench/compare.py BASE.out ... --against NEW.out ...

Each file holds the stdout of one `run.py` run (its last two lines are
the info line and the result line).  For each workload and metric this
prints the median over runs, the quartiles as `statistics.quantiles(
values, n=4)` gives them, and their distance as a share of the median.
With `--against` it also prints the second set's median and its change
against the first.  It refuses (exit 2) to compare runs whose kernel
backends or Python versions differ, since their times are not
comparable.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict

KEYS = ("enum_backend", "bracket_backend", "python")


def load(paths):
    """{(workload, trace): {metric: [values]}} and the set of environments."""
    runs = defaultdict(lambda: defaultdict(list))
    envs = set()
    for path in paths:
        with open(path) as fh:
            lines = [line for line in fh.read().splitlines() if line.startswith("{")]
        info = json.loads(lines[-2])["info"]
        result = json.loads(lines[-1])
        envs.add(tuple(info.get(k) for k in KEYS))
        group = runs[(info["workload"], info["trace"])]
        for name, metric in result["metrics"].items():
            group[name].append(metric["value"])
        group["failed"].append(result["failed"])
    return runs, envs


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("runs", nargs="+")
    p.add_argument("--against", nargs="+")
    args = p.parse_args()
    base, base_envs = load(args.runs)
    new, new_envs = load(args.against or [])
    envs = base_envs | new_envs
    if len(envs) > 1:
        print(f"refusing to compare runs from different environments {KEYS}: "
              f"{sorted(envs)}", file=sys.stderr)
        return 2
    for key in sorted(base):
        print(f"== {key[0]} (trace {key[1]}), {len(base[key]['failed'])} runs")
        for name, values in base[key].items():
            med, q1, q3, iqr = spread(values)
            line = f"  {name:44s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} iqr/med {iqr:.3f}"
            if key in new and name in new[key]:
                med2 = spread(new[key][name])[0]
                change = (med2 - med) / med if med else 0.0
                line += f"  new {med2:<12.6g} change {change:+.3f}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
