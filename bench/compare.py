#!/usr/bin/env python3
"""Compare two sets of benchmark results, as written by ``run.py --out``.

    python3 bench/compare.py BEFORE.jsonl AFTER.jsonl

For every workload and end-to-end metric it prints each side's median,
the change, and a verdict against the metric's bound in ``manifest.py``:

- ``regression``: the median got worse by more than the bound;
- ``ok``: it did not;
- ``better``: every run after reads better than every run before;
- ``unresolved``: the spread of the runs before (quartile distance over
  median) is wider than the bound, so a change cannot be told from noise;
- ``backend differs``: the two sets ran on different bit-slice engines
  (see the ``env`` record), so no verdict is given.

Exits 1 when any verdict is ``regression``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

import manifest


def load(path) -> dict[str, list[dict]]:
    rows = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                row = json.loads(line)
                if row["trace"] == 0:
                    rows[row["workload"]].append(row)
    return rows


def spread(values) -> float:
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(before, after, bound: float, better: str) -> str:
    lower = better == "lower"
    if (max(after) < min(before)) if lower else (min(after) > max(before)):
        return "better"
    if spread(before) > bound:
        return "unresolved"
    mb, ma = statistics.median(before), statistics.median(after)
    worse = (ma - mb) / mb if lower else (mb - ma) / mb
    return "regression" if worse > bound else "ok"


def compare(before: dict, after: dict) -> list[tuple]:
    out = []
    for workload in sorted(set(before) & set(after)):
        backends = ({r["env"]["backend"] for r in before[workload]},
                    {r["env"]["backend"] for r in after[workload]})
        for metric in manifest.END_TO_END:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in before[workload]]
            a = [r["metrics"][name]["value"] for r in after[workload]]
            change = statistics.median(a) / statistics.median(b) - 1
            if backends[0] != backends[1]:
                v = f"backend differs: {sorted(backends[0])} vs {sorted(backends[1])}"
            else:
                v = verdict(b, a, metric["bound"], metric["better"])
            out.append((workload, name, statistics.median(b), statistics.median(a), change, v))
    return out


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(load(argv[0]), load(argv[1]))
    print(f"{'workload':15s} {'metric':12s} {'before':>12s} {'after':>12s} {'change':>8s}  verdict")
    for workload, name, b, a, change, v in rows:
        print(f"{workload:15s} {name:12s} {b:12.5g} {a:12.5g} {change:+8.2%}  {v}")
    return 1 if any(r[-1] == "regression" for r in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
