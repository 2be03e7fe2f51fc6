"""Compare two sets of benchmark runs, metric by metric, against the bounds.

Each side is a result file written by run.py or a directory of them; runs
with --trace 1 are ignored.  Per workload and end-to-end metric this prints
both medians, both quartile spreads (the distance between the first and
third quartile as a share of the median), the ratio NEW/OLD and a verdict:

  better      NEW beats OLD by more than OLD's spread, in at least nine
              tenths of all (NEW run, OLD run) pairs
  no worse    NEW is not worse than OLD by more than the bound
  worse       NEW is worse than OLD by more than the bound
  unresolved  a side's spread exceeds the bound, and neither every NEW run
              beats every OLD run nor the reverse
"""
from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def load_runs(path: Path) -> dict[str, list[dict]]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: dict[str, list[dict]] = defaultdict(list)
    for f in files:
        record = json.loads(f.read_text())
        if isinstance(record, dict) and record.get("trace") == 0 and "end_to_end" in record:
            runs[record["workload"]].append(record["end_to_end"])
    return runs


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("inf")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def verdict(old: list[float], new: list[float], bound: float, lower_is_better: bool) -> str:
    def gain(a: float, b: float) -> float:
        """How much better a is than b, as a share of b."""
        return (b - a) / b if lower_is_better else (a - b) / b

    old_med, new_med = statistics.median(old), statistics.median(new)
    if spread(old) > bound or spread(new) > bound:
        if min(gain(n, o) for n in new for o in old) > 0:
            return "better"
        if max(gain(n, o) for n in new for o in old) < 0:
            return "worse"
        return "unresolved"
    change = gain(new_med, old_med)
    if change < -bound:
        return "worse"
    wins = sum(gain(n, o) > 0 for n in new for o in old)
    if change > spread(old) and wins >= 0.9 * len(new) * len(old):
        return "better"
    return "no worse"


def main(old_path: Path, new_path: Path, spec: dict) -> int:
    old_runs, new_runs = load_runs(old_path), load_runs(new_path)
    workloads = [w for w in old_runs if w in new_runs]
    if not workloads:
        print("error: the two sides share no workload with --trace 0 runs")
        return 1
    print(f"{'workload':12s} {'metric':14s} {'old median':>12s} {'spread':>7s} "
          f"{'new median':>12s} {'spread':>7s} {'new/old':>8s} {'bound':>6s}  verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            old = [r[m["name"]] for r in old_runs[w]]
            new = [r[m["name"]] for r in new_runs[w]]
            old_med, new_med = statistics.median(old), statistics.median(new)
            print(f"{w:12s} {m['name']:14s} {old_med:12.5g} {spread(old):7.3f} "
                  f"{new_med:12.5g} {spread(new):7.3f} {new_med / old_med:8.4f} {m['bound']:6.2f}  "
                  f"{verdict(old, new, m['bound'], m['better'] == 'lower')}"
                  f"  (runs {len(old)}/{len(new)})")
    return 0
