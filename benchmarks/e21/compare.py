"""Before/after table of two E21 results.

    python -m benchmarks.e21.compare old.json new.json

One row per workload x end-to-end metric: old, new, the change in the
metric's good direction, its bound, and a verdict — ``better``, ``same``,
``worse``, or ``unresolved`` when the recorded spread exceeds the bound and
the two sides' runs overlap.  Exact metrics are judged over the seeds both
sides ran (``values[i]`` is the run at ``seed + i``) and are ``better`` or
``worse`` on any change.  Per-layer self-time deltas follow.  Exits 1 on any
``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys

from benchmarks.e21.metrics import END_TO_END, WORKLOAD

#: Bound used for the workload-specific timed metrics, which the driver does
#: not gate.
DEFAULT_BOUND = 0.10


def verdict(metric, old: dict, new: dict, same_seed: bool = True) -> tuple:
    """``(gain, bound, verdict)``; gain > 0 is a move in the good direction."""
    sign = 1.0 if metric.better == "higher" else -1.0
    gain = sign * (new["value"] - old["value"]) / abs(old["value"]) if old["value"] else 0.0
    if metric.exact and same_seed:
        return gain, 0.0, "same" if new["value"] == old["value"] else (
            "better" if gain > 0 else "worse")
    bound = metric.bound if metric.bound is not None else DEFAULT_BOUND
    if max(old.get("spread", 0.0), new.get("spread", 0.0)) > bound:
        olds = [sign * v for v in old.get("values", [old["value"]])]
        news = [sign * v for v in new.get("values", [new["value"]])]
        if min(news) > max(olds):
            return gain, bound, "better"
        if max(news) < min(olds):
            return gain, bound, "worse"
        return gain, bound, "unresolved"
    return gain, bound, "better" if gain > bound else "worse" if gain < -bound else "same"


def compare(old: dict, new: dict) -> list:
    """Rows ``(workload, metric, old, new, gain, bound, verdict)``."""
    rows = []
    # How many leading runs of the two sides used the same seeds: a median
    # over ten seeds is not the value at the first of them.
    same_start = (old["seed"], old.get("size")) == (new["seed"], new.get("size"))
    shared = min(old["runs"], new["runs"]) if same_start else 0
    for name, after in new["workloads"].items():
        before = old["workloads"].get(name)
        if before is None:
            continue
        for metric in END_TO_END + WORKLOAD:
            pair = [{**side["end_to_end"], **side["workload_metrics"]}.get(metric.name)
                    for side in (before, after)]
            if None in pair:
                continue
            if metric.exact and shared:
                pair = [{**side, "value": statistics.median(side["values"][:shared])}
                        for side in pair]
            rows.append((name, metric.name, pair[0]["value"], pair[1]["value"],
                         *verdict(metric, *pair, same_seed=bool(shared))))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(open(path).read()) for path in argv)
    rows = compare(old, new)
    print(f"{'workload':14s} {'metric':24s} {'old':>12s} {'new':>12s} {'gain':>8s} "
          f"{'bound':>6s}  verdict")
    for name, metric, before, after, gain, bound, word in rows:
        print(f"{name:14s} {metric:24s} {before:12.5g} {after:12.5g} {100 * gain:+7.1f}% "
              f"{100 * bound:5.0f}%  {word}")
    print("\nper-layer self time (s), old -> new")
    for name, after in new["workloads"].items():
        before = old["workloads"].get(name, {}).get("per_layer", {})
        for metric, row in after.get("per_layer", {}).items():
            if row["unit"] == "s" and metric in before:
                print(f"{name:14s} {metric:24s} {before[metric]['value']:12.5g} "
                      f"{row['value']:12.5g} {row['value'] - before[metric]['value']:+12.5g}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
