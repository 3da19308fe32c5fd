"""Run every E21 workload and print every metric by name.

    PYTHONPATH=src python -m benchmarks.e21 [--seed N] [--trace] [--runs N] [--smoke]

Each workload runs in a fresh subprocess of ``run.py`` (``--runs N`` of them,
on seeds ``seed .. seed+N-1``); ``--trace`` adds a separate traced pass for
the per-layer numbers.  The result lands in ``out/result.json`` — the file
``python -m benchmarks.e21.compare`` reads, and what ``baseline.json`` is a
committed copy of.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

from benchmarks.e21.harness import DEFAULT_SEED, RUN_SECONDS
from benchmarks.e21.metrics import END_TO_END, PER_LAYER, WORKLOAD, spread
from benchmarks.e21.workloads import WHY, WORKLOADS

HERE = Path(__file__).resolve().parent
RESULT = HERE / "out" / "result.json"


def _run(workload: str, seed: int, traced: bool, smoke: bool) -> dict:
    """One ``run.py`` subprocess; returns its full result record."""
    detail = HERE / "out" / f"detail_{workload}_{seed}_{int(traced)}.json"
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(RUN_SECONDS), "--trace", str(int(traced)), "--detail", str(detail),
    ]
    if smoke:
        command.append("--smoke")
    # A failed correctness check exits 1 but still writes its record.
    subprocess.run(command, stdout=subprocess.DEVNULL, check=False, timeout=600)
    return json.loads(detail.read_text())


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _summarise(runs: list, group: str, metrics) -> dict:
    """Median over the runs; spread over the runs, or over the repetitions
    of the single run when there is only one."""
    out = {}
    for metric in metrics:
        values = [run[group][metric.name] for run in runs if metric.name in run[group]]
        if not values:
            continue
        out[metric.name] = {
            "value": statistics.median(values),
            "unit": metric.unit,
            "spread": spread(values) if len(values) > 1
            else runs[0]["rep_spread"].get(metric.name, 0.0),
            "values": values,
        }
    return out


def _print_group(title: str, rows: dict) -> None:
    print(f"  {title}")
    for name, row in rows.items():
        extra = f"   spread {100 * row['spread']:.1f} %" if "spread" in row else ""
        print(f"    {name:34s} {row['value']:>16.6g} {row['unit']:<11s}{extra}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--runs", type=int, default=1, help="untraced runs per workload")
    parser.add_argument("--trace", action="store_true", help="add the traced per-layer pass")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one repetition")
    args = parser.parse_args(argv)

    result = {
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
            "commit": _commit(),
        },
        "seed": args.seed,
        "seconds": RUN_SECONDS,
        "runs": args.runs,
        "size": "smoke" if args.smoke else "full",
        "workloads": {},
    }
    all_correct = True
    for name in WORKLOADS:
        runs = [_run(name, args.seed + index, False, args.smoke) for index in range(args.runs)]
        record = {
            "why": WHY[name],
            "work_unit": WORKLOADS[name].work_unit,
            "correct": all(run["correct"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "problems": sorted({text for run in runs for text in run["problems"]}),
            "reps": [run["reps"] for run in runs],
            "reps_discarded": [run["reps_discarded"] for run in runs],
            "sentinel_spread": [run["sentinel_spread"] for run in runs],
            "end_to_end": _summarise(runs, "end_to_end", END_TO_END),
            "workload_metrics": _summarise(runs, "workload_metrics", WORKLOAD),
            "exact": runs[0]["exact"],
        }
        if args.trace:
            traced = _run(name, args.seed, True, args.smoke)
            record["correct"] = record["correct"] and traced["correct"]
            # A layer the workload bypasses records nothing at all; a layer
            # it runs keeps its zeros (no aborts, no protocol errors).
            layers = {key.split(".")[0] for key, value in traced["per_layer"].items() if value}
            record["per_layer"] = {
                metric.name: {"value": traced["per_layer"].get(metric.name, 0.0),
                              "unit": metric.unit}
                for metric in PER_LAYER
                if metric.name.split(".")[0] in layers
            }
        result["workloads"][name] = record
        all_correct = all_correct and record["correct"]

        verdict = "correct" if record["correct"] else "FAILED: " + "; ".join(record["problems"])
        print(f"== {name}: {WHY[name]}")
        print(f"  seed {args.seed}, {args.runs} run(s), repetitions {record['reps']}, "
              f"{sum(record['reps_discarded'])} discarded, "
              f"{record['failed']}/{record['attempted']} operations failed — {verdict}")
        _print_group(f"end to end (work unit: {record['work_unit']})",
                     {**record["end_to_end"], **record["workload_metrics"]})
        if args.trace:
            _print_group("per layer (traced pass)", record["per_layer"])

    RESULT.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {RESULT}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
