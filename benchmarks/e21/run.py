"""Measure one E21 workload — the ``BENCHMARK.json`` command.

    python3 benchmarks/e21/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints one JSON object as the last line of standard output: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer ones
(and writes ``out/trace_<workload>.json`` beside this file).  Exits non-zero
when a correctness check fails.
"""

import time

_PROCESS_STARTED = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

# One thread per numeric pool, decided before numpy loads: a BLAS or OpenMP
# pool sized to the machine would put the two cores' noise into every timing.
for _pool in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_pool, "1")
# Keep freed memory in the process.  glibc maps every array of 32 MB or more
# afresh and hands it back on free, so a lane-engine epoch takes ~4 000 page
# faults, and what a fresh page costs is the hypervisor's business: in the
# sandbox's rough phases fleet_epochs and key_life ran at half speed while
# link_single (4 MB arrays, reused from the heap) and the reference kernel
# ran as ever.  With the thresholds raised the pages are touched once, in the
# first repetition.
try:
    _libc = ctypes.CDLL("libc.so.6")
    _libc.mallopt(-3, 1 << 30)  # M_MMAP_THRESHOLD
    _libc.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
except (OSError, AttributeError):
    pass  # not glibc: measure with the platform's allocator as it is
if not __package__:
    # Run as a script, sys.path[0] is this directory; the package imports
    # need the repository root and src/ instead.
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))

from benchmarks.e21 import harness  # noqa: E402
from benchmarks.e21.metrics import END_TO_END, PER_LAYER, WORKLOAD, as_output  # noqa: E402
from benchmarks.e21.workloads import WORKLOADS  # noqa: E402

_IMPORT_S = time.perf_counter() - _PROCESS_STARTED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=harness.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one repetition")
    parser.add_argument("--detail", type=Path, help="also write the full result record here")
    args = parser.parse_args(argv)

    result = harness.measure(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        traced=bool(args.trace),
        size="smoke" if args.smoke else "full",
        min_reps=1 if args.smoke else harness.MIN_REPS,
        import_s=_IMPORT_S,
        trace_path=HERE / "out" / f"trace_{args.workload}.json",
    )
    for problem in result["problems"]:
        print(f"FAILED CHECK {args.workload}: {problem}", file=sys.stderr)
    if args.detail is not None:
        args.detail.parent.mkdir(parents=True, exist_ok=True)
        args.detail.write_text(json.dumps(result, indent=1))
    if args.trace:
        metrics = as_output({**result["workload_metrics"], **result["per_layer"]},
                            WORKLOAD + PER_LAYER)
    else:
        metrics = as_output(result["end_to_end"], END_TO_END)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
