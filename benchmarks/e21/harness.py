"""Repetition policy, noise sentinel and aggregation for one workload run.

:func:`measure` runs fresh-instance repetitions of one workload until the
time budget is spent, and reduces them to the metrics in
:mod:`benchmarks.e21.metrics`.  With ``traced=True`` repetitions alternate
untraced / traced, so the per-layer numbers and the tracing overhead come
from the same run.
"""

from __future__ import annotations

import contextlib
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from benchmarks.e21 import trace
from benchmarks.e21.metrics import SPAN_METRIC, ratio, span_metric, spread, supported_percentile
from benchmarks.e21.workloads import WORKLOADS
from repro.kms.service import percentile

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 2003
#: How long one run measures; ``BENCHMARK.json``'s ``run_seconds``.
RUN_SECONDS = 20
#: Fewest untraced repetitions behind a reported median.
MIN_REPS = 3
#: A repetition is re-run (once) when the sentinel readings in and beside it
#: averaged this much slower than the fastest reading of the run so far.
SENTINEL_TOLERANCE = 1.25
ROOT_SPAN = "bench.rep"
#: What the reference kernel takes in the sandbox's fast phase; it only
#: scales reference seconds so that they read like host seconds.
SENTINEL_NOMINAL_S = 0.040


def sentinel() -> float:
    """Seconds a fixed pure-Python arithmetic loop takes right now (~40 ms in
    the sandbox's fast phase).

    The issue proposed numpy RNG + a loop + one sha256.  Over 16 interleaved
    runs per workload, rescaling by this loop alone gave the steadier medians
    (interquartile spread 6/8/9/5 % on link_single/fleet_epochs/key_life/
    kms_soak against 6/15/7/6 % for the mix and 20/17/17/10 % raw): the
    fresh 4 MB numpy draws measured the allocator as much as the core.
    """
    started = time.perf_counter()
    accumulator = 0
    for index in range(500_000):
        accumulator = (accumulator * 31 + index) & 0xFFFFFFFF
    return time.perf_counter() - started


class Yardstick:
    """The reference kernel read before, inside and after one repetition.

    The sandbox moves between phases ~30 % apart in speed, some a few seconds
    long: a reading at each end of a 5-second repetition says little about
    its middle.  A workload therefore calls :meth:`tick` at the boundaries it
    has inside ``run()`` (between epochs, at simulated times), and every
    stretch of work is rescaled by the two readings that bracket it.
    """

    def __init__(self, kernel: Callable[[], float]):
        self.kernel = kernel
        self.readings: List[float] = []
        #: ``(seconds of work, mean of the readings at its two ends)``
        self.segments: List[tuple] = []
        self._mark = 0.0

    def start(self) -> None:
        self.readings.append(self.kernel())
        self._mark = time.perf_counter()

    def tick(self) -> None:
        work_s = time.perf_counter() - self._mark
        self.readings.append(self.kernel())
        self.segments.append((work_s, (self.readings[-2] + self.readings[-1]) / 2))
        self._mark = time.perf_counter()


@dataclass
class Repetition:
    setup_s: float
    #: Host seconds of the timed region, yardsticks excluded.
    host_s: float
    #: The same in reference seconds: each stretch of work divided by how slow
    #: the yardstick ran beside it, as a multiple of its nominal time.
    ref_s: float
    #: The yardstick's slowdown over the whole repetition (rescales set-up).
    slowdown: float
    #: Every reading of the reference kernel taken for this repetition.
    readings: List[float]
    observations: dict
    #: Rates of this repetition; the reported value is the median over the
    #: untraced repetitions.
    rates: Dict[str, float]
    tracer: Optional[trace.Tracer] = None


def run_repetition(
    name: str, seed: int, size: str, traced: bool, kernel: Callable[[], float] = sentinel
) -> Repetition:
    """One fresh instance: set up, run the timed region, tear down."""
    workload = WORKLOADS[name](seed, size)
    yardstick = Yardstick(kernel)
    started = time.perf_counter()
    workload.setup()
    setup_s = time.perf_counter() - started
    try:
        with trace.tracing() if traced else contextlib.nullcontext() as tracer:
            yardstick.start()
            with tracer.span(ROOT_SPAN) if traced else contextlib.nullcontext():
                # A traced repetition is not rescaled, so nothing ticks inside.
                observations = workload.run(None if traced else yardstick.tick)
            yardstick.tick()
    finally:
        workload.close()
    # The yardstick a workload runs beside its work is not part of the work.
    host_s = sum(work_s for work_s, _ in yardstick.segments) - observations.get("untimed_s", 0.0)
    slowdown = statistics.mean(yardstick.readings) / SENTINEL_NOMINAL_S
    if "slowdown" in observations:
        # netkms_serve is half interpreter work, half socket round trips: as
        # the sandbox's phases come and go it slows down more than its bare
        # echo and less than the reference kernel (measured over three rough
        # phases: echo +2..10 %, get_key +11..26 %, kernel +16..43 %).
        slowdown = math.sqrt(slowdown * observations["slowdown"])
        ref_s = observations["steady_s"] / slowdown
    else:
        ref_s = sum(
            work_s * SENTINEL_NOMINAL_S / reading for work_s, reading in yardstick.segments
        )
    rates = {
        "work_per_ref_s": observations["work"] / ref_s,
        **workload.rates(observations, host_s),
    }
    return Repetition(
        setup_s, host_s, ref_s, slowdown, yardstick.readings, observations, rates, tracer
    )


def measure(
    name: str,
    seed: int = DEFAULT_SEED,
    seconds: float = RUN_SECONDS,
    traced: bool = False,
    size: str = "full",
    min_reps: int = MIN_REPS,
    import_s: float = 0.0,
    trace_path: Optional[Path] = None,
    sentinel: Callable[[], float] = sentinel,
) -> dict:
    """Run ``name`` for about ``seconds`` and reduce it to a result record.

    ``sentinel`` replaces the reference kernel (the tests pass a constant).
    """
    sentinel()  # the first call warms the loop up; not a reading
    sentinels = [sentinel()]  # taken right after the imports: rescales them
    untraced: List[Repetition] = []
    traced_reps: List[Repetition] = []
    #: Every repetition run, the ones discarded for their timing included:
    #: a slow neighbour does not excuse a wrong output.
    checked: List[Repetition] = []
    discarded = 0
    retried = False
    trace_next = False
    started = time.perf_counter()
    while True:
        repetition = run_repetition(name, seed, size, trace_next, sentinel)
        checked.append(repetition)
        sentinels.extend(repetition.readings)
        slow = statistics.mean(repetition.readings) > SENTINEL_TOLERANCE * min(sentinels)
        if slow and not retried:
            discarded += 1
            retried = True
            continue
        retried = False
        (traced_reps if trace_next else untraced).append(repetition)
        if traced:
            trace_next = not trace_next
            enough = bool(traced_reps) and len(traced_reps) == len(untraced)
        else:
            enough = len(untraced) >= min_reps
        if enough and time.perf_counter() - started >= seconds:
            break

    problems = _problems(name, seed, size, checked)
    attempted = sum(rep.observations["attempted"] for rep in checked)
    failed = sum(rep.observations["failed"] for rep in checked)
    correct = not problems and failed == 0
    if problems:
        failed = attempted

    per_rep = [rep.rates for rep in untraced]
    workload_metrics = {
        key: statistics.median(rates[key] for rates in per_rep) for key in per_rep[0]
    }
    workload_metrics["failed_share"] = failed / attempted
    end_to_end = {
        # The first reading was taken right after the imports.
        "setup_s": import_s * SENTINEL_NOMINAL_S / sentinels[0]
        + statistics.median(rep.setup_s / rep.slowdown for rep in untraced),
        "work_per_ref_s": workload_metrics.pop("work_per_ref_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    sentinel_spread = max(sentinels) / min(sentinels) - 1.0
    per_layer: Dict[str, float] = {}
    if traced_reps:
        per_layer = _per_layer(untraced, traced_reps)
        per_layer["bench.sentinel_spread"] = sentinel_spread
        per_layer["bench.reps_discarded"] = discarded
        if trace_path is not None:
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            trace.write_trace(trace_path, name, traced_reps[-1].tracer)
    return {
        "workload": name,
        "seed": seed,
        "size": size,
        "seconds": seconds,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "reps": len(untraced),
        "reps_traced": len(traced_reps),
        "reps_discarded": discarded,
        "sentinel_spread": sentinel_spread,
        "rep_spread": {
            "setup_s": spread([rep.setup_s / rep.slowdown for rep in untraced]),
            **{key: spread([rates[key] for rates in per_rep]) for key in per_rep[0]},
        },
        "end_to_end": end_to_end,
        "workload_metrics": workload_metrics,
        "per_layer": per_layer,
        "exact": checked[0].observations["exact"],
    }


def _problems(name: str, seed: int, size: str, checked: List[Repetition]) -> List[str]:
    """Every failed check: self-consistency, exactness across repetitions,
    and — at the seeds ``expected.json`` holds — the pinned outputs."""
    problems = [text for rep in checked for text in rep.observations["problems"]]
    exact = checked[0].observations["exact"]
    if any(rep.observations["exact"] != exact for rep in checked[1:]):
        problems.append("exact observations differ between repetitions of one seed")
    pinned = json.loads((HERE / "expected.json").read_text()).get(str(seed), {}).get(size)
    if pinned is not None:
        for key in sorted(set(pinned[name]) | set(exact)):
            if pinned[name].get(key) != exact.get(key):
                problems.append(
                    f"{key}: expected {pinned[name].get(key)!r}, got {exact.get(key)!r}"
                )
    return sorted(set(problems))


def _per_layer(untraced: List[Repetition], traced_reps: List[Repetition]) -> Dict[str, float]:
    """Layer metrics: self seconds are medians over the traced repetitions,
    counts come from the last one (they are identical across repetitions)."""
    seconds: Dict[str, List[float]] = {}
    unattributed: List[float] = []
    walls: List[float] = []
    rekey_ms: List[float] = []
    for rep in traced_reps:
        summary = trace.self_times(rep.tracer.spans)
        totals = dict.fromkeys((metric for _prefix, metric in SPAN_METRIC), 0.0)
        for span_name, (_calls, own, _total) in summary.items():
            if span_name != ROOT_SPAN:
                totals[span_metric(span_name)] += own
        for metric, value in totals.items():
            seconds.setdefault(metric, []).append(value)
        _calls, root_own, root_total = summary[ROOT_SPAN]
        unattributed.append(root_own / root_total)
        walls.append(root_total)
        calls, _own, total = summary.get("ipsec.rekey_now", (0, 0.0, 0.0))
        rekey_ms.append(1e3 * ratio(total, calls))
    out = {metric: statistics.median(values) for metric, values in seconds.items()}

    last = traced_reps[-1]
    counts, obs = last.tracer.counts, last.observations
    out["bench.traced_wall_s"] = statistics.median(walls)
    out["bench.unattributed_share"] = statistics.median(unattributed)
    out["bench.trace_overhead_share"] = (
        statistics.median(rep.host_s for rep in traced_reps)
        / statistics.median(rep.host_s for rep in untraced)
        - 1.0
    )
    slots = counts["slots"]
    out["optics.ns_per_slot"] = 1e9 * ratio(out["optics.transmit_s"], slots)
    out["optics.click_share"] = ratio(counts["clicks"], slots)
    out["core.sift_yield"] = 1e6 * ratio(counts["sifted_bits"], slots)
    out["core.cascade_leak_share"] = ratio(
        counts["disclosed_parities"], counts["block_sifted_bits"]
    )
    out["core.privacy_shrink"] = ratio(counts["amplified_bits"], counts["corrected_bits"])
    out["core.auth_cost_share"] = ratio(counts["auth_bits_spent"], counts["delivered_bits"])
    out["core.blocks"] = counts["blocks"]
    out["core.block_abort_share"] = ratio(counts["blocks_aborted"], counts["blocks"])
    out["lanes.ns_per_slot"] = 1e9 * ratio(out["lanes.self_s"], slots)
    out["lanes.width"] = last.tracer.gauges.get("lanes.width", 0)
    out["network.transports"] = counts["transports"]
    out["network.transport_fail_share"] = ratio(counts["transports_failed"], counts["transports"])
    out["network.reroute_share"] = ratio(counts["transports_rerouted"], counts["transports"])
    out["ipsec.ms_per_rekey"] = statistics.median(rekey_ms)
    out["sim.events"] = counts["sim_events"]
    out["network.pad_bits_per_served_bit"] = ratio(
        counts["pad_bits_spent"], obs.get("delivered_key_bits", 0)
    )
    out.update(obs.get("layer", {}))

    if "latencies" in obs:  # netkms_serve times every get_key itself
        latencies = [value for rep in traced_reps for value in rep.observations["latencies"]]
        tail = supported_percentile(len(latencies))
        out["netkms.get_key_p50_ms"] = 1e3 * percentile(latencies, 50)
        out["netkms.get_key_p99_ms"] = 1e3 * percentile(latencies, tail)
        for kind in ("reserve", "consume"):
            rtts = [
                end - start
                for rep in traced_reps
                for span_name, start, end in rep.tracer.detached
                if span_name == f"netkms.{kind}"
            ]
            out[f"netkms.{kind}_rtt_p50_us"] = 1e6 * percentile(rtts, 50)
    frames = sum(
        calls
        for span_name, (calls, _own, _total) in summary.items()  # the last repetition's
        if span_name.startswith("netkms.")
    )
    out["netkms.codec_us_per_msg"] = 1e6 * ratio(out["netkms.codec_s"], frames)
    return out
