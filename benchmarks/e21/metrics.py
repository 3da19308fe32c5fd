"""Metric definitions — the single source ``BENCHMARK.json`` is checked against.

Three groups:

* :data:`END_TO_END` — reported by every workload on every untraced run; the
  driver's regression bounds apply to these.  They are the ones that stay
  comparable when the seed and the sandbox's speed change (see README, "Why
  only three bounded metrics").
* :data:`WORKLOAD` — the end-to-end metrics that exist on some workloads
  only, are exact for one seed but move by tens of percent between seeds
  (a Monte-Carlo yield over a few blocks), or are raw host-second rates the
  sandbox moves by a fifth between runs.  ``python -m benchmarks.e21``
  prints them with the end-to-end numbers of their workload; in
  ``BENCHMARK.json`` they ride in ``per_layer`` (0 where they do not apply).
* :data:`PER_LAYER` — from the traced pass.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    meaning: str
    #: Share of the parent's median by which it may worsen (end-to-end only).
    bound: Optional[float] = None
    #: Repeats bit for bit under a fixed seed; ``compare`` flags any change.
    exact: bool = False


END_TO_END = [
    Metric("setup_s", "s", "lower",
           "imports plus the median time to stand a fresh instance up to its timed region, "
           "in reference seconds", bound=0.25),
    Metric("work_per_ref_s", "1/s", "higher",
           "units of work per reference second (host seconds rescaled by the reference kernel "
           "timed beside each repetition): 10^6 slots (link_single, fleet_epochs, key_life), "
           "simulated seconds (kms_soak), get_key requests (netkms_serve)", bound=0.25),
    Metric("peak_rss_mb", "MiB", "lower", "ru_maxrss of the workload's process", bound=0.10),
]

WORKLOAD = [
    Metric("slots_per_s", "slots/s", "higher", "trigger slots through the full stack per host s"),
    Metric("secret_bits_per_mslot", "bits/Mslot", "higher",
           "distilled bits delivered to the key pools per 10^6 slots", exact=True),
    Metric("served_bits_per_s", "bits/s", "higher",
           "secret bits received by a netkms client per host second"),
    Metric("served_bits_per_mslot", "bits/Mslot", "higher",
           "bits served to the client per 10^6 slots transmitted on all links", exact=True),
    Metric("get_key_x_echo", "ratio", "lower",
           "host time of the get_key chunks / host time of the interleaved echo chunks"),
    Metric("sim_s_per_s", "sim_s/s", "higher", "simulated seconds of service per host second"),
    Metric("rekey_ok_share", "share", "higher", "rekeys completed / demands", exact=True),
    Metric("rekey_wait_mean_sim_s", "sim_s", "lower",
           "mean time a completed Phase 2 waited for key", exact=True),
    Metric("failed_share", "share", "lower", "operations failed / attempted (0 expected)",
           exact=True),
]


def _layer(rows: Sequence[tuple]) -> List[Metric]:
    return [Metric(name, unit, better, meaning) for name, unit, better, meaning in rows]


PER_LAYER = _layer([
    ("optics.transmit_s", "s", "lower", "self time of transmit / transmit_lanes"),
    ("optics.ns_per_slot", "ns/slot", "lower", "optics self time per trigger slot"),
    ("optics.click_share", "share", "higher", "detector clicks / slots"),
    ("core.sift_s", "s", "lower", "self time of sift / sift_frames"),
    ("core.sift_yield", "bits/Mslot", "higher", "sifted bits per 10^6 slots"),
    ("core.cascade_s", "s", "lower", "self time of the Cascade stage"),
    ("core.cascade_leak_share", "share", "lower", "disclosed parities / sifted bits"),
    ("core.entropy_s", "s", "lower", "self time of the entropy-estimation stage"),
    ("core.privacy_s", "s", "lower", "self time of the privacy-amplification stage"),
    ("core.privacy_shrink", "share", "higher", "amplified bits / corrected bits"),
    ("core.auth_s", "s", "lower", "self time of the Wegman-Carter stage"),
    ("core.auth_cost_share", "share", "lower", "auth-pool bits spent / bits delivered to pools"),
    ("core.engine_s", "s", "lower",
     "engine block bookkeeping plus the alarm and delivery stages"),
    ("core.blocks", "count", "higher", "blocks entering the pipeline"),
    ("core.block_abort_share", "share", "lower", "blocks aborted / blocks"),
    ("pipeline.self_s", "s", "lower", "DistillationPipeline.run minus its stages"),
    ("link.self_s", "s", "lower", "QKDLink.run_slots minus children"),
    ("runtime.farm_self_s", "s", "lower", "LinkFarm.run minus children"),
    ("lanes.self_s", "s", "lower", "LaneEngine.run_slots/run minus children"),
    ("lanes.ns_per_slot", "ns/slot", "lower", "lane-engine self time per slot"),
    ("lanes.width", "count", "higher", "lanes in the widest batch"),
    ("network.transport_s", "s", "lower",
     "self time of transport_with_reroute, transport_key, spend_path_pad, bank_pad"),
    ("network.transports", "count", "higher", "transport_with_reroute calls"),
    ("network.transport_fail_share", "share", "lower", "transports failed / transports"),
    ("network.pad_bits_per_served_bit", "ratio", "lower",
     "pairwise pad spent / end-to-end bits delivered"),
    ("network.route_s", "s", "lower", "self time of PathSelector.find_path"),
    ("network.reroute_share", "share", "lower", "transports rerouted / transports"),
    ("kms.epoch_s", "s", "lower", "ReplenishmentScheduler.run_epoch minus children"),
    ("kms.store_s", "s", "lower", "self time of KeyStore deposit/reserve/consuming/release"),
    ("kms.service_self_s", "s", "lower", "serve and its event handlers minus children"),
    ("kms.sched_overhead_s", "s", "lower", "SoakReport.scheduler_overhead_seconds"),
    ("kms.starved_share", "share", "lower", "starvation events / demands"),
    ("kms.timeout_share", "share", "lower", "rekeys timed out / demands"),
    ("ipsec.rekey_s", "s", "lower", "self time of rekey_now and negotiate_phase2"),
    ("ipsec.ms_per_rekey", "ms", "lower", "rekey_now duration, children included, per call"),
    ("ipsec.phase1_s", "s", "lower", "self time of establish_phase1"),
    ("crypto.prf_s", "s", "lower", "PRF/HMAC self time seen from the IKE daemon"),
    ("netkms.get_key_p50_ms", "ms", "lower", "median get_key latency"),
    ("netkms.get_key_p99_ms", "ms", "lower",
     "get_key latency at the highest percentile <= 99 with ten samples beyond it"),
    ("netkms.reserve_rtt_p50_us", "us", "lower", "median client reserve round trip"),
    ("netkms.consume_rtt_p50_us", "us", "lower", "median client consume round trip"),
    ("netkms.server_reserve_p50_us", "us", "lower", "server-side reserve handling, p50"),
    ("netkms.codec_s", "s", "lower", "self time of encode_frame and decode_body"),
    ("netkms.codec_us_per_msg", "us", "lower", "codec self time per frame"),
    ("netkms.echo_rtt_us", "us", "lower", "bare loopback echo round trip"),
    ("netkms.protocol_errors", "count", "lower", "typed protocol errors answered"),
    ("netkms.denied_share", "share", "lower", "reservations denied / requested"),
    ("netkms.reaped_bits", "count", "lower", "bits returned by the lease/disconnect reaper"),
    ("sim.loop_self_s", "s", "lower", "EventScheduler.run_until minus the handlers it runs"),
    ("sim.events", "count", "higher", "events executed"),
    ("bench.traced_wall_s", "s", "lower", "wall time of one traced repetition"),
    ("bench.unattributed_share", "share", "lower",
     "share of the traced wall no wrapped callable covers"),
    ("bench.trace_overhead_share", "share", "lower", "traced / untraced wall - 1"),
    ("bench.sentinel_spread", "share", "lower",
     "slowest / fastest reference kernel of the run - 1"),
    ("bench.reps_discarded", "count", "lower", "repetitions re-run for a slow sentinel"),
])

#: Which metric a span name's self time belongs to, first matching prefix.
SPAN_METRIC = [
    ("optics.", "optics.transmit_s"),
    ("core.sift", "core.sift_s"),
    ("core.stage.cascade", "core.cascade_s"),
    ("core.stage.entropy", "core.entropy_s"),
    ("core.stage.privacy", "core.privacy_s"),
    ("core.stage.auth", "core.auth_s"),
    ("core.", "core.engine_s"),
    ("pipeline.", "pipeline.self_s"),
    ("link.", "link.self_s"),
    ("runtime.", "runtime.farm_self_s"),
    ("lanes.", "lanes.self_s"),
    ("network.find_path", "network.route_s"),
    ("network.", "network.transport_s"),
    ("kms.run_epoch", "kms.epoch_s"),
    ("kms.store.", "kms.store_s"),
    ("kms.", "kms.service_self_s"),
    ("ipsec.phase1", "ipsec.phase1_s"),
    ("ipsec.", "ipsec.rekey_s"),
    ("crypto.", "crypto.prf_s"),
    ("netkms.", "netkms.codec_s"),
    ("sim.", "sim.loop_self_s"),
]


def span_metric(span_name: str) -> str:
    for prefix, metric in SPAN_METRIC:
        if span_name.startswith(prefix):
            return metric
    raise KeyError(f"span {span_name!r} belongs to no layer metric")


def supported_percentile(samples: int) -> float:
    """The highest of p99/p95/p90 with at least ten samples beyond it (else
    the median): a tail percentile resting on fewer is one run's noise."""
    candidates = (99.0, 95.0, 90.0, 50.0)
    for candidate in candidates:
        if samples * (100.0 - candidate) / 100.0 >= 10:
            return candidate
    return candidates[-1]


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    if middle == 0:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(middle)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def as_output(values: Dict[str, float], metrics: Sequence[Metric]) -> Dict[str, dict]:
    """``{name: {"value", "unit"}}`` for every metric, 0 where absent."""
    out = {}
    for metric in metrics:
        value = float(values.get(metric.name, 0.0))
        if not math.isfinite(value):
            raise ValueError(f"{metric.name} is not finite: {value}")
        out[metric.name] = {"value": value, "unit": metric.unit}
    return out
