"""Spans around the public callables at each layer boundary.

The traced pass patches the callables listed in :func:`_targets` — from
outside, ``src/`` is untouched — so that every call records
``[name, start, end, parent]`` in memory.  A span's *self time* is its
duration minus the durations of its direct children, so the self times of
all spans under one root add up to the root's duration exactly; what no
wrapped callable covers stays in the root's own self time and is reported
as unattributed.  Counts are read at the same boundaries from return values
and public statistics objects.

Coroutines (the netkms client's ``reserve``/``consume``) overlap each other
on one event loop, so their spans are *detached*: recorded for latency
percentiles, kept out of the parent/child arithmetic.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

NO_PARENT = -1


class Tracer:
    """In-memory span and count recorder for one traced repetition."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index]`` in open order.
        self.spans: List[list] = []
        #: ``(name, start, end)`` of coroutine spans.
        self.detached: List[Tuple[str, float, float]] = []
        self.counts: Counter = Counter()
        self.gauges: Dict[str, float] = {}
        self._stack: List[int] = []
        #: Last cumulative value seen per statistics object, keyed by id; the
        #: object is kept alongside so its id cannot be reused meanwhile.
        self._seen: Dict[int, Tuple[object, int]] = {}

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else NO_PARENT
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def delta(self, owner: object, cumulative: int) -> int:
        """How much a cumulative counter on ``owner`` grew since last read."""
        _, previous = self._seen.get(id(owner), (None, 0))
        self._seen[id(owner)] = (owner, cumulative)
        return cumulative - previous


def self_times(spans: List[list]) -> Dict[str, Tuple[int, float, float]]:
    """Per span name: ``(calls, self seconds, total seconds)``."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent != NO_PARENT:
            covered[parent] += end - start
    summary: Dict[str, Tuple[int, float, float]] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        calls, own, total = summary.get(name, (0, 0.0, 0.0))
        duration = end - start
        summary[name] = (calls + 1, own + duration - covered[index], total + duration)
    return summary


def write_trace(path, workload: str, tracer: Tracer) -> None:
    """Dump one repetition's spans, times relative to the first span."""
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    document = {
        "workload": workload,
        "columns": ["name", "start_s", "end_s", "parent"],
        "spans": [[n, s - origin, e - origin, p] for n, s, e, p in tracer.spans],
        "detached": [[n, s - origin, e - origin] for n, s, e in tracer.detached],
        "counts": dict(tracer.counts),
        "gauges": tracer.gauges,
    }
    with open(path, "w") as handle:
        json.dump(document, handle)


# ---------------------------------------------------------------------- #
# Wrappers
# ---------------------------------------------------------------------- #


def _sync(tracer: Tracer, original, name, after: Optional[Callable]):
    dynamic = name if callable(name) else None

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        index = tracer.open(dynamic(args[0]) if dynamic else name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(tracer, args, result)
        return result

    return wrapper


def _coroutine(tracer: Tracer, original, name, _after):
    @functools.wraps(original)
    async def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return await original(*args, **kwargs)
        finally:
            tracer.detached.append((name, started, time.perf_counter()))

    return wrapper


def _context(tracer: Tracer, original, name, _after):
    """For a method returning a context manager: the span covers the body."""

    @functools.wraps(original)
    @contextlib.contextmanager
    def wrapper(*args, **kwargs):
        with tracer.span(name), original(*args, **kwargs):
            yield

    return wrapper


def _scheduling(tracer: Tracer, original, _name, _after):
    """``EventScheduler.schedule_at``: span each callback when it later runs,
    named after the layer that scheduled it, so the event loop's self time is
    the loop alone."""

    @functools.wraps(original)
    def wrapper(self, when, callback, *args, **kwargs):
        module = getattr(callback, "__module__", "") or ""
        parts = module.split(".")
        layer = parts[1] if len(parts) > 1 and parts[0] == "repro" else "sim"
        name = f"{layer}.handler"

        def traced_callback():
            with tracer.span(name):
                callback()

        return original(self, when, traced_callback, *args, **kwargs)

    return wrapper


# ---------------------------------------------------------------------- #
# Counts read at the boundaries
# ---------------------------------------------------------------------- #


def _count_sift(tracer: Tracer, _args, sift) -> None:
    tracer.counts["slots"] += sift.n_slots_transmitted
    tracer.counts["clicks"] += sift.n_detections_reported
    tracer.counts["sifted_bits"] += sift.n_sifted


def _count_block(tracer: Tracer, _args, ctx) -> None:
    counts = tracer.counts
    counts["blocks"] += 1
    counts["blocks_aborted"] += bool(ctx.aborted)
    counts["block_sifted_bits"] += ctx.sifted_bits
    if ctx.cascade is not None:
        counts["disclosed_parities"] += ctx.cascade.disclosed_parities
    if ctx.privacy is not None:
        counts["corrected_bits"] += ctx.privacy.input_bits
        counts["amplified_bits"] += ctx.privacy.output_bits
    if not ctx.aborted and ctx.distilled is not None:
        counts["delivered_bits"] += len(ctx.distilled)
    auth = ctx.services.alice_auth
    counts["auth_bits_spent"] += tracer.delta(auth, auth.statistics.secret_bits_consumed)


def _count_lanes(tracer: Tracer, args, _result) -> None:
    tracer.gauges["lanes.width"] = max(tracer.gauges.get("lanes.width", 0), args[0].n_lanes)


def _count_transport_key(tracer: Tracer, _args, result) -> None:
    tracer.counts["pad_bits_spent"] += result.pad_bits_consumed


def _count_transport(tracer: Tracer, _args, result) -> None:
    tracer.counts["transports"] += 1
    tracer.counts["transports_failed"] += not result.success
    tracer.counts["transports_rerouted"] += bool(result.rerouted)


def _count_path_pad(tracer: Tracer, _args, consumed) -> None:
    tracer.counts["pad_bits_spent"] += consumed


def _count_events(tracer: Tracer, _args, executed) -> None:
    tracer.counts["sim_events"] += executed


def _targets() -> List[tuple]:
    """``(owner, attribute, span name, wrapper kind, count hook)`` rows.

    Functions a layer imports by name are patched where that layer looks
    them up (``transmit_lanes``/``sift_frames`` in ``repro.lanes.engine``,
    the PRF in ``repro.ipsec.ike``).
    """
    import repro.ipsec.ike as ike
    import repro.lanes.engine as lanes_engine
    import repro.pipeline.stages as stages
    from repro.core.engine import QKDProtocolEngine
    from repro.core.sifting import SiftingProtocol
    from repro.ipsec.gateway import VPNGateway
    from repro.kms.scheduler import ReplenishmentScheduler
    from repro.kms.service import KeyManagementService
    from repro.kms.store import KeyStore
    from repro.lanes import LaneEngine
    from repro.link.qkd_link import QKDLink
    from repro.netkms import protocol
    from repro.netkms.client import NetworkKmsClient
    from repro.network.relay import TrustedRelayNetwork
    from repro.network.routing import PathSelector
    from repro.optics.channel import QuantumChannel
    from repro.pipeline.pipeline import DistillationPipeline
    from repro.pipeline.stage import PipelineStage
    from repro.runtime.farm import LinkFarm
    from repro.sim.clock import EventScheduler

    rows = [
        (QuantumChannel, "transmit", "optics.transmit", _sync, None),
        (lanes_engine, "transmit_lanes", "optics.transmit_lanes", _sync, None),
        (SiftingProtocol, "sift", "core.sift", _sync, _count_sift),
        # sift_frames ends in one SiftingProtocol.sift per lane, which counts.
        (lanes_engine, "sift_frames", "core.sift_frames", _sync, None),
        (QKDProtocolEngine, "process_sifted", "core.engine", _sync, None),
        (QKDProtocolEngine, "flush", "core.engine", _sync, None),
        (DistillationPipeline, "run", "pipeline.run", _sync, _count_block),
        (QKDLink, "run_slots", "link.run_slots", _sync, None),
        (LaneEngine, "run_slots", "lanes.run_slots", _sync, _count_lanes),
        (LaneEngine, "run", "lanes.run", _sync, _count_lanes),
        (LinkFarm, "run", "runtime.farm_run", _sync, None),
        (TrustedRelayNetwork, "transport_with_reroute", "network.transport_with_reroute",
         _sync, _count_transport),
        (TrustedRelayNetwork, "transport_key", "network.transport_key", _sync,
         _count_transport_key),
        (TrustedRelayNetwork, "spend_path_pad", "network.spend_path_pad", _sync,
         _count_path_pad),
        (TrustedRelayNetwork, "bank_pad", "network.bank_pad", _sync, None),
        (PathSelector, "find_path", "network.find_path", _sync, None),
        (ReplenishmentScheduler, "run_epoch", "kms.run_epoch", _sync, None),
        (KeyStore, "deposit", "kms.store.deposit", _sync, None),
        (KeyStore, "reserve", "kms.store.reserve", _sync, None),
        (KeyStore, "release", "kms.store.release", _sync, None),
        (KeyStore, "consuming", "kms.store.consuming", _context, None),
        (KeyManagementService, "serve", "kms.serve", _sync, None),
        (VPNGateway, "rekey_now", "ipsec.rekey_now", _sync, None),
        (ike.IKEDaemon, "establish_phase1", "ipsec.phase1", _sync, None),
        (ike.IKEDaemon, "negotiate_phase2", "ipsec.phase2", _sync, None),
        (ike, "prf_expand", "crypto.prf", _sync, None),
        (ike, "hmac_sha1", "crypto.prf", _sync, None),
        (EventScheduler, "run_until", "sim.run_until", _sync, _count_events),
        (EventScheduler, "schedule_at", "", _scheduling, None),
        (NetworkKmsClient, "reserve", "netkms.reserve", _coroutine, None),
        (NetworkKmsClient, "consume", "netkms.consume", _coroutine, None),
        (protocol, "encode_frame", "netkms.encode_frame", _sync, None),
        (protocol, "decode_body", "netkms.decode_body", _sync, None),
    ]
    for stage_class in vars(stages).values():
        if (
            isinstance(stage_class, type)
            and stage_class.__module__ == stages.__name__
            and issubclass(stage_class, PipelineStage)
            and "run" in vars(stage_class)
        ):
            rows.append(
                (stage_class, "run", lambda stage: f"core.stage.{stage.name}", _sync, None)
            )
    return rows


@contextlib.contextmanager
def tracing() -> Iterator[Tracer]:
    """Patch every target for the duration of the block; yields the tracer."""
    tracer = Tracer()
    originals = []
    for owner, attribute, name, kind, after in _targets():
        original = vars(owner)[attribute]
        originals.append((owner, attribute, original))
        setattr(owner, attribute, kind(tracer, original, name, after))
    try:
        yield tracer
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
