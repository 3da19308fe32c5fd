"""Per-request accounting for the networked key-delivery front end.

The in-process soak (:mod:`repro.kms.service`) measures *simulated* time;
the network server measures *wall* time.  One :class:`NetKmsMetrics` lives
on each :class:`~repro.netkms.server.NetworkKmsServer` and accumulates
request counts per kind, reserve latency (p50/p99/mean, in a fixed-size
:class:`~repro.util.latency.LatencyHistogram` so memory does not grow with
uptime), protocol
errors per code, reap and replay counters, and an order-independent digest
of the served material (sorted-chunk sha256) — the invariant that must not
move with client concurrency or faults (the E18 rows and the swarm check it).
"""

from __future__ import annotations

import copy
import hashlib
import time
from dataclasses import dataclass
from typing import Dict, List

from repro.netkms.protocol import ERROR_NAMES, FATAL_ERRORS
from repro.util.latency import LatencyHistogram


@dataclass
class MetricsReport:
    """A snapshot of one server's serving window.

    The counters are not declared here: ``metrics`` is a copy of the
    server's :class:`NetKmsMetrics` taken with the report, and the report
    reads through to it (``report.keys_served`` is
    ``report.metrics.keys_served``).  Declared below is what is derived
    from them when the report is taken.
    """

    metrics: "NetKmsMetrics"
    elapsed_seconds: float
    requests: int
    requests_per_second: float
    reserve_latency_p50_seconds: float
    reserve_latency_p99_seconds: float
    reserve_latency_mean_seconds: float
    #: ``metrics.error_counts`` by error name.
    protocol_errors: Dict[str, int]
    served_digest: str

    def __getattr__(self, name: str):
        # Only reached for a name the report does not hold itself.
        if name.startswith("__"):
            raise AttributeError(name)
        return getattr(self.metrics, name)


class NetKmsMetrics:
    """Wall-clock accounting for one server instance."""

    def __init__(self) -> None:
        self.started_at = time.perf_counter()
        self.connections_opened = 0
        self.connections_closed = 0
        self.requests_by_kind: Dict[str, int] = {}
        self.reserve_latencies = LatencyHistogram()
        self.reservations_granted = 0
        self.reservations_denied = 0
        self.keys_served = 0
        self.key_bits_served = 0
        self.error_counts: Dict[int, int] = {}
        self.fatal_errors = 0
        #: Reservations given back by RELEASE, or spent by a failed draw.
        self.reservations_released = 0
        self.draws_failed = 0
        #: Orphaned/expired reservations reaped back into their store, and
        #: the bits reaping returned.
        self.reservations_reaped = 0
        self.reaped_bits = 0
        self.reaped_by_reason: Dict[str, int] = {}
        #: CONSUME retries served from the idempotent replay cache (the same
        #: bytes re-delivered; the served digest counts the material once).
        self.consume_replays = 0
        #: sha256 of each served chunk; the report digest hashes these
        #: *sorted*, so it is independent of service order (and therefore of
        #: client concurrency) as long as the same material is served.
        self._chunk_digests: List[bytes] = []

    def __getstate__(self) -> dict:
        # A copy (a report's snapshot) takes the counters; the chunk digests
        # are rolled up into the report's ``served_digest`` instead.
        return {name: value for name, value in vars(self).items() if name != "_chunk_digests"}

    # ------------------------------------------------------------------ #
    # Recording (called by the server's connection handlers)
    # ------------------------------------------------------------------ #

    def note_request(self, kind_name: str) -> None:
        self.requests_by_kind[kind_name] = self.requests_by_kind.get(kind_name, 0) + 1

    def note_reserve(self, latency_seconds: float, granted: bool) -> None:
        self.reserve_latencies.add(latency_seconds)
        if granted:
            self.reservations_granted += 1
        else:
            self.reservations_denied += 1

    def note_key_served(self, key_bytes: bytes, key_bits: int) -> None:
        self.keys_served += 1
        self.key_bits_served += key_bits
        self._chunk_digests.append(hashlib.sha256(key_bytes).digest())

    def note_error(self, code: int) -> None:
        self.error_counts[code] = self.error_counts.get(code, 0) + 1
        if code in FATAL_ERRORS:
            self.fatal_errors += 1

    def note_reaped(self, bits: int, reason: str) -> None:
        """One reservation returned to its store (``reason``: why)."""
        self.reservations_reaped += 1
        self.reaped_bits += bits
        self.reaped_by_reason[reason] = self.reaped_by_reason.get(reason, 0) + 1

    def note_replay(self) -> None:
        self.consume_replays += 1

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def served_digest(self) -> str:
        """Order-independent sha256 over all served key material."""
        rollup = hashlib.sha256()
        for digest in sorted(self._chunk_digests):
            rollup.update(digest)
        return rollup.hexdigest()

    def report(self) -> MetricsReport:
        elapsed = max(time.perf_counter() - self.started_at, 1e-9)
        total = sum(self.requests_by_kind.values())
        latencies = self.reserve_latencies
        return MetricsReport(
            metrics=copy.deepcopy(self),
            elapsed_seconds=elapsed,
            requests=total,
            requests_per_second=total / elapsed,
            reserve_latency_p50_seconds=latencies.percentile(50),
            reserve_latency_p99_seconds=latencies.percentile(99),
            reserve_latency_mean_seconds=latencies.total / max(len(latencies), 1),
            protocol_errors={
                ERROR_NAMES.get(code, str(code)): count
                for code, count in sorted(self.error_counts.items())
            },
            served_digest=self.served_digest(),
        )


__all__ = ["LatencyHistogram", "MetricsReport", "NetKmsMetrics"]
