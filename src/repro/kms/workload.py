"""Traffic-driven rekey demand for the key-management runtime.

Consumers in the paper's network are IPsec gateway pairs whose IKE daemons
rekey Security Associations from QKD bits.  The workload layer turns "many
gateway pairs carrying user traffic" into a deterministic schedule of rekey
demands: each pair's demand times come from its own labeled RNG stream
(``workload/<pair>``), so adding, removing or reordering pairs never
perturbs another pair's schedule, and the whole demand pattern is a pure
function of ``(seed, profile, pair name)`` — worker counts and event
interleaving cannot touch it.

Two arrival profiles:

``poisson``
    Memoryless rekeys at a mean interval — steady aggregate load, the
    baseline operating point.

``bursty``
    Rekey *storms*: bursts arrive as a Poisson process, and each burst
    packs several back-to-back rekeys into a short window (a site-wide
    policy push, or many tunnels expiring together after an outage).  This
    is the contention profile that makes reservation semantics and
    depletion-aware scheduling earn their keep.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import ClassVar, List, Tuple

from repro.util.rng import DeterministicRNG


def _check_horizon(horizon_seconds: float) -> None:
    """Refuse a horizon the arrival loop could never pass: with ``nan`` or
    ``inf`` the loop's ``now >= horizon`` test never holds."""
    if not (math.isfinite(horizon_seconds) and horizon_seconds >= 0):
        raise ValueError(f"horizon must be non-negative and finite, got {horizon_seconds!r}")


@dataclass(frozen=True)
class WorkloadProfile:
    """Shape of one pair's rekey demand process."""

    kind: str = "poisson"
    #: Mean seconds between rekeys (poisson) or between bursts (bursty).
    mean_interval_seconds: float = 120.0
    #: Rekeys per burst (bursty only).
    burst_size: ClassVar[int] = 4
    #: Window over which a burst's rekeys are spread (bursty only).
    burst_spread_seconds: ClassVar[float] = 5.0

    KINDS = ("poisson", "bursty")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"profile kind must be one of {self.KINDS}")
        interval = self.mean_interval_seconds
        if not (math.isfinite(interval) and interval > 0):
            raise ValueError(f"mean interval must be finite and positive, got {interval!r}")

    @classmethod
    def poisson(cls, mean_interval_seconds: float = 120.0) -> "WorkloadProfile":
        return cls(kind="poisson", mean_interval_seconds=mean_interval_seconds)

    @classmethod
    def bursty(cls, mean_interval_seconds: float = 300.0) -> "WorkloadProfile":
        return cls(kind="bursty", mean_interval_seconds=mean_interval_seconds)


class TrafficWorkload:
    """Deterministic rekey-demand schedules for a fleet of gateway pairs."""

    def __init__(self, profile: WorkloadProfile, rng: DeterministicRNG):
        self.profile = profile
        self._rng = rng

    @staticmethod
    def pair_label(pair: Tuple[str, str]) -> str:
        return f"{pair[0]}--{pair[1]}"

    def demand_times(self, pair: Tuple[str, str], horizon_seconds: float) -> List[float]:
        """Every rekey demand time for one pair within ``[0, horizon)``.

        The stream is ``rng.fork_labeled("workload/<a>--<b>")`` — depends on
        the root seed, the profile parameters consumed in a fixed order, and
        the pair name only.
        """
        _check_horizon(horizon_seconds)
        stream = self._rng.fork_labeled(f"workload/{self.pair_label(pair)}")
        times: List[float] = []
        now = 0.0
        profile = self.profile
        while True:
            now += stream.exponential(profile.mean_interval_seconds)
            if now >= horizon_seconds:
                break
            if profile.kind == "poisson":
                times.append(now)
                continue
            # Bursty: the arrival is a storm of rekeys across the spread
            # window.  Offsets are drawn unconditionally so the stream's
            # draw pattern (and hence later arrivals) never depends on how
            # close the burst sits to the horizon.
            offsets = sorted(
                stream.uniform(0.0, profile.burst_spread_seconds)
                for _ in range(profile.burst_size)
            )
            times.extend(now + off for off in offsets if now + off < horizon_seconds)
        # Bursts may overlap (the next storm can arrive inside the previous
        # spread window), so impose time order once at the end.
        times.sort()
        return times

    def schedule(
        self, pairs: List[Tuple[str, str]], horizon_seconds: float
    ) -> List[Tuple[float, Tuple[str, str]]]:
        """The merged demand schedule for a fleet, ordered by time.

        Ties are broken by pair name, so the event order handed to the
        simulator is fully deterministic.
        """
        merged: List[Tuple[float, Tuple[str, str]]] = []
        for pair in sorted(pairs):
            merged.extend((t, pair) for t in self.demand_times(pair, horizon_seconds))
        merged.sort(key=lambda item: (item[0], item[1]))
        return merged


@dataclass(frozen=True)
class AggregateProfile:
    """Compound-arrival demand for a whole *class* of tunnels per pair.

    A metro gateway pair fronts thousands to millions of tunnels; modeling
    each one as its own arrival process (``WorkloadProfile`` ×
    ``tunnels``) costs per-tunnel objects and per-tunnel RNG streams.  This
    profile models the class in aggregate:

    ``poisson``
        The superposition of ``tunnels`` independent Poisson processes is
        itself Poisson at the summed rate — arrivals at mean interval
        ``mean_interval_seconds / tunnels``, one rekey each.  Exactly
        equivalent in distribution to the per-tunnel model, which is what
        the differential tests pin.

    ``storm``
        Compound Poisson: storms arrive at ``mean_interval_seconds`` and
        each carries a heavy-tailed batch of coincident rekeys (truncated
        zeta with tail exponent ``alpha``) — the DimDim observation that
        real session load arrives in power-law bursts, not as independent
        trickles (arxiv 1011.2893).
    """

    kind: str = "poisson"
    #: Tunnels represented by the class (poisson divides the per-tunnel
    #: mean interval by this).
    tunnels: int = 1_000
    #: Per-tunnel mean seconds between rekeys (poisson) or seconds between
    #: storms (storm).
    mean_interval_seconds: float = 120.0
    #: Power-law tail exponent of storm batch sizes (storm only).
    alpha: float = 2.5
    #: Truncation of a single storm's batch (storm only).
    max_batch: int = 10_000

    KINDS = ("poisson", "storm")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"aggregate profile kind must be one of {self.KINDS}")
        if self.tunnels < 1:
            raise ValueError("an aggregate class needs at least one tunnel")
        interval = self.mean_interval_seconds
        if not (math.isfinite(interval) and interval > 0):
            raise ValueError(f"mean interval must be finite and positive, got {interval!r}")
        if not self.alpha > 1.0:  # also refuses nan
            raise ValueError("tail exponent must exceed 1 (else no finite mass)")
        if self.max_batch < 1:
            raise ValueError("max batch must be at least 1")

    @classmethod
    def poisson(
        cls, tunnels: int, mean_interval_seconds: float = 120.0
    ) -> "AggregateProfile":
        return cls(
            kind="poisson", tunnels=tunnels, mean_interval_seconds=mean_interval_seconds
        )

    @classmethod
    def storm(
        cls,
        tunnels: int,
        mean_interval_seconds: float = 300.0,
        alpha: float = 2.5,
        max_batch: int = 10_000,
    ) -> "AggregateProfile":
        return cls(
            kind="storm",
            tunnels=tunnels,
            mean_interval_seconds=mean_interval_seconds,
            alpha=alpha,
            max_batch=max_batch,
        )


class AggregateWorkload:
    """Deterministic compound demand schedules for pair classes.

    Same stream discipline as :class:`TrafficWorkload` — one labeled fork
    per pair (``workload/agg/<a>--<b>``), so the schedule is a pure function
    of ``(seed, profile, pair name)`` — but each arrival carries a *count*
    of coincident rekeys instead of being one rekey.
    """

    def __init__(self, profile: AggregateProfile, rng: DeterministicRNG):
        self.profile = profile
        self._rng = rng
        # Truncated-zeta batch sampler: inverse CDF over k = 1..max_batch
        # with mass ∝ k^-alpha, resolved by bisect per draw.
        if profile.kind == "storm":
            weights: List[float] = []
            total = 0.0
            for k in range(1, profile.max_batch + 1):
                total += k ** -profile.alpha
                weights.append(total)
            self._batch_cdf = [w / total for w in weights]
        else:
            self._batch_cdf = []

    @staticmethod
    def pair_label(pair: Tuple[str, str]) -> str:
        return f"{pair[0]}--{pair[1]}"

    def _batch_size(self, stream: DeterministicRNG) -> int:
        u = stream.uniform(0.0, 1.0)
        return bisect.bisect_left(self._batch_cdf, u) + 1

    def demand_events(
        self, pair: Tuple[str, str], horizon_seconds: float
    ) -> List[Tuple[float, int]]:
        """Every ``(time, count)`` demand burst for one pair in ``[0, horizon)``."""
        _check_horizon(horizon_seconds)
        profile = self.profile
        stream = self._rng.fork_labeled(f"workload/agg/{self.pair_label(pair)}")
        mean = (
            profile.mean_interval_seconds / profile.tunnels
            if profile.kind == "poisson"
            else profile.mean_interval_seconds
        )
        events: List[Tuple[float, int]] = []
        now = 0.0
        while True:
            now += stream.exponential(mean)
            if now >= horizon_seconds:
                break
            count = 1 if profile.kind == "poisson" else self._batch_size(stream)
            events.append((now, count))
        return events

    def schedule(
        self, pairs: List[Tuple[str, str]], horizon_seconds: float
    ) -> List[Tuple[float, Tuple[str, str], int]]:
        """The merged ``(time, pair, count)`` schedule, ordered by time then
        pair name — the 3-tuple form :meth:`KeyManagementService.serve`
        expands into ``count`` coincident demands."""
        merged: List[Tuple[float, Tuple[str, str], int]] = []
        for pair in sorted(pairs):
            merged.extend(
                (t, pair, count)
                for t, count in self.demand_events(pair, horizon_seconds)
            )
        merged.sort(key=lambda item: (item[0], item[1]))
        return merged
