"""The assembled point-to-point QKD link.

A :class:`QKDLink` is what the paper calls "a complete quantum cryptographic
link, and a QKD protocol engine and working suite of QKD protocols": the
weak-coherent channel of :mod:`repro.optics` feeding the protocol pipeline of
:mod:`repro.core`, producing a steady stream of distilled key into both
endpoints' key pools.  The VPN gateways of :mod:`repro.ipsec` and the relay
networks of :mod:`repro.network` are built on top of this object.

Two ways of using it:

* :meth:`QKDLink.run_slots` / :meth:`run_seconds` — Monte-Carlo the physical
  layer and run the real protocols, which is what the examples and the
  integration tests do;
* :meth:`QKDLink.estimated_secret_key_rate` — the analytic rate model, used
  by the distance-sweep and network benchmarks where simulating every
  configuration at full fidelity would take too long.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.engine import (
    DistillationOutcome,
    EngineParameters,
    EngineStatistics,
    QKDProtocolEngine,
)
from repro.mathkit.entropy import binary_entropy
from repro.optics.channel import ChannelParameters, QuantumChannel
from repro.util.rng import DeterministicRNG
from repro.util.units import multi_photon_probability, non_empty_pulse_probability


@dataclass
class LinkParameters:
    """Configuration of one QKD link (channel plus protocol engine)."""

    channel: ChannelParameters = field(default_factory=ChannelParameters)
    engine: EngineParameters = field(default_factory=EngineParameters)
    #: Slots simulated per protocol batch; one batch is handed to the engine
    #: at a time, mirroring the real system's frame-by-frame operation.
    slots_per_batch: int = 500_000

    def __post_init__(self) -> None:
        batch = self.slots_per_batch
        if isinstance(batch, bool) or not isinstance(batch, int) or batch < 1:
            raise ValueError(f"slots_per_batch must be a positive integer, got {batch!r}")

    @classmethod
    def paper_link(cls) -> "LinkParameters":
        """The paper's first link at its published operating point."""
        return cls()

    @classmethod
    def for_distance(cls, length_km: float) -> "LinkParameters":
        return cls(channel=ChannelParameters.for_distance(length_km))

    @classmethod
    def entangled_link(cls, length_km: float = 10.0) -> "LinkParameters":
        """The planned second DARPA link, based on an SPDC entangled-pair source."""
        return cls(channel=ChannelParameters.entangled_link(length_km))


@dataclass
class LinkReport:
    """Summary of one link run.

    ``statistics`` is what the engine counted during this run alone (the
    engine's own statistics are cumulative over every run of the link), and
    the report reads through to it: ``report.sifted_bits`` is
    ``report.statistics.sifted_bits``, and ``report.mean_qber`` the QBER of
    this run's sifted bits.
    """

    slots_transmitted: int
    elapsed_channel_seconds: float
    statistics: EngineStatistics
    outcomes: List[DistillationOutcome] = field(default_factory=list)

    def __getattr__(self, name: str):
        # Only reached for a name the report does not hold itself.
        if name.startswith("__"):
            raise AttributeError(name)
        return getattr(self.statistics, name)

    @property
    def sifted_rate_bps(self) -> float:
        if self.elapsed_channel_seconds == 0:
            return 0.0
        return self.sifted_bits / self.elapsed_channel_seconds

    @property
    def distilled_rate_bps(self) -> float:
        if self.elapsed_channel_seconds == 0:
            return 0.0
        return self.distilled_bits / self.elapsed_channel_seconds

    @property
    def secret_fraction(self) -> float:
        if self.sifted_bits == 0:
            return 0.0
        return self.distilled_bits / self.sifted_bits


class QKDLink:
    """One Alice/Bob pair joined by a quantum channel and the QKD protocols."""

    def __init__(
        self,
        parameters: Optional[LinkParameters] = None,
        rng: Optional[DeterministicRNG] = None,
        name: str = "link",
    ):
        self.parameters = parameters or LinkParameters()
        self.rng = rng or DeterministicRNG(0)
        self.name = name
        self.channel = QuantumChannel(self.parameters.channel, self.rng.fork("channel"))
        self.engine = QKDProtocolEngine(self.parameters.engine, self.rng.fork("engine"))
        self.attack = None

    # ------------------------------------------------------------------ #
    # Attack attachment
    # ------------------------------------------------------------------ #

    def attach_attack(self, attack) -> None:
        """Interpose an eavesdropping attack on the photonic path."""
        self.attack = attack

    def detach_attack(self) -> None:
        self.attack = None

    # ------------------------------------------------------------------ #
    # Monte-Carlo operation
    # ------------------------------------------------------------------ #

    def run_slots(self, n_slots: int, flush: bool = True) -> LinkReport:
        """Transmit ``n_slots`` trigger slots and run the protocols over them.

        One lane of the slot→key loop, :func:`repro.lanes.engine.run_lane`.
        """
        from repro.lanes.engine import run_lane

        return run_lane(self, n_slots, flush)

    def build_report(
        self, n_slots: int, outcomes: List[DistillationOutcome], started: EngineStatistics
    ) -> LinkReport:
        """Assemble the report of one run: what the engine counted since
        ``started``, a copy of its statistics taken when the run began."""
        return LinkReport(
            slots_transmitted=n_slots,
            elapsed_channel_seconds=n_slots / self.parameters.channel.pulse_rate_hz,
            statistics=self.engine.statistics.since(started),
            outcomes=outcomes,
        )

    def run_seconds(self, seconds: float, flush: bool = True) -> LinkReport:
        """Run the link for a given amount of channel (wall-clock) time."""
        if seconds < 0:
            raise ValueError("duration must be non-negative")
        n_slots = int(seconds * self.parameters.channel.pulse_rate_hz)
        return self.run_slots(n_slots, flush=flush)

    # ------------------------------------------------------------------ #
    # Analytic rate model
    # ------------------------------------------------------------------ #

    def expected_qber(self) -> float:
        return self.channel.expected_qber()

    def sifted_rate_bps(self) -> float:
        return self.channel.sifted_rate_per_second()

    def estimated_secret_fraction(
        self,
        cascade_efficiency: float = 1.35,
        defense=None,
    ) -> float:
        """Analytic secret bits per sifted bit at this link's operating point.

        ``1 - f_EC * h(e) - t(e) - multi-photon fraction`` clamped at zero:
        ``f_EC`` is the reconciliation inefficiency relative to the Shannon
        limit ``h(e)`` (about 1.35 for this Cascade variant), ``t(e)`` is the
        per-bit defense function, and the multi-photon fraction covers
        transparent leakage.  The confidence margin vanishes in the
        asymptotic (large-block) limit, so this is an upper estimate of what
        the finite-block engine achieves.

        ``defense`` may be ``None`` (the engine's default Bennett defense), a
        defense object exposing ``per_bit_defense(e)``, a callable evaluated
        at the expected QBER, or a plain number used directly as the per-bit
        defense value ``t(e)``.  Anything else raises ``TypeError`` — it
        used to fall through silently to Bennett, which made typos in
        benchmark sweeps invisible.
        """
        e = self.expected_qber()
        if defense is None:
            defense_per_bit = None  # secret_fraction's default: Bennett, as the engine
        elif hasattr(defense, "per_bit_defense"):
            defense_per_bit = float(defense.per_bit_defense(e))
        elif isinstance(defense, (int, float)) and not isinstance(defense, bool):
            defense_per_bit = float(defense)
        elif callable(defense):
            defense_per_bit = float(defense(e))
        else:
            raise TypeError(
                "defense must be None, a number, a callable of the error "
                "rate, or an object with per_bit_defense(error_rate); got "
                f"{type(defense).__name__}"
            )
        mu = self.parameters.channel.effective_mean_photon_number
        return secret_fraction(e, mu, cascade_efficiency, defense_per_bit)

    def estimated_secret_key_rate(self, **kwargs) -> float:
        """Analytic distilled key rate in bits per second."""
        return self.sifted_rate_bps() * self.estimated_secret_fraction(**kwargs)

    def __repr__(self) -> str:
        return (
            f"QKDLink({self.name}: {self.parameters.channel.path.length_km:g} km, "
            f"expected_qber={self.expected_qber():.3f})"
        )


def secret_fraction(
    error_rate: float,
    mean_photon_number: float,
    cascade_efficiency: float = 1.35,
    defense_per_bit: Optional[float] = None,
) -> float:
    """``1 - f_EC * h(e) - t(e) - multi-photon fraction``, clamped at zero.

    The analytic model behind :meth:`QKDLink.estimated_secret_fraction`
    and the replenishment scheduler's attacked-link yield.  ``t(e)``
    defaults to the engine's Bennett defense, the linear
    ``2 * sqrt(2) * e`` bound.
    """
    if error_rate >= 0.5:
        return 0.0
    if defense_per_bit is None:
        defense_per_bit = min(2.0 * math.sqrt(2.0) * error_rate, 1.0)
    multi_fraction = multi_photon_probability(mean_photon_number) / max(
        non_empty_pulse_probability(mean_photon_number), 1e-12
    )
    fraction = (
        1.0 - cascade_efficiency * binary_entropy(error_rate) - defense_per_bit - multi_fraction
    )
    return max(fraction, 0.0)
