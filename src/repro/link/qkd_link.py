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
* :meth:`QKDLink.estimated_secret_key_rate` — the closed-form rate model of
  :mod:`repro.optics.model` at this link's parameters, used by the
  distance-sweep benchmarks where simulating every configuration at full
  fidelity would take too long.  The network prices its links with the
  model directly and builds no link to do so.
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
from repro.optics import model
from repro.optics.channel import QuantumChannel
from repro.optics.model import ChannelParameters
from repro.util.rng import DeterministicRNG


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
    def entangled_link(cls, length_km: float) -> "LinkParameters":
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

    def run_seconds(self, seconds: float) -> LinkReport:
        """Run the link for a given amount of channel (wall-clock) time."""
        if not (math.isfinite(seconds) and seconds >= 0):
            raise ValueError(f"duration must be finite and non-negative, got {seconds!r}")
        n_slots = int(seconds * self.parameters.channel.pulse_rate_hz)
        return self.run_slots(n_slots)

    # ------------------------------------------------------------------ #
    # Analytic rate model (:mod:`repro.optics.model`)
    # ------------------------------------------------------------------ #

    def expected_qber(self) -> float:
        return model.expected_qber(self.parameters.channel)

    def sifted_rate_bps(self) -> float:
        return model.sifted_rate_per_second(self.parameters.channel)

    def estimated_secret_fraction(self) -> float:
        """Analytic secret bits per sifted bit at this link's operating point:
        :func:`repro.optics.model.secret_fraction` at the expected QBER, with
        the engine's Bennett defense and reconciliation efficiency."""
        mu = self.parameters.channel.effective_mean_photon_number
        return model.secret_fraction(self.expected_qber(), mu)

    def estimated_secret_key_rate(self) -> float:
        """Analytic distilled key rate in bits per second:
        :func:`repro.optics.model.secret_key_rate` of this link."""
        return self.sifted_rate_bps() * self.estimated_secret_fraction()

    def __repr__(self) -> str:
        return (
            f"QKDLink({self.name}: {self.parameters.channel.path.length_km:g} km, "
            f"expected_qber={self.expected_qber():.3f})"
        )

