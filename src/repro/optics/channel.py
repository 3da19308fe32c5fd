"""The assembled quantum channel: Alice's optics -> fiber -> Bob's optics.

This module glues the source, fiber path, interferometer pair, detectors and
framing into a single object, :class:`QuantumChannel`, that turns a number of
trigger slots into the raw per-slot records both endpoints hold before any
protocol processing:

* Alice's record of each slot — which basis and value she modulated, and how
  many photons the attenuated laser actually emitted;
* Bob's record of each slot — whether his gated detectors clicked, which one,
  and which basis he had selected.

These records are exactly the "Raw Qframes (Symbols)" at the bottom of the
paper's protocol stack (Fig 9); the sifting stage consumes them next.

The channel also exposes the analytic rate model (expected click probability,
QBER, sifted rate) used by the benchmarks for parameter sweeps that would be
too slow to Monte-Carlo at every point, and an attack hook through which the
eavesdropping models in :mod:`repro.eve` can interpose themselves on the
photonic path, as Eve does in the paper's threat model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.optics.detector import (
    DetectorParameters,
    GatedAPDPair,
    apply_afterpulse,
    combine_clicks,
    signal_click_probability,
)
from repro.optics.entangled import EntangledPairSource, EntangledSourceParameters
from repro.optics.fiber import OpticalPath
from repro.optics.interferometer import (
    InterferometerParameters,
    MachZehnderPair,
    detector1_probability_map,
    phase_delta,
)
from repro.optics.source import SourceParameters, WeakCoherentSource, modulator_phase
from repro.optics.timing import BrightPulseFraming, FramingParameters, frame_layout
from repro.util.rng import DeterministicRNG


@dataclass
class ChannelParameters:
    """Everything needed to describe one weak-coherent QKD link.

    The defaults reproduce the paper's first link: mean photon number 0.1 at a
    1 MHz pulse rate through 10 km of telecom fiber, detectors cooled to
    -30 C, overall QBER in the 6-8 % band.
    """

    source: SourceParameters = field(default_factory=SourceParameters)
    path: OpticalPath = field(default_factory=lambda: OpticalPath.single_span(10.0))
    interferometer: InterferometerParameters = field(
        default_factory=InterferometerParameters
    )
    detectors: DetectorParameters = field(default_factory=DetectorParameters)
    framing: FramingParameters = field(default_factory=FramingParameters)
    #: When set, the link uses the SPDC entangled-pair source planned for the
    #: network's second link instead of the attenuated laser.  Only the slots
    #: whose idler photon was heralded carry a usable signal photon; the
    #: weak-coherent ``source`` field is ignored apart from its pulse rate.
    entangled_source: Optional[EntangledSourceParameters] = None

    @classmethod
    def paper_operating_point(cls) -> "ChannelParameters":
        """The link exactly as §4 of the paper describes it."""
        return cls()

    @classmethod
    def for_distance(cls, length_km: float, **overrides) -> "ChannelParameters":
        """The paper's link with the fiber spool replaced by ``length_km`` of fiber."""
        params = cls(path=OpticalPath.single_span(length_km))
        for key, value in overrides.items():
            setattr(params, key, value)
        return params

    @classmethod
    def entangled_link(
        cls, length_km: float = 10.0, source: Optional[EntangledSourceParameters] = None
    ) -> "ChannelParameters":
        """The planned second link: an SPDC entangled-pair source over fiber."""
        return cls(
            path=OpticalPath.single_span(length_km),
            entangled_source=source or EntangledSourceParameters(),
        )

    @property
    def is_entangled(self) -> bool:
        return self.entangled_source is not None

    @property
    def pulse_rate_hz(self) -> float:
        """Trigger rate of whichever source is in use."""
        if self.entangled_source is not None:
            return self.entangled_source.pulse_rate_hz
        return self.source.pulse_rate_hz

    @property
    def effective_mean_photon_number(self) -> float:
        """The mean signal-photon number per slot, whichever source is in use."""
        if self.entangled_source is not None:
            return self.entangled_source.mean_pairs_per_pulse
        return self.source.mean_photon_number


def _slot_array_property(name: str) -> property:
    """A per-slot array attribute that fails loudly after release.

    Reading any of the eight arrays once :meth:`FrameResult.release_slot_arrays`
    has run raises ``RuntimeError`` naming the release — instead of handing
    the caller ``None`` and letting it explode later as an opaque
    ``'NoneType' object is not subscriptable``.
    """
    private = "_" + name

    def _get(self):
        value = getattr(self, private)
        if value is None and self._summary is not None:
            raise RuntimeError(
                f"per-slot arrays were released; {name} is no longer available "
                "(only summary statistics survive release_slot_arrays())"
            )
        return value

    def _set(self, value):
        setattr(self, private, value)

    return property(
        _get, _set, doc=f"Per-slot array ``{name}`` (gone after release_slot_arrays())."
    )


class FrameResult:
    """The outcome of transmitting a batch of trigger slots.

    All per-slot data are parallel numpy arrays of length ``n_slots``, held
    in the narrowest dtype that fits (``uint8`` for bases/values, ``uint16``
    for photon counts, ``bool`` for click flags) — at the paper's 500k-slot
    batches the eight arrays cost ~4 MB instead of the ~30 MB the default
    ``int64`` dtypes would.  The object also carries the summary statistics the
    entropy-estimation stage needs (total transmitted, multi-photon count)
    and, if an attack was active, the attack's own bookkeeping.

    Once sifting has extracted the surviving bits the per-slot arrays are
    dead weight; :meth:`release_slot_arrays` caches the summary statistics
    and drops them, which is what the batch loop behind
    :meth:`repro.link.qkd_link.QKDLink.run_slots` does after each batch so a
    long run's memory stays flat.
    """

    def __init__(
        self,
        alice_basis: np.ndarray,
        alice_value: np.ndarray,
        alice_photons: np.ndarray,
        bob_basis: np.ndarray,
        bob_click: np.ndarray,
        bob_double: np.ndarray,
        bob_value: np.ndarray,
        frame_numbers: np.ndarray,
        attack_record: Optional[dict] = None,
    ):
        # Photon counts are Poisson with mu ~ 0.1; uint16 leaves five orders
        # of magnitude of headroom while still quartering the footprint.
        self.alice_basis = np.asarray(alice_basis).astype(np.uint8, copy=False)
        self.alice_value = np.asarray(alice_value).astype(np.uint8, copy=False)
        self.alice_photons = np.asarray(alice_photons).astype(np.uint16, copy=False)
        self.bob_basis = np.asarray(bob_basis).astype(np.uint8, copy=False)
        self.bob_click = np.asarray(bob_click).astype(bool, copy=False)
        self.bob_double = np.asarray(bob_double).astype(bool, copy=False)
        self.bob_value = np.asarray(bob_value).astype(np.uint8, copy=False)
        self.frame_numbers = np.asarray(frame_numbers).astype(np.int64, copy=False)
        self.attack_record = attack_record or {}
        self._summary: Optional[dict] = None

    # The eight arrays live behind guarded properties (see
    # _slot_array_property); the __init__ assignments above go through the
    # setters.  _summary must therefore be the *last* attribute initialised
    # without a guard — the getters consult it.
    alice_basis = _slot_array_property("alice_basis")
    alice_value = _slot_array_property("alice_value")
    alice_photons = _slot_array_property("alice_photons")
    bob_basis = _slot_array_property("bob_basis")
    bob_click = _slot_array_property("bob_click")
    bob_double = _slot_array_property("bob_double")
    bob_value = _slot_array_property("bob_value")
    frame_numbers = _slot_array_property("frame_numbers")

    # ------------------------------------------------------------------ #
    # Summary statistics
    # ------------------------------------------------------------------ #

    @property
    def released(self) -> bool:
        """Whether the per-slot arrays have been dropped (summaries remain)."""
        return self._summary is not None

    def release_slot_arrays(self) -> None:
        """Drop the eight per-slot arrays, keeping the summary statistics.

        Call after sifting has extracted the surviving bits: ``n_slots``,
        ``n_multi_photon``, ``n_detected``, ``n_sifted``, ``n_sifted_errors``
        and ``qber`` keep answering from a cache, while per-slot access
        (``sifted_indices`` and the array attributes) becomes unavailable.
        Idempotent.
        """
        if self._summary is not None:
            return
        # One pass over the masks: the usable/sifted masks feed three of the
        # five summaries, so computing each summary through its property
        # would rebuild them repeatedly — measurable at lane-engine frame
        # rates (hundreds of small frames per epoch).
        usable = self.bob_click & ~self.bob_double
        sifted = usable & (self.alice_basis == self.bob_basis)
        self._summary = {
            "n_slots": int(self.alice_basis.shape[0]),
            "n_multi_photon": int(np.count_nonzero(self.alice_photons >= 2)),
            "n_detected": int(np.count_nonzero(usable)),
            "n_sifted": int(np.count_nonzero(sifted)),
            "n_sifted_errors": int(
                np.count_nonzero(self.alice_value[sifted] != self.bob_value[sifted])
            ),
        }
        self.alice_basis = None
        self.alice_value = None
        self.alice_photons = None
        self.bob_basis = None
        self.bob_click = None
        self.bob_double = None
        self.bob_value = None
        self.frame_numbers = None

    @property
    def n_slots(self) -> int:
        """Number of trigger slots transmitted (the paper's ``n``)."""
        if self._summary is not None:
            return self._summary["n_slots"]
        return int(self.alice_basis.shape[0])

    @property
    def n_multi_photon(self) -> int:
        """Slots in which Alice's source emitted two or more photons."""
        if self._summary is not None:
            return self._summary["n_multi_photon"]
        return int(np.count_nonzero(self.alice_photons >= 2))

    @property
    def usable_clicks(self) -> np.ndarray:
        """Boolean mask of slots with exactly one detector firing."""
        return self.bob_click & ~self.bob_double

    @property
    def sifted_mask(self) -> np.ndarray:
        """Slots that survive sifting: a usable click and matching bases."""
        return self.usable_clicks & (self.alice_basis == self.bob_basis)

    @property
    def n_detected(self) -> int:
        """Number of usable clicks at Bob."""
        if self._summary is not None:
            return self._summary["n_detected"]
        return int(np.count_nonzero(self.usable_clicks))

    @property
    def n_sifted(self) -> int:
        """Number of sifted bits (the paper's ``b``)."""
        if self._summary is not None:
            return self._summary["n_sifted"]
        return int(np.count_nonzero(self.sifted_mask))

    @property
    def n_sifted_errors(self) -> int:
        """Number of error bits among the sifted bits (the paper's ``e``)."""
        if self._summary is not None:
            return self._summary["n_sifted_errors"]
        mask = self.sifted_mask
        return int(np.count_nonzero(self.alice_value[mask] != self.bob_value[mask]))

    @property
    def qber(self) -> float:
        """Empirical quantum bit error rate over the sifted bits."""
        sifted = self.n_sifted
        if sifted == 0:
            return 0.0
        return self.n_sifted_errors / sifted

    def sifted_indices(self) -> np.ndarray:
        """Slot indices (into this batch) of the sifted positions."""
        return np.nonzero(self.sifted_mask)[0]

    def __repr__(self) -> str:
        return (
            f"FrameResult(slots={self.n_slots}, detected={self.n_detected}, "
            f"sifted={self.n_sifted}, qber={self.qber:.3f})"
        )


class QuantumChannel:
    """One weak-coherent QKD link from Alice's laser to Bob's detectors."""

    def __init__(
        self,
        parameters: Optional[ChannelParameters] = None,
        rng: Optional[DeterministicRNG] = None,
    ):
        self.parameters = parameters or ChannelParameters()
        self.rng = rng or DeterministicRNG(0)
        self._numpy_rng = np.random.default_rng(self.rng.getrandbits(64))
        if self.parameters.is_entangled:
            self.source = EntangledPairSource(
                self.parameters.entangled_source, self.rng.fork("source")
            )
        else:
            self.source = WeakCoherentSource(self.parameters.source, self.rng.fork("source"))
        self.interferometer = MachZehnderPair(self.parameters.interferometer)
        self.detectors = GatedAPDPair(self.parameters.detectors)
        self.framing = BrightPulseFraming(self.parameters.framing, self.rng.fork("framing"))
        self.slots_transmitted = 0

    # ------------------------------------------------------------------ #
    # Monte-Carlo transmission
    # ------------------------------------------------------------------ #

    def transmit(self, n_slots: int, attack=None) -> FrameResult:
        """Transmit ``n_slots`` trigger slots and return both ends' records.

        ``attack`` may be any object implementing the
        :class:`repro.eve.base.QuantumChannelAttack` interface; when given, it
        is allowed to act on the photons in flight exactly as the paper's Eve
        can (measure them, block them, resend substitutes), and its
        bookkeeping is attached to the result as ``attack_record``.

        A single link is the width-1 case of :func:`transmit_lanes`.
        """
        return transmit_lanes([self], n_slots, [attack])[0]

    # ------------------------------------------------------------------ #
    # Analytic rate model
    # ------------------------------------------------------------------ #

    def signal_click_probability(self) -> float:
        """Probability per slot of a click caused by Alice's photons."""
        p = self.parameters
        mean_emitted = p.effective_mean_photon_number
        if p.is_entangled:
            mean_emitted *= p.entangled_source.heralding_efficiency
        mean_at_receiver = (
            mean_emitted * p.path.transmittance * self.framing.efficiency_factor
        )
        return self.detectors.signal_detection_probability(mean_at_receiver)

    def dark_click_probability(self) -> float:
        """Probability per slot of a click caused by dark counts alone."""
        return self.detectors.dark_click_probability()

    def click_probability(self) -> float:
        """Probability per slot that Bob registers any click."""
        p_signal = self.signal_click_probability()
        p_dark = self.dark_click_probability()
        return 1.0 - (1.0 - p_signal) * (1.0 - p_dark)

    def expected_qber(self) -> float:
        """Expected QBER from interferometer visibility and dark counts.

        Signal clicks land on the wrong detector with the interferometer's
        intrinsic error rate; dark clicks are uncorrelated with Alice's bit
        and are wrong half the time.  The expected QBER is the click-weighted
        mixture of the two.
        """
        p_signal = self.signal_click_probability()
        p_dark = self.dark_click_probability()
        p_any = self.click_probability()
        if p_any == 0:
            return 0.0
        e_optical = self.interferometer.parameters.intrinsic_error_rate
        # Weight by the contribution of each click type to the total.
        signal_weight = p_signal / p_any
        dark_weight = 1.0 - signal_weight
        return signal_weight * e_optical + dark_weight * 0.5

    def sifted_rate_per_slot(self) -> float:
        """Expected sifted bits per trigger slot (basis match halves the clicks)."""
        return 0.5 * self.click_probability()

    def sifted_rate_per_second(self) -> float:
        """Expected sifted key rate in bits per second at the source pulse rate."""
        return self.sifted_rate_per_slot() * self.parameters.pulse_rate_hz

    def expected_sifted_fraction(self) -> float:
        """Fraction of transmitted slots that become sifted bits (paper's 1-in-200 example)."""
        return self.sifted_rate_per_slot()

    def __repr__(self) -> str:
        return (
            f"QuantumChannel(mu={self.parameters.source.mean_photon_number}, "
            f"path={self.parameters.path.loss_db:.1f} dB, "
            f"expected_qber={self.expected_qber():.3f})"
        )


# ---------------------------------------------------------------------- #
# Monte-Carlo transmission (leading link axis)
# ---------------------------------------------------------------------- #


def transmit_lanes(channels, n_slots: int, attacks=None):
    """Transmit ``n_slots`` trigger slots on every channel at once.

    The one place the optics draw order is written down — source, fibre or
    attack, Bob's basis, phase noise, detector draw, gate thinning,
    click/dark/afterpulse/coin, frame gates — with a leading **link axis**:
    the per-slot physics (phase encoding, interference, click probabilities,
    click/double logic) runs once over ``(n_links, n_slots)`` arrays, with
    per-lane parameters (transmittance, visibility, per-photon detection
    probability, dark probability) broadcast down axis 0 as ``(n_links, 1)``
    columns.  Random draws are the one thing that is *not* batched across
    lanes: per draw site, a loop over lanes fills that site's
    ``(n_links, n_slots)`` array one row at a time from that lane's own numpy
    ``Generator``, so a lane's bitstream is a function of its channel alone
    and the pinned digests are lane-count- and lane-order-invariant.  A
    single link (:meth:`QuantumChannel.transmit`) is the ``(1, n_slots)``
    case.

    Lanes may differ in everything — source type, distance, loss,
    visibility, dark counts, attack — except ``slots_per_frame``: the
    slot-to-frame layout is computed once for the batch, and the caller
    (:class:`repro.lanes.LaneEngine`) guarantees the lanes share it.

    ``attacks`` is an optional per-lane sequence; ``None`` entries leave that
    lane untouched while attack lanes get the usual ``intercept`` call on
    row views of the batch.  Returns one :class:`FrameResult` per lane whose
    arrays are row views into the shared batch — releasing every frame (and
    dropping the frames) frees the batch storage, so peak memory scales with
    ``n_links * n_slots``; shrink ``slots_per_batch`` as lane counts grow.
    """
    if n_slots < 0:
        raise ValueError("slot count must be non-negative")
    channels = list(channels)
    n_lanes = len(channels)
    if attacks is None:
        attacks = [None] * n_lanes
    elif len(attacks) != n_lanes:
        raise ValueError("attacks must have one entry (or None) per lane")

    lane_rngs = [c._numpy_rng for c in channels]
    shape = (n_lanes, n_slots)

    # --- source: per-lane modulation draws, one batched phase encoding --- #
    basis2 = np.empty(shape, dtype=np.uint8)
    value2 = np.empty(shape, dtype=np.uint8)
    photons2 = np.empty(shape, dtype=np.int64)
    for i, channel in enumerate(channels):
        channel.source.emit_into(basis2[i], value2[i], photons2[i])
    phase2 = modulator_phase(basis2, value2)

    # --- fiber / attack: per-lane transmittance --- #
    photons_rx2 = np.empty(shape, dtype=np.int64)
    attack_records = [{} for _ in range(n_lanes)]
    for i, channel in enumerate(channels):
        transmittance = channel.parameters.path.transmittance
        if attacks[i] is not None:
            emission = {
                "basis": basis2[i],
                "value": value2[i],
                "phase": phase2[i],
                "photons": photons2[i],
            }
            interception = attacks[i].intercept(emission, transmittance, lane_rngs[i])
            photons_rx2[i] = interception["photons_at_receiver"]
            phase2[i] = interception["phase_at_receiver"]
            attack_records[i] = interception.get("record", {})
        else:
            photons_rx2[i] = lane_rngs[i].binomial(photons2[i], transmittance)

    # --- Bob's basis choice --- #
    bob_basis2 = np.empty(shape, dtype=np.uint8)
    for i in range(n_lanes):
        bob_basis2[i] = lane_rngs[i].integers(0, 2, size=n_slots, dtype=np.uint8)

    # --- interferometer: batched probability pipeline, per-lane draws --- #
    scratch = phase_delta(phase2, bob_basis2)
    del phase2
    for i, channel in enumerate(channels):
        noise = channel.parameters.interferometer.phase_noise_rad
        if noise > 0:
            scratch[i] += lane_rngs[i].normal(0.0, noise, size=n_slots)
    visibility_col = np.array(
        [c.parameters.interferometer.visibility for c in channels]
    )[:, None]
    detector1_probability_map(scratch, visibility_col)
    draws2 = np.empty(shape, dtype=np.float64)
    for i in range(n_lanes):
        draws2[i] = lane_rngs[i].random(n_slots)
    signal_detector2 = (draws2 < scratch).view(np.uint8)
    del draws2, scratch

    # --- gate misalignment: per-lane thinning --- #
    for i, channel in enumerate(channels):
        efficiency_factor = channel.framing.efficiency_factor
        if efficiency_factor < 1.0:
            photons_rx2[i] = lane_rngs[i].binomial(photons_rx2[i], efficiency_factor)

    # --- detectors: batched click probability, per-lane draws --- #
    per_photon_col = np.array(
        [c.detectors.per_photon_detection_probability for c in channels]
    )[:, None]
    click_prob2 = signal_click_probability(photons_rx2, per_photon_col)
    del photons_rx2
    signal_click2 = np.empty(shape, dtype=bool)
    dark0_2 = np.empty(shape, dtype=bool)
    dark1_2 = np.empty(shape, dtype=bool)
    coin2 = np.empty(shape, dtype=np.uint8)
    for i, channel in enumerate(channels):
        rng = lane_rngs[i]
        dark_probability = channel.parameters.detectors.dark_count_probability
        signal_click2[i] = rng.random(n_slots) < click_prob2[i]
        dark0_2[i] = rng.random(n_slots) < dark_probability
        dark1_2[i] = rng.random(n_slots) < dark_probability
        afterpulse = channel.parameters.detectors.afterpulse_probability
        if afterpulse > 0:
            apply_afterpulse(signal_click2[i], afterpulse, rng, dark0_2[i], dark1_2[i])
        coin2[i] = rng.integers(0, 2, size=n_slots, dtype=np.uint8)
    del click_prob2
    clicks = combine_clicks(signal_click2, signal_detector2, dark0_2, dark1_2, coin2)
    del signal_click2, dark0_2, dark1_2, coin2

    # --- framing: shared layout, per-lane bright-pulse draws --- #
    per_frame = channels[0].parameters.framing.slots_per_frame
    frame_index, _slot_in_frame = frame_layout(per_frame, n_slots)
    n_frames = -(-n_slots // per_frame)
    click2 = clicks["click"]
    double2 = clicks["double"]
    frame_starts = []
    for i, channel in enumerate(channels):
        frame_ok = channel.framing.sample_frame_gates(n_frames)
        frame_starts.append(channel.framing.claim_frame_numbers(n_frames))
        if n_slots and not frame_ok.all():
            # Lost frames on this lane only: mask its rows in place.
            received = frame_ok[frame_index]
            click2[i] &= received
            double2[i] &= received

    if len(set(frame_starts)) == 1:
        # Lanes created and stepped lock-step (the common case): every lane's
        # frame numbering is identical, so one array serves all results.
        shared_numbers = frame_index + frame_starts[0]
        lane_frame_numbers = [shared_numbers] * n_lanes
    else:
        lane_frame_numbers = [frame_index + start for start in frame_starts]

    results = []
    for i, channel in enumerate(channels):
        channel.slots_transmitted += n_slots
        results.append(
            FrameResult(
                alice_basis=basis2[i],
                alice_value=value2[i],
                alice_photons=photons2[i],
                bob_basis=bob_basis2[i],
                bob_click=click2[i],
                bob_double=double2[i],
                bob_value=clicks["value"][i],
                frame_numbers=lane_frame_numbers[i],
                attack_record=attack_records[i],
            )
        )
    return results
