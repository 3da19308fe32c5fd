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

The channel also answers the analytic questions (expected QBER, sifted rate)
from the closed-form model of :mod:`repro.optics.model`, which the benchmarks
sweep where Monte-Carlo at every point would be too slow, and has an attack
hook through which the eavesdropping models in :mod:`repro.eve` can interpose
themselves on the photonic path, as Eve does in the paper's threat model.
"""

from __future__ import annotations

from collections import deque
from concurrent import futures
from concurrent.futures import Executor
from typing import Optional

import numpy as np

from repro.optics import model
from repro.optics.detector import apply_afterpulse, combine_clicks, signal_click_probability
from repro.optics.draws import coin_flips, uniforms_at, uniforms_below
from repro.optics.entangled import EntangledPairSource
from repro.optics.interferometer import detector1_probability_map, phase_delta
from repro.optics.model import ChannelParameters
from repro.optics.source import WeakCoherentSource, modulator_phase
from repro.optics.timing import BrightPulseFraming, frame_layout
from repro.util.rng import DeterministicRNG


class FrameResult:
    """The outcome of transmitting a batch of trigger slots.

    All per-slot data are parallel numpy arrays of length ``n_slots``, held
    in the narrowest dtype that fits (``uint8`` for bases/values, ``uint16``
    for photon counts, ``bool`` for click flags) — at the paper's 500k-slot
    batches the seven stored arrays cost ~3.5 MB instead of the ~30 MB the
    default ``int64`` dtypes would.  The eighth, ``frame_numbers`` (the int64
    Qframe number of every slot), is **lazy**: a frame holds only the first
    frame number and the Qframe size and builds the array on first access, so
    the slot→key loop — which never reads it — never pays for it.  If an
    attack was active the frame also carries the attack's own bookkeeping.

    A frame is a plain value that owns its arrays (one link's batch, never a
    view into a wider one).  It is read once, by sifting; the slot→key loop
    (:func:`repro.lanes.engine.run_lanes`) drops its reference as soon as
    sifting returns, so a run holds one batch of one link's per-slot arrays
    at a time, however many links it carries (and the next batch's three
    source arrays, drawn ahead).
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
        first_frame_number: int,
        slots_per_frame: int,
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
        self._first_frame_number = first_frame_number
        self._slots_per_frame = slots_per_frame
        self._frame_numbers: Optional[np.ndarray] = None
        self.attack_record = attack_record or {}

    @property
    def frame_numbers(self) -> np.ndarray:
        """Per-slot Qframe numbers, built on first access."""
        if self._frame_numbers is None:
            frame_index = frame_layout(self._slots_per_frame, self.n_slots)
            frame_index += self._first_frame_number
            self._frame_numbers = frame_index
        return self._frame_numbers

    # ------------------------------------------------------------------ #
    # Summary statistics
    # ------------------------------------------------------------------ #

    @property
    def n_slots(self) -> int:
        """Number of trigger slots transmitted (the paper's ``n``)."""
        return int(self.alice_basis.shape[0])

    @property
    def usable_clicks(self) -> np.ndarray:
        """Boolean mask of slots with exactly one detector firing."""
        return self.bob_click & ~self.bob_double

    @property
    def sifted_mask(self) -> np.ndarray:
        """Slots that survive sifting: a usable click and matching bases."""
        return self.usable_clicks & (self.alice_basis == self.bob_basis)

    @property
    def n_sifted(self) -> int:
        """Number of sifted bits (the paper's ``b``)."""
        return int(np.count_nonzero(self.sifted_mask))

    def __repr__(self) -> str:
        return (
            f"FrameResult(slots={self.n_slots}, sifted={self.n_sifted})"
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
        self.framing = BrightPulseFraming(self.parameters.framing, self.rng.fork("framing"))
        self.slots_transmitted = 0
        #: Source batches drawn ahead of :meth:`transmit` (:meth:`emit_ahead`),
        #: oldest first: ``(n_slots, arrays, before, future)``.
        self._emissions = deque()

    # ------------------------------------------------------------------ #
    # The source, one batch ahead
    # ------------------------------------------------------------------ #

    def emit_ahead(self, n_slots: int, worker: Executor) -> None:
        """Start drawing the source's next ``n_slots`` pulses on ``worker``.

        The three per-slot arrays are allocated here, on the calling thread,
        and the worker runs only ``source.emit_into`` on them.  The source
        draws from its own generator, which nothing else reads, so the batch
        is the one :meth:`transmit` would have drawn itself; the next
        ``transmit`` takes it (a batch of another size is an error there).
        Emissions queue in call order, and ``worker`` must run its tasks in
        submission order (one thread), since each continues the last one's
        stream.
        """
        arrays = _source_arrays(n_slots)
        before = []
        future = worker.submit(self._emit, arrays, before)
        self._emissions.append((n_slots, arrays, before, future))

    def _emit(self, arrays, before):
        """Worker side of :meth:`emit_ahead`: notes in ``before`` where the
        source stood (for :meth:`discard_emissions`), then draws the batch."""
        source = self.source
        before.append((source._numpy_rng.bit_generator.state, source.pulses_emitted))
        return source.emit_into(*arrays)

    def discard_emissions(self) -> None:
        """Drop every batch drawn ahead and not transmitted, and put the
        source back where it stood before the oldest of them, so the next
        batch is drawn as if none had been.  Waits for the draws still
        running; a draw that raised is dropped with its batch, error and all
        (nothing reads that batch, and the source is put back before it)."""
        emissions, self._emissions = self._emissions, deque()
        if not emissions:
            return
        futures.wait([future for *_, future in emissions])
        oldest_before = emissions[0][2]
        if oldest_before:
            (state, pulses_emitted), = oldest_before
            self.source._numpy_rng.bit_generator.state = state
            self.source.pulses_emitted = pulses_emitted

    def _source_batch(self, n_slots: int):
        """This batch's ``basis``, ``value``, ``photons`` and non-empty slots:
        the oldest batch drawn ahead, or drawn here if none is."""
        if not self._emissions:
            arrays = _source_arrays(n_slots)
            return (*arrays, self.source.emit_into(*arrays))
        pending_slots, arrays, _, future = self._emissions[0]
        if pending_slots != n_slots:
            self.discard_emissions()
            raise ValueError(
                f"the source's next batch was drawn for {pending_slots} slots, "
                f"not {n_slots}; it is discarded"
            )
        self._emissions.popleft()
        return (*arrays, future.result())

    # ------------------------------------------------------------------ #
    # Monte-Carlo transmission
    # ------------------------------------------------------------------ #

    def transmit(self, n_slots: int, attack=None) -> FrameResult:
        """Transmit ``n_slots`` trigger slots and return both ends' records.

        ``attack`` may be any object implementing the
        :class:`repro.eve.base.QuantumChannelAttack` interface; when given, it
        is allowed to act on the photons in flight exactly as the paper's Eve
        can (measure them, block them, resend substitutes), and its
        bookkeeping is attached to the result as ``attack_record`` — the
        attack gets dense per-slot arrays.

        **Dense draws, sparse physics.**  At the paper's operating point one
        gate in ~300 registers anything, so the two halves of a slot's life
        are kept apart:

        * The *draws* are dense.  Every draw of every slot comes from this
          channel's own generators, in the one order written down here —
          source (basis, value, photon number), fibre loss or the attack's
          ``intercept``, Bob's basis, phase noise, detector draw, gate
          thinning, click/dark0/dark1, afterpulse, double-click coin, frame
          gates — each over the whole batch, whether or not the slot can
          click.  A link's bitstream is therefore a function of its
          channel alone.  The source's three draws are the batch
          :meth:`emit_ahead` drew on a worker when there is one, else drawn
          here; the source hands on its non-empty slots with them, so nothing
          scans the photon array for them.  Several kinds of draw are taken
          more cheaply than by the ``Generator`` call that defines them, each
          with the same values from the same stream positions and each behind
          a numpy canary in ``tests/test_optics_differential.py``
          (:mod:`repro.optics.draws`, whose kernels draw in chunks so that
          none holds a batch-sized temporary): the 0/1 draws (both bases,
          Alice's value, the coin, the afterpulse detector) are the top bit
          of ``Generator.bytes``; the dark counts are compared chunk by chunk;
          the signal doubles are kept only where photons arrived; and the
          two photon-count binomials are drawn on the non-zero counts only
          (numpy's ``binomial(0, p)`` is 0 and consumes nothing).  The
          detector doubles are one dense draw, kept whole only until the
          fired slots are known.
        * The *physics between the draws* runs only where it can matter.  The
          received photons are carried as a sparse ``(slots, counts)`` pair,
          the click probability is evaluated only on them (~5 % of slots),
          and phase encoding, interference, the detector-1 probability and
          the click/double logic run on the **fired** slots — those where a
          signal click or a dark count happened on either detector (~0.3 %)
          — then scatter into zero-initialised ``double``/``value`` arrays.
          Every operation is elementwise, so the fired slots get the very
          floats a dense evaluation would give them and the rest get the
          zeros it would.
        """
        if n_slots < 0:
            raise ValueError("slot count must be non-negative")
        rng = self._numpy_rng
        parameters = self.parameters

        # --- source: the three arrays, and the non-empty slots --- #
        basis, value, photons, rx_slots = self._source_batch(n_slots)

        # --- fibre / attack: the slots photons reach Bob on, and how many --- #
        transmittance = parameters.path.transmittance
        phase_at_receiver = None
        attack_record = {}
        if attack is None:
            rx_counts = rng.binomial(photons[rx_slots], transmittance)
        else:
            emission = {
                "basis": basis,
                "value": value,
                "phase": modulator_phase(basis, value),
                "photons": photons.astype(np.int64),
            }
            interception = attack.intercept(emission, transmittance, rng)
            attack_record = interception.get("record", {})
            phase_at_receiver = interception["phase_at_receiver"]
            rx_slots = np.arange(n_slots)
            rx_counts = np.asarray(interception["photons_at_receiver"], dtype=np.int64)
        arrived = rx_counts.nonzero()[0]
        rx_slots = rx_slots[arrived]
        rx_counts = rx_counts[arrived]

        # --- Bob's basis choice, phase noise, detector draw --- #
        bob_basis = coin_flips(rng, n_slots)
        noise_rad = parameters.interferometer.phase_noise_rad
        noise = rng.normal(0.0, noise_rad, size=n_slots) if noise_rad > 0 else None
        detector_draws = rng.random(n_slots)

        # --- gate misalignment: thinning --- #
        efficiency_factor = parameters.framing.efficiency_factor
        if efficiency_factor < 1.0:
            rx_counts = rng.binomial(rx_counts, efficiency_factor)

        # --- detectors: dense draws, signal compare where photons arrived --- #
        signal = np.zeros(n_slots, dtype=bool)
        signal[rx_slots] = uniforms_at(rng, n_slots, rx_slots) < signal_click_probability(
            rx_counts, parameters.detectors.per_photon_detection_probability
        )
        dark_probability = parameters.detectors.dark_count_probability
        dark0 = uniforms_below(rng, n_slots, dark_probability)
        dark1 = uniforms_below(rng, n_slots, dark_probability)
        afterpulse = parameters.detectors.afterpulse_probability
        if afterpulse > 0:
            apply_afterpulse(signal, afterpulse, rng, dark0, dark1)
        coin = coin_flips(rng, n_slots)

        # A detector fires exactly where a signal click or a dark count
        # happened, so the click array is known before any interference; the
        # dense masks are read only there from now on.
        click = np.logical_or(dark0, dark1)
        click |= signal
        fired = click.nonzero()[0]
        signal, dark0, dark1, coin = signal[fired], dark0[fired], dark1[fired], coin[fired]
        detector_draws = detector_draws[fired]

        # --- framing: bright-pulse draws --- #
        per_frame = parameters.framing.slots_per_frame
        n_frames = -(-n_slots // per_frame)
        frame_ok = self.framing.sample_frame_gates(n_frames)
        first_frame_number = self.framing.claim_frame_numbers(n_frames)

        # --- interference and click logic: fired slots only --- #
        if phase_at_receiver is None:
            alice_phase = modulator_phase(basis[fired], value[fired])
        else:
            alice_phase = np.asarray(phase_at_receiver, dtype=np.float64)[fired]
        scratch = phase_delta(alice_phase, bob_basis[fired])
        if noise is not None:
            scratch += noise[fired]
        detector1_probability_map(scratch, parameters.interferometer.visibility)
        signal_detector = (detector_draws < scratch).view(np.uint8)
        clicks = combine_clicks(signal, signal_detector, dark0, dark1, coin)
        if not frame_ok.all():
            # Lost frames: nothing in them was gated.
            received = frame_ok[fired // per_frame]
            click[fired[~received]] = False
            clicks["double"] &= received
        double = np.zeros(n_slots, dtype=bool)
        double[fired] = clicks["double"]
        bob_value = np.zeros(n_slots, dtype=np.uint8)
        bob_value[fired] = clicks["value"]

        self.slots_transmitted += n_slots
        return FrameResult(
            alice_basis=basis,
            alice_value=value,
            alice_photons=photons,
            bob_basis=bob_basis,
            bob_click=click,
            bob_double=double,
            bob_value=bob_value,
            first_frame_number=first_frame_number,
            slots_per_frame=per_frame,
            attack_record=attack_record,
        )

    # ------------------------------------------------------------------ #
    # Analytic rate model (:mod:`repro.optics.model`)
    # ------------------------------------------------------------------ #

    def expected_qber(self) -> float:
        """Expected QBER from interferometer visibility and dark counts."""
        return model.expected_qber(self.parameters)

    def __repr__(self) -> str:
        return (
            f"QuantumChannel(mu={self.parameters.source.mean_photon_number}, "
            f"path={self.parameters.path.loss_db:.1f} dB, "
            f"expected_qber={self.expected_qber():.3f})"
        )


def _source_arrays(n_slots: int):
    """One batch's ``basis``, ``value`` and ``photons`` arrays, unfilled."""
    return (
        np.empty(n_slots, dtype=np.uint8),
        np.empty(n_slots, dtype=np.uint8),
        np.empty(n_slots, dtype=np.uint16),
    )


def transmit_lanes(channels, n_slots: int, attacks=None):
    """Transmit ``n_slots`` trigger slots on each channel in turn.

    One :meth:`QuantumChannel.transmit` per channel, in order; ``attacks`` is
    an optional per-channel sequence whose ``None`` entries leave that
    channel untouched.  Every channel draws from its own generators, so a
    channel's frame is the same whichever channels stand beside it.  Returns
    one :class:`FrameResult` per channel, each owning its arrays; no
    channels at all is an empty result.
    """
    channels = list(channels)
    if attacks is None:
        attacks = [None] * len(channels)
    elif len(attacks) != len(channels):
        raise ValueError("attacks must have one entry (or None) per channel")
    return [channel.transmit(n_slots, attack) for channel, attack in zip(channels, attacks)]
