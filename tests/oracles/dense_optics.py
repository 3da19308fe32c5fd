"""Dense reference for :func:`repro.optics.channel.transmit_lanes`.

The body ``transmit_lanes`` had before it went sparse, kept nearly verbatim:
every draw *and* every piece of per-slot physics evaluated on all
``(n_links, n_slots)`` slots, whether or not anything can click there.
Obvious and slow, imported by no production code;
``tests/test_optics_differential.py`` holds the shipped implementation to it
array for array and generator state for generator state.

Two edits.  It returns plain dicts of the eight per-slot arrays plus
``attack_record`` (with ``frame_numbers`` materialised) instead of
:class:`~repro.optics.channel.FrameResult` objects, so it does not depend on
that class's constructor.  And it draws the source rows itself
(:func:`dense_emit`) with the plain ``Generator.integers`` /
``Generator.poisson`` calls on the source's own generator, so a bug in
``emit_into`` or in the draw kernels of :mod:`repro.optics.draws` shows as a
difference instead of cancelling out.  (The attacks and ``apply_afterpulse``
are still production code on both sides; ``tests/test_optics_differential.py``
holds the kernels they use to numpy directly.)  The click probability is
taken row by row, since the shipped ``signal_click_probability`` is 1-D
only; each row's table is the same ``np.power`` floats either way.

:class:`PassiveChannel` is the attack interface's identity: photons suffer
the path loss and nothing else, so a run with it takes the attacked branch
of ``transmit`` while matching an unattacked run's statistics.
"""

import numpy as np

from repro.eve.base import QuantumChannelAttack
from repro.optics.detector import apply_afterpulse, combine_clicks, signal_click_probability
from repro.optics.interferometer import detector1_probability_map, phase_delta
from repro.optics.source import modulator_phase
from repro.optics.timing import frame_layout


def dense_emit(source, n_slots: int):
    """One source's ``(basis, value, photons)`` rows, every draw a plain numpy call.

    Weak-coherent: basis, value, photon number.  Entangled: pairs, herald,
    basis, value; a slot carries its pairs only if it was heralded.
    """
    rng = source._numpy_rng
    if hasattr(source.parameters, "mean_pairs_per_pulse"):
        pairs = rng.poisson(source.parameters.mean_pairs_per_pulse, size=n_slots)
        heralded = (pairs > 0) & (rng.random(n_slots) < source.parameters.heralding_efficiency)
        basis = rng.integers(0, 2, size=n_slots, dtype=np.uint8)
        value = rng.integers(0, 2, size=n_slots, dtype=np.uint8)
        photons = np.where(heralded, pairs, 0)
    else:
        basis = rng.integers(0, 2, size=n_slots, dtype=np.uint8)
        value = rng.integers(0, 2, size=n_slots, dtype=np.uint8)
        photons = rng.poisson(source.parameters.mean_photon_number, size=n_slots)
    source.pulses_emitted += n_slots
    return basis, value, photons


def dense_transmit_lanes(channels, n_slots: int, attacks=None):
    """Transmit ``n_slots`` on every channel, all physics on every slot."""
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
        basis2[i], value2[i], photons2[i] = dense_emit(channel.source, n_slots)
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

    # --- detectors: per-lane click probability, per-lane draws --- #
    click_prob2 = np.empty(shape, dtype=np.float64)
    for i, channel in enumerate(channels):
        click_prob2[i] = signal_click_probability(
            photons_rx2[i], channel.detectors.per_photon_detection_probability
        )
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
    frame_index = frame_layout(per_frame, n_slots)
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
            {
                "alice_basis": basis2[i],
                "alice_value": value2[i],
                "alice_photons": photons2[i],
                "bob_basis": bob_basis2[i],
                "bob_click": click2[i],
                "bob_double": double2[i],
                "bob_value": clicks["value"][i],
                "frame_numbers": lane_frame_numbers[i],
                "attack_record": attack_records[i],
            }
        )
    return results


class PassiveChannel(QuantumChannelAttack):
    """The no-attack baseline: photons simply suffer the path loss."""

    name = "passive"

    def intercept(self, emission, transmittance, rng):
        return {
            "photons_at_receiver": rng.binomial(emission["photons"], transmittance),
            "phase_at_receiver": emission["phase"],
            "record": {"attack": self.name},
        }
