"""The beam-splitting / photon-number-splitting (PNS) attack.

This is the paper's canonical example of *transparent* eavesdropping:
"observations that have no effect on the error rate, e.g. beamsplitting
attacks, interceptions of multi-photon pulses, and the like" (section 6).
Whenever the attenuated laser emits two or more photons in a slot, Eve can
split one off, store it, and measure it in the correct basis after Alice and
Bob announce their bases during sifting — gaining full knowledge of that bit
without disturbing the photon that continues to Bob.

Because no errors are induced, the protocols cannot *detect* this attack; the
defense is purely accounting: entropy estimation charges the multi-photon
terms against the key, and privacy amplification removes them.  The E10
claims use this attack's bookkeeping to check that the charge really does
cover what Eve learned, and to reproduce the paper's weak-coherent versus
entangled-source comparison (leakage proportional to transmitted versus
received multi-photon pulses).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.eve.base import QuantumChannelAttack


class BeamSplittingAttack(QuantumChannelAttack):
    """Eve splits one photon off every multi-photon pulse and stores it."""

    name = "beam-splitting"

    def __init__(self, lossless_forwarding: bool = False):
        #: If true, Eve additionally replaces the lossy fiber with a lossless
        #: channel for the pulses she tapped (the stronger PNS variant, which
        #: keeps Bob's rate unchanged so even rate monitoring sees nothing).
        self.lossless_forwarding = lossless_forwarding
        self.last_record: Dict[str, object] = {}

    def intercept(self, emission, transmittance, rng):
        photons = emission["photons"]
        n = photons.shape[0]

        multi_photon = photons >= 2
        # Eve removes exactly one photon from each multi-photon pulse.
        photons_after_tap = np.where(multi_photon, photons - 1, photons)

        if self.lossless_forwarding:
            # Tapped pulses are delivered losslessly; untouched pulses see the
            # normal fiber loss.
            tapped_delivery = photons_after_tap
            normal_delivery = rng.binomial(photons_after_tap, transmittance)
            photons_at_receiver = np.where(multi_photon, tapped_delivery, normal_delivery)
        else:
            photons_at_receiver = rng.binomial(photons_after_tap, transmittance)

        record = {
            "attack": self.name,
            "multi_photon_mask": multi_photon,
            "slots_tapped": int(np.count_nonzero(multi_photon)),
            "lossless_forwarding": self.lossless_forwarding,
        }
        self.last_record = record
        return {
            "photons_at_receiver": photons_at_receiver,
            "phase_at_receiver": emission["phase"],
            "record": record,
        }

    # ------------------------------------------------------------------ #

    @staticmethod
    def eve_known_sifted_bits(frame_result) -> int:
        """Sifted bits Eve will know once bases are announced.

        Every sifted bit originating from a tapped multi-photon pulse is known
        to Eve in full: she holds a photon from that pulse and can measure it
        in the announced basis at her leisure.
        """
        record = frame_result.attack_record
        if not record or "multi_photon_mask" not in record:
            return 0
        tapped = record["multi_photon_mask"]
        return int(np.count_nonzero(frame_result.sifted_mask & tapped))
