"""The interface between eavesdropping attacks and the quantum channel.

An attack interposes on the photonic path between Alice's source and Bob's
receiver.  The :class:`repro.optics.channel.QuantumChannel` hands the attack
Alice's per-slot emission (basis, value, phase, photon count) and the path
transmittance, and the attack returns what actually arrives at Bob's receiver
along with its own bookkeeping (how many bits it learned, how many pulses it
touched).  This mirrors the paper's threat model: Eve sits on the fiber and
may do anything physics allows to the photons, while the protocol stack only
ever sees the consequences in Bob's click statistics.
"""

from __future__ import annotations

from typing import Dict

import numpy as np


class QuantumChannelAttack:
    """Base class for attacks on the photonic channel."""

    name = "attack"

    def intercept(
        self, emission: Dict[str, np.ndarray], transmittance: float, rng: np.random.Generator
    ) -> Dict[str, object]:
        """Act on the pulses in flight.

        ``emission`` holds Alice's per-slot arrays (``basis``, ``value``,
        ``phase``, ``photons``).  The return value must contain:

        ``photons_at_receiver``
            integer array — photons arriving at Bob's receiver per slot;
        ``phase_at_receiver``
            float array — the phase Bob's interferometer sees per slot (Eve
            may have replaced the pulse with one of her own);
        ``record``
            a dict of attack bookkeeping attached to the frame result.
        """
        raise NotImplementedError
