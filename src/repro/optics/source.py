"""Weak-coherent QKD pulse source (Alice's transmitter suite).

The transmitter is "a very highly attenuated laser pulse at 1550 nm" passed
through a Mach-Zehnder interferometer "randomly modulated to one of four
phases, thus encoding both a basis and a value" (paper section 4).  Because
the laser is attenuated rather than a true single-photon emitter, the photon
number in each pulse is Poisson distributed with a small mean (0.1 photons
per pulse at the paper's operating point); pulses containing two or more
photons are what make photon-number-splitting attacks possible.

The phase applied per pulse is ``basis * pi/2 + value * pi`` — i.e. phases
{0, pi} encode 0/1 in basis 0 and {pi/2, 3 pi/2} encode 0/1 in basis 1 — which
matches the summing-amplifier construction in Fig 3 of the paper.
"""

from __future__ import annotations

from typing import Optional

import math

import numpy as np

from repro.optics.draws import coin_flips, poisson_counts
from repro.optics.model import SourceParameters
from repro.util.rng import DeterministicRNG

#: The four modulator phases ``basis * pi/2 + value * pi`` indexed by
#: ``basis << 1 | value``.  Each entry is the same IEEE float64 the per-slot
#: expression produces (0/1 multiplications and one addition are exact), so
#: the table lookup is bit-identical to the arithmetic it replaces — one
#: fancy-index pass instead of three full-array float passes per batch.
_PHASE_TABLE = np.array(
    [b * (math.pi / 2.0) + v * math.pi for b in (0, 1) for v in (0, 1)],
    dtype=np.float64,
)


def modulator_phase(basis: np.ndarray, value: np.ndarray) -> np.ndarray:
    """The modulator phase ``basis*pi/2 + value*pi`` for basis/value arrays.

    Shape-agnostic (the table gather is elementwise), so the channel can
    encode just its fired slots.  This is the one place the phase encoding is computed, for
    the weak-coherent and the entangled source alike.
    """
    return _PHASE_TABLE[(basis << 1) | value]


class WeakCoherentSource:
    """Generates batches of phase-modulated weak-coherent pulses.

    The batch interface fills parallel numpy arrays so that millions of
    1 MHz trigger slots can be simulated quickly; the protocol stack consumes
    these arrays as a raw Qframe.
    """

    def __init__(self, parameters: Optional[SourceParameters] = None, rng: Optional[DeterministicRNG] = None):
        self.parameters = parameters or SourceParameters()
        self.rng = rng or DeterministicRNG(0)
        self._numpy_rng = np.random.default_rng(self.rng.getrandbits(64))
        self.pulses_emitted = 0

    # ------------------------------------------------------------------ #

    def emit_into(
        self, basis_out: np.ndarray, value_out: np.ndarray, photons_out: np.ndarray
    ) -> np.ndarray:
        """Draw one batch of modulation choices into caller-provided arrays.

        :class:`repro.optics.channel.QuantumChannel` hands in its frame's
        three per-slot arrays, and usually calls this on the worker that
        draws the next batch (``emit_ahead``): it touches nothing but this
        source.  Per slot: Alice's random basis (0/1), her random key bit
        (0/1), and the Poissonian photon number actually present — drawn in
        that order, one call each, which is what the pinned digests fix
        (:mod:`repro.optics.draws` takes the same values from the same
        stream positions in chunks; the photon number is numpy's own loop,
        which runs without the GIL).

        Returns the ascending indices of the non-empty pulses
        (``photons_out.nonzero()[0]``), which the photon-number draw knows
        without another pass over an array that is mostly zeros.
        """
        n_pulses = basis_out.shape[-1]
        coin_flips(self._numpy_rng, n_pulses, out=basis_out)
        coin_flips(self._numpy_rng, n_pulses, out=value_out)
        _, occupied = poisson_counts(
            self._numpy_rng, self.parameters.mean_photon_number, n_pulses, out=photons_out
        )
        self.pulses_emitted += int(n_pulses)
        return occupied

    def __repr__(self) -> str:
        return (
            f"WeakCoherentSource(mu={self.parameters.mean_photon_number}, "
            f"rate={self.parameters.pulse_rate_hz/1e6:g} MHz)"
        )
