"""Entangled-photon (SPDC) pair source.

The paper's plan for the network's second link is "based on two-photon
entanglement" produced by Spontaneous Parametric Down-Conversion (section 1
and section 8).  The security-relevant difference the paper highlights
(section 6) is how multi-photon emissions leak to Eve: for a weak-coherent
link the leak is "proportional to the number of transmitted bits times the
multi-photon probability", whereas for an entangled link it is "only
proportional to the number of received bits times the multi-photon
probability".

The model here produces pair-generation statistics per trigger slot — the
probability of one pair, of an (insecure) double pair, and of the heralded
detection — so that entropy estimation and the E10 benchmark can compare
both source types under like assumptions.
"""

from __future__ import annotations

from typing import Optional

from dataclasses import dataclass

import numpy as np

from repro.optics.draws import MAX_MEAN_COUNT, coin_flips, poisson_counts
from repro.util.rng import DeterministicRNG


@dataclass(frozen=True)
class EntangledSourceParameters:
    """Operating parameters of the SPDC pair source."""

    #: Mean number of photon pairs generated per pump pulse.  SPDC pair
    #: statistics are thermal/Poisson-like; small values keep double pairs rare.
    mean_pairs_per_pulse: float = 0.05
    pulse_rate_hz: float = 1.0e6
    #: Heralding efficiency: probability that the idler photon of a generated
    #: pair is detected at the source so the signal photon can be announced.
    heralding_efficiency: float = 0.6

    def __post_init__(self) -> None:
        if self.mean_pairs_per_pulse < 0:
            raise ValueError("mean pairs per pulse must be non-negative")
        if self.mean_pairs_per_pulse > MAX_MEAN_COUNT:
            raise ValueError("mean pairs per pulse too large for uint16 photon counts")
        if not 0.0 <= self.heralding_efficiency <= 1.0:
            raise ValueError("heralding efficiency must be in [0, 1]")
        if self.pulse_rate_hz <= 0:
            raise ValueError("pulse rate must be positive")

class EntangledPairSource:
    """Generates heralded entangled-pair emission records per trigger slot."""

    def __init__(
        self,
        parameters: Optional[EntangledSourceParameters] = None,
        rng: Optional[DeterministicRNG] = None,
    ):
        self.parameters = parameters or EntangledSourceParameters()
        self.rng = rng or DeterministicRNG(0)
        self._numpy_rng = np.random.default_rng(self.rng.getrandbits(64))
        self.pulses_emitted = 0

    def _draw(
        self, pairs_out: np.ndarray, basis_out: np.ndarray, value_out: np.ndarray
    ):
        """The entangled draws — pairs, herald, basis, value, in that order, one
        call each over the whole batch — into three caller-provided arrays.

        Returns ``(occupied, heralded)``: the ascending slots that hold at
        least one pair, and for each of them whether its idler was detected.
        The herald draw is taken for every slot and read only there.
        """
        n_pulses = pairs_out.shape[-1]
        _, occupied = poisson_counts(
            self._numpy_rng, self.parameters.mean_pairs_per_pulse, n_pulses, out=pairs_out
        )
        heralded = (
            self._numpy_rng.random(n_pulses)[occupied] < self.parameters.heralding_efficiency
        )
        coin_flips(self._numpy_rng, n_pulses, out=basis_out)
        coin_flips(self._numpy_rng, n_pulses, out=value_out)
        self.pulses_emitted += int(n_pulses)
        return occupied, heralded

    def emit(self, n_pulses: int):
        """Emit ``n_pulses`` pump slots.

        Returns a dict of numpy arrays:

        ``pairs``
            Number of photon pairs generated in each slot.
        ``heralded``
            Whether the slot was heralded (idler detected), so the signal
            photon's existence is announced to the protocol layer.
        ``basis`` / ``value``
            The measurement outcome encoded on the signal photon once Alice
            measures her half — equivalent, for protocol purposes, to the
            basis/value modulation of the weak-coherent source.
        """
        if n_pulses < 0:
            raise ValueError("number of pulses must be non-negative")
        pairs = np.empty(n_pulses, dtype=np.int64)
        basis = np.empty(n_pulses, dtype=np.uint8)
        value = np.empty(n_pulses, dtype=np.uint8)
        occupied, heralded_pair = self._draw(pairs, basis, value)
        heralded = np.zeros(n_pulses, dtype=bool)
        heralded[occupied] = heralded_pair
        return {
            "pairs": pairs,
            "heralded": heralded,
            "basis": basis,
            "value": value,
        }

    def emit_into(
        self, basis_out: np.ndarray, value_out: np.ndarray, photons_out: np.ndarray
    ) -> np.ndarray:
        """Draw one batch into caller-provided arrays.

        Same contract as :meth:`WeakCoherentSource.emit_into`, return value
        included.  Only heralded slots carry a signal photon Alice has a
        record of; unheralded signal photons are discarded at the source
        (they would otherwise produce clicks Alice can never reconcile), so
        ``photons_out`` receives the pair count masked by the herald and the
        slots returned are the heralded ones.
        """
        occupied, heralded = self._draw(photons_out, basis_out, value_out)
        photons_out[occupied[~heralded]] = 0
        return occupied[heralded]

    def __repr__(self) -> str:
        return (
            f"EntangledPairSource(mean_pairs={self.parameters.mean_pairs_per_pulse}, "
            f"heralding={self.parameters.heralding_efficiency})"
        )
