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
detection — so that entropy estimation and the E10 claims can compare
both source types under like assumptions.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.optics.draws import coin_flips, poisson_counts
from repro.optics.model import EntangledSourceParameters
from repro.util.rng import DeterministicRNG


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
