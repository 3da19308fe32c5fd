"""The unbalanced Mach-Zehnder interferometer pair (phase encoding/decoding).

Alice's and Bob's interferometers together implement the phase-encoded BB84
channel described in the paper's Figs 4-7: Alice applies one of four phases
(0, pi/2, pi, 3 pi/2) to encode a (basis, value) pair; Bob applies 0 or pi/2 to
select his measurement basis; the self-interfering central peak then strikes
detector D0 or D1 with probabilities set by the phase difference.

When the phase difference ``delta = phi_A - phi_B`` is 0 or pi the bases are
compatible and, for an ideal interferometer, the photon deterministically
strikes D0 (delta = 0) or D1 (delta = pi).  Real interferometers are not
ideal: path-length drift and imperfect coupling reduce the *fringe
visibility* V below one, so even with compatible bases the photon strikes the
wrong detector with probability ``(1 - V) / 2`` — the dominant intrinsic
contribution to the paper's 6-8 % QBER.  When the bases are incompatible
(delta = pi/2 or 3 pi/2) the photon strikes either detector at random, exactly
as the paper states.
"""

from __future__ import annotations

from typing import Optional

import math
from dataclasses import dataclass

import numpy as np


def phase_delta(alice_phase: np.ndarray, bob_basis: np.ndarray) -> np.ndarray:
    """The interference phase difference ``phi_A - basis * pi/2`` per slot.

    Returns a fresh float64 scratch array the caller may keep mutating.
    Shape-agnostic: every operation is elementwise, so any subset of slots
    (the channel passes its fired ones) gets the very floats the whole-array
    call would give it.
    """
    scratch = bob_basis.astype(np.float64)
    scratch *= math.pi / 2.0
    np.subtract(alice_phase, scratch, out=scratch)
    return scratch


def detector1_probability_map(scratch: np.ndarray, visibility) -> np.ndarray:
    """Map a phase-difference scratch array in place to ``P(D1)``.

    Applies ``(1 - V cos(delta)) / 2`` step by step with the exact IEEE
    operation sequence of the historical inline pipeline (multiplying by 0.5
    is dividing by two exactly).  ``visibility`` is the link's scalar, or any
    array that broadcasts against ``scratch``.
    """
    np.cos(scratch, out=scratch)
    scratch *= visibility
    np.subtract(1.0, scratch, out=scratch)
    scratch *= 0.5
    return scratch


@dataclass(frozen=True)
class InterferometerParameters:
    """Alignment quality of the interferometer pair."""

    #: Fringe visibility of the combined Alice+Bob interferometer pair.
    #: V = 1 is perfect alignment; the intrinsic error rate is (1 - V) / 2.
    visibility: float = 0.87
    #: Additional RMS phase noise (radians) from fiber stretcher imperfection;
    #: applied as a random phase jitter per pulse.
    phase_noise_rad: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError("visibility must be in [0, 1]")
        if self.phase_noise_rad < 0:
            raise ValueError("phase noise must be non-negative")

    @property
    def intrinsic_error_rate(self) -> float:
        """Probability of hitting the wrong detector with compatible bases."""
        return (1.0 - self.visibility) / 2.0


class MachZehnderPair:
    """Computes detector-hit probabilities for the Alice/Bob interferometer pair."""

    def __init__(self, parameters: Optional[InterferometerParameters] = None):
        self.parameters = parameters or InterferometerParameters()

    # ------------------------------------------------------------------ #
    # Scalar physics (used by the analytic rate model and by tests)
    # ------------------------------------------------------------------ #

    def detector1_probability(self, alice_phase: float, bob_phase: float) -> float:
        """Probability that the photon strikes detector D1.

        For an interferometer with visibility V the single-photon interference
        law is ``P(D1) = (1 - V cos(delta)) / 2`` where ``delta`` is the phase
        difference; D0 gets the complement.  delta = 0 gives D0 (a "0"),
        delta = pi gives D1 (a "1"), and incompatible bases (delta = ±pi/2)
        give a 50/50 split.
        """
        delta = alice_phase - bob_phase
        visibility = self.parameters.visibility
        return (1.0 - visibility * math.cos(delta)) / 2.0

    def detector0_probability(self, alice_phase: float, bob_phase: float) -> float:
        """Probability that the photon strikes detector D0."""
        return 1.0 - self.detector1_probability(alice_phase, bob_phase)

    def __repr__(self) -> str:
        return (
            f"MachZehnderPair(visibility={self.parameters.visibility}, "
            f"intrinsic_error={self.parameters.intrinsic_error_rate:.3f})"
        )
