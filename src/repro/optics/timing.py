"""Bright-pulse framing and annunciation (the 1300 nm synchronisation channel).

Alice "also transmits bright pulses at 1300 nm, multiplexed over the same
fiber, to send timing and framing information to Bob"; Bob's passively
quenched sync detector uses them to gate his APDs "just around the time that
the 1550 nm QKD photon arrives" (paper section 4).

For the protocol layer the consequences of this subsystem are:

* QKD slots are grouped into fixed-size *Qframes* identified by a frame
  number, which is how the sifting messages refer to symbols;
* a frame whose bright (annunciator) pulse is missed cannot be gated and is
  lost in its entirety;
* timing jitter between the bright pulse and the gate slightly reduces the
  effective detection efficiency.

The model captures those three effects and nothing more.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.optics.model import FramingParameters
from repro.util.rng import DeterministicRNG


def frame_layout(slots_per_frame: int, n_slots: int):
    """Static slot-to-frame layout for ``n_slots`` upcoming trigger slots.

    Returns the int64 frame index of every slot, built by repetition instead
    of dividing 1.5M slot numbers.  The layout is a pure function of
    ``(slots_per_frame, n_slots)`` and off the slot→key hot path:
    :attr:`repro.optics.channel.FrameResult.frame_numbers` builds it on first
    access, and nothing between trigger slot and pooled key reads it.
    """
    if n_slots < 0:
        raise ValueError("slot count must be non-negative")
    n_frames = -(-n_slots // slots_per_frame)
    return np.repeat(np.arange(n_frames, dtype=np.int64), slots_per_frame)[:n_slots]


class BrightPulseFraming:
    """Assigns slots to frames and decides which frames are successfully gated."""

    def __init__(self, parameters: Optional[FramingParameters] = None, rng: Optional[DeterministicRNG] = None):
        self.parameters = parameters or FramingParameters()
        self.rng = rng or DeterministicRNG(0)
        self._numpy_rng = np.random.default_rng(self.rng.getrandbits(64))
        self._next_frame_number = 0

    def sample_frame_gates(self, n_frames: int) -> np.ndarray:
        """Draw the per-frame bright-pulse outcomes (True = frame gated).

        One ``random(n_frames)`` draw — always taken, even at zero loss
        probability, so the generator advances identically whether or not any
        frame can actually be lost.
        """
        return self._numpy_rng.random(n_frames) >= self.parameters.frame_loss_probability

    def claim_frame_numbers(self, n_frames: int) -> int:
        """Advance the frame counter by ``n_frames``; returns the first number."""
        start = self._next_frame_number
        self._next_frame_number += n_frames
        return start

    def __repr__(self) -> str:
        return (
            f"BrightPulseFraming(slots_per_frame={self.parameters.slots_per_frame}, "
            f"frame_loss={self.parameters.frame_loss_probability})"
        )
