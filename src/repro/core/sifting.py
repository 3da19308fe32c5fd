"""Sifting: winnowing away the failed qubits (paper section 5).

"Sifting is the process whereby Alice and Bob winnow away all the obvious
'failed qubits' from a series of pulses" — slots where nothing was detected,
slots where both detectors fired, and slots where Bob's measurement basis did
not match Alice's.  After a *sift / sift response* transaction both sides hold
only the symbols Bob received in a matching basis; on average half of Bob's
detections survive.

The sift message from Bob to Alice indicates which slots produced detections.
Because detections are rare (one slot in a few hundred at the paper's
operating point), the DARPA engine run-length encodes that indication so "runs
of identical values (and in particular of 'no detection' values) are
compressed to take very little space" (paper Appendix).  The same encoding is
implemented here; the naive explicit-index encoding it saves against is a
reference beside the E12 claims (``tests/oracles/naive_sift.py``).

Importantly for security accounting, the sift exchange reveals *which* slots
were detected and which bases were used, but never reveals bit values; sifting
therefore discloses no key information to Eve.

Vectorization contract
----------------------

The announcement path stays in packed numpy arrays end to end:
:func:`run_length_encode_mask` is a few whole-array passes
(``np.flatnonzero``/``np.diff`` over the click mask), decoding detections is
O(detections) rather than O(slots), and ``SiftResult``/message internals carry
uint8/intp arrays instead of per-slot Python lists.  The per-flag scalar loop
is the behavioural oracle and lives in ``tests/oracles/scalar_rle.py``;
``tests/test_sifting.py`` pins the vectorized encoder against it on
randomized inputs and real frames.  Both produce the *identical* runs list:
alternating (zeros-run, ones-run, ...) lengths starting with a zeros-run that
may be empty, with ``sum(runs) == len(flags)`` always.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.messages import SiftMessage, SiftResponseMessage
from repro.optics.channel import FrameResult
from repro.util.bits import BitString


# --------------------------------------------------------------------------- #
# Run-length encoding of the detection indication
# --------------------------------------------------------------------------- #

def run_length_encode_mask(mask: np.ndarray) -> np.ndarray:
    """Vectorized run-length encode of a boolean/0-1 array.

    Returns the alternating run lengths as an ``int64`` array — the same list
    a per-flag scalar loop produces, computed in a handful of
    whole-array passes: run boundaries are the indices where adjacent flags
    differ (``np.flatnonzero`` over a shifted comparison), run lengths their
    ``np.diff``, plus a leading empty zeros-run when the first slot was a
    detection.
    """
    arr = np.asarray(mask)
    if arr.ndim != 1:
        arr = np.ravel(arr)
    if arr.dtype != bool:
        arr = arr != 0
    n = arr.size
    if n == 0:
        return np.array([0], dtype=np.int64)
    changes = np.flatnonzero(arr[1:] != arr[:-1])
    bounds = np.empty(changes.size + 2, dtype=np.int64)
    bounds[0] = 0
    bounds[1:-1] = changes + 1
    bounds[-1] = n
    runs = np.diff(bounds)
    if arr[0]:
        # The encoding always starts with a zeros-run; emit it empty.
        runs = np.concatenate((np.zeros(1, dtype=np.int64), runs))
    return runs


def _validated_runs(runs: Sequence[int], expected_length: Optional[int]) -> np.ndarray:
    """Convert run lengths to an int64 array, rejecting bad input *cheaply*.

    Validation happens before any output-sized allocation: negative or
    oversized runs, and a run sum that does not match ``expected_length``,
    are all rejected from the (small) runs array alone — a malicious sift
    message can no longer force materialization of an arbitrarily large
    decoded sequence.
    """
    try:
        arr = np.asarray(runs, dtype=np.int64)
    except (OverflowError, TypeError, ValueError):
        raise ValueError("run lengths must be machine-size non-negative integers")
    if arr.ndim != 1:
        raise ValueError("run lengths must be a flat sequence")
    if arr.size and int(arr.min()) < 0:
        raise ValueError("run lengths must be non-negative")
    if expected_length is not None:
        # Reject oversized runs before summing so a handful of huge runs
        # can't overflow the accumulator, then check the exact total.
        if arr.size and int(arr.max()) > expected_length:
            raise ValueError(
                f"run length exceeds expected sequence length {expected_length}"
            )
        total = int(arr.sum())
        if total != expected_length:
            raise ValueError(
                f"decoded length {total} does not match expected {expected_length}"
            )
    return arr


# --------------------------------------------------------------------------- #
# The sifting protocol
# --------------------------------------------------------------------------- #

@dataclass
class SiftResult:
    """Both sides' sifted keys plus the statistics later stages need."""

    alice_key: BitString
    bob_key: BitString
    #: Slot indices (into the originating frame batch) of each sifted bit,
    #: as an ``np.ndarray`` — the announcement path never materializes
    #: per-slot Python lists.
    slot_indices: np.ndarray
    n_slots_transmitted: int
    n_detections_reported: int
    sift_message: SiftMessage
    sift_response: SiftResponseMessage

    @property
    def n_sifted(self) -> int:
        return len(self.alice_key)

    @property
    def error_count(self) -> int:
        """Number of positions where Bob's sifted bit differs from Alice's.

        Only the simulation can see this directly; the protocol itself learns
        it during error correction.  Tests and benchmarks use it as ground
        truth.
        """
        return self.alice_key.hamming_distance(self.bob_key)


class SiftingProtocol:
    """Runs the sift / sift-response transaction for a batch of slots."""

    def __init__(self, frame_id: int = 0):
        self.frame_id = frame_id

    # -- Bob's side ------------------------------------------------------ #

    def build_sift_message(self, frame: FrameResult) -> SiftMessage:
        """Bob reports which slots produced a usable click, and his bases."""
        usable = frame.usable_clicks
        return SiftMessage(
            frame_id=self.frame_id,
            n_slots=frame.n_slots,
            detection_runs=run_length_encode_mask(usable),
            detected_bases=frame.bob_basis[usable],
        )

    # -- Alice's side ---------------------------------------------------- #

    def build_sift_response(
        self,
        frame: FrameResult,
        sift_message: SiftMessage,
        precomputed_slots: Optional[np.ndarray] = None,
    ) -> SiftResponseMessage:
        """Alice accepts the detections whose reported basis matches hers.

        ``precomputed_slots`` lets a caller that has already decoded the
        message's detection runs (:func:`_decode_detected_slots`) skip the
        second decode; the indices are identical either way.
        """
        if precomputed_slots is None:
            detected_slots = _decode_detected_slots(sift_message, frame.n_slots)
        else:
            detected_slots = precomputed_slots
        if len(detected_slots) != len(sift_message.detected_bases):
            raise ValueError("sift message bases do not match the detection runs")
        accept = np.asarray(frame.alice_basis)[detected_slots].astype(int) == np.asarray(
            sift_message.detected_bases, dtype=int
        )
        return SiftResponseMessage(
            frame_id=self.frame_id, accept_mask=accept.astype(np.uint8)
        )

    # -- Both sides ------------------------------------------------------ #

    def sift(self, frame: FrameResult) -> SiftResult:
        """Run the full transaction and return both sides' sifted keys."""
        sift_message = self.build_sift_message(frame)
        detected_slots = _decode_detected_slots(sift_message, frame.n_slots)
        sift_response = self.build_sift_response(
            frame, sift_message, precomputed_slots=detected_slots
        )
        kept = detected_slots[np.asarray(sift_response.accept_mask, dtype=bool)]

        return SiftResult(
            alice_key=_extract_key_bits(frame.alice_value, kept),
            bob_key=_extract_key_bits(frame.bob_value, kept),
            slot_indices=kept,
            n_slots_transmitted=frame.n_slots,
            n_detections_reported=len(detected_slots),
            sift_message=sift_message,
            sift_response=sift_response,
        )


def sift_frames(frames: Sequence[FrameResult], frame_ids: Sequence[int]) -> List[SiftResult]:
    """Sift each frame under its own frame id: one :meth:`SiftingProtocol.sift`
    per frame, in order.  The frames need not share a length.

    This is the slot→key loop's sifting entry (:mod:`repro.lanes.engine`).
    """
    frames = list(frames)
    frame_ids = list(frame_ids)
    if len(frames) != len(frame_ids):
        raise ValueError("need exactly one frame id per frame")
    return [
        SiftingProtocol(frame_id=frame_id).sift(frame)
        for frame, frame_id in zip(frames, frame_ids)
    ]


def _decode_detected_slots(sift_message: SiftMessage, n_slots: int) -> np.ndarray:
    """Slot indices of the reported detections, decoded from the run lengths.

    Runs alternate zeros/ones starting with zeros, so the detections are the
    slots covered by the odd-position runs.  The decode is O(detections):
    each odd run ``[start, start + length)`` expands to a contiguous index
    range via one ``np.repeat`` plus one ``np.arange`` — the n_slots-sized
    flags array is never materialized.  All validation (non-negative runs,
    ``sum(runs) == n_slots``) happens first, on the small runs array.
    """
    runs = _validated_runs(sift_message.detection_runs, n_slots)
    ends = np.cumsum(runs)
    ones_lengths = runs[1::2]
    ones_starts = ends[1::2] - ones_lengths
    nonempty = ones_lengths > 0
    if not nonempty.all():
        ones_lengths = ones_lengths[nonempty]
        ones_starts = ones_starts[nonempty]
    total = int(ones_lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    # Offset each run's start by the detections counted so far; adding a
    # global arange then yields consecutive indices inside every run.
    offsets = np.cumsum(ones_lengths) - ones_lengths
    return np.repeat(ones_starts - offsets, ones_lengths) + np.arange(
        total, dtype=np.int64
    )


def _extract_key_bits(values: np.ndarray, slots: np.ndarray) -> BitString:
    """Gather the bit values at ``slots`` into a packed :class:`BitString`.

    ``np.packbits`` packs most-significant-bit first, matching the
    :meth:`BitString.from_bytes` convention; the zero padding it appends to
    the last byte is sliced off by length.
    """
    n = len(slots)
    if n == 0:
        return BitString()
    picked = np.asarray(values)[slots].astype(np.uint8)
    return BitString.from_bytes(np.packbits(picked).tobytes())[:n]
