"""Error correction: the BBN variant of the Cascade protocol (paper section 5).

"Our first approach for error correction is a novel variant of the Cascade
protocol and algorithms.  The protocol is adaptive, in that it will not
disclose too many bits if the number of errors is low, but it will accurately
detect and correct a large number of errors (up to some limit) even if that
number is well above the historical average."

The mechanics implemented here follow the paper's description directly:

* Each round the initiator (Alice, whose key is the reference) defines a
  number of subsets (64 by default) of the sifted bits.  The subsets are
  pseudo-random bit strings expanded from a Linear-Feedback Shift Register and
  are identified on the wire only by a 32-bit LFSR seed.
* The initiator announces the subsets' parities; the responder replies with
  its own parities.  Any subset whose parities disagree contains an odd
  number of errors, and a divide-and-conquer (binary search) exchange over
  that subset locates and fixes one error bit.
* "Once an error bit has been found and fixed, both sides inspect their
  records of subsets and subranges, and flip the recorded parity of those
  that contained that bit.  This will clear up some discrepancies but may
  introduce other new ones, and so the process continues." — i.e. the
  correction cascades through earlier rounds' subsets.
* Every parity that crosses the public channel "must be taken as known to
  Eve", so the protocol records the number disclosed; privacy amplification
  later removes (at least) that many bits.

The result object reports both the raw number of disclosed parities ``d`` —
the quantity the paper's entropy formula subtracts — and the number of
*linearly independent* parities, which is the information-theoretically tight
figure and is useful for analysing the protocol's efficiency against the
Shannon limit ``n·h(e)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core import wire
from repro.core.messages import (
    CascadeBisectQuery,
    CascadeBisectReply,
    CascadeParityReply,
    CascadeSubsetAnnouncement,
    PublicChannelLog,
    SubsetPositions,
)
from repro.mathkit.gf2 import IncrementalGF2Rank
from repro.mathkit.lfsr import lfsr_subset_rows
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG


@dataclass(frozen=True)
class CascadeParameters:
    """Tunable knobs of the BBN Cascade variant."""

    #: Number of pseudo-random parity subsets announced per round ("currently 64").
    subsets_per_round: int = 64
    #: Number of announcement rounds.  Later rounds use fresh subsets and
    #: catch error patterns that earlier rounds saw only in even multiples.
    rounds: int = 4
    #: Extra random-subset parities exchanged at the end purely to confirm the
    #: keys now agree; they are also charged as disclosed bits.
    confirmation_parities: int = 16
    #: Fraction of key positions each pseudo-random subset includes.
    subset_density: float = 0.5
    #: Whether to run an initial pass over contiguous blocks ("subranges")
    #: before the pseudo-random subset rounds.  The adaptive block size keeps
    #: the bisection cost per error low when the error rate is high, which is
    #: what makes the whole protocol "adaptive" in the paper's sense.
    block_first_pass: bool = True
    #: First-pass block size is ``block_factor / error_rate`` (Brassard-Salvail
    #: tuning), clamped to ``[min_block_size, max_block_size]``.
    block_factor: float = 0.73
    min_block_size: int = 4
    max_block_size: int = 64
    #: Prior estimate of the error rate used to size the first-pass blocks
    #: when the caller does not pass a better hint.
    default_error_rate_hint: float = 0.05

    def __post_init__(self) -> None:
        if self.subsets_per_round <= 0:
            raise ValueError("subsets per round must be positive")
        if self.rounds <= 0:
            raise ValueError("round count must be positive")
        if self.confirmation_parities < 0:
            raise ValueError("confirmation parity count must be non-negative")
        if not 0.0 < self.subset_density <= 1.0:
            raise ValueError("subset density must be in (0, 1]")
        if self.block_factor <= 0:
            raise ValueError("block factor must be positive")
        if not 0 < self.min_block_size <= self.max_block_size:
            raise ValueError("block size bounds must satisfy 0 < min <= max")
        if not 0.0 < self.default_error_rate_hint < 0.5:
            raise ValueError("default error rate hint must be in (0, 0.5)")

    def first_pass_block_size(self, error_rate_hint: float) -> int:
        """The contiguous block size used by the first pass."""
        rate = max(error_rate_hint, 1e-4)
        size = int(round(self.block_factor / rate))
        return max(self.min_block_size, min(self.max_block_size, size))


@dataclass
class CascadeResult:
    """Outcome of reconciling one sifted block."""

    corrected_key: BitString
    errors_corrected: int
    disclosed_parities: int
    independent_parities: int
    rounds_used: int
    bisection_queries: int
    confirmed: bool
    #: True when the simulation's ground truth says the corrected key equals
    #: the reference key (only the tests can know this; the protocol itself
    #: relies on ``confirmed``).
    matches_reference: Optional[bool] = None
    message_log: PublicChannelLog = field(default_factory=PublicChannelLog)

    @property
    def leakage_fraction(self) -> float:
        """Disclosed parity bits per key bit."""
        if len(self.corrected_key) == 0:
            return 0.0
        return self.disclosed_parities / len(self.corrected_key)


class _SubsetRecord:
    """One announced parity subset, as both sides record it.

    The subset lives in two forms: ``positions`` (ascending key positions,
    the wire representation Cascade bisects over) and ``mask`` (the same
    positions as an LSB-first bit mask, bit ``i`` = key position ``i``), so
    parity checks are a word-wide AND-popcount instead of a per-index walk.
    """

    __slots__ = ("seed", "positions", "mask", "reference_parity", "working_parity")

    def __init__(
        self,
        seed: int,
        positions: SubsetPositions,
        mask: int,
        reference_parity: int,
        working_parity: int,
    ):
        self.seed = seed
        self.positions = positions
        self.mask = mask
        self.reference_parity = reference_parity
        self.working_parity = working_parity

    @property
    def mismatched(self) -> bool:
        return self.reference_parity != self.working_parity

    def segment_mask(self, lo: int, hi: int) -> int:
        """Mask of ``positions[lo:hi]``: the positions are ascending, so they
        are exactly the subset's members between the first and the last."""
        first = int(self.positions.array[lo])
        last = int(self.positions.array[hi - 1])
        return self.mask & (((2 << (last - first)) - 1) << first)


def _subset_parities(rows: np.ndarray, key_bits: np.ndarray) -> List[int]:
    """The parity of ``key_bits`` over each row of a bool membership matrix."""
    return np.bitwise_xor.reduce(rows & key_bits, axis=1).view(np.uint8).tolist()


class CascadeProtocol:
    """Reconciles the responder's sifted key against the initiator's."""

    def __init__(
        self,
        parameters: Optional[CascadeParameters] = None,
        rng: Optional[DeterministicRNG] = None,
    ):
        self.parameters = parameters or CascadeParameters()
        self.rng = rng or DeterministicRNG(0)

    # ------------------------------------------------------------------ #

    def reconcile(
        self,
        reference_key: BitString,
        working_key: BitString,
        log: Optional[PublicChannelLog] = None,
        error_rate_hint: Optional[float] = None,
    ) -> CascadeResult:
        """Correct ``working_key`` (Bob's) to match ``reference_key`` (Alice's).

        The two keys must have equal length.  ``error_rate_hint`` (typically
        the running QBER estimate the engine maintains) sizes the first-pass
        blocks; when omitted the parameter default is used.  Returns a
        :class:`CascadeResult`; the corrected key is a new ``BitString`` and
        the inputs are left untouched.
        """
        if len(reference_key) != len(working_key):
            raise ValueError("sifted keys must have the same length")
        n = len(reference_key)
        log = log if log is not None else PublicChannelLog()
        params = self.parameters

        if n == 0:
            return CascadeResult(
                corrected_key=BitString(),
                errors_corrected=0,
                disclosed_parities=0,
                independent_parities=0,
                rounds_used=0,
                bisection_queries=0,
                confirmed=True,
                matches_reference=True,
                message_log=log,
            )

        # Both keys and every subset live as LSB-first packed words (bit i =
        # key position i) so parity checks are AND-plus-popcount.
        working = working_key.to_int_lsb()
        reference = reference_key.to_int_lsb()  # only parities of it are disclosed
        # Alice's side of each round's announcement comes from the round's
        # membership matrix in one pass.  (Bob's replies stay per-mask: his
        # key keeps changing as errors are fixed.)
        reference_bits = wire.unpack_bitmap(reference_key.to_bytes(), n).view(bool)
        stride = (n + 7) // 8

        def expand(seeds: List[int]):
            """A batch of LFSR subsets as (membership rows, LSB-first masks)."""
            rows = lfsr_subset_rows(seeds, n, params.subset_density)
            packed = np.packbits(rows, axis=1, bitorder="little").tobytes()
            masks = [
                int.from_bytes(packed[start : start + stride], "little")
                for start in range(0, len(packed), stride)
            ]
            return rows, masks

        disclosed = 0
        bisections = 0
        errors_corrected = 0
        rank_tracker = IncrementalGF2Rank(columns=n)
        records: List[_SubsetRecord] = []
        # Numpy mirror of the records' parities, active while a round's
        # mismatches are being worked: the "find the first mismatched subset"
        # scan is one vectorized compare instead of a Python walk per fix.
        parity_mirror: Optional[np.ndarray] = None

        def disclose_mask_parity(mask: int) -> int:
            """Alice discloses the reference parity of a subset mask."""
            nonlocal disclosed
            disclosed += 1
            rank_tracker.add(mask)
            return (reference & mask).bit_count() & 1

        def working_parity(mask: int) -> int:
            return (working & mask).bit_count() & 1

        def fix_bit(index: int) -> None:
            """Flip the located error bit and update every recorded parity."""
            nonlocal working, errors_corrected
            index = int(index)
            working ^= 1 << index
            errors_corrected += 1
            for position, record in enumerate(records):
                if (record.mask >> index) & 1:
                    record.working_parity ^= 1
                    if parity_mirror is not None:
                        parity_mirror[position] ^= 1

        def bisect(record: _SubsetRecord, round_index: int, subset_index: int) -> None:
            """Divide-and-conquer search for one error inside a mismatched subset.

            The live segment is always ``record.positions[lo:hi]``; the query
            names the queried half by its bounds, and the codec serializes it
            from those when the transcript is tagged.
            """
            nonlocal disclosed, bisections
            lo, hi = 0, len(record.positions)
            while hi - lo > 1:
                mid = lo + (hi - lo) // 2
                log.record(
                    CascadeBisectQuery.slice_of(
                        round_index, subset_index, record.positions, lo, mid
                    )
                )
                half_mask = record.segment_mask(lo, mid)
                reference_parity = disclose_mask_parity(half_mask)
                bisections += 1
                log.record(
                    CascadeBisectReply(
                        round_index=round_index,
                        subset_index=subset_index,
                        parity=reference_parity,
                    )
                )
                if working_parity(half_mask) != reference_parity:
                    hi = mid
                else:
                    lo = mid
            fix_bit(record.positions.array[lo])

        def work_all_mismatches(round_index: int) -> None:
            """Bisect every mismatched record until all recorded parities agree.

            Always works the lowest-index mismatched record first (the same
            order the per-record scan used), but finds it with one vectorized
            compare over the parity mirror, which ``fix_bit`` keeps current.
            """
            nonlocal parity_mirror
            if not records:
                return
            count = len(records)
            reference_parities = np.fromiter(
                (record.reference_parity for record in records), np.uint8, count
            )
            parity_mirror = np.fromiter(
                (record.working_parity for record in records), np.uint8, count
            )
            try:
                while True:
                    mismatched = np.flatnonzero(parity_mirror != reference_parities)
                    if mismatched.size == 0:
                        break
                    subset_index = int(mismatched[0])
                    bisect(records[subset_index], round_index, subset_index)
            finally:
                parity_mirror = None

        # ---------------- First pass: contiguous blocks ("subranges") -------- #
        if params.block_first_pass:
            hint = (
                error_rate_hint
                if error_rate_hint is not None
                else params.default_error_rate_hint
            )
            block_size = params.first_pass_block_size(hint)
            block_parities: List[int] = []
            block_seeds: List[int] = []
            for start in range(0, n, block_size):
                stop = min(start + block_size, n)
                mask = ((1 << (stop - start)) - 1) << start
                reference_parity = disclose_mask_parity(mask)
                block_parities.append(reference_parity)
                block_seeds.append(start)  # blocks are identified by offset, not seed
                records.append(
                    _SubsetRecord(
                        seed=start,
                        positions=SubsetPositions(np.arange(start, stop, dtype=np.int64)),
                        mask=mask,
                        reference_parity=reference_parity,
                        working_parity=working_parity(mask),
                    )
                )
            log.record(
                CascadeSubsetAnnouncement(
                    round_index=-1,
                    key_length=n,
                    seeds=block_seeds,
                    parities=block_parities,
                )
            )
            log.record(
                CascadeParityReply(
                    round_index=-1,
                    parities=[record.working_parity for record in records],
                )
            )
            work_all_mismatches(round_index=-1)

        # ---------------- Pseudo-random LFSR subset rounds ------------------- #
        rounds_used = 0
        for round_index in range(params.rounds):
            rounds_used += 1
            errors_before_round = errors_corrected
            seeds = [self.rng.getrandbits(32) for _ in range(params.subsets_per_round)]
            rows, masks = expand(seeds)
            announcement_parities = _subset_parities(rows, reference_bits)
            round_records: List[_SubsetRecord] = []
            for seed, row, mask, reference_parity in zip(
                seeds, rows, masks, announcement_parities
            ):
                # Same accounting as disclose_mask_parity, in the same order.
                disclosed += 1
                rank_tracker.add(mask)
                round_records.append(
                    _SubsetRecord(
                        seed=seed,
                        positions=SubsetPositions(np.flatnonzero(row)),
                        mask=mask,
                        reference_parity=reference_parity,
                        working_parity=working_parity(mask),
                    )
                )
            log.record(
                CascadeSubsetAnnouncement(
                    round_index=round_index,
                    key_length=n,
                    seeds=seeds,
                    parities=announcement_parities,
                )
            )
            log.record(
                CascadeParityReply(
                    round_index=round_index,
                    parities=[record.working_parity for record in round_records],
                )
            )
            records.extend(round_records)

            # Work every mismatch to exhaustion; fixing a bit may flip earlier
            # rounds' recorded parities back into mismatch, which is the
            # "cascade" the protocol is named for.
            work_all_mismatches(round_index)

            # Adaptive early exit ("will not disclose too many bits if the
            # number of errors is low"): once a round of fresh subsets finds
            # nothing new to fix, further rounds would only disclose parities
            # without correcting anything.  At least two announcement stages
            # (block pass + one subset round, or two subset rounds) must have
            # run before the protocol may stop.
            had_earlier_stage = params.block_first_pass or round_index >= 1
            if had_earlier_stage and errors_corrected == errors_before_round:
                break

        # Confirmation parities: fresh random subsets whose parities must all
        # agree for the block to be accepted.  Drawing the seeds up front
        # consumes the RNG identically (mask expansion draws nothing), so the
        # whole confirmation stage is one more batched parity check.
        confirmed = True
        confirmation_seeds = [
            self.rng.getrandbits(32) for _ in range(params.confirmation_parities)
        ]
        rows, confirmation_masks = expand(confirmation_seeds)
        for mask, reference_parity in zip(
            confirmation_masks, _subset_parities(rows, reference_bits)
        ):
            disclosed += 1
            rank_tracker.add(mask)
            if reference_parity != working_parity(mask):
                confirmed = False

        corrected = BitString.from_int_lsb(working, n)
        return CascadeResult(
            corrected_key=corrected,
            errors_corrected=errors_corrected,
            disclosed_parities=disclosed,
            independent_parities=rank_tracker.rank,
            rounds_used=rounds_used,
            bisection_queries=bisections,
            confirmed=confirmed,
            matches_reference=(corrected == reference_key),
            message_log=log,
        )

    # ------------------------------------------------------------------ #

    def expected_disclosure(self, key_length: int, error_rate: float) -> float:
        """Rough analytic estimate of parity bits disclosed for planning purposes.

        Each error costs about ``log2(n)`` bisection parities; each round
        additionally announces its fixed complement of subset parities.  The
        engine uses this to decide how many sifted bits to accumulate before a
        block is worth correcting.
        """
        import math

        if key_length <= 0:
            return 0.0
        expected_errors = error_rate * key_length
        per_error = max(math.log2(max(key_length, 2)), 1.0)
        announcements = self.parameters.subsets_per_round * self.parameters.rounds
        return announcements + self.parameters.confirmation_parities + expected_errors * per_error
