"""Scalar reference for :meth:`repro.core.cascade.CascadeProtocol.reconcile`.

The body ``reconcile`` had before Cascade's bookkeeping moved into arrays,
kept verbatim as a function of the protocol object: one ``_SubsetRecord``
per announced subset, a big-int ``segment_mask`` and two AND-popcounts per
bisection step, one ``CascadeBisectQuery`` and one
``CascadeBisectReply`` object logged per step, ``fix_bit`` walking every
record, and every disclosed mask fed to ``IncrementalGF2Rank`` as it is
disclosed.  Obvious and slow, imported by no production code;
``tests/test_distillation_differential.py`` section (d) holds the shipped
``reconcile`` to it — transcript bytes, ``len(log)``, the expanded message
list, every result field and the protocol RNG's next draw.
"""

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core import wire_arrays
from repro.core.messages import (
    CascadeBisection,
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


def expanded(log: PublicChannelLog) -> List[object]:
    """One object per message, as this oracle logs them: each bisection
    entry of a shipped log becomes its queries and replies."""
    out: List[object] = []
    for m in log.messages:
        out.extend(m.messages() if isinstance(m, CascadeBisection) else (m,))
    return out


def messages_of_type(log: PublicChannelLog, message_type) -> List[object]:
    return [m for m in expanded(log) if isinstance(m, message_type)]


@dataclass
class CascadeResult:
    """The result fields as the parent's ``CascadeResult`` carried them."""

    corrected_key: BitString
    errors_corrected: int
    disclosed_parities: int
    independent_parities: int
    rounds_used: int
    bisection_queries: int
    confirmed: bool
    matches_reference: Optional[bool]
    message_log: PublicChannelLog


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


def _lsb_first(bits: BitString) -> int:
    """The bits packed least-significant-bit first: key position i is bit i."""
    return int(str(bits)[::-1], 2) if len(bits) else 0


def _subset_parities(rows: np.ndarray, key_bits: np.ndarray) -> List[int]:
    """The parity of ``key_bits`` over each row of a bool membership matrix."""
    return np.bitwise_xor.reduce(rows & key_bits, axis=1).view(np.uint8).tolist()


def scalar_reconcile(
    self,
    reference_key: BitString,
    working_key: BitString,
    log: Optional[PublicChannelLog] = None,
    error_rate_hint: Optional[float] = None,
) -> CascadeResult:
    """``reconcile`` as it was; ``self`` is the :class:`CascadeProtocol`."""
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
    working = _lsb_first(working_key)
    reference = _lsb_first(reference_key)  # only parities of it are disclosed
    # Alice's side of each round's announcement comes from the round's
    # membership matrix in one pass.  (Bob's replies stay per-mask: his
    # key keeps changing as errors are fixed.)
    reference_bits = wire_arrays.unpack_bitmap(reference_key.to_bytes(), n).view(bool)
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
                CascadeBisectQuery(
                    round_index, subset_index, tuple(record.positions.array[lo:mid].tolist())
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

    corrected = BitString.from_int(int(format(working, f"0{n}b")[::-1], 2), n)
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
