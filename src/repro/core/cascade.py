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
Shannon limit ``n·h(e)``; nothing between slot and key reads the latter, so
it is computed from a compact ledger the first time it is asked for.

**One process plays both parties, and the bookkeeping uses that.**  "Their
records of subsets" are arrays: one membership matrix whose row ``r`` is
subset ``r`` and whose column ``i`` is "the records that contain bit ``i``"
(a located error is one column XOR into the ``mismatch`` vector), both keys
as bit arrays, and ``diff = working ^ reference``.  A bisection takes one
prefix-parity scan of the reference bits and one of ``diff`` over the
record's ascending positions, and every step is then two lookups: the parity
of ``positions[lo:mid]`` is ``prefix[mid] ^ prefix[lo]``.  Two separated
parties could not form ``diff``; what makes the shortcut legal is that it
only decides *which branch Bob takes*, and Bob's comparison of his own
half-parity with Alice's reply is, bit for bit, the parity of ``diff`` over
that half.  What must stay exactly two-party is everything that crosses the
channel: each disclosed parity is a parity of Alice's key alone, over the
subset slice a real Bob would have named, in the order the step-by-step
exchange would have produced it — the pinned transcript digests in
``tests/test_pinned_key_material.py`` and the record-per-subset reference in
``tests/oracles/scalar_cascade.py`` hold the code to that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core import wire
from repro.core.messages import (
    CascadeBisection,
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
    rounds_used: int
    bisection_queries: int
    confirmed: bool
    #: True when the simulation's ground truth says the corrected key equals
    #: the reference key (only the tests can know this; the protocol itself
    #: relies on ``confirmed``).
    matches_reference: Optional[bool] = None
    message_log: PublicChannelLog = field(default_factory=PublicChannelLog)
    #: Set by ``reconcile``; what :attr:`independent_parities` is computed from.
    _ledger: Optional["_DisclosureLedger"] = field(
        default=None, init=False, repr=False, compare=False
    )

    @cached_property
    def independent_parities(self) -> int:
        """Rank over GF(2) of every disclosed parity's subset — the tight
        leakage figure.  Nothing on the slot-to-key path reads it, so it is
        computed from the ledger on first read rather than per disclosure."""
        return self._ledger.rank() if self._ledger is not None else 0

#: Parity of every byte value: folds a packed AND down to one bit per row.
_BYTE_PARITY = np.array([bin(byte).count("1") & 1 for byte in range(256)], dtype=np.uint8)


def _subset_parities(packed_rows: np.ndarray, key_bits: np.ndarray) -> np.ndarray:
    """The parity of ``key_bits`` over each row of a ``np.packbits``-ed membership matrix."""
    return _BYTE_PARITY[np.bitwise_xor.reduce(packed_rows & np.packbits(key_bits), axis=1)]


def _block_rows(n: int, block_size: int) -> np.ndarray:
    """Membership rows of the first pass: row ``j`` is block ``j`` of ``block_size`` positions."""
    positions = np.arange(n)
    rows = np.zeros((-(-n // block_size), n), dtype=bool)
    rows[positions // block_size, positions] = True
    return rows


class _DisclosureLedger(NamedTuple):
    """What one reconciliation disclosed, in the fewest values that name it again.

    Every announced subset is regenerated from the first-pass block size and
    the LFSR seeds; every bisection query from where its search ended — a
    binary search's path is fixed by its end point.  :meth:`rank` replays
    them through :class:`IncrementalGF2Rank`; rank does not depend on order.
    """

    key_length: int
    density: float
    #: 0 when there was no first pass.
    block_size: int
    #: Each round's seeds in record order, then the confirmation's.
    seeds: List[int]
    #: ``record << 32 | offset`` per search: the error was ``positions[offset]``.
    searches: np.ndarray

    def rank(self) -> int:
        n = self.key_length
        rows = lfsr_subset_rows(self.seeds, n, self.density)
        if self.block_size:
            rows = np.concatenate([_block_rows(n, self.block_size), rows])
        masks = [
            int.from_bytes(packed.tobytes(), "little")
            for packed in np.packbits(rows, axis=1, bitorder="little")
        ]
        tracker = IncrementalGF2Rank(columns=n)
        for mask in masks:
            tracker.add(mask)
        for search in self.searches.tolist():
            record, found = search >> 32, search & 0xFFFFFFFF
            positions = np.flatnonzero(rows[record]).tolist()
            lo, hi = 0, len(positions)
            while hi - lo > 1:
                mid = lo + (hi - lo) // 2
                first, last = positions[lo], positions[mid - 1]
                tracker.add(masks[record] & (((2 << (last - first)) - 1) << first))
                lo, hi = (lo, mid) if found < mid else (mid, hi)
        return tracker.rank


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
                rounds_used=0,
                bisection_queries=0,
                confirmed=True,
                matches_reference=True,
                message_log=log,
            )

        # Only parities of the reference key are ever disclosed; ``diff`` is
        # the simulation's own knowledge of where the two keys still differ.
        reference_bits = wire.unpack_bitmap(reference_key.to_bytes(), n)
        working_bits = wire.unpack_bitmap(working_key.to_bytes(), n)
        diff = reference_bits ^ working_bits

        block_size = 0
        if params.block_first_pass:
            hint = (
                error_rate_hint
                if error_rate_hint is not None
                else params.default_error_rate_hint
            )
            block_size = params.first_pass_block_size(hint)
        capacity = params.rounds * params.subsets_per_round
        capacity += -(-n // block_size) if block_size else 0
        # Both sides' records: ``member[r]`` is record r's subset, column i
        # "the records that contain bit i", ``mismatch[r]`` whether the two
        # recorded parities of r currently disagree.
        member = np.zeros((capacity, n), dtype=np.uint8)
        mismatch = np.zeros(capacity, dtype=np.uint8)
        count = 0
        #: record -> (positions, prefix parities of the reference key over them)
        bisected: Dict[int, Tuple[SubsetPositions, bytes]] = {}
        seeds_used: List[int] = []
        searches: List[int] = []
        bisections = 0

        def bisect(round_index: int, record: int) -> None:
            """Divide-and-conquer search for one error inside a mismatched record.

            The live segment is always ``positions[lo:hi]``.  Alice's reply
            about ``positions[lo:mid]`` is a difference of two prefix
            parities of *her* key, and whether Bob's half disagrees with it is
            the same difference over ``diff`` — the replies and their order
            are those of the step-by-step exchange.
            """
            nonlocal bisections
            if record not in bisected:
                # (bool view of the 0/1 row: numpy's fast nonzero path)
                positions = np.flatnonzero(member[record].view(bool))
                prefix = np.bitwise_xor.accumulate(reference_bits[positions])
                bisected[record] = SubsetPositions(positions), prefix.tobytes()
            subset, reference_prefix = bisected[record]
            diff_prefix = np.bitwise_xor.accumulate(diff[subset.array]).tobytes()
            lo, hi, reference_lo, diff_lo = 0, len(subset), 0, 0
            steps = []
            while hi - lo > 1:
                mid = lo + (hi - lo) // 2
                reference_mid, diff_mid = reference_prefix[mid - 1], diff_prefix[mid - 1]
                steps.append((lo, mid, reference_mid ^ reference_lo))
                if diff_mid ^ diff_lo:
                    hi = mid
                else:
                    lo, reference_lo, diff_lo = mid, reference_mid, diff_mid
            log.record(CascadeBisection.over(round_index, record, subset, steps))
            bisections += len(steps)
            searches.append(record << 32 | lo)
            # "Both sides inspect their records of subsets and subranges, and
            # flip the recorded parity of those that contained that bit."
            index = subset.array[lo]
            working_bits[index] ^= 1
            diff[index] ^= 1
            mismatch[:count] ^= member[:count, index]

        def announce(round_index: int, seeds: List[int], rows: np.ndarray) -> None:
            """One stage: Alice's parities over ``rows``, Bob's replies, then
            every mismatched record — of this stage or, as fixes flip them
            back, of earlier ones (the "cascade") — bisected lowest first."""
            nonlocal count
            packed = np.packbits(rows, axis=1)
            announced = _subset_parities(packed, reference_bits)
            replies = _subset_parities(packed, working_bits)
            log.record(CascadeSubsetAnnouncement(round_index, n, seeds, announced.tolist()))
            log.record(CascadeParityReply(round_index, replies.tolist()))
            member[count : count + len(seeds)] = rows
            mismatch[count : count + len(seeds)] = announced ^ replies
            count += len(seeds)
            while True:
                record = int(mismatch[:count].argmax())
                if not mismatch[record]:
                    return
                bisect(round_index, record)

        # ---------------- First pass: contiguous blocks ("subranges") -------- #
        if block_size:
            # Blocks are identified by offset, not seed.
            announce(-1, list(range(0, n, block_size)), _block_rows(n, block_size))

        # ---------------- Pseudo-random LFSR subset rounds ------------------- #
        rounds_used = 0
        for round_index in range(params.rounds):
            rounds_used += 1
            errors_before_round = len(searches)
            seeds = [self.rng.getrandbits(32) for _ in range(params.subsets_per_round)]
            seeds_used += seeds
            announce(round_index, seeds, lfsr_subset_rows(seeds, n, params.subset_density))

            # Adaptive early exit ("will not disclose too many bits if the
            # number of errors is low"): once a round of fresh subsets finds
            # nothing new to fix, further rounds would only disclose parities
            # without correcting anything.  At least two announcement stages
            # (block pass + one subset round, or two subset rounds) must have
            # run before the protocol may stop.
            had_earlier_stage = params.block_first_pass or round_index >= 1
            if had_earlier_stage and len(searches) == errors_before_round:
                break

        # Confirmation parities: fresh random subsets whose parities must all
        # agree for the block to be accepted — i.e. ``diff`` has even weight
        # over every one of them.
        seeds = [self.rng.getrandbits(32) for _ in range(params.confirmation_parities)]
        seeds_used += seeds
        rows = lfsr_subset_rows(seeds, n, params.subset_density)
        confirmed = not _subset_parities(np.packbits(rows, axis=1), diff).any()

        corrected = BitString.from_bytes(np.packbits(working_bits).tobytes())[:n]
        result = CascadeResult(
            corrected_key=corrected,
            errors_corrected=len(searches),
            # Every announced, bisected and confirmation parity is Eve's.
            disclosed_parities=count + bisections + len(seeds),
            rounds_used=rounds_used,
            bisection_queries=bisections,
            confirmed=confirmed,
            matches_reference=(corrected == reference_key),
            message_log=log,
        )
        result._ledger = _DisclosureLedger(
            n, params.subset_density, block_size, seeds_used, np.array(searches, dtype=np.uint64)
        )
        return result
