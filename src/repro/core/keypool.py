"""The distilled-key reservoir behind the VPN / OPC interface.

The top of the paper's protocol stack (Fig 9) is the "VPN / OPC Interface":
distilled, authenticated key bits accumulate in a reservoir from which
consumers — the IKE daemon reseeding its security associations, the one-time
pad encryptor, the authentication stage replenishing its own secret pool —
draw blocks of key.  The reservoir is where the paper's "race between the
rate at which keying material is put into place and the rate at which it is
consumed" becomes concrete, so the pool tracks both sides of that race.

The consuming side is on every served key's path, so it does as little as
the FIFO allows: the level is a counter, not a sum over blocks, and a draw
that ends inside (or exactly at the end of) the head block is one slice of
it.  Only a draw across a block boundary gathers pieces and joins them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.util.bits import BitString


class KeyPoolExhaustedError(Exception):
    """Raised when a consumer requests more key than the pool holds.

    For the authentication pool this is the paper's denial-of-service
    concern: "an adversary forces a QKD system to exhaust its stockpile of
    key material, at which point it can no longer perform authentication."
    """


@dataclass
class KeyBlock:
    """One block of distilled key delivered by the QKD protocol engine."""

    bits: BitString
    block_id: int
    #: Engine bookkeeping carried along for reporting: QBER seen for this
    #: block and the number of sifted bits it was distilled from.
    qber: float = 0.0
    sifted_bits: int = 0
    created_at: float = 0.0

    def __len__(self) -> int:
        return len(self.bits)


@dataclass
class KeyPool:
    """A FIFO reservoir of distilled key bits shared by Alice and Bob.

    Each endpoint holds its own :class:`KeyPool`; because the QKD protocols
    guarantee both ends distilled identical blocks in identical order, paired
    pools stay bit-for-bit synchronised as long as consumers on both sides
    draw the same amounts in the same order (which the IKE extension
    negotiates explicitly via its Qblock offer/reply).

    ``blocks`` is read-only to callers: the pool keeps its level as a
    counter moved by :meth:`add_block`, :meth:`draw_bits` and
    :meth:`drop_head_blocks`, so a block appended to or removed from the
    list behind its back would not be counted.
    """

    name: str = "keypool"
    blocks: List[KeyBlock] = field(default_factory=list)
    #: Bits already consumed from the head block.
    _head_offset: int = 0
    bits_added: int = 0
    bits_consumed: int = 0
    #: Bits dropped by age-based expiry (see :meth:`drop_head_blocks`).
    bits_expired: int = 0
    #: Optional cap on stored bits, modelling a bounded key store.
    capacity_bits: Optional[int] = None
    #: ``sum(len(block) for block in blocks) - _head_offset``, kept current.
    _available_bits: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._available_bits = sum(len(block) for block in self.blocks) - self._head_offset

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #

    def add_block(self, block: KeyBlock) -> None:
        """Append a freshly distilled block."""
        if self.capacity_bits is not None:
            if self._available_bits + len(block) > self.capacity_bits:
                raise ValueError("key pool capacity exceeded")
        self.blocks.append(block)
        self.bits_added += len(block)
        self._available_bits += len(block)

    def add_bits(self, bits: BitString, block_id: int = -1, qber: float = 0.0) -> None:
        """Convenience producer used by tests and simple examples."""
        self.add_block(KeyBlock(bits=bits, block_id=block_id, qber=qber))

    # ------------------------------------------------------------------ #
    # Consumer side
    # ------------------------------------------------------------------ #

    @property
    def available_bits(self) -> int:
        """Bits currently available for consumption."""
        return self._available_bits

    @property
    def available_bytes(self) -> int:
        return self.available_bits // 8

    def draw_bits(self, count: int) -> BitString:
        """Consume ``count`` bits in FIFO order."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if count > self._available_bits:
            raise KeyPoolExhaustedError(
                f"{self.name}: need {count} bits, have {self._available_bits}"
            )
        self.bits_consumed += count
        self._available_bits -= count
        if count:
            head = self.blocks[0].bits
            start = self._head_offset
            end = start + count
            if end <= len(head):
                if end == len(head):
                    self.blocks.pop(0)
                    self._head_offset = 0
                else:
                    self._head_offset = end
                return head[start:end]
        collected: List[BitString] = []
        needed = count
        while needed > 0:
            head = self.blocks[0].bits
            take = min(needed, len(head) - self._head_offset)
            collected.append(head[self._head_offset : self._head_offset + take])
            self._head_offset += take
            needed -= take
            if self._head_offset == len(head):
                self.blocks.pop(0)
                self._head_offset = 0
        return BitString().concat(*collected)

    # ------------------------------------------------------------------ #
    # Ageing
    # ------------------------------------------------------------------ #

    def drop_head_blocks(self, count: int) -> int:
        """Drop up to ``count`` whole blocks from the FIFO head; returns bits.

        The expiry primitive: dropped bits are accounted as expired (not
        consumed), and a partially consumed head block only counts its
        remaining bits.  Two synchronised pools dropping the same count stay
        in lock-step.
        """
        dropped = 0
        for _ in range(min(count, len(self.blocks))):
            head = self.blocks.pop(0)
            dropped += len(head) - self._head_offset
            self._head_offset = 0
        self.bits_expired += dropped
        self._available_bits -= dropped
        return dropped

    def __repr__(self) -> str:
        return (
            f"KeyPool({self.name}: available={self.available_bits} bits, "
            f"added={self.bits_added}, consumed={self.bits_consumed})"
        )
