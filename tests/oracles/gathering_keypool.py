"""Block-gathering reference for :meth:`repro.core.keypool.KeyPool.draw_bits`.

The body ``draw_bits`` had before a draw inside the head block became one
slice of it, kept verbatim as a function of the pool: walk the blocks from
the head, append one slice per block touched, pop each block the draw
empties, and concatenate the pieces.  Obvious and slow, imported by no
production code; ``tests/test_store_draw.py`` holds the shipped draw to it —
same bits, blocks, head offset and counters — over random block layouts,
head offsets and draw sizes.
"""

from typing import List

from repro.core.keypool import KeyPoolExhaustedError
from repro.util.bits import BitString


def gathering_draw_bits(pool, count: int) -> BitString:
    """Consume ``count`` bits of ``pool`` in FIFO order."""
    if count < 0:
        raise ValueError("count must be non-negative")
    if count > pool._available_bits:
        raise KeyPoolExhaustedError(
            f"{pool.name}: need {count} bits, have {pool._available_bits}"
        )
    collected: List[BitString] = []
    needed = count
    while needed > 0:
        head = pool.blocks[0]
        available_in_head = len(head) - pool._head_offset
        take = min(needed, available_in_head)
        collected.append(head.bits[pool._head_offset : pool._head_offset + take])
        pool._head_offset += take
        needed -= take
        if pool._head_offset == len(head):
            pool.blocks.pop(0)
            pool._head_offset = 0
    pool.bits_consumed += count
    pool._available_bits -= count
    return BitString().concat(*collected)
