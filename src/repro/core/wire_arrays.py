"""The array codecs of the binary wire format.

The layout is the one :mod:`repro.core.wire` documents.  Decoding an
n-value varint block costs a handful of numpy passes (one per varint byte
position, at most 10), never a Python-level loop over values; encoding is
one scalar varint per value; bitmaps pack and unpack with ``np.packbits``.
They live apart from the scalar varint in :mod:`repro.core.wire` so that
code framing netkms messages never imports numpy.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

import numpy as np

from repro.core.wire import WireDecodeError, encode_varint

_U32_MAX = (1 << 32) - 1


def encode_varints(values: Iterable[int]) -> bytes:
    """Encode non-negative integers as concatenated varints.

    One :func:`~repro.core.wire.encode_varint` per value; a fractional value
    is refused here, a negative one or one of 64 bits or more there.
    """
    out = bytearray()
    for value in values:
        as_int = int(value)
        if as_int != value:
            raise ValueError("varints encode integers, not fractional values")
        out += encode_varint(as_int)
    return bytes(out)


def decode_varints(data: bytes, expected_count: int) -> np.ndarray:
    """Decode ``expected_count`` concatenated varints spanning all of ``data``.

    Returns a ``uint64`` array.  Raises :class:`WireDecodeError` on a
    truncated final varint, a wrong count, an over-long (> 10 byte) varint,
    or a 10-byte varint overflowing 64 bits — all detected *before* any
    value-sized allocation, so a hostile message cannot force large work.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    if buf.size == 0:
        if expected_count != 0:
            raise WireDecodeError(
                f"expected {expected_count} varints, got empty payload"
            )
        return np.zeros(0, dtype=np.uint64)
    ends = np.flatnonzero(buf < 0x80)
    if ends.size == 0 or ends[-1] != buf.size - 1:
        raise WireDecodeError("truncated varint at end of payload")
    if ends.size != expected_count:
        raise WireDecodeError(
            f"expected {expected_count} varints, payload holds {ends.size}"
        )
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    max_len = int(lengths.max())
    if max_len > 10:
        raise WireDecodeError("varint longer than 10 bytes (value > 64 bits)")
    values = np.zeros(ends.size, dtype=np.uint64)
    for j in range(max_len):
        sel = lengths > j
        group = buf[starts[sel] + j].astype(np.uint64) & np.uint64(0x7F)
        if 7 * j >= 64 or (j == 9 and int(group.max(initial=0)) > 1):
            raise WireDecodeError("varint overflows 64 bits")
        values[sel] |= group << np.uint64(7 * j)
    return values


# --------------------------------------------------------------------------- #
# Bitmaps (np.packbits order: MSB of each byte first)
# --------------------------------------------------------------------------- #

def pack_bitmap(bits: Union[Sequence[int], np.ndarray]) -> bytes:
    """Pack a 0/1 sequence 8 per byte, MSB first, zero-padded at the end."""
    arr = np.asarray(bits)
    if arr.size == 0:
        return b""
    if arr.dtype != bool:
        arr = arr != 0
    return np.packbits(arr).tobytes()


def unpack_bitmap(data: bytes, count: int) -> np.ndarray:
    """Unpack ``count`` bits packed by :func:`pack_bitmap` into a uint8 array."""
    expected = (count + 7) // 8
    if len(data) != expected:
        raise WireDecodeError(
            f"bitmap for {count} bits must be {expected} bytes, got {len(data)}"
        )
    if count == 0:
        return np.zeros(0, dtype=np.uint8)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=count)
    return bits


# --------------------------------------------------------------------------- #
# Delta coding for ascending index lists (Cascade bisect queries)
# --------------------------------------------------------------------------- #

def encode_ascending_indices(indices: Iterable[int]) -> bytes:
    """Delta-plus-varint encode a non-decreasing index sequence.

    Cascade bisect queries carry the slot indices of the queried half-range,
    which are always ascending; the deltas are tiny, so this is 1-2 bytes per
    index.  Raises ``ValueError`` if the sequence is not non-decreasing
    (callers fall back to the JSON reference encoding in that case).
    """
    out = bytearray()
    previous = 0
    for index in indices:
        index = int(index)
        if index < previous:
            raise ValueError("indices must be non-negative and non-decreasing")
        out += encode_varint(index - previous)
        previous = index
    return bytes(out)


def decode_ascending_indices(data: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`encode_ascending_indices` (returns an int64 array)."""
    deltas = decode_varints(data, count)
    if count and int(deltas.max()) > _U32_MAX:
        raise WireDecodeError("index delta out of range")
    return np.cumsum(deltas.astype(np.int64))
