"""The array codecs of the binary wire format, vectorized over numpy.

The layout is the one :mod:`repro.core.wire` documents.  Encoding or
decoding an n-value varint block costs a handful of numpy passes (one per
varint byte position, at most 10), never a Python-level loop over values;
bitmaps pack and unpack with ``np.packbits``.  They live apart from the
scalar varint in :mod:`repro.core.wire` so that code framing netkms messages
never imports numpy.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.core.wire import WireDecodeError, encode_varint

_U32_MAX = (1 << 32) - 1

#: Below this many values the numpy fan-out costs more than a Python loop
#: (bisect queries encode a few hundred tiny deltas at a time).
_SCALAR_VARINT_CUTOFF = 256


def _encode_varints_scalar(values) -> bytes:
    """Plain-loop varint encoder for short sequences."""
    out = bytearray()
    for value in values:
        as_int = int(value)
        if as_int != value:
            raise ValueError("varints encode integers, not fractional values")
        out += encode_varint(as_int)
    return bytes(out)


def encode_varints(values: Union[Sequence[int], np.ndarray]) -> bytes:
    """Encode a sequence of non-negative integers as concatenated varints."""
    if not isinstance(values, np.ndarray) and len(values) < _SCALAR_VARINT_CUTOFF:
        return _encode_varints_scalar(values)
    arr = values if isinstance(values, np.ndarray) else np.asarray(values)
    if arr.size == 0:
        return b""
    if arr.size < _SCALAR_VARINT_CUTOFF:
        return _encode_varints_scalar(arr.tolist())
    if arr.dtype == object or not np.issubdtype(arr.dtype, np.integer):
        # Mixed / oversized Python ints (or a lossy float promotion): go back
        # to the original values and validate each explicitly.
        source = values if not isinstance(values, np.ndarray) else np.ravel(arr)
        converted = [int(v) for v in source]
        if any(c != v for c, v in zip(converted, source)):
            raise ValueError("varints encode integers, not fractional values")
        if any(v < 0 or v >= (1 << 64) for v in converted):
            raise ValueError("varints encode non-negative 64-bit integers only")
        arr = np.array(converted, dtype=np.uint64)
    elif arr.size and int(arr.min()) < 0:
        raise ValueError("varints encode non-negative integers only")
    arr = arr.astype(np.uint64, copy=False)
    max_value = int(arr.max())
    if max_value < 0x80:
        # Every value fits one varint byte: the encoding is the byte string.
        return arr.astype(np.uint8).tobytes()
    # Bytes per value: 1 + one extra for every 7-bit group above the first.
    nbytes = np.ones(arr.shape, dtype=np.intp)
    for shift in range(7, max_value.bit_length(), 7):
        nbytes += arr >= np.uint64(1 << shift)
    total = int(nbytes.sum())
    out = np.zeros(total, dtype=np.uint8)
    ends = np.cumsum(nbytes)
    starts = ends - nbytes
    for j in range(int(nbytes.max())):
        sel = nbytes > j
        chunk = (arr[sel] >> np.uint64(7 * j)) & np.uint64(0x7F)
        cont = (nbytes[sel] - 1 > j).astype(np.uint8) << 7
        out[starts[sel] + j] = chunk.astype(np.uint8) | cont
    return out.tobytes()


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

def encode_ascending_indices(indices: Union[Sequence[int], np.ndarray]) -> bytes:
    """Delta-plus-varint encode a non-decreasing index sequence.

    Cascade bisect queries carry the slot indices of the queried half-range,
    which are always ascending; the deltas are tiny, so this is 1-2 bytes per
    index.  Raises ``ValueError`` if the sequence is not non-decreasing
    (callers fall back to the JSON reference encoding in that case).
    """
    if not isinstance(indices, np.ndarray) and len(indices) < _SCALAR_VARINT_CUTOFF:
        deltas = []
        previous = 0
        for index in indices:
            index = int(index)
            if index < previous or index < 0:
                raise ValueError("indices must be non-negative and non-decreasing")
            deltas.append(index - previous)
            previous = index
        return _encode_varints_scalar(deltas)
    arr = np.asarray(indices, dtype=np.int64)
    if arr.size == 0:
        return b""
    deltas = np.empty_like(arr)
    deltas[0] = arr[0]
    np.subtract(arr[1:], arr[:-1], out=deltas[1:])
    if arr[0] < 0 or (arr.size > 1 and int(deltas[1:].min()) < 0):
        raise ValueError("indices must be non-negative and non-decreasing")
    return encode_varints(deltas)


def decode_ascending_indices(data: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`encode_ascending_indices` (returns an int64 array)."""
    deltas = decode_varints(data, count)
    if count and int(deltas.max()) > _U32_MAX:
        raise WireDecodeError("index delta out of range")
    return np.cumsum(deltas.astype(np.int64))
