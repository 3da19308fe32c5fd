"""Binary wire codec primitives for the hot protocol messages.

The sifting and Cascade transactions dominate the public-channel byte volume:
a 500k-slot frame's run-length indication is a few thousand small integers,
and every Cascade round announces 64 seeds and 64 single-bit parities.  The
JSON reference encoding (``repro.core.messages._encode_json_payload``) spends
5-10 bytes per value on decimal digits and punctuation; the binary codec here
packs the same content about an order of magnitude tighter, which shrinks the
Wegman-Carter transcripts (and therefore the per-block Toeplitz chunk count)
proportionally.

Layout rules (documented for interoperability in ``docs/API.md``):

* every binary message starts with a 1-byte kind tag — distinct from ``{``
  (0x7B), so binary and JSON messages can coexist in one transcript and be
  told apart from their first byte;
* **kind-tag allocation policy**: the kind byte is a single flat namespace
  shared by every subsystem that reuses these primitives, and ranges are
  claimed here before any kind inside them is defined, so two subsystems
  can never collide.  Current allocation: ``0x01..0x06`` the distillation
  transcript messages below; ``0x07..0x1F`` reserved for future transcript
  kinds; ``0x20..0x3F`` the networked key-delivery protocol
  (:mod:`repro.netkms`, which also carries an explicit version byte for
  negotiated evolution); ``0x40..0x7A`` unallocated; ``0x7B`` is JSON's
  ``{``; ``0x7C..0xFF`` unallocated.  A new subsystem claims a contiguous
  sub-range by extending this list (and the constants below) in the same
  change that introduces its first message kind;
* fixed-width header fields are **little-endian** (``<u32`` / ``<i32``);
* variable-length non-negative integers use **LEB128 varints**: 7 value bits
  per byte, least-significant group first, high bit set on every byte except
  the last;
* bit sequences (bases, accept masks, parities) are packed 8 per byte,
  most-significant bit first (``np.packbits`` order), zero-padded at the end.

This module holds the kinds, the header helpers and the scalar varint
(:func:`encode_varint`, :func:`read_varint`: all :mod:`repro.netkms` needs),
and imports nothing beyond :mod:`struct`.  The array codecs the transcript
messages use (varint blocks, bitmaps, ascending-index delta coding) are
vectorized over numpy and live in :mod:`repro.core.wire_arrays`, so a key
server that frames netkms messages never loads numpy.
"""

from __future__ import annotations

import struct
from typing import Tuple

#: Message kind tags (first byte of every binary encoding).
KIND_SIFT = 0x01
KIND_SIFT_RESPONSE = 0x02
KIND_CASCADE_SUBSETS = 0x03
KIND_CASCADE_PARITIES = 0x04
KIND_CASCADE_BISECT = 0x05
KIND_CASCADE_BISECT_REPLY = 0x06

#: Kind ranges claimed by other subsystems (see the allocation policy in the
#: module docstring).  The transcript codec owns 0x01..0x1F; the networked
#: key-delivery protocol (repro.netkms) defines its kinds inside
#: [KIND_NETKMS_FIRST, KIND_NETKMS_LAST] and nowhere else.
KIND_NETKMS_FIRST = 0x20
KIND_NETKMS_LAST = 0x3F


class WireDecodeError(ValueError):
    """Raised when a byte string is not a valid binary protocol message."""


# --------------------------------------------------------------------------- #
# Varints (LEB128), one at a time
# --------------------------------------------------------------------------- #

#: Every one-byte varint, so the commonest encoding allocates nothing; a
#: two-byte one is one ``<u16`` pack.
_ONE_BYTE = [bytes((value,)) for value in range(0x80)]
_U16 = struct.Struct("<H")


def encode_varint(value: int) -> bytes:
    """One varint (:func:`~repro.core.wire_arrays.encode_varints` writes one
    per value); like :func:`read_varint`, it answers a one- or two-byte value
    without a loop."""
    if value < 0x80:
        if value >= 0:
            return _ONE_BYTE[value]
    elif value < 0x4000:
        return _U16.pack((value & 0x7F) | 0x80 | (value & 0x3F80) << 1)
    if value < 0 or value >= (1 << 64):
        raise ValueError("varints encode non-negative 64-bit integers only")
    out = bytearray()
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def read_varint(data: bytes, offset: int) -> Tuple[int, int]:
    """The varint starting at ``data[offset]``: ``(value, offset after it)``.

    Raises :class:`WireDecodeError` on the same inputs as
    :func:`~repro.core.wire_arrays.decode_varints`: a truncated varint, one longer than 10 bytes, or
    one overflowing 64 bits.
    """
    end = len(data)
    if offset < end:
        low = data[offset]
        if low < 0x80:
            return low, offset + 1
        if offset + 1 < end and data[offset + 1] < 0x80:
            return (low & 0x7F) | (data[offset + 1] << 7), offset + 2
    value = 0
    for shift in range(0, 70, 7):
        if offset >= end:
            raise WireDecodeError("truncated varint")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            if value >= 1 << 64:
                raise WireDecodeError("varint overflows 64 bits")
            return value, offset
    raise WireDecodeError("varint longer than 10 bytes (value > 64 bits)")


# --------------------------------------------------------------------------- #
# Bitmaps (np.packbits order: MSB of each byte first)
# --------------------------------------------------------------------------- #

def bitmap_size(count: int) -> int:
    """Bytes occupied by a ``count``-bit packed bitmap."""
    return (count + 7) // 8


# --------------------------------------------------------------------------- #
# Header helpers
# --------------------------------------------------------------------------- #

def pack_header(kind: int, fmt: str, *fields: int) -> bytes:
    """One kind byte followed by fixed little-endian header fields.

    ``fmt`` is a :mod:`struct` format without byte-order prefix, e.g.
    ``"IIII"`` for four ``<u32`` fields.
    """
    try:
        return bytes([kind]) + struct.pack("<" + fmt, *fields)
    except struct.error as exc:
        raise ValueError(f"header field out of range: {exc}") from None


def unpack_header(data: bytes, kind: int, fmt: str) -> Tuple[Tuple[int, ...], bytes]:
    """Validate the kind byte, unpack the header, return (fields, payload)."""
    size = struct.calcsize("<" + fmt)
    if len(data) < 1 + size:
        raise WireDecodeError("message shorter than its fixed header")
    if data[0] != kind:
        raise WireDecodeError(f"expected kind 0x{kind:02x}, got 0x{data[0]:02x}")
    return struct.unpack_from("<" + fmt, data, 1), data[1 + size :]
