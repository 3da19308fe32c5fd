"""Scalar reference for the lane kernel of :mod:`repro.crypto.sha1`.

``scalar_compress`` and ``scalar_finish`` are the ``_compress`` and
``_finish`` the module had before a chaining state became k lanes wide, kept
verbatim: one five-word state, one 64-byte block, 32-bit masks.  A single
hash at a time is exactly what the shipped kernel's lane j must equal
whatever its neighbours hold, so ``tests/test_sha1_lanes.py`` runs each lane
through here on its own.  ``tests/oracles/slow_sha1.py`` is the older,
loop-per-round definition this body was itself held to; it stays for the
whole-message differentials.  Imported by no production code.
"""

import struct
from typing import Tuple

SHA1_BLOCK_SIZE = 64

#: A SHA-1 chaining value: the five 32-bit words h0..h4.
State = Tuple[int, int, int, int, int]

INITIAL_STATE: State = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0)
_M = 0xFFFFFFFF
_unpack_block = struct.Struct(">16I").unpack_from
_pack_state = struct.Struct(">5I").pack


def scalar_compress(state: State, data: bytes, offset: int = 0) -> State:
    """One application of the SHA-1 compression function.

    Returns the chaining state after the 64-byte block at ``data[offset:]``.
    The 80 rounds are written as four stages of five rounds per iteration:
    each stage has its own round function and constant, so no round tests
    its index, and the five working variables take turns being the one
    that is overwritten, so no round shuffles them.  Rotations are inline,
    and the 5-bit one is left unmasked: the sum it feeds is masked anyway.
    """
    w = list(_unpack_block(data, offset))
    extend = w.append
    for i in range(16, 80):
        x = w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]
        extend(((x << 1) | (x >> 31)) & _M)

    a, b, c, d, e = state
    # fmt: off
    for i in range(0, 20, 5):      # Ch(b, c, d) = d ^ (b & (c ^ d))
        e = (((a << 5) | (a >> 27)) + (d ^ (b & (c ^ d))) + e + 0x5A827999 + w[i]) & _M
        b = ((b << 30) | (b >> 2)) & _M
        d = (((e << 5) | (e >> 27)) + (c ^ (a & (b ^ c))) + d + 0x5A827999 + w[i + 1]) & _M
        a = ((a << 30) | (a >> 2)) & _M
        c = (((d << 5) | (d >> 27)) + (b ^ (e & (a ^ b))) + c + 0x5A827999 + w[i + 2]) & _M
        e = ((e << 30) | (e >> 2)) & _M
        b = (((c << 5) | (c >> 27)) + (a ^ (d & (e ^ a))) + b + 0x5A827999 + w[i + 3]) & _M
        d = ((d << 30) | (d >> 2)) & _M
        a = (((b << 5) | (b >> 27)) + (e ^ (c & (d ^ e))) + a + 0x5A827999 + w[i + 4]) & _M
        c = ((c << 30) | (c >> 2)) & _M
    for i in range(20, 40, 5):     # Parity(b, c, d)
        e = (((a << 5) | (a >> 27)) + (b ^ c ^ d) + e + 0x6ED9EBA1 + w[i]) & _M
        b = ((b << 30) | (b >> 2)) & _M
        d = (((e << 5) | (e >> 27)) + (a ^ b ^ c) + d + 0x6ED9EBA1 + w[i + 1]) & _M
        a = ((a << 30) | (a >> 2)) & _M
        c = (((d << 5) | (d >> 27)) + (e ^ a ^ b) + c + 0x6ED9EBA1 + w[i + 2]) & _M
        e = ((e << 30) | (e >> 2)) & _M
        b = (((c << 5) | (c >> 27)) + (d ^ e ^ a) + b + 0x6ED9EBA1 + w[i + 3]) & _M
        d = ((d << 30) | (d >> 2)) & _M
        a = (((b << 5) | (b >> 27)) + (c ^ d ^ e) + a + 0x6ED9EBA1 + w[i + 4]) & _M
        c = ((c << 30) | (c >> 2)) & _M
    for i in range(40, 60, 5):     # Maj(b, c, d) = (b & c) | (d & (b | c))
        e = (((a << 5) | (a >> 27)) + ((b & c) | (d & (b | c))) + e + 0x8F1BBCDC + w[i]) & _M
        b = ((b << 30) | (b >> 2)) & _M
        d = (((e << 5) | (e >> 27)) + ((a & b) | (c & (a | b))) + d + 0x8F1BBCDC + w[i + 1]) & _M
        a = ((a << 30) | (a >> 2)) & _M
        c = (((d << 5) | (d >> 27)) + ((e & a) | (b & (e | a))) + c + 0x8F1BBCDC + w[i + 2]) & _M
        e = ((e << 30) | (e >> 2)) & _M
        b = (((c << 5) | (c >> 27)) + ((d & e) | (a & (d | e))) + b + 0x8F1BBCDC + w[i + 3]) & _M
        d = ((d << 30) | (d >> 2)) & _M
        a = (((b << 5) | (b >> 27)) + ((c & d) | (e & (c | d))) + a + 0x8F1BBCDC + w[i + 4]) & _M
        c = ((c << 30) | (c >> 2)) & _M
    for i in range(60, 80, 5):     # Parity(b, c, d)
        e = (((a << 5) | (a >> 27)) + (b ^ c ^ d) + e + 0xCA62C1D6 + w[i]) & _M
        b = ((b << 30) | (b >> 2)) & _M
        d = (((e << 5) | (e >> 27)) + (a ^ b ^ c) + d + 0xCA62C1D6 + w[i + 1]) & _M
        a = ((a << 30) | (a >> 2)) & _M
        c = (((d << 5) | (d >> 27)) + (e ^ a ^ b) + c + 0xCA62C1D6 + w[i + 2]) & _M
        e = ((e << 30) | (e >> 2)) & _M
        b = (((c << 5) | (c >> 27)) + (d ^ e ^ a) + b + 0xCA62C1D6 + w[i + 3]) & _M
        d = ((d << 30) | (d >> 2)) & _M
        a = (((b << 5) | (b >> 27)) + (c ^ d ^ e) + a + 0xCA62C1D6 + w[i + 4]) & _M
        c = ((c << 30) | (c >> 2)) & _M
    # fmt: on

    h0, h1, h2, h3, h4 = state
    return ((h0 + a) & _M, (h1 + b) & _M, (h2 + c) & _M, (h3 + d) & _M, (h4 + e) & _M)


def scalar_finish(state: State, tail: bytes, total_length: int) -> bytes:
    """The digest of a message of which ``state`` has absorbed all but ``tail``.

    ``total_length`` is the whole message's length in bytes (what the FIPS-180
    length field records); the part already absorbed is a whole number of
    blocks.  The padding is built once, on the final partial block only.
    """
    whole = len(tail) - len(tail) % SHA1_BLOCK_SIZE
    for offset in range(0, whole, SHA1_BLOCK_SIZE):
        state = scalar_compress(state, tail, offset)
    last = (
        tail[whole:]
        + b"\x80"
        + bytes((55 - len(tail)) % SHA1_BLOCK_SIZE)
        + (total_length * 8).to_bytes(8, "big")
    )
    for offset in range(0, len(last), SHA1_BLOCK_SIZE):
        state = scalar_compress(state, last, offset)
    return _pack_state(*state)


def scalar_sha1(message: bytes) -> bytes:
    """SHA-1 of ``message`` through the two functions above."""
    return scalar_finish(INITIAL_STATE, message, len(message))
