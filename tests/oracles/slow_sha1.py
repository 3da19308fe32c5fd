"""Slow definitions for :mod:`repro.crypto.sha1`.

``slow_sha1`` is the body ``sha1`` had before the module was split into a
compression function and a padder, kept verbatim: the message is padded by
repeated concatenation, the schedule and all 80 rounds run in one loop that
branches on the round index, and every rotation is a function call.
``prf_plus_oracle`` is prf+ written against the standard library's HMAC.
Obvious and slow, imported by no production code;
``tests/test_crypto_modes_hash.py`` holds the shipped module to both.
"""

import hashlib
import hmac
import struct


def _left_rotate(value: int, amount: int) -> int:
    value &= 0xFFFFFFFF
    return ((value << amount) | (value >> (32 - amount))) & 0xFFFFFFFF


def slow_sha1(message: bytes) -> bytes:
    """Compute the 20-byte SHA-1 digest of ``message``."""
    h0, h1, h2, h3, h4 = (
        0x67452301,
        0xEFCDAB89,
        0x98BADCFE,
        0x10325476,
        0xC3D2E1F0,
    )

    original_bit_length = len(message) * 8
    message = bytes(message) + b"\x80"
    while len(message) % 64 != 56:
        message += b"\x00"
    message += struct.pack(">Q", original_bit_length)

    for chunk_start in range(0, len(message), 64):
        chunk = message[chunk_start : chunk_start + 64]
        words = list(struct.unpack(">16I", chunk))
        for i in range(16, 80):
            words.append(
                _left_rotate(words[i - 3] ^ words[i - 8] ^ words[i - 14] ^ words[i - 16], 1)
            )

        a, b, c, d, e = h0, h1, h2, h3, h4
        for i in range(80):
            if i < 20:
                f = (b & c) | ((~b) & d)
                k = 0x5A827999
            elif i < 40:
                f = b ^ c ^ d
                k = 0x6ED9EBA1
            elif i < 60:
                f = (b & c) | (b & d) | (c & d)
                k = 0x8F1BBCDC
            else:
                f = b ^ c ^ d
                k = 0xCA62C1D6
            temp = (_left_rotate(a, 5) + f + e + k + words[i]) & 0xFFFFFFFF
            e = d
            d = c
            c = _left_rotate(b, 30)
            b = a
            a = temp

        h0 = (h0 + a) & 0xFFFFFFFF
        h1 = (h1 + b) & 0xFFFFFFFF
        h2 = (h2 + c) & 0xFFFFFFFF
        h3 = (h3 + d) & 0xFFFFFFFF
        h4 = (h4 + e) & 0xFFFFFFFF

    return struct.pack(">5I", h0, h1, h2, h3, h4)


def prf_plus_oracle(key: bytes, seed: bytes, length: int) -> bytes:
    """prf+ over stdlib HMAC-SHA1: T1 = prf(K, seed | 1), Tn = prf(K, Tn-1 | seed | n)."""
    output = previous = b""
    counter = 1
    while len(output) < length:
        if counter > 255:
            raise ValueError("prf+ numbers its blocks with one octet")
        previous = hmac.new(key, previous + seed + bytes([counter]), hashlib.sha1).digest()
        output += previous
        counter += 1
    return output[:length]
