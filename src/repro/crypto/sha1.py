"""SHA-1 and HMAC-SHA1, implemented from scratch (FIPS-180 / RFC 2104).

Conventional IPsec security associations in the paper use "3DES, SHA1" for
traffic confidentiality and integrity, and IKE's key-derivation PRF is an
HMAC.  The simulated VPN gateway therefore needs a hash and an HMAC; both are
implemented here directly so the repository carries no external cryptographic
dependencies.

SHA-1 is used exactly as the 2003 system used it — as an integrity/PRF
primitive inside a trusted implementation — not as a collision-resistant
archival hash.

Layout.  There is one round implementation, :func:`_compress`, which takes a
five-word chaining state across one 64-byte block, and one padder,
:func:`_finish`, which runs a message tail through it and appends the FIPS-180
padding once.  Everything else is a composition of the two: :func:`sha1`
finishes from the initial state; :class:`HmacSha1` absorbs the key's two pad
blocks when it is constructed and finishes every message from those two
states, so a key that authenticates many messages pays for its pad blocks
once; :func:`prf_expand` keys one :class:`HmacSha1` and reuses it for every
T-block.

What is cached, and where.  The only thing kept between hashes is the pair of
keyed chaining states inside an :class:`HmacSha1`, and it lives exactly as
long as the object the caller holds — one ``prf_expand`` call, one
``hmac_sha1`` call.  Nothing at module level ever holds key bytes or anything
derived from them: a process-wide ``{key: state}`` table would keep every
SKEYID and SA authentication key ever used reachable for the life of the
process, long after the SA that owned it was deleted.  The module-level
constants below are the public FIPS-180 initial state and the RFC 2104 pad
bytes.
"""

from __future__ import annotations

import struct
from typing import Tuple

SHA1_BLOCK_SIZE = 64
SHA1_DIGEST_SIZE = 20

#: A SHA-1 chaining value: the five 32-bit words h0..h4.
_State = Tuple[int, int, int, int, int]

_INITIAL_STATE: _State = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0)
_M = 0xFFFFFFFF
_unpack_block = struct.Struct(">16I").unpack_from
_pack_state = struct.Struct(">5I").pack
#: RFC 2104's ``key XOR ipad`` / ``key XOR opad`` as byte translations.
_XOR_IPAD = bytes(b ^ 0x36 for b in range(256))
_XOR_OPAD = bytes(b ^ 0x5C for b in range(256))


def _compress(state: _State, data: bytes, offset: int) -> _State:
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


def _finish(state: _State, tail: bytes, total_length: int) -> bytes:
    """The digest of a message of which ``state`` has absorbed all but ``tail``.

    ``total_length`` is the whole message's length in bytes (what the FIPS-180
    length field records); the part already absorbed is a whole number of
    blocks.  The padding is built once, on the final partial block only.
    """
    whole = len(tail) - len(tail) % SHA1_BLOCK_SIZE
    for offset in range(0, whole, SHA1_BLOCK_SIZE):
        state = _compress(state, tail, offset)
    last = (
        tail[whole:]
        + b"\x80"
        + bytes((55 - len(tail)) % SHA1_BLOCK_SIZE)
        + (total_length * 8).to_bytes(8, "big")
    )
    for offset in range(0, len(last), SHA1_BLOCK_SIZE):
        state = _compress(state, last, offset)
    return _pack_state(*state)


def sha1(message: bytes) -> bytes:
    """Compute the 20-byte SHA-1 digest of ``message``."""
    message = bytes(message)
    return _finish(_INITIAL_STATE, message, len(message))


def sha1_hexdigest(message: bytes) -> str:
    """SHA-1 digest as a lowercase hex string."""
    return sha1(message).hex()


class HmacSha1:
    """HMAC-SHA1 (RFC 2104) under one key, for any number of messages.

    Construction absorbs the key's inner and outer pad blocks; every
    :meth:`digest` continues from those two chaining states, so the two
    blocks that depend only on the key are hashed once per key instead of
    once per message.  The states are the only thing the object holds — it
    keeps neither the key nor any message — and they go away with it.
    """

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes):
        key = bytes(key)
        if len(key) > SHA1_BLOCK_SIZE:
            key = sha1(key)
        block = key.ljust(SHA1_BLOCK_SIZE, b"\x00")
        self._inner = _compress(_INITIAL_STATE, block.translate(_XOR_IPAD), 0)
        self._outer = _compress(_INITIAL_STATE, block.translate(_XOR_OPAD), 0)

    def digest(self, message: bytes) -> bytes:
        """The 20-byte tag of ``message`` under this object's key."""
        message = bytes(message)
        inner = _finish(self._inner, message, SHA1_BLOCK_SIZE + len(message))
        return _finish(self._outer, inner, SHA1_BLOCK_SIZE + SHA1_DIGEST_SIZE)


def hmac_sha1(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA1 per RFC 2104."""
    return HmacSha1(key).digest(message)


#: prf+ numbers its blocks with one octet, so it can produce at most this many.
_PRF_MAX_BYTES = 255 * SHA1_DIGEST_SIZE


def prf_expand(key: bytes, seed: bytes, length: int) -> bytes:
    """Expand key material to an arbitrary length with iterated HMAC-SHA1.

    This mirrors the IKE-style ``prf+`` construction: T1 = prf(K, seed | 1),
    T2 = prf(K, T1 | seed | 2), ... concatenated and truncated.  The VPN
    gateway uses it to stretch (QKD bits || Diffie-Hellman-less nonce
    material) into the KEYMAT an SA needs.  The block counter is a single
    octet, so at most 255 blocks (5100 bytes) can be produced; asking for
    more raises :class:`ValueError` rather than wrapping the counter and
    repeating output.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    if length > _PRF_MAX_BYTES:
        raise ValueError(
            f"prf+ yields at most {_PRF_MAX_BYTES} bytes (255 one-octet-numbered "
            f"blocks); {length} requested"
        )
    prf = HmacSha1(key)
    blocks = []
    previous = b""
    for counter in range(1, -(-length // SHA1_DIGEST_SIZE) + 1):
        previous = prf.digest(previous + seed + bytes([counter]))
        blocks.append(previous)
    return b"".join(blocks)[:length]
