"""SHA-1 and HMAC-SHA1, implemented from scratch (FIPS-180 / RFC 2104).

Conventional IPsec security associations in the paper use "3DES, SHA1" for
traffic confidentiality and integrity, and IKE's key-derivation PRF is an
HMAC.  The simulated VPN gateway therefore needs a hash and an HMAC; both are
implemented here directly so the repository carries no external cryptographic
dependencies.

SHA-1 is used exactly as the 2003 system used it — as an integrity/PRF
primitive inside a trusted implementation — not as a collision-resistant
archival hash.

Layout.  There is one round implementation, :func:`_compress`, and it is k
lanes wide: a chaining state is five Python ints holding lane j's 32-bit word
at bit ``64 * j``, and one call absorbs one 64-byte block into every lane.  A
Python int operation costs almost the same at 128 or 512 bits as at 32, so k
independent hashes packed this way cost barely more than one — and a single
hash is simply the width-1 case of the same body; there is no scalar copy
beside it.  There is one padder, :func:`_finish`, which runs k equally long
message tails through it and appends the FIPS-180 padding once.  Everything
else is a composition of the two: :func:`sha1` finishes one lane from the
initial state; :class:`HmacSha1` absorbs the key's two pad blocks — as the two
lanes of one call — when it is constructed and finishes every message from
those two states, so a key that authenticates many messages pays for its pad
blocks once; :func:`prf_expand` keys one :class:`HmacSha1`, reuses it for
every T-block, and given several equally long seeds computes their chains as
lanes in lock-step.

What is cached, and where.  The only thing kept between hashes is the pair of
keyed chaining states inside an :class:`HmacSha1`, and it lives exactly as
long as the object the caller holds — one ``prf_expand`` call, one
``hmac_sha1`` call, the life of one security association.  Nothing at module
level ever holds key bytes or anything derived from them: a process-wide
``{key: state}`` table would keep every SKEYID and SA authentication key ever
used reachable for the life of the process, long after the SA that owned it
was deleted.  What module level does hold is public: the FIPS-180 initial
state, the RFC 2104 pad bytes, and :func:`_lane_constants`' memo of the mask
and the four round constants repeated per lane, keyed by the lane count.
"""

from __future__ import annotations

import functools
import struct
from typing import List, Sequence, Tuple, Union

SHA1_BLOCK_SIZE = 64
SHA1_DIGEST_SIZE = 20

#: A SHA-1 chaining value, k lanes wide: the five words h0..h4, each holding
#: lane j's 32-bit word at bit ``64 * j``.  One lane is the plain five words.
_State = Tuple[int, int, int, int, int]

_INITIAL_STATE: _State = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0)
_M = 0xFFFFFFFF
_LANE_BITS = 64
_unpack_block = struct.Struct(">16I").unpack_from
_pack_state = struct.Struct(">5I").pack
#: RFC 2104's ``key XOR ipad`` / ``key XOR opad`` as byte translations.
_XOR_IPAD = bytes(b ^ 0x36 for b in range(256))
_XOR_OPAD = bytes(b ^ 0x5C for b in range(256))


@functools.lru_cache(maxsize=32)
def _lane_constants(lanes: int) -> Tuple[int, int, int, int, int, int]:
    """``(ones, mask, K0, K1, K2, K3)`` for a state ``lanes`` wide.

    ``ones`` has bit ``64 * j`` set for every lane, so ``value * ones`` is a
    32-bit value repeated in each; the mask and FIPS-180's four round
    constants are held that way.
    """
    ones = sum(1 << (_LANE_BITS * lane) for lane in range(lanes))
    return (ones,) + tuple(
        value * ones for value in (_M, 0x5A827999, 0x6ED9EBA1, 0x8F1BBCDC, 0xCA62C1D6)
    )


def _widen(state: _State, lanes: int) -> _State:
    """A one-lane chaining state repeated in each of ``lanes`` lanes."""
    ones = _lane_constants(lanes)[0]
    return tuple(word * ones for word in state)


def _compress(state: _State, tails: Sequence[bytes], offset: int) -> _State:
    """One application of the SHA-1 compression function in every lane.

    ``state`` is ``len(tails)`` lanes wide; returns it after lane j has
    absorbed the 64-byte block at ``tails[j][offset:]``.  The 16 message
    words are packed column-wise (word i of every lane in one integer), and
    from there each operation is the scalar one done to all lanes at once:
    XOR, AND and OR never leave a lane; a sum of five 32-bit terms, or a
    word shifted left by up to 30, stays inside its lane's 64 bits and is
    masked back to 32; a right shift drags the lane above into the vacated
    high bits, where the next mask clears it.  The one place that is not
    soon enough is the 5-bit rotation, whose ``>> 27`` feeds a sum before
    any mask — 27 dragged bits at the top of a lane plus a carry would
    spill into the next lane — so it alone is masked on its own.

    The 80 rounds are written as four stages of five rounds per iteration:
    each stage has its own round function and constant, so no round tests
    its index, and the five working variables take turns being the one
    that is overwritten, so no round shuffles them.
    """
    _, mask, k0, k1, k2, k3 = _lane_constants(len(tails))
    w = list(_unpack_block(tails[0], offset))
    for lane in range(1, len(tails)):
        shift = _LANE_BITS * lane
        w = [x | (y << shift) for x, y in zip(w, _unpack_block(tails[lane], offset))]
    extend = w.append
    for i in range(16, 80):
        x = w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]
        extend(((x << 1) | (x >> 31)) & mask)

    a, b, c, d, e = state
    # fmt: off
    for i in range(0, 20, 5):      # Ch(b, c, d) = d ^ (b & (c ^ d))
        e = (((a << 5) | ((a >> 27) & mask)) + (d ^ (b & (c ^ d))) + e + k0 + w[i]) & mask
        b = ((b << 30) | (b >> 2)) & mask
        d = (((e << 5) | ((e >> 27) & mask)) + (c ^ (a & (b ^ c))) + d + k0 + w[i + 1]) & mask
        a = ((a << 30) | (a >> 2)) & mask
        c = (((d << 5) | ((d >> 27) & mask)) + (b ^ (e & (a ^ b))) + c + k0 + w[i + 2]) & mask
        e = ((e << 30) | (e >> 2)) & mask
        b = (((c << 5) | ((c >> 27) & mask)) + (a ^ (d & (e ^ a))) + b + k0 + w[i + 3]) & mask
        d = ((d << 30) | (d >> 2)) & mask
        a = (((b << 5) | ((b >> 27) & mask)) + (e ^ (c & (d ^ e))) + a + k0 + w[i + 4]) & mask
        c = ((c << 30) | (c >> 2)) & mask
    for i in range(20, 40, 5):     # Parity(b, c, d)
        e = (((a << 5) | ((a >> 27) & mask)) + (b ^ c ^ d) + e + k1 + w[i]) & mask
        b = ((b << 30) | (b >> 2)) & mask
        d = (((e << 5) | ((e >> 27) & mask)) + (a ^ b ^ c) + d + k1 + w[i + 1]) & mask
        a = ((a << 30) | (a >> 2)) & mask
        c = (((d << 5) | ((d >> 27) & mask)) + (e ^ a ^ b) + c + k1 + w[i + 2]) & mask
        e = ((e << 30) | (e >> 2)) & mask
        b = (((c << 5) | ((c >> 27) & mask)) + (d ^ e ^ a) + b + k1 + w[i + 3]) & mask
        d = ((d << 30) | (d >> 2)) & mask
        a = (((b << 5) | ((b >> 27) & mask)) + (c ^ d ^ e) + a + k1 + w[i + 4]) & mask
        c = ((c << 30) | (c >> 2)) & mask
    for i in range(40, 60, 5):     # Maj(b, c, d) = (b & c) | (d & (b | c))
        e = (((a << 5) | ((a >> 27) & mask)) + ((b & c) | (d & (b | c))) + e + k2 + w[i]) & mask
        b = ((b << 30) | (b >> 2)) & mask
        d = (((e << 5) | ((e >> 27) & mask)) + ((a & b) | (c & (a | b))) + d + k2 + w[i + 1]) & mask
        a = ((a << 30) | (a >> 2)) & mask
        c = (((d << 5) | ((d >> 27) & mask)) + ((e & a) | (b & (e | a))) + c + k2 + w[i + 2]) & mask
        e = ((e << 30) | (e >> 2)) & mask
        b = (((c << 5) | ((c >> 27) & mask)) + ((d & e) | (a & (d | e))) + b + k2 + w[i + 3]) & mask
        d = ((d << 30) | (d >> 2)) & mask
        a = (((b << 5) | ((b >> 27) & mask)) + ((c & d) | (e & (c | d))) + a + k2 + w[i + 4]) & mask
        c = ((c << 30) | (c >> 2)) & mask
    for i in range(60, 80, 5):     # Parity(b, c, d)
        e = (((a << 5) | ((a >> 27) & mask)) + (b ^ c ^ d) + e + k3 + w[i]) & mask
        b = ((b << 30) | (b >> 2)) & mask
        d = (((e << 5) | ((e >> 27) & mask)) + (a ^ b ^ c) + d + k3 + w[i + 1]) & mask
        a = ((a << 30) | (a >> 2)) & mask
        c = (((d << 5) | ((d >> 27) & mask)) + (e ^ a ^ b) + c + k3 + w[i + 2]) & mask
        e = ((e << 30) | (e >> 2)) & mask
        b = (((c << 5) | ((c >> 27) & mask)) + (d ^ e ^ a) + b + k3 + w[i + 3]) & mask
        d = ((d << 30) | (d >> 2)) & mask
        a = (((b << 5) | ((b >> 27) & mask)) + (c ^ d ^ e) + a + k3 + w[i + 4]) & mask
        c = ((c << 30) | (c >> 2)) & mask
    # fmt: on

    h0, h1, h2, h3, h4 = state
    return (
        (h0 + a) & mask,
        (h1 + b) & mask,
        (h2 + c) & mask,
        (h3 + d) & mask,
        (h4 + e) & mask,
    )


def _finish(state: _State, tails: Sequence[bytes], total_length: int) -> List[bytes]:
    """The digests of ``len(tails)`` messages, lane j's being ``tails[j]``
    after what ``state``'s lane j has already absorbed.

    The tails are equally long, so every lane pads alike and the lanes stay
    in step to the last block.  ``total_length`` is each whole message's
    length in bytes (what the FIPS-180 length field records); the part
    already absorbed is a whole number of blocks.  The padding is built
    once, on the final partial blocks only.
    """
    length = len(tails[0])
    whole = length - length % SHA1_BLOCK_SIZE
    for offset in range(0, whole, SHA1_BLOCK_SIZE):
        state = _compress(state, tails, offset)
    padding = (
        b"\x80" + bytes((55 - length) % SHA1_BLOCK_SIZE) + (total_length * 8).to_bytes(8, "big")
    )
    last = [tail[whole:] + padding for tail in tails]
    for offset in range(0, len(last[0]), SHA1_BLOCK_SIZE):
        state = _compress(state, last, offset)
    return [
        _pack_state(*[(word >> shift) & _M for word in state])
        for shift in range(0, _LANE_BITS * len(tails), _LANE_BITS)
    ]


def sha1(message: bytes) -> bytes:
    """Compute the 20-byte SHA-1 digest of ``message``."""
    message = bytes(message)
    return _finish(_INITIAL_STATE, (message,), len(message))[0]


class HmacSha1:
    """HMAC-SHA1 (RFC 2104) under one key, for any number of messages.

    Construction absorbs the key's inner and outer pad blocks — two lanes of
    one compression — and every digest continues from those two chaining
    states, so the two blocks that depend only on the key are hashed once
    per key instead of once per message.  The states are the only thing the
    object holds — it keeps neither the key nor any message — and they go
    away with it.
    """

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes):
        key = bytes(key)
        if len(key) > SHA1_BLOCK_SIZE:
            key = sha1(key)
        block = key.ljust(SHA1_BLOCK_SIZE, b"\x00")
        pads = _compress(
            _widen(_INITIAL_STATE, 2), (block.translate(_XOR_IPAD), block.translate(_XOR_OPAD)), 0
        )
        self._inner = tuple(word & _M for word in pads)
        self._outer = tuple(word >> _LANE_BITS for word in pads)

    def digests(self, messages: Sequence[bytes]) -> List[bytes]:
        """The tags of equally long messages, one lane each, in lock-step."""
        lanes = len(messages)
        if len({len(message) for message in messages}) != 1:
            raise ValueError("lock-step HMAC needs at least one message, all of one length")
        inner = _finish(
            _widen(self._inner, lanes), messages, SHA1_BLOCK_SIZE + len(messages[0])
        )
        return _finish(_widen(self._outer, lanes), inner, SHA1_BLOCK_SIZE + SHA1_DIGEST_SIZE)

    def digest(self, message: bytes) -> bytes:
        """The 20-byte tag of ``message`` under this object's key."""
        return self.digests((bytes(message),))[0]


def hmac_sha1(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA1 per RFC 2104."""
    return HmacSha1(key).digest(message)


#: prf+ numbers its blocks with one octet, so it can produce at most this many.
_PRF_MAX_BYTES = 255 * SHA1_DIGEST_SIZE


def prf_expand(
    key: bytes, seed: Union[bytes, Tuple[bytes, ...]], length: int
) -> Union[bytes, Tuple[bytes, ...]]:
    """Expand key material to an arbitrary length with iterated HMAC-SHA1.

    This mirrors the IKE-style ``prf+`` construction: T1 = prf(K, seed | 1),
    T2 = prf(K, T1 | seed | 2), ... concatenated and truncated.  The VPN
    gateway uses it to stretch (QKD bits || Diffie-Hellman-less nonce
    material) into the KEYMAT an SA needs.  The block counter is a single
    octet, so at most 255 blocks (5100 bytes) can be produced; asking for
    more raises :class:`ValueError` rather than wrapping the counter and
    repeating output.

    ``seed`` is, as for :meth:`bytes.startswith`, one byte string or a tuple
    of them, and the result has the same shape.  A tuple's seeds must be
    equally long (and there must be one): their chains are then the lanes of
    one computation, every T-block of all of them costing what one does —
    which is how a phase 2 negotiation, whose KEYMATs differ only in the
    SPI, derives them.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    if length > _PRF_MAX_BYTES:
        raise ValueError(
            f"prf+ yields at most {_PRF_MAX_BYTES} bytes (255 one-octet-numbered "
            f"blocks); {length} requested"
        )
    seeds = seed if isinstance(seed, tuple) else (seed,)
    if len({len(each) for each in seeds}) != 1:
        raise ValueError(
            f"prf+ in lock-step needs at least one seed, all of one length; "
            f"got lengths {[len(each) for each in seeds]}"
        )
    prf = HmacSha1(key)
    rounds = []
    previous = [b""] * len(seeds)
    for counter in range(1, -(-length // SHA1_DIGEST_SIZE) + 1):
        number = bytes([counter])
        previous = prf.digests([t + each + number for t, each in zip(previous, seeds)])
        rounds.append(previous)
    outputs = tuple(
        b"".join(tags[lane] for tags in rounds)[:length] for lane in range(len(seeds))
    )
    return outputs if isinstance(seed, tuple) else outputs[0]
