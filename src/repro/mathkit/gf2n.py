"""Arithmetic in the binary extension fields GF(2^n).

Privacy amplification in the paper (section 5) hashes the error-corrected key
with "a linear hash function over the Galois Field GF[2^n] where n is the
number of bits as input, rounded up to a multiple of 32".  The initiating side
transmits the sparse primitive polynomial of the field, an n-bit multiplier
and an m-bit polynomial to add; both sides compute ``(key * multiplier + addend)``
in GF(2^n) and truncate to m bits.

This module provides exactly that machinery:

* a table of sparse primitive (irreducible, primitive) polynomials for every
  multiple-of-32 degree up to 4096 bits, expressed by their non-zero term
  exponents, as a real implementation would carry;
* :class:`GF2nField`, which performs carry-less multiplication and reduction
  modulo the field polynomial on arbitrary-precision Python integers.

Elements are represented as Python ints whose bit ``i`` is the coefficient of
``x^i``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro.util.bits import BitString

# --------------------------------------------------------------------------- #
# Sparse primitive polynomials.
#
# Each entry maps a degree n to the exponents of the non-leading, non-constant
# terms of a primitive trinomial/pentanomial x^n + ... + 1 over GF(2).  These
# are the standard sparse primitive polynomials tabulated in the coding-theory
# literature (Zierler/Brillhart tables; the low-degree ones are also the
# polynomials used by common CRCs and LFSRs).  The paper's engine rounds the
# key length up to a multiple of 32, so the table covers every multiple of 32
# in the block-size range the protocol uses.
# --------------------------------------------------------------------------- #
#
# Every entry below has been verified irreducible with Rabin's exact test;
# ``tests/oracles/mathkit.py`` carries the test and the suite re-verifies the
# small degrees.
# The name follows the paper's wording ("the (sparse) primitive polynomial of
# the Galois field"); irreducibility is the property the hash construction
# needs.  Degrees are multiples of 32 because the engine rounds key lengths up
# to a multiple of 32 before hashing; longer keys are hashed in blocks of at
# most ``MAX_FIELD_DEGREE`` bits.
# --------------------------------------------------------------------------- #
PRIMITIVE_POLYNOMIALS: Dict[int, Tuple[int, ...]] = {
    8: (7, 2, 1),
    16: (6, 2, 1),
    32: (22, 2, 1),
    64: (11, 2, 1),
    96: (19, 2, 1),
    128: (7, 2, 1),
    160: (7, 3, 1),
    192: (7, 2, 1),
    224: (21, 7, 1),
    256: (16, 3, 1),
    288: (11, 10, 1),
    320: (7, 2, 1),
    352: (21, 5, 2),
    384: (27, 6, 1),
    416: (27, 5, 1),
    448: (13, 7, 1),
    480: (25, 4, 3),
    512: (26, 3, 2),
    544: (8, 3, 1),
    576: (22, 19, 1),
    608: (31, 3, 1),
    640: (28, 27, 1),
    672: (31, 22, 1),
    704: (31, 29, 1),
    736: (25, 7, 1),
}

#: The largest field degree carried in the table; privacy amplification splits
#: longer keys into blocks of at most this many bits before hashing.
MAX_FIELD_DEGREE = max(PRIMITIVE_POLYNOMIALS)


def round_up_to_field_degree(n_bits: int, multiple: int = 32) -> int:
    """Round a key length up to the next multiple of ``multiple`` (at least one)."""
    if n_bits <= 0:
        return multiple
    remainder = n_bits % multiple
    if remainder == 0:
        return n_bits
    return n_bits + (multiple - remainder)


def polynomial_from_exponents(degree: int, exponents: Iterable[int]) -> int:
    """Build the integer representation of ``x^degree + sum x^e + 1``."""
    value = (1 << degree) | 1
    for exponent in exponents:
        if exponent <= 0 or exponent >= degree:
            raise ValueError("middle-term exponents must be strictly between 0 and degree")
        value |= 1 << exponent
    return value


def carryless_multiply(a: int, b: int) -> int:
    """Carry-less (polynomial) product of two GF(2) polynomials as integers.

    Evaluated with a 16-entry window table over 4-bit nibbles of ``b``, so the
    cost is ``O(bits(b)/4)`` big-int operations rather than one shift-XOR per
    set bit — the shape that matters for the privacy-amplification fields,
    whose operands run to hundreds of bits.
    """
    if a < 0 or b < 0:
        raise ValueError("polynomial operands must be non-negative")
    if a == 0 or b == 0:
        return 0
    table = [0] * 16
    for w in range(1, 16):
        table[w] = (table[w >> 1] << 1) ^ (a if w & 1 else 0)
    result = 0
    shift = (b.bit_length() + 3) // 4 * 4
    while shift:
        shift -= 4
        result = (result << 4) ^ table[(b >> shift) & 0xF]
    return result


class GF2nField:
    """The finite field GF(2^n) defined by a sparse primitive polynomial.

    Elements are Python integers in ``[0, 2^n)``; bit ``i`` of an element is
    the coefficient of ``x^i``.
    """

    def __init__(self, degree: int, exponents: Tuple[int, ...] = None):
        if degree <= 0:
            raise ValueError("field degree must be positive")
        if exponents is None:
            if degree not in PRIMITIVE_POLYNOMIALS:
                raise ValueError(
                    f"no tabulated primitive polynomial for degree {degree}; "
                    "pass the middle-term exponents explicitly"
                )
            exponents = PRIMITIVE_POLYNOMIALS[degree]
        self.degree = degree
        self.exponents = tuple(sorted(exponents, reverse=True))
        self.modulus = polynomial_from_exponents(degree, exponents)
        self._element_mask = (1 << degree) - 1

    # ------------------------------------------------------------------ #
    # Field operations
    # ------------------------------------------------------------------ #

    def _check(self, value: int) -> int:
        value = int(value)
        if value < 0 or value >> self.degree:
            raise ValueError(f"element does not fit in GF(2^{self.degree})")
        return value

    def add(self, a: int, b: int) -> int:
        """Field addition (XOR)."""
        return self._check(a) ^ self._check(b)

    def multiply(self, a: int, b: int) -> int:
        """Field multiplication modulo the primitive polynomial."""
        product = carryless_multiply(self._check(a), self._check(b))
        return self._reduce(product)

    def _reduce(self, value: int) -> int:
        """Reduce modulo the field polynomial, exploiting its sparseness.

        Because ``x^degree = sum x^e + 1 (mod f)`` with every ``e`` small, the
        whole overflow half folds back in one pass per (tiny) middle-term
        degree: a 2n-bit product reduces in two or three passes of word-wide
        XORs instead of one generic division step per overflow bit.
        """
        degree = self.degree
        mask = self._element_mask
        exponents = self.exponents
        while value >> degree:
            high = value >> degree
            value &= mask
            value ^= high
            for e in exponents:
                value ^= high << e
        return value

    # ------------------------------------------------------------------ #
    # Linear hashing (privacy amplification primitive)
    # ------------------------------------------------------------------ #

    def linear_hash(self, element: int, multiplier: int, addend: int, output_bits: int) -> int:
        """Compute ``truncate_m(element * multiplier + addend)``.

        This is exactly the privacy-amplification transform of the paper: a
        multiplication in GF(2^n), the XOR of an m-bit polynomial, and
        truncation of the result to the low ``output_bits`` bits.
        """
        if output_bits < 0 or output_bits > self.degree:
            raise ValueError("output length must be between 0 and the field degree")
        product = self.multiply(element, multiplier)
        mixed = product ^ self._check(addend)
        if output_bits == 0:
            return 0
        return mixed & ((1 << output_bits) - 1)

    def hash_bits(
        self, key: BitString, multiplier: int, addend: int, output_bits: int
    ) -> BitString:
        """Hash a :class:`BitString` key (zero-padded up to the field degree)."""
        if len(key) > self.degree:
            raise ValueError(
                f"key of {len(key)} bits does not fit in GF(2^{self.degree})"
            )
        element = key.to_int()
        hashed = self.linear_hash(element, multiplier, addend, output_bits)
        return BitString.from_int(hashed, output_bits)

    def __repr__(self) -> str:
        terms = " + ".join(
            [f"x^{self.degree}"] + [f"x^{e}" for e in self.exponents] + ["1"]
        )
        return f"GF2nField({terms})"
