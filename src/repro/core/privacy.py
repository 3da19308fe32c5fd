"""Privacy amplification over GF(2^n) (paper section 5).

"The side that initiates privacy amplification chooses a linear hash function
over the Galois Field GF[2^n] where n is the number of bits as input, rounded
up to a multiple of 32.  He then transmits four things to the other end — the
number of bits m of the shortened result, the (sparse) primitive polynomial of
the Galois field, a multiplier (n bits long), and an m-bit polynomial to add
(i.e. a bit string to exclusive-or) with the product.  Each side then performs
the corresponding hash and truncates the result to m bits to perform privacy
amplification."

This module implements exactly that transaction.  The initiator draws the
multiplier and addend at random, the number of output bits ``m`` comes from
the entropy estimator, and both sides apply the same
``truncate_m(key * multiplier + addend)`` map.  Because the map is linear over
GF(2) and drawn from a universal family, shortening the key by the estimated
leakage (plus margin) reduces Eve's expected knowledge of the result to far
below one bit, per the privacy-amplification theorem the paper relies on.

Keys longer than the largest tabulated field degree are split into blocks,
each hashed in its own field, and the outputs concatenated; the requested
output length is apportioned across blocks proportionally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.messages import PrivacyAmplificationMessage, PublicChannelLog
from repro.mathkit.gf2n import (
    MAX_FIELD_DEGREE,
    PRIMITIVE_POLYNOMIALS,
    GF2nField,
    round_up_to_field_degree,
)
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG


@dataclass
class PrivacyAmplificationResult:
    """The distilled key plus the parameters that produced it."""

    distilled_key: BitString
    messages: List[PrivacyAmplificationMessage]
    input_bits: int
    output_bits: int

class PrivacyAmplification:
    """Runs the privacy-amplification transaction for one corrected block."""

    def __init__(self, rng: Optional[DeterministicRNG] = None, max_block_bits: int = MAX_FIELD_DEGREE):
        if max_block_bits <= 0:
            raise ValueError("block size must be positive")
        self.rng = rng or DeterministicRNG(0)
        self.max_block_bits = min(max_block_bits, MAX_FIELD_DEGREE)

    # ------------------------------------------------------------------ #
    # Initiator side: choose the hash parameters
    # ------------------------------------------------------------------ #

    def build_message(self, input_bits: int, output_bits: int) -> PrivacyAmplificationMessage:
        """Choose random hash parameters for a block of ``input_bits`` bits."""
        if output_bits < 0 or output_bits > input_bits:
            raise ValueError("output length must be in [0, input length]")
        degree = round_up_to_field_degree(input_bits)
        if degree not in PRIMITIVE_POLYNOMIALS:
            raise ValueError(
                f"no tabulated field of degree {degree}; split the key into blocks first"
            )
        field = GF2nField(degree)
        multiplier = self.rng.getrandbits(degree) or 1
        addend = self.rng.getrandbits(output_bits) if output_bits else 0
        return PrivacyAmplificationMessage(
            output_bits=output_bits,
            field_degree=degree,
            polynomial_exponents=field.exponents,
            multiplier=multiplier,
            addend=addend,
        )

    # ------------------------------------------------------------------ #
    # Both sides: apply the hash described by a message
    # ------------------------------------------------------------------ #

    @staticmethod
    def apply_message(key: BitString, message: PrivacyAmplificationMessage) -> BitString:
        """Apply the hash a :class:`PrivacyAmplificationMessage` describes."""
        field = GF2nField(message.field_degree, message.polynomial_exponents)
        if len(key) > field.degree:
            raise ValueError("key longer than the announced field degree")
        return field.hash_bits(key, message.multiplier, message.addend, message.output_bits)

    # ------------------------------------------------------------------ #
    # Whole-block driver
    # ------------------------------------------------------------------ #

    def amplify(
        self,
        key: BitString,
        output_bits: int,
        log: Optional[PublicChannelLog] = None,
    ) -> PrivacyAmplificationResult:
        """Shorten ``key`` to ``output_bits`` distilled bits.

        The key is split into blocks of at most ``max_block_bits``; the output
        length is apportioned across the blocks in proportion to their size,
        so the per-bit compression is uniform.
        """
        if output_bits < 0:
            raise ValueError("output length must be non-negative")
        if output_bits > len(key):
            raise ValueError("cannot amplify to more bits than the input key has")
        log = log if log is not None else PublicChannelLog()

        if output_bits == 0 or len(key) == 0:
            return PrivacyAmplificationResult(
                distilled_key=BitString(),
                messages=[],
                input_bits=len(key),
                output_bits=0,
            )

        blocks = key.chunks(self.max_block_bits)
        messages: List[PrivacyAmplificationMessage] = []
        outputs: List[BitString] = []
        remaining_output = output_bits
        remaining_input = len(key)

        for block in blocks:
            # Apportion the remaining output over the remaining input so the
            # total comes out exactly to ``output_bits``.
            share = round(remaining_output * len(block) / remaining_input) if remaining_input else 0
            share = min(share, len(block), remaining_output)
            remaining_input -= len(block)
            # Give any shortfall to the last block.
            if remaining_input == 0:
                share = min(remaining_output, len(block))
            message = self.build_message(len(block), share)
            log.record(message)
            messages.append(message)
            outputs.append(self.apply_message(block, message))
            remaining_output -= share

        distilled = BitString().concat(*outputs)
        return PrivacyAmplificationResult(
            distilled_key=distilled,
            messages=messages,
            input_bits=len(key),
            output_bits=len(distilled),
        )
