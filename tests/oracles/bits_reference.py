"""Pure-tuple reference implementation of :class:`repro.util.bits.BitString`.

This is the original per-bit ``BitString`` (bits stored as a Python tuple of
0/1 ints), retained verbatim as the behavioural oracle for the packed
machine-word implementation that replaced it.  The differential test suite
(``tests/test_bits_differential.py``) drives both classes through every public
operation on randomized inputs and requires identical results — including the
exact exception types for invalid input.

It is intentionally slow and intentionally unused by the production code
paths; do not "optimise" it, or it stops being an oracle.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Union


class ReferenceBitString:
    """The tuple-backed bit string the packed implementation must match."""

    __slots__ = ("_bits",)

    def __init__(self, bits: Iterable[int] = ()):
        values = tuple(int(b) for b in bits)
        for value in values:
            if value not in (0, 1):
                raise ValueError(f"bit values must be 0 or 1, got {value}")
        self._bits = values

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def zeros(cls, n: int) -> "ReferenceBitString":
        if n < 0:
            raise ValueError("length must be non-negative")
        return cls([0] * n)

    @classmethod
    def ones(cls, n: int) -> "ReferenceBitString":
        if n < 0:
            raise ValueError("length must be non-negative")
        return cls([1] * n)

    @classmethod
    def from_int(cls, value: int, length: int) -> "ReferenceBitString":
        if value < 0:
            raise ValueError("value must be non-negative")
        if length < 0:
            raise ValueError("length must be non-negative")
        if length and value >> length:
            raise ValueError(f"value {value} does not fit in {length} bits")
        if length == 0 and value:
            raise ValueError("cannot encode a non-zero value in zero bits")
        if length == 0:
            return cls()
        n_bytes = (length + 7) // 8
        padding = n_bytes * 8 - length
        data = (value << padding).to_bytes(n_bytes, "big")
        bits: List[int] = []
        for byte in data:
            for shift in range(7, -1, -1):
                bits.append((byte >> shift) & 1)
        return cls(bits[:length])

    @classmethod
    def from_bytes(cls, data: bytes) -> "ReferenceBitString":
        bits: List[int] = []
        for byte in data:
            for shift in range(7, -1, -1):
                bits.append((byte >> shift) & 1)
        return cls(bits)

    @classmethod
    def random(cls, n: int, rng) -> "ReferenceBitString":
        if n < 0:
            raise ValueError("length must be non-negative")
        if n == 0:
            return cls()
        value = rng.getrandbits(n)
        return cls.from_int(value, n)

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #

    def to_int(self) -> int:
        value = 0
        for bit in self._bits:
            value = (value << 1) | bit
        return value

    def to_bytes(self) -> bytes:
        if not self._bits:
            return b""
        padded = list(self._bits)
        while len(padded) % 8:
            padded.append(0)
        out = bytearray()
        for i in range(0, len(padded), 8):
            byte = 0
            for bit in padded[i : i + 8]:
                byte = (byte << 1) | bit
            out.append(byte)
        return bytes(out)

    def to_list(self) -> List[int]:
        return list(self._bits)

    def copy(self) -> "ReferenceBitString":
        dup = object.__new__(ReferenceBitString)
        dup._bits = self._bits
        return dup

    def __str__(self) -> str:
        return "".join(str(b) for b in self._bits)

    def __repr__(self) -> str:
        if len(self._bits) <= 64:
            return f"BitString('{self}')"
        head = "".join(str(b) for b in self._bits[:32])
        return f"BitString('{head}...', len={len(self._bits)})"

    # ------------------------------------------------------------------ #
    # Sequence protocol
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._bits)

    def __iter__(self) -> Iterator[int]:
        return iter(self._bits)

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[int, "ReferenceBitString"]:
        if isinstance(index, slice):
            return ReferenceBitString(self._bits[index])
        return self._bits[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ReferenceBitString):
            return self._bits == other._bits
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._bits)

    def __add__(self, other: "ReferenceBitString") -> "ReferenceBitString":
        if not isinstance(other, ReferenceBitString):
            return NotImplemented
        return ReferenceBitString(self._bits + other._bits)

    def __bool__(self) -> bool:
        return bool(self._bits)

    # ------------------------------------------------------------------ #
    # Bitwise operations
    # ------------------------------------------------------------------ #

    def __xor__(self, other: "ReferenceBitString") -> "ReferenceBitString":
        if not isinstance(other, ReferenceBitString):
            return NotImplemented
        if len(other) != len(self):
            raise ValueError(
                f"XOR requires equal lengths ({len(self)} vs {len(other)})"
            )
        return ReferenceBitString(a ^ b for a, b in zip(self._bits, other._bits))

    def __and__(self, other: "ReferenceBitString") -> "ReferenceBitString":
        if not isinstance(other, ReferenceBitString):
            return NotImplemented
        if len(other) != len(self):
            raise ValueError(
                f"AND requires equal lengths ({len(self)} vs {len(other)})"
            )
        return ReferenceBitString(a & b for a, b in zip(self._bits, other._bits))

    def __invert__(self) -> "ReferenceBitString":
        return ReferenceBitString(1 - b for b in self._bits)

    # ------------------------------------------------------------------ #
    # Cryptographic / statistical helpers
    # ------------------------------------------------------------------ #

    def parity(self) -> int:
        return sum(self._bits) & 1

    def subset(self, indices: Sequence[int]) -> "ReferenceBitString":
        return ReferenceBitString(self._bits[i] for i in indices)

    def hamming_distance(self, other: "ReferenceBitString") -> int:
        if len(other) != len(self):
            raise ValueError("hamming distance requires equal lengths")
        return sum(a != b for a, b in zip(self._bits, other._bits))

    def error_rate(self, other: "ReferenceBitString") -> float:
        if len(self) == 0:
            return 0.0
        return self.hamming_distance(other) / len(self)

    def chunks(self, size: int) -> List["ReferenceBitString"]:
        if size <= 0:
            raise ValueError("chunk size must be positive")
        return [self[i : i + size] for i in range(0, len(self), size)]

    def concat(self, *others: "ReferenceBitString") -> "ReferenceBitString":
        bits = list(self._bits)
        for other in others:
            bits.extend(other._bits)
        return ReferenceBitString(bits)

    def balance(self) -> float:
        if not self._bits:
            return 0.0
        return sum(self._bits) / len(self._bits)

    def runs(self) -> List[int]:
        if not self._bits:
            return []
        lengths = [1]
        for previous, current in zip(self._bits, self._bits[1:]):
            if current == previous:
                lengths[-1] += 1
            else:
                lengths.append(1)
        return lengths
