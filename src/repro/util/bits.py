"""A compact, immutable bit-string type used throughout the QKD stack.

Every stage of the QKD protocol pipeline (sifting, Cascade error correction,
privacy amplification, authentication) manipulates sequences of bits: raw key
symbols, sifted keys, parity subsets, hash outputs.  ``BitString`` gives those
stages a single well-tested representation with the operations they need:

* bitwise XOR (used for parity computation and one-time-pad encryption),
* parity, subsets, slicing and concatenation,
* conversion to and from ``bytes`` and ``int``,
* Hamming distance and error counting between Alice's and Bob's keys.

Packed representation
---------------------

The class stores the bits *packed* into a single arbitrary-precision Python
integer plus an explicit length.  **Bit order invariant:** bit ``i`` of the
string is bit ``length - 1 - i`` of the integer — i.e. the string reads
most-significant-bit first, so ``BitString.from_int(v, n).to_int() == v`` and
the packed value *is* the ``to_int()`` value.  This makes the whole-string
operations machine-word arithmetic on CPython's int limbs:

===============================  ============================================
operation                        cost
===============================  ============================================
``^``, ``&``, ``~``, equality    O(n / 64) word ops
``parity``                       O(n / 64) via ``int.bit_count()``
``hamming_distance``             O(n / 64) (XOR then ``int.bit_count()``)
``to_int`` / ``from_int``        O(1) / O(1) (value is stored packed)
``to_bytes`` / ``from_bytes``    O(n / 64) via ``int.to_bytes``
slicing (step 1), ``+``          O(n / 64) shift-and-mask
iteration, ``to_list``           O(n) through a C-level binary string
===============================  ============================================

A pure-tuple reference implementation with the same public API
(``ReferenceBitString``) lives in ``tests/oracles/``, outside the package;
``tests/test_bits_differential.py`` pins the two implementations against each
other on randomized inputs.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterable, Iterator, List, Union


class BitString:
    """An immutable sequence of bits with cryptographic convenience methods.

    Internally a pair ``(_value, _length)``: ``_value`` holds the bits packed
    most-significant-bit first (bit ``i`` of the string is bit
    ``_length - 1 - i`` of ``_value``), so ``_value == self.to_int()``.
    """

    __slots__ = ("_value", "_length")

    def __init__(self, bits: Iterable[int] = ()):
        values = [int(b) for b in bits]
        for value in values:
            if value not in (0, 1):
                raise ValueError(f"bit values must be 0 or 1, got {value}")
        self._length = len(values)
        # int(str, 2) packs the list at C speed; the digits are already 0/1.
        self._value = int("".join(map(str, values)), 2) if values else 0

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def _from_packed(cls, value: int, length: int) -> "BitString":
        """Internal constructor from an already-validated packed value."""
        self = object.__new__(cls)
        self._value = value
        self._length = length
        return self

    @classmethod
    def from_int(cls, value: int, length: int) -> "BitString":
        """Build a bit string from an integer, most-significant bit first."""
        if value < 0:
            raise ValueError("value must be non-negative")
        if length < 0:
            raise ValueError("length must be non-negative")
        if length and value >> length:
            raise ValueError(f"value {value} does not fit in {length} bits")
        if length == 0 and value:
            raise ValueError("cannot encode a non-zero value in zero bits")
        return cls._from_packed(value, length)

    @classmethod
    def from_bytes(cls, data: bytes) -> "BitString":
        """Build a bit string from bytes, most-significant bit of each byte first."""
        return cls._from_packed(int.from_bytes(data, "big"), 8 * len(data))

    @classmethod
    def random(cls, n: int, rng) -> "BitString":
        """Draw ``n`` uniformly random bits from ``rng`` (anything with ``getrandbits``)."""
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
        """Interpret the bit string as an integer, most-significant bit first."""
        return self._value

    def to_bytes(self) -> bytes:
        """Pack into bytes (zero-padded on the right to a byte boundary)."""
        if not self._length:
            return b""
        n_bytes = (self._length + 7) // 8
        return (self._value << (n_bytes * 8 - self._length)).to_bytes(n_bytes, "big")

    def to_list(self) -> List[int]:
        """Return the bits as a plain mutable list."""
        return [1 if ch == "1" else 0 for ch in self._bin()]

    def copy(self) -> "BitString":
        """Return an independent ``BitString`` instance with the same bits.

        ``BitString`` is immutable, so aliasing is never unsafe — but key
        material handed to two protocol endpoints must not share an object,
        so that each endpoint's state is verifiably self-contained.  Only the
        wrapper object is new; this is O(1) and skips re-validation.
        """
        return BitString._from_packed(self._value, self._length)

    def _bin(self) -> str:
        """The bits as a ``'0'``/``'1'`` string (C-speed int formatting)."""
        if self._length == 0:
            return ""
        return format(self._value, f"0{self._length}b")

    def __str__(self) -> str:
        return self._bin()

    def __repr__(self) -> str:
        if self._length <= 64:
            return f"BitString('{self}')"
        head = self._bin()[:32]
        return f"BitString('{head}...', len={self._length})"

    # ------------------------------------------------------------------ #
    # Sequence protocol
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[int]:
        return iter(self.to_list())

    def __getitem__(self, index: Union[int, slice]) -> Union[int, "BitString"]:
        if isinstance(index, slice):
            start, stop, step = index.indices(self._length)
            if step == 1:
                if stop <= start:
                    return BitString._from_packed(0, 0)
                width = stop - start
                value = (self._value >> (self._length - stop)) & ((1 << width) - 1)
                return BitString._from_packed(value, width)
            # Arbitrary strides are rare; go through the bit list.
            bits = self.to_list()[index]
            return BitString._from_packed(
                int("".join(map(str, bits)), 2) if bits else 0, len(bits)
            )
        pos = index
        if pos < 0:
            pos += self._length
        if not 0 <= pos < self._length:
            raise IndexError("BitString index out of range")
        return (self._value >> (self._length - 1 - pos)) & 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BitString):
            return self._length == other._length and self._value == other._value
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._length, self._value))

    def __add__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            return NotImplemented
        return BitString._from_packed(
            (self._value << other._length) | other._value,
            self._length + other._length,
        )

    def __bool__(self) -> bool:
        return self._length > 0

    # ------------------------------------------------------------------ #
    # Bitwise operations
    # ------------------------------------------------------------------ #

    def __xor__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            return NotImplemented
        if other._length != self._length:
            raise ValueError(
                f"XOR requires equal lengths ({self._length} vs {other._length})"
            )
        return BitString._from_packed(self._value ^ other._value, self._length)

    def __and__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            return NotImplemented
        if other._length != self._length:
            raise ValueError(
                f"AND requires equal lengths ({self._length} vs {other._length})"
            )
        return BitString._from_packed(self._value & other._value, self._length)

    def __invert__(self) -> "BitString":
        mask = (1 << self._length) - 1
        return BitString._from_packed(self._value ^ mask, self._length)

    # ------------------------------------------------------------------ #
    # Cryptographic / statistical helpers
    # ------------------------------------------------------------------ #

    def hamming_distance(self, other: "BitString") -> int:
        """Number of differing positions between two equal-length bit strings."""
        if other._length != self._length:
            raise ValueError("hamming distance requires equal lengths")
        return (self._value ^ other._value).bit_count()

    def error_rate(self, other: "BitString") -> float:
        """Fraction of positions that differ (the empirical QBER between keys)."""
        if self._length == 0:
            return 0.0
        return self.hamming_distance(other) / self._length

    def chunks(self, size: int) -> List["BitString"]:
        """Split into consecutive chunks of at most ``size`` bits.

        Linear in the total length: the packed value is rendered to a binary
        string once and each chunk is re-packed from its substring, so huge
        inputs (message transcripts) do not pay quadratic shift costs.
        """
        if size <= 0:
            raise ValueError("chunk size must be positive")
        s = self._bin()
        return [
            BitString._from_packed(int(s[i : i + size], 2), min(size, self._length - i))
            for i in range(0, self._length, size)
        ]

    def concat(self, *others: "BitString") -> "BitString":
        """Concatenate this bit string with others."""
        value = self._value
        length = self._length
        for other in others:
            value = (value << other._length) | other._value
            length += other._length
        return BitString._from_packed(value, length)

    def balance(self) -> float:
        """Fraction of one bits; 0.5 for an ideally random string."""
        if not self._length:
            return 0.0
        return self._value.bit_count() / self._length

    def runs(self) -> List[int]:
        """Lengths of runs of identical bits (used by run-length sift encoding)."""
        return [len(list(group)) for _, group in groupby(self._bin())]
