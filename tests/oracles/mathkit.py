"""Reference definitions for the :mod:`repro.mathkit` kernels.

Each function here is the plain statement of something a kernel in
``src/`` computes faster or only implicitly, kept for the tests that hold
the kernel to it:

* :func:`gf2_rank` — batch Gaussian elimination, the oracle for
  :class:`repro.mathkit.gf2.IncrementalGF2Rank`;
* :func:`is_irreducible` — Rabin's exact test, which re-verifies
  :data:`repro.mathkit.gf2n.PRIMITIVE_POLYNOMIALS`;
* :func:`lfsr_subset_mask` — one seed expanded by stepping its register,
  the oracle for the table-driven :func:`repro.mathkit.lfsr.lfsr_subset_rows`,
  and :func:`lfsr_subset_masks`, that batch as one ``BitString`` per seed;
* :func:`toeplitz_matrix_rows` — the explicit matrix of a
  :class:`repro.mathkit.toeplitz.ToeplitzHash`.

Obvious and slow, imported by no production code.
"""

from typing import Iterable, List, Sequence

import numpy as np

from repro.mathkit.gf2n import carryless_multiply
from repro.mathkit.lfsr import LFSR, lfsr_subset_rows
from repro.util.bits import BitString


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank over GF(2) of rows given as integer bit-masks."""
    basis: List[int] = []
    for row in rows:
        value = int(row)
        for pivot in basis:
            pivot_bit = pivot & -pivot
            if value & pivot_bit:
                value ^= pivot
        if value:
            basis.append(value)
    return len(basis)


def polynomial_mod(value: int, modulus: int) -> int:
    """Reduce a GF(2) polynomial modulo another."""
    if modulus <= 0:
        raise ValueError("modulus must be a non-zero polynomial")
    mod_degree = modulus.bit_length() - 1
    while value.bit_length() - 1 >= mod_degree and value:
        shift = (value.bit_length() - 1) - mod_degree
        value ^= modulus << shift
    return value


def polynomial_gcd(a: int, b: int) -> int:
    """GCD of two GF(2) polynomials (Euclid's algorithm with polynomial mod)."""
    while b:
        a, b = b, polynomial_mod(a, b)
    return a


def is_irreducible(poly: int) -> bool:
    """Rabin irreducibility test for a GF(2) polynomial given as an integer.

    A degree-n polynomial f is irreducible over GF(2) iff x^(2^n) = x (mod f)
    and gcd(x^(2^(n/q)) - x, f) = 1 for every prime divisor q of n.  Exact,
    not probabilistic.
    """
    degree = poly.bit_length() - 1
    if degree <= 0:
        return False

    def x_pow_2k_mod(k: int) -> int:
        value = 2  # the polynomial "x"
        for _ in range(k):
            value = polynomial_mod(carryless_multiply(value, value), poly)
        return value

    if x_pow_2k_mod(degree) != polynomial_mod(2, poly):
        return False
    n, q, factors = degree, 2, set()
    while q * q <= n:
        while n % q == 0:
            factors.add(q)
            n //= q
        q += 1
    if n > 1:
        factors.add(n)
    return all(polynomial_gcd(poly, x_pow_2k_mod(degree // q) ^ 2) == 1 for q in factors)


def lfsr_subset_mask(seed: int, length: int, density: float = 0.5) -> BitString:
    """One seed's subset mask, stepped out of its own register.

    At density one half the mask is the register's output stream; at any
    other density each position thresholds the next stream byte.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    register = LFSR(seed)
    if density == 0.5:
        return register.bits(length)
    threshold = int(round(density * 256))
    return BitString(1 if register.bits(8).to_int() < threshold else 0 for _ in range(length))


def lfsr_subset_masks(
    seeds: Sequence[int], length: int, density: float = 0.5
) -> List[BitString]:
    """:func:`lfsr_subset_rows` as one :class:`BitString` per seed."""
    rows = np.packbits(lfsr_subset_rows(seeds, length, density), axis=1)
    pad = 8 * rows.shape[1] - length
    return [
        BitString.from_int(int.from_bytes(row.tobytes(), "big") >> pad, length)
        for row in rows
    ]


def toeplitz_matrix_rows(hasher) -> List[BitString]:
    """The rows of a Toeplitz hash's matrix.

    Row ``r`` is ``diagonal_bits[r : r + input_bits]`` reversed — the
    entry-(r, c) convention of :mod:`repro.mathkit.toeplitz`.
    """
    n = hasher.input_bits
    diagonal = hasher.diagonal_bits.to_list()
    return [BitString(reversed(diagonal[r : r + n])) for r in range(hasher.output_bits)]


def gf2_dot(row: BitString, key: BitString) -> int:
    """The GF(2) inner product of two equally long bit strings."""
    return (row.to_int() & key.to_int()).bit_count() & 1
