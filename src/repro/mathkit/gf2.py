"""Linear algebra over GF(2).

Cascade error correction discloses the parities of pseudo-random subsets of
the sifted key.  Each disclosed parity is a linear functional over GF(2); the
information actually leaked to an eavesdropper is bounded by the *rank* of the
set of disclosed functionals, not by their raw count (two identical subsets
leak one bit, not two).  Cascade counts that rank with
:class:`IncrementalGF2Rank` as it discloses each parity.
"""

from __future__ import annotations

from typing import Optional


class IncrementalGF2Rank:
    """Incrementally track the rank of a growing set of GF(2) row vectors.

    Cascade discloses parities one message at a time; this class lets the
    protocol engine update the independent-leakage count in O(rank) per new
    subset instead of recomputing the full rank each round.

    The basis is kept in reduced form indexed by pivot bit (the lowest set
    bit of each basis row, which is unique by construction), so reducing a
    new row touches only the pivots that actually hit it instead of scanning
    the whole basis.  When the column count is known, pass it so the tracker
    can stop reducing the moment the basis spans the full space.
    """

    def __init__(self, columns: Optional[int] = None) -> None:
        self._pivots: dict = {}
        self.columns = columns

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def add(self, row_mask: int) -> bool:
        """Add a row; return True if it increased the rank (was independent)."""
        pivots = self._pivots
        if self.columns is not None and len(pivots) >= self.columns:
            return False  # basis already spans the space; nothing can be new
        value = int(row_mask)
        while value:
            low_bit = value & -value
            pivot = pivots.get(low_bit)
            if pivot is None:
                pivots[low_bit] = value
                return True
            value ^= pivot
        return False
