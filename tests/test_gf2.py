"""Tests for GF(2) rank tracking (it underpins leakage accounting).

:class:`IncrementalGF2Rank` is held to the batch elimination in
``tests/oracles/mathkit.py``; the properties check that oracle itself.
"""

from hypothesis import given, strategies as st

from repro.mathkit.gf2 import IncrementalGF2Rank
from repro.util.rng import DeterministicRNG
from tests.oracles.mathkit import gf2_rank


class TestGf2Rank:
    def test_empty(self):
        assert gf2_rank([]) == 0

    def test_zero_rows(self):
        assert gf2_rank([0, 0, 0]) == 0

    def test_identity_rows(self):
        assert gf2_rank([0b001, 0b010, 0b100]) == 3

    def test_dependent_rows(self):
        # third row is the XOR of the first two
        assert gf2_rank([0b110, 0b011, 0b101]) == 2

    def test_duplicate_rows(self):
        assert gf2_rank([0b1011, 0b1011, 0b1011]) == 1

    def test_rank_bounded_by_dimensions(self):
        rng = DeterministicRNG(1)
        rows = [rng.getrandbits(16) for _ in range(40)]
        rank = gf2_rank(rows)
        assert rank <= 16
        assert rank <= 40


class TestIncrementalRank:
    def test_matches_batch_rank(self):
        rng = DeterministicRNG(2)
        rows = [rng.getrandbits(32) for _ in range(50)]
        tracker = IncrementalGF2Rank()
        for row in rows:
            tracker.add(row)
        assert tracker.rank == gf2_rank(rows)

    def test_add_reports_independence(self):
        tracker = IncrementalGF2Rank()
        assert tracker.add(0b01) is True
        assert tracker.add(0b10) is True
        assert tracker.add(0b11) is False  # dependent
        assert tracker.rank == 2


class TestProperties:
    @given(st.lists(st.integers(min_value=0, max_value=2**24 - 1), max_size=40))
    def test_rank_invariant_under_duplication(self, rows):
        assert gf2_rank(rows) == gf2_rank(rows + rows)

    @given(st.lists(st.integers(min_value=0, max_value=2**24 - 1), max_size=40))
    def test_rank_monotone_in_rows(self, rows):
        assert gf2_rank(rows[: len(rows) // 2]) <= gf2_rank(rows)

    @given(
        st.lists(st.integers(min_value=0, max_value=2**16 - 1), min_size=1, max_size=30),
        st.integers(min_value=0, max_value=2**16 - 1),
    )
    def test_adding_xor_of_existing_rows_never_raises_rank(self, rows, picker):
        base_rank = gf2_rank(rows)
        combined = 0
        for index, row in enumerate(rows):
            if (picker >> index) & 1:
                combined ^= row
        assert gf2_rank(rows + [combined]) == base_rank
