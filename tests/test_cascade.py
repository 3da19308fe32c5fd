"""Tests for the BBN Cascade error-correction variant."""


import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cascade import CascadeParameters, CascadeProtocol
from repro.core.messages import (
    CascadeBisectQuery,
    CascadeParityReply,
    CascadeSubsetAnnouncement,
    PublicChannelLog,
)
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG
from tests.draws import sample
from tests.oracles.scalar_cascade import messages_of_type


def make_keys(n: int, error_rate: float, seed: int = 1):
    """A reference key and a noisy copy with exactly round(error_rate * n) errors."""
    rng = DeterministicRNG(seed)
    reference = BitString.random(n, rng)
    n_errors = int(round(error_rate * n))
    error_positions = sample(rng, range(n), n_errors)
    noisy = reference.to_list()
    for position in error_positions:
        noisy[position] ^= 1
    return reference, BitString(noisy), n_errors


class TestParameters:
    def test_defaults_match_paper(self):
        params = CascadeParameters()
        assert params.subsets_per_round == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            CascadeParameters(subsets_per_round=0)
        with pytest.raises(ValueError):
            CascadeParameters(rounds=0)
        with pytest.raises(ValueError):
            CascadeParameters(subset_density=0.0)

    def test_block_size_adapts_to_error_rate(self):
        params = CascadeParameters()
        assert params.first_pass_block_size(0.01) > params.first_pass_block_size(0.07)
        assert params.min_block_size <= params.first_pass_block_size(0.5) <= params.max_block_size
        assert params.first_pass_block_size(0.0) == params.max_block_size


class TestReconciliation:
    def test_identical_keys(self):
        reference, _, _ = make_keys(800, 0.0)
        result = CascadeProtocol(rng=DeterministicRNG(2)).reconcile(reference, reference)
        assert result.errors_corrected == 0
        assert result.matches_reference is True
        assert result.confirmed is True

    def test_empty_keys(self):
        result = CascadeProtocol(rng=DeterministicRNG(3)).reconcile(BitString(), BitString())
        assert result.errors_corrected == 0
        assert result.disclosed_parities == 0
        assert result.confirmed is True

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CascadeProtocol().reconcile(BitString.from_int(0, 10), BitString.from_int(0, 11))

    @pytest.mark.parametrize("error_rate", [0.01, 0.03, 0.07, 0.11])
    def test_corrects_all_errors(self, error_rate):
        reference, noisy, injected = make_keys(1500, error_rate, seed=int(error_rate * 100))
        protocol = CascadeProtocol(rng=DeterministicRNG(7))
        result = protocol.reconcile(reference, noisy, error_rate_hint=error_rate)
        assert result.matches_reference is True
        assert result.confirmed is True
        assert result.errors_corrected == injected

    def test_inputs_not_modified(self):
        reference, noisy, _ = make_keys(600, 0.05)
        noisy_copy = BitString(noisy.to_list())
        CascadeProtocol(rng=DeterministicRNG(4)).reconcile(reference, noisy)
        assert noisy == noisy_copy

    def test_single_error(self):
        reference, _, _ = make_keys(512, 0.0)
        noisy = reference ^ BitString.from_int(1 << (len(reference) - 1 - 100), len(reference))
        result = CascadeProtocol(rng=DeterministicRNG(5)).reconcile(reference, noisy)
        assert result.errors_corrected == 1
        assert result.matches_reference is True

    def test_many_errors_above_historical_average(self):
        """'it will accurately detect and correct a large number of errors ...
        even if that number is well above the historical average'."""
        reference, noisy, injected = make_keys(1200, 0.14, seed=9)
        result = CascadeProtocol(rng=DeterministicRNG(6)).reconcile(
            reference, noisy, error_rate_hint=0.05  # hint deliberately too low
        )
        assert result.matches_reference is True
        assert result.errors_corrected == injected


class TestLeakageAccounting:
    def test_every_disclosure_counted(self):
        reference, noisy, _ = make_keys(1000, 0.05, seed=11)
        log = PublicChannelLog()
        result = CascadeProtocol(rng=DeterministicRNG(8)).reconcile(
            reference, noisy, log=log, error_rate_hint=0.05
        )
        announced = sum(
            len(m.parities) for m in messages_of_type(log, CascadeSubsetAnnouncement)
        )
        bisect_replies = len(messages_of_type(log, CascadeBisectQuery))
        confirmations = result.message_log is log and CascadeParameters().confirmation_parities
        assert result.disclosed_parities == announced + bisect_replies + confirmations

    def test_independent_at_most_disclosed(self):
        reference, noisy, _ = make_keys(900, 0.06, seed=12)
        result = CascadeProtocol(rng=DeterministicRNG(9)).reconcile(reference, noisy)
        assert result.independent_parities <= result.disclosed_parities
        assert result.independent_parities <= len(reference)

    def test_rank_is_computed_on_first_read_not_while_reconciling(self, monkeypatch):
        # Nothing between slot and key reads the independent-parity count, so
        # reconcile must not pay for it: the rank tracker runs when the value
        # is first asked for, once, and the value travels with a pickled result.
        import pickle

        from repro.mathkit.gf2 import IncrementalGF2Rank

        calls = []
        original = IncrementalGF2Rank.add
        monkeypatch.setattr(
            IncrementalGF2Rank, "add", lambda self, mask: calls.append(1) or original(self, mask)
        )
        reference, noisy, _ = make_keys(900, 0.06, seed=12)
        result = CascadeProtocol(rng=DeterministicRNG(9)).reconcile(reference, noisy)
        assert calls == []
        shipped = pickle.loads(pickle.dumps(result))
        rank = result.independent_parities
        assert len(calls) == result.disclosed_parities
        assert result.independent_parities == rank == shipped.independent_parities
        assert len(calls) == 2 * result.disclosed_parities  # the copy computed its own, once

class TestMessages:
    def test_subsets_identified_by_32_bit_seeds(self):
        reference, noisy, _ = make_keys(600, 0.05, seed=17)
        log = PublicChannelLog()
        CascadeProtocol(rng=DeterministicRNG(13)).reconcile(reference, noisy, log=log)
        announcements = [
            m for m in messages_of_type(log, CascadeSubsetAnnouncement) if m.round_index >= 0
        ]
        assert announcements, "at least one LFSR subset round must run"
        for message in announcements:
            assert len(message.seeds) == CascadeParameters().subsets_per_round
            assert all(0 <= seed < 2**32 for seed in message.seeds)

    def test_parity_replies_logged(self):
        reference, noisy, _ = make_keys(500, 0.05, seed=18)
        log = PublicChannelLog()
        CascadeProtocol(rng=DeterministicRNG(14)).reconcile(reference, noisy, log=log)
        assert messages_of_type(log, CascadeParityReply)
        assert log.total_bytes > 0


class TestProperties:
    @given(
        st.integers(min_value=64, max_value=400),
        st.floats(min_value=0.0, max_value=0.12),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=15, deadline=None)
    def test_reconciliation_always_converges(self, length, error_rate, seed):
        reference, noisy, _ = make_keys(length, error_rate, seed=seed + 1)
        result = CascadeProtocol(rng=DeterministicRNG(seed)).reconcile(
            reference, noisy, error_rate_hint=max(error_rate, 0.01)
        )
        assert result.confirmed == result.matches_reference or result.matches_reference
        assert result.matches_reference is True
