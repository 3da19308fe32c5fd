"""Tests for the deterministic RNG and the optical unit helpers."""

import math

import pytest

from repro.util.rng import DeterministicRNG
from repro.util.units import (
    DEFAULT_FIBER_ATTENUATION_DB_PER_KM,
    db_to_fraction,
    fiber_loss_db,
    multi_photon_probability,
    non_empty_pulse_probability,
)


class TestDeterministicRNG:
    def test_same_seed_same_stream(self):
        a = DeterministicRNG(42)
        b = DeterministicRNG(42)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        assert DeterministicRNG(1).getrandbits(64) != DeterministicRNG(2).getrandbits(64)

    def test_fork_streams_are_independent_and_reproducible(self):
        parent1 = DeterministicRNG(7)
        parent2 = DeterministicRNG(7)
        child1 = parent1.fork("optics")
        child2 = parent2.fork("optics")
        assert child1.getrandbits(64) == child2.getrandbits(64)
        # Forking again gives a *different* stream.
        assert parent1.fork("optics").getrandbits(64) != child2.getrandbits(64)

    def test_bernoulli_bounds(self):
        rng = DeterministicRNG(3)
        assert rng.bernoulli(0.0) is False
        assert rng.bernoulli(1.0) is True

    def test_bernoulli_rate(self):
        rng = DeterministicRNG(5)
        rate = sum(rng.bernoulli(0.3) for _ in range(20_000)) / 20_000
        assert abs(rate - 0.3) < 0.02

    def test_getrandbits_zero(self):
        assert DeterministicRNG(1).getrandbits(0) == 0

    def test_poisson_mean_and_variance(self):
        rng = DeterministicRNG(11)
        samples = [rng.poisson(0.1) for _ in range(50_000)]
        mean = sum(samples) / len(samples)
        assert abs(mean - 0.1) < 0.01
        assert min(samples) == 0

    def test_poisson_zero_mean(self):
        assert DeterministicRNG(1).poisson(0.0) == 0

    def test_poisson_negative_rejected(self):
        with pytest.raises(ValueError):
            DeterministicRNG(1).poisson(-1.0)

    def test_exponential_positive(self):
        rng = DeterministicRNG(2)
        assert all(rng.exponential(5.0) > 0 for _ in range(100))
        with pytest.raises(ValueError):
            rng.exponential(0.0)

    def test_binomial_bounds(self):
        rng = DeterministicRNG(4)
        for _ in range(100):
            value = rng.binomial(10, 0.5)
            assert 0 <= value <= 10
        with pytest.raises(ValueError):
            rng.binomial(-1, 0.5)

    def test_shuffle_does_not_modify_input(self):
        rng = DeterministicRNG(9)
        items = [1, 2, 3, 4, 5]
        shuffled = rng.shuffle(items)
        assert items == [1, 2, 3, 4, 5]
        assert sorted(shuffled) == items

    def test_sample_distinct(self):
        rng = DeterministicRNG(10)
        sample = rng.sample(range(100), 10)
        assert len(set(sample)) == 10


class TestUnits:
    def test_db_fraction_roundtrip(self):
        for loss in (0.0, 0.5, 3.0, 10.0, 20.0):
            assert -10.0 * math.log10(db_to_fraction(loss)) == pytest.approx(loss, abs=1e-9)

    def test_known_values(self):
        assert db_to_fraction(10.0) == pytest.approx(0.1)
        assert db_to_fraction(3.0) == pytest.approx(0.501, abs=1e-3)
        assert db_to_fraction(0.0) == 1.0

    def test_fiber_loss(self):
        assert fiber_loss_db(10.0) == pytest.approx(10.0 * DEFAULT_FIBER_ATTENUATION_DB_PER_KM)
        assert fiber_loss_db(10.0, 0.25) == pytest.approx(2.5)
        with pytest.raises(ValueError):
            fiber_loss_db(-1.0)

    def test_photon_statistics(self):
        mu = 0.1
        p_nonempty = non_empty_pulse_probability(mu)
        p_multi = multi_photon_probability(mu)
        assert p_nonempty == pytest.approx(1 - math.exp(-mu))
        assert p_multi == pytest.approx(1 - math.exp(-mu) - mu * math.exp(-mu))
        # Multi-photon pulses are a small fraction of non-empty ones at mu=0.1.
        assert 0.0 < p_multi < p_nonempty < mu * 1.05

    def test_photon_statistics_zero_mean(self):
        assert non_empty_pulse_probability(0.0) == 0.0
        assert multi_photon_probability(0.0) == 0.0

    def test_photon_statistics_reject_negative(self):
        with pytest.raises(ValueError):
            multi_photon_probability(-0.1)
        with pytest.raises(ValueError):
            non_empty_pulse_probability(-0.1)
