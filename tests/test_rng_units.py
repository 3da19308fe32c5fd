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
from tests.draws import bernoulli, sample


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
        """The fault plane's schedules depend on it: a rate of 0 or 1 leaves
        the stream where it was."""
        rng, untouched = DeterministicRNG(3), DeterministicRNG(3)
        assert bernoulli(rng, 0.0) is False
        assert bernoulli(rng, 1.0) is True
        assert rng.random() == untouched.random()

    def test_bernoulli_rate(self):
        rng = DeterministicRNG(5)
        rate = sum(bernoulli(rng, 0.3) for _ in range(20_000)) / 20_000
        assert abs(rate - 0.3) < 0.02

    def test_getrandbits_zero(self):
        assert DeterministicRNG(1).getrandbits(0) == 0

    def test_exponential_positive(self):
        rng = DeterministicRNG(2)
        assert all(rng.exponential(5.0) > 0 for _ in range(100))
        with pytest.raises(ValueError):
            rng.exponential(0.0)

    def test_sample_distinct(self):
        rng = DeterministicRNG(10)
        drawn = sample(rng, range(100), 10)
        assert len(set(drawn)) == 10


#: probability -> 32 ``bernoulli`` draws from ``DeterministicRNG(3)``, as the
#: tests' pinned literals were recorded with them (``1`` is True).
BERNOULLI_DRAWS = {
    0.1: "00000110000000000000010001000000",
    0.3: "10000110110000010000010001000000",
    0.5: "10100110110101010000010011010000",
    0.9: "11111111110111111111111111111110",
}

#: (population size, k) -> ``sample`` from ``DeterministicRNG(10)``: a pool
#: draw, a set draw, and a large population.
SAMPLE_DRAWS = {
    (20, 10): [18, 1, 13, 15, 0, 3, 7, 17, 4, 10],
    (100, 10): [73, 4, 54, 61, 1, 26, 59, 62, 35, 83],
    (2048, 8): [133, 1756, 1976, 60, 844, 1894, 2012, 1136],
}


class TestTestDrawsAreTheRecordedOnes:
    """The test-side draws give the values the tests' error patterns and the
    fault plane's schedules were recorded with, and leave the stream where
    those draws left it: a shift would move every pin built on them."""

    @pytest.mark.parametrize("probability", BERNOULLI_DRAWS)
    def test_bernoulli(self, probability):
        rng = DeterministicRNG(3)
        drawn = "".join("1" if bernoulli(rng, probability) else "0" for _ in range(32))
        assert drawn == BERNOULLI_DRAWS[probability]
        assert rng.getrandbits(16) == 25884

    @pytest.mark.parametrize("shape", SAMPLE_DRAWS, ids=lambda shape: "%d-choose-%d" % shape)
    def test_sample(self, shape):
        size, k = shape
        rng = DeterministicRNG(10)
        assert sample(rng, range(size), k) == SAMPLE_DRAWS[shape]
        assert rng.getrandbits(16) == (42825 if size == 2048 else 53124)


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
