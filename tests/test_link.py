"""Integration tests for the assembled QKD link."""

import math
import re

import numpy as np
import pytest

from repro import QKDSystem
from repro.eve import InterceptResendAttack
from repro.link import LinkParameters, QKDLink
from repro.mathkit.entropy import binary_entropy
from repro.optics.model import secret_fraction
from repro.util.rng import DeterministicRNG
from repro.util.units import multi_photon_probability, non_empty_pulse_probability


@pytest.fixture(scope="module")
def paper_link_report():
    """One shared 1.5-second run of the paper's link (module-scoped for speed)."""
    link = QKDLink(LinkParameters.paper_link(), DeterministicRNG(101), name="it-link")
    report = link.run_seconds(1.5)
    return link, report


class TestLinkParameters:
    def test_paper_link_defaults(self):
        params = LinkParameters.paper_link()
        assert params.channel.path.length_km == pytest.approx(10.0)
        assert params.engine.defense == "bennett"

    def test_for_distance(self):
        assert LinkParameters.for_distance(42.0).channel.path.length_km == 42.0

    @pytest.mark.parametrize("batch", [0, -5, 2.5, True])
    def test_slots_per_batch_must_be_a_positive_int(self, batch):
        """Refused at construction: a zero batch never shrinks the slots left
        to run, and a negative or fractional one fails only deep in the optics."""
        with pytest.raises(ValueError, match="slots_per_batch must be a positive integer"):
            LinkParameters(slots_per_batch=batch)


class TestSlotCounts:
    @pytest.mark.parametrize("n_slots", [True, 2.5, 100_000.0, -1, "10"])
    def test_run_slots_refuses_what_is_not_a_non_negative_int(self, n_slots):
        """Refused up front, naming the value: ``True`` and ``2.5`` used to
        fail deep in numpy, and ``100000.0`` ran and reported a float count."""
        link = QKDLink(LinkParameters(slots_per_batch=1_000), DeterministicRNG(7))
        message = f"slot count must be a non-negative integer, got {n_slots!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            link.run_slots(n_slots)
        assert link.channel.slots_transmitted == 0

    def test_run_slots_takes_a_numpy_integer_and_reports_an_int(self):
        report = QKDLink(LinkParameters(slots_per_batch=1_000), DeterministicRNG(7)).run_slots(
            np.int64(2_500)
        )
        assert report.slots_transmitted == 2_500
        assert type(report.slots_transmitted) is int


class TestAnalyticModel:
    def test_secret_fraction_positive_at_operating_point(self):
        link = QKDLink(LinkParameters.paper_link(), DeterministicRNG(3))
        assert link.estimated_secret_fraction() > 0.05


class TestSecretFraction:
    """The one analytic secret fraction, ``1 - f_EC h(e) - t(e) - multi``,
    shared by the link model and the scheduler's attacked-link yield."""

    @pytest.mark.parametrize("error_rate", [0.0, 0.01, 0.03, 0.065, 0.08])
    def test_is_the_term_by_term_formula(self, error_rate):
        mu = 0.1
        multi = multi_photon_probability(mu) / non_empty_pulse_probability(mu)
        expected = (
            1.0
            - 1.35 * binary_entropy(error_rate)
            - min(2.0 * math.sqrt(2.0) * error_rate, 1.0)
            - multi
        )
        assert secret_fraction(error_rate, mu) == max(expected, 0.0)

    @pytest.mark.parametrize("error_rate", [0.2, 0.5, 0.75])
    def test_is_zero_once_the_costs_exceed_the_key(self, error_rate):
        assert secret_fraction(error_rate, 0.1) == 0.0

    def test_never_grows_with_the_error_rate(self):
        fractions = [secret_fraction(e / 1000.0, 0.1) for e in range(0, 200)]
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))
        assert fractions[0] > 0.9 > fractions[-1]

    def test_brighter_pulses_leak_more_multi_photon_key(self):
        fractions = [secret_fraction(0.03, mu) for mu in (0.05, 0.1, 0.2, 0.4)]
        assert fractions == sorted(fractions, reverse=True)

    def test_a_better_cascade_keeps_more_key(self):
        assert secret_fraction(0.05, 0.1, cascade_efficiency=1.0) > secret_fraction(
            0.05, 0.1, cascade_efficiency=1.35
        )

    def test_the_link_estimate_is_the_shared_function(self):
        link = QKDLink(LinkParameters.paper_link(), DeterministicRNG(3))
        mu = link.parameters.channel.effective_mean_photon_number
        assert link.estimated_secret_fraction() == secret_fraction(link.expected_qber(), mu)


class TestMonteCarloRun:
    def test_run_produces_key(self, paper_link_report):
        link, report = paper_link_report
        assert report.sifted_bits > 1000
        assert report.distilled_bits > 0
        assert 0.04 < report.mean_qber < 0.10
        assert report.blocks_distilled >= 1

    def test_rates_consistent(self, paper_link_report):
        _, report = paper_link_report
        assert report.sifted_rate_bps == pytest.approx(report.sifted_bits / 1.5)
        assert report.distilled_rate_bps == pytest.approx(report.distilled_bits / 1.5)
        assert 0 < report.secret_fraction < 1

    def test_endpoints_hold_identical_key(self, paper_link_report):
        link, _ = paper_link_report
        assert link.engine.keys_match

    def test_measured_rate_below_analytic_bound(self, paper_link_report):
        """Finite blocks and margins keep the measured rate under the asymptotic bound."""
        link, report = paper_link_report
        assert report.distilled_rate_bps <= link.estimated_secret_key_rate() * 1.2

    def test_run_slots_validation(self):
        link = QKDLink(LinkParameters.paper_link(), DeterministicRNG(7))
        with pytest.raises(ValueError):
            link.run_slots(-1)
        with pytest.raises(ValueError):
            link.run_seconds(-1.0)

    def test_zero_slots(self):
        link = QKDLink(LinkParameters.paper_link(), DeterministicRNG(8))
        report = link.run_slots(0)
        assert report.sifted_bits == 0
        assert report.distilled_bits == 0

    def test_a_second_run_reports_its_own_counts(self):
        """Each report covers its own call: the second 200 000-slot run sifts
        312 bits (1 560 b/s), not the link's cumulative 646 (3 230 b/s)."""
        link = QKDSystem(seed=2003).link()
        first = link.run_slots(200_000)
        second = link.run_slots(200_000)
        assert (first.sifted_bits, second.sifted_bits) == (334, 312)
        assert second.sifted_rate_bps == pytest.approx(1_560.0)
        assert link.engine.statistics.sifted_bits == 646
        for name in ("distilled_bits", "blocks_distilled", "blocks_aborted"):
            total = getattr(link.engine.statistics, name)
            assert getattr(first, name) + getattr(second, name) == total, name
        errors = link.engine.statistics.sifted_errors
        assert first.mean_qber * 334 + second.mean_qber * 312 == pytest.approx(errors)
        # The first report is a snapshot: the second run left it alone.
        assert first.sifted_bits == 334 and first.slots_transmitted == 200_000


class TestAttackedLink:
    def test_attack_attach(self):
        link = QKDLink(LinkParameters.paper_link(), DeterministicRNG(9))
        attack = InterceptResendAttack(1.0)
        link.attach_attack(attack)
        assert link.attack is attack

    def test_partial_intercept_shows_without_silencing_the_pipeline(self):
        """A 25 % intercept-resend raises the QBER but stays under the alarm:
        no block aborts, every block goes through the whole pipeline, and the
        eavesdropper costs key rather than stopping the link.  Same seed twice
        gives the same per-block stream and the same pool bits."""

        def run(attacked):
            link = QKDLink(LinkParameters.paper_link(), DeterministicRNG(7))
            if attacked:
                link.attach_attack(InterceptResendAttack(intercept_fraction=0.25))
            report = link.run_slots(1_500_000)
            blocks = [(outcome.sifted_bits, outcome.qber) for outcome in report.outcomes]
            pool = [str(block.bits) for block in link.engine.alice_pool.blocks]
            return report, blocks, pool

        clean, clean_blocks, clean_pool = run(attacked=False)
        attacked, attacked_blocks, attacked_pool = run(attacked=True)
        assert clean.distilled_bits > 0
        assert attacked.mean_qber > clean.mean_qber
        assert attacked.blocks_aborted == 0 and attacked.outcomes
        for outcome in attacked.outcomes:
            assert not outcome.aborted
            assert outcome.cascade is not None and outcome.entropy is not None
        assert attacked.distilled_bits < clean.distilled_bits
        assert run(attacked=False)[1:] == (clean_blocks, clean_pool)
        assert run(attacked=True)[1:] == (attacked_blocks, attacked_pool)
