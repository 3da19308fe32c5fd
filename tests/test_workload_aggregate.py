"""Aggregate demand: compound arrivals vs the per-tunnel model.

The contract: :class:`repro.kms.AggregateProfile` models a whole class of
tunnels per pair without per-tunnel objects, and for the ``poisson`` kind
is *equivalent in distribution* to superposing that many independent
per-tunnel :class:`~repro.kms.TrafficWorkload` processes.  The equivalence
is checked two ways — pinned fixed-seed counts per epoch bucket (exact,
deterministic), and a multi-seed mean-rate comparison against the
per-tunnel superposition (statistical, tolerance-bounded).
"""

import pytest

from repro.kms import (
    AggregateProfile,
    AggregateWorkload,
    KeyManagementService,
    KmsConfig,
    ReplenishmentConfig,
    TrafficWorkload,
    WorkloadProfile,
)
from repro.network.relay import TrustedRelayNetwork
from repro.util.rng import DeterministicRNG

PAIR = ("alpha", "beta")


def bucket_counts(events, horizon, bucket_seconds):
    counts = [0] * int(horizon / bucket_seconds)
    for t, count in events:
        counts[int(t / bucket_seconds)] += count
    return counts


class TestAggregateProfile:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            AggregateProfile(kind="weird")
        with pytest.raises(ValueError, match="tunnel"):
            AggregateProfile(tunnels=0)
        with pytest.raises(ValueError, match="mean interval"):
            AggregateProfile(mean_interval_seconds=0.0)
        with pytest.raises(ValueError, match="tail exponent"):
            AggregateProfile.storm(tunnels=10, alpha=1.0)
        with pytest.raises(ValueError, match="max batch"):
            AggregateProfile.storm(tunnels=10, max_batch=0)

    @pytest.mark.parametrize("interval", [float("nan"), float("inf")])
    def test_non_finite_parameters_are_refused(self, interval):
        for build in (AggregateProfile.poisson, AggregateProfile.storm):
            with pytest.raises(ValueError, match=f"finite and positive, got {interval}"):
                build(tunnels=10, mean_interval_seconds=interval)
        with pytest.raises(ValueError, match="tail exponent"):
            AggregateProfile.storm(tunnels=10, alpha=float("nan"))

    def test_poisson_counts_are_pinned_for_fixed_seed(self):
        workload = AggregateWorkload(
            AggregateProfile.poisson(tunnels=8, mean_interval_seconds=400.0),
            DeterministicRNG(31),
        )
        events = workload.demand_events(PAIR, 2_000.0)
        # Regression pin: the exact per-500s-bucket counts for seed 31.
        assert bucket_counts(events, 2_000.0, 500.0) == [12, 11, 11, 15]
        assert all(count == 1 for _, count in events)
        # Bit-for-bit replay.
        replay = AggregateWorkload(
            AggregateProfile.poisson(tunnels=8, mean_interval_seconds=400.0),
            DeterministicRNG(31),
        )
        assert replay.demand_events(PAIR, 2_000.0) == events

    def test_poisson_matches_per_tunnel_superposition_in_rate(self):
        """Superposing N per-tunnel Poisson processes == one aggregate
        process at N× the rate; compare realized event counts over many
        seeds (different streams, so equality is distributional)."""
        tunnels, mean, horizon = 8, 400.0, 4_000.0
        aggregate_total = 0
        per_tunnel_total = 0
        for seed in range(20):
            aggregate = AggregateWorkload(
                AggregateProfile.poisson(tunnels=tunnels, mean_interval_seconds=mean),
                DeterministicRNG(seed),
            )
            aggregate_total += sum(
                c for _, c in aggregate.demand_events(PAIR, horizon)
            )
            fleet = TrafficWorkload(
                WorkloadProfile.poisson(mean), DeterministicRNG(1_000 + seed)
            )
            # One independent labeled stream per tunnel, same pair class.
            per_tunnel_total += sum(
                len(fleet.demand_times((f"tunnel-{i}", "beta"), horizon))
                for i in range(tunnels)
            )
        # Both estimate 20 seeds × (tunnels/mean) × horizon = 1600 events.
        expected = 20 * tunnels * horizon / mean
        assert aggregate_total == pytest.approx(expected, rel=0.10)
        assert per_tunnel_total == pytest.approx(expected, rel=0.10)
        assert aggregate_total == pytest.approx(per_tunnel_total, rel=0.10)

    def test_storm_batches_are_heavy_tailed_and_bounded(self):
        profile = AggregateProfile.storm(
            tunnels=1_000_000, mean_interval_seconds=5.0, alpha=2.0, max_batch=500
        )
        workload = AggregateWorkload(profile, DeterministicRNG(7))
        events = workload.demand_events(PAIR, 20_000.0)
        sizes = [count for _, count in events]
        assert len(sizes) > 1_000
        assert min(sizes) >= 1 and max(sizes) <= 500
        # Zeta(2): P(1) ≈ 0.61 of all batches, and the tail reaches far
        # beyond the mode — singletons dominate but storms exist.
        singletons = sizes.count(1) / len(sizes)
        assert 0.5 < singletons < 0.7
        assert max(sizes) > 20

    @pytest.mark.timeout(10)
    @pytest.mark.parametrize("horizon", [float("nan"), float("inf")])
    def test_a_non_finite_horizon_is_refused(self, horizon):
        """``now >= nan`` is never true: the arrival loop used to append
        bursts forever."""
        for profile in (
            AggregateProfile.poisson(tunnels=10, mean_interval_seconds=60.0),
            AggregateProfile.storm(tunnels=100, mean_interval_seconds=60.0),
        ):
            workload = AggregateWorkload(profile, DeterministicRNG(5))
            with pytest.raises(ValueError, match=f"finite, got {horizon}"):
                workload.demand_events(PAIR, horizon)
            with pytest.raises(ValueError, match=f"finite, got {horizon}"):
                workload.schedule([PAIR], horizon)

    def test_schedule_is_ordered_and_pair_independent(self):
        profile = AggregateProfile.storm(tunnels=100, mean_interval_seconds=60.0)
        workload = AggregateWorkload(profile, DeterministicRNG(5))
        alone = workload.demand_events(PAIR, 1_800.0)
        merged = workload.schedule([("x", "y"), PAIR], 1_800.0)
        assert merged == sorted(merged, key=lambda item: (item[0], item[1]))
        assert [
            (t, count) for t, pair, count in merged if pair == PAIR
        ] == alone  # another pair in the fleet never perturbs this pair
        assert all(len(item) == 3 for item in merged)


class TestServiceIntegration:
    def test_demand_counts_expand_into_individual_rekeys(self):
        relays = TrustedRelayNetwork.for_mesh(
            n_endpoints=2, n_relays=2, rng=DeterministicRNG(3), prefill_seconds=120.0
        )
        profile = AggregateProfile.storm(
            tunnels=1_000, mean_interval_seconds=300.0, alpha=2.5, max_batch=50
        )
        config = KmsConfig(
            replenishment=ReplenishmentConfig(epoch_seconds=300.0, workers=1)
        ).with_workload(profile)
        service = KeyManagementService(relays, config, rng=DeterministicRNG(21))
        horizon = 0.5 * 3600.0
        expected = sum(
            count for _, _, count in service.workload.schedule(service.pairs, horizon)
        )
        report = service.serve(hours=0.5)
        assert isinstance(service.workload, AggregateWorkload)
        assert report.demands == expected
        assert report.completion_accounted