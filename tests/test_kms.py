"""The continuous-operation key-management subsystem (repro.kms).

Covers the store's reservation/consume/expire contract, the deterministic
workload schedules, the replenishment scheduler's priority and detection
behaviour, and the full service soak — including the pinned worker-count
invariance digest the subsystem's determinism contract promises.
"""

import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import QKDSystem
from repro.core.keypool import KeyBlock, KeyPool, KeyPoolExhaustedError
from repro.eve.intercept_resend import InterceptResendAttack
from repro.kms import (
    ConservationError,
    KeyManagementService,
    KeyStore,
    KeyStoreExhaustedError,
    KmsConfig,
    ReplenishmentConfig,
    ReplenishmentScheduler,
    ReservationError,
    TrafficWorkload,
    WorkloadProfile,
)
from repro.kms.indexing import DEFER, DROP, EMIT, LazyPriorityHeap
from repro.kms.service import KmsMetrics, percentile
from repro.link import LinkParameters, QKDLink
from repro.network.relay import TrustedRelayNetwork
from repro.optics.model import ChannelParameters, secret_fraction
from repro.util.bits import BitString
from repro.util.latency import LatencyHistogram
from repro.util.rng import DeterministicRNG


def make_store(**kwargs):
    defaults = dict(
        capacity_bits=4096, low_water_bits=256, high_water_bits=1024
    )
    defaults.update(kwargs)
    return KeyStore(("alice", "bob"), **defaults)


def filled_store(bits=2048, **kwargs):
    store = make_store(**kwargs)
    store.deposit(BitString.random(bits, DeterministicRNG(5)), now=0.0)
    return store


# --------------------------------------------------------------------- #
# KeyPool ageing primitive
# --------------------------------------------------------------------- #


class TestKeyPoolExpiry:
    def test_drop_head_blocks_drops_the_oldest_block(self):
        pool = KeyPool(name="aged")
        pool.add_block(KeyBlock(BitString.random(64, DeterministicRNG(1)), 0, created_at=0.0))
        pool.add_block(KeyBlock(BitString.random(64, DeterministicRNG(2)), 1, created_at=10.0))
        dropped = pool.drop_head_blocks(1)
        assert dropped == 64
        assert pool.bits_expired == 64
        assert pool.available_bits == 64

    def test_expire_accounts_partially_consumed_head(self):
        pool = KeyPool(name="aged")
        pool.add_block(KeyBlock(BitString.random(64, DeterministicRNG(1)), 0, created_at=0.0))
        pool.draw_bits(24)
        assert pool.drop_head_blocks(1) == 40
        assert pool.available_bits == 0


# --------------------------------------------------------------------- #
# KeyStore
# --------------------------------------------------------------------- #


class TestKeyStore:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_key_age_seconds", float("nan")),
            ("max_key_age_seconds", float("inf")),
            ("max_key_age_seconds", -5.0),
            ("max_key_age_seconds", 0.0),
            ("depletion_halflife_seconds", float("nan")),
            ("depletion_halflife_seconds", float("inf")),
            ("depletion_halflife_seconds", -600.0),
            ("depletion_halflife_seconds", 0.0),
        ],
    )
    def test_bad_ages_are_refused_at_construction(self, field, value):
        """A NaN or negative age used to expire every unreserved bit on the
        first sweep; a NaN half-life made the refill priority NaN."""
        with pytest.raises(ValueError, match=field):
            make_store(**{field: value})

    def test_deposit_feeds_both_pools_identically(self):
        store = make_store()
        banked = store.deposit(BitString.random(512, DeterministicRNG(3)))
        assert banked == 512
        assert store.local_pool.available_bits == 512
        assert store.remote_pool.available_bits == 512
        a = store.local_pool.draw_bits(0)  # no-op draw allowed
        assert len(a) == 0

    def test_deposit_truncates_at_capacity(self):
        store = make_store(capacity_bits=1024, high_water_bits=1024)
        assert store.deposit(BitString.random(900, DeterministicRNG(1))) == 900
        assert store.deposit(BitString.random(900, DeterministicRNG(2))) == 124
        assert store.available_bits == 1024
        assert store.deposit(BitString.random(8, DeterministicRNG(3))) == 0

    def test_reserve_then_consume_draws_in_lockstep(self):
        store = filled_store()
        reservation = store.reserve(512, now=1.0)
        assert store.reserved_bits == 512
        assert store.unreserved_bits == 2048 - 512
        with store.consuming(reservation, now=2.0):
            local = store.local_pool.draw_bits(512)
            remote = store.remote_pool.draw_bits(512)
        assert local.to_bytes() == remote.to_bytes()
        assert store.reserved_bits == 0
        assert not reservation.active
        assert store.statistics.bits_consumed == 512

    def test_exhaustion_while_reservation_held(self):
        """The ISSUE edge case: a held reservation starves later consumers
        cleanly, and direct pool draws cannot invade the reserved bits."""
        store = filled_store(bits=1024)
        held = store.reserve(900, now=0.0)
        # A second consumer cannot reserve what's left.
        with pytest.raises(KeyStoreExhaustedError):
            store.reserve(256, now=0.0)
        assert store.statistics.reservations_denied == 1
        # Nor can anyone draw past the reservation straight from the pools
        # (124 unreserved bits are fine, 200 would invade).
        assert len(store.local_pool.draw_bits(100)) == 100
        with pytest.raises(KeyPoolExhaustedError):
            store.local_pool.draw_bits(200)
        # The holder's own consumption still goes through untouched.
        with store.consuming(held, now=1.0):
            assert len(store.local_pool.draw_bits(900)) == 900
            assert len(store.remote_pool.draw_bits(900)) == 900

    def test_another_stores_reservation_is_refused(self):
        """Two stores number their reservations alike.  Neither may spend or
        release the other's: the bits reserved in each stay with the
        holder, and each holder's own draw still goes through."""
        store, other = filled_store(bits=1024), filled_store(bits=1024)
        held = store.reserve(900, now=0.0)
        foreign = other.reserve(900, now=0.0)
        assert held.reservation_id == foreign.reservation_id == 1
        with pytest.raises(ReservationError):
            with store.consuming(foreign, now=1.0):
                store.local_pool.draw_bits(900)
        with pytest.raises(ReservationError):
            store.draw(foreign, now=1.0)
        with pytest.raises(ReservationError):
            store.release(foreign)
        for s, reservation in ((store, held), (other, foreign)):
            assert reservation.active
            assert s.reserved_bits == 900 and s.available_bits == 1024
        assert store.statistics.bits_consumed == 0
        assert len(store.draw(held, now=2.0)) == 900
        assert len(other.draw(foreign, now=2.0)) == 900

    def test_draw_refuses_desynchronised_pools(self):
        store = filled_store(bits=512)
        store.remote_pool.blocks[0] = KeyBlock(BitString.from_int(0, 512), 0)
        with pytest.raises(ReservationError, match="desynchronised"):
            store.draw(store.reserve(256, now=0.0), now=1.0)

    def test_release_returns_bits_to_unreserved(self):
        store = filled_store(bits=1024)
        reservation = store.reserve(1000)
        store.release(reservation)
        assert store.unreserved_bits == 1024
        with pytest.raises(ReservationError):
            store.release(reservation)
        with pytest.raises(ReservationError):
            store.consuming(reservation).__enter__()

    def test_expiry_drops_old_blocks_in_lockstep(self):
        store = make_store(max_key_age_seconds=100.0)
        store.deposit(BitString.random(256, DeterministicRNG(1)), now=0.0)
        store.deposit(BitString.random(256, DeterministicRNG(2)), now=90.0)
        dropped = store.expire(now=150.0)
        assert dropped == 256
        assert store.local_pool.available_bits == 256
        assert store.remote_pool.available_bits == 256
        assert store.statistics.bits_expired == 256

    def test_expiry_never_invades_reservations(self):
        store = make_store(max_key_age_seconds=10.0)
        store.deposit(BitString.random(256, DeterministicRNG(1)), now=0.0)
        store.reserve(200, now=0.0)
        # Everything is ancient, but only 56 bits are unreserved and expiry
        # is block-granular — so nothing may be dropped.
        assert store.expire(now=1000.0) == 0
        assert store.available_bits == 256

    def test_depletion_rate_tracks_draws(self):
        store = filled_store()
        for t in (10.0, 20.0, 30.0):
            r = store.reserve(128, now=t)
            with store.consuming(r, now=t):
                store.local_pool.draw_bits(128)
        assert store.depletion_rate_bps > 0
        assert store.refill_priority() > 0

    def test_water_mark_validation(self):
        with pytest.raises(ValueError):
            KeyStore(("a", "b"), capacity_bits=100, low_water_bits=80, high_water_bits=60)
        with pytest.raises(ValueError):
            filled_store().reserve(0)

    @pytest.mark.parametrize(
        "capacity, low, high",
        [(0, 0, 0), (100, 80, 60), (100, 10, 101), (100, -1, 50)],
    )
    def test_water_marks_must_nest_inside_the_capacity(self, capacity, low, high):
        with pytest.raises(ValueError):
            KeyStore(("a", "b"), capacity_bits=capacity, low_water_bits=low, high_water_bits=high)

    def test_water_levels_follow_deposits(self):
        store = make_store()
        assert store.below_low_water and store.refill_deficit_bits == 1024
        store.deposit(BitString.from_int(0, 300))
        assert not store.below_low_water and store.refill_deficit_bits == 724
        store.deposit(BitString.from_int(0, 2000))
        assert store.refill_deficit_bits == 0

    def test_an_idle_stores_priority_is_its_deficit_fraction(self):
        store = make_store()
        assert store.refill_priority() == 1.0
        store.deposit(BitString.from_int(0, 512))
        assert store.refill_priority() == 0.5
        store.deposit(BitString.from_int(0, 1024))
        assert store.refill_priority() == 0.0

    def test_next_expiry_deadline_is_the_oldest_block_plus_the_age_limit(self):
        assert filled_store().next_expiry_deadline() is None  # no age limit
        store = make_store(max_key_age_seconds=60.0)
        assert store.next_expiry_deadline() is None  # nothing stored
        store.deposit(BitString.from_int(0, 128), now=5.0)
        store.deposit(BitString.from_int(0, 128), now=30.0)
        assert store.next_expiry_deadline() == 65.0
        assert store.expire(now=70.0) == 128
        assert store.next_expiry_deadline() == 90.0
        assert store.expire(now=95.0) == 128
        assert store.next_expiry_deadline() is None

    @given(
        operations=st.lists(
            st.tuples(
                st.sampled_from(
                    ["reserve", "release", "consume", "consume_raising", "foreign", "deposit", "expire"]
                ),
                st.integers(0, 400),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_reserved_bits_counter_equals_the_sum_over_live_reservations(self, operations):
        """``reserved_bits`` is a counter; what it counts is the bits of the
        reservations still in ``_reservations``, after every operation —
        refused ones, a consuming body that raises, and a reservation that
        belongs to another store included.  Spending or releasing the other
        store's reservation is refused and moves neither store's level."""
        store = make_store(max_key_age_seconds=50.0)
        other = filled_store()
        issued, foreign = [], []
        for step, (name, n) in enumerate(operations):
            now = float(step)
            target = issued[n % len(issued)] if issued else None
            before, refused = store.reserved_bits, None
            try:
                if name == "reserve":
                    issued.append(store.reserve(n, now=now))
                elif name == "release" and target is not None:
                    store.release(target)
                elif name in ("consume", "consume_raising") and target is not None:
                    with store.consuming(target, now=now):
                        store.local_pool.draw_bits(target.bits)
                        if name == "consume_raising":
                            raise RuntimeError("negotiation failed")
                        store.remote_pool.draw_bits(target.bits)
                elif name == "foreign":
                    # Same id space, another store's reservation.
                    foreign.append(other.reserve(1 + n % 8))
                    issued.append(foreign[-1])
                elif name == "deposit":
                    store.deposit(BitString.random(n, DeterministicRNG(step)), now=now)
                elif name == "expire":
                    store.expire(now=now + n)
            except (ReservationError, KeyPoolExhaustedError, ValueError, RuntimeError) as exc:
                refused = exc
            if name in ("release", "consume", "consume_raising") and any(
                target is r for r in foreign
            ):
                assert isinstance(refused, ReservationError)
                assert store.reserved_bits == before
            assert other.reserved_bits == sum(r.bits for r in foreign)
            live = sum(r.bits for r in store._reservations.values())
            assert store.reserved_bits == live
            assert store.unreserved_bits == store.available_bits - live
            assert f"{live} reserved" in repr(store)


# --------------------------------------------------------------------- #
# Workload schedules
# --------------------------------------------------------------------- #


class TestTrafficWorkload:
    def test_poisson_schedule_is_per_pair_deterministic(self):
        rng = DeterministicRNG(9)
        workload = TrafficWorkload(WorkloadProfile.poisson(60.0), rng)
        alone = workload.demand_times(("a", "b"), 3600.0)
        # The same pair's schedule is untouched by other pairs being asked.
        workload2 = TrafficWorkload(WorkloadProfile.poisson(60.0), DeterministicRNG(9))
        workload2.demand_times(("c", "d"), 3600.0)
        assert workload2.demand_times(("a", "b"), 3600.0) == alone
        assert alone == sorted(alone)
        assert all(0 <= t < 3600.0 for t in alone)
        # Rough rate sanity: ~60 arrivals expected over the hour.
        assert 20 <= len(alone) <= 140

    def test_bursty_schedule_clusters(self):
        profile = WorkloadProfile.bursty(600.0)
        workload = TrafficWorkload(profile, DeterministicRNG(4))
        times = workload.demand_times(("a", "b"), 4 * 3600.0)
        assert times == sorted(times)
        # Bursts pack several arrivals into the spread window.
        close_gaps = sum(
            1 for t0, t1 in zip(times, times[1:]) if t1 - t0 <= profile.burst_spread_seconds
        )
        assert close_gaps >= len(times) // 2

    def test_merged_schedule_is_time_ordered(self):
        workload = TrafficWorkload(WorkloadProfile.poisson(120.0), DeterministicRNG(2))
        merged = workload.schedule([("c", "d"), ("a", "b")], 1800.0)
        assert merged == sorted(merged, key=lambda item: (item[0], item[1]))

    @pytest.mark.timeout(10)
    @pytest.mark.parametrize("horizon", [float("nan"), float("inf")])
    def test_a_non_finite_horizon_is_refused(self, horizon):
        """``now >= nan`` is never true: the arrival loop used to append
        demand times forever."""
        for profile in (WorkloadProfile.poisson(60.0), WorkloadProfile.bursty(600.0)):
            workload = TrafficWorkload(profile, DeterministicRNG(9))
            with pytest.raises(ValueError, match=f"finite, got {horizon}"):
                workload.demand_times(("a", "b"), horizon)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            WorkloadProfile(kind="steady")
        with pytest.raises(ValueError):
            WorkloadProfile.poisson(0.0)

    @pytest.mark.timeout(10)
    @pytest.mark.parametrize("interval", [float("nan"), float("inf")])
    def test_a_non_finite_interval_is_refused(self, interval):
        """With ``nan`` the arrival loop never passed the horizon; with
        ``inf`` the exponential draw divided by zero."""
        for build in (WorkloadProfile.poisson, WorkloadProfile.bursty):
            with pytest.raises(ValueError, match=f"finite and positive, got {interval}"):
                build(interval)
        assert WorkloadProfile.poisson(1e12).mean_interval_seconds == 1e12


# --------------------------------------------------------------------- #
# Indexed priority structures
# --------------------------------------------------------------------- #


class TestLazyPriorityHeap:
    """The lazy-deletion index behind link selection and needy-store sweeps."""

    @staticmethod
    def build(priorities, unusable=(), dropped=()):
        def classify(key):
            if key in dropped:
                return (DROP, None)
            verdict = DEFER if key in unusable else EMIT
            return (verdict, (priorities[key], key))

        heap = LazyPriorityHeap()
        for key in priorities:
            heap.push(key, classify)
        return heap, classify

    def test_drains_in_exact_sorted_order(self):
        priorities = {"e": 3, "a": 1, "c": 0, "b": 1, "d": 7}
        heap, classify = self.build(priorities)
        assert heap.drain(classify) == sorted(priorities, key=lambda k: (priorities[k], k))
        assert len(heap) == 0

    def test_limit_caps_emission_and_keeps_the_rest(self):
        heap, classify = self.build({"a": 1, "b": 2, "c": 3})
        assert heap.drain(classify, limit=2) == ["a", "b"]
        assert "c" in heap and len(heap) == 1
        assert heap.drain(classify) == ["c"]

    def test_deferred_members_stay_indexed_and_do_not_count(self):
        unusable = {"a"}
        heap, classify = self.build({"a": 1, "b": 2, "c": 3}, unusable=unusable)
        # 'a' outranks both but is deferred: kept, uncounted, unemitted.
        assert heap.drain(classify, limit=2) == ["b", "c"]
        assert "a" in heap
        unusable.clear()  # usability flips need no push — DEFER kept it indexed
        assert heap.drain(classify) == ["a"]

    def test_drop_removes_membership(self):
        dropped = set()
        heap, classify = self.build({"a": 1, "b": 2}, dropped=dropped)
        dropped.add("a")  # reached its target after being indexed
        assert heap.drain(classify) == ["b"]
        assert "a" not in heap and len(heap) == 0
        heap.push("a", classify)  # push classifies immediately: still at target
        assert len(heap) == 0

    def test_push_supersedes_and_less_urgent_drift_self_heals(self):
        priorities = {"a": 5, "b": 3}
        heap, classify = self.build(priorities)
        priorities["a"] = 1
        heap.push("a", classify)  # more-urgent changes must be pushed (the contract)
        priorities["b"] = 9  # less-urgent drift self-heals at pop time
        assert heap.drain(classify) == ["a", "b"]


# --------------------------------------------------------------------- #
# Replenishment scheduler
# --------------------------------------------------------------------- #


def make_relays(seed=7, **kwargs):
    defaults = dict(n_endpoints=5, n_relays=4)
    defaults.update(kwargs)
    return TrustedRelayNetwork.for_mesh(rng=DeterministicRNG(seed), **defaults)


class TestReplenishmentScheduler:
    def test_analytic_epoch_banks_material_up_to_target(self):
        relays = make_relays()
        config = ReplenishmentConfig(
            epoch_seconds=600.0, workers=1, pad_target_bits=4096
        )
        scheduler = ReplenishmentScheduler(relays, DeterministicRNG(1), config)
        report = scheduler.run_epoch()
        assert report.total_banked_bits > 0
        for edge in relays.network.links():
            assert relays.pairwise_key_available_bits(edge.node_a, edge.node_b) <= 4096

    def test_epoch_output_invariant_to_worker_count(self):
        def pad_state(workers):
            relays = make_relays()
            scheduler = ReplenishmentScheduler(
                relays,
                DeterministicRNG(1),
                ReplenishmentConfig(workers=workers),
            )
            scheduler.run_epoch()
            scheduler.run_epoch()
            return {
                (e.node_a, e.node_b): relays.pad_for(e.node_a, e.node_b).peek(
                    relays.pad_for(e.node_a, e.node_b).available_bytes
                )
                for e in relays.network.links()
            }

        assert pad_state(1) == pad_state(4)

    def test_unusable_links_are_skipped(self):
        relays = make_relays()
        relays.network.cut_link("relay-0", "relay-1")
        scheduler = ReplenishmentScheduler(
            relays, DeterministicRNG(1), ReplenishmentConfig(workers=1)
        )
        report = scheduler.run_epoch()
        assert ("relay-0", "relay-1") in report.skipped_unusable
        assert ("relay-0", "relay-1") not in report.dispatched
        assert relays.pairwise_key_available_bits("relay-0", "relay-1") == 0

    def test_pressure_boosts_priority(self):
        relays = make_relays()
        scheduler = ReplenishmentScheduler(
            relays,
            DeterministicRNG(1),
            ReplenishmentConfig(workers=1, max_links_per_epoch=1),
        )
        scheduler.note_pressure("relay-1", "relay-2")
        report = scheduler.run_epoch()
        assert report.dispatched == [("relay-1", "relay-2")]
        # Pressure is consumed by the epoch that honoured it.
        assert scheduler.pressure == {}

    def test_analytic_attack_above_threshold_is_detected(self):
        relays = make_relays()
        scheduler = ReplenishmentScheduler(
            relays, DeterministicRNG(1), ReplenishmentConfig(workers=1)
        )
        scheduler.attach_attack("relay-0", "relay-1", InterceptResendAttack(1.0))
        report = scheduler.run_epoch()
        assert ("relay-0", "relay-1") in report.newly_eavesdropped
        assert report.banked_bits[("relay-0", "relay-1")] == 0
        assert relays.network.link("relay-0", "relay-1").eavesdropping_detected
        # Quiet interception stays under the radar but costs secret rate.
        scheduler.detach_attack("relay-0", "relay-1")
        relays.network.restore_link("relay-0", "relay-1")
        scheduler.attach_attack("relay-0", "relay-1", InterceptResendAttack(0.1))
        report2 = scheduler.run_epoch()
        assert ("relay-0", "relay-1") not in report2.newly_eavesdropped
        clean = max(
            bits for pair, bits in report2.banked_bits.items()
            if pair != ("relay-0", "relay-1")
        )
        assert report2.banked_bits[("relay-0", "relay-1")] < clean

    def test_quiet_interception_banks_the_link_model_at_the_raised_qber(self):
        """An attacked link below the detection threshold yields the shared
        analytic secret fraction at ``intrinsic + 0.25 * fraction``."""
        relays = make_relays()
        config = ReplenishmentConfig(workers=1, pad_target_bits=1 << 30)
        scheduler = ReplenishmentScheduler(relays, DeterministicRNG(1), config)
        scheduler.attach_attack("relay-0", "relay-1", InterceptResendAttack(0.1))
        report = scheduler.run_epoch()
        edge = relays.network.link("relay-0", "relay-1")
        parameters = LinkParameters(channel=ChannelParameters.for_distance(edge.length_km))
        link = QKDLink(parameters, DeterministicRNG(0))
        mu = link.parameters.channel.effective_mean_photon_number
        induced = link.expected_qber() + 0.25 * 0.1
        rate = link.sifted_rate_bps() * secret_fraction(induced, mu)
        expected_bits = int(rate * config.epoch_seconds) // 8 * 8
        assert expected_bits > 0
        assert report.banked_bits[("relay-0", "relay-1")] == expected_bits

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            ReplenishmentConfig(mode="psychic")
        with pytest.raises(ValueError):
            ReplenishmentConfig(epoch_seconds=0)

    def test_link_cap_must_be_none_or_positive(self):
        """A cap of 0 (or below) was accepted, and every epoch then
        dispatched no link: each store starved without an error."""
        for cap in (0, -1, 1.5, True, "2"):
            with pytest.raises(ValueError, match="max_links_per_epoch"):
                ReplenishmentConfig(max_links_per_epoch=cap)
        assert ReplenishmentConfig(max_links_per_epoch=1).max_links_per_epoch == 1
        assert ReplenishmentConfig().max_links_per_epoch is None

    @pytest.mark.parametrize("slots", [2.5, 100_000.0, True, 0, -1])
    def test_slots_per_epoch_must_be_a_positive_int(self, slots):
        """Refused at construction, naming the value, not at the first
        Monte-Carlo epoch deep in the optics."""
        message = f"slots_per_epoch must be a positive integer, got {slots!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            ReplenishmentConfig(slots_per_epoch=slots)

    def test_slots_per_epoch_takes_a_numpy_integer(self):
        assert ReplenishmentConfig(slots_per_epoch=np.int64(4096)).slots_per_epoch == 4096

    def test_unknown_link_raises_keyerror_naming_known_set(self):
        relays = make_relays()
        scheduler = ReplenishmentScheduler(
            relays, DeterministicRNG(1), ReplenishmentConfig(workers=1)
        )
        with pytest.raises(KeyError, match=r"unknown link.*known link\(s\):"):
            scheduler.note_pressure("relay-0", "not-a-node")
        with pytest.raises(KeyError, match="unknown link"):
            scheduler.attach_attack("not-a-node", "relay-0", InterceptResendAttack(1.0))
        with pytest.raises(KeyError, match="unknown link"):
            scheduler.detach_attack("relay-0", "not-a-node")

    def test_managed_link_subset(self):
        relays = make_relays()
        managed = sorted(
            tuple(sorted((e.node_a, e.node_b))) for e in relays.network.links()
        )[:2]
        scheduler = ReplenishmentScheduler(
            relays, DeterministicRNG(1), ReplenishmentConfig(workers=1), links=managed
        )
        report = scheduler.run_epoch()
        assert report.dispatched == managed
        # Links outside the managed set are never known to this scheduler.
        other = sorted(
            tuple(sorted((e.node_a, e.node_b))) for e in relays.network.links()
        )[-1]
        with pytest.raises(KeyError, match="unknown link"):
            scheduler.note_pressure(*other)
        with pytest.raises(KeyError, match="not present in the mesh"):
            ReplenishmentScheduler(
                relays, DeterministicRNG(1), links=[("ghost-a", "ghost-b")]
            )

    def test_heap_selection_matches_full_sort_under_fuzz(self):
        """Differential: the indexed ``select_links`` must emit exactly the
        order a full composite-key sort over all managed links would."""
        import random as pyrandom

        relays = make_relays()
        config = ReplenishmentConfig(
            workers=1, pad_low_water_bits=2_048, pad_target_bits=16_384
        )
        scheduler = ReplenishmentScheduler(relays, DeterministicRNG(1), config)
        fuzz = pyrandom.Random(42)
        edges = sorted(scheduler._edges)

        def reference(limit):
            ranked = []
            for key in edges:
                edge = scheduler._edges[key]
                pad = scheduler._pad_bits(edge)
                if pad >= config.pad_target_bits:
                    continue
                rank = 0 if pad < config.pad_low_water_bits else 1
                ranked.append(((rank, -scheduler._priority(edge), key), key, edge.usable))
            ranked.sort()
            emitted = [key for _, key, usable in ranked if usable]
            return emitted[:limit] if limit is not None else emitted

        for round_index in range(30):
            for _ in range(3):  # mutate pads, pressure and usability
                key = fuzz.choice(edges)
                move = fuzz.random()
                pad = relays.pad_for(*key)
                if move < 0.4:
                    relays.bank_pad(*key, bytes(fuzz.randrange(1, 2_000)))
                elif move < 0.6 and pad.available_bytes > 16:
                    relays.cross_hop(*key, bytes(8))
                elif move < 0.8:
                    scheduler.note_pressure(*key)
                elif relays.network.link(*key).usable:
                    relays.network.cut_link(*key)
                else:
                    relays.network.restore_link(*key)
            limit = fuzz.choice([None, 1, 2, 5])
            expected = reference(limit)
            # select_links applies the config cap itself; vary it per round.
            scheduler.config.max_links_per_epoch = limit
            got = [
                tuple(sorted((e.node_a, e.node_b))) for e in scheduler.select_links()
            ]
            assert got == expected, f"round {round_index}, limit {limit}"
            for key in got:  # drained members return for the next round
                scheduler._heap.push(key, scheduler._classify_link)
        assert scheduler.selection_seconds > 0.0


# --------------------------------------------------------------------- #
# The service soak
# --------------------------------------------------------------------- #

#: sha256 over every delivered end-to-end key, in delivery order, for the
#: pinned soak below.  Any change to the relay transport draw order, the
#: scheduler's commit order, the workload streams or the store bookkeeping
#: that can perturb delivered key material breaks this — by design.
PINNED_SOAK_DIGEST = (
    "c5e236bca0d3758c11096ba7ff4a19e13b2b8625f084f8d3ae0024bd70ea2748"
)


def run_soak(workers, hours=2.0):
    """The acceptance scenario: 9-node mesh, 10 gateway pairs, a mid-run
    DoS link cut and a mid-run eavesdropping attack."""
    relays = make_relays()  # 5 endpoints + 4 relays = 9 nodes
    config = KmsConfig(
        replenishment=ReplenishmentConfig(
            epoch_seconds=120.0, workers=workers
        )
    )
    service = KeyManagementService(relays, config, rng=DeterministicRNG(7))
    service.schedule_link_cut(1800.0, "relay-0", "relay-1")
    service.schedule_attack(3600.0, "relay-2", "relay-3", InterceptResendAttack(1.0))
    return service.serve(hours=hours)


class TestKeyManagementService:
    def test_soak_survives_failures_and_pins_digest(self):
        report = run_soak(workers=1)
        # Scale floor: >= 5 nodes, >= 8 gateway pairs, simulated hours.
        assert len(report.per_pair) == 10
        assert report.simulated_seconds == 2 * 3600.0
        # Liveness: the network kept delivering and rekeying through a DoS
        # cut and an eavesdropping attack, with zero starvation deadlocks —
        # every demand reached a terminal or still-waiting state.
        assert report.completion_accounted
        assert report.rekeys_completed > 0
        assert report.delivered_keys > 0
        assert report.keys_per_second > 0
        assert report.rekey_latency_p50_seconds <= report.rekey_latency_p99_seconds
        # The failures actually happened and were handled, not crashed over.
        assert report.reroutes > 0
        assert ("relay-2", "relay-3") in report.eavesdropped_links
        assert report.delivered_digest == PINNED_SOAK_DIGEST
        # What the digest does not cover: failure handling and feedback.
        assert (report.reroutes, report.transports_failed) == (3, 16)
        assert report.trunk_keys_delivered == 0
        assert sum(p["starved_epochs"] for p in report.per_pair.values()) == 5

    def test_soak_digest_invariant_to_worker_count(self):
        assert run_soak(workers=4).delivered_digest == PINNED_SOAK_DIGEST

    def test_link_failure_mid_epoch_reroutes_and_keeps_serving(self):
        relays = make_relays()
        config = KmsConfig(
            replenishment=ReplenishmentConfig(epoch_seconds=120.0, workers=1)
        )
        service = KeyManagementService(relays, config, rng=DeterministicRNG(3))
        # endpoint-0 hangs off relay-0; cutting relay-0--relay-1 forces its
        # cross-mesh traffic onto the surviving ring arcs mid-run.
        service.schedule_link_cut(1500.0, "relay-0", "relay-1")
        report = service.serve(hours=1.0)
        assert report.reroutes > 0
        assert report.completion_accounted
        assert not relays.network.link("relay-0", "relay-1").operational
        # Pairs kept being served after the cut.
        assert report.rekeys_completed > report.demands * 0.5

    def test_attack_end_and_restore_bring_a_link_back(self):
        """Attack -> detection -> attack ends and the link is restored ->
        the link banks pad again.  A restore alone would not do: the next
        epoch would re-detect the eavesdropper still on the fiber."""
        link = ("relay-2", "relay-3")

        def run(end_attack):
            service = KeyManagementService(
                make_relays(),
                KmsConfig(replenishment=ReplenishmentConfig(epoch_seconds=120.0, workers=1)),
                rng=DeterministicRNG(7),
            )
            service.schedule_attack(600.0, *link, InterceptResendAttack(1.0))
            if end_attack:
                service.schedule_attack_end(1800.0, *link)
            service.schedule_link_restore(1800.0, *link)
            report = service.serve(hours=1.0)
            epochs = service.replenisher.reports
            detected = [e.epoch_index for e in epochs if link in e.newly_eavesdropped]
            banked = [e.epoch_index for e in epochs if e.banked_bits.get(link, 0) > 0]
            return report, detected, banked

        restored = 15  # the epoch at t=1800 s
        report, detected, banked = run(end_attack=True)
        # caught once, by the first epoch after t=600 s that touched the link
        assert len(detected) == 1 and 5 <= detected[0] < restored
        assert link not in report.eavesdropped_links
        # silent while flagged, banking again once the attack is gone
        assert not [e for e in banked if detected[0] <= e < restored]
        assert [e for e in banked if e >= restored]
        assert report.completion_accounted

        report, detected, banked = run(end_attack=False)
        assert len(detected) == 2 and detected[1] >= restored
        assert link in report.eavesdropped_links
        assert not [e for e in banked if e >= detected[0]]

    def test_total_starvation_times_out_without_deadlock(self):
        relays = make_relays()
        # An epoch period beyond the horizon: no replenishment ever runs
        # after t=0, pads stay empty, every demand must starve.
        config = KmsConfig(
            rekey_timeout_seconds=20.0,
            replenishment=ReplenishmentConfig(
                epoch_seconds=50_000.0, workers=1, pad_target_bits=0
            ),
        )
        service = KeyManagementService(relays, config, rng=DeterministicRNG(5))
        report = service.serve(hours=1.0)
        assert report.demands > 0
        assert report.rekeys_completed == 0
        assert report.starvation_events == report.demands
        assert report.rekeys_timed_out + report.pending_waiters == report.demands
        assert report.completion_accounted
        assert report.delivered_keys == 0

    @pytest.mark.timeout(10)
    @pytest.mark.parametrize("hours", [float("nan"), float("inf")])
    def test_a_non_finite_serve_duration_is_refused(self, hours):
        """A NaN or infinite duration used to pass the ``hours <= 0`` check
        and hang building the demand schedule."""
        relays = make_relays(n_endpoints=2, n_relays=1)
        service = KeyManagementService(relays, KmsConfig(), rng=DeterministicRNG(3))
        with pytest.raises(ValueError, match=f"finite, got {hours}"):
            service.serve(hours=hours)

    @pytest.mark.timeout(20)
    def test_expiry_due_exactly_at_a_sweep_does_not_hang(self):
        """A block banked at an epoch and aged out on a later epoch is due
        exactly at that sweep, which keeps it (``created_at >= now - age``);
        re-arming its unchanged deadline inside the sweep popped it forever."""
        report = (
            QKDSystem(seed=3)
            .mesh(n_endpoints=2, n_relays=2)
            .kms(KmsConfig(max_key_age_seconds=60.0))
            .serve(hours=0.02)
        )
        assert report.completion_accounted
        assert report.rekeys_completed > 0

    @pytest.mark.timeout(20)
    def test_a_due_block_held_by_a_reservation_does_not_stall_the_sweep(self):
        relays = make_relays(n_endpoints=2, n_relays=1)
        config = KmsConfig(max_key_age_seconds=10.0)
        service = KeyManagementService(relays, config, rng=DeterministicRNG(3))
        pair = service.pairs[0]
        store = service.stores[pair]
        store.deposit(BitString.random(256, DeterministicRNG(4)), now=0.0)
        held = store.reserve(store.available_bits, now=0.0)
        service._arm_expiry(pair)
        service._sweep_expiry(50.0)  # due, but every bit is reserved
        assert store.reserved_bits == held.bits
        store.release(held)
        service._sweep_expiry(51.0)  # retried, and now it goes
        assert store.available_bits == 0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rekey_timeout_seconds", float("nan")),
            ("rekey_timeout_seconds", float("inf")),
            ("max_key_age_seconds", float("nan")),
            ("max_key_age_seconds", -60.0),
            ("max_key_age_seconds", 0.0),
        ],
    )
    def test_bad_timing_is_refused_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            KmsConfig(**{field: value})

    @pytest.mark.parametrize("ttl", [float("nan"), float("inf"), 0.0, -1.0])
    def test_a_bad_custody_ttl_is_refused_at_construction(self, ttl):
        """A NaN TTL never expires a bundle (``now >= nan`` is never true)."""
        with pytest.raises(ValueError, match="custody_ttl_seconds"):
            KmsConfig(custody=True, custody_ttl_seconds=ttl)

    @pytest.mark.parametrize("epoch", [float("nan"), float("inf"), 0.0])
    def test_a_bad_epoch_is_refused_at_construction(self, epoch):
        with pytest.raises(ValueError, match="epoch_seconds"):
            ReplenishmentConfig(epoch_seconds=epoch)

    @pytest.mark.parametrize(
        "marks",
        [
            dict(store_low_water_bits=-1),
            dict(store_low_water_bits=40_000),
            dict(store_high_water_bits=1 << 21),
        ],
    )
    def test_store_water_marks_are_refused_at_construction(self, marks):
        with pytest.raises(ValueError, match="store water marks"):
            KmsConfig(**marks)

    def test_fifty_thousand_completions_take_no_more_memory_than_a_thousand(self):
        def grown(completions):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                metrics = KmsMetrics()
                for i in range(completions):
                    metrics.rekey_latency.add(0.5 * (i % 97))
                return tracemalloc.get_traced_memory()[0] - before, metrics
            finally:
                tracemalloc.stop()

        grown(1_000)  # first-call allocations (caches, interned objects)
        small, few = grown(1_000)
        large, many = grown(50_000)
        assert len(few.rekey_latency) == 1_000 and len(many.rekey_latency) == 50_000
        # One float kept per completion would be 49 000 x 32 B more.
        assert large <= small + 1024

    def test_the_wait_summary_matches_the_waits_it_recorded(self):
        """The mean is the exact running sum over completions; p50 and p99
        are the histogram's, within its relative error of the exact ones."""
        config = KmsConfig(replenishment=ReplenishmentConfig(epoch_seconds=120.0, workers=1))
        service = KeyManagementService(make_relays(), config, rng=DeterministicRNG(7))
        waits = []
        histogram = service.metrics.rekey_latency
        record = histogram.add
        histogram.add = lambda wait: (waits.append(wait), record(wait))
        report = service.serve(hours=0.5)
        assert len(waits) == report.rekeys_completed > 0
        assert report.rekey_latency_mean_seconds == sum(waits) / len(waits)
        for q, summary in ((50, report.rekey_latency_p50_seconds), (99, report.rekey_latency_p99_seconds)):
            exact = percentile(waits, q)
            assert abs(summary - exact) <= LatencyHistogram.RELATIVE_ERROR * exact

    def test_serve_discards_its_unrun_events(self):
        """The total-starvation run ends with two waiters parked and their
        timeouts (and the next epoch) still queued.  serve() drops those
        events on return — they close over the service — while the waiters
        stay counted exactly as before."""
        config = KmsConfig(
            rekey_timeout_seconds=20.0,
            replenishment=ReplenishmentConfig(
                epoch_seconds=50_000.0, workers=1, pad_target_bits=0
            ),
        )
        service = KeyManagementService(make_relays(), config, rng=DeterministicRNG(5))
        report = service.serve(hours=1.0)
        assert service.events._queue == []
        assert (report.demands, report.rekeys_timed_out, report.pending_waiters) == (295, 293, 2)
        assert report.completion_accounted
        assert service.pending_waiters == 2
        parked = [w for queue in service._waiters.values() for w in queue if not w.resolved]
        assert len(parked) == 2
        assert all(w.timeout_event is None or w.timeout_event.callback is None for w in parked)

    def test_failure_injection_validates_links_at_arm_time(self):
        service = KeyManagementService(
            make_relays(),
            KmsConfig(replenishment=ReplenishmentConfig(workers=1)),
            rng=DeterministicRNG(1),
        )
        with pytest.raises(KeyError):
            service.schedule_link_cut(10.0, "relay-0", "relay-99")
        with pytest.raises(KeyError):
            service.schedule_attack(10.0, "endpoint-0", "endpoint-1", InterceptResendAttack(1.0))
        with pytest.raises(KeyError):
            service.replenisher.attach_attack("nope", "relay-0", InterceptResendAttack(1.0))

    def test_serve_is_single_shot(self):
        service = KeyManagementService(
            make_relays(),
            KmsConfig(replenishment=ReplenishmentConfig(workers=1)),
            rng=DeterministicRNG(1),
        )
        service.serve(hours=0.05)
        with pytest.raises(RuntimeError):
            service.serve(hours=0.05)

    def test_montecarlo_epochs_feed_the_service(self):
        """The LinkFarm-backed mode: real Monte-Carlo epochs distill the
        pads, worker count cannot perturb the outcome, and an attacked
        link is caught by its measured QBER."""

        def run(workers):
            relays = make_relays(
                seed=3, n_endpoints=2, n_relays=3, link_length_km=1.0
            )
            config = KmsConfig(
                transport_key_bits=64,
                store_capacity_bits=1024,
                store_low_water_bits=64,
                store_high_water_bits=128,
                replenishment=ReplenishmentConfig(
                    mode="montecarlo",
                    slots_per_epoch=800_000,
                    epoch_seconds=3600.0,
                    workers=workers,
                ),
            )
            service = KeyManagementService(relays, config, rng=DeterministicRNG(3))
            service.schedule_attack(0.0, "relay-0", "relay-1", InterceptResendAttack(1.0))
            return service.serve(hours=0.5)

        first = run(1)
        assert first.pad_bits_banked > 0
        assert first.delivered_keys > 0
        assert ("relay-0", "relay-1") in first.eavesdropped_links
        assert first.completion_accounted
        second = run(2)
        assert second.delivered_digest == first.delivered_digest
        assert second.pad_bits_banked == first.pad_bits_banked

    def test_facade_serve(self):
        from repro import KmsConfig as FacadeKmsConfig, QKDSystem

        mesh = QKDSystem(seed=11).mesh(n_endpoints=5, n_relays=4, prefill_seconds=0.0)
        report = mesh.kms(
            config=FacadeKmsConfig(
                replenishment=ReplenishmentConfig(epoch_seconds=120.0, workers=1)
            )
        ).serve(hours=0.5)
        assert report.rekeys_completed > 0
        assert report.completion_accounted
        replay = (
            QKDSystem(seed=11)
            .mesh(n_endpoints=5, n_relays=4, prefill_seconds=0.0)
            .kms(
                config=FacadeKmsConfig(
                    replenishment=ReplenishmentConfig(epoch_seconds=120.0, workers=3)
                )
            )
            .serve(hours=0.5)
        )
        assert replay.delivered_digest == report.delivered_digest


# --------------------------------------------------------------------- #
# Custody-backed disruption tolerance (repro.dtn behind KmsConfig.custody)
# --------------------------------------------------------------------- #


def custody_service(
    custody=True,
    restore_at=1500.0,
    ttl=4000.0,
    capacity=1 << 20,
    policy="scheduled",
):
    """A 2x2 mesh whose single cross-mesh pair loses its only access link
    mid-run (endpoint-1 hangs off relay-1 alone)."""
    relays = TrustedRelayNetwork.for_mesh(
        n_endpoints=2, n_relays=2, rng=DeterministicRNG(11), prefill_seconds=30.0
    )
    config = KmsConfig(
        gateway_pairs=(("endpoint-0", "endpoint-1"),),
        custody=custody,
        custody_ttl_seconds=ttl,
        custody_capacity_bits=capacity,
        custody_policy=policy,
        replenishment=ReplenishmentConfig(epoch_seconds=120.0, workers=1),
    )
    service = KeyManagementService(relays, config, rng=DeterministicRNG(7))
    service.schedule_link_cut(100.0, "endpoint-1", "relay-1")
    if restore_at is not None:
        service.schedule_link_restore(restore_at, "endpoint-1", "relay-1")
    return service


def custody_soak(**scenario):
    """One hour of :func:`custody_service`."""
    return custody_service(**scenario).serve(hours=1.0)


#: Literal pins for the custody soaks (recorded from the pre-seam delivery
#: code): both digests, the parked/failed transport counts and the five
#: custody counters (submitted, delivered, expired, evicted, live).  A
#: never-delivering run's custody digest is the sha256 of nothing.
_HEALED_DIGESTS = (
    "79d22259163143ed52590a5036052f6145fa8212f7ac392a08d208aa8b008ae3",
    "69e4564ffa9b38e668fa6a248cf2eeb95a034106e2870bfc0788e92c4f982ffb",
)
_PARTITIONED_DIGESTS = (
    "b3e5d154dccbeb7ba7708ae4e9300f5e0b05d1758aa8359538fea0823eb79a97",
    hashlib.sha256().hexdigest(),
)
PINNED_CUSTODY_SOAKS = {
    "heal": ({}, _HEALED_DIGESTS, (6, 0), (6, 6, 0, 0, 0)),
    "never-heals-ttl-300": (
        dict(restore_at=None, ttl=300.0),
        _PARTITIONED_DIGESTS,
        (72, 0),
        (72, 0, 59, 0, 13),
    ),
    "capacity-2048": (
        dict(restore_at=None, capacity=2048),
        _PARTITIONED_DIGESTS,
        (30, 0),
        (30, 0, 0, 29, 1),
    ),
    "epidemic": (dict(policy="epidemic"), _HEALED_DIGESTS, (6, 0), (6, 6, 0, 0, 0)),
}


class TestKmsCustody:
    @pytest.mark.parametrize("scenario", sorted(PINNED_CUSTODY_SOAKS))
    def test_custody_soak_pins(self, scenario):
        kwargs, digests, transports, counters = PINNED_CUSTODY_SOAKS[scenario]
        report = custody_soak(**kwargs)
        assert (report.delivered_digest, report.custody_delivered_digest) == digests
        assert (report.transports_parked, report.transports_failed) == transports
        assert (
            report.custody_submitted,
            report.custody_delivered,
            report.custody_expired,
            report.custody_evicted,
            report.custody_live,
        ) == counters
        assert report.custody_accounted and report.completion_accounted

    def test_in_flight_bits_is_a_counter_equal_to_the_scan(self):
        """``in_flight_bits`` is kept where bundle states change; it must
        equal a scan of every bundle after every tick, through expiry,
        eviction (TTL 300 s, room for three bundles) and delivery."""
        pair = ("endpoint-0", "endpoint-1")
        for scenario in (dict(restore_at=None, ttl=300.0, capacity=3 * 2048), {}):
            service = custody_service(**scenario)
            custody = service.custody
            tick, ticks = custody.tick, []

            def checked_tick(now):
                tick(now)
                live = sum(b.key_bits for b in custody.bundles.values() if b.live)
                assert custody.in_flight_bits(*pair) == live
                assert custody.in_flight_bits(*reversed(pair)) == 0
                ticks.append(live)

            custody.tick = checked_tick
            report = service.serve(hours=1.0)
            assert len(ticks) > 20 and max(ticks) > 0
            if scenario:
                assert report.custody_expired > 0 and report.custody_evicted > 0
            else:
                assert report.custody_delivered > 0 and ticks[-1] == 0

    def test_a_contact_opening_between_epochs_banks_parked_key_at_once(self):
        """The access link's contact plan reopens at 1 500 s, between epochs:
        its custody tick banks every parked bundle then, not at 1 560 s."""
        from repro.dtn import ContactSchedule, ContactWindow

        service = custody_service(restore_at=1500.0)
        plan = ContactSchedule()
        windows = [ContactWindow(0.0, 100.0), ContactWindow(1500.0, np.inf)]
        plan.set_windows("endpoint-1", "relay-1", windows)
        service.custody.selector.schedule = plan
        store = service.stores[("endpoint-0", "endpoint-1")]
        banked_at, deposit = [], store.deposit
        store.deposit = lambda key, now: banked_at.append(now) or deposit(key, now)
        report = service.serve(hours=1.0)
        assert report.custody_delivered == report.custody_submitted == 6
        assert banked_at.count(1500.0) == 6
        assert all(at % 120.0 == 0 for at in banked_at if at != 1500.0)

    def test_ttl_expiry_is_terminal_and_counted(self):
        # the partition never heals and the TTL is shorter than the outage:
        # parked bundles must expire (terminal), never silently leak
        report = custody_soak(restore_at=None, ttl=300.0)
        assert report.custody_expired > 0
        assert report.custody_delivered == 0
        assert report.custody_accounted
        assert report.completion_accounted
        # expiry frees in-flight cover, so each epoch parks replacements
        assert report.custody_submitted > report.custody_expired - 1

    def test_bounded_custody_evicts_deterministically(self):
        # store sized for exactly one transport key: every new park evicts
        # the previous bundle, deterministically, and is counted
        first = custody_soak(restore_at=None, capacity=2048)
        second = custody_soak(restore_at=None, capacity=2048)
        assert first.custody_evicted > 0
        assert first.custody_accounted
        assert first.completion_accounted
        for name in (
            "custody_submitted",
            "custody_delivered",
            "custody_expired",
            "custody_evicted",
            "custody_live",
            "custody_occupancy_peak_bits",
            "custody_delivered_digest",
            "delivered_digest",
        ):
            assert getattr(first, name) == getattr(second, name), name


class TestConservation:
    def test_a_store_filled_to_capacity_swallows_no_transported_key(self):
        """High water at capacity: each supplied key is no longer than the
        store has room for, so every bit counted as delivered (and in the
        digest) was banked, and no pad carried a bit the store refused."""
        config = KmsConfig(store_capacity_bits=32_768, store_high_water_bits=32_768)
        service = QKDSystem(seed=7).mesh(n_endpoints=3, n_relays=4).kms(config)
        report = service.serve(hours=0.5)
        deposited = sum(store.statistics.bits_deposited for store in service.stores.values())
        assert report.delivered_key_bits == deposited == 145_408
        assert report.key_bits_dropped == 0
        assert service.conservation_fault() is None

    def test_custody_key_reaching_a_full_store_is_dropped_not_delivered(self):
        service = custody_service()
        pair = service.pairs[0]
        store = service.stores[pair]
        filler = BitString.random(store.capacity_bits - 1024, DeterministicRNG(1))
        service._bank(service._feeds[pair], filler, 0.0)
        # A live path: custody delivers at once, into the last 1024 bits.
        service.custody.submit(*pair, 2048, now=0.0)
        assert store.available_bits == store.capacity_bits
        assert (service.metrics.delivered_keys, service.metrics.key_bits_dropped) == (2, 1024)
        service.custody.submit(*pair, 2048, now=0.0)
        assert (service.metrics.delivered_keys, service.metrics.key_bits_dropped) == (2, 3072)
        assert service.metrics.delivered_key_bits == store.capacity_bits
        assert service.custody.metrics.bundles_delivered == 2
        assert service.conservation_fault() is None

    def test_an_imbalance_stops_the_service_at_the_next_epoch(self):
        service = custody_service()
        stats = service.stores[service.pairs[0]].statistics

        def lose_a_byte():
            stats.bits_deposited += 8

        service.events.schedule_at(200.0, lose_a_byte)
        message = r"t=240s: store endpoint-0--endpoint-1: \d+ bits deposited, \d+ consumed"
        with pytest.raises(ConservationError, match=message):
            service.serve(hours=1.0)

    def test_pad_spent_outside_a_hop_stops_the_service_at_the_next_epoch(self):
        service = custody_service()
        pad = service.relays.pad_for("relay-0", "relay-1")

        def leak_pad():
            pad.encrypt(bytes(8))

        service.events.schedule_at(200.0, leak_pad)
        message = r"t=240s: relays: \d+ pad bits banked, \d+ resident, \d+ spent as hop pad"
        with pytest.raises(ConservationError, match=message):
            service.serve(hours=1.0)


# --------------------------------------------------------------------- #
# Reporting helpers
# --------------------------------------------------------------------- #


class TestPercentile:
    def test_nearest_rank(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(values, 50) == 3.0
        assert percentile(values, 99) == 5.0
        assert percentile(values, 0) == 1.0
        assert percentile([], 50) == 0.0
        with pytest.raises(ValueError):
            percentile(values, 120)
