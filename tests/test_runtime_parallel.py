"""Tests for the per-block key stream and the runtime (repro.runtime).

``EngineParameters(parallel_workers=N)`` selects the per-block stream: each
block draws from its own ``block/<id>`` labeled fork, so the distilled key
material is a pure function of the seeds, never of ``N`` or of how blocks
are partitioned into batches.  These tests pin that stream by literals — the
per-block sibling of ``tests/test_pinned_key_material.py`` — and hold the
``LinkFarm``'s worker-count invariance.
"""

import dataclasses
import hashlib
import multiprocessing
import threading

import pytest

from repro.core.cascade import CascadeParameters
from repro.core.engine import EngineParameters, QKDProtocolEngine, SiftedBlock
from repro.core.messages import PrivacyAmplificationMessage
from repro.ipsec.gateway import GatewayPair
from repro.network.relay import TrustedRelayNetwork
from repro import QKDSystem
from repro.runtime import LinkFarm, parallel_map, resolve_workers
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG

BLOCK_BITS = 2048
ERROR_RATE = 0.06

#: sha256 over the '0'/'1' rendering of every KeyBlock in Alice's pool after
#: distilling the four standard noisy blocks (seed 7) on the per-block
#: stream.  Deliberately different from the sequential stream's
#: PINNED_POOL_DIGEST, because each block draws from its own ``block/<id>``
#: labeled fork instead of the engine's shared sequential streams.
PINNED_PARALLEL_POOL_DIGEST = (
    "42c27d9c93e7c0e1f64e52907c089f9645755294fb30c1457571cbdded14f189"
)


def _statistics(distilled, blocks_distilled, blocks_aborted, disclosed, slots=0, sifted=0, errors=0):
    return {"slots_processed": slots, "sifted_bits": sifted, "sifted_errors": errors,
            "distilled_bits": distilled, "blocks_distilled": blocks_distilled,
            "blocks_aborted": blocks_aborted, "disclosed_parities": disclosed}


#: Every EngineStatistics field of the PINNED_PARALLEL_POOL_DIGEST run.
PINNED_PARALLEL_STATISTICS = _statistics(1484, 4, 0, 3788)

ALARM_REASON = "QBER 30.0% exceeds abort threshold 15.0% (possible eavesdropping)"
CONFIRMATION_REASON = "error correction failed confirmation"


def _noisy_pair(seed, n_bits=BLOCK_BITS, error_rate=ERROR_RATE):
    rng = DeterministicRNG(seed)
    reference = BitString.random(n_bits, rng)
    noisy = reference.to_list()
    for index in rng.sample(range(n_bits), int(round(error_rate * n_bits))):
        noisy[index] ^= 1
    return reference, BitString(noisy)


def _workload(n_blocks, error_rate=ERROR_RATE):
    return [
        SiftedBlock(*_noisy_pair(100 + seed, error_rate=error_rate), transmitted_pulses=500_000)
        for seed in range(n_blocks)
    ]


def _pool_digest(engine):
    digest = hashlib.sha256()
    for block in engine.alice_pool.blocks:
        digest.update(str(block.bits).encode())
    return digest.hexdigest()


def _run_parallel(blocks, workers, **params):
    engine = QKDProtocolEngine(
        EngineParameters(parallel_workers=workers, **params), DeterministicRNG(7)
    )
    outcomes = engine.distill_blocks(blocks)
    return engine, outcomes


class TestWorkerCountInvariance:
    def test_distilled_key_identical_for_1_2_4_workers(self):
        # The issue's acceptance bar: a >=16-block workload, byte-identical
        # pools and statistics at every worker count.
        blocks = _workload(16)
        engines = {
            workers: _run_parallel(blocks, workers)[0] for workers in (1, 2, 4)
        }
        digests = {w: _pool_digest(e) for w, e in engines.items()}
        assert digests[2] == digests[1]
        assert digests[4] == digests[1]
        reference = engines[1].statistics
        for engine in engines.values():
            assert engine.keys_match
            assert engine.statistics.distilled_bits == reference.distilled_bits
            assert engine.statistics.blocks_distilled == reference.blocks_distilled
            assert engine.statistics.blocks_aborted == reference.blocks_aborted
            assert (
                engine.statistics.disclosed_parities
                == reference.disclosed_parities
            )
        assert reference.distilled_bits > 0

    def test_batch_partitioning_does_not_change_output(self):
        # Same four blocks, submitted one at a time vs as one batch.
        singles = QKDProtocolEngine(EngineParameters(parallel_workers=1), DeterministicRNG(7))
        for block in _workload(4):
            singles.distill_block(
                block.alice_key, block.bob_key, block.transmitted_pulses
            )
        batched, _ = _run_parallel(_workload(4), 2)
        assert _pool_digest(singles) == _pool_digest(batched)


class TestPinnedParallelStream:
    def test_parallel_pool_digest_is_pinned(self):
        engine, _ = _run_parallel(_workload(4), 2)
        assert engine.statistics.blocks_distilled == 4
        assert engine.keys_match
        assert _pool_digest(engine) == PINNED_PARALLEL_POOL_DIGEST
        assert dataclasses.asdict(engine.statistics) == PINNED_PARALLEL_STATISTICS

    @pytest.mark.parametrize("workers", [1, 2])
    def test_alarmed_mix_is_pinned(self, workers):
        blocks = _workload(3)
        blocks[1] = SiftedBlock(*_noisy_pair(555, error_rate=0.30), transmitted_pulses=500_000)
        engine, outcomes = _run_parallel(blocks, workers)
        assert _pool_digest(engine) == (
            "b241e388884ac736d6d3f4e4016a81f460ee357f7b5bf8546943030f6e567ece"
        )
        assert dataclasses.asdict(engine.statistics) == _statistics(735, 2, 1, 1901)
        assert [o.abort_reason for o in outcomes] == ["", ALARM_REASON, ""]
        assert engine.alice_auth.available_secret_bits == 3905
        assert engine.bob_auth.available_secret_bits == 3905

    @pytest.mark.parametrize(
        "params, digest, distilled",
        [
            ({"confidence_sigmas": 4.0},
             "f9f8c17d06ee4436ecc5bdcb070c6dff8b2a1bde3be7f1757413130142a719b1", 823),
            ({"randomness_testing": True},
             "6bf9ab440d6a6fa8f281f8dc26e906ce43c4376fcb72ab2e5e7a77b505b6ba2a", 761),
        ],
    )
    def test_parameter_variants_are_pinned(self, params, digest, distilled):
        engine, _ = _run_parallel(_workload(2), 2, **params)
        assert _pool_digest(engine) == digest
        assert dataclasses.asdict(engine.statistics) == _statistics(distilled, 2, 0, 1875)

    def test_one_at_a_time_and_batched_submission_are_pinned(self):
        singles = QKDProtocolEngine(EngineParameters(parallel_workers=1), DeterministicRNG(7))
        for block in _workload(4):
            singles.distill_block(block.alice_key, block.bob_key, block.transmitted_pulses)
        batched, _ = _run_parallel(_workload(4), 2)
        for engine in (singles, batched):
            assert _pool_digest(engine) == PINNED_PARALLEL_POOL_DIGEST
            assert dataclasses.asdict(engine.statistics) == PINNED_PARALLEL_STATISTICS

    def test_partial_block_flush_is_pinned(self):
        # 2 M slots sift 3 134 bits: one full block, then a 1 086-bit flush.
        link = QKDSystem(seed=2003, parallel_workers=1).link()
        report = link.run_slots(2_000_000)
        assert [(o.sifted_bits, o.distilled_bits) for o in report.outcomes] == [
            (2048, 283),
            (1086, 31),
        ]
        assert _pool_digest(link.engine) == (
            "15837032da222e57cdd5cd4b0c6cf854c9292c4a7e02283c32cf72977fbd7517"
        )
        assert dataclasses.asdict(link.engine.statistics) == _statistics(
            314, 2, 0, 1576, slots=2_000_000, sifted=3134, errors=199
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unconfirmed_block_is_pinned(self, workers):
        # One round of eight subsets and no first pass leaves the 6 % block
        # with residual errors, which the confirmation parities catch; the
        # two 0.2 % blocks are fully corrected.  The unconfirmed block stops
        # at cascade.bicon, as on the sequential stream: no entropy estimate,
        # no privacy amplification, no privacy messages in its transcript.
        blocks = [
            SiftedBlock(*_noisy_pair(100 + seed, error_rate=rate), transmitted_pulses=500_000)
            for seed, rate in ((0, 0.002), (1, 0.06), (2, 0.002))
        ]
        cascade = CascadeParameters(block_first_pass=False, rounds=1, subsets_per_round=8)
        engine, outcomes = _run_parallel(blocks, workers, cascade=cascade)
        assert [o.abort_reason for o in outcomes] == ["", CONFIRMATION_REASON, ""]
        assert not outcomes[1].cascade.confirmed and not outcomes[1].authenticated
        assert outcomes[1].entropy is None and outcomes[1].privacy is None
        assert not outcomes[1].transcript.messages_of_type(PrivacyAmplificationMessage)
        assert all(o.transcript.messages_of_type(PrivacyAmplificationMessage) for o in outcomes[::2])
        assert _pool_digest(engine) == (
            "bf722563b94c3e8cb11284e9df47c5c732ccff6aa3a395bb8607636b9be3a987"
        )
        assert dataclasses.asdict(engine.statistics) == _statistics(3376, 2, 1, 222)
        assert engine.alice_auth.available_secret_bits == 3937
        assert engine.bob_auth.available_secret_bits == 3937

    def test_parallel_stream_differs_from_sequential_stream(self):
        # The per-block stream is a documented, separately pinned stream —
        # it must not silently impersonate the sequential one.
        sequential = QKDProtocolEngine(EngineParameters(), DeterministicRNG(7))
        for block in _workload(4):
            sequential.distill_block(
                block.alice_key, block.bob_key, block.transmitted_pulses
            )
        assert _pool_digest(sequential) != PINNED_PARALLEL_POOL_DIGEST


class TestParallelSemantics:
    def test_high_qber_block_aborts_in_parallel_mode(self):
        blocks = _workload(3)
        # Replace the middle block with one above the 15% abort threshold.
        hot_a, hot_b = _noisy_pair(555, error_rate=0.30)
        blocks[1] = SiftedBlock(hot_a, hot_b, transmitted_pulses=500_000)
        for workers in (1, 3):
            engine, outcomes = _run_parallel(blocks, workers)
            assert engine.statistics.blocks_aborted == 1
            assert outcomes[1].aborted
            assert "exceeds abort threshold" in outcomes[1].abort_reason
            assert not outcomes[0].aborted and not outcomes[2].aborted
            assert engine.statistics.blocks_distilled == 2

    def test_aborted_block_spends_no_compute_but_the_same_authentication(self):
        hot_a, hot_b = _noisy_pair(556, error_rate=0.30)
        sequential = QKDProtocolEngine(EngineParameters(), DeterministicRNG(7))
        seq = sequential.distill_block(hot_a, hot_b, transmitted_pulses=500_000)
        engine, outcomes = _run_parallel([SiftedBlock(hot_a, hot_b, 500_000)], 2)
        par = outcomes[0]
        assert par.aborted and par.abort_reason == seq.abort_reason
        assert par.cascade is None and par.entropy is None and par.privacy is None
        assert len(par.transcript) == len(seq.transcript) == 0
        assert (
            engine.alice_auth.available_secret_bits
            == sequential.alice_auth.available_secret_bits
        )
        assert (
            engine.bob_auth.available_secret_bits
            == sequential.bob_auth.available_secret_bits
        )

    def test_commit_telemetry_counts_every_block(self):
        # Per-block blocks run the engine's own pipeline, so all six stages
        # are timed on engine.pipeline.telemetry.
        blocks = _workload(3)
        hot_a, hot_b = _noisy_pair(557, error_rate=0.30)
        blocks[0] = SiftedBlock(hot_a, hot_b, transmitted_pulses=500_000)
        engine, _ = _run_parallel(blocks, 2)
        telemetry = engine.pipeline.telemetry
        assert telemetry.blocks_processed == 3
        assert telemetry.timings["alarm.qber"].calls == 3
        assert telemetry.timings["cascade.bicon"].calls == 2
        assert telemetry.timings["deliver.pools"].calls == 2

    def test_running_qber_stays_on_each_blocks_bundle(self):
        # Each block sizes Cascade from its own QBER on its own services
        # bundle, so the engine's running estimate never moves.
        engine, _ = _run_parallel(_workload(3), 2)
        hint = EngineParameters().cascade.default_error_rate_hint
        assert engine.services.running_qber == hint

    def test_per_block_stream_starts_no_thread_or_process(self):
        threads = threading.active_count()
        children = multiprocessing.active_children()
        engine, _ = _run_parallel(_workload(2), 4)
        engine.distill_blocks(_workload(2))
        assert threading.active_count() == threads
        assert multiprocessing.active_children() == children

    def test_parameters_reach_the_worker_phase(self):
        blocks = _workload(2)
        strict, _ = _run_parallel(blocks, 2)
        relaxed_one, _ = _run_parallel(blocks, 1, confidence_sigmas=4.0)
        relaxed_two, _ = _run_parallel(blocks, 2, confidence_sigmas=4.0)
        assert _pool_digest(relaxed_one) == _pool_digest(relaxed_two)
        assert (
            relaxed_two.statistics.distilled_bits > strict.statistics.distilled_bits
        )

    def test_randomness_testing_supported(self):
        blocks = _workload(2)
        one, _ = _run_parallel(blocks, 1, randomness_testing=True)
        two, _ = _run_parallel(blocks, 2, randomness_testing=True)
        assert _pool_digest(one) == _pool_digest(two)
        assert two.statistics.blocks_distilled == 2

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="worker count"):
            EngineParameters(parallel_workers=0)

    @pytest.mark.parametrize("workers", [0, -3, 1.5, True, 2.0])
    def test_bad_worker_count_is_refused_before_an_engine_exists(self, workers):
        """Once accepted, a non-integer count built an engine whose first
        ``distill_block`` raised."""
        with pytest.raises(ValueError, match="worker count"):
            EngineParameters(parallel_workers=workers)
        with pytest.raises(ValueError, match="worker count"):
            QKDSystem(parallel_workers=workers).link()

    def test_slutsky_defense_supported(self):
        blocks = _workload(2)
        one, _ = _run_parallel(blocks, 1, defense="slutsky")
        two, _ = _run_parallel(blocks, 2, defense="slutsky")
        assert _pool_digest(one) == _pool_digest(two)


class TestForkLabeled:
    def test_same_label_same_stream(self):
        rng = DeterministicRNG(42)
        a = rng.fork_labeled("block/7")
        b = rng.fork_labeled("block/7")
        assert a.seed == b.seed
        assert [a.getrandbits(32) for _ in range(4)] == [
            b.getrandbits(32) for _ in range(4)
        ]

    def test_independent_of_fork_counter(self):
        first = DeterministicRNG(42)
        second = DeterministicRNG(42)
        second.fork("something")  # advances the counter on this instance only
        assert first.fork_labeled("x").seed == second.fork_labeled("x").seed

    def test_distinct_labels_distinct_streams(self):
        rng = DeterministicRNG(42)
        assert rng.fork_labeled("block/0").seed != rng.fork_labeled("block/1").seed

    def test_disjoint_from_counter_forks(self):
        rng = DeterministicRNG(42)
        labeled = rng.fork_labeled("x").seed
        counter = DeterministicRNG(42).fork("x").seed
        assert labeled != counter


class TestPoolHelpers:
    def test_parallel_map_preserves_order(self):
        items = list(range(20))
        assert parallel_map(_square, items, workers=4, backend="thread") == [
            i * i for i in items
        ]

    def test_parallel_map_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            parallel_map(_square, [1], workers=2, backend="fiber")

    def test_resolve_workers_refuses_what_is_not_a_positive_integer(self):
        for workers in (0, -3, 1.5, "2", True):
            with pytest.raises(ValueError, match="worker count"):
                resolve_workers(workers)
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1


def _square(x):
    return x * x


class TestLinkFarm:
    def test_fleet_invariant_under_worker_count(self):
        jobs = LinkFarm.jobs(2, 450_000, rng=DeterministicRNG(11))
        runs_one = LinkFarm(workers=1).run(jobs)
        runs_two = LinkFarm(workers=2, backend="thread").run(jobs)
        for one, two in zip(runs_one, runs_two):
            assert one.name == two.name
            assert one.report.sifted_bits == two.report.sifted_bits
            assert one.report.distilled_bits == two.report.distilled_bits
            assert [str(b.bits) for b in one.alice_pool.blocks] == [
                str(b.bits) for b in two.alice_pool.blocks
            ]

    @pytest.mark.parametrize("backend", ["process", "lanes"])
    def test_bad_worker_count_is_refused_at_construction(self, backend):
        """``lanes`` never reads the count, so ``run`` would never have raised."""
        with pytest.raises(ValueError, match="worker count"):
            LinkFarm(workers=0, backend=backend)

    def test_links_have_independent_streams(self):
        jobs = LinkFarm.jobs(2, 100_000, rng=DeterministicRNG(11))
        assert jobs[0].seed != jobs[1].seed

    def test_fleets_with_different_prefixes_are_disjoint(self):
        # Two fleets from the same root rng must not repeat key streams —
        # the name_prefix namespaces the seed labels.
        rng = DeterministicRNG(11)
        first = LinkFarm.jobs(2, 100_000, rng=rng, name_prefix="vpn")
        second = LinkFarm.jobs(2, 100_000, rng=rng, name_prefix="mesh")
        assert {job.seed for job in first}.isdisjoint(
            {job.seed for job in second}
        )


class TestRelayParallelRefill:
    def test_refill_invariant_under_worker_count(self):
        one = TrustedRelayNetwork.for_mesh(rng=DeterministicRNG(5))
        two = TrustedRelayNetwork.for_mesh(rng=DeterministicRNG(5))
        one.run_links_for(2.0, workers=1)
        two.run_links_for(2.0, workers=3)
        for pair in one.pairwise_pads:
            pad_one, pad_two = one.pairwise_pads[pair], two.pairwise_pads[pair]
            assert pad_one.available_bytes == pad_two.available_bytes
            sample = min(pad_one.available_bytes, 32)
            if sample:
                assert pad_one.peek(sample) == pad_two.peek(sample)

    def test_refill_refuses_a_bad_worker_count(self):
        mesh = TrustedRelayNetwork.for_mesh(rng=DeterministicRNG(5))
        with pytest.raises(ValueError, match="worker count must be at least 1"):
            mesh.run_links_for(1.0, workers=0)
        assert not any(pad.available_bytes for pad in mesh.pairwise_pads.values())

    def test_successive_refills_add_fresh_material(self):
        mesh = TrustedRelayNetwork.for_mesh(rng=DeterministicRNG(5))
        mesh.run_links_for(1.0, workers=1)
        pair = next(iter(mesh.pairwise_pads))
        first = mesh.pairwise_pads[pair].peek(16)
        before = mesh.pairwise_pads[pair].available_bytes
        mesh.run_links_for(1.0, workers=1)
        assert mesh.pairwise_pads[pair].available_bytes > before
        # The second epoch's material must not repeat the first's (pad reuse
        # would be a one-time-pad catastrophe).
        pad = mesh.pairwise_pads[pair]
        second = pad.peek(pad.available_bytes)[before : before + 16]
        assert second != first


class TestGatewayProvisioning:
    def test_fleet_invariant_under_worker_count(self):
        # ~1.4M slots per link: enough sifted bits for one full 2048-bit
        # block, so the fleet actually delivers key into the gateways' pools.
        pairs_one = GatewayPair.provision_many(
            2, slots_per_link=1_400_000, rng=DeterministicRNG(9), workers=1
        )
        pairs_two = GatewayPair.provision_many(
            2, slots_per_link=1_400_000, rng=DeterministicRNG(9), workers=2, backend="thread"
        )
        distilled = 0
        for one, two in zip(pairs_one, pairs_two):
            assert one.alice.key_pool.bits_added == two.alice.key_pool.bits_added
            assert [str(b.bits) for b in one.alice.key_pool.blocks] == [
                str(b.bits) for b in two.alice.key_pool.blocks
            ]
            distilled += one.alice.key_pool.bits_added
        assert distilled > 0, "the fleet's links should have distilled key"

    def test_pairs_are_distinct(self):
        pairs = GatewayPair.provision_many(
            2, slots_per_link=100_000, rng=DeterministicRNG(9), workers=1
        )
        assert pairs[0].alice.name != pairs[1].alice.name
        assert pairs[0].alice.address != pairs[1].alice.address
