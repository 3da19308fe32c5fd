"""Tests for the vectorized multi-link lane engine (repro.lanes).

The lane engine's contract is lane independence: a lane's sifted stream,
distilled key, report and pools are byte-for-byte what the same job produces
run as one link (``QKDLink.run_slots``).  These tests pin
that differentially — N lanes vs N x 1 lane, across lane counts,
heterogeneous per-lane physics, an attacked lane, and lane order, which is
what catches cross-lane leakage — and a persistent fleet over repeated
epochs, plus ``sift_frames``, the memory bound that carrying one lane at a
time buys, ragged fleets through the farm, and the scheduler's in-process
Monte-Carlo mode.
"""

import functools
import hashlib
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from repro import LaneEngine, QKDSystem
from repro.core.sifting import SiftingProtocol, sift_frames
from repro.eve import InterceptResendAttack
from repro.kms import KeyManagementService, KmsConfig
from repro.kms.scheduler import ReplenishmentConfig
from repro.lanes.engine import EMITTER_THREAD_PREFIX
from repro.link.qkd_link import LinkParameters, QKDLink
from repro.optics.channel import ChannelParameters, QuantumChannel
from repro.optics.model import DetectorParameters
from repro.optics.model import InterferometerParameters
from repro.optics.source import WeakCoherentSource
from repro.optics.timing import FramingParameters
from repro.runtime import LinkFarm
from repro.runtime.farm import LinkJob, LinkRun
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG
from tests.test_runtime_parallel import link_jobs

#: sha256 over the per-lane report digests (in lane-name order) of the
#: four-lane heterogeneous fleet built by :func:`heterogeneous_jobs` with
#: seed root 11.  Pinned so that any change to the lane batch program that
#: perturbs even one lane's bitstream is caught, and asserted equal for a
#: permuted lane order — the digest is a function of the lanes, not of how
#: they were stacked.
PINNED_FLEET_DIGEST = "28776355f9edf0e2c9edd0c4c8850977fceb1a255c65cd9dbb632a1ddd8d48ba"

#: sha256 over ``repr`` of every lane's :func:`_sifted_state` after four
#: 4 096-slot ``flush=False`` epochs of the eight-lane 10 km fleet (seed 17).
PINNED_EPOCHS_DIGEST = "33ea8b524a6e77bc80a533eb5c162323d3daf7b30ffa00bd6c6a8858c5e8b233"

SLOTS = 70_000
BATCH = 30_000  # 3 batches: 30k + 30k + 10k, exercising the remainder batch


def _report_digest(report):
    """Byte-level digest of a link run: stats plus every corrected key."""
    digest = hashlib.sha256()
    digest.update(
        repr(
            (
                report.slots_transmitted,
                report.sifted_bits,
                report.distilled_bits,
                report.mean_qber,
                report.blocks_distilled,
                report.blocks_aborted,
            )
        ).encode()
    )
    for outcome in report.outcomes:
        digest.update(
            repr(
                (
                    outcome.block_id,
                    outcome.sifted_bits,
                    outcome.qber,
                    outcome.distilled_bits,
                    outcome.aborted,
                    outcome.abort_reason,
                )
            ).encode()
        )
        if outcome.cascade is not None:
            digest.update(str(outcome.cascade.corrected_key).encode())
    return digest.hexdigest()


def _pool_digest(pool):
    digest = hashlib.sha256()
    for block in pool.blocks:
        digest.update(str(block.bits).encode())
    return digest.hexdigest()


def _lane_parameters(length_km, **channel_overrides):
    return LinkParameters(
        channel=replace(ChannelParameters.for_distance(length_km), **channel_overrides),
        slots_per_batch=BATCH,
    )


def heterogeneous_jobs(seed=11, n_slots=SLOTS):
    """Four lanes that differ in everything lanes may differ in:
    distance, framing loss, afterpulsing, phase noise, and an attack."""
    rng = DeterministicRNG(seed)
    specs = [
        _lane_parameters(5.0),
        _lane_parameters(10.0, framing=FramingParameters(frame_loss_probability=0.05)),
        _lane_parameters(20.0, detectors=DetectorParameters(afterpulse_probability=0.02)),
        _lane_parameters(
            40.0, interferometer=InterferometerParameters(phase_noise_rad=0.05)
        ),
    ]
    return [
        LinkJob(
            name=f"l{index}",
            parameters=parameters,
            seed=rng.fork_labeled(f"lane/{index}").seed,
            n_slots=n_slots,
            attack=InterceptResendAttack() if index == 2 else None,
        )
        for index, parameters in enumerate(specs)
    ]


def run_alone(job):
    """``job`` as one link's ``QKDLink.run_slots``, the run every lane must equal."""
    link = QKDLink(job.parameters, DeterministicRNG(job.seed), name=job.name)
    if job.attack is not None:
        link.attach_attack(job.attack)
    report = link.run_slots(job.n_slots)
    return LinkRun(job.name, report, link.engine.alice_pool, link.engine.bob_pool)


def sequential_digests(jobs):
    return {job.name: _report_digest(run_alone(job).report) for job in jobs}


class TestLaneBitIdentity:
    """The contract: a lane in an N-wide fleet == the same job alone, bit for
    bit (:func:`run_alone`)."""

    def test_single_lane_matches_sequential(self):
        job = heterogeneous_jobs()[1]
        lane_run = LaneEngine([job]).run()[0]
        seq_run = run_alone(job)
        assert _report_digest(lane_run.report) == _report_digest(seq_run.report)
        assert _pool_digest(lane_run.alice_pool) == _pool_digest(seq_run.alice_pool)
        assert _pool_digest(lane_run.bob_pool) == _pool_digest(seq_run.bob_pool)

    def test_heterogeneous_fleet_matches_sequential(self):
        """Four lanes with different distances, loss, afterpulsing, phase
        noise and one intercept-resend attack — every lane bit-identical."""
        jobs = heterogeneous_jobs()
        lane_runs = LaneEngine(jobs).run()
        expected = sequential_digests(jobs)
        for run in lane_runs:
            assert _report_digest(run.report) == expected[run.name]
        attacked = lane_runs[2].report
        clean = lane_runs[0].report
        assert attacked.mean_qber > 3 * clean.mean_qber

    def test_sixty_four_lanes_match_sequential(self):
        parameters = LinkParameters(
            channel=ChannelParameters.for_distance(5.0), slots_per_batch=5_000
        )
        jobs = link_jobs(
            64, 12_000, parameters=parameters, rng=DeterministicRNG(64)
        )
        lane_runs = LaneEngine(jobs).run()
        # Spot-check a spread of lanes sequentially (all 64 would only
        # repeat the same code path 64 times over).
        for index in (0, 1, 31, 63):
            seq = run_alone(jobs[index])
            assert _report_digest(lane_runs[index].report) == _report_digest(seq.report)

    def test_lane_order_invariance_and_pinned_digest(self):
        jobs = heterogeneous_jobs()
        in_order = LaneEngine(jobs).run()
        permuted = LaneEngine([jobs[2], jobs[0], jobs[3], jobs[1]]).run()
        by_name = {run.name: _report_digest(run.report) for run in permuted}
        for run in in_order:
            assert _report_digest(run.report) == by_name[run.name]
        fleet = hashlib.sha256()
        for run in in_order:
            fleet.update(_report_digest(run.report).encode())
        assert fleet.hexdigest() == PINNED_FLEET_DIGEST

    def test_lane_count_invariance_via_facade(self):
        """A lane's stream is a pure function of its ``lane/<id>`` label —
        lane 0 of a 3-lane fleet equals lane 0 running alone."""
        trio = QKDSystem(seed=42).lanes(3).run_slots(30_000)
        solo = QKDSystem(seed=42).lanes(1).run_slots(30_000)
        assert _report_digest(solo[0]) == _report_digest(trio[0])

    def test_distilled_key_material_matches_sequential(self):
        """A short link long enough to complete a full 2048-bit block, so
        the comparison covers nonzero distilled key, not just sifting."""
        job = LinkJob(
            name="near",
            parameters=LinkParameters(
                channel=ChannelParameters.for_distance(2.0), slots_per_batch=500_000
            ),
            seed=DeterministicRNG(5).fork_labeled("lane/near").seed,
            n_slots=1_000_000,
        )
        # Batched beside a second lane, so the two arms are not the same call.
        neighbour = replace(job, name="neighbour", seed=job.seed + 1)
        lane_run = LaneEngine([neighbour, job]).run()[1]
        seq_run = run_alone(job)
        assert lane_run.report.distilled_bits > 0
        assert _pool_digest(lane_run.alice_pool) == _pool_digest(seq_run.alice_pool)
        assert _report_digest(lane_run.report) == _report_digest(seq_run.report)

    def test_persistent_fleet_matches_inline_over_epochs(self):
        """A fleet that stays alive across ``run_slots(flush=False)`` epochs
        — the Monte-Carlo replenishment cadence — carries each lane's sifted
        stream and counters exactly as the same links run one at a time."""
        parameters = LinkParameters(
            channel=ChannelParameters.for_distance(10.0), slots_per_batch=4096
        )
        jobs = link_jobs(8, 4096, parameters=parameters, rng=DeterministicRNG(17))
        fleet = LaneEngine(jobs)
        inline = [
            QKDLink(job.parameters, DeterministicRNG(job.seed), name=job.name)
            for job in jobs
        ]
        for _ in range(4):
            fleet.run_slots(4096, flush=False)
            for link in inline:
                link.run_slots(4096, flush=False)
            states = [_sifted_state(link) for link in fleet.links]
            assert states == [_sifted_state(link) for link in inline]
        assert [state[2:] for state in states] == [
            (21, 2, 16384, 0), (24, 3, 16384, 0), (31, 1, 16384, 0), (23, 1, 16384, 0),
            (31, 2, 16384, 0), (22, 3, 16384, 0), (25, 2, 16384, 0), (35, 2, 16384, 0),
        ]
        assert hashlib.sha256(repr(states).encode()).hexdigest() == PINNED_EPOCHS_DIGEST


def _sifted_state(link):
    """A link's pending sifted key on both sides plus its running counters."""
    engine = link.engine
    stats = engine.statistics
    return (
        str(BitString(engine._pending_alice)),
        str(BitString(engine._pending_bob)),
        stats.sifted_bits,
        stats.sifted_errors,
        stats.slots_processed,
        stats.blocks_distilled,
    )


class TestBatchedAnnouncement:
    """sift_frames vs the per-frame path."""

    def test_sift_frames_matches_per_frame_sift(self):
        channels = [
            QuantumChannel(
                ChannelParameters.for_distance(km), DeterministicRNG(23).fork(f"ch{km}")
            )
            for km in (2.0, 10.0)
        ]
        frames = [channel.transmit(20_000) for channel in channels]
        batched = sift_frames(frames, [7, 8])
        for frame, frame_id, got in zip(frames, [7, 8], batched):
            want = SiftingProtocol(frame_id=frame_id).sift(frame)
            assert got.alice_key == want.alice_key
            assert got.bob_key == want.bob_key
            np.testing.assert_array_equal(got.slot_indices, want.slot_indices)
            assert got.n_detections_reported == want.n_detections_reported

    def test_sift_frames_takes_ragged_frames(self):
        """Frames of different lengths sift side by side, each as it would
        alone; the frame ids must still pair up one to one."""
        channel = QuantumChannel(ChannelParameters(), DeterministicRNG(1))
        frames = [channel.transmit(8_192), channel.transmit(4_096)]
        for frame, got in zip(frames, sift_frames(frames, [0, 1])):
            assert got.n_slots_transmitted == frame.n_slots
            np.testing.assert_array_equal(
                got.slot_indices, SiftingProtocol(frame_id=0).sift(frame).slot_indices
            )
        with pytest.raises(ValueError, match="frame id"):
            sift_frames(frames[:1], [0, 1])


class TestLaneMemoryDiscipline:
    """Per-slot arrays are freed batch by batch, and only one lane's are
    alive at any moment."""

    def test_no_frame_outlives_its_batch(self, monkeypatch):
        """Each batch's frame is dead — not merely emptied — before the next
        batch transmits, on every lane, the attacked one included."""
        import repro.lanes.engine as lanes_engine

        frames = []
        transmit_lanes = lanes_engine.transmit_lanes

        def transmit_after_the_last_frame_died(channels, n_slots, attacks=None):
            assert all(frame() is None for frame in frames), "an earlier frame is alive"
            batch = transmit_lanes(channels, n_slots, attacks)
            frames.extend(weakref.ref(frame) for frame in batch)
            return batch

        monkeypatch.setattr(lanes_engine, "transmit_lanes", transmit_after_the_last_frame_died)
        jobs = heterogeneous_jobs(n_slots=SLOTS)
        LaneEngine(jobs).run()
        n_batches = 3  # 70k slots in 30k batches
        assert len(frames) == len(jobs) * n_batches
        assert all(frame() is None for frame in frames)

    def test_sixteen_lanes_peak_like_one(self):
        """After a warm-up epoch, the traced peak of a 16-lane 250 k-slot
        ``flush=False`` epoch is at most 1.5x that of a 1-lane fleet.  Holding
        the lanes side by side as one ``(16, n_slots)`` batch peaks ~5x
        higher (~8 bytes a slot per lane on top of one lane's temporaries).

        The 16-lane epoch carries its source one batch ahead (each lane's
        batch is drawn while the lane before it is carried); the 1-lane
        epoch is one batch and starts no thread.  So the 16-lane peak holds
        one more batch of source arrays (4 bytes a slot and the non-empty
        slots) and the worker's chunk-sized temporaries: measured 5.82 MiB
        against 4.61 (1.26x), where without the pipeline and the chunked
        draws it was 6.27 against 6.07.  Carrying two whole lanes at once
        instead measured ~1.9x on a prototype."""

        def epoch_peak(n_lanes):
            fleet = LaneEngine.for_fleet(n_lanes, rng=DeterministicRNG(29))
            fleet.run_slots(250_000, flush=False)
            tracemalloc.start()
            try:
                fleet.run_slots(250_000, flush=False)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert epoch_peak(16) <= 1.5 * epoch_peak(1)


def _emitting_threads():
    return [t for t in threading.enumerate() if t.name.startswith(EMITTER_THREAD_PREFIX)]


def _frame_digest(frame):
    digest = hashlib.sha256()
    for name in ("alice_basis", "alice_value", "alice_photons", "bob_basis",
                 "bob_click", "bob_double", "bob_value", "frame_numbers"):
        digest.update(getattr(frame, name).tobytes())
    return digest.hexdigest()


class _RaisesOnItsSecondBatch(InterceptResendAttack):
    """Intercept-resend that raises on its second batch, and notes which
    emitting threads were alive when it was called."""

    def __init__(self):
        super().__init__()
        self.calls = 0
        self.emitters_seen = []

    def intercept(self, emission, transmittance, rng):
        self.calls += 1
        self.emitters_seen.extend(t.name for t in _emitting_threads())
        if self.calls == 2:
            raise RuntimeError("the attack failed on batch 2")
        return super().intercept(emission, transmittance, rng)


def _emit_into_raising_on_call(failing_call):
    """``WeakCoherentSource.emit_into`` that raises ``MemoryError`` on its
    ``failing_call``-th call, after drawing part of the batch."""
    emit_into = WeakCoherentSource.emit_into
    calls = []

    def emitting(source, basis_out, value_out, photons_out):
        calls.append(threading.current_thread().name)
        if len(calls) == failing_call:
            source._numpy_rng.random(7)
            raise MemoryError(f"draw {failing_call} failed on {calls[-1]}")
        return emit_into(source, basis_out, value_out, photons_out)

    return emitting


class TestEmitAhead:
    """The source emits batch k + 1 on one worker thread while batch k is
    carried; nothing of it shows in any stream, report or thread after."""

    def test_a_run_transmits_the_batches_an_inline_loop_draws(self):
        """Every frame of a pipelined run (the last lane's first batch drawn
        while the one before it is carried, too) equals what bare
        ``QuantumChannel.transmit`` calls draw on a twin channel."""
        import repro.lanes.engine as lanes_engine

        jobs = heterogeneous_jobs()
        seen = []
        transmit_lanes = lanes_engine.transmit_lanes

        def recording(channels, n_slots, attacks=None):
            batch = transmit_lanes(channels, n_slots, attacks)
            seen.extend((n_slots, _frame_digest(frame)) for frame in batch)
            return batch

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lanes_engine, "transmit_lanes", recording)
            LaneEngine(jobs).run()
        inline = []
        for twin in LaneEngine(jobs).links:
            for n_slots in (BATCH, BATCH, SLOTS - 2 * BATCH):
                frame = twin.channel.transmit(n_slots, twin.attack)
                inline.append((n_slots, _frame_digest(frame)))
        assert seen == inline

    def test_no_thread_outlives_a_run_that_raises_and_the_source_is_put_back(self):
        """An attack raising on batch 2 of 3 ends the run with the worker
        joined and the batch it had drawn ahead discarded: the source stands
        where two inline transmits leave it."""
        parameters = LinkParameters(slots_per_batch=BATCH)
        link = QKDLink(parameters, DeterministicRNG(41))
        attack = _RaisesOnItsSecondBatch()
        link.attach_attack(attack)
        with pytest.raises(RuntimeError, match="batch 2"):
            link.run_slots(SLOTS)
        assert attack.emitters_seen, "the run never emitted ahead"
        assert _emitting_threads() == []

        twin = QKDLink(parameters, DeterministicRNG(41))
        twin_attack = _RaisesOnItsSecondBatch()
        twin.channel.transmit(BATCH, twin_attack)
        with pytest.raises(RuntimeError, match="batch 2"):
            twin.channel.transmit(BATCH, twin_attack)
        source, twin_source = link.channel.source, twin.channel.source
        assert source.pulses_emitted == twin_source.pulses_emitted == 2 * BATCH
        assert source._numpy_rng.bit_generator.state == twin_source._numpy_rng.bit_generator.state
        assert _frame_digest(link.channel.transmit(BATCH)) == _frame_digest(
            twin.channel.transmit(BATCH)
        )

    def test_a_draw_that_raises_on_the_worker_is_what_the_run_raises(self):
        """The batch whose draw failed raises where it is transmitted; the
        run ends with the worker joined and nothing left queued."""
        link = QKDLink(LinkParameters(slots_per_batch=BATCH), DeterministicRNG(41))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(WeakCoherentSource, "emit_into", _emit_into_raising_on_call(2))
            on_the_worker = f"draw 2 failed on {EMITTER_THREAD_PREFIX}"
            with pytest.raises(MemoryError, match=on_the_worker):
                link.run_slots(SLOTS)
        assert _emitting_threads() == []
        assert not link.channel._emissions

    def test_a_failed_draw_drawn_ahead_does_not_hide_the_runs_own_error(self):
        """An attack raising on batch 2 while the worker's draw of batch 3
        raised too: the run raises the attack's error, the failed batch is
        dropped, and the source stands where two inline transmits leave it."""
        parameters = LinkParameters(slots_per_batch=BATCH)
        link = QKDLink(parameters, DeterministicRNG(41))
        link.attach_attack(_RaisesOnItsSecondBatch())
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(WeakCoherentSource, "emit_into", _emit_into_raising_on_call(3))
            with pytest.raises(RuntimeError, match="batch 2"):
                link.run_slots(SLOTS)
        assert _emitting_threads() == []
        assert not link.channel._emissions

        twin = QKDLink(parameters, DeterministicRNG(41))
        twin_attack = _RaisesOnItsSecondBatch()
        twin.channel.transmit(BATCH, twin_attack)
        with pytest.raises(RuntimeError, match="batch 2"):
            twin.channel.transmit(BATCH, twin_attack)
        assert link.channel.source.pulses_emitted == twin.channel.source.pulses_emitted
        assert _frame_digest(link.channel.transmit(BATCH)) == _frame_digest(
            twin.channel.transmit(BATCH)
        )

    def test_a_pending_emission_of_another_size_raises_and_is_not_served(self):
        channel = QuantumChannel(ChannelParameters(), DeterministicRNG(43))
        twin = QuantumChannel(ChannelParameters(), DeterministicRNG(43))
        with ThreadPoolExecutor(1, thread_name_prefix=EMITTER_THREAD_PREFIX) as worker:
            channel.emit_ahead(1_000, worker)
            with pytest.raises(ValueError, match="1000 slots, not 999"):
                channel.transmit(999)
        # Discarded, not kept for later: the next batch is drawn afresh,
        # from where the source stood before the one drawn ahead.
        assert _frame_digest(channel.transmit(999)) == _frame_digest(twin.transmit(999))
        assert channel.source.pulses_emitted == twin.source.pulses_emitted == 999

    def test_every_traced_callable_runs_on_the_thread_that_called_run_slots(self):
        """The worker runs only ``source.emit_into``: each callable the E21
        tracer wraps stays on the caller's thread, so its single span stack
        stays right."""
        from benchmarks.e21.trace import _targets

        callers = set()

        def on_thread(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                callers.add(threading.current_thread().name)
                return original(*args, **kwargs)

            return wrapper

        emitters = set()
        emit_into = WeakCoherentSource.emit_into

        def emitting(source, *arrays):
            emitters.add(threading.current_thread().name)
            return emit_into(source, *arrays)

        with pytest.MonkeyPatch.context() as patch:
            for owner, attribute, *_ in _targets():
                patch.setattr(owner, attribute, on_thread(vars(owner)[attribute]))
            patch.setattr(WeakCoherentSource, "emit_into", emitting)
            LaneEngine(heterogeneous_jobs()).run()
            LaneEngine.for_fleet(3, rng=DeterministicRNG(5)).run_slots(40_000, flush=False)
            QKDLink(LinkParameters(slots_per_batch=BATCH), DeterministicRNG(7)).run_slots(SLOTS)
            LinkFarm().run(heterogeneous_jobs()[:2])
        assert callers == {threading.current_thread().name}
        assert any(name.startswith(EMITTER_THREAD_PREFIX) for name in emitters)

    def test_a_run_of_one_batch_starts_no_thread(self, monkeypatch):
        started = []
        monkeypatch.setattr(
            "repro.lanes.engine.ThreadPoolExecutor",
            lambda *args, **kwargs: started.append(args) or ThreadPoolExecutor(*args, **kwargs),
        )
        QKDLink(LinkParameters(slots_per_batch=BATCH), DeterministicRNG(7)).run_slots(BATCH)
        assert started == []
        QKDLink(LinkParameters(slots_per_batch=BATCH), DeterministicRNG(7)).run_slots(BATCH + 1)
        assert len(started) == 1


class TestFarm:
    def test_ragged_fleet_runs_in_order(self):
        """Links that differ in slot budget, ``slots_per_batch`` and Qframe
        size run together through the farm, in order, each bit for bit its
        run alone."""
        jobs = heterogeneous_jobs()
        ragged = [
            jobs[0],
            replace(jobs[1], n_slots=jobs[1].n_slots + 1),
            replace(
                jobs[2], parameters=replace(jobs[2].parameters, slots_per_batch=BATCH * 2)
            ),
            replace(
                jobs[3],
                parameters=_lane_parameters(
                    40.0, framing=FramingParameters(slots_per_frame=1024)
                ),
            ),
        ]
        runs = LinkFarm().run(ragged)
        assert [run.name for run in runs] == [job.name for job in ragged]
        assert [run.report.slots_transmitted for run in runs] == [job.n_slots for job in ragged]
        assert {run.name: _report_digest(run.report) for run in runs} == sequential_digests(ragged)

    def test_an_empty_fleet_runs_to_nothing(self):
        fleet = LaneEngine([])
        assert fleet.n_lanes == 0
        assert fleet.run() == [] and fleet.run_slots(1_000) == []
        assert LinkFarm().run([]) == []

    def test_entangled_lane_beside_weak_coherent_lanes_reproduces_its_pin(self):
        """Any source type is a lane like any other: the entangled job, batched
        between two weak-coherent ones, yields the digest recorded from the
        hand-written sequential chain (tests/test_pinned_key_material.py)."""
        from tests.test_pinned_key_material import (
            LINK_BRANCHES,
            branch_job,
            link_run_digest,
        )

        names = ["beamsplitter", "entangled", "phase_noise"]
        jobs = [branch_job(name) for name in names]
        for run in LinkFarm().run(jobs):
            pinned_pool_digest = LINK_BRANCHES[run.name][3]
            assert link_run_digest(run.report, run.alice_pool) == pinned_pool_digest


class TestSchedulerLanes:
    @pytest.mark.parametrize("workers", [0, -3, 1.5])
    def test_replenishment_config_refuses_bad_worker_counts(self, workers):
        """At construction, not from inside the first epoch."""
        with pytest.raises(ValueError, match="worker count"):
            ReplenishmentConfig(workers=workers)

    def test_pad_material_is_generated_without_a_thread(self):
        """An analytic epoch and a labeled prefill at ``workers=4`` start no
        thread or process: a pool lost to the plain loop at every fleet size."""
        import multiprocessing

        from repro.kms.scheduler import ReplenishmentScheduler
        from tests.test_kms import make_relays

        threads = threading.active_count()
        children = multiprocessing.active_children()
        relays = make_relays(seed=3)
        relays.run_links_for(0.5, workers=4)
        prefilled = sum(pad.available_bytes for pad in relays.pairwise_pads.values())
        assert prefilled > 0
        scheduler = ReplenishmentScheduler(
            relays, DeterministicRNG(1), ReplenishmentConfig(workers=4)
        )
        report = scheduler.run_epoch()
        assert len(report.dispatched) > 1 and report.total_banked_bits > 0
        assert threading.active_count() == threads
        assert multiprocessing.active_children() == children

    def test_montecarlo_epochs_ignore_the_worker_count(self):
        """``ReplenishmentConfig.workers`` selects nothing: the scheduler's
        Monte-Carlo epochs deliver identical key material with no count and
        with a count of two."""
        from tests.test_kms import make_relays

        def serve(workers):
            relays = make_relays(seed=3, n_endpoints=2, n_relays=1, link_length_km=1.0)
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
            return service.serve(hours=0.5)

        unset = serve(None)
        given = serve(2)
        assert unset.pad_bits_banked > 0
        assert unset.delivered_digest == given.delivered_digest
        assert unset.pad_bits_banked == given.pad_bits_banked


class TestFleetConstruction:
    """``LaneEngine.for_fleet`` seeds each lane from its own labeled fork
    ``lane/<prefix>/<index>`` of the root rng."""

    def test_for_fleet_refuses_a_lane_count_that_is_not_positive(self):
        for n_lanes in (0, -1):
            with pytest.raises(ValueError, match="positive"):
                LaneEngine.for_fleet(n_lanes)

    def test_lanes_share_the_parameters_and_nothing_else(self):
        parameters = LinkParameters(channel=ChannelParameters.for_distance(25.0))
        fleet = LaneEngine.for_fleet(3, parameters=parameters, rng=DeterministicRNG(2))
        assert [job.name for job in fleet.jobs] == ["lane-0", "lane-1", "lane-2"]
        assert all(job.parameters is parameters for job in fleet.jobs)
        assert all(job.attack is None for job in fleet.jobs)
        assert len({job.seed for job in fleet.jobs}) == 3
        assert [link.name for link in fleet.links] == ["lane-0", "lane-1", "lane-2"]

    def test_a_lane_seed_is_its_labeled_fork(self):
        rng = DeterministicRNG(11)
        fleet = LaneEngine.for_fleet(2, rng=rng, name_prefix="vpn")
        assert [job.seed for job in fleet.jobs] == [
            rng.fork_labeled(f"lane/vpn/{index}").seed for index in range(2)
        ]

    def test_a_lane_seed_does_not_depend_on_the_fleet_size(self):
        small = LaneEngine.for_fleet(2, rng=DeterministicRNG(11))
        large = LaneEngine.for_fleet(5, rng=DeterministicRNG(11))
        assert [job.seed for job in large.jobs[:2]] == [job.seed for job in small.jobs]

    def test_fleets_with_different_prefixes_are_disjoint(self):
        # Two fleets from the same root rng must not repeat key streams:
        # the prefix namespaces the seed labels.
        rng = DeterministicRNG(11)
        first = LaneEngine.for_fleet(2, rng=rng, name_prefix="vpn")
        second = LaneEngine.for_fleet(2, rng=rng, name_prefix="mesh")
        assert {job.seed for job in first.jobs}.isdisjoint(
            {job.seed for job in second.jobs}
        )


class TestFacade:
    def test_lanes_builder_runs_a_fleet(self):
        reports = QKDSystem(seed=42).lanes(3).run_slots(30_000)
        assert len(reports) == 3
        assert all(report.slots_transmitted == 30_000 for report in reports)
        with pytest.raises(ValueError, match="positive"):
            QKDSystem(seed=42).lanes(0)

    def test_kms_config_with_lanes_configures_replenishment(self):
        mesh = QKDSystem(seed=7, n_endpoints=2, n_relays=1).mesh()
        config = KmsConfig().with_lanes(max_links_per_epoch=8)
        kms = mesh.kms(config)
        replenishment = kms.config.replenishment
        assert replenishment.mode == "montecarlo"
        assert replenishment.max_links_per_epoch == 8
        # the builder is non-destructive: the base config is untouched
        assert KmsConfig().replenishment.mode == "analytic"
        assert mesh.kms().config.replenishment.workers is None

    def test_with_lanes_overrides_win(self):
        """``mode`` is a default, not fixed: an override of it used to raise a
        duplicate-keyword ``TypeError``."""
        replenishment = KmsConfig().with_lanes(mode="analytic", workers=2).replenishment
        assert (replenishment.mode, replenishment.workers) == ("analytic", 2)
        assert KmsConfig().with_lanes().replenishment.workers is None
