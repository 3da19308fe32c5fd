"""Tests for the runtime (repro.runtime) and the labeled RNG forks it uses.

An engine distils its blocks in-line, so what runs across workers is whole
links: the ``LinkFarm`` over a thread pool, whose output must not depend
on the worker count, and the relay network's labeled pad refill.  These
tests hold ``fork_labeled``'s order independence, the farm's job order,
worker-count rule and worker-count invariance, and the refill's.
"""

import os
from dataclasses import replace

import pytest

from repro.link import LinkParameters
from repro.network.relay import TrustedRelayNetwork
from repro.runtime import LinkFarm, resolve_workers
from repro.util.rng import DeterministicRNG


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


class TestLinkFarm:
    def test_runs_come_back_in_submission_order(self):
        """Eight jobs on four threads, finishing out of order (the budgets
        fall), come back in the order they went in."""
        jobs = LinkFarm.jobs(8, 1_000, rng=DeterministicRNG(12))
        jobs = [replace(job, n_slots=40_000 - 5_000 * index) for index, job in enumerate(jobs)]
        runs = LinkFarm(workers=4).run(jobs)
        assert [run.name for run in runs] == [job.name for job in jobs]
        assert [run.report.slots_transmitted for run in runs] == [job.n_slots for job in jobs]

    def test_resolve_workers_refuses_what_is_not_a_positive_integer(self):
        for workers in (0, -3, 1.5, "2", True):
            with pytest.raises(ValueError, match="worker count"):
                resolve_workers(workers)
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1

    def test_fleet_invariant_under_worker_count(self):
        jobs = LinkFarm.jobs(2, 450_000, rng=DeterministicRNG(11))
        runs_one = LinkFarm(workers=1).run(jobs)
        runs_two = LinkFarm(workers=2).run(jobs)
        for one, two in zip(runs_one, runs_two):
            assert one.name == two.name
            assert one.report.sifted_bits == two.report.sifted_bits
            assert one.report.distilled_bits == two.report.distilled_bits
            assert [str(b.bits) for b in one.alice_pool.blocks] == [
                str(b.bits) for b in two.alice_pool.blocks
            ]

    def test_bad_worker_count_is_refused_at_construction(self):
        """At construction, not from inside the first ``run``."""
        with pytest.raises(ValueError, match="worker count"):
            LinkFarm(workers=0)

    @pytest.mark.parametrize("workers", [0, -3, 1.5, "2", True])
    def test_every_bad_worker_count_is_refused_at_construction(self, workers):
        with pytest.raises(ValueError, match="worker count"):
            LinkFarm(workers=workers)

    def test_none_means_one_worker_per_cpu(self):
        assert resolve_workers(None) == max(os.cpu_count() or 1, 1)
        assert LinkFarm().workers is None

    def test_more_workers_than_jobs_runs_each_job_once(self):
        jobs = LinkFarm.jobs(2, 20_000, rng=DeterministicRNG(13))
        wide = LinkFarm(workers=8).run(jobs)
        inline = LinkFarm(workers=1).run(jobs)
        assert [run.name for run in wide] == ["link-0", "link-1"]
        assert [run.report.distilled_bits for run in wide] == [
            run.report.distilled_bits for run in inline
        ]
        assert [run.distilled_bits for run in wide] == [
            run.report.distilled_bits for run in wide
        ]

    def test_jobs_refuses_a_negative_link_count(self):
        with pytest.raises(ValueError, match="non-negative"):
            LinkFarm.jobs(-1, 1_000)
        assert LinkFarm.jobs(0, 1_000) == []

    def test_jobs_share_the_parameters_and_the_budget(self):
        parameters = LinkParameters.for_distance(25.0)
        jobs = LinkFarm.jobs(3, 7_000, parameters=parameters, rng=DeterministicRNG(2))
        assert [job.name for job in jobs] == ["link-0", "link-1", "link-2"]
        assert all(job.parameters is parameters for job in jobs)
        assert {job.n_slots for job in jobs} == {7_000}
        assert all(job.flush and job.attack is None for job in jobs)
        assert len({job.seed for job in jobs}) == 3

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
