"""Run many independent QKD links as one parallel batch.

A relay mesh or a fleet of VPN enclave pairs is, at the physical layer, a
set of *independent* point-to-point links — there is no protocol state
shared between two links, only between the two ends of one link.  That
makes whole-link Monte-Carlo embarrassingly parallel: each
:class:`LinkJob` carries everything a worker needs to build and run a
:class:`~repro.link.qkd_link.QKDLink` from scratch (parameters, a seed, a
slot budget), and the farm maps jobs across a thread pool, returning
results in submission order.

Determinism contract: a job's output is a pure function of its
``(parameters, seed, n_slots)``, so the farm's results are identical for
any worker count.  Seeds for a fleet come from labeled forks
(``rng.fork_labeled(f"link/{i}")``), never from a shared sequential
stream, so adding or reordering links does not disturb the others.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.keypool import KeyPool
from repro.link.qkd_link import LinkParameters, LinkReport
from repro.util.rng import DeterministicRNG


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a worker-count request (``None`` means one per CPU)."""
    if workers is None:
        return max(os.cpu_count() or 1, 1)
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ValueError(f"worker count must be an integer, got {workers!r}")
    if workers < 1:
        raise ValueError("worker count must be at least 1")
    return workers


@dataclass(frozen=True)
class LinkJob:
    """One link simulation, fully described for a worker."""

    name: str
    parameters: LinkParameters
    seed: int
    n_slots: int
    flush: bool = True
    #: Optional :class:`repro.eve.base.QuantumChannelAttack` interposed on
    #: the photonic path for this run; ``None`` runs the clean channel.
    attack: object = None


@dataclass
class LinkRun:
    """What one finished link hands back: its report and both key pools."""

    name: str
    report: LinkReport
    alice_pool: KeyPool
    bob_pool: KeyPool

    @property
    def distilled_bits(self) -> int:
        return self.report.distilled_bits


def _run_link_job(job: LinkJob) -> LinkRun:
    """What the farm runs per job: the job as a one-lane fleet."""
    from repro.lanes import LaneEngine

    return LaneEngine([job]).run()[0]


class LinkFarm:
    """Schedules whole-link simulations across a thread pool.

    Every job runs the same slot→key loop
    (:func:`repro.lanes.engine.run_lane`) and the farm is digest-invariant
    (a job's output is a pure function of its parameters and seed); the
    worker count changes only where each job runs.  One worker (or one job)
    is the in-process lane loop, with no pool; otherwise jobs fan out one
    per task over a :class:`~concurrent.futures.ThreadPoolExecutor` (numpy
    releases the GIL in the optics draws; a process pool measured no better,
    see CHANGES.md).  Each :meth:`run` builds its links afresh: protocol
    state carried between epochs needs a :class:`~repro.lanes.LaneEngine`
    the caller holds.  Jobs may differ in slot budget, ``slots_per_batch``
    and everything else.
    """

    def __init__(self, workers: Optional[int] = None):
        resolve_workers(workers)
        self.workers = workers

    @staticmethod
    def jobs(
        n_links: int,
        n_slots: int,
        parameters: Optional[LinkParameters] = None,
        rng: Optional[DeterministicRNG] = None,
        name_prefix: str = "link",
    ) -> List[LinkJob]:
        """Build a fleet of identical links with independent labeled streams.

        Seeds are derived as ``fork_labeled(f"link/{name_prefix}/{i}")`` —
        the prefix namespaces the fleet, so two fleets built from the same
        root rng under different prefixes get disjoint key material (the
        cross-fleet analogue of the relay refill's per-epoch pad labels).
        Two fleets with the *same* rng, prefix and index would repeat
        streams; give each fleet its own prefix or rng.
        """
        if n_links < 0:
            raise ValueError("link count must be non-negative")
        rng = rng or DeterministicRNG(0)
        parameters = parameters or LinkParameters()
        return [
            LinkJob(
                name=f"{name_prefix}-{index}",
                parameters=parameters,
                seed=rng.fork_labeled(f"link/{name_prefix}/{index}").seed,
                n_slots=n_slots,
            )
            for index in range(n_links)
        ]

    def run(self, jobs: Sequence[LinkJob]) -> List[LinkRun]:
        """Run every job; results come back in submission order.

        The worker count only changes *how* the jobs execute, never their
        output: every digest is the same for all of them.
        """
        jobs = list(jobs)
        count = min(resolve_workers(self.workers), len(jobs))
        if count <= 1:
            return [_run_link_job(job) for job in jobs]
        with ThreadPoolExecutor(max_workers=count) as pool:
            return list(pool.map(_run_link_job, jobs))
