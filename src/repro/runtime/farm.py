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
(``rng.fork_labeled(...)``), never from a shared sequential stream, so
adding or reordering links does not disturb the others.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.core.keypool import KeyPool

if TYPE_CHECKING:  # imported lazily at runtime: resolve_workers needs no link code
    from repro.link.qkd_link import LinkParameters, LinkReport


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
    and everything else.  Inline, the jobs are the lanes of one
    :class:`~repro.lanes.LaneEngine` run.
    """

    def __init__(self, workers: Optional[int] = None):
        resolve_workers(workers)
        self.workers = workers

    def run(self, jobs: Sequence[LinkJob]) -> List[LinkRun]:
        """Run every job; results come back in submission order.

        The worker count only changes *how* the jobs execute, never their
        output: every digest is the same for all of them.
        """
        jobs = list(jobs)
        count = min(resolve_workers(self.workers), len(jobs))
        if count <= 1:
            # One run over every job, so the source emits one job's first
            # batch while the job before it finishes.
            from repro.lanes import LaneEngine

            return LaneEngine(jobs).run()
        with ThreadPoolExecutor(max_workers=count) as pool:
            return list(pool.map(_run_link_job, jobs))
