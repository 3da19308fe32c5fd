"""Run many independent QKD links as one batch.

A relay mesh or a fleet of VPN enclave pairs is, at the physical layer, a
set of *independent* point-to-point links — there is no protocol state
shared between two links, only between the two ends of one link.  Each
:class:`LinkJob` carries everything needed to build and run a
:class:`~repro.link.qkd_link.QKDLink` from scratch (parameters, a seed, a
slot budget), and the farm runs the jobs as the lanes of one
:class:`~repro.lanes.LaneEngine` run, returning results in submission order.

Determinism contract: a job's output is a pure function of its
``(parameters, seed, n_slots)``, whatever jobs run beside it.  Seeds for a
fleet come from labeled forks (``rng.fork_labeled(...)``), never from a
shared sequential stream, so adding or reordering links does not disturb
the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence

from repro.core.keypool import KeyPool

if TYPE_CHECKING:  # imported lazily at runtime: resolve_workers needs no link code
    from repro.link.qkd_link import LinkParameters, LinkReport


def resolve_workers(workers: int) -> int:
    """Check a worker count: a positive integer, returned as it is.

    The count selects no thread: ``ReplenishmentConfig.workers`` is checked
    and otherwise unused, and ``TrustedRelayNetwork.run_links_for`` reads
    only whether one was given.
    """
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ValueError(f"worker count must be an integer, got {workers!r}")
    if workers < 1:
        raise ValueError("worker count must be at least 1")
    return workers


@dataclass(frozen=True)
class LinkJob:
    """One link simulation, fully described."""

    name: str
    parameters: LinkParameters
    seed: int
    n_slots: int
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


class LinkFarm:
    """Runs whole-link simulations in this thread, one lane after another.

    Every job is a lane of one :class:`~repro.lanes.LaneEngine` run, with
    the source one batch ahead across the jobs, and ends with a flushed
    final block.  Each :meth:`run` builds its links afresh: protocol state
    carried between epochs needs a :class:`~repro.lanes.LaneEngine` the
    caller holds.  Jobs may differ in slot budget, ``slots_per_batch`` and
    everything else.  A thread pool over the jobs measured no faster than
    this loop on 2 vCPUs (``docs/API.md``, "One farm, in this thread").
    """

    def run(self, jobs: Sequence[LinkJob]) -> List[LinkRun]:
        """Run every job; results come back in submission order."""
        from repro.lanes import LaneEngine

        return LaneEngine(jobs).run()
