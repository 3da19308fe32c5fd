"""The slot→key batch loop: N links' epochs lock-step as one numpy program.

Every link is a **lane** — one row of a ``(n_links, n_slots)`` batch — and
:func:`run_lanes` is the one loop that carries lanes from trigger slots to
pooled key: the whole batch's physics and announcement path run as single
whole-batch array operations (:func:`repro.optics.channel.transmit_lanes`,
:func:`repro.core.sifting.sift_frames`), then each lane's own engine distills
its sifted bits.  Per-link physics (source type, distance, loss, visibility,
dark counts, attack presence) rides along as per-lane parameters.  A single
:class:`~repro.link.qkd_link.QKDLink` is the width-1 case
(``QKDLink.run_slots``), and the :class:`~repro.runtime.farm.LinkFarm`'s
process/thread workers fan that same width-1 case out across cores.

Lane independence
-----------------

Each lane holds a real :class:`~repro.link.qkd_link.QKDLink`; during a batch
every draw comes from that lane's own generators (draws loop over lanes per
draw site) while the arithmetic between draws — elementwise IEEE operations
and broadcasts — runs batched.  A lane's sifted stream, distilled key, report
and pools are therefore a function of its job alone: **bit-identical** for
any lane count and lane order, which is what the pinned key-material digests
and ``tests/test_lanes.py`` (N lanes vs N x 1 lane) hold fixed.

Wide batches vs workers
-----------------------

A wide batch amortizes fixed per-epoch cost (interpreter dispatch,
small-array numpy overhead) across the fleet and pays no process spawn or
pickling, so it wins whenever epochs are homogeneous and per-lane compute is
modest — the metro-mesh replenishment case.  Workers win for few, long or
ragged jobs, which a batch refuses (:func:`lane_mismatch`).  Peak memory
scales with ``n_links * slots_per_batch``; shrink ``slots_per_batch`` as lane
counts grow.  (Changing ``slots_per_batch`` changes the generator call
granularity and therefore the bitstream, so compare like with like.)
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.engine import DistillationOutcome
from repro.core.sifting import sift_frames
from repro.link.qkd_link import LinkParameters, LinkReport, QKDLink
from repro.optics.channel import transmit_lanes
from repro.runtime.farm import LinkJob, LinkRun
from repro.util.rng import DeterministicRNG

__all__ = ["LaneCompatibilityError", "LaneEngine"]


class LaneCompatibilityError(ValueError):
    """Raised when a set of jobs cannot share one lane batch."""


def lane_mismatch(jobs: Sequence[LinkJob]) -> Optional[str]:
    """Why ``jobs`` cannot share one lane batch, or ``None`` if they can.

    The one statement of the rule: a batch is rectangular, so its lanes agree
    on the slot budget, on ``slots_per_batch`` (the batch boundary is part of
    each link's draw granularity) and on the Qframe size (the slot-to-frame
    layout is computed once).  Everything else — source type, distance,
    loss, visibility, dark counts, attack presence — may vary per lane.
    """
    if not jobs:
        return "a lane batch needs at least one job"
    for name, values in (
        ("n_slots", {job.n_slots for job in jobs}),
        ("slots_per_batch", {job.parameters.slots_per_batch for job in jobs}),
        (
            "slots_per_frame",
            {job.parameters.channel.framing.slots_per_frame for job in jobs},
        ),
    ):
        if len(values) > 1:
            return f"lanes disagree on {name} ({sorted(values)})"
    return None


def run_lanes(
    links: Sequence[QKDLink], n_slots: int, flush_flags: Sequence[bool]
) -> List[LinkReport]:
    """Carry ``n_slots`` trigger slots on every link to pooled key, lock-step.

    The one slot→key loop: per batch, one :func:`transmit_lanes`, one
    :func:`sift_frames`, then each lane's engine accumulates and distills.
    ``links`` must share ``slots_per_batch`` and ``slots_per_frame``
    (:func:`lane_mismatch`; trivially true for one link).  Returns one report
    per link, in order.
    """
    if n_slots < 0:
        raise ValueError("slot count must be non-negative")
    outcomes: List[List[DistillationOutcome]] = [[] for _ in links]
    mus = [link.parameters.channel.effective_mean_photon_number for link in links]
    entangled = [link.parameters.channel.is_entangled for link in links]
    channels = [link.channel for link in links]
    attacks = [link.attack for link in links]
    batch = links[0].parameters.slots_per_batch
    remaining = n_slots
    while remaining > 0:
        this_batch = min(batch, remaining)
        frames = transmit_lanes(channels, this_batch, attacks=attacks)
        frame_ids = [link.engine.allocate_frame_id() for link in links]
        sifts = sift_frames(frames, frame_ids)
        for index, link in enumerate(links):
            outcomes[index].extend(
                link.engine.process_sifted(
                    sifts[index],
                    frames[index].n_slots,
                    mean_photon_number=mus[index],
                    entangled_source=entangled[index],
                )
            )
            # Sifting has extracted everything the protocols need; drop each
            # lane's row views so a long run's memory stays flat — once every
            # lane releases, the shared batch storage itself frees.
            frames[index].release_slot_arrays()
        del frames, sifts
        remaining -= this_batch
    for index, link in enumerate(links):
        if flush_flags[index]:
            flushed = link.engine.flush()
            if flushed is not None:
                outcomes[index].append(flushed)
    return [
        link.build_report(n_slots, outcomes[index]) for index, link in enumerate(links)
    ]


class LaneEngine:
    """Runs a fleet of :class:`LinkJob` lanes as one batch program."""

    def __init__(self, jobs: Sequence[LinkJob]):
        jobs = list(jobs)
        reason = lane_mismatch(jobs)
        if reason is not None:
            raise LaneCompatibilityError(reason)
        self.jobs = jobs
        self.links = [
            QKDLink(job.parameters, DeterministicRNG(job.seed), name=job.name)
            for job in jobs
        ]
        for link, job in zip(self.links, jobs):
            if job.attack is not None:
                link.attach_attack(job.attack)

    # ------------------------------------------------------------------ #
    # Fleet construction
    # ------------------------------------------------------------------ #

    @classmethod
    def for_fleet(
        cls,
        n_lanes: int,
        parameters: Optional[LinkParameters] = None,
        rng: Optional[DeterministicRNG] = None,
        name_prefix: str = "lane",
        n_slots: int = 0,
    ) -> "LaneEngine":
        """A homogeneous fleet with independent labeled ``lane/...`` streams.

        Seeds derive as ``fork_labeled(f"lane/{name_prefix}/{index}")`` — a
        pure function of the root seed and the lane id, so a lane's bitstream
        does not depend on how many other lanes exist or in what order they
        were created (the lane-axis analogue of the farm's ``link/...``
        streams).
        """
        if n_lanes <= 0:
            raise ValueError("lane count must be positive")
        rng = rng or DeterministicRNG(0)
        parameters = parameters or LinkParameters()
        jobs = [
            LinkJob(
                name=f"{name_prefix}-{index}",
                parameters=parameters,
                seed=rng.fork_labeled(f"lane/{name_prefix}/{index}").seed,
                n_slots=n_slots,
            )
            for index in range(n_lanes)
        ]
        return cls(jobs)

    @property
    def n_lanes(self) -> int:
        return len(self.links)

    # ------------------------------------------------------------------ #
    # Batched operation
    # ------------------------------------------------------------------ #

    def run_slots(self, n_slots: int, flush: bool = True) -> List[LinkReport]:
        """Transmit ``n_slots`` trigger slots on every lane, lock-step.

        Returns one report per lane, in lane order — each what
        :meth:`QKDLink.run_slots` returns for that lane's link run alone.
        """
        return run_lanes(self.links, n_slots, [flush] * self.n_lanes)

    def run(self) -> List[LinkRun]:
        """Run every lane for its job's slot budget; the farm's entry.

        One :class:`LinkRun` per job, in job order, whichever ``LinkFarm``
        backend got it here.
        """
        reports = run_lanes(
            self.links, self.jobs[0].n_slots, [job.flush for job in self.jobs]
        )
        return [
            LinkRun(
                name=job.name,
                report=report,
                alice_pool=link.engine.alice_pool,
                bob_pool=link.engine.bob_pool,
            )
            for job, link, report in zip(self.jobs, self.links, reports)
        ]

    def __repr__(self) -> str:
        return f"LaneEngine(lanes={self.n_lanes})"
