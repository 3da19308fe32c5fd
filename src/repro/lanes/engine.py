"""The slot→key loop, and a fleet of links carried through it one at a time.

Every link is a **lane**, and :func:`run_lane` is the one loop that carries a
lane from trigger slots to pooled key, one ``slots_per_batch`` batch at a
time: transmit (:func:`repro.optics.channel.transmit_lanes`), sift
(:func:`repro.core.sifting.sift_frames`), then distil (the link's own
engine).  A single :class:`~repro.link.qkd_link.QKDLink` runs it directly
(``QKDLink.run_slots``), :class:`LaneEngine` runs a fleet through it lane
after lane in one process, and the :class:`~repro.runtime.farm.LinkFarm`
runs it once per job — inline at one worker, else one job per thread task.

Lane independence
-----------------

Each lane holds a real :class:`~repro.link.qkd_link.QKDLink` and every draw
comes from that lane's own generators.  A lane's sifted stream, distilled
key, report and pools are therefore a function of its job alone:
**bit-identical** for any lane count and lane order, which is what the pinned
key-material digests and ``tests/test_lanes.py`` (N lanes vs N x 1 lane) hold
fixed.

One lane at a time
------------------

Every draw, compare and ``nonzero`` of the optics is per link, and only the
~0.3 % of slots that fire are worth computing on, so holding lanes side by
side as an ``(n_links, n_slots)`` batch saves no time — it only keeps every
lane's eight per-slot arrays alive at once (~8 bytes a slot: 32 MiB for
sixteen 250 k-slot lanes).  Carried one at a time, and with each frame
dropped as soon as it is sifted, only one lane's batch is alive at any
moment, and lanes may differ in everything: slot budget,
``slots_per_batch`` and Qframe size included.  (``slots_per_batch`` is part
of each link's draw granularity, so changing it changes that link's
bitstream; compare like with like.)
"""

from __future__ import annotations

from dataclasses import replace
from numbers import Integral
from typing import List, Optional, Sequence

from repro.core.sifting import sift_frames
from repro.link.qkd_link import LinkParameters, LinkReport, QKDLink
from repro.optics.channel import transmit_lanes
from repro.runtime.farm import LinkJob, LinkRun
from repro.util.rng import DeterministicRNG

__all__ = ["LaneEngine"]


def run_lane(link: QKDLink, n_slots: int, flush: bool = True) -> LinkReport:
    """Carry ``n_slots`` trigger slots on ``link`` to pooled key.

    Per batch: one :func:`transmit_lanes`, one :func:`sift_frames`, then the
    link's engine accumulates and distils; ``flush`` distils a final partial
    block.  Returns this run's report.  ``n_slots`` must be a non-negative
    integer (numpy integers included).
    """
    if isinstance(n_slots, bool) or not isinstance(n_slots, Integral) or n_slots < 0:
        raise ValueError(f"slot count must be a non-negative integer, got {n_slots!r}")
    n_slots = int(n_slots)
    started = replace(link.engine.statistics)
    channel = link.parameters.channel
    outcomes = []
    remaining = n_slots
    while remaining > 0:
        this_batch = min(link.parameters.slots_per_batch, remaining)
        [frame] = transmit_lanes([link.channel], this_batch, [link.attack])
        [sift] = sift_frames([frame], [link.engine.allocate_frame_id()])
        # Sifting was the frame's one reader: with this reference gone its
        # per-slot arrays are freed before the next batch draws its own.
        del frame
        outcomes.extend(
            link.engine.process_sifted(
                sift,
                this_batch,
                mean_photon_number=channel.effective_mean_photon_number,
                entangled_source=channel.is_entangled,
            )
        )
        remaining -= this_batch
    if flush:
        flushed = link.engine.flush()
        if flushed is not None:
            outcomes.append(flushed)
    return link.build_report(n_slots, outcomes, started)


class LaneEngine:
    """Runs a fleet of :class:`LinkJob` lanes in one process, lane by lane."""

    def __init__(self, jobs: Sequence[LinkJob]):
        self.jobs = list(jobs)
        self.links = [
            QKDLink(job.parameters, DeterministicRNG(job.seed), name=job.name)
            for job in self.jobs
        ]
        for link, job in zip(self.links, self.jobs):
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
                n_slots=0,
            )
            for index in range(n_lanes)
        ]
        return cls(jobs)

    @property
    def n_lanes(self) -> int:
        return len(self.links)

    # ------------------------------------------------------------------ #
    # Operation
    # ------------------------------------------------------------------ #

    def run_slots(self, n_slots: int, flush: bool = True) -> List[LinkReport]:
        """Transmit ``n_slots`` trigger slots on every lane, one lane at a time.

        Returns one report per lane, in lane order — each what
        :meth:`QKDLink.run_slots` returns for that lane's link run alone.
        """
        return [run_lane(link, n_slots, flush) for link in self.links]

    def run(self) -> List[LinkRun]:
        """Run every lane for its own job's slot budget; the farm's entry.

        One :class:`LinkRun` per job, in job order, whether the ``LinkFarm``
        called it inline or on a worker thread.
        """
        return [
            LinkRun(
                name=job.name,
                report=run_lane(link, job.n_slots, job.flush),
                alice_pool=link.engine.alice_pool,
                bob_pool=link.engine.bob_pool,
            )
            for job, link in zip(self.jobs, self.links)
        ]

    def __repr__(self) -> str:
        return f"LaneEngine(lanes={self.n_lanes})"
