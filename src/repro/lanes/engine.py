"""The slot→key loop, and a fleet of links carried through it one at a time.

Every link is a **lane**, and :func:`run_lane` is the one loop that carries a
lane from trigger slots to pooled key, one ``slots_per_batch`` batch at a
time: transmit (:func:`repro.optics.channel.transmit_lanes`), sift
(:func:`repro.core.sifting.sift_frames`), then distil (the link's own
engine).  A single :class:`~repro.link.qkd_link.QKDLink` runs it directly
(``QKDLink.run_slots``), :class:`LaneEngine` runs a fleet through it lane
after lane in one process (:func:`run_lanes`), and the
:class:`~repro.runtime.farm.LinkFarm` runs it once per job — inline at one
worker, else one job per thread task.

Lane independence
-----------------

Each lane holds a real :class:`~repro.link.qkd_link.QKDLink` and every draw
comes from that lane's own generators.  A lane's sifted stream, distilled
key, report and pools are therefore a function of its job alone:
**bit-identical** for any lane count and lane order, which is what the pinned
key-material digests and ``tests/test_lanes.py`` (N lanes vs N x 1 lane) hold
fixed.

One lane at a time, the source one batch ahead
----------------------------------------------

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

Beside that batch, the source draws the next one.  A source draws from its
own generator, which no other step reads, so the batch it emits early is the
batch it would have emitted on time: just before batch k transmits, a run
starts the emission of the batch after it — the lane's own batch k + 1, or
at the end of a lane the next lane's first — on one worker thread, and
``QuantumChannel.transmit`` takes it (:meth:`~repro.optics.channel.QuantumChannel.emit_ahead`).
The depth is fixed at one batch and there is no other path: a run of one
batch starts no thread, and every run joins its thread before it returns
or raises.  The worker runs only ``source.emit_into``, into arrays this
thread allocated, so every callable the E21 tracer wraps stays on the
calling thread and a wait for the emission is optics time.  It holds one
batch's ``basis``/``value``/``photons`` (4 bytes a slot) and the non-empty
slots beside the batch being carried, and nothing that grows with the
batch: glibc gives the worker its own arena and keeps that arena's
high-water mark, so the draws run in chunks (:mod:`repro.optics.draws`),
and the photon number is numpy's own Poisson loop, one call per chunk
without the GIL.  The channel's dense per-slot doubles went to chunks at
the same time (all but the detector doubles, one dense draw kept until the
fired slots are known), which is why memory fell while the pipeline added a
batch.  Measured on E21 (2 vCPUs, interleaved pairs at 20 s):
``link_single`` ``work_per_ref_s`` 34.0 → 41.5 (10/10 pairs),
``fleet_epochs`` 33.6 → 38.1 (5/5), ``key_life`` 33.3 → 38.0 (5/5);
``peak_rss_mb`` 58.8 → 57.4, 53.7 → 53.6 and 59.4 → 58.8; a 16-lane
250 k-slot epoch's ``tracemalloc`` peak 5.82 MiB against 4.61 for one lane
(6.27 against 6.07 before).  Carrying two whole lanes at once instead was
rejected: a prototype measured ``fleet_epochs`` +45 % but ``peak_rss_mb``
+13 % and that peak ratio at ~1.9.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from numbers import Integral
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.sifting import sift_frames
from repro.link.qkd_link import LinkParameters, LinkReport, QKDLink
from repro.optics.channel import QuantumChannel, transmit_lanes
from repro.runtime.farm import LinkJob, LinkRun
from repro.util.rng import DeterministicRNG

__all__ = ["LaneEngine"]

#: Names the thread a run emits its next batch on (``<prefix>_0``).
EMITTER_THREAD_PREFIX = "repro-emit-ahead"


def run_lane(link: QKDLink, n_slots: int, flush: bool = True) -> LinkReport:
    """Carry ``n_slots`` trigger slots on ``link`` to pooled key.

    Per batch: one :func:`transmit_lanes`, one :func:`sift_frames`, then the
    link's engine accumulates and distils; ``flush`` distils a final partial
    block.  Returns this run's report.  ``n_slots`` must be a non-negative
    integer (numpy integers included).
    """
    [report] = run_lanes([(link, n_slots, flush)])
    return report


def run_lanes(lanes: Iterable[Tuple[QKDLink, int, bool]]) -> List[LinkReport]:
    """:func:`run_lane` on each ``(link, n_slots, flush)`` in turn, the
    source one batch ahead throughout; one report per lane, in order."""
    lanes = [(link, _slot_count(n_slots), flush) for link, n_slots, flush in lanes]
    schedule = (
        (link.channel, size) for link, n_slots, _ in lanes for size in _batches(link, n_slots)
    )
    reports = []
    with _EmitAhead(schedule) as emit_ahead:
        for link, n_slots, flush in lanes:
            started = replace(link.engine.statistics)
            channel = link.parameters.channel
            outcomes = []
            for this_batch in _batches(link, n_slots):
                emit_ahead()
                [frame] = transmit_lanes([link.channel], this_batch, [link.attack])
                [sift] = sift_frames([frame], [link.engine.allocate_frame_id()])
                # Sifting was the frame's one reader: with this reference gone
                # its per-slot arrays are freed before the next batch transmits.
                del frame
                outcomes.extend(
                    link.engine.process_sifted(
                        sift,
                        this_batch,
                        mean_photon_number=channel.effective_mean_photon_number,
                        entangled_source=channel.is_entangled,
                    )
                )
            if flush:
                flushed = link.engine.flush()
                if flushed is not None:
                    outcomes.append(flushed)
            reports.append(link.build_report(n_slots, outcomes, started))
    return reports


def _slot_count(n_slots) -> int:
    if isinstance(n_slots, bool) or not isinstance(n_slots, Integral) or n_slots < 0:
        raise ValueError(f"slot count must be a non-negative integer, got {n_slots!r}")
    return int(n_slots)


def _batches(link: QKDLink, n_slots: int) -> Iterator[int]:
    """The sizes of the batches ``n_slots`` slots on ``link`` are carried in."""
    per_batch = link.parameters.slots_per_batch
    for start in range(0, n_slots, per_batch):
        yield min(per_batch, n_slots - start)


class _EmitAhead:
    """Keeps the source one batch ahead of the batch about to transmit.

    Called once per batch, just before it transmits: it starts the emission
    of the batch after it (``schedule``'s next ``(channel, size)``) on its
    one worker thread, so the source draws batch k + 1 while the channel,
    sifting and distillation work on batch k.  The worker is started with
    the second batch; the first batch is then drawn on it too, ahead of the
    second, so that one source's batches keep their order.  A run of one
    batch starts no thread.  On exit the worker is joined and any batch
    drawn and not transmitted (after an error) is discarded, its source put
    back, so the next run draws what it would have drawn.
    """

    def __init__(self, schedule: Iterable[Tuple[QuantumChannel, int]]):
        self._schedule = iter(schedule)
        self._current: Optional[Tuple[QuantumChannel, int]] = None
        self._following = next(self._schedule, None)
        self._worker: Optional[ThreadPoolExecutor] = None

    def __enter__(self) -> "_EmitAhead":
        return self

    def __call__(self) -> None:
        self._current, self._following = self._following, next(self._schedule, None)
        if self._following is None:
            return
        if self._worker is None:
            self._worker = ThreadPoolExecutor(1, thread_name_prefix=EMITTER_THREAD_PREFIX)
            self._emit(self._current)
        self._emit(self._following)

    def _emit(self, batch: Tuple[QuantumChannel, int]) -> None:
        channel, n_slots = batch
        channel.emit_ahead(n_slots, self._worker)

    def __exit__(self, *_exc) -> None:
        if self._worker is None:
            return
        self._worker.shutdown(wait=True)
        for batch in (self._current, self._following):
            if batch is not None:
                batch[0].discard_emissions()


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
        return run_lanes((link, n_slots, flush) for link in self.links)

    def run(self) -> List[LinkRun]:
        """Run every lane for its own job's slot budget; the farm's entry.

        One :class:`LinkRun` per job, in job order, whether the ``LinkFarm``
        called it inline or on a worker thread.
        """
        reports = run_lanes(
            (link, job.n_slots, job.flush) for job, link in zip(self.jobs, self.links)
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
