"""Deterministic parallel distillation of independent sifted blocks.

The sequential engine distills blocks strictly one at a time because three
pieces of state thread through consecutive blocks: the Cascade and
privacy-amplification RNG streams, the running-QBER estimate that sizes
Cascade's first pass, and the authentication pads / key pools that every
block's transcript settles into.  This module makes blocks schedulable by
splitting each one in two:

* a **compute phase** — Cascade reconciliation, entropy estimation and
  privacy amplification — that runs on a worker against a *per-block*
  services bundle whose RNG streams are forked by label from the engine's
  runtime seed (``fork_labeled(f"block/{block_id}")``), so a block's
  randomness is a pure function of ``(runtime seed, block id)``;
* a **commit phase** — the QBER alarm, Cascade accounting, transcript
  authentication and key-pool delivery — that the engine applies on the
  coordinator **in block-id order** against the real shared services.

Because the compute phase is order-independent and the commit phase is
order-fixed, the distilled output is bit-identical for any worker count and
any scheduling interleaving; the tests pin a one-worker run against a
four-worker run, and a digest of the parallel stream itself.

The parallel stream is deliberately *different* from the sequential engine's
(the sequential path keeps its historical shared streams, pinned by
``tests/test_pinned_key_material.py``); it is a documented, separately
pinned stream, not a drop-in reproduction of the sequential bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.cascade import CascadeProtocol
from repro.core.entropy_estimation import EntropyEstimator
from repro.core.keypool import KeyPool
from repro.core.privacy import PrivacyAmplification
from repro.core.randomness import RandomnessTester
from repro.pipeline import DistillationPipeline, PipelineContext, PipelineServices
from repro.pipeline.stage import PipelineStage
from repro.pipeline.stages import (
    AuthenticationStage,
    CascadeAccountStage,
    CascadeComputeStage,
    DeliveryStage,
    EntropyEstimationStage,
    PrivacyAmplificationStage,
    QberAlarmStage,
)
from repro.runtime.pool import resolve_workers
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG


@dataclass(frozen=True)
class BlockWorkItem:
    """One sifted block, fully described for an order-independent worker."""

    block_id: int
    alice_key: BitString
    bob_key: BitString
    transmitted_pulses: int
    mean_photon_number: float
    entangled_source: bool
    #: Seed of the block's private RNG stream — derived by the engine as
    #: ``runtime_rng.fork_labeled(f"block/{block_id}").seed``, so it depends
    #: only on the runtime seed and the block id.
    stream_seed: int
    #: Cascade first-pass sizing hint.  ``None`` (the default, and what the
    #: engine passes) sizes from the block's own measured QBER — a
    #: self-contained choice, so the output is invariant not only under
    #: worker count but under how blocks are partitioned into batches.
    #: (The sequential path instead threads a running estimate across
    #: blocks; that cross-block coupling is exactly what parallel mode
    #: removes.)
    error_rate_hint: Optional[float] = None


def _worker_services(
    parameters: Any, item: BlockWorkItem, error_rate_hint: float
) -> PipelineServices:
    """A private services bundle whose streams are the block's own forks."""
    block_rng = DeterministicRNG(item.stream_seed)
    return PipelineServices(
        parameters=parameters,
        statistics=None,  # compute stages never touch shared statistics
        cascade=CascadeProtocol(parameters.cascade, block_rng.fork("cascade")),
        privacy=PrivacyAmplification(block_rng.fork("privacy")),
        estimator=EntropyEstimator(
            defense=parameters.make_defense(),
            confidence_sigmas=parameters.confidence_sigmas,
            worst_case_multiphoton=parameters.worst_case_multiphoton,
        ),
        alice_auth=None,  # authentication happens in the commit phase
        bob_auth=None,
        alice_pool=KeyPool(name="worker-scratch-alice"),
        bob_pool=KeyPool(name="worker-scratch-bob"),
        randomness_tester=RandomnessTester() if parameters.randomness_testing else None,
        running_qber=error_rate_hint,
    )


def _distill_block_work(
    task: Tuple[BlockWorkItem, Any, Tuple[PipelineStage, ...]]
) -> PipelineContext:
    """Worker entry point: run one block's compute phase.

    Returns the block's :class:`PipelineContext` with the Cascade, entropy
    and privacy results (and the public transcript they produced) filled in,
    and ``services`` stripped so only results travel back to the
    coordinator.
    """
    item, parameters, stages = task
    ctx = PipelineContext(
        block_id=item.block_id,
        alice_key=item.alice_key,
        bob_key=item.bob_key,
        transmitted_pulses=item.transmitted_pulses,
        mean_photon_number=item.mean_photon_number,
        entangled_source=item.entangled_source,
    )
    # Mirror of the alarm stage's threshold check: a block the commit-phase
    # alarm will abort gets no compute spent on it, and — exactly like the
    # sequential pipeline, where the alarm runs first — its transcript stays
    # empty for the abort authentication.
    if ctx.qber > parameters.abort_qber:
        return ctx
    hint = item.error_rate_hint if item.error_rate_hint is not None else ctx.qber
    ctx.services = _worker_services(parameters, item, hint)
    for stage in stages:  # no compute stage aborts a block
        ctx = stage.run(ctx)
    ctx.services = None
    return ctx


class ParallelDistiller:
    """Runs the compute phase of many blocks across a worker pool.

    The distiller owns no shared protocol state — it schedules
    :class:`BlockWorkItem` s (each self-contained, with its own stream seed)
    and returns their contexts **sorted by block id**, ready for the
    engine's in-order commit phase.  Worker count and backend change wall
    time only, never bits.

    The two phases are fixed: :attr:`compute_stages` run on the workers and
    :attr:`commit` runs on the coordinator.  Together they are the engine's
    pipeline with ``cascade.bicon`` split into ``cascade.compute`` and
    ``cascade.account``.

    The pool is created lazily on the first multi-block batch and **reused
    across batches** — an engine feeding frame after frame through
    ``distill_blocks`` pays worker start-up once, not once per batch.  Call
    :meth:`close` (or use the distiller as a context manager) to release
    the workers.
    """

    def __init__(
        self,
        parameters: Any,
        workers: Optional[int] = None,
        backend: str = "process",
    ):
        if backend not in ("process", "thread"):
            raise ValueError(f"backend must be 'process' or 'thread', got {backend!r}")
        self.compute_stages = (
            CascadeComputeStage(),
            EntropyEstimationStage(),
            PrivacyAmplificationStage(),
        )
        self.commit = DistillationPipeline(
            (QberAlarmStage(), CascadeAccountStage(), AuthenticationStage(), DeliveryStage()),
            name="parallel-commit",
        )
        self.parameters = parameters
        self.workers = resolve_workers(workers)
        self.backend = backend
        self._executor = None

    def _executor_for_batch(self):
        if self._executor is None:
            from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

            executor_cls = (
                ProcessPoolExecutor if self.backend == "process" else ThreadPoolExecutor
            )
            self._executor = executor_cls(max_workers=self.workers)
        return self._executor

    def compute(self, items: Sequence[BlockWorkItem]) -> List[PipelineContext]:
        """Run every item's compute phase; results come back in block-id order."""
        tasks = [(item, self.parameters, self.compute_stages) for item in items]
        if self.workers <= 1 or len(tasks) <= 1:
            contexts = [_distill_block_work(task) for task in tasks]
        else:
            contexts = list(self._executor_for_batch().map(_distill_block_work, tasks))
        return sorted(contexts, key=lambda ctx: ctx.block_id)

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "ParallelDistiller":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # best-effort cleanup; never raise during teardown
        try:
            self.close()
        except Exception:
            pass
