"""The pipeline driver: a fixed sequence of stages plus per-stage timing.

A :class:`DistillationPipeline` runs a block's
:class:`~repro.pipeline.context.PipelineContext` through its stages in
order and stops once a stage aborts the block.  Every stage execution is
timed; cumulative per-stage wall-clock totals live in
:class:`PipelineTelemetry`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.pipeline.context import PipelineContext
from repro.pipeline.stage import PipelineStage


@dataclass
class StageTiming:
    """One stage execution: cumulative calls and wall-clock seconds."""

    stage: str
    calls: int = 0
    seconds: float = 0.0


@dataclass
class PipelineTelemetry:
    """Cumulative per-stage timing across a pipeline's lifetime."""

    timings: Dict[str, StageTiming] = field(default_factory=dict)
    blocks_processed: int = 0

    def record(self, stage_name: str, seconds: float) -> None:
        timing = self.timings.setdefault(stage_name, StageTiming(stage=stage_name))
        timing.calls += 1
        timing.seconds += seconds

    @property
    def total_seconds(self) -> float:
        return sum(t.seconds for t in self.timings.values())

    def summary(self) -> List[StageTiming]:
        """Timings ordered from most to least expensive."""
        return sorted(self.timings.values(), key=lambda t: t.seconds, reverse=True)


class DistillationPipeline:
    """A fixed sequence of stages with per-stage telemetry."""

    def __init__(self, stages: Sequence[PipelineStage], name: str = "distillation"):
        if not stages:
            raise ValueError("a pipeline needs at least one stage")
        self.stages: Tuple[PipelineStage, ...] = tuple(stages)
        self.name = name
        self.telemetry = PipelineTelemetry()

    @property
    def stage_names(self) -> Tuple[str, ...]:
        return tuple(stage.name for stage in self.stages)

    def run(self, ctx: PipelineContext) -> PipelineContext:
        """Drive one block's context through the stages until one aborts it."""
        for stage in self.stages:
            if ctx.aborted:
                break
            started = time.perf_counter()
            ctx = stage.run(ctx)
            self.telemetry.record(stage.name, time.perf_counter() - started)
        self.telemetry.blocks_processed += 1
        return ctx

    def __repr__(self) -> str:
        return f"DistillationPipeline({self.name}: {' -> '.join(self.stage_names)})"
