"""The pipeline composer: ordered stages plus timing/telemetry hooks.

A :class:`DistillationPipeline` runs a block's
:class:`~repro.pipeline.context.PipelineContext` through its stages in order,
skipping the remainder once a stage aborts the block (stages that opt in via
``runs_on_abort`` still run).  Every stage execution is timed; cumulative
per-stage wall-clock totals live in :class:`PipelineTelemetry`, and arbitrary
observer hooks can be attached for live instrumentation::

    pipeline.add_hook(lambda stage, ctx, dt: print(stage.name, dt))
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.pipeline.context import PipelineContext, PipelineServices
from repro.pipeline.registry import DEFAULT_STAGE_PLAN, create_stage
from repro.pipeline.stage import Stage

#: Observer signature: (stage, context, elapsed_seconds) after each stage run.
PipelineHook = Callable[[Stage, PipelineContext, float], None]


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
    """An ordered composition of stages with per-stage telemetry."""

    def __init__(
        self,
        stages: Sequence[Stage],
        name: str = "distillation",
        hooks: Optional[Sequence[PipelineHook]] = None,
    ):
        if not stages:
            raise ValueError("a pipeline needs at least one stage")
        self.stages: List[Stage] = list(stages)
        self.name = name
        self.hooks: List[PipelineHook] = list(hooks or [])
        self.telemetry = PipelineTelemetry()

    @classmethod
    def from_plan(
        cls,
        plan: Sequence[str],
        services: PipelineServices,
        name: str = "distillation",
    ) -> "DistillationPipeline":
        """Assemble a pipeline from registry keys (the engine's entry point)."""
        return cls([create_stage(key, services) for key in plan], name=name)

    @classmethod
    def default(
        cls, services: PipelineServices, name: str = "distillation"
    ) -> "DistillationPipeline":
        """The paper's Fig 9 pipeline."""
        return cls.from_plan(DEFAULT_STAGE_PLAN, services, name=name)

    # ------------------------------------------------------------------ #

    def add_hook(self, hook: PipelineHook) -> None:
        """Attach an observer called after every stage execution."""
        self.hooks.append(hook)

    @property
    def stage_names(self) -> List[str]:
        return [stage.name for stage in self.stages]

    def run(self, ctx: PipelineContext) -> PipelineContext:
        """Drive one block's context through every applicable stage."""
        for stage in self.stages:
            if ctx.aborted and not getattr(stage, "runs_on_abort", False):
                continue
            started = time.perf_counter()
            result = stage.run(ctx)
            elapsed = time.perf_counter() - started
            if result is not None:
                ctx = result
            ctx.stages_run.append(stage.name)
            self.telemetry.record(stage.name, elapsed)
            for hook in self.hooks:
                hook(stage, ctx, elapsed)
        self.telemetry.blocks_processed += 1
        return ctx

    def __repr__(self) -> str:
        return f"DistillationPipeline({self.name}: {' -> '.join(self.stage_names)})"
