"""The pipeline driver: a fixed sequence of stages.

A :class:`DistillationPipeline` runs a block's
:class:`~repro.pipeline.context.PipelineContext` through its stages in
order and stops once a stage aborts the block.  It keeps no clock: stage
time is measured by the E21 trace, whose ``core.stage.*`` spans wrap each
stage's ``run``.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.pipeline.context import PipelineContext
from repro.pipeline.stage import PipelineStage


class DistillationPipeline:
    """A fixed sequence of stages."""

    def __init__(self, stages: Sequence[PipelineStage]):
        if not stages:
            raise ValueError("a pipeline needs at least one stage")
        self.stages: Tuple[PipelineStage, ...] = tuple(stages)

    def run(self, ctx: PipelineContext) -> PipelineContext:
        """Drive one block's context through the stages until one aborts it."""
        for stage in self.stages:
            if ctx.aborted:
                break
            ctx = stage.run(ctx)
        return ctx

    def __repr__(self) -> str:
        return f"DistillationPipeline({' -> '.join(stage.name for stage in self.stages)})"
