"""The base class of the distillation stages.

A stage has a ``name`` and a ``run(ctx)`` method that takes a
:class:`~repro.pipeline.context.PipelineContext`, mutates it and returns it.
Stages hold no state of their own: everything a stage reads or charges —
the Cascade protocol, the estimator, the authenticated channels, the key
pools, the statistics — is an attribute of the engine the context carries
as ``ctx.services``.  Stage time is measured only by the E21 trace, which
wraps every stage's ``run`` in a ``core.stage.<name>`` span.
"""

from __future__ import annotations

from repro.pipeline.context import PipelineContext


class PipelineStage:
    """One step of the paper's Fig 9 pipeline; subclasses set :attr:`name`
    and override :meth:`run`."""

    name: str = "stage"

    def run(self, ctx: PipelineContext) -> PipelineContext:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
