"""The key-distillation pipeline (paper Fig 9 as a fixed sequence of stages).

The paper describes its protocols as "sub-layers within the QKD protocol
suite ... closer to being pipeline stages".  This package makes that literal:
each protocol step is a :class:`~repro.pipeline.stage.PipelineStage`
transforming a :class:`~repro.pipeline.context.PipelineContext`, and a
:class:`~repro.pipeline.pipeline.DistillationPipeline` runs them in order.
The protocol engine (:class:`repro.core.engine.QKDProtocolEngine`) always
runs the paper's six stages — QBER alarm, Cascade, entropy estimation,
privacy amplification, Wegman-Carter authentication, delivery — in that
order; what varies between runs is configuration (``EngineParameters``: the
defense function, the confidence, the thresholds), never the sequence.

Every block enters through ``QKDProtocolEngine.distill_block``, and the
services the stages read as ``ctx.services`` are that engine's attributes.
The pipeline keeps no clock: stage time is the E21 trace's
``core.stage.*`` spans.

* :mod:`repro.pipeline.stage` — the stage base class.
* :mod:`repro.pipeline.context` — per-block state.
* :mod:`repro.pipeline.stages` — the stages of the paper's pipeline.
* :mod:`repro.pipeline.pipeline` — the driver.
"""

from repro.util.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.pipeline.context": ("PipelineContext",),
        "repro.pipeline.pipeline": ("DistillationPipeline",),
        "repro.pipeline.stage": ("PipelineStage",),
    },
)
