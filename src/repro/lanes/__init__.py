"""The lane engine: a fleet of links carried to pooled key one lane at a time.

See :mod:`repro.lanes.engine` for the execution model; a single
:meth:`repro.link.qkd_link.QKDLink.run_slots` is one lane of it.
"""

from repro.util.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.lanes.engine": ("LaneEngine",),
    },
)
