"""Vectorized multi-link lane engine: a mesh's epochs as one batch program.

See :mod:`repro.lanes.engine` for the execution model; a single
:meth:`repro.link.qkd_link.QKDLink.run_slots` is its width-1 case.
"""

from repro.lanes.engine import LaneCompatibilityError, LaneEngine

__all__ = ["LaneCompatibilityError", "LaneEngine"]
