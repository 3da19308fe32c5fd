"""Fiber spans and optical path loss budgets.

The first DARPA link runs through a "10 km Telco Fiber Spool"; future links
may traverse longer metro-area dark fiber, free-space segments and (for the
untrusted network) several MEMS switches in series.  For key-rate purposes
the only thing the rest of the system needs from any of these is a loss
budget: the probability that a photon entering one end emerges from the
other.  :class:`FiberSpan` models a single span; :class:`OpticalPath`
composes spans, connectors and switches into an end-to-end budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

from repro.util.units import db_to_fraction, fiber_loss_db


@dataclass(frozen=True)
class FiberSpan:
    """A span of standard telecom fiber characterised by its length."""

    length_km: float
    #: Extra fixed loss for splices/connectors at the ends of the span.
    connector_loss_db: float = 0.0

    def __post_init__(self) -> None:
        # NaN passes a ``< 0`` test and then fails deep in the optics draws;
        # infinity builds a span no photon survives.  Both are refused here.
        checked = (("fiber length", self.length_km), ("connector loss", self.connector_loss_db))
        for what, value in checked:
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{what} must be finite and non-negative, got {value!r}")

    @property
    def loss_db(self) -> float:
        """Total loss of the span in dB."""
        return (
            fiber_loss_db(self.length_km) + self.connector_loss_db
        )

    def __repr__(self) -> str:
        return f"FiberSpan({self.length_km} km, {self.loss_db:.2f} dB)"


@dataclass(frozen=True)
class LossElement:
    """A generic lumped loss element (coupler, switch, free-space hop)."""

    name: str
    loss_db: float

    def __post_init__(self) -> None:
        if self.loss_db < 0:
            raise ValueError("loss must be non-negative")


@dataclass
class OpticalPath:
    """An end-to-end photonic path: an ordered list of spans and loss elements.

    The untrusted-switch network of section 8 builds exactly these paths —
    fiber spans stitched together by MEMS switches, each adding "at least a
    fractional dB insertion loss" — and the end-to-end key rate is governed
    by the total budget.
    """

    spans: List[FiberSpan] = field(default_factory=list)
    elements: List[LossElement] = field(default_factory=list)

    @classmethod
    def single_span(cls, length_km: float) -> "OpticalPath":
        """Convenience constructor for a simple point-to-point fiber path."""
        return cls(spans=[FiberSpan(length_km)])

    def add_span(self, span: FiberSpan) -> "OpticalPath":
        self.spans.append(span)
        return self

    def add_element(self, element: LossElement) -> "OpticalPath":
        self.elements.append(element)
        return self

    @property
    def length_km(self) -> float:
        """Total fiber length along the path."""
        return sum(span.length_km for span in self.spans)

    @property
    def loss_db(self) -> float:
        """Total loss budget of the path in dB."""
        return sum(span.loss_db for span in self.spans) + sum(
            element.loss_db for element in self.elements
        )

    @property
    def transmittance(self) -> float:
        """End-to-end photon survival probability."""
        return db_to_fraction(self.loss_db)
