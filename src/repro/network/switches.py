"""Untrusted all-optical switch networks (paper section 8).

"Untrusted QKD switches do not participate in QKD protocols at all.  Instead
they set up all-optical paths through the network mesh of fibers, switches,
and endpoints.  Thus a photon from its source QKD endpoint proceeds, without
measurement, from switch to switch across the optical QKD network until it
reaches the destination endpoint at which point it is detected."

The consequence the paper highlights: end-to-end key distribution with no
trusted intermediaries, but "each switch adds at least a fractional dB
insertion loss along the photonic path", so switches *reduce* reach instead
of extending it.  :class:`UntrustedSwitchNetwork` composes switched optical
paths across the topology graph, computes their loss budgets, and evaluates
the end-to-end QKD link that would run over each path — which is exactly what
experiment E9 sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.link.qkd_link import LinkParameters, QKDLink
from repro.network.routing import PathSelector
from repro.network.topology import NodeKind, QKDNetwork
from repro.optics.channel import ChannelParameters
from repro.optics.fiber import FiberSpan, LossElement, OpticalPath
from repro.util.rng import DeterministicRNG
from repro.util.units import DEFAULT_SWITCH_INSERTION_LOSS_DB


@dataclass
class SwitchedPathReport:
    """The photonic budget and key rate of one end-to-end switched path."""

    path: List[str]
    n_switches: int
    fiber_length_km: float
    total_loss_db: float
    expected_qber: float
    secret_key_rate_bps: float

    @property
    def viable(self) -> bool:
        """Whether the path can distill any key at all."""
        return self.secret_key_rate_bps > 0.0


class UntrustedSwitchNetwork:
    """End-to-end QKD over all-optical paths through MEMS-style switches."""

    def __init__(
        self,
        network: QKDNetwork,
        switch_insertion_loss_db: float = DEFAULT_SWITCH_INSERTION_LOSS_DB,
        rng: Optional[DeterministicRNG] = None,
    ):
        if switch_insertion_loss_db < 0:
            raise ValueError("insertion loss must be non-negative")
        self.network = network
        self.switch_insertion_loss_db = switch_insertion_loss_db
        self.rng = rng or DeterministicRNG(0)
        self.selector = PathSelector(network, metric="length")

    # ------------------------------------------------------------------ #

    def optical_path_for(self, node_path: List[str]) -> OpticalPath:
        """Build the composite optical path for a node sequence.

        Every fiber segment contributes its length; every intermediate node
        that is a switch contributes its insertion loss.  (A trusted relay on
        the path would terminate the photon — that is a configuration error
        for an untrusted path, and is rejected.)
        """
        path = OpticalPath()
        for node_a, node_b in zip(node_path, node_path[1:]):
            edge = self.network.link(node_a, node_b)
            path.add_span(FiberSpan(edge.length_km))
        for name in node_path[1:-1]:
            node = self.network.node(name)
            if node.kind is NodeKind.TRUSTED_RELAY:
                raise ValueError(
                    f"node {name!r} is a trusted relay; an untrusted all-optical "
                    "path cannot pass through it without terminating the photons"
                )
            path.add_element(
                LossElement(name=f"switch:{name}", loss_db=self.switch_insertion_loss_db)
            )
        return path

    def evaluate_path(self, node_path: List[str]) -> SwitchedPathReport:
        """Loss budget, QBER and key rate for a specific node sequence."""
        optical = self.optical_path_for(node_path)
        link = QKDLink(
            LinkParameters(channel=ChannelParameters(path=optical)),
            DeterministicRNG(0),
        )
        n_switches = sum(
            1
            for name in node_path[1:-1]
            if self.network.node(name).kind is NodeKind.UNTRUSTED_SWITCH
        )
        return SwitchedPathReport(
            path=list(node_path),
            n_switches=n_switches,
            fiber_length_km=optical.length_km,
            total_loss_db=optical.loss_db,
            expected_qber=link.expected_qber(),
            secret_key_rate_bps=link.estimated_secret_key_rate(),
        )

    # ------------------------------------------------------------------ #

    @staticmethod
    def chain(
        n_switches: int,
        span_length_km: float,
        switch_insertion_loss_db: float = DEFAULT_SWITCH_INSERTION_LOSS_DB,
    ) -> SwitchedPathReport:
        """Evaluate a linear chain: endpoint - switch - ... - switch - endpoint.

        The parametric form used by benchmark E9: ``n_switches`` switches
        joining ``n_switches + 1`` equal fiber spans.
        """
        network = QKDNetwork()
        network.add_endpoint("source")
        previous = "source"
        for index in range(n_switches):
            name = f"switch-{index}"
            network.add_switch(name)
            network.add_link(previous, name, span_length_km)
            previous = name
        network.add_endpoint("destination")
        network.add_link(previous, "destination", span_length_km)
        switched = UntrustedSwitchNetwork(network, switch_insertion_loss_db)
        node_path = ["source"] + [f"switch-{i}" for i in range(n_switches)] + ["destination"]
        return switched.evaluate_path(node_path)
