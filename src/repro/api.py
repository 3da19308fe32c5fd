"""Top-level facade: assemble whole QKD systems from one config object.

The library's subsystems — the photonic layer (:mod:`repro.optics`), the
distillation pipeline (:mod:`repro.pipeline` driving :mod:`repro.core`), the
point-to-point link (:mod:`repro.link`), the QKD-keyed VPN gateways
(:mod:`repro.ipsec`) and the relay networks (:mod:`repro.network`) — each
expose their own constructors.  :class:`QKDSystem` composes them behind three
fluent entry points:

    >>> from repro import QKDSystem
    >>> link = QKDSystem(seed=2003).link()              # a QKDLink
    >>> report = link.run_seconds(2.0)

    >>> vpn = QKDSystem(seed=42).vpn()                  # link + gateways
    >>> vpn.secure_tunnel("enclave", "10.1.0.0/16", "10.2.0.0/16")
    >>> delivered = vpn.send("10.1.0.9", "10.2.0.7", b"hello")

    >>> mesh = QKDSystem(seed=7).mesh(n_relays=4)       # relay network
    >>> result = mesh.relays.transport_key("endpoint-0", "endpoint-1")
    >>> soak = mesh.kms().serve(hours=1.0)              # continuous operation

Every knob lives in one :class:`SystemConfig`, the link's in its
:class:`~repro.link.LinkParameters`; builders accept keyword overrides:

    >>> far = LinkParameters(
    ...     channel=ChannelParameters.for_distance(20.0),
    ...     engine=EngineParameters(defense="slutsky"),
    ... )
    >>> slutsky = QKDSystem(seed=1, link=far)

Determinism: a system built from the same config always produces the same
keys — ``QKDSystem(seed=s).link()`` is bit-for-bit the legacy
``QKDLink(LinkParameters.paper_link(), rng=DeterministicRNG(s))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:  # imported lazily at runtime to keep the facade light
    from repro.ipsec.gateway import GatewayPair
    from repro.kms.zones import ZonePlan
    from repro.lanes import LaneEngine
    from repro.link.qkd_link import LinkParameters, LinkReport, QKDLink
    from repro.network.relay import TrustedRelayNetwork
    from repro.sim.clock import SimClock

from repro.kms.service import KeyManagementService, KmsConfig
from repro.kms.workload import TrafficWorkload, WorkloadProfile
from repro.ipsec.packets import IPPacket
from repro.ipsec.spd import CipherSuite, SecurityPolicy
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG

#: Extra key bits credited to both VPN pools at build time, modelling the
#: reservoir a long-running link has already accumulated (the paper's link
#: distills ~100 bits/s, so waiting for real Monte-Carlo key at every VPN
#: bring-up would dominate run time).
PREFILL_KEY_BITS = 8192
#: The prefix of every link and lane name a :class:`QKDSystem` builds (a
#: lane's name also labels its seed fork, so it is part of the key material).
SYSTEM_NAME = "qkd"
#: Fiber length of every link in a ``QKDSystem.mesh``.
MESH_LINK_KM = 10.0


@dataclass
class SystemConfig:
    """One config object covering every layer a :class:`QKDSystem` composes."""

    #: Root seed; every component's RNG stream derives from it.
    seed: int = 0

    # ---- link ----------------------------------------------------------- #
    #: Channel, distillation engine and batch size of every link the system
    #: builds; ``None`` is the paper's link (:meth:`LinkParameters.paper_link`),
    #: left unbuilt so that a mesh loads no link or engine module.
    link: Optional[LinkParameters] = None

    # ---- VPN assembly -------------------------------------------------- #
    #: Channel-seconds of key distilled before the gateways come up.
    distill_seconds: float = 3.0

    # ---- mesh assembly ------------------------------------------------- #
    n_endpoints: int = 3
    n_relays: int = 4
    #: Seconds of pairwise-key prefill every mesh link gets at build time.
    prefill_seconds: float = 60.0


class QKDSystem:
    """Fluent builder composing optics, engine, pools, gateways and relays."""

    def __init__(self, config: Optional[SystemConfig] = None, **overrides):
        base = config or SystemConfig()
        self.config = replace(base, **overrides) if overrides else base

    # ------------------------------------------------------------------ #
    # Terminal builders
    # ------------------------------------------------------------------ #

    def link(self, name: Optional[str] = None, **overrides) -> QKDLink:
        """A point-to-point QKD link: channel + engine + both key pools."""
        from repro.link.qkd_link import QKDLink

        config = replace(self.config, **overrides) if overrides else self.config
        return QKDLink(
            config.link,
            rng=DeterministicRNG(config.seed),
            name=name or f"{SYSTEM_NAME}-link",
        )

    def vpn(self, **overrides) -> "VPNSystem":
        """A complete QKD-keyed VPN: link distilling into two gateways.

        The link runs for ``distill_seconds`` of channel time so the gateways
        have key from the moment they come up; ``link.run_seconds`` on the
        result models a continuously running link.
        """
        from repro.ipsec.gateway import GatewayPair
        from repro.sim.clock import SimClock

        config = replace(self.config, **overrides) if overrides else self.config
        seconds = config.distill_seconds
        if not (math.isfinite(seconds) and seconds >= 0):
            raise ValueError(f"distill_seconds must be finite and non-negative, got {seconds!r}")
        link = QKDSystem(config).link(name=f"{SYSTEM_NAME}-vpn-link")
        initial_report = link.run_seconds(seconds) if seconds > 0 else None
        assembly_rng = DeterministicRNG(config.seed).fork("vpn-assembly")
        # One persistent RNG feeds every reservoir credit (prefill and later
        # top_up calls), so repeated draws never repeat key material.
        reservoir_rng = assembly_rng.fork("reservoir")
        # Both ends of a real link hold identical reservoirs; credit the
        # same (independently copied) bits to each pool.
        prefill = BitString.random(PREFILL_KEY_BITS, reservoir_rng)
        link.engine.alice_pool.add_bits(prefill)
        link.engine.bob_pool.add_bits(prefill.copy())
        clock = SimClock()
        gateways = GatewayPair.from_engine(
            link.engine,
            clock=clock,
            rng=assembly_rng.fork("gateways"),
        )
        return VPNSystem(
            config=config,
            link=link,
            gateways=gateways,
            clock=clock,
            initial_report=initial_report,
            reservoir_rng=reservoir_rng,
        )

    def mesh(self, **overrides) -> "MeshSystem":
        """A trusted-relay key-transport mesh with prefilled pairwise pools."""
        from repro.network.relay import TrustedRelayNetwork

        config = replace(self.config, **overrides) if overrides else self.config
        relays = TrustedRelayNetwork.for_mesh(
            n_endpoints=config.n_endpoints,
            n_relays=config.n_relays,
            link_length_km=MESH_LINK_KM,
            rng=DeterministicRNG(config.seed),
            prefill_seconds=config.prefill_seconds,
        )
        return MeshSystem(config=config, relays=relays)

    def metro(
        self,
        n_zones: int = 4,
        endpoints_per_zone: int = 4,
        relays_per_zone: int = 3,
        **overrides,
    ) -> "MeshSystem":
        """A metro-area mesh of zones, pre-wired for zoned key management.

        Builds :func:`repro.kms.build_metro_mesh` from the system seed —
        ``n_zones`` relay rings with endpoints hanging off them, gateways
        joined by trunk links — and returns a :class:`MeshSystem` whose
        :meth:`~MeshSystem.kms` defaults to the mesh's
        :class:`~repro.kms.zones.ZonePlan`, so::

            QKDSystem(seed=7).metro(n_zones=4).kms().serve(hours=2.0)

        runs the zoned runtime with no further wiring.  A ``KmsConfig`` that
        names a plan of its own (``.with_zones(plan)``) overrides it.
        """
        from repro.kms.zones import build_metro_mesh

        config = replace(self.config, **overrides) if overrides else self.config
        relays, plan = build_metro_mesh(
            n_zones=n_zones,
            endpoints_per_zone=endpoints_per_zone,
            relays_per_zone=relays_per_zone,
            rng=DeterministicRNG(config.seed),
            prefill_seconds=config.prefill_seconds,
        )
        return MeshSystem(config=config, relays=relays, zone_plan=plan)

    def lanes(self, n_lanes: int, **overrides) -> LaneEngine:
        """A fleet of ``n_lanes`` identical links run in one process.

        Each lane is a full :meth:`link` with its own independent labeled
        stream (``fork_labeled(f"lane/qkd-lane/<index>")`` of the system seed),
        carried one lane at a time by the :class:`repro.lanes.LaneEngine` — call
        ``run_slots`` on the result.  Every lane's key material is
        bit-identical to the same link run alone.
        """
        from repro.lanes import LaneEngine

        config = replace(self.config, **overrides) if overrides else self.config
        return LaneEngine.for_fleet(
            n_lanes,
            parameters=config.link,
            rng=DeterministicRNG(config.seed),
            name_prefix=f"{SYSTEM_NAME}-lane",
        )

    def __repr__(self) -> str:
        return f"QKDSystem(seed={self.config.seed}, name={SYSTEM_NAME!r})"


@dataclass
class VPNSystem:
    """A QKD link feeding a pair of IPsec gateways — the paper's Fig 2."""

    config: SystemConfig
    link: QKDLink
    gateways: GatewayPair
    clock: SimClock
    initial_report: Optional[LinkReport] = None
    #: Persistent stream for reservoir credits; successive draws from it
    #: never repeat, so top_up can never hand out the same pad twice.
    reservoir_rng: DeterministicRNG = field(default_factory=lambda: DeterministicRNG(0))
    _established: bool = field(default=False, repr=False)

    # ------------------------------------------------------------------ #

    def top_up(self, key_bits: int) -> None:
        """Credit both pools with reservoir key (see ``PREFILL_KEY_BITS``).

        Draws from the system's persistent reservoir stream, so repeated
        calls always add fresh, non-repeating key material.
        """
        extra = BitString.random(key_bits, self.reservoir_rng)
        self.link.engine.alice_pool.add_bits(extra)
        self.link.engine.bob_pool.add_bits(extra.copy())

    def secure_tunnel(
        self,
        name: str,
        source_network: str,
        destination_network: str,
        cipher_suite: CipherSuite = CipherSuite.AES_QKD_RESEED,
        **policy_kwargs,
    ) -> SecurityPolicy:
        """Install a symmetric protect policy and bring the tunnel up;
        ``policy_kwargs`` set the other :class:`SecurityPolicy` fields."""
        policy = SecurityPolicy(
            name=name,
            source_network=source_network,
            destination_network=destination_network,
            cipher_suite=cipher_suite,
            **policy_kwargs,
        )
        self.gateways.add_symmetric_policy(policy)
        if not self._established:
            self.gateways.establish()
            self._established = True
        return policy

    def send(
        self,
        source: str,
        destination: str,
        payload: bytes,
        from_alice: bool = True,
    ) -> Optional[IPPacket]:
        """Push one packet through the tunnel; returns what the far side got."""
        packet = IPPacket(source=source, destination=destination, payload=payload)
        return self.gateways.transmit(packet, from_alice=from_alice)

    def advance_time(self, seconds: float) -> None:
        """Advance the gateways' clock (drives SA lifetime rollover)."""
        self.clock.advance(seconds)

    def __repr__(self) -> str:
        return (
            f"VPNSystem({self.link.name}, key={self.link.engine.alice_pool.available_bits} bits, "
            f"sent={self.gateways.alice.statistics.packets_sent})"
        )


@dataclass
class MeshSystem:
    """A trusted-relay mesh delivering end-to-end key (the paper's section 8)."""

    config: SystemConfig
    relays: TrustedRelayNetwork
    #: The metro zone plan this mesh was built with (``QKDSystem.metro``);
    #: ``kms()`` adopts it whenever the config does not name zones itself.
    zone_plan: Optional["ZonePlan"] = None

    def endpoints(self) -> Tuple[str, ...]:
        if self.zone_plan is not None:
            # Metro meshes name endpoints per zone (z00-endpoint-0, ...).
            return tuple(sorted(self.relays.network.endpoints()))
        return tuple(
            f"endpoint-{i}" for i in range(self.config.n_endpoints)
        )

    # ------------------------------------------------------------------ #
    # Continuous operation (repro.kms)
    # ------------------------------------------------------------------ #

    def kms(self, config: Optional[KmsConfig] = None) -> KeyManagementService:
        """A key-management runtime over this mesh (see :mod:`repro.kms`).

        Config-first: every operating decision — zoning, custody, the
        demand model, replenishment fidelity — lives on the
        :class:`~repro.kms.KmsConfig` and its ``with_*`` builders::

            metro = QKDSystem(seed=7).metro(n_zones=4)
            metro.kms(
                KmsConfig()
                .with_zones(metro.zone_plan)
                .with_workload(AggregateProfile.storm(tunnels=1_000_000))
            )

        The service is built but not yet running — arm failures and attacks
        (:meth:`KeyManagementService.schedule_link_cut`,
        :meth:`~repro.kms.service.KeyManagementService.schedule_attack`)
        and then call :meth:`KeyManagementService.serve`.  The service's RNG
        derives from the system seed by label, so a given
        ``(SystemConfig, KmsConfig)`` always replays the same run.

        A mesh built by :meth:`QKDSystem.metro` carries its zone plan; the
        config adopts it automatically unless it names a plan itself.
        """
        rng = DeterministicRNG(self.config.seed).fork_labeled("kms")
        workload = None
        if config is None or config.workload is None:
            # Historical default stream: the facade's default workload forks
            # the "workload" label (the service's own fallback would fork
            # "workload-root" and yield a different schedule).
            workload = TrafficWorkload(
                WorkloadProfile.poisson(), rng.fork_labeled("workload")
            )
        if self.zone_plan is not None and (config is None or config.zones is None):
            config = (config or KmsConfig()).with_zones(self.zone_plan)
        return KeyManagementService(
            self.relays, config=config, workload=workload, rng=rng
        )

    def __repr__(self) -> str:
        return (
            f"MeshSystem({self.relays.network!r}, "
            f"transports={len(self.relays.transports)})"
        )
