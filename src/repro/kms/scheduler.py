"""Replenishment scheduling: which links distill next, and with what budget.

The network side of the paper's race: each mesh link continuously distills
*pairwise* key that the relay layer then spends transporting end-to-end keys
into the per-peer-pair stores.  The scheduler watches two levels —

* every link's pairwise pad (the transport currency), and
* every store's end-to-end reservoir (the consumer-facing level),

and each epoch dispatches distillation across the needy links, prioritised
by how fast their customers are draining them.

Determinism contract (the property the soak test pins): one epoch's output
is **bit-identical for any worker count**.  Every link's epoch is seeded by
a labeled fork — ``kms/epoch/<epoch-index>/<node-a>--<node-b>`` — so its
output is a pure function of ``(link parameters, label, budget)``, and links
are committed in sorted-link order.  Only Monte-Carlo epochs fan out (across
the :class:`~repro.runtime.farm.LinkFarm`'s threads, which return runs in
submission order); analytic epochs generate each link's pad material inline,
because a pool loses to a plain loop at every fleet size measured (12–400
links; see CHANGES.md).

Two fidelity modes:

``"analytic"`` (default)
    Each dispatched link banks ``secret-key-rate x epoch-seconds`` bits of
    pad material drawn from its labeled stream — the steady-state behaviour
    of the link's protocol engine without Monte-Carlo cost, matching
    :meth:`repro.network.relay.TrustedRelayNetwork.run_links_for`.  Attacks
    are applied through the analytic QBER model: an attack pushing the
    expected QBER over the detection threshold yields nothing and flags the
    link as eavesdropped; a quieter attack degrades the secret fraction,
    computed by the link's closed-form model
    (:func:`repro.optics.model.secret_fraction`) at the elevated QBER.  This
    mode loads no link or photon code.

``"montecarlo"``
    Each dispatched link runs a real :class:`~repro.link.qkd_link.QKDLink`
    epoch (``slots_per_epoch`` trigger slots) through the
    :class:`~repro.runtime.farm.LinkFarm`, one link per thread task (inline
    at ``workers=1``), attacks interposed on the
    photonic path, and banks whatever the protocol stack actually distills.
    Detection comes from the engine's own measured QBER / aborted blocks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from numbers import Integral
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.kms.indexing import DEFER, DROP, EMIT, LazyPriorityHeap
from repro.util.rng import DeterministicRNG

if TYPE_CHECKING:  # imported lazily at runtime: a config or a key server loads no link code
    from repro.network.relay import TrustedRelayNetwork
    from repro.network.topology import QKDLinkEdge

#: Fidelity modes the scheduler can dispatch epochs in.
MODES = ("analytic", "montecarlo")
#: Mean measured/expected QBER above which a link is declared eavesdropped
#: and handed to the routing layer to avoid.
DETECTION_QBER = 0.12
#: Minimum sifted-bit sample a Monte-Carlo epoch must carry before its
#: measured QBER may trigger detection.  Tiny epochs (tens of sifted bits)
#: have enough sampling noise that a clean link would eventually cross the
#: threshold by chance and be quarantined forever; an attack strong enough
#: to matter pushes the QBER far above threshold on any reasonable sample.
DETECTION_MIN_SIFTED_BITS = 256


@dataclass
class ReplenishmentConfig:
    """Tuning of the replenishment loop."""

    #: Simulated seconds between scheduler ticks (one tick = one epoch).
    epoch_seconds: float = 60.0
    #: Fidelity mode, one of :data:`MODES`.
    mode: str = "analytic"
    #: Monte-Carlo budget per dispatched link per epoch.
    slots_per_epoch: int = 250_000
    #: Monte-Carlo dispatch only: threads of the :class:`LinkFarm` the
    #: epoch's links run on, one link per task (None = one per CPU).  At
    #: ``workers=1`` the epoch's links run in this thread, one lane at a
    #: time.  Analytic epochs generate their pad material inline whatever
    #: this says.
    workers: Optional[int] = None
    #: Pairwise pads below this are always dispatched this epoch.
    pad_low_water_bits: int = 4_096
    #: Dispatch tops pads up toward this level (analytic mode caps the
    #: banked material so pads do not grow without bound).
    pad_target_bits: int = 65_536
    #: Cap on links dispatched per epoch (None = every needy link, else a
    #: positive count); the neediest links win, so a tight cap models a
    #: shared distillation budget under contention.
    max_links_per_epoch: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        epoch = self.epoch_seconds
        if not (math.isfinite(epoch) and epoch > 0):
            raise ValueError(f"epoch_seconds must be finite and positive, got {epoch!r}")
        slots = self.slots_per_epoch
        if isinstance(slots, bool) or not isinstance(slots, Integral) or slots < 1:
            raise ValueError(f"slots_per_epoch must be a positive integer, got {slots!r}")
        cap = self.max_links_per_epoch
        if cap is not None and (isinstance(cap, bool) or not isinstance(cap, int) or cap < 1):
            raise ValueError(f"max_links_per_epoch must be None or a positive integer, got {cap!r}")
        from repro.runtime.farm import resolve_workers

        resolve_workers(self.workers)


@dataclass
class EpochReport:
    """What one replenishment epoch did."""

    epoch_index: int
    dispatched: List[Tuple[str, str]] = field(default_factory=list)
    skipped_unusable: List[Tuple[str, str]] = field(default_factory=list)
    #: Pad bits banked per dispatched link.
    banked_bits: Dict[Tuple[str, str], int] = field(default_factory=dict)
    #: Links whose epoch crossed the detection threshold this time.
    newly_eavesdropped: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def total_banked_bits(self) -> int:
        return sum(self.banked_bits.values())


class ReplenishmentScheduler:
    """Decides, each epoch, which links distill and banks what they produce."""

    def __init__(
        self,
        relays: TrustedRelayNetwork,
        rng: DeterministicRNG,
        config: Optional[ReplenishmentConfig] = None,
        links: Optional[Iterable[Tuple[str, str]]] = None,
    ):
        from repro.runtime.farm import LinkFarm

        self.relays = relays
        self.config = config or ReplenishmentConfig()
        #: Labeled epoch seeds derive from this seed only.
        self._seed_rng = rng
        self.epoch_index = 0
        self.reports: List[EpochReport] = []
        #: Attacks currently interposed per link (sorted node pair -> attack).
        self.attacks: Dict[Tuple[str, str], object] = {}
        #: Per-link demand pressure hints fed back by the service: links on
        #: the path of a starving store get their priority boosted.
        self.pressure: Dict[Tuple[str, str], float] = {}
        self._farm = LinkFarm(workers=self.config.workers)
        #: Wall-clock seconds spent ordering/selecting links (part of the
        #: scheduler overhead E21's ``kms.sched_overhead_s`` reports; excludes
        #: the dispatch fan-out).
        self.selection_seconds = 0.0
        #: The links this scheduler manages, sorted pair -> edge.  ``links``
        #: restricts the scheduler to a subset of the mesh (one zone, or the
        #: trunks); ``None`` manages every link.
        self._edges: Dict[Tuple[str, str], QKDLinkEdge] = {}
        managed = None if links is None else {self._key(a, b) for a, b in links}
        for edge in relays.network.links():
            key = self._key(edge.node_a, edge.node_b)
            if managed is None or key in managed:
                self._edges[key] = edge
        if managed is not None and len(self._edges) != len(managed):
            missing = sorted(managed - set(self._edges))
            raise KeyError(f"managed links not present in the mesh: {missing}")
        #: Lazy-deletion priority index over the managed links that still
        #: want pad (see :mod:`repro.kms.indexing`); kept exact by the
        #: relay layer's pad-change notifications and the pressure hooks.
        self._heap = LazyPriorityHeap()
        for key in sorted(self._edges):
            self._heap.push(key, self._classify_link)
        # A weak subscription: the relay network outlives its schedulers.
        relays.add_pad_listener(self._on_pad_change)

    # ------------------------------------------------------------------ #
    # Attack / pressure feedback
    # ------------------------------------------------------------------ #

    @staticmethod
    def _key(node_a: str, node_b: str) -> Tuple[str, str]:
        return tuple(sorted((node_a, node_b)))

    def _require_managed(self, node_a: str, node_b: str) -> Tuple[str, str]:
        """The sorted pair, or ``KeyError`` naming the pair and the known set.

        A typo'd node name would otherwise sit in the attack/pressure maps
        forever, never matching any dispatched epoch, and the feedback would
        silently not happen.
        """
        key = self._key(node_a, node_b)
        if key not in self._edges:
            known = ", ".join(f"{a}--{b}" for a, b in sorted(self._edges))
            raise KeyError(
                f"unknown link {key[0]!r}--{key[1]!r}; "
                f"{len(self._edges)} known link(s): {known}"
            )
        return key

    def attach_attack(self, node_a: str, node_b: str, attack: object) -> None:
        """Interpose an eavesdropper on a link's photonic path."""
        self.attacks[self._require_managed(node_a, node_b)] = attack

    def detach_attack(self, node_a: str, node_b: str) -> None:
        self.attacks.pop(self._require_managed(node_a, node_b), None)

    def note_pressure(self, node_a: str, node_b: str) -> None:
        """Record that one more starving consumer depends on this link."""
        key = self._require_managed(node_a, node_b)
        self.pressure[key] = self.pressure.get(key, 0.0) + 1.0
        # Pressure raises urgency, so the index must learn of it eagerly.
        self._heap.push(key, self._classify_link)

    # ------------------------------------------------------------------ #
    # Epoch dispatch
    # ------------------------------------------------------------------ #

    def _pad_bits(self, edge: QKDLinkEdge) -> int:
        return self.relays.pad_for(edge.node_a, edge.node_b).available_bytes * 8

    def _priority(self, edge: QKDLinkEdge) -> float:
        """Depletion-driven urgency of refilling one link's pairwise pad."""
        target = max(self.config.pad_target_bits, 1)
        deficit = max(target - self._pad_bits(edge), 0) / target
        return deficit + self.pressure.get(self._key(edge.node_a, edge.node_b), 0.0)

    def _classify_link(self, key: Tuple[str, str]):
        """Heap classifier: drop pads at target, defer unusable links.

        The sort key reproduces the historical full-sort order exactly:
        needy links (below low water) outrank the rest, then
        ``(-priority, pair)``.
        """
        edge = self._edges[key]
        pad = self._pad_bits(edge)
        if pad >= self.config.pad_target_bits:
            return (DROP, None)
        rank = 0 if pad < self.config.pad_low_water_bits else 1
        sort_key = (rank, -self._priority(edge), key)
        if not edge.usable:
            return (DEFER, sort_key)
        return (EMIT, sort_key)

    def _on_pad_change(self, key: Tuple[str, str]) -> None:
        """Relay-layer hook: one link's pad level changed; re-index it."""
        if key in self._edges:
            self._heap.push(key, self._classify_link)

    def select_links(self) -> List[QKDLinkEdge]:
        """The links to dispatch this epoch, neediest first.

        Ordering is by ``(needy-first, -priority, link name)`` — identical
        to sorting every candidate, but produced by draining the lazy heap,
        so the cost is proportional to the links that actually want pad,
        not to the mesh size.  The name tiebreak keeps the selection (and
        therefore the commit order) independent of dict and graph iteration
        quirks.
        """
        started = time.perf_counter()
        keys = self._heap.drain(self._classify_link, self.config.max_links_per_epoch)
        self.selection_seconds += time.perf_counter() - started
        return [self._edges[key] for key in keys]

    def run_epoch(self) -> EpochReport:
        """Dispatch one distillation epoch and bank its output.

        Links are dispatched and committed in the sorted-link order
        produced by :meth:`select_links`; the Monte-Carlo farm in between is
        the only parallel part and is scheduling-invariant by construction.
        """
        report = EpochReport(epoch_index=self.epoch_index)
        for key in self.relays.network.unusable_link_keys():
            if key in self._edges:
                report.skipped_unusable.append(key)
        selected = self.select_links()
        if self.config.mode == "montecarlo":
            self._run_montecarlo(selected, report)
        else:
            self._run_analytic(selected, report)
        started = time.perf_counter()
        pressured = list(self.pressure)
        self.pressure.clear()
        # Dispatched links that still want pad, and links whose pressure
        # boost just expired, both need re-indexing at their new priorities.
        dispatched = set(report.dispatched)
        for key in report.dispatched:
            self._heap.push(key, self._classify_link)
        for key in pressured:
            if key not in dispatched:
                self._heap.push(key, self._classify_link)
        self.selection_seconds += time.perf_counter() - started
        self.epoch_index += 1
        self.reports.append(report)
        return report

    # ---- Monte-Carlo mode -------------------------------------------- #

    def _run_montecarlo(self, selected: List[QKDLinkEdge], report: EpochReport) -> None:
        from repro.link.qkd_link import LinkParameters
        from repro.runtime.farm import LinkJob

        jobs: List[LinkJob] = []
        for edge in selected:
            key = self._key(edge.node_a, edge.node_b)
            label = f"kms/epoch/{self.epoch_index}/{key[0]}--{key[1]}"
            jobs.append(
                LinkJob(
                    name=label,
                    parameters=LinkParameters.for_distance(edge.length_km),
                    seed=self._seed_rng.fork_labeled(label).seed,
                    n_slots=self.config.slots_per_epoch,
                    attack=self.attacks.get(key),
                )
            )
        runs = self._farm.run(jobs)
        for edge, run in zip(selected, runs):
            key = self._key(edge.node_a, edge.node_b)
            report.dispatched.append(key)
            detected = run.report.sifted_bits >= DETECTION_MIN_SIFTED_BITS and (
                run.report.mean_qber > DETECTION_QBER
                or (run.report.blocks_aborted > 0 and run.report.blocks_distilled == 0)
            )
            if detected:
                self.relays.network.mark_eavesdropped(*key)
                report.newly_eavesdropped.append(key)
                report.banked_bits[key] = 0
                continue
            whole_bytes_bits = (run.alice_pool.available_bits // 8) * 8
            material = run.alice_pool.draw_bits(whole_bytes_bits).to_bytes()
            self.relays.bank_pad(key[0], key[1], material)
            report.banked_bits[key] = len(material) * 8

    # ---- Analytic mode ------------------------------------------------ #

    def _analytic_yield_bits(self, edge: QKDLinkEdge, attack: object) -> Tuple[int, bool]:
        """(bits banked this epoch, eavesdropping detected) for one link."""
        from repro.optics import model

        channel = model.ChannelParameters.for_distance(edge.length_km)
        intrinsic = model.expected_qber(channel)
        induced = intrinsic
        if attack is not None:
            fraction = float(getattr(attack, "intercept_fraction", 1.0))
            induced = min(intrinsic + 0.25 * fraction, 0.5)
        if induced > DETECTION_QBER:
            return 0, attack is not None
        if attack is None:
            rate = edge.secret_key_rate_bps
        else:
            # The link's analytic model at the attack-elevated QBER: the
            # engine still distills, but Cascade and the defense function
            # eat more of every sifted bit.
            mu = channel.effective_mean_photon_number
            rate = model.sifted_rate_per_second(channel) * model.secret_fraction(induced, mu)
        room = max(self.config.pad_target_bits - self._pad_bits(edge), 0)
        return min(int(rate * self.config.epoch_seconds), room), False

    def _run_analytic(self, selected: List[QKDLinkEdge], report: EpochReport) -> None:
        from repro.network.relay import pad_material_from_seed

        for edge in selected:
            key = self._key(edge.node_a, edge.node_b)
            bits, detected = self._analytic_yield_bits(edge, self.attacks.get(key))
            report.dispatched.append(key)
            if detected:
                self.relays.network.mark_eavesdropped(*key)
                report.newly_eavesdropped.append(key)
                report.banked_bits[key] = 0
                continue
            label = f"kms/epoch/{self.epoch_index}/{key[0]}--{key[1]}"
            seed = self._seed_rng.fork_labeled(label).seed
            material = pad_material_from_seed((seed, bits // 8))
            self.relays.bank_pad(key[0], key[1], material)
            report.banked_bits[key] = len(material) * 8
