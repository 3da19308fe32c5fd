"""The fault plane: deterministic, labeled-stream fault decisions.

Chaos that cannot be replayed cannot be debugged.  Every fault this plane
injects is decided by a pure function of ``(seed, site, op_index)``: the
``n``-th operation at injection site ``site`` draws its fate from the
labeled stream ``faults/<site>/<n>`` — the same derivation discipline as
the lane runtime's ``lane/<i>`` and the KMS service's ``kms/epoch/<n>``
streams — so a failing chaos run re-runs identically from its seed alone,
independent of asyncio scheduling order between sites.

Faults happen at **stochastic rates**: each action kind has a
per-operation probability at a site, evaluated against that operation's own
labeled stream — how the chaos sweep scales aggression up and down without
losing replay.  The stream for an index is drawn whatever fires, so a test
that overrides :meth:`FaultPlane._draw` to pin "the 3rd CONSUME's reply is
dropped" never shifts the randomness of later operations.

The plane itself never touches a socket; :mod:`tests.faults.net` applies
its decisions to asyncio transports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.util.rng import DeterministicRNG
from tests.draws import bernoulli

# Action kinds ---------------------------------------------------------- #

#: Cut the connection before the frame reaches the wire.
DROP_BEFORE = "drop-before"
#: Let the frame out, then cut the connection (the reply can never arrive).
DROP_AFTER = "drop-after"
#: Deliver only a prefix of the frame, then cut.
TRUNCATE = "truncate"
#: Deliver the frame late.
DELAY = "delay"
#: Refuse the connection attempt outright.
REFUSE = "refuse"
#: Hold the frame, and every later one behind it, before it reaches the wire.
STALL = "stall"

# Injection sites ------------------------------------------------------- #

#: A client transport-open attempt (kinds: refuse, delay).
SITE_CONNECT = "connect"
#: A request frame leaving the client (kinds: drop-before, drop-after,
#: truncate, stall).
SITE_CLIENT_TX = "client/tx"
#: A reply frame arriving at the client (kinds: drop-before, truncate,
#: delay).
SITE_CLIENT_RX = "client/rx"

SITES = (SITE_CONNECT, SITE_CLIENT_TX, SITE_CLIENT_RX)

#: Which kinds may fire at which site, in the fixed order the stochastic
#: draw evaluates them (order is part of the deterministic contract: a kind
#: added to a site goes last, so a plane that leaves it at rate 0 draws what
#: it drew before).
SITE_KINDS: Dict[str, Tuple[str, ...]] = {
    SITE_CONNECT: (REFUSE, DELAY),
    SITE_CLIENT_TX: (DROP_BEFORE, DROP_AFTER, TRUNCATE, STALL),
    SITE_CLIENT_RX: (DROP_BEFORE, TRUNCATE, DELAY),
}


@dataclass(frozen=True)
class FaultAction:
    """One injected fault, fully specified."""

    kind: str
    #: Seconds to hold the operation (``delay``/``stall`` kinds).
    delay_seconds: float = 0.0
    #: Fraction of the frame delivered before the cut (``truncate``).
    keep_fraction: float = 0.5


@dataclass
class FaultPlaneStats:
    """What the plane did: operations per site and injections per kind.

    ``ops_by_site`` is also each site's operation counter: the next
    operation at a site draws from stream ``faults/<site>/<count>``.
    """

    ops_by_site: Dict[str, int] = field(default_factory=dict)
    injected_by_kind: Dict[str, int] = field(default_factory=dict)

    @property
    def injections(self) -> int:
        return sum(self.injected_by_kind.values())


class FaultPlane:
    """Deterministic fault decisions for every injection site.

    ``rng`` anchors the ``faults/<site>/<n>`` stream family (pass the
    system root so the whole experiment remains a function of one seed).
    ``rates`` maps ``site -> {kind: probability}`` for the stochastic
    sweep.
    ``delay_range``/``stall_range`` bound the drawn hold times.
    """

    def __init__(
        self,
        rng: Optional[DeterministicRNG] = None,
        rates: Optional[Mapping[str, Mapping[str, float]]] = None,
        delay_range: Tuple[float, float] = (0.01, 0.05),
        stall_range: Tuple[float, float] = (0.05, 0.25),
    ):
        self.rng = rng or DeterministicRNG(0)
        self.rates: Dict[str, Dict[str, float]] = {}
        for site, kinds in (rates or {}).items():
            if site not in SITE_KINDS:
                raise ValueError(f"unknown fault site {site!r} (sites: {SITES})")
            bad = set(kinds) - set(SITE_KINDS[site])
            if bad:
                raise ValueError(f"kinds {sorted(bad)} cannot fire at site {site!r}")
            self.rates[site] = dict(kinds)
        self.delay_range = delay_range
        self.stall_range = stall_range
        self.stats = FaultPlaneStats()

    # ------------------------------------------------------------------ #
    # The decision
    # ------------------------------------------------------------------ #

    def decide(self, site: str) -> Optional[FaultAction]:
        """The fate of the next operation at ``site`` (None = unharmed).

        Advances the site's operation counter and consumes that index's
        ``faults/<site>/<n>`` stream whether or not anything fires, so
        decisions stay index-aligned across configurations.
        """
        if site not in SITE_KINDS:
            raise ValueError(f"unknown fault site {site!r} (sites: {SITES})")
        index = self.stats.ops_by_site.get(site, 0)
        self.stats.ops_by_site[site] = index + 1

        action = self._draw(site, self.rng.fork_labeled(f"faults/{site}/{index}"))
        if action is not None:
            self.stats.injected_by_kind[action.kind] = (
                self.stats.injected_by_kind.get(action.kind, 0) + 1
            )
        return action

    def _draw(self, site: str, stream: DeterministicRNG) -> Optional[FaultAction]:
        rates = self.rates.get(site)
        hit: Optional[str] = None
        # Evaluate every kind (fixed order) even after a hit, so the
        # stream's consumption per index is constant and a rate change for
        # one kind cannot re-randomise another's draws.
        for kind in SITE_KINDS[site]:
            fired = bernoulli(stream, (rates or {}).get(kind, 0.0))
            if fired and hit is None:
                hit = kind
        if hit is None:
            return None
        if hit in (DELAY, STALL):
            low, high = self.stall_range if hit == STALL else self.delay_range
            return FaultAction(hit, delay_seconds=stream.uniform(low, high))
        if hit == TRUNCATE:
            return FaultAction(hit, keep_fraction=stream.uniform(0.1, 0.9))
        return FaultAction(hit)

    def __repr__(self) -> str:
        ops = sum(self.stats.ops_by_site.values())
        return f"FaultPlane({ops} ops, {self.stats.injections} injected)"


__all__ = [
    "DELAY",
    "DROP_AFTER",
    "DROP_BEFORE",
    "FaultAction",
    "FaultPlane",
    "FaultPlaneStats",
    "REFUSE",
    "SITE_CLIENT_RX",
    "SITE_CLIENT_TX",
    "SITE_CONNECT",
    "SITE_KINDS",
    "SITES",
    "STALL",
    "TRUNCATE",
]
