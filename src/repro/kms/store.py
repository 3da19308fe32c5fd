"""Per-peer-pair key stores with reservation / consume / expire semantics.

The paper's continuously operating network treats distilled key as a metered
resource: every consumer (an IKE daemon rekeying its SAs, a one-time-pad
encryptor) draws against a *store* of end-to-end key shared with exactly one
peer, and the rate at which the network can refill that store against the
rate at which consumers drain it is the system's defining race.

A :class:`KeyStore` layers three things over a pair of synchronised
:class:`~repro.core.keypool.KeyPool` reservoirs (one per endpoint of the
peer pair, holding identical material exactly as a real QKD link delivers
it to both ends):

* **Reservations** — a consumer first reserves the bits a rekey will need,
  then performs the draw inside :meth:`KeyStore.consuming`.  Bits under an
  active reservation are invisible to other consumers, and the store's
  pools refuse any draw that would invade someone else's reservation, so a
  negotiation that has been promised key can never lose it to a concurrent
  consumer between reserve and consume.  The grant ``consuming`` opens is
  an integer on each :class:`StorePool`, spent by that pool's own draws; a
  consumer that wants the reserved bits and nothing else (a served key, a
  trunk draw) calls :meth:`KeyStore.draw`, which is ``consuming`` plus the
  two lock-step draws.  A store only spends or releases reservations it
  granted and still holds — another store's is refused, whatever its id.
* **Expiry** — key older than ``max_key_age_seconds`` is dropped from both
  pools in lock-step (block-granular, head-first), modelling a bounded
  compromise window for material sitting in relay-adjacent storage.
* **Depletion accounting** — an exponentially weighted draw-rate estimate
  and a low-water mark, which is what the replenishment scheduler uses to
  prioritise which stores get the next distillation epoch.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.keypool import KeyBlock, KeyPool, KeyPoolExhaustedError
from repro.util.bits import BitString


class ReservationError(Exception):
    """Raised when a reservation cannot be created or used."""


class KeyStoreExhaustedError(ReservationError):
    """Raised when a store cannot cover a reservation request."""


class ConservationError(RuntimeError):
    """An owner of key bits lost track of them: the service must stop."""


@dataclass
class KeyReservation:
    """A claim on ``bits`` bits of a store, held until consumed or released."""

    reservation_id: int
    pair: Tuple[str, str]
    bits: int
    created_at: float
    #: ``"held"`` -> ``"consumed"`` | ``"released"``.
    state: str = "held"

    @property
    def active(self) -> bool:
        return self.state == "held"


class _Ledger:
    """What a store and its two pools share: the reserved-bits counter, the
    draw accounting and the level hook.

    The pools hold this rather than their store, so a store and its pools
    form no reference cycle, and a pool that outlives its store keeps
    working.
    """

    __slots__ = ("pair", "statistics", "reserved_bits", "bits_since_last", "on_level_change")

    def __init__(self, pair: Tuple[str, str], statistics: "StoreStatistics"):
        self.pair = pair
        self.statistics = statistics
        #: Sum of the live reservations' bits, kept current where one enters
        #: or leaves the store's reservations; every draw reads it.
        self.reserved_bits = 0
        self.bits_since_last = 0
        self.on_level_change: Optional[Callable[[Tuple[str, str]], None]] = None

    def notify(self) -> None:
        if self.on_level_change is not None:
            self.on_level_change(self.pair)


class StorePool(KeyPool):
    """A :class:`KeyPool` that honours its owning store's reservations.

    Draws are refused (with :class:`KeyPoolExhaustedError`, the error every
    existing consumer already handles) whenever they would dip into bits
    reserved by a consumer other than the one currently inside
    :meth:`KeyStore.consuming`.  Draws from the store's local pool are the
    ones its statistics and depletion rate count.
    """

    def __init__(self, name: str, ledger: _Ledger, counts_draws: bool):
        super().__init__(name=name)
        self._ledger = ledger
        self._counts_draws = counts_draws
        #: Bits the reservation being consumed may still take from this
        #: pool; set and cleared by :meth:`KeyStore.consuming`, 0 outside it.
        self.grant = 0

    def draw_bits(self, count: int) -> BitString:
        ledger = self._ledger
        grant = self.grant
        reserved = ledger.reserved_bits
        others_reserved = reserved - min(grant, reserved)
        if count > self._available_bits - others_reserved:
            raise KeyPoolExhaustedError(
                f"{self.name}: draw of {count} bits would invade reserved key "
                f"({self._available_bits} available, {others_reserved} reserved "
                f"by other consumers, grant {grant})"
            )
        drawn = super().draw_bits(count)
        self.grant = max(grant - count, 0)
        if self._counts_draws:
            ledger.statistics.bits_consumed += count
            ledger.bits_since_last += count
            ledger.notify()
        return drawn


class _Consuming:
    """The context :meth:`KeyStore.consuming` returns: grants on entry, and
    on exit clears them and retires the reservation."""

    __slots__ = ("store", "reservation", "now")

    def __init__(self, store: "KeyStore", reservation: "KeyReservation", now: float):
        self.store = store
        self.reservation = reservation
        self.now = now

    def __enter__(self) -> None:
        store, reservation = self.store, self.reservation
        store._check_held(reservation)
        store.local_pool.grant = store.remote_pool.grant = reservation.bits

    def __exit__(self, *exc_info) -> None:
        store, reservation = self.store, self.reservation
        store.local_pool.grant = store.remote_pool.grant = 0
        reservation.state = "consumed"
        store._retire(reservation)
        store._note_consumption(self.now)


@dataclass
class StoreStatistics:
    """Lifetime accounting for one store."""

    bits_deposited: int = 0
    bits_consumed: int = 0
    bits_expired: int = 0
    deposits: int = 0
    reservations_granted: int = 0
    reservations_denied: int = 0
    #: Reservations given back unconsumed (voluntary release *or* a
    #: server-side reap of an orphaned/expired lease) and the bits they
    #: returned to the unreserved level.  ``bits_released`` is the store's
    #: own ledger of returned bits.
    reservations_released: int = 0
    bits_released: int = 0
    #: Epochs in which the scheduler wanted to refill this store but could
    #: not deliver anything (exhausted pads, no usable path, ...).
    starved_epochs: int = 0


class KeyStore:
    """The metered end-to-end key reservoir for one peer pair."""

    def __init__(
        self,
        pair: Tuple[str, str],
        capacity_bits: int = 1 << 20,
        low_water_bits: int = 8_192,
        high_water_bits: int = 32_768,
        max_key_age_seconds: Optional[float] = None,
        depletion_halflife_seconds: float = 600.0,
    ):
        if capacity_bits <= 0:
            raise ValueError("store capacity must be positive")
        if not 0 <= low_water_bits <= high_water_bits <= capacity_bits:
            raise ValueError("water marks must satisfy 0 <= low <= high <= capacity")
        age = max_key_age_seconds
        if age is not None and not (math.isfinite(age) and age > 0):
            raise ValueError(
                f"max_key_age_seconds must be None or finite and positive, got {age!r}"
            )
        halflife = depletion_halflife_seconds
        if not (math.isfinite(halflife) and halflife > 0):
            raise ValueError(
                f"depletion_halflife_seconds must be finite and positive, got {halflife!r}"
            )
        self.pair = (str(pair[0]), str(pair[1]))
        self.capacity_bits = capacity_bits
        self.low_water_bits = low_water_bits
        self.high_water_bits = high_water_bits
        self.max_key_age_seconds = max_key_age_seconds
        self.depletion_halflife_seconds = depletion_halflife_seconds
        label = f"{self.pair[0]}--{self.pair[1]}"
        self.statistics = StoreStatistics()
        self._ledger = _Ledger(self.pair, self.statistics)
        #: The two endpoints' synchronised reservoirs; hand these to the two
        #: gateways' IKE daemons and their paired draws stay in lock-step.
        self.local_pool = StorePool(f"kms/{label}/local", self._ledger, counts_draws=True)
        self.remote_pool = StorePool(f"kms/{label}/remote", self._ledger, counts_draws=False)
        self._reservations: Dict[int, KeyReservation] = {}
        self._ids = itertools.count(1)
        self._next_block_id = itertools.count(0)
        #: EWMA of the consumption rate, bits/second.
        self._depletion_rate_bps = 0.0
        self._last_consume_time: Optional[float] = None

    @property
    def on_level_change(self) -> Optional[Callable[[Tuple[str, str]], None]]:
        """Called with this store's pair after any event that can change its
        :meth:`refill_priority` (deposit, draw, expiry, rate update) — the
        hook the service's indexed needy-set rides so it never has to
        rescan every store per epoch.

        The store and its pools hold the hook strongly, and it is called
        with the pair, not the store: a hook that only records the pair
        (the service passes a set's ``add``) leaves the store free of any
        reference back to its owner.  A bound method of the owner would
        make the two a reference cycle.
        """
        return self._ledger.on_level_change

    @on_level_change.setter
    def on_level_change(self, hook: Optional[Callable[[Tuple[str, str]], None]]) -> None:
        self._ledger.on_level_change = hook

    # ------------------------------------------------------------------ #
    # Levels
    # ------------------------------------------------------------------ #

    @property
    def available_bits(self) -> int:
        """Bits physically present (reserved or not)."""
        return self.local_pool.available_bits

    @property
    def reserved_bits(self) -> int:
        return self._ledger.reserved_bits

    @property
    def unreserved_bits(self) -> int:
        """Bits a new reservation could claim right now."""
        return self.available_bits - self.reserved_bits

    @property
    def below_low_water(self) -> bool:
        return self.available_bits < self.low_water_bits

    @property
    def refill_deficit_bits(self) -> int:
        """How far the store is below its high-water mark."""
        return max(self.high_water_bits - self.available_bits, 0)

    @property
    def depletion_rate_bps(self) -> float:
        """Smoothed consumption rate (bits/second of simulated time)."""
        return self._depletion_rate_bps

    def conservation_fault(self) -> Optional[str]:
        """``None`` while every bit deposited is still here, consumed or
        expired, no more is reserved than is here, and both pools hold the
        same level; otherwise the store's numbers."""
        stats, here, remote = self.statistics, self.available_bits, self.remote_pool.available_bits
        if stats.bits_deposited == here + stats.bits_consumed + stats.bits_expired:
            if self.reserved_bits <= here == remote:
                return None
        return (
            f"store {self.pair[0]}--{self.pair[1]}: {stats.bits_deposited} bits deposited,"
            f" {stats.bits_consumed} consumed, {stats.bits_expired} expired, {here} here"
            f" ({remote} in the remote pool), {self.reserved_bits} reserved"
        )

    def refill_priority(self) -> float:
        """Scheduler ordering key: how urgently this store needs key.

        Deficit fraction plus the time-pressure of the observed draw rate —
        a store being drained quickly outranks an equally empty idle one.
        """
        deficit = self.refill_deficit_bits / max(self.high_water_bits, 1)
        pressure = self._depletion_rate_bps / max(self.high_water_bits, 1)
        return deficit + 60.0 * pressure

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #

    def deposit(self, key: BitString, now: float = 0.0) -> int:
        """Bank freshly delivered end-to-end key into both endpoints' pools.

        Returns the number of bits actually banked: a deposit that would
        overflow the store's capacity is truncated rather than refused, so
        replenishment can always run the store up to exactly full.
        """
        room = self.capacity_bits - self.available_bits
        if room <= 0:
            return 0
        banked = key if len(key) <= room else key[:room]
        block_id = next(self._next_block_id)
        self.local_pool.add_block(KeyBlock(banked.copy(), block_id, created_at=now))
        self.remote_pool.add_block(KeyBlock(banked.copy(), block_id, created_at=now))
        self.statistics.bits_deposited += len(banked)
        self.statistics.deposits += 1
        self._ledger.notify()
        return len(banked)

    def next_expiry_deadline(self) -> Optional[float]:
        """When the oldest stored block will age out (None: nothing to expire).

        The service's expiry sweep keeps one deadline-heap entry per store,
        re-armed from this after each sweep, instead of calling
        :meth:`expire` on every store every epoch.
        """
        if self.max_key_age_seconds is None or not self.local_pool.blocks:
            return None
        return self.local_pool.blocks[0].created_at + self.max_key_age_seconds

    def expire(self, now: float) -> int:
        """Apply the age limit (if any); returns bits dropped from each pool.

        Reserved bits are never expired out from under a held reservation:
        expiry stops early (block-granular, oldest first) rather than break
        the reservation contract.  Both pools hold identical blocks, so one
        scan decides what both drop and they stay in lock-step.
        """
        if self.max_key_age_seconds is None:
            return 0
        cutoff = now - self.max_key_age_seconds
        droppable = self.unreserved_bits
        to_drop_blocks = 0
        to_drop_bits = 0
        offset = self.local_pool._head_offset
        for block in self.local_pool.blocks:
            block_bits = len(block) - offset
            offset = 0
            if block.created_at >= cutoff or to_drop_bits + block_bits > droppable:
                break
            to_drop_blocks += 1
            to_drop_bits += block_bits
        if not to_drop_blocks:
            return 0
        self.local_pool.drop_head_blocks(to_drop_blocks)
        self.remote_pool.drop_head_blocks(to_drop_blocks)
        self.statistics.bits_expired += to_drop_bits
        self._ledger.notify()
        return to_drop_bits

    # ------------------------------------------------------------------ #
    # Consumer side
    # ------------------------------------------------------------------ #

    def reserve(self, bits: int, now: float = 0.0) -> KeyReservation:
        """Claim ``bits`` bits for one upcoming draw.

        Raises :class:`KeyStoreExhaustedError` when the unreserved level
        cannot cover the request — the caller's cue to queue as a waiter
        and let the replenishment scheduler know the store is starving.
        """
        if bits <= 0:
            raise ValueError("reservation size must be positive")
        if bits > self.unreserved_bits:
            self.statistics.reservations_denied += 1
            raise KeyStoreExhaustedError(
                f"store {self.pair[0]}--{self.pair[1]}: need {bits} bits, "
                f"{self.unreserved_bits} unreserved of {self.available_bits} available"
            )
        reservation = KeyReservation(
            reservation_id=next(self._ids),
            pair=self.pair,
            bits=bits,
            created_at=now,
        )
        self._reservations[reservation.reservation_id] = reservation
        self._ledger.reserved_bits += bits
        self.statistics.reservations_granted += 1
        return reservation

    def release(self, reservation: KeyReservation) -> None:
        """Give up a held reservation without consuming it."""
        self._check_held(reservation)
        reservation.state = "released"
        self._retire(reservation)
        self.statistics.reservations_released += 1
        self.statistics.bits_released += reservation.bits

    def consuming(self, reservation: KeyReservation, now: float = 0.0) -> _Consuming:
        """Context in which the reserved bits may be drawn from both pools.

        Inside the block each pool will honour draws up to the reservation's
        size (on top of whatever unreserved key exists); the usual pattern is
        to run the IKE Phase-2 negotiation here, which draws the same amount
        from both pools.  On exit the reservation is retired whether or not
        the draw happened (a failed negotiation must re-reserve).  Entering
        raises :class:`ReservationError` for a reservation this store does
        not hold: one already consumed or released, or another store's.
        """
        return _Consuming(self, reservation, now)

    def draw(self, reservation: KeyReservation, now: float = 0.0) -> BitString:
        """Consume ``reservation`` whole: draw its bits from both pools in
        lock-step inside :meth:`consuming`, and return the (identical)
        material once."""
        with self.consuming(reservation, now):
            local = self.local_pool.draw_bits(reservation.bits)
            remote = self.remote_pool.draw_bits(reservation.bits)
        if local != remote:
            raise ReservationError(f"store {self.pair[0]}--{self.pair[1]}: pools desynchronised")
        return local

    def _check_held(self, reservation: KeyReservation) -> None:
        if self._reservations.get(reservation.reservation_id) is not reservation:
            held = "not held by this store" if reservation.active else reservation.state
            raise ReservationError(f"reservation {reservation.reservation_id} is {held}")

    def _retire(self, reservation: KeyReservation) -> None:
        retired = self._reservations.pop(reservation.reservation_id, None)
        if retired is not None:
            self._ledger.reserved_bits -= retired.bits

    def _note_consumption(self, now: float) -> None:
        """Fold the draws since the previous event into the rate EWMA."""
        ledger = self._ledger
        if self._last_consume_time is None:
            self._last_consume_time = now
            ledger.bits_since_last = 0
            return
        dt = now - self._last_consume_time
        if dt <= 0:
            return
        self._last_consume_time = now
        # One observation: the bits drawn since the last event, spread over
        # the gap; the half-life becomes a per-gap smoothing factor.
        alpha = min(dt / max(self.depletion_halflife_seconds, 1e-9), 1.0)
        instantaneous = ledger.bits_since_last / dt
        self._depletion_rate_bps += alpha * (instantaneous - self._depletion_rate_bps)
        ledger.bits_since_last = 0
        # The EWMA feeds refill_priority, so a rate change is a level change
        # as far as the scheduler's indexed ordering is concerned.
        ledger.notify()

    def __repr__(self) -> str:
        return (
            f"KeyStore({self.pair[0]}--{self.pair[1]}: "
            f"{self.available_bits} bits, {self.reserved_bits} reserved, "
            f"deficit={self.refill_deficit_bits})"
        )
