"""Indexed priority structures for the metro-scale dispatch hot paths.

Before this module, every replenishment epoch re-sorted the whole universe
of candidates: the :class:`~repro.kms.scheduler.ReplenishmentScheduler`
sorted every mesh link, and :class:`~repro.kms.service.KeyManagementService`
sorted every gateway-pair store — O(n log n) per epoch in the *total*
population even when only a handful of members actually needed attention.
At 1k+ pairs that scan dominates the epoch.

:class:`LazyPriorityHeap` replaces the scans with a lazy-deletion binary
heap over the *active* members only.  The design constraints are unusual
enough to spell out:

* **Exact ordering, not approximate.**  The soak digests pin the dispatch
  order bit-for-bit, so the heap must emit members in exactly the order a
  full ``sorted()`` over current priorities would.  That only holds if
  every entry's stored sort key matches its current one at pop time, which
  the structure guarantees two ways:

  - callers *must* :meth:`push` a member whenever an event makes it **more
    urgent** (its sort key decreases) — a stale too-late entry would
    otherwise pop after a member it actually outranks;
  - changes that make a member **less urgent** are self-healed at pop: the
    key is reclassified, and a mismatched entry is re-pushed with its
    current sort key instead of being emitted early.

* **Lazy deletion.**  :meth:`push` never searches the heap; it bumps the
  member's version token and pushes a fresh entry.  Stale entries are
  discarded when they surface.  Membership is the version map, so
  ``key in heap`` and ``len(heap)`` are O(1).

* **Three verdicts.**  The classifier returns ``(verdict, sort_key)``:
  ``EMIT`` (ready, emit in order), ``DEFER`` (a member that must stay
  indexed but cannot be emitted right now — an unusable link), or ``DROP``
  (no longer a member at all — a pad at target, a store at high water).

* **The classifier is an argument, not an attribute.**  :meth:`push` and
  :meth:`drain` take it per call, so the heap holds keys and sort keys
  only: an owner that indexes itself with its own bound method (the
  scheduler, the service) forms no reference cycle through its heap.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, Hashable, List, Optional, Tuple

#: Classifier verdicts (see module docstring).
EMIT = "emit"
DEFER = "defer"
DROP = "drop"

#: ``classify(key) -> (verdict, sort_key)``; ``sort_key`` is ignored (may
#: be ``None``) when the verdict is :data:`DROP`.
Classifier = Callable[[Hashable], Tuple[str, Optional[tuple]]]


class LazyPriorityHeap:
    """A lazy-deletion heap that drains members in exact priority order."""

    def __init__(self) -> None:
        self._heap: List[Tuple[tuple, int, Hashable]] = []
        #: Member -> current version token; presence *is* membership.
        self._version: Dict[Hashable, int] = {}
        self._tokens = itertools.count()

    def __len__(self) -> int:
        return len(self._version)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._version

    def push(self, key: Hashable, classify: Classifier) -> None:
        """(Re)index ``key`` at its current priority.

        Classifies the key right now with ``classify``: a ``DROP`` removes
        it from membership, anything else supersedes every earlier entry for
        the key.  Call this on *every* event that makes a member more
        urgent — that is the contract exact drain order rests on.
        """
        verdict, sort_key = classify(key)
        if verdict == DROP:
            self._version.pop(key, None)
            return
        token = next(self._tokens)
        self._version[key] = token
        heapq.heappush(self._heap, (sort_key, token, key))

    def drain(self, classify: Classifier, limit: Optional[int] = None) -> List[Hashable]:
        """Emit up to ``limit`` members, most urgent first, removing them.

        Emitted members leave the structure (the caller re-pushes the ones
        that remain relevant after acting on them).  ``DEFER``\\ red members
        are kept indexed but not emitted and do not count against
        ``limit``; ``DROP``\\ ped members are removed.  The emitted order is
        exactly ``sorted()`` order over the members' current sort keys.
        """
        emitted: List[Hashable] = []
        deferred: List[Tuple[tuple, Hashable]] = []
        while self._heap and (limit is None or len(emitted) < limit):
            sort_key, token, key = heapq.heappop(self._heap)
            if self._version.get(key) != token:
                continue  # superseded or discarded — lazy deletion
            verdict, current = classify(key)
            if verdict == DROP:
                del self._version[key]
                continue
            if current != sort_key:
                # Went less-urgent since it was pushed; re-push at its true
                # rank and keep popping (more-urgent changes were pushed
                # eagerly per the contract, so order stays exact).
                token = next(self._tokens)
                self._version[key] = token
                heapq.heappush(self._heap, (current, token, key))
                continue
            if verdict == DEFER:
                deferred.append((current, key))
                continue
            del self._version[key]
            emitted.append(key)
        for sort_key, key in deferred:
            token = next(self._tokens)
            self._version[key] = token
            heapq.heappush(self._heap, (sort_key, token, key))
        return emitted

    def __repr__(self) -> str:
        return f"LazyPriorityHeap({len(self._version)} members, {len(self._heap)} entries)"
