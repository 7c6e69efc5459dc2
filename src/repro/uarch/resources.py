"""Cycle-accurate single-server resource arbitration.

A ``CycleResource`` models a resource that can serve one request per cycle
(a register-file port, an ET issue slot, an OPN link, a cache bank port).
``claim(t)`` returns the first cycle >= t at which the resource is free
and marks it used.

A naive "busy-until" counter is wrong for out-of-order claim patterns: a
request at cycle 700 must not delay an unrelated request at cycle 450
that arrives later in simulation order.  ``CycleResource`` therefore
tracks the *set* of claimed cycles, with periodic pruning of the distant
past to bound memory (requests are never issued for cycles far behind the
maximum seen, so pruning below a trailing horizon is safe in practice).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Set

#: Prune when the claimed set exceeds this size...
_PRUNE_LIMIT = 8192
#: ...removing everything more than this many cycles behind the max.
_HORIZON = 4096


class CycleResource:
    """One-request-per-cycle resource with out-of-order claims."""

    __slots__ = ("claimed", "floor", "max_seen")

    def __init__(self) -> None:
        self.claimed: Set[int] = set()
        self.floor = 0          # cycles below this are considered busy
        self.max_seen = 0

    def claim(self, cycle: int) -> int:
        """Reserve the first free cycle >= ``cycle``; returns it."""
        t = max(cycle, self.floor)
        claimed = self.claimed
        while t in claimed:
            t += 1
        claimed.add(t)
        if t > self.max_seen:
            self.max_seen = t
        if len(claimed) > _PRUNE_LIMIT:
            horizon = self.max_seen - _HORIZON
            self.claimed = {c for c in claimed if c >= horizon}
            self.floor = max(self.floor, horizon)
        return t

    def probe(self, cycle: int) -> int:
        """First free cycle >= ``cycle`` *without* reserving it.

        Lets a caller compare several equivalent resources (e.g. the
        channels of a double-width OPN link) before committing to one
        with :meth:`claim`.
        """
        t = max(cycle, self.floor)
        while t in self.claimed:
            t += 1
        return t


class SkipAheadResource:
    """Interval-based :class:`CycleResource` that jumps over busy runs.

    Semantically identical to :class:`CycleResource` — same claims, same
    results, same pruning horizon — but the claimed cycles are stored as
    sorted disjoint runs ``[start, end)`` instead of a hash set.  A claim
    landing inside a busy run advances to the run's end in **one bisect**
    instead of walking it cycle by cycle; this is the event-driven
    skip-ahead the simulator's contended resources (OPN links under
    operand bursts, DRAM channel occupancy) benefit from.
    :class:`CycleResource` stays as the reference it is differenced
    against claim by claim.

    The equivalence hinges on the pruning bookkeeping: ``count`` tracks
    the total claimed-cycle population (equal to the scalar set's size,
    since the runs are disjoint), so pruning triggers on exactly the
    same claim, computes the same horizon, and therefore advances
    ``floor`` identically — the only way pruning can influence a later
    claim's result.
    """

    __slots__ = ("starts", "ends", "floor", "max_seen", "count")

    def __init__(self) -> None:
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.floor = 0
        self.max_seen = 0
        self.count = 0

    def claim(self, cycle: int) -> int:
        """Reserve the first free cycle >= ``cycle``; returns it."""
        floor = self.floor
        t = cycle if cycle > floor else floor
        starts = self.starts
        ends = self.ends
        # Frontier fast path: claims overwhelmingly land at or beyond
        # the newest run, where extending or appending is O(1) — no
        # bisect, no mid-list insertion.
        if not starts:
            starts.append(t)
            ends.append(t + 1)
        elif t >= ends[-1]:
            if t == ends[-1]:
                ends[-1] = t + 1
            else:
                starts.append(t)
                ends.append(t + 1)
        elif t >= starts[-1]:
            # Inside the newest (busy) run: skip to its end in one jump.
            t = ends[-1]
            ends[-1] = t + 1
        else:
            i = bisect_right(starts, t) - 1
            if i >= 0 and t < ends[i]:
                # Busy run: skip to its end in one jump and extend it.
                t = ends[i]
                nxt = i + 1
                if starts[nxt] == t + 1:
                    ends[i] = ends[nxt]
                    del starts[nxt], ends[nxt]
                else:
                    ends[i] = t + 1
            else:
                nxt = i + 1
                prev_touch = i >= 0 and ends[i] == t
                next_touch = starts[nxt] == t + 1
                if prev_touch and next_touch:
                    ends[i] = ends[nxt]
                    del starts[nxt], ends[nxt]
                elif prev_touch:
                    ends[i] = t + 1
                elif next_touch:
                    starts[nxt] = t
                else:
                    starts.insert(nxt, t)
                    ends.insert(nxt, t + 1)
        self.count += 1
        if t > self.max_seen:
            self.max_seen = t
        if self.count > _PRUNE_LIMIT:
            horizon = self.max_seen - _HORIZON
            drop = bisect_right(self.ends, horizon)
            if drop:
                del self.starts[:drop], self.ends[:drop]
            if self.starts and self.starts[0] < horizon:
                self.starts[0] = horizon
            self.floor = max(self.floor, horizon)
            self.count = sum(end - start for start, end
                             in zip(self.starts, self.ends))
        return t

    def probe(self, cycle: int) -> int:
        """First free cycle >= ``cycle`` *without* reserving it."""
        t = max(cycle, self.floor)
        i = bisect_right(self.starts, t) - 1
        if i >= 0 and t < self.ends[i]:
            return self.ends[i]
        return t


class ResourcePool:
    """A lazily populated family of :class:`CycleResource` by key."""

    __slots__ = ("resources",)

    #: Resource type new keys materialize (subclasses override).
    resource_class = CycleResource

    def __init__(self) -> None:
        self.resources = {}

    def claim(self, key, cycle: int) -> int:
        resource = self.resources.get(key)
        if resource is None:
            resource = self.resources[key] = self.resource_class()
        return resource.claim(cycle)

    def probe(self, key, cycle: int) -> int:
        """First free cycle >= ``cycle`` on ``key``, without reserving.

        An untouched key is entirely free, so the answer is ``cycle``
        itself and no resource is materialized.
        """
        resource = self.resources.get(key)
        return cycle if resource is None else resource.probe(cycle)

    def resource(self, key):
        """Materialize and return the resource behind ``key``.

        Hot paths that claim the same key many times (the batched
        kernel's cached OPN routes) hold the resource object directly
        and skip the per-claim dictionary lookup.
        """
        resource = self.resources.get(key)
        if resource is None:
            resource = self.resources[key] = self.resource_class()
        return resource


class SkipAheadPool(ResourcePool):
    """A :class:`ResourcePool` of interval-based skip-ahead resources.

    Drop-in for :class:`ResourcePool`: the cycle simulator, operand
    network, and caches build these for every port and link, and every
    claim returns the same cycle the set-based pool would.
    """

    __slots__ = ()

    resource_class = SkipAheadResource
