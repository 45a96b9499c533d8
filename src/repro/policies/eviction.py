"""Victim selection for both eviction paths: one tier lattice.

DeepUM evicts least-recently-migrated blocks that are not predicted for
the current or next N kernels (Section 5.1); invalidation and the
:class:`~repro.sim.um_space.MemAdvise` hints refine that into tiers.
Within a tier victims go in migration order; across tiers:

=============  ============================================  ======  =========
tier           resident blocks in it                         demand  pre-evict
=============  ============================================  ======  =========
dead           invalidated                                   1st     1st
CPU-preferred  ``PREFERRED_LOCATION_CPU`` advice             2nd     never
cold           everything else                               3rd     2nd
sticky         ``READ_MOSTLY`` / ``PREFERRED_LOCATION_GPU``  4th     never
hot            protected (predicted for imminent use)        5th     never
=============  ============================================  ======  =========

Protection overrides every other tier, dead outranks advice (on the
demand path only under ``prefer_invalidated``), and CPU-preferred
outranks sticky. Both walks pass lazily over migration order, in
stretches that end early on the device's exact resident counts, kept by
the single writers ``GPUMemory.set_invalidated`` / ``set_advice``
(docs/internals.md §5).
"""

from __future__ import annotations

from typing import Collection, Protocol

from ..sim.gpu import GPUMemory
from ..sim.um_space import ADVISE_CPU, ADVISE_STICKY, UMBlock

_ADVISE_TIERED = ADVISE_CPU | ADVISE_STICKY
_NOTHING_PROTECTED: frozenset[int] = frozenset()


class ProtectedBlockProvider(Protocol):
    """Anything that can name the blocks predicted for imminent use."""

    def protected_blocks(self) -> set[int]:
        ...


def _take(victims: list[UMBlock], blocks: list[UMBlock], reclaimed: int,
          needed_bytes: int) -> int:
    """Append ``blocks`` until ``needed_bytes`` is covered; new total."""
    for blk in blocks:
        if reclaimed >= needed_bytes:
            break
        victims.append(blk)
        reclaimed += blk.populated_bytes
    return reclaimed


def demand_victims(gpu: GPUMemory, needed_bytes: int,
                   protected: Collection[int],
                   prefer_invalidated: bool) -> list[UMBlock]:
    """Victims covering ``needed_bytes``, taken tier by tier.

    One walk of migration order in up to three stretches: dead,
    CPU-preferred, cold. Each stretch takes its tier's blocks as it meets
    them and sets later unprotected tiers' blocks aside; the dead and
    CPU-preferred stretches end once no member of their tier can remain
    ahead, and each next tier starts with what was set aside for it.
    Sticky blocks come next, then the hot tier from a second walk. Every
    walk stops the moment the need is covered.
    """
    victims: list[UMBlock] = []
    if needed_bytes <= 0:
        return victims
    reclaimed = 0
    # Members of the counted tiers still ahead of the walk. Upper bounds:
    # protected blocks are counted too, and go to the hot tier.
    dead_ahead = gpu.invalidated_resident if prefer_invalidated else 0
    cpu_ahead = gpu.cpu_preferred_resident
    advised = cpu_ahead or gpu.sticky_resident
    eager: list[UMBlock] = []
    cold: list[UMBlock] = []
    sticky: list[UMBlock] = []
    order = iter(gpu.resident.values())
    if dead_ahead:
        for blk in order:
            advice = blk.advice if advised else 0
            if advice & ADVISE_CPU:
                cpu_ahead -= 1
            if blk.invalidated:
                if blk.index not in protected:
                    victims.append(blk)
                    reclaimed += blk.populated_bytes
                    if reclaimed >= needed_bytes:
                        return victims
                dead_ahead -= 1
                if not dead_ahead:
                    break
            elif blk.index in protected:
                continue
            elif advice & ADVISE_CPU:
                eager.append(blk)
            elif advice & ADVISE_STICKY:
                sticky.append(blk)
            else:
                cold.append(blk)
        reclaimed = _take(victims, eager, reclaimed, needed_bytes)
    if cpu_ahead and reclaimed < needed_bytes:
        for blk in order:
            advice = blk.advice
            if advice & ADVISE_CPU:
                if blk.index not in protected:
                    victims.append(blk)
                    reclaimed += blk.populated_bytes
                    if reclaimed >= needed_bytes:
                        return victims
                cpu_ahead -= 1
                if not cpu_ahead:
                    break
            elif blk.index in protected:
                continue
            elif advice & ADVISE_STICKY:
                sticky.append(blk)
            else:
                cold.append(blk)
    reclaimed = _take(victims, cold, reclaimed, needed_bytes)
    if reclaimed < needed_bytes:
        for blk in order:
            if blk.index in protected:
                continue
            if advised and blk.advice & ADVISE_STICKY:
                sticky.append(blk)
            else:
                victims.append(blk)
                reclaimed += blk.populated_bytes
                if reclaimed >= needed_bytes:
                    return victims
    reclaimed = _take(victims, sticky, reclaimed, needed_bytes)
    if reclaimed < needed_bytes and protected:
        # The hot tier, the last resort. Under deep pressure nearly every
        # resident block is protected and the oldest ones are the victims,
        # so a second walk that stops at the need is cheaper than setting
        # every protected block aside on the first.
        for blk in gpu.resident.values():
            if blk.index in protected:
                victims.append(blk)
                reclaimed += blk.populated_bytes
                if reclaimed >= needed_bytes:
                    break
    return victims


def background_victims(gpu: GPUMemory, protected: Collection[int],
                       batch: int) -> tuple[list[UMBlock], int, int]:
    """Pre-eviction victims: up to ``batch`` dead, then cold, blocks.

    Returns ``(victims, protected_skips, hint_skips)``. A skip is counted
    only when it is a *deferral*: the block would have been taken had it
    not been protected (or sticky) — a dead one while the dead list has
    room, a live one while the cold list has room. The walk stops once the
    dead list is full, or the cold list is full and no invalidated block
    remains ahead.
    """
    victims: list[UMBlock] = []
    live: list[UMBlock] = []
    skips = hint_skips = 0
    dead_ahead = gpu.invalidated_resident
    advised = gpu.cpu_preferred_resident or gpu.sticky_resident
    order = iter(gpu.resident.values())
    if dead_ahead:
        for blk in order:
            if blk.invalidated:
                # Dead data outranks any hint; only protection defers it
                # (dropping it would just refault at the predicted touch).
                if blk.index in protected:
                    if len(victims) < batch:
                        skips += 1
                else:
                    victims.append(blk)
                    if len(victims) >= batch:
                        return victims, skips, hint_skips
                dead_ahead -= 1
                if not dead_ahead:
                    break
            elif blk.index in protected:
                if len(live) < batch:
                    skips += 1
            elif advised and blk.advice & _ADVISE_TIERED:
                if blk.advice & ADVISE_STICKY and len(live) < batch:
                    hint_skips += 1
            elif len(live) < batch:
                live.append(blk)
    # No dead block remains ahead: walk on only while the cold list has room.
    n_live = len(live)
    if n_live < batch:
        for blk in order:
            if blk.index in protected:
                skips += 1
            elif advised and blk.advice & _ADVISE_TIERED:
                if blk.advice & ADVISE_STICKY:
                    hint_skips += 1
            else:
                live.append(blk)
                n_live += 1
                if n_live >= batch:
                    break
    if len(victims) < batch:
        victims.extend(live[: batch - len(victims)])
    return victims, skips, hint_skips


class ProtectedLRUEvictionPolicy:
    """Demand-fault victim policy under a prefetching policy.

    Takes the lattice's tiers in order (:func:`demand_victims`): dead
    blocks only when ``prefer_invalidated``, and the hot tier is empty
    unless ``protect_predicted``.
    """

    def __init__(self, provider: ProtectedBlockProvider, *,
                 prefer_invalidated: bool, protect_predicted: bool):
        self.provider = provider
        self.prefer_invalidated = prefer_invalidated
        self.protect_predicted = protect_predicted

    def select_victims(self, gpu: GPUMemory, needed_bytes: int,
                       now: float) -> list[UMBlock]:
        protected = (self.provider.protected_blocks()
                     if self.protect_predicted else _NOTHING_PROTECTED)
        return demand_victims(gpu, needed_bytes, protected,
                              self.prefer_invalidated)
