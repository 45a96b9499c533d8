"""GPU physical memory: residency bookkeeping and migration-order LRU.

The NVIDIA driver evicts pages that were *least recently migrated* to the
GPU (it has no hardware access tracking for UM pages), so residency is an
ordered map keyed by migration time.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from .um_space import ADVISE_CPU, ADVISE_STICKY, BlockLocation, UMBlock


class GPUOutOfMemory(RuntimeError):
    """Raised when a raw (non-UM) reservation exceeds device capacity."""


@dataclass(slots=True)
class GPUMemory:
    """Tracks which UM blocks are resident and how many bytes they occupy.

    ``resident`` preserves migration order (oldest migration first) to
    implement the least-recently-migrated eviction policy.
    """

    capacity_bytes: int
    used_bytes: int = 0
    resident: "OrderedDict[int, UMBlock]" = field(default_factory=OrderedDict)
    #: Resident blocks currently flagged invalidated — the pre-evictor's
    #: free-victim supply. Admission/removal maintain it here; the
    #: invalidation registry (the sole flag writer) adjusts it on flips.
    invalidated_resident: int = 0
    #: Resident blocks whose advice carries the CPU-preferred / a sticky
    #: bit — the supply of the victim lattice's advice tiers, which lets
    #: its walks stop once a tier has no member left ahead. Admission and
    #: removal maintain them; :meth:`set_advice` (the sole writer of
    #: advice on blocks that may be resident) adjusts them on changes.
    cpu_preferred_resident: int = 0
    sticky_resident: int = 0
    #: Called with each block that actually leaves the device; the engine
    #: uses this to drop stale in-flight bookkeeping for evicted blocks.
    evict_listeners: list = field(default_factory=list, repr=False)

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def is_resident(self, block: UMBlock) -> bool:
        return block.index in self.resident

    def has_room_for(self, block: UMBlock) -> bool:
        return block.populated_bytes <= self.free_bytes

    def admit(self, block: UMBlock, now: float) -> None:
        """Mark ``block`` resident after a migration completing at ``now``."""
        if block.index in self.resident:
            return
        if block.populated_bytes > self.free_bytes:
            raise GPUOutOfMemory(
                f"admitting block {block.index} needs {block.populated_bytes} B "
                f"but only {self.free_bytes} B free"
            )
        self.resident[block.index] = block
        self.used_bytes += block.populated_bytes
        if block.invalidated:
            self.invalidated_resident += 1
        if block.advice:
            self._count_advice(block.advice, 1)
        block.location = BlockLocation.GPU
        block.last_migrated_at = now

    def remove(self, block: UMBlock, *, to_cpu: bool = True) -> None:
        """Drop ``block`` from the device.

        ``to_cpu=False`` models invalidation: the backing pages stay
        reserved, but no valid copy exists anywhere, so the next GPU touch
        repopulates on-device with no transfer.
        """
        if self.resident.pop(block.index, None) is None:
            return
        self.used_bytes -= block.populated_bytes
        if block.invalidated:
            self.invalidated_resident -= 1
        if block.advice:
            self._count_advice(block.advice, -1)
        block.location = BlockLocation.CPU if to_cpu else BlockLocation.UNPOPULATED
        if not to_cpu:
            block.dirty = False
        for listener in self.evict_listeners:
            listener(block)

    def set_invalidated(self, block: UMBlock, flag: bool = True) -> None:
        """Flip a block's invalidated flag, keeping the resident count exact.

        All invalidation flips of blocks that may be resident must go
        through here (the invalidation registry does); writing the flag
        directly would silently corrupt ``invalidated_resident`` and with
        it the pre-evictor's early-stop condition.
        """
        if block.invalidated == flag:
            return
        block.invalidated = flag
        if block.index in self.resident:
            self.invalidated_resident += 1 if flag else -1

    def set_advice(self, block: UMBlock, advice: int) -> None:
        """Set a block's advice mask, keeping the advice counts exact.

        The advice twin of :meth:`set_invalidated`: every advice write to
        a block that may be resident goes through here (the memory
        manager's ``advise`` does).
        """
        if block.advice == advice:
            return
        if block.index in self.resident:
            self._count_advice(block.advice, -1)
            self._count_advice(advice, 1)
        block.advice = advice

    def _count_advice(self, advice: int, delta: int) -> None:
        if advice & ADVISE_CPU:
            self.cpu_preferred_resident += delta
        if advice & ADVISE_STICKY:
            self.sticky_resident += delta

    def check_invariants(self) -> None:
        """Recount every residency fact from the blocks; raise on drift.

        One pass over the resident blocks: ``used_bytes`` must equal their
        populated bytes, and each resident count its recount. Cheap enough
        to call after every step of a test.
        """
        blocks = list(self.resident.values())
        recount = {
            "used_bytes": sum(b.populated_bytes for b in blocks),
            "invalidated_resident": sum(b.invalidated for b in blocks),
            "cpu_preferred_resident":
                sum(bool(b.advice & ADVISE_CPU) for b in blocks),
            "sticky_resident":
                sum(bool(b.advice & ADVISE_STICKY) for b in blocks),
        }
        drift = {name: (getattr(self, name), want)
                 for name, want in recount.items()
                 if getattr(self, name) != want}
        misfiled = [i for i, b in self.resident.items()
                    if b.index != i or b.location is not BlockLocation.GPU]
        if misfiled:
            drift["resident"] = (misfiled, "keyed by index, located on GPU")
        if drift:
            raise AssertionError(f"GPU residency drift (have, recount): {drift}")

    def migration_order(self):
        """Blocks in least-recently-migrated-first order."""
        return iter(self.resident.values())

    def oldest(self) -> UMBlock | None:
        """The least recently migrated resident block, if any."""
        for blk in self.resident.values():
            return blk
        return None
