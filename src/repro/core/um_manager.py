"""Memory manager running the kernel stream over unified memory.

Shared substrate glue between torchsim and the engine: it decomposes each
kernel's operand tensors into ordered UM block accesses (with first-touch
population), enforces the host backing-store capacity, and drives
:class:`~repro.sim.engine.UMSimulator`. With ``runtime=None`` it behaves as
plain NVIDIA UM (the paper's naive-UM baseline); with a
:class:`~repro.core.runtime.DeepUMRuntime` attached it is DeepUM.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..constants import PAGE_SIZE
from ..obs.recorder import TRACK_MEMORY
from ..sim.engine import BlockAccess, KernelExecution, UMSimulator
from ..sim.um_space import UMBlock, advice_labels
from ..torchsim.kernels import KernelCostModel, KernelLaunch

if TYPE_CHECKING:  # pragma: no cover
    from ..torchsim.allocator import CachingAllocator, PTBlock
    from ..torchsim.context import Device
    from .runtime import DeepUMRuntime


class UMCapacityError(RuntimeError):
    """The populated UM footprint exceeded the CPU backing store."""


class UMMemoryManager:
    """Runs kernels through the UM engine (naive UM or DeepUM)."""

    def __init__(
        self,
        engine: UMSimulator,
        host_capacity: int,
        runtime: Optional["DeepUMRuntime"] = None,
    ):
        self.engine = engine
        self.host_capacity = host_capacity
        self.runtime = runtime
        self.cost_model = KernelCostModel(engine.system.gpu)
        self.populated_bytes = 0
        self.peak_populated_bytes = 0
        # (addr, nbytes) -> per-block [(block index, overlap pages)].
        self._decomp_cache: dict[tuple[int, int], list[tuple[int, int]]] = {}
        # Operand-range signature -> finished access plan. Kernels on
        # pooled (reused) addresses produce the same ordered, deduplicated
        # access list every launch; rebuilding it dominated launch
        # overhead. Sparse launches (keyed by signature and SparseAccess)
        # cache everything but the RNG draw.
        self._access_plan_cache: dict[
            tuple, "list[BlockAccess] | SparseAccessPlan"] = {}
        #: Set by :class:`~repro.core.replay.IterationReplayer` when one is
        #: installed; receives every live launch's plan and every PT-block
        #: state change.
        self.replay_recorder = None

    def attach_allocator(self, allocator: "CachingAllocator") -> None:
        """Install the framework patch: one PT-block state listener.

        DeepUM's "fewer than ten lines" PyTorch change is a single
        callback on the caching allocator. The manager owns it and fans
        each event out on the simulator side — to the runtime (DeepUM's
        invalidation) and to the iteration replayer's recorder — so the
        allocator sees one listener however many consumers there are.
        Idempotent.
        """
        if self._on_pt_block_state not in allocator.state_listeners:
            allocator.state_listeners.append(self._on_pt_block_state)

    def _on_pt_block_state(self, pt_block: "PTBlock", active: bool) -> None:
        if self.runtime is not None:
            self.runtime.on_pt_block_state(pt_block, active)
        if self.replay_recorder is not None:
            self.replay_recorder.on_block_state(pt_block, active)

    # ------------------------------------------------------------------ #

    def run_kernel(self, launch: KernelLaunch, device: "Device") -> None:
        now = self.engine.now
        if self.runtime is not None:
            self.runtime.before_launch(launch, now)
        plan = self._access_plan(launch)
        accesses = plan if launch.sparse is None else plan.draw(device.rng)
        compute = self.cost_model.compute_time(launch)
        rec = self.replay_recorder
        if rec is not None:
            rec.on_launch(launch, plan, compute)
        self.engine.execute_kernel(
            KernelExecution(payload=launch, accesses=accesses, compute_time=compute)
        )

    def replay_kernel(self, payload, plan: "list[BlockAccess] | SparseAccessPlan",
                      compute: float, device: "Device") -> None:
        """Re-issue a recorded launch: the tail of :meth:`run_kernel`.

        ``payload`` is a shim carrying the signature fields; ``plan`` is
        the cached plan captured at record time (steady-state blocks are
        fully populated, so skipping ``_access_plan`` has no side effects
        a live cache hit would not also skip). A sparse plan draws its
        subset from ``device.rng`` here, as the live launch did.
        """
        now = self.engine.now
        if self.runtime is not None:
            self.runtime.before_launch(payload, now)
        accesses = plan if type(plan) is list else plan.draw(device.rng)
        self.engine.execute_kernel(
            KernelExecution(payload=payload, accesses=accesses,
                            compute_time=compute)
        )

    def elapsed(self) -> float:
        self.engine.finish()
        return self.engine.now

    def advise(self, addr: int, nbytes: int, advice: int) -> list[UMBlock]:
        """Apply a :class:`~repro.sim.um_space.MemAdvise` hint to a range.

        Marks the spanned UM blocks through the device's advice writer
        (so its per-tier resident counts stay exact), notifies the active
        prefetch policy (when one is wired; naive UM has none, so its
        hints are eviction-neutral markers only), and journals the hint on
        the decision track so ``repro doctor`` can attribute hint-driven
        outcomes. Returns the advised blocks.
        """
        blocks = self.engine.um.advise(addr, nbytes, advice, self.engine.gpu)
        runtime = self.runtime
        policy = runtime.driver.policy if runtime is not None else None
        note = getattr(policy, "note_advice", None)
        rec = self.engine.recorder
        label = advice_labels(advice) if rec.enabled else ""
        for blk in blocks:
            if note is not None:
                note(blk.index, int(advice))
            if rec.enabled:
                rec.note_advice(blk.index, label)
        return blocks

    def handle_alloc_oom(self, nbytes: int, device: "Device") -> bool:
        # UM allocation is virtual: it never fails at cudaMalloc time.
        return False

    def on_alloc(self, tensor, device: "Device") -> None:
        return None

    # ------------------------------------------------------------------ #

    def _decompose(self, addr: int, nbytes: int) -> list[tuple[int, int]]:
        """Block decomposition of a byte range, with first-touch population.

        Population happens exactly once per distinct (addr, nbytes) range:
        PT-block reuse returns the same range, so steady-state iterations
        touch already-populated blocks, exactly like real UM.
        """
        key = (addr, nbytes)
        cached = self._decomp_cache.get(key)
        if cached is not None:
            return cached
        parts: list[tuple[int, int]] = []
        growths: list[int] = []
        block_size = self.engine.um.block_size
        end = addr + nbytes
        first = addr // block_size
        last = (end - 1) // block_size
        # Pass 1: plan only. The whole range's growth is known before a
        # single page is populated, so a capacity overshoot raises with no
        # counters touched and no events emitted — a caught UMCapacityError
        # leaves the manager's accounting exactly reconcilable.
        for idx in range(first, last + 1):
            lo = max(addr, idx * block_size)
            hi = min(end, (idx + 1) * block_size)
            pages = (hi - lo + PAGE_SIZE - 1) // PAGE_SIZE
            parts.append((idx, pages))
            blk = self.engine.um.block(idx)
            would_have = min(blk.capacity_pages, blk.populated_pages + pages)
            growths.append((would_have - blk.populated_pages) * PAGE_SIZE)
        total_grown = sum(growths)
        if self.populated_bytes + total_grown > self.host_capacity:
            raise UMCapacityError(
                f"populated UM footprint {self.populated_bytes + total_grown} "
                f"B exceeds host capacity {self.host_capacity} B"
            )
        # Pass 2: apply, in the same block order as the plan.
        for (idx, pages), grown in zip(parts, growths):
            if not grown:
                continue
            blk = self.engine.um.block(idx)
            blk.populate(pages)
            self.populated_bytes += grown
            if blk.index in self.engine.gpu.resident:
                gpu = self.engine.gpu
                gpu.used_bytes += grown
                rec = self.engine.recorder
                if rec.enabled:
                    # In-place population of a resident block is the one
                    # residency-bytes change outside the fault handler;
                    # the memory timeline needs it to reconcile.
                    rec.instant(TRACK_MEMORY, "mem.grow", self.engine.now,
                                args={"block": blk.index, "bytes": grown,
                                      "used": gpu.used_bytes})
        if self.populated_bytes > self.peak_populated_bytes:
            self.peak_populated_bytes = self.populated_bytes
        self._decomp_cache[key] = parts
        return parts

    def _access_plan(
        self, launch: KernelLaunch
    ) -> "list[BlockAccess] | SparseAccessPlan":
        """The cached access plan of one launch, built on first use.

        Plans are keyed by the operands' (addr, nbytes) ranges: the
        decomposition, dedup order and page counts are all functions of
        that signature alone (populated page counts never shrink), so a
        cached plan is bit-identical to a rebuild. A dense plan is the
        ordered, deduplicated access list itself; a sparse plan is a
        :class:`SparseAccessPlan` whose subset is drawn per launch. Either
        way one object per signature, which is what lets the iteration
        replayer certify a repeating stream by identity. The engine only
        reads access lists, never mutates them.
        """
        # Key on the raw PT-block address: UM-managed tensors are never
        # swapped out, so ``storage.block`` is always attached here and the
        # property indirection of ``Tensor.addr`` is dead weight on the
        # per-launch path.
        ranges = tuple([(t.storage.block.addr, t.nbytes)
                        for t in launch.operands])
        sparse = launch.sparse
        key = ranges if sparse is None else (ranges, sparse)
        cached = self._access_plan_cache.get(key)
        if cached is not None:
            return cached
        um = self.engine.um
        operands = [[BlockAccess(block=um.block(idx), pages=pages)
                     for idx, pages in self._decompose(addr, nbytes)]
                    for addr, nbytes in ranges]
        plan: "list[BlockAccess] | SparseAccessPlan"
        if sparse is None:
            plan = _dedup(operands)
        else:
            plan = SparseAccessPlan(operands, sparse.tensor_index,
                                    sparse.coverage)
        self._access_plan_cache[key] = plan
        return plan


class SparseAccessPlan:
    """Everything about a sparse launch's accesses except the draw.

    Holds each operand's ordered block accesses. :meth:`draw` picks the
    sparse operand's subset — a random subset in random order, the
    irregular embedding access — from the device RNG, then deduplicates
    in operand order. The draw is one ``permutation`` (full coverage) or
    one ``choice`` without replacement per launch, with arguments fixed
    by the plan, so a replayed launch consumes the RNG exactly as a live
    one does.
    """

    __slots__ = ("operands", "tensor_index", "_count")

    def __init__(self, operands: list[list[BlockAccess]], tensor_index: int,
                 coverage: float):
        self.operands = operands
        self.tensor_index = tensor_index
        self._count = max(1, int(len(operands[tensor_index]) * coverage))

    def draw(self, rng) -> list[BlockAccess]:
        """One launch's ordered, deduplicated accesses."""
        parts = self.operands[self.tensor_index]
        n = len(parts)
        if self._count >= n:
            chosen = rng.permutation(n)
        else:
            chosen = rng.choice(n, size=self._count, replace=False)
        ops = list(self.operands)
        ops[self.tensor_index] = [parts[i] for i in chosen.tolist()]
        return _dedup(ops)


def _dedup(operands: list[list[BlockAccess]]) -> list[BlockAccess]:
    """Concatenate, keeping each block's first access."""
    seen: set[int] = set()
    accesses: list[BlockAccess] = []
    for ops in operands:
        for acc in ops:
            idx = acc.block.index
            if idx in seen:
                continue
            seen.add(idx)
            accesses.append(acc)
    return accesses
