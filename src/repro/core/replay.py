"""Steady-state replay: skip the model layer once a unit of work repeats.

Training loops are periodic, and so is a server answering same-shaped
requests: after the first couple of iterations (or requests) the torchsim
layer — graph construction, autograd, the optimizer — emits exactly the
same allocator/kernel event stream every time.  Re-deriving that stream is
pure overhead for the memory-system simulation, which only consumes it.
The :class:`IterationReplayer` records each live unit's events at the
allocator and memory-manager boundaries, and once consecutive units
produce identical streams it *replays* the recorded stream directly —
driving the real allocator (so invalidation listeners and
:class:`~repro.torchsim.allocator.AllocatorStats` stay exact) and the real
kernel path (so execution IDs, correlation tables and the engine see the
same calls) while skipping tensor and autograd bookkeeping entirely.

Why this is sound: the model layer is open-loop with respect to the memory
system.  Nothing in model or tensor code reads simulated time, engine
counters or driver state, UM allocation never fails, and no unit branches
on its iteration or request number — so the emitted stream is a function
of model-layer state alone, and a stream that repeats for consecutive
units repeats forever.  Two details keep it exact:

* irregular (sparse) launches draw their access subset from the device
  RNG every launch.  The manager caches one
  :class:`~repro.core.um_manager.SparseAccessPlan` per operand signature,
  so the recorded plan is identity-stable, and replay draws from the same
  RNG in the same order as a live unit would;
* allocator divergence during replay (an allocation returning a different
  address than recorded) raises :class:`ReplayDivergence` — a hard error,
  never silent corruption.

A unit that never repeats — a decode step whose KV-cache grows — simply
keeps executing live.  Replay preserves bit-identical simulated output by
construction: the allocator, runtime, driver and engine receive exactly the
calls a live unit would have made, in the same order, with the same
arguments.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..torchsim.allocator import PTBlock
    from ..torchsim.context import Device
    from ..torchsim.kernels import KernelLaunch
    from .um_manager import UMMemoryManager

#: Consecutive identical unit pairs required before replay engages (i.e.
#: three byte-identical iterations or requests in a row).
STABLE_PAIRS = 2

_ALLOC = 0
_FREE = 1
_LAUNCH = 2

#: Ages for free-event references: the allocation lives in the current or
#: the previous unit.  Frees of older blocks are not expressible and mark
#: the unit non-replayable.
_CUR = 0
_PREV = 1


class ReplayDivergence(RuntimeError):
    """Replay produced different allocator state than the recording."""


class _LaunchShim:
    """Stand-in payload for a replayed kernel launch.

    Carries exactly the fields the runtime, tracer and recorder read
    (``exec_signature`` pre-built as a plain attribute — it is hashed per
    launch).  Holding the original :class:`KernelLaunch` instead would pin
    its operand tensors alive and perturb free ordering.
    """

    __slots__ = ("name", "arg_signature", "exec_signature")

    def __init__(self, name: str, arg_signature: tuple):
        self.name = name
        self.arg_signature = arg_signature
        self.exec_signature = (name, arg_signature)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_LaunchShim({self.name!r})"


class IterationReplayer:
    """Records one unit's event stream; replays it once stable.

    Installed on :class:`~repro.torchsim.context.Device` by the UM-family
    facades. A unit is one call of :meth:`step`:
    :meth:`~repro.models.base.Workload.run` steps once per training
    iteration, and
    :meth:`~repro.serve.workloads.DLRMInferenceSession.serve_request` once
    per request.
    """

    def __init__(self, device: "Device", manager: "UMMemoryManager"):
        self.device = device
        self.manager = manager
        manager.replay_recorder = self
        manager.attach_allocator(device.allocator)
        self.replaying = False
        self.iterations_replayed = 0
        self._recording = False
        self._stable_pairs = 0
        self._stream: Optional[list] = None
        # Current / previous live unit, rolled by _end_record.
        self._events: list = []
        self._replayable = True
        self._prev_events: Optional[list] = None
        self._alloc_blocks: list = []
        self._prev_alloc_blocks: list = []
        self._cur_map: dict[int, int] = {}
        self._prev_map: dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # the per-unit entry
    # ------------------------------------------------------------------ #

    def step(self, fn: Callable[[], None]) -> bool:
        """Run one unit of work: replay it if stable, else ``fn`` live.

        Returns True when the unit was replayed (``fn`` did not run).
        """
        if self._stream is not None:
            self._replay_iteration()
            return True
        self._recording = True
        self._replayable = True
        try:
            fn()
        finally:
            self._recording = False
        self._end_record()
        return False

    # ------------------------------------------------------------------ #
    # recording (live units)
    # ------------------------------------------------------------------ #

    def on_launch(self, launch: "KernelLaunch", accesses: list,
                  compute: float) -> None:
        """Called by the manager for every live kernel launch."""
        if self._recording:
            self._events.append(
                (_LAUNCH, launch.name, launch.arg_signature, accesses, compute)
            )

    def on_block_state(self, block: "PTBlock", active: bool) -> None:
        """Called by the manager for every PT-block state change."""
        if not self._recording:
            return
        key = id(block)
        if active:
            # ``requested`` is the caller's size — what replay must pass
            # back to ``allocate`` to reproduce rounding and pool choice.
            self._cur_map[key] = len(self._alloc_blocks)
            self._alloc_blocks.append(block)
            self._events.append((_ALLOC, block.requested, block.addr))
            return
        idx = self._cur_map.get(key)
        if idx is not None and self._alloc_blocks[idx] is block:
            self._events.append((_FREE, _CUR, idx))
            return
        idx = self._prev_map.get(key)
        if idx is not None and self._prev_alloc_blocks[idx] is block:
            self._events.append((_FREE, _PREV, idx))
            return
        # Freeing a block allocated before the previous unit (warm-up
        # teardown): not expressible as a replayable reference.
        self._replayable = False

    def _end_record(self) -> None:
        prev = self._prev_events
        if (
            self._replayable
            and prev is not None
            and self._streams_equal(prev, self._events)
        ):
            self._stable_pairs += 1
        else:
            self._stable_pairs = 0
        if self._stable_pairs >= STABLE_PAIRS:
            self._stream = self._freeze(self._events)
            self._prev_alloc_blocks = self._alloc_blocks
        else:
            # A non-replayable unit contains events a replay could not
            # express (it recorded no marker for them), so it must never
            # anchor a stable pair: drop it instead of comparing against it.
            self._prev_events = self._events if self._replayable else None
            self._prev_alloc_blocks = self._alloc_blocks
            self._prev_map = self._cur_map
        self._events = []
        self._alloc_blocks = []
        self._cur_map = {}

    @staticmethod
    def _streams_equal(a: list, b: list) -> bool:
        if len(a) != len(b):
            return False
        for ea, eb in zip(a, b):
            if ea[0] != eb[0]:
                return False
            if ea[0] == _LAUNCH:
                # The access plan must be the *same object*: the
                # manager's plan caches return one object per operand
                # signature, so identity certifies an identical access
                # sequence (for a sparse plan, an identical draw to make).
                if (
                    ea[3] is not eb[3]
                    or ea[1] != eb[1]
                    or ea[2] != eb[2]
                    or ea[4] != eb[4]
                ):
                    return False
            elif ea != eb:
                return False
        return True

    @staticmethod
    def _freeze(events: list) -> list:
        """Pre-build launch shims so replay allocates nothing per kernel."""
        frozen = []
        for ev in events:
            if ev[0] == _LAUNCH:
                frozen.append(
                    (_LAUNCH, _LaunchShim(ev[1], ev[2]), ev[3], ev[4])
                )
            else:
                frozen.append(ev)
        return frozen

    # ------------------------------------------------------------------ #
    # replay
    # ------------------------------------------------------------------ #

    def _replay_iteration(self) -> None:
        device = self.device
        allocate = device.allocator.allocate
        free = device.allocator.free
        replay_kernel = self.manager.replay_kernel
        prev_blocks = self._prev_alloc_blocks
        new_blocks: list = []
        append = new_blocks.append
        self.replaying = True
        try:
            for ev in self._stream:
                kind = ev[0]
                if kind == _LAUNCH:
                    device.kernel_count += 1
                    replay_kernel(ev[1], ev[2], ev[3], device)
                elif kind == _ALLOC:
                    block = allocate(ev[1])
                    if block.addr != ev[2]:
                        raise ReplayDivergence(
                            f"replayed allocation of {ev[1]} B returned "
                            f"addr {block.addr:#x}, recorded {ev[2]:#x}"
                        )
                    append(block)
                else:
                    free(new_blocks[ev[2]] if ev[1] == _CUR
                         else prev_blocks[ev[2]])
        finally:
            self.replaying = False
        self._prev_alloc_blocks = new_blocks
        self.iterations_replayed += 1
