"""The device context: where tensors live and kernels are submitted.

A :class:`Device` binds together a caching allocator, a seeded RNG (used by
irregular workloads like DLRM), and a :class:`MemoryManager` — the policy
under test. Model code only ever talks to the device; swapping the manager
swaps the entire memory system (DeepUM, naive UM, LMS, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Protocol

import numpy as np

from .allocator import CachingAllocator
from .backend import MemoryBackend
from .dtypes import DType, float32
from .kernels import KernelLaunch
from . import tensor as _tensor

if TYPE_CHECKING:  # pragma: no cover
    from ..core.replay import IterationReplayer


class MemoryManager(Protocol):
    """A memory-management policy consuming the kernel stream."""

    def run_kernel(self, launch: KernelLaunch, device: "Device") -> None:
        """Simulate one kernel launch (advancing the policy's clock)."""
        ...

    def elapsed(self) -> float:
        """Simulated seconds so far."""
        ...

    def handle_alloc_oom(self, nbytes: int, device: "Device") -> bool:
        """React to an allocation failure (swap managers evict here).

        Returns True if the allocation should be retried.
        """
        ...

    def on_alloc(self, tensor: object, device: "Device") -> None:
        """A tensor was allocated (swap managers register residency here)."""
        ...


class SimpleManager:
    """Compute-only manager: no memory system, kernels cost nothing.

    Useful for unit tests of graph construction and for counting kernels.
    """

    def __init__(self) -> None:
        self.launches: list[KernelLaunch] = []

    def run_kernel(self, launch: KernelLaunch, device: "Device") -> None:
        self.launches.append(launch)

    def elapsed(self) -> float:
        return 0.0

    def handle_alloc_oom(self, nbytes: int, device: "Device") -> bool:
        return False

    def on_alloc(self, tensor: object, device: "Device") -> None:
        return None


@dataclass
class Device:
    """A simulated GPU device handle."""

    allocator: CachingAllocator
    manager: MemoryManager
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))
    kernel_count: int = 0
    #: Optional steady-state replayer (see repro.core.replay); consulted
    #: by Workload.run and DLRM serving. None: every unit executes live.
    replayer: Optional["IterationReplayer"] = None

    @staticmethod
    def with_backend(backend: MemoryBackend, manager: MemoryManager, seed: int = 0) -> "Device":
        return Device(
            allocator=CachingAllocator(backend),
            manager=manager,
            rng=np.random.default_rng(seed),
        )

    def empty(
        self,
        shape: tuple[int, ...],
        dtype: DType = float32,
        *,
        persistent: bool = False,
        name: str = "",
        requires_grad: bool = False,
    ) -> "_tensor.Tensor":
        from .allocator import TorchSimOOM

        while True:
            try:
                tensor = _tensor.empty(
                    self, shape, dtype,
                    persistent=persistent, name=name, requires_grad=requires_grad,
                )
                self.manager.on_alloc(tensor, self)
                return tensor
            except TorchSimOOM:
                # Swap-based managers free device memory here (LMS-style
                # eviction at cudaMalloc time); UM managers never OOM on
                # alloc. Each round must evict something, so this loop
                # terminates when the manager runs out of victims.
                nbytes = _tensor.required_bytes(shape, dtype)
                if not self.manager.handle_alloc_oom(nbytes, self):
                    raise

    def submit(self, launch: KernelLaunch) -> None:
        """Launch a kernel into the memory system under test."""
        self.kernel_count += 1
        self.manager.run_kernel(launch, self)

    def elapsed(self) -> float:
        return self.manager.elapsed()
