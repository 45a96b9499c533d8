"""The DeepUM runtime (Section 3.1, userspace side).

In the paper this is an ``LD_PRELOAD`` library wrapping CUDA allocation and
kernel-launch calls: allocations are redirected into UM space, and every
launch is preceded by a callback delivering the launch's *execution ID*
(assigned from a hash of kernel name + arguments) to the driver. Here the
wrapping happens at the memory-manager boundary: the runtime sits between
the torchsim kernel stream and the engine, assigning execution IDs and
invoking the driver callback before each launch.
"""

from __future__ import annotations

from ..torchsim.allocator import PTBlock
from ..torchsim.kernels import KernelLaunch
from .driver import DeepUMDriver
from .exec_table import ExecutionIDTable


class DeepUMRuntime:
    """Assigns execution IDs and forwards them to the driver."""

    def __init__(self, driver: DeepUMDriver):
        self.driver = driver
        self.exec_ids = ExecutionIDTable()
        self.launches = 0

    def before_launch(self, launch: KernelLaunch, now: float) -> int:
        """The wrapper around cuLaunchKernel: callback, then launch."""
        exec_id = self.exec_ids.assign(launch.exec_signature)
        self.driver.notify_execution_id(exec_id, now)
        self.launches += 1
        return exec_id

    def on_pt_block_state(self, pt_block: PTBlock, active: bool) -> None:
        """PT block (in)activity, forwarded by the memory manager's
        allocator listener (:meth:`UMMemoryManager.attach_allocator`)."""
        self.driver.notify_pt_block_state(pt_block, active)
