"""Common training-workload machinery shared by all nine models."""

from __future__ import annotations

from typing import Callable, Optional

from ..torchsim.autograd import Tape
from ..torchsim.context import Device
from ..torchsim.module import Module
from ..torchsim.optim import Optimizer
from ..torchsim.tensor import Tensor


class Workload:
    """One trainable model bound to a device.

    ``step_fn(tape, iteration)`` builds one training iteration's forward
    graph and returns the loss tensor; the workload then backpropagates and
    applies the optimizer — the same loop structure as a PyTorch script.
    """

    def __init__(
        self,
        name: str,
        device: Device,
        model: Module,
        optimizer: Optimizer,
        step_fn: Callable[[Tape, int], Tensor],
        extra_optimizers: Optional[list[Optimizer]] = None,
    ):
        self.name = name
        self.device = device
        self.model = model
        self.optimizer = optimizer
        self.step_fn = step_fn
        self.extra_optimizers = list(extra_optimizers or [])
        self.iterations_run = 0

    def step(self) -> None:
        """Run one full training iteration."""
        tape = Tape(device=self.device)
        loss = self.step_fn(tape, self.iterations_run)
        tape.backward(loss)
        for opt in [self.optimizer, *self.extra_optimizers]:
            opt.step()
            opt.zero_grad()
        self.iterations_run += 1

    def run(self, iterations: int) -> None:
        replayer = self.device.replayer
        for _ in range(iterations):
            if replayer is None:
                self.step()
            elif replayer.step(self.step):
                self.iterations_run += 1

    # ------------------------------------------------------------------ #

    @property
    def parameter_bytes(self) -> int:
        return self.model.parameter_bytes()

    def __repr__(self) -> str:
        return f"Workload({self.name}, params={self.model.num_parameters():,})"


def scaled(value: int, scale: float, *, minimum: int = 1, multiple: int = 1) -> int:
    """Scale a model dimension down, keeping it a positive multiple.

    Used to shrink the paper's models for laptop-sized simulation while the
    system config shrinks by a matching factor, preserving the
    footprint-to-GPU-memory ratios that drive oversubscription behaviour.
    """
    v = int(round(value * scale))
    v = max(minimum, v)
    if multiple > 1:
        v = max(multiple, (v // multiple) * multiple)
    return v
