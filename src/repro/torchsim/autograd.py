"""Tape-based reverse-mode autograd over kernel traces.

Forward functional ops push :class:`TapeEntry` records; ``Tape.backward``
walks them in reverse, invoking each entry's backward closure (which emits
the backward kernels and produces input gradients), accumulating gradients
that fan in from several consumers, and — crucially for the paper's
invalidation optimization — freeing saved activations and consumed gradient
tensors as soon as they are dead, so the caching allocator sees the real
PyTorch alloc/free churn. Forward-only passes (inference) end with
``Tape.release`` instead, which frees every recorded activation the same
way without emitting a kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from .context import Device
    from .tensor import Tensor

# A backward closure maps the output gradient to per-input gradients
# (None for inputs that need no gradient).
BackwardFn = Callable[["Tensor"], Sequence[Optional["Tensor"]]]


@dataclass
class TapeEntry:
    """One differentiable op recorded during the forward pass."""

    name: str
    inputs: tuple["Tensor", ...]
    output: "Tensor"
    backward: BackwardFn
    saved: tuple["Tensor", ...] = ()

    def release_saved(self) -> None:
        for t in self.saved:
            if not t.persistent and t.alive:
                t.release()


@dataclass
class Tape:
    """Execution tape for one training step or inference pass."""

    device: "Device"
    entries: list[TapeEntry] = field(default_factory=list)

    def record(
        self,
        name: str,
        inputs: Sequence["Tensor"],
        output: "Tensor",
        backward: BackwardFn,
        saved: Sequence["Tensor"] = (),
    ) -> None:
        for t in saved:
            if not t.persistent:
                t.storage.retain()
        self.entries.append(
            TapeEntry(name, tuple(inputs), output, backward, tuple(saved))
        )

    # ------------------------------------------------------------------ #

    def backward(self, loss: "Tensor") -> None:
        """Backpropagate from ``loss`` through every recorded entry.

        Parameter gradients are accumulated into ``tensor.grad`` (allocated
        persistently on first use); activation gradients are transient and
        freed once their producing entry has consumed them.
        """
        from . import functional as F

        grads: dict[int, "Tensor"] = {}
        consumers: dict[int, int] = {}
        for entry in self.entries:
            for t in entry.inputs:
                if t.requires_grad or not t.persistent:
                    consumers[id(t)] = consumers.get(id(t), 0) + 1

        grads[id(loss)] = F.ones_like(self.device, loss, name="grad_loss")

        for entry in reversed(self.entries):
            grad_out = grads.pop(id(entry.output), None)
            if grad_out is None:
                entry.release_saved()
                self._release_output(entry)
                continue
            input_grads = entry.backward(grad_out)
            if len(input_grads) != len(entry.inputs):
                raise RuntimeError(
                    f"{entry.name}: backward returned {len(input_grads)} grads "
                    f"for {len(entry.inputs)} inputs"
                )
            for t, g in zip(entry.inputs, input_grads):
                if g is None:
                    continue
                if t.requires_grad and t.persistent:
                    self._accumulate_param_grad(t, g)
                else:
                    self._merge_activation_grad(grads, t, g)
            if not grad_out.persistent and grad_out.alive:
                grad_out.release()
            entry.release_saved()
            self._release_output(entry)

        # Gradients for leaves nobody produced (e.g. inputs) are dropped.
        for g in grads.values():
            if not g.persistent and g.alive:
                g.release()
        grads.clear()
        self.entries.clear()

    def release(self) -> None:
        """End a forward-only pass: free every activation it recorded.

        Walks the entries in reverse and makes the calls :meth:`backward`
        makes for an entry that receives no gradient, so an inference pass
        returns the allocator to where it started — the frees DeepUM's
        invalidation relies on, and the address reuse that lets the
        iteration replayer recognise a repeating request.
        """
        for entry in reversed(self.entries):
            entry.release_saved()
            self._release_output(entry)
        self.entries.clear()

    @staticmethod
    def _release_output(entry: TapeEntry) -> None:
        """Free an activation once every consumer (already processed in the
        reversed walk) and the entry itself are done with it.

        This is the sim's stand-in for Python GC dropping the last reference
        to an intermediate tensor in a real PyTorch training step.
        """
        out = entry.output
        if not out.persistent and out.alive:
            out.release()

    def _accumulate_param_grad(self, param: "Tensor", g: "Tensor") -> None:
        from . import functional as F

        if param.grad is None:
            param.grad = self.device.empty(
                param.shape, param.dtype, persistent=True, name=f"{param.name}.grad"
            )
            F.copy_(self.device, src=g, dst=param.grad)
        else:
            F.add_(self.device, dst=param.grad, src=g)
        if not g.persistent and g.alive:
            g.release()

    def _merge_activation_grad(
        self, grads: dict[int, "Tensor"], t: "Tensor", g: "Tensor"
    ) -> None:
        from . import functional as F

        existing = grads.get(id(t))
        if existing is None:
            grads[id(t)] = g
        else:
            F.add_(self.device, dst=existing, src=g)
            if not g.persistent and g.alive:
                g.release()
