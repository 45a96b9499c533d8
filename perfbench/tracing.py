"""Layer tracer for the benchmark's traced run.

Spans are recorded from the benchmark's side of each layer boundary: the
public entry points of each simulator layer are wrapped at class level for
the duration of a traced pass and restored afterwards, so facades built by
``repro.api.execute`` inside the pass pick up the wrappers. Two private
methods are wrapped because no public boundary exists at that grain:
``UMSimulator._drain_background`` (the migration thread's background drain)
and ``IterationReplayer._replay_iteration`` (one replayed iteration).

Each span has a layer, start and end (``perf_counter_ns``) and its parent
span. Rows are numbered in start order, so a span's cell is the last cell
that began at or before its row, and its request is that of its nearest
``serve.session`` ancestor. Spans are kept in memory in one flat array and
written out once, when the run ends. A layer's self time is the sum over
its spans of duration minus the time covered by child spans.

The layers' work counts are read from the simulator's own counters when
each cell ends (engine, fault handler, link, pre-evictor, correlator,
prefetcher). Prefetch coverage and accuracy follow the definitions of
``repro.obs.PolicyHealth`` (``prefetch_used / (prefetch_used + demand
faults)`` and ``prefetch_used / commands emitted``) but are counted at the
layer boundaries, because attaching a ``SpanRecorder`` to the
deep-oversubscription cell costs ~0.9 GB of host memory. A prefetched block
counts as used on its first access while resident and as wasted when it is
evicted first; the per-access check is a count-only probe on
``UMSimulator._perform_access`` that records no span.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Optional

from repro.baselines.tensor_swap import TensorSwapManager
from repro.core.correlator import Correlator
from repro.core.driver import DeepUMDriver
from repro.core.preevict import PreEvictor
from repro.core.prefetcher import ChainingPrefetcher
from repro.core.replay import IterationReplayer
from repro.core.um_manager import UMMemoryManager
from repro.harness import experiment as harness_experiment
from repro.models.base import Workload
from repro.policies.eviction import ProtectedLRUEvictionPolicy
from repro.serve import scenarios as serve_scenarios
from repro.serve.workloads import DLRMInferenceSession
from repro.sim.engine import UMSimulator
from repro.sim.fault_handler import DriverFaultHandler
from repro.sim.gpu import GPUMemory
from repro.sim.interconnect import PCIeLink
from repro.torchsim.allocator import CachingAllocator
from repro.torchsim.autograd import Tape
from repro.torchsim.module import Module

#: Layer name -> the (owner, attribute) entry points whose calls are spans
#: of that layer. The owner is a class, or a module for free functions.
LAYERS: dict[str, tuple[tuple[Any, str], ...]] = {
    "core.preevict": ((PreEvictor, "select_victims"),),
    "policies.eviction": ((ProtectedLRUEvictionPolicy, "select_victims"),),
    "core.prefetcher": (
        (ChainingPrefetcher, "on_kernel_launch"),
        (ChainingPrefetcher, "on_kernel_end"),
        (ChainingPrefetcher, "restart_from_fault"),
        (ChainingPrefetcher, "pop_command"),
    ),
    "core.driver": (
        (DeepUMDriver, "notify_execution_id"),
        (DeepUMDriver, "notify_pt_block_state"),
        (DeepUMDriver, "on_fault"),
        (DeepUMDriver, "on_kernel_end"),
    ),
    "core.correlator": (
        (Correlator, "on_kernel_launch"),
        (Correlator, "on_fault"),
    ),
    "core.replay": ((IterationReplayer, "_replay_iteration"),),
    "core.um_manager": (
        (UMMemoryManager, "run_kernel"),
        (UMMemoryManager, "replay_kernel"),
        (UMMemoryManager, "advise"),
    ),
    "sim.engine": (
        (UMSimulator, "execute_kernel"),
        (UMSimulator, "_drain_background"),
    ),
    "sim.fault_handler": (
        (DriverFaultHandler, "handle_batch"),
        (DriverFaultHandler, "make_room"),
        (DriverFaultHandler, "evict"),
        (DriverFaultHandler, "prefetch_block"),
    ),
    "sim.interconnect": ((PCIeLink, "occupy"),),
    "sim.gpu": ((GPUMemory, "admit"), (GPUMemory, "remove")),
    "torchsim.allocator": (
        (CachingAllocator, "allocate"),
        (CachingAllocator, "free"),
        (CachingAllocator, "empty_cache"),
    ),
    "torchsim.model": (
        (Workload, "step"),
        (Tape, "backward"),
        (Module, "__call__"),
    ),
    "baselines.tensor_swap": (
        (TensorSwapManager, "run_kernel"),
        (TensorSwapManager, "handle_alloc_oom"),
    ),
    "serve.session": ((DLRMInferenceSession, "serve_request"),),
    "harness.calibrate": (
        (harness_experiment, "calibrate_system"),
        (serve_scenarios, "calibrate_serve_system"),
    ),
}

#: Set-up is traced with only this layer wrapped, so its self time is the
#: whole calibration cost that ``setup_s`` pays.
SETUP_LAYER = "harness.calibrate"

#: Per-pass work counts, with units.
COUNT_UNITS = {
    "core.preevict.victims": "blocks",
    "policies.eviction.victims": "blocks",
    "core.prefetcher.prefetched": "blocks",
    "core.correlator.table_bytes": "B",
    "sim.engine.kernels": "count",
    "sim.fault_handler.faults": "faults",
    "sim.fault_handler.demand_evictions": "blocks",
    "sim.fault_handler.preevictions": "blocks",
    "sim.interconnect.bytes_in": "B",
    "sim.interconnect.bytes_out": "B",
}

#: Fields of one span row in :attr:`Tracer.spans`.
SPAN_FIELDS = ("layer", "start_ns", "end_ns", "parent")

_perf_ns = time.perf_counter_ns


class Tracer:
    """Span recorder and per-layer accumulator for one traced run.

    Single-threaded, like the simulator. Call :meth:`install` before the
    facades of a pass are built and :meth:`uninstall` after it;
    :meth:`begin_cell` / :meth:`end_cell` bracket each cell.
    """

    def __init__(self) -> None:
        self.layer_names = list(LAYERS)
        self._layer_id = {name: i for i, name in enumerate(self.layer_names)}
        self.spans = array("q")
        #: (first span row, cell index) for each cell begun.
        self.cell_rows: list[tuple[int, int]] = []
        #: (span row, request index) of every ``serve.session`` span.
        self.request_rows: list[tuple[int, int]] = []
        # Wrapper state, shared by every wrapper through closures and
        # mutated in place: next row, current span row, and the child time
        # accumulated by the current span (at the root: top-level time).
        self._next_row = [0]
        self._current = [-1]
        self._child_ns = [0]
        self.calls = [0] * len(self.layer_names)
        self.self_ns = [0] * len(self.layer_names)
        self.counts: dict[str, float] = {}
        self._unused_prefetches: set[int] = set()
        #: Simulated clocks (UM engines, tensor-swap managers) of the cell.
        self._clocks: dict[int, Any] = {}
        self._patches: list[tuple[Any, str, Any]] = []
        self.reset_totals()

    # ------------------------------------------------------------------ #
    # per-pass totals
    # ------------------------------------------------------------------ #

    def reset_totals(self) -> None:
        n = len(self.layer_names)
        self.calls[:] = [0] * n
        self.self_ns[:] = [0] * n
        self._child_ns[0] = 0
        self.counts.update(dict.fromkeys(COUNT_UNITS, 0))
        self.link_busy = 0.0
        self.sim_elapsed = 0.0
        self.prefetch_used = 0
        self.prefetch_faults = 0
        self.prefetch_commands = 0
        self._cell_used = 0
        self._unused_prefetches.clear()

    @property
    def top_ns(self) -> int:
        """Time covered by outermost spans since the last reset."""
        return self._child_ns[0]

    def begin_cell(self, cell: int) -> None:
        self.cell_rows.append((self._next_row[0], cell))
        self._cell_used = 0
        self._unused_prefetches.clear()

    def end_cell(self) -> None:
        """Fold the finished cell's simulator counters into the totals."""
        counts = self.counts
        for clock in self._clocks.values():
            self.sim_elapsed += clock.now
            link = clock.link
            self.link_busy += link.busy_time
            counts["sim.interconnect.bytes_in"] += link.bytes_to_gpu
            counts["sim.interconnect.bytes_out"] += link.bytes_to_cpu
            if not isinstance(clock, UMSimulator):
                continue
            stats = clock.handler.stats
            counts["sim.fault_handler.faults"] += stats.page_faults
            counts["sim.engine.kernels"] += clock.metrics.kernels
            counts["core.prefetcher.prefetched"] += \
                clock.metrics.prefetched_blocks
            preevictor = getattr(clock.hooks, "preevictor", None)
            pre = preevictor.stats.evicted_blocks if preevictor else 0
            counts["sim.fault_handler.preevictions"] += pre
            counts["sim.fault_handler.demand_evictions"] += (
                stats.evictions + stats.invalidated_evictions - pre)
            correlator = getattr(clock.hooks, "correlator", None)
            if correlator is not None:
                counts["core.correlator.table_bytes"] += \
                    correlator.table_size_bytes
            prefetcher = getattr(clock.hooks, "prefetcher", None)
            if prefetcher is not None:
                self.prefetch_commands += prefetcher.commands_emitted
                self.prefetch_used += self._cell_used
                self.prefetch_faults += stats.faulted_blocks
        self._clocks.clear()

    def pass_totals(self) -> dict[str, float]:
        """Per-layer figures since the last reset, keyed by metric name."""
        out: dict[str, float] = {}
        for i, name in enumerate(self.layer_names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_ns[i] / 1e9
        out.update(self.counts)
        out["sim.interconnect.busy_frac"] = (
            self.link_busy / self.sim_elapsed if self.sim_elapsed else 0.0)
        demand = self.prefetch_used + self.prefetch_faults
        out["core.prefetcher.coverage"] = (
            self.prefetch_used / demand if demand else 0.0)
        out["core.prefetcher.accuracy"] = (
            self.prefetch_used / self.prefetch_commands
            if self.prefetch_commands else 0.0)
        return out

    # ------------------------------------------------------------------ #
    # wrappers
    # ------------------------------------------------------------------ #

    def _span_wrapper(self, layer: str, call: Callable[..., Any]) -> Callable:
        """Wrap ``call`` in a span of ``layer``."""
        layer_id = self._layer_id[layer]
        spans, extend = self.spans, self.spans.extend
        next_row, current, child_ns = (self._next_row, self._current,
                                       self._child_ns)
        calls, self_ns = self.calls, self.self_ns

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = _perf_ns()
            row = next_row[0]
            next_row[0] = row + 1
            parent = current[0]
            current[0] = row
            saved = child_ns[0]
            child_ns[0] = 0
            extend((layer_id, start, 0, parent))
            try:
                return call(*args, **kwargs)
            finally:
                end = _perf_ns()
                duration = end - start
                spans[4 * row + 2] = end
                self_ns[layer_id] += duration - child_ns[0]
                calls[layer_id] += 1
                current[0] = parent
                child_ns[0] = saved + duration

        wrapper.__name__ = getattr(call, "__name__", layer)
        return wrapper

    def _hooks(self) -> dict[tuple[Any, str], Callable[..., Any]]:
        """Hook factories for some entry points: ``hook(func)`` returns a
        callable that calls ``func`` and notes what the cell-end counters
        cannot tell: victims chosen per policy, the live clocks of the
        cell, prefetched blocks not yet used, and the request a serve span
        belongs to."""
        counts = self.counts
        unused = self._unused_prefetches
        clocks = self._clocks
        request_rows, current = self.request_rows, self._current

        def victims(key: str) -> Callable[..., Any]:
            def hook(func):
                def call(*args, **kwargs):
                    result = func(*args, **kwargs)
                    counts[key] += len(result)
                    return result
                return call
            return hook

        def register_clock(func):
            def call(*args, **kwargs):
                clocks[id(args[0])] = args[0]
                return func(*args, **kwargs)
            return call

        def prefetch_block(func):
            def call(handler, block, *args, **kwargs):
                was_resident = block.index in handler.gpu.resident
                result = func(handler, block, *args, **kwargs)
                if result is not None and not was_resident:
                    unused.add(block.index)
                return result
            return call

        def gpu_remove(func):
            def call(gpu, block, *args, **kwargs):
                unused.discard(block.index)
                return func(gpu, block, *args, **kwargs)
            return call

        def serve_request(func):
            def call(session, index, *args, **kwargs):
                request_rows.append((current[0], index))
                return func(session, index, *args, **kwargs)
            return call

        return {
            (PreEvictor, "select_victims"): victims("core.preevict.victims"),
            (ProtectedLRUEvictionPolicy, "select_victims"):
                victims("policies.eviction.victims"),
            (UMSimulator, "execute_kernel"): register_clock,
            (TensorSwapManager, "run_kernel"): register_clock,
            (DriverFaultHandler, "prefetch_block"): prefetch_block,
            (GPUMemory, "remove"): gpu_remove,
            (DLRMInferenceSession, "serve_request"): serve_request,
        }

    def _access_probe(self, func: Callable[..., Any]) -> Callable[..., Any]:
        """Count-only wrapper on the per-access path: first use of a
        prefetched block. Records no span, to keep per-access cost low."""
        unused = self._unused_prefetches
        tracer = self

        def probe(engine, acc, t):
            idx = acc.block.index
            if idx in unused and idx in engine.gpu.resident:
                unused.discard(idx)
                tracer._cell_used += 1
            return func(engine, acc, t)

        probe.__wrapped__ = func  # type: ignore[attr-defined]
        return probe

    # ------------------------------------------------------------------ #
    # install / uninstall
    # ------------------------------------------------------------------ #

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, layers: Optional[list[str]] = None) -> None:
        """Wrap every entry point of ``layers`` (default: all layers)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        chosen = list(LAYERS) if layers is None else layers
        hooks = self._hooks()
        try:
            for layer in chosen:
                for owner, attr in LAYERS[layer]:
                    func = owner.__dict__[attr]
                    hook = hooks.get((owner, attr))
                    self._patch(owner, attr, self._span_wrapper(
                        layer, func if hook is None else hook(func)))
            if layers is None:
                self._patch(UMSimulator, "_perform_access", self._access_probe(
                    UMSimulator.__dict__["_perform_access"]))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every wrapped entry point (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._current[0] = -1

    # ------------------------------------------------------------------ #
    # output
    # ------------------------------------------------------------------ #

    @property
    def span_count(self) -> int:
        return self._next_row[0]

    def write(self, path: Path, meta: dict[str, Any]) -> None:
        """Write all spans: one JSON header line, then the raw span array
        (``int64`` in the recorded byte order, :data:`SPAN_FIELDS` per
        row; a parent of -1 marks an outermost span)."""
        header = {
            **meta,
            "layers": self.layer_names,
            "fields": list(SPAN_FIELDS),
            "rows": self.span_count,
            "byteorder": sys.byteorder,
            "cell_rows": self.cell_rows,
            "request_rows": self.request_rows,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            self.spans.tofile(fh)
