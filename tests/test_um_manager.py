"""UMMemoryManager: block decomposition, population accounting, sparsity."""

import pytest

from repro.config import GPUSpec, HostSpec, SystemConfig
from repro.constants import GiB, MiB, PAGE_SIZE, UM_BLOCK_SIZE
from repro.core.um_manager import UMCapacityError, UMMemoryManager
from repro.sim.engine import UMSimulator
from repro.torchsim.backend import UMBackend
from repro.torchsim.context import Device
from repro.torchsim.kernels import KernelLaunch, SparseAccess


def make(host_mb=1024):
    system = SystemConfig(gpu=GPUSpec(memory_bytes=64 * MiB),
                          host=HostSpec(memory_bytes=host_mb * MiB))
    engine = UMSimulator(system)
    manager = UMMemoryManager(engine, host_capacity=host_mb * MiB)
    device = Device.with_backend(
        UMBackend(um=engine.um, host_capacity=host_mb * MiB), manager)
    return engine, manager, device


def launch(tensors, name="k", flops=1e6, sparse=None):
    return KernelLaunch(name=name, arg_signature=(name,),
                        reads=list(tensors), writes=list(tensors[-1:]),
                        flops=flops, sparse=sparse)


def test_decompose_covers_tensor_exactly():
    engine, manager, device = make()
    t = device.empty((UM_BLOCK_SIZE // 4 + 1024,))  # ~2 blocks + change
    parts = manager._decompose(t.addr, t.nbytes)
    assert sum(pages for _, pages in parts) \
        == -(-t.nbytes // PAGE_SIZE)
    indices = [idx for idx, _ in parts]
    assert indices == sorted(indices)


def test_population_counted_once_per_range():
    engine, manager, device = make()
    t = device.empty((1024, 1024))
    manager._decompose(t.addr, t.nbytes)
    populated = manager.populated_bytes
    manager._decompose(t.addr, t.nbytes)  # cache hit: no double counting
    assert manager.populated_bytes == populated


def test_peak_population_tracks_maximum():
    engine, manager, device = make()
    a = device.empty((1024, 1024))
    device.submit(launch([a]))
    peak = manager.peak_populated_bytes
    assert peak >= a.nbytes
    assert manager.peak_populated_bytes == peak


def test_host_capacity_error():
    engine, manager, device = make(host_mb=8)
    with pytest.raises(UMCapacityError):
        big = device.empty((16 * MiB,))
        device.submit(launch([big]))


def test_capacity_error_mutates_nothing():
    """Regression pin: an overshooting ``_decompose`` used to populate
    blocks, bump the counters, and emit ``mem.grow`` events before
    raising. A caught OOM must leave the accounting exactly as it was."""
    from repro.obs import SpanRecorder
    from repro.obs.recorder import TRACK_MEMORY

    engine, manager, device = make(host_mb=8)
    recorder = SpanRecorder()
    engine.recorder = recorder
    small = device.empty((1024,))
    device.submit(launch([small]))

    populated = manager.populated_bytes
    peak = manager.peak_populated_bytes
    cache = dict(manager._decomp_cache)
    pages_before = {idx: blk.populated_pages
                    for idx, blk in engine.um._blocks.items()
                    if blk.populated_pages}
    events_before = len(recorder.instants)

    big = device.empty((16 * MiB,))  # virtual alloc: cannot fail yet
    with pytest.raises(UMCapacityError) as err:
        manager._decompose(big.addr, big.nbytes)
    assert "exceeds host capacity" in str(err.value)

    assert manager.populated_bytes == populated
    assert manager.peak_populated_bytes == peak
    assert manager._decomp_cache == cache  # the failed range is not cached
    assert {idx: blk.populated_pages
            for idx, blk in engine.um._blocks.items()
            if blk.populated_pages} == pages_before
    grow_events = [ev for ev in recorder.instants[events_before:]
                   if ev.track == TRACK_MEMORY and ev.name == "mem.grow"]
    assert grow_events == []
    # The manager is still fully usable after the caught OOM.
    device.submit(launch([small], name="again"))
    assert manager.populated_bytes == populated


def test_accesses_deduplicate_blocks_across_operands():
    engine, manager, device = make()
    t = device.empty((1024,))
    k = launch([t, t, t])
    accesses = manager._access_plan(k)
    indices = [a.block.index for a in accesses]
    assert len(indices) == len(set(indices))


def test_sparse_subset_respects_coverage():
    engine, manager, device = make()
    table = device.empty((16 * UM_BLOCK_SIZE // 4,), persistent=True)
    k = launch([table], sparse=SparseAccess(tensor_index=0, coverage=0.25))
    accesses = manager._access_plan(k).draw(device.rng)
    full = len(manager._decompose(table.addr, table.nbytes))
    assert len(accesses) == max(1, int(full * 0.25))


def test_sparse_subset_order_varies_with_rng():
    engine, manager, device = make()
    table = device.empty((32 * UM_BLOCK_SIZE // 4,), persistent=True)
    k = launch([table], sparse=SparseAccess(tensor_index=0, coverage=0.5))
    plan = manager._access_plan(k)
    assert manager._access_plan(k) is plan  # one plan, a fresh draw each
    first = [a.block.index for a in plan.draw(device.rng)]
    second = [a.block.index for a in plan.draw(device.rng)]
    assert set(first) != set(second) or first != second


def test_runtime_callback_invoked_before_launch():
    from repro.config import DeepUMConfig
    from repro.core.deepum import DeepUM

    system = SystemConfig(gpu=GPUSpec(memory_bytes=64 * MiB),
                          host=HostSpec(memory_bytes=1 * GiB))
    deepum = DeepUM(system, DeepUMConfig())
    calls = []
    orig = deepum.driver.notify_execution_id
    deepum.driver.notify_execution_id = \
        lambda eid, now: (calls.append(eid), orig(eid, now))
    t = deepum.device.empty((1024,))
    deepum.device.submit(launch([t]))
    assert len(calls) == 1


def test_elapsed_includes_trailing_link_time():
    engine, manager, device = make()
    engine.link.occupy(0.0, int(12e9), to_gpu=True)  # ~1 s of transfer
    t = device.empty((1024,))
    device.submit(launch([t], flops=1.0))
    assert manager.elapsed() >= 1.0
