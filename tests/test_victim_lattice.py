"""Differential tests for the victim lattice shared by both eviction paths.

The lattice walks (:func:`repro.policies.eviction.demand_victims` and
:func:`~repro.policies.eviction.background_victims`) stop early on the
device's resident counts. The references below are the full scans they
replaced, kept here as oracles: every victim list, in order, and every
skip counter must match them on random residency histories, and the
device's counts must survive a recount after every step.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import FaultCosts, LinkSpec
from repro.core.preevict import PreEvictor
from repro.policies.eviction import ProtectedLRUEvictionPolicy
from repro.sim.fault_handler import DriverFaultHandler
from repro.sim.gpu import GPUMemory
from repro.sim.interconnect import PCIeLink
from repro.sim.um_space import (
    ADVISE_ALL,
    ADVISE_CPU,
    ADVISE_STICKY,
    BlockLocation,
    UnifiedMemorySpace,
)

PAGE = 4096
NUM_BLOCKS = 24


# ---------------------------------------------------------------- oracles


def reference_demand(gpu, needed_bytes, protected, prefer_invalidated):
    """The demand path as a full scan: fill five tiers, then truncate."""
    dead, eager, cold, sticky, hot = [], [], [], [], []
    for blk in gpu.migration_order():
        if blk.index in protected:
            hot.append(blk)
        elif prefer_invalidated and blk.invalidated:
            dead.append(blk)
        elif blk.advice & ADVISE_CPU:
            eager.append(blk)
        elif blk.advice & ADVISE_STICKY:
            sticky.append(blk)
        else:
            cold.append(blk)
    victims, reclaimed = [], 0
    for blk in (*dead, *eager, *cold, *sticky, *hot):
        if reclaimed >= needed_bytes:
            break
        victims.append(blk)
        reclaimed += blk.populated_bytes
    return victims


def reference_background(gpu, protected, batch):
    """The pre-evictor as a scan that recounts the invalidated supply.

    Returns ``(victims, protected_skips, hint_skips)``.
    """
    victims, live = [], []
    skips = hint_skips = 0
    inval_ahead = sum(b.invalidated for b in gpu.migration_order())
    for blk in gpu.migration_order():
        if len(live) >= batch and inval_ahead == 0:
            break
        if blk.invalidated:
            inval_ahead -= 1
        if blk.index in protected:
            if (len(victims) if blk.invalidated else len(live)) < batch:
                skips += 1
            continue
        if blk.advice and not blk.invalidated:
            if blk.advice & ADVISE_STICKY:
                if len(live) < batch:
                    hint_skips += 1
                continue
            if blk.advice & ADVISE_CPU:
                continue
        if blk.invalidated:
            victims.append(blk)
            if len(victims) >= batch:
                break
        elif len(live) < batch:
            live.append(blk)
    if len(victims) < batch:
        victims.extend(live[: batch - len(victims)])
    return victims, skips, hint_skips


# ---------------------------------------------------------------- harness


class _Protected:
    def __init__(self):
        self.blocks: set[int] = set()

    def protected_blocks(self) -> set[int]:
        return self.blocks


def _stack(capacity_blocks: int = NUM_BLOCKS):
    um = UnifiedMemorySpace()
    gpu = GPUMemory(capacity_bytes=capacity_blocks * um.block_size)
    handler = DriverFaultHandler(
        um=um, gpu=gpu,
        link=PCIeLink(bandwidth=LinkSpec().bandwidth,
                      latency=LinkSpec().latency),
        costs=FaultCosts())
    return um, gpu, handler


_block = st.integers(0, NUM_BLOCKS - 1)
_advice = st.integers(0, ADVISE_ALL)
#: Blocks admitted in order: (pages, invalidated, advice, flagged before
#: or after admission).
_initial = st.lists(
    st.tuples(st.integers(0, 512), st.booleans(), _advice, st.booleans()),
    max_size=NUM_BLOCKS)
_mutation = st.one_of(
    st.tuples(st.just("admit"), _block, st.integers(0, 512)),
    st.tuples(st.just("remove"), _block, st.booleans()),
    st.tuples(st.just("invalidate"), _block, st.booleans()),
    st.tuples(st.just("advise"), _block, _advice),
)
#: (protected set, needed bytes, batch, prefer_invalidated, protect).
_query = st.tuples(
    st.frozensets(_block, max_size=NUM_BLOCKS // 2),
    st.integers(-1, NUM_BLOCKS * 512 * PAGE),
    st.integers(1, 8), st.booleans(), st.booleans())


def _apply(um, gpu, op, now):
    kind, idx, arg = op
    blk = um.block(idx)
    if kind == "admit":
        if not gpu.is_resident(blk):
            blk.populate(arg)
            if gpu.has_room_for(blk):
                blk.location = BlockLocation.CPU
                gpu.admit(blk, now)
    elif kind == "remove":
        gpu.remove(blk, to_cpu=arg)
    elif kind == "invalidate":
        gpu.set_invalidated(blk, arg)
    else:
        gpu.set_advice(blk, arg)


def _check_query(gpu, provider, preevictor, query, now):
    protected, needed, batch, prefer, protect = query
    provider.blocks = set(protected)
    demand = ProtectedLRUEvictionPolicy(
        provider, prefer_invalidated=prefer, protect_predicted=protect)
    want = reference_demand(gpu, needed, provider.blocks if protect else (),
                            prefer)
    got = demand.select_victims(gpu, needed, now)
    assert [b.index for b in got] == [b.index for b in want]

    preevictor.batch_blocks = batch
    before = (preevictor.stats.protected_skips, preevictor.stats.hint_skips)
    want_bg, skips, hint_skips = reference_background(
        gpu, provider.blocks, batch)
    got_bg = preevictor.select_victims()
    assert [b.index for b in got_bg] == [b.index for b in want_bg]
    assert (preevictor.stats.protected_skips - before[0],
            preevictor.stats.hint_skips - before[1]) == (skips, hint_skips)


@settings(max_examples=200, deadline=None)
@given(_initial, st.lists(st.tuples(_mutation, _query), max_size=30))
# A full cold list ahead of a sticky block, with a dead block still ahead:
# the sticky block is not a deferral, so it is no hint skip.
@example([(1, False, 0, True), (1, False, 1, True), (1, True, 0, True)],
         [(("advise", 0, 0), (frozenset(), 1, 1, True, True))])
# Only the hot tier can cover the need.
@example([(1, False, 0, True)],
         [(("advise", 0, 0), (frozenset({0}), 1, 1, True, True))])
def test_both_paths_match_the_full_scans(initial, steps):
    um, gpu, handler = _stack()
    provider = _Protected()
    preevictor = PreEvictor(gpu, handler, provider)
    for idx, (pages, invalidated, advice, before) in enumerate(initial):
        blk = um.block(idx)
        blk.populate(pages)
        if before:
            gpu.set_invalidated(blk, invalidated)
            gpu.set_advice(blk, advice)
        gpu.admit(blk, float(idx))
        if not before:
            gpu.set_invalidated(blk, invalidated)
            gpu.set_advice(blk, advice)
    gpu.check_invariants()
    for step, (mutation, query) in enumerate(steps, start=len(initial)):
        _check_query(gpu, provider, preevictor, query, float(step))
        _apply(um, gpu, mutation, float(step))
        gpu.check_invariants()


def test_counts_follow_admission_and_the_advice_writer():
    um, gpu, _ = _stack()
    blk = um.block(3)
    gpu.set_advice(blk, ADVISE_CPU | ADVISE_STICKY)  # not resident yet
    assert (gpu.cpu_preferred_resident, gpu.sticky_resident) == (0, 0)
    blk.populate(512)
    gpu.admit(blk, 0.0)
    assert (gpu.cpu_preferred_resident, gpu.sticky_resident) == (1, 1)
    gpu.set_advice(blk, ADVISE_STICKY)
    assert (gpu.cpu_preferred_resident, gpu.sticky_resident) == (0, 1)
    gpu.remove(blk)
    assert (gpu.cpu_preferred_resident, gpu.sticky_resident) == (0, 0)
    gpu.check_invariants()


def test_check_invariants_catches_a_bypassed_writer():
    um, gpu, _ = _stack()
    blk = um.block(0)
    blk.populate(512)
    gpu.admit(blk, 0.0)
    blk.advice = ADVISE_CPU  # bypasses GPUMemory.set_advice
    with pytest.raises(AssertionError, match="cpu_preferred_resident"):
        gpu.check_invariants()


def test_manager_advice_keeps_resident_counts_exact(tiny_system):
    from repro.core.deepum import DeepUM
    from repro.sim.um_space import MemAdvise

    facade = DeepUM(tiny_system)
    tensor = facade.device.empty((256, 1024))
    gpu = facade.engine.gpu
    blocks = facade.engine.um.blocks_of(tensor.addr, tensor.nbytes)
    for blk in blocks:
        blk.populate(blk.capacity_pages)
        gpu.admit(blk, 0.0)
    facade.advise(tensor, int(MemAdvise.PREFERRED_LOCATION_CPU))
    assert gpu.cpu_preferred_resident == len(blocks)
    gpu.check_invariants()
