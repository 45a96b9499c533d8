"""Cached sparse access plans draw exactly what a per-launch rebuild drew.

The oracle below is the access builder as it was before sparse plans were
cached: decompose every operand on every launch, draw the sparse operand's
subset from the device RNG, deduplicate in operand order. The cached plan
must produce the same access list, in the same order, and leave the RNG
in the same state after every draw.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import GPUSpec, HostSpec, SystemConfig
from repro.constants import MiB, UM_BLOCK_SIZE
from repro.core.um_manager import SparseAccessPlan, UMMemoryManager
from repro.sim.engine import BlockAccess, UMSimulator
from repro.torchsim.backend import UMBackend
from repro.torchsim.context import Device
from repro.torchsim.kernels import KernelLaunch, SparseAccess

HOST = 1024 * MiB


def oracle_accesses(manager, launch, device):
    """The pre-cache sparse path of the access builder, verbatim."""
    um = manager.engine.um
    sparse = launch.sparse
    seen = set()
    accesses = []
    for pos, tensor in enumerate(launch.operands):
        parts = manager._decompose(tensor.addr, tensor.nbytes)
        if pos == sparse.tensor_index:
            count = max(1, int(len(parts) * sparse.coverage))
            if count >= len(parts):
                chosen = device.rng.permutation(len(parts))
            else:
                chosen = device.rng.choice(len(parts), size=count,
                                           replace=False)
            parts = [parts[int(i)] for i in chosen]
        for idx, pages in parts:
            if idx in seen:
                continue
            seen.add(idx)
            accesses.append(BlockAccess(block=um.block(idx), pages=pages))
    return accesses


def make(seed):
    system = SystemConfig(gpu=GPUSpec(memory_bytes=64 * MiB),
                          host=HostSpec(memory_bytes=HOST))
    engine = UMSimulator(system)
    manager = UMMemoryManager(engine, host_capacity=HOST)
    device = Device.with_backend(UMBackend(um=engine.um, host_capacity=HOST),
                                 manager, seed=seed)
    return manager, device


def launches(device, sizes, kernels):
    """Sparse launches over shared tensors; ``index`` picks the sparse
    operand among the launch's deduplicated operands."""
    tensors = [device.empty((n,)) for n in sizes]
    out = []
    for picks, index, coverage in kernels:
        ops = [tensors[i % len(tensors)] for i in picks]
        distinct = len({id(t) for t in ops})
        out.append(KernelLaunch(
            name="k", arg_signature=("k",), reads=ops[:-1] or ops,
            writes=ops[-1:], flops=1.0,
            sparse=SparseAccess(tensor_index=index % distinct,
                                coverage=coverage)))
    return out


def as_pairs(accesses):
    return [(a.block.index, a.pages) for a in accesses]


#: float32 element counts: whole UM blocks plus a partial one, so tensors
#: range from a sliver of one block (small-pool neighbours share blocks)
#: to several blocks (a real subset to draw).
elements = st.builds(lambda blocks, part: blocks * (UM_BLOCK_SIZE // 4) + part,
                     st.integers(0, 8), st.integers(1, UM_BLOCK_SIZE // 4))
kernel = st.tuples(st.lists(st.integers(0, 7), min_size=1, max_size=4),
                   st.integers(0, 3),
                   st.floats(0.01, 1.0))


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(elements, min_size=1, max_size=5),
       kernels=st.lists(kernel, min_size=1, max_size=4),
       repeats=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
@example(sizes=[16 * UM_BLOCK_SIZE // 4, 1024, 64],
         kernels=[([0, 1, 2], 0, 0.25), ([1, 2, 0], 2, 1.0)],
         repeats=3, seed=0)
# 2.5 MB then 1.25 MB: the second tensor lands in the first one's split
# segment remainder, sharing a UM block with the sparse operand.
@example(sizes=[5 * UM_BLOCK_SIZE // 16, 5 * UM_BLOCK_SIZE // 32],
         kernels=[([1, 0], 1, 0.5), ([0, 1], 0, 1.0)], repeats=3, seed=7)
def test_cached_plan_draws_like_rebuild(sizes, kernels, repeats, seed):
    old_manager, old_device = make(seed)
    new_manager, new_device = make(seed)
    old = launches(old_device, sizes, kernels)
    new = launches(new_device, sizes, kernels)
    plans = {}
    for _ in range(repeats):
        for lo, ln in zip(old, new):
            want = oracle_accesses(old_manager, lo, old_device)
            plan = new_manager._access_plan(ln)
            assert isinstance(plan, SparseAccessPlan)
            assert plans.setdefault(id(ln), plan) is plan  # one per key
            got = plan.draw(new_device.rng)
            assert as_pairs(got) == as_pairs(want)
            assert (new_device.rng.bit_generator.state
                    == old_device.rng.bit_generator.state)
    assert new_manager.populated_bytes == old_manager.populated_bytes
