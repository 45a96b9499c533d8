"""Tape autograd: backward graph generation, grad accumulation, freeing."""

from repro.torchsim import functional as F
from repro.torchsim.autograd import Tape
from repro.torchsim.dtypes import int64
from repro.torchsim.layers import Linear


def names(device):
    return [l.name for l in device.manager.launches]


def test_backward_emits_reverse_kernels(sim_device):
    tape = Tape(device=sim_device)
    lin = Linear(sim_device, 8, 8)
    x = sim_device.empty((2, 8))
    y = lin(tape, x)
    t = sim_device.empty((2,), int64, persistent=True)
    loss = F.cross_entropy(tape, y, t)
    tape.backward(loss)
    seq = names(sim_device)
    assert seq.index("sgemm") < seq.index("cross_entropy_fwd")
    assert seq.index("cross_entropy_bwd") < seq.index("sgemm_bwd_data")
    assert "sgemm_bwd_weight" in seq


def test_param_grads_allocated_and_persistent(sim_device):
    tape = Tape(device=sim_device)
    lin = Linear(sim_device, 8, 8)
    x = sim_device.empty((2, 8))
    y = lin(tape, x)
    t = sim_device.empty((2,), int64, persistent=True)
    tape.backward(F.cross_entropy(tape, y, t))
    assert lin.weight.grad is not None
    assert lin.weight.grad.persistent
    assert lin.weight.grad.shape == lin.weight.shape


def test_second_backward_accumulates_into_existing_grad(sim_device):
    lin = Linear(sim_device, 8, 8)
    t = sim_device.empty((2,), int64, persistent=True)
    for _ in range(2):
        tape = Tape(device=sim_device)
        x = sim_device.empty((2, 8))
        tape.backward(F.cross_entropy(tape, lin(tape, x), t))
        x.release()
    seq = names(sim_device)
    assert "copy" in seq        # first iteration writes the fresh grad
    assert "accumulate" in seq  # second iteration adds into it


def test_fanout_grads_accumulate(sim_device):
    """A tensor consumed twice receives the sum of both branch grads."""
    tape = Tape(device=sim_device)
    x = sim_device.empty((4, 4))
    a = F.relu(tape, x)
    y = F.add(tape, a, a)
    loss = F.mse_loss(tape, y, sim_device.empty((4, 4), persistent=True))
    tape.backward(loss)
    assert "accumulate" in names(sim_device)


def test_activations_freed_after_backward(sim_device):
    """No leak: steady-state allocated bytes return to persistent-only."""
    lin = Linear(sim_device, 32, 32)
    t = sim_device.empty((4,), int64, persistent=True)

    def step():
        tape = Tape(device=sim_device)
        x = sim_device.empty((4, 32))
        h = F.gelu(tape, lin(tape, x))
        tape.backward(F.cross_entropy(tape, h, t))
        x.release()

    step()
    after_one = sim_device.allocator.stats.allocated_bytes
    for _ in range(3):
        step()
    assert sim_device.allocator.stats.allocated_bytes == after_one


def test_unused_branch_is_released(sim_device):
    """Entries whose output gets no gradient still free their memory."""
    tape = Tape(device=sim_device)
    x = sim_device.empty((4, 4))
    dead = F.relu(tape, x)   # never contributes to the loss
    live = F.tanh(tape, x)
    loss = F.mse_loss(tape, live, sim_device.empty((4, 4), persistent=True))
    tape.backward(loss)
    assert not dead.alive


def test_tape_clears_after_backward(sim_device):
    tape = Tape(device=sim_device)
    x = sim_device.empty((4, 4))
    y = F.relu(tape, x)
    tape.backward(F.mse_loss(tape, y, sim_device.empty((4, 4), persistent=True)))
    assert tape.entries == []


def test_release_frees_forward_activations(sim_device):
    """A forward-only pass returns the allocator to where it started and
    emits no kernel."""
    lin = Linear(sim_device, 8, 8)
    x = sim_device.empty((2, 8), persistent=True)
    before = sim_device.allocator.stats.allocated_bytes
    tape = Tape(device=sim_device)
    y = F.relu(tape, lin(tape, x))
    F.gelu(tape, y)
    assert sim_device.allocator.stats.allocated_bytes > before
    launched = len(sim_device.manager.launches)
    tape.release()
    assert tape.entries == []
    assert sim_device.allocator.stats.allocated_bytes == before
    assert len(sim_device.manager.launches) == launched
    assert not y.alive and x.alive


def test_release_frees_tape_owned_buffers(sim_device):
    """Normalization stats, dropout masks and pooling indices are owned by
    the tape, so a forward-only pass frees them too."""
    d = sim_device
    x = d.empty((2, 4, 8, 8), persistent=True)
    params = [d.empty((4,), persistent=True) for _ in range(4)]
    before = d.allocator.stats.allocated_bytes
    tape = Tape(device=d)
    y = F.batch_norm2d(tape, x, params[0], params[1])
    y = F.max_pool2d(tape, y, kernel=2, stride=2)         # [2, 4, 4, 4]
    y = F.dropout(tape, y, 0.1)
    F.layer_norm(tape, y, params[2], params[3])
    tape.release()
    assert d.allocator.stats.allocated_bytes == before

