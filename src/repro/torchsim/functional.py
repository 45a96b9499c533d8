"""Differentiable functional ops.

Every op allocates its output through the caching allocator, emits one or
more forward :class:`KernelLaunch` records, and registers a backward closure
on the tape that emits the corresponding backward kernels. Argument
signatures include operand shapes plus the storage addresses of any
parameters, so distinct layers launch distinct execution IDs while the same
layer launches the same ID every iteration — the repetition DeepUM's
correlation tables rely on.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Sequence

from .dtypes import float32, int64, uint8
from .kernels import KernelLaunch, SparseAccess

if TYPE_CHECKING:  # pragma: no cover
    from .autograd import Tape
    from .context import Device
    from .tensor import Tensor


# --------------------------------------------------------------------- #
# kernel emission helpers (not tape-recorded)
# --------------------------------------------------------------------- #

def _emit(
    device: "Device",
    name: str,
    sig: tuple,
    reads: Sequence["Tensor"],
    writes: Sequence["Tensor"],
    flops: float,
    sparse: Optional[SparseAccess] = None,
) -> None:
    device.submit(
        KernelLaunch(
            name=name, arg_signature=sig, reads=list(reads), writes=list(writes),
            flops=flops, sparse=sparse,
        )
    )


def ones_like(device: "Device", t: "Tensor", *, name: str = "") -> "Tensor":
    out = device.empty(t.shape, t.dtype, name=name)
    _emit(device, "fill_ones", (t.shape,), [], [out], t.numel)
    return out


def zeros(device: "Device", shape: tuple[int, ...], *, persistent: bool = False,
          name: str = "") -> "Tensor":
    out = device.empty(shape, float32, persistent=persistent, name=name)
    _emit(device, "fill_zero", (shape,), [], [out], out.numel)
    return out


def copy_(device: "Device", *, src: "Tensor", dst: "Tensor") -> None:
    _emit(device, "copy", (src.shape,), [src], [dst], src.numel)


def add_(device: "Device", *, dst: "Tensor", src: "Tensor") -> None:
    """dst += src (gradient accumulation)."""
    _emit(device, "accumulate", (dst.shape,), [src, dst], [dst], dst.numel)


# --------------------------------------------------------------------- #
# dense linear algebra
# --------------------------------------------------------------------- #

def linear(tape: "Tape", x: "Tensor", weight: "Tensor", bias: Optional["Tensor"] = None,
           ) -> "Tensor":
    """y = x @ W^T + b with x: [..., in], W: [out, in]."""
    device = tape.device
    out_features, in_features = weight.shape
    if x.shape[-1] != in_features:
        raise ValueError(f"linear: x {x.shape} incompatible with W {weight.shape}")
    batch = x.numel // in_features
    out = device.empty(x.shape[:-1] + (out_features,), x.dtype)
    flops = 2.0 * batch * in_features * out_features
    sig = (x.shape, weight.shape, weight.uid)
    reads = [x, weight] + ([bias] if bias is not None else [])
    _emit(device, "sgemm", sig, reads, [out], flops)

    inputs = (x, weight) + ((bias,) if bias is not None else ())

    def backward(grad_out: "Tensor") -> Sequence[Optional["Tensor"]]:
        grad_x = device.empty(x.shape, x.dtype)
        _emit(device, "sgemm_bwd_data", sig, [grad_out, weight], [grad_x], flops)
        grad_w = device.empty(weight.shape, weight.dtype)
        _emit(device, "sgemm_bwd_weight", sig, [grad_out, x], [grad_w], flops)
        grads: list[Optional["Tensor"]] = [grad_x, grad_w]
        if bias is not None:
            grad_b = device.empty(bias.shape, bias.dtype)
            _emit(device, "bias_bwd", sig, [grad_out], [grad_b], batch * out_features)
            grads.append(grad_b)
        return grads

    tape.record("linear", inputs, out, backward, saved=(x,))
    return out


def matmul(tape: "Tape", a: "Tensor", b: "Tensor", *, tag: str = "") -> "Tensor":
    """Batched matmul: a [..., m, k] @ b [..., k, n]."""
    device = tape.device
    *batch_a, m, k = a.shape
    *batch_b, k2, n = b.shape
    if k != k2:
        raise ValueError(f"matmul: inner dims differ ({a.shape} @ {b.shape})")
    if tuple(batch_a) != tuple(batch_b):
        raise ValueError(f"matmul: batch dims differ ({a.shape} @ {b.shape})")
    batch = math.prod(batch_a) if batch_a else 1
    out = device.empty(tuple(batch_a) + (m, n), a.dtype)
    flops = 2.0 * batch * m * k * n
    sig = (a.shape, b.shape, tag)
    _emit(device, "bmm", sig, [a, b], [out], flops)

    def backward(grad_out: "Tensor") -> Sequence[Optional["Tensor"]]:
        grad_a = device.empty(a.shape, a.dtype)
        _emit(device, "bmm_bwd_a", sig, [grad_out, b], [grad_a], flops)
        grad_b = device.empty(b.shape, b.dtype)
        _emit(device, "bmm_bwd_b", sig, [grad_out, a], [grad_b], flops)
        return [grad_a, grad_b]

    tape.record("matmul", (a, b), out, backward, saved=(a, b))
    return out


# --------------------------------------------------------------------- #
# convolutions
# --------------------------------------------------------------------- #

def _conv_out_hw(h: int, w: int, r: int, s: int, stride: int, padding: int) -> tuple[int, int]:
    oh = (h + 2 * padding - r) // stride + 1
    ow = (w + 2 * padding - s) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(f"conv output collapsed: h={h}, w={w}, kernel=({r},{s})")
    return oh, ow


def conv2d(tape: "Tape", x: "Tensor", weight: "Tensor", bias: Optional["Tensor"] = None,
           *, stride: int = 1, padding: int = 0, groups: int = 1) -> "Tensor":
    """x: [B, C, H, W], weight: [K, C/groups, R, S]."""
    device = tape.device
    b, c, h, w = x.shape
    k, c_per_group, r, s = weight.shape
    if c != c_per_group * groups:
        raise ValueError(f"conv2d: {c} channels vs weight {weight.shape} groups={groups}")
    oh, ow = _conv_out_hw(h, w, r, s, stride, padding)
    out = device.empty((b, k, oh, ow), x.dtype)
    flops = 2.0 * b * k * c_per_group * r * s * oh * ow
    sig = (x.shape, weight.shape, stride, padding, groups, weight.uid)
    reads = [x, weight] + ([bias] if bias is not None else [])
    _emit(device, "conv2d_fwd", sig, reads, [out], flops)

    inputs = (x, weight) + ((bias,) if bias is not None else ())

    def backward(grad_out: "Tensor") -> Sequence[Optional["Tensor"]]:
        grad_x = device.empty(x.shape, x.dtype)
        _emit(device, "conv2d_bwd_data", sig, [grad_out, weight], [grad_x], flops)
        grad_w = device.empty(weight.shape, weight.dtype)
        _emit(device, "conv2d_bwd_weight", sig, [grad_out, x], [grad_w], flops)
        grads: list[Optional["Tensor"]] = [grad_x, grad_w]
        if bias is not None:
            grad_b = device.empty(bias.shape, bias.dtype)
            _emit(device, "conv2d_bwd_bias", sig, [grad_out], [grad_b], grad_out.numel)
            grads.append(grad_b)
        return grads

    tape.record("conv2d", inputs, out, backward, saved=(x,))
    return out


def conv_transpose2d(tape: "Tape", x: "Tensor", weight: "Tensor",
                     bias: Optional["Tensor"] = None, *, stride: int = 1,
                     padding: int = 0) -> "Tensor":
    """x: [B, C, H, W], weight: [C, K, R, S] (DCGAN generator upsampling)."""
    device = tape.device
    b, c, h, w = x.shape
    c2, k, r, s = weight.shape
    if c != c2:
        raise ValueError(f"conv_transpose2d: {c} channels vs weight {weight.shape}")
    oh = (h - 1) * stride - 2 * padding + r
    ow = (w - 1) * stride - 2 * padding + s
    out = device.empty((b, k, oh, ow), x.dtype)
    flops = 2.0 * b * c * k * r * s * h * w
    sig = (x.shape, weight.shape, stride, padding, weight.uid)
    reads = [x, weight] + ([bias] if bias is not None else [])
    _emit(device, "conv_transpose2d_fwd", sig, reads, [out], flops)

    inputs = (x, weight) + ((bias,) if bias is not None else ())

    def backward(grad_out: "Tensor") -> Sequence[Optional["Tensor"]]:
        grad_x = device.empty(x.shape, x.dtype)
        _emit(device, "conv_transpose2d_bwd_data", sig, [grad_out, weight], [grad_x], flops)
        grad_w = device.empty(weight.shape, weight.dtype)
        _emit(device, "conv_transpose2d_bwd_weight", sig, [grad_out, x], [grad_w], flops)
        grads: list[Optional["Tensor"]] = [grad_x, grad_w]
        if bias is not None:
            grad_b = device.empty(bias.shape, bias.dtype)
            _emit(device, "conv_transpose2d_bwd_bias", sig, [grad_out], [grad_b],
                  grad_out.numel)
            grads.append(grad_b)
        return grads

    tape.record("conv_transpose2d", inputs, out, backward, saved=(x,))
    return out


# --------------------------------------------------------------------- #
# normalization
# --------------------------------------------------------------------- #

def batch_norm2d(tape: "Tape", x: "Tensor", gamma: "Tensor", beta: "Tensor") -> "Tensor":
    device = tape.device
    b, c, h, w = x.shape
    out = device.empty(x.shape, x.dtype)
    save_stats = device.empty((2, c), float32)  # saved mean / inv-std
    flops = 8.0 * x.numel
    sig = (x.shape, gamma.uid)
    _emit(device, "batch_norm_fwd", sig, [x, gamma, beta], [out, save_stats], flops)

    def backward(grad_out: "Tensor") -> Sequence[Optional["Tensor"]]:
        grad_x = device.empty(x.shape, x.dtype)
        grad_gamma = device.empty(gamma.shape, gamma.dtype)
        grad_beta = device.empty(beta.shape, beta.dtype)
        _emit(device, "batch_norm_bwd", sig, [grad_out, x, save_stats, gamma],
              [grad_x, grad_gamma, grad_beta], 11.0 * x.numel)
        if save_stats.alive:
            save_stats.release()
        return [grad_x, grad_gamma, grad_beta]

    tape.record("batch_norm2d", (x, gamma, beta), out, backward,
                saved=(x, save_stats))
    # The tape now holds the only reference: backward frees the stats
    # right after its kernel, a forward-only pass in Tape.release.
    save_stats.release()
    return out


def layer_norm(tape: "Tape", x: "Tensor", gamma: "Tensor", beta: "Tensor") -> "Tensor":
    device = tape.device
    norm_dim = x.shape[-1]
    rows = x.numel // norm_dim
    out = device.empty(x.shape, x.dtype)
    save_stats = device.empty((2, rows), float32)
    flops = 8.0 * x.numel
    sig = (x.shape, gamma.uid)
    _emit(device, "layer_norm_fwd", sig, [x, gamma, beta], [out, save_stats], flops)

    def backward(grad_out: "Tensor") -> Sequence[Optional["Tensor"]]:
        grad_x = device.empty(x.shape, x.dtype)
        grad_gamma = device.empty(gamma.shape, gamma.dtype)
        grad_beta = device.empty(beta.shape, beta.dtype)
        _emit(device, "layer_norm_bwd", sig, [grad_out, x, save_stats, gamma],
              [grad_x, grad_gamma, grad_beta], 11.0 * x.numel)
        if save_stats.alive:
            save_stats.release()
        return [grad_x, grad_gamma, grad_beta]

    tape.record("layer_norm", (x, gamma, beta), out, backward,
                saved=(x, save_stats))
    # The tape now holds the only reference: backward frees the stats
    # right after its kernel, a forward-only pass in Tape.release.
    save_stats.release()
    return out


# --------------------------------------------------------------------- #
# elementwise / activations
# --------------------------------------------------------------------- #

def _unary(tape: "Tape", x: "Tensor", name: str, fwd_flops_per_elem: float,
           bwd_flops_per_elem: float, save_output: bool) -> "Tensor":
    device = tape.device
    out = device.empty(x.shape, x.dtype)
    sig = (x.shape,)
    _emit(device, f"{name}_fwd", sig, [x], [out], fwd_flops_per_elem * x.numel)
    saved = out if save_output else x

    def backward(grad_out: "Tensor") -> Sequence[Optional["Tensor"]]:
        grad_x = device.empty(x.shape, x.dtype)
        _emit(device, f"{name}_bwd", sig, [grad_out, saved], [grad_x],
              bwd_flops_per_elem * x.numel)
        return [grad_x]

    tape.record(name, (x,), out, backward, saved=(saved,))
    return out


def relu(tape: "Tape", x: "Tensor") -> "Tensor":
    return _unary(tape, x, "relu", 1.0, 1.0, save_output=True)


def gelu(tape: "Tape", x: "Tensor") -> "Tensor":
    return _unary(tape, x, "gelu", 8.0, 10.0, save_output=False)


def tanh(tape: "Tape", x: "Tensor") -> "Tensor":
    return _unary(tape, x, "tanh", 4.0, 2.0, save_output=True)


def sigmoid(tape: "Tape", x: "Tensor") -> "Tensor":
    return _unary(tape, x, "sigmoid", 4.0, 2.0, save_output=True)


def leaky_relu(tape: "Tape", x: "Tensor") -> "Tensor":
    return _unary(tape, x, "leaky_relu", 1.0, 1.0, save_output=True)


def add(tape: "Tape", a: "Tensor", b: "Tensor") -> "Tensor":
    """Residual connection: returns a + b."""
    device = tape.device
    if a.shape != b.shape:
        raise ValueError(f"add: shapes differ ({a.shape} vs {b.shape})")
    out = device.empty(a.shape, a.dtype)
    sig = (a.shape,)
    _emit(device, "ewise_add", sig, [a, b], [out], a.numel)

    def backward(grad_out: "Tensor") -> Sequence[Optional["Tensor"]]:
        # The same gradient flows to both inputs; clone for each consumer.
        ga = device.empty(a.shape, a.dtype)
        copy_(device, src=grad_out, dst=ga)
        gb = device.empty(b.shape, b.dtype)
        copy_(device, src=grad_out, dst=gb)
        return [ga, gb]

    tape.record("add", (a, b), out, backward)
    return out


def scale(tape: "Tape", x: "Tensor", factor: float) -> "Tensor":
    device = tape.device
    out = device.empty(x.shape, x.dtype)
    sig = (x.shape, factor)
    _emit(device, "scale_fwd", sig, [x], [out], x.numel)

    def backward(grad_out: "Tensor") -> Sequence[Optional["Tensor"]]:
        grad_x = device.empty(x.shape, x.dtype)
        _emit(device, "scale_bwd", sig, [grad_out], [grad_x], x.numel)
        return [grad_x]

    tape.record("scale", (x,), out, backward)
    return out


def softmax(tape: "Tape", x: "Tensor") -> "Tensor":
    device = tape.device
    out = device.empty(x.shape, x.dtype)
    sig = (x.shape,)
    _emit(device, "softmax_fwd", sig, [x], [out], 5.0 * x.numel)

    def backward(grad_out: "Tensor") -> Sequence[Optional["Tensor"]]:
        grad_x = device.empty(x.shape, x.dtype)
        _emit(device, "softmax_bwd", sig, [grad_out, out], [grad_x], 4.0 * x.numel)
        return [grad_x]

    tape.record("softmax", (x,), out, backward, saved=(out,))
    return out


def dropout(tape: "Tape", x: "Tensor", p: float = 0.1) -> "Tensor":
    """Stores a byte mask — a real (and large) training-memory cost."""
    device = tape.device
    out = device.empty(x.shape, x.dtype)
    mask = device.empty(x.shape, uint8)
    sig = (x.shape, p)
    _emit(device, "dropout_fwd", sig, [x], [out, mask], 2.0 * x.numel)

    def backward(grad_out: "Tensor") -> Sequence[Optional["Tensor"]]:
        grad_x = device.empty(x.shape, x.dtype)
        _emit(device, "dropout_bwd", sig, [grad_out, mask], [grad_x], x.numel)
        return [grad_x]

    tape.record("dropout", (x,), out, backward, saved=(mask,))
    mask.release()  # owned by the tape from here on
    return out


# --------------------------------------------------------------------- #
# pooling
# --------------------------------------------------------------------- #

def max_pool2d(tape: "Tape", x: "Tensor", *, kernel: int, stride: int) -> "Tensor":
    device = tape.device
    b, c, h, w = x.shape
    oh, ow = _conv_out_hw(h, w, kernel, kernel, stride, 0)
    out = device.empty((b, c, oh, ow), x.dtype)
    indices = device.empty((b, c, oh, ow), int64)
    sig = (x.shape, kernel, stride)
    flops = float(b * c * oh * ow * kernel * kernel)
    _emit(device, "max_pool2d_fwd", sig, [x], [out, indices], flops)

    def backward(grad_out: "Tensor") -> Sequence[Optional["Tensor"]]:
        grad_x = device.empty(x.shape, x.dtype)
        _emit(device, "max_pool2d_bwd", sig, [grad_out, indices], [grad_x], x.numel)
        return [grad_x]

    tape.record("max_pool2d", (x,), out, backward, saved=(indices,))
    indices.release()  # owned by the tape from here on
    return out


def global_avg_pool2d(tape: "Tape", x: "Tensor") -> "Tensor":
    device = tape.device
    b, c, h, w = x.shape
    out = device.empty((b, c), x.dtype)
    sig = (x.shape,)
    _emit(device, "gap_fwd", sig, [x], [out], x.numel)

    def backward(grad_out: "Tensor") -> Sequence[Optional["Tensor"]]:
        grad_x = device.empty(x.shape, x.dtype)
        _emit(device, "gap_bwd", sig, [grad_out], [grad_x], x.numel)
        return [grad_x]

    tape.record("global_avg_pool2d", (x,), out, backward)
    return out


# --------------------------------------------------------------------- #
# embeddings
# --------------------------------------------------------------------- #

def embedding(tape: "Tape", table: "Tensor", indices: "Tensor") -> "Tensor":
    """Dense-grad embedding lookup (token/position embeddings)."""
    device = tape.device
    vocab, dim = table.shape
    out = device.empty(indices.shape + (dim,), table.dtype)
    rows = indices.numel
    sig = (table.shape, indices.shape, table.uid)
    _emit(device, "embedding_fwd", sig, [table, indices], [out], float(rows * dim))

    def backward(grad_out: "Tensor") -> Sequence[Optional["Tensor"]]:
        grad_table = device.empty(table.shape, table.dtype)
        _emit(device, "embedding_bwd", sig, [grad_out, indices], [grad_table],
              float(rows * dim))
        return [grad_table, None]

    tape.record("embedding", (table, indices), out, backward)
    return out


def embedding_bag(tape: "Tape", table: "Tensor", indices: "Tensor",
                  *, coverage: float) -> "Tensor":
    """DLRM-style sparse lookup with input-dependent irregular access.

    ``coverage`` is the fraction of the (huge) table expected to be touched;
    the actual block subset is drawn per launch from the device RNG by the
    memory manager. The backward is a fused sparse in-place update: it writes
    the table directly and returns no dense gradient (so the optimizer must
    skip tensors flagged ``sparse_grad``; see :class:`layers.EmbeddingBag`).
    """
    device = tape.device
    vocab, dim = table.shape
    bags = indices.shape[0]
    out = device.empty((bags, dim), table.dtype)
    rows = indices.numel
    sig = (table.shape, indices.shape, table.uid)
    sparse = SparseAccess(tensor_index=0, coverage=coverage)
    _emit(device, "embedding_bag_fwd", sig, [table, indices], [out],
          float(rows * dim), sparse=sparse)

    def backward(grad_out: "Tensor") -> Sequence[Optional["Tensor"]]:
        # Sparse scatter-update straight into the table (index 2 = table
        # within reads+writes dedup order: grad_out, indices, table).
        _emit(device, "embedding_bag_bwd", sig, [grad_out, indices], [table],
              float(rows * dim), sparse=SparseAccess(tensor_index=2, coverage=coverage))
        return [None, None]

    tape.record("embedding_bag", (table, indices), out, backward)
    return out


# --------------------------------------------------------------------- #
# losses
# --------------------------------------------------------------------- #

def cross_entropy(tape: "Tape", logits: "Tensor", targets: "Tensor") -> "Tensor":
    device = tape.device
    loss = device.empty((1,), float32, name="loss")
    sig = (logits.shape,)
    _emit(device, "cross_entropy_fwd", sig, [logits, targets], [loss], 6.0 * logits.numel)

    def backward(grad_out: "Tensor") -> Sequence[Optional["Tensor"]]:
        grad_logits = device.empty(logits.shape, logits.dtype)
        _emit(device, "cross_entropy_bwd", sig, [grad_out, logits, targets],
              [grad_logits], 4.0 * logits.numel)
        return [grad_logits, None]

    tape.record("cross_entropy", (logits, targets), loss, backward, saved=(logits,))
    return loss


def mse_loss(tape: "Tape", pred: "Tensor", target: "Tensor") -> "Tensor":
    device = tape.device
    loss = device.empty((1,), float32, name="loss")
    sig = (pred.shape,)
    _emit(device, "mse_fwd", sig, [pred, target], [loss], 3.0 * pred.numel)

    def backward(grad_out: "Tensor") -> Sequence[Optional["Tensor"]]:
        grad = device.empty(pred.shape, pred.dtype)
        _emit(device, "mse_bwd", sig, [grad_out, pred, target], [grad], 2.0 * pred.numel)
        return [grad, None]

    tape.record("mse_loss", (pred, target), loss, backward, saved=(pred,))
    return loss


def bce_loss(tape: "Tape", pred: "Tensor", target: "Tensor") -> "Tensor":
    device = tape.device
    loss = device.empty((1,), float32, name="loss")
    sig = (pred.shape,)
    _emit(device, "bce_fwd", sig, [pred, target], [loss], 5.0 * pred.numel)

    def backward(grad_out: "Tensor") -> Sequence[Optional["Tensor"]]:
        grad = device.empty(pred.shape, pred.dtype)
        _emit(device, "bce_bwd", sig, [grad_out, pred, target], [grad], 3.0 * pred.numel)
        return [grad, None]

    tape.record("bce_loss", (pred, target), loss, backward, saved=(pred,))
    return loss


# --------------------------------------------------------------------- #
# misc shape ops
# --------------------------------------------------------------------- #

def concat_features(tape: "Tape", parts: Sequence["Tensor"]) -> "Tensor":
    """Concatenate 2-D [B, F_i] feature tensors along dim 1 (DLRM)."""
    device = tape.device
    batch = parts[0].shape[0]
    for p in parts:
        if p.shape[0] != batch or len(p.shape) != 2:
            raise ValueError("concat_features requires 2-D tensors with equal batch")
    total = sum(p.shape[1] for p in parts)
    out = device.empty((batch, total), parts[0].dtype)
    sig = tuple(p.shape for p in parts)
    _emit(device, "concat", sig, list(parts), [out], out.numel)
    widths = [p.shape[1] for p in parts]

    def backward(grad_out: "Tensor") -> Sequence[Optional["Tensor"]]:
        grads = []
        for p, w in zip(parts, widths):
            g = device.empty((batch, w), p.dtype)
            grads.append(g)
        _emit(device, "concat_bwd", sig, [grad_out], grads, out.numel)
        return grads

    tape.record("concat", tuple(parts), out, backward)
    return out
