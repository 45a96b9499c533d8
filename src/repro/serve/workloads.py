"""Serving workloads: forward-only sessions the request loop drives.

Unlike a training :class:`~repro.models.base.Workload` (step = forward +
backward + optimizer), a serving session owns long-lived state — embedding
tables, a growing KV-cache — and exposes ``serve_request``: run one
request's kernels through the engine. Each forward pass records its tape
and ends with :meth:`~repro.torchsim.autograd.Tape.release`, which frees
every activation it allocated — the frees a framework's caching allocator
would see, which DeepUM's invalidation relies on — so a request leaves the
allocator where it found it and the footprint stays at its calibrated
ratio.

Two sessions:

* :class:`DLRMInferenceSession` — batched recommender inference over the
  same scaled embedding tables the training workload builds
  (:func:`repro.models.dlrm.dlrm_dims`). Each request's sparse lookups
  draw a fresh irregular table subset from the device RNG. Requests reuse
  the same activation addresses, so after three identical requests the
  steady-state replayer (:mod:`repro.core.replay`) takes over, drawing
  the same subsets a live request would.
* :class:`GPT2DecodeSession` — an autoregressive decode loop over a GPT-2
  L-shaped model (:func:`repro.models.gpt2.gpt2_dims`). Each request
  decodes ``decode_tokens`` tokens; every token appends K/V to a
  session-persistent chunked cache and attends over *all* cached chunks,
  so the footprint grows monotonically across requests until it overflows
  the device and the UM policies are doing real work. Every token frees its
  activations; decode always executes live, since each token's attention
  stream depends on the cache's length.

Hint plans are the FBGEMM-style advice an operator would apply: giant
sparsely-accessed tables are ``PREFERRED_LOCATION_CPU | ACCESSED_BY``
(host-resident, GPU reads through), dense weights touched by every request
are ``READ_MOSTLY``.
"""

from __future__ import annotations

from typing import Protocol

from ..models.dlrm import DLRM, dlrm_dims
from ..models.gpt2 import gpt2_dims, reshape_copy
from ..sim.um_space import MemAdvise
from ..torchsim import functional as F
from ..torchsim.autograd import Tape
from ..torchsim.context import Device
from ..torchsim.dtypes import int64
from ..torchsim.layers import Embedding, LayerNorm, Linear
from ..torchsim.tensor import Tensor

ADVISE_TABLE = int(MemAdvise.PREFERRED_LOCATION_CPU | MemAdvise.ACCESSED_BY)
ADVISE_WEIGHTS = int(MemAdvise.READ_MOSTLY)

#: Tokens per KV-cache chunk (allocation granularity of the decode cache).
KV_CHUNK_TOKENS = 16


class ServeSession(Protocol):
    """What the request loop needs from a serving workload."""

    name: str

    def serve_request(self, index: int) -> None:
        """Run one request's kernels (index is the global request number)."""
        ...

    def hint_plan(self) -> list[tuple[Tensor, int]]:
        """(tensor, MemAdvise bitmask) pairs an operator would apply."""
        ...

    def session_bytes_per_request(self) -> int:
        """Persistent footprint growth per request (0 if stateless)."""
        ...

    def extra_stats(self) -> dict[str, object]:
        """Deterministic session counters folded into the serve snapshot."""
        ...


class DLRMInferenceSession:
    """Batched DLRM inference: bottom MLP + 26 sparse lookups + top MLP."""

    name = "dlrm"

    def __init__(self, device: Device, batch: int, scale: float, *,
                 num_tables: int = 26):
        self.device = device
        rows, dim, coverage, bottom, top = dlrm_dims(batch, scale)
        self.model = DLRM(device, num_tables=num_tables, rows_per_table=rows,
                          emb_dim=dim, dense_features=13, bottom=bottom,
                          top=top, coverage=coverage)
        self.dense = device.empty((batch, 13), persistent=True, name="dense")
        self.lookups = [
            device.empty((batch,), int64, persistent=True, name=f"idx{i}")
            for i in range(num_tables)
        ]
        self.requests_served = 0

    def serve_request(self, index: int) -> None:
        replayer = self.device.replayer
        if replayer is None:
            self._forward()
        else:
            replayer.step(self._forward)
        self.requests_served += 1

    def _forward(self) -> None:
        tape = Tape(device=self.device)
        self.model(tape, self.dense, self.lookups)
        tape.release()

    def hint_plan(self) -> list[tuple[Tensor, int]]:
        plan: list[tuple[Tensor, int]] = []
        for param in self.model.parameters():
            advice = ADVISE_TABLE if getattr(param, "sparse_grad", False) \
                else ADVISE_WEIGHTS
            plan.append((param, advice))
        return plan

    def session_bytes_per_request(self) -> int:
        return 0

    def extra_stats(self) -> dict[str, object]:
        return {"requests_served": self.requests_served}


class _DecodeLayer:
    """One transformer layer's weights, decode-path only (no dropout)."""

    def __init__(self, device: Device, d_model: int, ffn: int, name: str):
        self.ln1 = LayerNorm(device, d_model, name=f"{name}.ln1")
        self.qkv = Linear(device, d_model, 3 * d_model, name=f"{name}.qkv")
        self.proj = Linear(device, d_model, d_model, name=f"{name}.proj")
        self.ln2 = LayerNorm(device, d_model, name=f"{name}.ln2")
        self.fc1 = Linear(device, d_model, ffn, name=f"{name}.fc1")
        self.fc2 = Linear(device, ffn, d_model, name=f"{name}.fc2")


class GPT2DecodeSession:
    """Autoregressive GPT-2 decode with a growing chunked KV-cache.

    K is cached pre-transposed (``[b*h, dk, chunk]``) so attention over a
    chunk is two plain batched matmuls; V is cached ``[b*h, chunk, dk]``.
    Chunks are persistent tensors allocated at token-count boundaries and
    never freed — the cache only grows, which is the whole point.
    """

    name = "gpt2-decode"

    def __init__(self, device: Device, batch: int, scale: float, *,
                 decode_tokens: int, variant: str = "l"):
        self.device = device
        layers, d, heads, vocab, _ = gpt2_dims(variant, scale)
        self.d_model = d
        self.heads = heads
        self.dk = d // heads
        self.batch = batch
        self.decode_tokens = decode_tokens
        self.tok_emb = Embedding(device, vocab, d, name="tok_emb")
        self.layers = [
            _DecodeLayer(device, d, 4 * d, f"h{i}") for i in range(layers)
        ]
        self.ln_f = LayerNorm(device, d, name="ln_f")
        self.lm_head = Linear(device, d, vocab, bias=False, name="lm_head")
        self.token = device.empty((batch, 1), int64, persistent=True,
                                  name="token")
        # Per layer: parallel lists of K^T and V chunk tensors.
        self._k_chunks: list[list[Tensor]] = [[] for _ in self.layers]
        self._v_chunks: list[list[Tensor]] = [[] for _ in self.layers]
        self.tokens_decoded = 0
        self.requests_served = 0

    # ------------------------------------------------------------------ #

    def _ensure_chunks(self) -> None:
        """Grow every layer's cache when the next token starts a chunk."""
        if self.tokens_decoded % KV_CHUNK_TOKENS:
            return
        bh = self.batch * self.heads
        n = self.tokens_decoded // KV_CHUNK_TOKENS
        for i in range(len(self.layers)):
            self._k_chunks[i].append(self.device.empty(
                (bh, self.dk, KV_CHUNK_TOKENS), persistent=True,
                name=f"h{i}.kcache{n}"))
            self._v_chunks[i].append(self.device.empty(
                (bh, KV_CHUNK_TOKENS, self.dk), persistent=True,
                name=f"h{i}.vcache{n}"))

    def _decode_token(self) -> None:
        self._ensure_chunks()
        device = self.device
        tape = Tape(device=device)
        b, h, dk, d = self.batch, self.heads, self.dk, self.d_model
        x = F.embedding(tape, self.tok_emb.table, self.token)   # [b, 1, d]
        for i, layer in enumerate(self.layers):
            a = layer.ln1(tape, x)
            qkv = layer.qkv(tape, a)                            # [b, 1, 3d]
            q = reshape_copy(tape, qkv, (b * h, 1, dk), "dec_q")
            k = reshape_copy(tape, qkv, (b * h, dk, 1), "dec_k")
            v = reshape_copy(tape, qkv, (b * h, 1, dk), "dec_v")
            F.copy_(device, src=k, dst=self._k_chunks[i][-1])
            F.copy_(device, src=v, dst=self._v_chunks[i][-1])
            ctx: Tensor | None = None
            for kc, vc in zip(self._k_chunks[i], self._v_chunks[i]):
                scores = F.matmul(tape, q, kc, tag="qk")        # [b*h, 1, c]
                probs = F.softmax(tape, scores)
                part = F.matmul(tape, probs, vc, tag="av")      # [b*h, 1, dk]
                ctx = part if ctx is None else F.add(tape, ctx, part)
            assert ctx is not None
            merged = reshape_copy(tape, ctx, (b, 1, d), "dec_merge")
            x = F.add(tape, x, layer.proj(tape, merged))
            f = layer.fc2(tape, F.gelu(tape, layer.fc1(tape, layer.ln2(tape, x))))
            x = F.add(tape, x, f)
        x = self.ln_f(tape, x)
        flat = reshape_copy(tape, x, (b, d), "dec_flat")
        self.lm_head(tape, flat)
        tape.release()
        self.tokens_decoded += 1

    def serve_request(self, index: int) -> None:
        for _ in range(self.decode_tokens):
            self._decode_token()
        self.requests_served += 1

    # ------------------------------------------------------------------ #

    def hint_plan(self) -> list[tuple[Tensor, int]]:
        plan: list[tuple[Tensor, int]] = [
            (self.tok_emb.table, ADVISE_WEIGHTS),
            (self.lm_head.weight, ADVISE_WEIGHTS),
        ]
        for layer in self.layers:
            for lin in (layer.qkv, layer.proj, layer.fc1, layer.fc2):
                plan.append((lin.weight, ADVISE_WEIGHTS))
        return plan

    @property
    def kv_bytes(self) -> int:
        return sum(
            t.nbytes
            for chunks in (*self._k_chunks, *self._v_chunks)
            for t in chunks
        )

    def session_bytes_per_request(self) -> int:
        # Exact per-token K+V growth; chunk-granular allocation rounds the
        # realized footprint up by at most one chunk per layer.
        per_token = 2 * self.batch * self.d_model * 4
        return len(self.layers) * per_token * self.decode_tokens

    def extra_stats(self) -> dict[str, object]:
        return {
            "requests_served": self.requests_served,
            "tokens_decoded": self.tokens_decoded,
            "kv_bytes": self.kv_bytes,
            "kv_chunks": sum(len(c) for c in self._k_chunks),
        }
