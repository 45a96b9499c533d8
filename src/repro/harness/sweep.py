"""Parameter sweeps: maximum-batch search (Tables 3 and 7).

Probes are warm-up-only cells (``RunRequest(measure_iterations=0)``) run
through the process-pool executor (:mod:`repro.exec`), so a probe reports
*why* it failed, not just that it did, and a probe that hangs or crashes
ends as a ``timeout``/``failed`` outcome instead of taking the search
down. :func:`max_batch_outcome` returns the full structured result —
including the smallest probed batch and its failure cause when nothing
fits.

With several executor workers the doubling phase probes several upcoming
batch sizes speculatively; because a probe's outcome is a deterministic
function of its request, the parallel search lands on exactly the
one-worker answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..config import DeepUMConfig, SystemConfig
from ..models.registry import get_model_config

if TYPE_CHECKING:  # the executor (and multiprocessing) load lazily
    from ..exec import Executor, ExecutorConfig, ResultCache


@dataclass(frozen=True)
class MaxBatchOutcome:
    """Structured result of a maximum-batch search.

    ``max_batch`` is 0 when no probed batch fits; ``smallest_probed`` and
    ``failure`` then say which batch the search bottomed out at and why it
    failed, so "does not run" is always accompanied by a cause.
    """

    model: str
    policy: str
    max_batch: int
    #: Every probed (batch, status) pair, smallest batch first.
    probes: tuple[tuple[int, str], ...]
    smallest_probed: int
    failure: str = ""

    @property
    def fits(self) -> bool:
        return self.max_batch > 0

    @property
    def status(self) -> str:
        from ..api import STATUS_OK, STATUS_OOM

        return STATUS_OK if self.fits else STATUS_OOM


class _Prober:
    """Runs fit probes through the executor, recording every outcome."""

    def __init__(self, model: str, policy: str, system: SystemConfig, *,
                 scale: float, iterations: int,
                 deepum_config: Optional[DeepUMConfig], seed: int,
                 executor: Executor):
        self.model = model
        self.policy = policy
        self.system = system
        self.scale = scale
        self.iterations = iterations
        self.deepum_config = deepum_config
        self.seed = seed
        #: Probes are experiment cells with measure=0, so with a result
        #: cache attached fit outcomes memoize like measured cells.
        self.executor = executor
        #: batch -> (status, error) for every probe ever run.
        self.outcomes: dict[int, tuple[str, str]] = {}

    def request(self, batch: int):
        from ..api import RunRequest

        return RunRequest(
            model=self.model, policy=self.policy, batch=batch,
            scale=self.scale, warmup_iterations=self.iterations,
            measure_iterations=0, seed=self.seed,
            deepum_config=self.deepum_config, system=self.system,
        )

    def __call__(self, batch: int) -> bool:
        """True if ``batch`` completes the probe iterations without OOM."""
        from ..api import STATUS_OK

        self.probe_many([batch])
        return self.outcomes[batch][0] == STATUS_OK

    def probe_many(self, batches: list[int]) -> None:
        """Probe the not-yet-probed ``batches`` through the executor."""
        from ..exec import request_task

        todo = [b for b in batches if b not in self.outcomes]
        if not todo:
            return
        results = self.executor.run_tasks(
            [request_task(self.request(b), key=f"probe-{b}") for b in todo])
        for b in todo:
            doc = results[f"probe-{b}"]
            self.outcomes[b] = (doc["status"], doc.get("error", ""))

    def outcome(self, model_step: int, best: int) -> MaxBatchOutcome:
        probes = tuple(sorted(
            (batch, status) for batch, (status, _) in self.outcomes.items()
        ))
        smallest = min(self.outcomes) if self.outcomes else model_step
        failure = ""
        if best == 0 and self.outcomes:
            failure = self.outcomes[smallest][1]
        return MaxBatchOutcome(
            model=self.model, policy=self.policy, max_batch=best,
            probes=probes, smallest_probed=smallest, failure=failure,
        )


def max_batch_outcome(
    model: str,
    policy: str,
    system: SystemConfig,
    *,
    scale: float,
    start_batch: Optional[int] = None,
    iterations: int = 2,
    deepum_config: Optional[DeepUMConfig] = None,
    seed: int = 0,
    config: Optional[ExecutorConfig] = None,
    cache: Optional[ResultCache] = None,
) -> MaxBatchOutcome:
    """Largest paper-scale batch that trains without OOM, with provenance.

    Doubles from a known-good starting point, then binary-searches the
    boundary; batch granularity is the model's ``batch_divisor``. Every
    probe runs through the executor under ``config`` (default: one
    worker), so its timeout and retry budget apply to probes too. With
    ``config.workers > 1`` the doubling phase speculatively probes the
    next few doublings in parallel; the boundary (and thus the answer)
    is identical to the one-worker search.
    """
    from ..exec import Executor, ExecutorConfig

    config = config if config is not None else ExecutorConfig(workers=1)
    cfg = get_model_config(model)
    step = cfg.batch_divisor
    prober = _Prober(model, policy, system, scale=scale,
                     iterations=iterations, deepum_config=deepum_config,
                     seed=seed, executor=Executor(config, cache=cache))
    lo = start_batch if start_batch is not None else cfg.fig9_batches[0]
    lo = max(step, (lo // step) * step)
    if not prober(lo):
        # Shrink until something runs (or give up at one simulated sample).
        while lo > step:
            lo //= 2
            lo = max(step, (lo // step) * step)
            if prober(lo):
                break
        else:
            return prober.outcome(step, 0)
        if lo == step and not prober(lo):
            return prober.outcome(step, 0)
    hi = lo * 2
    while True:
        # Speculative wave: probe the next ``workers`` doublings at once.
        # Wasted probes cost worker time, never correctness — the boundary
        # below is read off the same per-batch outcomes a one-worker
        # search computes one by one.
        prober.probe_many([hi * (2 ** i) for i in range(config.workers)])
        if not prober(hi):
            break
        lo = hi
        hi *= 2
        if hi > lo * 64:  # paranoia bound; never hit in practice
            break
    # Binary search in (lo, hi): lo runs, hi fails.
    while hi - lo > step:
        mid = ((lo + hi) // 2 // step) * step
        if mid in (lo, hi):
            break
        if prober(mid):
            lo = mid
        else:
            hi = mid
    return prober.outcome(step, lo)
