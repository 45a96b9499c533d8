"""Scenario execution: warm-up runs, repeats, min-of-N wall timing.

Wall-clock numbers answer "did the simulator get slower?", so each cell
runs ``warmup_runs`` untimed passes (heating code caches and the branch
predictor) followed by ``repeats`` timed passes, keeping the minimum — the
standard estimator for the noise-free cost of deterministic code.  The
simulated metrics of every timed pass are compared on the spot: a
deterministic simulator must reproduce them exactly, so any drift between
repeats aborts the bench rather than silently reporting an unstable cell.

One scenario cell is a self-contained unit (:func:`run_scenario_cell`
takes and returns plain dicts), so :func:`run_scenario` runs every cell
through the process-pool executor (:mod:`repro.exec`) — across N workers
with a resumable journal, or one at a time — and assembles a result
document whose simulated metrics are bit-identical either way.
"""

from __future__ import annotations

import resource
import sys
import time
from typing import Any, Optional

from ..api import RunRequest, execute
from ..config import DeepUMConfig
from ..harness.experiment import ExperimentResult
from .manifest import DEFAULT_MEASURE, DEFAULT_WARMUP, Scenario
from .schema import make_result


class BenchRunError(RuntimeError):
    """A scenario cell failed (OOM) or was non-deterministic."""


def run_cell(
    model: str,
    batch: int,
    policy: str,
    *,
    deepum_config: Optional[DeepUMConfig] = None,
    warmup_iterations: int = DEFAULT_WARMUP,
    measure_iterations: int = DEFAULT_MEASURE,
    seed: int = 0,
    recorder=None,
) -> ExperimentResult:
    """One experiment cell under the bench's pinned iteration counts.

    This is the primitive the figure/table benchmarks share (see
    ``benchmarks/common.py``): one :class:`repro.api.RunRequest` executed
    in-process. Pass ``recorder`` (a
    :class:`~repro.obs.recorder.SpanRecorder`) to instrument the run.
    """
    result = execute(
        RunRequest(
            model=model,
            policy=policy,
            batch=batch,
            warmup_iterations=warmup_iterations,
            measure_iterations=measure_iterations,
            deepum_config=deepum_config,
            seed=seed,
            recorder=recorder,
        )
    )
    if result.status == "failed":
        raise BenchRunError(f"{model}@{batch}/{policy} failed: {result.error}")
    assert result.experiment is not None
    return result.experiment


def _sim_metrics(result: ExperimentResult) -> dict:
    if result.oom or result.window is None:
        raise BenchRunError(
            f"{result.model}@{result.paper_batch}/{result.policy} OOMed: "
            f"{result.oom_reason}"
        )
    window = result.window
    return {
        "elapsed": window.elapsed,
        "page_faults": window.page_faults,
        "prefetch_coverage": window.prefetch_coverage,
        "bytes_in": window.bytes_in,
        "bytes_out": window.bytes_out,
        "peak_populated_bytes": result.peak_populated_bytes,
    }


def _peak_rss_bytes() -> int:
    ru = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    return ru if sys.platform == "darwin" else ru * 1024


def cell_payload(
    scenario: Scenario,
    policy: str,
    *,
    repeats: int,
    warmup_runs: int,
    collect_health: bool,
) -> dict[str, Any]:
    """The JSON payload :func:`run_scenario_cell` (and a worker) consumes."""
    return {
        "model": scenario.model,
        "paper_batch": scenario.paper_batch,
        "policy": policy,
        "warmup_iterations": scenario.warmup_iterations,
        "measure_iterations": scenario.measure_iterations,
        "seed": scenario.seed,
        "prefetch_degree": scenario.prefetch_degree,
        "repeats": repeats,
        "warmup_runs": warmup_runs,
        "collect_health": collect_health,
    }


def run_scenario_cell(payload: dict[str, Any]) -> dict[str, Any]:
    """Run one scenario cell (all its passes) from a plain payload dict.

    Returns the cell document stored under ``cells`` in the bench result,
    plus a ``peak_rss_bytes`` key (this process's high-water mark) that
    :func:`run_scenario` pops into the document level. Raises
    :class:`BenchRunError` on OOM or nondeterminism — in a worker process
    that surfaces as a ``failed`` cell with the traceback.
    """
    from ..harness.experiment import policy_accepts_config

    deepum_config = (
        DeepUMConfig(prefetch_degree=payload["prefetch_degree"])
        if policy_accepts_config(payload["policy"]) else None
    )
    cell_name = f"{payload['model']}@{payload['paper_batch']}/{payload['policy']}"

    # Per-cell phase accounting: the phases set below become the cell's
    # ``wall_breakdown`` and drive heartbeat progress/ETA in worker runs.
    from ..exec.telemetry import TELEMETRY

    def one(recorder=None) -> ExperimentResult:
        result = run_cell(
            payload["model"],
            payload["paper_batch"],
            payload["policy"],
            deepum_config=deepum_config,
            warmup_iterations=payload["warmup_iterations"],
            measure_iterations=payload["measure_iterations"],
            seed=payload["seed"],
            recorder=recorder,
        )
        # Advance the live sim-time watermark at pass boundaries (wall
        # telemetry only; see repro.exec.telemetry — never fed back into
        # the simulation).
        elapsed = getattr(result.facade, "elapsed", None)
        if callable(elapsed):
            TELEMETRY.set_sim_time(float(elapsed()))
        return result

    TELEMETRY.reset(key=cell_name, attempt=TELEMETRY.attempt)
    passes = (payload["warmup_runs"] + payload["repeats"]
              + (1 if payload["collect_health"] else 0))
    for i in range(payload["warmup_runs"]):
        TELEMETRY.set_phase("warmup", completed=i, total=passes)
        _sim_metrics(one())
    walls: list[float] = []
    sim: Optional[dict] = None
    for i in range(payload["repeats"]):
        TELEMETRY.set_phase("timed", completed=payload["warmup_runs"] + i,
                            total=passes)
        t0 = time.perf_counter()
        result = one()
        walls.append(time.perf_counter() - t0)
        metrics = _sim_metrics(result)
        if sim is None:
            sim = metrics
        elif sim != metrics:
            raise BenchRunError(
                f"{cell_name}: simulated metrics differed between "
                f"repeats ({sim} vs {metrics}); the simulator must be "
                f"deterministic"
            )
    assert sim is not None
    cell: dict[str, Any] = {
        "wall_seconds": min(walls),
        "wall_seconds_all": walls,
        "sim": sim,
    }
    if payload["collect_health"]:
        from ..obs import SpanRecorder
        from ..obs.health import policy_health

        TELEMETRY.set_phase(
            "health", completed=payload["warmup_runs"] + payload["repeats"],
            total=passes)
        try:
            recorder = SpanRecorder()
            instrumented = one(recorder=recorder)
        except TypeError:
            pass  # tensor-swap facade: no UM engine, no health section
        else:
            inst_sim = _sim_metrics(instrumented)
            if inst_sim != sim:
                raise BenchRunError(
                    f"{cell_name}: attribution changed simulated "
                    f"metrics ({sim} vs {inst_sim}); the recorder must "
                    f"be observation-only"
                )
            driver = getattr(instrumented.facade, "driver", None)
            cell["policy_health"] = policy_health(recorder, driver).to_dict()
    cell["wall_breakdown"] = TELEMETRY.wall_breakdown()
    cell["peak_rss_bytes"] = _peak_rss_bytes()
    return cell


def bench_document(
    scenario: Scenario,
    results: dict[str, dict],
    *,
    repeats: int,
    warmup_runs: int,
) -> dict:
    """The schema result document for executor bench-cell ``results``.

    :func:`run_scenario` and ``repro runs resume`` both build the BENCH
    document here. Raises :class:`BenchRunError` if any cell did not
    finish ``ok`` — a bench document must cover every pinned cell or it
    is not a benchmark.
    """
    cells: dict[str, dict] = {}
    for key, doc in results.items():
        if doc.get("status") != "ok":
            raise BenchRunError(
                f"{key}: cell ended {doc.get('status')!r}: "
                f"{doc.get('error', '')}"
            )
        cells[key] = doc["cell"]
    cell_peaks = [cell.pop("peak_rss_bytes", 0) for cell in cells.values()]
    return make_result(
        scenario.name,
        scenario.config_dict(),
        repeats=repeats,
        warmup_runs=warmup_runs,
        cells=cells,
        peak_rss_bytes=max([_peak_rss_bytes()] + cell_peaks),
    )


def run_scenario(
    scenario: Scenario,
    *,
    repeats: int = 3,
    warmup_runs: int = 1,
    collect_health: bool = False,
    progress=None,
    workers: int = 1,
    cell_timeout: Optional[float] = None,
    retries: int = 1,
    heartbeat_interval: float = 1.0,
    runs_dir: Optional[str] = None,
    run_id: Optional[str] = None,
    out: Optional[str] = None,
    cache=None,
) -> dict:
    """Run every cell of ``scenario``; returns a schema result dict.

    With ``collect_health`` each cell gets one extra *untimed* pass with
    decision attribution on, adding a ``policy_health`` section (schema v2).
    The instrumented pass must reproduce the timed passes' simulated
    metrics exactly — a recorder that perturbs simulation is a bug the
    bench refuses to measure around.

    Cells always run through the executor (:mod:`repro.exec`), one
    worker process per cell attempt, so ``cell_timeout`` and ``retries``
    apply at any worker count. With ``workers > 1`` the cells run in
    parallel and are journaled under ``runs_dir`` so a killed bench can
    be resumed (``repro runs resume``); the simulated metrics are
    bit-identical to a one-worker run of the same scenario.

    With ``cache`` (a :class:`repro.exec.ResultCache`) cells whose
    content-addressed key is already stored are replayed instead of
    re-simulated — runs at every worker count share the same keys, and a
    replayed cell is bit-for-bit identical to a fresh one (the recorded
    wall times are the original measurement's).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    from ..exec import (
        DEFAULT_RUNS_DIR,
        Executor,
        ExecutorConfig,
        RunJournal,
        bench_cell_task,
    )

    tasks = [
        bench_cell_task(
            cell_payload(
                scenario,
                policy,
                repeats=repeats,
                warmup_runs=warmup_runs,
                collect_health=collect_health,
            ),
            cell,
        )
        for policy, cell in zip(scenario.policies, scenario.cells)
    ]
    config = ExecutorConfig(
        workers=workers,
        cell_timeout=cell_timeout,
        retries=retries,
        heartbeat_interval=heartbeat_interval,
    )
    executor = Executor(config, progress=progress, cache=cache)
    journal: Optional[RunJournal] = None
    if workers > 1:
        journal = RunJournal.create(
            tasks,
            kind="bench",
            meta={
                "scenario": scenario.name,
                "repeats": repeats,
                "warmup_runs": warmup_runs,
                "collect_health": collect_health,
                "out": out,
            },
            executor=config.to_dict(),
            runs_dir=runs_dir if runs_dir is not None else DEFAULT_RUNS_DIR,
            run_id=run_id,
        )
        if progress is not None:
            progress(
                f"bench run {journal.run_id}: {len(tasks)} cells across "
                f"{workers} workers (journal: {journal.root})"
            )
        results = executor.run_journal(journal)
    else:
        results = executor.run_tasks(tasks)
    try:
        return bench_document(
            scenario,
            results,
            repeats=repeats,
            warmup_runs=warmup_runs,
        )
    except BenchRunError as exc:
        if journal is None:
            raise
        raise BenchRunError(
            f"{exc} (the journal {journal.root} is kept; see "
            f"`repro runs list` / `repro runs resume`)"
        ) from None
