#!/usr/bin/env python3
"""Benchmark of the DeepUM simulator: host time, simulated outputs, layers.

Run from the repository root:

    python3 perfbench/run.py --workload train-fig09 --seed 1 --seconds 60 --trace 0

Workloads (see ``NOTES.md`` for why each exists): ``train-fig09`` and
``serve-dlrm``, the two ``BENCHMARK.json`` lists, and ``train-deep``, run
by hand. Every cell runs in this process through
``repro.api.execute``, one at a time.

``--trace 0`` measures the end-to-end metrics with tracing off. The timed
region is one pass over the workload's cells; passes repeat until
``--seconds`` is spent (at least two, so each cell's simulated snapshot is
checked against a repeat). ``wall_s`` is one pass with each segment of
each cell, cut at the kernels a memory manager runs, at its fastest over
the passes. ``setup_s`` is the median over several fresh
interpreters, started between the passes and counted in ``--seconds``, of
the time from interpreter start to the first timed cell (import plus
calibration).

``--trace 1`` runs untraced and traced passes in pairs and prints the
per-layer metrics (see ``tracing.py``); every traced cell must reproduce
its untraced snapshot bit for bit. Spans are written to
``perfbench/out/trace-<workload>.bin`` when the run ends.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("train-deep", "train-fig09", "serve-dlrm")

#: Fresh-interpreter set-up samples per timed run.
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60.0
#: Untraced passes per timed run, at least.
MIN_PASSES = 2

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_ok_ratio": "fraction",
    "sim_s_per_100_iters": "sim_s",
    "faults_per_iter": "faults",
    "sim_speedup_vs_um": "x",
    "fault_ratio_vs_um": "fraction",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class UnitClock:
    """Host time of a cell, cut into segments at kernel boundaries.

    The kernels are those a memory manager runs: ``UMMemoryManager``'s
    ``run_kernel`` and ``replay_kernel`` (um and deepum cells) and
    ``TensorSwapManager.run_kernel`` (the lms cell), wrapped at class level
    while installed. A cell's segments alternate: time before the first
    kernel, the kernel, time up to the next kernel, ..., time after the
    last. Only outermost kernel calls cut; two clock reads per kernel, under
    1% of a pass.
    """

    def __init__(self) -> None:
        from repro.baselines.tensor_swap import TensorSwapManager
        from repro.core.um_manager import UMMemoryManager

        self.entry_points = ((UMMemoryManager, "run_kernel"),
                             (UMMemoryManager, "replay_kernel"),
                             (TensorSwapManager, "run_kernel"))
        self.segments = array("d")
        self._last = 0.0
        self._depth = 0
        self._patches: list[tuple[Any, str, Any]] = []

    def start_cell(self) -> None:
        self.segments = array("d")
        self._last = time.perf_counter()

    def end_cell(self) -> array:
        self.segments.append(time.perf_counter() - self._last)
        return self.segments

    def _wrap(self, call: Any) -> Any:
        clock = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if clock._depth:
                return call(*args, **kwargs)
            clock._depth = 1
            start = time.perf_counter()
            clock.segments.append(start - clock._last)
            try:
                return call(*args, **kwargs)
            finally:
                end = time.perf_counter()
                clock.segments.append(end - start)
                clock._last = end
                clock._depth = 0

        return wrapper

    def install(self) -> None:
        for owner, attr in self.entry_points:
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def run_pass(requests: list, tracer: Any = None,
             clock: UnitClock | None = None) -> tuple[float, list, list, list]:
    """Execute every cell once, in order; returns (wall, results, cell
    walls, cell segments). Segments are empty without ``clock``."""
    from repro.api import execute

    # Start every pass from a collected heap, so a pass does not pay for
    # garbage the one before it left behind.
    gc.collect()
    results, walls, segments = [], [], []
    if clock is not None:
        clock.install()
    try:
        t_pass = time.perf_counter()
        for index, request in enumerate(requests):
            t_cell = time.perf_counter()
            if clock is not None:
                clock.start_cell()
            if tracer is not None:
                tracer.begin_cell(index)
            result = execute(request)
            if tracer is not None:
                tracer.end_cell()
            segments.append(array("d") if clock is None
                            else clock.end_cell())
            walls.append(time.perf_counter() - t_cell)
            # Keep the snapshot, drop the live simulator: retained facades
            # would grow the heap every later pass has to garbage-collect.
            result.experiment = None
            results.append(result)
        wall = time.perf_counter() - t_pass
    finally:
        if clock is not None:
            clock.uninstall()
    return wall, results, walls, segments


class Fastest:
    """Each segment of each cell at its fastest over a run's passes.

    The work is deterministic, so every pass cuts a cell into the same
    segments in the same order, and a segment cannot run faster than its
    cost: its fastest time is the one least slowed by other load on the
    host. Only the running minimum is kept, so memory does not grow with
    the number of passes.
    """

    def __init__(self, cells: int) -> None:
        self.best: list[array | None] = [None] * cells
        #: Cells whose segment count differed between passes.
        self.mismatched: set[int] = set()

    def add(self, segments: list[array]) -> None:
        for index, segs in enumerate(segments):
            best = self.best[index]
            if best is None:
                self.best[index] = segs
            elif len(best) != len(segs):
                self.mismatched.add(index)
            else:
                self.best[index] = array("d", map(min, best, segs))

    def total(self) -> float:
        """Host time of one pass with every segment at its fastest."""
        return sum(sum(best) for best in self.best if best is not None)


def setup_sample(workload: str, seed: int) -> float:
    """Interpreter start to first timed cell, in a fresh interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline() if proc.stdout else ""
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if proc.stdout:
            proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(
            f"set-up probe failed (exit {proc.returncode}, "
            f"said {line.strip()!r})")
    return elapsed


class Outcome:
    """Operation accounting and output checks across a run's passes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check_pass(self, results: list, reference: list,
                   label: str = "") -> None:
        """Count one pass's operations; a cell fails when it is not ok or
        its snapshot differs from the reference pass's."""
        import workloads as wl

        for res, ref in zip(results, reference):
            ops = wl.ops_per_cell(res.request)
            self.attempted += ops
            bad = None
            if res.status != "ok":
                first = (res.error or "").strip().splitlines()
                bad = f"status {res.status}: {first[-1] if first else ''}"
            elif res.snapshot != ref.snapshot:
                bad = f"snapshot differs from the reference pass {label}"
            if bad:
                self.failed += ops
                self.problems.append(f"{res.request.cell_key}: {bad}")

    def check_outputs(self, results: list) -> None:
        """Oversubscription and serve invariants, once per run (the
        snapshots they read are checked identical across passes)."""
        import workloads as wl

        for res in results:
            if res.status != "ok":
                continue
            over = wl.oversubscription(res)
            if over is not None and over <= 1.0:
                self.problems.append(
                    f"{res.request.cell_key}: does not oversubscribe "
                    f"(peak populated / GPU = {over:.3f})")
            if res.request.kind == "serve":
                self.problems.extend(
                    f"{res.request.cell_key}: {msg}"
                    for msg in wl.serve_checks(res))

    @property
    def correct(self) -> bool:
        return not self.problems


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def report_cells(results: list, walls: list) -> None:
    import workloads as wl

    for res, wall in zip(results, walls):
        summary = (wl.describe(res) if res.status == "ok"
                   else {"error": res.error.strip().splitlines()[-1:]})
        print(f"cell {res.request.cell_key}: {res.status}, host {wall:.3f} s,"
              f" {json.dumps(summary, sort_keys=True)}")


def timed_run(args: argparse.Namespace) -> dict[str, Any]:
    import workloads as wl

    requests = wl.setup(args.workload, args.seed)
    clock = UnitClock()
    fastest = Fastest(len(requests))
    setup: list[float] = []
    passes = []
    t_start = time.perf_counter()
    while True:
        # Set-up samples are taken between passes, so that they sample the
        # shared host across the run rather than at one moment of it; they
        # count against --seconds like the passes.
        if len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample(args.workload, args.seed))
        wall, results, walls, segments = run_pass(requests, clock=clock)
        fastest.add(segments)
        passes.append((wall, results, walls))
        spent = time.perf_counter() - t_start
        pending = (SETUP_SAMPLES - len(setup)) * max(setup)
        if (len(passes) >= MIN_PASSES
                and spent + pending + passes[-1][0] > args.seconds):
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(args.workload, args.seed))
    outcome = Outcome()
    reference = passes[0][1]
    for i, (_, results, _) in enumerate(passes):
        outcome.check_pass(results, reference, f"(pass {i})")
    outcome.check_outputs(reference)
    for index in sorted(fastest.mismatched):
        outcome.problems.append(f"{reference[index].request.cell_key}: "
                                "kernels run differ between passes")
    report_cells(reference, passes[0][2])

    walls = [p[0] for p in passes]
    cell_walls = list(zip(*(p[2] for p in passes)))
    metrics = {
        "wall_s": fastest.total(),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ops_ok_ratio": (outcome.attempted - outcome.failed)
        / outcome.attempted,
    }
    if all(res.status == "ok" for res in reference):
        sim, lines = wl.score(reference)
        metrics.update(sim)
        for line in lines:
            print(line)
    print(f"passes {len(passes)}: wall_s per pass "
          + ", ".join(f"{w:.3f}" for w in walls)
          + "; sum of per-cell fastest "
          + f"{sum(min(w) for w in cell_walls):.3f}, medians "
          + f"{sum(statistics.median(w) for w in cell_walls):.3f}"
          + "; setup_s samples " + ", ".join(f"{s:.3f}" for s in setup))
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {END_TO_END_UNITS[name]}")
    for problem in outcome.problems:
        print(f"CHECK FAILED {problem}")
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: metric(value, END_TO_END_UNITS[name])
                    for name, value in metrics.items()},
    }


def traced_run(args: argparse.Namespace) -> dict[str, Any]:
    import tracing
    import workloads as wl

    tracer = tracing.Tracer()
    tracer.install([tracing.SETUP_LAYER])
    try:
        requests = wl.setup(args.workload, args.seed)
    finally:
        tracer.uninstall()
    setup_totals = tracer.pass_totals()

    outcome = Outcome()
    pairs = []  # (untraced wall, traced wall, totals, spans, top-span s)
    reference = None
    t_start = time.perf_counter()
    while True:
        untraced_wall, untraced, *_ = run_pass(requests)
        if reference is None:
            reference = untraced
        outcome.check_pass(untraced, reference, "(untraced)")
        tracer.reset_totals()
        spans_before = tracer.span_count
        tracer.install()
        try:
            traced_wall, traced, *_ = run_pass(requests, tracer)
        finally:
            tracer.uninstall()
        # Tracing must be observation-only: each traced cell must match
        # the untraced pass it is paired with, bit for bit.
        outcome.check_pass(traced, untraced, "(traced vs untraced)")
        pairs.append((untraced_wall, traced_wall, tracer.pass_totals(),
                      tracer.span_count - spans_before, tracer.top_ns / 1e9))
        spent = time.perf_counter() - t_start
        if spent + untraced_wall + traced_wall > args.seconds:
            break
    assert reference is not None
    outcome.check_outputs(reference)

    first = pairs[0][2]
    values: dict[str, float] = {}
    for name, value in first.items():
        if name.endswith(".self_s"):
            values[name] = statistics.median(p[2][name] for p in pairs)
        else:
            values[name] = value
            if any(p[2][name] != value for p in pairs):
                outcome.problems.append(
                    f"per-layer count {name} differs between traced passes")
    values["harness.calibrate.calls"] = setup_totals["harness.calibrate.calls"]
    values["harness.calibrate.self_s"] = setup_totals[
        "harness.calibrate.self_s"]
    values["serve.session.queue_wait_ms"] = 0.0
    for res in reference:
        if res.request.kind == "serve" and res.request.policy == "deepum" \
                and res.status == "ok":
            snap = res.snapshot
            values["serve.session.queue_wait_ms"] = (
                snap["latency_ms"]["mean"] - snap["service_ms_mean"])
    traced_walls = [p[1] for p in pairs]
    untraced_walls = [p[0] for p in pairs]
    # Traced-pass time outside every span: harness glue, facade and model
    # construction, and the benchmark loop itself.
    values["other.self_s"] = statistics.median(p[1] - p[4] for p in pairs)
    values["trace.wall_s"] = statistics.median(traced_walls)
    values["trace.untraced_wall_s"] = statistics.median(untraced_walls)
    values["trace.overhead_ratio"] = (values["trace.wall_s"]
                                      / values["trace.untraced_wall_s"])
    values["trace.victim_share"] = statistics.median(
        (p[2]["core.preevict.self_s"] + p[2]["policies.eviction.self_s"])
        / p[1] for p in pairs)
    values["trace.spans"] = pairs[0][3]

    units = per_layer_units(tracing)
    order = sorted((n for n in values if n.endswith(".self_s")),
                   key=lambda n: -values[n])
    for name in order:
        layer = name[:-len(".self_s")]
        calls = values.get(f"{layer}.calls")
        where = ("set-up" if layer == tracing.SETUP_LAYER else
                 f"{100.0 * values[name] / values['trace.wall_s']:5.1f}% of "
                 "traced pass")
        print(f"layer {layer:<22} self {values[name]:9.3f} s ({where})"
              + ("" if calls is None else f", {int(calls)} calls"))
    print(f"tracing overhead: traced/untraced wall_s = "
          f"{values['trace.overhead_ratio']:.3f} "
          f"({values['trace.wall_s']:.3f} s / "
          f"{values['trace.untraced_wall_s']:.3f} s, {len(pairs)} pair(s)); "
          f"victim selection (core.preevict + policies.eviction) = "
          f"{100.0 * values['trace.victim_share']:.1f}% of the traced pass")
    for problem in outcome.problems:
        print(f"CHECK FAILED {problem}")
    out = HERE / "out" / f"trace-{args.workload}.bin"
    tracer.write(out, {
        "workload": args.workload, "seed": args.seed,
        "cells": [req.cell_key for req in requests],
        "traced_passes": len(pairs),
    })
    print(f"spans: {tracer.span_count} written to {out.relative_to(ROOT)}")
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: metric(values[name], units[name])
                    for name in sorted(values)},
    }


def per_layer_units(tracing: Any) -> dict[str, str]:
    units = {}
    for layer in tracing.LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(tracing.COUNT_UNITS)
    units.update({
        "core.prefetcher.coverage": "fraction",
        "core.prefetcher.accuracy": "fraction",
        "sim.interconnect.busy_frac": "fraction",
        "serve.session.queue_wait_ms": "sim_ms",
        "other.self_s": "s",
        "trace.wall_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead_ratio": "x",
        "trace.victim_share": "fraction",
        "trace.spans": "count",
    })
    return units


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "api.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace} (closed loop, one cell "
          "at a time, in-process through repro.api.execute)")
    result = traced_run(args) if args.trace else timed_run(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
