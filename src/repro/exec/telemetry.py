"""Live worker telemetry: phases, sim-time watermarks, and heartbeats.

Every worker process owns one process-global :class:`Telemetry` object.
The code actually running the cell (the bench runner, the experiment
harness, the task dispatch) calls :meth:`Telemetry.set_phase` at coarse
boundaries ("warmup", "timed 2/3", ...) and :meth:`Telemetry.set_sim_time`
when the simulated clock advances past a watermark.  Both calls are
wall-clock bookkeeping only — they never feed back into the simulation, so
a run with heartbeats enabled produces bit-identical simulated metrics to
one without (the executor test suite enforces this).

A :class:`HeartbeatWriter` daemon thread turns that state into an on-disk
heartbeat file (``runs/<id>/heartbeats/<slug>.json``), rewritten atomically
— but **only when the telemetry version advanced** since the last write.
That write-on-progress rule is what makes staleness meaningful: a hung
worker (stuck syscall, deadlock, injected ``hang``) keeps its process alive
but stops bumping the version, so its heartbeat file's mtime freezes and
:func:`classify_running` flips the cell from ``running`` to ``stalled``
after :data:`STALL_FACTOR` heartbeat intervals — long before any wall-clock
timeout fires.

The same phase accounting doubles as the per-cell **wall breakdown**
(:meth:`Telemetry.wall_breakdown`): seconds spent per phase, embedded in
worker results and bench cells so ``repro report --run`` can show where a
sweep's wall-clock went.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Callable, Optional

#: A cell with no heartbeat progress for this many intervals is ``stalled``.
STALL_FACTOR = 3.0

#: Display-only status for a running cell whose heartbeat went stale. Never
#: written to a journal: the journal status stays ``running`` (the process
#: may still be alive) — ``stalled`` is a *diagnosis*, not a transition.
STATUS_STALLED = "stalled"


class Telemetry:
    """Mutable per-process progress state for the cell being executed.

    Thread-compatible by design: the worker's main thread mutates, the
    heartbeat thread only reads (a torn read costs one beat, never
    correctness). All timestamps are wall-clock; nothing here may be
    consulted by simulation code.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.reset()

    def reset(self, *, key: str = "", attempt: int = 0) -> None:
        """Start a fresh cell: clears phases, watermark, and identity."""
        self.key = key
        self.attempt = attempt
        self.phase = ""
        self.completed: Optional[int] = None
        self.total: Optional[int] = None
        self.sim_time = 0.0
        self.version = 0
        self.started = self._clock()
        self._phase_started = self.started
        self._phase_seconds: dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # producers (the code running the cell)
    # ------------------------------------------------------------------ #

    def set_phase(self, phase: str, *, completed: Optional[int] = None,
                  total: Optional[int] = None) -> None:
        """Enter ``phase``; closes the previous phase's wall bucket.

        ``completed``/``total`` describe coarse progress within the cell
        (e.g. timed pass 2 of 3) and drive the watcher's ETA estimate.
        """
        now = self._clock()
        if self.phase:
            self._phase_seconds[self.phase] = (
                self._phase_seconds.get(self.phase, 0.0)
                + (now - self._phase_started))
        self.phase = phase
        self.completed = completed
        self.total = total
        self._phase_started = now
        self.version += 1

    def set_sim_time(self, sim_time: float) -> None:
        """Advance the simulated-time watermark (monotonic per cell)."""
        if sim_time > self.sim_time:
            self.sim_time = sim_time
            self.version += 1

    # ------------------------------------------------------------------ #
    # consumers (heartbeat writer, result assembly)
    # ------------------------------------------------------------------ #

    @property
    def elapsed(self) -> float:
        return self._clock() - self.started

    @property
    def progress(self) -> Optional[float]:
        """Fraction of the cell completed, if the phase reported one."""
        if self.completed is None or not self.total:
            return None
        return max(0.0, min(1.0, self.completed / self.total))

    def wall_breakdown(self) -> dict[str, float]:
        """Seconds per phase so far, the open phase included."""
        out = dict(self._phase_seconds)
        if self.phase:
            out[self.phase] = (out.get(self.phase, 0.0)
                               + (self._clock() - self._phase_started))
        return out

    def snapshot(self) -> dict[str, Any]:
        """The heartbeat payload: everything a watcher needs, JSON-plain."""
        return {
            "key": self.key,
            "attempt": self.attempt,
            "pid": os.getpid(),
            "phase": self.phase,
            "completed": self.completed,
            "total": self.total,
            "progress": self.progress,
            "sim_time": self.sim_time,
            "elapsed_seconds": self.elapsed,
            "version": self.version,
        }


#: The one telemetry object per process. Workers reset it on entry; a
#: bench cell also resets it itself, so an in-process re-execution
#: (``repro cache verify``) starts its phase accounting clean.
TELEMETRY = Telemetry()


class HeartbeatWriter(threading.Thread):
    """Daemon thread persisting :data:`TELEMETRY` beats to one file.

    Writes immediately on start (so a worker that hangs before any
    progress still leaves a datable beat), then once per ``interval`` —
    but only when the telemetry version moved, so the file's mtime is a
    progress clock, not a liveness clock.
    """

    def __init__(self, path: str, interval: float,
                 telemetry: Optional[Telemetry] = None):
        super().__init__(daemon=True, name="repro-heartbeat")
        if interval <= 0:
            raise ValueError(f"heartbeat interval must be positive, "
                             f"got {interval}")
        self.path = path
        self.interval = interval
        self.telemetry = telemetry if telemetry is not None else TELEMETRY
        self._stop_event = threading.Event()
        self._last_version: Optional[int] = None

    def run(self) -> None:
        self._beat()  # the initial beat stamps "this attempt started"
        while not self._stop_event.wait(self.interval):
            self._beat()
        self._beat()  # final beat: flush the last phase transition

    def stop(self, timeout: float = 2.0) -> None:
        self._stop_event.set()
        self.join(timeout)

    def _beat(self) -> None:
        version = self.telemetry.version
        if version == self._last_version:
            return
        try:
            write_heartbeat(self.path, self.telemetry.snapshot())
        except OSError:
            return  # a lost beat must never take the worker down
        self._last_version = version


def write_heartbeat(path: str, doc: dict[str, Any]) -> None:
    """Atomically persist one beat (tmp + rename, like the journal)."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def read_heartbeat(path: str) -> Optional[dict[str, Any]]:
    """Load a beat plus its file mtime; ``None`` if absent or torn."""
    try:
        mtime = os.path.getmtime(path)
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(doc, dict):
        return None
    doc["mtime"] = mtime
    return doc


def classify_running(heartbeat: Optional[dict[str, Any]], interval: float,
                     *, now: Optional[float] = None) -> str:
    """``running`` or ``stalled`` for a cell the journal says is running.

    Stalled means: a beat exists but its mtime is older than
    :data:`STALL_FACTOR` heartbeat intervals — the worker stopped making
    progress (the write-on-progress rule) while its process may well be
    alive. No beat at all reads as ``running``: the worker was launched so
    recently the writer's first beat has not landed.
    """
    if heartbeat is None or "mtime" not in heartbeat:
        return "running"
    current = time.time() if now is None else now
    if current - float(heartbeat["mtime"]) > STALL_FACTOR * interval:
        return STATUS_STALLED
    return "running"


# --------------------------------------------------------------------- #
# `repro runs watch`: one journal snapshot per tick, pure for testing
# --------------------------------------------------------------------- #


def watch_snapshot(journal: Any, *,
                   now: Optional[float] = None) -> dict[str, Any]:
    """Everything one ``repro runs watch`` tick displays, as plain data.

    ``journal`` is a :class:`~repro.exec.journal.RunJournal`. Per-cell
    rows carry the display status (``stalled`` when a running cell's
    heartbeat went stale), the worker's phase/progress, wall elapsed, the
    simulated-time watermark, its rate, and an ETA extrapolated from the
    reported progress fraction. Pure given the journal and ``now`` so the
    watcher loop is trivially testable.
    """
    rows: list[dict[str, Any]] = []
    counts: dict[str, int] = {}
    for key in journal.keys():
        status = journal.status(key)
        phase = ""
        progress = None
        elapsed = None
        sim_time = None
        eta = None
        if status == "running":
            status = journal.display_status(key, now=now)
            beat = journal.heartbeat(key)
            if beat is not None:
                phase = str(beat.get("phase", ""))
                progress = beat.get("progress")
                elapsed = beat.get("elapsed_seconds")
                sim_time = beat.get("sim_time")
                if (isinstance(progress, (int, float)) and progress > 0
                        and isinstance(elapsed, (int, float))):
                    eta = elapsed * (1.0 - progress) / progress
        else:
            result = journal.result(key)
            if isinstance(result, dict):
                elapsed = result.get("wall_seconds")
        counts[status] = counts.get(status, 0) + 1
        rows.append({
            "key": key,
            "status": status,
            "phase": phase,
            "progress": progress,
            "elapsed_seconds": elapsed,
            "sim_time": sim_time,
            "eta_seconds": eta,
        })
    done = sum(counts.get(s, 0) for s in ("ok", "oom", "failed", "timeout"))
    return {
        "run_id": journal.run_id,
        "kind": journal.kind,
        "counts": counts,
        "cells": rows,
        "done": done,
        "total": len(rows),
        "finished": done == len(rows),
    }
