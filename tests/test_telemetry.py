"""Live telemetry: phase accounting, heartbeats, and stall diagnosis.

The contracts under test: telemetry is wall-clock bookkeeping only; a
heartbeat file's mtime is a *progress* clock (beats are written only when
the telemetry version moved); and a hung worker therefore reads
``stalled`` in every display surface long before its wall-clock timeout
fires — while the journal status honestly stays ``running``.
"""

import json
import threading
import time

import pytest

from repro.api import RunRequest
from repro.exec import (
    INJECT_ENV,
    STALL_FACTOR,
    STATUS_STALLED,
    Executor,
    ExecutorConfig,
    HeartbeatWriter,
    RunJournal,
    Telemetry,
    classify_running,
    read_heartbeat,
    request_task,
    watch_snapshot,
    write_heartbeat,
)
from repro.harness.experiment import calibrate_system

SYSTEM = calibrate_system("mobilenet")


def tiny_request(policy="um", seed=0):
    return RunRequest(model="mobilenet", policy=policy, batch=64, scale=0.5,
                      warmup_iterations=1, measure_iterations=1, seed=seed,
                      system=SYSTEM)


def tiny_tasks(policies=("um", "deepum")):
    return [request_task(tiny_request(p)) for p in policies]


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


# ------------------------------------------------------------- telemetry

def test_phase_accounting_sums_to_elapsed():
    clock = FakeClock()
    tel = Telemetry(clock=clock)
    tel.reset(key="cell", attempt=1)
    tel.set_phase("warmup")
    clock.advance(2.0)
    tel.set_phase("timed", completed=0, total=4)
    clock.advance(3.0)
    assert tel.wall_breakdown() == {"warmup": 2.0, "timed": 3.0}
    assert sum(tel.wall_breakdown().values()) == tel.elapsed == 5.0


def test_reentering_a_phase_accumulates():
    clock = FakeClock()
    tel = Telemetry(clock=clock)
    tel.set_phase("timed")
    clock.advance(1.0)
    tel.set_phase("health")
    clock.advance(1.0)
    tel.set_phase("timed")
    clock.advance(1.0)
    assert tel.wall_breakdown() == {"timed": 2.0, "health": 1.0}


def test_version_moves_only_on_progress():
    clock = FakeClock()
    tel = Telemetry(clock=clock)
    v0 = tel.version
    tel.set_phase("warmup")
    assert tel.version == v0 + 1
    tel.set_sim_time(1.5)
    assert tel.version == v0 + 2
    tel.set_sim_time(1.0)  # the watermark never runs backwards
    assert tel.version == v0 + 2 and tel.sim_time == 1.5
    clock.advance(60.0)  # wall time alone is not progress
    assert tel.version == v0 + 2


def test_progress_fraction_is_clamped():
    tel = Telemetry(clock=FakeClock())
    assert tel.progress is None
    tel.set_phase("timed", completed=3, total=4)
    assert tel.progress == 0.75
    tel.set_phase("timed", completed=9, total=4)
    assert tel.progress == 1.0
    tel.set_phase("timed", completed=0, total=0)  # no total: unknown
    assert tel.progress is None


def test_snapshot_is_json_plain():
    tel = Telemetry(clock=FakeClock())
    tel.reset(key="mobilenet@64/um", attempt=2)
    tel.set_phase("warmup", completed=0, total=1)
    snap = json.loads(json.dumps(tel.snapshot()))
    assert snap["key"] == "mobilenet@64/um"
    assert snap["attempt"] == 2
    assert snap["phase"] == "warmup"
    assert snap["version"] == tel.version


# ------------------------------------------------------ heartbeat writer

def _wait_until(predicate, timeout=5.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.005)
    return None


def test_heartbeat_mtime_is_a_progress_clock(tmp_path):
    path = str(tmp_path / "beat.json")
    tel = Telemetry()
    tel.reset(key="cell")
    writer = HeartbeatWriter(path, 0.02, telemetry=tel)
    writer.start()
    try:
        first = _wait_until(lambda: read_heartbeat(path))
        assert first is not None and first["key"] == "cell"
        time.sleep(0.1)  # several intervals with no progress
        assert read_heartbeat(path)["mtime"] == first["mtime"]
        tel.set_phase("timed", completed=1, total=2)
        moved = _wait_until(
            lambda: (read_heartbeat(path) or {}).get("phase") == "timed"
            and read_heartbeat(path))
        assert moved is not None
        assert moved["mtime"] > first["mtime"]
        assert moved["progress"] == 0.5
    finally:
        writer.stop()


def test_heartbeat_writer_flushes_final_beat_on_stop(tmp_path):
    path = str(tmp_path / "beat.json")
    tel = Telemetry()
    tel.reset(key="cell")
    writer = HeartbeatWriter(path, 60.0, telemetry=tel)  # never ticks
    writer.start()
    assert _wait_until(lambda: read_heartbeat(path)) is not None
    tel.set_phase("timed")  # progress between the initial and final beat
    writer.stop()
    assert not writer.is_alive()
    assert read_heartbeat(path)["phase"] == "timed"


def test_heartbeat_writer_rejects_bad_interval(tmp_path):
    with pytest.raises(ValueError):
        HeartbeatWriter(str(tmp_path / "b.json"), 0.0)


def test_read_heartbeat_tolerates_garbage(tmp_path):
    path = tmp_path / "beat.json"
    assert read_heartbeat(str(path)) is None  # absent
    path.write_text("{not json")
    assert read_heartbeat(str(path)) is None  # torn write
    path.write_text("[1, 2]\n")
    assert read_heartbeat(str(path)) is None  # not an object


def test_classify_running_staleness():
    assert classify_running(None, 1.0) == "running"  # first beat not landed
    beat = {"phase": "timed", "mtime": 100.0}
    assert classify_running(beat, 1.0, now=100.0 + STALL_FACTOR) == "running"
    assert classify_running(
        beat, 1.0, now=100.0 + STALL_FACTOR + 0.1) == STATUS_STALLED
    # The threshold scales with the run's configured cadence.
    assert classify_running(beat, 10.0, now=105.0) == "running"


def test_write_heartbeat_is_atomic_and_creates_dirs(tmp_path):
    path = str(tmp_path / "heartbeats" / "cell.json")
    write_heartbeat(path, {"key": "cell", "version": 1})
    doc = read_heartbeat(path)
    assert doc["key"] == "cell" and "mtime" in doc
    leftovers = [p for p in (tmp_path / "heartbeats").iterdir()
                 if p.suffix == ".tmp"]
    assert leftovers == []


# ------------------------------------------- journaled runs, end to end

def test_journaled_run_emits_heartbeats_and_breakdowns(tmp_path):
    config = ExecutorConfig(workers=2, retries=0, heartbeat_interval=0.05,
                            poll_interval=0.005)
    journal = RunJournal.create(tiny_tasks(), kind="run",
                                runs_dir=str(tmp_path),
                                executor=config.to_dict())
    assert journal.heartbeat_interval() == 0.05
    Executor(config).run_journal(journal)

    reloaded = RunJournal.load(journal.run_id, str(tmp_path))
    snap = watch_snapshot(reloaded)
    assert snap["finished"] is True
    assert snap["done"] == snap["total"] == 2
    assert snap["counts"] == {"ok": 2}
    for row in snap["cells"]:
        assert row["status"] == "ok"
        # Finished cells report the recorded wall time, not a live beat.
        assert row["elapsed_seconds"] is not None
    for key in reloaded.keys():
        beat = reloaded.heartbeat(key)
        assert beat is not None and beat["key"] == key
        breakdown = reloaded.result(key)["wall_breakdown"]
        assert breakdown and all(v >= 0 for v in breakdown.values())


def test_hung_worker_reads_stalled_before_timeout(tmp_path, monkeypatch):
    tasks = tiny_tasks(("um", "deepum"))
    hung = tasks[0].key
    monkeypatch.setenv(INJECT_ENV, json.dumps(
        {hung: {"mode": "hang", "seconds": 60.0}}))
    config = ExecutorConfig(workers=2, retries=0, heartbeat_interval=0.1,
                            cell_timeout=5.0, poll_interval=0.01)
    journal = RunJournal.create(tasks, kind="run", runs_dir=str(tmp_path),
                                executor=config.to_dict())

    done = threading.Event()

    def drive():
        try:
            Executor(config).run_journal(journal)
        finally:
            done.set()

    threading.Thread(target=drive, daemon=True).start()

    def stalled_snapshot():
        live = RunJournal.load(journal.run_id, str(tmp_path))
        if live.display_status(hung) == STATUS_STALLED:
            return watch_snapshot(live)
        return None

    # The diagnosis must land well inside the 5s cell timeout: the beat
    # freezes once the hang starts, so 3 x 0.1s intervals suffice.
    observed = _wait_until(stalled_snapshot, timeout=4.0)
    assert observed is not None, "hung cell was never diagnosed as stalled"
    row = {r["key"]: r for r in observed["cells"]}[hung]
    assert row["status"] == STATUS_STALLED
    assert observed["counts"][STATUS_STALLED] == 1
    # Display-only: the journal itself still says running (the process is
    # alive), and display_counts splits the two.
    live = RunJournal.load(journal.run_id, str(tmp_path))
    assert live.status(hung) == "running"
    assert live.display_counts()[STATUS_STALLED] >= 1

    assert done.wait(30.0), "executor never finished the run"
    final = RunJournal.load(journal.run_id, str(tmp_path))
    assert final.status(hung) == "timeout"
    assert final.status(tasks[1].key) == "ok"
