"""Serving reaches a steady state: requests free what they allocate, and
repeating DLRM requests replay bit-for-bit like training iterations."""

import pytest

import repro.core.replay as replay
from repro.api import KIND_SERVE, RunRequest, execute
from repro.harness.experiment import build_policy
from repro.models.registry import get_model_config
from repro.serve import ServeSpec
from repro.serve.scenarios import get_scenario

#: Small enough for tier-1, long enough for replay to engage (three live
#: requests, then replay).
BATCH = 16000
SCALE = 0.2
REQUESTS = 10


def _serve_req(policy, *, hints=True, scenario="dlrm", requests=REQUESTS,
               **spec_kw):
    spec = ServeSpec(scenario=scenario, requests=requests, rate=10.0,
                     slo_ms=150.0, hints=hints, **spec_kw)
    model = get_scenario(scenario).model
    batch = BATCH if scenario == "dlrm" else None
    scale = SCALE if scenario == "dlrm" else None
    return RunRequest(model=model, policy=policy, batch=batch, scale=scale,
                      warmup_iterations=1, seed=3, kind=KIND_SERVE,
                      serve=spec)


def _execute(req, monkeypatch, *, replay_on):
    """Run one cell; returns its snapshot and the replayers it built."""
    if not replay_on:
        monkeypatch.setattr(replay, "STABLE_PAIRS", 10 ** 9)
    made = []
    init = replay.IterationReplayer.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(replay.IterationReplayer, "__init__", spy)
    res = execute(req)
    monkeypatch.undo()
    assert res.ok, res.error
    return res.snapshot, made


@pytest.mark.parametrize("hints", [True, False])
@pytest.mark.parametrize("policy", ["deepum", "um"])
def test_serve_replay_matches_live(policy, hints, monkeypatch):
    req = _serve_req(policy, hints=hints).resolved()
    live, _ = _execute(req, monkeypatch, replay_on=False)
    replayed, made = _execute(req, monkeypatch, replay_on=True)
    assert sum(r.iterations_replayed for r in made) > 0
    assert replayed == live


def test_dlrm_training_replay_matches_live(monkeypatch):
    req = RunRequest(model="dlrm", policy="deepum", batch=BATCH, scale=SCALE,
                     warmup_iterations=2, measure_iterations=4, seed=3)
    live, _ = _execute(req, monkeypatch, replay_on=False)
    replayed, made = _execute(req, monkeypatch, replay_on=True)
    assert sum(r.iterations_replayed for r in made) > 0
    assert replayed == live


def _session(req):
    """A served cell's facade and session, hints applied, no request run."""
    req = req.resolved()
    facade = build_policy(req.policy, req.system, seed=req.seed)
    cfg = get_model_config(req.model)
    session = get_scenario(req.serve.scenario).build(
        facade.device, cfg.sim_batch(req.batch), req.scale, req.serve)
    for tensor, advice in session.hint_plan():
        facade.manager.advise(tensor.addr, tensor.nbytes, advice)
    return facade, session


@pytest.mark.parametrize("policy", ["deepum", "um"])
def test_dlrm_request_frees_its_activations(policy):
    facade, session = _session(_serve_req(policy))
    stats = facade.device.allocator.stats
    settled = stats.allocated_bytes
    for index in range(6):
        session.serve_request(index)
        assert stats.allocated_bytes == settled, f"request {index} leaked"
    assert facade.device.replayer.iterations_replayed > 0


def test_dlrm_serving_stays_at_calibrated_ratio():
    snap = execute(_serve_req("deepum").resolved()).snapshot
    ratio = snap["peak_populated_bytes"] / snap["gpu_memory_bytes"]
    assert ratio == pytest.approx(
        get_scenario("dlrm").oversubscription, rel=1e-6)


def test_decode_footprint_grows_only_by_kv_cache():
    """Every token frees its activations: allocator active bytes minus the
    KV-cache never move, and populated bytes minus the KV-cache move only
    when a new chunk adds attention temporaries to a token's high-water."""
    facade, session = _session(_serve_req(
        "um", scenario="gpt2-decode", requests=4, decode_tokens=4))
    manager = facade.manager
    stats = facade.device.allocator.stats
    session.serve_request(0)
    active = stats.allocated_bytes - session.kv_bytes
    populated = manager.populated_bytes - session.kv_bytes
    chunks = session.extra_stats()["kv_chunks"]
    for index in range(1, 10):
        session.serve_request(index)
        assert stats.allocated_bytes - session.kv_bytes == active
        grown = session.extra_stats()["kv_chunks"] != chunks
        chunks = session.extra_stats()["kv_chunks"]
        now = manager.populated_bytes - session.kv_bytes
        assert now >= populated if grown else now == populated
        populated = now
    assert chunks > len(session.layers)  # the trace crossed chunk boundaries
