"""Content-addressed result cache: never re-simulate an unchanged cell.

Every cell the executor runs is a deterministic function of its task
payload (the invariant :mod:`repro.api` and the bench suite enforce:
wall-clock work must never change simulated metrics), so identical
``(kind, payload)`` pairs always produce bit-identical simulated results.
This module exploits that: a cell's result is stored under a digest of its
*content* — the canonicalized payload plus a cache schema version and a
code fingerprint of the sim-relevant modules — and any later run of the
same cell returns the stored result instead of spawning a worker.

Key derivation
    ``sha256(canonical_json({schema, fingerprint, kind, payload}))`` where
    the canonical JSON sorts keys at every level, making the digest
    invariant under dict ordering and request round-tripping, while any
    sim-relevant field change (policy parameter, pressure-derived system,
    iteration counts, seed) produces a different digest.

Self-invalidation
    The cache schema version and the code fingerprint are part of the
    key, so bumping :data:`CACHE_SCHEMA_VERSION` or editing any
    fingerprinted module makes every old entry unreachable — stale
    entries are never *wrong*, merely dead weight ``repro cache gc``
    removes.

Trust, but verify
    Entries carry an integrity hash of their result, and ``repro cache
    verify`` additionally re-runs a sampled entry in-process and asserts
    the fresh result is bit-for-bit identical to the stored one (modulo
    wall-clock envelope fields) — the same golden-pin discipline the
    policy framework uses, applied to the cache.

Only deterministic outcomes are cached: ``ok`` and ``oom``. ``failed``
and ``timeout`` describe the harness or the machine, not the cell, and
always re-execute.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pathlib
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

CACHE_SCHEMA_VERSION = 1

#: One result document per entry, under ``<root>/objects/<aa>/<digest>.json``.
ENTRY_SCHEMA_VERSION = 1

#: Default cache root, relative to the working directory (mirrors the
#: ``runs/`` journal convention).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Environment override for the cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Set to ``0``/``off``/``no``/``false`` to disable caching by default
#: (an explicit ``--cache-dir`` still wins).
CACHE_ENABLE_ENV = "REPRO_CACHE"

#: Statuses that are deterministic functions of the payload and therefore
#: safe to replay from the cache.
CACHEABLE_STATUSES = ("ok", "oom")

#: Result-envelope keys that describe the run, not the simulation: they
#: may differ between a cached and a fresh execution of the same cell and
#: are stripped before any bit-for-bit comparison.
VOLATILE_RESULT_KEYS = frozenset(
    {"wall_seconds", "wall_seconds_all", "wall_breakdown", "peak_rss_bytes",
     "attempts", "cached"})

#: The modules whose source determines a cell's simulated output, relative
#: to the ``repro`` package root. Editing any of these changes the code
#: fingerprint and thereby invalidates every cache entry. Harness-only
#: modules (CLI plumbing, journal bookkeeping, this file) are deliberately
#: absent: they may not change what a cell computes.
SIM_RELEVANT_MODULES = (
    "api.py",
    "config.py",
    "constants.py",
    "baselines",
    "core",
    "models",
    "policies",
    "sim",
    "torchsim",
    "bench/manifest.py",
    "bench/runner.py",
    "harness/experiment.py",
    "harness/metrics.py",
    "harness/tournament.py",
    "obs/decisions.py",
    "obs/doctor.py",
    "obs/health.py",
    "obs/memory.py",
    "obs/phases.py",
    "obs/recorder.py",
    "serve",
)


class CacheError(ValueError):
    """The cache store is malformed or used inconsistently."""


def _canonical_json(doc: Any) -> str:
    """Deterministic serialization: sorted keys, no whitespace drift."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Digest of every sim-relevant source file (sorted, content-hashed).

    Computed once per process: the source tree does not change under a
    running simulator, and the fingerprint is consulted on every cache
    key.
    """
    root = pathlib.Path(__file__).resolve().parent.parent
    h = hashlib.sha256()
    for entry in SIM_RELEVANT_MODULES:
        path = root / entry
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for f in files:
            h.update(str(f.relative_to(root)).encode())
            h.update(b"\0")
            h.update(f.read_bytes())
            h.update(b"\0")
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class CacheKey:
    """A content digest plus the canonical content it was derived from."""

    digest: str
    content: dict[str, Any]


def cache_key(kind: str, payload: dict[str, Any], *,
              fingerprint: Optional[str] = None) -> CacheKey:
    """Derive the content-addressed key for one ``(kind, payload)`` cell.

    The payload must be the *canonical* task payload — the same dict the
    executor journals and ships to workers (for experiment cells, a
    resolved :meth:`repro.api.RunRequest.to_dict`) — so a request and its
    dict round-trip derive the same digest.
    """
    content = {
        "cache_schema_version": CACHE_SCHEMA_VERSION,
        "code_fingerprint": (fingerprint if fingerprint is not None
                             else code_fingerprint()),
        "kind": kind,
        "payload": payload,
    }
    digest = hashlib.sha256(_canonical_json(content).encode()).hexdigest()
    return CacheKey(digest=digest, content=content)


def deterministic_view(doc: Any) -> Any:
    """``doc`` with every volatile (wall-clock envelope) key removed.

    This is the projection two executions of the same cell must agree on
    bit-for-bit; everything :data:`VOLATILE_RESULT_KEYS` names is
    harness-side measurement, not simulation output.
    """
    if isinstance(doc, dict):
        return {k: deterministic_view(v) for k, v in doc.items()
                if k not in VOLATILE_RESULT_KEYS}
    if isinstance(doc, list):
        return [deterministic_view(v) for v in doc]
    return doc


def _result_sha(result: dict[str, Any]) -> str:
    return hashlib.sha256(_canonical_json(result).encode()).hexdigest()


def resolve_cache_dir(root: Optional[str] = None) -> str:
    """Explicit path > ``REPRO_CACHE_DIR`` > :data:`DEFAULT_CACHE_DIR`."""
    if root:
        return root
    return os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR


def cache_disabled_by_env() -> bool:
    return os.environ.get(CACHE_ENABLE_ENV, "").strip().lower() in (
        "0", "off", "no", "false")


@dataclass
class ResultCache:
    """A content-addressed store of terminal cell results.

    ``hits`` / ``misses`` / ``stores`` count this instance's session (the
    numbers the CLI prints and CI asserts on); :func:`disk_stats` counts
    the store itself.
    """

    root: Optional[str] = None
    hits: int = field(default=0, init=False)
    misses: int = field(default=0, init=False)
    stores: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.root = resolve_cache_dir(self.root)

    # ------------------------------------------------------------------ #
    # addressing
    # ------------------------------------------------------------------ #

    def key(self, kind: str, payload: dict[str, Any]) -> CacheKey:
        return cache_key(kind, payload)

    def _entry_path(self, digest: str) -> str:
        assert self.root is not None
        return os.path.join(self.root, "objects", digest[:2],
                            f"{digest}.json")

    # ------------------------------------------------------------------ #
    # get / put
    # ------------------------------------------------------------------ #

    def get(self, key: CacheKey) -> Optional[dict[str, Any]]:
        """The stored result for ``key``, or ``None`` (counted as a miss).

        A hit requires the stored canonical content to equal the probe's
        content exactly — a digest collision or a tampered ``key`` section
        reads as a miss, never as a wrong result.
        """
        path = self._entry_path(key.digest)
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            return None
        result = doc.get("result") if isinstance(doc, dict) else None
        if (not isinstance(result, dict)
                or doc.get("entry_schema_version") != ENTRY_SCHEMA_VERSION
                or doc.get("key") != key.content):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: CacheKey, result: dict[str, Any]) -> bool:
        """Store ``result`` if its status is deterministic; atomic write."""
        if result.get("status") not in CACHEABLE_STATUSES:
            return False
        path = self._entry_path(key.digest)
        stored = {k: v for k, v in result.items() if k != "cached"}
        doc = {
            "entry_schema_version": ENTRY_SCHEMA_VERSION,
            "digest": key.digest,
            "key": key.content,
            "result": stored,
            "result_sha256": _result_sha(stored),
            "stored_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        }
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(tmp, "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, path)
        except OSError:
            # A read-only or full cache degrades to a no-op, never an
            # aborted sweep.
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        self.stores += 1
        return True

    # ------------------------------------------------------------------ #
    # session reporting
    # ------------------------------------------------------------------ #

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> Optional[float]:
        return self.hits / self.lookups if self.lookups else None

    def summary_line(self) -> str:
        """The stable one-line summary the CLI prints and CI parses."""
        rate = self.hit_rate
        tail = f" (hit rate {100.0 * rate:.1f}%)" if rate is not None else ""
        return (f"cache: hits={self.hits} misses={self.misses} "
                f"stores={self.stores} dir={self.root}{tail}")


# --------------------------------------------------------------------- #
# store-wide operations: stats / gc / verify
# --------------------------------------------------------------------- #


def _iter_entry_files(root: str) -> Iterator[str]:
    objects = os.path.join(root, "objects")
    if not os.path.isdir(objects):
        return
    for shard in sorted(os.listdir(objects)):
        shard_dir = os.path.join(objects, shard)
        if not os.path.isdir(shard_dir):
            continue
        for name in sorted(os.listdir(shard_dir)):
            if name.endswith(".json"):
                yield os.path.join(shard_dir, name)


def _load_entry(path: str) -> tuple[Optional[dict[str, Any]], str]:
    """(entry, problem): entry is None or the doc; problem is "" if sound.

    "Sound" means structurally valid *and* internally consistent: the
    filename digest re-derives from the stored key content, and the
    result integrity hash matches the stored result.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return None, f"unreadable: {exc}"
    if not isinstance(doc, dict) or not isinstance(doc.get("result"), dict) \
            or not isinstance(doc.get("key"), dict):
        return None, "malformed entry document"
    if doc.get("entry_schema_version") != ENTRY_SCHEMA_VERSION:
        return doc, (f"entry schema {doc.get('entry_schema_version')!r} != "
                     f"{ENTRY_SCHEMA_VERSION}")
    name_digest = os.path.basename(path)[:-len(".json")]
    derived = hashlib.sha256(
        _canonical_json(doc["key"]).encode()).hexdigest()
    if derived != name_digest or doc.get("digest") != name_digest:
        return doc, "digest does not match the stored key content"
    if _result_sha(doc["result"]) != doc.get("result_sha256"):
        return doc, "result does not match its integrity hash"
    return doc, ""


def _is_current(entry: dict[str, Any]) -> bool:
    key = entry.get("key") or {}
    return (key.get("cache_schema_version") == CACHE_SCHEMA_VERSION
            and key.get("code_fingerprint") == code_fingerprint())


def disk_stats(root: Optional[str] = None) -> dict[str, Any]:
    """What is on disk: entry counts, bytes, staleness, corruption."""
    root = resolve_cache_dir(root)
    stats: dict[str, Any] = {
        "cache_dir": root,
        "cache_schema_version": CACHE_SCHEMA_VERSION,
        "code_fingerprint": code_fingerprint(),
        "entries": 0,
        "current": 0,
        "stale": 0,
        "corrupt": 0,
        "bytes": 0,
        "by_kind": {},
    }
    for path in _iter_entry_files(root):
        stats["entries"] += 1
        stats["bytes"] += os.path.getsize(path)
        entry, problem = _load_entry(path)
        if problem:
            stats["corrupt"] += 1
            continue
        assert entry is not None
        kind = str((entry.get("key") or {}).get("kind", "?"))
        stats["by_kind"][kind] = stats["by_kind"].get(kind, 0) + 1
        if _is_current(entry):
            stats["current"] += 1
        else:
            stats["stale"] += 1
    return stats


def gc(root: Optional[str] = None, *, everything: bool = False) -> int:
    """Delete dead entries: stale and corrupt ones, or all of them.

    Stale entries (schema or fingerprint no longer current) can never be
    hit again — their content is part of the digest — so removing them is
    always safe. Returns the number of entries removed.
    """
    root = resolve_cache_dir(root)
    removed = 0
    for path in _iter_entry_files(root):
        entry, problem = _load_entry(path)
        dead = everything or problem or (entry is not None
                                         and not _is_current(entry))
        if dead:
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
    return removed


def verify(root: Optional[str] = None, *, sample: int = 1, seed: int = 0,
           progress: Optional[Callable[[str], None]] = None
           ) -> dict[str, Any]:
    """Audit the store: full integrity scan plus sampled re-execution.

    Every entry is checked for internal consistency (parseable, digest
    re-derives from the key content, result matches its integrity hash).
    Then ``sample`` current-generation entries — chosen by a seeded RNG so
    CI audits are reproducible — are re-executed in-process and their
    fresh results compared bit-for-bit (volatile wall-clock envelope
    fields aside) against the stored ones. Any corruption or mismatch
    means the cache cannot be trusted; ``repro cache verify`` exits
    non-zero and the remedy is ``repro cache gc --all``.
    """
    from .tasks import execute_task

    root = resolve_cache_dir(root)
    report: dict[str, Any] = {
        "cache_dir": root,
        "entries": 0,
        "corrupt": [],
        "verified": [],
        "mismatches": [],
        "sampled": 0,
    }
    current: list[tuple[str, dict[str, Any]]] = []
    for path in _iter_entry_files(root):
        report["entries"] += 1
        entry, problem = _load_entry(path)
        if problem:
            report["corrupt"].append({"path": path, "problem": problem})
            continue
        assert entry is not None
        if _is_current(entry):
            current.append((path, entry))
    rng = random.Random(seed)
    picks = rng.sample(current, min(sample, len(current)))
    for path, entry in picks:
        report["sampled"] += 1
        key = entry["key"]
        if progress is not None:
            progress(f"re-running {key['kind']} cell {entry['digest'][:12]} "
                     f"to verify the stored result")
        fresh = execute_task(str(key["kind"]), dict(key["payload"]))
        # Stored results went through the executor, which always gives
        # the envelope an ``error`` field.
        fresh.setdefault("error", "")
        want = deterministic_view(entry["result"])
        got = deterministic_view(fresh)
        record = {"path": path, "digest": entry["digest"],
                  "kind": key["kind"]}
        if got == want:
            report["verified"].append(record)
        else:
            record["problem"] = (
                "re-execution produced a different deterministic result; "
                "the entry is poisoned or the simulator is nondeterministic")
            report["mismatches"].append(record)
    report["ok"] = not report["corrupt"] and not report["mismatches"]
    return report
