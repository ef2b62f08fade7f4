"""Durable, replayable job state for distributed sweeps.

The ledger is an append-only JSONL event stream recording the
lifecycle of every grid point, keyed by the point's sha256 content
address (the same key that names its cache file)::

    {"event": "scheduled", "key": "<sha256>", "spec": {...}}
    {"event": "claimed",   "key": "<sha256>", "worker": "w-1"}
    {"event": "requeued",  "key": "<sha256>", "worker": "w-1",
     "reason": "lease-expired"}
    {"event": "done",      "key": "<sha256>", "worker": "w-1",
     "elapsed": 0.41}
    {"event": "failed",    "key": "<sha256>", "worker": "w-1",
     "error": "..."}
    {"event": "submitted", "sweep": "<sha256>", "name": "grid",
     "keys": ["<sha256>", ...]}
    {"event": "cancelled", "sweep": "<sha256>"}

A ledger is a *directory*::

    snapshot.json             atomic fold of everything compacted
    compaction-meta.json      small stamp: generation, time, counts
    shards/<sweep-id>.jsonl   events of one submitted sweep
    shards/_unassigned.jsonl  events no sweep claims (spec-file
                              points, foreign keys)

Appends go through :class:`~repro.scenario.store.JsonlAppender` (one
``O_APPEND`` write per record), so a crashed writer loses at most its
final, torn line -- which replay skips.  Only ``done``/``failed``,
``submitted`` and ``cancelled`` records are fsynced: those are the
ones a caller is promised will survive a crash.  Replay folds the
snapshot, then every shard, into per-key terminal state: ``done`` and
``failed`` are absorbing; a ``claimed`` without a subsequent terminal
event is *stale* after a crash and its point is simply pending again;
``requeued`` records a coordinator explicitly reclaiming a lease.  The
``done`` record is appended only *after* the result has been
atomically published to the content-addressed store, so "ledgered
done" implies "readable result".

``submitted`` groups points into one named sweep -- the unit ``POST
/submit`` accepts and ``POST /cancel`` revokes (``cancelled`` is
absorbing for the whole sweep: its non-terminal points leave every
queue).  Because every record is a single whole-line ``O_APPEND``
write, the submit service and the coordinator can append to the same
ledger from different processes without locking: lines interleave,
they never tear.

:meth:`SweepLedger.compact` periodically folds the shards into the
snapshot.  The fold is idempotent for every event type, which is what
makes compaction crash-safe: a writer killed between the snapshot
publish and the shard deletions leaves events folded twice on the next
replay, never lost or un-folded.  The fold itself is
:func:`fold_record` -- one function shared by replay, snapshot restore
and the property tests that prove the compacted fold equals the full
fold.

Older releases could also keep a ledger in one ``.jsonl`` file.  Since
replay folds every shard, such a file replays unchanged once moved into
place: ``mkdir -p L/shards && mv L.jsonl L/shards/_unassigned.jsonl``.
"""

from __future__ import annotations

import json
import pathlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

from repro.distributed import faults
from repro.scenario.spec import ScenarioSpec
from repro.scenario.store import JsonlAppender, atomic_write_json, read_jsonl

__all__ = [
    "LedgerState",
    "SweepLedger",
    "check_ledger_path",
    "fold_record",
    "iter_ledger_records",
    "ledger_stamp",
    "ledger_stats",
    "replay_ledger",
]

EVENT_SCHEDULED = "scheduled"
EVENT_CLAIMED = "claimed"
EVENT_REQUEUED = "requeued"
EVENT_DONE = "done"
EVENT_FAILED = "failed"
EVENT_SUBMITTED = "submitted"
EVENT_CANCELLED = "cancelled"

_EVENTS = {
    EVENT_SCHEDULED,
    EVENT_CLAIMED,
    EVENT_REQUEUED,
    EVENT_DONE,
    EVENT_FAILED,
}

#: Files of the ledger directory.
SNAPSHOT_NAME = "snapshot.json"
COMPACTION_META_NAME = "compaction-meta.json"
SHARD_DIR_NAME = "shards"
UNASSIGNED_SHARD = "_unassigned"


@dataclass
class LedgerState:
    """Folded view of one ledger replay.

    ``scheduled`` maps every key ever scheduled to its wire-form spec;
    ``done``/``failed`` are the terminal keys; ``claims`` maps each
    non-terminal claimed key to the last worker that claimed it (purely
    diagnostic after a crash -- the claim is stale by construction,
    and a ``requeued`` record clears it eagerly); ``sweeps`` maps each
    submitted sweep id to the keys it groups; ``cancelled`` holds the
    sweep ids revoked by ``POST /cancel``.
    """

    scheduled: dict[str, dict[str, Any]] = field(default_factory=dict)
    done: set[str] = field(default_factory=set)
    failed: dict[str, str] = field(default_factory=dict)
    claims: dict[str, str] = field(default_factory=dict)
    sweeps: dict[str, tuple[str, ...]] = field(default_factory=dict)
    cancelled: set[str] = field(default_factory=set)
    # Telemetry views, excluded from equality: ``traces`` maps each key
    # to the trace id minted at its submit (first record wins, and a
    # key's records all carry the same trace -- but events split across
    # shards fold in shard order, not append order, so like ``claims``
    # these are diagnostics, not operative state); ``requeues`` counts
    # requeued events per key with at-least-once semantics (a crash
    # between a compaction's snapshot publish and its shard deletions
    # legitimately folds a shard twice, so the count may over-report
    # across that window -- fine for a monitoring counter, which is why
    # it must never participate in replay-equality invariants).
    traces: dict[str, str] = field(default_factory=dict, compare=False)
    requeues: dict[str, int] = field(default_factory=dict, compare=False)

    @property
    def cancelled_keys(self) -> set[str]:
        """Every key belonging to a cancelled sweep.

        Content addressing means sweeps can share points; cancelling
        one sweep revokes its points outright, shared or not -- the
        deliberate, simple semantics (a key's result can still arrive
        later via resubmission; cancellation never corrupts state).
        """
        keys: set[str] = set()
        for sweep in self.cancelled:
            keys.update(self.sweeps.get(sweep, ()))
        return keys

    @property
    def pending(self) -> set[str]:
        """Scheduled keys with no terminal event and no cancellation
        (stale claims included)."""
        return (
            set(self.scheduled)
            - self.done
            - set(self.failed)
            - self.cancelled_keys
        )


def fold_record(
    state: LedgerState, record: Any, source: str = "ledger"
) -> None:
    """Fold one parsed ledger record into ``state`` (in place).

    Raises :class:`ValueError` on records that parse yet carry a
    malformed event -- a ledger that lies about ``done`` points must
    fail loudly, not resume quietly.  The fold is *idempotent for full
    streams*: re-folding an entire shard over a state that already
    absorbed it converges to the same state, which is the invariant
    compaction's crash-safety rests on.
    """
    if not isinstance(record, dict):
        raise ValueError(f"{source}: malformed ledger record {record!r}")
    event = record.get("event")
    if event == EVENT_SUBMITTED:
        sweep = record.get("sweep")
        keys = record.get("keys")
        if not isinstance(sweep, str) or not isinstance(keys, list):
            raise ValueError(
                f"{source}: malformed ledger record {record!r}"
            )
        state.sweeps[sweep] = tuple(str(key) for key in keys)
        return
    if event == EVENT_CANCELLED:
        sweep = record.get("sweep")
        if not isinstance(sweep, str):
            raise ValueError(
                f"{source}: malformed ledger record {record!r}"
            )
        state.cancelled.add(sweep)
        return
    key = record.get("key")
    if event not in _EVENTS or not isinstance(key, str):
        raise ValueError(f"{source}: malformed ledger record {record!r}")
    trace = record.get("trace")
    if isinstance(trace, str):
        state.traces.setdefault(key, trace)
    if event == EVENT_SCHEDULED:
        state.scheduled.setdefault(key, record.get("spec", {}))
    elif event == EVENT_CLAIMED:
        state.claims[key] = record.get("worker", "?")
    elif event == EVENT_REQUEUED:
        state.claims.pop(key, None)
        state.requeues[key] = state.requeues.get(key, 0) + 1
    elif event == EVENT_DONE:
        state.done.add(key)
        state.claims.pop(key, None)
        # Mirrors the coordinator: a stored result supersedes a
        # racing worker's earlier failure report.
        state.failed.pop(key, None)
    elif event == EVENT_FAILED:
        if key not in state.done:
            state.failed[key] = record.get("error", "")
        state.claims.pop(key, None)


def _state_to_dict(state: LedgerState) -> dict[str, Any]:
    return {
        "scheduled": state.scheduled,
        "done": sorted(state.done),
        "failed": state.failed,
        "claims": state.claims,
        "sweeps": {sweep: list(keys) for sweep, keys in state.sweeps.items()},
        "cancelled": sorted(state.cancelled),
        "traces": state.traces,
        "requeues": state.requeues,
    }


def _state_from_dict(payload: dict[str, Any]) -> LedgerState:
    return LedgerState(
        scheduled=dict(payload.get("scheduled", {})),
        done=set(payload.get("done", [])),
        failed=dict(payload.get("failed", {})),
        claims=dict(payload.get("claims", {})),
        sweeps={
            sweep: tuple(keys)
            for sweep, keys in payload.get("sweeps", {}).items()
        },
        cancelled=set(payload.get("cancelled", [])),
        traces=dict(payload.get("traces", {})),
        requeues={
            key: int(count)
            for key, count in payload.get("requeues", {}).items()
        },
    )


# -- reading a ledger directory ----------------------------------------------


def check_ledger_path(path: str | pathlib.Path) -> pathlib.Path:
    """``path`` as a ledger root, refusing a single-file ledger.

    An older release kept a ledger in one file: either ``path`` itself
    or, while ``path`` does not exist yet, its ``path.jsonl`` sibling
    (the old default spelling).  Raise with the one-line move that
    adopts it (see the module docstring) rather than guess -- an
    automatic move would add a crash window of its own, and silently
    starting empty would drop the old ledger's pending sweeps.
    """
    path = pathlib.Path(path)
    legacy = path if path.exists() else path.with_name(f"{path.name}.jsonl")
    if legacy.is_file():
        root = legacy.with_suffix("") if legacy.suffix else legacy.with_name(
            f"{legacy.name}-ledger"
        )
        raise ValueError(
            f"{legacy} is a single-file ledger, but a ledger is a "
            f"directory; adopt it with 'mkdir -p {root}/{SHARD_DIR_NAME} "
            f"&& mv {legacy} {root}/{SHARD_DIR_NAME}/{UNASSIGNED_SHARD}"
            f".jsonl' and use {root}"
        )
    return path


def _shard_files(root: pathlib.Path) -> list[pathlib.Path]:
    return sorted((root / SHARD_DIR_NAME).glob("*.jsonl"))


def _shard_stats(root: pathlib.Path) -> dict[str, int]:
    stats: dict[str, int] = {}
    for file in _shard_files(root):
        try:
            stats[file.name] = file.stat().st_size
        except OSError:
            continue
    return stats


def _last_compaction(root: pathlib.Path) -> dict[str, Any] | None:
    try:
        payload = json.loads((root / COMPACTION_META_NAME).read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def ledger_stats(
    path: str | pathlib.Path,
) -> tuple[dict[str, int], dict[str, Any] | None]:
    """``({shard file name: bytes}, last compaction stamp or None)``.

    Read-only -- creates nothing, opens no appender -- so monitoring
    routes can call it on every scrape.
    """
    root = pathlib.Path(path)
    return _shard_stats(root), _last_compaction(root)


def replay_ledger(path: str | pathlib.Path) -> LedgerState:
    """Fold the ledger at ``path`` into per-key terminal state.

    Snapshot first, then every shard.  Tolerates unparseable fragment
    lines (crash-mid-append artifacts, isolated by the appender's
    boundary repair; losing one only re-runs idempotent work), but
    raises on records that parse yet carry a malformed event -- a
    ledger that lies about ``done`` points must fail loudly, not
    resume quietly.  A missing ledger replays empty.
    """
    root = check_ledger_path(path)
    _, state = _load_snapshot(root)
    for file in _shard_files(root):
        for record in read_jsonl(file, strict=False):
            fold_record(state, record, source=str(file))
    return state


def iter_ledger_records(
    path: str | pathlib.Path,
) -> Iterator[Mapping[str, Any]]:
    """Yield every *raw* surviving ledger record (no folding).

    For consumers that need the per-event fields replay discards --
    the ``ts`` stamps the timeline joins on, requeue reasons, elapsed
    times.  Yields only the uncompacted shard events (compaction
    folds the rest into the snapshot, erasing the raw lines by
    design); torn tails are skipped, same as replay.
    """
    for file in _shard_files(pathlib.Path(path)):
        for record in read_jsonl(file, strict=False):
            if isinstance(record, dict):
                yield record


def ledger_stamp(path: str | pathlib.Path):
    """A hashable freshness stamp: equal stamps imply equal replays.

    The sorted tuple of every snapshot/shard file's ``(name, size,
    mtime_ns)`` -- so an appended shard, a fresh snapshot *and* a
    compaction that deleted shards all change it.  ``None`` when
    nothing exists yet.
    """
    root = pathlib.Path(path)
    parts = []
    for file in [root / SNAPSHOT_NAME, *_shard_files(root)]:
        try:
            stat = file.stat()
        except OSError:
            continue
        parts.append((file.name, stat.st_size, stat.st_mtime_ns))
    return tuple(parts) if parts else None


def _load_snapshot(root: pathlib.Path) -> tuple[int, LedgerState]:
    """``(generation, state)`` from ``snapshot.json`` (0 + empty if none).

    The snapshot is written atomically, so it either parses whole or
    does not exist; a snapshot that exists but is malformed raises --
    silently ignoring it would resurrect compacted-away work.
    """
    snapshot_path = root / SNAPSHOT_NAME
    try:
        payload = json.loads(snapshot_path.read_text())
    except FileNotFoundError:
        return 0, LedgerState()
    except (OSError, json.JSONDecodeError) as error:
        raise ValueError(
            f"{snapshot_path}: unreadable ledger snapshot ({error})"
        ) from None
    if not isinstance(payload, dict) or "state" not in payload:
        raise ValueError(f"{snapshot_path}: malformed ledger snapshot")
    return int(payload.get("generation", 0)), _state_from_dict(
        payload["state"]
    )


def _parse_tail(data: bytes) -> tuple[list[dict[str, Any]], int]:
    """``(records, consumed_bytes)`` of the complete lines in ``data``.

    A torn final line stays unconsumed for the next poll; interior
    unparseable lines (crash artifacts isolated by boundary repair)
    are skipped but their bytes are consumed.
    """
    complete, newline, _ = data.rpartition(b"\n")
    if not newline:
        return [], 0
    records = []
    for line in complete.splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError):
            continue
        if isinstance(record, dict):
            records.append(record)
    return records, len(complete) + 1


class SweepLedger:
    """Append side of a ledger directory, plus tailing and compaction.

    Writers are the coordinator (lifecycle events) and the submit
    service (``scheduled``/``submitted``/``cancelled`` batches) --
    safe concurrently because every record is one whole-line
    ``O_APPEND`` write.

    Lifecycle events route to the shard of the sweep that submitted
    their key (learned from ``submitted`` records at replay, at tail
    ingestion, or from this process's own submits), so one sweep's
    churn stays in one file and :meth:`compact` can retire whole
    sweeps at a time.  Routing is an *optimization*, never a
    correctness requirement: replay folds every shard, so a record
    landing in ``_unassigned`` is merely less tidy.

    Multi-process safety of :meth:`compact` (same discipline as the
    rest of the store layer -- no locks, only atomic publishes):

    1. fold snapshot + every shard, remembering each shard's size at
       fold time;
    2. publish the new snapshot via ``atomic_write_json``;
    3. delete only shards whose size is *unchanged* since step 1 --
       a shard another process appended to meanwhile survives, and
       its already-folded prefix simply folds again next replay
       (idempotent).

    A crash anywhere leaves either the old snapshot + all shards or
    the new snapshot + a subset of shards -- both replay to the same
    state.
    """

    def __init__(self, path: str | pathlib.Path) -> None:
        self._root = check_ledger_path(path)
        self._shards = self._root / SHARD_DIR_NAME
        self._shards.mkdir(parents=True, exist_ok=True)
        self._appenders: dict[str, JsonlAppender] = {}
        self._routes: dict[str, str] = {}
        self._routes_loaded = False
        self._lock = threading.Lock()

    @property
    def path(self) -> pathlib.Path:
        """The ledger root directory."""
        return self._root

    # -- append side --------------------------------------------------------

    def record_scheduled(
        self,
        specs: Iterable[ScenarioSpec],
        already_scheduled: set[str] | None = None,
        sweep: str | None = None,
        traces: Mapping[str, str] | None = None,
    ) -> None:
        """Schedule points (skipping keys this ledger already holds).

        ``already_scheduled`` lets a caller that just replayed the
        ledger pass the known keys instead of paying a second full
        replay here; ``sweep`` labels the records with the submitting
        sweep id and routes them (and all later lifecycle events of
        these keys) to its shard; ``traces`` maps keys to the trace
        ids minted at submit, stamped onto the records so the ids
        survive any crash the sweep itself survives.
        """
        specs = list(specs)
        if sweep is not None:
            self._note_routes(sweep, (spec.key() for spec in specs))
        if already_scheduled is None:
            already_scheduled = set(self.replay().scheduled)
        for spec in specs:
            key = spec.key()
            if key in already_scheduled:
                continue
            record: dict[str, Any] = {
                "event": EVENT_SCHEDULED,
                "key": key,
                "spec": spec.to_dict(),
            }
            if sweep is not None:
                record["sweep"] = sweep
            if traces is not None and key in traces:
                record["trace"] = traces[key]
            self._append(record, sweep=sweep)

    def record_claimed(
        self, key: str, worker: str, trace: str | None = None
    ) -> None:
        """A worker claimed ``key``."""
        record = {"event": EVENT_CLAIMED, "key": key, "worker": worker}
        if trace is not None:
            record["trace"] = trace
        self._append(record)

    def record_requeued(
        self,
        key: str,
        worker: str,
        reason: str = "lease-expired",
        trace: str | None = None,
    ) -> None:
        """The coordinator reclaimed ``key`` from ``worker``.

        No fsync: losing this record costs nothing on resume (a claim
        with no terminal event replays as pending either way); the
        record exists so a *live* replay agrees with the coordinator's
        queue, and as the audit trail of lease expiries -- which is
        also why, unlike the other lifecycle events, it carries a
        ``reason`` (``lease-expired``, ``connection-lost``,
        ``coordinator-restart``) for the timeline to attribute.
        """
        record: dict[str, Any] = {
            "event": EVENT_REQUEUED,
            "key": key,
            "worker": worker,
            "reason": reason,
        }
        if trace is not None:
            record["trace"] = trace
        self._append(record)

    def record_submitted(
        self,
        sweep: str,
        keys: Iterable[str],
        name: str | None = None,
    ) -> None:
        """Group ``keys`` under one submitted sweep id.

        Fsynced: a 202 from ``POST /submit`` promises the sweep
        survives any crash, and this record (appended *after* the
        batch of ``scheduled`` records on the same descriptor) is the
        last line of that promise -- the flush covers the whole batch.
        """
        record: dict[str, Any] = {
            "event": EVENT_SUBMITTED,
            "sweep": sweep,
            "keys": list(keys),
        }
        if name is not None:
            record["name"] = name
        self._append(record, fsync=True, sweep=sweep)

    def record_cancelled(self, sweep: str) -> None:
        """Revoke a submitted sweep (absorbing, idempotent).

        Fsynced: a 200 from ``POST /cancel`` promises the revocation
        survives any crash -- losing it would resurrect the sweep.
        """
        self._append(
            {"event": EVENT_CANCELLED, "sweep": sweep},
            fsync=True,
            sweep=sweep,
        )

    def record_done(
        self,
        key: str,
        worker: str,
        elapsed: float | None = None,
        trace: str | None = None,
    ) -> None:
        """``key`` finished and its result is durably stored."""
        record: dict[str, Any] = {
            "event": EVENT_DONE,
            "key": key,
            "worker": worker,
        }
        if elapsed is not None:
            record["elapsed"] = float(elapsed)
        if trace is not None:
            record["trace"] = trace
        self._append(record, fsync=True)

    def record_failed(
        self, key: str, worker: str, error: str, trace: str | None = None
    ) -> None:
        """``key`` raised while executing (terminal: not requeued)."""
        record: dict[str, Any] = {
            "event": EVENT_FAILED,
            "key": key,
            "worker": worker,
            "error": str(error),
        }
        if trace is not None:
            record["trace"] = trace
        self._append(record, fsync=True)

    def _append(
        self,
        record: dict[str, Any],
        fsync: bool | None = None,
        sweep: str | None = None,
    ) -> None:
        # Every record is wall-clock stamped at append time -- the
        # raw-record timestamps the timeline's queue-wait/total
        # columns are computed from.  ``sweep`` routes by explicit
        # sweep id; without it the record follows its key's route.
        record.setdefault("ts", round(time.time(), 6))
        if sweep is not None:
            shard = self._shard_name(sweep)
            if record.get("event") == EVENT_SUBMITTED:
                self._note_routes(sweep, record.get("keys", []))
        else:
            self._ensure_routes()
            shard = self._routes.get(
                str(record.get("key")), UNASSIGNED_SHARD
            )
        with self._lock:
            self._appender(shard).append(record, fsync=fsync)

    def close(self) -> None:
        """Release every append descriptor."""
        with self._lock:
            for appender in self._appenders.values():
                appender.close()
            self._appenders.clear()

    def __enter__(self) -> "SweepLedger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- routing -------------------------------------------------------------

    @staticmethod
    def _shard_name(sweep: str) -> str:
        # Sweep ids are sha256 hex (filesystem-safe); anything foreign
        # is sanitized to keep the directory listable.
        safe = "".join(
            ch if ch.isalnum() or ch in "-_." else "_" for ch in sweep
        )
        return safe or UNASSIGNED_SHARD

    def _note_routes(self, sweep: str, keys: Iterable[str]) -> None:
        shard = self._shard_name(sweep)
        for key in keys:
            self._routes[key] = shard

    def _ensure_routes(self) -> None:
        """Learn key->shard routing from a replay, once, lazily.

        Only key-routed lifecycle events need it; the submit path
        routes by explicit sweep id and never pays this replay.
        """
        if self._routes_loaded:
            return
        self._routes_loaded = True
        for sweep, keys in self.replay().sweeps.items():
            self._note_routes(sweep, keys)

    def _appender(self, shard: str) -> JsonlAppender:
        # Appenders never fsync on their own: records that must survive
        # a crash ask for it per append (see the module docstring).
        # "scheduled"/"claimed"/"requeued" skip the flush -- losing one
        # only costs a reschedule or a stale-claim diagnostic, and
        # per-assignment fsyncs would serialize the whole fabric on
        # disk latency.
        appender = self._appenders.get(shard)
        if appender is None:
            appender = JsonlAppender(
                self._shards / f"{shard}.jsonl",
                fsync=False,
                fault_site="ledger.append",
            )
            self._appenders[shard] = appender
        return appender

    # -- replay / tail -------------------------------------------------------

    def replay(self) -> LedgerState:
        """Fold this ledger (see :func:`replay_ledger`)."""
        return replay_ledger(self._root)

    def read_tail(
        self, cursor: dict[str, int] | None = None
    ) -> tuple[list[dict[str, Any]], dict[str, int]]:
        """``(records, new_cursor)`` across every shard since ``cursor``.

        The cursor maps shard file names to byte offsets.  Complete
        lines only -- a torn final line stays unconsumed for the next
        poll.  A shard that vanished (compacted away) drops from the
        cursor; one that shrank or reappears (new events for an old
        sweep) re-reads from zero -- safe, because the fold is
        idempotent and the coordinator skips events it already knows.
        ``submitted`` records seen here also teach this instance
        key->shard routing, so a resident coordinator keeps routing
        fresh sweeps correctly.
        """
        cursor = dict(cursor or {})
        records: list[dict[str, Any]] = []
        live = set()
        for file in _shard_files(self._root):
            name = file.name
            live.add(name)
            offset = cursor.get(name, 0)
            try:
                size = file.stat().st_size
                if size < offset:
                    offset = 0
                if size <= offset:
                    continue
                with open(file, "rb") as handle:
                    handle.seek(offset)
                    data = handle.read()
            except OSError:
                continue
            fresh, consumed = _parse_tail(data)
            if consumed:
                cursor[name] = offset + consumed
            for record in fresh:
                if record.get("event") == EVENT_SUBMITTED and isinstance(
                    record.get("sweep"), str
                ):
                    self._note_routes(
                        record["sweep"],
                        [str(key) for key in record.get("keys", [])],
                    )
            records.extend(fresh)
        for name in list(cursor):
            if name not in live:
                del cursor[name]
        return records, cursor

    # -- compaction ----------------------------------------------------------

    def tail_size(self) -> int:
        """Total bytes of uncompacted shard events (the compaction
        trigger a resident coordinator watches)."""
        return sum(_shard_stats(self._root).values())

    def compact(self) -> dict[str, Any]:
        """Fold every shard into a fresh atomic snapshot; retire the
        shards that did not move while we folded.

        Returns the compaction stats (also written to
        ``compaction-meta.json``).  Safe against a crash at any point
        and against concurrent appenders in other processes -- see the
        class docstring for the protocol.
        """
        with self._lock:
            generation, state = _load_snapshot(self._root)
            faults.inject("ledger.compact", "fold")
            folded: list[tuple[pathlib.Path, int]] = []
            events = 0
            for file in _shard_files(self._root):
                try:
                    size = file.stat().st_size
                except OSError:
                    continue
                for record in read_jsonl(file, strict=False):
                    fold_record(state, record, source=str(file))
                    events += 1
                folded.append((file, size))
            stats = {
                "generation": generation + 1,
                "compacted_at": time.time(),
                "events_folded": events,
                "shards_folded": len(folded),
            }
            atomic_write_json(
                self._root / SNAPSHOT_NAME,
                {"version": 1, **stats, "state": _state_to_dict(state)},
            )
            # The crash window the chaos suite aims at: the new
            # snapshot is live, the shards still hold their (now
            # doubly-represented) events.
            faults.inject("ledger.compact", "swap")
            removed = 0
            for file, size in folded:
                try:
                    if file.stat().st_size != size:
                        continue  # a foreign append landed: keep it
                except OSError:
                    continue
                appender = self._appenders.pop(file.stem, None)
                if appender is not None:
                    appender.close()
                try:
                    file.unlink()
                except OSError:
                    continue
                removed += 1
            stats["shards_removed"] = removed
            atomic_write_json(self._root / COMPACTION_META_NAME, stats)
            return stats
