"""``repro serve``: a stdlib HTTP service over sweep state.

Serves the two durable artifacts of the fabric -- the content-addressed
result store and the job ledger -- to many concurrent clients, with no
dependency on a live coordinator (the store and ledger are files, so
the service can run on any host that sees them, during or after a
sweep).  With a ledger configured it is also the fabric's *front
door*: ``POST /submit`` validates a scenario/grid document, expands it
into durable ``scheduled`` records, and returns a sweep id -- a
``repro sweep-coordinator --watch`` tailing the same ledger picks the
points up and real workers execute them.

Routes:

=================================  ==========================================
``GET /healthz``                   liveness: ``{"status": "ok", ...}``
``GET /progress``                  ledger-derived sweep progress (scheduled
                                   / done / failed / claimed / pending) plus
                                   the store's result count; ``?sweep=<id>``
                                   narrows to one submitted sweep
``GET /results``                   paginated JSON index of cached results
                                   (``?offset=&limit=``, key-sorted, backed
                                   by the crash-safe index sidecar -- pages
                                   are stable and non-overlapping)
``GET /results/<key>``             one full ``{"spec": ..., "result": ...}``
                                   payload by content address
``GET /report``                    the aligned sweep table as ``text/plain``
                                   (query: ``name=`` substring filter,
                                   ``metrics=`` columns, ``sweep=`` id)
``POST /submit``                   enqueue a scenario/grid document (JSON
                                   body, or TOML with a toml Content-Type);
                                   answers 202 with the sweep id, 409 if the
                                   sweep was cancelled, or 503 +
                                   ``Retry-After`` under backpressure
``POST /cancel``                   revoke a submitted sweep (JSON body
                                   ``{"sweep": "<id>"}``): a durable
                                   ``cancelled`` ledger record that a live
                                   coordinator picks up within one tail poll
                                   -- leases released, pending points
                                   dropped, in-flight results ignored
=================================  ==========================================

**Auth**: with ``auth_token`` set, every POST must carry
``Authorization: Bearer <token>`` or is refused with 401 +
``WWW-Authenticate`` (reads stay open -- results are content-addressed
and immutable, the mutating surface is what needs the gate).
**Backpressure**: with ``max_backlog`` set, ``POST /submit`` answers
``503`` with a ``Retry-After`` header while the ledger already holds
that many unfinished points -- a misbehaving client cannot wedge the
fabric under an unbounded queue, and a well-behaved one knows exactly
when to come back.

Concurrency: :class:`~http.server.ThreadingHTTPServer` dispatches one
thread per connection; readers only touch immutable content-addressed
files (atomically published, so a reader never observes a partial
result), the append-only ledger, and the memoized index sidecar.
Submits append whole ``O_APPEND`` lines, so they interleave safely
with a live coordinator writing the same ledger from another process.
Replays are memoized on the ledger's freshness stamp, which covers
every file a compaction may touch.

The request-routing core (:meth:`ResultsService.respond` /
:meth:`ResultsService.respond_post`) is a pure function of the path,
query, body and headers -- the tests exercise it directly and through
real sockets.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import pathlib
import re
import threading
import time
import tomllib
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping

from repro.distributed.ledger import (
    SweepLedger,
    ledger_stamp,
    ledger_stats,
    replay_ledger,
)
from repro.obs import metrics as obs_metrics
from repro.obs.trace import new_trace_id
from repro.scenario.report import collect_records, sweep_report
from repro.scenario.spec import (
    ScenarioSpec,
    SpecError,
    SweepSpec,
    load_scenario_document,
)
from repro.scenario.store import ResultIndex

__all__ = ["ResultsService", "sweep_id"]

_KEY_PATTERN = re.compile(r"^/results/([0-9a-f]{64})$")

#: Content type of the Prometheus text exposition format.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_REQUESTS = obs_metrics.counter(
    "repro_http_requests_total",
    "HTTP requests served, by route template and status",
    ("route", "status"),
)
_LATENCY = obs_metrics.histogram(
    "repro_http_request_seconds",
    "HTTP request handling latency, by route template",
    ("route",),
)
# Fabric-wide gauges, refreshed from the durable artifacts (index
# sidecar + ledger replay) on every /metrics or /healthz hit -- so a
# scrape sees cross-process truth, not just this process's counters.
_G_RESULTS = obs_metrics.gauge(
    "repro_store_results",
    "Results in the content-addressed store (index sidecar total)",
)
_G_BACKLOG = obs_metrics.gauge(
    "repro_ledger_backlog",
    "Scheduled points with no terminal event (ledger replay)",
)
_G_DONE = obs_metrics.gauge(
    "repro_ledger_done",
    "Points the ledger holds as done",
)
_G_FAILED = obs_metrics.gauge(
    "repro_ledger_failed",
    "Points the ledger holds as terminally failed",
)
_G_REQUEUED = obs_metrics.gauge(
    "repro_ledger_requeued_total",
    "Requeued events across the whole ledger (at-least-once; survives "
    "compaction via the snapshot)",
)
_G_CANCELLED = obs_metrics.gauge(
    "repro_ledger_cancelled_sweeps",
    "Sweeps durably revoked by POST /cancel",
)
_G_SHARDS = obs_metrics.gauge(
    "repro_ledger_shard_count",
    "Uncompacted shard files of the job ledger",
)
_G_TAIL = obs_metrics.gauge(
    "repro_ledger_tail_bytes",
    "Uncompacted shard bytes of the job ledger",
)
_G_GENERATION = obs_metrics.gauge(
    "repro_ledger_compaction_generation",
    "Generation stamp of the newest ledger compaction",
)

#: Page size when ``limit`` is omitted, and its hard ceiling.  The
#: ceiling is what keeps one request from dragging a million-entry
#: index through one response body.
DEFAULT_PAGE_LIMIT = 100
MAX_PAGE_LIMIT = 1000

#: Request bodies above this are refused before parsing (a million-point
#: grid document is ~100 bytes of axes, not megabytes of anything).
MAX_SUBMIT_BYTES = 8 * 1024 * 1024

#: ``Retry-After`` seconds on a backpressured 503: long enough for a
#: worker fleet to drain real points, short enough that a patient
#: client's sweep still starts promptly.
RETRY_AFTER_SECONDS = 5


class _Response(tuple):
    """A ``(status, content_type, body)`` triple with extra headers.

    Unpacks exactly like the plain tuple every existing caller
    expects; the handler additionally forwards :attr:`headers`
    (``Retry-After``, ``WWW-Authenticate``) when present.
    """

    headers: dict[str, str]

    def __new__(
        cls,
        status: int,
        content_type: str,
        body: bytes,
        headers: Mapping[str, str] | None = None,
    ) -> "_Response":
        self = super().__new__(cls, (status, content_type, body))
        self.headers = dict(headers or {})
        return self


def sweep_id(keys: list[str]) -> str:
    """Content address of a submitted sweep: the digest of its sorted
    point keys.  Resubmitting the same grid yields the same id, which
    is what makes ``POST /submit`` idempotent."""
    return hashlib.sha256("\n".join(sorted(keys)).encode()).hexdigest()


class ResultsService:
    """HTTP frontend over a result store and (optionally) a ledger.

    ``port=0`` binds an ephemeral port (read :attr:`port` after
    construction).  :meth:`start` serves in a daemon thread (tests,
    embedding); :meth:`serve_forever` blocks (the CLI).
    """

    def __init__(
        self,
        cache_dir: str | pathlib.Path,
        ledger_path: str | pathlib.Path | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        auth_token: str | None = None,
        max_backlog: int | None = None,
    ) -> None:
        if max_backlog is not None and max_backlog < 1:
            raise ValueError(
                f"max_backlog must be positive, got {max_backlog}"
            )
        self._cache_dir = pathlib.Path(cache_dir)
        self._ledger_path = (
            pathlib.Path(ledger_path) if ledger_path is not None else None
        )
        self._auth_token = auth_token
        self._max_backlog = max_backlog
        self._index = ResultIndex(self._cache_dir)
        service = self

        class _Handler(BaseHTTPRequestHandler):
            # One connection may pipeline many requests (keep-alive).
            protocol_version = "HTTP/1.1"

            def _reply(
                self,
                status: int,
                content_type: str,
                body: bytes,
                headers: Mapping[str, str] | None = None,
            ) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                for name, value in (headers or {}).items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self) -> None:  # noqa: N802 -- stdlib contract
                try:
                    response = service.respond(self.path)
                except Exception as error:  # noqa: BLE001 -- bad disk state
                    # e.g. a ledger that replays with a malformed
                    # record: answer 500 instead of dropping the
                    # connection with no HTTP response at all.
                    response = service._json(
                        500, {"error": f"{type(error).__name__}: {error}"}
                    )
                self._reply(
                    *response, headers=getattr(response, "headers", None)
                )

            def do_POST(self) -> None:  # noqa: N802 -- stdlib contract
                length = int(self.headers.get("Content-Length") or 0)
                if length > MAX_SUBMIT_BYTES:
                    # The body is deliberately left unread; closing
                    # the connection keeps those bytes from being
                    # parsed as the next pipelined request.
                    self.close_connection = True
                    self._reply(
                        *service._json(
                            413,
                            {
                                "error": (
                                    f"request body of {length} bytes "
                                    f"exceeds the {MAX_SUBMIT_BYTES}-"
                                    f"byte limit"
                                )
                            },
                        )
                    )
                    return
                try:
                    body = self.rfile.read(length) if length > 0 else b""
                    response = service.respond_post(
                        self.path,
                        body,
                        self.headers.get("Content-Type", ""),
                        headers=dict(self.headers.items()),
                    )
                except Exception as error:  # noqa: BLE001 -- bad input
                    response = service._json(
                        500, {"error": f"{type(error).__name__}: {error}"}
                    )
                self._reply(
                    *response, headers=getattr(response, "headers", None)
                )

            def log_message(self, *args) -> None:  # noqa: D102
                pass  # quiet by default; curl/tests see the bodies

        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._thread: threading.Thread | None = None
        # (size, mtime_ns) -> folded state: the ledger is append-only,
        # so an unchanged stat means an unchanged replay; /progress on
        # a finished million-line ledger then costs one stat call per
        # request instead of a full re-parse.
        self._replay_lock = threading.Lock()
        self._replay_stamp: tuple[int, int] | None = None
        self._replay_state = None
        # Submits serialize: concurrent grid expansions are cheap, but
        # two racing replay-then-schedule passes would write duplicate
        # scheduled lines for nothing (replay dedupes them, the bytes
        # are still waste).
        self._submit_lock = threading.Lock()

    @property
    def port(self) -> int:
        """The bound TCP port."""
        return self._server.server_address[1]

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "ResultsService":
        """Serve in a background daemon thread; returns ``self``."""
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        self._server.serve_forever()

    def close(self) -> None:
        """Stop serving and release the socket."""
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ResultsService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- routing core (pure: path in, response out) -------------------------

    def respond(self, path: str) -> tuple[int, str, bytes]:
        """Resolve one GET to ``(status, content_type, body)``.

        Every request is counted and timed under its route *template*
        (``/results/<key>``, not each key's own label set) so the
        metric cardinality stays bounded no matter how many results a
        store holds.
        """
        parsed = urllib.parse.urlsplit(path)
        route = parsed.path.rstrip("/") or "/"
        query = dict(urllib.parse.parse_qsl(parsed.query))
        template = route
        started = time.perf_counter()
        response: tuple[int, str, bytes] | None = None
        try:
            if route == "/healthz":
                response = self._healthz()
            elif route == "/metrics":
                response = self._metrics()
            elif route == "/progress":
                response = self._progress(query.get("sweep"))
            elif route == "/results":
                response = self._results_page(query)
            elif route == "/report":
                response = self._report(query)
            else:
                match = _KEY_PATTERN.match(route)
                if match:
                    template = "/results/<key>"
                    response = self._result_payload(match.group(1))
                else:
                    template = "other"
                    response = self._json(
                        404,
                        {
                            "error": f"unknown route {route!r}",
                            "routes": [
                                "/healthz",
                                "/metrics",
                                "/progress[?sweep=<id>]",
                                "/results?offset=&limit=",
                                "/results/<key>",
                                "/report",
                                "POST /submit",
                                "POST /cancel",
                            ],
                        },
                    )
            return response
        finally:
            status = response[0] if response is not None else 500
            _LATENCY.observe(
                time.perf_counter() - started, route=template
            )
            _REQUESTS.inc(route=template, status=str(status))

    def respond_post(
        self,
        path: str,
        body: bytes,
        content_type: str = "",
        headers: Mapping[str, str] | None = None,
    ) -> tuple[int, str, bytes]:
        """Resolve one POST to ``(status, content_type, body)``."""
        parsed = urllib.parse.urlsplit(path)
        route = parsed.path.rstrip("/") or "/"
        template = (
            route if route in ("/submit", "/cancel") else "other"
        )
        started = time.perf_counter()
        response: tuple[int, str, bytes] | None = None
        try:
            if not self._authorized(headers):
                response = self._json(
                    401,
                    {"error": "missing or invalid bearer token"},
                    headers={"WWW-Authenticate": 'Bearer realm="repro"'},
                )
            elif route == "/submit":
                response = self._submit(body, content_type)
            elif route == "/cancel":
                response = self._cancel(body)
            else:
                response = self._json(
                    404,
                    {
                        "error": f"no POST route {route!r}",
                        "routes": ["/submit", "/cancel"],
                    },
                )
            return response
        finally:
            status = response[0] if response is not None else 500
            _LATENCY.observe(
                time.perf_counter() - started, route=f"POST {template}"
            )
            _REQUESTS.inc(route=f"POST {template}", status=str(status))

    def _authorized(self, headers: Mapping[str, str] | None) -> bool:
        """Bearer-token gate on the mutating surface.

        No configured token means an open service (the historical
        default -- single-tenant labs behind a firewall); with one,
        the comparison is constant-time so the token cannot be
        guessed a byte at a time off response latency.
        """
        if self._auth_token is None:
            return True
        supplied = ""
        for name, value in (headers or {}).items():
            if name.lower() == "authorization":
                supplied = value
                break
        expected = f"Bearer {self._auth_token}"
        return hmac.compare_digest(
            supplied.encode("utf-8", "replace"), expected.encode()
        )

    # -- route bodies -------------------------------------------------------

    def _result_count(self) -> int:
        if not self._cache_dir.is_dir():
            return 0
        return sum(1 for _ in self._cache_dir.glob("*.json"))

    def _refresh_gauges(self) -> None:
        """Fold the durable artifacts into the registry's gauges.

        Scrape-safe by construction: every source is wrapped so a
        ledger mid-corruption (or a vanished store) degrades to stale
        gauge values, never to a failed scrape -- the counters around
        it keep flowing and the monitor keeps seeing *something*.
        """
        try:
            total, _ = self._index.page(0, 1)
            _G_RESULTS.set(total)
        except Exception:  # noqa: BLE001 -- scrape-safe
            pass
        if self._ledger_path is None or not self._ledger_path.exists():
            return
        try:
            state = self._replayed_ledger()
        except Exception:  # noqa: BLE001 -- dirty ledger: keep serving
            pass
        else:
            _G_BACKLOG.set(len(state.pending))
            _G_DONE.set(len(state.done))
            _G_FAILED.set(len(state.failed))
            _G_REQUEUED.set(sum(state.requeues.values()))
            _G_CANCELLED.set(len(state.cancelled))
        stats, meta = ledger_stats(self._ledger_path)
        _G_SHARDS.set(len(stats))
        _G_TAIL.set(sum(stats.values()))
        if meta is not None:
            _G_GENERATION.set(float(meta.get("generation", 0) or 0))

    def _metrics(self) -> tuple[int, str, bytes]:
        """The whole default registry, Prometheus text format.

        Deliberately auth-exempt (it is a GET, and the mutating
        surface is what the bearer token gates): scrapers are the one
        client that must never be locked out by a config change.
        """
        self._refresh_gauges()
        return _Response(
            200, METRICS_CONTENT_TYPE, obs_metrics.render().encode()
        )

    def _healthz(self) -> tuple[int, str, bytes]:
        """Liveness plus the fabric's load-bearing gauges.

        A monitor watching this one route sees queue pressure
        (``backlog``), cancellations, per-shard sizes and the last
        compaction stamp, so "the ledger is growing without bound" and
        "compaction stopped happening" are both one scrape away.
        """
        # /healthz and /metrics tell the same story from the same
        # sources: a hit on either refreshes the registry's gauges.
        self._refresh_gauges()
        payload: dict[str, Any] = {
            "status": "ok",
            "results": self._result_count(),
        }
        if self._max_backlog is not None:
            payload["max_backlog"] = self._max_backlog
        if self._ledger_path is not None and self._ledger_path.exists():
            payload["ledger"] = str(self._ledger_path)
            try:
                state = self._replayed_ledger()
            except ValueError as error:
                # Liveness must survive a ledger that replays dirty:
                # /progress is where that 500s, /healthz reports the
                # problem and stays a 200 -- a monitor that cannot
                # scrape the health route is blind exactly when it
                # matters.
                payload["ledger_error"] = f"{type(error).__name__}: {error}"
            else:
                payload["backlog"] = len(state.pending)
                payload["cancelled_sweeps"] = len(state.cancelled)
                payload["requeued"] = sum(state.requeues.values())
            stats, meta = ledger_stats(self._ledger_path)
            payload["shards"] = stats
            payload["shard_count"] = len(stats)
            payload["tail_bytes"] = sum(stats.values())
            payload["last_compaction"] = meta
        return self._json(200, payload)

    def _submit(
        self, body: bytes, content_type: str
    ) -> tuple[int, str, bytes]:
        """Expand a grid document into the durable ledger.

        The scheduled records land first, the fsynced ``submitted``
        record last: once the 202 is on the wire, the whole batch is
        on disk, and a coordinator (live-tailing or later resumed)
        cannot see the sweep id without its points.  Resubmitting the
        same document is idempotent -- same sweep id, no duplicate
        scheduled records, already-terminal points stay terminal.
        """
        if self._ledger_path is None:
            return self._json(
                503,
                {
                    "error": (
                        "submissions need a ledger; restart "
                        "'repro serve' with --ledger"
                    )
                },
            )
        try:
            text = body.decode("utf-8")
            if "toml" in content_type.lower():
                document = tomllib.loads(text)
            else:
                document = json.loads(text)
        except (UnicodeDecodeError, ValueError) as error:
            return self._json(
                400, {"error": f"unparseable submit body: {error}"}
            )
        try:
            loaded = load_scenario_document(document)
            specs = (
                loaded.expand()
                if isinstance(loaded, SweepSpec)
                else [loaded]
            )
        except (SpecError, TypeError, ValueError) as error:
            return self._json(400, {"error": f"invalid scenario: {error}"})
        unique: dict[str, ScenarioSpec] = {}
        for spec in specs:
            unique.setdefault(spec.key(), spec)
        identity = sweep_id(list(unique))
        name = str(document.get("name", "scenario"))
        # One telemetry trace per submitted sweep, minted here -- the
        # single point where a sweep enters the fabric.  It rides the
        # scheduled records into the coordinator, every protocol frame,
        # and every span any process emits for these points.
        trace = new_trace_id()
        with self._submit_lock:
            with SweepLedger(self._ledger_path) as ledger:
                # Opening the ledger created the directory, so
                # the stamp-memoized replay is safe -- and O(new
                # lines amortized) instead of a full re-parse per
                # submit on a long-lived fabric.
                state = self._replayed_ledger()
                if identity in state.cancelled:
                    # Cancellation is absorbing: the same grid hashes
                    # to the same sweep id, and resurrecting revoked
                    # work silently would defeat the whole point of
                    # the revocation.  A genuinely new run must change
                    # the grid (any axis value perturbs every key).
                    return self._json(
                        409,
                        {
                            "error": (
                                f"sweep {identity} was cancelled; "
                                "cancellation is permanent for this "
                                "exact grid"
                            ),
                            "sweep": identity,
                        },
                    )
                if (
                    self._max_backlog is not None
                    and len(state.pending) >= self._max_backlog
                ):
                    return self._json(
                        503,
                        {
                            "error": (
                                f"backlog of {len(state.pending)} "
                                f"unfinished points is at the "
                                f"{self._max_backlog}-point limit; "
                                f"retry later"
                            ),
                            "backlog": len(state.pending),
                            "max_backlog": self._max_backlog,
                        },
                        headers={
                            "Retry-After": str(RETRY_AFTER_SECONDS)
                        },
                    )
                already = set(state.scheduled)
                ledger.record_scheduled(
                    unique.values(),
                    already_scheduled=already,
                    sweep=identity,
                    traces={key: trace for key in unique},
                )
                ledger.record_submitted(identity, list(unique), name=name)
        return self._json(
            202,
            {
                "sweep": identity,
                "name": name,
                "points": len(unique),
                "new_points": len(set(unique) - already),
                "trace": trace,
                "progress": f"/progress?sweep={identity}",
                "results": f"/results?offset=0&limit={DEFAULT_PAGE_LIMIT}",
            },
        )

    def _cancel(self, body: bytes) -> tuple[int, str, bytes]:
        """Durably revoke one submitted sweep.

        Appends the fsynced ``cancelled`` record and answers 200: by
        then the revocation survives any crash, and a live coordinator
        tailing the ledger drops the sweep's pending points, releases
        its leases, and discards its in-flight results within one poll
        interval.  Idempotent -- cancelling twice (or racing another
        client) reports ``already_cancelled`` instead of erroring.
        """
        if self._ledger_path is None:
            return self._json(
                503,
                {
                    "error": (
                        "cancellation needs a ledger; restart "
                        "'repro serve' with --ledger"
                    )
                },
            )
        try:
            document = json.loads(body.decode("utf-8"))
            sweep = document["sweep"]
        except (UnicodeDecodeError, ValueError, KeyError, TypeError):
            return self._json(
                400,
                {"error": 'cancel body must be JSON {"sweep": "<id>"}'},
            )
        if not isinstance(sweep, str) or not sweep:
            return self._json(
                400, {"error": "sweep id must be a non-empty string"}
            )
        if not self._ledger_path.exists():
            return self._json(
                404, {"error": f"unknown sweep {sweep!r} (empty ledger)"}
            )
        with self._submit_lock:
            state = self._replayed_ledger()
            keys = state.sweeps.get(sweep)
            if keys is None:
                return self._json(
                    404, {"error": f"unknown sweep {sweep!r}"}
                )
            if sweep in state.cancelled:
                return self._json(
                    200,
                    {
                        "sweep": sweep,
                        "cancelled": True,
                        "already_cancelled": True,
                    },
                )
            with SweepLedger(self._ledger_path) as ledger:
                ledger.record_cancelled(sweep)
            revoked = sum(
                1
                for key in keys
                if key not in state.done and key not in state.failed
            )
        return self._json(
            200,
            {
                "sweep": sweep,
                "cancelled": True,
                "already_cancelled": False,
                "points": len(keys),
                "revoked": revoked,
                "done_before_cancel": sum(
                    1 for key in keys if key in state.done
                ),
            },
        )

    def _progress(self, sweep: str | None) -> tuple[int, str, bytes]:
        progress: dict[str, Any] = {
            "cache_dir": str(self._cache_dir),
            "results": self._result_count(),
            "ledger": None,
        }
        if self._ledger_path is None or not self._ledger_path.exists():
            if sweep is not None:
                return self._json(
                    404, {"error": f"no ledger to resolve sweep {sweep!r}"}
                )
            return self._json(200, progress)
        state = self._replayed_ledger()
        progress["ledger"] = str(self._ledger_path)
        if sweep is not None:
            keys = state.sweeps.get(sweep)
            if keys is None:
                return self._json(
                    404, {"error": f"unknown sweep {sweep!r}"}
                )
            cancelled = sweep in state.cancelled
            done = sum(1 for key in keys if key in state.done)
            failed = sum(1 for key in keys if key in state.failed)
            pending = len(keys) - done - failed
            progress.update(
                {
                    "sweep": sweep,
                    "points": len(keys),
                    "done": done,
                    "failed": failed,
                    "pending": 0 if cancelled else pending,
                    "cancelled": cancelled,
                    # A cancelled sweep is never "complete": its
                    # partial results exist in the store but must not
                    # be mistaken for the finished grid.
                    "complete": pending == 0 and not cancelled,
                }
            )
            return self._json(200, progress)
        pending = state.pending
        progress.update(
            {
                "scheduled": len(state.scheduled),
                "done": len(state.done),
                "failed": len(state.failed),
                "claimed": len(
                    [key for key in state.claims if key in pending]
                ),
                "pending": len(pending),
                "sweeps": len(state.sweeps),
                "cancelled": len(state.cancelled),
                "complete": not pending,
            }
        )
        return self._json(200, progress)

    def _replayed_ledger(self):
        """Replay the ledger, memoized on its freshness stamp.

        The stamp is the sorted per-file tuple of the ledger directory,
        so an appended shard, a fresh snapshot *and* a compaction that
        deleted shards all invalidate it.
        """
        stamp = ledger_stamp(self._ledger_path)
        with self._replay_lock:
            if stamp is None or stamp != self._replay_stamp:
                self._replay_state = replay_ledger(self._ledger_path)
                self._replay_stamp = stamp
            return self._replay_state

    def _results_page(
        self, query: dict[str, str]
    ) -> tuple[int, str, bytes]:
        """One stable page of the key-sorted result index.

        Backed by the sidecar (:class:`~repro.scenario.store
        .ResultIndex`), so the per-request cost is a ``stat`` plus one
        list slice -- never a full-store parse.  Key order means pages
        taken at different times never overlap or reorder; a result
        published between two page fetches can shift later pages by
        one, which ``total`` makes detectable.
        """
        try:
            offset = int(query.get("offset", 0))
            limit = int(query.get("limit", DEFAULT_PAGE_LIMIT))
        except ValueError:
            return self._json(
                400, {"error": "offset and limit must be integers"}
            )
        if offset < 0 or limit < 1:
            return self._json(
                400, {"error": "need offset >= 0 and limit >= 1"}
            )
        limit = min(limit, MAX_PAGE_LIMIT)
        total, page = self._index.page(offset, limit)
        next_offset = offset + limit if offset + limit < total else None
        return self._json(
            200,
            {
                "total": total,
                "offset": offset,
                "limit": limit,
                "count": len(page),
                "next_offset": next_offset,
                "results": page,
            },
        )

    def _report(self, query: dict[str, str]) -> tuple[int, str, bytes]:
        keys = None
        sweep = query.get("sweep")
        if sweep is not None:
            if self._ledger_path is None or not self._ledger_path.exists():
                return self._json(
                    404, {"error": f"no ledger to resolve sweep {sweep!r}"}
                )
            sweep_keys = self._replayed_ledger().sweeps.get(sweep)
            if sweep_keys is None:
                return self._json(404, {"error": f"unknown sweep {sweep!r}"})
            keys = set(sweep_keys)
        text = sweep_report(
            collect_records(cache_dir=self._cache_dir, keys=keys),
            name=query.get("name"),
            metrics=query.get("metrics"),
            source=str(self._cache_dir),
        )
        if text is None:
            return self._text(404, "no cached results match\n")
        return self._text(200, text + "\n")

    def _result_payload(self, key: str) -> tuple[int, str, bytes]:
        path = self._cache_dir / f"{key}.json"
        if not path.exists():
            return self._json(404, {"error": f"no cached result {key}"})
        # The file is the canonical JSON payload; serve its bytes.
        return 200, "application/json", path.read_bytes()

    @staticmethod
    def _json(
        status: int,
        payload: Any,
        headers: Mapping[str, str] | None = None,
    ) -> _Response:
        body = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
        return _Response(status, "application/json", body, headers)

    @staticmethod
    def _text(status: int, text: str) -> _Response:
        return _Response(status, "text/plain; charset=utf-8", text.encode())
