"""Tests for the ``repro serve`` HTTP service."""

import concurrent.futures
import json
import urllib.error
import urllib.request

import pytest

from repro.core.parameters import ModelParameters
from repro.distributed.ledger import SweepLedger, replay_ledger
from repro.distributed.service import ResultsService
from repro.scenario.runner import SweepRunner
from repro.scenario.spec import ScenarioSpec, SweepSpec

PARAMS = ModelParameters(core_size=5, spare_max=5, k=1, mu=0.2, d=0.9)


@pytest.fixture(scope="module")
def populated(tmp_path_factory):
    """A cache of 6 swept points plus a matching complete ledger."""
    root = tmp_path_factory.mktemp("served")
    cache = root / "cache"
    specs = SweepSpec(
        base=ScenarioSpec(
            name="served", params=PARAMS, engine="batch", runs=40, seed=5
        ),
        axes=(
            ("params.mu", (0.1, 0.3)),
            ("adversary", ("strong", "passive", "greedy-leave")),
        ),
    ).expand()
    SweepRunner(cache_dir=cache).sweep(specs)
    ledger_path = root / "ledger"
    with SweepLedger(ledger_path) as ledger:
        ledger.record_scheduled(specs)
        for spec in specs[:-1]:
            ledger.record_done(spec.key(), "w0", elapsed=0.1)
        ledger.record_claimed(specs[-1].key(), "w1")  # still in flight
    return {"cache": cache, "ledger": ledger_path, "specs": specs}


@pytest.fixture(scope="module")
def service(populated):
    with ResultsService(
        populated["cache"], ledger_path=populated["ledger"]
    ).start() as running:
        yield running


def get(service: ResultsService, path: str) -> tuple[int, str, bytes]:
    request = urllib.request.Request(
        f"http://127.0.0.1:{service.port}{path}"
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return (
                response.status,
                response.headers.get("Content-Type", ""),
                response.read(),
            )
    except urllib.error.HTTPError as error:
        return error.code, error.headers.get("Content-Type", ""), error.read()


def post(
    service: ResultsService,
    path: str,
    body: bytes,
    content_type: str = "application/json",
) -> tuple[int, dict]:
    request = urllib.request.Request(
        f"http://127.0.0.1:{service.port}{path}",
        data=body,
        headers={"Content-Type": content_type},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestRoutes:
    def test_healthz(self, service):
        status, content_type, body = get(service, "/healthz")
        assert status == 200 and content_type.startswith("application/json")
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["results"] == 6

    def test_progress_reflects_the_ledger(self, service):
        status, _, body = get(service, "/progress")
        assert status == 200
        progress = json.loads(body)
        assert progress["scheduled"] == 6
        assert progress["done"] == 5
        assert progress["pending"] == 1
        assert progress["claimed"] == 1
        assert progress["complete"] is False
        assert progress["results"] == 6

    def test_results_index(self, service, populated):
        status, _, body = get(service, "/results")
        assert status == 200
        page = json.loads(body)
        assert page["total"] == 6 and page["count"] == 6
        assert page["offset"] == 0 and page["next_offset"] is None
        keys = {entry["key"] for entry in page["results"]}
        assert keys == {spec.key() for spec in populated["specs"]}

    def test_results_pages_are_stable_and_non_overlapping(
        self, service, populated
    ):
        seen = []
        offset = 0
        while offset is not None:
            status, _, body = get(
                service, f"/results?offset={offset}&limit=2"
            )
            assert status == 200
            page = json.loads(body)
            assert page["total"] == 6 and page["count"] <= 2
            seen.extend(entry["key"] for entry in page["results"])
            offset = page["next_offset"]
        assert seen == sorted(spec.key() for spec in populated["specs"])
        assert len(set(seen)) == 6

    def test_results_rejects_malformed_pagination(self, service):
        for query in ("offset=-1", "limit=0", "offset=x", "limit=1.5"):
            status, _, body = get(service, f"/results?{query}")
            assert status == 400, query
            assert "error" in json.loads(body)

    def test_results_limit_is_capped(self, service):
        status, _, body = get(service, "/results?limit=999999")
        assert status == 200
        assert json.loads(body)["limit"] == 1000

    def test_result_by_key_serves_the_stored_payload(
        self, service, populated
    ):
        spec = populated["specs"][0]
        status, content_type, body = get(
            service, f"/results/{spec.key()}"
        )
        assert status == 200
        assert content_type.startswith("application/json")
        payload = json.loads(body)
        assert payload["result"]["key"] == spec.key()
        assert payload["spec"]["adversary"] == spec.adversary

    def test_result_by_unknown_key_is_404(self, service):
        status, _, body = get(service, "/results/" + "0" * 64)
        assert status == 404
        assert "no cached result" in json.loads(body)["error"]

    def test_malformed_key_is_404_not_path_traversal(self, service):
        status, _, _ = get(service, "/results/../../etc/passwd")
        assert status == 404

    def test_report_renders_the_sweep_table(self, service):
        status, content_type, body = get(service, "/report")
        assert status == 200 and content_type.startswith("text/plain")
        text = body.decode()
        assert "6 scenario results" in text
        assert "adversary" in text and "strong" in text

    def test_report_filters_by_name_and_metrics(self, service):
        status, _, body = get(
            service, "/report?name=passive&metrics=E(T_P)"
        )
        assert status == 200
        text = body.decode()
        assert "2 scenario results" in text
        assert "E(T_P)" in text and "greedy" not in text

    def test_report_with_no_match_is_404(self, service):
        status, _, _ = get(service, "/report?name=nonexistent")
        assert status == 404

    def test_unknown_route_lists_the_api(self, service):
        status, _, body = get(service, "/definitely/not/a/route")
        assert status == 404
        routes = json.loads(body)["routes"]
        assert any(route.startswith("/progress") for route in routes)
        assert "POST /submit" in routes


class TestConcurrentClients:
    def test_many_concurrent_readers_get_complete_payloads(
        self, service, populated
    ):
        keys = [spec.key() for spec in populated["specs"]]
        paths = [f"/results/{key}" for key in keys] * 10 + [
            "/progress",
            "/healthz",
            "/report",
        ] * 5

        def fetch(path: str) -> int:
            status, _, body = get(service, path)
            assert status == 200
            if path.startswith("/results/"):
                assert json.loads(body)["result"]["key"] in keys
            return status

        with concurrent.futures.ThreadPoolExecutor(max_workers=16) as pool:
            statuses = list(pool.map(fetch, paths))
        assert statuses == [200] * len(paths)


class TestBadDiskState:
    def test_malformed_ledger_yields_500_not_a_dropped_connection(
        self, populated, tmp_path
    ):
        bad_ledger = tmp_path / "bad"
        (bad_ledger / "shards").mkdir(parents=True)
        (bad_ledger / "shards" / "_unassigned.jsonl").write_text(
            '{"event": "exploded", "key": "a"}\n'
        )
        with ResultsService(
            populated["cache"], ledger_path=bad_ledger
        ).start() as service:
            status, content_type, body = get(service, "/progress")
            assert status == 500
            assert content_type.startswith("application/json")
            assert "ValueError" in json.loads(body)["error"]
            # Other routes stay healthy on the same service.
            assert get(service, "/healthz")[0] == 200


class TestWithoutLedger:
    def test_progress_degrades_gracefully(self, populated):
        with ResultsService(populated["cache"]).start() as service:
            status, _, body = get(service, "/progress")
            assert status == 200
            progress = json.loads(body)
            assert progress["ledger"] is None
            assert progress["results"] == 6
            assert "scheduled" not in progress


GRID_DOCUMENT = {
    "name": "submitted-grid",
    "engine": "batch",
    "runs": 30,
    "seed": 77,
    "params": {"core_size": 5, "spare_max": 5, "k": 1, "mu": 0.2, "d": 0.9},
    "sweep": {"params.mu": [0.1, 0.2, 0.3], "adversary": ["strong", "passive"]},
}


class TestSubmit:
    """``POST /submit``: the service as the fabric's front door."""

    def fresh(self, tmp_path):
        return ResultsService(
            tmp_path / "cache", ledger_path=tmp_path / "ledger"
        ).start()

    def test_json_grid_expands_into_the_ledger(self, tmp_path):
        from repro.scenario.spec import SweepSpec, load_scenario_document

        with self.fresh(tmp_path) as service:
            status, reply = post(
                service, "/submit", json.dumps(GRID_DOCUMENT).encode()
            )
            assert status == 202
            assert reply["points"] == reply["new_points"] == 6
            expected = {
                spec.key()
                for spec in load_scenario_document(GRID_DOCUMENT).expand()
            }
            state = replay_ledger(tmp_path / "ledger")
            assert set(state.scheduled) == expected
            assert set(state.sweeps[reply["sweep"]]) == expected
            # The scheduled wire specs rebuild to the submitted grid.
            from repro.scenario.spec import ScenarioSpec

            for key, wire in state.scheduled.items():
                assert ScenarioSpec.from_dict(wire).key() == key
            # And /progress?sweep= tracks it.
            status, _, body = get(
                service, f"/progress?sweep={reply['sweep']}"
            )
            progress = json.loads(body)
            assert status == 200
            assert progress["points"] == 6
            assert progress["pending"] == 6
            assert progress["complete"] is False

    def test_toml_grid_is_accepted_by_content_type(self, tmp_path):
        toml = (
            'name = "toml-grid"\nengine = "batch"\nruns = 30\nseed = 3\n'
            "[params]\ncore_size = 5\nspare_max = 5\nk = 1\n"
            "mu = 0.2\nd = 0.9\n[sweep]\n"
            '"params.mu" = [0.1, 0.2]\n'
        )
        with self.fresh(tmp_path) as service:
            status, reply = post(
                service,
                "/submit",
                toml.encode(),
                content_type="application/toml",
            )
            assert status == 202
            assert reply["points"] == 2

    def test_resubmission_is_idempotent(self, tmp_path):
        with self.fresh(tmp_path) as service:
            body = json.dumps(GRID_DOCUMENT).encode()
            _, first = post(service, "/submit", body)
            _, second = post(service, "/submit", body)
            assert first["sweep"] == second["sweep"]
            assert second["new_points"] == 0
            state = replay_ledger(tmp_path / "ledger")
            assert len(state.scheduled) == 6  # no duplicate scheduling

    def test_single_scenario_submits_as_one_point(self, tmp_path):
        document = {k: v for k, v in GRID_DOCUMENT.items() if k != "sweep"}
        with self.fresh(tmp_path) as service:
            status, reply = post(
                service, "/submit", json.dumps(document).encode()
            )
            assert status == 202
            assert reply["points"] == 1

    def test_invalid_documents_are_400(self, tmp_path):
        bad_bodies = [
            (b"{not json", "application/json"),
            (b'{"frobnicate": 1}', "application/json"),  # unknown field
            (b'{"n": -5}', "application/json"),  # SpecError bound
            (b'{"sweep": {"params.mu": []}}', "application/json"),
            (b'{"sweep": "params.mu"}', "application/json"),
            (b"[1, 2, 3]", "application/json"),  # not a mapping
            (b"= broken toml", "application/toml"),
        ]
        with self.fresh(tmp_path) as service:
            for body, content_type in bad_bodies:
                status, reply = post(
                    service, "/submit", body, content_type=content_type
                )
                assert status == 400, (body, reply)
                assert "error" in reply
            # Nothing leaked into the ledger.
            state = replay_ledger(tmp_path / "ledger")
            assert not state.scheduled and not state.sweeps

    def test_submit_without_ledger_is_503(self, tmp_path):
        with ResultsService(tmp_path / "cache").start() as service:
            status, reply = post(
                service, "/submit", json.dumps(GRID_DOCUMENT).encode()
            )
            assert status == 503
            assert "ledger" in reply["error"]

    def test_unknown_post_route_is_404(self, tmp_path):
        with self.fresh(tmp_path) as service:
            status, reply = post(service, "/results", b"{}")
            assert status == 404
            assert reply["routes"] == ["/submit", "/cancel"]

    def test_unknown_sweep_id_is_404(self, tmp_path):
        with self.fresh(tmp_path) as service:
            post(service, "/submit", json.dumps(GRID_DOCUMENT).encode())
            status, _, body = get(service, "/progress?sweep=" + "0" * 64)
            assert status == 404
            assert "unknown sweep" in json.loads(body)["error"]


class TestSweepScopedReport:
    def test_report_filters_to_one_submitted_sweep(self, populated):
        """/report?sweep= renders only the submitted sweep's points."""
        with ResultsService(
            populated["cache"], ledger_path=populated["ledger"]
        ).start() as service:
            # Submit a sub-grid matching two of the cached results.
            subset = [spec.key() for spec in populated["specs"][:2]]
            from repro.distributed.service import sweep_id

            with SweepLedger(populated["ledger"]) as ledger:
                ledger.record_submitted(sweep_id(subset), subset)
            status, _, body = get(
                service, f"/report?sweep={sweep_id(subset)}"
            )
            assert status == 200
            assert "2 scenario results" in body.decode()
            status, _, _ = get(service, "/report?sweep=" + "1" * 64)
            assert status == 404


class TestOversizedSubmit:
    def test_oversized_body_is_413_and_closes_the_connection(
        self, tmp_path, monkeypatch
    ):
        """A body above the limit is refused *without reading it*, and
        the connection is closed so the unread bytes cannot poison the
        next pipelined request."""
        import repro.distributed.service as service_module

        monkeypatch.setattr(service_module, "MAX_SUBMIT_BYTES", 64)
        with ResultsService(
            tmp_path / "cache", ledger_path=tmp_path / "ledger"
        ).start() as service:
            status, reply = post(service, "/submit", b"x" * 200)
            assert status == 413
            assert "exceeds" in reply["error"]
            # The service stays healthy for the next (new) connection.
            assert get(service, "/healthz")[0] == 200


def post_full(
    service: ResultsService,
    path: str,
    body: bytes,
    headers: dict | None = None,
) -> tuple[int, dict, dict]:
    """POST returning (status, response headers, parsed body)."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{service.port}{path}",
        data=body,
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return (
                response.status,
                dict(response.headers.items()),
                json.loads(response.read()),
            )
    except urllib.error.HTTPError as error:
        return (
            error.code,
            dict(error.headers.items()),
            json.loads(error.read()),
        )


class TestCancel:
    """``POST /cancel``: durable, idempotent sweep revocation."""

    def submitted(self, tmp_path):
        service = ResultsService(
            tmp_path / "cache", ledger_path=tmp_path / "ledger"
        ).start()
        _, reply = post(
            service, "/submit", json.dumps(GRID_DOCUMENT).encode()
        )
        return service, reply["sweep"]

    def test_cancel_revokes_and_is_idempotent(self, tmp_path):
        service, sweep = self.submitted(tmp_path)
        with service:
            status, reply = post(
                service, "/cancel", json.dumps({"sweep": sweep}).encode()
            )
            assert status == 200
            assert reply["cancelled"] is True
            assert reply["already_cancelled"] is False
            assert reply["revoked"] == 6 and reply["points"] == 6
            status, reply = post(
                service, "/cancel", json.dumps({"sweep": sweep}).encode()
            )
            assert status == 200 and reply["already_cancelled"] is True
            # Durable: the record survives in the ledger itself.
            state = replay_ledger(tmp_path / "ledger")
            assert sweep in state.cancelled
            assert state.pending == set()

    def test_cancelled_sweep_is_never_complete(self, tmp_path):
        service, sweep = self.submitted(tmp_path)
        with service:
            post(service, "/cancel", json.dumps({"sweep": sweep}).encode())
            status, _, body = get(service, f"/progress?sweep={sweep}")
            assert status == 200
            progress = json.loads(body)
            assert progress["cancelled"] is True
            assert progress["complete"] is False
            assert progress["pending"] == 0  # revoked, not in any queue
            # The global view counts it too.
            overall = json.loads(get(service, "/progress")[2])
            assert overall["cancelled"] == 1

    def test_resubmitting_a_cancelled_grid_is_409(self, tmp_path):
        service, sweep = self.submitted(tmp_path)
        with service:
            post(service, "/cancel", json.dumps({"sweep": sweep}).encode())
            status, reply = post(
                service, "/submit", json.dumps(GRID_DOCUMENT).encode()
            )
            assert status == 409
            assert reply["sweep"] == sweep
            assert "cancelled" in reply["error"]

    def test_unknown_sweep_is_404_and_bad_body_is_400(self, tmp_path):
        service, _ = self.submitted(tmp_path)
        with service:
            status, reply = post(
                service,
                "/cancel",
                json.dumps({"sweep": "0" * 64}).encode(),
            )
            assert status == 404
            assert post(service, "/cancel", b"not json")[0] == 400
            assert post(service, "/cancel", b"{}")[0] == 400


class TestAuthToken:
    """Shared-token auth on the mutating surface."""

    def guarded(self, tmp_path):
        return ResultsService(
            tmp_path / "cache",
            ledger_path=tmp_path / "ledger",
            auth_token="sesame",
        ).start()

    def test_posts_require_the_bearer_token(self, tmp_path):
        body = json.dumps(GRID_DOCUMENT).encode()
        with self.guarded(tmp_path) as service:
            status, headers, reply = post_full(service, "/submit", body)
            assert status == 401
            assert headers["WWW-Authenticate"].startswith("Bearer")
            assert "token" in reply["error"]
            status, _, _ = post_full(
                service,
                "/submit",
                body,
                headers={"Authorization": "Bearer wrong"},
            )
            assert status == 401
            status, _, reply = post_full(
                service,
                "/submit",
                body,
                headers={"Authorization": "Bearer sesame"},
            )
            assert status == 202 and reply["points"] == 6
            # /cancel sits behind the same gate.
            sweep = reply["sweep"]
            assert post(service, "/cancel", b"{}")[0] == 401
            status, _, reply = post_full(
                service,
                "/cancel",
                json.dumps({"sweep": sweep}).encode(),
                headers={"Authorization": "Bearer sesame"},
            )
            assert status == 200 and reply["cancelled"] is True

    def test_reads_stay_open(self, tmp_path):
        with self.guarded(tmp_path) as service:
            assert get(service, "/healthz")[0] == 200
            assert get(service, "/progress")[0] == 200


class TestBackpressure:
    def test_submit_is_503_with_retry_after_at_the_backlog_bound(
        self, tmp_path
    ):
        with ResultsService(
            tmp_path / "cache",
            ledger_path=tmp_path / "ledger",
            max_backlog=4,
        ).start() as service:
            first = json.dumps(GRID_DOCUMENT).encode()
            status, _, reply = post_full(service, "/submit", first)
            assert status == 202  # backlog was empty at check time
            other = dict(GRID_DOCUMENT, name="second-grid", seed=78)
            status, headers, reply = post_full(
                service, "/submit", json.dumps(other).encode()
            )
            assert status == 503
            assert int(headers["Retry-After"]) > 0
            assert reply["backlog"] == 6 and reply["max_backlog"] == 4
            # The refused sweep left no trace in the ledger.
            state = replay_ledger(tmp_path / "ledger")
            assert len(state.scheduled) == 6
            # /healthz shows the same pressure the 503 reported.
            health = json.loads(get(service, "/healthz")[2])
            assert health["backlog"] == 6
            assert health["max_backlog"] == 4


class TestHealthzGauges:
    def test_sharded_ledger_gauges(self, tmp_path):
        """/healthz exposes per-shard sizes, the last-compaction stamp
        and the backlog depth."""
        ledger = tmp_path / "ledger"
        with ResultsService(
            tmp_path / "cache", ledger_path=ledger
        ).start() as service:
            _, reply = post(
                service, "/submit", json.dumps(GRID_DOCUMENT).encode()
            )
            health = json.loads(get(service, "/healthz")[2])
            assert health["backlog"] == 6
            assert health["requeued"] == 0
            assert health["shard_count"] == 1
            assert health["tail_bytes"] > 0
            assert health["last_compaction"] is None
            (shard_name,) = health["shards"]
            assert health["shards"][shard_name] > 0

            with SweepLedger(ledger) as handle:
                handle.compact()
            health = json.loads(get(service, "/healthz")[2])
            assert health["shard_count"] == 0
            assert health["tail_bytes"] == 0
            assert health["last_compaction"]["generation"] == 1
            # The submitted sweep survived compaction intact.
            progress = json.loads(
                get(service, f"/progress?sweep={reply['sweep']}")[2]
            )
            assert progress["points"] == 6

    def test_requeue_count_survives_compaction(self, tmp_path):
        """``requeued`` in /healthz folds from the ledger (snapshot
        included), so it strictly increases across a requeue even
        after compaction erases the event record itself."""
        from repro.scenario.spec import load_scenario_document

        ledger = tmp_path / "ledger"
        specs = load_scenario_document(GRID_DOCUMENT).expand()
        with ResultsService(
            tmp_path / "cache", ledger_path=ledger
        ).start() as service:
            post(service, "/submit", json.dumps(GRID_DOCUMENT).encode())
            with SweepLedger(ledger) as handle:
                key = specs[0].key()
                handle.record_claimed(key, "w0")
                handle.record_requeued(
                    key, "w0", reason="connection-lost"
                )
                handle.record_claimed(key, "w1")
                handle.record_requeued(key, "w1", reason="lease-expired")
                handle.compact()
            health = json.loads(get(service, "/healthz")[2])
            assert health["requeued"] == 2


def assert_valid_exposition(text: str) -> None:
    """Every /metrics line parses; HELP/TYPE appear once per metric."""
    import re

    sample = re.compile(
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
        r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
        r'(,[a-zA-Z_+]+="(?:[^"\\]|\\.)*")*\})?'
        r" -?[0-9].*$"
    )
    seen_help: set[str] = set()
    seen_type: set[str] = set()
    for line in text.splitlines():
        if line.startswith("# HELP "):
            name = line.split()[2]
            assert name not in seen_help, f"duplicate HELP {name}"
            seen_help.add(name)
        elif line.startswith("# TYPE "):
            name = line.split()[2]
            assert name not in seen_type, f"duplicate TYPE {name}"
            seen_type.add(name)
        else:
            assert sample.match(line), f"unparseable: {line!r}"


def parse_samples(text: str) -> dict[str, float]:
    """``{'name{labels}': value}`` for every sample line."""
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        samples[name] = float(value)
    return samples


class TestMetricsRoute:
    def test_exposition_is_valid_and_correctly_typed(self, service):
        status, content_type, body = get(service, "/metrics")
        assert status == 200
        assert content_type == "text/plain; version=0.0.4; charset=utf-8"
        text = body.decode()
        assert_valid_exposition(text)
        assert "# TYPE repro_http_requests_total counter" in text
        assert "# TYPE repro_http_request_seconds histogram" in text
        assert "# TYPE repro_store_results gauge" in text

    def test_gauges_reflect_the_durable_artifacts(self, service):
        samples = parse_samples(get(service, "/metrics")[2].decode())
        assert samples["repro_store_results"] == 6
        assert samples["repro_ledger_backlog"] == 1  # one still claimed
        assert samples["repro_ledger_done"] == 5
        assert samples["repro_ledger_requeued_total"] == 0

    def test_requests_are_counted_by_route_template(self, service, populated):
        get(service, "/healthz")
        get(service, f"/results/{populated['specs'][0].key()}")
        samples = parse_samples(get(service, "/metrics")[2].decode())
        assert (
            samples['repro_http_requests_total{route="/healthz",status="200"}']
            >= 1
        )
        # Per-key requests share one bounded template label.
        assert (
            samples[
                'repro_http_requests_total'
                '{route="/results/<key>",status="200"}'
            ]
            >= 1
        )
        assert (
            samples['repro_http_request_seconds_count{route="/healthz"}'] >= 1
        )

    def test_metrics_is_auth_exempt(self, tmp_path):
        with ResultsService(
            tmp_path / "cache",
            ledger_path=tmp_path / "ledger",
            auth_token="sesame",
        ).start() as service:
            status, content_type, _ = get(service, "/metrics")
            assert status == 200
            assert content_type.startswith("text/plain")
