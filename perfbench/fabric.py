"""Workload ``fabric``: a real coordinator, two workers and the HTTP
service on localhost.

One iteration:

1. set-up -- launch ``repro serve`` and a spec-file ``repro
   sweep-coordinator`` on a fresh sharded ledger directory and store;
   set-up ends once both ports accept connections;
2. sweep -- launch two ``repro worker --store-dir`` processes with their
   CLI defaults; one client polls ``/progress`` and a ``/results`` page
   while the sweep runs (reads beside writes);
3. read -- after the coordinator exits, two clients each run a closed
   loop of a fixed number of GETs over ``/progress``, a ``/results``
   page, ``/results/<key>`` and ``/metrics``;
4. shutdown -- workers get a fixed grace window after the coordinator
   exits, then stragglers are terminated and counted.

The timed phase (``wall_s``) runs from worker launch to the
coordinator's exit; the read phase is timed on its own (``serve_*``).
Every point must be done in the ledger and published, and every stored
result must be byte-identical to an in-process ``execute_spec`` of the
same spec (the serial baseline).
"""

from __future__ import annotations

import http.client
import json
import shutil
import socket
import subprocess
import sys
import threading
import time

from common import (
    WORK,
    median,
    percentile,
    program_env,
    stop,
    try_reap,
)

N_WORKERS = 2
READ_CLIENTS = 2
#: GETs per read-phase client (closed loop, persistent connection).
READ_REQUESTS_PER_CLIENT = 600
#: Think time of the client polling while the sweep runs.
POLL_PAUSE_S = 0.05
#: Seconds workers get to exit on their own after the coordinator.
GRACE_S = 2.0
PAGE_LIMIT = 20
SETUP_TIMEOUT_S = 60.0
SWEEP_TIMEOUT_S = 120.0

#: Read-phase routes, by the service's route-template label.
ROUTE_TEMPLATES = {
    "progress": "/progress",
    "results_page": "/results",
    "result_key": "/results/<key>",
    "metrics": "/metrics",
}
ROUTES = tuple(ROUTE_TEMPLATES)

#: Label under which the timeline join groups the spec-file grid (a
#: spec-file coordinator records no sweep id of its own).
GRID_SWEEP = "perfbench-grid"


def grid_document(seed: int) -> dict:
    """120 batch points of 5 x 10^3 trajectories (~30 ms each serially)."""
    return {
        "name": "perfbench-fabric",
        "params": {"core_size": 7, "spare_max": 7, "k": 1},
        "initial": "delta",
        "engine": "batch",
        "runs": 5000,
        "seed": seed,
        "sweep": {
            "adversary": ["strong", "passive", "greedy-leave"],
            "churn": ["bernoulli", "poisson"],
            "params.mu": [0.1, 0.15, 0.2, 0.25],
            "params.d": [0.5, 0.6, 0.7, 0.8, 0.9],
        },
    }


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _accepts(port: int) -> bool:
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=0.5):
            return True
    except OSError:
        return False


def _repro(args: list[str], env: dict, log) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        env=env,
        stdout=log,
        stderr=subprocess.STDOUT,
        stdin=subprocess.DEVNULL,
    )


def _get(port: int, path: str) -> tuple[int, bytes, float]:
    """One GET on its own connection, which the server is asked to
    close (as ``curl`` or ``urllib`` do): status (0 when the request
    failed), body, latency."""
    started = time.perf_counter()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path, headers={"Connection": "close"})
        response = conn.getresponse()
        status, body = response.status, response.read()
    except (OSError, http.client.HTTPException):
        status, body = 0, b""
    finally:
        conn.close()
    return status, body, time.perf_counter() - started


def prepare(seed: int) -> dict:
    """Build the grid and its serial baseline (the expected bytes)."""
    from repro.scenario.runner import execute_spec
    from repro.scenario.spec import load_scenario_document
    from repro.scenario.store import result_path, store_result

    document = grid_document(seed)
    specs = load_scenario_document(document).expand()
    root = WORK / f"fabric-{seed}"
    shutil.rmtree(root, ignore_errors=True)
    serial_dir = root / "serial"
    started = time.perf_counter()
    for spec in specs:
        store_result(serial_dir, spec, execute_spec(spec))
    serial_s = time.perf_counter() - started
    expected = {
        spec.key(): result_path(serial_dir, spec).read_bytes()
        for spec in specs
    }
    return {
        "root": root,
        "document": document,
        "keys": sorted(expected),
        "expected": expected,
        "serial_s": serial_s,
        "sizes": {
            "grid_points": len(specs),
            "runs_per_point": document["runs"],
            "workers": N_WORKERS,
            "read_clients": READ_CLIENTS,
            "read_requests": READ_CLIENTS * READ_REQUESTS_PER_CLIENT,
        },
    }


def _launch(work: dict, name: str, traced: bool) -> dict:
    """Set-up: start the service and coordinator on a fresh ledger and
    store; returns once both ports accept connections."""
    base = work["root"] / name
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    spec_file = base / "grid.json"
    spec_file.write_text(json.dumps(work["document"]))
    extra = {}
    if traced:
        extra["REPRO_TELEMETRY"] = str(base / "telemetry")
    env = program_env(**extra)
    log = open(base / "processes.log", "wb")
    fabric = {
        "base": base,
        "ledger": base / "ledger",
        "store": base / "store",
        "env": env,
        "log": log,
        "serve_port": _free_port(),
        "coordinator_port": _free_port(),
        "workers": [],
    }
    try:
        _start(fabric, spec_file)
    except BaseException:
        _shutdown(fabric)
        raise
    return fabric


def _start(fabric: dict, spec_file) -> None:
    env, log = fabric["env"], fabric["log"]
    started = time.perf_counter()
    fabric["serve"] = _repro(
        [
            "serve",
            "--port",
            str(fabric["serve_port"]),
            "--cache-dir",
            str(fabric["store"]),
            "--ledger",
            str(fabric["ledger"]),
        ],
        env,
        log,
    )
    fabric["coordinator"] = _repro(
        [
            "sweep-coordinator",
            str(spec_file),
            "--port",
            str(fabric["coordinator_port"]),
            "--ledger",
            str(fabric["ledger"]),
            "--cache-dir",
            str(fabric["store"]),
        ],
        env,
        log,
    )
    pending = {"serve_port", "coordinator_port"}
    deadline = started + SETUP_TIMEOUT_S
    while pending:
        for process in ("serve", "coordinator"):
            if try_reap(fabric[process]) is not None:
                raise RuntimeError(f"{process} exited during set-up")
        pending = {port for port in pending if not _accepts(fabric[port])}
        if time.perf_counter() > deadline:
            raise RuntimeError("fabric ports did not open in time")
        if pending:
            time.sleep(0.01)
    fabric["setup_s"] = time.perf_counter() - started


def _shutdown(fabric: dict) -> dict:
    """Stop every process of ``fabric``; returns their exit records."""
    reaped = {}
    for name in ("coordinator", "serve"):
        if name in fabric:
            reaped[name] = stop(fabric[name])
    for index, worker in enumerate(fabric["workers"]):
        reaped[f"worker{index}"] = stop(worker)
    fabric["log"].close()
    return reaped


def _poll(port: int, done: threading.Event, samples: list) -> None:
    offset = 0
    while not done.is_set():
        for route, path in (
            ("progress", "/progress"),
            ("results_page", f"/results?offset={offset}&limit={PAGE_LIMIT}"),
        ):
            status, body, latency = _get(port, path)
            samples.append((route, status, latency, None))
            if route == "results_page" and status == 200:
                total = json.loads(body).get("total", 0)
                offset += PAGE_LIMIT
                if offset >= total:
                    offset = 0
        done.wait(POLL_PAUSE_S)


def _read_loop(port: int, keys: list[str], first: int, samples: list) -> None:
    for step in range(first, first + READ_REQUESTS_PER_CLIENT):
        route = ROUTES[step % len(ROUTES)]
        key = None
        if route == "progress":
            path = "/progress"
        elif route == "results_page":
            offset = (step * 7) % len(keys)
            path = f"/results?offset={offset}&limit={PAGE_LIMIT}"
        elif route == "result_key":
            key = keys[(step * 13) % len(keys)]
            path = f"/results/{key}"
        else:
            path = "/metrics"
        status, body, latency = _get(port, path)
        samples.append((route, status, latency, (key, body) if key else None))


def _watch(workers: list, until: float) -> None:
    """Reap workers as they exit, until every one has or ``until``."""
    while time.perf_counter() < until:
        if all(try_reap(worker) for worker in workers):
            return
        time.sleep(0.01)


def iteration(work: dict, index: int, traced: bool) -> dict:
    """One full fabric lifetime; see the module docstring."""
    fabric = _launch(work, f"iter{index}", traced)
    keys = work["keys"]
    out = {"setup_s": fabric["setup_s"], "traced": traced}
    watcher = None
    try:
        t_launch = time.perf_counter()
        fabric["workers"] = [
            _repro(
                [
                    "worker",
                    "--port",
                    str(fabric["coordinator_port"]),
                    "--id",
                    f"perfbench-w{n}",
                    "--store-dir",
                    str(fabric["store"]),
                ],
                fabric["env"],
                fabric["log"],
            )
            for n in range(N_WORKERS)
        ]
        sweep_done = threading.Event()
        poll_samples: list = []
        poll_thread = threading.Thread(
            target=_poll, args=(fabric["serve_port"], sweep_done, poll_samples)
        )
        poll_thread.start()
        try:
            deadline = t_launch + SWEEP_TIMEOUT_S
            while (coordinator := try_reap(fabric["coordinator"])) is None:
                for worker in fabric["workers"]:
                    try_reap(worker)
                if time.perf_counter() > deadline:
                    raise RuntimeError("sweep did not finish in time")
                time.sleep(0.005)
        finally:
            sweep_done.set()
            poll_thread.join()
        t_coordinator = coordinator.at
        out["wall_s"] = t_coordinator - t_launch
        out["coordinator_exit"] = coordinator.code
        # Workers get GRACE_S after the coordinator's exit; from here
        # on only the watcher reaps them, so exit times are exact.
        watcher = threading.Thread(
            target=_watch, args=(fabric["workers"], t_coordinator + GRACE_S)
        )
        watcher.start()

        scrape_sweep = None
        if traced:
            scrape_sweep = _scrape_metrics(fabric["serve_port"])

        read_samples: list[list] = [[] for _ in range(READ_CLIENTS)]
        t_read = time.perf_counter()
        threads = [
            threading.Thread(
                target=_read_loop,
                args=(
                    fabric["serve_port"],
                    keys,
                    n * READ_REQUESTS_PER_CLIENT,
                    read_samples[n],
                ),
            )
            for n in range(READ_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        out["read_s"] = time.perf_counter() - t_read
        out["read_samples"] = [s for chunk in read_samples for s in chunk]
        out["poll_samples"] = poll_samples

        if traced:
            out["scrape_sweep"] = scrape_sweep
            out["scrape_read"] = _scrape_metrics(fabric["serve_port"])

        watcher.join()
        early = [try_reap(worker) for worker in fabric["workers"]]
    finally:
        if watcher is not None:
            watcher.join()
        reaped = _shutdown(fabric)
    out["worker_clean_exits"] = sum(
        record is not None and record.code == 0 for record in early
    )
    out["worker_exit_lag_s"] = max(
        reaped[f"worker{n}"].at - t_coordinator for n in range(N_WORKERS)
    )
    out["maxrss_mb"] = max(record.maxrss_mb for record in reaped.values())
    out["operations"] = _check(work, fabric, out)
    if traced:
        out["layers"] = _fabric_layers(work, fabric, out)
    return out


def _check(work: dict, fabric: dict, out: dict) -> list[dict]:
    """Points: done in the ledger, published, byte-identical to the
    serial baseline.  Requests: 200, and ``/results/<key>`` equal to the
    store file."""
    from repro.distributed.ledger import replay_ledger

    state = replay_ledger(fabric["ledger"])
    operations = []
    if out["coordinator_exit"] != 0:
        operations.append(
            {
                "op": "coordinator",
                "ok": False,
                "why": [f"exit code {out['coordinator_exit']}"],
            }
        )
    for key in work["keys"]:
        problems = []
        if key not in state.done:
            problems.append("not done in the ledger")
        path = fabric["store"] / f"{key}.json"
        if not path.exists():
            problems.append("not published")
        elif path.read_bytes() != work["expected"][key]:
            problems.append("stored bytes differ from the serial run")
        operations.append(
            {"op": f"point {key[:12]}", "ok": not problems, "why": problems}
        )
    for route, status, _, fetched in out["poll_samples"] + out["read_samples"]:
        problems = []
        if status != 200:
            problems.append(f"status {status}")
        elif fetched is not None:
            key, body = fetched
            if body != (fabric["store"] / f"{key}.json").read_bytes():
                problems.append("body differs from the store file")
        operations.append(
            {"op": f"GET {route}", "ok": not problems, "why": problems}
        )
    return operations


# -- traced iteration: per-layer numbers -------------------------------------


def _scrape_metrics(port: int) -> dict:
    """``repro_http_request_seconds`` buckets and sum per route."""
    status, body, _ = _get(port, "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    routes: dict[str, dict] = {}
    prefix = "repro_http_request_seconds"
    for line in body.decode().splitlines():
        if not line.startswith(prefix):
            continue
        name_labels, value = line.rsplit(" ", 1)
        name, _, labels = name_labels.partition("{")
        fields = dict(
            part.split("=", 1)
            for part in labels.rstrip("}").split(",")
            if part
        )
        fields = {k: v.strip('"') for k, v in fields.items()}
        route = fields.get("route")
        entry = routes.setdefault(route, {"buckets": {}, "sum": 0.0})
        if name.endswith("_bucket"):
            entry["buckets"][float(fields["le"])] = float(value)
        elif name.endswith("_sum"):
            entry["sum"] = float(value)
    return routes


def _hist_delta(after: dict, before: dict | None, routes) -> dict:
    """Bucket counts observed between two scrapes, summed over routes."""
    buckets: dict[float, float] = {}
    total_sum = 0.0
    for route in routes:
        a = after.get(route)
        if a is None:
            continue
        b = (before or {}).get(route, {"buckets": {}, "sum": 0.0})
        for le, count in a["buckets"].items():
            previous = b["buckets"].get(le, 0.0)
            buckets[le] = buckets.get(le, 0.0) + count - previous
        total_sum += a["sum"] - b["sum"]
    return {"buckets": buckets, "sum": total_sum}


def _hist_quantile(hist: dict, q: float) -> float:
    """Linear interpolation inside cumulative buckets (seconds)."""
    points = sorted(hist["buckets"].items())
    if not points or points[-1][1] <= 0:
        return 0.0
    target = q * points[-1][1]
    lower_bound, lower_count = 0.0, 0.0
    for bound, count in points:
        if count >= target:
            if bound == float("inf"):
                return lower_bound
            span = count - lower_count
            share = (target - lower_count) / span if span > 0 else 1.0
            return lower_bound + (bound - lower_bound) * share
        lower_bound, lower_count = bound, count
    return lower_bound


def _fabric_layers(work: dict, fabric: dict, out: dict) -> dict:
    from repro.distributed.ledger import iter_ledger_records, replay_ledger
    from repro.obs import timeline
    from repro.scenario.store import ResultIndex

    layers = {}
    # Ledger and store, timed from this process after the sweep.
    replays = []
    for _ in range(3):
        started = time.perf_counter()
        replay_ledger(fabric["ledger"])
        replays.append(time.perf_counter() - started)
    layers["ledger.replay_s"] = median(replays)
    layers["ledger.events"] = float(
        sum(1 for _ in iter_ledger_records(fabric["ledger"]))
    )
    layers["ledger.bytes"] = float(
        sum(
            path.stat().st_size
            for path in fabric["ledger"].rglob("*")
            if path.is_file()
        )
    )
    rebuilds = []
    for _ in range(3):
        started = time.perf_counter()
        ResultIndex(fabric["store"]).entries()
        rebuilds.append(time.perf_counter() - started)
    layers["store.index_rebuild_s"] = median(rebuilds)

    # Per-point timeline from the ledger joined with the span files.
    original = timeline.replay_ledger

    def labelled(path):
        state = original(path)
        state.sweeps.setdefault(GRID_SWEEP, tuple(sorted(state.scheduled)))
        return state

    timeline.replay_ledger = labelled
    try:
        rows = timeline.build_timeline(
            GRID_SWEEP, fabric["ledger"], fabric["base"] / "telemetry"
        )["points"]
    finally:
        timeline.replay_ledger = original
    for column in ("queue_wait", "execute", "publish"):
        values = [row[column] for row in rows if row[column] is not None]
        layers[f"fabric.{column}_p50_ms"] = 1000.0 * median(values)
    layers["fabric.requeues"] = float(sum(len(row["retries"]) for row in rows))
    # Worker-side ``execute_spec`` time, as each RESULT reported it.
    executed = [row["execute"] for row in rows if row["execute"] is not None]
    layers["scenario.execute_s"] = sum(executed)
    layers["scenario.execute_calls"] = float(len(executed))
    busy = sum(
        (row["execute"] or 0.0) + (row["publish"] or 0.0) for row in rows
    )

    # Route histograms scraped from the service.
    during = _hist_delta(out["scrape_sweep"], None, ("/progress", "/results"))
    layers["http.during_sweep_p50_ms"] = 1000.0 * _hist_quantile(during, 0.5)
    read_total = 0.0
    for name, template in ROUTE_TEMPLATES.items():
        hist = _hist_delta(
            out["scrape_read"], out["scrape_sweep"], (template,)
        )
        layers[f"http.{name}_p50_ms"] = 1000.0 * _hist_quantile(hist, 0.5)
        read_total += hist["sum"]
    layers["http.server_s"] = read_total

    layers["fabric.serial_s"] = work["serial_s"]
    layers["fabric.speedup_vs_serial"] = work["serial_s"] / out["wall_s"]
    layers["fabric.worker_exit_lag_s"] = out["worker_exit_lag_s"]
    layers["fabric.worker_clean_exits"] = float(out["worker_clean_exits"])
    # What the workers' execute and publish time does not cover: their
    # boot, frame exchange, coordinator scheduling and idle tails.
    layers["unexplained_s"] = out["wall_s"] - busy / N_WORKERS
    return layers


def summarize(work: dict, iterations: list[dict]) -> dict:
    """Workload-level numbers over the untraced iterations."""
    latencies = [
        latency for it in iterations for _, _, latency, _ in it["read_samples"]
    ]
    points = work["sizes"]["grid_points"]
    return {
        "sweep_points_per_s": median(
            points / it["wall_s"] for it in iterations
        ),
        "serve_rps": median(
            len(it["read_samples"]) / it["read_s"] for it in iterations
        ),
        "serve_p50_ms": 1000.0 * percentile(latencies, 50),
        "serve_p99_ms": 1000.0 * percentile(latencies, 99),
        "serve_samples": float(len(latencies)),
    }
