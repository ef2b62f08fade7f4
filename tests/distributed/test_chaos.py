"""Chaos suite: randomized kill/restart schedules over the fabric.

Real processes, real ``SIGKILL`` -- no cooperative shutdown anywhere.
A fixed-seed schedule (override with ``REPRO_CHAOS_SEED``) spawns a
watch-mode coordinator plus N workers as subprocesses, kills a random
victim at a random moment each round (landing at arbitrary phases:
during worker boot, mid-point, mid-RESULT, mid-publish), restarts the
fleet, and repeats until the sweep converges.  The submit path is
chaos-tested too: the ledger starts with the torn artifact of a
service SIGKILLed *mid-submit* (a partial batch of scheduled lines
ending in a torn fragment), and the sweep is then submitted for real
through ``POST /submit`` on a live :class:`ResultsService` -- the
retry a client would issue.

Invariants asserted after **every** kill, not just at the end:

* the ledger never records ``done`` for a key whose content-addressed
  store file is not readable ("done implies published");
* ledger replay never loses the grid (scheduled keys are stable).

Convergence asserted at the end:

* every point is done and the store is **byte-identical** to a serial
  :class:`~repro.scenario.runner.SweepRunner` run of the same
  document -- however many times points were killed and re-executed.
"""

import json
import os
import pathlib
import random
import signal
import socket
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.distributed.ledger import SweepLedger, replay_ledger
from repro.distributed.service import ResultsService, sweep_id
from repro.scenario.runner import SweepRunner
from repro.scenario.spec import load_scenario_document
from repro.scenario.store import JsonlAppender

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1105"))
N_WORKERS = 2
#: Kills before the final let-it-finish round.
KILL_ROUNDS = 4
#: Hard wall-clock budget for the whole schedule.
BUDGET_SECONDS = 300.0

#: Heavy enough that kills land mid-compute, light enough for CI.
DOCUMENT = {
    "name": "chaos-grid",
    "engine": "batch",
    "runs": 40_000,
    "seed": 47,
    "params": {"core_size": 5, "spare_max": 5, "k": 1, "mu": 0.2, "d": 0.9},
    "sweep": {
        "params.mu": [0.1, 0.2, 0.3, 0.4],
        "adversary": ["strong", "passive"],
    },
}


def _env() -> dict:
    src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _spawn_coordinator(port, ledger, cache, log) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "sweep-coordinator",
            "--watch",
            "--port",
            str(port),
            "--ledger",
            str(ledger),
            "--cache-dir",
            str(cache),
            "--lease-timeout",
            "30",
        ],
        env=_env(),
        stdout=log,
        stderr=log,
    )


def _spawn_worker(port, index, log) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--port",
            str(port),
            "--id",
            f"chaos-w{index}",
            "--connect-timeout",
            "60",
        ],
        env=_env(),
        stdout=log,
        stderr=log,
    )


def _sigkill(process: subprocess.Popen) -> None:
    try:
        process.send_signal(signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait(timeout=30)


def _reap(processes) -> None:
    for process in processes:
        if process.poll() is None:
            _sigkill(process)


def _assert_done_implies_published(ledger, cache, expected_keys) -> None:
    """The core durability invariant, checked after every kill."""
    if not ledger.exists():
        return
    state = replay_ledger(ledger)
    for key in state.done:
        assert (cache / f"{key}.json").exists(), (
            f"ledger says done but store has no file: {key}"
        )
    # The grid itself is never lost by crashes.
    assert expected_keys <= set(state.scheduled)


def _ledger_complete(ledger, expected_keys) -> bool:
    if not ledger.exists():
        return False
    state = replay_ledger(ledger)
    return expected_keys <= state.done


@pytest.mark.chaos
@pytest.mark.parametrize("seed", [SEED])
def test_chaos_schedule_converges_to_serial_bytes(tmp_path, seed):
    rng = random.Random(seed)
    specs = load_scenario_document(DOCUMENT).expand()
    expected_keys = {spec.key() for spec in specs}

    # The ground truth: one serial run of the same document.
    serial_dir = tmp_path / "serial"
    SweepRunner(cache_dir=serial_dir).sweep(specs)

    cache = tmp_path / "cache"
    ledger = tmp_path / "ledger"

    # -- mid-submit crash artifact ------------------------------------------
    # A previous service instance was SIGKILLed partway through the
    # submit batch: some scheduled lines made it, the last one is torn
    # mid-record, the submitted record never landed.
    # Submit routes by sweep id, so the killed submit wrote into that
    # sweep's shard -- and the retried submit appends after the torn
    # line there.
    shard = ledger / "shards" / f"{sweep_id(list(expected_keys))}.jsonl"
    with JsonlAppender(shard) as torn:
        for spec in specs[:3]:
            torn.append(
                {
                    "event": "scheduled",
                    "key": spec.key(),
                    "spec": spec.to_dict(),
                }
            )
    with open(shard, "ab") as handle:
        fragment = json.dumps(
            {
                "event": "scheduled",
                "key": specs[3].key(),
                "spec": specs[3].to_dict(),
            }
        ).encode()
        handle.write(fragment[: len(fragment) // 2])  # no newline: torn

    # -- the client retries the submit, for real, over HTTP -----------------
    with ResultsService(cache, ledger_path=ledger).start() as service:
        request = urllib.request.Request(
            f"http://127.0.0.1:{service.port}/submit",
            data=json.dumps(DOCUMENT).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10) as reply:
            submitted = json.loads(reply.read())
    assert submitted["points"] == len(specs)
    state = replay_ledger(ledger)
    assert set(state.scheduled) == expected_keys  # torn fragment isolated
    assert set(state.sweeps[submitted["sweep"]]) == expected_keys

    # -- the kill schedule ---------------------------------------------------
    deadline = time.monotonic() + BUDGET_SECONDS
    log = open(tmp_path / "chaos.log", "ab")
    kills = {"coordinator": 0, "worker": 0}
    try:
        for round_number in range(KILL_ROUNDS + 1):
            assert time.monotonic() < deadline, "chaos budget exhausted"
            port = _free_port()
            coordinator = _spawn_coordinator(port, ledger, cache, log)
            workers = [
                _spawn_worker(port, index, log)
                for index in range(N_WORKERS)
            ]
            fleet = [coordinator, *workers]
            try:
                if round_number < KILL_ROUNDS:
                    # Let the round run into a random phase: worker
                    # boot, claim, mid-point, mid-RESULT, mid-publish.
                    time.sleep(rng.uniform(0.3, 2.5))
                    victim_index = rng.randrange(len(fleet))
                    victim = fleet[victim_index]
                    kills[
                        "coordinator" if victim is coordinator else "worker"
                    ] += 1
                    _sigkill(victim)
                    time.sleep(rng.uniform(0.1, 0.5))
                    _assert_done_implies_published(
                        ledger, cache, expected_keys
                    )
                else:
                    # Final round: no kills, run to convergence.
                    while not _ledger_complete(ledger, expected_keys):
                        assert (
                            time.monotonic() < deadline
                        ), "sweep did not converge within the budget"
                        time.sleep(0.2)
            finally:
                _reap(fleet)
            _assert_done_implies_published(ledger, cache, expected_keys)
    finally:
        log.close()

    assert kills["coordinator"] + kills["worker"] == KILL_ROUNDS

    # -- convergence ---------------------------------------------------------
    state = replay_ledger(ledger)
    assert expected_keys <= state.done
    assert not (set(state.failed) & expected_keys)
    serial_files = sorted(p.name for p in serial_dir.glob("*.json"))
    chaos_files = sorted(p.name for p in cache.glob("*.json"))
    assert serial_files == chaos_files
    for name in serial_files:
        assert (serial_dir / name).read_bytes() == (
            cache / name
        ).read_bytes(), f"diverged after chaos: {name}"


def test_single_fixed_kill_mid_sweep_recovers(tmp_path):
    """The deterministic miniature: one worker SIGKILLed mid-sweep,
    one coordinator SIGKILLed mid-sweep, then clean convergence --
    the schedule CI exercises on every push even when the full
    randomized test is filtered out."""
    specs = load_scenario_document(DOCUMENT).expand()[:4]
    expected_keys = {spec.key() for spec in specs}
    serial_dir = tmp_path / "serial"
    SweepRunner(cache_dir=serial_dir).sweep(specs)

    cache = tmp_path / "cache"
    ledger = tmp_path / "ledger"
    with SweepLedger(ledger) as seed_ledger:
        seed_ledger.record_scheduled(specs)

    log = open(tmp_path / "chaos.log", "ab")
    try:
        # Round 1: kill a worker mid-sweep.
        port = _free_port()
        coordinator = _spawn_coordinator(port, ledger, cache, log)
        workers = [
            _spawn_worker(port, index, log) for index in range(N_WORKERS)
        ]
        time.sleep(1.5)
        _sigkill(workers[0])
        _assert_done_implies_published(ledger, cache, expected_keys)
        # Round 2: kill the coordinator too.
        time.sleep(0.5)
        _sigkill(coordinator)
        _reap(workers)
        _assert_done_implies_published(ledger, cache, expected_keys)
        # Round 3: fresh fleet, run to convergence.
        port = _free_port()
        coordinator = _spawn_coordinator(port, ledger, cache, log)
        workers = [
            _spawn_worker(port, index, log) for index in range(N_WORKERS)
        ]
        deadline = time.monotonic() + 120
        while not _ledger_complete(ledger, expected_keys):
            assert time.monotonic() < deadline, "did not converge"
            time.sleep(0.2)
        _reap([coordinator, *workers])
    finally:
        log.close()

    _assert_done_implies_published(ledger, cache, expected_keys)
    for spec in specs:
        name = f"{spec.key()}.json"
        assert (serial_dir / name).read_bytes() == (
            cache / name
        ).read_bytes()
