"""Compaction correctness: the compacted ledger folds like the full one.

The crash-safety story of :meth:`SweepLedger.compact` rests on one
invariant -- the fold is idempotent for full streams, so replaying
*snapshot + surviving shard tails* equals replaying every event ever
appended, no matter where compaction (or a crash inside it) lands in
the interleaving.  These tests prove exactly that:

* concrete unit cases (compact mid-lifecycle, compact twice, foreign
  appends racing the swap);
* a Hypothesis property: arbitrary event interleavings, with
  compactions injected at arbitrary positions (including compactions
  that die mid-swap via an injected ``EIO``), always replay equal to
  an uncompacted twin ledger fed the same events;
* a subprocess schedule that hard-kills (``os._exit``, SIGKILL
  semantics) a real coordinator **mid-compaction** -- after the
  snapshot publish, before the shard swap -- and shows the next
  coordinator run folds to the same state and finishes the sweep.
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import faults
from repro.distributed.faults import FaultPlan, FaultRule
from repro.distributed.ledger import (
    LedgerState,
    SweepLedger,
    fold_record,
    ledger_stats,
    replay_ledger,
)
from repro.scenario.spec import ScenarioSpec
from repro.core.parameters import ModelParameters

PARAMS = ModelParameters(core_size=5, spare_max=5, k=1, mu=0.2, d=0.9)


def spec_for(name: str) -> ScenarioSpec:
    return ScenarioSpec(
        name=name, params=PARAMS, engine="batch", runs=20, seed=11
    )


# -- strategies ---------------------------------------------------------------

#: Few keys/sweeps so interleavings collide on them.
KEYS = [f"{i:02d}" + "a" * 62 for i in range(4)]
SWEEPS = ["sweep-alpha", "sweep-beta"]

ledger_keys = st.sampled_from(KEYS)
workers = st.sampled_from(["w0", "w1"])
sweeps = st.sampled_from(SWEEPS)
ledger_events = st.lists(
    st.one_of(
        st.tuples(st.just("scheduled"), ledger_keys),
        st.tuples(st.just("claimed"), ledger_keys, workers),
        st.tuples(st.just("requeued"), ledger_keys, workers),
        st.tuples(st.just("done"), ledger_keys, workers),
        st.tuples(st.just("failed"), ledger_keys, workers),
        st.tuples(
            st.just("submitted"),
            sweeps,
            st.lists(ledger_keys, min_size=1, max_size=4, unique=True),
        ),
        st.tuples(st.just("cancelled"), sweeps),
    ),
    max_size=25,
)


def apply_event(ledger: SweepLedger, event: tuple) -> None:
    """Feed one abstract event through the real append API."""
    kind = event[0]
    if kind == "scheduled":
        ledger._append(
            {
                "event": "scheduled",
                "key": event[1],
                "spec": {"name": event[1]},
            }
        )
    elif kind == "claimed":
        ledger.record_claimed(event[1], event[2])
    elif kind == "requeued":
        ledger.record_requeued(event[1], event[2])
    elif kind == "done":
        ledger.record_done(event[1], event[2])
    elif kind == "failed":
        ledger.record_failed(event[1], event[2], "boom")
    elif kind == "submitted":
        ledger.record_submitted(event[1], event[2], name=event[1])
    elif kind == "cancelled":
        ledger.record_cancelled(event[1])
    else:  # pragma: no cover - strategy bug
        raise AssertionError(kind)


class TestCompactionUnit:
    def test_compacted_replay_equals_full_replay(self, tmp_path):
        root = tmp_path / "ledger"
        twin = tmp_path / "twin"
        events = [
            ("submitted", "s1", KEYS[:3]),
            ("scheduled", KEYS[0]),
            ("scheduled", KEYS[1]),
            ("claimed", KEYS[0], "w0"),
            ("done", KEYS[0], "w0"),
        ]
        tail = [
            ("claimed", KEYS[1], "w1"),
            ("failed", KEYS[1], "w1"),
            ("scheduled", KEYS[2]),
            ("cancelled", "s1"),
        ]
        with SweepLedger(root) as sharded, SweepLedger(twin) as plain:
            for event in events:
                apply_event(sharded, event)
                apply_event(plain, event)
            stats = sharded.compact()
            assert stats["events_folded"] == len(events)
            for event in tail:
                apply_event(sharded, event)
                apply_event(plain, event)
        assert replay_ledger(root) == replay_ledger(twin)
        assert (root / "snapshot.json").exists()

    def test_compaction_is_idempotent(self, tmp_path):
        root = tmp_path / "ledger"
        with SweepLedger(root) as ledger:
            ledger.record_submitted("s1", KEYS[:2], name="grid")
            for key in KEYS[:2]:
                apply_event(ledger, ("scheduled", key))
                ledger.record_done(key, "w0")
            before = replay_ledger(root)
            ledger.compact()
            ledger.compact()  # nothing new to fold: harmless
        after = replay_ledger(root)
        assert after == before
        meta = json.loads((root / "compaction-meta.json").read_text())
        assert meta["generation"] == 2

    def test_foreign_append_during_swap_survives(
        self, tmp_path, monkeypatch
    ):
        """A record appended by *another writer* between the fold and
        the shard deletions must survive: compact only deletes shards
        whose size is unchanged since it folded them."""
        root = tmp_path / "ledger"
        with SweepLedger(root) as ledger:
            apply_event(ledger, ("scheduled", KEYS[0]))
            ledger.record_done(KEYS[0], "w0")

            foreign = SweepLedger(root)  # the racing writer
            original = faults.inject

            def racing_inject(site, context=""):
                # Hook the swap point for a deterministic race.
                if site == "ledger.compact" and context == "swap":
                    apply_event(foreign, ("scheduled", KEYS[1]))
                return original(site, context)

            monkeypatch.setattr(faults, "inject", racing_inject)
            try:
                ledger.compact()
            finally:
                foreign.close()
        state = replay_ledger(root)
        assert KEYS[0] in state.done
        assert KEYS[1] in state.scheduled  # the racing record lives

    def test_tail_and_stats_reporting(self, tmp_path):
        root = tmp_path / "ledger"
        with SweepLedger(root) as ledger:
            assert ledger_stats(root)[1] is None
            ledger.record_submitted("s1", KEYS[:2], name="grid")
            apply_event(ledger, ("scheduled", KEYS[0]))
            assert ledger.tail_size() > 0
            assert len(ledger_stats(root)[0]) >= 1
            ledger.compact()
            assert ledger.tail_size() == 0
            stamp = ledger_stats(root)[1]
            assert stamp is not None and stamp["generation"] == 1


class TestCompactionProperty:
    @settings(deadline=None, max_examples=60)
    @given(events=ledger_events, data=st.data())
    def test_any_interleaving_with_compactions_replays_equal(
        self, events, data
    ):
        """snapshot + compacted tail == full replay, at every split.

        Compaction points are drawn as positions in the event stream;
        each one may additionally be scripted to *die mid-swap* (an
        injected EIO after the snapshot publish, before the shard
        deletions) -- the torn intermediate state must still replay
        equal, and so must the ledger after the next successful
        compaction.
        """
        n_compactions = data.draw(
            st.integers(min_value=1, max_value=3), label="n_compactions"
        )
        positions = sorted(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=len(events)),
                    min_size=n_compactions,
                    max_size=n_compactions,
                ),
                label="positions",
            )
        )
        crashes = data.draw(
            st.lists(
                st.booleans(),
                min_size=n_compactions,
                max_size=n_compactions,
            ),
            label="crash_mid_swap",
        )
        reference = LedgerState()
        for event in events:
            fold_record_abstract(reference, event)

        def operative(state: LedgerState):
            """Everything the fabric acts on.  ``claims`` is excluded:
            it is post-crash diagnostics only, and a key whose events
            span shards (routed to a sweep's shard mid-lifecycle) can
            legitimately fold its claim markers in shard order rather
            than append order.  ``pending`` -- the field the queue is
            built from -- is asserted instead."""
            return (
                state.scheduled,
                state.done,
                state.failed,
                state.sweeps,
                state.cancelled,
                state.pending,
            )

        with tempfile.TemporaryDirectory() as scratch:
            root = pathlib.Path(scratch) / "ledger"
            twin = pathlib.Path(scratch) / "twin"
            with SweepLedger(root) as sharded, SweepLedger(
                twin
            ) as plain:
                cursor = 0
                for position, crash in zip(positions, crashes):
                    for event in events[cursor:position]:
                        apply_event(sharded, event)
                        apply_event(plain, event)
                    cursor = position
                    if crash:
                        faults.install(
                            FaultPlan(
                                [
                                    FaultRule(
                                        site="ledger.compact",
                                        action="eio",
                                        match="swap",
                                    )
                                ]
                            )
                        )
                        with pytest.raises(OSError):
                            sharded.compact()
                        faults.clear()
                        # The torn intermediate state already replays
                        # equal -- fold idempotence in action.
                        assert operative(replay_ledger(root)) == operative(
                            replay_ledger(twin)
                        )
                    else:
                        sharded.compact()
                for event in events[cursor:]:
                    apply_event(sharded, event)
                    apply_event(plain, event)
            final = replay_ledger(root)
            assert operative(final) == operative(replay_ledger(twin))
            assert operative(final) == operative(reference)


def fold_record_abstract(state: LedgerState, event: tuple) -> None:
    """Reference fold of the abstract events (mirrors fold_record)."""
    kind = event[0]
    if kind == "scheduled":
        state.scheduled.setdefault(event[1], {"name": event[1]})
    elif kind == "claimed":
        state.claims[event[1]] = event[2]
    elif kind == "requeued":
        state.claims.pop(event[1], None)
    elif kind == "done":
        state.done.add(event[1])
        state.claims.pop(event[1], None)
        state.failed.pop(event[1], None)
    elif kind == "failed":
        if event[1] not in state.done:
            state.failed[event[1]] = "boom"
        state.claims.pop(event[1], None)
    elif kind == "submitted":
        state.sweeps[event[1]] = tuple(event[2])
    elif kind == "cancelled":
        state.cancelled.add(event[1])


# -- SIGKILL mid-compaction, through a real coordinator -----------------------


def _env(extra=None) -> dict:
    src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop(faults.ENV_PLAN, None)
    if extra:
        env.update(extra)
    return env


def _run_coordinator(spec, ledger, cache, plan=None):
    extra = {faults.ENV_PLAN: str(plan)} if plan is not None else None
    return subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "sweep-coordinator",
            str(spec),
            "--port",
            "0",
            "--ledger",
            str(ledger),
            "--cache-dir",
            str(cache),
            "--compact-threshold",
            "1",
        ],
        env=_env(extra),
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestKillMidCompaction:
    def test_coordinator_killed_mid_swap_recovers_identically(
        self, tmp_path
    ):
        """Hard-kill a real coordinator between its snapshot publish
        and the shard swap; the restart folds the doubled stream to
        the same state and completes the (already-done) sweep."""
        document = {
            "name": "compaction-kill",
            "engine": "batch",
            "runs": 20,
            "seed": 31,
            "params": {
                "core_size": 5,
                "spare_max": 5,
                "k": 1,
                "mu": 0.2,
                "d": 0.9,
            },
            "sweep": {"params.mu": [0.1, 0.2, 0.3]},
        }
        from repro.scenario.spec import load_scenario_document

        specs = load_scenario_document(document).expand()
        spec_file = tmp_path / "grid.json"
        spec_file.write_text(json.dumps(document))
        ledger = tmp_path / "ledger"
        cache = tmp_path / "cache"

        # Pre-populate: every point already swept into the cache and
        # ledgered done (the coordinator only trusts a ledgered done
        # whose result file exists), so it has nothing to execute --
        # the startup compaction is the only thing standing between it
        # and a clean exit.
        from repro.scenario.runner import SweepRunner

        SweepRunner(cache_dir=cache).sweep(specs)
        with SweepLedger(ledger) as handle:
            handle.record_scheduled(specs)
            for spec in specs:
                handle.record_done(spec.key(), "preload")
        before = replay_ledger(ledger)
        shard_files = sorted(
            p.name for p in (ledger / "shards").glob("*.jsonl")
        )
        assert shard_files  # there is a tail to compact

        kill_plan = FaultPlan(
            [
                FaultRule(
                    site="ledger.compact", action="exit", match="swap"
                )
            ]
        ).save(tmp_path / "kill.json")

        killed = _run_coordinator(spec_file, ledger, cache, plan=kill_plan)
        assert killed.returncode == faults.DEFAULT_EXIT_CODE
        # Snapshot published, shards NOT yet deleted: the doubled
        # stream a crash leaves behind.
        assert (ledger / "snapshot.json").exists()
        assert sorted(
            p.name for p in (ledger / "shards").glob("*.jsonl")
        ) == shard_files
        assert replay_ledger(ledger) == before

        clean = _run_coordinator(spec_file, ledger, cache)
        assert clean.returncode == 0, clean.stdout + clean.stderr
        assert "sweep complete: 3/3 done" in clean.stdout
        assert replay_ledger(ledger) == before
        # This time the swap finished: the folded shards are gone.
        assert not sorted(
            p.name for p in (ledger / "shards").glob("*.jsonl")
        )
