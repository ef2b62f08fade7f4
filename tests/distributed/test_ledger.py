"""Ledger tests: replay semantics, torn tails, scheduling idempotence."""

import pytest

from repro.distributed.ledger import (
    LedgerState,
    SweepLedger,
    fold_record,
    iter_ledger_records,
    replay_ledger,
)
from repro.scenario.spec import ScenarioSpec
from repro.scenario.store import JsonlAppender, read_jsonl

SWEEP = "ab" * 32


def spec(seed: int) -> ScenarioSpec:
    return ScenarioSpec(name=f"point-{seed}", engine="analytic", seed=seed)


def shard(root, name: str = "_unassigned"):
    """The shard file ``name`` under ledger ``root`` (directory made)."""
    path = root / "shards" / f"{name}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


class TestReplay:
    def test_lifecycle_folds_to_terminal_state(self, tmp_path):
        path = tmp_path / "ledger"
        points = [spec(i) for i in range(4)]
        keys = [point.key() for point in points]
        with SweepLedger(path) as ledger:
            ledger.record_scheduled(points)
            ledger.record_claimed(keys[0], "w1")
            ledger.record_done(keys[0], "w1", elapsed=0.1)
            ledger.record_claimed(keys[1], "w2")  # stale: no terminal event
            ledger.record_claimed(keys[2], "w1")
            ledger.record_failed(keys[2], "w1", "boom")
        state = replay_ledger(path)
        assert set(state.scheduled) == set(keys)
        assert state.done == {keys[0]}
        assert state.failed == {keys[2]: "boom"}
        assert state.claims == {keys[1]: "w2"}
        assert state.pending == {keys[1], keys[3]}

    def test_scheduled_keeps_wire_spec(self, tmp_path):
        point = spec(9)
        with SweepLedger(tmp_path / "l") as ledger:
            ledger.record_scheduled([point])
            state = ledger.replay()
        rebuilt = ScenarioSpec.from_dict(state.scheduled[point.key()])
        assert rebuilt == point

    def test_replay_of_missing_file_is_empty(self, tmp_path):
        state = replay_ledger(tmp_path / "absent")
        assert not state.scheduled and not state.done
        assert not (tmp_path / "absent").exists()  # replay creates nothing

    def test_rescheduling_is_idempotent(self, tmp_path):
        path = tmp_path / "ledger"
        points = [spec(i) for i in range(3)]
        with SweepLedger(path) as ledger:
            ledger.record_scheduled(points)
        # A resumed coordinator schedules the same grid again.
        with SweepLedger(path) as ledger:
            ledger.record_scheduled(points)
        records = list(iter_ledger_records(path))
        assert len(records) == 3  # no duplicate scheduled records

    def test_done_supersedes_an_earlier_failure(self, tmp_path):
        """Two workers race a requeued point: one reports failed, the
        other returns a result.  Replay must agree with the
        coordinator's in-memory supersede (done and failed disjoint)."""
        point = spec(4)
        with SweepLedger(tmp_path / "l") as ledger:
            ledger.record_scheduled([point])
            ledger.record_failed(point.key(), "w1", "transient")
            ledger.record_done(point.key(), "w2")
            state = ledger.replay()
        assert state.done == {point.key()}
        assert state.failed == {}
        # And symmetrically: a failure arriving after done is ignored.
        with SweepLedger(tmp_path / "l2") as ledger:
            ledger.record_scheduled([point])
            ledger.record_done(point.key(), "w2")
            ledger.record_failed(point.key(), "w1", "late")
            state = ledger.replay()
        assert state.done == {point.key()}
        assert state.failed == {}

    def test_done_after_requeue_wins(self, tmp_path):
        point = spec(1)
        with SweepLedger(tmp_path / "l") as ledger:
            ledger.record_scheduled([point])
            ledger.record_claimed(point.key(), "w1")
            ledger.record_claimed(point.key(), "w2")  # requeued after crash
            ledger.record_done(point.key(), "w2")
            state = ledger.replay()
        assert state.done == {point.key()}
        assert state.pending == set()
        assert state.claims == {}


class TestCrashTolerance:
    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "ledger"
        points = [spec(i) for i in range(2)]
        keys = [point.key() for point in points]
        with SweepLedger(path) as ledger:
            ledger.record_scheduled(points, sweep=SWEEP)
            ledger.record_submitted(SWEEP, keys)
            ledger.record_done(keys[0], "w1")
        # Simulate a coordinator killed mid-append: a partial record
        # with no trailing newline, in the shard the sweep routes to.
        with shard(path, SWEEP).open("a") as handle:
            handle.write('{"event": "done", "key": "dead')
        state = replay_ledger(path)
        assert state.done == {keys[0]}
        assert state.pending == {keys[1]}
        # The shard stays appendable after the torn line: opening its
        # appender repairs the line boundary, so the next record lands
        # on its own line and the fragment stays isolated (skipped).
        with SweepLedger(path) as ledger:
            ledger.record_done(keys[1], "w2")
        assert [file.name for file in (path / "shards").iterdir()] == [
            f"{SWEEP}.jsonl"
        ]
        state = replay_ledger(path)
        assert state.pending == set()
        assert state.done == set(keys)

    def test_unparseable_fragment_lines_are_skipped(self, tmp_path):
        point = spec(0)
        path = tmp_path / "ledger"
        # An isolated torn line, as boundary repair leaves it.
        shard(path).write_text('{"event": "done", "key": "dead\n')
        with SweepLedger(path) as ledger:
            ledger.record_scheduled([point])
            ledger.record_done(point.key(), "w1")
        state = replay_ledger(path)
        assert state.done == {point.key()}
        assert state.pending == set()

    def test_malformed_record_raises(self, tmp_path):
        path = tmp_path / "ledger"
        shard(path).write_text('{"event": "exploded", "key": "a"}\n')
        with pytest.raises(ValueError, match="malformed"):
            replay_ledger(path)


class TestRequeueAndSubmit:
    def test_requeued_clears_the_claim_but_not_the_schedule(self, tmp_path):
        point = spec(7)
        with SweepLedger(tmp_path / "l") as ledger:
            ledger.record_scheduled([point])
            ledger.record_claimed(point.key(), "w1")
            ledger.record_requeued(point.key(), "w1")
            state = ledger.replay()
        assert state.claims == {}
        assert state.pending == {point.key()}

    def test_requeue_then_done_by_another_worker(self, tmp_path):
        point = spec(8)
        with SweepLedger(tmp_path / "l") as ledger:
            ledger.record_scheduled([point])
            ledger.record_claimed(point.key(), "w1")
            ledger.record_requeued(point.key(), "w1", reason="lease-expired")
            ledger.record_claimed(point.key(), "w2")
            ledger.record_done(point.key(), "w2")
            state = ledger.replay()
        assert state.done == {point.key()}
        assert state.pending == set() and state.claims == {}

    def test_requeued_after_done_does_not_unfinish(self, tmp_path):
        """A lease sweeper racing a result: the terminal event wins no
        matter the append order."""
        point = spec(9)
        with SweepLedger(tmp_path / "l") as ledger:
            ledger.record_scheduled([point])
            ledger.record_done(point.key(), "w1")
            ledger.record_requeued(point.key(), "w1")
            state = ledger.replay()
        assert state.done == {point.key()}
        assert state.pending == set()

    def test_submitted_groups_keys_under_a_sweep_id(self, tmp_path):
        points = [spec(i) for i in range(3)]
        keys = [point.key() for point in points]
        with SweepLedger(tmp_path / "l") as ledger:
            ledger.record_scheduled(points)
            ledger.record_submitted(SWEEP, keys, name="grid")
            ledger.record_done(keys[0], "w1")
            state = ledger.replay()
        assert state.sweeps == {SWEEP: tuple(keys)}
        assert state.done == {keys[0]}

    def test_resubmission_overwrites_the_same_sweep_id(self, tmp_path):
        points = [spec(i) for i in range(2)]
        keys = [point.key() for point in points]
        with SweepLedger(tmp_path / "l") as ledger:
            ledger.record_submitted("cd" * 32, keys)
            ledger.record_submitted("cd" * 32, keys)
            state = ledger.replay()
        assert state.sweeps == {"cd" * 32: tuple(keys)}

    def test_malformed_submitted_record_raises(self, tmp_path):
        path = tmp_path / "l"
        shard(path, "cd" * 32).write_text(
            '{"event": "submitted", "sweep": 5, "keys": []}\n'
        )
        with pytest.raises(ValueError, match="malformed"):
            replay_ledger(path)

    def test_non_object_record_raises(self, tmp_path):
        path = tmp_path / "l"
        shard(path).write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError, match="malformed"):
            replay_ledger(path)


class TestSingleFileLedger:
    """A ledger kept in one ``.jsonl`` file by older releases."""

    def write_legacy(self, path) -> None:
        """The bytes an older single-file ledger holds: every event
        type, appended whole-line, ending in a torn record."""
        points = [spec(i) for i in range(4)]
        keys = [point.key() for point in points]
        records = [
            {
                "event": "scheduled",
                "key": point.key(),
                "spec": point.to_dict(),
                "ts": 1.0,
            }
            for point in points
        ]
        records += [
            {"event": "submitted", "sweep": SWEEP, "keys": keys[:2]},
            {"event": "claimed", "key": keys[0], "worker": "w1"},
            {"event": "done", "key": keys[0], "worker": "w1"},
            {"event": "claimed", "key": keys[1], "worker": "w2"},
            {"event": "requeued", "key": keys[1], "worker": "w2"},
            {"event": "failed", "key": keys[2], "worker": "w1"},
            {"event": "claimed", "key": keys[3], "worker": "w1"},
            {"event": "cancelled", "sweep": SWEEP},
        ]
        with JsonlAppender(path) as legacy:
            for record in records:
                legacy.append(record)
        with path.open("a") as handle:
            handle.write('{"event": "done", "key": "dead')

    def test_moved_file_replays_like_the_file_itself(self, tmp_path):
        legacy = tmp_path / "sweep-ledger.jsonl"
        self.write_legacy(legacy)
        reference = LedgerState()
        for record in read_jsonl(legacy, strict=False):
            fold_record(reference, record)
        assert reference.done and reference.failed and reference.cancelled
        # mkdir -p L/shards && mv L.jsonl L/shards/_unassigned.jsonl
        root = tmp_path / "sweep-ledger"
        (root / "shards").mkdir(parents=True)
        legacy.rename(root / "shards" / "_unassigned.jsonl")
        assert replay_ledger(root) == reference
        assert replay_ledger(root).traces == reference.traces
        assert replay_ledger(root).requeues == reference.requeues

    def test_a_file_is_refused_with_the_migration(self, tmp_path):
        """Opened as ``L.jsonl`` itself, or as a missing ``L`` beside it
        (the old default spelling: starting ``L`` empty would drop its
        pending sweeps)."""
        legacy = tmp_path / "sweep-ledger.jsonl"
        self.write_legacy(legacy)
        before = legacy.read_bytes()
        root = tmp_path / "sweep-ledger"
        move = (
            f"mkdir -p {root}/shards && "
            f"mv {legacy} {root}/shards/_unassigned.jsonl"
        )
        for path in (legacy, root):
            for open_ledger in (SweepLedger, replay_ledger):
                with pytest.raises(ValueError) as refused:
                    open_ledger(path)
                assert move in str(refused.value)
        assert legacy.read_bytes() == before
        assert not root.exists()
