"""Property-based tests (Hypothesis) for the fabric's durable layers.

Two state machines keep the distributed sweep honest under arbitrary
interleavings, and both are pure enough to fuzz exhaustively:

* **framing** (`distributed/protocol.py`): any frame stream, cut into
  arbitrary chunks and re-concatenated, decodes to exactly the
  original messages -- TCP may deliver bytes in any grouping it
  likes;
* **ledger replay** (`distributed/ledger.py`): any interleaving of
  scheduled/claimed/requeued/done/failed records folds to a state
  agreeing with an independent reference fold, with the queue
  invariants (done and failed disjoint, pending = scheduled minus
  terminal, claims only on live non-terminal keys) holding at every
  draw -- wherever the records land across the ledger's shards --
  and appending torn garbage to a shard never changes the fold.
"""

import json
import pathlib
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.distributed.ledger import LedgerState, SweepLedger, replay_ledger
from repro.distributed.protocol import decode_frame, encode_frame

# -- strategies --------------------------------------------------------------

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=30),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=6), children, max_size=3),
    ),
    max_leaves=10,
)
messages = st.lists(
    st.fixed_dictionaries(
        {"type": st.text(min_size=1, max_size=10)},
        optional={
            "key": st.text(max_size=70),
            "payload": json_values,
            "elapsed": st.floats(
                allow_nan=False, allow_infinity=False
            ),
        },
    ),
    max_size=6,
)

#: A handful of keys so interleavings actually collide on them.
LEDGER_KEYS = [f"{i:02d}" + "a" * 62 for i in range(4)]
ledger_keys = st.sampled_from(LEDGER_KEYS)
#: Keys grouped into submitted sweeps, so their records spread over
#: per-sweep shards; the last key belongs to no sweep (``_unassigned``).
LEDGER_SWEEPS = {
    "sweep-even": [LEDGER_KEYS[0], LEDGER_KEYS[2]],
    "sweep-odd": [LEDGER_KEYS[1]],
}
LEDGER_SHARDS = [*LEDGER_SWEEPS, "_unassigned"]
workers = st.sampled_from(["w0", "w1", "w2"])
ledger_events = st.lists(
    st.one_of(
        st.tuples(st.just("scheduled"), ledger_keys),
        st.tuples(st.just("claimed"), ledger_keys, workers),
        st.tuples(st.just("requeued"), ledger_keys, workers),
        st.tuples(st.just("done"), ledger_keys, workers),
        st.tuples(st.just("failed"), ledger_keys, workers),
    ),
    max_size=30,
)


# -- framing -----------------------------------------------------------------


def decode_chunked(chunks: list[bytes]) -> tuple[list[dict], bytes]:
    """Feed chunks through the sans-io decoder as a TCP reader would."""
    buffer = b""
    decoded: list[dict] = []
    for chunk in chunks:
        buffer += chunk
        while True:
            message, buffer = decode_frame(buffer)
            if message is None:
                break
            decoded.append(message)
    return decoded, buffer


class TestFramingProperties:
    @settings(deadline=None, max_examples=120)
    @given(batch=messages, data=st.data())
    def test_any_byte_grouping_decodes_identically(self, batch, data):
        wire = b"".join(encode_frame(message) for message in batch)
        cuts = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(wire)), max_size=10
            ).map(sorted)
        )
        bounds = [0, *cuts, len(wire)]
        chunks = [
            wire[start:end] for start, end in zip(bounds, bounds[1:])
        ]
        decoded, remainder = decode_chunked(chunks)
        assert decoded == batch
        assert remainder == b""

    @settings(deadline=None, max_examples=60)
    @given(first=messages, second=messages)
    def test_concatenated_streams_decode_to_concatenated_messages(
        self, first, second
    ):
        wire = b"".join(
            encode_frame(message) for message in [*first, *second]
        )
        decoded, remainder = decode_chunked([wire])
        assert decoded == [*first, *second]
        assert remainder == b""

    @settings(deadline=None, max_examples=60)
    @given(batch=messages, cut=st.integers(min_value=1, max_value=200))
    def test_truncated_stream_never_invents_messages(self, batch, cut):
        """A stream cut anywhere yields a prefix of the messages, never
        a corrupted or invented one."""
        wire = b"".join(encode_frame(message) for message in batch)
        decoded, remainder = decode_chunked([wire[: min(cut, len(wire))]])
        assert decoded == batch[: len(decoded)]
        if len(decoded) < len(batch):
            # Whatever remains is a strict prefix of the next frame.
            assert len(remainder) < len(encode_frame(batch[len(decoded)]))
        else:
            assert remainder == b""


# -- ledger replay -----------------------------------------------------------


def _parses_as_json(data: bytes) -> bool:
    try:
        json.loads(data)
    except Exception:  # noqa: BLE001 -- any parse failure counts
        return False
    return True


def reference_fold(events) -> LedgerState:
    """Independent fold of the documented replay semantics."""
    state = LedgerState()
    for event in events:
        kind, key = event[0], event[1]
        if kind == "scheduled":
            state.scheduled.setdefault(key, {"name": key})
        elif kind == "claimed":
            state.claims[key] = event[2]
        elif kind == "requeued":
            state.claims.pop(key, None)
        elif kind == "done":
            state.done.add(key)
            state.claims.pop(key, None)
            state.failed.pop(key, None)
        elif kind == "failed":
            if key not in state.done:
                state.failed[key] = "boom"
            state.claims.pop(key, None)
    return state


def write_events(path: pathlib.Path, events) -> None:
    with SweepLedger(path) as ledger:
        for sweep, keys in LEDGER_SWEEPS.items():
            ledger.record_submitted(sweep, keys)
        for event in events:
            kind, key = event[0], event[1]
            if kind == "scheduled":
                ledger._append(
                    {"event": "scheduled", "key": key, "spec": {"name": key}}
                )
            elif kind == "claimed":
                ledger.record_claimed(key, event[2])
            elif kind == "requeued":
                ledger.record_requeued(key, event[2])
            elif kind == "done":
                ledger.record_done(key, event[2], elapsed=0.1)
            elif kind == "failed":
                ledger.record_failed(key, event[2], "boom")


class TestLedgerReplayProperties:
    @settings(
        deadline=None,
        max_examples=80,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(events=ledger_events)
    def test_any_interleaving_replays_to_the_reference_fold(self, events):
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "ledger"
            write_events(path, events)
            state = replay_ledger(path)
        expected = reference_fold(events)
        assert state.done == expected.done
        assert set(state.failed) == set(expected.failed)
        assert state.claims == expected.claims
        assert set(state.scheduled) == set(expected.scheduled)
        # Queue invariants, always:
        assert not (state.done & set(state.failed))
        assert state.pending == (
            set(state.scheduled) - state.done - set(state.failed)
        )

    @settings(
        deadline=None,
        max_examples=60,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        events=ledger_events,
        junk=st.binary(max_size=40).filter(
            lambda b: b"\n" not in b and not _parses_as_json(b)
        ),
        shard=st.sampled_from(LEDGER_SHARDS),
    )
    def test_torn_tail_bytes_never_change_the_fold(
        self, events, junk, shard
    ):
        """A crash mid-append leaves arbitrary junk after the last
        newline of a shard; replay of the damaged ledger equals replay
        of the intact one.  (Junk that happens to parse as complete JSON is
        excluded: it is indistinguishable from a real record whose
        newline was cut, and a real torn write -- the prefix of one
        ``O_APPEND`` line -- never parses.)"""
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "ledger"
            write_events(path, events)
            intact = replay_ledger(path)
            with open(path / "shards" / f"{shard}.jsonl", "ab") as handle:
                handle.write(junk)
            damaged = replay_ledger(path)
        assert damaged.done == intact.done
        assert damaged.failed == intact.failed
        assert damaged.claims == intact.claims
        assert set(damaged.scheduled) == set(intact.scheduled)

    @settings(
        deadline=None,
        max_examples=40,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(events=ledger_events)
    def test_replay_is_idempotent_under_reappend(self, events):
        """Folding a ledger, then appending the same terminal facts a
        second time (a resumed coordinator racing a duplicate result),
        cannot un-finish anything."""
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "ledger"
            write_events(path, events)
            once = replay_ledger(path)
            terminal = [e for e in events if e[0] in ("done", "failed")]
            write_events(path, terminal)
            twice = replay_ledger(path)
        assert twice.done == once.done
        assert set(twice.failed) == set(once.failed)
        assert twice.pending == once.pending
