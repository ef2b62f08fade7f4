"""The array session generators against the one-plan-at-a-time loops.

``exponential_sessions`` / ``pareto_sessions`` draw their plans as
arrays.  The reference loops below consume the generator one draw at a
time (arrival gap, duration, ..., the crossing arrival); the array
versions must return the very same floats and leave the caller's
generator exactly where the loops leave it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation.churn import (
    ChurnEvent,
    EventKind,
    SessionPlan,
    SessionPlans,
    _kinds_of,
    exponential_sessions,
    pareto_sessions,
    session_event_stream,
)


def loop_exponential_sessions(rng, arrival_rate, mean_session, horizon):
    plans = []
    time = 0.0
    while True:
        time += float(rng.exponential(1.0 / arrival_rate))
        if time >= horizon:
            break
        duration = float(rng.exponential(mean_session))
        plans.append(SessionPlan(arrival=time, departure=time + duration))
    return plans


def loop_pareto_sessions(rng, arrival_rate, shape, scale, horizon):
    plans = []
    time = 0.0
    while True:
        time += float(rng.exponential(1.0 / arrival_rate))
        if time >= horizon:
            break
        duration = float(scale * (1.0 + rng.pareto(shape)))
        plans.append(SessionPlan(arrival=time, departure=time + duration))
    return plans


def tuple_sorted_stream(plans):
    marks = [(plan.arrival, 0, EventKind.JOIN) for plan in plans]
    marks += [(plan.departure, 1, EventKind.LEAVE) for plan in plans]
    return [
        ChurnEvent(kind=kind, time=time) for time, _, kind in sorted(marks)
    ]


def _pair(seed, generator, loop, *args):
    fast_rng = np.random.default_rng(seed)
    loop_rng = np.random.default_rng(seed)
    fast = generator(fast_rng, *args)
    slow = loop(loop_rng, *args)
    return fast, slow, fast_rng, loop_rng


#: (arrival rate, horizon): a horizon before the first arrival (empty),
#: then short and long streams.
CASES = [(1.0, 1e-9), (2.0, 50.0), (1.0, 5000.0), (7.5, 3000.0)]


@pytest.mark.parametrize("seed", [1, 2, 3, 17, 2011])
@pytest.mark.parametrize("rate,horizon", CASES)
def test_exponential_sessions_match_loop(seed, rate, horizon):
    fast, slow, fast_rng, loop_rng = _pair(
        seed, exponential_sessions, loop_exponential_sessions,
        rate, 4.0, horizon,
    )
    assert isinstance(fast, SessionPlans)
    assert list(fast) == slow
    assert fast_rng.random() == loop_rng.random()


@pytest.mark.parametrize("seed", [1, 2, 3, 17, 2011])
@pytest.mark.parametrize("rate,horizon", CASES)
def test_pareto_sessions_match_loop(seed, rate, horizon):
    fast, slow, fast_rng, loop_rng = _pair(
        seed, pareto_sessions, loop_pareto_sessions,
        rate, 1.5, 2.0, horizon,
    )
    assert list(fast) == slow
    assert fast_rng.random() == loop_rng.random()


def test_horizon_before_first_arrival_is_empty():
    fast, slow, fast_rng, loop_rng = _pair(
        5, exponential_sessions, loop_exponential_sessions, 1.0, 1.0, 1e-12
    )
    assert len(fast) == 0 and slow == []
    assert list(fast) == []
    assert fast_rng.random() == loop_rng.random()


def test_block_growth(monkeypatch):
    """A first block far too small still yields the loop's plans."""
    import repro.simulation.churn as churn

    monkeypatch.setattr(churn, "_first_block", lambda expected: 3)
    fast, slow, fast_rng, loop_rng = _pair(
        9, exponential_sessions, loop_exponential_sessions, 3.0, 2.0, 400.0
    )
    assert len(slow) > 1000  # ten doublings of the 3-draw block
    assert list(fast) == slow
    assert fast_rng.random() == loop_rng.random()


def test_infinite_horizon_is_refused():
    with pytest.raises(ValueError, match="finite"):
        exponential_sessions(np.random.default_rng(0), 1.0, 1.0, np.inf)


class TestSessionPlans:
    def test_sequence_protocol(self):
        plans = SessionPlans([1.0, 2.0, 3.0], [4.0, 2.5, 9.0])
        assert len(plans) == 3
        assert plans[1] == SessionPlan(2.0, 2.5)
        assert plans[-1].duration == 6.0
        assert list(plans[1:]) == [
            SessionPlan(2.0, 2.5),
            SessionPlan(3.0, 9.0),
        ]
        assert SessionPlan(3.0, 9.0) in plans
        assert plans == SessionPlans([1.0, 2.0, 3.0], [4.0, 2.5, 9.0])
        assert plans != SessionPlans([1.0, 2.0], [4.0, 2.5])

    def test_immutable(self):
        plans = SessionPlans([1.0], [2.0])
        with pytest.raises(ValueError):
            plans.arrivals[0] = 5.0

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            SessionPlans([1.0, 2.0], [3.0])


@pytest.mark.parametrize("seed", [4, 8, 15])
def test_event_stream_matches_tuple_sort(seed):
    plans = pareto_sessions(np.random.default_rng(seed), 3.0, 1.5, 1.0, 300.0)
    expected = tuple_sorted_stream(list(plans))
    assert list(session_event_stream(plans)) == expected
    kinds = [event.kind is EventKind.JOIN for event in expected]
    assert _kinds_of(plans).tolist() == kinds


def test_event_stream_ties_match_tuple_sort():
    # Equal instants across and within kinds: joins first, then plan order.
    plans = [
        SessionPlan(0.0, 1.0),
        SessionPlan(1.0, 2.0),
        SessionPlan(1.0, 1.0),
        SessionPlan(0.5, 2.0),
    ]
    array_plans = SessionPlans(
        [plan.arrival for plan in plans], [plan.departure for plan in plans]
    )
    expected = tuple_sorted_stream(plans)
    assert list(session_event_stream(plans)) == expected
    assert list(session_event_stream(array_plans)) == expected
    assert _kinds_of(array_plans).tolist() == [
        event.kind is EventKind.JOIN for event in expected
    ]
