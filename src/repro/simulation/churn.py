"""Churn event generators.

The analytical model assumes an alternating stream where each event is a
join with probability ``p_j`` and a leave with probability
``p_l = 1 - p_j``, dispatched uniformly over clusters
(Sections III-A and VIII).  This module provides that generator plus two
richer ones (Poisson arrivals with exponential or Pareto session times)
used by the agent-based simulations to check that the conclusions
survive a more realistic churn process.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

import numpy as np


class EventKind(enum.Enum):
    """Join or leave."""

    JOIN = "join"
    LEAVE = "leave"


@dataclass(frozen=True)
class ChurnEvent:
    """One churn event with its (abstract or simulated) time."""

    kind: EventKind
    time: float


def bernoulli_event_stream(
    rng: np.random.Generator,
    p_join: float = 0.5,
    time_step: float = 1.0,
) -> Iterator[ChurnEvent]:
    """The model's stream: one event per unit of time, join w.p.
    ``p_join`` -- infinite, consume with ``itertools.islice``."""
    if not 0.0 < p_join < 1.0:
        raise ValueError(f"p_join must be in (0, 1), got {p_join}")
    time = 0.0
    while True:
        time += time_step
        kind = EventKind.JOIN if rng.random() < p_join else EventKind.LEAVE
        yield ChurnEvent(kind=kind, time=time)


def poisson_event_stream(
    rng: np.random.Generator,
    join_rate: float,
    leave_rate: float,
) -> Iterator[ChurnEvent]:
    """Superposition of Poisson join and leave processes.

    Inter-event times are exponential with rate ``join_rate +
    leave_rate``; each event is a join with probability
    ``join_rate / (join_rate + leave_rate)``.
    """
    if join_rate <= 0 or leave_rate <= 0:
        raise ValueError(
            f"rates must be positive, got {join_rate}, {leave_rate}"
        )
    total = join_rate + leave_rate
    p_join = join_rate / total
    time = 0.0
    while True:
        time += float(rng.exponential(1.0 / total))
        kind = EventKind.JOIN if rng.random() < p_join else EventKind.LEAVE
        yield ChurnEvent(kind=kind, time=time)


@dataclass(frozen=True)
class SessionPlan:
    """Arrival and departure instants for one synthetic peer."""

    arrival: float
    departure: float

    @property
    def duration(self) -> float:
        """Session length."""
        return self.departure - self.arrival


def exponential_sessions(
    rng: np.random.Generator,
    arrival_rate: float,
    mean_session: float,
    horizon: float,
) -> list[SessionPlan]:
    """Poisson arrivals with exponential session durations."""
    if arrival_rate <= 0 or mean_session <= 0 or horizon <= 0:
        raise ValueError("arrival_rate, mean_session, horizon must be > 0")
    plans = []
    time = 0.0
    while True:
        time += float(rng.exponential(1.0 / arrival_rate))
        if time >= horizon:
            break
        duration = float(rng.exponential(mean_session))
        plans.append(SessionPlan(arrival=time, departure=time + duration))
    return plans


def session_event_stream(
    plans: list[SessionPlan],
) -> Iterator[ChurnEvent]:
    """Flatten session plans into a time-ordered join/leave stream.

    Each plan contributes a :data:`EventKind.JOIN` at its arrival and a
    :data:`EventKind.LEAVE` at its departure; ties resolve joins first
    so a session is always born before it dies.  The stream is finite
    (two events per plan).
    """
    marks = [(plan.arrival, 0, EventKind.JOIN) for plan in plans]
    marks += [(plan.departure, 1, EventKind.LEAVE) for plan in plans]
    for time, _, kind in sorted(marks):
        yield ChurnEvent(kind=kind, time=time)


def pareto_sessions(
    rng: np.random.Generator,
    arrival_rate: float,
    shape: float,
    scale: float,
    horizon: float,
) -> list[SessionPlan]:
    """Poisson arrivals with heavy-tailed (Pareto) session durations.

    Measured P2P traces (e.g. Gnutella/Kad studies) exhibit heavy-tailed
    sessions; this generator is the stand-in for such traces, which
    the offline environment cannot download.
    """
    if shape <= 1.0:
        raise ValueError(
            f"shape must exceed 1 for a finite mean, got {shape}"
        )
    if arrival_rate <= 0 or scale <= 0 or horizon <= 0:
        raise ValueError("arrival_rate, scale, horizon must be > 0")
    plans = []
    time = 0.0
    while True:
        time += float(rng.exponential(1.0 / arrival_rate))
        if time >= horizon:
            break
        duration = float(scale * (1.0 + rng.pareto(shape)))
        plans.append(SessionPlan(arrival=time, departure=time + duration))
    return plans


# -- scenario registry entries ----------------------------------------------
#
# Factories share one signature -- ``factory(rng, params, **options) ->
# Iterator[ChurnEvent]`` -- so a :class:`~repro.scenario.spec.ScenarioSpec`
# can name any of them (with ``churn_options`` as the keyword arguments)
# and the engines stay agnostic of which process drives the events.

def _bernoulli_churn(
    rng: np.random.Generator,
    params,
    p_join: float | None = None,
    time_step: float = 1.0,
) -> Iterator[ChurnEvent]:
    if p_join is None:
        p_join = params.p_join
    return bernoulli_event_stream(rng, p_join=p_join, time_step=time_step)


def _poisson_churn(
    rng: np.random.Generator,
    params,
    rate: float = 2.0,
    join_rate: float | None = None,
    leave_rate: float | None = None,
) -> Iterator[ChurnEvent]:
    """Poisson superposition; by default the joint ``rate`` splits
    between joins and leaves according to ``params.p_join``."""
    if join_rate is None:
        join_rate = rate * params.p_join
    if leave_rate is None:
        leave_rate = rate * params.p_leave
    return poisson_event_stream(rng, join_rate, leave_rate)


def _exponential_session_churn(
    rng: np.random.Generator,
    params,
    arrival_rate: float = 1.0,
    mean_session: float = 10.0,
    horizon: float = 10_000.0,
) -> Iterator[ChurnEvent]:
    return session_event_stream(
        exponential_sessions(rng, arrival_rate, mean_session, horizon)
    )


def _pareto_session_churn(
    rng: np.random.Generator,
    params,
    arrival_rate: float = 1.0,
    shape: float = 1.5,
    scale: float = 1.0,
    horizon: float = 10_000.0,
) -> Iterator[ChurnEvent]:
    return session_event_stream(
        pareto_sessions(rng, arrival_rate, shape, scale, horizon)
    )


# -- event-indexed kind laws (batch-tier reduction) --------------------------
#
# The cluster chain is event-indexed: a churn process influences it only
# through the *kind sequence* (join or leave) of its events.  Each churn
# model therefore also registers its kind-law reduction, which is what
# the vectorized batch tier consumes:
#
# * :class:`IIDKinds` -- the process's kinds are i.i.d. (Bernoulli and
#   Poisson-superposition streams): the whole axis folds into a single
#   effective join probability mixed straight into the transition rows;
# * :class:`ScheduledKinds` -- the kinds are correlated (session-based
#   streams pair every join with a later leave): the sequence is
#   materialized once as a boolean schedule that lockstep trajectories
#   read from independent random offsets.
#
# Kind-law factories share the churn factories' signatures so one
# ``churn_options`` table drives both representations.

@dataclass(frozen=True)
class IIDKinds:
    """Event-indexed kind law of an i.i.d. churn process."""

    p_join: float

    def __post_init__(self) -> None:
        if not 0.0 < self.p_join < 1.0:
            raise ValueError(
                f"p_join must be in (0, 1), got {self.p_join}"
            )


@dataclass(frozen=True)
class ScheduledKinds:
    """Materialized kind sequence of a correlated churn process.

    ``schedule[k]`` is True when the stream's ``k``-th event is a join.
    Consumers read the (finite) schedule cyclically from per-trajectory
    offsets, which matches the per-trajectory law of a stationary
    stream segment.
    """

    schedule: np.ndarray

    def __post_init__(self) -> None:
        if self.schedule.size == 0:
            raise ValueError("kind schedule must be non-empty")


def _kinds_of(plans: list[SessionPlan]) -> np.ndarray:
    """Time-ordered join/leave flags of session plans (vectorized)."""
    arrivals = np.array([plan.arrival for plan in plans])
    departures = np.array([plan.departure for plan in plans])
    times = np.concatenate([arrivals, departures])
    # Joins sort before leaves on ties, matching session_event_stream.
    tiebreak = np.concatenate(
        [np.zeros(arrivals.size), np.ones(departures.size)]
    )
    order = np.lexsort((tiebreak, times))
    return order < arrivals.size


def _bernoulli_kinds(
    rng: np.random.Generator,
    params,
    p_join: float | None = None,
    time_step: float = 1.0,
) -> IIDKinds:
    return IIDKinds(params.p_join if p_join is None else p_join)


def _poisson_kinds(
    rng: np.random.Generator,
    params,
    rate: float = 2.0,
    join_rate: float | None = None,
    leave_rate: float | None = None,
) -> IIDKinds:
    if join_rate is None:
        join_rate = rate * params.p_join
    if leave_rate is None:
        leave_rate = rate * params.p_leave
    if join_rate <= 0 or leave_rate <= 0:
        raise ValueError(
            f"rates must be positive, got {join_rate}, {leave_rate}"
        )
    return IIDKinds(join_rate / (join_rate + leave_rate))


def _exponential_session_kinds(
    rng: np.random.Generator,
    params,
    arrival_rate: float = 1.0,
    mean_session: float = 10.0,
    horizon: float = 10_000.0,
) -> ScheduledKinds:
    return ScheduledKinds(
        _kinds_of(
            exponential_sessions(rng, arrival_rate, mean_session, horizon)
        )
    )


def _pareto_session_kinds(
    rng: np.random.Generator,
    params,
    arrival_rate: float = 1.0,
    shape: float = 1.5,
    scale: float = 1.0,
    horizon: float = 10_000.0,
) -> ScheduledKinds:
    return ScheduledKinds(
        _kinds_of(pareto_sessions(rng, arrival_rate, shape, scale, horizon))
    )


def _register_defaults() -> None:
    from repro.scenario.registry import CHURN_KIND_LAWS, CHURN_MODELS

    CHURN_MODELS.register("bernoulli", _bernoulli_churn)
    CHURN_MODELS.register("poisson", _poisson_churn)
    CHURN_MODELS.register(
        "exponential-sessions", _exponential_session_churn
    )
    CHURN_MODELS.register("pareto-sessions", _pareto_session_churn)
    CHURN_KIND_LAWS.register("bernoulli", _bernoulli_kinds)
    CHURN_KIND_LAWS.register("poisson", _poisson_kinds)
    CHURN_KIND_LAWS.register(
        "exponential-sessions", _exponential_session_kinds
    )
    CHURN_KIND_LAWS.register("pareto-sessions", _pareto_session_kinds)


_register_defaults()
