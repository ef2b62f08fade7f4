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
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

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


class SessionPlans(Sequence[SessionPlan]):
    """Immutable sequence of session plans backed by two float arrays.

    ``arrivals[k]`` and ``departures[k]`` are plan ``k``'s instants;
    indexing and iteration yield :class:`SessionPlan` records, so the
    sequence reads like a list of plans without building one record
    per session up front.
    """

    __slots__ = ("arrivals", "departures")

    def __init__(self, arrivals: np.ndarray, departures: np.ndarray) -> None:
        arrivals = np.array(arrivals, dtype=float)
        departures = np.array(departures, dtype=float)
        if arrivals.shape != departures.shape or arrivals.ndim != 1:
            raise ValueError(
                "arrivals and departures must be equal-length 1-d arrays"
            )
        arrivals.setflags(write=False)
        departures.setflags(write=False)
        self.arrivals = arrivals
        self.departures = departures

    def __len__(self) -> int:
        return self.arrivals.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SessionPlans(self.arrivals[index], self.departures[index])
        return SessionPlan(
            float(self.arrivals[index]), float(self.departures[index])
        )

    def __iter__(self) -> Iterator[SessionPlan]:
        return map(
            SessionPlan, self.arrivals.tolist(), self.departures.tolist()
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SessionPlans):
            return NotImplemented
        return np.array_equal(
            self.arrivals, other.arrivals
        ) and np.array_equal(self.departures, other.departures)

    __hash__ = None

    def __repr__(self) -> str:
        return f"SessionPlans(<{len(self)} plans>)"


def _first_block(expected: float) -> int:
    """Draws in the first block for ``expected`` arrivals: the count is
    Poisson, so four standard deviations of slack rarely need a second
    block."""
    return 2 * int(expected + 4.0 * np.sqrt(expected) + 32.0) + 1


def _session_draws(
    rng: np.random.Generator, arrival_rate: float, horizon: float
) -> tuple[np.ndarray, int]:
    """Arrival instants before ``horizon`` and their count ``m``.

    A session generator consumes its stream as arrival gap, duration,
    arrival gap, ..., and stops at the first arrival at or past the
    horizon: ``2 m + 1`` standard exponentials in all.  A twin
    generator started from ``rng``'s state draws growing blocks of that
    stream until the running sum of the gaps crosses the horizon, which
    fixes ``m`` without touching ``rng``; the caller then draws exactly
    ``2 m + 1`` values from ``rng`` itself.  The gaps are summed in
    stream order, so every instant is the float the one-plan-at-a-time
    loop computes.
    """
    if not np.isfinite(horizon):
        raise ValueError(f"horizon must be finite, got {horizon}")
    twin = np.random.Generator(type(rng.bit_generator)())
    twin.bit_generator.state = rng.bit_generator.state
    scale = 1.0 / arrival_rate
    draws = twin.standard_exponential(_first_block(horizon * arrival_rate))
    while True:
        arrivals = np.cumsum(draws[0::2] * scale)
        m = int(np.searchsorted(arrivals, horizon, side="left"))
        if m < arrivals.size:
            return arrivals[:m], m
        draws = np.concatenate(
            [draws, twin.standard_exponential(draws.size + 1)]
        )


def exponential_sessions(
    rng: np.random.Generator,
    arrival_rate: float,
    mean_session: float,
    horizon: float,
) -> SessionPlans:
    """Poisson arrivals with exponential session durations."""
    if arrival_rate <= 0 or mean_session <= 0 or horizon <= 0:
        raise ValueError("arrival_rate, mean_session, horizon must be > 0")
    arrivals, m = _session_draws(rng, arrival_rate, horizon)
    durations = rng.standard_exponential(2 * m + 1)[1::2] * mean_session
    return SessionPlans(arrivals, arrivals + durations)


def pareto_sessions(
    rng: np.random.Generator,
    arrival_rate: float,
    shape: float,
    scale: float,
    horizon: float,
) -> SessionPlans:
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
    arrivals, m = _session_draws(rng, arrival_rate, horizon)
    # A Pareto draw is expm1 of one standard exponential over ``shape``,
    # so the odd slots of 2m + 1 Pareto draws are the session lengths
    # and the stream advances exactly as 2m + 1 exponentials would.
    lomax = rng.pareto(shape, 2 * m + 1)[1::2]
    return SessionPlans(arrivals, arrivals + scale * (1.0 + lomax))


def _plan_arrays(plans) -> tuple[np.ndarray, np.ndarray]:
    """``(arrivals, departures)`` of a plan sequence."""
    if isinstance(plans, SessionPlans):
        return plans.arrivals, plans.departures
    return (
        np.array([plan.arrival for plan in plans], dtype=float),
        np.array([plan.departure for plan in plans], dtype=float),
    )


def _session_order(
    arrivals: np.ndarray, departures: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Time-ordered event instants and join flags of session plans.

    Joins sort before leaves on ties, so a session is always born
    before it dies; ties within one kind keep plan order.
    """
    times = np.concatenate([arrivals, departures])
    leaves = np.arange(times.size) >= arrivals.size
    order = np.lexsort((leaves, times))
    return times[order], order < arrivals.size


def session_event_stream(
    plans: Sequence[SessionPlan],
) -> Iterator[ChurnEvent]:
    """Flatten session plans into a time-ordered join/leave stream.

    Each plan contributes a :data:`EventKind.JOIN` at its arrival and a
    :data:`EventKind.LEAVE` at its departure; ties resolve joins first
    so a session is always born before it dies.  The stream is finite
    (two events per plan).
    """
    times, joins = _session_order(*_plan_arrays(plans))
    for time, join in zip(times.tolist(), joins.tolist()):
        yield ChurnEvent(
            kind=EventKind.JOIN if join else EventKind.LEAVE, time=time
        )


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
#   materialized once as a boolean schedule that lanes of lockstep
#   trajectories read sequentially, from a random start per lane.
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
    The batch tier reads the (finite) schedule cyclically: lanes of
    trajectories each start at a random position and then run their
    trajectories back to back, each one starting where the previous
    one absorbed, as the scalar oracle consumes its one stream.  A
    horizon before the first arrival gives an empty schedule, which
    the scenario layer refuses.
    """

    schedule: np.ndarray


def _kinds_of(plans: SessionPlans) -> np.ndarray:
    """Time-ordered join/leave flags of session plans."""
    return _session_order(plans.arrivals, plans.departures)[1]


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
