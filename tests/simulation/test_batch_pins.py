"""Bit-identity pins of the batch engine's sampled draws.

The metrics below were recorded from the engine as it stood before its
row sampler, kind-table layout and session generators were rewritten
for speed.  Each rewrite computes the same law from the same uniforms,
so every seeded batch result must keep its exact floats.  A pin that
moves means a draw moved: the change is wrong, not the pin.

The property tests compare the column-major sampler with an
independent ``numpy.searchsorted`` reference over row-shifted flat
tables, on every registered policy's mixed, join, leave and skip
tables, corner draws included.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.scenario.backends  # noqa: F401 -- populate ENGINES
from repro.core.parameters import ModelParameters
from repro.core.policies import COUNT_POLICIES
from repro.core.transitions import KIND_JOIN, KIND_LEAVE, transition_rows
from repro.scenario import ScenarioSpec
from repro.scenario.runner import execute_spec
from repro.simulation.batch import (
    BatchClusterEngine,
    BatchCompetingClustersSimulation,
)

PARAMS = ModelParameters(core_size=7, spare_max=7, k=1, mu=0.2, d=0.9)
SESSION_CHURN = ("exponential-sessions", "pareto-sessions")


def pin_spec(adversary, churn, seed, **options):
    return ScenarioSpec(
        name="pin",
        params=PARAMS,
        adversary=adversary,
        churn=churn,
        churn_options=(
            (("horizon", 5000.0),) if churn in SESSION_CHURN else ()
        ),
        engine="batch",
        runs=2000,
        seed=seed,
        options=tuple(sorted(options.items())),
    )


def _cases() -> dict[str, ScenarioSpec]:
    cases = {}
    seed = 100
    for adversary in ("strong", "passive", "greedy-leave"):
        for churn in ("bernoulli", "poisson") + SESSION_CHURN:
            seed += 1
            cases[f"{adversary}|{churn}"] = pin_spec(adversary, churn, seed)
    cases["strong|bernoulli|skip"] = pin_spec(
        "strong", "bernoulli", 201, mode="skip"
    )
    cases["passive|poisson|event"] = pin_spec(
        "passive", "poisson", 202, mode="event"
    )
    cases["greedy-leave|bernoulli|chunk"] = pin_spec(
        "greedy-leave", "bernoulli", 203, chunk_size=700
    )
    cases["strong|exponential-sessions|chunk"] = pin_spec(
        "strong", "exponential-sessions", 204, chunk_size=700
    )
    return cases


CASES = _cases()

#: ``repr(execute_spec(spec).metrics)`` per case.  The i.i.d. cells run
#: in event mode at the paper's point and skip mode elsewhere; the
#: session cells run the scheduled-kind lanes.
PINNED_METRICS = {
    'strong|bernoulli': "{'E(T_S)': 11.766, 'E(T_P)': 0.6255, 'p(safe-merge)': 0.4885, 'p(safe-split)': 0.473, 'p(polluted-merge)': 0.0385, 'sem(T_S)': 0.19356744607006895, 'sem(T_P)': 0.09921464936350963, 'E(T_S,1)': 11.745, 'E(T_P,1)': 0.604, 'runs': 2000.0}",
    'strong|poisson': "{'E(T_S)': 12.096, 'E(T_P)': 0.4765, 'p(safe-merge)': 0.471, 'p(safe-split)': 0.4945, 'p(polluted-merge)': 0.0345, 'sem(T_S)': 0.2053106627384877, 'sem(T_P)': 0.08231106505637839, 'E(T_S,1)': 12.029, 'E(T_P,1)': 0.4535, 'runs': 2000.0}",
    'strong|exponential-sessions': "{'E(T_S)': 12.9635, 'E(T_P)': 0.782, 'p(safe-merge)': 0.483, 'p(safe-split)': 0.477, 'p(polluted-merge)': 0.04, 'sem(T_S)': 0.22535078292005406, 'sem(T_P)': 0.12215440577164915, 'E(T_S,1)': 12.895, 'E(T_P,1)': 0.7605, 'runs': 2000.0}",
    'strong|pareto-sessions': "{'E(T_S)': 15.2095, 'E(T_P)': 1.071, 'p(safe-merge)': 0.4565, 'p(safe-split)': 0.489, 'p(polluted-merge)': 0.0545, 'sem(T_S)': 0.2865202467556184, 'sem(T_P)': 0.12350954134560496, 'E(T_S,1)': 15.068, 'E(T_P,1)': 1.0295, 'runs': 2000.0}",
    'passive|bernoulli': "{'E(T_S)': 11.8735, 'E(T_P)': 0.068, 'p(safe-merge)': 0.5595, 'p(safe-split)': 0.4325, 'p(polluted-merge)': 0.008, 'sem(T_S)': 0.21372549723672313, 'sem(T_P)': 0.02064948426959618, 'E(T_S,1)': 11.8535, 'E(T_P,1)': 0.046, 'runs': 2000.0}",
    'passive|poisson': "{'E(T_S)': 11.8805, 'E(T_P)': 0.0635, 'p(safe-merge)': 0.595, 'p(safe-split)': 0.398, 'p(polluted-merge)': 0.007, 'sem(T_S)': 0.20499297777111228, 'sem(T_P)': 0.016073675887246956, 'E(T_S,1)': 11.851, 'E(T_P,1)': 0.056, 'runs': 2000.0}",
    'passive|exponential-sessions': "{'E(T_S)': 13.4695, 'E(T_P)': 0.098, 'p(safe-merge)': 0.5595, 'p(safe-split)': 0.4335, 'p(polluted-merge)': 0.007, 'sem(T_S)': 0.2555928377798607, 'sem(T_P)': 0.020159394847075646, 'E(T_S,1)': 13.3345, 'E(T_P,1)': 0.0905, 'runs': 2000.0}",
    'passive|pareto-sessions': "{'E(T_S)': 16.696, 'E(T_P)': 0.4815, 'p(safe-merge)': 0.557, 'p(safe-split)': 0.4335, 'p(polluted-merge)': 0.0095, 'sem(T_S)': 0.4280863475520801, 'sem(T_P)': 0.06967249100614603, 'E(T_S,1)': 15.8935, 'E(T_P,1)': 0.3255, 'runs': 2000.0}",
    'greedy-leave|bernoulli': "{'E(T_S)': 11.9545, 'E(T_P)': 0.494, 'p(safe-merge)': 0.5035, 'p(safe-split)': 0.4685, 'p(polluted-merge)': 0.028, 'sem(T_S)': 0.21231757876380858, 'sem(T_P)': 0.08974970476136607, 'E(T_S,1)': 11.927, 'E(T_P,1)': 0.4755, 'runs': 2000.0}",
    'greedy-leave|poisson': "{'E(T_S)': 11.784, 'E(T_P)': 0.4095, 'p(safe-merge)': 0.509, 'p(safe-split)': 0.4635, 'p(polluted-merge)': 0.0275, 'sem(T_S)': 0.20486375125504547, 'sem(T_P)': 0.08270928175025957, 'E(T_S,1)': 11.7635, 'E(T_P,1)': 0.3895, 'runs': 2000.0}",
    'greedy-leave|exponential-sessions': "{'E(T_S)': 12.6765, 'E(T_P)': 0.4665, 'p(safe-merge)': 0.4985, 'p(safe-split)': 0.465, 'p(polluted-merge)': 0.0365, 'sem(T_S)': 0.22067798544855083, 'sem(T_P)': 0.08520016672052118, 'E(T_S,1)': 12.6345, 'E(T_P,1)': 0.458, 'runs': 2000.0}",
    'greedy-leave|pareto-sessions': "{'E(T_S)': 15.732, 'E(T_P)': 0.989, 'p(safe-merge)': 0.471, 'p(safe-split)': 0.4765, 'p(polluted-merge)': 0.0525, 'sem(T_S)': 0.3223314082871605, 'sem(T_P)': 0.11471712823181585, 'E(T_S,1)': 15.6385, 'E(T_P,1)': 0.9195, 'runs': 2000.0}",
    'strong|bernoulli|skip': "{'E(T_S)': 11.6945, 'E(T_P)': 0.508, 'p(safe-merge)': 0.492, 'p(safe-split)': 0.478, 'p(polluted-merge)': 0.03, 'sem(T_S)': 0.19602116473358625, 'sem(T_P)': 0.08309886106533096, 'E(T_S,1)': 11.6725, 'E(T_P,1)': 0.489, 'runs': 2000.0}",
    'passive|poisson|event': "{'E(T_S)': 11.8365, 'E(T_P)': 0.0885, 'p(safe-merge)': 0.557, 'p(safe-split)': 0.439, 'p(polluted-merge)': 0.004, 'sem(T_S)': 0.1995314267731654, 'sem(T_P)': 0.022893141395655615, 'E(T_S,1)': 11.7795, 'E(T_P,1)': 0.0795, 'runs': 2000.0}",
    'greedy-leave|bernoulli|chunk': "{'E(T_S)': 12.154, 'E(T_P)': 0.367, 'p(safe-merge)': 0.502, 'p(safe-split)': 0.468, 'p(polluted-merge)': 0.03, 'sem(T_S)': 0.20941124261669222, 'sem(T_P)': 0.08101813049394788, 'E(T_S,1)': 12.1115, 'E(T_P,1)': 0.359, 'runs': 2000.0}",
    'strong|exponential-sessions|chunk': "{'E(T_S)': 12.944, 'E(T_P)': 0.83, 'p(safe-merge)': 0.475, 'p(safe-split)': 0.4755, 'p(polluted-merge)': 0.0495, 'sem(T_S)': 0.22491270498224683, 'sem(T_P)': 0.11046334720411911, 'E(T_S,1)': 12.8935, 'E(T_P,1)': 0.771, 'runs': 2000.0}",
}

#: sha256 of ``repr((events, safe, polluted))`` of one competing series
#: per dispatch strategy (``event_batching`` off, on).
PINNED_SERIES = {
    False: "56d3ea0b1149fbcce22c0b468245274e3a710577cd4177b586d4d794f0907335",
    True: "d718643efc7d5cd1d1335780d926780601027eeee48e193d4a9bcf0d7101e430",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_batch_metrics_are_pinned(case):
    assert repr(execute_spec(CASES[case]).metrics) == PINNED_METRICS[case]


@pytest.mark.parametrize("event_batching", [False, True])
def test_competing_series_is_pinned(event_batching):
    simulation = BatchCompetingClustersSimulation(
        PARAMS,
        400,
        np.random.default_rng(31),
        policy="greedy-leave",
        p_join=0.45,
        event_batching=event_batching,
    )
    series = simulation.run(20_000, record_every=500)
    text = repr(
        (
            series.events.tolist(),
            series.safe_fraction.tolist(),
            series.polluted_fraction.tolist(),
        )
    )
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == PINNED_SERIES[event_batching]


# -- the row sampler against a flat searchsorted --------------------------

#: The benchmark's point and a wider one (1 001 states, so row shifts
#: ``2 i`` reach the magnitudes where ``2 i + u`` rounds coarsely).
SAMPLER_POINTS = (
    PARAMS,
    ModelParameters(core_size=10, spare_max=12, k=2, mu=0.25, d=0.9),
)


def reference_columns(cum, rows, draws):
    """Row ``i``'s drawn column by one search over every row, shifted
    by ``2 i`` and flattened."""
    n, width = cum.shape
    flat = (cum + 2.0 * np.arange(n)[:, None]).ravel()
    found = np.searchsorted(flat, 2.0 * rows + draws, side="right")
    # Where 2 i + u rounds up to 2 i + 1 the search runs one past the
    # row; the row's last column holds that remaining mass.
    return np.minimum(found - rows * width, width - 1)


def skip_law(rows):
    """``(targets, cum)`` of the self-loop-censored landing law."""
    n = rows.n_states
    own = rows.targets == np.arange(n)[:, None]
    stay = np.where(own, rows.probs, 0.0).sum(axis=1)
    per_row = []
    for i in range(n):
        items = [
            (int(target), float(p) / (1.0 - stay[i]))
            for target, p in zip(rows.targets[i], rows.probs[i])
            if p > 0.0 and target != i
        ]
        per_row.append(items or [(i, 1.0)])
    width = max(len(items) for items in per_row)
    targets = np.empty((n, width), dtype=np.intp)
    probs = np.zeros((n, width))
    for i, items in enumerate(per_row):
        targets[i, : len(items)] = [target for target, _ in items]
        targets[i, len(items) :] = items[-1][0]
        probs[i, : len(items)] = [p for _, p in items]
    cum = probs.cumsum(axis=1)
    cum[:, -1] = np.maximum(cum[:, -1], 1.0)
    return targets, cum


@functools.cache
def sampler_cases(params, policy):
    """``(label, table, row offset, reference targets, reference cum)``
    for the mixed, join, leave and skip laws of one policy."""
    engine = BatchClusterEngine(
        params, np.random.default_rng(0), policy=policy, with_kind_rows=True
    )
    mixed = engine.rows
    n = mixed.n_states
    cases = [("mixed", engine._table, 0, mixed.targets, mixed.cum_probs)]
    for offset, kind in ((0, KIND_JOIN), (n, KIND_LEAVE)):
        rows = transition_rows(params, policy=engine.policy, kind=kind)
        cases.append(
            (kind, engine._kind_table, offset, rows.targets, rows.cum_probs)
        )
    cases.append(("skip", engine.skip_tables.landing, 0, *skip_law(mixed)))
    return cases


def assert_sampler_matches(case, rows, draws):
    label, table, offset, targets, cum = case
    reference = reference_columns(cum, rows, draws)
    drawn = table.sample(rows + offset, draws)
    np.testing.assert_array_equal(
        drawn, targets[rows, reference], err_msg=label
    )
    if table.width == cum.shape[1] and offset == 0:
        columns = table.flat_positions(rows, draws) - rows * table.width
        np.testing.assert_array_equal(columns, reference, err_msg=label)


@pytest.mark.parametrize("params", SAMPLER_POINTS, ids=["C7", "C10"])
@pytest.mark.parametrize("policy", sorted(COUNT_POLICIES))
def test_row_sampler_corner_draws(params, policy):
    """u = 0, u equal to each of the row's own cumulative entries, and
    the largest double below 1."""
    for case in sampler_cases(params, policy):
        cum = case[-1]
        n, width = cum.shape
        rows = np.repeat(np.arange(n), width + 2)
        corners = np.concatenate(
            [
                np.zeros((n, 1)),
                np.minimum(cum, np.nextafter(1.0, 0.0)),
                np.full((n, 1), np.nextafter(1.0, 0.0)),
            ],
            axis=1,
        ).ravel()
        assert_sampler_matches(case, rows, corners)


@settings(deadline=None, max_examples=60)
@given(
    point=st.integers(0, len(SAMPLER_POINTS) - 1),
    policy=st.sampled_from(sorted(COUNT_POLICIES)),
    draws=st.lists(
        st.tuples(
            st.integers(0, 10**6),
            st.floats(0.0, 1.0, exclude_max=True),
        ),
        min_size=1,
        max_size=64,
    ),
)
def test_row_sampler_matches_searchsorted(point, policy, draws):
    uniforms = np.array([u for _, u in draws])
    for case in sampler_cases(SAMPLER_POINTS[point], policy):
        rows = np.array([row for row, _ in draws]) % case[-1].shape[0]
        assert_sampler_matches(case, rows, uniforms)
