"""Property-based tests on the generic Markov machinery."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.markov.classify import (
    EDGE_EPSILON,
    communicating_classes,
    recurrent_classes,
    transient_states,
)
from repro.markov.competing import (
    competing_law_binomial_mixture,
    competing_subset_series,
    competing_transient_law,
    slowdown_matrix,
)
from repro.markov.fundamental import AbsorbingAnalysis
from repro.markov.linalg import solve_fundamental, substochastic_check
from repro.markov.reachability import reachable_indices


def substochastic_matrices(size: int, leak: float = 0.05):
    """Random sub-stochastic matrices with at least `leak` escape mass."""
    return arrays(
        dtype=float,
        shape=(size, size),
        elements=st.floats(0.0, 1.0),
    ).map(lambda raw: _normalize(raw, leak))


def _normalize(raw: np.ndarray, leak: float) -> np.ndarray:
    sums = raw.sum(axis=1, keepdims=True)
    sums[sums == 0.0] = 1.0
    return raw / sums * (1.0 - leak)


@settings(deadline=None, max_examples=50)
@given(matrix=substochastic_matrices(4))
def test_fundamental_matrix_is_nonnegative(matrix):
    substochastic_check(matrix)
    fundamental = solve_fundamental(matrix)
    assert fundamental.min() >= -1e-9
    # N = I + Q N (the renewal identity).
    assert np.allclose(fundamental, np.eye(4) + matrix @ fundamental)


@settings(deadline=None, max_examples=50)
@given(matrix=substochastic_matrices(4))
def test_absorbing_analysis_probabilities_normalize(matrix):
    escape = 1.0 - matrix.sum(axis=1)
    analysis = AbsorbingAnalysis(
        transient_block=matrix,
        absorbing_blocks=(("out", escape.reshape(-1, 1)),),
        initial=np.array([1.0, 0.0, 0.0, 0.0]),
    )
    assert abs(analysis.absorption_probability("out") - 1.0) < 1e-8
    assert analysis.expected_steps_to_absorption() >= 1.0 - 1e-9


@settings(deadline=None, max_examples=30)
@given(
    matrix=substochastic_matrices(3),
    n_chains=st.integers(1, 40),
    n_events=st.integers(0, 60),
)
def test_theorem1_equivalence_randomized(matrix, n_chains, n_events):
    """Matrix-power and binomial-mixture evaluations agree everywhere."""
    alpha = np.array([0.5, 0.3, 0.2])
    power = competing_transient_law(alpha, matrix, n_chains, n_events)
    mixture = competing_law_binomial_mixture(alpha, matrix, n_chains, n_events)
    assert np.allclose(power, mixture, atol=1e-8)


@settings(deadline=None, max_examples=50)
@given(
    matrix=substochastic_matrices(3),
    n_chains=st.integers(1, 40),
    n_events=st.integers(0, 80),
    record_every=st.integers(1, 100),
)
def test_strided_series_matches_per_event_recursion(
    matrix, n_chains, n_events, record_every
):
    """Striding by ``A_n^record_every`` records what stepping once per
    event records, at every recorded point."""
    alpha = np.array([0.5, 0.3, 0.2])
    indicator = np.array([1.0, 0.0, 1.0])
    series = competing_subset_series(
        alpha, matrix, n_chains, n_events, {"b": indicator}, record_every
    )
    lazy = slowdown_matrix(matrix, n_chains)
    law = alpha
    expected_events, expected = [0], [law @ indicator]
    for event in range(1, n_events + 1):
        law = law @ lazy
        if event % record_every == 0 or event == n_events:
            expected_events.append(event)
            expected.append(law @ indicator)
    assert list(series["events"]) == expected_events
    np.testing.assert_allclose(series["b"], expected, rtol=0, atol=1e-12)


@settings(deadline=None, max_examples=50)
@given(matrix=substochastic_matrices(3), n_chains=st.integers(1, 50))
def test_slowdown_preserves_substochasticity(matrix, n_chains):
    lazy = slowdown_matrix(matrix, n_chains)
    substochastic_check(lazy)


@settings(deadline=None, max_examples=30)
@given(
    matrix=substochastic_matrices(3),
    n_events=st.integers(1, 50),
)
def test_more_chains_slow_the_decay(matrix, n_events):
    """Per-chain transient mass decays slower in larger overlays."""
    alpha = np.array([1.0, 0.0, 0.0])
    few = competing_transient_law(alpha, matrix, 2, n_events).sum()
    many = competing_transient_law(alpha, matrix, 20, n_events).sum()
    assert many >= few - 1e-9


@st.composite
def sparse_chains_with_open_class(draw):
    """Sparse sub-stochastic matrices whose states 0 and 1 communicate
    but leak into an absorbing last state: a multi-state class that is
    not closed, next to whatever structure the random entries add."""
    size = draw(st.integers(3, 8))
    raw = draw(
        arrays(dtype=float, shape=(size, size), elements=st.floats(0.0, 1.0))
    )
    sparse = np.where(raw > draw(st.floats(0.3, 1.0)), raw, 0.0)
    sparse[0, 1] = sparse[1, 0] = sparse[1, -1] = 1.0
    sparse[-1] = 0.0
    sparse[-1, -1] = 1.0
    return _normalize(sparse, draw(st.floats(0.0, 0.5)))


def _reference_classes(matrix):
    """Communicating and closed classes from per-state reachability."""
    reach = [
        set(reachable_indices(matrix, np.array([state]), EDGE_EPSILON).tolist())
        for state in range(matrix.shape[0])
    ]
    classes = {
        frozenset(other for other in reach[state] if state in reach[other])
        for state in range(matrix.shape[0])
    }
    closed = {
        members
        for members in classes
        if all(reach[state] <= members for state in members)
    }
    return classes, closed


@settings(deadline=None, max_examples=100)
@given(matrix=sparse_chains_with_open_class())
def test_classification_matches_reachability_reference(matrix):
    classes, closed = _reference_classes(matrix)
    open_class = next(members for members in classes if 0 in members)
    assert len(open_class) >= 2 and open_class not in closed

    found = communicating_classes(matrix)
    assert len(found) == len(set(found))
    assert set(found) == classes
    assert set(recurrent_classes(matrix)) == closed
    assert transient_states(matrix) == sorted(
        set(range(matrix.shape[0])).difference(*closed)
    )
