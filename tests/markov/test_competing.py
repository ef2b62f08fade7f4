"""Unit tests for the competing-chains theorems (Theorem 1/2)."""

import numpy as np
import pytest

from repro.analysis.experiments import FIGURE5_MU, base_parameters
from repro.core.initial import delta_distribution
from repro.core.matrix import ClusterChain
from repro.markov.competing import (
    competing_law_binomial_mixture,
    competing_subset_series,
    competing_transient_law,
    expected_transitions_per_chain,
    slowdown_matrix,
)
from repro.markov.linalg import MarkovNumericsError

TRANSIENT = np.array(
    [
        [0.2, 0.5],
        [0.1, 0.3],
    ]
)
ALPHA = np.array([1.0, 0.0])

# Stochastic and slow to mix, so the law is far from both the initial
# vector and the stationary one after thousands of events.
SLOW_MIXING = np.array(
    [
        [0.999, 0.001],
        [0.0005, 0.9995],
    ]
)


def per_event_series(initial, transition, n_chains, n_events, indicators,
                     record_every):
    """Reference: step ``alpha <- alpha A_n`` once per event and record
    ``alpha @ 1_B`` at every multiple of ``record_every`` and at the end."""
    lazy = slowdown_matrix(transition, n_chains)
    alpha = np.asarray(initial, dtype=float)
    events = [0]
    laws = [alpha]
    for event in range(1, n_events + 1):
        alpha = alpha @ lazy
        if event % record_every == 0 or event == n_events:
            events.append(event)
            laws.append(alpha)
    series = {
        name: np.array([law @ vector for law in laws])
        for name, vector in indicators.items()
    }
    series["events"] = np.array(events)
    return series


def assert_series_match(actual, expected):
    assert actual.keys() == expected.keys()
    assert list(actual["events"]) == list(expected["events"])
    for name in expected:
        np.testing.assert_allclose(actual[name], expected[name], rtol=0, atol=1e-12)


class TestSlowdownMatrix:
    def test_n_equals_one_is_identity_transform(self):
        assert np.allclose(slowdown_matrix(TRANSIENT, 1), TRANSIENT)

    def test_diagonal_shift(self):
        lazy = slowdown_matrix(TRANSIENT, 4)
        expected = TRANSIENT / 4 + np.eye(2) * 0.75
        assert np.allclose(lazy, expected)

    def test_rejects_bad_n(self):
        with pytest.raises(MarkovNumericsError):
            slowdown_matrix(TRANSIENT, 0)


class TestTheoremEquivalence:
    def test_matrix_power_matches_binomial_mixture(self):
        for matrix in (TRANSIENT, SLOW_MIXING):
            for n_chains in (1, 2, 7):
                for m in (0, 1, 5, 40, 2000):
                    direct = competing_transient_law(ALPHA, matrix, n_chains, m)
                    mixture = competing_law_binomial_mixture(
                        ALPHA, matrix, n_chains, m
                    )
                    assert np.allclose(direct, mixture, atol=1e-9)

    def test_single_chain_reduces_to_plain_power(self):
        law = competing_transient_law(ALPHA, TRANSIENT, 1, 3)
        plain = ALPHA @ np.linalg.matrix_power(TRANSIENT, 3)
        assert np.allclose(law, plain)

    def test_zero_events_returns_initial(self):
        law = competing_transient_law(ALPHA, TRANSIENT, 5, 0)
        assert np.allclose(law, ALPHA)

    def test_mass_is_nonincreasing(self):
        masses = [
            competing_transient_law(ALPHA, TRANSIENT, 3, m).sum()
            for m in range(0, 60, 10)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(masses, masses[1:]))

    def test_slower_decay_with_more_chains(self):
        few = competing_transient_law(ALPHA, TRANSIENT, 2, 30).sum()
        many = competing_transient_law(ALPHA, TRANSIENT, 50, 30).sum()
        assert many > few


class TestSeries:
    def test_series_matches_pointwise_law(self):
        indicator = {"first": np.array([1.0, 0.0])}
        series = competing_subset_series(
            ALPHA, TRANSIENT, 3, 10, indicator, record_every=1
        )
        for i, m in enumerate(series["events"]):
            law = competing_transient_law(ALPHA, TRANSIENT, 3, int(m))
            assert series["first"][i] == pytest.approx(law[0], abs=1e-12)

    def test_record_every_subsamples(self):
        indicator = {"all": np.ones(2)}
        series = competing_subset_series(
            ALPHA, TRANSIENT, 3, 100, indicator, record_every=25
        )
        assert list(series["events"]) == [0, 25, 50, 75, 100]

    def test_final_event_always_recorded(self):
        indicator = {"all": np.ones(2)}
        series = competing_subset_series(
            ALPHA, TRANSIENT, 3, 103, indicator, record_every=25
        )
        assert series["events"][-1] == 103

    @pytest.mark.parametrize(
        "n_events, record_every",
        [
            (60, 1),  # today's per-event recursion
            (103, 25),  # stride does not divide n_events
            (7, 25),  # stride longer than the whole series
            (0, 1),
            (0, 25),
        ],
    )
    def test_strided_series_matches_per_event_recursion(
        self, n_events, record_every
    ):
        indicators = {"first": np.array([1.0, 0.0]), "all": np.ones(2)}
        for matrix in (TRANSIENT, SLOW_MIXING):
            for n_chains in (1, 3):
                assert_series_match(
                    competing_subset_series(
                        ALPHA, matrix, n_chains, n_events, indicators,
                        record_every=record_every,
                    ),
                    per_event_series(
                        ALPHA, matrix, n_chains, n_events, indicators,
                        record_every,
                    ),
                )

    def test_figure5_chain_matches_per_event_recursion(self):
        chain = ClusterChain(base_parameters(k=1, mu=FIGURE5_MU, d=0.9))
        assert chain.transient_matrix.shape == (216, 216)
        indicators = {
            "safe": chain.safe_indicator(),
            "polluted": chain.polluted_indicator(),
        }
        initial = delta_distribution(chain)
        assert_series_match(
            competing_subset_series(
                initial, chain.transient_matrix, 500, 2_000, indicators,
                record_every=500,
            ),
            per_event_series(
                initial, chain.transient_matrix, 500, 2_000, indicators, 500
            ),
        )

    def test_no_indicators_records_events_only(self):
        series = competing_subset_series(
            ALPHA, TRANSIENT, 3, 10, {}, record_every=4
        )
        assert list(series) == ["events"]
        assert list(series["events"]) == [0, 4, 8, 10]

    def test_negative_events_rejected(self):
        with pytest.raises(MarkovNumericsError, match="n_events"):
            competing_subset_series(ALPHA, TRANSIENT, 3, -1, {"all": np.ones(2)})

    def test_indicator_shape_validated(self):
        with pytest.raises(MarkovNumericsError, match="indicator"):
            competing_subset_series(
                ALPHA, TRANSIENT, 3, 5, {"bad": np.ones(3)}
            )

    def test_record_every_validated(self):
        with pytest.raises(MarkovNumericsError, match="record_every"):
            competing_subset_series(
                ALPHA, TRANSIENT, 3, 5, {"all": np.ones(2)}, record_every=0
            )


class TestHelpers:
    def test_expected_transitions(self):
        assert expected_transitions_per_chain(500, 100_000) == 200.0

    def test_expected_transitions_validation(self):
        with pytest.raises(MarkovNumericsError):
            expected_transitions_per_chain(0, 10)
