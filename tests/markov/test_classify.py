"""Unit tests for Markov state classification."""

import numpy as np

from repro.markov.classify import (
    absorbing_states,
    communicating_classes,
    recurrent_classes,
    transient_states,
    transition_graph,
)

# A 4-state chain: 0 and 1 are transient, 2 and 3 are each absorbing.
CHAIN = np.array(
    [
        [0.5, 0.2, 0.3, 0.0],
        [0.1, 0.4, 0.0, 0.5],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
)

# A 3-state chain with a recurrent pair {1, 2}.
PAIR = np.array(
    [
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 1.0, 0.0],
    ]
)


class TestTransitionGraph:
    def test_edges_follow_positive_entries(self):
        graph = transition_graph(CHAIN)
        assert graph[0, 2]
        assert not graph[2, 0]

    def test_epsilon_filters_noise(self):
        noisy = np.array([[1.0 - 1e-20, 1e-20], [0.0, 1.0]])
        graph = transition_graph(noisy)
        assert not graph[0, 1]


class TestClassification:
    def test_absorbing_states(self):
        assert absorbing_states(CHAIN) == [2, 3]

    def test_transient_states(self):
        assert transient_states(CHAIN) == [0, 1]

    def test_recurrent_classes_are_singletons_here(self):
        classes = recurrent_classes(CHAIN)
        assert sorted(map(sorted, classes)) == [[2], [3]]

    def test_recurrent_pair(self):
        classes = recurrent_classes(PAIR)
        assert len(classes) == 1
        assert classes[0] == frozenset({1, 2})
        assert transient_states(PAIR) == [0]

    def test_communicating_classes_partition_states(self):
        classes = communicating_classes(CHAIN)
        members = sorted(state for cls in classes for state in cls)
        assert members == [0, 1, 2, 3]

    def test_irreducible_chain_has_no_transients(self):
        ring = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert transient_states(ring) == []
        assert recurrent_classes(ring) == [frozenset({0, 1})]
