"""State classification for finite Markov chains.

Classifies states into communicating classes, recurrent (closed)
classes, transient states and absorbing singletons from the boolean
reachability closure of the transition graph ``P > epsilon``.
"""

from __future__ import annotations

import numpy as np

from repro.markov.linalg import as_square_array

#: Entries smaller than this are treated as structural zeros.
EDGE_EPSILON = 1e-15


def transition_graph(matrix: np.ndarray, epsilon: float = EDGE_EPSILON) -> np.ndarray:
    """Boolean adjacency array: ``graph[i, j]`` when ``P[i, j] > epsilon``."""
    return as_square_array(matrix) > epsilon


def _reachability(graph: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure of ``graph`` by repeated squaring."""
    reach = graph | np.eye(graph.shape[0], dtype=bool)
    while True:
        weights = reach.astype(float)
        closed = (weights @ weights) > 0.0
        if np.array_equal(closed, reach):
            return reach
        reach = closed


def _classes(reach: np.ndarray) -> list[frozenset[int]]:
    """Communicating classes of a reachability closure, in order of
    their smallest state."""
    mutual = reach & reach.T
    return list(
        dict.fromkeys(frozenset(np.flatnonzero(row).tolist()) for row in mutual)
    )


def communicating_classes(
    matrix: np.ndarray, epsilon: float = EDGE_EPSILON
) -> list[frozenset[int]]:
    """Communicating classes (strongly connected components) of the chain."""
    return _classes(_reachability(transition_graph(matrix, epsilon)))


def recurrent_classes(
    matrix: np.ndarray, epsilon: float = EDGE_EPSILON
) -> list[frozenset[int]]:
    """Closed communicating classes (no member reaches outside the class)."""
    reach = _reachability(transition_graph(matrix, epsilon))
    # Members of one class reach the same states, so one row decides.
    return [
        members
        for members in _classes(reach)
        if reach[min(members)].sum() == len(members)
    ]


def transient_states(
    matrix: np.ndarray, epsilon: float = EDGE_EPSILON
) -> list[int]:
    """States not belonging to any recurrent class, in index order."""
    arr = as_square_array(matrix)
    recurrent = set().union(*recurrent_classes(arr, epsilon))
    return [i for i in range(arr.shape[0]) if i not in recurrent]


def absorbing_states(
    matrix: np.ndarray, atol: float = 1e-12
) -> list[int]:
    """States ``i`` with ``P[i, i] ~= 1`` (self-loop probability one)."""
    arr = as_square_array(matrix)
    return [
        i for i in range(arr.shape[0]) if abs(arr[i, i] - 1.0) <= atol
    ]
