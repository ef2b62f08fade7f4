"""Markov chains competing for transitions (paper Theorems 1 and 2).

The overlay is modeled as ``n`` identical chains ``X^(1) .. X^(n)``; at
each global event exactly one chain, picked uniformly, makes a
transition.  Anceaume, Castella, Ludinard & Sericola (2011) show that
the marginal law of each chain after ``m`` global events is a binomial
mixture of the single-chain transient laws (Theorem 1), which collapses
to the *slowed-down* matrix power

    P{X^(h)_m = j} = [ alpha ( T/n + (1 - 1/n) I )^m ]_j     (Theorem 2)

so the expected fraction of chains inside a subset ``B`` after ``m``
events is ``alpha (T/n + (1-1/n) I)^m  1_B``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.markov.linalg import MarkovNumericsError, as_square_array


def slowdown_matrix(transition: np.ndarray, n_chains: int) -> np.ndarray:
    """The lazy matrix ``A_n = T/n + (1 - 1/n) I`` of Theorem 2.

    ``transition`` may be the full stochastic matrix or the
    (sub-stochastic) transient block; Theorem 2 applies verbatim to both
    because the closed classes only receive probability mass.
    """
    arr = as_square_array(transition)
    if n_chains < 1:
        raise MarkovNumericsError(f"n_chains must be >= 1, got {n_chains}")
    lazy = arr / n_chains
    np.fill_diagonal(lazy, lazy.diagonal() + (1.0 - 1.0 / n_chains))
    return lazy


def competing_transient_law(
    initial: np.ndarray,
    transition: np.ndarray,
    n_chains: int,
    n_events: int,
) -> np.ndarray:
    """Marginal law of one chain after ``n_events`` global events.

    Direct evaluation of Theorem 2 via binary matrix exponentiation;
    suitable for a single time point.  For whole trajectories prefer
    :func:`competing_subset_series`, which reuses work across steps.
    """
    alpha = np.asarray(initial, dtype=float)
    lazy = slowdown_matrix(transition, n_chains)
    if alpha.shape != (lazy.shape[0],):
        raise MarkovNumericsError(
            f"initial vector has shape {alpha.shape}, expected ({lazy.shape[0]},)"
        )
    if n_events < 0:
        raise MarkovNumericsError(f"n_events must be >= 0, got {n_events}")
    return alpha @ np.linalg.matrix_power(lazy, n_events)


def _binomial_weights(n_events: int, p: float) -> np.ndarray:
    """``Binomial(n_events, p)`` pmf over ``0..n_events``, evaluated in
    log space so no binomial coefficient overflows for large
    ``n_events``."""
    if p == 1.0:
        weights = np.zeros(n_events + 1)
        weights[-1] = 1.0
        return weights
    ell = np.arange(n_events + 1)
    log_factorial = np.array([math.lgamma(i + 1) for i in ell])
    log_choose = log_factorial[-1] - log_factorial - log_factorial[::-1]
    return np.exp(
        log_choose + ell * math.log(p) + (n_events - ell) * math.log1p(-p)
    )


def competing_law_binomial_mixture(
    initial: np.ndarray,
    transition: np.ndarray,
    n_chains: int,
    n_events: int,
    tail_tol: float = 1e-12,
) -> np.ndarray:
    """Theorem 1 evaluated literally, as a binomial mixture.

    ``P{X^(h)_m = j} = sum_l C(m, l) (1/n)^l (1-1/n)^(m-l) P{X_l = j}``.

    Kept as an independent implementation used by the tests to
    cross-check :func:`competing_transient_law`; the binomial tail is
    truncated once the remaining mass falls below ``tail_tol``.
    """
    alpha = np.asarray(initial, dtype=float)
    arr = as_square_array(transition)
    weights = _binomial_weights(n_events, 1.0 / n_chains)
    # Truncate the summation where the binomial mass becomes negligible.
    significant = np.nonzero(weights > tail_tol)[0]
    upper = int(significant[-1]) if significant.size else 0
    law = np.zeros_like(alpha)
    step_law = alpha.copy()
    for ell in range(upper + 1):
        law += weights[ell] * step_law
        step_law = step_law @ arr
    # Fold the truncated tail into the last computed law so the result
    # remains (sub-)stochastic to within tail_tol.
    law += weights[upper + 1 :].sum() * step_law
    return law


def competing_subset_series(
    initial: np.ndarray,
    transition: np.ndarray,
    n_chains: int,
    n_events: int,
    indicators: dict[str, np.ndarray],
    record_every: int = 1,
) -> dict[str, np.ndarray]:
    """Expected per-chain subset occupancy along a whole trajectory.

    Iterates ``alpha_{m+1} = alpha_m A_n`` and records, every
    ``record_every`` events, ``alpha_m @ 1_B`` for each named indicator
    vector.  Returns one series per indicator plus the recorded event
    indices under the key ``"events"``.
    """
    alpha = np.asarray(initial, dtype=float).copy()
    lazy = slowdown_matrix(transition, n_chains)
    if alpha.shape != (lazy.shape[0],):
        raise MarkovNumericsError(
            f"initial vector has shape {alpha.shape}, expected ({lazy.shape[0]},)"
        )
    if record_every < 1:
        raise MarkovNumericsError(
            f"record_every must be >= 1, got {record_every}"
        )
    flags = {
        name: np.asarray(vector, dtype=float)
        for name, vector in indicators.items()
    }
    for name, vector in flags.items():
        if vector.shape != alpha.shape:
            raise MarkovNumericsError(
                f"indicator {name!r} has shape {vector.shape}, "
                f"expected {alpha.shape}"
            )
    recorded_events = [0]
    series: dict[str, list[float]] = {name: [float(alpha @ v)] for name, v in flags.items()}
    for event in range(1, n_events + 1):
        alpha = alpha @ lazy
        if event % record_every == 0 or event == n_events:
            recorded_events.append(event)
            for name, vector in flags.items():
                series[name].append(float(alpha @ vector))
    result: dict[str, np.ndarray] = {
        name: np.asarray(values) for name, values in series.items()
    }
    result["events"] = np.asarray(recorded_events)
    return result


def expected_transitions_per_chain(n_chains: int, n_events: int) -> float:
    """Mean number of local transitions a single chain makes in
    ``n_events`` global events (binomial mean ``m/n``)."""
    if n_chains < 1:
        raise MarkovNumericsError(f"n_chains must be >= 1, got {n_chains}")
    return n_events / n_chains
