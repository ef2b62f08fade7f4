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
    :func:`competing_subset_series`, which builds ``A_n^record_every``
    once and takes one stride per recorded point.
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

    Records ``alpha_m @ 1_B`` for each named indicator vector at every
    multiple of ``record_every`` and at ``n_events``.  Between records
    the law takes one stride ``alpha <- alpha A_n^record_every`` (the
    stride matrix is built once, plus one shorter power for a final
    partial stride), so the cost grows with the number of recorded
    points rather than with ``n_events``.  Returns one series per
    indicator plus the recorded event indices under the key
    ``"events"``.
    """
    alpha = np.asarray(initial, dtype=float)
    lazy = slowdown_matrix(transition, n_chains)
    if alpha.shape != (lazy.shape[0],):
        raise MarkovNumericsError(
            f"initial vector has shape {alpha.shape}, expected ({lazy.shape[0]},)"
        )
    if n_events < 0:
        raise MarkovNumericsError(f"n_events must be >= 0, got {n_events}")
    if record_every < 1:
        raise MarkovNumericsError(
            f"record_every must be >= 1, got {record_every}"
        )
    names = list(indicators)
    # One row per indicator, so each recorded point projects the law
    # onto every subset with a single product.
    flags = np.zeros((len(names), alpha.size))
    for row, name in enumerate(names):
        vector = np.asarray(indicators[name], dtype=float)
        if vector.shape != alpha.shape:
            raise MarkovNumericsError(
                f"indicator {name!r} has shape {vector.shape}, "
                f"expected {alpha.shape}"
            )
        flags[row] = vector
    full, rest = divmod(n_events, record_every)
    events = list(range(0, n_events + 1, record_every))
    if rest:
        events.append(n_events)
    # Projected at each record rather than stacked: a dense series keeps
    # one law in memory, not one per recorded point.
    occupancy = np.empty((len(names), len(events)))
    occupancy[:, 0] = flags @ alpha
    stride = np.linalg.matrix_power(lazy, record_every)
    for point in range(1, full + 1):
        alpha = alpha @ stride
        occupancy[:, point] = flags @ alpha
    if rest:
        alpha = alpha @ np.linalg.matrix_power(lazy, rest)
        occupancy[:, -1] = flags @ alpha
    result = dict(zip(names, occupancy))
    result["events"] = np.asarray(events)
    return result


def expected_transitions_per_chain(n_chains: int, n_events: int) -> float:
    """Mean number of local transitions a single chain makes in
    ``n_events`` global events (binomial mean ``m/n``)."""
    if n_chains < 1:
        raise MarkovNumericsError(f"n_chains must be >= 1, got {n_chains}")
    return n_events / n_chains
