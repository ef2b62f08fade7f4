"""Absorption-time and absorption-probability results (Sections VII-B..E).

Thin, explicitly named wrappers mapping the paper's equations to the
generic machinery in :mod:`repro.markov`:

* Relation (5): ``E(T_S) = v (I - R)^{-1} 1``,
* Relation (6): ``E(T_P) = w (I - Q)^{-1} 1``,
* Relation (9): absorption probabilities into ``A_S^m``, ``A_S^l``,
  ``A_P^m``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.matrix import ClusterChain
from repro.core.statespace import Category
from repro.markov.fundamental import AbsorbingAnalysis
from repro.markov.sojourn import TwoSubsetSojourn

#: Closed-class display names used across tables and benchmarks.
#: The polluted-split class only exists for laws that bypass Rule 2's
#: split prevention
#: (see :func:`~repro.core.transitions.reaches_polluted_split`).
ABSORPTION_NAMES = {
    Category.SAFE_MERGE: "safe-merge",
    Category.SAFE_SPLIT: "safe-split",
    Category.POLLUTED_MERGE: "polluted-merge",
    Category.POLLUTED_SPLIT: "polluted-split",
}


def sojourn_analysis(
    chain: ClusterChain, initial: np.ndarray
) -> TwoSubsetSojourn:
    """The paper's two-subset (S, P) censored-chain machinery.

    The system is restricted to the states reachable from the initial
    law's support first: unreachable contaminated states (present at
    ``mu = 0``) or pinned states (``d = 1``) would otherwise make the
    censored solves singular while contributing zero mass.
    """
    from repro.markov.reachability import restrict_transient_system

    n_safe = len(chain.space.safe)
    transient, alpha, _, kept = restrict_transient_system(
        chain.transient_matrix, np.asarray(initial, dtype=float)
    )
    safe_kept = kept < n_safe
    safe_idx = np.nonzero(safe_kept)[0]
    polluted_idx = np.nonzero(~safe_kept)[0]
    return TwoSubsetSojourn(
        block_ss=transient[np.ix_(safe_idx, safe_idx)],
        block_sp=transient[np.ix_(safe_idx, polluted_idx)],
        block_ps=transient[np.ix_(polluted_idx, safe_idx)],
        block_pp=transient[np.ix_(polluted_idx, polluted_idx)],
        initial_s=alpha[safe_idx],
        initial_p=alpha[polluted_idx],
    )


def expected_time_safe(chain: ClusterChain, initial: np.ndarray) -> float:
    """``E(T_S^(k))`` -- Relation (5)."""
    return sojourn_analysis(chain, initial).expected_total_time_s()


def expected_time_polluted(chain: ClusterChain, initial: np.ndarray) -> float:
    """``E(T_P^(k))`` -- Relation (6)."""
    return sojourn_analysis(chain, initial).expected_total_time_p()


def absorbing_analysis(
    chain: ClusterChain, initial: np.ndarray
) -> AbsorbingAnalysis:
    """Fundamental-matrix analysis over the transient block ``T``.

    Restricted to the states reachable from ``initial`` (see
    :func:`sojourn_analysis` for why).
    """
    from repro.markov.reachability import restrict_transient_system

    raw_blocks = [
        chain.absorbing_block(category)
        for category in chain.closed_categories
    ]
    transient, alpha, sliced_blocks, _ = restrict_transient_system(
        chain.transient_matrix,
        np.asarray(initial, dtype=float),
        extra_blocks=raw_blocks,
    )
    named = tuple(
        (ABSORPTION_NAMES[category], block)
        for category, block in zip(chain.closed_categories, sliced_blocks)
    )
    return AbsorbingAnalysis(
        transient_block=transient,
        absorbing_blocks=named,
        initial=alpha,
    )


def absorption_probabilities(
    chain: ClusterChain, initial: np.ndarray
) -> dict[str, float]:
    """``p(A_S^m)``, ``p(A_S^l)``, ``p(A_P^m)`` -- Relation (9)."""
    return absorbing_analysis(chain, initial).absorption_probabilities()


def expected_steps_to_absorption(
    chain: ClusterChain, initial: np.ndarray
) -> float:
    """Expected number of events before the cluster merges or splits
    (equals ``E(T_S) + E(T_P)``)."""
    return absorbing_analysis(chain, initial).expected_steps_to_absorption()


@dataclass(frozen=True)
class ClusterFate:
    """Complete absorption summary for one parameter/initial pair.

    ``p_polluted_split`` is zero for the paper's protocol (Rule 2 keeps
    the class unreachable) and only becomes positive for variants.
    """

    expected_time_safe: float
    expected_time_polluted: float
    p_safe_merge: float
    p_safe_split: float
    p_polluted_merge: float
    p_polluted_split: float = 0.0

    @property
    def expected_lifetime(self) -> float:
        """Total expected number of events before the cluster dissolves."""
        return self.expected_time_safe + self.expected_time_polluted

    @property
    def p_polluted_absorption(self) -> float:
        """Probability the cluster dissolves while polluted."""
        return self.p_polluted_merge + self.p_polluted_split

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view used by the analysis/reporting layer."""
        record = {
            "E(T_S)": self.expected_time_safe,
            "E(T_P)": self.expected_time_polluted,
            "p(safe-merge)": self.p_safe_merge,
            "p(safe-split)": self.p_safe_split,
            "p(polluted-merge)": self.p_polluted_merge,
        }
        if self.p_polluted_split > 0.0:
            record["p(polluted-split)"] = self.p_polluted_split
        return record


def cluster_fate(chain: ClusterChain, initial: np.ndarray) -> ClusterFate:
    """Evaluate Relations (5), (6) and (9) in one call."""
    sojourn = sojourn_analysis(chain, initial)
    probabilities = absorption_probabilities(chain, initial)
    return ClusterFate(
        expected_time_safe=sojourn.expected_total_time_s(),
        expected_time_polluted=sojourn.expected_total_time_p(),
        p_safe_merge=probabilities["safe-merge"],
        p_safe_split=probabilities["safe-split"],
        p_polluted_merge=probabilities["polluted-merge"],
        p_polluted_split=probabilities.get("polluted-split", 0.0),
    )
