"""Assembly of the partitioned transition matrix ``M`` (Section VI).

:class:`ClusterChain` bundles the enumerated state space, the full
stochastic matrix over the canonical ordering
``S, P, A_S^m, A_S^l, A_P^m`` and accessors for every block of the
paper's partition::

        [ M_S    M_SP   M_S,Am  M_S,Al  M_S,Ap ]
    M = [ M_PS   M_P    M_P,Am  M_P,Al  M_P,Ap ]
        [ 0      0      I       0       0      ]
        [ 0      0      0       I       0      ]
        [ 0      0      0       0       I      ]

Closed classes are modeled as identity rows: once a cluster has merged
or split it logically disappears from the graph, which the chain
represents by staying in its closed state forever.  Laws without Rule
2's split prevention append the polluted-split class ``A_P^l`` last.
"""

from __future__ import annotations

import numpy as np

from repro.core.parameters import ModelParameters
from repro.core.policies import CountAdversaryPolicy
from repro.core.statespace import Category, State, StateSpace
from repro.core.transitions import JoinPolicy, transition_rows
from repro.markov.chain import MarkovChain


class ClusterChain:
    """The cluster Markov chain ``X`` for one parameter set.

    Builds the full matrix once; block views are cheap slices.  The
    heavy analytical work (fundamental matrices, censored chains) lives
    in :mod:`repro.core.absorption` and :mod:`repro.core.sojourn`.
    """

    def __init__(
        self,
        params: ModelParameters,
        *,
        policy: CountAdversaryPolicy | None = None,
        join: JoinPolicy = JoinPolicy.SPARE_FIRST,
    ) -> None:
        """Assemble the chain by scattering
        :func:`~repro.core.transitions.transition_rows`.

        The defaults are the paper's chain.  ``policy`` selects a
        count-level adversary and ``join`` the placement of joining
        peers.  The polluted-split closed class is part of the matrix
        exactly when the law can reach it.
        """
        self._params = params
        rows = transition_rows(params, policy=policy, join=join)
        self._space = rows.space
        self._matrix = rows.dense_matrix()
        self._chain: MarkovChain | None = None
        self._slices: dict[Category, slice] = {}
        start = 0
        # ``Category`` lists the classes in canonical matrix order.
        for category in Category:
            if category is Category.POLLUTED_SPLIT and not (
                self._space.includes_polluted_split
            ):
                continue
            stop = start + len(self._space.states(category))
            self._slices[category] = slice(start, stop)
            start = stop

    @property
    def closed_categories(self) -> list[Category]:
        """The absorbing classes present in this chain's matrix."""
        return [c for c in self._slices if c.is_closed]

    # -- accessors -----------------------------------------------------------

    @property
    def params(self) -> ModelParameters:
        """Parameter record the chain was built from."""
        return self._params

    @property
    def space(self) -> StateSpace:
        """The enumerated state space."""
        return self._space

    @property
    def matrix(self) -> np.ndarray:
        """Full stochastic matrix over the canonical state ordering."""
        view = self._matrix.view()
        view.flags.writeable = False
        return view

    def as_markov_chain(self) -> MarkovChain:
        """Validated :class:`~repro.markov.chain.MarkovChain` wrapper
        with ``(s, x, y)`` tuples as labels (built lazily, cached)."""
        if self._chain is None:
            self._chain = MarkovChain(
                self._matrix,
                labels=[tuple(state) for state in self._space.model_states],
            )
        return self._chain

    def block(self, rows: Category, cols: Category) -> np.ndarray:
        """Sub-matrix ``M_{rows, cols}`` of the paper's partition."""
        return self._matrix[self._slices[rows], self._slices[cols]].copy()

    @property
    def block_safe(self) -> np.ndarray:
        """``M_S``."""
        return self.block(Category.SAFE, Category.SAFE)

    @property
    def block_safe_to_polluted(self) -> np.ndarray:
        """``M_SP``."""
        return self.block(Category.SAFE, Category.POLLUTED)

    @property
    def block_polluted_to_safe(self) -> np.ndarray:
        """``M_PS``."""
        return self.block(Category.POLLUTED, Category.SAFE)

    @property
    def block_polluted(self) -> np.ndarray:
        """``M_P``."""
        return self.block(Category.POLLUTED, Category.POLLUTED)

    @property
    def transient_matrix(self) -> np.ndarray:
        """``T`` -- the transient block over ``S`` then ``P``."""
        transient = len(self._space.safe) + len(self._space.polluted)
        return self._matrix[:transient, :transient].copy()

    def absorbing_block(self, category: Category) -> np.ndarray:
        """Transient-to-closed block ``R_A`` for one closed class."""
        if category.is_transient:
            raise ValueError(f"{category} is not a closed class")
        transient = len(self._space.safe) + len(self._space.polluted)
        return self._matrix[:transient, self._slices[category]].copy()

    # -- indicators over the transient ordering -------------------------------

    def safe_indicator(self) -> np.ndarray:
        """1 on ``S``, 0 on ``P`` (transient ordering)."""
        n_safe = len(self._space.safe)
        n_polluted = len(self._space.polluted)
        flags = np.zeros(n_safe + n_polluted)
        flags[:n_safe] = 1.0
        return flags

    def polluted_indicator(self) -> np.ndarray:
        """0 on ``S``, 1 on ``P`` (transient ordering)."""
        return 1.0 - self.safe_indicator()

    def split_initial(
        self, initial: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Split a transient initial vector into ``(alpha_S, alpha_P)``."""
        alpha = np.asarray(initial, dtype=float)
        n_transient = len(self._space.safe) + len(self._space.polluted)
        if alpha.shape != (n_transient,):
            raise ValueError(
                f"initial vector has shape {alpha.shape}, expected "
                f"({n_transient},)"
            )
        n_safe = len(self._space.safe)
        return alpha[:n_safe].copy(), alpha[n_safe:].copy()

    def transient_index_of(self, state: State) -> int:
        """Index of a transient state within the ``S + P`` ordering."""
        if not self._space.is_transient(state):
            raise ValueError(f"state {tuple(state)} is not transient")
        return self._space.index_of(state)
