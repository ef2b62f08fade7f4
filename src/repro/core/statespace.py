"""State space of the cluster Markov chain (paper Section VI).

A state is a triple ``(s, x, y)``:

* ``s`` -- current size of the spare set, ``0 <= s <= Delta``,
* ``x`` -- number of malicious peers in the core set, ``0 <= x <= C``,
* ``y`` -- number of malicious peers in the spare set, ``0 <= y <= s``.

The space partitions into

* ``S``  -- transient safe states (``0 < s < Delta``, ``x <= c``),
* ``P``  -- transient polluted states (``0 < s < Delta``, ``x > c``),
* ``A_S^m`` -- safe merge closed states (``s = 0``, ``x <= c``),
* ``A_S^l`` -- safe split closed states (``s = Delta``, ``x <= c``),
* ``A_P^m`` -- polluted merge closed states (``s = 0``, ``x > c``),
* polluted split states (``s = Delta``, ``x > c``) -- present in the full
  space ``Omega`` but unreachable under Rule 2; the paper's matrix
  partition omits them and so does ours.

For the paper's ``C = Delta = 7`` the full space has 288 states
(Figure 1) of which 248 participate in the transition matrix.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.core.parameters import ModelParameters, ParameterError


class State(NamedTuple):
    """A cluster state ``(s, x, y)``; see module docstring."""

    s: int
    x: int
    y: int


class Category(enum.Enum):
    """Partition classes of the cluster state space."""

    SAFE = "safe"
    POLLUTED = "polluted"
    SAFE_MERGE = "safe_merge"
    SAFE_SPLIT = "safe_split"
    POLLUTED_MERGE = "polluted_merge"
    POLLUTED_SPLIT = "polluted_split"

    @property
    def is_transient(self) -> bool:
        """True for the transient classes ``S`` and ``P``."""
        return self in (Category.SAFE, Category.POLLUTED)

    @property
    def is_closed(self) -> bool:
        """True for absorbing classes (including the unreachable one)."""
        return not self.is_transient


class StateSpaceError(ValueError):
    """Raised when a state does not belong to the space."""


class StateSpace:
    """Enumerated, categorized state space for given ``(C, Delta)``.

    The canonical ordering used by the transition matrix is
    ``S`` then ``P`` then ``A_S^m`` then ``A_S^l`` then ``A_P^m``
    (polluted split states excluded), each class enumerated in
    lexicographic ``(s, x, y)`` order.
    """

    def __init__(
        self, params: ModelParameters, include_polluted_split: bool = False
    ) -> None:
        self._params = params
        self._include_polluted_split = include_polluted_split
        self._by_category: dict[Category, list[State]] = {
            category: [] for category in Category
        }
        delta = params.spare_max
        for s in range(delta + 1):
            for x in range(params.core_size + 1):
                for y in range(s + 1):
                    state = State(s, x, y)
                    self._by_category[self.categorize(state)].append(state)
        self._model_states: list[State] = (
            self._by_category[Category.SAFE]
            + self._by_category[Category.POLLUTED]
            + self._by_category[Category.SAFE_MERGE]
            + self._by_category[Category.SAFE_SPLIT]
            + self._by_category[Category.POLLUTED_MERGE]
        )
        if include_polluted_split:
            # Laws without Rule 2's split prevention (e.g. the naive
            # direct-core join baseline) can reach polluted split
            # states; they then form a fourth closed class.
            self._model_states += self._by_category[Category.POLLUTED_SPLIT]
        self._index = {state: i for i, state in enumerate(self._model_states)}

    # -- membership and categorization --------------------------------------

    @property
    def params(self) -> ModelParameters:
        """The parameter record this space was built from."""
        return self._params

    def contains(self, state: State) -> bool:
        """True when ``state`` lies in the full space ``Omega``."""
        s, x, y = state
        return (
            0 <= s <= self._params.spare_max
            and 0 <= x <= self._params.core_size
            and 0 <= y <= s
        )

    def validate(self, state: State) -> State:
        """Return ``state`` or raise :class:`StateSpaceError`."""
        if not self.contains(state):
            raise StateSpaceError(
                f"state {tuple(state)} outside Omega for "
                f"C={self._params.core_size}, Delta={self._params.spare_max}"
            )
        return State(*state)

    def categorize(self, state: State) -> Category:
        """Partition class of ``state``."""
        s, x, _ = self.validate(state)
        polluted = self._params.is_polluted(x)
        if s == 0:
            return Category.POLLUTED_MERGE if polluted else Category.SAFE_MERGE
        if s == self._params.spare_max:
            return Category.POLLUTED_SPLIT if polluted else Category.SAFE_SPLIT
        return Category.POLLUTED if polluted else Category.SAFE

    def is_transient(self, state: State) -> bool:
        """True for states in ``S`` or ``P``."""
        return self.categorize(state).is_transient

    # -- enumeration ---------------------------------------------------------

    def states(self, category: Category) -> list[State]:
        """States of one partition class, in lexicographic order."""
        return list(self._by_category[category])

    @property
    def safe(self) -> list[State]:
        """Transient safe states ``S``."""
        return self.states(Category.SAFE)

    @property
    def polluted(self) -> list[State]:
        """Transient polluted states ``P``."""
        return self.states(Category.POLLUTED)

    @property
    def transient(self) -> list[State]:
        """``S`` followed by ``P`` (the matrix's transient ordering)."""
        return self.safe + self.polluted

    @property
    def safe_merge(self) -> list[State]:
        """Closed class ``A_S^m``."""
        return self.states(Category.SAFE_MERGE)

    @property
    def safe_split(self) -> list[State]:
        """Closed class ``A_S^l``."""
        return self.states(Category.SAFE_SPLIT)

    @property
    def polluted_merge(self) -> list[State]:
        """Closed class ``A_P^m``."""
        return self.states(Category.POLLUTED_MERGE)

    @property
    def polluted_split(self) -> list[State]:
        """States unreachable under Rule 2 (excluded from the matrix)."""
        return self.states(Category.POLLUTED_SPLIT)

    @property
    def model_states(self) -> list[State]:
        """All matrix states in canonical order (``Omega`` minus the
        unreachable polluted split class)."""
        return list(self._model_states)

    @property
    def full_space_size(self) -> int:
        """|Omega| including unreachable states (288 for C = Delta = 7)."""
        return sum(len(states) for states in self._by_category.values())

    @property
    def model_size(self) -> int:
        """Number of states participating in the transition matrix."""
        return len(self._model_states)

    @property
    def includes_polluted_split(self) -> bool:
        """Whether polluted split states are part of the matrix."""
        return self._include_polluted_split

    def index_of(self, state: State) -> int:
        """Canonical matrix index of a model state."""
        state = self.validate(State(*state))
        try:
            return self._index[state]
        except KeyError:
            raise StateSpaceError(
                f"state {tuple(state)} is a polluted-split state, "
                "unreachable under Rule 2 and absent from the matrix"
            ) from None

    def initial_spare_size(self) -> int:
        """The delta-distribution starting spare size ``floor(Delta/2)``."""
        return self._params.spare_max // 2

    def describe(self) -> str:
        """Summary of class sizes (mirrors the paper's Figure 1 caption)."""
        parts = [
            f"|S|={len(self.safe)}",
            f"|P|={len(self.polluted)}",
            f"|A_S^m|={len(self.safe_merge)}",
            f"|A_S^l|={len(self.safe_split)}",
            f"|A_P^m|={len(self.polluted_merge)}",
            f"|unreachable|={len(self.polluted_split)}",
            f"|Omega|={self.full_space_size}",
        ]
        return " ".join(parts)


def make_state(s: int, x: int, y: int) -> State:
    """Build a :class:`State` with basic sanity checks."""
    if s < 0 or x < 0 or y < 0:
        raise ParameterError(f"state components must be >= 0, got {(s, x, y)}")
    if y > s:
        raise ParameterError(
            f"malicious spare count y={y} exceeds spare size s={s}"
        )
    return State(s, x, y)
