"""The transition tree of the cluster chain (paper Figure 2).

One weighted tree derives every one-step law of the chain.  It is read
with three knobs left free:

* a :class:`~repro.core.policies.CountAdversaryPolicy` -- the four
  adversary switches, branch for branch mirroring the scalar
  member-list oracle
  (:class:`~repro.simulation.cluster_sim.ClusterSimulator`); the
  default :data:`~repro.core.policies.STRONG_POLICY` is the paper's
  adversary (Rules 1 and 2, biased maintenance);
* a :class:`JoinPolicy` -- where a joiner lands (the paper's spare set,
  or the naive direct-core seat used as an ablation baseline);
* the two root weights ``(w_join, w_leave)`` -- ``(p_join, 1 - p_join)``
  for the unconditional law, ``(1, 0)`` and ``(0, 1)`` for the law
  given the event kind, so any churn process reduces, event-indexed,
  to a mixture (i.i.d. streams) or a schedule (session streams) over
  the same tree.

Branch structure under the paper's protocol and adversary (root
probabilities ``p_j = p_l = 1/2``):

* **join event** (``p_j``), joiner malicious w.p. ``p_m = mu``:

  - safe cluster (``x <= c``): the join operation runs; the joiner
    enters the spare set.
  - polluted cluster (``x > c``), Rule 2:

    * ``s = Delta - 1``: every join is discarded (split prevention);
    * ``s < Delta - 1``: malicious joins accepted; honest joins are
      discarded when ``s > 1`` and accepted when ``s = 1`` (merge
      avoidance).

* **leave event** (``p_l``), targeting the core w.p.
  ``p_c = C / (C + s)``:

  - spare member targeted (``1 - p_c``), malicious w.p. ``p_ms = y/s``:

    * honest: leaves (natural churn);
    * malicious: leaves only if Property 1 forces it
      (w.p. ``1 - d**y``), otherwise the adversary keeps it in place.

  - core member targeted (``p_c``), malicious w.p. ``p_mc = x/C``:

    * honest core member: leaves; if the cluster is polluted the
      (colluding) quorum biases the replacement -- a malicious spare if
      any, else an honest spare; if safe, the randomized maintenance
      kernel ``tau(x, ., .)`` runs;
    * malicious core member, identifiers surviving (w.p. ``d**x``): a
      *voluntary* leave happens only when the cluster is safe, no merge
      would result (``s > 1``) and Rule 1 fires, in which case
      maintenance ``tau(x-1, ., .)`` runs; otherwise nothing changes;
    * malicious core member forced out (w.p. ``1 - d**x``): if the
      remainder still holds the quorum (``x - 1 > c``) the adversary
      biases the replacement, else maintenance ``tau(x-1, ., .)`` runs.

The weights are threaded down the tree rather than mixing two
conditional laws afterwards, so the paper's rows come out of the very
float operations the literal Figure-2 reading performs.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.distributions import maintenance_kernel
from repro.core.parameters import ModelParameters
from repro.core.policies import STRONG_POLICY, CountAdversaryPolicy
from repro.core.rules import property1_survival, rule1_triggers
from repro.core.statespace import Category, State, StateSpace, StateSpaceError


class JoinPolicy(enum.Enum):
    """Placement policy for joining peers.

    The paper's ``join`` lands every new peer in the *spare* set, so
    joiners get no operational power (Section IV).  ``DIRECT_CORE`` is
    the naive baseline: a joiner takes a uniformly random seat among the
    ``C + s + 1`` positions, displacing a uniformly chosen core member
    to the spare set with probability ``C / (C + s + 1)``.  Rule 2 still
    filters honest joins, but no split is prevented, so polluted splits
    become reachable.  At extreme ``mu`` this can show *less* polluted
    time than the paper's protocol -- polluted clusters exit by
    splitting, spreading the capture -- while ``p(polluted absorption)``
    dominates everywhere.
    """

    SPARE_FIRST = "spare-first"
    DIRECT_CORE = "direct-core"


#: Event-kind selectors of the one-step law.
KIND_JOIN = "join"
KIND_LEAVE = "leave"
KIND_MIXED = "mixed"


def _add_join(
    law: dict[State, float],
    state: State,
    params: ModelParameters,
    policy: CountAdversaryPolicy,
    join: JoinPolicy,
    weight: float,
) -> None:
    """Join sub-tree (left half of Figure 2), total mass ``weight``."""
    if weight == 0.0:
        return
    if join is JoinPolicy.DIRECT_CORE:
        _add_direct_core_join(law, state, params, policy, weight)
        return
    s, x, y = state
    p_malicious = params.mu
    if params.is_polluted(x) and policy.rule2:
        # Rule 2 filtering by the colluding quorum.
        if s == params.spare_max - 1:
            # Split prevention: all joins (malicious included) discarded.
            law[state] += weight
            return
        law[State(s + 1, x, y + 1)] += weight * p_malicious
        if s > 1:
            # Honest joiner acknowledged but silently dropped.
            law[state] += weight * (1.0 - p_malicious)
        else:
            # s == 1: merge avoidance, the honest joiner is admitted.
            law[State(s + 1, x, y)] += weight * (1.0 - p_malicious)
        return
    # No filtering: the join operation always runs.
    law[State(s + 1, x, y + 1)] += weight * p_malicious
    law[State(s + 1, x, y)] += weight * (1.0 - p_malicious)


def _add_direct_core_join(
    law: dict[State, float],
    state: State,
    params: ModelParameters,
    policy: CountAdversaryPolicy,
    weight: float,
) -> None:
    """Join sub-tree of :data:`JoinPolicy.DIRECT_CORE`.

    A polluted quorum playing Rule 2 still drops honest joins while
    ``s > 1``, but no split is prevented: a polluted split duplicates
    the captured region.
    """
    s, x, y = state
    p_malicious = params.mu
    if params.is_polluted(x) and policy.rule2 and s > 1:
        # Rule 2's join filtering survives; the honest join is dropped.
        law[state] += weight * (1.0 - p_malicious)
        honest_weight = 0.0
    else:
        honest_weight = weight * (1.0 - p_malicious)
    malicious_weight = weight * p_malicious
    core_seat = params.core_size / (params.core_size + s + 1)
    p_displaced_malicious = x / params.core_size

    def seat(weight: float, joiner_malicious: bool) -> None:
        if weight == 0.0:
            return
        spare_seat_weight = weight * (1.0 - core_seat)
        law[
            State(s + 1, x, y + 1 if joiner_malicious else y)
        ] += spare_seat_weight
        core_seat_weight = weight * core_seat
        if core_seat_weight == 0.0:
            return
        delta_x = 1 if joiner_malicious else 0
        # Displaced core member moves to the spare set.
        law[
            State(s + 1, x + delta_x - 1, y + 1)
        ] += core_seat_weight * p_displaced_malicious
        law[
            State(s + 1, x + delta_x, y)
        ] += core_seat_weight * (1.0 - p_displaced_malicious)

    seat(malicious_weight, joiner_malicious=True)
    seat(honest_weight, joiner_malicious=False)


def _add_leave(
    law: dict[State, float],
    state: State,
    params: ModelParameters,
    policy: CountAdversaryPolicy,
    weight: float,
) -> None:
    """Leave sub-tree (right half of Figure 2), total mass ``weight``."""
    if weight == 0.0:
        return
    p_core = params.p_core(state.s)
    _add_spare_leave(law, state, params, policy, weight * (1.0 - p_core))
    _add_core_leave(law, state, params, policy, weight * p_core)


def _add_spare_leave(
    law: dict[State, float],
    state: State,
    params: ModelParameters,
    policy: CountAdversaryPolicy,
    weight: float,
) -> None:
    """Leave event targeting a spare member."""
    if weight == 0.0:
        return
    s, x, y = state
    p_malicious_spare = y / s
    honest_weight = weight * (1.0 - p_malicious_spare)
    if honest_weight > 0.0:
        # Honest spares leave with the natural churn.
        law[State(s - 1, x, y)] += honest_weight
    malicious_weight = weight * p_malicious_spare
    if malicious_weight == 0.0:
        return
    if policy.suppress_leaves:
        # The adversary keeps its spares in place while ids are valid.
        survive = property1_survival(y, params)
        law[state] += malicious_weight * survive
        law[State(s - 1, x, y - 1)] += malicious_weight * (1.0 - survive)
    else:
        # A protocol-following malicious spare churns like anyone.
        law[State(s - 1, x, y - 1)] += malicious_weight


def _add_core_leave(
    law: dict[State, float],
    state: State,
    params: ModelParameters,
    policy: CountAdversaryPolicy,
    weight: float,
) -> None:
    """Leave event targeting a core member."""
    if weight == 0.0:
        return
    s, x, y = state
    p_malicious_core = x / params.core_size
    honest_weight = weight * (1.0 - p_malicious_core)
    if honest_weight > 0.0:
        # Honest core member departs with the natural churn.
        _add_departed_core(
            law, state, params, policy,
            malicious_core_after=x, weight=honest_weight,
        )
    malicious_weight = weight * p_malicious_core
    if malicious_weight == 0.0:
        return
    if policy.suppress_leaves:
        survive = property1_survival(x, params)
        stay_weight = malicious_weight * survive
        if stay_weight > 0.0:
            _add_voluntary_core_leave(law, state, params, policy, stay_weight)
        forced_weight = malicious_weight * (1.0 - survive)
    else:
        forced_weight = malicious_weight
    if forced_weight > 0.0:
        _add_departed_core(
            law, state, params, policy,
            malicious_core_after=x - 1, weight=forced_weight,
        )


def _add_departed_core(
    law: dict[State, float],
    state: State,
    params: ModelParameters,
    policy: CountAdversaryPolicy,
    malicious_core_after: int,
    weight: float,
) -> None:
    """Repair after a core departure: biased promotion while the quorum
    holds (if the policy plays it), randomized maintenance otherwise."""
    s, _, y = state
    if (
        malicious_core_after > params.pollution_quorum
        and policy.biased_replacement
    ):
        if y > 0:
            law[State(s - 1, malicious_core_after + 1, y - 1)] += weight
        else:
            law[State(s - 1, malicious_core_after, y)] += weight
        return
    _add_maintenance(
        law, state, params,
        malicious_core_after=malicious_core_after, weight=weight,
    )


def _add_voluntary_core_leave(
    law: dict[State, float],
    state: State,
    params: ModelParameters,
    policy: CountAdversaryPolicy,
    weight: float,
) -> None:
    """No identifier expired: the adversary leaves only under Rule 1.

    A won quorum is never given up, and no leave may merge the cluster
    (``s > 1``).
    """
    s, x, y = state
    if params.is_polluted(x) or s <= 1 or policy.rule1 == "never":
        law[state] += weight
        return
    if policy.rule1 == "gated":
        if not rule1_triggers(state, params):
            law[state] += weight
            return
    elif y == 0:
        # "always" still needs a malicious spare to promote.
        law[state] += weight
        return
    _add_maintenance(
        law, state, params, malicious_core_after=x - 1, weight=weight
    )


def _add_maintenance(
    law: dict[State, float],
    state: State,
    params: ModelParameters,
    malicious_core_after: int,
    weight: float,
) -> None:
    """Randomized core maintenance after a core departure.

    ``malicious_core_after`` is the malicious count among the remaining
    ``C - 1`` core members (``x`` for an honest departure, ``x - 1`` for
    a malicious one).  The new state is
    ``(s - 1, malicious_core_after - a + b, y + a - b)``.
    """
    for target, probability in _maintenance_targets(
        state.s, malicious_core_after, state.y, params.core_size, params.k
    ):
        law[target] += weight * probability


@lru_cache(maxsize=None)
def _maintenance_targets(
    s: int, malicious_core_after: int, y: int, core_size: int, k: int
) -> tuple[tuple[State, float], ...]:
    """Post-maintenance states and their probabilities.

    The hypergeometric double sum dominates the tree walk; memoizing it
    apart from the branch weights lets every law (mixed at any
    ``p_join``, join, leave) reuse it.
    """
    return tuple(
        (State(s - 1, malicious_core_after - a + b, y + a - b), probability)
        for a, b, probability in maintenance_kernel(
            malicious_core_after=malicious_core_after,
            malicious_spare=y,
            spare_size=s,
            core_size=core_size,
            k=k,
        )
    )


@lru_cache(maxsize=None)
def _law_items(
    state: State,
    params: ModelParameters,
    policy: CountAdversaryPolicy,
    join: JoinPolicy,
    join_weight: float,
    leave_weight: float,
) -> tuple[tuple[State, float], ...]:
    """Memoized one-step law of a transient state, as hashable items.

    Deriving the tree walks the maintenance kernel's hypergeometric
    double sum for every maintenance edge, which dominates row
    assembly; the memo shares it between the per-state view
    (:func:`transition_distribution`) and the row tables
    (:func:`transition_rows`).
    """
    if not 0 < state.s < params.spare_max:
        raise StateSpaceError(
            "transitions are defined on transient states only, "
            f"got s={state.s}"
        )
    law: dict[State, float] = defaultdict(float)
    _add_join(law, state, params, policy, join, join_weight)
    _add_leave(law, state, params, policy, leave_weight)
    return tuple((target, p) for target, p in law.items() if p > 0.0)


def _law_key(
    params: ModelParameters,
    policy: CountAdversaryPolicy | None,
    kind: str,
    p_join: float | None,
    join: JoinPolicy,
) -> tuple:
    """Normalized ``(params, policy, kind, p_join, join)`` selector.

    ``policy=None`` is the strong adversary; a mixed law's ``p_join``
    defaults to ``params.p_join``.  The kind-conditional laws carry no
    join mix, so passing one with them is an error rather than a
    silently ignored argument.
    """
    policy = STRONG_POLICY if policy is None else policy
    if kind == KIND_MIXED:
        p_join = params.p_join if p_join is None else float(p_join)
        if not 0.0 <= p_join <= 1.0:
            raise ValueError(f"p_join must be in [0, 1], got {p_join}")
    elif kind in (KIND_JOIN, KIND_LEAVE):
        if p_join is not None:
            raise ValueError(
                f"p_join applies to the mixed law only, not kind={kind!r}"
            )
    else:
        raise ValueError(f"kind must be join/leave/mixed, got {kind!r}")
    return (params, policy, kind, p_join, join)


def _branch_weights(kind: str, p_join: float | None) -> tuple[float, float]:
    """Root weights ``(w_join, w_leave)`` of a normalized selector."""
    if kind == KIND_JOIN:
        return 1.0, 0.0
    if kind == KIND_LEAVE:
        return 0.0, 1.0
    return p_join, 1.0 - p_join


def transition_distribution(
    state: State,
    params: ModelParameters,
    *,
    policy: CountAdversaryPolicy | None = None,
    kind: str = KIND_MIXED,
    p_join: float | None = None,
    join: JoinPolicy = JoinPolicy.SPARE_FIRST,
) -> dict[State, float]:
    """One-step law of the chain from a transient state.

    ``kind`` selects the unconditional law (:data:`KIND_MIXED`, a join
    with probability ``p_join``) or the law given the event kind
    (:data:`KIND_JOIN` / :data:`KIND_LEAVE`); the selector arguments
    are those of :func:`transition_rows`.

    Raises :class:`StateSpaceError` when called on a closed state
    (``s = 0`` or ``s = Delta``): closed states are absorbing by
    definition and carry identity rows in the matrix.  The derivation
    is memoized; the returned dict is a fresh copy, safe to mutate.
    """
    params, policy, kind, p_join, join = _law_key(
        params, policy, kind, p_join, join
    )
    return dict(
        _law_items(
            State(*state), params, policy, join,
            *_branch_weights(kind, p_join),
        )
    )


def reaches_polluted_split(
    policy: CountAdversaryPolicy, join: JoinPolicy
) -> bool:
    """Whether the law can enter the polluted-split closed class.

    Under Rule 2 a spare-first cluster never splits while polluted;
    dropping Rule 2 or seating joiners directly in the core lifts that
    prevention.
    """
    return not policy.rule2 or join is JoinPolicy.DIRECT_CORE


# -- precomputed transition rows (shared by matrix assembly and the
# -- vectorized batch Monte-Carlo engine) ----------------------------------

#: Integer codes of the partition classes, in canonical matrix order.
#: Transient classes come first so ``code <= CODE_POLLUTED`` tests
#: transience and ``code >= CODE_SAFE_MERGE`` tests absorption.
CATEGORY_CODES: dict[Category, int] = {
    Category.SAFE: 0,
    Category.POLLUTED: 1,
    Category.SAFE_MERGE: 2,
    Category.SAFE_SPLIT: 3,
    Category.POLLUTED_MERGE: 4,
    Category.POLLUTED_SPLIT: 5,
}

CODE_SAFE = CATEGORY_CODES[Category.SAFE]
CODE_POLLUTED = CATEGORY_CODES[Category.POLLUTED]
CODE_SAFE_MERGE = CATEGORY_CODES[Category.SAFE_MERGE]
CODE_SAFE_SPLIT = CATEGORY_CODES[Category.SAFE_SPLIT]
CODE_POLLUTED_MERGE = CATEGORY_CODES[Category.POLLUTED_MERGE]
CODE_POLLUTED_SPLIT = CATEGORY_CODES[Category.POLLUTED_SPLIT]


@dataclass(frozen=True)
class TransitionRows:
    """Dense, padded one-step law of the whole chain for one selector.

    Row ``i`` describes model state ``i`` of ``space``, the canonical
    :class:`~repro.core.statespace.StateSpace` ordering.  Each row lists
    its (few) reachable targets left-aligned:

    * ``targets[i, j]`` -- model index of the ``j``-th target; padding
      columns repeat the last real target,
    * ``probs[i, j]`` -- its probability; padding columns hold 0,
    * ``cum_probs[i, j]`` -- running sum along the row, so sampling a
      transition is an inverse-CDF lookup: the drawn column is the first
      ``j`` with ``cum_probs[i, j] > u``.

    Closed states carry probability-one self loops, which lets a batch
    stepper advance a mixed live/absorbed index array uniformly.
    ``category_codes`` maps every model state to its
    :data:`CATEGORY_CODES` entry and ``state_index`` is a dense
    ``(Delta+1, C+1, Delta+1)`` lookup from ``(s, x, y)`` to the model
    index (``-1`` for tuples outside the matrix).  All arrays are
    read-only; they are shared across every consumer of the cache.
    """

    params: ModelParameters
    space: StateSpace
    targets: np.ndarray
    probs: np.ndarray
    cum_probs: np.ndarray
    category_codes: np.ndarray
    state_index: np.ndarray
    #: Count-level policy the rows were derived for.
    policy: CountAdversaryPolicy
    #: Event-kind conditioning: ``"mixed"``, ``"join"`` or ``"leave"``.
    kind: str
    #: Join probability of a mixed law (``None`` for the kind laws).
    p_join_mix: float | None
    #: Placement of joining peers.
    join: JoinPolicy

    @property
    def n_states(self) -> int:
        """Number of model states (matrix rows)."""
        return self.targets.shape[0]

    @property
    def width(self) -> int:
        """Padded row width (maximal number of distinct targets)."""
        return self.targets.shape[1]

    @property
    def key(self) -> tuple:
        """The normalized selector the rows were built for."""
        return (self.params, self.policy, self.kind, self.p_join_mix, self.join)

    def index_of(self, state: State) -> int:
        """Model index of ``state``; raises on non-model states."""
        s, x, y = State(*state)
        lookup = self.state_index
        if not (
            0 <= s < lookup.shape[0]
            and 0 <= x < lookup.shape[1]
            and 0 <= y < lookup.shape[2]
        ):
            raise StateSpaceError(
                f"state {(s, x, y)} outside Omega for {self.params.describe()}"
            )
        index = int(lookup[s, x, y])
        if index < 0:
            raise StateSpaceError(
                f"state {(s, x, y)} is not part of the transition matrix"
            )
        return index

    def dense_matrix(self) -> np.ndarray:
        """Fresh dense stochastic matrix over the canonical ordering."""
        n, width = self.targets.shape
        matrix = np.zeros((n, n))
        rows = np.repeat(np.arange(n), width)
        np.add.at(matrix, (rows, self.targets.ravel()), self.probs.ravel())
        return matrix


_ROW_CACHE: dict[tuple, TransitionRows] = {}


def transition_rows(
    params: ModelParameters,
    *,
    policy: CountAdversaryPolicy | None = None,
    kind: str = KIND_MIXED,
    p_join: float | None = None,
    join: JoinPolicy = JoinPolicy.SPARE_FIRST,
) -> TransitionRows:
    """Memoized :class:`TransitionRows` of one law.

    The selector picks the adversary ``policy`` (``None`` = the paper's
    strong adversary), the event-kind conditioning (:data:`KIND_MIXED`,
    :data:`KIND_JOIN`, :data:`KIND_LEAVE`), the join probability of the
    mixed law (``None`` = ``params.p_join``; an error with the kind
    laws) and the ``join`` placement.  With the defaults these are the
    paper's exact rows.  Chain assembly
    (:class:`~repro.core.matrix.ClusterChain`) scatters them into its
    dense matrix and the batch Monte-Carlo engine samples them directly,
    so the tree is derived once per law across the whole process.

    The polluted-split closed class is enumerated exactly when the law
    can reach it (:func:`reaches_polluted_split`); its states come last,
    so every other state keeps its index, and the join, leave and mixed
    rows of one ``(policy, join)`` pair share one indexing.
    """
    key = _law_key(params, policy, kind, p_join, join)
    cached = _ROW_CACHE.get(key)
    if cached is not None:
        return cached
    params, policy, kind, p_join, join = key
    weights = _branch_weights(kind, p_join)
    space = StateSpace(
        params, include_polluted_split=reaches_polluted_split(policy, join)
    )
    states = space.model_states
    n_transient = len(space.transient)
    per_row: list[list[tuple[int, float]]] = []
    for i, state in enumerate(states):
        if i < n_transient:
            items = sorted(
                (space.index_of(target), p)
                for target, p in _law_items(
                    state, params, policy, join, *weights
                )
            )
        else:
            items = [(i, 1.0)]
        per_row.append(items)
    width = max(len(items) for items in per_row)
    n = len(per_row)
    targets = np.empty((n, width), dtype=np.intp)
    probs = np.zeros((n, width))
    for i, items in enumerate(per_row):
        count = len(items)
        targets[i, :count] = [index for index, _ in items]
        targets[i, count:] = items[-1][0]
        probs[i, :count] = [p for _, p in items]
    cum_probs = probs.cumsum(axis=1)
    # Guarantee the final column covers every uniform draw in [0, 1)
    # despite float summation drift (the padding keeps monotonicity).
    cum_probs[:, -1] = np.maximum(cum_probs[:, -1], 1.0)
    category_codes = np.array(
        [CATEGORY_CODES[space.categorize(state)] for state in states],
        dtype=np.int8,
    )
    delta = params.spare_max
    state_index = np.full(
        (delta + 1, params.core_size + 1, delta + 1), -1, dtype=np.intp
    )
    for i, (s, x, y) in enumerate(states):
        state_index[s, x, y] = i
    for array in (targets, probs, cum_probs, category_codes, state_index):
        array.setflags(write=False)
    rows = TransitionRows(
        params=params,
        space=space,
        targets=targets,
        probs=probs,
        cum_probs=cum_probs,
        category_codes=category_codes,
        state_index=state_index,
        policy=policy,
        kind=kind,
        p_join_mix=p_join,
        join=join,
    )
    _ROW_CACHE[key] = rows
    return rows
