"""The paper's analytical contribution: the cluster chain and its analyses.

Public surface:

* :class:`~repro.core.parameters.ModelParameters` -- `C`, `Delta`, `k`,
  `mu`, `d`, `nu`, event mix.
* :class:`~repro.core.statespace.StateSpace` / `State` / `Category` --
  the `(s, x, y)` space and its safe/polluted/closed partition.
* :class:`~repro.core.matrix.ClusterChain` -- the assembled transition
  matrix `M` with the paper's block structure.
* :class:`~repro.core.cluster_model.ClusterModel` -- facade exposing
  Relations (5)-(9).
* :class:`~repro.core.overlay_model.OverlayModel` -- Theorems 1 and 2.
* :mod:`~repro.core.calibration` -- `d <-> t_half <-> L` conversions.
"""

from repro.core.absorption import (
    ClusterFate,
    absorption_probabilities,
    cluster_fate,
    expected_time_polluted,
    expected_time_safe,
)
from repro.core.calibration import (
    d_from_lifetime,
    half_life,
    lifetime_from_d,
)
from repro.core.cluster_model import ClusterModel
from repro.core.initial import (
    beta_distribution,
    delta_distribution,
    point_distribution,
    resolve_initial,
)
from repro.core.matrix import ClusterChain
from repro.core.overlay_model import OverlayModel, OverlaySeries
from repro.core.parameters import PAPER_BASE, ModelParameters, ParameterError
from repro.core.pollution_dynamics import (
    PollutionOnset,
    pollution_onset,
    polluted_time_pmf,
    polluted_time_survival,
    quantile_from_survival,
    safe_time_survival,
)
from repro.core.rules import (
    relation2_probability,
    rule1_triggers,
    rule2_discards_join,
)
from repro.core.sojourn import (
    SojournProfile,
    expected_sojourn_polluted,
    expected_sojourn_safe,
    sojourn_profile,
)
from repro.core.policies import (
    COUNT_POLICIES,
    GREEDY_LEAVE_POLICY,
    PASSIVE_POLICY,
    STRONG_POLICY,
    CountAdversaryPolicy,
    resolve_count_policy,
)
from repro.core.statespace import Category, State, StateSpace, make_state
from repro.core.transitions import (
    JoinPolicy,
    TransitionRows,
    transition_distribution,
    transition_rows,
)

__all__ = [
    "ModelParameters",
    "ParameterError",
    "PAPER_BASE",
    "State",
    "StateSpace",
    "Category",
    "make_state",
    "ClusterChain",
    "ClusterModel",
    "OverlayModel",
    "OverlaySeries",
    "ClusterFate",
    "SojournProfile",
    "transition_distribution",
    "CountAdversaryPolicy",
    "COUNT_POLICIES",
    "STRONG_POLICY",
    "PASSIVE_POLICY",
    "GREEDY_LEAVE_POLICY",
    "resolve_count_policy",
    "transition_rows",
    "TransitionRows",
    "relation2_probability",
    "rule1_triggers",
    "rule2_discards_join",
    "expected_time_safe",
    "expected_time_polluted",
    "expected_sojourn_safe",
    "expected_sojourn_polluted",
    "sojourn_profile",
    "absorption_probabilities",
    "cluster_fate",
    "delta_distribution",
    "beta_distribution",
    "point_distribution",
    "resolve_initial",
    "half_life",
    "lifetime_from_d",
    "d_from_lifetime",
    "PollutionOnset",
    "pollution_onset",
    "polluted_time_pmf",
    "polluted_time_survival",
    "safe_time_survival",
    "quantile_from_survival",
    "JoinPolicy",
]
