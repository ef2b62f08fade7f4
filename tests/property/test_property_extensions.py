"""Property-based tests for the extension modules.

Covers the protocol variants, the pollution-onset laws and the
distribution-level sojourn results over randomized parameter points.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.absorption import cluster_fate, sojourn_analysis
from repro.core.initial import delta_distribution, resolve_initial
from repro.core.matrix import ClusterChain
from repro.core.parameters import ModelParameters
from repro.core.pollution_dynamics import pollution_onset
from repro.core.statespace import StateSpace
from repro.core.transitions import JoinPolicy, transition_distribution

SMALL = dict(
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
    max_examples=20,
)

parameter_strategy = st.builds(
    ModelParameters,
    core_size=st.integers(4, 8),
    spare_max=st.integers(3, 7),
    k=st.just(1),
    mu=st.floats(0.0, 0.8),
    d=st.floats(0.0, 0.95),
)


@settings(**SMALL)
@given(params=parameter_strategy)
def test_variant_rows_are_distributions(params):
    """Direct-core join rows always sum to one."""
    space = StateSpace(params, include_polluted_split=True)
    for state in space.transient:
        law = transition_distribution(
            state, params, join=JoinPolicy.DIRECT_CORE
        )
        assert abs(sum(law.values()) - 1.0) < 1e-9
        for target in law:
            space.index_of(target)  # stays inside the enlarged space


@settings(**SMALL)
@given(params=parameter_strategy)
def test_direct_core_propagates_more_pollution(params):
    """The naive join never reduces pollution *propagation*.

    Note the metric: p(polluted absorption), not E(T_P).  At extreme
    mu the naive variant can show *less* polluted time -- because it
    no longer prevents splits, polluted clusters exit quickly through
    polluted splits, spreading the capture to both halves.  Dominance
    on dissolving-while-polluted holds everywhere.
    """
    paper = ClusterChain(params, join=JoinPolicy.SPARE_FIRST)
    naive = ClusterChain(params, join=JoinPolicy.DIRECT_CORE)
    paper_fate = cluster_fate(paper, delta_distribution(paper))
    naive_fate = cluster_fate(naive, delta_distribution(naive))
    assert naive_fate.p_polluted_absorption >= (
        paper_fate.p_polluted_absorption - 1e-9
    )


@settings(**SMALL)
@given(params=parameter_strategy)
def test_pollution_onset_consistency(params):
    """Onset probability bounds the polluted-absorption probability and
    the survival function is a proper monotone tail."""
    chain = ClusterChain(params)
    initial = delta_distribution(chain)
    onset = pollution_onset(chain, initial, horizon=60)
    fate = cluster_fate(chain, initial)
    assert -1e-9 <= onset.probability_ever_polluted <= 1.0 + 1e-9
    assert onset.probability_ever_polluted >= fate.p_polluted_absorption - 1e-8
    survival = onset.survival
    assert np.all(np.diff(survival) <= 1e-12)
    assert survival[0] <= 1.0 + 1e-12


@settings(**SMALL)
@given(params=parameter_strategy, initial=st.sampled_from(["delta", "beta"]))
def test_survival_sums_match_expectations(params, initial):
    """sum_n P{T_S > n} == E(T_S) (and the polluted analogue)."""
    chain = ClusterChain(params)
    alpha = resolve_initial(chain, initial)
    analysis = sojourn_analysis(chain, alpha)
    expected_safe = analysis.expected_total_time_s()
    # The tail is geometric; cap the horizon by the magnitude involved.
    if expected_safe > 500:
        return
    survival = analysis.total_time_survival_s(6000)
    assert abs(survival.sum() - expected_safe) <= max(
        1e-6, 1e-4 * expected_safe
    )


@settings(**SMALL)
@given(params=parameter_strategy)
def test_mu_zero_onset_never_happens(params):
    clean = params.with_overrides(mu=0.0)
    chain = ClusterChain(clean)
    onset = pollution_onset(chain, delta_distribution(chain), horizon=20)
    assert onset.probability_ever_polluted <= 1e-12
