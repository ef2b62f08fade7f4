"""Policy-conditional transition laws: derivation vs the scalar oracle.

Three layers of cross-checks pin the policy-aware rows (exact digests
live in ``test_transition_pins.py``):

* algebraic -- every kind-conditional pair must mix back into the
  unconditional law;
* stochastic -- the policy laws must be probability distributions over
  the model space for every registered policy and kind;
* operational -- one-event empirical frequencies of the scalar
  member-list simulator must match the derived law, policy by policy
  (the transition derivation and the oracle share no code path beyond
  the maintenance kernel, so agreement here is a real equivalence).
"""

import numpy as np
import pytest

from repro.core.matrix import ClusterChain
from repro.core.parameters import ModelParameters
from repro.core.policies import (
    COUNT_POLICIES,
    GREEDY_LEAVE_POLICY,
    PASSIVE_POLICY,
    STRONG_POLICY,
    resolve_count_policy,
)
from repro.core.statespace import Category, State, StateSpace
from repro.core.transitions import (
    CODE_POLLUTED_SPLIT,
    KIND_JOIN,
    KIND_LEAVE,
    JoinPolicy,
    transition_distribution,
    transition_rows,
)
from repro.simulation.cluster_sim import ClusterSimulator

ATTACK = ModelParameters(core_size=7, spare_max=7, k=3, mu=0.25, d=0.8)

POLICIES = (STRONG_POLICY, PASSIVE_POLICY, GREEDY_LEAVE_POLICY)


class TestPolicyLawAlgebra:
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
    def test_kind_laws_are_distributions(self, policy):
        space = StateSpace(ATTACK, include_polluted_split=True)
        for state in space.transient:
            for kind in (KIND_JOIN, KIND_LEAVE):
                law = transition_distribution(
                    state, ATTACK, policy=policy, kind=kind
                )
                assert sum(law.values()) == pytest.approx(1.0, abs=1e-9)
                for target in law:
                    assert space.contains(target), (state, target)

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
    def test_kinds_mix_back_into_unconditional_law(self, policy):
        space = StateSpace(ATTACK, include_polluted_split=True)
        p = 0.37
        for state in space.transient[::5]:
            join = transition_distribution(
                state, ATTACK, policy=policy, kind=KIND_JOIN
            )
            leave = transition_distribution(
                state, ATTACK, policy=policy, kind=KIND_LEAVE
            )
            mixed = transition_distribution(
                state, ATTACK, policy=policy, p_join=p
            )
            recombined: dict = {}
            for target, probability in join.items():
                recombined[target] = (
                    recombined.get(target, 0.0) + p * probability
                )
            for target, probability in leave.items():
                recombined[target] = (
                    recombined.get(target, 0.0) + (1.0 - p) * probability
                )
            assert set(mixed) == set(recombined), state
            for target, probability in mixed.items():
                assert probability == pytest.approx(
                    recombined[target], abs=1e-12
                )

    def test_closed_state_rejected(self):
        from repro.core.statespace import StateSpaceError

        with pytest.raises(StateSpaceError):
            transition_distribution(
                State(0, 0, 0), ATTACK, policy=STRONG_POLICY
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            transition_distribution(
                State(3, 0, 0), ATTACK, policy=STRONG_POLICY, kind="merge"
            )

    @pytest.mark.parametrize("kind", (KIND_JOIN, KIND_LEAVE))
    def test_join_mix_rejected_with_kind_law(self, kind):
        """A kind-conditional law has no join mix: passing one is an
        error, not an argument silently ignored (and cached apart)."""
        with pytest.raises(ValueError, match="p_join"):
            transition_rows(ATTACK, kind=kind, p_join=0.3)
        with pytest.raises(ValueError, match="p_join"):
            transition_distribution(
                State(3, 0, 0), ATTACK, kind=kind, p_join=0.3
            )

    def test_default_selectors_share_one_row_table(self):
        rows = transition_rows(ATTACK)
        assert transition_rows(ATTACK, policy=STRONG_POLICY) is rows
        assert transition_rows(ATTACK, p_join=ATTACK.p_join) is rows
        assert rows.p_join_mix == ATTACK.p_join


class TestVariantRows:
    def test_legacy_rows_unchanged_by_default(self):
        rows = transition_rows(ATTACK)
        assert rows.policy is STRONG_POLICY
        assert rows.n_states == StateSpace(ATTACK).model_size

    def test_variant_rows_include_polluted_split(self):
        rows = transition_rows(ATTACK, policy=PASSIVE_POLICY)
        space = StateSpace(ATTACK, include_polluted_split=True)
        assert rows.n_states == space.model_size
        assert CODE_POLLUTED_SPLIT in set(
            rows.category_codes.tolist()
        )

    def test_variant_rows_are_row_stochastic(self):
        for policy in POLICIES:
            rows = transition_rows(ATTACK, policy=policy)
            sums = rows.probs.sum(axis=1)
            assert np.allclose(sums, 1.0, atol=1e-9), policy.name

    def test_variant_rows_cached_per_key(self):
        first = transition_rows(ATTACK, policy=PASSIVE_POLICY)
        second = transition_rows(ATTACK, policy=PASSIVE_POLICY)
        assert first is second
        assert first is not transition_rows(ATTACK)

    @pytest.mark.parametrize("join", JoinPolicy, ids=lambda j: j.value)
    @pytest.mark.parametrize("name", COUNT_POLICIES)
    def test_polluted_split_listed_iff_reached(self, name, join):
        """The rows enumerate the polluted-split class exactly when some
        transient state's law puts mass on it."""
        policy = COUNT_POLICIES[name]
        space = StateSpace(ATTACK, include_polluted_split=True)
        reached = any(
            space.categorize(target) is Category.POLLUTED_SPLIT
            for state in space.transient
            for target in transition_distribution(
                state, ATTACK, policy=policy, join=join
            )
        )
        rows = transition_rows(ATTACK, policy=policy, join=join)
        listed = CODE_POLLUTED_SPLIT in rows.category_codes
        assert listed == reached
        assert rows.space.includes_polluted_split == listed

    def test_polluted_split_reachable_without_rule2(self):
        """A polluted cluster at s = Delta - 1 accepts joins when the
        policy drops Rule 2, so the polluted-split class carries mass."""
        state = State(ATTACK.spare_max - 1, 6, 2)
        law = transition_distribution(state, ATTACK, policy=PASSIVE_POLICY)
        split_mass = sum(
            probability
            for target, probability in law.items()
            if target.s == ATTACK.spare_max
        )
        assert split_mass > 0.0
        strong_law = transition_distribution(
            state, ATTACK, policy=STRONG_POLICY
        )
        assert all(
            target.s < ATTACK.spare_max for target in strong_law
        )


class TestPolicyChains:
    @pytest.mark.parametrize(
        "policy", (PASSIVE_POLICY, GREEDY_LEAVE_POLICY), ids=lambda p: p.name
    )
    def test_variant_chain_is_stochastic(self, policy):
        chain = ClusterChain(ATTACK, policy=policy)
        assert np.allclose(chain.matrix.sum(axis=1), 1.0, atol=1e-9)


class TestResolver:
    def test_resolves_names_and_none(self):
        assert resolve_count_policy(None) is STRONG_POLICY
        assert resolve_count_policy("passive") is PASSIVE_POLICY
        assert resolve_count_policy(PASSIVE_POLICY) is PASSIVE_POLICY

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown count-level"):
            resolve_count_policy("martian")


class TestOperationalEquivalence:
    """Scalar one-event frequencies must match the derived kind laws."""

    TRIALS = 4000

    def _members(self, state: State):
        core = [True] * state.x + [False] * (
            ATTACK.core_size - state.x
        )
        spare = [True] * state.y + [False] * (state.s - state.y)
        return core, spare

    @pytest.mark.parametrize(
        "policy", COUNT_POLICIES.values(), ids=lambda p: p.name
    )
    @pytest.mark.parametrize(
        "state", [State(3, 2, 1), State(6, 6, 3)], ids=str
    )
    def test_one_event_frequencies(self, policy, state):
        simulator = ClusterSimulator(
            ATTACK, np.random.default_rng(99), adversary=policy
        )
        for kind, handler in (
            (KIND_JOIN, simulator._join_event),
            (KIND_LEAVE, simulator._leave_event),
        ):
            law = transition_distribution(
                state, ATTACK, policy=policy, kind=kind
            )
            observed: dict = {}
            for _ in range(self.TRIALS):
                core, spare = self._members(state)
                handler(core, spare)
                landed = State(len(spare), sum(core), sum(spare))
                observed[landed] = observed.get(landed, 0) + 1
            assert set(observed) <= set(law), (
                policy.name,
                kind,
                set(observed) - set(law),
            )
            for target, probability in law.items():
                frequency = observed.get(target, 0) / self.TRIALS
                assert frequency == pytest.approx(
                    probability, abs=0.035
                ), (policy.name, kind, target)
