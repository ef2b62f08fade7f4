"""Unit tests for the assembled partitioned matrix M."""

import numpy as np
import pytest

from repro.core.matrix import ClusterChain
from repro.core.parameters import ModelParameters
from repro.core.statespace import Category, State
from repro.markov import classify


class TestAssembly:
    def test_matrix_is_stochastic(self, attack_chain):
        sums = attack_chain.matrix.sum(axis=1)
        assert np.allclose(sums, 1.0)

    def test_closed_rows_are_identity(self, attack_chain):
        space = attack_chain.space
        for state in space.safe_merge + space.safe_split + space.polluted_merge:
            row = attack_chain.matrix[space.index_of(state)]
            assert row[space.index_of(state)] == 1.0
            assert row.sum() == pytest.approx(1.0)

    def test_matrix_readonly(self, attack_chain):
        with pytest.raises(ValueError):
            attack_chain.matrix[0, 0] = 0.5

    def test_block_dimensions(self, attack_chain):
        n_safe = len(attack_chain.space.safe)
        n_polluted = len(attack_chain.space.polluted)
        assert attack_chain.block_safe.shape == (n_safe, n_safe)
        assert attack_chain.block_safe_to_polluted.shape == (n_safe, n_polluted)
        assert attack_chain.block_polluted_to_safe.shape == (n_polluted, n_safe)
        assert attack_chain.block_polluted.shape == (n_polluted, n_polluted)

    def test_transient_matrix_composition(self, attack_chain):
        transient = attack_chain.transient_matrix
        n_safe = len(attack_chain.space.safe)
        assert np.allclose(transient[:n_safe, :n_safe], attack_chain.block_safe)
        assert np.allclose(
            transient[:n_safe, n_safe:], attack_chain.block_safe_to_polluted
        )

    def test_absorbing_block_shapes(self, attack_chain):
        n_transient = len(attack_chain.space.transient)
        merge_block = attack_chain.absorbing_block(Category.SAFE_MERGE)
        assert merge_block.shape == (n_transient, 3)
        with pytest.raises(ValueError, match="closed"):
            attack_chain.absorbing_block(Category.SAFE)

    def test_no_transition_into_polluted_split(self):
        # Rule 2's split prevention, verified structurally: columns of
        # would-be polluted-split states do not exist in the matrix and
        # no transient row loses mass.
        chain = ClusterChain(ModelParameters(mu=0.5, d=0.99, k=4))
        assert np.allclose(chain.matrix.sum(axis=1), 1.0)

    def test_markov_chain_wrapper_labels(self, attack_chain):
        chain = attack_chain.as_markov_chain()
        assert chain.n_states == attack_chain.space.model_size
        assert (3, 0, 0) in chain.labels

    def test_markov_chain_wrapper_cached(self, attack_chain):
        assert attack_chain.as_markov_chain() is attack_chain.as_markov_chain()


class TestIndicatorsAndSplitting:
    def test_indicators_complementary(self, attack_chain):
        safe = attack_chain.safe_indicator()
        polluted = attack_chain.polluted_indicator()
        assert np.allclose(safe + polluted, 1.0)
        assert safe.sum() == len(attack_chain.space.safe)

    def test_split_initial_partition(self, attack_chain):
        n_transient = len(attack_chain.space.transient)
        vector = np.arange(n_transient, dtype=float)
        alpha_s, alpha_p = attack_chain.split_initial(vector)
        assert len(alpha_s) == len(attack_chain.space.safe)
        assert len(alpha_p) == len(attack_chain.space.polluted)
        assert np.allclose(np.concatenate([alpha_s, alpha_p]), vector)

    def test_split_initial_validates_shape(self, attack_chain):
        with pytest.raises(ValueError, match="shape"):
            attack_chain.split_initial(np.zeros(3))

    def test_transient_index_of(self, attack_chain):
        index = attack_chain.transient_index_of(State(3, 0, 0))
        assert attack_chain.space.transient[index] == State(3, 0, 0)
        with pytest.raises(ValueError, match="transient"):
            attack_chain.transient_index_of(State(0, 0, 0))


class TestAbsorbingStructure:
    def test_recurrent_classes_are_exactly_the_closed_states(self, attack_chain):
        states = attack_chain.space.model_states
        absorbing = classify.absorbing_states(attack_chain.matrix)
        closed = {
            tuple(state)
            for state in attack_chain.space.safe_merge
            + attack_chain.space.safe_split
            + attack_chain.space.polluted_merge
        }
        assert {tuple(states[i]) for i in absorbing} == closed

    def test_every_transient_state_reaches_absorption(self, attack_chain):
        states = attack_chain.space.model_states
        transient = {
            tuple(states[i])
            for i in classify.transient_states(attack_chain.matrix)
        }
        expected = {tuple(s) for s in attack_chain.space.transient}
        assert transient == expected
