"""Unit tests for the sensitivity/tornado analysis."""

import pytest

from repro.analysis.experiments import base_parameters
from repro.analysis.sensitivity import (
    METRICS,
    continuous_sensitivity,
    discrete_sensitivity,
    render_tornado,
    tornado,
)
from repro.core.cluster_model import ClusterModel
from repro.core.parameters import ParameterError

BASE = base_parameters(mu=0.2, d=0.9, k=1)


class TestContinuous:
    def test_mu_raises_pollution(self):
        entry = continuous_sensitivity(BASE, "mu", "E(T_P)")
        assert entry.high_value > entry.low_value
        assert entry.elasticity > 0.0

    def test_d_raises_pollution(self):
        entry = continuous_sensitivity(BASE, "d", "E(T_P)")
        assert entry.high_value > entry.low_value

    def test_mu_lowers_safe_time(self):
        entry = continuous_sensitivity(BASE, "mu", "E(T_S)")
        assert entry.high_value < entry.low_value
        assert entry.elasticity < 0.0

    def test_values_match_closed_form(self):
        model = ClusterModel(BASE)
        expected = {
            "E(T_P)": model.expected_time_polluted("delta"),
            "E(T_S)": model.expected_time_safe("delta"),
            "p(polluted-merge)": model.absorption_probabilities("delta")[
                "polluted-merge"
            ],
        }
        for metric, value in expected.items():
            entry = continuous_sensitivity(BASE, "mu", metric)
            assert entry.base_value == value

    def test_step_clamped_at_domain_edges(self):
        at_edge = BASE.with_overrides(mu=0.0)
        entry = continuous_sensitivity(at_edge, "mu")
        assert entry.low_setting == 0.0

    def test_d_step_respects_cap(self):
        near_one = BASE.with_overrides(d=0.99)
        entry = continuous_sensitivity(near_one, "d")
        assert entry.high_setting <= 0.999

    def test_unknown_knob_rejected(self):
        with pytest.raises(ParameterError, match="continuous"):
            continuous_sensitivity(BASE, "k")

    def test_unknown_metric_rejected(self):
        with pytest.raises(ParameterError, match="metric"):
            continuous_sensitivity(BASE, "mu", "median")


class TestDiscrete:
    def test_bigger_core_helps(self):
        entry = discrete_sensitivity(BASE, "core_size", "E(T_P)")
        # C=8 keeps quorum c=2 but dilutes each malicious member's
        # selection probability: pollution should not increase.
        assert entry.high_value <= entry.base_value + 1e-9

    def test_k_probe_respects_bounds(self):
        entry = discrete_sensitivity(BASE, "k")
        assert entry.low_setting >= 1
        assert entry.high_setting <= BASE.core_size

    def test_more_randomization_hurts(self):
        entry = discrete_sensitivity(BASE, "k", "E(T_P)")
        assert entry.high_value > entry.base_value

    def test_unknown_knob_rejected(self):
        with pytest.raises(ParameterError, match="discrete"):
            discrete_sensitivity(BASE, "mu")


class TestTornado:
    @pytest.fixture(scope="class")
    def entries(self):
        return tornado(BASE)

    def test_all_knobs_present(self, entries):
        assert {entry.knob for entry in entries} == {
            "mu",
            "d",
            "core_size",
            "spare_max",
            "k",
        }

    def test_sorted_by_swing(self, entries):
        swings = [entry.swing for entry in entries]
        assert swings == sorted(swings, reverse=True)

    def test_render(self, entries):
        text = render_tornado(entries, BASE)
        assert "swing" in text
        assert "mu" in text

    def test_metrics_registry_complete(self):
        assert set(METRICS) == {"E(T_P)", "E(T_S)", "p(polluted-merge)"}
