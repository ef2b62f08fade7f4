"""Unit tests for the statistics helpers."""

import numpy as np
import pytest
from scipy import stats

from repro.simulation.metrics import (
    SeriesAccumulator,
    mean_confidence_interval,
    relative_error,
    within_tolerance,
)
from repro.simulation.rng import (
    replication_seeds,
    root_generator,
    spawn_generators,
)


class TestConfidenceIntervals:
    def test_interval_contains_true_mean_usually(self):
        rng = np.random.default_rng(5)
        hits = 0
        for _ in range(200):
            sample = rng.normal(10.0, 2.0, size=40)
            if mean_confidence_interval(sample, 0.95).contains(10.0):
                hits += 1
        assert hits > 180  # ~95 % coverage

    def test_interval_is_symmetric(self):
        interval = mean_confidence_interval(np.array([1.0, 2.0, 3.0]))
        assert interval.mean == pytest.approx(2.0)
        assert interval.high - interval.mean == pytest.approx(
            interval.mean - interval.low
        )
        assert interval.half_width > 0

    def test_matches_scipy_stats_reference(self):
        rng = np.random.default_rng(7)
        for size in (2, 5, 40):
            sample = rng.normal(3.0, 1.5, size=size)
            for level in (0.5, 0.9, 0.95, 0.99):
                interval = mean_confidence_interval(sample, level)
                half = stats.sem(sample) * stats.t.ppf(
                    (1.0 + level) / 2.0, size - 1
                )
                assert interval.high - interval.mean == pytest.approx(
                    half, rel=1e-12
                )

    def test_constant_sample_collapses(self):
        interval = mean_confidence_interval(np.array([4.0, 4.0, 4.0]))
        assert interval.low == interval.high == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            mean_confidence_interval(np.array([1.0]))
        with pytest.raises(ValueError):
            mean_confidence_interval(np.array([1.0, 2.0]), level=1.2)


class TestTolerances:
    def test_relative_error(self):
        assert relative_error(11.0, 10.0) == pytest.approx(0.1)
        assert relative_error(0.0, 0.0) == 0.0

    def test_within_tolerance_relative(self):
        assert within_tolerance(101.0, 100.0, rel_tol=0.02)
        assert not within_tolerance(105.0, 100.0, rel_tol=0.02)

    def test_within_tolerance_absolute_floor(self):
        assert within_tolerance(0.001, 0.0, rel_tol=0.05, abs_tol=0.01)
        assert not within_tolerance(0.1, 0.0, rel_tol=0.05, abs_tol=0.01)


class TestSeriesAccumulator:
    def test_pointwise_mean(self):
        accumulator = SeriesAccumulator()
        accumulator.add(np.array([1.0, 2.0]))
        accumulator.add(np.array([3.0, 4.0]))
        assert accumulator.count == 2
        assert np.allclose(accumulator.mean(), [2.0, 3.0])

    def test_shape_mismatch_rejected(self):
        accumulator = SeriesAccumulator()
        accumulator.add(np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="shape"):
            accumulator.add(np.array([1.0, 2.0, 3.0]))

    def test_empty_mean_rejected(self):
        with pytest.raises(ValueError, match="no series"):
            SeriesAccumulator().mean()


class TestRngHelpers:
    def test_root_generator_deterministic(self):
        a = root_generator(7).random(3)
        b = root_generator(7).random(3)
        assert np.allclose(a, b)

    def test_spawned_streams_differ(self):
        streams = spawn_generators(7, 3)
        draws = [g.random() for g in streams]
        assert len(set(draws)) == 3

    def test_replication_seeds_are_stable(self):
        assert replication_seeds(7, 4) == replication_seeds(7, 4)

    def test_count_validated(self):
        with pytest.raises(ValueError):
            spawn_generators(7, 0)
        with pytest.raises(ValueError):
            replication_seeds(7, 0)
