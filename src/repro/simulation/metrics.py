"""Statistical helpers for simulation-vs-model comparisons."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval around a sample mean."""

    mean: float
    low: float
    high: float
    level: float

    def contains(self, value: float) -> bool:
        """True when ``value`` falls inside the interval."""
        return self.low <= value <= self.high

    @property
    def half_width(self) -> float:
        """Interval half-width."""
        return (self.high - self.low) / 2.0


def mean_confidence_interval(
    samples: np.ndarray, level: float = 0.95
) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of ``samples``."""
    values = np.asarray(samples, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("need a 1-D sample of size >= 2")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    # Imported here so importing the package never loads scipy.
    from scipy.special import stdtrit

    mean = float(values.mean())
    sem = float(values.std(ddof=1) / np.sqrt(values.size))
    if sem == 0.0:
        return ConfidenceInterval(mean=mean, low=mean, high=mean, level=level)
    half = sem * float(stdtrit(values.size - 1, (1.0 + level) / 2.0))
    return ConfidenceInterval(
        mean=mean, low=mean - half, high=mean + half, level=level
    )


def relative_error(measured: float, reference: float) -> float:
    """``|measured - reference| / max(|reference|, eps)``."""
    denominator = max(abs(reference), np.finfo(float).eps)
    return abs(measured - reference) / denominator


def within_tolerance(
    measured: float, reference: float, rel_tol: float, abs_tol: float = 0.0
) -> bool:
    """Combined relative/absolute tolerance check used by validation
    benchmarks (mirrors ``math.isclose`` semantics)."""
    gap = abs(measured - reference)
    return gap <= max(rel_tol * abs(reference), abs_tol)


@dataclass
class SeriesAccumulator:
    """Averages repeated runs of a recorded series point-wise."""

    _total: np.ndarray | None = None
    _count: int = 0

    def add(self, series: np.ndarray) -> None:
        """Accumulate one run (all runs must share a length)."""
        values = np.asarray(series, dtype=float)
        if self._total is None:
            self._total = values.copy()
        else:
            if values.shape != self._total.shape:
                raise ValueError(
                    f"series shape {values.shape} differs from "
                    f"{self._total.shape}"
                )
            self._total += values
        self._count += 1

    @property
    def count(self) -> int:
        """Number of accumulated runs."""
        return self._count

    def mean(self) -> np.ndarray:
        """Point-wise mean across accumulated runs."""
        if self._total is None:
            raise ValueError("no series accumulated")
        return self._total / self._count
