"""Sensitivity of the resilience metrics to the design knobs.

Answers the operator's question the paper's sweeps imply but never
tabulate: *which knob buys the most resilience per unit of change?*

* continuous knobs (``mu``, ``d``): central finite-difference
  elasticities ``(x / f) df/dx`` of a chosen metric;
* discrete knobs (``core_size``, ``spare_max``, ``k``): one-step
  differences;
* a tornado summary ranking all knobs by impact on ``E(T_P)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.experiments import analysis_runner
from repro.analysis.tables import render_table
from repro.core.parameters import ModelParameters, ParameterError
from repro.scenario import ScenarioSpec

#: Metrics usable by the sensitivity machinery, each mapped to the
#: analytic metrics family that evaluates it (at ``alpha = delta``).
METRICS: dict[str, str] = {
    "E(T_P)": "times",
    "E(T_S)": "times",
    "p(polluted-merge)": "absorption",
}


@dataclass(frozen=True)
class SensitivityEntry:
    """Impact of one knob on one metric around a base point."""

    knob: str
    metric: str
    base_value: float
    low_value: float
    high_value: float
    low_setting: float
    high_setting: float

    @property
    def swing(self) -> float:
        """Total metric variation across the probed knob interval."""
        return abs(self.high_value - self.low_value)

    @property
    def elasticity(self) -> float:
        """Normalized sensitivity ``(dF / F) / (dx / x)`` (continuous
        knobs; 0 when the base metric vanishes)."""
        if self.base_value == 0.0:
            return 0.0
        dx = self.high_setting - self.low_setting
        if dx == 0.0:
            return 0.0
        midpoint = (self.high_setting + self.low_setting) / 2.0
        derivative = (self.high_value - self.low_value) / dx
        return derivative * midpoint / self.base_value


def _probe(
    knob: str,
    metric: str,
    points: tuple[ModelParameters, ModelParameters, ModelParameters],
    low_setting: float,
    high_setting: float,
) -> SensitivityEntry:
    """Evaluate ``metric`` at the (base, low, high) parameter points
    through the analysis runner."""
    specs = [
        ScenarioSpec(
            name=f"sensitivity[{knob}: {params.describe()}]",
            params=params,
            engine="analytic",
            initial="delta",
            options={"metrics": METRICS[metric]},
        )
        for params in points
    ]
    base_value, low_value, high_value = (
        result.metrics[metric] for result in analysis_runner().sweep(specs)
    )
    return SensitivityEntry(
        knob=knob,
        metric=metric,
        base_value=base_value,
        low_value=low_value,
        high_value=high_value,
        low_setting=float(low_setting),
        high_setting=float(high_setting),
    )


def continuous_sensitivity(
    base: ModelParameters,
    knob: str,
    metric: str = "E(T_P)",
    step: float = 0.02,
) -> SensitivityEntry:
    """Central-difference sensitivity for ``mu`` or ``d``."""
    if knob not in ("mu", "d"):
        raise ParameterError(f"{knob!r} is not a continuous knob")
    if metric not in METRICS:
        raise ParameterError(f"unknown metric {metric!r}")
    center = getattr(base, knob)
    low_setting = max(0.0, center - step)
    high_cap = 0.999 if knob == "d" else 1.0
    high_setting = min(high_cap, center + step)
    low_params = base.with_overrides(**{knob: low_setting})
    high_params = base.with_overrides(**{knob: high_setting})
    return _probe(
        knob, metric, (base, low_params, high_params), low_setting, high_setting
    )


def discrete_sensitivity(
    base: ModelParameters,
    knob: str,
    metric: str = "E(T_P)",
) -> SensitivityEntry:
    """One-step difference for ``core_size``, ``spare_max`` or ``k``."""
    if knob not in ("core_size", "spare_max", "k"):
        raise ParameterError(f"{knob!r} is not a discrete knob")
    if metric not in METRICS:
        raise ParameterError(f"unknown metric {metric!r}")
    center = getattr(base, knob)
    low_setting = center - 1
    high_setting = center + 1
    if knob == "k":
        low_setting = max(1, low_setting)
        high_setting = min(base.core_size, high_setting)
    if knob == "core_size":
        low_setting = max(2, low_setting)
        # Keep k valid when shrinking the core.
        low_params = base.with_overrides(
            core_size=low_setting, k=min(base.k, low_setting)
        )
    else:
        low_params = base.with_overrides(**{knob: low_setting})
    if knob == "spare_max":
        low_setting = max(2, low_setting)
        low_params = base.with_overrides(spare_max=low_setting)
    high_params = base.with_overrides(**{knob: high_setting})
    return _probe(
        knob, metric, (base, low_params, high_params), low_setting, high_setting
    )


def tornado(
    base: ModelParameters, metric: str = "E(T_P)"
) -> list[SensitivityEntry]:
    """All knobs probed around ``base``, sorted by descending swing."""
    entries = [
        continuous_sensitivity(base, "mu", metric),
        continuous_sensitivity(base, "d", metric),
        discrete_sensitivity(base, "core_size", metric),
        discrete_sensitivity(base, "spare_max", metric),
        discrete_sensitivity(base, "k", metric),
    ]
    return sorted(entries, key=lambda entry: entry.swing, reverse=True)


def render_tornado(
    entries: list[SensitivityEntry], base: ModelParameters
) -> str:
    """Tornado table around one base point."""
    rows = [
        [
            entry.knob,
            f"{entry.low_setting:g}..{entry.high_setting:g}",
            entry.low_value,
            entry.base_value,
            entry.high_value,
            entry.swing,
        ]
        for entry in entries
    ]
    return render_table(
        ["knob", "probed range", "low", "base", "high", "swing"],
        rows,
        title=(
            f"Sensitivity tornado for {entries[0].metric} around "
            f"{base.describe()}"
        ),
    )
