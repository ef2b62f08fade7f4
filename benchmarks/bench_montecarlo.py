"""Benchmark: Monte-Carlo validation of the closed forms.

Not a paper artifact -- the reproduction's own cross-check:
independent simulation must agree with Relations (5)-(9) at a
representative corner.  Two estimators with complementary power:

* the **scalar member-list oracle**, which re-enacts the operational
  semantics and never touches the transition matrix -- the genuinely
  independent validation of the Figure-2 derivation;
* the **vectorized batch engine**, which samples the derived rows
  directly (so it shares the tree with the closed forms) but whose
  throughput buys a 10x larger sample -- validating the batched
  sampling machinery itself.

Both must agree with the closed forms; the timed artifact is the batch
run.
"""

import numpy as np
import pytest

from repro.analysis.tables import render_table
from repro.core.cluster_model import ClusterModel
from repro.core.parameters import ModelParameters
from repro.simulation.batch import batch_monte_carlo_summary
from repro.simulation.cluster_sim import monte_carlo_summary

PARAMS = ModelParameters(core_size=7, spare_max=7, k=1, mu=0.25, d=0.8)
RUNS = 20_000
SCALAR_RUNS = 2_000


def run_simulation():
    rng = np.random.default_rng(20110627)
    return batch_monte_carlo_summary(PARAMS, rng, runs=RUNS, initial="delta")


def run_scalar_oracle():
    rng = np.random.default_rng(20110627)
    return monte_carlo_summary(
        PARAMS, rng, runs=SCALAR_RUNS, initial="delta"
    )


def test_montecarlo_agreement(benchmark, report):
    measured = benchmark.pedantic(run_simulation, rounds=1, iterations=1)
    oracle = run_scalar_oracle()
    analytic = ClusterModel(PARAMS).cluster_fate("delta")
    # The operationally independent check: member-list semantics vs
    # the closed forms.
    assert oracle.mean_time_safe == pytest.approx(
        analytic.expected_time_safe, rel=0.06
    )
    assert oracle.p_safe_merge == pytest.approx(
        analytic.p_safe_merge, abs=0.03
    )
    assert oracle.p_polluted_merge == pytest.approx(
        analytic.p_polluted_merge, abs=0.02
    )
    # The sampling-machinery check at 10x the sample size.
    assert measured.mean_time_safe == pytest.approx(
        analytic.expected_time_safe, rel=0.03
    )
    assert measured.p_safe_merge == pytest.approx(
        analytic.p_safe_merge, abs=0.02
    )
    assert measured.p_polluted_merge == pytest.approx(
        analytic.p_polluted_merge, abs=0.01
    )
    rows = []
    reference = analytic.as_dict()
    empirical = measured.as_dict()
    independent = oracle.as_dict()
    for key in reference:
        rows.append(
            [key, reference[key], independent[key], empirical[key]]
        )
    report(
        "montecarlo",
        render_table(
            [
                "quantity",
                "closed form",
                f"scalar oracle ({SCALAR_RUNS} runs)",
                f"batch engine ({RUNS} runs)",
            ],
            rows,
            title=f"Validation at {PARAMS.describe()}",
        ),
    )
