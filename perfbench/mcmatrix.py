"""Workload ``mc-matrix``: ``execute_spec`` on the ``batch`` engine over
every adversary x churn cell.

The i.i.d. half (Bernoulli and Poisson churn) runs many trajectories
in event or skip mode; the session half (exponential and Pareto
sessions) spends its time generating session plans and stepping the
scheduled-kind lanes.  The seed draws each cell's spec seed.
"""

from __future__ import annotations

import math
import time

ADVERSARIES = ("strong", "passive", "greedy-leave")
IID_CHURN = ("bernoulli", "poisson")
SESSION_CHURN = ("exponential-sessions", "pareto-sessions")

#: Trajectories per i.i.d. cell.
IID_RUNS = 200_000
#: Trajectories per session cell, and the session-stream horizon.
SESSION_RUNS = 20_000
SESSION_HORIZON = 50_000.0

#: |z| bound of a strong x i.i.d. cell against the closed form.
Z_LIMIT = 4.0


def prepare(seed: int) -> dict:
    import numpy as np

    import repro.scenario.backends  # noqa: F401 -- populate ENGINES
    from repro.core.parameters import ModelParameters
    from repro.scenario import ScenarioSpec

    params = ModelParameters(core_size=7, spare_max=7, k=1, mu=0.2, d=0.9)
    cells = [
        (adversary, churn)
        for adversary in ADVERSARIES
        for churn in IID_CHURN + SESSION_CHURN
    ]
    seeds = np.random.default_rng(seed).integers(1, 2**31 - 1, len(cells))
    specs = []
    for (adversary, churn), cell_seed in zip(cells, seeds):
        session = churn in SESSION_CHURN
        specs.append(
            ScenarioSpec(
                name=f"mc-matrix[{adversary},{churn}]",
                params=params,
                adversary=adversary,
                churn=churn,
                churn_options=(
                    (("horizon", SESSION_HORIZON),) if session else ()
                ),
                engine="batch",
                runs=SESSION_RUNS if session else IID_RUNS,
                seed=int(cell_seed),
            )
        )
    return {
        "specs": specs,
        "sizes": {
            "cells": len(specs),
            "iid_runs_per_cell": IID_RUNS,
            "session_runs_per_cell": SESSION_RUNS,
            "session_horizon": SESSION_HORIZON,
        },
    }


def run(work: dict, tracer) -> dict:
    """The timed phase: one ``execute_spec`` per cell."""
    from repro.scenario import runner

    outputs = []
    for spec in work["specs"]:
        started = time.perf_counter()
        result = runner.execute_spec(spec)
        outputs.append((spec, result, time.perf_counter() - started))
    return outputs


def check(work: dict, outputs) -> tuple[list[dict], dict]:
    """One operation per cell; returns the per-half throughputs too."""
    from repro.core.cluster_model import ClusterModel

    operations = []
    seconds = {"iid": 0.0, "session": 0.0}
    trajectories = {"iid": 0, "session": 0}
    for spec, result, elapsed in outputs:
        half = "session" if spec.churn in SESSION_CHURN else "iid"
        seconds[half] += elapsed
        trajectories[half] += spec.runs
        metrics = result.metrics
        problems = [
            f"{key} is not finite"
            for key, value in metrics.items()
            if not math.isfinite(value)
        ]
        problems += [
            f"{key}={value} outside [0, 1]"
            for key, value in metrics.items()
            if key.startswith("p(") and not 0.0 <= value <= 1.0
        ]
        if metrics.get("runs") != spec.runs:
            problems.append(f"runs={metrics.get('runs')} != {spec.runs}")
        if spec.adversary == "strong" and half == "iid":
            model = ClusterModel(spec.params)
            for metric, sem, exact in (
                ("E(T_S)", "sem(T_S)", model.expected_time_safe(spec.initial)),
                (
                    "E(T_P)",
                    "sem(T_P)",
                    model.expected_time_polluted(spec.initial),
                ),
            ):
                z = (metrics[metric] - exact) / metrics[sem]
                if not abs(z) < Z_LIMIT:
                    problems.append(
                        f"{metric}={metrics[metric]:.5g} vs closed form "
                        f"{exact:.5g}: z={z:.2f}"
                    )
        operations.append(
            {"op": spec.name, "ok": not problems, "why": problems}
        )
    extra = {
        "iid_trajectories_per_s": trajectories["iid"] / seconds["iid"],
        "session_trajectories_per_s": (
            trajectories["session"] / seconds["session"]
        ),
    }
    return operations, extra
