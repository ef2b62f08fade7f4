"""The in-process layers of the program, as traced spans.

:func:`install` wraps each layer's public entry points with a
:class:`~tracer.Tracer`; :func:`layer_metrics` turns the recorded spans
(plus the batch engine's own phase counters, read through the
``repro.obs.metrics`` registry) into the per-layer metrics the
benchmark reports.
"""

from __future__ import annotations

from tracer import Tracer

#: Batch-engine phases timed by the program itself
#: (``repro_batch_phase_{seconds,calls}_total``), by metric prefix.
BATCH_PHASES = {
    "batch.row_assembly": "row-assembly",
    "batch.skip_sampling": "skip-sampling",
    "batch.dispatch": "dispatch",
}


def _trajectory_kind(*args, **kwargs) -> str:
    if kwargs.get("kind_schedule") is not None:
        return "batch.trajectories_session"
    return "batch.trajectories_iid"


def _runs(result, engine, runs, *args, **kwargs) -> float:
    return float(runs)


def _plans(result, *args, **kwargs) -> float:
    return float(len(result))


def install(tracer: Tracer) -> None:
    """Wrap every in-process layer's entry points."""
    from repro.core import matrix, overlay_model, transitions
    from repro.markov import competing, fundamental, sojourn
    from repro.scenario import runner
    from repro.simulation import batch, churn, overlay_sim

    tracer.patch(transitions, "transition_rows", "core.transition_rows")
    tracer.patch(matrix.ClusterChain, "__init__", "core.cluster_model")
    for method in ("proportion_series", "marginal_law", "expected_counts"):
        tracer.patch(overlay_model.OverlayModel, method, "core.overlay_model")

    tracer.patch(
        fundamental.AbsorbingAnalysis, "__post_init__", "markov.absorbing"
    )
    for method in (
        "expected_total_time_s",
        "expected_total_time_p",
        "expected_sojourn_s",
        "expected_sojourn_p",
        "expected_sojourns_s",
        "expected_sojourns_p",
    ):
        tracer.patch(sojourn.TwoSubsetSojourn, method, "markov.sojourn")
    for function in (
        "competing_transient_law",
        "competing_subset_series",
        "competing_law_binomial_mixture",
    ):
        tracer.patch(competing, function, "markov.competing")

    tracer.patch(overlay_sim.AgentOverlaySimulation, "run", "overlay.agent")

    tracer.patch(
        batch, "run_batch_trajectories", _trajectory_kind, count=_runs
    )
    tracer.patch(batch, "batch_monte_carlo_summary", "batch.summary")
    for function in ("exponential_sessions", "pareto_sessions"):
        tracer.patch(churn, function, "churn.sessions", count=_plans)
    for function in (
        "_bernoulli_kinds",
        "_poisson_kinds",
        "_exponential_session_kinds",
        "_pareto_session_kinds",
    ):
        tracer.patch(churn, function, "churn.kind_law")

    tracer.patch(runner, "execute_spec", "scenario.execute")


def batch_phase_counters() -> dict[str, float]:
    """Current ``repro_batch_phase_*`` counter values."""
    from repro.obs import metrics

    seconds = metrics.counter(
        "repro_batch_phase_seconds_total", "", ("phase",)
    )
    calls = metrics.counter("repro_batch_phase_calls_total", "", ("phase",))
    out = {}
    for prefix, phase in BATCH_PHASES.items():
        out[prefix + "_s"] = seconds.value(phase=phase)
        out[prefix + "_calls"] = calls.value(phase=phase)
    return out


def layer_metrics(
    tracer: Tracer, counters_before: dict[str, float]
) -> dict[str, float]:
    """The in-process per-layer metrics of one traced pass."""
    spans = tracer.summary()

    def total(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    def own(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> float:
        return float(spans.get(name, {}).get("calls", 0))

    out = {
        "core.transition_rows_s": total("core.transition_rows"),
        "core.transition_rows_calls": calls("core.transition_rows"),
        "core.cluster_model_s": total("core.cluster_model"),
        "core.overlay_model_s": total("core.overlay_model"),
        "markov.absorbing_s": total("markov.absorbing"),
        "markov.sojourn_s": total("markov.sojourn"),
        "markov.competing_s": total("markov.competing"),
        "overlay.agent_s": total("overlay.agent"),
        "batch.trajectories_iid_s": total("batch.trajectories_iid"),
        "batch.trajectories_session_s": total("batch.trajectories_session"),
        "batch.summary_s": own("batch.summary"),
        "batch.trajectories": (
            tracer.counts.get("batch.trajectories_iid.count", 0.0)
            + tracer.counts.get("batch.trajectories_session.count", 0.0)
        ),
        "churn.sessions_s": total("churn.sessions"),
        "churn.session_plans": tracer.counts.get(
            "churn.sessions.count", 0.0
        ),
        "churn.kind_law_s": total("churn.kind_law"),
        "churn.kind_law_self_s": own("churn.kind_law"),
        "scenario.execute_s": own("scenario.execute"),
        "scenario.execute_calls": calls("scenario.execute"),
    }
    for artifact in (
        "table1",
        "table2",
        "figure3",
        "figure4",
        "figure5",
        "montecarlo",
        "ablations",
    ):
        out[f"analysis.{artifact}_s"] = own(f"analysis.{artifact}")
    after = batch_phase_counters()
    for key, value in after.items():
        out[key] = value - counters_before.get(key, 0.0)
    return out
