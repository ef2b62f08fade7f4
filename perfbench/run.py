"""The repository benchmark.

Run one workload::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload mc-matrix --seed 1 --seconds 20 \\
        --trace 1 --out mc.json

Compare two result files written with ``--out``::

    python3 perfbench/run.py compare before.json after.json

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``paper`` -- every ``repro all`` artifact plus the empirical Table II,
  in process (:mod:`paper`);
* ``mc-matrix`` -- the batch engine over every adversary x churn cell
  (:mod:`mcmatrix`);
* ``fabric`` -- service, coordinator and two workers on localhost
  (:mod:`fabric`).

A run repeats the workload's fixed amount of work until ``--seconds``
have passed (at least :data:`MIN_ITERATIONS` times) and reports
medians.  ``paper`` and ``mc-matrix`` iterations each run in a fresh
interpreter, so every iteration pays the program's import and cold
caches as a ``repro`` invocation does.  With ``--trace 0`` the last
stdout line carries the end-to-end metrics; with ``--trace 1`` traced
and untraced iterations alternate and it carries the per-layer metrics
(the untraced ones give ``trace.overhead_s``).  All load is closed-loop
from this one process and its children; the program only sees specs
derived from ``--seed``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import shutil
import sys
import time

from common import (
    HERE,
    SRC,
    WORK,
    MissingProgram,
    host_info,
    median,
    program_env,
    require_program,
    run_child,
)

WORKLOADS = ("paper", "mc-matrix", "fabric")
#: Iterations per run, whatever ``--seconds`` allows; each iteration
#: also sets up afresh, so this is the set-up sample count too.
MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 170.0
CHILD = str(HERE / "child.py")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

#: Workload-specific end-to-end numbers: printed and written to the
#: result file, not part of the cross-workload metric set.
WORKLOAD_METRICS = {
    "paper": (),
    "mc-matrix": ("iid_trajectories_per_s", "session_trajectories_per_s"),
    "fabric": (
        "sweep_points_per_s",
        "serve_rps",
        "serve_p50_ms",
        "serve_p99_ms",
        "serve_samples",
    ),
}


def _unit(name: str) -> str:
    if name.endswith("_per_s") or name == "serve_rps":
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("speedup_vs_serial"):
        return "ratio"
    if name == "ledger.bytes":
        return "bytes"
    return "count"


_LAYER_NAMES = (
    "cli.import_s",
    "core.transition_rows_s",
    "core.transition_rows_calls",
    "core.cluster_model_s",
    "core.overlay_model_s",
    "markov.absorbing_s",
    "markov.sojourn_s",
    "markov.competing_s",
    "analysis.table1_s",
    "analysis.table2_s",
    "analysis.figure3_s",
    "analysis.figure4_s",
    "analysis.figure5_s",
    "analysis.montecarlo_s",
    "analysis.ablations_s",
    "overlay.agent_s",
    "batch.row_assembly_s",
    "batch.row_assembly_calls",
    "batch.skip_sampling_s",
    "batch.skip_sampling_calls",
    "batch.dispatch_s",
    "batch.dispatch_calls",
    "batch.trajectories_iid_s",
    "batch.trajectories_session_s",
    "batch.summary_s",
    "batch.trajectories",
    "churn.sessions_s",
    "churn.session_plans",
    "churn.kind_law_s",
    "churn.kind_law_self_s",
    "scenario.execute_s",
    "scenario.execute_calls",
    "fabric.queue_wait_p50_ms",
    "fabric.execute_p50_ms",
    "fabric.publish_p50_ms",
    "fabric.requeues",
    "fabric.serial_s",
    "fabric.speedup_vs_serial",
    "fabric.worker_exit_lag_s",
    "fabric.worker_clean_exits",
    "ledger.replay_s",
    "ledger.events",
    "ledger.bytes",
    "store.index_rebuild_s",
    "http.progress_p50_ms",
    "http.results_page_p50_ms",
    "http.result_key_p50_ms",
    "http.metrics_p50_ms",
    "http.during_sweep_p50_ms",
    "http.server_s",
    "unexplained_s",
    "trace.overhead_s",
)
PER_LAYER = {name: _unit(name) for name in _LAYER_NAMES}

#: Layers each workload exists to exercise: the traced run fails if
#: any of them records nothing there.
COVERAGE = {
    "paper": (
        "cli.import_s",
        "core.transition_rows_calls",
        "core.cluster_model_s",
        "core.overlay_model_s",
        "markov.absorbing_s",
        "markov.sojourn_s",
        "markov.competing_s",
        "analysis.table1_s",
        "analysis.table2_s",
        "analysis.figure3_s",
        "analysis.figure4_s",
        "analysis.figure5_s",
        "analysis.montecarlo_s",
        "analysis.ablations_s",
        "overlay.agent_s",
        "scenario.execute_calls",
    ),
    "mc-matrix": (
        "cli.import_s",
        "core.transition_rows_calls",
        "batch.row_assembly_calls",
        "batch.skip_sampling_calls",
        "batch.dispatch_calls",
        "batch.trajectories_iid_s",
        "batch.trajectories_session_s",
        "batch.summary_s",
        "batch.trajectories",
        "churn.sessions_s",
        "churn.session_plans",
        "churn.kind_law_s",
        "churn.kind_law_self_s",
        "scenario.execute_calls",
    ),
    "fabric": (
        "cli.import_s",
        "scenario.execute_calls",
        "fabric.queue_wait_p50_ms",
        "fabric.execute_p50_ms",
        "fabric.publish_p50_ms",
        "fabric.serial_s",
        "fabric.speedup_vs_serial",
        "fabric.worker_exit_lag_s",
        "ledger.replay_s",
        "ledger.events",
        "ledger.bytes",
        "store.index_rebuild_s",
        "http.progress_p50_ms",
        "http.results_page_p50_ms",
        "http.result_key_p50_ms",
        "http.metrics_p50_ms",
        "http.during_sweep_p50_ms",
        "http.server_s",
    ),
}


def _median_layers(records: list[dict]) -> dict[str, float]:
    return {
        name: median(record.get(name, 0.0) for record in records)
        for name in sorted({name for record in records for name in record})
    }


def _schedule(seconds: float, trace: bool):
    """Yield ``traced`` flags until the run has used ``seconds``: at
    least :data:`MIN_ITERATIONS` iterations, and with ``trace`` they
    alternate untraced / traced."""
    started = time.perf_counter()
    index = 0
    while (
        index < MIN_ITERATIONS
        or time.perf_counter() - started < seconds
        or (trace and index % 2 == 1)
    ):
        yield trace and index % 2 == 1
        index += 1


def _summarize(plain, traced, setups, sizes, workload_metrics, import_s):
    """Medians over a run's iterations; per-layer ones when traced."""
    out = {
        "sizes": sizes,
        "operations": [op for r in plain + traced for op in r["operations"]],
        "end_to_end": {
            "setup_s": median(setups),
            "wall_s": median(r["wall_s"] for r in plain),
            "peak_rss_mb": max(r["maxrss_mb"] for r in plain),
        },
        "workload_metrics": workload_metrics,
        "iterations": {"untraced": len(plain), "traced": len(traced)},
    }
    if traced:
        layers = _median_layers([r["layers"] for r in traced])
        layers["cli.import_s"] = import_s
        layers["trace.overhead_s"] = median(
            r["wall_s"] for r in traced
        ) - median(r["wall_s"] for r in plain)
        out["per_layer"] = layers
    return out


def run_inprocess(workload: str, seed: int, seconds: float, trace: bool):
    env = program_env()
    plain, traced = [], []
    for tracing in _schedule(seconds, trace):
        mode = "trace" if tracing else "run"
        record = run_child(
            [CHILD, workload, str(seed), mode], env, CHILD_TIMEOUT_S
        )
        (traced if tracing else plain).append(record)
    return _summarize(
        plain,
        traced,
        [r["import_s"] + r["prepare_s"] for r in plain + traced],
        plain[0]["sizes"],
        {
            name: median(r["extra"][name] for r in plain)
            for name in WORKLOAD_METRICS[workload]
        },
        median(r["import_s"] for r in traced),
    )


def run_fabric(seed: int, seconds: float, trace: bool):
    import fabric

    work = fabric.prepare(seed)
    try:
        plain, traced = [], []
        for index, tracing in enumerate(_schedule(seconds, trace)):
            (traced if tracing else plain).append(
                fabric.iteration(work, index, tracing)
            )
        import_s = 0.0
        if trace:
            # Every fabric process pays this import; time it on its own.
            import_s = run_child(
                [CHILD, "import", str(seed), "run"],
                program_env(),
                CHILD_TIMEOUT_S,
            )["import_s"]
        return _summarize(
            plain,
            traced,
            [r["setup_s"] for r in plain + traced],
            work["sizes"],
            fabric.summarize(work, plain),
            import_s,
        )
    finally:
        shutil.rmtree(work["root"], ignore_errors=True)


def _layer_report(workload: str, measured: dict[str, float]):
    """Every per-layer metric (0 where the workload does not touch the
    layer) and the coverage failures."""
    layers = {name: float(measured.get(name, 0.0)) for name in PER_LAYER}
    silent = [name for name in COVERAGE[workload] if layers[name] <= 0.0]
    return layers, silent


def run(arguments) -> int:
    require_program()
    sys.path.insert(0, str(SRC))
    # Byte-compile once, untimed: a fresh checkout would otherwise pay
    # compilation inside the first set-up sample.
    compileall.compile_dir(str(SRC), quiet=1)
    trace = arguments.trace == 1
    if arguments.workload == "fabric":
        out = run_fabric(arguments.seed, arguments.seconds, trace)
    else:
        out = run_inprocess(
            arguments.workload, arguments.seed, arguments.seconds, trace
        )
    operations = out["operations"]
    failures = [op for op in operations if not op["ok"]]
    silent = []
    if trace:
        out["per_layer"], silent = _layer_report(
            arguments.workload, out["per_layer"]
        )
        for name in silent:
            print(
                f"layer coverage: {name} recorded nothing on "
                f"{arguments.workload}",
                file=sys.stderr,
            )
    for op in failures[:20]:
        print(f"FAILED {op['op']}: {'; '.join(op['why'])}", file=sys.stderr)
    attempted = len(operations)
    failed = len(failures)
    record = {
        "workload": arguments.workload,
        "seed": arguments.seed,
        "seconds": arguments.seconds,
        "trace": arguments.trace,
        "host": host_info(),
        "sizes": out["sizes"],
        "iterations": out["iterations"],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "end_to_end": {
            name: {"value": out["end_to_end"][name], "unit": unit}
            for name, unit in END_TO_END.items()
        },
        "workload_metrics": {
            name: {"value": value, "unit": _unit(name)}
            for name, value in out["workload_metrics"].items()
        },
    }
    if trace:
        record["per_layer"] = {
            name: {"value": out["per_layer"][name], "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    sections = ("end_to_end", "workload_metrics") + (
        ("per_layer",) if trace else ()
    )
    print(
        f"# {arguments.workload} seed={arguments.seed} "
        f"iterations={out['iterations']} sizes={json.dumps(out['sizes'])}"
    )
    print(f"failed_frac {record['failed_frac']:.6g} ({failed}/{attempted})")
    for section in sections:
        for name, metric in record[section].items():
            print(f"{name} {metric['value']:.6g} {metric['unit']}")
    if arguments.out is not None:
        with open(arguments.out, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
    correct = failed == 0 and not silent
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["per_layer" if trace else "end_to_end"],
    }
    print(json.dumps(result))
    return 0 if not silent else 1


# -- compare mode ----------------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    """Print every metric both result files carry, with its delta."""
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    for label, record in (("A", a), ("B", b)):
        host = record.get("host", {})
        print(
            f"{label}: {record.get('workload')} seed={record.get('seed')} "
            f"trace={record.get('trace')} nproc={host.get('nproc')} "
            f"cpu={host.get('cpu_model')!r} python={host.get('python')} "
            f"numpy={host.get('numpy')} scipy={host.get('scipy')}"
        )
    if a.get("workload") != b.get("workload"):
        print("warning: the files measure different workloads")
    if a.get("sizes") != b.get("sizes"):
        print(
            f"warning: input sizes differ: {a.get('sizes')} "
            f"vs {b.get('sizes')}"
        )
    for section in ("end_to_end", "workload_metrics", "per_layer"):
        left, right = a.get(section, {}), b.get(section, {})
        names = [
            name
            for name in left
            if name in right and (left[name]["value"] or right[name]["value"])
        ]
        if not names:
            continue
        print(f"\n{section}")
        width = max(len(name) for name in names)
        for name in names:
            va, vb = left[name]["value"], right[name]["value"]
            delta = (
                f"{100.0 * (vb - va) / abs(va):+8.1f}%" if va else "       n/a"
            )
            print(
                f"  {name:<{width}}  {va:>14.6g}  {vb:>14.6g}  {delta}  "
                f"{left[name]['unit']}"
            )
    return 0


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", default=None, help="also write the full result as JSON"
    )
    arguments = parser.parse_args(argv)
    try:
        return run(arguments)
    except MissingProgram as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
