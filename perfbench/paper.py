"""Workload ``paper``: every artifact ``repro all`` builds, plus the
empirical Table II, through the ``analysis`` compute functions.

The inputs are the paper's own grids, which the golden renders pin, so
the seed does not change them.  Outputs are checked against
``tests/golden/*.txt`` byte for byte and against each artifact's shape
predicates.
"""

from __future__ import annotations

import contextlib
import math

from common import GOLDEN

#: Build order (the CLI's ``all`` order, then the empirical Table II).
ARTIFACTS = (
    "figure3",
    "figure4",
    "figure5",
    "table1",
    "table2",
    "ablations",
    "montecarlo",
)

#: Artifacts rendered byte-identically to a golden file.
GOLDEN_FILES = {
    "figure3": "figure3.txt",
    "figure4": "figure4.txt",
    "figure5": "figure5.txt",
    "table1": "table1.txt",
    "table2": "table2.txt",
    "montecarlo": "montecarlo_table2.txt",
}

ADVERSARIES = ("strong", "passive", "greedy-leave")


def prepare(seed: int) -> dict:
    # ``import repro.cli`` has already loaded every compute module.
    goldens = {
        name: (GOLDEN / file).read_text()
        for name, file in GOLDEN_FILES.items()
    }
    return {"goldens": goldens, "sizes": {"artifacts": len(ARTIFACTS)}}


def _build(name: str):
    """Compute and render one artifact; returns (text, shape checks)."""
    from repro.analysis import (
        ablations,
        figure3,
        figure4,
        figure5,
        montecarlo,
        table1,
        table2,
    )

    if name == "figure3":
        cells = figure3.compute_figure3()
        return figure3.render_figure3(cells), figure3.shape_checks(cells)
    if name == "figure4":
        cells = figure4.compute_figure4()
        return figure4.render_figure4(cells), figure4.shape_checks(cells)
    if name == "figure5":
        curves = figure5.compute_figure5()
        return figure5.render_figure5(curves), figure5.shape_checks(curves)
    if name == "table1":
        return table1.render_table1(table1.compute_table1()), {}
    if name == "table2":
        rows = table2.compute_table2()
        return table2.render_table2(rows), {}
    if name == "montecarlo":
        rows = montecarlo.empirical_table2(runs=2000)
        return montecarlo.render_empirical_table2(rows), {}
    k_points = ablations.compute_k_sweep()
    nu_points = ablations.compute_nu_sweep()
    join_points = ablations.compute_join_policy_ablation()
    comparisons = ablations.compare_adversaries(adversaries=ADVERSARIES)
    text = "\n\n".join(
        [
            ablations.render_k_sweep(k_points, mu=0.20, d=0.90),
            ablations.render_nu_sweep(nu_points, k=7, mu=0.20, d=0.90),
            ablations.render_join_policy_ablation(join_points),
            ablations.render_adversary_comparison(comparisons),
        ]
    )
    fractions = [
        value
        for result in comparisons
        for value in (
            result.peak_polluted_fraction,
            result.final_polluted_fraction,
        )
    ]
    checks = {
        "k1_dominates": ablations.k1_dominates(k_points),
        "spare_first_dominates": ablations.spare_first_dominates(
            join_points
        ),
        "adversary_fractions_in_unit_interval": all(
            math.isfinite(v) and 0.0 <= v <= 1.0 for v in fractions
        ),
        "all_adversaries_compared": len(comparisons) == len(ADVERSARIES),
    }
    return text, checks


def run(work: dict, tracer) -> dict:
    """The timed phase: build every artifact once."""
    outputs = {}
    for name in ARTIFACTS:
        scope = (
            tracer.span(f"analysis.{name}")
            if tracer is not None
            else contextlib.nullcontext()
        )
        with scope:
            outputs[name] = _build(name)
    return outputs


def check(work: dict, outputs: dict) -> tuple[list[dict], dict]:
    """One operation per artifact: fails on a golden mismatch or a
    false shape predicate."""
    operations = []
    for name in ARTIFACTS:
        text, checks = outputs[name]
        problems = [
            f"{check} is false" for check, ok in checks.items() if not ok
        ]
        golden = work["goldens"].get(name)
        if golden is not None and text + "\n" != golden:
            problems.append(f"render differs from {GOLDEN_FILES[name]}")
        operations.append({"op": name, "ok": not problems, "why": problems})
    return operations, {}
