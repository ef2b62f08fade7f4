"""Micro-benchmarks of the library's hot paths.

Times the building blocks a downstream user pays for: transition-tree
evaluation, matrix assembly, the censored-chain solves, Theorem-2 series
iteration, overlay operation throughput and greedy routing.
"""

import numpy as np

from repro.core.absorption import cluster_fate
from repro.core.initial import delta_distribution
from repro.core.matrix import ClusterChain
from repro.core.parameters import ModelParameters
from repro.core.statespace import State, StateSpace
from repro.core.transitions import transition_distribution
from repro.markov.competing import competing_subset_series
from repro.overlay.overlay import ClusterOverlay, OverlayConfig
from repro.overlay.routing import route

PARAMS = ModelParameters(core_size=7, spare_max=7, k=1, mu=0.25, d=0.9)
PARAMS_K7 = PARAMS.with_overrides(k=7)


def test_transition_tree_full_sweep(benchmark):
    """Evaluate the Figure-2 tree on every transient state (k=7)."""
    space = StateSpace(PARAMS_K7)

    def sweep():
        for state in space.transient:
            transition_distribution(state, PARAMS_K7)

    benchmark(sweep)


def test_chain_assembly(benchmark):
    """Full 248-state matrix assembly."""
    benchmark(ClusterChain, PARAMS)


def test_cluster_fate_solves(benchmark):
    """Relations (5), (6), (9) from an assembled chain."""
    chain = ClusterChain(PARAMS)
    initial = delta_distribution(chain)
    benchmark(cluster_fate, chain, initial)


def test_theorem2_series_iteration(benchmark):
    """Theorem-2 series over 10 000 events recorded every 1 000: one
    stride matrix power, then ten strided vector products (Figure 5's
    path)."""
    chain = ClusterChain(PARAMS)
    initial = delta_distribution(chain)
    indicators = {"safe": chain.safe_indicator()}

    benchmark.pedantic(
        competing_subset_series,
        args=(initial, chain.transient_matrix, 500, 10_000, indicators),
        kwargs={"record_every": 1000},
        rounds=2,
        iterations=1,
    )


def test_overlay_churn_throughput(benchmark):
    """Join/leave operations per second on a live overlay."""

    def churn():
        params = ModelParameters(core_size=4, spare_max=4)
        overlay = ClusterOverlay(
            OverlayConfig(model=params, id_bits=14, key_bits=32),
            np.random.default_rng(1),
        )
        rng = np.random.default_rng(2)
        for _ in range(60):
            overlay.join_new_peer(malicious=False)
        for _ in range(300):
            if rng.random() < 0.5 or overlay.n_peers < 10:
                overlay.join_new_peer(malicious=False)
            else:
                overlay.leave_peer(overlay.random_member())
        return overlay

    benchmark.pedantic(churn, rounds=3, iterations=1)


def test_routing_throughput(benchmark):
    """Greedy routes across a 64-cluster overlay."""
    params = ModelParameters(core_size=4, spare_max=4)
    overlay = ClusterOverlay(
        OverlayConfig(model=params, id_bits=14, key_bits=32),
        np.random.default_rng(3),
    )
    for _ in range(500):
        overlay.join_new_peer(malicious=False)
    clusters = overlay.topology.clusters()
    rng = np.random.default_rng(4)
    targets = [int(rng.integers(0, 1 << 14)) for _ in range(200)]

    def probe():
        for target in targets:
            route(overlay.topology, clusters[0], target)

    benchmark(probe)
