"""Exact pins of the Figure-2 law.

Every chain, row table and batch engine reads one weighted tree
(:mod:`repro.core.transitions`).  These digests pin its output bit for
bit: the paper's rows and chain matrices on the default point and the
Table I grid, the join- and leave-conditional rows of each registered
policy, the DIRECT_CORE chain on the join-policy ablation grid, and the
ablation table rendered from it.  A digest that moves means the law
moved, not just its float formatting.
"""

import hashlib

import numpy as np
import pytest

from repro.analysis.ablations import (
    compute_join_policy_ablation,
    render_join_policy_ablation,
)
from repro.analysis.experiments import (
    TABLE1_D_GRID,
    TABLE1_MU_GRID,
    base_parameters,
)
from repro.core.matrix import ClusterChain
from repro.core.parameters import ModelParameters
from repro.core.policies import COUNT_POLICIES
from repro.core.statespace import StateSpace
from repro.core.transitions import JoinPolicy, transition_rows

ATTACK = ModelParameters(core_size=7, spare_max=7, k=3, mu=0.25, d=0.8)
K7 = base_parameters(k=7, mu=0.3, d=0.9)


def digest(*arrays: np.ndarray) -> str:
    """Short SHA-256 over dtype, shape and bytes of each array."""
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype.str}{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()[:16]


def paper_grid() -> dict[str, ModelParameters]:
    grid = {"default": ModelParameters()}
    for mu in TABLE1_MU_GRID:
        for d in TABLE1_D_GRID:
            grid[f"mu={mu},d={d}"] = base_parameters(mu=mu, d=d)
    return grid


PAPER_ROWS = {
    "default": "562fd7edab03439b",
    "mu=0.0,d=0.95": "8f16267dc063faa2",
    "mu=0.0,d=0.99": "7f34d88ec455b517",
    "mu=0.0,d=0.999": "192a28a4bc93f0b5",
    "mu=0.1,d=0.95": "b5200713f3a1dc03",
    "mu=0.1,d=0.99": "d475ba7e6c48c7ad",
    "mu=0.1,d=0.999": "2b7756dbde53aee3",
    "mu=0.2,d=0.95": "5b64780f92f4adb3",
    "mu=0.2,d=0.99": "696b7bebfd42d035",
    "mu=0.2,d=0.999": "f3d6d02c3b1bd837",
    "mu=0.3,d=0.95": "a86400792c4158ad",
    "mu=0.3,d=0.99": "68c8d12ee59a766f",
    "mu=0.3,d=0.999": "c9152f7769e241a4",
}

PAPER_CHAINS = {
    "default": "f4017378cd72bb0e",
    "mu=0.0,d=0.95": "cc1769fc89c91ec5",
    "mu=0.0,d=0.99": "d24dbaa2a673a2dd",
    "mu=0.0,d=0.999": "17b56e8b9bc30ec3",
    "mu=0.1,d=0.95": "2b01aff0a14d7cad",
    "mu=0.1,d=0.99": "f32b9e11dc94ac83",
    "mu=0.1,d=0.999": "512f3fa8b27f4b0a",
    "mu=0.2,d=0.95": "b39941dbe8ce733c",
    "mu=0.2,d=0.99": "a551d317e1200d9e",
    "mu=0.2,d=0.999": "6f2f2ba523e0af52",
    "mu=0.3,d=0.95": "46d0ecb07a3a489e",
    "mu=0.3,d=0.99": "ca3151b6698091bb",
    "mu=0.3,d=0.999": "84733d2ba27a7659",
}

#: Transient rows (targets, probs, cum_probs) of the kind laws.  Their
#: indices do not depend on whether the polluted-split class is listed,
#: because that class comes last.
KIND_ROWS = {
    ("attack", "strong", "join"): "d016083c79b10d9f",
    ("attack", "strong", "leave"): "4f7f8339b2b39313",
    ("attack", "passive", "join"): "6745c1849ffcea7a",
    ("attack", "passive", "leave"): "ba81a6687b047a3e",
    ("attack", "greedy-leave", "join"): "d016083c79b10d9f",
    ("attack", "greedy-leave", "leave"): "fbe9f78528656826",
    ("k7", "strong", "join"): "762748dac19a595b",
    ("k7", "strong", "leave"): "fda32585e0460b23",
    ("k7", "passive", "join"): "3cd5404392531c74",
    ("k7", "passive", "leave"): "5bcc8cba8814e02a",
    ("k7", "greedy-leave", "join"): "762748dac19a595b",
    ("k7", "greedy-leave", "leave"): "7fd40b8700632b66",
}

DIRECT_CORE_CHAINS = {
    0.10: "03925828b802d7db",
    0.20: "eb50d12757699228",
    0.30: "d9b9107b408d5b0c",
}

JOIN_POLICY_ABLATION = """\
Ablation: join placement policy (d=0.9, k=1, alpha=delta) -- why joiners must start as spares
mu   join policy  E(T_P)  p(polluted absorption)  p(ever polluted)  E[onset | polluted]
---  -----------  ------  ----------------------  ----------------  -------------------
10%  spare-first  0.1036                  0.0086            0.0106              30.9538
10%  direct-core  0.1990                  0.0132            0.0178              25.5960
20%  spare-first  0.5856                  0.0375            0.0424              25.9022
20%  direct-core  1.1138                  0.0632            0.0750              20.5641
30%  spare-first  1.6902                  0.0757            0.0816              22.4757
30%  direct-core  2.6975                  0.1348            0.1500              17.1541"""


class TestPinnedLaws:
    def test_paper_rows(self):
        for name, params in paper_grid().items():
            rows = transition_rows(params)
            assert digest(
                rows.targets,
                rows.probs,
                rows.cum_probs,
                rows.category_codes,
                rows.state_index,
            ) == PAPER_ROWS[name], name

    def test_paper_chain_matrix(self):
        for name, params in paper_grid().items():
            chain = ClusterChain(params, policy=COUNT_POLICIES["strong"])
            assert digest(chain.matrix) == PAPER_CHAINS[name], name

    @pytest.mark.parametrize("policy", ("strong", "passive", "greedy-leave"))
    def test_policy_kind_rows(self, policy):
        for params_name, params in (("attack", ATTACK), ("k7", K7)):
            n = len(StateSpace(params).transient)
            for kind in ("join", "leave"):
                rows = transition_rows(
                    params, policy=COUNT_POLICIES[policy], kind=kind
                )
                assert digest(
                    rows.targets[:n], rows.probs[:n], rows.cum_probs[:n]
                ) == KIND_ROWS[(params_name, policy, kind)], (
                    params_name,
                    kind,
                )

    def test_direct_core_matrix(self):
        for mu, expected in DIRECT_CORE_CHAINS.items():
            params = base_parameters(k=1, mu=mu, d=0.90)
            chain = ClusterChain(params, join=JoinPolicy.DIRECT_CORE)
            assert digest(chain.matrix) == expected, mu

    def test_join_policy_ablation_render(self):
        rendered = render_join_policy_ablation(compute_join_policy_ablation())
        assert rendered == JOIN_POLICY_ABLATION
