"""Count-level adversary policies (shared by every simulation tier).

A :class:`CountAdversaryPolicy` is the count-state rendition of an
agent-tier :class:`~repro.adversary.base.AdversaryStrategy`: four
switches that fully determine how the adversary reacts to join and
leave events when a cluster is reduced to its ``(s, x, y)`` counts.
The record lives in :mod:`repro.core` because *three* layers consume
it:

* the scalar member-list oracle
  (:class:`~repro.simulation.cluster_sim.ClusterSimulator`) plays the
  switches event by event on explicit member lists;
* the transition derivation
  (:func:`~repro.core.transitions.transition_rows`) folds the same
  switches into a one-step law, so chains and batch transition rows
  can be assembled for *any* registered adversary;
* the vectorized batch engine samples those rows directly.

Keeping one frozen, hashable record shared by all three guarantees the
oracle and the derived law can never drift apart silently -- the
equivalence tests compare them head to head.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CountAdversaryPolicy:
    """Count-level rendition of an adversary strategy.

    The scalar simulator plays the adversary through four switches that
    mirror the agent-tier :class:`~repro.adversary.base.AdversaryStrategy`
    hooks on anonymous member lists:

    * ``rule2`` -- filter joins in polluted clusters (Rule 2);
    * ``suppress_leaves`` -- malicious members resist natural churn and
      depart only under Property 1;
    * ``biased_replacement`` -- promote malicious spares while the
      quorum holds;
    * ``rule1`` -- voluntary core leaves: ``"gated"`` (Relation (2)),
      ``"always"`` (whenever a malicious spare exists) or ``"never"``.

    The default :data:`STRONG_POLICY` reproduces the paper's adversary
    with the exact event semantics (and RNG draw order) the simulator
    always had.
    """

    name: str
    rule2: bool = True
    suppress_leaves: bool = True
    biased_replacement: bool = True
    rule1: str = "gated"

    def __post_init__(self) -> None:
        if self.rule1 not in ("gated", "always", "never"):
            raise ValueError(
                f"rule1 must be gated/always/never, got {self.rule1!r}"
            )


#: The paper's Section-V adversary (Rules 1+2, biased maintenance).
STRONG_POLICY = CountAdversaryPolicy("strong")

#: Malicious peers exist but follow the protocol.
PASSIVE_POLICY = CountAdversaryPolicy(
    "passive",
    rule2=False,
    suppress_leaves=False,
    biased_replacement=False,
    rule1="never",
)

#: Rule 1 without Relation (2)'s probability gate (ablation).
GREEDY_LEAVE_POLICY = CountAdversaryPolicy("greedy-leave", rule1="always")

#: Count-level policies by adversary registry name.
COUNT_POLICIES: dict[str, CountAdversaryPolicy] = {
    "strong": STRONG_POLICY,
    "passive": PASSIVE_POLICY,
    "greedy-leave": GREEDY_LEAVE_POLICY,
    "none": PASSIVE_POLICY,
}


def resolve_count_policy(
    adversary: CountAdversaryPolicy | str | None,
) -> CountAdversaryPolicy:
    """Normalize an adversary selector to a policy record.

    ``None`` selects the paper's strong adversary; a string is looked
    up in :data:`COUNT_POLICIES`; a policy instance passes through.
    """
    if adversary is None:
        return STRONG_POLICY
    if isinstance(adversary, str):
        try:
            return COUNT_POLICIES[adversary]
        except KeyError:
            known = ", ".join(sorted(COUNT_POLICIES))
            raise ValueError(
                f"unknown count-level adversary {adversary!r}; "
                f"known: {known}"
            ) from None
    return adversary
