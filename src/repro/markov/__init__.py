"""Generic finite discrete-time Markov chain (DTMC) toolkit.

This subpackage is the numerical substrate of the reproduction.  It is
deliberately independent of the paper's cluster model: it provides the
classical absorbing-chain machinery (fundamental matrix, absorption
probabilities and times), the censored-chain reductions and sojourn-time
decompositions of Sericola (1990) and Sericola & Rubino (1989), and the
competing-chains transient law of Anceaume, Castella, Ludinard &
Sericola (2011) used by the paper's Theorems 1 and 2.  It needs numpy
only.

The public classes and functions are re-exported here:

* :class:`~repro.markov.chain.MarkovChain` -- validated DTMC with state
  labels, classification helpers and simulation.
* :func:`~repro.markov.classify.communicating_classes` /
  :func:`~repro.markov.classify.recurrent_classes` /
  :func:`~repro.markov.classify.transient_states` -- state
  classification from the reachability closure of ``P > epsilon``.
* :class:`~repro.markov.fundamental.AbsorbingAnalysis` -- fundamental
  matrix `(I - T)^{-1}`, absorption probabilities, expected steps.
* :class:`~repro.markov.sojourn.TwoSubsetSojourn` -- total and per-visit
  time spent in each of two transient subsets before absorption.
* :func:`~repro.markov.competing.competing_transient_law` /
  :func:`~repro.markov.competing.competing_subset_series` -- transient
  distribution of ``n`` chains competing for transitions.
"""

from repro.markov.chain import MarkovChain
from repro.markov.classify import (
    absorbing_states,
    communicating_classes,
    recurrent_classes,
    transient_states,
)
from repro.markov.fundamental import AbsorbingAnalysis
from repro.markov.hitting import HittingAnalysis
from repro.markov.linalg import (
    solve_fundamental,
    spectral_radius,
    stationary_distribution,
    substochastic_check,
)
from repro.markov.sojourn import TwoSubsetSojourn
from repro.markov.competing import (
    competing_subset_series,
    competing_transient_law,
    slowdown_matrix,
)

__all__ = [
    "MarkovChain",
    "AbsorbingAnalysis",
    "HittingAnalysis",
    "TwoSubsetSojourn",
    "absorbing_states",
    "communicating_classes",
    "recurrent_classes",
    "transient_states",
    "solve_fundamental",
    "spectral_radius",
    "stationary_distribution",
    "substochastic_check",
    "competing_transient_law",
    "competing_subset_series",
    "slowdown_matrix",
]
