"""Sojourn times of a Markov chain in a partition of its transient states.

Implements, for a chain whose transient states are split into two subsets
``S`` and ``P`` (and which eventually reaches some closed class), the
closed forms used by the paper:

* total time spent in ``S`` / ``P`` before absorption
  (Sericola 1990; paper Relations (5) and (6)),
* the expected duration of the ``n``-th sojourn in each subset
  (Sericola & Rubino 1989; paper Relations (7) and (8)).

Notation follows the paper.  With the transition matrix partitioned as::

        M = [ M_S   M_SP  ... ]
            [ M_PS  M_P   ... ]

the censored ingredients are::

    v = alpha_S + alpha_P (I - M_P)^{-1} M_PS
    R = M_S + M_SP (I - M_P)^{-1} M_PS
    w = alpha_P + alpha_S (I - M_S)^{-1} M_SP
    Q = M_P + M_PS (I - M_S)^{-1} M_SP
    G = (I - M_S)^{-1} M_SP (I - M_P)^{-1} M_PS
    H = (I - M_P)^{-1} M_PS (I - M_S)^{-1} M_SP

and the results read::

    E(T_S)    = v (I - R)^{-1} 1          E(T_P)    = w (I - Q)^{-1} 1
    E(T_S,n)  = v G^{n-1} (I - M_S)^{-1} 1
    E(T_P,n)  = w H^{n-1} (I - M_P)^{-1} 1
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.markov.linalg import (
    MarkovNumericsError,
    as_square_array,
    solve_fundamental,
    substochastic_check,
)


@dataclass(frozen=True)
class TwoSubsetSojourn:
    """Sojourn-time analysis for a two-subset transient partition.

    Parameters
    ----------
    block_ss, block_sp, block_ps, block_pp:
        The four transient blocks ``M_S``, ``M_SP``, ``M_PS``, ``M_P``.
    initial_s, initial_p:
        Initial probability mass over the states of ``S`` and ``P``.
    """

    block_ss: np.ndarray
    block_sp: np.ndarray
    block_ps: np.ndarray
    block_pp: np.ndarray
    initial_s: np.ndarray
    initial_p: np.ndarray
    _cache: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        m_s = as_square_array(self.block_ss, name="M_S")
        m_p = as_square_array(self.block_pp, name="M_P")
        m_sp = np.asarray(self.block_sp, dtype=float)
        m_ps = np.asarray(self.block_ps, dtype=float)
        if m_sp.shape != (m_s.shape[0], m_p.shape[0]):
            raise MarkovNumericsError(
                f"M_SP has shape {m_sp.shape}, expected "
                f"({m_s.shape[0]}, {m_p.shape[0]})"
            )
        if m_ps.shape != (m_p.shape[0], m_s.shape[0]):
            raise MarkovNumericsError(
                f"M_PS has shape {m_ps.shape}, expected "
                f"({m_p.shape[0]}, {m_s.shape[0]})"
            )
        substochastic_check(m_s)
        substochastic_check(m_p)
        alpha_s = np.asarray(self.initial_s, dtype=float)
        alpha_p = np.asarray(self.initial_p, dtype=float)
        if alpha_s.shape != (m_s.shape[0],):
            raise MarkovNumericsError("initial_s has the wrong length")
        if alpha_p.shape != (m_p.shape[0],):
            raise MarkovNumericsError("initial_p has the wrong length")
        object.__setattr__(self, "block_ss", m_s)
        object.__setattr__(self, "block_sp", m_sp)
        object.__setattr__(self, "block_ps", m_ps)
        object.__setattr__(self, "block_pp", m_p)
        object.__setattr__(self, "initial_s", alpha_s)
        object.__setattr__(self, "initial_p", alpha_p)

    # -- censored ingredients ------------------------------------------

    def _solve_s(self, rhs: np.ndarray) -> np.ndarray:
        """Return ``(I - M_S)^{-1} rhs`` (cached factorization-free)."""
        return solve_fundamental(self.block_ss, rhs)

    def _solve_p(self, rhs: np.ndarray) -> np.ndarray:
        """Return ``(I - M_P)^{-1} rhs``."""
        return solve_fundamental(self.block_pp, rhs)

    @property
    def v(self) -> np.ndarray:
        """Entry law of the first sojourn in ``S``:
        ``v = alpha_S + alpha_P (I - M_P)^{-1} M_PS``."""
        if "v" not in self._cache:
            if not self.initial_p.any():
                self._cache["v"] = self.initial_s.copy()
            else:
                lifted = self._solve_p(self.block_ps)
                self._cache["v"] = self.initial_s + self.initial_p @ lifted
        return self._cache["v"]

    @property
    def w(self) -> np.ndarray:
        """Entry law of the first sojourn in ``P``:
        ``w = alpha_P + alpha_S (I - M_S)^{-1} M_SP``."""
        if "w" not in self._cache:
            if not self.block_sp.any():
                self._cache["w"] = self.initial_p.copy()
            else:
                lifted = self._solve_s(self.block_sp)
                self._cache["w"] = self.initial_p + self.initial_s @ lifted
        return self._cache["w"]

    @property
    def censored_s(self) -> np.ndarray:
        """``R = M_S + M_SP (I - M_P)^{-1} M_PS`` — the chain watched
        only while in ``S`` (excursions through ``P`` collapsed)."""
        if "R" not in self._cache:
            if not self.block_sp.any():
                self._cache["R"] = self.block_ss.copy()
            else:
                lifted = self._solve_p(self.block_ps)
                self._cache["R"] = self.block_ss + self.block_sp @ lifted
        return self._cache["R"]

    @property
    def censored_p(self) -> np.ndarray:
        """``Q = M_P + M_PS (I - M_S)^{-1} M_SP``."""
        if "Q" not in self._cache:
            if not self.block_ps.any():
                self._cache["Q"] = self.block_pp.copy()
            else:
                lifted = self._solve_s(self.block_sp)
                self._cache["Q"] = self.block_pp + self.block_ps @ lifted
        return self._cache["Q"]

    @property
    def return_kernel_s(self) -> np.ndarray:
        """``G = (I - M_S)^{-1} M_SP (I - M_P)^{-1} M_PS``: law of the
        entry state of the next sojourn in ``S`` given the current one."""
        if "G" not in self._cache:
            if not self.block_sp.any() or not self.block_ps.any():
                self._cache["G"] = np.zeros_like(self.block_ss)
            else:
                inner = self._solve_p(self.block_ps)
                self._cache["G"] = self._solve_s(self.block_sp @ inner)
        return self._cache["G"]

    @property
    def return_kernel_p(self) -> np.ndarray:
        """``H = (I - M_P)^{-1} M_PS (I - M_S)^{-1} M_SP``."""
        if "H" not in self._cache:
            if not self.block_sp.any() or not self.block_ps.any():
                self._cache["H"] = np.zeros_like(self.block_pp)
            else:
                inner = self._solve_s(self.block_sp)
                self._cache["H"] = self._solve_p(self.block_ps @ inner)
        return self._cache["H"]

    # -- total sojourn times (Relations (5) and (6)) --------------------

    def expected_total_time_s(self) -> float:
        """``E(T_S) = v (I - R)^{-1} 1`` — Relation (5)."""
        ones = np.ones(self.block_ss.shape[0])
        return float(self.v @ solve_fundamental(self.censored_s, ones))

    def expected_total_time_p(self) -> float:
        """``E(T_P) = w (I - Q)^{-1} 1`` — Relation (6)."""
        if not self.w.any():
            # P is never entered; skip a solve that may be singular
            # when P contains invariant (unreachable) subsets.
            return 0.0
        ones = np.ones(self.block_pp.shape[0])
        return float(self.w @ solve_fundamental(self.censored_p, ones))

    # -- successive sojourn times (Relations (7) and (8)) ---------------

    def expected_sojourn_s(self, n: int) -> float:
        """``E(T_S,n) = v G^{n-1} (I - M_S)^{-1} 1`` — Relation (7)."""
        if n < 1:
            raise ValueError(f"sojourn index must be >= 1, got {n}")
        ones = np.ones(self.block_ss.shape[0])
        per_visit = self._solve_s(ones)
        entry = self.v.copy()
        for _ in range(n - 1):
            entry = entry @ self.return_kernel_s
        return float(entry @ per_visit)

    def expected_sojourn_p(self, n: int) -> float:
        """``E(T_P,n) = w H^{n-1} (I - M_P)^{-1} 1`` — Relation (8)."""
        if n < 1:
            raise ValueError(f"sojourn index must be >= 1, got {n}")
        if not self.w.any():
            return 0.0
        ones = np.ones(self.block_pp.shape[0])
        per_visit = self._solve_p(ones)
        entry = self.w.copy()
        for _ in range(n - 1):
            entry = entry @ self.return_kernel_p
        return float(entry @ per_visit)

    def expected_sojourns_s(self, count: int) -> list[float]:
        """First ``count`` values of ``E(T_S,n)`` computed incrementally."""
        ones = np.ones(self.block_ss.shape[0])
        per_visit = self._solve_s(ones)
        entry = self.v.copy()
        values = []
        for _ in range(count):
            values.append(float(entry @ per_visit))
            entry = entry @ self.return_kernel_s
        return values

    def expected_sojourns_p(self, count: int) -> list[float]:
        """First ``count`` values of ``E(T_P,n)`` computed incrementally."""
        if not self.w.any():
            return [0.0] * count
        ones = np.ones(self.block_pp.shape[0])
        per_visit = self._solve_p(ones)
        entry = self.w.copy()
        values = []
        for _ in range(count):
            values.append(float(entry @ per_visit))
            entry = entry @ self.return_kernel_p
        return values

    # -- sojourn counts --------------------------------------------------

    def probability_reaches_sojourn_s(self, n: int) -> float:
        """Probability that an ``n``-th sojourn in ``S`` takes place."""
        if n < 1:
            raise ValueError(f"sojourn index must be >= 1, got {n}")
        entry = self.v.copy()
        for _ in range(n - 1):
            entry = entry @ self.return_kernel_s
        return float(entry.sum())

    def probability_reaches_sojourn_p(self, n: int) -> float:
        """Probability that an ``n``-th sojourn in ``P`` takes place."""
        if n < 1:
            raise ValueError(f"sojourn index must be >= 1, got {n}")
        entry = self.w.copy()
        for _ in range(n - 1):
            entry = entry @ self.return_kernel_p
        return float(entry.sum())

    def expected_number_of_sojourns_s(self) -> float:
        """Expected count of distinct sojourns in ``S``:
        ``sum_n v G^{n-1} 1 = v (I - G)^{-1} 1``."""
        ones = np.ones(self.block_ss.shape[0])
        return float(self.v @ solve_fundamental(self.return_kernel_s, ones))

    def expected_number_of_sojourns_p(self) -> float:
        """Expected count of distinct sojourns in ``P``."""
        ones = np.ones(self.block_pp.shape[0])
        return float(self.w @ solve_fundamental(self.return_kernel_p, ones))

    # -- distribution-level results (Sericola 1990) -----------------------

    def total_time_survival_s(self, horizon: int) -> np.ndarray:
        """``P{T_S > n}`` for ``n = 0 .. horizon``.

        The censored chain ``R`` watches the process only while in
        ``S``; surviving ``n`` censored steps is exactly spending more
        than ``n`` units in ``S``: ``P{T_S > n} = v R^n 1``.
        """
        return _censored_survival(self.v, self.censored_s, horizon)

    def total_time_survival_p(self, horizon: int) -> np.ndarray:
        """``P{T_P > n} = w Q^n 1``."""
        return _censored_survival(self.w, self.censored_p, horizon)

    def total_time_pmf_s(self, horizon: int) -> np.ndarray:
        """``P{T_S = n}`` for ``n = 0 .. horizon`` (truncated law)."""
        survival = self.total_time_survival_s(horizon)
        return _survival_to_pmf(survival)

    def total_time_pmf_p(self, horizon: int) -> np.ndarray:
        """``P{T_P = n}`` for ``n = 0 .. horizon`` (truncated law)."""
        survival = self.total_time_survival_p(horizon)
        return _survival_to_pmf(survival)

    def sojourn_survival_s(self, n: int, horizon: int) -> np.ndarray:
        """``P{T_S,n > m}`` for ``m = 0 .. horizon``.

        Defective in general: the mass at ``m = 0`` already misses the
        probability that an ``n``-th sojourn never takes place.
        """
        if n < 1:
            raise ValueError(f"sojourn index must be >= 1, got {n}")
        entry = self.v.copy()
        for _ in range(n - 1):
            entry = entry @ self.return_kernel_s
        return _censored_survival(entry, self.block_ss, horizon)

    def sojourn_survival_p(self, n: int, horizon: int) -> np.ndarray:
        """``P{T_P,n > m}`` for ``m = 0 .. horizon``."""
        if n < 1:
            raise ValueError(f"sojourn index must be >= 1, got {n}")
        entry = self.w.copy()
        for _ in range(n - 1):
            entry = entry @ self.return_kernel_p
        return _censored_survival(entry, self.block_pp, horizon)


def _censored_survival(
    entry: np.ndarray, kernel: np.ndarray, horizon: int
) -> np.ndarray:
    """``[entry kernel^n 1]_{n=0..horizon}`` -- survival of a censored
    (possibly defective) phase-type law."""
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    ones = np.ones(kernel.shape[0])
    law = np.asarray(entry, dtype=float).copy()
    survival = np.empty(horizon + 1)
    for n in range(horizon + 1):
        survival[n] = float(law @ ones)
        law = law @ kernel
    return survival


def _survival_to_pmf(survival: np.ndarray) -> np.ndarray:
    """Convert ``P{T > n}`` samples to ``P{T = n}``.

    ``P{T = 0} = 1 - P{T > 0}`` and ``P{T = n} = P{T > n-1} - P{T > n}``.
    """
    pmf = np.empty_like(survival)
    pmf[0] = 1.0 - survival[0]
    pmf[1:] = survival[:-1] - survival[1:]
    return pmf
