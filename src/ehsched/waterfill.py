"""Weighted water-filling over the parallel channels of the ZF-DPC cascade.

With L_k L_k^H = U_k diag(lam) U_k^H, the rate-optimal covariances for a
water level Delta are

    Phi_k = L_k^{-1} U_k diag((gamma_k*lam/Delta - 1)^+) U_k^H L_k^{-H}

carrying sum power P(Delta) = sum_k sum_lam (gamma_k/Delta - 1/lam)^+.
Sort the mode thresholds gamma_k*lam in decreasing order.  While the first
m modes are active, with G, C and S the sums of their weights, inverse
gains and gamma*ln(threshold), the level and the rate are closed forms of
the sum power p:

    Delta = G/(p + C),    W(p) = S - G ln G + G ln(p + C).

Mode m+1 switches on at the power breakpoint G/thr_{m+1} - C, so one
sorted table of breakpoints locates the segment of any power exactly,
for scalar and vector queries alike.  Rates are in nats.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
from scipy.special import lambertw

from .channels import CovarianceSet, EffectiveChannels


def _weights(eff: EffectiveChannels, weights) -> np.ndarray:
    w = eff.gammas if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (eff.num_users,):
        raise ValueError("one positive weight per user is required")
    if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be positive and finite")
    return w


class WaterSystem:
    """Flattened eigenmodes with prefix sums for exact O(log modes) queries."""

    def __init__(self, eff: EffectiveChannels, weights=None):
        w = _weights(eff, weights)
        self.eff = eff
        self.weights = w
        modes = []  # (threshold, gamma, 1/lam, user, mode index)
        for k, (gamma, lam) in enumerate(zip(w, eff.lam)):
            for j, lv in enumerate(lam):
                modes.append((float(gamma * lv), float(gamma), 1.0 / float(lv), k, j))
        modes.sort(key=lambda m: (-m[0], m[3], m[4]))
        self.modes = modes
        self.thr = [m[0] for m in modes] + [0.0]
        cg, cil, cgl = [0.0], [0.0], [0.0]
        for thr_m, gamma, invlam, _, _ in modes:
            cg.append(cg[-1] + gamma)
            cil.append(cil[-1] + invlam)
            cgl.append(cgl[-1] + gamma * math.log(thr_m))
        self.cg, self.cil, self.cgl = cg, cil, cgl
        self.level_max = self.thr[0]
        # breaks[m-1] is the sum power at which mode m+1 switches on; a
        # power p runs the first bisect_left(breaks, p) + 1 modes.
        self.breaks = [cg[m] / self.thr[m] - cil[m] for m in range(1, len(modes))]
        # Array copies for the vectorized paths.
        self._breaks = np.array(self.breaks)
        self._cg = np.array(cg)
        self._cil = np.array(cil)
        self._cgl = np.array(cgl)

    def power_at_level(self, level: float) -> float:
        if level <= 0.0:
            raise ValueError("water level must be positive")
        m = 0
        while m < len(self.modes) and self.thr[m] > level:
            m += 1
        return self.cg[m] / level - self.cil[m] if m else 0.0

    def level_at_power(self, power: float) -> tuple[float, int]:
        """Exact water level and active mode count for a sum-power budget."""
        if power <= 0.0:
            return self.level_max, 0
        m = bisect_left(self.breaks, power) + 1
        return self.cg[m] / (power + self.cil[m]), m

    def rate_at_power(self, power: float) -> float:
        level, m = self.level_at_power(power)  # m = 0 (no mode) gives 0.0
        return self.cgl[m] - math.log(level) * self.cg[m]

    def level_at_power_vec(self, power: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ``level_at_power`` over an array of sum powers."""
        p = np.asarray(power, dtype=float)
        off = p <= 0.0
        m = np.searchsorted(self._breaks, p) + 1
        level = self._cg[m] / np.where(off, 1.0, p + self._cil[m])
        return np.where(off, self.level_max, level), np.where(off, 0, m)

    def rate_at_power_vec(self, power: np.ndarray) -> np.ndarray:
        """Vectorized ``rate_at_power``."""
        return self.rate_at_level_vec(*self.level_at_power_vec(power))

    def curvature_vec(self, power: np.ndarray) -> np.ndarray:
        """d^2W/dP^2 = -Delta^2 / (sum of active gammas); 0 where no mode
        is active."""
        return self.curvature_at_level_vec(*self.level_at_power_vec(power))

    def rate_at_level_vec(self, level: np.ndarray, m: np.ndarray) -> np.ndarray:
        """W at the levels and mode counts of a ``level_at_power_vec``
        lookup, so one lookup serves the level, the rate and the curvature."""
        return self._cgl[m] - np.log(level) * self._cg[m]

    def curvature_at_level_vec(self, level: np.ndarray, m: np.ndarray) -> np.ndarray:
        """``curvature_vec`` from a ``level_at_power_vec`` lookup."""
        cg = np.where(m > 0, self._cg[m], 1.0)
        return np.where(m > 0, -(level * level) / cg, 0.0)

    def covariances(self, power) -> tuple[CovarianceSet, ...]:
        """Water-filling covariances at each sum power of an array, in one
        batched build (exact zero matrices where power <= 0)."""
        p = np.ravel(np.asarray(power, dtype=float))
        level, _ = self.level_at_power_vec(p)
        return covariances_for_level(self.eff, self.weights, np.where(p <= 0.0, np.inf, level))

    def efficient_power(self, eps: float) -> float:
        """The sum power p_o maximizing the efficiency ratio W(p)/(p + eps).

        The segment after the last breakpoint where W'(p)(p + eps) > W(p)
        holds p_o, at u = p + C = -a / W0(-a e^{-k}) with a = C - eps and
        k = 1 + ln G - S/G, or u = e^k when a = 0 (derivation in
        :mod:`ehsched.single_epoch`).  eps = 0 gives 0, where W(p)/p is
        largest.
        """
        if eps == 0.0:
            return 0.0
        m = 1
        for b in self.breaks:
            thr = self.thr[m]
            if thr * (b + eps) - self.cgl[m] + self.cg[m] * math.log(thr) <= 0.0:
                break
            m += 1
        G, C, S = self.cg[m], self.cil[m], self.cgl[m]
        a = C - eps
        k = 1.0 + math.log(G) - S / G
        if a == 0.0:
            u = math.exp(k)
        else:
            x = -a * math.exp(-k)
            # Rounding can push x to or below the branch point -1/e, where
            # W0 = -1 (and scipy returns NaN at -1/e itself).
            u = -a / float(lambertw(x).real) if x > -1.0 / math.e else a
        lo = self.breaks[m - 2] if m > 1 else 0.0
        hi = self.breaks[m - 1] if m <= len(self.breaks) else math.inf
        return min(max(u - C, lo), hi)


def covariances_for_level(eff: EffectiveChannels, weights, levels) -> tuple[CovarianceSet, ...]:
    """Closed-form covariances for each water level of an array (positive
    part applied); an infinite level carries no power and gives exact zero
    matrices."""
    levels = np.ravel(np.asarray(levels, dtype=float))
    if not np.all(levels > 0.0):
        raise ValueError("water levels must be positive")
    w = _weights(eff, weights)
    on = np.isfinite(levels)
    Phi = []
    for gamma, X, lam in zip(w, eff.X, eff.lam):
        d = np.maximum(gamma * lam / levels[on, None] - 1.0, 0.0)
        P = (X * d[:, None, :]) @ X.conj().T
        out = np.zeros((levels.size, *P.shape[1:]), dtype=complex)
        out[on] = 0.5 * (P + P.conj().swapaxes(1, 2))
        Phi.append(out)
    return tuple(CovarianceSet(tuple(P[i] for P in Phi)) for i in range(levels.size))


def rate_at_power(eff: EffectiveChannels, weights, power: float) -> float:
    """W(P): the weighted sum rate of the water-filling allocation at P."""
    return WaterSystem(eff, weights).rate_at_power(power)


@dataclass(frozen=True)
class WaterLevelSolution:
    """Water level, its covariances, and the realized power and rate."""

    level: float
    power: float
    rate: float
    covs: CovarianceSet


def solve_budget(eff: EffectiveChannels, weights, budget: float) -> WaterLevelSolution:
    """Full water-filling solution (level, covariances, rate) for a budget."""
    sys = WaterSystem(eff, weights)
    power = max(budget, 0.0)
    level, _ = sys.level_at_power(power)
    covs = sys.covariances(power)[0]
    return WaterLevelSolution(level, power, sys.rate_at_power(power), covs)
