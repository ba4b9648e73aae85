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
sorted table of breakpoints locates the segment of every power of an
array exactly, with one ``searchsorted``.  Rates are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import lambertw

from .channels import CovarianceSet, EffectiveChannels, resolve_weights


class WaterSystem:
    """Flattened eigenmodes with prefix sums for exact O(log modes) queries:
    thresholds ``thr`` in decreasing order, the sums G, C, S of the first m
    modes in ``cg[m]``, ``cil[m]``, ``cgl[m]``, and the ``breaks``."""

    def __init__(self, eff: EffectiveChannels, weights=None):
        w = resolve_weights(eff, weights)
        self.eff = eff
        self.weights = w
        gamma = np.repeat(w, [lam.size for lam in eff.lam])
        lam = np.concatenate(eff.lam)
        thr = gamma * lam
        # Stable: equal thresholds keep their (user, mode) order.
        order = np.argsort(-thr, kind="stable")
        thr, gamma, lam = thr[order], gamma[order], lam[order]
        self.thr = np.append(thr, 0.0)
        self.cg = np.concatenate(([0.0], np.cumsum(gamma)))
        self.cil = np.concatenate(([0.0], np.cumsum(1.0 / lam)))
        self.cgl = np.concatenate(([0.0], np.cumsum(gamma * np.log(thr))))
        self.level_max = float(thr[0])
        # A power p runs the first searchsorted(breaks, p) + 1 modes.
        self.breaks = self.cg[1:-1] / thr[1:] - self.cil[1:-1]

    def power_at_level(self, level: float) -> float:
        if level <= 0.0:
            raise ValueError("water level must be positive")
        m = int(np.count_nonzero(self.thr > level))
        return float(self.cg[m] / level - self.cil[m]) if m else 0.0

    def level_at_power_vec(self, power) -> tuple[np.ndarray, np.ndarray]:
        """Exact water level and active mode count at each sum power of an
        array (``level_max`` and 0 modes where power <= 0)."""
        p = np.asarray(power, dtype=float)
        off = p <= 0.0
        m = np.searchsorted(self.breaks, p) + 1
        level = self.cg[m] / np.where(off, 1.0, p + self.cil[m])
        return np.where(off, self.level_max, level), np.where(off, 0, m)

    def rate_at_power_vec(self, power) -> np.ndarray:
        """W at each sum power of an array."""
        return self.rate_at_level_vec(*self.level_at_power_vec(power))

    def curvature_vec(self, power) -> np.ndarray:
        """d^2W/dP^2 = -Delta^2 / (sum of active gammas); 0 where no mode
        is active."""
        return self.curvature_at_level_vec(*self.level_at_power_vec(power))

    def rate_at_level_vec(self, level: np.ndarray, m: np.ndarray) -> np.ndarray:
        """W at the levels and mode counts of a ``level_at_power_vec``
        lookup, so one lookup serves the level, the rate and the curvature."""
        return self.cgl[m] - np.log(level) * self.cg[m]

    def curvature_at_level_vec(self, level: np.ndarray, m: np.ndarray) -> np.ndarray:
        """``curvature_vec`` from a ``level_at_power_vec`` lookup."""
        cg = np.where(m > 0, self.cg[m], 1.0)
        return np.where(m > 0, -(level * level) / cg, 0.0)

    def covariances(self, power) -> CovarianceSet:
        """Water-filling covariances at each sum power of an array, in one
        batched build (exact zero matrices where power <= 0)."""
        p = np.asarray(power, dtype=float)
        level, _ = self.level_at_power_vec(p)
        return covariances_for_level(self.eff, self.weights, np.where(p <= 0.0, np.inf, level))

    def efficient_power(self, eps):
        """The sum power p_o maximizing the efficiency ratio W(p)/(p + eps),
        for each circuit power of an array (a scalar for a scalar eps).

        The segment after the last breakpoint where W'(p)(p + eps) > W(p)
        holds p_o, at u = p + C = -a / W0(-a e^{-k}) with a = C - eps and
        k = 1 + ln G - S/G, or u = e^k when a = 0 (derivation in
        :mod:`ehsched.single_epoch`).  eps = 0 gives 0, where W(p)/p is
        largest.
        """
        eps = np.asarray(eps, dtype=float)
        thr = self.thr[1:-1]
        # g > 0 at breakpoint j while the ratio still rises there.
        g = thr * (self.breaks + eps[..., None]) - self.cgl[1:-1] + self.cg[1:-1] * np.log(thr)
        m = 1 + np.sum(np.logical_and.accumulate(g > 0.0, axis=-1), axis=-1)
        G, C, S = self.cg[m], self.cil[m], self.cgl[m]
        a = C - eps
        k = 1.0 + np.log(G) - S / G
        x = -a * np.exp(-k)
        # Rounding can push x to or below the branch point -1/e, where
        # W0 = -1 (and scipy returns NaN at -1/e itself).
        above = x > -1.0 / math.e
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.where(above, -a / lambertw(np.where(above, x, 0.0)).real, a)
        u = np.where(a == 0.0, np.exp(k), u)
        bounds = np.concatenate(([0.0], self.breaks, [math.inf]))
        p_o = np.minimum(np.maximum(u - C, bounds[m - 1]), bounds[m])
        return np.where(eps == 0.0, 0.0, p_o)[()]


def covariances_for_level(eff: EffectiveChannels, weights, levels) -> CovarianceSet:
    """Closed-form covariances at each water level of an array (positive
    part applied), stacked along the leading axes of ``levels``; an
    infinite level carries no power and gives exact zero matrices."""
    levels = np.asarray(levels, dtype=float)
    if not np.all(levels > 0.0):
        raise ValueError("water levels must be positive")
    w = resolve_weights(eff, weights)
    on = np.isfinite(levels)[..., None, None]
    Phi = []
    for gamma, X, lam in zip(w, eff.X, eff.lam):
        d = np.maximum(gamma * lam / levels[..., None] - 1.0, 0.0)
        P = (X * d[..., None, :]) @ X.conj().T
        Phi.append(np.where(on, 0.5 * (P + P.conj().swapaxes(-1, -2)), 0.0))
    return CovarianceSet(tuple(Phi))


@dataclass(frozen=True)
class WaterLevelSolution:
    """Water level, its covariances, and the realized power and rate."""

    level: float
    power: float
    rate: float
    covs: CovarianceSet


def solve_budget(eff: EffectiveChannels, weights, budget: float) -> WaterLevelSolution:
    """Full water-filling solution (level, covariances, rate) for a budget."""
    if not (0.0 <= budget < math.inf):
        raise ValueError("budget must be nonnegative and finite")
    sys = WaterSystem(eff, weights)
    power = float(budget)
    level, m = sys.level_at_power_vec(power)
    rate = sys.rate_at_level_vec(level, m)
    return WaterLevelSolution(float(level), power, float(rate), sys.covariances(power))
