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

from .channels import CovarianceSet, EffectiveChannels, resolve_weights

#: Coefficients b_k of t = sum_k b_k s^k, the series reversion of
#: (1 + t) ln(1 + t) - t = s^2/2 (exact rationals).  It converges for
#: s < sqrt(2); below s = _SERIES_S these twelve terms are exact to
#: rounding (the first omitted one is under 1e-17 of t).
_SERIES = (
    1.0, 1 / 6, -1 / 72, 1 / 270, -23 / 17280, 19 / 34020, -11237 / 43545600, 13 / 102060,
    -2482411 / 37623398400, 53741 / 1515591000, -272785979 / 13905608048640,
    51173 / 4605822000,
)
_SERIES_S = 0.1


class WaterSystem:
    """Flattened eigenmodes with prefix sums for exact O(log modes) queries:
    thresholds ``thr`` in decreasing order, the sums G, C, S of the first m
    modes in ``cg[m]``, ``cil[m]``, ``cgl[m]``, and the ``breaks``.  The
    tables are read-only, so one system can serve every caller of the
    same channels and weights (:meth:`shared`)."""

    def __init__(self, eff: EffectiveChannels, weights=None):
        w = np.array(resolve_weights(eff, weights))
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
        # For efficient_power, per segment j = m - 1 (the first m modes
        # active): its power bracket [_lo[j], _hi[j]], its C and its d
        # (zero on a segment that starts at p = 0) with expm1(-d).  p_o
        # passes breakpoint j where eps exceeds _eps_at_breaks[j], where
        # W'(p)(p + eps) = W(p) at the breakpoint.
        bounds = np.concatenate(([0.0], self.breaks, [math.inf]))
        self._lo, self._hi, self._C = bounds[:-1], bounds[1:], self.cil[1:]
        rate_at_breaks = self.cgl[1:-1] - self.cg[1:-1] * np.log(thr[1:])
        self._eps_at_breaks = np.maximum.accumulate(rate_at_breaks / thr[1:] - self.breaks)
        d = np.log(self.cg[1:] / self._C) - self.cgl[1:] / self.cg[1:]
        d[self._lo <= 0.0] = 0.0
        self._d, self._expm1_neg_d = d, np.expm1(-d)
        for table in (w, self.thr, self.cg, self.cil, self.cgl, self.breaks, self._lo, self._hi,
                      self._C, self._eps_at_breaks, self._d, self._expm1_neg_d):
            table.flags.writeable = False

    @classmethod
    def shared(cls, eff: EffectiveChannels, weights=None) -> "WaterSystem":
        """The system of ``eff`` and ``weights``, built on first use and
        kept on ``eff``: every later call with the same channel object
        and weight values returns the same system."""
        key = resolve_weights(eff, weights).tobytes()
        ws = eff._systems.get(key)
        if ws is None:
            ws = eff._systems[key] = cls(eff, weights)
        return ws

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
        holds p_o (one ``searchsorted`` in ``_eps_at_breaks``).  With
        t = p/C, r = eps/C and d = ln(G/C) - S/G on that segment (d <= 0,
        and d = 0 where the segment starts at p = 0, since W(0) = 0), the
        stationarity condition of :mod:`ehsched.single_epoch` reads

            F(t) = (1 + t)(ln(1 + t) - d) - t - r = 0,

        with F increasing and convex in t; on the first segment it is
        (1 + t) ln(1 + t) - t = r.  Two Halley steps on F, from a guess
        within 1% (w = ln(1 + t) - d solves e^w (w - 1) + 1 = rho, guessed
        by a Pade form of its branch-point series below rho = 0.7 and by
        Winitzki's approximation above), reach the root to a few ulp of
        p + C; the result is clamped into the segment's bracket, which
        also catches a NaN step.  Where p_o lies on the first segment with
        s = sqrt(2r) < 0.1, the series t = s + s^2/6 - s^3/72 + ... gives
        it instead, exact to rounding: p_o/sqrt(eps) tends to sqrt(2C) as
        eps -> 0, every eps > 0 gives p_o > 0, and eps = 0 gives 0, where
        W(p)/p is largest.
        """
        eps = np.asarray(eps, dtype=float)
        if not eps.any():
            return np.zeros_like(eps)[()]
        shape, eps = eps.shape, eps.reshape(-1)
        j = self._eps_at_breaks.searchsorted(eps)
        C, d = self._C[j], self._d[j]
        r = eps / C
        with np.errstate(divide="ignore", invalid="ignore"):
            # w = ln(1 + t) - d solves e^w (w - 1) + 1 = rho: a Pade form
            # of its branch-point series, or Winitzki's approximation.
            rho = r - (1.0 - r) * self._expm1_neg_d[j]
            q = np.sqrt(2.0 * rho)
            ln1 = np.log1p((rho - 1.0) / math.e)
            w = np.where(
                rho < 0.7,
                q * (8.0 + q) / (8.0 + q * (11.0 / 3.0)),
                1.0 + ln1 * (1.0 - np.log1p(ln1) / (2.0 + ln1)),
            )
            t = np.expm1(w + d)
            for _ in range(2):
                slope = np.log1p(t) - d  # F'(t); F''(t) = 1/(1 + t)
                vs = (1.0 + t) * slope
                step = (vs - t - r) / slope
                t -= step / (1.0 - 0.5 * step / vs)
        p_o = C * t
        series_r = 0.5 * _SERIES_S**2  # s = sqrt(2r) < _SERIES_S
        if r.min() < series_r:
            small = (r < series_r) & (self._lo[j] <= 0.0)
            # t = s * sum_k b_k s^(k-1) and p_o = C t, with C s computed
            # without forming the tiny r; eps = 0 gives p_o = 0.
            root2eps, rootC = np.sqrt(2.0 * eps[small]), np.sqrt(C[small])
            s = root2eps / rootC
            series = np.full_like(s, _SERIES[-1])
            for b in _SERIES[-2::-1]:
                series *= s
                series += b
            p_o[small] = root2eps * rootC * series
        # Clamp into the segment's bracket; a NaN step falls back to it.
        p_o = np.fmin(np.fmax(p_o, self._lo[j]), self._hi[j])
        return p_o.reshape(shape)[()]


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
    sys = WaterSystem.shared(eff, weights)
    power = float(budget)
    level, m = sys.level_at_power_vec(power)
    rate = sys.rate_at_level_vec(level, m)
    return WaterLevelSolution(float(level), power, float(rate), sys.covariances(power))
