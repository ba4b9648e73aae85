"""One-epoch scheduling with circuit power: transmit hard, then sleep.

While transmitting at sum power p the transmitter also burns a constant
circuit power eps, so draining a drainable budget E_tol = E_sc + eta*E_b
over a window t means choosing p and a transmission length
tau = E_tol/(p + eps) (equality: leftover energy would be wasted unless
the peak limit forces it).  The throughput tau*W(p) is maximized by the
power p_o that maximizes the efficiency ratio W(p)/(p + eps), which does
not depend on the energies at all.

p_o is exact.  On each water-filling segment W(p) = S - G ln G +
G ln(p + C) (see :mod:`ehsched.waterfill`), so the stationarity condition
W'(p)(p + eps) = W(p) becomes ln u + a/u = k with u = p + C,
a = C - eps and k = 1 + ln G - S/G.  Writing u = -a/z turns it into
z e^z = -a e^{-k}, so u = -a / W0(-a e^{-k}) with the principal Lambert-W
branch (Corless et al., Adv. Comput. Math. 5, 1996), or u = e^k when
a = 0; the other real branch gives u < a, i.e. p < -eps.  Which segment
holds p_o is exact too: g(p) = W'(p)(p + eps) - W(p) starts at
eps*W'(0) > 0 and falls with p, and the ratio rises exactly while g > 0,
so p_o lies on the segment after the last breakpoint where g > 0.

The budget and window then select one of three regimes:

    p_o < p_peak and E_tol <  t*(p_o + eps)    -> p = p_o, tau < t
    p_o < p_peak and E_tol in the middle range -> p = E_tol/t - eps, tau = t
    otherwise                                  -> p = p_peak

The drained energy is funded SC-first and the circuit draw follows
whichever buffer funds that slice of time.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .channels import EffectiveChannels
from .energy import check_powers
from .waterfill import WaterSystem


def solve_p_o(eff: EffectiveChannels, weights, eps):
    """The efficiency-optimal power: the maximizer of W(p)/(p + eps), for
    a scalar circuit power or each of an array.

    Harvested energies are deliberately not inputs: p_o is a property of
    the channels, weights and circuit power alone.  eps = 0 returns 0
    (the ratio W(p)/p is then decreasing).
    """
    eps = check_powers(eps=np.asarray(eps, dtype=float))
    return WaterSystem(eff, weights).efficient_power(eps)


class EpochDecision(NamedTuple):
    """One epoch's transmission decision and the resulting buffer drains."""

    tau: float            # transmission length (s)
    power: float          # sum transmit power while on (J/s)
    p_sc: float           # transmit power funded by the SC
    p_b: float            # transmit power funded by the battery
    eps_sc: float         # circuit power funded by the SC
    eps_b: float          # circuit power funded by the battery
    d_sc: float           # SC energy consumed (J)
    d_b: float            # battery energy consumed (drainable J)


class SingleEpochSolution(NamedTuple):
    """Optimal one-epoch action: the fields of its :class:`EpochDecision`
    (the drains named ``drained_*``) followed by its throughput."""

    tau: float
    power: float
    p_sc: float
    p_b: float
    eps_sc: float
    eps_b: float
    drained_sc: float
    drained_b: float
    throughput: float     # tau * W(power), nats


def _burst_window(
    e_tol: float, p_o: float, eps: float, p_peak: float, t: float
) -> tuple[float, float]:
    """``(tau, power)`` of the one-shot burst rule for a drainable budget
    ``e_tol`` over a window of length ``t`` (the three regimes above),
    given the burst power ``p_o`` of the circuit power ``eps``."""
    if e_tol <= 1e-15:
        return 0.0, 0.0
    if p_o < p_peak:
        if e_tol < t * (p_o + eps):
            power = p_o
        elif e_tol > t * (p_peak + eps):
            power = p_peak
        else:
            power = e_tol / t - eps
    else:
        power = p_peak
    return min(t, e_tol / (power + eps)), power


def _split_drains(
    level_sc: float, level_b: float, tau: float, power: float, eps: float
) -> EpochDecision:
    """Drain the consumed energy ``tau * (power + eps)`` super-capacitor
    first (``level_b`` is drainable J) and attribute powers to the buffers
    in proportion to their share of the consumption."""
    consumed = tau * (power + eps)
    if consumed <= 0.0:
        return EpochDecision(tau, power, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    d_sc = min(level_sc, consumed)
    d_b = min(level_b, consumed - d_sc)
    frac = d_sc / consumed
    return EpochDecision(
        tau, power, power * frac, power * (1.0 - frac), eps * frac, eps * (1.0 - frac), d_sc, d_b
    )


def solve_single_epoch(
    eff: EffectiveChannels,
    weights,
    e_sc: float,
    e_b: float,
    eta: float,
    eps: float,
    p_peak: float,
    t: float,
) -> SingleEpochSolution:
    """Drain (part of) a hybrid store optimally over a window of length t.

    ``e_b`` is the raw deposited battery energy; only eta*e_b of it is
    drainable.  Returns the canonical SC-first split.  Unless the peak
    power limit truncates it, the drain is exhaustive:
    tau*(power + eps) = E_tol.
    """
    if not (t > 0.0):
        raise ValueError("window length must be positive")
    if not (0.0 < eta <= 1.0):
        raise ValueError("drain efficiency must be in (0, 1]")
    if not (0.0 <= e_sc < math.inf and 0.0 <= e_b < math.inf):
        raise ValueError("energies must be nonnegative and finite")
    check_powers(p_peak, eps)
    sys = WaterSystem(eff, weights)
    p_o = float(sys.efficient_power(eps))
    tau, power = _burst_window(e_sc + eta * e_b, p_o, eps, p_peak, t)
    dec = _split_drains(e_sc, eta * e_b, tau, power, eps)
    return SingleEpochSolution(*dec, tau * float(sys.rate_at_power_vec(power)))
