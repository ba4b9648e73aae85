"""The per-epoch causal reference: the one-epoch burst rule and the
arrival routing and drain rules of the two online policies, one call per
epoch on a :class:`~ehsched.energy.HybridStorage`.

:func:`ehsched.online.run_online` inlines these rules with the same float
operations in the same order, so its run equals the epoch-by-epoch loop
over these functions bit for bit; ``test_online.py`` pins that.
:func:`solve_single_epoch` is the closed-form one-epoch optimum (the three
regimes of :mod:`ehsched.single_epoch`) that the offline tests compare
against.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ehsched.channels import EffectiveChannels
from ehsched.energy import HybridStorage, check_powers
from ehsched.waterfill import WaterSystem


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


class SplitDecision(NamedTuple):
    """How one arrival was routed: to the super-capacitor, to the battery
    (raw joules, before conversion loss), and the discarded excess."""

    sc: float
    b: float
    discarded: float


def split_arrival(storage: HybridStorage, amount: float) -> SplitDecision:
    """Deposit ``amount`` super-capacitor-first, spilling to the battery.

    Energy beyond both headrooms is discarded (the harvester is simply
    not used).  The storage element is updated in place.
    """
    if not (0.0 <= amount < math.inf):
        raise ValueError("arrival amount must be nonnegative and finite")
    head_sc, head_b = storage.headroom_raw()
    sc = min(amount, head_sc)
    b = min(amount - sc, head_b)
    discarded = max(amount - sc - b, 0.0)
    storage.deposit(sc, b)
    return SplitDecision(sc, b, discarded)


def policy_ideal(
    storage: HybridStorage, p_peak: float, l: float, remaining: float
) -> EpochDecision:
    """Even spreading: radiate ``drainable / remaining`` (clipped at the
    peak) for the whole epoch."""
    power = min(p_peak, storage.drainable / remaining)
    return _split_drains(storage.level_sc, storage.level_b, l, power, 0.0)


def policy_circuit(
    storage: HybridStorage,
    p_o: float,
    p_peak: float,
    eps: float,
    l: float,
) -> EpochDecision:
    """One-shot burst rule applied to the current epoch, with ``p_o`` the
    burst power of the circuit power ``eps``.

    The window is the epoch itself, so a well-stocked buffer is drained
    aggressively (up to the peak power for the whole epoch) rather than
    rationed against the far deadline; a scarce buffer is burned at the
    efficiency-optimal power for part of the epoch.  Deferring a burn
    never pays here: the throughput per joule is already maximal at that
    power, so holding energy only risks stranding it at the deadline.
    """
    tau, power = _burst_window(storage.drainable, p_o, eps, p_peak, l)
    return _split_drains(storage.level_sc, storage.level_b, tau, power, eps)
