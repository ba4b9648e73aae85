"""Causal scheduling policies.

These policies see only the current buffer levels and the time left until
the deadline — never future arrivals.  Each arrival is routed to storage
super-capacitor-first (its charge path is lossless); whatever fits in
neither buffer is lost.  Two transmission rules are provided:

* :func:`policy_ideal` — spread the currently drainable energy evenly
  over the remaining horizon, clipped at the peak power.
* :func:`policy_circuit` — apply the optimal one-shot burst rule to the
  current buffers with the epoch itself as the window: burn at the
  efficiency-optimal power when energy is scarce, ramp up to the peak
  when the buffers hold more than the epoch can carry at that power;
  undrained energy stays buffered for later epochs.

:func:`run_online` drives either rule across a timeline and returns the
realized schedule plus a cumulative-throughput trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import EffectiveChannels
from .energy import ArrivalSplit, EpochTimeline, HybridStorage, check_powers
from .offline import Schedule
from .single_epoch import EpochDecision, _burst_window, _split_drains
from .waterfill import WaterSystem

__all__ = [
    "SplitDecision",
    "EpochDecision",
    "OnlineResult",
    "split_arrival",
    "policy_ideal",
    "policy_circuit",
    "run_online",
]


@dataclass(frozen=True)
class SplitDecision:
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
    if amount < 0.0:
        raise ValueError("arrival amount must be nonnegative")
    head_sc, head_b = storage.headroom_raw()
    sc = min(amount, head_sc)
    b = min(amount - sc, head_b)
    discarded = max(amount - sc - b, 0.0)
    storage.deposit(sc, b)
    return SplitDecision(sc=sc, b=b, discarded=discarded)


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


def _add_exact(partials: list[float], x: float) -> None:
    """Add ``x`` to a running sum held as non-overlapping partials
    (Shewchuk, DCG 1997; the algorithm of ``math.fsum``), so that
    ``math.fsum(partials)`` equals ``math.fsum`` of every term added so far."""
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


@dataclass(frozen=True)
class OnlineResult:
    """Realized causal schedule, its cumulative-throughput trace (one row
    ``(time, throughput)`` per epoch boundary) and per-arrival discards."""

    schedule: Schedule
    trace: np.ndarray
    discarded: np.ndarray

    @property
    def throughput(self) -> float:
        return self.schedule.objective


def run_online(
    eff: EffectiveChannels,
    weights,
    timeline: EpochTimeline,
    storage: HybridStorage,
    p_peak: float,
    eps=None,
) -> OnlineResult:
    """Run a causal policy over a timeline.

    ``eps=None`` selects the even-spreading rule; a scalar or per-epoch
    array selects the burst rule with that circuit power.  The caller's
    storage object is not modified.
    """
    N = timeline.N
    eps_arr = check_powers(p_peak, eps, N)
    store = storage.copy()
    ws = WaterSystem(eff, weights)
    p_o = None if eps_arr is None else ws.efficient_power(eps_arr)

    tau = np.zeros(N)
    p_sc = np.zeros(N)
    p_b = np.zeros(N)
    eps_sc = np.zeros(N)
    eps_b = np.zeros(N)
    dep_sc = np.zeros(N)
    dep_b = np.zeros(N)
    discarded = np.zeros(N)
    power = np.zeros(N)

    for i in range(N):
        split = split_arrival(store, float(timeline.E[i]))
        dep_sc[i], dep_b[i], discarded[i] = split.sc, split.b, split.discarded
        remaining = float(timeline.T - timeline.t[i])
        if eps_arr is None:
            dec = policy_ideal(store, p_peak, float(timeline.l[i]), remaining)
        else:
            dec = policy_circuit(
                store, float(p_o[i]), p_peak, float(eps_arr[i]), float(timeline.l[i])
            )
        store.drain(dec.d_sc, dec.d_b)
        tau[i], power[i] = dec.tau, dec.power
        p_sc[i], p_b[i] = dec.p_sc, dec.p_b
        eps_sc[i], eps_b[i] = dec.eps_sc, dec.eps_b

    rate = ws.rate_at_power_vec(power)
    trace = [(0.0, 0.0)]
    partials: list[float] = []
    for end, gain in zip((timeline.t + timeline.l).tolist(), (tau * rate).tolist()):
        _add_exact(partials, gain)
        trace.append((end, math.fsum(partials)))

    sched = Schedule(
        tau=tau,
        p_sc=p_sc,
        p_b=p_b,
        eps_sc=eps_sc,
        eps_b=eps_b,
        split=ArrivalSplit(sc=dep_sc, b=dep_b),
        covs=ws.covariances(power),
        power=power,
        rate=rate,
        objective=trace[-1][1],
    )
    return OnlineResult(schedule=sched, trace=np.asarray(trace), discarded=discarded)
