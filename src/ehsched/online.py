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
realized schedule plus a cumulative-throughput trace.  Each epoch yields
two plain named tuples, a :class:`SplitDecision` and an
:class:`EpochDecision`, written together as one row of a per-run table.
The table's columns become a :class:`~ehsched.offline.Schedule` through
``Schedule.assemble``, the assembly the offline solvers use, and the trace
is the exact running sum of that schedule's ``tau * rate``, so its last
value is the throughput bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
    # Memoryviews index to Python floats without copying the arrays.
    E, l = memoryview(timeline.E), memoryview(timeline.l)
    remaining = memoryview(timeline.T - timeline.t)
    if eps_arr is not None:
        p_o, eps_list = memoryview(ws.efficient_power(eps_arr)), memoryview(eps_arr)

    # One row per epoch: the SplitDecision fields, then the EpochDecision's;
    # the schedule's arrays are this table's columns.
    rows = np.empty((N, 11))
    for i in range(N):
        split = split_arrival(store, E[i])
        if eps_arr is None:
            dec = policy_ideal(store, p_peak, l[i], remaining[i])
        else:
            dec = policy_circuit(store, p_o[i], p_peak, eps_list[i], l[i])
        store.drain(dec.d_sc, dec.d_b)
        rows[i] = split + dec
    dep_sc, dep_b, discarded, tau, power, p_sc, p_b, eps_sc, eps_b, _, _ = rows.T

    sched = Schedule.assemble(
        tau, power, p_sc, p_b, eps_sc, eps_b, ArrivalSplit(sc=dep_sc, b=dep_b), ws
    )
    trace = np.zeros((N + 1, 2))
    trace[1:, 0] = timeline.t + timeline.l
    partials: list[float] = []
    for i, gain in enumerate((tau * sched.rate).tolist(), start=1):
        _add_exact(partials, gain)
        trace[i, 1] = math.fsum(partials)
    return OnlineResult(schedule=sched, trace=trace, discarded=discarded)
