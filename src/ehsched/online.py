"""Causal scheduling policies.

These policies see only the current buffer levels and the time left until
the deadline — never future arrivals.  Each arrival is routed to storage
super-capacitor-first (its charge path is lossless); whatever fits in
neither buffer is lost.  Two transmission rules are provided:

* even spreading (``eps=None``) — spread the currently drainable energy
  evenly over the remaining horizon, clipped at the peak power.
* the burst rule (a circuit power ``eps``) — apply the optimal one-shot
  burst rule of :mod:`ehsched.single_epoch` to the current buffers with
  the epoch itself as the window: burn at the efficiency-optimal power
  when energy is scarce, ramp up to the peak when the buffers hold more
  than the epoch can carry at that power; undrained energy stays
  buffered for later epochs.

:func:`run_online` drives either rule across a timeline and returns the
realized schedule plus a cumulative-throughput trace.  It checks once that
every arrival and both starting levels are nonnegative and finite; each
rule then has its own loop, which keeps the two storage levels as plain
floats and applies the routing, the rule and :class:`HybridStorage`'s
deposit and drain to them.  The test suite's per-epoch reference
(``tests/reference_online.py``) writes the same rules out as one call per
epoch on a :class:`HybridStorage`; the loops use the same float
operations in the same order, so a run equals the epoch-by-epoch loop
over those functions bit for bit.  Each epoch stores the values that
depend on the storage levels (the two deposits, the power, the
super-capacitor drain and, for the burst rule, the window) into a per-run
table of six contiguous columns, one ``memoryview`` per column; the
consumption, the discards and the per-buffer powers follow from those
columns after the loop, with the same float operations.  The columns
become a :class:`~ehsched.offline.Schedule` with the rates of
``Schedule.assemble``, the assembly the offline solvers use.  The trace
holds the exact prefix sums of ``tau * rate``, each correctly rounded
once, formed once per run: its last value is the correctly rounded sum
that ``Schedule.assemble`` takes as the objective, bit for bit, so it is
the schedule's throughput.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate, repeat

import numpy as np

from .channels import EffectiveChannels
from .energy import FEAS_TOL, ArrivalSplit, EpochTimeline, HybridStorage, check_powers
from .offline import Schedule
from .waterfill import WaterSystem

__all__ = ["OnlineResult", "run_online"]


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


def _exact_prefix_sums(g: np.ndarray) -> np.ndarray:
    """Every prefix sum of ``g``, each correctly rounded: entry ``k`` equals
    ``math.fsum(g[:k + 1])`` bit for bit.

    The terms are summed exactly (Kulisch): each finite double is a 53-bit
    integer mantissa times a power of two, so shifting every mantissa to
    the smallest exponent present (or to 2**0, whichever is smaller) makes
    every prefix an integer multiple of one power of two, ``2**base``.

    When the terms span few enough binades, each shifted mantissa is split
    at bit 40 into two int64 limbs, ``hi * 2**40 + lo`` with ``0 <= lo <
    2**40``, and each limb is summed with ``cumsum``; after one carry from
    ``lo`` into ``hi``, both are exact doubles, so ``hi * 2**40 + lo`` is
    one correctly rounded addition.  Otherwise the prefixes are Python
    ints, whose conversion to float rounds correctly, as ``math.fsum``
    does.  Scaling by ``2**base`` is then exact: a result in the normal
    range keeps all 53 bits, and a subnormal one is a multiple of 2**-1074
    (as every double is) below 2**-1022, which the prefix held exactly.
    When the terms span so many binades that a prefix could reach 2**1023
    before scaling, each prefix is instead divided by ``2**-base`` with
    Python's correctly rounded int true division.
    """
    frac, exp = np.frexp(g)
    mant = np.ldexp(frac, 53, out=frac).astype(np.int64)
    exp -= 53
    nonzero = mant != 0
    if not nonzero.any():
        return np.zeros(g.size)
    low, high = int(exp[nonzero].min()), int(exp[nonzero].max())
    base = min(low, 0)
    shift = np.where(nonzero, exp - base, 0)
    # Each |term| < 2**(53 + high - base), so every |prefix| of the g.size
    # terms is below 2**(bits + 53 + high - base).
    bits = g.size.bit_length()
    if bits + 13 + high - base <= 53 and bits <= 23:
        # Then every |hi| prefix is below 2**53 and every lo prefix below
        # 2**63; and shift <= 39, so each term splits below bit 40.  The
        # widths are int64: frexp's int32 exponents would overflow 1 << 40.
        width = np.subtract(40, shift, dtype=np.int64)
        hi = np.right_shift(mant, width)
        np.left_shift(1, width, out=width)
        width -= 1
        mant &= width
        lo = np.left_shift(mant, shift, out=mant)
        np.cumsum(hi, out=hi)
        np.cumsum(lo, out=lo)
        hi += np.right_shift(lo, 40, out=width)
        lo &= (1 << 40) - 1
        out = np.multiply(hi, 2.0**40, out=frac)
        out += lo
        return np.ldexp(out, base, out=out)
    # Memoryviews index to Python ints without materializing lists.
    prefixes = accumulate(map(operator.lshift, memoryview(mant), memoryview(shift)))
    if bits + 53 + high - base <= 1023:
        out = np.fromiter(map(float, prefixes), float, g.size)
        return np.ldexp(out, base, out=out)
    return np.fromiter(map(operator.truediv, prefixes, repeat(1 << -base)), float, g.size)


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
    # Checked on construction too, but a caller may change either since.
    if not (0.0 <= timeline.E.min() and timeline.E.max() < math.inf):
        raise ValueError("arrival amount must be nonnegative and finite")
    if not (0.0 <= storage.level_sc < math.inf and 0.0 <= storage.level_b < math.inf):
        raise ValueError("storage levels must be nonnegative and finite")
    ws = WaterSystem.shared(eff, weights)
    table = np.empty((6, N))
    if eps_arr is None:
        _spread_evenly(timeline, storage, p_peak, table)
    else:
        _burst(timeline, storage, p_peak, eps_arr, ws.efficient_power(eps_arr), table)

    # The discards and the per-buffer shares of _split_drains, with the
    # loop's float operations in its order, over whole columns: frac =
    # d_sc / consumed, and exact zeros where nothing was consumed.  The
    # drain and consumption columns are overwritten with p_sc and p_b.
    dep_sc, dep_b, tau, power, frac, consumed = table
    discarded = timeline.E - dep_sc
    discarded -= dep_b
    discarded[discarded < 0.0] = 0.0
    idle = consumed <= 0.0
    np.divide(frac, consumed, out=frac, where=~idle)  # d_sc is 0.0 where idle
    rest = np.subtract(1.0, frac, out=consumed)
    eps_col = 0.0 if eps_arr is None else eps_arr
    eps_sc, eps_b = eps_col * frac, eps_col * rest
    p_sc = np.multiply(power, frac, out=frac)
    p_b = np.multiply(power, rest, out=rest)
    for col in (p_sc, p_b, eps_sc, eps_b):
        col[idle] = 0.0

    # Schedule.assemble's rates; its objective, the correctly rounded sum
    # of tau * rate, is the trace's last prefix sum bit for bit.
    rate = ws.rate_at_power_vec(power)
    trace = np.zeros((N + 1, 2))
    trace[1:, 0] = timeline.t + timeline.l
    trace[1:, 1] = _exact_prefix_sums(tau * rate)
    split = ArrivalSplit(sc=dep_sc, b=dep_b)
    sched = Schedule(tau, p_sc, p_b, eps_sc, eps_b, split, power, rate, float(trace[N, 1]), ws)
    return OnlineResult(schedule=sched, trace=trace, discarded=discarded)


# The two loops inline the reference's split_arrival, HybridStorage.deposit,
# the policy (policy_ideal, or policy_circuit with its _burst_window),
# _split_drains and HybridStorage.drain: each ``y if y < x else x`` is
# ``min(x, y)`` and each ``y if y > x else x`` is ``max(x, y)``, operand for
# operand, without the builtin's call.  After run_online's entry checks no
# deposit or drain is negative or exceeds its level, so only the headroom
# guards remain (for levels set above capacity after construction), and a
# zero consumption needs no branch.  Memoryviews index the input arrays to
# Python floats, and store into the rows of ``table``, without copies.


def _spread_evenly(timeline: EpochTimeline, storage: HybridStorage, p_peak: float, table):
    """Even spreading: each epoch radiates the drainable energy over the
    time left, clipped at the peak, for the whole epoch.  With no circuit
    power the reference's ``tau * (power + 0.0)`` is ``length * power``
    (power is never -0.0): every window is the whole epoch, and the
    consumption column is taken after the loop."""
    sc_cap, b_cap, eta = storage.sc_cap, storage.b_cap, storage.eta
    level_sc, level_b = storage.level_sc, storage.level_b
    sc_limit, b_limit = sc_cap + FEAS_TOL, b_cap + FEAS_TOL
    c_sc, c_b, _, c_power, c_d_sc, _ = map(memoryview, table)
    epochs = zip(
        memoryview(timeline.E), memoryview(timeline.l), memoryview(timeline.T - timeline.t)
    )
    for i, (amount, length, remaining) in enumerate(epochs):
        head = sc_cap - level_sc
        head = head if head > 0.0 else 0.0
        sc = head if head < amount else amount
        rest = amount - sc
        head = (b_cap - level_b) / eta
        head = head if head > 0.0 else 0.0
        b = head if head < rest else rest
        level_sc += sc
        if level_sc > sc_limit:
            raise ValueError("SC deposit exceeds capacity headroom")
        level_b += eta * b
        if level_b > b_limit:
            raise ValueError("battery deposit exceeds capacity headroom")

        power = (level_sc + level_b) / remaining
        power = power if power < p_peak else p_peak
        consumed = length * power

        d_sc = consumed if consumed < level_sc else level_sc
        d_b = consumed - d_sc
        d_b = d_b if d_b < level_b else level_b
        level_sc -= d_sc
        level_b -= d_b
        c_sc[i] = sc
        c_b[i] = b
        c_power[i] = power
        c_d_sc[i] = d_sc
    table[2] = timeline.l
    np.multiply(timeline.l, table[3], out=table[5])


def _burst(timeline: EpochTimeline, storage: HybridStorage, p_peak: float, eps, p_o, table):
    """The burst rule with the epoch as the window: burn at p_o while the
    buffers hold less than the epoch carries at p_o, at the peak when they
    hold more than it carries at the peak, and spread the whole epoch in
    between.  The consumption column ``tau * (power + eps)`` is taken
    after the loop, with the reference's float operations."""
    sc_cap, b_cap, eta = storage.sc_cap, storage.b_cap, storage.eta
    level_sc, level_b = storage.level_sc, storage.level_b
    sc_limit, b_limit = sc_cap + FEAS_TOL, b_cap + FEAS_TOL
    c_sc, c_b, c_tau, c_power, c_d_sc, _ = map(memoryview, table)
    epochs = zip(memoryview(timeline.E), memoryview(timeline.l), memoryview(eps), memoryview(p_o))
    for i, (amount, length, eps_i, p_o_i) in enumerate(epochs):
        head = sc_cap - level_sc
        head = head if head > 0.0 else 0.0
        sc = head if head < amount else amount
        rest = amount - sc
        head = (b_cap - level_b) / eta
        head = head if head > 0.0 else 0.0
        b = head if head < rest else rest
        level_sc += sc
        if level_sc > sc_limit:
            raise ValueError("SC deposit exceeds capacity headroom")
        level_b += eta * b
        if level_b > b_limit:
            raise ValueError("battery deposit exceeds capacity headroom")

        e_tol = level_sc + level_b
        if e_tol <= 1e-15:
            # tau * (power + eps) with tau = power = 0 and eps finite
            tau = power = consumed = 0.0
        else:
            if p_o_i < p_peak:
                if e_tol < length * (p_o_i + eps_i):
                    power = p_o_i
                elif e_tol > length * (p_peak + eps_i):
                    power = p_peak
                else:
                    power = e_tol / length - eps_i
            else:
                power = p_peak
            burn = power + eps_i
            tau = e_tol / burn
            tau = tau if tau < length else length
            consumed = tau * burn

        d_sc = consumed if consumed < level_sc else level_sc
        d_b = consumed - d_sc
        d_b = d_b if d_b < level_b else level_b
        level_sc -= d_sc
        level_b -= d_b
        c_sc[i] = sc
        c_b[i] = b
        c_tau[i] = tau
        c_power[i] = power
        c_d_sc[i] = d_sc
    np.multiply(table[2], np.add(table[3], eps, out=table[5]), out=table[5])
