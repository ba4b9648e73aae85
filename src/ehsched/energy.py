"""Harvest timelines, hybrid supercapacitor/battery storage, feasibility.

Energy E_i arrives at time t_i (t_0 = 0); epoch i is [t_i, t_{i+1}) with
the deadline T closing the last epoch.  Each arrival is split between a
lossless supercapacitor (SC) with a small capacity and a battery with a
large capacity whose stored energy can only be drained at efficiency
eta.  Battery levels are tracked in drainable units throughout: a raw
deposit of x J records eta*x, and the capacity comparison happens in
those units.  :func:`storage_slacks` is the one home of the storage
constraints, which the audit and the offline reconstruction both read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Constraint slacks may go this far negative before a schedule is
# declared infeasible (J).
FEAS_TOL = 1e-8


def check_powers(p_peak=None, eps=None, epochs: int | None = None):
    """Check a peak power (positive and finite) and a circuit power, scalar
    or per epoch (nonnegative and finite); ``None`` skips a check.  Returns
    ``eps`` as floats, copied out to ``epochs`` entries when that is given."""
    if p_peak is not None and not (p_peak > 0.0 and math.isfinite(p_peak)):
        raise ValueError("p_peak must be positive and finite")
    if eps is None:
        return None
    eps = np.asarray(eps, dtype=float)
    if epochs is not None:
        eps = np.broadcast_to(eps, (epochs,)).copy()
    if not np.all((eps >= 0.0) & np.isfinite(eps)):
        raise ValueError("circuit power must be nonnegative and finite")
    return eps


@dataclass(frozen=True)
class EpochTimeline:
    """Arrival instants, amounts and the epoch lengths they induce."""

    t: np.ndarray
    E: np.ndarray
    T: float
    l: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        E = np.asarray(self.E, dtype=float)
        if t.ndim != 1 or t.shape != E.shape or t.size == 0:
            raise ValueError("need matching non-empty arrival time/amount arrays")
        if not (np.all(np.isfinite(t)) and math.isfinite(self.T)):
            raise ValueError("arrival times and the deadline must be finite")
        if t[0] != 0.0:
            raise ValueError("first arrival must be at t=0")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("arrival times must be strictly increasing")
        if not (self.T > 0.0) or t[-1] >= self.T:
            raise ValueError("deadline must exceed every arrival time")
        if np.any(E < 0.0) or not np.all(np.isfinite(E)):
            raise ValueError("arrival amounts must be finite and non-negative")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "l", np.diff(np.append(t, self.T)))

    @property
    def N(self) -> int:
        return self.t.size

    def total_energy(self) -> float:
        return float(self.E.sum())


def build_timeline(arrivals, T: float) -> EpochTimeline:
    """Validate (t_i, E_i) pairs and compute epoch lengths."""
    arr = np.asarray(arrivals, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("arrivals must be a sequence of (time, amount) pairs")
    return EpochTimeline(t=arr[:, 0], E=arr[:, 1], T=float(T))


def generate_compound_poisson(
    rate: float, e_avg: float, T: float, initial: float, seed: int | None = None, rng=None
) -> EpochTimeline:
    """Arrival at t=0 with ``initial`` J, then a compound Poisson process.

    Inter-arrival gaps are exponential(rate) and amounts are uniform on
    [0, 2*e_avg], so the mean harvested power is rate*e_avg.  Pass either
    a ``seed`` or an existing ``numpy`` ``Generator``.  Every parameter
    must be finite: an infinite rate or deadline would never end the draw.
    """
    if not all(math.isfinite(v) for v in (rate, e_avg, T, initial)):
        raise ValueError("rate, mean energy, deadline and initial energy must be finite")
    if rate <= 0.0 or e_avg < 0.0 or T <= 0.0 or initial < 0.0:
        raise ValueError("rate and deadline must be positive, energies non-negative")
    if rng is None:
        if seed is None:
            raise ValueError("either seed or rng is required")
        rng = np.random.Generator(np.random.Philox(key=seed))
    times = [0.0]
    amounts = [float(initial)]
    t = rng.exponential(1.0 / rate)
    while t < T:
        times.append(float(t))
        amounts.append(float(rng.uniform(0.0, 2.0 * e_avg)))
        t += rng.exponential(1.0 / rate)
    return EpochTimeline(t=np.array(times), E=np.array(amounts), T=float(T))


@dataclass(frozen=True)
class ArrivalSplit:
    """Raw per-arrival deposits: sc[i] + b[i] must equal E_i (offline)."""

    sc: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        sc = np.asarray(self.sc, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if sc.shape != b.shape or sc.ndim != 1:
            raise ValueError("split arrays must be matching 1-d arrays")
        object.__setattr__(self, "sc", sc)
        object.__setattr__(self, "b", b)


@dataclass
class HybridStorage:
    """Two-buffer store: capacities, drain efficiency and initial levels.

    The solvers and :func:`~ehsched.online.run_online` read these fields
    (``run_online`` copies the levels into plain floats); ``deposit`` and
    ``drain`` update the levels in place.

    ``level_b`` is in drainable units.  Deposits beyond a buffer's
    remaining headroom raise; discarding surplus is a policy decision
    made by the caller, never here.
    """

    sc_cap: float
    b_cap: float
    eta: float
    level_sc: float = 0.0
    level_b: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.eta <= 1.0):
            raise ValueError(f"drain efficiency must be in (0, 1], got {self.eta}")
        if not (0.0 < self.sc_cap < math.inf and 0.0 < self.b_cap < math.inf):
            raise ValueError("storage capacities must be positive and finite")
        if not self.sc_cap < self.b_cap:
            raise ValueError("the SC must be the small buffer (sc_cap < b_cap)")
        if not (0.0 <= self.level_sc < math.inf and 0.0 <= self.level_b < math.inf):
            raise ValueError("storage levels must be nonnegative and finite")
        # The bound of ``deposit``: every state a deposit reaches constructs.
        if self.level_sc > self.sc_cap + FEAS_TOL or self.level_b > self.b_cap + FEAS_TOL:
            raise ValueError("storage levels must not exceed their capacities")

    def deposit(self, e_sc: float, e_b: float) -> None:
        """Deposit raw energy into each buffer; battery records eta*e_b."""
        if not (e_sc >= 0.0 and e_b >= 0.0):
            raise ValueError("deposits must be non-negative")
        if self.level_sc + e_sc > self.sc_cap + FEAS_TOL:
            raise ValueError("SC deposit exceeds capacity headroom")
        if self.level_b + self.eta * e_b > self.b_cap + FEAS_TOL:
            raise ValueError("battery deposit exceeds capacity headroom")
        self.level_sc += e_sc
        self.level_b += self.eta * e_b

    def drain(self, d_sc: float, d_b: float) -> None:
        if not (d_sc >= -FEAS_TOL and d_b >= -FEAS_TOL):
            raise ValueError("drains must be non-negative")
        if d_sc > self.level_sc + FEAS_TOL or d_b > self.level_b + FEAS_TOL:
            raise ValueError("drain exceeds stored energy")
        self.level_sc = max(0.0, self.level_sc - d_sc)
        self.level_b = max(0.0, self.level_b - d_b)

    @property
    def drainable(self) -> float:
        """Energy retrievable right now (SC + discounted battery)."""
        return self.level_sc + self.level_b

    def headroom_raw(self) -> tuple[float, float]:
        """Remaining deposit headroom of each buffer in raw J."""
        return (
            max(0.0, self.sc_cap - self.level_sc),
            max(0.0, (self.b_cap - self.level_b) / self.eta),
        )

    def copy(self) -> "HybridStorage":
        return HybridStorage(
            self.sc_cap, self.b_cap, self.eta, self.level_sc, self.level_b
        )


def storage_slacks(storage: HybridStorage, e_sc, e_b, d_sc, d_b) -> dict:
    """The storage constraint families as signed slacks (J) from raw
    per-arrival deposits and per-epoch drains (battery drains in drainable
    units); overflow is judged at each arrival, before its epoch's drain."""
    dep_sc = np.cumsum(e_sc)
    dep_b = np.cumsum(storage.eta * e_b)
    use_sc = np.cumsum(d_sc)
    use_b = np.cumsum(d_b)
    prev_sc = np.concatenate(([0.0], use_sc[:-1]))
    prev_b = np.concatenate(([0.0], use_b[:-1]))
    return {
        "sc_causality": dep_sc - use_sc,
        "sc_overflow": storage.sc_cap - (dep_sc - prev_sc),
        "b_causality": dep_b - use_b,
        "b_overflow": storage.b_cap - (dep_b - prev_b),
    }


@dataclass(frozen=True)
class FeasibilityReport:
    """Signed slacks per constraint family (>= 0 means satisfied).

    Every constraint is a slack, an equality as two: the audit holds
    ``arrival_split`` (``E - sc - b``), and an offline solve adds
    ``arrival_unrouted`` (``sc + b - E``) for the other side."""

    slacks: dict

    @property
    def min_slack(self) -> float:
        vals = [float(np.min(v)) for v in self.slacks.values() if np.size(v)]
        return min(vals) if vals else 0.0

    @property
    def feasible(self) -> bool:
        return self.min_slack >= -FEAS_TOL

    def worst(self) -> str:
        return "; ".join(
            f"{name}: min slack {np.min(v):+.3e}" for name, v in self.slacks.items() if np.size(v)
        )


def check_feasibility(
    timeline: EpochTimeline,
    split: ArrivalSplit,
    schedule,
    storage: HybridStorage,
    p_peak: float,
) -> FeasibilityReport:
    """Evaluate every storage/power constraint family for a schedule.

    ``schedule`` needs per-epoch arrays p_sc, p_b, eps_sc, eps_b, tau
    (any object with those attributes).  Deposits beyond capacity show up
    as negative overflow slack here rather than being clipped.
    """
    N = timeline.N
    if split.sc.size != N:
        raise ValueError("one split per arrival is required")
    tau, p_sc, p_b, eps_sc, eps_b = (
        np.asarray(getattr(schedule, name), dtype=float)
        for name in ("tau", "p_sc", "p_b", "eps_sc", "eps_b")
    )
    if any(v.shape != (N,) for v in (tau, p_sc, p_b, eps_sc, eps_b)):
        raise ValueError("one schedule entry per epoch is required")
    slacks = {
        **storage_slacks(storage, split.sc, split.b, (p_sc + eps_sc) * tau, (p_b + eps_b) * tau),
        "peak_power": p_peak - (p_sc + p_b),
        "tau_bounds": np.minimum(tau, timeline.l - tau),
        "nonneg_power": np.concatenate([p_sc, p_b, eps_sc, eps_b]),
        "nonneg_split": np.concatenate([split.sc, split.b]),
        # Routed energy cannot exceed the arrival; a causal policy may
        # discard the excess when both buffers are full, so this is a
        # one-sided constraint rather than an equality.
        "arrival_split": timeline.E - (split.sc + split.b),
    }
    return FeasibilityReport(slacks)
