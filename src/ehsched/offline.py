"""Whole-horizon (non-causal) schedule optimization.

Given the full arrival profile, channel decomposition, storage parameters,
peak power limit and (optionally) circuit power, compute the throughput-
optimal transmission schedule: per-epoch transmission windows, powers,
buffer drain splits, deposit splits and spatial covariances.

The problem is reduced to a concave program over per-epoch *consumed*
energies and per-arrival deposit splits.  For one epoch of length ``l``
with circuit power ``eps``, draining a total of ``c`` joules yields

    V(c) = c * W(p_thr) / (p_thr + eps)          c <= l*(p_thr + eps)
    V(c) = l * W(c/l - eps)                      otherwise

with ``p_thr = min(p_o, p_peak)`` — below the threshold the transmitter
bursts at the most energy-efficient power and sleeps, above it the whole
epoch is used.  ``V`` is concave and continuously differentiable, so the
horizon problem is maximization of a smooth separable concave function
over a polyhedron of buffer-causality, buffer-capacity, deposit and peak
constraints.  It is solved by an accelerated projected-gradient loop
(exact Euclidean projection via a least-distance subproblem) followed by
an active-set Newton refinement that drives the KKT residual to solver
precision.  Transmission windows, powers and covariances are then
recovered in closed form, and a dual certificate is fitted for the
structure checks in :func:`verify_structure`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import lsq_linear, nnls

from .channels import CovarianceSet, EffectiveChannels, weighted_rate
from .energy import FEAS_TOL, ArrivalSplit, EpochTimeline, FeasibilityReport, HybridStorage
from .energy import check_feasibility
from .waterfill import WaterSystem
from .waterfill import _weights as _resolve_weights

__all__ = [
    "SolverError",
    "OfflineInstance",
    "Schedule",
    "TransformedVariables",
    "DualCertificate",
    "OfflineSolution",
    "LemmaCheck",
    "LemmaReport",
    "solve_offline_ideal",
    "solve_offline_circuit",
    "solve_offline_general",
    "objective_from_covariances",
    "objective_from_transformed",
    "verify_structure",
]

#: Transmission windows shorter than this are snapped to zero (an epoch
#: carrying less than a microsecond of airtime is numerical noise).
TAU_SNAP = 1e-6


class SolverError(RuntimeError):
    """Raised when an instance is infeasible or the solver breaks down."""


# ---------------------------------------------------------------------------
# Problem description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OfflineInstance:
    """A frozen description of one whole-horizon scheduling problem.

    ``eps`` is ``None`` for the ideal (zero circuit power) variant, or an
    array of per-epoch circuit powers otherwise.
    """

    eff: EffectiveChannels
    weights: np.ndarray
    timeline: EpochTimeline
    sc_cap: float
    b_cap: float
    eta: float
    p_peak: float
    eps: np.ndarray | None

    @property
    def is_ideal(self) -> bool:
        return self.eps is None

    @property
    def eps_array(self) -> np.ndarray:
        if self.eps is None:
            return np.zeros(self.timeline.N)
        return self.eps

    def storage(self) -> HybridStorage:
        """A fresh, empty storage element with this instance's parameters."""
        return HybridStorage(sc_cap=self.sc_cap, b_cap=self.b_cap, eta=self.eta)


def _make_instance(eff, weights, timeline, storage, p_peak, eps) -> OfflineInstance:
    if not isinstance(storage, HybridStorage):
        raise TypeError("storage must be a HybridStorage")
    if storage.level_sc > 0.0 or storage.level_b > 0.0:
        raise ValueError(
            "offline solvers assume empty buffers at t=0; model initial charge "
            "as an arrival at t=0"
        )
    if not (p_peak > 0.0 and math.isfinite(p_peak)):
        raise ValueError("p_peak must be positive and finite")
    w = _resolve_weights(eff, weights)
    N = timeline.N
    if eps is not None:
        eps = np.broadcast_to(np.asarray(eps, dtype=float), (N,)).copy()
        if np.any(eps < 0.0) or not np.all(np.isfinite(eps)):
            raise ValueError("circuit power must be nonnegative and finite")
    return OfflineInstance(
        eff=eff,
        weights=w,
        timeline=timeline,
        sc_cap=float(storage.sc_cap),
        b_cap=float(storage.b_cap),
        eta=float(storage.eta),
        p_peak=float(p_peak),
        eps=eps,
    )


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Schedule:
    """A complete transmission schedule over the horizon.

    Powers are split by source buffer: ``p_sc + p_b`` is the radiated sum
    power and ``eps_sc + eps_b`` the circuit power while transmitting.
    ``split`` records how each arrival was divided between the buffers and
    ``covs[i]`` holds the per-user transmit covariances of epoch ``i``.
    """

    tau: np.ndarray
    p_sc: np.ndarray
    p_b: np.ndarray
    eps_sc: np.ndarray
    eps_b: np.ndarray
    split: ArrivalSplit
    covs: tuple[CovarianceSet, ...]
    power: np.ndarray
    rate: np.ndarray
    objective: float

    @property
    def N(self) -> int:
        return self.tau.size

    def drained_sc(self) -> np.ndarray:
        """Per-epoch energy drained from the super-capacitor (joules)."""
        return (self.p_sc + self.eps_sc) * self.tau

    def drained_b(self) -> np.ndarray:
        """Per-epoch drainable energy taken from the battery (joules)."""
        return (self.p_b + self.eps_b) * self.tau


@dataclass(frozen=True)
class TransformedVariables:
    """Energy-domain image of a schedule.

    ``alpha`` and ``sigma`` are transmit/circuit energies per epoch and
    ``Theta[i]`` holds time-scaled covariances ``tau_i * Phi_k(i)``.  The
    throughput of an epoch is ``tau * rate(Theta/tau)``, which equals the
    power-domain value whenever ``tau > 0`` and is zero when ``tau == 0``.
    """

    alpha_sc: np.ndarray
    alpha_b: np.ndarray
    sigma_sc: np.ndarray
    sigma_b: np.ndarray
    tau: np.ndarray
    Theta: tuple[CovarianceSet, ...]

    @classmethod
    def from_schedule(cls, sched: Schedule) -> "TransformedVariables":
        return cls(
            alpha_sc=sched.p_sc * sched.tau,
            alpha_b=sched.p_b * sched.tau,
            sigma_sc=sched.eps_sc * sched.tau,
            sigma_b=sched.eps_b * sched.tau,
            tau=sched.tau.copy(),
            Theta=tuple(c.scaled(t) for c, t in zip(sched.covs, sched.tau)),
        )


def _throughput(eff: EffectiveChannels, weights, taus, covsets) -> float:
    """Sum of tau * (weighted log-det rate) over the epochs with tau > 0."""
    w = _resolve_weights(eff, weights)
    return math.fsum(
        tau * weighted_rate(eff, covs, w) for tau, covs in zip(taus, covsets) if tau > 0.0
    )


def objective_from_covariances(eff: EffectiveChannels, weights, sched: Schedule) -> float:
    """Weighted throughput evaluated from per-epoch covariances and windows."""
    return _throughput(eff, weights, sched.tau, sched.covs)


def objective_from_transformed(
    eff: EffectiveChannels, weights, tv: TransformedVariables
) -> float:
    """Weighted throughput evaluated from the energy-domain variables.

    Epochs with ``tau == 0`` contribute exactly zero regardless of their
    (necessarily zero) ``Theta``.
    """
    covsets = (
        CovarianceSet(Phi=tuple(m / tau for m in theta.Phi)) if tau > 0.0 else theta
        for tau, theta in zip(tv.tau, tv.Theta)
    )
    return _throughput(eff, weights, tv.tau, covsets)


# ---------------------------------------------------------------------------
# Per-epoch value model
# ---------------------------------------------------------------------------


class _ValueModel:
    """Concave per-epoch value of consumed energy, and its derivatives."""

    def __init__(self, inst: OfflineInstance):
        self.ws = WaterSystem(inst.eff, inst.weights)
        self.l = inst.timeline.l.copy()
        self.eps = inst.eps_array
        self.ideal = inst.is_ideal
        self.p_peak = inst.p_peak
        p_o = [self.ws.efficient_power(float(e)) for e in self.eps]
        self.p_thr = np.minimum(p_o, inst.p_peak)
        self.c1 = self.l * (self.p_thr + self.eps)
        rate_thr = self.ws.rate_at_power_vec(self.p_thr)
        with np.errstate(divide="ignore", invalid="ignore"):
            self.r0 = np.where(self.c1 > 0.0, rate_thr / (self.p_thr + self.eps), 0.0)
        self.cmax = self.l * (inst.p_peak + self.eps)

    def _power2(self, c: np.ndarray) -> np.ndarray:
        return np.maximum(c / self.l - self.eps, 0.0)

    def value(self, c: np.ndarray) -> np.ndarray:
        # Strict comparison: the branches agree at the junction, and with
        # c1 == 0 (no burst regime) c == 0 must take the full-epoch branch
        # whose slope there is the top water level, not zero.
        burst = c * self.r0
        full = self.l * self.ws.rate_at_power_vec(self._power2(c))
        return np.where(c < self.c1, burst, full)

    def total(self, c: np.ndarray) -> float:
        return float(np.sum(self.value(c)))

    def slope(self, c: np.ndarray) -> np.ndarray:
        level, _ = self.ws.level_at_power_vec(self._power2(c))
        return np.where(c < self.c1, self.r0, level)

    def curvature(self, c: np.ndarray) -> np.ndarray:
        curv = self.ws.curvature_vec(self._power2(c)) / self.l
        return np.where(c < self.c1, 0.0, curv)

    def windows(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Closed-form (tau, power) recovery from consumed energies."""
        c = np.maximum(c, 0.0)
        if self.ideal:
            # The whole epoch is always used; idle epochs radiate nothing.
            return self.l.copy(), c / self.l
        tau = np.where(c < self.c1, c / np.maximum(self.p_thr + self.eps, 1e-300), self.l)
        power = np.where(c < self.c1, self.p_thr, self._power2(c))
        idle = c <= 1e-15
        tau = np.where(idle, 0.0, tau)
        power = np.where(idle, 0.0, power)
        return tau, power


# ---------------------------------------------------------------------------
# Constraint polyhedron and exact projection
# ---------------------------------------------------------------------------


class _Polyhedron:
    """Stacked half-space description ``A x <= u`` of the feasible set.

    The variable vector is ``x = [s, b, e]``: per-epoch super-capacitor
    drains, per-epoch battery drains (in drainable joules, i.e. already
    multiplied by the conversion efficiency), and per-arrival deposits
    routed to the super-capacitor.
    """

    def __init__(self, inst: OfflineInstance, vm: _ValueModel):
        N = inst.timeline.N
        E = inst.timeline.E
        eta = inst.eta
        cumE = np.cumsum(E)
        T = np.tril(np.ones((N, N)))
        Ts = np.tril(np.ones((N, N)), k=-1)
        I = np.eye(N)
        Z = np.zeros((N, N))

        rows = []
        keys: list[tuple[str, int]] = []

        def add(block_s, block_b, block_e, rhs, name):
            rows.append((np.hstack([block_s, block_b, block_e]), rhs))
            keys.extend((name, i) for i in range(N))

        add(T, Z, -T, np.zeros(N), "sc_caus")
        add(-Ts, Z, T, np.full(N, inst.sc_cap), "sc_over")
        add(Z, T, eta * T, eta * cumE, "b_caus")
        add(Z, -Ts, -eta * T, inst.b_cap - eta * cumE, "b_over")
        add(I, I, Z, vm.cmax, "cap")
        add(-I, Z, Z, np.zeros(N), "s_lo")
        add(Z, -I, Z, np.zeros(N), "b_lo")
        add(Z, Z, -I, np.zeros(N), "e_lo")
        add(Z, Z, I, E.copy(), "e_hi")

        self.A = np.vstack([r[0] for r in rows])
        self.u = np.concatenate([r[1] for r in rows])
        self.keys = keys
        self.N = N
        norms = np.linalg.norm(self.A, axis=1)
        norms[norms == 0.0] = 1.0
        self.As = self.A / norms[:, None]
        self.us = self.u / norms
        self.row_norms = norms

    def project(self, x: np.ndarray) -> np.ndarray:
        """Euclidean projection onto the polyhedron (least-distance problem)."""
        h = self.As @ x - self.us
        if np.max(h) <= 1e-13:
            return x
        G = -self.As
        n = x.size
        Emat = np.vstack([G.T, h[None, :]])
        fvec = np.zeros(n + 1)
        fvec[-1] = 1.0
        coef, _ = nnls(Emat, fvec, maxiter=30 * self.As.shape[0])
        z = _ldp_step(Emat @ coef - fvec)
        if np.min(self.scaled_slack(x + z)) < -FEAS_TOL:
            # scipy's nnls can return a wrong point with a zero residual
            # norm; the bounded-variable solver gets the same problem right.
            coef = lsq_linear(Emat, fvec, bounds=(0.0, np.inf), method="bvls").x
            z = _ldp_step(Emat @ coef - fvec)
        return x + z

    def scaled_slack(self, x: np.ndarray) -> np.ndarray:
        return self.us - self.As @ x

    def min_slack(self, x: np.ndarray) -> float:
        return float(np.min(self.u - self.A @ x))


def _ldp_step(r: np.ndarray) -> np.ndarray:
    """Least-distance step from the residual of its dual NNLS problem."""
    if abs(r[-1]) < 1e-12:
        raise SolverError("instance is infeasible: forced deposits overflow storage")
    return -r[:-1] / r[-1]


def _split_x(x: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return x[:N], x[N : 2 * N], x[2 * N :]


def _obj(vm: _ValueModel, x: np.ndarray) -> float:
    N = vm.l.size
    s, b, _ = _split_x(x, N)
    return vm.total(s + b)


def _grad(vm: _ValueModel, x: np.ndarray) -> np.ndarray:
    N = vm.l.size
    s, b, _ = _split_x(x, N)
    g = np.zeros_like(x)
    slope = vm.slope(s + b)
    g[:N] = slope
    g[N : 2 * N] = slope
    return g


# ---------------------------------------------------------------------------
# Accelerated projected gradient + active-set Newton refinement
# ---------------------------------------------------------------------------

#: Stop when the relative objective change over this many iterations is
#: below ``PLATEAU_RTOL``.
PLATEAU_WINDOW = 10
PLATEAU_RTOL = 1e-9
MAX_ITER = 4000
ARMIJO = 1e-4


def _maximize(poly: _Polyhedron, vm: _ValueModel, x0: np.ndarray) -> tuple[np.ndarray, int]:
    x = poly.project(x0)
    f = _obj(vm, x)
    y = x.copy()
    fy = f
    tk = 1.0
    curv0 = np.max(np.abs(vm.curvature(np.zeros(vm.l.size) + 1e-3))) + 1.0
    L = max(1.0, float(curv0))
    hist = [f]
    it = 0
    for it in range(1, MAX_ITER + 1):
        g = _grad(vm, y)
        # Backtrack the quadratic model until it upper-bounds the objective.
        while True:
            xn = poly.project(y + g / L)
            d = xn - y
            fn = _obj(vm, xn)
            gap = fn - (fy + g @ d - 0.5 * L * (d @ d))
            if gap >= -1e-12 * max(1.0, abs(fn)) or L > 1e16:
                break
            L *= 2.0
        if fn < f - 1e-12 * max(1.0, abs(f)):
            # Momentum overshot a kink: restart from the incumbent.
            y = x.copy()
            fy = f
            tk = 1.0
            hist.append(f)
        else:
            tn = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk))
            y = xn + ((tk - 1.0) / tn) * (xn - x)
            fy = _obj(vm, y)
            x, f, tk = xn, fn, tn
            hist.append(f)
            L *= 0.97
        if len(hist) > PLATEAU_WINDOW:
            if abs(hist[-1] - hist[-1 - PLATEAU_WINDOW]) <= PLATEAU_RTOL * max(1.0, abs(hist[-1])):
                break
    return x, it


def _face_maximize(
    x: np.ndarray, poly: _Polyhedron, vm: _ValueModel, wset: set[int]
) -> tuple[np.ndarray, set[int]]:
    """Newton ascent restricted to the face where rows in ``wset`` are tight."""
    n = x.size
    N = poly.N
    for _ in range(80):
        rows = sorted(wset)
        if rows:
            Z = null_space(poly.As[rows])
            if Z.size == 0:
                break
        else:
            Z = np.eye(n)
        g = _grad(vm, x)
        gz = Z.T @ g
        if np.linalg.norm(gz) <= 1e-12 * (1.0 + np.linalg.norm(g)):
            break
        s, b, _ = _split_x(x, N)
        curv = vm.curvature(s + b)
        MZ = Z[:N] + Z[N : 2 * N]
        H = MZ.T @ (curv[:, None] * MZ)
        delta = 1e-10 * (1.0 + float(np.max(np.abs(curv))))
        try:
            dv = np.linalg.solve(H - delta * np.eye(H.shape[0]), -gz)
        except np.linalg.LinAlgError:
            dv = gz
        if gz @ dv <= 0.0:
            dv = gz
        dx = Z @ dv
        nrm = np.linalg.norm(dx)
        if nrm > 1e6 * (1.0 + np.linalg.norm(x)):
            dx *= 1e6 * (1.0 + np.linalg.norm(x)) / nrm
        adx = poly.As @ dx
        slack = poly.scaled_slack(x)
        blocking = adx > 1e-13
        for r in rows:
            blocking[r] = False
        if np.any(blocking):
            ratios = np.maximum(slack[blocking], 0.0) / adx[blocking]
            amax = float(np.min(ratios))
            if amax <= 1e-14:
                # A row not in the working set is already tight along the
                # ascent direction: absorb it instead of taking a null step.
                tight = np.where(blocking)[0][np.argmin(ratios)]
                wset.add(int(tight))
                continue
        else:
            amax = math.inf
        alpha = min(1.0, amax)
        f0 = _obj(vm, x)
        gd = g @ dx
        while alpha > 1e-16:
            if _obj(vm, x + alpha * dx) >= f0 + ARMIJO * alpha * gd:
                break
            alpha *= 0.5
        if alpha <= 1e-16:
            break
        x = x + alpha * dx
        if math.isfinite(amax) and alpha >= amax * (1.0 - 1e-12):
            new_slack = poly.scaled_slack(x)
            hit = np.where((new_slack <= 1e-11) & blocking)[0]
            if hit.size == 0:
                break
            wset |= set(int(i) for i in hit)
    return x, wset


def _polish(x: np.ndarray, poly: _Polyhedron, vm: _ValueModel) -> tuple[np.ndarray, float]:
    """Active-set refinement; returns the point and its stationarity residual."""
    slack = poly.scaled_slack(x)
    wset = set(int(i) for i in np.where(slack <= 3e-9)[0])
    resid = math.inf
    for _ in range(60):
        x, wset = _face_maximize(x, poly, vm, wset)
        g = _grad(vm, x)
        rows = sorted(wset)
        if rows:
            At = poly.As[rows].T
            _, resid = nnls(At, g, maxiter=30 * len(rows))
        else:
            resid = float(np.linalg.norm(g))
        if resid <= 1e-9 * (1.0 + np.linalg.norm(g)):
            break
        if rows:
            yu, *_ = np.linalg.lstsq(At, g, rcond=None)
            j = int(np.argmin(yu))
            if yu[j] < -1e-10:
                wset.discard(rows[j])
                continue
        break
    return x, resid


# ---------------------------------------------------------------------------
# Schedule reconstruction
# ---------------------------------------------------------------------------


def _canonical_split(
    inst: OfflineInstance, c: np.ndarray, e: np.ndarray
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Resolve drain-split degeneracy: drain the super-capacitor as early as
    possible subject to keeping every storage constraint satisfied.

    The cumulative super-capacitor drain is pushed to the greatest value
    allowed by deposits and by battery overflow headroom; the battery
    covers the remainder.  Returns ``(s, b, ok)``; ``ok`` is False if the
    greedy split failed a sanity check (caller then keeps the solver's raw
    split).
    """
    N = c.size
    E = inst.timeline.E
    eta = inst.eta
    Dsc = np.cumsum(e)
    Db = np.cumsum(eta * (E - e))
    C = np.cumsum(c)
    U = Dsc.copy()
    if N > 1:
        U[:-1] = np.minimum(U[:-1], C[:-1] + inst.b_cap - Db[1:])
    Ubar = U.copy()
    for i in range(N - 2, -1, -1):
        Ubar[i] = min(Ubar[i], Ubar[i + 1])
    S = np.zeros(N)
    prev = 0.0
    for i in range(N):
        S[i] = min(Ubar[i], prev + c[i])
        prev = S[i]
    tol = 1e-8 * max(1.0, float(np.max(C, initial=0.0)))
    ok = bool(np.all(C - S <= Db + tol))
    if N > 1:
        ok = ok and bool(np.all(Dsc[1:] - inst.sc_cap <= S[:-1] + tol))
    s = np.diff(S, prepend=0.0)
    s = np.clip(s, 0.0, c)
    b = np.maximum(c - s, 0.0)
    return s, b, ok


def _reconstruct(
    inst: OfflineInstance, vm: _ValueModel, poly: _Polyhedron, x: np.ndarray
) -> tuple[Schedule, np.ndarray]:
    N = inst.timeline.N
    s, b, e = (np.maximum(v, 0.0) for v in _split_x(x, N))
    e = np.minimum(e, inst.timeline.E)
    c = s + b

    if not vm.ideal:
        tau, _ = vm.windows(c)
        tiny = (tau > 0.0) & (tau < TAU_SNAP)
        if np.any(tiny):
            x_try = x.copy()
            for i in np.where(tiny)[0]:
                x_zero = x_try.copy()
                x_zero[i] = 0.0
                x_zero[N + i] = 0.0
                if poly.min_slack(x_zero) >= -FEAS_TOL:
                    x_try = x_zero
            x = x_try
            s, b, e = (np.maximum(v, 0.0) for v in _split_x(x, N))
            e = np.minimum(e, inst.timeline.E)
            c = s + b

    s2, b2, ok = _canonical_split(inst, c, e)
    if ok:
        s, b = s2, b2
    tau, power = vm.windows(c)

    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(c > 0.0, s / np.maximum(c, 1e-300), 0.0)
    p_sc = power * frac
    p_b = power - p_sc
    eps_eff = np.where(tau > 0.0, vm.eps, 0.0)
    eps_sc = eps_eff * frac
    eps_b = eps_eff - eps_sc

    rate = vm.ws.rate_at_power_vec(power)
    objective = math.fsum(float(t) * float(r) for t, r in zip(tau, rate))
    sched = Schedule(
        tau=tau,
        p_sc=p_sc,
        p_b=p_b,
        eps_sc=eps_sc,
        eps_b=eps_b,
        split=ArrivalSplit(sc=e.copy(), b=(inst.timeline.E - e)),
        covs=tuple(vm.ws.covariances(float(p)) for p in power),
        power=power,
        rate=rate,
        objective=objective,
    )
    return sched, x


# ---------------------------------------------------------------------------
# Dual certificate
# ---------------------------------------------------------------------------


def _paper_slacks(inst: OfflineInstance, sched: Schedule) -> dict[str, np.ndarray]:
    """Constraint slacks of a schedule, grouped by multiplier family."""
    E = inst.timeline.E
    eta = inst.eta
    dsc = sched.drained_sc()
    db = sched.drained_b()
    e = sched.split.sc
    Dsc = np.cumsum(e)
    Db = np.cumsum(eta * (E - e))
    cs = np.cumsum(dsc)
    cb = np.cumsum(db)
    prev_s = np.concatenate([[0.0], cs[:-1]])
    prev_b = np.concatenate([[0.0], cb[:-1]])
    P = sched.power
    return {
        "sc_caus": Dsc - cs,
        "sc_over": inst.sc_cap - (Dsc - prev_s),
        "b_caus": Db - cb,
        "b_over": inst.b_cap - (Db - prev_b),
        "peak": sched.tau * (inst.p_peak - P),
        "tau_lo": sched.tau.copy(),
        "tau_hi": inst.timeline.l - sched.tau,
        "alpha_sc": sched.p_sc * sched.tau,
        "alpha_b": sched.p_b * sched.tau,
        "sigma_sc": sched.eps_sc * sched.tau,
        "sigma_b": sched.eps_b * sched.tau,
        "dep_sc": e.copy(),
        "dep_b": E - e,
    }


@dataclass(frozen=True)
class DualCertificate:
    """Fitted KKT multipliers for a schedule, with residual diagnostics.

    ``stationarity`` maps each stationarity-equation family to its worst
    absolute residual; ``complementarity`` maps each multiplier family to
    its worst ``multiplier * slack`` product.  ``levels`` holds the water
    level of each epoch (the marginal value of transmit energy there).
    """

    multipliers: dict[str, np.ndarray]
    active: dict[str, np.ndarray]
    levels: np.ndarray
    stationarity: dict[str, float]
    complementarity: dict[str, float]
    fit_residual: float

    @property
    def max_stationarity(self) -> float:
        return max(self.stationarity.values(), default=0.0)

    @property
    def max_complementarity(self) -> float:
        return max(self.complementarity.values(), default=0.0)

    def ok(self, stat_tol: float = 1e-6, comp_tol: float = 1e-8) -> bool:
        return self.max_stationarity <= stat_tol and self.max_complementarity <= comp_tol


def _certificate(inst: OfflineInstance, sched: Schedule, vm: _ValueModel) -> DualCertificate:
    N = inst.timeline.N
    circuit = not inst.is_ideal
    eta = inst.eta
    slacks = _paper_slacks(inst, sched)
    escale = max(1.0, float(np.max(np.cumsum(inst.timeline.E))))
    atol = 1e-7 * escale
    ttol = 1e-9 * max(1.0, float(np.max(inst.timeline.l)))

    P = sched.power
    levels, _ = vm.ws.level_at_power_vec(P)
    on = sched.tau > 0.0

    active = {
        "sc_caus": slacks["sc_caus"] <= atol,
        "sc_over": slacks["sc_over"] <= atol,
        "b_caus": slacks["b_caus"] <= atol,
        "b_over": slacks["b_over"] <= atol,
        "peak": (inst.p_peak - P <= 1e-7 * max(1.0, inst.p_peak)) | ~on,
        "tau_lo": sched.tau <= ttol,
        "tau_hi": slacks["tau_hi"] <= ttol,
        "alpha_sc": slacks["alpha_sc"] <= atol,
        "alpha_b": slacks["alpha_b"] <= atol,
        "sigma_sc": slacks["sigma_sc"] <= atol,
        "sigma_b": slacks["sigma_b"] <= atol,
        "dep_sc": slacks["dep_sc"] <= atol,
        "dep_b": slacks["dep_b"] <= atol,
    }

    blocks = ["lam1_sc", "lam2_sc", "lam1_b", "lam2_b", "mu", "nu", "varpi"]
    signed = {"mu", "nu", "omega"}  # sign-free families
    if circuit:
        blocks += ["omega", "kappa", "zeta"]
    blocks += ["rho1_sc", "rho1_b", "rho2_sc", "rho2_b"]
    if circuit:
        blocks += ["rho3_sc", "rho3_b"]
    else:
        blocks += ["xi"]
    off = {name: k * N for k, name in enumerate(blocks)}
    ncols = N * len(blocks)

    allowed = np.zeros(ncols, dtype=bool)
    lower = np.zeros(ncols)

    def allow(name, mask):
        allowed[off[name] : off[name] + N] = mask

    allow("lam1_sc", active["sc_caus"])
    allow("lam2_sc", active["sc_over"])
    allow("lam1_b", active["b_caus"])
    allow("lam2_b", active["b_over"])
    allow("mu", True)
    allow("nu", True)
    allow("varpi", active["peak"])
    allow("rho1_sc", active["dep_sc"])
    allow("rho1_b", active["dep_b"])
    allow("rho2_sc", active["alpha_sc"])
    allow("rho2_b", active["alpha_b"])
    if circuit:
        allow("omega", True)
        allow("kappa", active["tau_lo"])
        allow("zeta", active["tau_hi"])
        allow("rho3_sc", active["sigma_sc"])
        allow("rho3_b", active["sigma_b"])
    else:
        allow("xi", ~(P > 0.0))
    for name in blocks:
        if name in signed:
            lower[off[name] : off[name] + N] = -np.inf

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    labels: list[str] = []

    def row(label: str) -> np.ndarray:
        r = np.zeros(ncols)
        rows.append(r)
        labels.append(label)
        return r

    for i in range(N):
        for tag, lam1, lam2, extra in (
            ("alpha_sc", "lam1_sc", "lam2_sc", "rho2_sc"),
            ("alpha_b", "lam1_b", "lam2_b", "rho2_b"),
        ):
            r = row(f"stat_{tag}")
            r[off[lam1] + i : off[lam1] + N] = -1.0
            r[off[lam2] + i + 1 : off[lam2] + N] = 1.0
            r[off["mu"] + i] = 1.0
            r[off[extra] + i] = 1.0
            rhs.append(0.0)
        if circuit:
            for tag, lam1, lam2, extra in (
                ("sigma_sc", "lam1_sc", "lam2_sc", "rho3_sc"),
                ("sigma_b", "lam1_b", "lam2_b", "rho3_b"),
            ):
                r = row(f"stat_{tag}")
                r[off[lam1] + i : off[lam1] + N] = -1.0
                r[off[lam2] + i + 1 : off[lam2] + N] = 1.0
                r[off["omega"] + i] = 1.0
                r[off[extra] + i] = 1.0
                rhs.append(0.0)
        r = row("stat_dep_sc")
        r[off["lam1_sc"] + i : off["lam1_sc"] + N] = 1.0
        r[off["lam2_sc"] + i : off["lam2_sc"] + N] = -1.0
        r[off["nu"] + i] = 1.0
        r[off["rho1_sc"] + i] = 1.0
        rhs.append(0.0)
        r = row("stat_dep_b")
        r[off["lam1_b"] + i : off["lam1_b"] + N] = eta
        r[off["lam2_b"] + i : off["lam2_b"] + N] = -eta
        r[off["nu"] + i] = 1.0
        r[off["rho1_b"] + i] = 1.0
        rhs.append(0.0)
        if (not circuit) or sched.tau[i] > 0.0:
            r = row("level")
            r[off["mu"] + i] = 1.0
            r[off["varpi"] + i] = 1.0
            if (not circuit) and P[i] <= 0.0:
                r[off["xi"] + i] = -1.0
            rhs.append(float(levels[i]))
        if circuit:
            r = row("stat_tau")
            r[off["varpi"] + i] = inst.p_peak
            r[off["omega"] + i] = -float(vm.eps[i])
            r[off["kappa"] + i] = 1.0
            r[off["zeta"] + i] = -1.0
            rhs.append(float(P[i] * levels[i] - sched.rate[i]))

    A = np.vstack(rows)
    bvec = np.asarray(rhs)
    keep = np.where(allowed)[0]
    res = lsq_linear(
        A[:, keep], bvec, bounds=(lower[keep], np.full(keep.size, np.inf)), tol=1e-14
    )
    y = np.zeros(ncols)
    y[keep] = res.x
    r = A @ y - bvec

    stat: dict[str, float] = {}
    for lab, val in zip(labels, r):
        stat[lab] = max(stat.get(lab, 0.0), abs(float(val)))

    mult = {name: y[off[name] : off[name] + N].copy() for name in blocks}
    comp_pairs = [
        ("lam1_sc", "sc_caus"),
        ("lam2_sc", "sc_over"),
        ("lam1_b", "b_caus"),
        ("lam2_b", "b_over"),
        ("varpi", "peak"),
        ("rho1_sc", "dep_sc"),
        ("rho1_b", "dep_b"),
        ("rho2_sc", "alpha_sc"),
        ("rho2_b", "alpha_b"),
    ]
    if circuit:
        comp_pairs += [
            ("kappa", "tau_lo"),
            ("zeta", "tau_hi"),
            ("rho3_sc", "sigma_sc"),
            ("rho3_b", "sigma_b"),
        ]
    comp = {
        name: float(np.max(np.abs(mult[name] * slacks[slack_name])))
        for name, slack_name in comp_pairs
    }
    return DualCertificate(
        multipliers=mult,
        active=active,
        levels=np.asarray(levels, dtype=float),
        stationarity=stat,
        complementarity=comp,
        fit_residual=float(np.linalg.norm(r)),
    )


# ---------------------------------------------------------------------------
# Public solvers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OfflineSolution:
    """A solved instance.  ``feasibility`` is the independent audit of the
    schedule, with the offline arrival split ``sc + b = E`` as an equality;
    ``converged`` holds only when the KKT residual is small and that audit
    passes."""

    schedule: Schedule
    certificate: DualCertificate
    instance: OfflineInstance
    iterations: int
    stationarity_residual: float
    converged: bool
    feasibility: FeasibilityReport

    @property
    def objective(self) -> float:
        return self.schedule.objective


def _solve(inst: OfflineInstance) -> OfflineSolution:
    vm = _ValueModel(inst)
    poly = _Polyhedron(inst, vm)
    x0 = np.zeros(3 * inst.timeline.N)
    x, iters = _maximize(poly, vm, x0)
    x, resid = _polish(x, poly, vm)
    if not np.all(np.isfinite(x)):
        raise SolverError("solver produced non-finite iterates")
    sched, x = _reconstruct(inst, vm, poly, x)
    cert = _certificate(inst, sched, vm)
    gnorm = float(np.linalg.norm(_grad(vm, x)))
    audit = check_feasibility(inst.timeline, sched.split, sched, inst.storage(), inst.p_peak)
    feas = FeasibilityReport(
        slacks=audit.slacks,
        equalities={"arrival_split": sched.split.sc + sched.split.b - inst.timeline.E},
    )
    return OfflineSolution(
        schedule=sched,
        certificate=cert,
        instance=inst,
        iterations=iters,
        stationarity_residual=float(resid),
        converged=resid <= 1e-6 * (1.0 + gnorm) and feas.feasible,
        feasibility=feas,
    )


def solve_offline_ideal(eff, weights, timeline, storage, p_peak) -> OfflineSolution:
    """Optimal schedule with zero circuit power (whole epochs always used)."""
    return _solve(_make_instance(eff, weights, timeline, storage, p_peak, None))


def solve_offline_circuit(eff, weights, timeline, storage, p_peak, eps) -> OfflineSolution:
    """Optimal schedule with a constant circuit power ``eps`` while on."""
    eps = float(eps)
    if eps < 0.0:
        raise ValueError("circuit power must be nonnegative")
    return _solve(_make_instance(eff, weights, timeline, storage, p_peak, eps))


def solve_offline_general(eff, weights, timeline, storage, p_peak, eps_seq) -> OfflineSolution:
    """Optimal schedule with an epoch-varying circuit power sequence."""
    return _solve(_make_instance(eff, weights, timeline, storage, p_peak, eps_seq))


# ---------------------------------------------------------------------------
# Structure verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    index: int
    applicable: bool
    ok: bool
    detail: str = ""


@dataclass
class LemmaReport:
    checks: list[LemmaCheck] = field(default_factory=list)

    def add(self, name, index, applicable, ok, detail=""):
        self.checks.append(LemmaCheck(name, index, bool(applicable), bool(ok), detail))

    @property
    def violations(self) -> list[LemmaCheck]:
        return [c for c in self.checks if c.applicable and not c.ok]

    @property
    def num_applicable(self) -> int:
        return sum(1 for c in self.checks if c.applicable)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        lines = [f"{len(self.checks)} checks, {self.num_applicable} applicable, "
                 f"{len(self.violations)} violations"]
        for c in self.violations:
            lines.append(f"  VIOLATION {c.name}[{c.index}]: {c.detail}")
        return "\n".join(lines)


#: Tolerance for power comparisons in the monotonicity/constancy checks.
POWER_TOL = 1e-5


def verify_structure(
    sched: Schedule, cert: DualCertificate, inst: OfflineInstance
) -> LemmaReport:
    """Check the known structural properties of an optimal schedule.

    For the zero-circuit-power problem: terminal buffer drainage, lockstep
    multiplier exclusivity and the piecewise-constant / monotone power
    pattern between binding storage constraints.  For circuit-power
    problems: the burst-power floor and the order in which the buffers
    supply circuit energy.  Conditional checks whose hypotheses fail are
    reported as non-applicable rather than passes.
    """
    rep = LemmaReport()
    N = sched.N
    slacks = _paper_slacks(inst, sched)
    escale = max(1.0, float(np.max(np.cumsum(inst.timeline.E))))
    hyp_tol = 1e-6 * escale
    act_tol = 1e-7 * escale
    ptol = 1e-8
    P = sched.power
    peak_slack = inst.p_peak - P

    if inst.is_ideal:
        # Terminal drainage: whatever remains at the deadline was wasted, so
        # both buffers end empty — unless the peak limit pinned the final
        # epoch's power.
        applicable = peak_slack[N - 1] > POWER_TOL
        okv = (
            slacks["sc_caus"][N - 1] <= hyp_tol and slacks["b_caus"][N - 1] <= hyp_tol
        )
        rep.add(
            "terminal_drain",
            N - 1,
            applicable,
            okv if applicable else True,
            f"sc={slacks['sc_caus'][N-1]:.3e} b={slacks['b_caus'][N-1]:.3e}",
        )

        # The causality slack at epoch i and the overflow slack at epoch i+1
        # measure the same buffer level at the same boundary instant, before
        # and after the arrival there.  Both can only be tight together when
        # the accepted inflow fills the buffer from empty to exactly its cap,
        # in which case both prices are genuinely positive and none of the
        # boundary lemmas below applies.
        lam_scale = 1.0
        for fam in ("lam1_sc", "lam2_sc", "lam1_b", "lam2_b"):
            lam_scale = max(lam_scale, float(np.max(np.abs(cert.multipliers[fam]), initial=0.0)))
        for i in range(N - 1):
            for caus, over, lam1, lam2 in (
                ("sc_caus", "sc_over", "lam1_sc", "lam2_sc"),
                ("b_caus", "b_over", "lam1_b", "lam2_b"),
            ):
                cap_fill = (
                    slacks[caus][i] <= act_tol and slacks[over][i + 1] <= act_tol
                )
                prod = abs(
                    cert.multipliers[lam1][i] * cert.multipliers[lam2][i + 1]
                )
                rep.add(
                    "exclusive_multipliers",
                    i,
                    not cap_fill,
                    prod <= 1e-8 * lam_scale * lam_scale,
                    f"{lam1}[{i}]*{lam2}[{i+1}]={prod:.3e}",
                )

        for i in range(N - 1):
            peak_ok = peak_slack[i] > POWER_TOL and peak_slack[i + 1] > POWER_TOL
            both_on = P[i] > POWER_TOL and P[i + 1] > POWER_TOL

            inactive_between = (
                slacks["sc_caus"][i] > hyp_tol
                and slacks["b_caus"][i] > hyp_tol
                and slacks["sc_over"][i + 1] > hyp_tol
                and slacks["b_over"][i + 1] > hyp_tol
            )
            applicable = both_on and inactive_between and peak_ok
            rep.add(
                "constant_power",
                i,
                applicable,
                abs(P[i] - P[i + 1]) <= POWER_TOL if applicable else True,
                f"P[{i}]={P[i]:.6f} P[{i+1}]={P[i+1]:.6f}",
            )

            # Drained a buffer empty at the boundary without refilling it to
            # cap: the price of that buffer can only rise, so power must not
            # drop across the boundary.
            caus_active = (
                sched.p_sc[i] > POWER_TOL
                and slacks["sc_caus"][i] <= act_tol
                and slacks["sc_over"][i + 1] > hyp_tol
            ) or (
                sched.p_b[i] > POWER_TOL
                and slacks["b_caus"][i] <= act_tol
                and slacks["b_over"][i + 1] > hyp_tol
            )
            applicable = both_on and caus_active and peak_ok
            rep.add(
                "increase_at_depletion",
                i,
                applicable,
                P[i + 1] >= P[i] - POWER_TOL if applicable else True,
                f"P[{i}]={P[i]:.6f} P[{i+1}]={P[i+1]:.6f}",
            )

            # A buffer used after the boundary sits at its cap there without
            # having been drained empty: its price can only fall, so power
            # must not rise across the boundary.
            over_active = (
                sched.p_sc[i + 1] > POWER_TOL
                and slacks["sc_over"][i + 1] <= act_tol
                and slacks["sc_caus"][i] > hyp_tol
            ) or (
                sched.p_b[i + 1] > POWER_TOL
                and slacks["b_over"][i + 1] <= act_tol
                and slacks["b_caus"][i] > hyp_tol
            )
            applicable = both_on and over_active and peak_ok
            rep.add(
                "decrease_at_saturation",
                i,
                applicable,
                P[i] >= P[i + 1] - POWER_TOL if applicable else True,
                f"P[{i}]={P[i]:.6f} P[{i+1}]={P[i+1]:.6f}",
            )
        return rep

    # Circuit-power structure.
    vm = _ValueModel(inst)
    floor = vm.p_thr
    l = inst.timeline.l
    eps = vm.eps
    for i in range(N):
        interior = TAU_SNAP < sched.tau[i] < l[i] - TAU_SNAP
        rep.add(
            "burst_power_floor",
            i,
            interior,
            abs(P[i] - floor[i]) <= POWER_TOL if interior else True,
            f"P={P[i]:.6f} floor={floor[i]:.6f} tau={sched.tau[i]:.6f}",
        )
        full = sched.tau[i] >= l[i] - 1e-9
        rep.add(
            "full_epoch_power_above_floor",
            i,
            full,
            P[i] >= floor[i] - POWER_TOL if full else True,
            f"P={P[i]:.6f} floor={floor[i]:.6f}",
        )
        on = sched.tau[i] > TAU_SNAP and eps[i] > 0.0
        both = on and sched.p_sc[i] > ptol and sched.p_b[i] > ptol
        ident = abs(sched.eps_sc[i] * P[i] - eps[i] * sched.p_sc[i])
        ident_ok = ident <= 1e-9 * max(1.0, eps[i] * max(P[i], 1.0))
        rep.add(
            "circuit_split_both",
            i,
            both,
            (sched.eps_sc[i] > 0.0 and sched.eps_b[i] > 0.0 and ident_ok) if both else True,
            f"eps_sc={sched.eps_sc[i]:.3e} eps_b={sched.eps_b[i]:.3e}",
        )
        solo_sc = on and sched.p_sc[i] > ptol and sched.p_b[i] <= ptol
        if solo_sc:
            bound = eps[i] * ptol / max(P[i], ptol) + 1e-12
            okv = sched.eps_sc[i] > 0.0 and sched.eps_b[i] <= bound
        solo_b = on and sched.p_b[i] > ptol and sched.p_sc[i] <= ptol
        if solo_b:
            bound = eps[i] * ptol / max(P[i], ptol) + 1e-12
            okv = sched.eps_b[i] > 0.0 and sched.eps_sc[i] <= bound
        rep.add(
            "circuit_split_single",
            i,
            solo_sc or solo_b,
            okv if (solo_sc or solo_b) else True,
            f"eps_sc={sched.eps_sc[i]:.3e} eps_b={sched.eps_b[i]:.3e}",
        )
    return rep
