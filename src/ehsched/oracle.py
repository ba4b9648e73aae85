"""Test oracles for the offline solver: brute-force optimum, structure
verifier, energy-domain objective.

Kept apart from the production solver in :mod:`ehsched.offline`, whose
solve path never calls them.  They read only what a solve returns (the
instance, the schedule, its feasibility audit and its certificate) and
import no private name of the solver.  :func:`brute_force_oracle` shares
no code path with it beyond the instance description and the channel
decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import CovarianceSet, EffectiveChannels, weighted_rate
from .offline import OfflineInstance, OfflineSolution, Schedule, SolverError
from .waterfill import WaterSystem

__all__ = [
    "brute_force_oracle",
    "TransformedVariables",
    "objective_from_covariances",
    "objective_from_transformed",
    "LemmaCheck",
    "LemmaReport",
    "verify_structure",
]


def _rate_table(modes: list[tuple[float, float]], pgrid: np.ndarray) -> np.ndarray:
    """Best weighted rate at each sum power, by direct search over the
    power split between eigenmodes (no water-filling involved)."""
    if len(modes) == 1:
        g, lam = modes[0]
        return g * np.log1p(lam * pgrid)
    (g1, l1), (g2, l2) = modes
    lo = np.zeros_like(pgrid)
    hi = pgrid.copy()
    t = np.linspace(0.0, 1.0, 65)
    best = None
    for _ in range(3):
        Q = lo[None, :] + (hi - lo)[None, :] * t[:, None]
        val = g1 * np.log1p(l1 * Q) + g2 * np.log1p(l2 * (pgrid[None, :] - Q))
        j = np.argmax(val, axis=0)
        best = val[j, np.arange(pgrid.size)]
        width = (hi - lo) / 64.0
        centers = Q[j, np.arange(pgrid.size)]
        lo = np.maximum(0.0, centers - width)
        hi = np.minimum(pgrid, centers + width)
    return best


def brute_force_oracle(inst: OfflineInstance, *, rounds: int = 45, pts: int = 7) -> float:
    """Reference optimum by grid refinement over per-epoch consumed energies.

    The per-epoch value of a consumed-energy budget is tabulated by direct
    search over transmission windows and mode power splits (no water-filling,
    no KKT conditions).  Storage feasibility is handled exactly: the split of
    arrivals between the two buffers is projected out of the constraint
    system by Fourier-Motzkin elimination, leaving affine conditions on the
    consumption profile alone.  Each grid candidate is then pulled onto the
    feasible region along its own ray, so optima on thin constraint faces
    are reachable without the grid having to land on them exactly.

    Only practical for very small instances: at most 3 epochs and at most
    2 spatial eigenmodes in total.  Shares no code path with the solver
    beyond the channel decomposition.
    """
    N = inst.timeline.N
    if N > 3:
        raise ValueError("brute-force reference supports at most 3 epochs")
    modes = []
    for k, lam_k in enumerate(inst.eff.lam):
        for lam in lam_k:
            modes.append((float(inst.weights[k]), float(lam)))
    if len(modes) > 2:
        raise ValueError("brute-force reference supports at most 2 eigenmodes")

    p_peak = inst.p_peak
    eps = inst.eps
    l = inst.timeline.l
    E = inst.timeline.E
    eta = inst.eta
    pgrid = np.linspace(0.0, p_peak, 20001)
    wtab = _rate_table(modes, pgrid)

    def what(p):
        return np.interp(p, pgrid, wtab)

    def vhat(i, cs):
        """Best throughput of epoch ``i`` for each consumed energy in ``cs``,
        by nested grid search over the transmission window."""
        cs = np.asarray(cs, dtype=float)
        out = np.zeros(cs.shape)
        act = cs > 1e-12
        if not np.any(act):
            return out
        c = cs[act]
        if eps[i] == 0.0:
            thi = np.full(c.shape, l[i])
        else:
            thi = np.minimum(l[i], c / eps[i])
        tlo = np.minimum(c / (p_peak + eps[i]), thi)
        lo, hi = tlo.copy(), thi.copy()
        frac = np.linspace(0.0, 1.0, 65)[:, None]
        cols = np.arange(c.size)
        best = np.zeros(c.shape)
        for _ in range(3):
            tg = lo[None, :] + frac * (hi - lo)[None, :]
            with np.errstate(divide="ignore", invalid="ignore"):
                p = np.where(
                    tg > 0.0, (c[None, :] - eps[i] * tg) / np.maximum(tg, 1e-300), 0.0
                )
            val = np.where(tg > 0.0, tg * what(np.clip(p, 0.0, p_peak)), 0.0)
            j = np.argmax(val, axis=0)
            best = val[j, cols]
            width = (hi - lo) / 64.0
            tj = tg[j, cols]
            lo = np.maximum(tlo, tj - width)
            hi = np.minimum(thi, tj + width)
        out[act] = best
        return out

    capsc = inst.sc_cap
    capb = inst.b_cap
    cumE = np.cumsum(E)
    eyeN = np.eye(N)
    zN = np.zeros(N)

    # A consumption profile c is supplyable iff some split e of the arrivals
    # into the super-capacitor (remainder to the battery) lets prefix drains
    # cover prefix consumption without overflowing either buffer.  Unrolling
    # the nested-min recursion for the largest super-capacitor contribution
    # turns every condition into an affine form  v.e + k + w.Ccum >= 0  with
    # Ccum the prefix sums of c.
    def _dsc(a):
        v = zN.copy()
        v[: a + 1] = 1.0
        return v, 0.0, zN

    def _db(a):
        v = zN.copy()
        v[: a + 1] = -eta
        return v, eta * float(cumE[a]), zN

    def _u_elems(a):
        # Caps on the super-capacitor share of the first a+1 epochs' drains:
        # its own deposits, and what the battery cap forces through early.
        elems = [_dsc(a)]
        if a < N - 1:
            v, k, w = _db(a + 1)
            elems.append((-v, capb - k, eyeN[a] - w))
        return elems

    def _s_elems(i):
        # Affine elements of the nested min giving the largest possible
        # super-capacitor contribution to the first i+1 epochs.
        elems = [(zN, 0.0, eyeN[i])]
        for a in range(N):
            shift = eyeN[i] - eyeN[a] if a < i else zN
            for v, k, w in _u_elems(a):
                elems.append((v, k, w + shift))
        return elems

    def _l_forms(i):
        # Floors on that contribution: consumption the battery cannot cover,
        # and room that upcoming super-capacitor deposits require.
        v, k, w = _db(i)
        forms = [(-v, -k, eyeN[i] - w)]
        if i < N - 1:
            vd, kd, wd = _dsc(i + 1)
            forms.append((vd, kd - capsc, wd))
        return forms

    rows = []
    for i in range(N):
        for lv, lk, lw in _l_forms(i):
            for sv, sk, sw in _s_elems(i):
                rows.append((sv - lv, sk - lk, sw - lw))
    v0, k0, _ = _dsc(0)
    rows.append((-v0, capsc - k0, zN))
    v0, k0, _ = _db(0)
    rows.append((-v0, capb - k0, zN))
    for i in range(N):
        rows.append((eyeN[i].copy(), 0.0, zN))
        rows.append((-eyeN[i], float(E[i]), zN))

    # Project the split variables out (Fourier-Motzkin): pair every lower
    # bound on e_j with every upper bound.  All combination multipliers are
    # positive, so the surviving rows describe exactly the set of supplyable
    # consumption profiles.  Two safe prunes keep the row count in check:
    # rows sharing a direction keep only the tightest constant, and a derived
    # row built from more than m+1 original rows after m eliminations is
    # redundant in the projection (Imbert's criterion), tracked here with
    # ancestor bitmasks.
    Vm = np.array([v for v, _, _ in rows])
    Km = np.array([k for _, k, _ in rows])
    Wm = np.array([w for _, _, w in rows])
    Am = np.left_shift(np.uint64(1), np.arange(len(rows), dtype=np.uint64))

    def _compact(Vm, Km, Wm, Am):
        mag = np.maximum(
            np.max(np.abs(Vm), axis=1, initial=0.0),
            np.max(np.abs(Wm), axis=1, initial=0.0),
        )
        const = mag <= 1e-12
        if np.any(Km[const] < -1e-9):
            raise SolverError("brute-force reference found no feasible point")
        Vm, Km, Wm, Am, mag = Vm[~const], Km[~const], Wm[~const], Am[~const], mag[~const]
        Vm = Vm / mag[:, None]
        Km = Km / mag
        Wm = Wm / mag[:, None]
        dirs = np.round(np.concatenate([Vm, Wm], axis=1), 10)
        keep = []
        seen = set()
        for idx in np.argsort(Km, kind="stable"):
            key = dirs[idx].tobytes()
            if key not in seen:
                seen.add(key)
                keep.append(int(idx))
        keep = np.array(keep, dtype=int)
        return Vm[keep], Km[keep], Wm[keep], Am[keep]

    Vm, Km, Wm, Am = _compact(Vm, Km, Wm, Am)
    for j in range(N):
        col = Vm[:, j]
        lo = col > 1e-12
        up = col < -1e-12
        mid = ~(lo | up)
        cl = col[lo]
        cu = -col[up]
        newA = (Am[lo][:, None] | Am[up][None, :]).reshape(-1)
        ok = np.bitwise_count(newA) <= j + 2
        pair = np.nonzero(ok)[0]
        li, ui = np.unravel_index(pair, (cl.size, cu.size))
        newV = cu[ui, None] * Vm[lo][li] + cl[li, None] * Vm[up][ui]
        newK = cu[ui] * Km[lo][li] + cl[li] * Km[up][ui]
        newW = cu[ui, None] * Wm[lo][li] + cl[li, None] * Wm[up][ui]
        Vm = np.concatenate([Vm[mid], newV])
        Km = np.concatenate([Km[mid], newK])
        Wm = np.concatenate([Wm[mid], newW])
        Am = np.concatenate([Am[mid], newA[ok]])
        Vm[:, j] = 0.0
        Vm, Km, Wm, Am = _compact(Vm, Km, Wm, Am)

    const_k = Km
    const_w = Wm

    cmax = l * (p_peak + eps)
    scale_tiny = 1e-11 * (1.0 + float(np.sum(cmax)))
    centers = cmax / 2.0
    halfw = cmax / 2.0
    best_val = -math.inf
    best_pt = None

    for _ in range(rounds):
        grids = []
        for d in range(N):
            lo = max(0.0, centers[d] - halfw[d])
            hi = min(cmax[d], centers[d] + halfw[d])
            g = np.linspace(lo, hi, pts)
            if best_pt is not None:
                g[int(np.argmin(np.abs(g - best_pt[d])))] = best_pt[d]
            grids.append(g)

        cand = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1).reshape(-1, N)
        coef = np.cumsum(cand, axis=1) @ const_w.T
        with np.errstate(divide="ignore", invalid="ignore"):
            th_hi = np.where(coef < -scale_tiny, const_k[None, :] / (-coef), np.inf)
            th_lo = np.where(coef > scale_tiny, -const_k[None, :] / coef, -np.inf)
        bad = np.any((np.abs(coef) <= scale_tiny) & (const_k[None, :] < -1e-9), axis=1)
        th_hi = np.minimum(np.min(th_hi, axis=1, initial=np.inf), 1.0)
        th_lo = np.maximum(np.max(th_lo, axis=1, initial=-np.inf), 0.0)
        feas = ~bad & (th_hi >= th_lo - 1e-12)
        if not np.any(feas):
            # Nothing on this grid can be supplied: retry more densely.
            pts = min(2 * pts + 1, 29)
            continue
        # Largest feasible scaling of each candidate along its own ray; the
        # per-epoch values are nondecreasing in consumption, so this is the
        # best point on the ray.
        theta = np.clip(th_hi, th_lo, 1.0)
        pulled = theta[:, None] * cand
        vals = np.zeros(len(cand))
        for i in range(N):
            vals += vhat(i, pulled[:, i])
        vals[~feas] = -math.inf

        flat = int(np.argmax(vals))
        if vals[flat] >= best_val:
            best_val = float(vals[flat])
            best_pt = pulled[flat]
        centers = best_pt.copy()
        idx = np.unravel_index(flat, (pts,) * N)
        on_edge = False
        for d in range(N):
            g = grids[d]
            if g[-1] <= g[0]:
                continue
            if idx[d] == 0 and g[0] > 0.0:
                on_edge = True
            elif idx[d] == pts - 1 and g[-1] < cmax[d]:
                on_edge = True
        if not on_edge:
            # Shrink only when the winner is interior to the box; an edge
            # winner means the maximizer may still lie well outside it.
            step = np.array(
                [(g[-1] - g[0]) / (pts - 1) if g[-1] > g[0] else 0.0 for g in grids]
            )
            halfw = np.maximum(2.0 * step, 1e-12)

    if not math.isfinite(best_val):
        raise SolverError("brute-force reference found no feasible point")
    return best_val


@dataclass(frozen=True)
class TransformedVariables:
    """Energy-domain image of a schedule.

    ``alpha`` and ``sigma`` are transmit/circuit energies per epoch and
    ``Theta`` holds the time-scaled covariance stacks,
    ``Theta.Phi[k][i] = tau_i * Phi_k(i)``.  The throughput of an epoch is
    ``tau * rate(Theta/tau)``, which equals the power-domain value whenever
    ``tau > 0`` and is zero when ``tau == 0``.
    """

    alpha_sc: np.ndarray
    alpha_b: np.ndarray
    sigma_sc: np.ndarray
    sigma_b: np.ndarray
    tau: np.ndarray
    Theta: CovarianceSet

    @classmethod
    def from_schedule(cls, sched: Schedule) -> "TransformedVariables":
        return cls(
            alpha_sc=sched.p_sc * sched.tau,
            alpha_b=sched.p_b * sched.tau,
            sigma_sc=sched.eps_sc * sched.tau,
            sigma_b=sched.eps_b * sched.tau,
            tau=sched.tau.copy(),
            Theta=sched.covs.scaled(sched.tau),
        )


def _throughput(eff: EffectiveChannels, weights, taus, covs: CovarianceSet) -> float:
    """Sum of tau * (weighted log-det rate) over the epochs with tau > 0."""
    on = taus > 0.0
    active = CovarianceSet(tuple(P[on] for P in covs.Phi))
    return math.fsum(taus[on] * weighted_rate(eff, active, weights))


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
    tau = np.where(tv.tau > 0.0, tv.tau, 1.0)[:, None, None]
    covs = CovarianceSet(tuple(theta / tau for theta in tv.Theta.Phi))
    return _throughput(eff, weights, tv.tau, covs)


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
#: Windows within this of zero or of their epoch's length (s) count as
#: idle or whole in the circuit-power checks.
WINDOW_TOL = 1e-6


def verify_structure(sol: OfflineSolution) -> LemmaReport:
    """Check the known structural properties of an optimal schedule.

    For the zero-circuit-power problem: terminal buffer drainage, lockstep
    multiplier exclusivity and the piecewise-constant / monotone power
    pattern between binding storage constraints.  For circuit-power
    problems: the burst-power floor and the order in which the buffers
    supply circuit energy.  Conditional checks whose hypotheses fail are
    reported as non-applicable rather than passes.  The storage slacks
    come from ``sol.feasibility``, the solver's audit of the schedule.
    """
    sched, cert, inst = sol.schedule, sol.certificate, sol.instance
    rep = LemmaReport()
    N = sched.N
    slacks = sol.feasibility.slacks
    escale = max(1.0, float(np.max(np.cumsum(inst.timeline.E))))
    hyp_tol = 1e-6 * escale
    act_tol = 1e-7 * escale
    ptol = 1e-8
    P = sched.power
    peak_slack = inst.p_peak - P

    if not inst.eps.any():
        # Terminal drainage: whatever remains at the deadline was wasted, so
        # both buffers end empty — unless the peak limit pinned the final
        # epoch's power.
        applicable = peak_slack[N - 1] > POWER_TOL
        okv = (
            slacks["sc_causality"][N - 1] <= hyp_tol
            and slacks["b_causality"][N - 1] <= hyp_tol
        )
        rep.add(
            "terminal_drain",
            N - 1,
            applicable,
            okv if applicable else True,
            f"sc={slacks['sc_causality'][N-1]:.3e} b={slacks['b_causality'][N-1]:.3e}",
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
                ("sc_causality", "sc_overflow", "lam1_sc", "lam2_sc"),
                ("b_causality", "b_overflow", "lam1_b", "lam2_b"),
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
                slacks["sc_causality"][i] > hyp_tol
                and slacks["b_causality"][i] > hyp_tol
                and slacks["sc_overflow"][i + 1] > hyp_tol
                and slacks["b_overflow"][i + 1] > hyp_tol
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
                and slacks["sc_causality"][i] <= act_tol
                and slacks["sc_overflow"][i + 1] > hyp_tol
            ) or (
                sched.p_b[i] > POWER_TOL
                and slacks["b_causality"][i] <= act_tol
                and slacks["b_overflow"][i + 1] > hyp_tol
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
                and slacks["sc_overflow"][i + 1] <= act_tol
                and slacks["sc_causality"][i] > hyp_tol
            ) or (
                sched.p_b[i + 1] > POWER_TOL
                and slacks["b_overflow"][i + 1] <= act_tol
                and slacks["b_causality"][i] > hyp_tol
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

    # Circuit-power structure: the burst power is the most efficient one,
    # capped at the peak.
    eps = inst.eps
    floor = np.minimum(WaterSystem(inst.eff, inst.weights).efficient_power(eps), inst.p_peak)
    l = inst.timeline.l
    for i in range(N):
        interior = WINDOW_TOL < sched.tau[i] < l[i] - WINDOW_TOL
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
        on = sched.tau[i] > WINDOW_TOL and eps[i] > 0.0
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
