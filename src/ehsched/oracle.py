"""Brute-force reference optimum for tiny offline instances.

A test oracle, kept apart from the production solver in
:mod:`ehsched.offline`: it shares no code path with it beyond the
instance description and the channel decomposition.
"""

from __future__ import annotations

import math

import numpy as np

from .offline import OfflineInstance, SolverError

__all__ = ["brute_force_oracle"]


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
    eps = inst.eps_array
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
