"""Whole-horizon (non-causal) schedule optimization.

Given the full arrival profile, channel decomposition, storage parameters,
peak power limit and per-epoch circuit power, compute the throughput-
optimal transmission schedule: per-epoch transmission windows, powers,
buffer drain splits, deposit splits and spatial covariances.  There is one
model: the ideal radio is the instance whose circuit power is zero in
every epoch, where ``p_thr = 0`` and every window is either the whole
epoch or idle.

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
constraints.

It is solved by one primal-dual interior-point loop (Mehrotra
predictor-corrector; Boyd & Vandenberghe, *Convex Optimization*, ch. 11)
in cumulative coordinates: per epoch the cumulative super-capacitor
drain, battery drain and super-capacitor deposits.  There every
constraint couples only epochs i-1 and i, so each Newton step is one
banded Cholesky factorization, O(N) in time and memory (the structure
Wang & Boyd exploit for fast MPC, IEEE TCST 2010).  Because each row
family is one fixed stencil shifted along the epochs, the patterns of
the constraint matrix and of the Newton matrix's band map are built once
per program shape (N and the burst/full split), row by row (the band
map as its transpose, transposed once), and each instance adds only its
values; each Newton step evaluates the objective from one water-filling
lookup: at short horizons these fixed costs, not the factorization, set
the solve time.  For the same reason a step calls its kernels directly:
the band map is a sparse matrix from the row weights to the band in
LAPACK's column-major layout, so one sparse product builds the band and
LAPACK ``dpbtrf`` factors it in place (``_Program.factor``, which first
checks that the band is finite and retries a failed factorization on a
rebuilt band with a bumped diagonal), ``dpbtrs`` solves with the factor
after a finiteness check of each right-hand side, and scipy's CSR/CSC
kernels form the sparse products from the plain CSR arrays that the
program keeps.  These three kernels bind as module globals when the
first program is built (:func:`_bind_kernels`), not at import: importing
any scipy module takes longer than the rest of ``import ehsched``.  A
non-finite Newton matrix or right-hand side raises :class:`SolverError`
as a numerical failure.  The loop only optimizes: it stops on a small
dual residual and a small relative duality gap (or after ``MAX_NEWTON``
steps).  Windows, powers and covariances are then recovered in closed
form, after dropping each window shorter than ``TAU_SNAP`` whose drain
the storage slacks (:func:`~ehsched.energy.storage_slacks`) can do
without and splitting each drain super-capacitor first; a full epoch's
power is clipped at the peak.  A schedule that fails the feasibility
audit raises :class:`SolverError`, and otherwise the dual certificate
from the loop's multipliers decides convergence.
The test oracles live in the test suite (``tests/oracle.py``); the solve
path needs none of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channels import CovarianceSet, EffectiveChannels, resolve_weights
from .energy import ArrivalSplit, EpochTimeline, FeasibilityReport, HybridStorage
from .energy import check_feasibility, check_powers, storage_slacks
from .waterfill import WaterSystem

__all__ = [
    "SolverError",
    "OfflineInstance",
    "Schedule",
    "DualCertificate",
    "OfflineSolution",
    "solve_offline_ideal",
    "solve_offline_circuit",
]

#: Transmission windows shorter than this are snapped to zero on epochs with
#: a circuit power, where the storage constraints hold without their drain
#: (an epoch carrying less than a microsecond of airtime is numerical noise).
TAU_SNAP = 1e-6
#: A schedule that fails the audit is audited once more with its windows
#: this much shorter (16 ulp), so that rounding alone never fails it.
TAU_SHAVE = 1.0 - 2.0**-48


class SolverError(RuntimeError):
    """Raised when a schedule fails the feasibility audit (an infeasible
    instance, say) or the solver breaks down numerically."""


# ---------------------------------------------------------------------------
# Problem description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OfflineInstance:
    """A frozen description of one whole-horizon scheduling problem.

    ``eps`` holds the circuit power of every epoch: all zeros for the ideal
    radio.
    """

    eff: EffectiveChannels
    weights: np.ndarray
    timeline: EpochTimeline
    sc_cap: float
    b_cap: float
    eta: float
    p_peak: float
    eps: np.ndarray

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
    # None becomes NaN, which the check rejects.
    eps = check_powers(p_peak, np.asarray(eps, dtype=float), timeline.N)
    return OfflineInstance(
        eff=eff,
        weights=resolve_weights(eff, weights),
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
    ``split`` records how each arrival was divided between the buffers.

    The offline solvers build it with :meth:`assemble`, and the causal
    simulator with the same rates and the same correctly rounded sum, so
    ``rate`` and ``objective`` always derive from ``power`` and ``tau`` the
    same way, and ``covs`` from ``power`` and the water-filling system the
    schedule was assembled with.
    """

    tau: np.ndarray
    p_sc: np.ndarray
    p_b: np.ndarray
    eps_sc: np.ndarray
    eps_b: np.ndarray
    split: ArrivalSplit
    power: np.ndarray
    rate: np.ndarray
    objective: float
    _ws: WaterSystem = field(repr=False, compare=False)

    @classmethod
    def assemble(
        cls, tau, power, p_sc, p_b, eps_sc, eps_b, split: ArrivalSplit, ws: WaterSystem
    ) -> "Schedule":
        """The schedule of these windows, sum and per-buffer powers and
        arrival split: the rates at each epoch's sum power come from
        ``ws``, and ``objective`` is the correctly rounded sum of ``tau *
        rate``.  :func:`~ehsched.online.run_online` takes the rates from
        ``ws`` the same way and that sum from the last of its trace's
        exact prefix sums, which equals ``math.fsum`` bit for bit, so each
        run forms ``tau * rate`` and sums it once."""
        rate = ws.rate_at_power_vec(power)
        objective = math.fsum((tau * rate).tolist())
        return cls(tau, p_sc, p_b, eps_sc, eps_b, split, power, rate, objective, ws)

    @cached_property
    def covs(self) -> CovarianceSet:
        """The per-user transmit covariance stacks at each epoch's sum
        power, built on first read: ``covs.Phi[k][i]`` is user ``k``'s
        covariance in epoch ``i``."""
        return self._ws.covariances(self.power)

    @property
    def N(self) -> int:
        return self.tau.size


# ---------------------------------------------------------------------------
# Per-epoch value model
# ---------------------------------------------------------------------------


class _ValueModel:
    """Per-epoch constants of the value of consumed energy: the burst
    power ``p_thr`` with its water level and rate, the junction ``c1``,
    the burst slope ``r0`` and the cap ``cmax``, with the closed-form
    window recovery."""

    def __init__(self, inst: OfflineInstance):
        self.ws = WaterSystem.shared(inst.eff, inst.weights)
        self.l = inst.timeline.l.copy()
        self.eps = inst.eps
        self.p_thr = np.minimum(self.ws.efficient_power(self.eps), inst.p_peak)
        self.c1 = self.l * (self.p_thr + self.eps)
        self.level_thr, m = self.ws.level_at_power_vec(self.p_thr)
        self.rate_thr = self.ws.rate_at_level_vec(self.level_thr, m)
        with np.errstate(divide="ignore", invalid="ignore"):
            self.r0 = np.where(self.c1 > 0.0, self.rate_thr / (self.p_thr + self.eps), 0.0)
        self.p_peak = inst.p_peak
        self.cmax = self.l * (self.p_peak + self.eps)

    def windows(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Closed-form (tau, power) recovery from consumed energies.  With
        eps = 0, ``c1 = 0`` and a window is either the whole epoch or idle.
        Full power is clipped at the peak, which the loop's drain cap meets
        only to a tolerance relative to the total arriving energy."""
        c = np.maximum(c, 0.0)
        burst = c < self.c1
        tau = np.divide(c, self.p_thr + self.eps, out=self.l.copy(), where=burst)
        full = np.minimum(np.maximum(c / self.l - self.eps, 0.0), self.p_peak)
        power = np.where(burst, self.p_thr, full)
        idle = c <= 1e-15
        tau = np.where(idle, 0.0, tau)
        power = np.where(idle, 0.0, power)
        return tau, power


# ---------------------------------------------------------------------------
# Primal-dual interior-point solve in cumulative coordinates
# ---------------------------------------------------------------------------

#: Columns of an epoch's variable block: cumulative super-capacitor drain
#: S, cumulative battery drain B (drainable J), cumulative super-capacitor
#: deposits D and, on a split epoch only, the burst part a of its use.
_S, _B, _D, _A = range(4)
MAX_NEWTON = 200
#: Stopping tolerances, all relative: the dual residual to the gradient,
#: the primal residual to the row's right-hand side (energies measured in
#: units of the total arriving energy) and the mean complementarity
#: product (duality gap over row count) to the objective.
TOL_DUAL = 1e-10
TOL_PRIMAL = 1e-13
TOL_MU = 1e-13
#: Fraction of the distance to the boundary of the positive orthant that
#: one step may cover.
STEP_FRAC = 0.995
#: The centring parameter never falls below this multiple of the dual
#: residual's excess over its tolerance, over mu.
SIGMA_FLOOR = 0.001
#: Cumulative variables of order one are known to rounding only: the gap
#: cannot fall below this multiple of the multiplier-weighted row sizes,
#: nor the dual residual below it times the largest curvature weight (a
#: short epoch's use is a small difference of two such variables).
ROUNDING = 1e3 * np.finfo(float).eps


def _diff(var: int, coef) -> tuple:
    """Stencil terms of ``coef * (X[i, var] - X[i-1, var])``."""
    return (0, var, coef), (-1, var, -coef)


_USE = (*_diff(_S, 1.0), *_diff(_B, 1.0))
#: The row families in row order: whether a family has rows on the split
#: epochs only, and its stencil terms ``(epoch shift, column,
#: coefficient)``, a string naming a coefficient that depends on the
#: instance.  A term whose column its epoch lacks (epoch -1, or the burst
#: part of an epoch not split) is left out.  The last family is not a
#: constraint but the map from x to the curved parts' arguments.
_FAMILIES = {
    "sc_caus": (False, ((0, _S, 1.0), (0, _D, -1.0))),
    "sc_over": (False, ((0, _D, 1.0), (-1, _S, -1.0))),
    "b_caus": (False, ((0, _B, 1.0), (0, _D, "eta"))),
    "b_over": (False, ((-1, _B, -1.0), (0, _D, "-eta"))),
    "cap": (False, _USE),
    "s_lo": (False, _diff(_S, -1.0)),
    "b_lo": (False, _diff(_B, -1.0)),
    "e_lo": (False, _diff(_D, -1.0)),
    "e_hi": (False, _diff(_D, 1.0)),
    "a_lo": (True, ((0, _A, -1.0),)),
    "a_hi": (True, ((0, _A, 1.0),)),
    "f_lo": (True, ((0, _A, 1.0), *_diff(_S, -1.0), *_diff(_B, -1.0))),
    # q_i = c_i - a_i: the burst part counts only on split epochs.
    "objective": (False, (*_USE, (0, _A, -1.0))),
}


#: The stencil coefficients by code; a program puts in the instance's eta.
_CODES = (1.0, -1.0, "eta", "-eta")


def _tables(terms: tuple) -> tuple:
    """A family's fixed tables from its stencil ``terms``, in column order:
    each term's column in an epoch's stencil table (:class:`_Shape`,
    ``3 + 3 * shift + column``) and code (``_CODES``), the upper-triangle
    term pairs ``(a, b)``, ``a <= b``, and each pair's product code
    ``len(_CODES) * code[a] + code[b]``."""
    terms = sorted(terms, key=lambda t: 3 * t[0] + t[1])
    col = np.array([3 + 3 * shift + var for shift, var, _ in terms])
    code = np.array([_CODES.index(c) for *_, c in terms], np.uint8)
    a, b = np.triu_indices(len(terms))
    return col, code, a, b, len(_CODES) * code[a] + code[b]


_TABLES = {name: _tables(terms) for name, (_, terms) in _FAMILIES.items()}


#: The scipy kernels a Newton step calls, module globals once
#: :func:`_bind_kernels` has run.
_KERNELS = ("dpbtrf", "dpbtrs", "_sparsetools")


def _bind_kernels() -> None:
    """Bind LAPACK ``dpbtrf``/``dpbtrs`` and scipy's sparse kernels as
    module globals, once.  The first :class:`_Shape` calls it, as does
    a first read of one of them from outside (``offline.dpbtrf``, through
    the module's ``__getattr__``), so ``import ehsched`` loads no scipy
    module and the Newton loop calls plain globals."""
    global dpbtrf, dpbtrs, _sparsetools
    if "_sparsetools" not in globals():
        from scipy.linalg.lapack import dpbtrf, dpbtrs
        from scipy.sparse import _sparsetools


def __getattr__(name: str):
    if name in _KERNELS:
        _bind_kernels()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _mul(M: tuple, v: np.ndarray) -> np.ndarray:
    """``M @ v`` through scipy's CSR kernel, the loop behind a ``csr_matrix``
    product (so the same bits), without the sparse operator dispatch, which
    costs more than the product itself at short horizons."""
    data, indices, indptr, (rows, cols) = M
    out = np.zeros(rows)
    _sparsetools.csr_matvec(rows, cols, indptr, indices, data, v, out)
    return out


def _mul_t(M: tuple, v: np.ndarray) -> np.ndarray:
    """``M.T @ v`` through scipy's CSC kernel on the arrays of ``M``, as a
    ``csr_matrix`` transpose product runs it."""
    data, indices, indptr, (rows, cols) = M
    out = np.zeros(cols)
    _sparsetools.csc_matvec(cols, rows, indptr, indices, data, v, out)
    return out


class _Shape:
    """The part of a :class:`_Program` that only its split mask (and so
    N) fixes, built one family at a time (``_TABLES``).  An epoch has the
    columns S, B and D, a split epoch a fourth, a; epoch i's columns
    start at ``first[i]``.  Every row couples two neighbouring epochs, so
    the band has ``kd`` diagonals above the main one: the widest such
    pair's columns less one.  A family's CSR rows of the stacked ``[A;
    Q]`` and of the band map's transpose (one row per weight) read its
    fixed pattern from each epoch's stencil table of columns, less the
    columns the epoch lacks.  Entries hold coefficient codes
    (``_CODES``), band entries the codes of term pairs' products.  The
    arrays, ``nbytes`` in all, are read-only: one shape serves every
    program of that shape (:func:`_shape`)."""

    def __init__(self, split: np.ndarray):
        _bind_kernels()
        N = split.size
        sp = np.flatnonzero(split)
        width = split + 3  # columns per epoch
        self.first = np.cumsum(width) - width
        self.n = n = 3 * N + sp.size
        self.kd = kd = int(np.max(width[:-1] + width[1:], initial=6)) - 1
        # Each epoch's stencil table: the columns of S, B and D of the
        # epoch before, then of its own S, B, D and a.  A column the epoch
        # lacks (epoch -1's, or the a of an epoch not split) is minus the
        # band's slot count, so that its entries and the band slots of its
        # pairs are negative and left out.
        absent = -(kd + 1) * n
        prev = np.concatenate(([absent], self.first[:-1]))
        stencil = np.hstack((prev[:, None] + np.arange(3), self.first[:, None] + np.arange(4)))
        stencil[~split, -1] = absent
        epochs = {False: (np.arange(N), stencil), True: (sp, stencil[sp])}
        self.rows: dict[str, tuple[slice, np.ndarray]] = {}
        # CSR parts of [A; Q] and of the band map's transpose, per family:
        # columns or band slots, coefficient codes or codes of their
        # products, and entries per row.
        aq, band = [], []
        m = 0
        for name, (on_split, _) in _FAMILIES.items():
            ep, table = epochs[on_split]
            col, code, a, b, pcode = _TABLES[name]
            cols = table[:, col]
            keep = cols >= 0
            aq.append((cols[keep], np.repeat(code[None], ep.size, 0)[keep], keep.sum(axis=1)))
            # Entry (cols[a], cols[b]) of the upper triangle, in LAPACK's
            # column-major band storage.
            slot = cols[:, b] * kd + cols[:, a] + kd
            keep = slot >= 0
            band.append((slot[keep], np.repeat(pcode[None], ep.size, 0)[keep], keep.sum(axis=1)))
            self.rows[name] = (slice(m, m + ep.size), ep)
            m += ep.size
        del self.rows["objective"]
        self.m = m = m - N
        self.split, self.burst = sp, self.first[sp] + _A

        def csr(parts):
            # The parts go as soon as they are joined: they set the
            # build's peak memory.  32-bit indices suffice for any band
            # that fits in memory.
            cols, codes, counts = zip(*parts)
            parts.clear()
            indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))], dtype=np.int32)
            return np.concatenate(cols, dtype=np.int32), np.concatenate(codes), indptr

        self.indices, self.code, self.indptr = csr(aq)
        self.q_indptr = self.indptr[m:] - self.indptr[m]
        # The transpose (scipy's ``csr_tocsc``, a counting sort) keeps each
        # slot's terms in row order.  A family adds at most two to a slot:
        # epoch i's and epoch i + 1's copy shifted by -1, which every
        # stencil lists later.  So the band sums them as a loop over
        # families, term pairs and epochs would, which fixes its bits.
        slot, bcode, bptr = csr(band)
        self.bptr = np.empty((kd + 1) * n + 1, dtype=np.int32)
        self.brow, self.bcode = np.empty(slot.size, np.int32), np.empty_like(bcode)
        _sparsetools.csr_tocsc(m + N, (kd + 1) * n, bptr, slot, bcode,
                               self.bptr, self.brow, self.bcode)
        arrays = [*vars(self).values(), *(ep for _, ep in self.rows.values())]
        arrays = {id(v): v for v in arrays if isinstance(v, np.ndarray)}.values()
        for v in arrays:
            v.flags.writeable = False
        self.nbytes = sum(v.nbytes for v in arrays)


#: Program shapes by split mask, least recently used first, and the bytes
#: they may take in all: a shape takes 0.5 KB (no epoch split) to 0.7 KB
#: (every epoch split) per epoch, so a sweep's shapes stay and one of
#: N = 10^4 is built for its program only.
_SHAPES: dict[bytes, _Shape] = {}
_SHAPE_BYTES = 4 << 20


def _shape(split: np.ndarray) -> _Shape:
    """The shape of the programs with this split mask, built once while
    it fits in ``_SHAPES``, where it displaces the least recently used."""
    key = split.tobytes()
    shape = _SHAPES.pop(key, None)
    if shape is None:
        shape = _Shape(split)
        if shape.nbytes > _SHAPE_BYTES:
            return shape
        while shape.nbytes + sum(s.nbytes for s in _SHAPES.values()) > _SHAPE_BYTES:
            del _SHAPES[next(iter(_SHAPES))]
    _SHAPES[key] = shape
    return shape


class _Program:
    """The horizon problem as ``max F(x)`` subject to ``A x <= u``.

    Each epoch holds the columns ``S_i, B_i, D_i`` (``first[i]`` onward)
    and every constraint family is a stencil over epochs ``i-1`` and ``i``
    (``_FAMILIES``).  Epoch i's use ``c_i = s_i + b_i`` (with
    ``s_i = S_i - S_{i-1}``) is worth ``V_i(c_i)``.  Where the burst/full
    junction ``c1`` lies inside the feasible range, the use is split into
    a burst part ``a`` in ``[0, c1]`` worth ``r0`` per joule and a full
    part ``f = c - a >= 0`` worth ``l (W(p_thr + f/l) - W(p_thr))``:
    Newton steps then never straddle the jump of V'' at ``c1``.  Only such
    a split epoch has the column ``a_i``; elsewhere the curved part takes
    the whole use (linear with slope ``r0`` when ``c1 = cmax``).  Below
    zero, where only infeasible iterates go, the curved part continues as
    its quadratic model at zero.  Energies are measured in units of the total arriving
    energy and F in units of its largest marginal value times that energy.

    Assembly has two parts.  The shape part depends only on the split
    mask: the sparsity patterns and each entry's coefficient code, built
    by :class:`_Shape` and kept by :func:`_shape`.  The instance part puts
    in the coefficient values (``eta``, ``-eta``), the right-hand sides
    ``u``, the burst parts' linear term and the scaling constants.
    ``AQ`` (the constraints ``A`` stacked over ``Q``, the curved parts'
    arguments) is kept as plain CSR arrays ``(data, indices, indptr,
    shape)``, with ``A`` and ``Q`` views into it, which :func:`_mul` and
    :func:`_mul_t` hand to scipy's kernels.  So is the band map ``band``,
    which takes the ``m + N`` stacked weights ``(w, kappa)`` to LAPACK's
    column-major band storage: its row ``j * (kd + 1) + d`` is diagonal
    ``d`` of column ``j``, and its entries there are the coefficient
    products of the term pairs that add to that slot, in the order of
    their weights' rows (family by family and epoch by epoch), which one
    transpose of the row-wise map keeps.
    """

    def __init__(self, inst: OfflineInstance, vm: _ValueModel):
        N = inst.timeline.N
        E = inst.timeline.E
        eta = inst.eta
        cumE = np.cumsum(E)
        self.N = N
        self.vm = vm
        self.escale = float(cumE[-1]) if cumE[-1] > 0.0 else 1.0
        self.curved = vm.c1 < vm.cmax
        shape = _shape(self.curved & (vm.c1 > 0.0))
        sp = shape.split
        self.rows = shape.rows
        self.base = vm.l * vm.rate_thr
        self.slope0 = np.where(self.curved, vm.level_thr, vm.r0)
        # Magnitude of the right-hand curvature at q = 0 (the first active
        # mode's, when p_thr = 0).
        self.curv0 = -vm.ws.curvature_vec(np.nextafter(vm.p_thr, np.inf)) / vm.l
        self.fscale = self.escale * float(np.max(self.slope0))

        rhs = {
            "sc_caus": 0.0,
            "sc_over": inst.sc_cap,
            "b_caus": eta * cumE,
            "b_over": inst.b_cap - eta * cumE,
            "cap": vm.cmax,
            "s_lo": 0.0,
            "b_lo": 0.0,
            "e_lo": 0.0,
            "e_hi": E,
            "a_lo": 0.0,
            "a_hi": vm.c1[sp],
            "f_lo": 0.0,
        }
        m = shape.m
        self.u = np.empty(m)
        for name, (rows, _) in self.rows.items():
            self.u[rows] = rhs[name] / self.escale
        coef = np.array((1.0, -1.0, eta, -eta))
        data = coef[shape.code]
        n = self.n = shape.n
        self.kd, self.first = shape.kd, shape.first
        nnz = shape.indptr[m]
        self.AQ = (data, shape.indices, shape.indptr, (m + N, n))
        self.A = (data[:nnz], shape.indices[:nnz], shape.indptr[: m + 1], (m, n))
        self.Q = (data[nnz:], shape.indices[nnz:], shape.q_indptr, (N, n))
        bcoef = np.multiply.outer(coef, coef).ravel()[shape.bcode]
        self.band = (bcoef, shape.brow, shape.bptr, (shape.bptr.size - 1, m + N))
        self.burst = shape.burst
        self.lin = np.zeros(n)
        self.lin[self.burst] = self.escale * vm.r0[sp] / self.fscale
        # Instance constants of the objective.
        self.r0_burst = vm.r0[sp]
        self.gscale = self.escale / self.fscale
        self.kscale = self.escale**2 / self.fscale
        self.half_curv0 = 0.5 * self.curv0
        # Only an epoch with p_thr = 0 can run at zero power, where the
        # water-filling lookup has no active mode; only where c1 = cmax is
        # the value linear.
        self.zero_thr = bool(np.any(vm.p_thr == 0.0))
        self.linear = not bool(np.all(self.curved))

    def objective(self, x: np.ndarray, qx: np.ndarray) -> tuple:
        """At ``x``, with ``qx = Q x``: scaled F(x) as a function to call
        when the gap test reads it, its gradient, and per epoch the slope
        (nats/J) and the scaled curvature magnitude of the curved part,
        all from one water-filling lookup."""
        vm, ws = self.vm, self.vm.ws
        q = self.escale * qx
        p = vm.p_thr + np.maximum(q, 0.0) / vm.l
        # ``WaterSystem.level_at_power_vec`` written for p >= 0: the raw
        # mode count is at least one, so every division is by a positive
        # sum, and zero powers get the empty mode set afterwards.
        m = ws.breaks.searchsorted(p) + 1
        cg = ws.cg[m]
        level = cg / (p + ws.cil[m])
        if self.zero_thr:
            off = p <= 0.0
            level = np.where(off, ws.level_max, level)
            m = np.where(off, 0, m)
        # Below zero the curved part continues as its quadratic model at 0.
        qn = np.minimum(q, 0.0)
        kappa = self.kscale * np.where(q > 0.0, level * level / cg / vm.l, self.curv0)
        slope = level - self.curv0 * qn
        if self.linear:
            slope = np.where(self.curved, slope, self.slope0)
            kappa = np.where(self.curved, kappa, 0.0)

        def F() -> float:
            value = vm.l * ws.rate_at_level_vec(level, m) - self.base
            value += qn * (self.slope0 - self.half_curv0 * qn)
            if self.linear:
                value = np.where(self.curved, value, self.slope0 * q)
            burst = self.escale * float(self.r0_burst @ x[self.burst])
            return (math.fsum(value.tolist()) + burst) / self.fscale

        grad = self.gscale * _mul_t(self.Q, slope) + self.lin
        return F, grad, slope, kappa

    def factor(self, w: np.ndarray, kappa: np.ndarray) -> np.ndarray:
        """Upper banded Cholesky factor of ``A' diag(w) A + Q' diag(kappa)
        Q`` for row weights ``w`` and the curved parts' scaled curvatures.

        The band is one product of the band map with the stacked weights
        ``(w, kappa)``, already in the column-major layout LAPACK takes,
        and ``dpbtrf`` factors it in place; the Newton solves of
        :func:`_maximize` use the factor with ``dpbtrs``.  A band
        with a non-finite entry raises :class:`SolverError` (a numerical
        failure) before LAPACK sees it.  A matrix that is not numerically
        positive definite is factored again with its diagonal bumped by a
        relative 1e-12, then 1e-10, then 1e-8, each time on a band built
        anew from the map, since the failed attempt overwrote the last;
        when every attempt fails, ``np.linalg.LinAlgError`` is raised."""
        wk = np.concatenate((w, kappa))

        def band():
            return _mul(self.band, wk).reshape(self.n, self.kd + 1).T

        ab = band()
        if not np.logical_and.reduce(np.isfinite(ab), axis=None):
            raise SolverError("numerical failure: the Newton matrix is not finite")
        L, info = dpbtrf(ab, overwrite_ab=1)
        if info:
            # Rows tight at the optimum weigh up to 1/mu^2 more than the
            # rest; when rounding in their block breaks positive
            # definiteness, a growing relative bump of the diagonal
            # restores it without perturbing the lightly weighted
            # directions.
            for reg in (1e-12, 1e-10, 1e-8):
                ab = band()
                ab[-1] *= 1.0 + reg
                L, info = dpbtrf(ab, overwrite_ab=1)
                if not info:
                    break
            else:
                raise np.linalg.LinAlgError("Newton matrix is not positive definite")
        return L


@dataclass(frozen=True)
class _Iterate:
    """Where the interior-point loop stopped: per-epoch drains and
    deposits, the slope of each epoch's curved part and the multipliers
    of each row family (nats/J, zero where a family has no row), the
    Newton step count and the dual residual (nats/J)."""

    s: np.ndarray
    b: np.ndarray
    e: np.ndarray
    slope: np.ndarray
    multipliers: dict[str, np.ndarray]
    iterations: int
    dual_residual: float


def _step_to_boundary(v: np.ndarray, dv: np.ndarray) -> float:
    """The largest t with ``v + t dv >= 0`` for ``v > 0``: the least
    ``-v/dv`` over the falling entries, ``inf`` when none falls."""
    ratio = np.empty(v.size)
    ratio.fill(-math.inf)
    np.divide(v, dv, out=ratio, where=dv < 0.0)
    return -float(np.maximum.reduce(ratio))


@np.errstate(over="ignore")
def _maximize(prog: _Program) -> _Iterate:
    """Mehrotra predictor-corrector on ``max F(x)``, ``A x + s = u``,
    ``s, z >= 0``; each Newton step is one banded Cholesky factorization
    and two banded solves, and one product with ``[A; Q]`` gives ``A x``
    and ``Q x``.  The loop only optimizes; the audit of the schedule
    judges feasibility.  A non-finite Newton right-hand side, matrix or
    final iterate raises :class:`SolverError`, so overflows on the way
    there are not warned about.

    Each vector ends its life at its last reader, so the loop's memory
    peak is what one step reads at once, not what it has ever made.
    Across steps only ``x``, ``sz``, ``usize``, ``AQx`` and the objective's
    outputs live; ``AQx``, the gradient and the objective's closure go
    once the stopping test has read them, the factor, ``rd`` and the
    step's right-hand sides once the corrector's solve has, and the
    predictor's ``dsz`` once the corrector's right-hand side is formed
    from it.  Updates are formed in place with the float operations of
    their plain expressions, in the same order: IEEE addition and
    multiplication are commutative, negation is exact and every ufunc is
    elementwise, so ``t = z * ds; t += rc`` has the bits of ``rc + z *
    ds``, and ``dpbtrs`` solves in the right-hand side's own storage."""
    A, AQ, u = prog.A, prog.AQ, prog.u
    m = u.size
    x = np.zeros(prog.n)
    # Slacks and multipliers share one vector, so one ratio test bounds
    # the step of both.
    sz = np.concatenate((np.maximum(u, 1.0), np.ones(m)))
    s, z = sz[:m], sz[m:]
    usize = np.maximum(1.0, np.abs(u))
    it = 0
    AQx = _mul(AQ, x)
    F, grad, slope, kappa = prog.objective(x, AQx[m:])
    while True:
        rd = _mul_t(A, z)
        rd -= grad
        Ax = AQx[:m]
        rp = Ax + s
        rp -= u
        gap = float(s @ z)
        dual = float(np.maximum.reduce(np.abs(rd)))
        excess = dual - TOL_DUAL * (1.0 + float(np.maximum.reduce(np.abs(grad))))
        excess -= ROUNDING * float(np.maximum.reduce(kappa))
        optimal = (
            excess <= 0.0
            and bool(np.logical_and.reduce(Ax - u <= TOL_PRIMAL * usize))
            and gap <= TOL_MU * m * abs(F()) + ROUNDING * float(z @ usize)
        )
        del AQx, Ax, F, grad
        if optimal or it == MAX_NEWTON:
            break
        it += 1
        try:
            L = prog.factor(z / s, kappa)
        except np.linalg.LinAlgError:
            break

        def newton(rc, rps):
            t = z * rps
            np.subtract(rc, t, out=t)
            t /= s
            rhs = _mul_t(A, t)
            del t
            rhs -= rd
            if not np.logical_and.reduce(np.isfinite(rhs)):
                raise SolverError("numerical failure: a Newton right-hand side is not finite")
            dx = dpbtrs(L, rhs, overwrite_b=1)[0]
            dsz = np.empty(2 * m)
            ds, dz = dsz[:m], dsz[m:]
            np.negative(rps, out=ds)
            ds -= _mul(A, dx)
            np.multiply(z, ds, out=dz)
            dz += rc
            np.negative(dz, out=dz)
            dz /= s
            return dx, dsz

        mu = gap / m
        sz_prod = s * z
        dsz = newton(sz_prod, rp)[1]
        affine = min(1.0, _step_to_boundary(sz, dsz)) * dsz
        affine += sz
        mu_aff = float(affine[:m] @ affine[m:]) / m
        del affine
        # Centre harder while the dual residual lags behind mu, or mu
        # overtakes it and the iteration jams.
        sigma = min(1.0, max((mu_aff / mu) ** 3, SIGMA_FLOOR * excess / mu))
        # Every row is relaxed by the target mu: rows that are tight on the
        # whole feasible set (an empty deposit box, say) then keep slacks
        # of order mu, so their multipliers stay bounded.  The corrector's
        # right-hand sides overwrite the predictor's.
        target = sigma * mu
        ds, dz = dsz[:m], dsz[m:]
        ds *= dz
        sz_prod += ds
        del dsz, ds, dz
        sz_prod -= target
        rp -= target
        dx, dsz = newton(sz_prod, rp)
        del L, rd, rp, sz_prod
        alpha = min(1.0, STEP_FRAC * _step_to_boundary(sz, dsz))
        dx *= alpha
        x += dx
        dsz *= alpha
        sz += dsz
        del dx, dsz
        AQx = _mul(AQ, x)
        F, grad, slope, kappa = prog.objective(x, AQx[m:])
    if not np.all(np.isfinite(x)):
        raise SolverError("solver produced non-finite iterates")
    s_, b_, e_ = (np.diff(x[prog.first + v], prepend=0.0) * prog.escale for v in (_S, _B, _D))
    unit = prog.fscale / prog.escale
    multipliers = {}
    for name, (sl, ep) in prog.rows.items():
        multipliers[name] = np.zeros(prog.N)
        multipliers[name][ep] = unit * z[sl]
    return _Iterate(
        s=s_,
        b=b_,
        e=e_,
        slope=slope,
        multipliers=multipliers,
        iterations=it,
        dual_residual=unit * dual,
    )


# ---------------------------------------------------------------------------
# Schedule reconstruction
# ---------------------------------------------------------------------------


def _canonical_split(
    inst: OfflineInstance, c: np.ndarray, e: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Resolve drain-split degeneracy: drain the super-capacitor as early as
    possible subject to the storage constraints.

    The cumulative super-capacitor drain is pushed to the greatest value
    allowed by deposits and by battery overflow headroom; the battery
    covers the remainder.  No split of ``c`` drains the super-capacitor
    further, so where this one breaks a storage constraint, every split
    does and the audit raises.  Returns ``(s, b)``.
    """
    N = c.size
    E = inst.timeline.E
    Dsc = np.cumsum(e)
    Db = np.cumsum(inst.eta * (E - e))
    C = np.cumsum(c)
    U = Dsc.copy()
    if N > 1:
        U[:-1] = np.minimum(U[:-1], C[:-1] + inst.b_cap - Db[1:])
    Ubar = np.minimum.accumulate(U[::-1])[::-1]
    # Kept as a loop: the closed form C_i + min(0, min_{j<=i} Ubar_j - C_j)
    # rounds differently and changes the drain split's last bits.
    S = np.zeros(N)
    prev = 0.0
    for i in range(N):
        S[i] = min(Ubar[i], prev + c[i])
        prev = S[i]
    s = np.clip(np.diff(S, prepend=0.0), 0.0, c)
    return s, np.maximum(c - s, 0.0)


def _reconstruct(
    inst: OfflineInstance, vm: _ValueModel, s: np.ndarray, b: np.ndarray, e: np.ndarray
) -> Schedule:
    s, b, e = (np.maximum(v, 0.0) for v in (s, b, e))
    e = np.minimum(e, inst.timeline.E)
    storage, e_b = inst.storage(), inst.timeline.E - e

    tau, _ = vm.windows(s + b)
    for i in np.flatnonzero((tau > 0.0) & (tau < TAU_SNAP) & (vm.eps > 0.0)):
        s_zero, b_zero = s.copy(), b.copy()
        s_zero[i] = b_zero[i] = 0.0
        if FeasibilityReport(storage_slacks(storage, e, e_b, s_zero, b_zero)).feasible:
            s, b = s_zero, b_zero
    c = s + b

    s, b = _canonical_split(inst, c, e)
    tau, power = vm.windows(c)

    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(c > 0.0, s / np.maximum(c, 1e-300), 0.0)
    p_sc = power * frac
    p_b = power - p_sc
    eps_eff = np.where(tau > 0.0, vm.eps, 0.0)
    eps_sc = eps_eff * frac
    eps_b = eps_eff - eps_sc

    split = ArrivalSplit(sc=e.copy(), b=e_b)
    return Schedule.assemble(tau, power, p_sc, p_b, eps_sc, eps_b, split, vm.ws)


# ---------------------------------------------------------------------------
# Dual certificate
# ---------------------------------------------------------------------------


#: The tolerances of :meth:`DualCertificate.ok`.
STAT_TOL, COMP_TOL = 1e-6, 1e-8
#: The storage multipliers of the paper, each with its constraint family
#: as the feasibility audit names it.
_STORAGE = dict(
    lam1_sc="sc_causality", lam2_sc="sc_overflow", lam1_b="b_causality", lam2_b="b_overflow"
)


@dataclass(frozen=True)
class DualCertificate:
    """KKT multipliers for a schedule, with residual diagnostics.

    The multipliers come in closed form from the solve's own.
    ``stationarity`` maps each stationarity-equation family to its worst
    absolute residual: the drain rows ``stat_alpha_sc``/``stat_alpha_b``,
    the deposit rows ``stat_dep_sc``/``stat_dep_b``, ``peak_sign`` (the
    negative part of the peak multiplier ``varpi``) and ``stat_tau`` (the
    window row, on the epochs with eps > 0 only).  ``complementarity`` maps
    each multiplier family to its worst ``multiplier * slack`` product.
    ``levels`` holds the water level of each epoch (the marginal value of
    transmit energy there) and ``rate_scale`` the largest epoch rate (the
    rate at the peak power when no epoch transmits).
    """

    multipliers: dict[str, np.ndarray]
    levels: np.ndarray
    rate_scale: float
    stationarity: dict[str, float]
    complementarity: dict[str, float]

    def ok(self) -> bool:
        """Stationarity within ``STAT_TOL`` of its unit (the largest water
        level for the nats/J families, ``rate_scale`` for ``stat_tau`` in
        nats/s), free of the energy scale, and complementarity (nats)
        within ``COMP_TOL``, an absolute bar."""
        level = float(np.max(self.levels))
        stat = all(
            r <= STAT_TOL * (self.rate_scale if name == "stat_tau" else level)
            for name, r in self.stationarity.items()
        )
        return stat and max(self.complementarity.values(), default=0.0) <= COMP_TOL


def _suffix(v: np.ndarray) -> np.ndarray:
    """``out[i] = sum(v[i:])``."""
    return np.cumsum(v[::-1])[::-1]


def _certificate(
    inst: OfflineInstance, sched: Schedule, vm: _ValueModel, it: _Iterate,
    audit: FeasibilityReport,
) -> DualCertificate:
    """The paper's KKT multipliers in closed form from the solve's own
    multipliers, with the residuals of the paper's KKT rows; ``audit`` is
    the schedule's feasibility audit, which supplies the storage slacks."""
    eta = inst.eta
    # The slack of each multiplier's constraint in the energy domain.
    tau, P, e = sched.tau, sched.power, sched.split.sc
    slacks = {name: audit.slacks[family] for name, family in _STORAGE.items()}
    slacks.update(
        varpi=tau * (inst.p_peak - P),
        rho1_sc=e,
        rho1_b=inst.timeline.E - e,
        rho2_sc=sched.p_sc * tau,
        rho2_b=sched.p_b * tau,
        kappa=tau,
        zeta=inst.timeline.l - tau,
        rho3_sc=sched.eps_sc * tau,
        rho3_b=sched.eps_b * tau,
    )

    levels, _ = vm.ws.level_at_power_vec(P)
    on = tau > 0.0

    # The marginal value of drained energy, net of the drain cap's price.
    # An idle split epoch sits on both a >= 0 and f >= 0; the price of the
    # latter then adds to the burst slope.
    lam = it.multipliers
    mu = it.slope - lam["cap"] + lam["f_lo"]
    mult = {
        "lam1_sc": lam["sc_caus"],
        "lam2_sc": lam["sc_over"],
        "lam1_b": lam["b_caus"],
        "lam2_b": lam["b_over"],
        "mu": mu,
        # The level row holds only while transmitting.
        "varpi": np.where(on, levels - mu, 0.0),
        "rho1_sc": lam["e_lo"],
        "rho1_b": lam["e_hi"],
        "rho2_sc": lam["s_lo"],
        "rho2_b": lam["b_lo"],
    }
    L1sc, L2sc, L1b, L2b = (
        _suffix(mult[k]) for k in ("lam1_sc", "lam2_sc", "lam1_b", "lam2_b")
    )
    dep_sc = L1sc - L2sc + mult["rho1_sc"]
    dep_b = eta * (L1b - L2b) + mult["rho1_b"]
    mult["nu"] = -0.5 * (dep_sc + dep_b)
    # Buffer prices seen by energy drained in epoch i: causality rows from
    # i on, overflow rows from i+1 on.
    drain_sc = np.append(L2sc[1:], 0.0) - L1sc
    drain_b = np.append(L2b[1:], 0.0) - L1b
    rows = {
        "stat_alpha_sc": drain_sc + mu + mult["rho2_sc"],
        "stat_alpha_b": drain_b + mu + mult["rho2_b"],
        "stat_dep_sc": dep_sc + mult["nu"],
        "stat_dep_b": dep_b + mult["nu"],
        # The level row mu + varpi - levels holds by the definition of
        # varpi; what remains to check is the sign of the peak's price.
        "peak_sign": np.minimum(mult["varpi"], 0.0),
    }
    # The circuit-energy rows repeat the drain rows (omega = mu, rho3 =
    # rho2), so only their complementarity is checked.
    mult["omega"] = mu
    mult["rho3_sc"] = mult["rho2_sc"]
    mult["rho3_b"] = mult["rho2_b"]
    t = P * levels - sched.rate - inst.p_peak * mult["varpi"] + vm.eps * mult["omega"]
    ttol = 1e-9 * max(1.0, float(np.max(inst.timeline.l)))
    mult["kappa"] = np.where(slacks["kappa"] <= ttol, np.maximum(t, 0.0), 0.0)
    mult["zeta"] = np.where(slacks["zeta"] <= ttol, np.maximum(-t, 0.0), 0.0)
    # With eps = 0 a window is whole or idle, and its row follows from
    # varpi >= 0 and the concavity of W (P W'(P) <= W(P)).
    stat_tau = (mult["kappa"] - mult["zeta"] - t)[vm.eps > 0.0]
    # Every other row, and every slack, has one entry per epoch: one
    # stacked pass each takes their worst entries.
    stat = dict(zip(rows, np.abs(np.stack(list(rows.values()))).max(axis=1).tolist()))
    stat["stat_tau"] = float(np.max(np.abs(stat_tau), initial=0.0))
    products = np.stack([mult[name] for name in slacks])
    products *= np.stack(list(slacks.values()))
    comp = dict(zip(slacks, np.abs(products, out=products).max(axis=1).tolist()))
    return DualCertificate(
        multipliers=mult,
        levels=np.asarray(levels, dtype=float),
        rate_scale=float(np.max(sched.rate)) or float(vm.ws.rate_at_power_vec(inst.p_peak)),
        stationarity=stat,
        complementarity=comp,
    )


# ---------------------------------------------------------------------------
# Public solvers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OfflineSolution:
    """A solved instance.  ``feasibility`` is the independent audit of the
    schedule plus one slack family, ``arrival_unrouted`` (``sc + b - E``),
    that closes the offline split ``sc + b = E`` from the other side; it
    always passes: a schedule that fails it raises :class:`SolverError`
    instead.  ``converged`` is ``certificate.ok()``."""

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


def _audit(inst: OfflineInstance, sched: Schedule) -> FeasibilityReport:
    audit = check_feasibility(inst.timeline, sched.split, sched, inst.storage(), inst.p_peak)
    # Offline, every arrival is routed whole: the other side of the split.
    unrouted = sched.split.sc + sched.split.b - inst.timeline.E
    return FeasibilityReport({**audit.slacks, "arrival_unrouted": unrouted})


def _solve(inst: OfflineInstance) -> OfflineSolution:
    vm = _ValueModel(inst)
    prog = _Program(inst, vm)
    it = _maximize(prog)
    sched = _reconstruct(inst, vm, it.s, it.b, it.e)
    feas = _audit(inst, sched)
    if not feas.feasible:
        # The audit recomputes each drain as (p + eps) * tau, which meets a
        # tight storage row only to rounding, and near 1e9 J one ulp of a
        # cumulative drain is 1.2e-7 J, past FEAS_TOL.  Shorter windows
        # drain both buffers a little less.
        retry = Schedule.assemble(
            sched.tau * TAU_SHAVE, sched.power, sched.p_sc, sched.p_b, sched.eps_sc,
            sched.eps_b, sched.split, vm.ws,
        )
        retry_feas = _audit(inst, retry)
        if not retry_feas.feasible:
            raise SolverError(f"infeasible schedule ({feas.worst()})")
        sched, feas = retry, retry_feas
    cert = _certificate(inst, sched, vm, it, feas)
    return OfflineSolution(
        schedule=sched,
        certificate=cert,
        instance=inst,
        iterations=it.iterations,
        stationarity_residual=it.dual_residual,
        converged=cert.ok(),
        feasibility=feas,
    )


def solve_offline_ideal(eff, weights, timeline, storage, p_peak) -> OfflineSolution:
    """Optimal schedule with zero circuit power: every window is the whole
    epoch or idle."""
    return _solve(_make_instance(eff, weights, timeline, storage, p_peak, 0.0))


def solve_offline_circuit(eff, weights, timeline, storage, p_peak, eps) -> OfflineSolution:
    """Optimal schedule with circuit power ``eps`` while on: one value for
    every epoch or one per epoch."""
    return _solve(_make_instance(eff, weights, timeline, storage, p_peak, eps))
