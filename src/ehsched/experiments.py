"""Monte-Carlo benchmark harness.

Compares the causal policies against the whole-horizon optimum over
randomized trials, optionally sweeping one scenario parameter.  Trials
are paired across sweep points: trial ``k`` uses the same generator key
at every parameter value, so ratio estimates use common random numbers.

Per-trial draw order is fixed (arrivals, then channels, then the circuit
power sequence when one is randomized), which keeps results byte-stable
under any subset of features.  Aggregation uses exact summation, making
reported means independent of trial iteration order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channels import ChannelSet, EffectiveChannels, UserConfig, decompose_zf_dpc
from .channels import generate_channels
from .energy import EpochTimeline, HybridStorage, build_timeline, generate_compound_poisson
from .offline import SolverError, solve_offline_circuit, solve_offline_ideal
from .online import run_online

__all__ = [
    "ExperimentSpec",
    "TrialOutcome",
    "SweepResult",
    "default_parameters",
    "reference_profile",
    "trial_rng",
    "run_trial",
    "run_sweep",
    "write_schedule_csv",
    "write_trace_csv",
    "write_report_csv",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """Scenario parameters for one benchmark configuration.

    Defaults describe the baseline scenario used throughout: a 2-antenna
    transmitter serving two single-antenna users, unit-rate harvesting
    with 1 J mean packets plus 5 J available at t=0, a 5 J fast buffer
    over a 100 J battery, a 4 W peak limit and 1 W circuit power over a
    10 s horizon.
    """

    T: float = 10.0
    arrival_rate: float = 1.0
    e_avg: float = 1.0
    initial_energy: float = 5.0
    sc_cap: float = 5.0
    b_cap: float = 100.0
    eta: float = 0.5
    p_peak: float = 4.0
    eps: float = 1.0
    #: When set, each epoch's circuit power is drawn uniformly from this
    #: range instead of using the constant ``eps``.
    eps_range: tuple[float, float] | None = None
    M: int = 2
    user_antennas: tuple[int, ...] = (1, 1)
    user_weights: tuple[float, ...] = (1.0, 1.0)
    num_trials: int = 100
    master_seed: int = 20260823
    #: Use the fixed six-arrival profile instead of random arrivals.
    deterministic_profile: bool = False
    #: Draw one channel realization from the master seed and reuse it in
    #: every trial (default: fresh fading per trial).
    pin_channels: bool = False

    def __post_init__(self):
        if self.eps_range is not None:
            if len(self.eps_range) != 2:
                raise ValueError("eps_range needs exactly two values lo,hi")
            lo, hi = self.eps_range
            if not lo <= hi:
                raise ValueError("eps_range needs lo <= hi")
            # Nonnegative circuit powers, drawn from a range of finite width.
            if not (lo >= 0.0 and math.isfinite(hi)):
                raise ValueError("eps_range needs lo >= 0 and a finite hi")

    def users(self) -> tuple[UserConfig, ...]:
        if len(self.user_antennas) != len(self.user_weights):
            raise ValueError("user_antennas and user_weights lengths differ")
        return tuple(
            UserConfig(n=n, gamma=g) for n, g in zip(self.user_antennas, self.user_weights)
        )


def default_parameters() -> ExperimentSpec:
    """The baseline benchmark scenario."""
    return ExperimentSpec()


def reference_profile() -> EpochTimeline:
    """The fixed six-arrival profile used for reproducible examples."""
    return build_timeline(
        [(0.0, 4.0), (2.0, 7.0), (3.0, 3.0), (5.0, 5.0), (8.0, 1.0), (9.0, 8.0)], T=10.0
    )


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Counter-based generator for one trial; trials are independent
    streams and reproducible in isolation."""
    return np.random.Generator(np.random.Philox(key=master_seed ^ trial_index))


@dataclass(frozen=True)
class TrialOutcome:
    """Objectives of one paired trial, keyed by policy name.  ``converged``
    is False when an offline solve's dual certificate failed; a schedule
    that fails the audit raises :class:`SolverError` instead."""

    objectives: dict[str, float]
    timeline: EpochTimeline
    channels: ChannelSet
    converged: bool = True


def _draw_channels(spec: ExperimentSpec, rng) -> tuple[ChannelSet, EffectiveChannels]:
    """A full-rank channel draw and its ZF-DPC decomposition."""
    users = spec.users()
    for _ in range(8):
        chans = generate_channels(spec.M, users, rng=rng)
        try:
            return chans, decompose_zf_dpc(chans)
        except ValueError:
            continue  # pathologically ill-conditioned draw; redraw
    raise RuntimeError("could not draw a full-rank channel realization")


def run_trial(
    spec: ExperimentSpec, trial_index: int, modes: tuple[str, ...] = ("ideal", "circuit")
) -> TrialOutcome:
    """Run every requested policy pair on one randomized scenario.

    ``modes`` selects which offline/online pairs to evaluate: ``"ideal"``
    (zero circuit power) and/or ``"circuit"`` (constant or randomized
    per-epoch circuit power, per the spec's ``eps_range``).  With no
    modes the trial only draws its timeline and channels.
    """
    if not set(modes) <= {"ideal", "circuit"}:
        raise ValueError(f"modes must be a subset of: ideal, circuit; got {modes!r}")
    rng = trial_rng(spec.master_seed, trial_index)
    if spec.deterministic_profile:
        timeline = reference_profile()
    else:
        timeline = generate_compound_poisson(
            spec.arrival_rate, spec.e_avg, spec.T, spec.initial_energy, rng=rng
        )
    if spec.pin_channels:
        chans, eff = _draw_channels(spec, trial_rng(spec.master_seed, 0x5EED))
    else:
        chans, eff = _draw_channels(spec, rng)
    if spec.eps_range is not None:
        eps_input = rng.uniform(*spec.eps_range, timeline.N)
    else:
        eps_input = spec.eps

    storage = HybridStorage(sc_cap=spec.sc_cap, b_cap=spec.b_cap, eta=spec.eta)
    out: dict[str, float] = {}
    converged = True
    if "ideal" in modes:
        off = solve_offline_ideal(eff, None, timeline, storage, spec.p_peak)
        converged = converged and off.converged
        out["offline-ideal"] = off.objective
        out["online-ideal"] = run_online(
            eff, None, timeline, storage, spec.p_peak
        ).throughput
    if "circuit" in modes:
        off = solve_offline_circuit(eff, None, timeline, storage, spec.p_peak, eps_input)
        converged = converged and off.converged
        out["offline-circuit"] = off.objective
        out["online-circuit"] = run_online(
            eff, None, timeline, storage, spec.p_peak, eps=eps_input
        ).throughput
    return TrialOutcome(objectives=out, timeline=timeline, channels=chans, converged=converged)


#: The spec fields a sweep can vary: every field that holds one float.
SWEEP_AXES = tuple(n for n, f in ExperimentSpec.__dataclass_fields__.items() if f.type == "float")
_PAIRS = {"online-ideal": "offline-ideal", "online-circuit": "offline-circuit"}
_ORDER = ["offline-ideal", "online-ideal", "offline-circuit", "online-circuit"]


@dataclass
class SweepResult:
    """Aggregated benchmark output.

    ``rows`` holds one report line per (axis value, policy):
    ``(axis_value, policy, mean, stderr, ratio_to_offline)``.  ``raw``
    maps ``(axis_value, policy)`` to the per-trial objectives, in trial
    order, for finer-grained analysis.  ``failed`` maps each axis value to
    the number of trials dropped from it, for every policy alike, because
    an offline solve raised :class:`SolverError` (its schedule failed the
    audit, say) or did not converge (its certificate failed); an axis
    value whose every trial failed has no rows.
    """

    axis: str
    values: tuple[float, ...]
    rows: list[tuple[float, str, float, float, float]] = field(default_factory=list)
    raw: dict[tuple[float, str], list[float]] = field(default_factory=dict)
    failed: dict[float, int] = field(default_factory=dict)

    def ratio(self, axis_value: float, policy: str) -> float:
        for v, p, _, _, r in self.rows:
            if p == policy and v == axis_value:
                return r
        raise KeyError((axis_value, policy))


def _mean_stderr(vals: list[float]) -> tuple[float, float]:
    n = len(vals)
    mean = math.fsum(vals) / n
    if n < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in vals) / (n - 1)
    return mean, math.sqrt(var / n)


def run_sweep(
    spec: ExperimentSpec,
    axis: str | None = None,
    values=None,
    modes: tuple[str, ...] = ("ideal", "circuit"),
) -> SweepResult:
    """Benchmark all policy pairs, sweeping ``axis`` over ``values``.

    ``axis`` names one of ``SWEEP_AXES``, the float fields of the spec,
    and ``values`` must be distinct.  With ``axis=None`` and no
    ``values``, a single point is run at the spec's own settings.  Trial
    seeds are shared across sweep points.
    """
    if spec.num_trials <= 0:
        raise ValueError("num_trials must be positive")
    if not modes:
        raise ValueError("a sweep needs at least one of the modes ideal, circuit")
    if axis is None:
        if values is not None:
            raise ValueError("sweep values need an axis")
        values = (0.0,)
    else:
        if values is None or not len(values):
            raise ValueError("sweep values are required when an axis is given")
        if axis not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {axis!r}; choose one of {', '.join(SWEEP_AXES)}")
    result = SweepResult(axis=axis or "", values=tuple(float(v) for v in values))
    # A repeated point would run twice and keep one entry in raw and failed.
    if len(set(result.values)) < len(result.values):
        raise ValueError("sweep values must be distinct")
    for v in values:
        sp = spec if axis is None else replace(spec, **{axis: float(v)})
        per: dict[str, list[float]] = {}
        result.failed[float(v)] = 0
        for k in range(spec.num_trials):
            try:
                outcome = run_trial(sp, k, modes)
            except SolverError:
                outcome = None
            if outcome is None or not outcome.converged:
                result.failed[float(v)] += 1
                continue
            for name, val in outcome.objectives.items():
                per.setdefault(name, []).append(val)
        for name in _ORDER:
            if name not in per:
                continue
            vals = per[name]
            mean, stderr = _mean_stderr(vals)
            if name in _PAIRS:
                ref = per[_PAIRS[name]]
                ratios = [a / b for a, b in zip(vals, ref) if b > 1e-12]
                ratio = math.fsum(ratios) / len(ratios) if ratios else math.nan
            else:
                ratio = 1.0
            result.rows.append((float(v), name, mean, stderr, ratio))
            result.raw[(float(v), name)] = vals
    return result


# ---------------------------------------------------------------------------
# CSV emission (RFC-4180-style: header row, LF line endings, 12 significant
# digits so equal runs produce byte-identical files)
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    return "%.12g" % float(x)


_SCHEDULE_ROW = "%d" + ",%.12g" * 10 + "\n"


def write_schedule_csv(f, timeline: EpochTimeline, sched) -> None:
    f.write("i,t_i,l_i,tau,p_sc,p_b,eps_sc,eps_b,E_sc_dep,E_b_dep,rate\n")
    columns = (
        timeline.t, timeline.l, sched.tau, sched.p_sc, sched.p_b, sched.eps_sc,
        sched.eps_b, sched.split.sc, sched.split.b, sched.rate,
    )
    # One tolist() per column, so each row is Python floats, formatted as
    # _fmt formats them in one %-operation.
    for i, row in enumerate(zip(*(column.tolist() for column in columns))):
        f.write(_SCHEDULE_ROW % (i, *row))


def write_trace_csv(f, trace: np.ndarray) -> None:
    f.write("time,cumulative_throughput\n")
    for t, thr in np.asarray(trace).tolist():
        f.write("%.12g,%.12g\n" % (t, thr))


def write_report_csv(f, result: SweepResult) -> None:
    f.write("axis_value,policy,mean,stderr,ratio_to_offline\n")
    for v, policy, mean, stderr, ratio in result.rows:
        f.write(f"{_fmt(v)},{policy},{_fmt(mean)},{_fmt(stderr)},{_fmt(ratio)}\n")
