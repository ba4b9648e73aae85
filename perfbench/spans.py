"""Span recorder for the traced run.

The benchmark measures each layer from outside: it replaces the layer's
functions at every module binding site (the package imports names
directly, so ``ehsched.offline.solve_p_o`` and
``ehsched.single_epoch.solve_p_o`` are separate bindings of one function)
with wrappers that record a span or bump a counter, and puts the
originals back afterwards.  Spans are kept in memory as parallel lists
(name, start, end, parent) and written out once, when the run ends.

Private solver phases are wrapped only if they exist; a missing name is
recorded in ``absent`` and never raises, so the solver can drop them
without an edit here.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

#: Span names whose time belongs to scipy, not to the ehsched layer that
#: called it.
SCIPY = ("scipy.nnls", "scipy.lsq_linear")


class SpanRecorder:
    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._open: list[int] = []
        #: (counter, innermost open span name or "") -> count
        self.counts: Counter = Counter()
        self.sums: Counter = Counter()
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so each call records a span; ``on_result(rec, args,
        kwargs, result)`` may add sums from the returned value."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.name)
            self.name.append(name)
            self.parent.append(self._open[-1] if self._open else -1)
            self.end.append(0.0)
            self._open.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._open.pop()
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """Wrap ``fn`` so each call is counted against the innermost span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = self.name[self._open[-1]] if self._open else ""
            self.counts[(name, inner)] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value, original):
        setattr(owner, attr, value)
        self._restore.append((owner, attr, original))

    def patch_function(self, module, attr: str, make_wrapper) -> None:
        """Wrap the function ``module.attr`` at every ehsched binding site."""
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return
        wrapper = make_wrapper(original)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "ehsched" or modname.startswith("ehsched.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper, original)

    def patch_method(self, cls, attr: str, make_wrapper) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            self.absent.append(f"{cls.__module__}.{cls.__name__}.{attr}")
            return
        self._set(cls, attr, make_wrapper(original), original)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("index,name,start_s,end_s,parent\n")
            t0 = self.start[0] if self.start else 0.0
            for i, (n, s, e, p) in enumerate(zip(self.name, self.start, self.end, self.parent)):
                f.write(f"{i},{n},{s - t0:.9f},{e - t0:.9f},{p}\n")


# ---------------------------------------------------------------------------
# What is wrapped
# ---------------------------------------------------------------------------

WATERFILL_SCALAR = (
    "power_at_level", "level_at_power", "rate_at_power", "marginal_rate", "curvature"
)
WATERFILL_VEC = ("level_at_power_vec", "rate_at_power_vec", "curvature_vec")
OFFLINE_PHASES = {
    "_maximize": "offline.maximize",
    "_polish": "offline.polish",
    "_reconstruct": "offline.reconstruct",
    "_certificate": "offline.certificate",
}


def _offline_result(rec, args, kwargs, sol):
    rec.sums["offline.iterations"] += sol.iterations
    rec.sums["offline.unconverged"] += 0 if sol.converged else 1


def _online_result(rec, args, kwargs, res):
    timeline = args[2] if len(args) > 2 else kwargs["timeline"]
    rec.sums["online.epochs"] += timeline.N
    rec.sums["online.discarded_J"] += float(res.discarded.sum())
    rec.sums["online.harvested_J"] += timeline.total_energy()


def _nnls_bytes(rec, args, kwargs, result):
    # Bytes of the dense float64 operands, computed from their shapes.
    A, b = args[0], args[1]
    rec.sums["offline.nnls_bytes"] += 8 * (A.size + b.size)


def install(rec: SpanRecorder) -> None:
    """Wrap every layer boundary of the loaded ehsched modules."""
    from ehsched import channels, cli, energy, experiments, offline, online, single_epoch, waterfill

    fn = rec.patch_function
    fn(channels, "decompose_zf_dpc", lambda f: rec.span("channels.decompose", f))
    fn(energy, "generate_compound_poisson", lambda f: rec.span("energy.timeline", f))
    fn(energy, "build_timeline", lambda f: rec.span("energy.timeline", f))
    fn(waterfill, "covariances_for_level", lambda f: rec.span("waterfill.covariances", f))
    fn(waterfill, "solve_budget", lambda f: rec.span("waterfill.solve_budget", f))
    fn(single_epoch, "solve_p_o", lambda f: rec.span("single_epoch.p_o", f))
    fn(single_epoch, "solve_single_epoch", lambda f: rec.span("single_epoch.solve", f))
    for name in ("solve_offline_ideal", "solve_offline_circuit", "solve_offline_general"):
        fn(offline, name, lambda f: rec.span("offline.solve", f, _offline_result))
    for attr, name in OFFLINE_PHASES.items():
        fn(offline, attr, lambda f, name=name: rec.span(name, f))
    fn(offline, "nnls", lambda f: rec.span("scipy.nnls", f, _nnls_bytes))
    fn(offline, "lsq_linear", lambda f: rec.span("scipy.lsq_linear", f))
    fn(online, "run_online", lambda f: rec.span("online.run", f, _online_result))
    fn(experiments, "run_trial", lambda f: rec.span("experiments.trial", f))
    fn(cli, "main", lambda f: rec.span("cli.main", f))

    polyhedron = getattr(offline, "_Polyhedron", None)
    if polyhedron is None:
        rec.absent.append("ehsched.offline._Polyhedron")
    else:
        rec.patch_method(polyhedron, "project", lambda f: rec.span("offline.project", f))
    ws = waterfill.WaterSystem
    rec.patch_method(ws, "__init__", lambda f: rec.span("waterfill.system_build", f))
    for attr in WATERFILL_SCALAR:
        rec.patch_method(ws, attr, lambda f, attr=attr: rec.counter(f"waterfill.{attr}", f))
    for attr in WATERFILL_VEC:
        rec.patch_method(ws, attr, lambda f: rec.span("waterfill.vec", f))


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(rec: SpanRecorder) -> dict[str, tuple[float, str]]:
    """Per-layer counts and times of one traced phase, as (value, unit)."""
    own = rec.self_times()
    calls: Counter = Counter()
    incl: Counter = Counter()
    self_s: Counter = Counter()
    vec_s = 0.0
    for i, (name, s, e, p) in enumerate(zip(rec.name, rec.start, rec.end, rec.parent)):
        calls[name] += 1
        incl[name] += e - s
        layer = "scipy" if name in SCIPY else name.split(".", 1)[0]
        self_s[layer] += own[i]
        if name == "waterfill.vec" and (p < 0 or rec.name[p] != "waterfill.vec"):
            vec_s += e - s  # outermost vector query only: no double count
    scalar = sum(n for (name, _), n in rec.counts.items() if name.startswith("waterfill."))
    rate_in_p_o = rec.counts[("waterfill.rate_at_power", "single_epoch.p_o")]
    harvested = rec.sums["online.harvested_J"]

    def ratio(a, b):
        return a / b if b else 0.0

    count, sec = "count", "s"
    return {
        "offline.solves": (calls["offline.solve"], count),
        "offline.iterations": (rec.sums["offline.iterations"], count),
        "offline.projections": (calls["offline.project"], count),
        "offline.nnls_calls": (calls["scipy.nnls"], count),
        "offline.nnls_s": (incl["scipy.nnls"], sec),
        "offline.nnls_bytes": (rec.sums["offline.nnls_bytes"], "B-computed"),
        "offline.maximize_s": (incl["offline.maximize"], sec),
        "offline.polish_s": (incl["offline.polish"], sec),
        "offline.reconstruct_s": (incl["offline.reconstruct"], sec),
        "offline.certificate_s": (incl["offline.certificate"], sec),
        "offline.lsq_linear_s": (incl["scipy.lsq_linear"], sec),
        "offline.self_s": (self_s["offline"], sec),
        "offline.unconverged": (rec.sums["offline.unconverged"], count),
        "single_epoch.p_o_calls": (calls["single_epoch.p_o"], count),
        "single_epoch.p_o_s": (incl["single_epoch.p_o"], sec),
        "single_epoch.rate_evals_per_p_o": (ratio(rate_in_p_o, calls["single_epoch.p_o"]), "ratio"),
        "single_epoch.solve_single_epoch_s": (incl["single_epoch.solve"], sec),
        "waterfill.system_builds": (calls["waterfill.system_build"], count),
        "waterfill.system_build_s": (incl["waterfill.system_build"], sec),
        "waterfill.scalar_queries": (scalar, count),
        "waterfill.vec_calls": (calls["waterfill.vec"], count),
        "waterfill.vec_s": (vec_s, sec),
        "waterfill.covariances_calls": (calls["waterfill.covariances"], count),
        "waterfill.covariances_s": (incl["waterfill.covariances"], sec),
        "online.runs": (calls["online.run"], count),
        "online.epochs": (rec.sums["online.epochs"], count),
        "online.self_s": (self_s["online"], sec),
        "online.discarded_frac": (ratio(rec.sums["online.discarded_J"], harvested), "ratio"),
        "channels.decompose_calls": (calls["channels.decompose"], count),
        "channels.decompose_s": (incl["channels.decompose"], sec),
        "energy.timeline_builds": (calls["energy.timeline"], count),
        "energy.timeline_s": (incl["energy.timeline"], sec),
        "experiments.trial_s": (incl["experiments.trial"], sec),
        "experiments.self_s": (self_s["experiments"], sec),
        "cli.calls": (calls["cli.main"], count),
        "cli.self_s": (self_s["cli"], sec),
    }


#: The per-layer metrics of a traced run's result line.
PER_LAYER = (
    *layer_metrics(SpanRecorder()), "trace_ops", "trace_overhead_frac", "trace_coverage_frac"
)


def top_level_seconds(rec: SpanRecorder) -> float:
    return sum(e - s for s, e, p in zip(rec.start, rec.end, rec.parent) if p < 0)
