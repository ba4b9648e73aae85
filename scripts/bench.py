#!/usr/bin/env python3
"""Offline-solver and online-policy benchmark along the epoch count N.

    python scripts/bench.py --label mychange

writes ``BENCH_<label>.json`` with five parts:

* ``scaling``: three offline models at N in {10, 100, 1000, 10^4} on
  perfbench's generator (``draw_timeline`` and ``rng_for`` from
  ``perfbench/workloads.py``, streams 100 and 101, the channel drawn
  after the arrivals; a 5 J super-capacitor over a 100 J battery at
  eta = 0.5, a 4 W peak, 1 J mean packets): ``ideal``
  (``solve_offline_ideal``), ``circuit`` (``solve_offline_circuit``,
  eps = 1 W) and ``general`` (``solve_offline_circuit`` with per-epoch
  eps ~ U(0, 2) W, drawn from the cell's stream after the channel).  Per
  cell: the median wall time of a solve, of its Newton loop and of its
  reconstruction, the Newton steps, microseconds per Newton step (loop
  time over steps) and of that in ``_Program.factor``
  (``factor_us_per_step``), how many short transmission windows
  reconstruction tried to snap to zero (``snap_tries``, one
  ``storage_slacks`` call each) and how many of those snaps it kept
  (``snaps_kept``), ``converged`` (``certificate.ok()``),
  ``certificate.ok()`` on its own (the same value since a returned
  schedule always passes the audit), the loop's dual residual (nats/J),
  the objective and the ``tracemalloc`` peak of one more solve.  A solve that raises
  ``SolverError``, as one whose schedule fails the feasibility audit
  does, makes its cell ``"status": "error"`` with the message.
* ``online``: ``run_online`` with the burst rule (per-epoch eps ~
  U(0.5, 1.5) W, as perfbench's ``online-long``) and with even spreading
  at 2000 and 10^4 epochs on the same generator: the median wall time,
  microseconds per epoch, the throughput, the share of the harvested
  energy the policy discarded (``discarded_frac``) and the
  ``tracemalloc`` peak; a burst cell also records ``p_o_us``, the median
  microseconds of one ``WaterSystem.efficient_power`` call over the
  cell's circuit powers (``P_O_CALLS`` calls).
* ``phases``: mean per-solve times of the solver's phases (value model,
  program assembly, Newton loop, reconstruction, certificate, audit) over
  an efficiency sweep shaped like acceptance gate 06 (5 J mean packets,
  eta in {0.2, 0.4, 0.6, 0.8, 1.0}, 20 trials by default), timed by
  wrapping each phase function of ``ehsched.offline``, and how many of
  those programs found their shape (``_Shape``, the part of the program
  that depends only on N and the burst/full split) in the offline
  module's cache (``template_hits``), how many built it
  (``template_misses``) and the mean milliseconds of one such build
  (``template_ms``, 0 without one).
* ``cold``: medians over 5 fresh interpreters of ``import ehsched``
  (``import_s``) and of the first solve after it of the ``ideal`` and
  ``circuit`` cells at N = 10, stream 100 (``first_ideal_s``,
  ``first_circuit_s``), one interpreter per model and run.  scipy loads
  during the first solve that needs it, so the import leaves it out
  and these solves pay for it.
* ``environment``: interpreter and library versions, the CPU count and
  the BLAS thread count.

Each scaling or online cell repeats its run up to ``--repeats`` times
within a time budget of ``--budget`` seconds, then runs once more under
``tracemalloc``.  A cell whose first run is predicted (linearly in N
from the cell of the next smaller N) to exceed the budget is not run and
is recorded with ``"status": "skipped"``.  The default run takes about
two minutes on a 2-core machine.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: One BLAS thread, as perfbench runs its workloads; an explicit setting
#: in the environment wins.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402
from workloads import (  # noqa: E402
    M,
    P_PEAK,
    REFERENCE_SEED,
    USERS,
    default_storage,
    draw_timeline,
    rng_for,
)

from ehsched import offline  # noqa: E402
from ehsched.channels import decompose_zf_dpc, generate_channels  # noqa: E402
from ehsched.energy import FeasibilityReport  # noqa: E402
from ehsched.experiments import ExperimentSpec, run_sweep  # noqa: E402
from ehsched.online import run_online  # noqa: E402
from ehsched.waterfill import WaterSystem  # noqa: E402

STREAMS = (100, 101)
MODELS = ("ideal", "circuit", "general")
E_AVG = 1.0
EPS = 1.0
#: Range of the per-epoch circuit powers of the ``general`` model.
EPS_RANGE = (0.0, 2.0)
#: Epoch counts and per-epoch circuit-power range of the online cells.
ONLINE_SIZES = (2000, 10_000)
ONLINE_EPS_RANGE = (0.5, 1.5)
#: Timed ``efficient_power`` calls per burst cell.
P_O_CALLS = 21
ETAS = (0.2, 0.4, 0.6, 0.8, 1.0)
#: Mean packet energy and default trials per eta of the ``phases`` sweep.
PHASE_E_AVG = 5.0
PHASE_TRIALS = 20
#: Fresh interpreters per model, and the cell, of the ``cold`` part.
COLD_RUNS = 5
COLD_N = 10
#: Run in a fresh interpreter (``argv[1]`` the model, ``argv[2]`` this
#: script's directory): prints the seconds of ``import ehsched`` and of
#: the first solve of the model's cell.
COLD_PROBE = """\
import sys, time
t0 = time.perf_counter()
import ehsched
import_s = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import bench
inputs = bench.instance(bench.STREAMS[0], bench.COLD_N, bench.EPS_RANGE)
t0 = time.perf_counter()
bench.solve(sys.argv[1], *inputs)
print(import_s, time.perf_counter() - t0)
"""
#: The phase functions of one offline solve, in call order.
PHASES = {
    "value_model": "_ValueModel",
    "program": "_Program",
    "loop": "_interior_point",
    "reconstruct": "_reconstruct",
    "certificate": "_certificate",
    "audit": "check_feasibility",
}


def instance(stream: int, n: int, eps_range):
    """The arrivals, channel and per-epoch circuit powers of one cell."""
    rng = rng_for(REFERENCE_SEED, stream)
    timeline = draw_timeline(rng, n, E_AVG)
    eff = decompose_zf_dpc(generate_channels(M, USERS, rng=rng))
    return eff, timeline, rng.uniform(*eps_range, n)


def solve(model: str, eff, timeline, eps):
    if model == "ideal":
        return offline.solve_offline_ideal(eff, None, timeline, default_storage(), P_PEAK)
    eps = EPS if model == "circuit" else eps
    return offline.solve_offline_circuit(eff, None, timeline, default_storage(), P_PEAK, eps)


def peak_mib(fn) -> float:
    """The ``tracemalloc`` peak (MiB) of one call of ``fn``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def timed_runs(fn, repeats: int, budget: float) -> list[float]:
    """Wall times of up to ``repeats`` calls of ``fn``, stopping before a
    call that would likely end past ``budget`` seconds in all."""
    times = []
    while len(times) < repeats and (not times or sum(times) + times[-1] <= budget):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


@contextlib.contextmanager
def phase_timers():
    """Wrap the phase functions of ``ehsched.offline`` for the duration:
    yields the seconds spent in each phase so far (and, under ``"factor"``,
    in ``_Program.factor``, part of the loop's, and under ``"template"``
    in building program shapes, part of the program's) with the calls of
    each, the Newton step count of each finished loop and, per
    ``storage_slacks`` call of ``ehsched.offline`` (one per short window
    that reconstruction tries to snap to zero), whether the snap was
    kept."""
    spent = dict.fromkeys((*PHASES, "factor", "template"), 0.0)
    calls = dict.fromkeys(spent, 0)
    steps, snaps = [], []
    saved = {name: getattr(offline, name) for name in (*PHASES.values(), "_Shape")}
    # The class itself: the phase wrapper replaces the module's name.
    program = saved["_Program"]
    storage_slacks, factor = offline.storage_slacks, program.factor

    def counted(*args):
        slacks = storage_slacks(*args)
        snaps.append(FeasibilityReport(slacks).feasible)
        return slacks

    def timed(phase, fn):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                spent[phase] += time.perf_counter() - t0
                calls[phase] += 1
            if phase == "loop":
                steps.append(out.iterations)
            return out

        return call

    try:
        for phase, name in PHASES.items():
            setattr(offline, name, timed(phase, saved[name]))
        offline._Shape = timed("template", saved["_Shape"])
        offline.storage_slacks = counted
        program.factor = timed("factor", factor)
        yield spent, calls, steps, snaps
    finally:
        for name, fn in saved.items():
            setattr(offline, name, fn)
        offline.storage_slacks, program.factor = storage_slacks, factor


def skipped(cell: dict, predicted: float | None, budget: float) -> bool:
    """Mark ``cell`` skipped when its predicted first run exceeds the budget."""
    if predicted is None or predicted <= budget:
        return False
    cell.update(status="skipped", predicted_s=predicted,
                reason=f"predicted {predicted:.1f} s over the {budget:g} s budget")
    return True


def scaling_cell(model: str, stream: int, n: int, repeats: int, budget: float,
                 predicted: float | None) -> dict:
    cell = {"model": model, "stream": stream, "N": n}
    if skipped(cell, predicted, budget):
        return cell
    eff, timeline, eps = instance(stream, n, EPS_RANGE)
    runs = []

    def run():
        with phase_timers() as (spent, _, _, snaps):
            sol = solve(model, eff, timeline, eps)
        runs.append((sol, spent, snaps))

    try:
        times = timed_runs(run, repeats, budget)
    except offline.SolverError as exc:
        cell.update(status="error", error=str(exc))
        return cell
    sol, _, snaps = runs[-1]
    loop = statistics.median(spent["loop"] for _, spent, _ in runs)
    factor = statistics.median(spent["factor"] for _, spent, _ in runs)
    cell.update(
        status="ok",
        runs=len(times),
        median_s=statistics.median(times),
        loop_median_s=loop,
        reconstruct_median_s=statistics.median(spent["reconstruct"] for _, spent, _ in runs),
        newton_steps=sol.iterations,
        us_per_newton_step=1e6 * loop / max(sol.iterations, 1),
        factor_us_per_step=1e6 * factor / max(sol.iterations, 1),
        snap_tries=len(snaps),
        snaps_kept=sum(snaps),
        converged=sol.converged,
        certificate_ok=bool(sol.certificate.ok()),
        dual_residual=sol.stationarity_residual,
        objective=sol.objective,
        peak_mem_mb=peak_mib(lambda: solve(model, eff, timeline, eps)),
    )
    return cell


def online_cell(policy: str, stream: int, n: int, repeats: int, budget: float,
                predicted: float | None) -> dict:
    cell = {"policy": policy, "stream": stream, "N": n}
    if skipped(cell, predicted, budget):
        return cell
    eff, timeline, eps = instance(stream, n, ONLINE_EPS_RANGE)
    eps = eps if policy == "burst" else None
    runs = []

    def run():
        runs.append(run_online(eff, None, timeline, default_storage(), P_PEAK, eps=eps))

    times = timed_runs(run, repeats, budget)
    median = statistics.median(times)
    cell.update(
        status="ok",
        runs=len(times),
        median_s=median,
        us_per_epoch=1e6 * median / n,
        throughput=runs[-1].throughput,
        discarded_frac=float(runs[-1].discarded.sum()) / timeline.total_energy(),
        peak_mem_mb=peak_mib(run),
    )
    if eps is not None:
        ws = WaterSystem.shared(eff)
        p_o = timed_runs(lambda: ws.efficient_power(eps), P_O_CALLS, budget)
        cell["p_o_us"] = 1e6 * statistics.median(p_o)
    return cell


def series(make_cell, kinds, sizes, repeats: int, budget: float) -> list[dict]:
    """Cells of every kind and stream along ``sizes``, each size's first
    run predicted from the previous size's median."""
    cells = []
    for kind in kinds:
        for stream in STREAMS:
            # Seconds per run at the previous size, measured or predicted.
            est = n_prev = None
            for n in sizes:
                predicted = None if est is None else est * n / n_prev
                cell = make_cell(kind, stream, n, repeats, budget, predicted)
                cells.append(cell)
                print(json.dumps(cell), file=sys.stderr)
                est, n_prev = cell.get("median_s", predicted), n
    return cells


def phases(trials: int) -> dict:
    """Mean per-solve phase times (ms) over a gate-06-shaped sweep."""
    spec = ExperimentSpec(num_trials=trials, e_avg=PHASE_E_AVG)
    with phase_timers() as (spent, calls, steps, _):
        t0 = time.perf_counter()
        run_sweep(spec, axis="eta", values=list(ETAS), modes=("ideal", "circuit"))
        wall = time.perf_counter() - t0
    solves = len(steps)
    per_solve = {phase: 1e3 * spent[phase] / max(solves, 1) for phase in PHASES}
    per_solve["total"] = sum(per_solve.values())
    return {
        "trials": trials,
        "etas": list(ETAS),
        "solves": solves,
        "newton_steps": sum(steps),
        "us_per_newton_step": 1e6 * spent["loop"] / max(sum(steps), 1),
        "template_hits": calls["program"] - calls["template"],
        "template_misses": calls["template"],
        "template_ms": 1e3 * spent["template"] / max(calls["template"], 1),
        "sweep_s": wall,
        "ms_per_solve": per_solve,
    }


def cold() -> dict:
    """Median seconds of ``import ehsched`` and of the first ``ideal`` and
    ``circuit`` solve after it, each in ``COLD_RUNS`` fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    imports, first = [], {"ideal": [], "circuit": []}
    for _ in range(COLD_RUNS):
        for model, times in first.items():
            out = subprocess.run(
                [sys.executable, "-c", COLD_PROBE, model, str(ROOT / "scripts")],
                env=env, cwd=str(ROOT), capture_output=True, text=True, timeout=120, check=True,
            )
            import_s, solve_s = map(float, out.stdout.split())
            imports.append(import_s)
            times.append(solve_s)
    return {
        "runs": COLD_RUNS,
        "N": COLD_N,
        "stream": STREAMS[0],
        "import_s": statistics.median(imports),
        "first_ideal_s": statistics.median(first["ideal"]),
        "first_circuit_s": statistics.median(first["circuit"]),
    }


def environment() -> dict:
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": affinity,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="output is BENCH_<label>.json")
    ap.add_argument("--out-dir", type=Path, default=ROOT)
    ap.add_argument("--sizes", default="10,100,1000,10000",
                    help="comma-separated epoch counts of the scaling cells")
    ap.add_argument("--repeats", type=int, default=5, help="solves per scaling cell at most")
    ap.add_argument("--budget", type=float, default=20.0, help="seconds per scaling cell")
    ap.add_argument("--trials", type=int, default=PHASE_TRIALS, help="sweep trials per eta for phases")
    args = ap.parse_args(argv)
    sizes = [int(v) for v in args.sizes.split(",")]
    if args.repeats < 1 or args.trials < 1 or min(sizes) < 1:
        ap.error("--repeats, --trials and every size must be positive")

    t0 = time.perf_counter()
    report = {
        "label": args.label,
        "environment": environment(),
        "scaling": series(scaling_cell, MODELS, sizes, args.repeats, args.budget),
        "online": series(online_cell, ("burst", "even"), ONLINE_SIZES, args.repeats, args.budget),
        "phases": phases(args.trials),
        "cold": cold(),
    }
    report["bench_s"] = time.perf_counter() - t0
    out = args.out_dir / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out} in {report['bench_s']:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
