"""ehsched benchmark: one workload per invocation.

    python3 perfbench/run.py --workload sweep-eta --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run measures the end-to-end metrics with
no instrumentation; with ``--trace 1`` it measures the same operations
with every layer boundary wrapped (see ``spans.py``) and reports the
per-layer metrics.  Operations run one at a time, taking turns on the
CPUs the process may use, after a short warm-up.  Every operation's output
is audited after it is timed, and fixed inputs are compared with
``reference.json``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Spans of a traced run are written to
``.perfbench-out/spans-<workload>.csv``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-out"

#: One BLAS thread: the workloads are single-operation closed loops and
#: one thread keeps their timings steady on a small, shared machine.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Set-up (import plus input generation) is repeated this many times; the
#: median is reported.
SETUP_REPEATS = 5
#: Operations run, and audited, before the measured phase, for at least
#: this many seconds of program time, so that first-call costs and the
#: host's slow start after an idle spell fall outside it.
WARMUP_S = 3.0
#: Operations replayed under tracemalloc for ``peak_mem_mb``.
MEM_OPS = {"sweep-eta": 10, "long-horizon": 1, "online-long": 1}
#: The top-level spans must cover the traced wall time of the measured
#: phase to within this share.
COVERAGE_TOL = 0.05

#: The end-to-end metrics of the result line, in BENCHMARK.json order.
END_TO_END = ("ops_per_s", "op_p50_ms", "setup_s", "peak_mem_mb")

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import ehsched; "
    "print(repr(time.perf_counter() - t))"
)


def percentile(values, pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct * len(ordered) / 100) - 1)]


def tail_percentile(n: int) -> int:
    """The highest whole percentile, at most the 90th, with >= 10 samples
    beyond it; the 50th when there are too few samples for any tail."""
    for pct in range(90, 50, -1):
        if n - math.ceil(pct * n / 100) >= 10:
            return pct
    return 50


def import_seconds() -> float:
    """Wall time of ``import ehsched`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, cwd=str(ROOT), capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


@contextlib.contextmanager
def cpu_turns():
    """Yield ``move_to(k)``, which pins this process, and the processes it
    starts, to the k-th of its CPUs in turn; the CPU set is restored on exit.

    On a shared host one core can run the same work a quarter slower than
    another for minutes at a time, and a process the scheduler leaves on
    one core measures that core; operations that take turns on every core
    measure them all in every run.
    """
    cpus = sorted(os.sched_getaffinity(0))
    try:
        yield lambda k: os.sched_setaffinity(0, {cpus[k % len(cpus)]})
    finally:
        os.sched_setaffinity(0, cpus)


def measure(wl, inputs, seconds: float, counter: dict, stop: int | None = None, start: int = 0):
    """Run operations from index ``start`` (a cycle boundary) until
    ``seconds`` of program time, rounded up to a whole workload cycle, or
    up to index ``stop``.

    Each output is audited right after its operation, outside the timed
    region, so memory stays flat however many operations fit in the run.
    Returns the per-operation (seconds, epochs) pairs.
    """
    done = []
    total = 0.0
    j = start
    with cpu_turns() as move_to:
        while (total < seconds or j % wl.cycle) if stop is None else (j < stop):
            move_to(j)
            out = wl.op(inputs, j)
            done.append((out.seconds, out.epochs))
            total += sum(out.seconds)
            record(counter, wl.check(inputs, out), f"op {j}")
            j += 1
    return done


def record(counter: dict, problems: list[str], label: str) -> None:
    counter["attempted"] += 1
    if problems:
        counter["failed"] += 1
        for p in problems[:3]:
            print(f"FAILED {label}: {p}", file=sys.stderr)


def peak_memory_mb(wl, memdir: Path) -> float:
    """Median traced Python heap peak of one operation, in MiB.

    Memory is a deterministic function of the inputs, so this pass runs
    the first operations of fixed inputs: the figure then moves only when
    the program's memory use does, not with the seed.
    """
    memdir.mkdir(exist_ok=True)
    inputs = wl.memory_inputs(str(memdir))
    peaks = []
    for j in range(MEM_OPS[wl.name]):
        tracemalloc.start()
        try:
            wl.op(inputs, j)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return statistics.median(peaks) / 2**20


def check_reference(wl, workdir: str, counter: dict) -> bool:
    """Compare values on fixed inputs with those stored in reference.json."""
    from workloads import REFERENCE_RTOL

    stored = json.loads((HERE / "reference.json").read_text())["values"][wl.name]
    got = wl.reference(workdir)
    problems = []
    for key, want in stored.items():
        have = got.get(key, math.nan)
        if not math.isclose(have, want, rel_tol=REFERENCE_RTOL, abs_tol=1e-12):
            problems.append(f"reference {key}: {have!r}, stored {want!r}")
    record(counter, problems, "reference")
    return not problems


def class_medians(wl, times) -> list[float]:
    """The median time of each operation class in the run.

    Operations of one class repeat the same work, so its median leaves
    out the spells in which the shared host ran that work slowly; the
    classes are then weighted by their cost, as in a plain throughput.
    """
    by_class: dict[int, list[float]] = {}
    for j, t in enumerate(times):
        by_class.setdefault(j % wl.classes, []).append(t)
    return [statistics.median(v) for v in by_class.values()]


def end_to_end(wl, ops, setup_s: float, peak_mb: float):
    """The END_TO_END metrics, then per-workload views of them under the
    names later changes cite (printed, not in the result line)."""
    times = [sum(s) for s, _ in ops]
    total = sum(times)
    n = len(times)
    medians = class_medians(wl, times)
    metrics = {
        "ops_per_s": (len(medians) / sum(medians), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(times), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_mem_mb": (peak_mb, "MiB"),
        "epochs_per_s": (sum(e for _, e in ops) / total, "1/s"),
    }
    if wl.name == "sweep-eta":
        q = tail_percentile(n)
        metrics["trials_per_s"] = metrics["ops_per_s"]
        metrics["trial_p50_ms"] = metrics["op_p50_ms"]
        metrics["trial_p90_ms"] = (1e3 * percentile(times, q), "ms")
        beyond = n - math.ceil(q * n / 100)
        print(f"trial_p90_ms is the p{q} of {n} trials, {beyond} beyond it")
    elif wl.name == "long-horizon":
        metrics["solve_ideal_s"] = (statistics.median(s[0] for s, _ in ops), "s")
        metrics["solve_circuit_s"] = (statistics.median(s[1] for s, _ in ops), "s")
    else:
        metrics["run_burst_s"] = (statistics.median(s[0] for s, _ in ops), "s")
        metrics["run_even_s"] = (statistics.median(s[1] for s, _ in ops), "s")
    return metrics, n


def traced(wl, inputs, seconds: float, counter: dict, spans_path: Path):
    """Run the traced phase, then the same operations untraced."""
    rec = spans.SpanRecorder()
    spans.install(rec)
    try:
        ops = measure(wl, inputs, seconds, counter)
    finally:
        rec.uninstall()
    plain = measure(wl, inputs, 0.0, counter, stop=len(ops))
    traced_s = sum(sum(s) for s, _ in ops)
    plain_s = sum(sum(s) for s, _ in plain)
    metrics = spans.layer_metrics(rec)
    metrics["trace_ops"] = (len(ops), "count")
    metrics["trace_overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    coverage = spans.top_level_seconds(rec) / traced_s
    metrics["trace_coverage_frac"] = (coverage, "ratio")
    rec.write_csv(str(spans_path))
    return metrics, coverage, rec.absent, len(ops)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def prepare() -> str | None:
    """Pin BLAS threads and import ehsched from this checkout's ``src/``;
    returns an error message when that is impossible."""
    if not (SRC / "ehsched" / "__init__.py").is_file():
        return f"no ehsched package under {SRC}"
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import ehsched

    if Path(ehsched.__file__).resolve().parent != SRC / "ehsched":
        return f"imported ehsched from {ehsched.__file__}, not {SRC}"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    error = prepare()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": environment()}))
    result, _ = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


def run(wl, seed: int, seconds: float, trace_on: bool):
    """Measure one workload; returns the result line and every metric."""
    workdir = WORK / f"work-{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    counter = {"attempted": 0, "failed": 0}
    try:
        if trace_on:
            inputs = wl.generate(seed, str(workdir))
            metrics, coverage, absent, n = traced(
                wl, inputs, seconds, counter, WORK / f"spans-{wl.name}.csv"
            )
            if absent:
                print(f"absent (not wrapped): {', '.join(absent)}")
            if abs(coverage - 1.0) > COVERAGE_TOL:
                print(f"top-level spans cover {coverage:.3f} of the traced time", file=sys.stderr)
        else:
            setups = []
            with cpu_turns() as move_to:
                for k in range(SETUP_REPEATS):
                    move_to(k)
                    imp = import_seconds()
                    t0 = time.perf_counter()
                    inputs = wl.generate(seed, str(workdir))
                    setups.append(imp + time.perf_counter() - t0)
            warm = len(measure(wl, inputs, WARMUP_S, counter))
            ops = measure(wl, inputs, seconds, counter, start=warm)
            peak_mb = peak_memory_mb(wl, workdir / "mem")
            coverage = 1.0
        reference_ok = check_reference(wl, str(workdir), counter)
        if not trace_on:
            metrics, n = end_to_end(wl, ops, statistics.median(setups), peak_mb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics["failed_frac"] = (counter["failed"] / counter["attempted"], "ratio")
    reported = spans.PER_LAYER if trace_on else END_TO_END
    result = {
        # Reference values reproduced and spans accounted for; operations
        # whose output fails an audit are counted in "failed".
        "correct": reference_ok and abs(coverage - 1.0) <= COVERAGE_TOL,
        "attempted": counter["attempted"],
        "failed": counter["failed"],
        "metrics": {k: {"value": float(metrics[k][0]), "unit": metrics[k][1]} for k in reported},
    }
    print(f"workload {wl.name}: {n} operations, seed {seed}, trace {int(trace_on)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    print(f"  ({counter['failed']} of {counter['attempted']} operations failed)")
    return result, metrics


if __name__ == "__main__":
    sys.exit(main())
