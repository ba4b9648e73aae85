#!/usr/bin/env python3
"""One sha256 per offline solve or online run, to compare two checkouts
bit for bit.

    python scripts/solve_digest.py [--reverse] > digests.txt

prints one ``<label> <sha256>`` line per solve or run.  A solve's digest
covers the objective (as a hex float), the Newton step count,
``converged``, the loop's dual residual, every array of the returned
``Schedule`` and the certificate's residual tables; a solve that raises
``SolverError`` digests the message instead.  A ``run_online`` digest
(labels ending in ``online``) covers the throughput (as a hex float),
every array of its ``Schedule``, the trace and the discards.  A
``band`` digest covers the arrays a Newton step reads from one program:
its right-hand sides ``u``, its band (the band map times one fixed
positive weight per row of ``[A; Q]``) and ``[A; Q]`` times a fixed
vector.  The solves, runs and
programs are:

* perfbench's two banks: ``sweep-eta`` (12 trials at 5 etas, ideal and
  circuit, through ``experiments.run_trial``, with each trial's offline
  solve and its ``run_online`` call) and ``long-horizon`` (5 instances at
  N = 30, ideal and eps = 1, through ``ehsched solve``);
* the first operations of perfbench's ``online-long``: ``run_online``
  over fresh 2000-epoch timelines, the burst rule with per-epoch circuit
  powers and even spreading;
* the gate-06-shaped draws of ``scripts/bench.py``'s ``phases`` part;
* 40 trials per eta of the same draws with per-epoch circuit powers
  ~ U(0.5, 8) W (``eps_range``), where 190 of the 200 circuit programs
  split some but not all of their epochs into burst and full parts;
* the ``scaling`` cells of ``scripts/bench.py`` at N <= 1000 (three
  models, streams 100 and 101);
* the programs of ``scripts/bench.py``'s N = 10^4 draw of stream 101:
  ideal, eps = 1 W and per-epoch eps ~ U(0.5, 8) W (4352 split epochs),
  whose shapes are too large for the offline module's cache of program
  shapes, so that no other line covers their build.

``--reverse`` runs the jobs in the opposite order and prints the same
lines in the same order, so ``cmp`` of a forward and a reverse run shows
whether a result depends on what ran before it in the process (on the
offline module's cache of program shapes, say).  The whole run takes
about 5 s on a 2-core machine.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import bench  # noqa: E402  (puts src/ and perfbench/ on the path)
import numpy as np  # noqa: E402
from workloads import P_PEAK, REFERENCE_SEED, LongHorizon, OnlineLong, SweepEta  # noqa: E402
from workloads import default_storage, rng_for, seed_key  # noqa: E402

from ehsched import cli, experiments, offline, online  # noqa: E402
from ehsched.experiments import ExperimentSpec  # noqa: E402
from ehsched.offline import SolverError  # noqa: E402
from ehsched.online import OnlineResult  # noqa: E402

SOLVERS = ("solve_offline_ideal", "solve_offline_circuit")
MODES = ("ideal", "circuit")
SCALING_SIZES = (10, 100, 1000)
#: Trials per eta and per-epoch circuit-power range of the mixed-split draws.
MIXED_TRIALS = 40
MIXED_EPS_RANGE = (0.5, 8.0)
#: perfbench ``online-long`` operations digested, each under both rules.
ONLINE_DRAWS = 4
#: Epoch count and stream of the ``band`` programs.
BAND_N = 10_000
BAND_STREAM = 101


def digest(outcome) -> str:
    h = hashlib.sha256()
    if isinstance(outcome, SolverError):
        h.update(f"SolverError: {outcome}".encode())
        return h.hexdigest()
    if isinstance(outcome, tuple):
        for v in outcome:
            h.update(v.tobytes())
        return h.hexdigest()
    if isinstance(outcome, OnlineResult):
        h.update(outcome.throughput.hex().encode())
        extra = (outcome.trace, outcome.discarded)
    else:
        h.update(f"{outcome.objective.hex()} {outcome.iterations} {outcome.converged} "
                 f"{outcome.stationarity_residual.hex()}".encode())
        extra = ()
    sched = outcome.schedule
    for v in (sched.tau, sched.p_sc, sched.p_b, sched.eps_sc, sched.eps_b, sched.split.sc,
              sched.split.b, sched.power, sched.rate, *extra):
        h.update(np.ascontiguousarray(v, dtype=float).tobytes())
    if extra:
        return h.hexdigest()
    cert = outcome.certificate
    for table in (cert.stationarity, cert.complementarity):
        h.update(" ".join(f"{k}={v.hex()}" for k, v in table.items()).encode())
    return h.hexdigest()


@contextlib.contextmanager
def recorded(module, sink: list, names=SOLVERS):
    """Record every call of ``names`` (by default the offline solvers)
    made through ``module`` into ``sink``: its result, or the
    ``SolverError`` it raised."""
    saved = {name: getattr(module, name) for name in names}

    def wrap(fn):
        def call(*args, **kwargs):
            try:
                sink.append(fn(*args, **kwargs))
            except SolverError as exc:
                sink.append(exc)
                raise
            return sink[-1]

        return call

    for name, fn in saved.items():
        setattr(module, name, wrap(fn))
    try:
        yield sink
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


def trial_job(spec: ExperimentSpec, k: int, mode: str, step: int = 0):
    """The offline solve (``step`` 0) or the ``run_online`` call (``step``
    1) of ``run_trial(spec, k)`` with one mode; a trial whose solve raised
    makes no online call and yields the solve's ``SolverError``."""
    def run():
        with recorded(experiments, [], (*SOLVERS, "run_online")) as sink:
            with contextlib.suppress(SolverError):
                experiments.run_trial(spec, k, modes=(mode,))
        return sink[min(step, len(sink) - 1)]

    return run


def cli_job(lh: LongHorizon, inst, circuit: bool):
    """One ``ehsched solve`` of a long-horizon bank instance."""
    def run():
        with recorded(cli, []) as sink:
            lh.solve(inst, circuit)
        return sink[0]

    return run


def scaling_job(model: str, stream: int, n: int):
    def run():
        try:
            return bench.solve(model, *bench.instance(stream, n, bench.EPS_RANGE))
        except SolverError as exc:
            return exc

    return run


def band_job(eff, timeline, eps):
    """The right-hand sides, the band at fixed positive weights (one per
    row of ``[A; Q]``, the ``m + N`` the band map takes) and ``[A; Q]``
    times a fixed vector of the program with circuit powers ``eps``."""
    def run():
        inst = offline._make_instance(eff, None, timeline, default_storage(), P_PEAK, eps)
        prog = offline._Program(inst, offline._ValueModel(inst))
        rng = np.random.default_rng(0)
        weights = rng.uniform(0.1, 10.0, prog.u.size + prog.N)
        x = rng.uniform(-1.0, 1.0, prog.n)
        return prog.u, offline._mul(prog.band, weights), offline._mul(prog.AQ, x)

    return run


def online_job(inp, eps):
    """One ``run_online`` call of a perfbench ``online-long`` operation."""
    def run():
        return online.run_online(inp.eff, None, inp.timeline, default_storage(), P_PEAK, eps=eps)

    return run


def jobs(workdir: str) -> list[tuple[str, object]]:
    sweep = SweepEta()
    base = sweep.spec(seed_key(REFERENCE_SEED, 0) >> 1)
    out = [
        (f"sweep-eta k={k} eta={eta:g} {mode}{suffix}",
         trial_job(replace(base, eta=eta), k, mode, step))
        for k in range(sweep.bank) for eta in sweep.etas for mode in MODES
        for step, suffix in enumerate(("", " online"))
    ]
    ol = OnlineLong()
    run = ol.generate(REFERENCE_SEED, workdir)
    for j in range(ONLINE_DRAWS):
        inp = ol.draw(run, j)
        out += [(f"online-long j={j} {rule} online", online_job(inp, eps))
                for rule, eps in (("burst", inp.eps), ("even", None))]
    lh = LongHorizon()
    for i in range(lh.bank):
        inst = lh.write_instance(rng_for(REFERENCE_SEED, 100 + i), workdir, f"lh{i}")
        out += [(f"long-horizon i={i} {mode}", cli_job(lh, inst, mode == "circuit"))
                for mode in MODES]
    phases = ExperimentSpec(num_trials=bench.PHASE_TRIALS, e_avg=bench.PHASE_E_AVG)
    mixed = replace(phases, num_trials=MIXED_TRIALS, eps_range=MIXED_EPS_RANGE)
    for name, spec in (("phases", phases), ("mixed", mixed)):
        out += [
            (f"{name} k={k} eta={eta:g} {mode}", trial_job(replace(spec, eta=eta), k, mode))
            for k in range(spec.num_trials) for eta in bench.ETAS for mode in MODES
        ]
    out += [
        (f"scaling {model} s{stream} N={n}", scaling_job(model, stream, n))
        for model in bench.MODELS for stream in bench.STREAMS for n in SCALING_SIZES
    ]
    eff, timeline, eps = bench.instance(BAND_STREAM, BAND_N, MIXED_EPS_RANGE)
    out += [
        (f"band {model} s{BAND_STREAM} N={BAND_N}", band_job(eff, timeline, model_eps))
        for model, model_eps in (("ideal", 0.0), ("circuit", bench.EPS), ("mixed", eps))
    ]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reverse", action="store_true",
                    help="run the solves last to first (the output order is the same)")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        todo = jobs(workdir)
        digests = {}
        for label, run in reversed(todo) if args.reverse else todo:
            digests[label] = digest(run())
    for label, _ in todo:
        print(label, digests[label])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
