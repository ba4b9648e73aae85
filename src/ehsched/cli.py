"""Command-line interface.

Subcommands::

    solve      whole-horizon optimal schedule  -> schedule CSV
    simulate   causal policy run               -> throughput trace CSV
    sweep      Monte-Carlo policy benchmark    -> report CSV
    p-o        most efficient burst power for a given circuit power
    level      water level and rate for a sum-power budget

Inputs are JSON documents: a channel file (``{"M", "users": [{"n",
"gamma"}]}`` plus either ``"seed"`` for a reproducible draw or an explicit
``"H"`` list, one ``n x M`` matrix of ``[re, im]`` entry pairs per user)
and a scenario file (``{"arrivals": [[t, E], ...]`` or ``{"poisson":
{...}}``, plus ``"T"``, ``"sc_cap"``, ``"b_cap"``, ``"eta"``).  CSV outputs
are deterministic: equal inputs produce byte-identical files.

Exit codes: 0 on success, 2 on invalid input, 3 when the solve raises
``SolverError`` (its schedule fails the audit, say) or is uncertified.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

import numpy as np

from .channels import channelset_from_json, check_integer, check_real, decompose_zf_dpc
from .energy import HybridStorage, build_timeline, generate_compound_poisson
from .experiments import (
    SWEEP_AXES,
    ExperimentSpec,
    run_sweep,
    write_report_csv,
    write_schedule_csv,
    write_trace_csv,
)
from .offline import SolverError, solve_offline_circuit, solve_offline_ideal
from .online import run_online
from .single_epoch import solve_p_o
from .waterfill import solve_budget

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_SOLVER = 3


class CliError(Exception):
    """Invalid input; maps to exit code 2."""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read JSON file {path}: {exc}") from exc


def _channels(path: str):
    try:
        chans = channelset_from_json(_load_json(path))
        return decompose_zf_dpc(chans)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad channel file {path}: {exc}") from exc


def _scenario(path: str):
    doc = _load_json(path)
    try:
        T = check_real(doc["T"], "T")
        arrivals = doc["arrivals"]
        if isinstance(arrivals, dict):
            p = arrivals["poisson"]
            timeline = generate_compound_poisson(
                rate=check_real(p["rate"], "rate"),
                e_avg=check_real(p["e_avg"], "e_avg"),
                T=T,
                initial=check_real(p.get("initial", 0.0), "initial"),
                seed=check_integer(p["seed"], "seed"),
            )
        else:
            timeline = build_timeline(
                [(check_real(t, "arrival time"), check_real(E, "arrival energy"))
                 for t, E in arrivals],
                T=T,
            )
        storage = HybridStorage(
            sc_cap=check_real(doc["sc_cap"], "sc_cap"),
            b_cap=check_real(doc["b_cap"], "b_cap"),
            eta=check_real(doc["eta"], "eta"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CliError(f"bad scenario file {path}: {exc}") from exc
    return timeline, storage


def _floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise CliError(f"bad numeric list {text!r}") from exc


def _eps_argument(args, N: int):
    """Resolve --eps / --eps-seq into None, a scalar, or a per-epoch array."""
    if args.eps_seq is not None:
        seq = _floats(args.eps_seq)
        if len(seq) != N:
            raise CliError(f"--eps-seq needs {N} values (one per epoch), got {len(seq)}")
        return np.asarray(seq)
    return args.eps


def _weights_argument(args):
    return None if args.weights is None else _floats(args.weights)


@contextlib.contextmanager
def _open_out(path: str | None):
    """The output file at ``path``, or stdout (left open) for none or "-";
    an output that cannot be opened or written is invalid input."""
    stdout = path in (None, "-")
    try:
        if stdout:
            yield sys.stdout
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8", newline="") as f:
                yield f
    except OSError as exc:
        raise CliError(f"cannot write {'<stdout>' if stdout else path}: {exc}") from exc


def _cmd_solve(args) -> int:
    eff = _channels(args.channels)
    timeline, storage = _scenario(args.scenario)
    weights = _weights_argument(args)
    eps = _eps_argument(args, timeline.N)
    if eps is None:
        sol = solve_offline_ideal(eff, weights, timeline, storage, args.p_peak)
    else:
        sol = solve_offline_circuit(eff, weights, timeline, storage, args.p_peak, eps)
    if not sol.converged:
        print(
            f"uncertified schedule: the dual certificate fails after "
            f"{sol.iterations} Newton steps",
            file=sys.stderr,
        )
        return EXIT_SOLVER
    with _open_out(args.out) as f:
        write_schedule_csv(f, timeline, sol.schedule)
    print(f"objective {sol.objective:.12g}", file=sys.stderr)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    eff = _channels(args.channels)
    timeline, storage = _scenario(args.scenario)
    weights = _weights_argument(args)
    eps = _eps_argument(args, timeline.N)
    if args.schedule_out and {args.out, args.schedule_out} <= {None, "-"}:
        raise CliError("--out and --schedule-out cannot both write to stdout")
    res = run_online(eff, weights, timeline, storage, args.p_peak, eps=eps)
    # Open both outputs before writing either; each is written while its own
    # context is the innermost, so a failed write names its path.
    with _open_out(args.schedule_out) if args.schedule_out else contextlib.nullcontext() as f2:
        with _open_out(args.out) as f:
            write_trace_csv(f, res.trace)
        if f2 is not None:
            write_schedule_csv(f2, timeline, res.schedule)
    print(f"throughput {res.throughput:.12g}", file=sys.stderr)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = ExperimentSpec(
        T=args.T,
        arrival_rate=args.rate,
        e_avg=args.e_avg,
        initial_energy=args.initial,
        sc_cap=args.sc_cap,
        b_cap=args.b_cap,
        eta=args.eta,
        p_peak=args.p_peak,
        eps=args.eps,
        eps_range=tuple(_floats(args.eps_range)) if args.eps_range else None,
        num_trials=args.trials,
        master_seed=args.seed,
        deterministic_profile=args.deterministic_profile,
        pin_channels=args.pin_channels,
    )
    modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    values = _floats(args.values) if args.values else None
    result = run_sweep(spec, axis=args.axis, values=values, modes=modes)
    with _open_out(args.out) as f:
        write_report_csv(f, result)
    for v, n in result.failed.items():
        if n:
            print(
                f"dropped {n} of {spec.num_trials} trials at {result.axis or 'point'}="
                f"{v:.12g}: an offline solve failed or did not converge",
                file=sys.stderr,
            )
    return EXIT_OK


def _cmd_p_o(args) -> int:
    eff = _channels(args.channels)
    with _open_out(None) as f:
        print("%.12g" % solve_p_o(eff, _weights_argument(args), args.eps), file=f)
    return EXIT_OK


def _cmd_level(args) -> int:
    eff = _channels(args.channels)
    sol = solve_budget(eff, _weights_argument(args), args.budget)
    with _open_out(None) as f:
        print("level %.12g" % sol.level, file=f)
        print("rate %.12g" % sol.rate, file=f)
    return EXIT_OK


def _add_common_problem_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--channels", required=True, help="channel JSON file")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--p-peak", type=float, required=True, help="peak sum power (W)")
    eps = p.add_mutually_exclusive_group()
    eps.add_argument("--eps", type=float, default=None, help="constant circuit power (W)")
    eps.add_argument("--eps-seq", default=None, help="per-epoch circuit powers, comma-separated")
    p.add_argument("--weights", default=None, help="per-user weights, comma-separated")
    p.add_argument("--out", default=None, help="output CSV path (default: stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every :func:`main` call shares it."""
    ap = argparse.ArgumentParser(
        prog="ehsched",
        description="Throughput-optimal scheduling for an energy-harvesting "
        "multi-antenna broadcast transmitter.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="offline optimal schedule -> schedule CSV")
    _add_common_problem_args(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("simulate", help="causal policy run -> trace CSV")
    _add_common_problem_args(p)
    p.add_argument("--schedule-out", default=None, help="also write the realized schedule")
    p.set_defaults(func=_cmd_simulate)

    spec = ExperimentSpec()
    p = sub.add_parser("sweep", help="Monte-Carlo benchmark -> report CSV")
    p.add_argument("--axis", default=None, help=f"field to sweep: {', '.join(SWEEP_AXES)}")
    p.add_argument("--values", default=None, help="sweep values, comma-separated")
    p.add_argument("--trials", type=int, default=spec.num_trials)
    p.add_argument("--seed", type=int, default=spec.master_seed)
    p.add_argument("--T", type=float, default=spec.T)
    p.add_argument("--rate", type=float, default=spec.arrival_rate, help="arrivals per second")
    p.add_argument("--e-avg", type=float, default=spec.e_avg, help="mean packet energy (J)")
    p.add_argument("--initial", type=float, default=spec.initial_energy, help="energy at t=0 (J)")
    p.add_argument("--sc-cap", type=float, default=spec.sc_cap)
    p.add_argument("--b-cap", type=float, default=spec.b_cap)
    p.add_argument("--eta", type=float, default=spec.eta)
    p.add_argument("--p-peak", type=float, default=spec.p_peak)
    p.add_argument("--eps", type=float, default=spec.eps)
    p.add_argument("--eps-range", default=None, help="lo,hi for per-epoch circuit power")
    p.add_argument("--modes", default="ideal,circuit")
    p.add_argument("--deterministic-profile", action="store_true")
    p.add_argument("--pin-channels", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("p-o", help="most efficient burst power for a circuit power")
    p.add_argument("--channels", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--weights", default=None)
    p.set_defaults(func=_cmd_p_o)

    p = sub.add_parser("level", help="water level and rate for a sum-power budget")
    p.add_argument("--channels", required=True)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--weights", default=None)
    p.set_defaults(func=_cmd_level)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
