"""Benchmark harness: trial pairing, sweeps, CSV emission, and the CLI."""

import errno
import io
import json
import math
import os
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from ehsched import cli, energy, experiments
from ehsched.cli import EXIT_INVALID, EXIT_OK, EXIT_SOLVER, build_parser, main
from ehsched.experiments import (
    ExperimentSpec,
    default_parameters,
    reference_profile,
    run_sweep,
    run_trial,
    trial_rng,
    write_report_csv,
    write_schedule_csv,
    write_trace_csv,
)

from conftest import NoDraws


# ---------------------------------------------------------------------------
# Scenario plumbing
# ---------------------------------------------------------------------------


def test_reference_profile_shape():
    tl = reference_profile()
    np.testing.assert_allclose(tl.t, [0.0, 2.0, 3.0, 5.0, 8.0, 9.0])
    np.testing.assert_allclose(tl.E, [4.0, 7.0, 3.0, 5.0, 1.0, 8.0])
    assert tl.T == 10.0 and tl.total_energy() == 28.0


def test_default_parameters_roundtrip():
    spec = default_parameters()
    assert spec.num_trials == 100 and spec.eps == 1.0
    assert len(spec.users()) == 2
    bad = ExperimentSpec(user_antennas=(1, 1), user_weights=(1.0,))
    with pytest.raises(ValueError):
        bad.users()


def test_trial_rng_streams_are_reproducible():
    a = trial_rng(123, 7).uniform(size=4)
    b = trial_rng(123, 7).uniform(size=4)
    c = trial_rng(123, 8).uniform(size=4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------

_FAST = dict(T=4.0, initial_energy=3.0, num_trials=4)


def test_run_trial_is_deterministic_and_ordered():
    spec = ExperimentSpec(**_FAST)
    one = run_trial(spec, 2)
    two = run_trial(spec, 2)
    assert one.objectives == two.objectives
    assert set(one.objectives) == {
        "offline-ideal",
        "online-ideal",
        "offline-circuit",
        "online-circuit",
    }
    assert one.objectives["online-ideal"] <= one.objectives["offline-ideal"] + 1e-9
    assert one.objectives["online-circuit"] <= one.objectives["offline-circuit"] + 1e-9


def test_run_trial_mode_subset():
    spec = ExperimentSpec(**_FAST)
    out = run_trial(spec, 0, modes=("ideal",))
    assert set(out.objectives) == {"offline-ideal", "online-ideal"}


def test_run_trial_pinned_channels_share_fading():
    spec = ExperimentSpec(pin_channels=True, **_FAST)
    a = run_trial(spec, 0, modes=("ideal",))
    b = run_trial(spec, 1, modes=("ideal",))
    for ha, hb in zip(a.channels.H, b.channels.H):
        np.testing.assert_array_equal(ha, hb)
    # Timelines still differ per trial.
    assert a.timeline.N != b.timeline.N or not np.array_equal(a.timeline.E, b.timeline.E)


@pytest.mark.parametrize("pin", [False, True], ids=["fresh", "pinned"])
def test_run_trial_decomposes_its_channel_once(pin, monkeypatch):
    from ehsched import experiments

    calls = []
    decompose = experiments.decompose_zf_dpc
    monkeypatch.setattr(
        experiments, "decompose_zf_dpc", lambda chans: calls.append(chans) or decompose(chans)
    )
    out = run_trial(ExperimentSpec(pin_channels=pin, **_FAST), 3)
    assert len(calls) == 1 and calls[0] is out.channels


@pytest.mark.parametrize(
    "modes, eps_range",
    [(("ideal", "circuit"), None), (("ideal", "circuit"), (0.2, 0.8)), (("circuit",), None)],
    ids=["both", "both-eps-range", "circuit"],
)
def test_run_trial_builds_one_water_system(modes, eps_range, monkeypatch):
    """Both offline solves and both online runs of a trial share the
    water-filling system of its channels: one build per trial, not four."""
    from ehsched.waterfill import WaterSystem

    builds = []
    init = WaterSystem.__init__
    monkeypatch.setattr(
        WaterSystem, "__init__", lambda ws, *args: builds.append(args) or init(ws, *args)
    )
    spec = ExperimentSpec(eps_range=eps_range, **_FAST)
    for k in range(3):
        run_trial(spec, k, modes)
    assert len(builds) == 3


def test_run_trial_eps_range_draws_per_epoch():
    spec = ExperimentSpec(eps_range=(0.2, 0.8), **_FAST)
    out = run_trial(spec, 1, modes=("circuit",))
    assert set(out.objectives) == {"offline-circuit", "online-circuit"}
    assert out.objectives["offline-circuit"] > 0.0


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def test_run_sweep_single_point_rows():
    spec = ExperimentSpec(**_FAST)
    res = run_sweep(spec, modes=("ideal",))
    assert [r[1] for r in res.rows] == ["offline-ideal", "online-ideal"]
    (v0, name0, mean0, stderr0, ratio0) = res.rows[0]
    assert ratio0 == 1.0 and stderr0 > 0.0
    assert len(res.raw[(v0, name0)]) == spec.num_trials
    online_ratio = res.ratio(v0, "online-ideal")
    assert 0.0 < online_ratio <= 1.0 + 1e-9
    with pytest.raises(KeyError):
        res.ratio(v0, "nonexistent")


def test_run_sweep_pairs_trials_across_axis_values():
    # The ideal policies ignore the circuit power, and trial seeds are
    # shared across sweep points, so the per-trial ideal objectives must
    # be identical at both eps values.
    spec = ExperimentSpec(**_FAST)
    res = run_sweep(spec, axis="eps", values=[0.5, 1.0], modes=("ideal",))
    assert res.raw[(0.5, "offline-ideal")] == res.raw[(1.0, "offline-ideal")]
    assert res.raw[(0.5, "online-ideal")] == res.raw[(1.0, "online-ideal")]


def test_run_sweep_validation():
    spec = ExperimentSpec(**_FAST)
    # Only the float fields of the spec can be swept.
    for axis in ("bogus", "master_seed", "M", "eps_range", "num_trials", "pin_channels"):
        with pytest.raises(ValueError, match="unknown sweep axis"):
            run_sweep(spec, axis=axis, values=[1.0, 2.0])
    with pytest.raises(ValueError, match="values are required"):
        run_sweep(spec, axis="eta")
    with pytest.raises(ValueError, match="sweep values need an axis"):
        run_sweep(spec, values=[1.0, 2.0])
    # A repeated point would run twice but keep one entry in raw and failed.
    for values in ([0.5, 0.5], [0.5, 0.6, 0.50], [0.0, -0.0]):
        with pytest.raises(ValueError, match="sweep values must be distinct"):
            run_sweep(spec, axis="eps", values=values)
    # A sweep without trials would report nothing as if it had passed.
    for trials in (0, -1):
        with pytest.raises(ValueError, match="num_trials must be positive"):
            run_sweep(replace(spec, num_trials=trials), axis="eta", values=[0.5])
    with pytest.raises(ValueError, match=r"eps_range needs lo <= hi"):
        run_sweep(replace(spec, eps_range=(1.5, 0.5)))
    # An infinite hi once overflowed numpy's uniform draw.
    for eps_range in ((-0.5, 1.0), (0.0, math.inf), (-math.inf, math.inf)):
        with pytest.raises(ValueError, match=r"eps_range needs lo >= 0 and a finite hi"):
            run_sweep(replace(spec, eps_range=eps_range))


def test_run_sweep_drops_unconverged_trials(overdrawn_schedules):
    # Every offline schedule fails its audit, so no trial may be averaged;
    # each is counted as failed at its axis value.
    spec = ExperimentSpec(**_FAST)
    res = run_sweep(spec, axis="eta", values=[0.5, 1.0])
    assert res.failed == {0.5: spec.num_trials, 1.0: spec.num_trials}
    assert res.rows == [] and res.raw == {}


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------


def test_schedule_csv_layout():
    spec = ExperimentSpec(deterministic_profile=True, num_trials=1)
    from ehsched import decompose_zf_dpc, solve_offline_ideal

    eff = decompose_zf_dpc(_unit_channels())
    tl = reference_profile()
    from ehsched import HybridStorage

    sol = solve_offline_ideal(
        eff, None, tl, HybridStorage(5.0, 100.0, 0.5), p_peak=4.0
    )
    buf = io.StringIO()
    write_schedule_csv(buf, tl, sol.schedule)
    lines = buf.getvalue().split("\n")
    assert lines[0] == "i,t_i,l_i,tau,p_sc,p_b,eps_sc,eps_b,E_sc_dep,E_b_dep,rate"
    assert len(lines) == tl.N + 2 and lines[-1] == ""
    first = lines[1].split(",")
    assert first[0] == "0" and len(first) == 11


def test_csv_writers_print_each_value_as_12_significant_digits():
    """Both writers print every value as ``"%.12g"`` of the float: the sign
    of zero, a subnormal, a huge value and a repeating fraction."""
    values = np.array([-0.0, 5e-324, 1e300, 1 / 3])
    text = ["-0", "4.94065645841e-324", "1e+300", "0.333333333333"]
    assert text == ["%.12g" % x for x in values.tolist()]
    # Column k holds the values rotated by k, so every value meets every column.
    cols = [np.roll(values, k) for k in range(10)]
    timeline = SimpleNamespace(t=cols[0], l=cols[1], N=values.size)
    sched = SimpleNamespace(
        tau=cols[2], p_sc=cols[3], p_b=cols[4], eps_sc=cols[5], eps_b=cols[6],
        split=SimpleNamespace(sc=cols[7], b=cols[8]), rate=cols[9],
    )
    buf = io.StringIO()
    write_schedule_csv(buf, timeline, sched)
    rows = [",".join([str(i), *(text[(i - k) % 4] for k in range(10))]) for i in range(4)]
    assert buf.getvalue().split("\n")[1:] == [*rows, ""]
    buf = io.StringIO()
    write_trace_csv(buf, np.column_stack([values, values[::-1]]))
    assert buf.getvalue() == (
        "time,cumulative_throughput\n-0,0.333333333333\n4.94065645841e-324,1e+300\n"
        "1e+300,4.94065645841e-324\n0.333333333333,-0\n"
    )


def test_trace_and_report_csv_layout():
    buf = io.StringIO()
    write_trace_csv(buf, np.array([[0.0, 0.0], [1.0, 0.75]]))
    assert buf.getvalue() == "time,cumulative_throughput\n0,0\n1,0.75\n"
    spec = ExperimentSpec(**_FAST)
    res = run_sweep(spec, modes=("ideal",))
    buf2 = io.StringIO()
    write_report_csv(buf2, res)
    lines = buf2.getvalue().split("\n")
    assert lines[0] == "axis_value,policy,mean,stderr,ratio_to_offline"
    assert lines[1].split(",")[1] == "offline-ideal"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _unit_channels():
    from conftest import unit_scalar_channelset

    return unit_scalar_channelset()


@pytest.fixture()
def files(tmp_path):
    chan = tmp_path / "chan.json"
    chan.write_text(
        json.dumps(
            {"M": 1, "users": [{"n": 1, "gamma": 1.0}], "H": [[[[1.0, 0.0]]]]}
        )
    )
    scen = tmp_path / "scen.json"
    scen.write_text(
        json.dumps(
            {
                "T": 2.0,
                "arrivals": [[0.0, 2.0], [1.0, 1.0]],
                "sc_cap": 5.0,
                "b_cap": 100.0,
                "eta": 0.5,
            }
        )
    )
    return tmp_path, str(chan), str(scen)


def test_cli_p_o_prints_value(files, capsys):
    _, chan, _ = files
    assert main(["p-o", "--channels", chan, "--eps", "1.0"]) == EXIT_OK
    assert capsys.readouterr().out == "1.71828182846\n"  # e - 1


def test_cli_level_prints_level_and_rate(files, capsys):
    _, chan, _ = files
    assert main(["level", "--channels", chan, "--budget", "1.0"]) == EXIT_OK
    assert capsys.readouterr().out == "level 0.5\nrate 0.69314718056\n"
    assert main(["level", "--channels", chan, "--budget", "0"]) == EXIT_OK
    assert capsys.readouterr().out == "level 1\nrate 0\n"


def test_cli_solve_writes_deterministic_csv(files, capsys):
    tmp, chan, scen = files
    out1, out2 = str(tmp / "a.csv"), str(tmp / "b.csv")
    argv = ["solve", "--channels", chan, "--scenario", scen, "--p-peak", "4.0"]
    assert main(argv + ["--out", out1]) == EXIT_OK
    err = capsys.readouterr().err
    assert "objective " in err
    # 3 J spread over 2 s.
    assert float(err.split("objective ")[1].split()[0]) == pytest.approx(
        2.0 * math.log(2.5), abs=1e-6
    )
    assert main(argv + ["--out", out2]) == EXIT_OK
    assert open(out1, "rb").read() == open(out2, "rb").read()
    header = open(out1).readline().strip()
    assert header == "i,t_i,l_i,tau,p_sc,p_b,eps_sc,eps_b,E_sc_dep,E_b_dep,rate"


def test_cli_solve_circuit_and_eps_seq(files, capsys):
    tmp, chan, scen = files
    argv = ["solve", "--channels", chan, "--scenario", scen, "--p-peak", "4.0"]
    assert main(argv + ["--eps", "1.0", "--out", str(tmp / "c.csv")]) == EXIT_OK
    capsys.readouterr()
    assert (
        main(argv + ["--eps-seq", "1.0,0.5", "--out", str(tmp / "d.csv")]) == EXIT_OK
    )
    capsys.readouterr()
    # Wrong element count is invalid input.
    assert main(argv + ["--eps-seq", "1.0"]) == EXIT_INVALID


def test_cli_solve_refuses_an_infeasible_schedule(files, overdrawn_schedules, capsys):
    tmp, chan, scen = files
    out = tmp / "s.csv"
    argv = ["solve", "--channels", chan, "--scenario", scen, "--p-peak", "4.0"]
    assert main(argv + ["--out", str(out)]) == EXIT_SOLVER
    assert "infeasible schedule" in capsys.readouterr().err
    assert not out.exists()


def test_cli_solve_numerical_failure_exits_3(files, nan_curvature, capsys):
    tmp, chan, scen = files
    out = tmp / "s.csv"
    argv = ["solve", "--channels", chan, "--scenario", scen, "--p-peak", "4.0"]
    assert main(argv + ["--out", str(out)]) == EXIT_SOLVER
    assert "numerical failure" in capsys.readouterr().err
    assert len(nan_curvature) == 3
    assert not out.exists()


def test_cli_simulate_trace_and_schedule(files, capsys):
    tmp, chan, scen = files
    trace, sched = str(tmp / "t.csv"), str(tmp / "s.csv")
    code = main(
        [
            "simulate",
            "--channels",
            chan,
            "--scenario",
            scen,
            "--p-peak",
            "4.0",
            "--eps",
            "1.0",
            "--out",
            trace,
            "--schedule-out",
            sched,
        ]
    )
    assert code == EXIT_OK
    assert "throughput " in capsys.readouterr().err
    lines = open(trace).read().split("\n")
    assert lines[0] == "time,cumulative_throughput"
    assert len(lines) == 5  # header + (0,0) + two epochs + trailing newline
    assert open(sched).readline().startswith("i,t_i,")


def test_cli_sweep_smoke(files, capsys):
    tmp, _, _ = files
    out = str(tmp / "report.csv")
    code = main(
        [
            "sweep",
            "--axis",
            "eta",
            "--values",
            "0.5",
            "--trials",
            "2",
            "--T",
            "4.0",
            "--modes",
            "ideal",
            "--out",
            out,
        ]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().err == ""
    lines = open(out).read().strip().split("\n")
    assert lines[0] == "axis_value,policy,mean,stderr,ratio_to_offline"
    assert len(lines) == 3


def test_cli_sweep_reports_dropped_trials(files, overdrawn_schedules, capsys):
    tmp, _, _ = files
    out = str(tmp / "report.csv")
    argv = ["sweep", "--axis", "eta", "--values", "0.5", "--trials", "2", "--T", "4.0"]
    assert main(argv + ["--out", out]) == EXIT_OK
    err = capsys.readouterr().err
    assert "dropped 2 of 2 trials at eta=0.5" in err
    assert open(out).read() == "axis_value,policy,mean,stderr,ratio_to_offline\n"


def test_cli_sweep_counts_infeasible_trials(tmp_path, capsys):
    """At 30 J mean packets the forced deposits overflow storage in every
    trial at b_cap = 20 and in three of five at b_cap = 100.  Such a solve
    raises ``SolverError``; the sweep counts its trial as failed, as it
    counts an unconverged one, and reports the rest."""
    from ehsched import SolverError

    spec = ExperimentSpec(e_avg=30.0, b_cap=20.0)
    with pytest.raises(SolverError, match="infeasible"):
        run_trial(spec, 0)
    out = tmp_path / "report.csv"
    argv = ["sweep", "--axis", "b_cap", "--values", "20,100", "--trials", "5", "--e-avg", "30"]
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == (
        "dropped 5 of 5 trials at b_cap=20: an offline solve failed or did not converge\n"
        "dropped 3 of 5 trials at b_cap=100: an offline solve failed or did not converge\n"
    )
    rows = out.read_text().splitlines()
    assert rows[0] == "axis_value,policy,mean,stderr,ratio_to_offline"
    assert len(rows) == 5 and all(row.startswith("100,") for row in rows[1:])


def test_cli_reuses_one_parser_like_a_fresh_one(files, capsys):
    """``main`` builds its parser once per process; each call, also one
    after a failed call, prints what a call on a fresh parser prints."""
    tmp, chan, scen = files
    calls = [
        ["solve", "--channels", chan, "--scenario", scen, "--p-peak", "4.0"],
        ["sweep", "--axis", "eta", "--values", "0.5", "--trials", "0"],
        ["p-o", "--channels", chan, "--eps", "1.0"],
    ]
    build_parser.cache_clear()
    shared = [(main(argv), *capsys.readouterr()) for argv in calls]
    assert build_parser.cache_info().misses == 1
    assert [code for code, _, _ in shared] == [EXIT_OK, EXIT_INVALID, EXIT_OK]
    for argv, got in zip(calls, shared):
        build_parser.cache_clear()
        assert (main(argv), *capsys.readouterr()) == got, argv


@pytest.mark.parametrize("command", ["solve", "simulate"])
def test_cli_eps_and_eps_seq_exclude_each_other(files, command, capsys):
    """Given both, the per-epoch sequence used to win silently."""
    _, chan, scen = files
    argv = [command, "--channels", chan, "--scenario", scen, "--p-peak", "4.0",
            "--eps", "1.0", "--eps-seq", "0.5,0.5"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INVALID
    assert "argument --eps-seq: not allowed with argument --eps" in capsys.readouterr().err


def test_cli_solve_refuses_an_uncertified_schedule(files, monkeypatch, capsys):
    """A feasible schedule whose dual certificate fails has not converged:
    ``solve`` exits 3, says so and writes no schedule."""
    from ehsched import offline

    tmp, chan, scen = files
    out = tmp / "schedule.csv"
    monkeypatch.setattr(offline.DualCertificate, "ok", lambda self: False)
    argv = ["solve", "--channels", chan, "--scenario", scen, "--p-peak", "4.0", "--out", str(out)]
    assert main(argv) == EXIT_SOLVER
    assert capsys.readouterr().err.startswith("uncertified schedule: the dual certificate fails")
    assert not out.exists()


def test_cli_invalid_inputs_exit_2(files, tmp_path, capsys):
    tmp, chan, scen = files
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    # JSON's 1e999 reads as an infinite capacity.
    endless = tmp_path / "endless.json"
    endless.write_text(
        '{"T": 2.0, "arrivals": [[0.0, 2.0], [1.0, 1.0]], "sc_cap": 5.0, "b_cap": 1e999, '
        '"eta": 0.5}'
    )
    # A deadline of 1e999 reads as infinite, and JSON's NaN as a NaN arrival time.
    unending = tmp_path / "unending.json"
    unending.write_text(
        '{"T": 1e999, "arrivals": [[0.0, 2.0], [1.0, 1.0]], "sc_cap": 5.0, "b_cap": 100.0, '
        '"eta": 0.5}'
    )
    nan_time = tmp_path / "nan_time.json"
    nan_time.write_text(
        '{"T": 2.0, "arrivals": [[0.0, 2.0], [NaN, 1.0]], "sc_cap": 5.0, "b_cap": 100.0, '
        '"eta": 0.5}'
    )
    half_entry = tmp_path / "half_entry.json"
    half_entry.write_text(json.dumps({"M": 1, "users": [{"n": 1}], "H": [[[[1.0]]]]}))
    cases = [
        ["level", "--channels", str(half_entry), "--budget", "1.0"],
        ["p-o", "--channels", str(tmp / "missing.json"), "--eps", "1.0"],
        ["p-o", "--channels", str(bad), "--eps", "1.0"],
        ["p-o", "--channels", chan, "--eps", "-1.0"],
        ["level", "--channels", chan, "--budget", "-2.0"],
        ["level", "--channels", chan, "--budget", "inf"],
        ["level", "--channels", chan, "--budget", "nan"],
        ["p-o", "--channels", chan, "--eps", "inf"],
        ["simulate", "--channels", chan, "--scenario", scen, "--p-peak", "4.0", "--eps", "inf"],
        ["simulate", "--channels", chan, "--scenario", scen, "--p-peak", "4.0", "--eps", "nan"],
        ["simulate", "--channels", chan, "--scenario", scen, "--p-peak", "4.0",
         "--eps-seq", "1,nan"],
        ["solve", "--channels", chan, "--scenario", str(bad), "--p-peak", "4.0"],
        ["solve", "--channels", chan, "--scenario", str(endless), "--p-peak", "4.0"],
        ["solve", "--channels", chan, "--scenario", scen, "--p-peak", "-1.0"],
        ["solve", "--channels", chan, "--scenario", scen, "--p-peak", "inf"],
        ["solve", "--channels", chan, "--scenario", scen, "--p-peak", "4.0", "--eps", "nan"],
        ["solve", "--channels", chan, "--scenario", scen, "--p-peak", "4.0", "--eps", "inf"],
        ["simulate", "--channels", chan, "--scenario", scen, "--p-peak", "inf"],
        *([command, "--channels", chan, "--scenario", str(timeline), "--p-peak", "4.0", *eps]
          for command in ("simulate", "solve") for timeline in (unending, nan_time)
          for eps in ([], ["--eps", "1.0"])),
        ["p-o", "--channels", chan, "--eps", "nan"],
        ["sweep", "--modes", "bogus", "--trials", "1"],
        ["sweep", "--axis", "bogus", "--values", "1.0", "--trials", "1"],
        *(["sweep", "--axis", axis, "--values", "1,2", "--trials", "2"]
          for axis in ("master_seed", "M", "eps_range", "num_trials", "pin_channels")),
    ]
    for argv in cases:
        assert main(argv) == EXIT_INVALID, argv
        capsys.readouterr()
    # An output path in a missing directory is invalid input, and simulate
    # writes no trace before it fails on its schedule output.
    nowhere = tmp_path / "missing"
    problem = ["--channels", chan, "--scenario", scen, "--p-peak", "4.0"]
    for argv, path in (
        (["solve", *problem, "--out"], nowhere / "x.csv"),
        (["simulate", *problem, "--schedule-out"], nowhere / "s.csv"),
        (["sweep", "--trials", "1", "--out"], nowhere / "r.csv"),
    ):
        assert main([*argv, str(path)]) == EXIT_INVALID, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: cannot write {path}: "), argv
    out = tmp / "report.csv"
    for argv, message in (
        (["--axis", "eta", "--values", "0.5", "--trials", "0"], "num_trials must be positive"),
        (["--axis", "eta", "--values", "0.5", "--trials", "-1"], "num_trials must be positive"),
        (["--eps-range", "1.5,0.5", "--trials", "1"], "eps_range needs lo <= hi"),
        (["--eps-range", "1", "--trials", "1"], "eps_range needs exactly two values lo,hi"),
        (["--eps-range=0,inf", "--trials", "1"], "eps_range needs lo >= 0 and a finite hi"),
        (["--eps-range=-1,1", "--trials", "1"], "eps_range needs lo >= 0 and a finite hi"),
        (["--axis", "eta", "--values", "0.5,x", "--trials", "1"], "bad numeric list '0.5,x'"),
        (["--values", "1,2", "--trials", "2"], "sweep values need an axis"),
        (["--axis", "eta", "--values", "0.5,0.5", "--trials", "1"],
         "sweep values must be distinct"),
    ):
        assert main(["sweep", *argv, "--out", str(out)]) == EXIT_INVALID, argv
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


#: An integer too large for a float.
_HUGE = "1" + "0" * 400
_STORE = '"sc_cap": 5.0, "b_cap": 100.0, "eta": 0.5'


class _FullStream(io.StringIO):
    """A text stream on a full device: every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_cli_stdout_write_failure_exits_2(files, monkeypatch, capsys):
    """Every command that writes to stdout turns a failed write (a full
    disk behind a redirect) into invalid input, without a traceback."""
    tmp, chan, scen = files
    problem = ["--channels", chan, "--scenario", scen, "--p-peak", "4.0"]
    full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    for argv in (
        ["level", "--channels", chan, "--budget", "1.0"],
        ["p-o", "--channels", chan, "--eps", "1.0"],
        ["solve", *problem],
        ["simulate", *problem],
        ["simulate", *problem, "--out", str(tmp / "t.csv"), "--schedule-out", "-"],
        ["sweep", "--trials", "1"],
    ):
        with monkeypatch.context() as m:
            m.setattr(sys, "stdout", _FullStream())
            assert main(argv) == EXIT_INVALID, argv
        assert capsys.readouterr().err == f"error: cannot write <stdout>: {full}\n", argv


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_cli_file_write_failure_exits_2(files, capsys):
    """An output file that opens but cannot be written is invalid input,
    named in the message, whichever of simulate's two outputs it is."""
    tmp, chan, scen = files
    problem = ["--channels", chan, "--scenario", scen, "--p-peak", "4.0"]
    trace = str(tmp / "t.csv")
    for argv in (
        ["solve", *problem, "--out", "/dev/full"],
        ["simulate", *problem, "--out", "/dev/full"],
        ["simulate", *problem, "--out", "/dev/full", "--schedule-out", str(tmp / "s.csv")],
        ["simulate", *problem, "--out", trace, "--schedule-out", "/dev/full"],
        ["sweep", "--trials", "1", "--out", "/dev/full"],
    ):
        assert main(argv) == EXIT_INVALID, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: cannot write /dev/full: "), argv
        assert err.count("\n") == 1, err


def test_cli_simulate_schedule_to_stdout(files, monkeypatch, capsys):
    """``--schedule-out -`` writes the schedule to stdout, as ``--out -``
    writes the trace; both outputs on stdout is invalid input, and no
    file named ``-`` appears."""
    tmp, chan, scen = files
    monkeypatch.chdir(tmp)
    problem = ["simulate", "--channels", chan, "--scenario", scen, "--p-peak", "4.0",
               "--eps", "1.0"]
    assert main([*problem, "--out", "t.csv", "--schedule-out", "s.csv"]) == EXIT_OK
    capsys.readouterr()
    assert main([*problem, "--out", "t2.csv", "--schedule-out", "-"]) == EXIT_OK
    assert capsys.readouterr().out == (tmp / "s.csv").read_bytes().decode()
    assert (tmp / "t2.csv").read_bytes() == (tmp / "t.csv").read_bytes()
    for outputs in (["--schedule-out", "-"], ["--out", "-", "--schedule-out", "-"]):
        assert main([*problem, *outputs]) == EXIT_INVALID, outputs
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: --out and --schedule-out cannot both write to stdout\n")
    assert not (tmp / "-").exists()


@pytest.mark.parametrize(
    "kind, doc",
    [
        ("channels", '{"M": 1e999, "users": [{"n": 1}], "seed": 1}'),
        ("channels", '{"M": 2, "users": [{"n": 1}], "seed": 1e999}'),
        ("channels", '{"M": 1, "users": [{"n": 1, "gamma": %s}], "H": [[[[1.0, 0.0]]]]}' % _HUGE),
        ("scenario", '{"T": %s, "arrivals": [[0.0, 2.0]], %s}' % (_HUGE, _STORE)),
        ("scenario", '{"T": 5.0, "arrivals": {"poisson": {"rate": 1.0, "e_avg": 1.0, '
                     '"seed": 1e999}}, %s}' % _STORE),
    ],
    ids=["channel-M-inf", "channel-seed-inf", "channel-gamma-huge", "scenario-T-huge",
         "poisson-seed-inf"],
)
def test_cli_rejects_json_numbers_out_of_range(files, kind, doc, capsys):
    """A JSON number beyond float or int range is invalid input, not a
    traceback."""
    tmp, chan, scen = files
    path = tmp / "doc.json"
    path.write_text(doc)
    paths = {"channels": chan, "scenario": scen, kind: str(path)}
    argv = ["solve", "--channels", paths["channels"], "--scenario", paths["scenario"],
            "--p-peak", "4.0"]
    assert main(argv) == EXIT_INVALID
    noun = "channel" if kind == "channels" else "scenario"
    assert capsys.readouterr().err.startswith(f"error: bad {noun} file")


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
@pytest.mark.parametrize("command", ["solve", "simulate", "p-o", "level"])
def test_cli_rejects_non_finite_channel_matrices(files, command, bad, capsys):
    """An explicit channel matrix with a NaN or infinite entry is invalid
    input for every command that reads channels."""
    tmp, _, scen = files
    chan = tmp / "bad.json"
    chan.write_text('{"M": 2, "users": [{"n": 1}], "H": [[[[1.0, 0.0], [%s, 0.0]]]]}' % bad)
    extra = {
        "solve": ["--scenario", scen, "--p-peak", "4.0"],
        "simulate": ["--scenario", scen, "--p-peak", "4.0"],
        "p-o": ["--eps", "1.0"],
        "level": ["--budget", "2.0"],
    }[command]
    assert main([command, "--channels", str(chan), *extra]) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == "" and "must be finite" in err


@pytest.mark.parametrize("value", ["2.9", "true"])
@pytest.mark.parametrize("field", ["M", "n", "seed", "poisson-seed"])
def test_cli_rejects_non_integral_fields(files, field, value, capsys):
    """``M``, ``n`` and ``seed`` of a channel file and a scenario's Poisson
    ``seed`` are integers: a fraction or a bool is invalid input that
    names the field, where it once truncated to an int."""
    tmp, chan, scen = files
    docs = {
        "M": '{"M": %s, "users": [{"n": 1}], "seed": 3}',
        "n": '{"M": 3, "users": [{"n": %s}], "seed": 3}',
        "seed": '{"M": 2, "users": [{"n": 1}], "seed": %s}',
        "poisson-seed": '{"T": 5.0, "arrivals": {"poisson": {"rate": 1.0, "e_avg": 1.0, '
                        '"seed": %s}}, ' + _STORE + '}',
    }
    path = tmp / "doc.json"
    path.write_text(docs[field] % value)
    kind = "scenario" if field == "poisson-seed" else "channels"
    paths = {"channels": chan, "scenario": scen, kind: str(path)}
    argv = ["solve", "--channels", paths["channels"], "--scenario", paths["scenario"],
            "--p-peak", "4.0"]
    assert main(argv) == EXIT_INVALID
    name = field.removeprefix("poisson-")
    assert f"{name} must be an integer" in capsys.readouterr().err


_REAL_FIELDS = {
    "gamma": ("channels", '{"M": 1, "users": [{"n": 1, "gamma": %s}], "H": [[[[1.0, 0.0]]]]}'),
    "H entry": ("channels", '{"M": 1, "users": [{"n": 1}], "H": [[[[1.0, %s]]]]}'),
    "T": ("scenario", '{"T": %s, "arrivals": [[0.0, 2.0]], ' + _STORE + '}'),
    "arrival time": ("scenario", '{"T": 2.0, "arrivals": [[0.0, 2.0], [%s, 1.0]], '
                                 + _STORE + '}'),
    "arrival energy": ("scenario", '{"T": 2.0, "arrivals": [[0.0, %s]], ' + _STORE + '}'),
    "sc_cap": ("scenario", '{"T": 2.0, "arrivals": [[0.0, 2.0]], '
                           '"sc_cap": %s, "b_cap": 100.0, "eta": 0.5}'),
    "b_cap": ("scenario", '{"T": 2.0, "arrivals": [[0.0, 2.0]], '
                          '"sc_cap": 0.5, "b_cap": %s, "eta": 0.5}'),
    "eta": ("scenario", '{"T": 2.0, "arrivals": [[0.0, 2.0]], '
                        '"sc_cap": 5.0, "b_cap": 100.0, "eta": %s}'),
    "rate": ("scenario", '{"T": 5.0, "arrivals": {"poisson": {"rate": %s, "e_avg": 1.0, '
                         '"seed": 3}}, ' + _STORE + '}'),
    "e_avg": ("scenario", '{"T": 5.0, "arrivals": {"poisson": {"rate": 1.0, "e_avg": %s, '
                          '"seed": 3}}, ' + _STORE + '}'),
    "initial": ("scenario", '{"T": 5.0, "arrivals": {"poisson": {"rate": 1.0, "e_avg": 1.0, '
                            '"initial": %s, "seed": 3}}, ' + _STORE + '}'),
}


@pytest.mark.parametrize("value", ["true", '"1.0"'])
@pytest.mark.parametrize("field", _REAL_FIELDS)
def test_cli_rejects_real_fields_that_are_not_numbers(files, field, value, capsys):
    """Every real-valued field of a channel or scenario file is a JSON
    number: a bool or a numeric string is invalid input that names the
    field, where ``true`` once read as 1.0 and ``"0.5"`` as 0.5."""
    tmp, chan, scen = files
    kind, doc = _REAL_FIELDS[field]
    path = tmp / "doc.json"
    path.write_text(doc % value)
    paths = {"channels": chan, "scenario": scen, kind: str(path)}
    argv = ["solve", "--channels", paths["channels"], "--scenario", paths["scenario"],
            "--p-peak", "4.0"]
    assert main(argv) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == "" and f"{field} must be a number" in err
    path.write_text(doc % "1")
    assert main(argv) == EXIT_OK


@pytest.mark.parametrize(
    "poisson",
    ['"rate": 1e999, "e_avg": 1.0', '"rate": NaN, "e_avg": 1.0',
     '"rate": 1.0, "e_avg": 1e999', '"rate": 1.0, "e_avg": NaN',
     '"rate": 1.0, "e_avg": 1.0, "initial": 1e999'],
    ids=["rate-inf", "rate-nan", "e_avg-inf", "e_avg-nan", "initial-inf"],
)
def test_cli_solve_rejects_non_finite_poisson_parameters(files, poisson, monkeypatch, capsys):
    """A non-finite Poisson parameter in a scenario exits 2 before any
    arrival is drawn; the draws fail the test rather than loop."""
    tmp, chan, _ = files
    monkeypatch.setattr(
        cli, "generate_compound_poisson",
        lambda seed, **kw: energy.generate_compound_poisson(**kw, rng=NoDraws()),
    )
    scen = tmp / "poisson.json"
    scen.write_text(
        '{"T": 5.0, "arrivals": {"poisson": {%s, "seed": 3}}, %s}' % (poisson, _STORE)
    )
    argv = ["solve", "--channels", chan, "--scenario", str(scen), "--p-peak", "4.0"]
    assert main(argv) == EXIT_INVALID
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, value",
    [("--T", "inf"), ("--rate", "inf"), ("--rate", "nan"), ("--e-avg", "nan"),
     ("--e-avg", "inf"), ("--initial", "inf")],
)
def test_cli_sweep_rejects_non_finite_poisson_parameters(option, value, monkeypatch, capsys):
    """A sweep over non-finite arrival parameters exits 2 before any
    trial draws; the draws fail the test rather than loop."""
    monkeypatch.setattr(experiments, "trial_rng", lambda *args: NoDraws())
    assert main(["sweep", option, value, "--trials", "1"]) == EXIT_INVALID
    assert capsys.readouterr().err == (
        "error: rate, mean energy, deadline and initial energy must be finite\n"
    )


def test_library_rejects_unknown_sweep_modes_and_eps_ranges():
    """The library, not only the CLI, refuses a sweep or a trial that could
    not run as asked: unknown modes, no modes, and an eps range that is not
    a pair of nonnegative bounds in order with a finite top."""
    spec = ExperimentSpec(**_FAST)
    for modes in (("idael",), ("ideal", "bogus"), "ideal"):
        with pytest.raises(ValueError, match="modes must be a subset of: ideal, circuit"):
            run_trial(spec, 0, modes)
        with pytest.raises(ValueError, match="modes must be a subset of: ideal, circuit"):
            run_sweep(spec, modes=modes)
    with pytest.raises(ValueError, match="a sweep needs at least one of the modes"):
        run_sweep(spec, modes=())
    for eps_range in ((0.5,), (0.5, 1.0, 1.5)):
        with pytest.raises(ValueError, match="eps_range needs exactly two values lo,hi"):
            run_sweep(replace(spec, eps_range=eps_range))
    # A trial draws from the range too; numpy's own errors (an OverflowError
    # for an infinite top, "high - low < 0") once leaked from run_trial.
    for eps_range, message in (
        ((2.0, 1.0), "eps_range needs lo <= hi"),
        ((0.0, math.inf), "eps_range needs lo >= 0 and a finite hi"),
        ((-1.0, 1.0), "eps_range needs lo >= 0 and a finite hi"),
        ((0.5,), "eps_range needs exactly two values lo,hi"),
    ):
        with pytest.raises(ValueError, match=message):
            run_trial(replace(spec, eps_range=eps_range), 0, ("circuit",))
        with pytest.raises(ValueError, match=message):
            ExperimentSpec(eps_range=eps_range)
