"""Acceptance suite: one test per release gate.

Each test prints one pass/fail line under ``pytest -v``.  Gates cover the
closed-form burst power, equivalence with an exhaustive-search oracle,
structural invariants of optimal schedules, ordering across circuit-power
models, online/offline ratio bands on the reference profile and on a
stochastic efficiency sweep, monotonicity of the burst power, the
decomposition/PSD bulk suite, the energy-domain objective identity, and
byte-level CLI determinism.  Stated tolerances and runtime budgets are
asserted inline.
"""

import io
import json
import math
import time

import numpy as np
import pytest

from ehsched import (
    CovarianceSet,
    HybridStorage,
    SolverError,
    WaterSystem,
    build_timeline,
    covariances_for_level,
    decompose_zf_dpc,
    generate_channels,
    solve_budget,
    solve_offline_circuit,
    solve_offline_ideal,
    solve_p_o,
)
from ehsched.channels import UserConfig, ZF_RTOL
from ehsched.cli import EXIT_OK, main
from ehsched.experiments import ExperimentSpec, run_sweep

from conftest import (
    draw_problem,
    orthogonal_pair_channelset,
    solve_random,
    unit_scalar_channelset,
)
from oracle import (
    TransformedVariables,
    brute_force_oracle,
    objective_from_transformed,
    verify_structure,
)

E = math.e
SOLVERS = {"ideal": solve_offline_ideal, "circuit": solve_offline_circuit}


def test_criterion_01_efficiency_power_closed_form(unit_eff):
    """Scalar unit channel, eps=1: p_o = e-1 within 1e-6, solved in < 1 ms."""
    solve_p_o(unit_eff, None, 1.0)  # warm up lazy imports/caches
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        po = solve_p_o(unit_eff, None, 1.0)
        best = min(best, time.perf_counter() - t0)
    err = abs(po - (E - 1.0))
    assert err <= 1e-6, f"p_o error {err:.3e}"
    assert best < 1e-3, f"runtime {best * 1e3:.3f} ms"


def test_criterion_02_matches_exhaustive_oracle():
    """50 random small instances (<= 3 epochs, <= 2 modes, eps in {0, 1}):
    solver objective within max(1e-3, 0.1%) of the grid oracle, < 2 min."""
    rng = np.random.Generator(np.random.Philox(key=0xACCE97))
    t0 = time.perf_counter()
    worst = 0.0
    done = 0
    while done < 50:
        chans = (
            unit_scalar_channelset() if rng.uniform() < 0.5 else orthogonal_pair_channelset()
        )
        eff = decompose_zf_dpc(chans)
        n = int(rng.integers(1, 4))
        arrivals = [(1.2 * i, float(rng.uniform(0.4, 3.0))) for i in range(n)]
        tl = build_timeline(arrivals, T=1.2 * n)
        sc_cap = float(rng.uniform(0.5, 3.0))
        storage = HybridStorage(sc_cap=sc_cap, b_cap=sc_cap + 20.0, eta=float(rng.uniform(0.4, 1.0)))
        eps = 1.0 if done % 2 else None
        try:
            if eps is None:
                sol = solve_offline_ideal(eff, None, tl, storage, p_peak=4.0)
            else:
                sol = solve_offline_circuit(eff, None, tl, storage, p_peak=4.0, eps=eps)
        except SolverError:
            continue
        ref = brute_force_oracle(sol.instance)
        err = abs(sol.objective - ref)
        worst = max(worst, err / max(1.0, abs(ref)))
        assert err <= max(1e-3, 1e-3 * abs(ref)), (done, sol.objective, ref)
        done += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"oracle sweep took {elapsed:.1f} s"


@pytest.mark.parametrize("circuit", [False, True], ids=["zero-circuit", "circuit"])
def test_criterion_03_structural_invariants(circuit):
    """100 random instances per model (<= 8 epochs): the structure report
    shows zero violations (power comparisons at 1e-5)."""
    rng = np.random.Generator(np.random.Philox(key=0x57A7 + circuit))
    failures = []
    for i in range(100):
        _prob, sol = solve_random(rng, SOLVERS, circuit=circuit, max_epochs=8)
        report = verify_structure(sol)
        if not report.ok:
            failures.append((i, report.summary()))
    assert not failures, failures[:3]


def test_criterion_04_circuit_power_ordering():
    """100 random instances: zero circuit power >= per-epoch random
    circuit power in [0, 1] >= constant circuit power 1, gaps >= -1e-6."""
    rng = np.random.Generator(np.random.Philox(key=0x09dE8))
    done = 0
    while done < 100:
        eff, tl, storage, p_peak, _ = draw_problem(rng, max_epochs=6)
        eps_seq = rng.uniform(0.0, 1.0, size=tl.N)
        try:
            ideal = solve_offline_ideal(eff, None, tl, storage, p_peak)
            varying = solve_offline_circuit(eff, None, tl, storage, p_peak, eps_seq)
            worst = solve_offline_circuit(eff, None, tl, storage, p_peak, 1.0)
        except SolverError:
            continue
        assert ideal.objective - varying.objective >= -1e-6, (
            done, ideal.objective, varying.objective
        )
        assert varying.objective - worst.objective >= -1e-6, (
            done, varying.objective, worst.objective
        )
        done += 1


def test_criterion_05_reference_profile_ratio_bands():
    """Reference arrival profile, eta=0.6, 100 channel draws: the causal
    even-spread policy lands in [0.60, 0.90] of its offline bound and the
    causal burst policy reaches >= 0.90 of its own; < 10 min."""
    t0 = time.perf_counter()
    spec = ExperimentSpec(deterministic_profile=True, eta=0.6, num_trials=100)
    res = run_sweep(spec, axis="eta", values=[0.6], modes=("ideal", "circuit"))
    ideal_ratio = res.ratio(0.6, "online-ideal")
    circuit_ratio = res.ratio(0.6, "online-circuit")
    assert 0.60 <= ideal_ratio <= 0.90, f"even-spread ratio {ideal_ratio:.4f}"
    assert circuit_ratio >= 0.90, f"burst ratio {circuit_ratio:.4f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"profile benchmark took {elapsed:.1f} s"


def test_criterion_06_efficiency_sweep_ratio_bands():
    """Stochastic sweep (200 trials, 5 J mean packets) over battery
    efficiency 0.2..1.0: burst-policy ratio >= 0.90 everywhere; even-spread
    ratio nondecreasing with 0.86 +/- 0.08 at eta=1; < 30 min."""
    t0 = time.perf_counter()
    values = [0.2, 0.4, 0.6, 0.8, 1.0]
    spec = ExperimentSpec(num_trials=200, e_avg=5.0)
    res = run_sweep(spec, axis="eta", values=values, modes=("ideal", "circuit"))
    circuit = [res.ratio(v, "online-circuit") for v in values]
    ideal = [res.ratio(v, "online-ideal") for v in values]
    assert all(r >= 0.90 for r in circuit), [f"{r:.4f}" for r in circuit]
    assert all(b >= a - 1e-3 for a, b in zip(ideal, ideal[1:])), (
        [f"{r:.4f}" for r in ideal]
    )
    assert abs(ideal[-1] - 0.86) <= 0.08, f"eta=1 even-spread ratio {ideal[-1]:.4f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0, f"efficiency sweep took {elapsed:.1f} s"


def test_criterion_07_burst_power_monotone_saturating(unit_eff):
    """p_o(eps) is nondecreasing (1e-6 slack) on a 20-point grid and the
    applied threshold min(p_o, p_peak) saturates at p_peak=4 beyond the
    crossing (at eps = 5 ln 5 - 4 for this channel)."""
    p_peak = 4.0
    eps_star = 5.0 * math.log(5.0) - 4.0
    grid = np.linspace(0.25, 6.0, 20)
    po = [solve_p_o(unit_eff, None, float(e)) for e in grid]
    assert all(b >= a - 1e-6 for a, b in zip(po, po[1:])), po
    for e_val, p in zip(grid, po):
        thr = min(p, p_peak)
        if e_val < eps_star - 1e-3:
            assert thr < p_peak, (e_val, p)
        elif e_val > eps_star + 1e-3:
            assert p >= p_peak - 1e-6 and thr == p_peak, (e_val, p)


def test_criterion_08_decomposition_and_psd_suite():
    """1000 seeded decompositions: interference-nulling residual within
    1e-8 (relative) and every returned covariance PSD (min eig >= -1e-10)."""
    count = 0
    seed = 0
    while count < 1000:
        seed += 1
        k = count % 4
        users = (
            (UserConfig(n=1, gamma=1.0),),
            (UserConfig(n=1, gamma=1.0), UserConfig(n=1, gamma=2.0)),
            (UserConfig(n=2, gamma=1.5),),
            (UserConfig(n=2, gamma=1.0), UserConfig(n=1, gamma=1.0)),
        )[k]
        M = sum(u.n for u in users) + (seed % 2)
        chans = generate_channels(M, users, seed=seed)
        try:
            eff = decompose_zf_dpc(chans)
        except ValueError:
            continue  # rank-deficient draw; not a decomposition
        for kk in range(len(users)):
            B = eff.B[kk]
            for j in range(kk):
                resid = np.linalg.norm(chans.H[j] @ B)
                bound = ZF_RTOL * np.linalg.norm(chans.H[j]) * max(1.0, np.linalg.norm(B))
                assert resid <= bound, (seed, kk, j, resid)
        rng = np.random.Generator(np.random.Philox(key=seed))
        sol = solve_budget(eff, None, float(rng.uniform(0.1, 8.0)))
        for Phi in sol.covs.Phi:
            mineig = float(np.linalg.eigvalsh(Phi)[0])
            assert mineig >= -1e-10, (seed, mineig)
        count += 1


def test_criterion_09_energy_domain_identity():
    """Objectives in energy-domain and power-domain coordinates agree to
    1e-9 on every epoch with tau >= 1e-6; zero-tau epochs contribute
    exactly 0."""
    rng = np.random.Generator(np.random.Philox(key=0x9E12))
    for _ in range(10):
        (eff, _tl, _st, _pk, _eps), sol = solve_random(rng, SOLVERS, circuit=True)
        sched = sol.schedule
        tv = TransformedVariables.from_schedule(sched)
        ws = WaterSystem(eff, None)
        for i in range(sched.N):
            tau = float(tv.tau[i])
            if tau < 1e-6:
                continue
            direct = tau * float(ws.rate_at_power_vec(sched.power[i]))
            covs_from_theta = [m[i] / tau for m in tv.Theta.Phi]
            back = tau * math.fsum(
                g * math.log(np.linalg.det(
                    np.eye(L.shape[0]) + L @ Q @ L.conj().T
                ).real)
                for g, L, Q in zip(ws.weights, eff.L, covs_from_theta)
            )
            assert abs(direct - back) <= 1e-9 * max(1.0, abs(direct)), (i, direct, back)
        total = objective_from_transformed(eff, None, tv)
        assert abs(total - sched.objective) <= 1e-9 * max(1.0, abs(sched.objective))

    # Synthesized zero-tau epoch: contributes exactly 0, bit-for-bit.
    eff = decompose_zf_dpc(unit_scalar_channelset())
    tl = build_timeline([(0.0, 0.0), (5.0, 2.0)], T=10.0)
    sol = solve_offline_circuit(
        eff, None, tl, HybridStorage(5.0, 100.0, 0.5), p_peak=4.0, eps=1.0
    )
    tv = TransformedVariables.from_schedule(sol.schedule)
    idle = np.flatnonzero(sol.schedule.tau <= 0.0)
    assert idle.size > 0
    for i in idle:
        assert tv.tau[i] == 0.0
        assert all(np.all(Q[i] == 0.0) for Q in tv.Theta.Phi)
    active = TransformedVariables(
        alpha_sc=tv.alpha_sc[1:], alpha_b=tv.alpha_b[1:],
        sigma_sc=tv.sigma_sc[1:], sigma_b=tv.sigma_b[1:],
        tau=tv.tau[1:], Theta=CovarianceSet(tuple(Q[1:] for Q in tv.Theta.Phi)),
    )
    assert objective_from_transformed(eff, None, tv) == objective_from_transformed(
        eff, None, active
    )


def test_criterion_10_cli_byte_determinism(tmp_path, capsys):
    """Every CSV-emitting subcommand, rerun with identical seeded inputs,
    produces byte-identical output; value printers repeat verbatim."""
    chan = tmp_path / "chan.json"
    chan.write_text(json.dumps({"M": 2, "users": [{"n": 1, "gamma": 1.0}, {"n": 1, "gamma": 1.0}], "seed": 42}))
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({
        "T": 4.0,
        "arrivals": {"poisson": {"rate": 1.0, "e_avg": 1.0, "initial": 3.0, "seed": 7}},
        "sc_cap": 5.0, "b_cap": 100.0, "eta": 0.5,
    }))

    def run_twice(argv, out_name):
        outs = []
        for rep in ("x", "y"):
            out = tmp_path / f"{out_name}-{rep}.csv"
            assert main(argv + ["--out", str(out)]) == EXIT_OK
            capsys.readouterr()
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], out_name
        return outs[0]

    base = ["--channels", str(chan), "--scenario", str(scen), "--p-peak", "4.0"]
    run_twice(["solve"] + base, "solve-ideal")
    run_twice(["solve"] + base + ["--eps", "1.0"], "solve-circuit")
    run_twice(["simulate"] + base + ["--eps", "1.0"], "simulate")
    run_twice(
        ["sweep", "--trials", "2", "--T", "4.0", "--seed", "11",
         "--axis", "eta", "--values", "0.4,0.8"],
        "sweep",
    )
    for argv in (
        ["p-o", "--channels", str(chan), "--eps", "1.0"],
        ["level", "--channels", str(chan), "--budget", "2.0"],
    ):
        assert main(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == first
