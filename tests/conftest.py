"""Shared fixtures: canonical channel realizations and random instances.

The explicit channels below have hand-computable decompositions, so tests
can assert against closed forms.  Random helpers draw until they hit a
realization/instance the solvers accept (ill-conditioned channel draws
and storage-overflow arrival profiles are legitimately rejected by the
library, so generators simply redraw).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from ehsched import (
    ChannelSet,
    HybridStorage,
    SolverError,
    UserConfig,
    build_timeline,
    decompose_zf_dpc,
    generate_channels,
)


class NoDraws:
    """A random generator whose every draw fails the test at once, so a
    validation that lets a bad parameter through cannot loop."""

    def __getattr__(self, name):
        raise AssertionError(f"drew {name} from invalid parameters")


def unit_scalar_channelset() -> ChannelSet:
    """One single-antenna user with |h| = 1: a single mode with gain 1."""
    return ChannelSet(
        M=1, users=(UserConfig(n=1, gamma=1.0),), H=(np.array([[1.0 + 0.0j]]),)
    )


def orthogonal_pair_channelset(g1: float = 1.0, g2: float = 1.0) -> ChannelSet:
    """Two single-antenna users on orthogonal antennas; both modes have
    gain 1, so the cascade changes nothing."""
    return ChannelSet(
        M=2,
        users=(UserConfig(n=1, gamma=g1), UserConfig(n=1, gamma=g2)),
        H=(np.array([[1.0 + 0.0j, 0.0j]]), np.array([[0.0j, 1.0 + 0.0j]])),
    )


def two_mode_channelset() -> ChannelSet:
    """One two-antenna user with H = diag(1, 2): mode gains {4, 1}."""
    H = np.array([[1.0 + 0.0j, 0.0j], [0.0j, 2.0 + 0.0j]])
    return ChannelSet(M=2, users=(UserConfig(n=2, gamma=1.0),), H=(H,))


@pytest.fixture()
def unit_eff():
    return decompose_zf_dpc(unit_scalar_channelset())


@pytest.fixture()
def pair_eff():
    return decompose_zf_dpc(orthogonal_pair_channelset())


@pytest.fixture()
def two_mode_eff():
    return decompose_zf_dpc(two_mode_channelset())


@pytest.fixture()
def overdrawn_schedules(monkeypatch):
    """Make the offline solver's reconstruction radiate one watt more from
    the super-capacitor than it planned, so every schedule it returns
    drains energy the buffers never held."""
    from ehsched import offline

    reconstruct = offline._reconstruct

    def overdrawn(*args):
        sched = reconstruct(*args)
        return replace(sched, p_sc=sched.p_sc + 1.0)

    monkeypatch.setattr(offline, "_reconstruct", overdrawn)


@pytest.fixture()
def nan_curvature(monkeypatch):
    """Make the offline objective return NaN curvature weights on its
    third call, as a numerical breakdown inside the Newton loop would;
    yields the list of calls made."""
    from ehsched import offline

    objective = offline._Program.objective
    calls = []

    def poisoned(self, *args):
        F, grad, slope, kappa = objective(self, *args)
        calls.append(args[0])
        if len(calls) == 3:
            kappa = np.full_like(kappa, np.nan)
        return F, grad, slope, kappa

    monkeypatch.setattr(offline._Program, "objective", poisoned)
    yield calls


def draw_effective(rng, max_users: int = 2, max_n: int = 2):
    """A random full-rank decomposition (redraws degenerate channels)."""
    while True:
        K = int(rng.integers(1, max_users + 1))
        users = tuple(
            UserConfig(n=int(rng.integers(1, max_n + 1)), gamma=float(rng.uniform(0.5, 2.0)))
            for _ in range(K)
        )
        M = sum(u.n for u in users) + int(rng.integers(0, 2))
        chans = generate_channels(M, users, seed=int(rng.integers(1 << 30)))
        try:
            return decompose_zf_dpc(chans)
        except ValueError:
            continue


def draw_problem(rng, *, max_epochs: int = 8, circuit: bool = False):
    """A random scheduling problem: channels, timeline, storage, peak, eps.

    Storage-overflow profiles (which the offline solver rightly rejects)
    are filtered by the caller catching SolverError; this helper only
    guarantees structural validity.
    """
    eff = draw_effective(rng)
    N = int(rng.integers(2, max_epochs + 1))
    arrivals = []
    t = 0.0
    for _ in range(N):
        arrivals.append((t, float(rng.uniform(0.2, 4.0))))
        t += float(rng.uniform(0.4, 2.0))
    timeline = build_timeline(arrivals, T=t + float(rng.uniform(0.4, 2.0)))
    sc_cap = float(rng.uniform(0.3, 4.0))
    storage = HybridStorage(
        sc_cap=sc_cap,
        b_cap=sc_cap + float(rng.uniform(0.5, 25.0)),
        eta=float(rng.uniform(0.3, 1.0)),
    )
    p_peak = float(rng.uniform(1.0, 6.0))
    eps = 1.0 if circuit else None
    return eff, timeline, storage, p_peak, eps


def solve_random(rng, solver_map, *, circuit: bool, max_epochs: int = 8):
    """Draw problems until one is solvable; return (problem, solution)."""
    while True:
        prob = draw_problem(rng, max_epochs=max_epochs, circuit=circuit)
        eff, timeline, storage, p_peak, eps = prob
        try:
            if circuit:
                sol = solver_map["circuit"](eff, None, timeline, storage, p_peak, eps)
            else:
                sol = solver_map["ideal"](eff, None, timeline, storage, p_peak)
        except SolverError:
            continue
        return prob, sol
