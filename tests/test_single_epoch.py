"""Efficiency-optimal power and one-epoch drain regimes."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from ehsched import UserConfig, WaterSystem, decompose_zf_dpc, generate_channels, solve_p_o

from conftest import draw_effective
from oracle import efficient_power_lambertw
from reference_online import _burst_window, _split_drains, solve_single_epoch

E = math.e


# ---------------------------------------------------------------------------
# Efficiency-optimal power p_o
# ---------------------------------------------------------------------------


def test_p_o_unit_mode_closed_form(unit_eff):
    # For W(p) = ln(1+p) the ratio ln(1+p)/(p+1) peaks where
    # ln(1+p) = 1, i.e. at p = e - 1.
    assert solve_p_o(unit_eff, None, 1.0) == pytest.approx(E - 1.0, abs=1e-7)


def test_p_o_zero_circuit_power(unit_eff):
    assert solve_p_o(unit_eff, None, 0.0) == 0.0
    for eps in (-0.1, math.nan, math.inf, [1.0, math.nan]):
        with pytest.raises(ValueError, match="circuit power must be nonnegative and finite"):
            solve_p_o(unit_eff, None, eps)


def test_p_o_unit_mode_against_stationarity(unit_eff):
    """Independent route: solve the stationarity condition
    (p + eps)/(1 + p) = ln(1 + p) directly with a bracketing root finder."""
    eps = np.array([0.3, 1.0, 2.5, 7.0])
    for e, po in zip(eps, solve_p_o(unit_eff, None, eps)):
        root = brentq(
            lambda p: (p + e) / (1.0 + p) - math.log1p(p), 1e-9, 1e6, xtol=1e-12
        )
        assert po == pytest.approx(root, rel=1e-7)


@given(
    seed=st.integers(0, 2**32 - 1),
    eps=st.lists(st.floats(0.05, 5.0), min_size=1, max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_p_o_maximizes_the_ratio(seed, eps):
    rng = np.random.Generator(np.random.Philox(key=seed))
    eff = draw_effective(rng)
    sys = WaterSystem(eff)
    eps = np.array(eps)
    po = solve_p_o(eff, None, eps)
    best = sys.rate_at_power_vec(po) / (po + eps)
    for e, p_o, b in zip(eps, po, best):
        p = np.linspace(1e-3, max(4.0 * p_o, 10.0), 200)
        assert np.all(sys.rate_at_power_vec(p) / (p + e) <= b * (1.0 + 1e-6))


@pytest.mark.parametrize("eps", [1e-6, 0.1, 0.5, 2.0, 10.0, 1e5])
def test_p_o_two_mode_against_stationarity(two_mode_eff, eps):
    """Independent route on W(p) = ln(1 + 4p) below the breakpoint 0.75
    and 2 ln(p + 1.25) above it: solve W'(p)(p + eps) = W(p) with a
    bracketing root finder.  p_o crosses the breakpoint at
    eps = ln 4 - 0.75, so the eps values put it in the first segment
    (1e-6, 0.1, 0.5) and in the second (2, 10, 1e5)."""

    def stationarity(p):
        if p <= 0.75:
            return 4.0 * (p + eps) / (1.0 + 4.0 * p) - math.log1p(4.0 * p)
        return 2.0 * (p + eps) / (p + 1.25) - 2.0 * math.log(p + 1.25)

    root = brentq(stationarity, 1e-12, 1e9, xtol=1e-300, rtol=1e-14)
    po = solve_p_o(two_mode_eff, None, eps)
    assert po == pytest.approx(root, rel=1e-9)
    assert (po < 0.75) == (eps < math.log(4.0) - 0.75)


def test_p_o_monotone_in_circuit_power(two_mode_eff):
    grid = np.linspace(0.05, 6.0, 15)
    po = solve_p_o(two_mode_eff, None, grid)
    assert np.all(np.diff(po) >= -1e-8)


def test_p_o_tends_to_sqrt_2_c_eps():
    """On the first segment (1 + t) ln(1 + t) - t = eps/C with t = p_o/C,
    so p_o/sqrt(eps) tends to sqrt(2C) as eps falls to 0.  The Lambert-W
    closed form read 0.733 here at eps = 1e-16 and 0 from 1e-17 down."""
    ws = WaterSystem(decompose_zf_dpc(generate_channels(2, [UserConfig(1)] * 2, seed=42)))
    limit = math.sqrt(2.0 * ws.cil[1])
    assert limit == pytest.approx(0.873646, abs=5e-7)
    eps = 10.0 ** -np.arange(24, 301, dtype=float)
    np.testing.assert_allclose(ws.efficient_power(eps) / np.sqrt(eps), limit, rtol=1e-12, atol=0)
    tiny = np.array([5e-324, 1e-320, 2.2e-308, 1e-200, 1e-60, 1e-17, 1e-16, 1e-13, 1e-9])
    assert np.all(ws.efficient_power(tiny) > 0.0)
    assert ws.efficient_power(0.0) == 0.0
    np.testing.assert_array_equal(ws.efficient_power([0.0, 1e-300, 0.0]) > 0.0, [0, 1, 0])


def test_p_o_matches_the_lambert_w_closed_form():
    """Where eps >= C (t >= e - 1 on the first segment) the Lambert-W form
    is accurate, and the root agrees with it to a few ulp of u = p_o + C,
    the variable both solve for (p_o = u - C carries the rounding of C).
    Below, the closed form's error grows as 1/t: about 20 ulp of u at
    eps/C = 0.01."""
    rng = np.random.Generator(np.random.Philox(key=7))
    for _ in range(24):
        ws = WaterSystem(draw_effective(rng))
        eps = ws.cil[1] * np.geomspace(1.0, 1e4, 41)
        root, closed = ws.efficient_power(eps), efficient_power_lambertw(ws, eps)
        u = root + ws.cil[np.searchsorted(ws.breaks, root) + 1]
        assert np.all(np.abs(root - closed) <= 8.0 * np.finfo(float).eps * u)


def test_p_o_series_and_halley_steps_agree_at_the_handover(two_mode_eff):
    """The first segment switches from the Halley steps to the series at
    s = sqrt(2 eps/C) = 0.1; across the switch p_o stays smooth."""
    ws = WaterSystem(two_mode_eff)
    C = ws.cil[1]
    eps = 0.005 * C * np.array([1 - 1e-12, 1.0, 1 + 1e-12])
    p_o = ws.efficient_power(eps)
    slope = (p_o[2] - p_o[0]) / (eps[2] - eps[0])
    assert slope > 0.0
    assert p_o[1] == pytest.approx(p_o[0] + slope * (eps[1] - eps[0]), rel=1e-14)


def test_p_o_is_exact_at_breakpoints_and_in_far_segments():
    """Across every segment of random channels p_o meets the stationarity
    condition W'(p)(p + eps) = W(p) to rounding, or sits at a breakpoint
    where the condition changes sign."""
    rng = np.random.Generator(np.random.Philox(key=11))
    for _ in range(20):
        ws = WaterSystem(draw_effective(rng, max_users=3, max_n=2))
        eps = np.geomspace(1e-6, 1e6, 49)
        p_o = ws.efficient_power(eps)
        level, m = ws.level_at_power_vec(p_o)
        gap = level * (p_o + eps) - ws.rate_at_level_vec(level, m)
        at_break = np.isin(p_o, ws.breaks)
        scale = level * (p_o + eps) + np.abs(ws.rate_at_level_vec(level, m))
        assert np.all(at_break | (np.abs(gap) <= 1e-13 * scale))
        assert np.all(np.diff(p_o) > 0.0)


# ---------------------------------------------------------------------------
# One-epoch drain
# ---------------------------------------------------------------------------


def test_single_epoch_scarce_regime(unit_eff):
    # 7.5 J drainable over 5 s with eps=1: burn at p_o = e-1 for
    # tau = 7.5/e < 5 s, then sleep.
    sol = solve_single_epoch(
        unit_eff, None, e_sc=5.0, e_b=5.0, eta=0.5, eps=1.0, p_peak=4.0, t=5.0
    )
    assert sol.power == pytest.approx(E - 1.0, abs=1e-7)
    assert sol.tau == pytest.approx(7.5 / E, rel=1e-7)
    assert sol.throughput == pytest.approx(7.5 / E, rel=1e-7)
    # SC-first funding: the SC's 5 J covers 2/3 of the drain.
    assert sol.drained_sc == pytest.approx(5.0)
    assert sol.drained_b == pytest.approx(2.5)
    assert sol.p_sc + sol.p_b == pytest.approx(sol.power)
    assert sol.eps_sc + sol.eps_b == pytest.approx(1.0)
    assert sol.p_sc / sol.power == pytest.approx(2.0 / 3.0)


def test_single_epoch_solution_is_its_decision_plus_throughput(unit_eff):
    sol = solve_single_epoch(
        unit_eff, None, e_sc=5.0, e_b=5.0, eta=0.5, eps=1.0, p_peak=4.0, t=5.0
    )
    p_o = float(solve_p_o(unit_eff, None, 1.0))
    dec = _split_drains(5.0, 2.5, *_burst_window(7.5, p_o, 1.0, 4.0, 5.0), 1.0)
    assert sol[:8] == dec and sol[8] == sol.throughput
    assert sol._fields == (
        "tau", "power", "p_sc", "p_b", "eps_sc", "eps_b", "drained_sc", "drained_b", "throughput"
    )
    with pytest.raises(AttributeError):
        sol.throughput = 0.0


def test_single_epoch_middle_regime(unit_eff):
    # 20 J over 5 s: spread the whole window at p = 20/5 - 1 = 3.
    sol = solve_single_epoch(
        unit_eff, None, e_sc=5.0, e_b=30.0, eta=0.5, eps=1.0, p_peak=4.0, t=5.0
    )
    assert sol.power == pytest.approx(3.0)
    assert sol.tau == pytest.approx(5.0)
    assert sol.throughput == pytest.approx(5.0 * math.log(4.0))


def test_single_epoch_peak_limited(unit_eff):
    # 30 J over 5 s exceeds t*(p_peak+eps) = 25 J: transmit at the peak
    # the whole window and strand the remaining 5 J.
    sol = solve_single_epoch(
        unit_eff, None, e_sc=5.0, e_b=50.0, eta=0.5, eps=1.0, p_peak=4.0, t=5.0
    )
    assert sol.power == pytest.approx(4.0)
    assert sol.tau == pytest.approx(5.0)
    assert sol.throughput == pytest.approx(5.0 * math.log(5.0))
    assert sol.drained_sc + sol.drained_b == pytest.approx(25.0)


def test_single_epoch_no_circuit_power_spreads(unit_eff):
    sol = solve_single_epoch(
        unit_eff, None, e_sc=2.0, e_b=0.0, eta=0.5, eps=0.0, p_peak=4.0, t=4.0
    )
    assert sol.power == pytest.approx(0.5)
    assert sol.tau == pytest.approx(4.0)
    assert sol.throughput == pytest.approx(4.0 * math.log(1.5))


def test_single_epoch_empty_store(unit_eff):
    sol = solve_single_epoch(
        unit_eff, None, e_sc=0.0, e_b=0.0, eta=0.5, eps=1.0, p_peak=4.0, t=5.0
    )
    assert sol.power == 0.0 and sol.tau == 0.0 and sol.throughput == 0.0


def test_single_epoch_validation(unit_eff):
    for t in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="window length must be positive"):
            solve_single_epoch(unit_eff, None, 1.0, 0.0, 0.5, 1.0, 4.0, t=t)
    with pytest.raises(ValueError):
        solve_single_epoch(unit_eff, None, 1.0, 0.0, 1.5, 1.0, 4.0, t=1.0)
    with pytest.raises(ValueError):
        solve_single_epoch(unit_eff, None, -1.0, 0.0, 0.5, 1.0, 4.0, t=1.0)
    with pytest.raises(ValueError):
        solve_single_epoch(unit_eff, None, 1.0, 0.0, 0.5, 1.0, 0.0, t=1.0)
    for e_sc, e_b in ((math.nan, 0.0), (1.0, math.nan), (math.inf, 0.0)):
        with pytest.raises(ValueError, match="energies must be nonnegative and finite"):
            solve_single_epoch(unit_eff, None, e_sc, e_b, 0.5, 1.0, 4.0, t=1.0)
    for eps in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="circuit power must be nonnegative and finite"):
            solve_single_epoch(unit_eff, None, 1.0, 0.5, 0.5, eps, 4.0, t=1.0)
    for p_peak in (math.inf, math.nan):
        with pytest.raises(ValueError, match="p_peak must be positive and finite"):
            solve_single_epoch(unit_eff, None, 1.0, 0.5, 0.5, 1.0, p_peak, t=1.0)


@given(
    seed=st.integers(0, 2**32 - 1),
    e_sc=st.floats(0.0, 6.0),
    e_b=st.floats(0.0, 20.0),
    eps=st.floats(0.0, 3.0),
)
@settings(max_examples=40, deadline=None)
def test_single_epoch_beats_grid(seed, e_sc, e_b, eps):
    """The closed-form regime choice must dominate every (p, tau) pair on
    a feasibility-respecting grid."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    eff = draw_effective(rng)
    sys = WaterSystem(eff)
    eta, p_peak, t = 0.5, 4.0, 3.0
    sol = solve_single_epoch(eff, None, e_sc, e_b, eta, eps, p_peak, t)
    e_tol = e_sc + eta * e_b
    assert sol.tau * (sol.power + eps) <= e_tol + 1e-9
    assert sol.power <= p_peak + 1e-12 and sol.tau <= t + 1e-12
    best = sol.throughput
    p = np.linspace(1e-3, p_peak, 120)
    tau = np.minimum(t, e_tol / (p + eps))
    assert np.all(tau * sys.rate_at_power_vec(p) <= best + 1e-7 * max(1.0, best))


def test_p_o_is_fast(unit_eff):
    solve_p_o(unit_eff, None, 1.0)  # warm any lazy setup
    start = time.perf_counter()
    for _ in range(20):
        solve_p_o(unit_eff, None, 1.0)
    per_call = (time.perf_counter() - start) / 20.0
    assert per_call < 1e-3
