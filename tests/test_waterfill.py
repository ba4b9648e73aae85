"""Exact water-filling queries, closed forms, and consistency checks."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehsched import (
    CovarianceSet,
    HybridStorage,
    UserConfig,
    WaterSystem,
    build_timeline,
    covariances_for_level,
    decompose_zf_dpc,
    generate_channels,
    solve_budget,
    solve_offline_ideal,
    weighted_rate,
)

from conftest import draw_effective, orthogonal_pair_channelset
from oracle import power_at_level


# ---------------------------------------------------------------------------
# One shared, read-only system per channel object and weights
# ---------------------------------------------------------------------------


def test_shared_system_per_channels_and_weights(pair_eff):
    ws = WaterSystem.shared(pair_eff)
    assert WaterSystem.shared(pair_eff, None) is ws
    assert WaterSystem.shared(pair_eff, pair_eff.gammas.copy()) is ws
    assert WaterSystem.shared(pair_eff, [1.0, 1.0]) is ws
    other = WaterSystem.shared(pair_eff, [2.0, 1.0])
    assert other is not ws and other is WaterSystem.shared(pair_eff, np.array([2.0, 1.0]))
    np.testing.assert_array_equal(other.weights, [2.0, 1.0])
    # Another decomposition of the same channels is another channel object.
    again = decompose_zf_dpc(orthogonal_pair_channelset())
    assert WaterSystem.shared(again) is not ws
    with pytest.raises(ValueError, match="one positive weight per user"):
        WaterSystem.shared(pair_eff, [1.0])


def test_dropped_channel_object_is_freed_without_the_cycle_collector():
    """A system keeps its channels' mode tables, not the channel object
    that caches it: with the cyclic collector off, dropping the channel
    object frees it; a channel object with its systems still pickles."""
    import gc
    import pickle
    import weakref

    eff = decompose_zf_dpc(orthogonal_pair_channelset())
    ws = WaterSystem.shared(eff)
    covs = ws.covariances(np.array([0.5, 2.0]))
    back = pickle.loads(pickle.dumps(eff))
    for got, want in zip(WaterSystem.shared(back).covariances(np.array([0.5, 2.0])).Phi,
                         covs.Phi):
        assert np.array_equal(got, want)
    ref = weakref.ref(eff)
    gc.disable()
    try:
        del eff
        assert ref() is None
    finally:
        gc.enable()


def test_system_tables_are_read_only(pair_eff):
    weights = np.array([1.0, 2.0])
    ws = WaterSystem.shared(pair_eff, weights)
    tables = {name: value for name, value in vars(ws).items() if isinstance(value, np.ndarray)}
    assert {"weights", "thr", "cg", "cil", "cgl", "breaks"} <= set(tables)
    for name, table in tables.items():
        assert not table.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0
    # The system holds its own copy of the weights; the caller's arrays,
    # and the channels' gammas, stay writable.
    weights[0] = 3.0
    assert ws.weights[0] == 1.0
    assert WaterSystem.shared(pair_eff).weights is not pair_eff.gammas
    assert pair_eff.gammas.flags.writeable


# ---------------------------------------------------------------------------
# Scalar closed forms: a single unit mode gives W(P) = ln(1 + P)
# ---------------------------------------------------------------------------


def test_unit_mode_closed_forms(unit_eff):
    sys = WaterSystem(unit_eff)
    assert sys.level_max == pytest.approx(1.0)
    p = np.array([0.1, 1.0, 3.0, 17.5])
    level, m = sys.level_at_power_vec(p)
    np.testing.assert_array_equal(m, 1)
    assert level == pytest.approx(1.0 / (1.0 + p))
    assert sys.rate_at_power_vec(p) == pytest.approx(np.log1p(p))
    assert sys.curvature_vec(p) == pytest.approx(-1.0 / (1.0 + p) ** 2)
    assert sys.rate_at_power_vec(0.0) == 0.0
    assert sys.level_at_power_vec(0.0) == (1.0, 0)
    assert sys.curvature_vec(0.0) == 0.0
    assert power_at_level(sys, 0.5) == pytest.approx(1.0)
    assert power_at_level(sys, 2.0) == 0.0
    with pytest.raises(ValueError):
        power_at_level(sys, 0.0)


def test_two_mode_breakpoints(two_mode_eff):
    # Eigenvalues 4 and 1; the second mode switches on at level 1,
    # i.e. at sum power 1/1 - 1/4 = 0.75.
    sys = WaterSystem(two_mode_eff)
    assert sys.thr[:2].tolist() == [4.0, 1.0]
    assert sys.level_at_power_vec(0.75)[1] == 1
    assert sys.rate_at_power_vec(0.75) == pytest.approx(math.log(4.0))
    level, m = sys.level_at_power_vec(6.75)
    assert (level, m) == (pytest.approx(0.25), 2)
    assert sys.rate_at_power_vec(6.75) == pytest.approx(6.0 * math.log(2.0))
    assert power_at_level(sys, 0.25) == pytest.approx(6.75)
    assert sys.breaks.tolist() == [0.75]
    lvl, m = sys.level_at_power_vec(np.array([[0.5, 0.75], [0.75 + 1e-12, 6.75]]))
    np.testing.assert_array_equal(m, [[1, 1], [2, 2]])
    assert lvl[1, 1] == pytest.approx(0.25)


def test_weights_reorder_modes(pair_eff):
    # Doubling user 2's weight lifts its threshold above user 1's.
    sys = WaterSystem(pair_eff, weights=[1.0, 2.0])
    assert sys.thr[:2].tolist() == [2.0, 1.0]
    # Below the second breakpoint only user 2 transmits.
    sol = solve_budget(pair_eff, [1.0, 2.0], 0.25)
    assert np.allclose(sol.covs.Phi[0], 0.0)
    assert sol.covs.Phi[1][0, 0] == pytest.approx(0.25)


def test_weight_validation(pair_eff):
    covs = solve_budget(pair_eff, None, 2.0).covs
    storage = HybridStorage(sc_cap=1.0, b_cap=10.0, eta=0.5)
    timeline = build_timeline([(0.0, 1.0)], T=1.0)
    takers = (
        lambda w: WaterSystem(pair_eff, weights=w),
        lambda w: weighted_rate(pair_eff, covs, w),
        lambda w: covariances_for_level(pair_eff, w, 0.5),
        lambda w: solve_offline_ideal(pair_eff, w, timeline, storage, 4.0),
    )
    for bad, match in (
        ([1.0], "one positive weight"),
        ([1.0, 1.0, 1.0], "one positive weight"),
        ([1.0, 0.0], "positive"),
        ([-1.0, 1.0], "positive"),
        ([1.0, math.inf], "finite"),
        ([math.nan, 1.0], "finite"),
    ):
        for take in takers:
            with pytest.raises(ValueError, match=match):
                take(bad)


def test_weighted_rate_resolves_weights_like_water_filling():
    """A short weight list is refused rather than rating only the users it
    covers, and explicit gammas give the default rate bit for bit."""
    users = (UserConfig(n=1), UserConfig(n=1))
    eff = decompose_zf_dpc(generate_channels(2, users, seed=3))
    covs = solve_budget(eff, None, 2.0).covs
    for bad in ([1.0], [-1.0, 1.0]):
        with pytest.raises(ValueError, match="weight"):
            weighted_rate(eff, covs, bad)
    assert weighted_rate(eff, covs, [1.0, 1.0]) == weighted_rate(eff, covs)
    assert weighted_rate(eff, covs) == pytest.approx(solve_budget(eff, None, 2.0).rate, rel=1e-12)


# ---------------------------------------------------------------------------
# Covariances
# ---------------------------------------------------------------------------


def test_covariances_match_closed_form(two_mode_eff):
    covs = covariances_for_level(two_mode_eff, None, 0.25)
    np.testing.assert_allclose(covs.Phi[0], np.diag([3.0, 3.75]), atol=1e-12)
    assert weighted_rate(two_mode_eff, covs) == pytest.approx(6.0 * math.log(2.0))
    with pytest.raises(ValueError):
        covariances_for_level(two_mode_eff, None, [0.0])


def test_batched_covariances_match_per_level_closed_form():
    """One batched build over an array of sum powers equals, epoch by
    epoch, Phi_k = L_k^-1 U_k diag((gamma_k lam / Delta - 1)^+) U_k^H L_k^-H
    from a fresh eigendecomposition; idle epochs are exact zero matrices
    and every set carries the queried rate."""
    users = (UserConfig(n=2, gamma=1.0), UserConfig(n=2, gamma=1.7))
    eff = decompose_zf_dpc(generate_channels(4, users, seed=2024))
    sys = WaterSystem(eff)
    power = np.array([0.0, 0.05, 0.7, -1.0, 3.0, 12.0, 0.0, 40.0])
    covs = sys.covariances(power)
    assert [P.shape for P in covs.Phi] == [(power.size, 2, 2)] * 2
    levels, _ = sys.level_at_power_vec(power)
    rates = sys.rate_at_power_vec(power)
    for i, (p, level, rate) in enumerate(zip(power, levels, rates)):
        cs = CovarianceSet(tuple(P[i] for P in covs.Phi))
        if p <= 0.0:
            for P in cs.Phi:
                assert P.shape == (2, 2) and P.tobytes() == bytes(P.nbytes)
            continue
        for gamma, L, P in zip(eff.gammas, eff.L, cs.Phi):
            lam, U = np.linalg.eigh(L @ L.conj().T)
            X = np.linalg.solve(L, U)
            d = np.maximum(gamma * lam / level - 1.0, 0.0)
            np.testing.assert_allclose(P, (X * d) @ X.conj().T, rtol=1e-12, atol=1e-12 * p)
        assert cs.total_power() == pytest.approx(p, rel=1e-12)
        assert weighted_rate(eff, cs) == pytest.approx(rate, rel=1e-12, abs=1e-12)
    np.testing.assert_array_equal(covariances_for_level(eff, None, levels).Phi[0][1], covs.Phi[0][1])
    for bad in ([0.5, math.nan], [0.5, 0.0]):
        with pytest.raises(ValueError, match="positive"):
            covariances_for_level(eff, None, bad)
    with pytest.raises(ValueError, match="positive"):
        sys.covariances([1.0, math.nan])


def test_solve_budget_zero_and_positive(unit_eff):
    zero = solve_budget(unit_eff, None, 0.0)
    assert zero.power == 0.0 and zero.rate == 0.0
    assert np.allclose(zero.covs.Phi[0], 0.0)
    sol = solve_budget(unit_eff, None, 1.0)
    assert sol.level == pytest.approx(0.5)
    assert sol.covs.Phi[0][0, 0] == pytest.approx(1.0)
    assert sol.rate == pytest.approx(math.log(2.0))


def test_solve_budget_rejects_negative_and_non_finite(unit_eff):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (-1.0, -1e-300, math.nan, math.inf):
            with pytest.raises(ValueError, match="budget must be nonnegative and finite"):
                solve_budget(unit_eff, None, bad)


# ---------------------------------------------------------------------------
# Properties on random channels
# ---------------------------------------------------------------------------


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_scan_routes_agree(seed):
    """The breakpoint query's level is inverted by the independent
    level-to-power map and its mode count is the number of thresholds
    above it; realized covariances must carry the budget as their trace
    and reproduce the queried rate."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    eff = draw_effective(rng)
    sys = WaterSystem(eff)
    powers = np.concatenate(([0.0], rng.uniform(0.01, 12.0, size=6)))
    lvl_vec, m_vec = sys.level_at_power_vec(powers)
    rate_vec = sys.rate_at_power_vec(powers)
    curv_vec = sys.curvature_vec(powers)
    for p, lv, mv, rv, cv in zip(powers, lvl_vec, m_vec, rate_vec, curv_vec):
        assert cv == pytest.approx(-(lv * lv) / sys.cg[mv] if mv else 0.0, rel=1e-12)
        if p > 0.0:
            assert mv == np.count_nonzero(sys.thr > lv)
            assert power_at_level(sys, lv) == pytest.approx(float(p), rel=1e-9)
            sol = solve_budget(eff, None, float(p))
            assert sol.level == lv and sol.rate == rv
            trace = sum(float(np.trace(Phi).real) for Phi in sol.covs.Phi)
            assert trace == pytest.approx(float(p), rel=1e-8, abs=1e-10)
            assert weighted_rate(eff, sol.covs) == pytest.approx(sol.rate, rel=1e-9)
        else:
            assert (lv, mv, rv) == (sys.level_max, 0, 0.0)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_rate_concave_increasing(seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    eff = draw_effective(rng)
    sys = WaterSystem(eff)
    p = np.sort(rng.uniform(0.0, 10.0, size=8))
    rates = sys.rate_at_power_vec(p).tolist()
    assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))
    slopes = [
        (rb - ra) / (pb - pa)
        for (pa, ra), (pb, rb) in zip(zip(p, rates), zip(p[1:], rates[1:]))
        if pb - pa > 1e-9
    ]
    assert all(s2 <= s1 + 1e-9 for s1, s2 in zip(slopes, slopes[1:]))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_marginal_rate_is_the_derivative(seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    eff = draw_effective(rng)
    sys = WaterSystem(eff)
    p = float(rng.uniform(0.2, 8.0))
    h = 1e-6
    fd = (sys.rate_at_power_vec(p + h) - sys.rate_at_power_vec(p - h)) / (2.0 * h)
    level, _ = sys.level_at_power_vec(p)
    assert level == pytest.approx(fd, rel=1e-4)
    fd2 = (sys.level_at_power_vec(p + h)[0] - sys.level_at_power_vec(p - h)[0]) / (2.0 * h)
    assert sys.curvature_vec(p) == pytest.approx(fd2, rel=1e-4)
