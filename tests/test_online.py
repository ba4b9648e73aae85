"""Causal policies: arrival routing, per-epoch decisions, full runs."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ehsched import (
    HybridStorage,
    WaterSystem,
    build_timeline,
    check_feasibility,
    run_online,
    solve_offline_circuit,
    solve_offline_ideal,
    solve_p_o,
)
from ehsched import online
from ehsched.energy import FEAS_TOL
from ehsched.experiments import reference_profile
from ehsched.online import _exact_prefix_sums

from conftest import draw_problem
from reference_online import policy_circuit, policy_ideal, split_arrival

E = math.e


# ---------------------------------------------------------------------------
# Arrival routing
# ---------------------------------------------------------------------------


def test_split_arrival_sc_first_then_battery_then_discard():
    storage = HybridStorage(sc_cap=2.0, b_cap=3.0, eta=0.5, level_sc=1.5, level_b=2.0)
    # Headroom: 0.5 J SC, (3-2)/0.5 = 2 J raw battery.
    dec = split_arrival(storage, 4.0)
    assert dec.sc == pytest.approx(0.5)
    assert dec.b == pytest.approx(2.0)
    assert dec.discarded == pytest.approx(1.5)
    assert storage.level_sc == pytest.approx(2.0)
    assert storage.level_b == pytest.approx(3.0)


def test_split_arrival_fits_in_sc():
    storage = HybridStorage(sc_cap=5.0, b_cap=50.0, eta=0.5)
    dec = split_arrival(storage, 3.0)
    assert (dec.sc, dec.b, dec.discarded) == (3.0, 0.0, 0.0)
    for bad in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="arrival amount must be nonnegative and finite"):
            split_arrival(storage, bad)
    assert (storage.level_sc, storage.level_b) == (3.0, 0.0)


def test_decisions_are_immutable_named_tuples():
    """Both per-epoch decisions unpack in field order and refuse
    assignment."""
    storage = HybridStorage(sc_cap=5.0, b_cap=50.0, eta=0.5, level_b=1.0)
    split = split_arrival(storage, 7.0)
    sc, b, discarded = split
    assert (sc, b, discarded) == (split.sc, split.b, split.discarded) == (5.0, 2.0, 0.0)
    assert split._fields == ("sc", "b", "discarded")
    dec = policy_ideal(storage, p_peak=4.0, l=1.0, remaining=2.0)
    assert dec._fields == ("tau", "power", "p_sc", "p_b", "eps_sc", "eps_b", "d_sc", "d_b")
    assert tuple(dec) == tuple(getattr(dec, name) for name in dec._fields)
    tau, power, p_sc, p_b, eps_sc, eps_b, d_sc, d_b = dec
    # 7 J drainable spread over 2 s, all of this epoch's 3.5 J from the SC.
    assert (tau, power, eps_sc + eps_b) == (1.0, 3.5, 0.0)
    assert (d_sc, d_b) == (3.5, 0.0) and p_sc + p_b == power
    for decision, name in ((split, "sc"), (dec, "tau")):
        with pytest.raises(AttributeError):
            setattr(decision, name, 0.0)


# ---------------------------------------------------------------------------
# Per-epoch decisions
# ---------------------------------------------------------------------------


def test_policy_ideal_spreads_and_clips():
    storage = HybridStorage(sc_cap=5.0, b_cap=50.0, eta=0.5, level_sc=4.0, level_b=2.0)
    dec = policy_ideal(storage, p_peak=4.0, l=1.0, remaining=3.0)
    assert dec.power == pytest.approx(2.0)  # 6 J over 3 s
    assert dec.tau == 1.0
    assert dec.d_sc + dec.d_b == pytest.approx(2.0)
    assert dec.d_sc == pytest.approx(2.0)  # SC-first
    clipped = policy_ideal(storage, p_peak=1.5, l=1.0, remaining=3.0)
    assert clipped.power == pytest.approx(1.5)


def test_policy_circuit_scarce_bursts_at_p_o(unit_eff):
    storage = HybridStorage(sc_cap=5.0, b_cap=50.0, eta=0.5, level_sc=1.0)
    dec = policy_circuit(storage, solve_p_o(unit_eff, None, 1.0), p_peak=4.0, eps=1.0, l=2.0)
    assert dec.power == pytest.approx(E - 1.0, abs=1e-6)
    assert dec.tau == pytest.approx(1.0 / E, rel=1e-6)
    assert dec.d_sc == pytest.approx(1.0, rel=1e-9)
    assert dec.d_b == 0.0
    assert dec.eps_sc == pytest.approx(1.0)


def test_policy_circuit_abundant_runs_at_peak(unit_eff):
    storage = HybridStorage(sc_cap=5.0, b_cap=50.0, eta=0.5, level_sc=5.0, level_b=20.0)
    dec = policy_circuit(storage, solve_p_o(unit_eff, None, 1.0), p_peak=4.0, eps=1.0, l=1.0)
    assert dec.power == pytest.approx(4.0)
    assert dec.tau == pytest.approx(1.0)
    # 5 J consumed in the epoch, SC-first.
    assert dec.d_sc == pytest.approx(5.0)
    assert dec.d_b == pytest.approx(0.0)


def test_policy_circuit_empty_store_is_silent(unit_eff):
    storage = HybridStorage(sc_cap=5.0, b_cap=50.0, eta=0.5)
    dec = policy_circuit(storage, solve_p_o(unit_eff, None, 1.0), p_peak=4.0, eps=1.0, l=1.0)
    assert dec.tau == 0.0 and dec.power == 0.0 and dec.eps_sc == 0.0


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


def _profile():
    return build_timeline(
        [(0.0, 4.0), (2.0, 7.0), (3.0, 3.0), (5.0, 5.0), (8.0, 1.0), (9.0, 8.0)],
        T=10.0,
    )


def test_run_online_ideal_trace_and_accounting(unit_eff):
    tl = _profile()
    storage = HybridStorage(sc_cap=5.0, b_cap=100.0, eta=0.5)
    res = run_online(unit_eff, None, tl, storage, p_peak=4.0)
    # The caller's storage element is untouched.
    assert storage.level_sc == 0.0 and storage.level_b == 0.0
    assert res.trace.shape == (tl.N + 1, 2)
    assert tuple(res.trace[0]) == (0.0, 0.0)
    assert res.trace[-1][0] == pytest.approx(tl.T)
    assert res.trace[-1][1] == pytest.approx(res.throughput)
    assert np.all(np.diff(res.trace[:, 1]) >= -1e-12)
    sched = res.schedule
    assert res.throughput == pytest.approx(
        math.fsum(sched.tau * sched.rate), rel=1e-12
    )
    rep = check_feasibility(tl, sched.split, sched, storage, p_peak=4.0)
    assert rep.feasible, rep.worst()


def test_run_online_circuit_feasible_and_consistent(unit_eff):
    tl = _profile()
    storage = HybridStorage(sc_cap=5.0, b_cap=100.0, eta=0.6)
    res = run_online(unit_eff, None, tl, storage, p_peak=4.0, eps=1.0)
    sched = res.schedule
    rep = check_feasibility(tl, sched.split, sched, storage, p_peak=4.0)
    assert rep.feasible, rep.worst()
    on = sched.tau > 1e-12
    # While transmitting, the burst rule never goes below the
    # efficiency-optimal power (e - 1 for this channel) nor above the peak.
    assert np.all(sched.power[on] >= E - 1.0 - 1e-6)
    assert np.all(sched.power[on] <= 4.0 + 1e-12)
    assert np.all(sched.eps_sc[on] + sched.eps_b[on] == pytest.approx(1.0))
    assert np.all(sched.eps_sc[~on] + sched.eps_b[~on] == 0.0)
    # The trace, the throughput and the schedule's rates agree exactly.
    assert res.trace[-1, 1] == res.throughput == math.fsum(sched.tau * sched.rate)


def test_run_online_discards_when_storage_is_tiny(unit_eff):
    tl = build_timeline([(0.0, 10.0), (1.0, 10.0)], T=2.0)
    storage = HybridStorage(sc_cap=1.0, b_cap=1.2, eta=0.5)
    res = run_online(unit_eff, None, tl, storage, p_peak=4.0)
    assert np.all(res.discarded >= 0.0)
    assert res.discarded.sum() > 0.0
    rep = check_feasibility(tl, res.schedule.split, res.schedule, storage, p_peak=4.0)
    assert rep.feasible, rep.worst()


def test_run_online_validation(unit_eff):
    tl = _profile()
    storage = HybridStorage(sc_cap=5.0, b_cap=100.0, eta=0.5)
    for p_peak in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="p_peak must be positive and finite"):
            run_online(unit_eff, None, tl, storage, p_peak=p_peak)
    with pytest.raises(ValueError, match="circuit power"):
        run_online(unit_eff, None, tl, storage, p_peak=4.0, eps=-1.0)
    for bad in (math.nan, math.inf, [0.5, 1.0, math.nan, 1.0, 1.0, 1.0]):
        with pytest.raises(ValueError, match="circuit power must be nonnegative and finite"):
            run_online(unit_eff, None, tl, storage, p_peak=4.0, eps=bad)


def test_run_online_per_epoch_eps_array(unit_eff, monkeypatch):
    tl = build_timeline([(0.0, 3.0), (1.0, 3.0)], T=2.0)
    storage = HybridStorage(sc_cap=5.0, b_cap=100.0, eta=0.5)
    eps = [0.5, 2.0]
    calls = []
    efficient_power = WaterSystem.efficient_power
    monkeypatch.setattr(
        WaterSystem, "efficient_power",
        lambda ws, e: calls.append(np.shape(e)) or efficient_power(ws, e),
    )
    res = run_online(unit_eff, None, tl, storage, p_peak=4.0, eps=eps)
    assert calls == [(2,)]  # p_o for every epoch from one call
    on = res.schedule.tau > 1e-12
    total_eps = res.schedule.eps_sc + res.schedule.eps_b
    np.testing.assert_allclose(total_eps[on], np.asarray(eps)[on])


def _reference_run(eff, tl, storage, p_peak, eps):
    """``run_online`` written out epoch by epoch: route each arrival,
    apply the policy, drain, then rate the schedule and take ``math.fsum``
    of every prefix of ``tau * rate`` for the trace."""
    store = storage.copy()
    ws = WaterSystem(eff)
    if eps is not None:
        eps = np.broadcast_to(np.asarray(eps, dtype=float), (tl.N,))
        p_o = solve_p_o(eff, None, eps)
    splits, decs = [], []
    for i in range(tl.N):
        splits.append(split_arrival(store, float(tl.E[i])))
        l = float(tl.l[i])
        if eps is None:
            dec = policy_ideal(store, p_peak, l, float(tl.T - tl.t[i]))
        else:
            dec = policy_circuit(store, float(p_o[i]), p_peak, float(eps[i]), l)
        store.drain(dec.d_sc, dec.d_b)
        decs.append(dec)
    cols = {name: np.array([getattr(d, name) for d in decs]) for name in decs[0]._fields}
    split = {name: np.array([getattr(s, name) for s in splits]) for name in splits[0]._fields}
    rate = ws.rate_at_power_vec(cols["power"])
    gains = [float(t) * float(r) for t, r in zip(cols["tau"], rate)]
    trace = [math.fsum(gains[:n]) for n in range(tl.N + 1)]
    return cols, split, rate, trace, ws.covariances(cols["power"])


def _random_timeline(key, n, e_max, scale=1.0):
    rng = np.random.Generator(np.random.Philox(key=key))
    times = np.concatenate(([0.0], np.sort(rng.uniform(0.0, n, n - 1))))
    amounts = scale * rng.uniform(0.0, e_max, n)
    return build_timeline(np.column_stack([times, amounts]), T=float(n)), rng


def _bitwise_case(name):
    """``(timeline, storage, p_peak, per-epoch eps)`` of one degenerate or
    boundary instance."""
    if name == "reference":
        return reference_profile(), HybridStorage(5.0, 100.0, 0.5), 4.0, np.ones(6)
    if name == "single-epoch":
        tl = build_timeline([(0.0, 3.0)], T=2.0)
        return tl, HybridStorage(1.0, 10.0, 0.5, level_b=0.5), 4.0, np.array([0.7])
    if name == "zero-energy":
        # Idle epochs of 0 J, a few arrivals, then 0 J after the buffers drain.
        amounts = [0.0] * 4 + [1.5, 0.2, 3.0] + [0.0] * 9
        tl = build_timeline([(float(i), e) for i, e in enumerate(amounts)], T=16.0)
        return tl, HybridStorage(2.0, 6.0, 0.6), 4.0, np.full(tl.N, 0.8)
    if name.startswith("boundary-levels"):
        # Both buffers start at -0.0, exactly full, or at the constructor's
        # limit cap + FEAS_TOL/2.  The first arrival is -0.0; under even
        # spreading the second overflows a store that did not start empty.
        amounts = [-0.0, 3.0, 0.0, 0.4, 7.0, 0.0, 1.2, 3.3, 0.0, 0.0, 5.0, 0.1]
        tl = build_timeline([(float(i), e) for i, e in enumerate(amounts)], T=12.0)
        over = {"-0.0": None, "full": 0.0, "limit": FEAS_TOL / 2}[name.split("=")[1]]
        levels = (-0.0, -0.0) if over is None else (2.0 + over, 6.0 + over)
        return tl, HybridStorage(2.0, 6.0, 0.6, *levels), 4.0, np.full(tl.N, 0.8)
    if name == "overflow":
        # Mean arrivals of 30 J into a 20 J battery: most epochs discard.
        tl, rng = _random_timeline(0x0F10, 40, 60.0)
        return tl, HybridStorage(2.0, 20.0, 0.5), 4.0, rng.uniform(0.2, 2.0, tl.N)
    scale = {"scale-1e-6": 1e-6, "scale-1e5": 1e5}.get(name, 1.0)
    tl, rng = _random_timeline(0x0B17, 60, 3.0, scale)
    eps = scale * rng.uniform(0.2, 2.0, tl.N)
    levels = (1.5, 4.0) if name == "initial-levels" else (0.0, 0.0)
    storage = HybridStorage(
        2.0 * scale, 6.0 * scale, 1.0 if name == "eta-1" else 0.6,
        *(scale * x for x in levels),
    )
    return tl, storage, 1e-3 if name == "tiny-peak" else 4.0 * scale, eps


def _burst_regimes(sched, p_o, p_peak):
    """The regimes of the burst window that a run's epochs took: ``idle``
    (no drainable energy), ``high`` (p_o at or above the peak), and, below
    the peak, ``scarce`` (burst at p_o), ``peak`` and ``middle`` (the whole
    epoch at the power that drains the buffers)."""
    idle = (sched.tau == 0.0) & (sched.power == 0.0)
    low = ~idle & (p_o < p_peak)
    scarce = low & (sched.power == p_o)
    peak = low & (sched.power == p_peak)
    masks = {
        "idle": idle, "high": ~idle & ~low, "scarce": scarce, "peak": peak,
        "middle": low & ~scarce & ~peak,
    }
    return {name for name, mask in masks.items() if mask.any()}


#: The burst-window regimes each instance reaches, with per-epoch and with
#: scalar eps; together they cover every regime.
_CASE_REGIMES = {
    "reference": {"scarce", "peak"},
    "per-epoch-eps": {"scarce", "peak", "middle"},
    "initial-levels": {"scarce", "peak", "middle"},
    "overflow": {"peak", "middle"},
    "eta-1": {"scarce", "peak", "middle"},
    "scale-1e-6": {"high"},
    "scale-1e5": {"scarce", "peak", "middle"},
    "tiny-peak": {"high"},
    "single-epoch": {"scarce"},
    "zero-energy": {"idle", "scarce"},
    **{
        f"boundary-levels={start}": {"idle", "scarce", "middle", "peak"}
        for start in ("-0.0", "full", "limit")
    },
}


@pytest.mark.parametrize("case", list(_CASE_REGIMES))
@pytest.mark.parametrize("policy", ["even", "burst", "burst-scalar-eps"])
def test_run_online_equals_the_epoch_by_epoch_loop_bitwise(pair_eff, policy, case):
    """Even spreading, the burst rule with per-epoch eps, and the burst
    rule with one scalar eps, on degenerate and boundary instances."""
    tl, storage, p_peak, eps = _bitwise_case(case)
    eps = {"even": None, "burst-scalar-eps": float(eps[0])}.get(policy, eps)
    levels = (storage.level_sc, storage.level_b)
    res = run_online(pair_eff, None, tl, storage, p_peak, eps=eps)
    assert (storage.level_sc, storage.level_b) == levels
    cols, split, rate, trace, covs = _reference_run(pair_eff, tl, storage, p_peak, eps)
    sched = res.schedule
    for name in ("tau", "power", "p_sc", "p_b", "eps_sc", "eps_b"):
        assert np.array_equal(getattr(sched, name), cols[name]), name
    assert np.array_equal(sched.split.sc, split["sc"])
    assert np.array_equal(sched.split.b, split["b"])
    assert np.array_equal(res.discarded, split["discarded"])
    assert np.array_equal(sched.rate, rate)
    for got, want in zip(sched.covs.Phi, covs.Phi):
        assert np.array_equal(got, want)
    assert [x.hex() for x in res.trace[:, 1].tolist()] == [x.hex() for x in trace]
    assert res.trace[:, 0].tolist() == [0.0, *(tl.t + tl.l).tolist()]
    assert res.throughput == sched.objective == trace[-1] == res.trace[-1, 1]
    # Each instance reaches the branch it is there for.
    if case == "overflow" and policy == "even":
        assert np.count_nonzero(res.discarded) > tl.N // 2
    if case == "per-epoch-eps":
        if policy == "even":
            assert res.discarded.sum() > 0.0
        else:
            assert np.any(sched.tau < tl.l)
    if case == "tiny-peak":
        assert np.any(sched.power == p_peak)
    if case == "zero-energy":
        # Epochs that consume nothing, under either policy.
        assert np.any(sched.tau * (sched.power + (sched.eps_sc + sched.eps_b)) == 0.0)
    if case == "boundary-levels=-0.0":
        assert sched.power[0] == 0.0
    elif case.startswith("boundary-levels") and policy == "even":
        assert res.discarded[1] > 0.0
    if eps is not None:
        p_o = solve_p_o(pair_eff, None, np.broadcast_to(np.asarray(eps, dtype=float), (tl.N,)))
        assert _burst_regimes(sched, p_o, p_peak) >= _CASE_REGIMES[case]


@pytest.mark.parametrize(
    "bad",
    ["negative-arrival", "nan-arrival", "inf-arrival", "sc-over-capacity", "battery-over-capacity"],
)
@pytest.mark.parametrize("policy", ["even", "burst"])
def test_run_online_guards_raise_like_the_epoch_rules(pair_eff, policy, bad):
    """The loop's guards raise where split_arrival and the storage rules
    raise, with their messages: a timeline array changed after
    validation, and levels set above their buffer's capacity after
    construction (the constructor rejects them)."""
    tl = reference_profile()
    storage = HybridStorage(5.0, 100.0, 0.5)
    eps = None if policy == "even" else np.ones(tl.N)
    if bad.endswith("arrival"):
        tl.E[2] = {"negative": -1.0, "nan": math.nan, "inf": math.inf}[bad.split("-")[0]]
        with pytest.raises(ValueError) as want:
            _reference_run(pair_eff, tl, storage, 4.0, eps)
    else:
        if bad == "sc-over-capacity":
            storage.level_sc = 6.0
        else:
            storage.level_b = 101.0
        with pytest.raises(ValueError) as want:
            split_arrival(storage, float(tl.E[0]))
    with pytest.raises(ValueError) as got:
        run_online(pair_eff, None, tl, storage, 4.0, eps=eps)
    assert str(got.value) == str(want.value)
    assert "arrival" in str(got.value) or "deposit exceeds" in str(got.value)


@pytest.mark.parametrize("level", [-1.0, -10.0, -5e-324, math.nan, math.inf])
@pytest.mark.parametrize("buffer", ["level_sc", "level_b"])
@pytest.mark.parametrize("policy", ["even", "burst"])
def test_run_online_rejects_levels_set_invalid_after_construction(
    pair_eff, monkeypatch, policy, buffer, level
):
    """A level set negative or non-finite after construction is refused
    with the constructor's message before any epoch runs.  (Once -1 J
    returned a schedule, -10 J raised at a drain and NaN at a drain's sign
    check.)"""
    with pytest.raises(ValueError) as want:
        HybridStorage(5.0, 100.0, 0.5, **{buffer: level})
    storage = HybridStorage(5.0, 100.0, 0.5)
    setattr(storage, buffer, level)

    def epoch_loop(*args):
        raise AssertionError("an epoch ran")

    monkeypatch.setattr(online, "_spread_evenly", epoch_loop)
    monkeypatch.setattr(online, "_burst", epoch_loop)
    tl = reference_profile()
    eps = None if policy == "even" else np.ones(tl.N)
    with pytest.raises(ValueError) as got:
        run_online(pair_eff, None, tl, storage, 4.0, eps=eps)
    assert str(got.value) == str(want.value) == "storage levels must be nonnegative and finite"


_finite = st.one_of(
    st.just(0.0),
    st.just(5e-324),
    st.floats(0.0, 1e-300),
    st.floats(1e-300, 1e300),
    st.integers(-300, 300).map(lambda k: 10.0**k),
)


@given(
    terms=st.one_of(
        st.lists(st.tuples(st.sampled_from((1.0, -1.0)), _finite).map(math.prod), max_size=60),
        st.lists(st.just(0.0), min_size=1, max_size=5),
    )
)
@example(terms=[5e-324])
@example(terms=[-1e300])
# Float conversion scaled by 2**base, to normal and to subnormal results;
# then the int division fallback, where a prefix in units of 2**base would
# overflow a float (1.0 in units of 5e-324 is 2**1074).
@example(terms=[0.3, 1.7, 2.2])
@example(terms=[1e-310, 5e-324, -3e-320])
@example(terms=[5e-324, 1.0])
@example(terms=[1e300, 1e-10])
# Two int64 limbs while g.size.bit_length() + 13 + spread <= 53, with the
# spread in binades between the largest term's exponent and 2**base: three
# terms at spread 38, the bound, then 39, one past it; 10^4 terms (14 bits)
# at spread 26; signed zeros and subnormals in limbs scaled by 2**-1126.
@example(terms=[2.0**39 - 2.0**-14, -1.0, 2.0**39 - 2.0**-14])
@example(terms=[2.0**40 - 2.0**-13, -1.0, 2.0**40 - 2.0**-13])
@example(terms=[
    (-1.0) ** (i // 3) * math.ldexp(2.0 - (i % 7 + 1) * 2.0**-52, 26 * (i % 2))
    for i in range(10_000)
])
@example(terms=[5e-324, -0.0, 0.0, -1e-323, 2.5e-322, -5e-324, -0.0])
@settings(max_examples=300, deadline=None)
def test_running_sum_equals_fsum_of_every_prefix(terms):
    """The exact prefix sums equal math.fsum of every prefix bit for bit,
    for terms of either sign from subnormals to 1e300, all-zero lists and
    a single term."""
    got = _exact_prefix_sums(np.array(terms, dtype=float))
    want = [math.fsum(terms[:n]) for n in range(1, len(terms) + 1)]
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]


def test_online_never_beats_offline(unit_eff):
    rng = np.random.Generator(np.random.Philox(key=64128))
    for circuit in (False, True):
        done = 0
        while done < 4:
            _eff, tl, storage, p_peak, eps = draw_problem(rng, circuit=circuit)
            big = HybridStorage(sc_cap=storage.sc_cap, b_cap=200.0, eta=storage.eta)
            if circuit:
                off = solve_offline_circuit(unit_eff, None, tl, big, p_peak, eps)
                on = run_online(unit_eff, None, tl, big, p_peak, eps=eps)
            else:
                off = solve_offline_ideal(unit_eff, None, tl, big, p_peak)
                on = run_online(unit_eff, None, tl, big, p_peak)
            assert on.throughput <= off.objective + 1e-6 * max(1.0, off.objective)
            done += 1
