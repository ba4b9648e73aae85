"""Timelines, the hybrid store, and the schedule feasibility checker."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehsched import (
    ArrivalSplit,
    EpochTimeline,
    FeasibilityReport,
    HybridStorage,
    build_timeline,
    check_feasibility,
    generate_compound_poisson,
)
from ehsched.energy import FEAS_TOL

from conftest import NoDraws


# ---------------------------------------------------------------------------
# Timelines
# ---------------------------------------------------------------------------


def test_build_timeline_epoch_lengths():
    tl = build_timeline([(0.0, 5.0), (2.0, 1.0), (4.5, 0.0)], T=10.0)
    assert tl.N == 3
    np.testing.assert_allclose(tl.l, [2.0, 2.5, 5.5])
    assert tl.total_energy() == pytest.approx(6.0)


@pytest.mark.parametrize(
    "arrivals,T",
    [
        ([(1.0, 1.0)], 2.0),              # first arrival not at t=0
        ([(0.0, 1.0), (0.0, 1.0)], 2.0),  # duplicate instant
        ([(0.0, 1.0), (2.0, 1.0)], 2.0),  # arrival at the deadline
        ([(0.0, -1.0)], 2.0),             # negative amount
        ([(0.0, 1.0)], 0.0),              # empty horizon
        ([], 2.0),                        # no arrivals at all
        (np.empty((0, 2)), 2.0),          # no arrivals, as a (0, 2) array
    ],
)
def test_build_timeline_rejects(arrivals, T):
    with pytest.raises(ValueError):
        build_timeline(arrivals, T=T)


@pytest.mark.parametrize(
    "t,T",
    [
        ([0.0, math.nan, 2.0], 3.0),
        ([math.nan, 1.0], 2.0),
        ([0.0, 1.0], math.inf),
        ([0.0, math.inf], math.inf),
        ([0.0, 1.0], math.nan),
    ],
)
def test_timeline_rejects_non_finite_times(t, T):
    with pytest.raises(ValueError, match="arrival times and the deadline must be finite"):
        EpochTimeline(t=np.array(t), E=np.ones(len(t)), T=T)


def test_compound_poisson_reproducible():
    a = generate_compound_poisson(1.0, 1.0, 10.0, 5.0, seed=11)
    b = generate_compound_poisson(1.0, 1.0, 10.0, 5.0, seed=11)
    np.testing.assert_array_equal(a.t, b.t)
    np.testing.assert_array_equal(a.E, b.E)
    assert a.t[0] == 0.0 and a.E[0] == 5.0
    assert np.all(a.t < 10.0)


def test_compound_poisson_moments():
    # rate*T = 10 expected post-initial arrivals; amounts average e_avg.
    counts, means = [], []
    for seed in range(400):
        tl = generate_compound_poisson(1.0, 1.0, 10.0, 0.0, seed=seed)
        counts.append(tl.N - 1)
        if tl.N > 1:
            means.append(float(np.mean(tl.E[1:])))
    assert np.mean(counts) == pytest.approx(10.0, rel=0.03)
    assert np.mean(means) == pytest.approx(1.0, rel=0.05)


def test_compound_poisson_validation():
    with pytest.raises(ValueError):
        generate_compound_poisson(0.0, 1.0, 10.0, 0.0, seed=1)
    with pytest.raises(ValueError):
        generate_compound_poisson(1.0, 1.0, 10.0, 0.0)  # no seed or rng


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("param", ["rate", "e_avg", "T", "initial"])
def test_compound_poisson_rejects_non_finite_parameters(param, value):
    """An infinite rate or deadline never ends the draw, a NaN rate gives a
    one-epoch timeline and a non-finite mean energy overflows the uniform
    draw: each is refused before anything is drawn."""
    kw = dict(rate=1.0, e_avg=1.0, T=10.0, initial=0.0)
    kw[param] = value
    with pytest.raises(ValueError):
        generate_compound_poisson(**kw, rng=NoDraws())


# ---------------------------------------------------------------------------
# Hybrid storage
# ---------------------------------------------------------------------------


def test_storage_deposit_records_battery_in_drainable_units():
    st_ = HybridStorage(sc_cap=2.0, b_cap=10.0, eta=0.5)
    st_.deposit(1.5, 4.0)
    assert st_.level_sc == pytest.approx(1.5)
    assert st_.level_b == pytest.approx(2.0)  # 0.5 * 4
    assert st_.drainable == pytest.approx(3.5)
    head_sc, head_b = st_.headroom_raw()
    assert head_sc == pytest.approx(0.5)
    assert head_b == pytest.approx(16.0)  # (10 - 2) / 0.5 raw joules


def test_storage_drain_and_copy_independence():
    st_ = HybridStorage(sc_cap=2.0, b_cap=10.0, eta=0.5, level_sc=1.0, level_b=3.0)
    twin = st_.copy()
    st_.drain(0.75, 2.0)
    assert st_.level_sc == pytest.approx(0.25)
    assert st_.level_b == pytest.approx(1.0)
    assert twin.level_sc == 1.0 and twin.level_b == 3.0


def test_storage_guards():
    with pytest.raises(ValueError, match="efficiency"):
        HybridStorage(sc_cap=1.0, b_cap=2.0, eta=0.0)
    with pytest.raises(ValueError, match="small buffer"):
        HybridStorage(sc_cap=2.0, b_cap=2.0, eta=0.5)
    with pytest.raises(ValueError, match="positive"):
        HybridStorage(sc_cap=0.0, b_cap=2.0, eta=0.5)
    # An infinite capacity made the offline solve stop at once with objective
    # 0, and a NaN one failed later with a misleading message.
    for bad in (math.inf, math.nan):
        for sc_cap, b_cap in ((bad, 2.0), (1.0, bad)):
            with pytest.raises(ValueError, match="storage capacities must be positive and finite"):
                HybridStorage(sc_cap=sc_cap, b_cap=b_cap, eta=0.5)
    st_ = HybridStorage(sc_cap=1.0, b_cap=2.0, eta=0.5)
    with pytest.raises(ValueError, match="headroom"):
        st_.deposit(1.5, 0.0)
    with pytest.raises(ValueError, match="headroom"):
        st_.deposit(0.0, 4.5)
    with pytest.raises(ValueError, match="stored energy"):
        st_.drain(0.5, 0.0)
    with pytest.raises(ValueError, match="non-negative"):
        st_.deposit(-0.1, 0.0)
    # NaN fails every sign test instead of poisoning or emptying a level.
    for e_sc, e_b in ((math.nan, 0.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="deposits must be non-negative"):
            st_.deposit(e_sc, e_b)
        with pytest.raises(ValueError, match="drains must be non-negative"):
            st_.drain(e_sc, e_b)
    assert (st_.level_sc, st_.level_b) == (0.0, 0.0)
    for level in (math.nan, math.inf, -math.inf, -0.5):
        for field in ("level_sc", "level_b"):
            with pytest.raises(ValueError, match="levels must be nonnegative and finite"):
                HybridStorage(sc_cap=1.0, b_cap=2.0, eta=0.5, **{field: level})
    for field, cap in (("level_sc", 1.0), ("level_b", 2.0)):
        with pytest.raises(ValueError, match="levels must not exceed their capacities"):
            HybridStorage(sc_cap=1.0, b_cap=2.0, eta=0.5, **{field: cap + 2 * FEAS_TOL})
    full = HybridStorage(sc_cap=1.0, b_cap=2.0, eta=0.5, level_sc=1.0, level_b=2.0)
    assert (full.copy().level_sc, full.copy().level_b) == (1.0, 2.0)


@given(
    ops=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=30
    )
)
@settings(max_examples=100, deadline=None)
def test_storage_levels_stay_bounded(ops):
    """Alternating clipped deposits and drains can never leave either
    level outside [0, cap]."""
    st_ = HybridStorage(sc_cap=1.0, b_cap=3.0, eta=0.7)
    for dep_frac, drain_frac in ops:
        head_sc, head_b = st_.headroom_raw()
        st_.deposit(dep_frac * head_sc, dep_frac * head_b)
        st_.drain(drain_frac * st_.level_sc, drain_frac * st_.level_b)
        assert -FEAS_TOL <= st_.level_sc <= st_.sc_cap + FEAS_TOL
        assert -FEAS_TOL <= st_.level_b <= st_.b_cap + FEAS_TOL


def test_arrival_split_validation():
    with pytest.raises(ValueError):
        ArrivalSplit(sc=np.zeros(2), b=np.zeros(3))
    s = ArrivalSplit(sc=[1.0, 0.0], b=[0.0, 2.0])
    assert s.sc.dtype == float
    tl = build_timeline([(0.0, 1.0)], T=1.0)
    with pytest.raises(ValueError, match="one split per arrival is required"):
        check_feasibility(tl, s, _Plan([1.0], [0.0], [0.0]), HybridStorage(2.0, 10.0, 0.5), 4.0)


# ---------------------------------------------------------------------------
# Feasibility checker
# ---------------------------------------------------------------------------


class _Plan:
    """Minimal schedule stand-in for the checker."""

    def __init__(self, tau, p_sc, p_b, eps_sc=None, eps_b=None):
        n = len(tau)
        self.tau = np.asarray(tau, float)
        self.p_sc = np.asarray(p_sc, float)
        self.p_b = np.asarray(p_b, float)
        self.eps_sc = np.zeros(n) if eps_sc is None else np.asarray(eps_sc, float)
        self.eps_b = np.zeros(n) if eps_b is None else np.asarray(eps_b, float)


def test_check_feasibility_accepts_a_valid_plan():
    tl = build_timeline([(0.0, 2.0), (1.0, 1.0)], T=2.0)
    storage = HybridStorage(sc_cap=2.0, b_cap=10.0, eta=0.5)
    split = ArrivalSplit(sc=[2.0, 1.0], b=[0.0, 0.0])
    plan = _Plan(tau=[1.0, 1.0], p_sc=[1.5, 1.0], p_b=[0.0, 0.0])
    rep = check_feasibility(tl, split, plan, storage, p_peak=4.0)
    assert rep.feasible
    assert rep.min_slack >= 0.0
    assert "sc_causality" in rep.worst()


def test_check_feasibility_flags_causality_violation():
    tl = build_timeline([(0.0, 1.0), (1.0, 5.0)], T=2.0)
    storage = HybridStorage(sc_cap=5.0, b_cap=10.0, eta=0.5)
    split = ArrivalSplit(sc=[1.0, 5.0], b=[0.0, 0.0])
    # Epoch 0 spends energy that only arrives at t=1.
    plan = _Plan(tau=[1.0, 1.0], p_sc=[3.0, 1.0], p_b=[0.0, 0.0])
    rep = check_feasibility(tl, split, plan, storage, p_peak=4.0)
    assert not rep.feasible
    assert rep.slacks["sc_causality"][0] == pytest.approx(-2.0)


def test_check_feasibility_split_is_one_sided():
    """Routing less than the arrival (a discard) is fine; routing more is
    not."""
    tl = build_timeline([(0.0, 3.0)], T=1.0)
    storage = HybridStorage(sc_cap=2.0, b_cap=10.0, eta=0.5)
    idle = _Plan(tau=[0.0], p_sc=[0.0], p_b=[0.0])
    under = check_feasibility(
        tl, ArrivalSplit(sc=[2.0], b=[0.5]), idle, storage, p_peak=4.0
    )
    assert under.feasible
    over = check_feasibility(
        tl, ArrivalSplit(sc=[2.0], b=[1.5]), idle, storage, p_peak=4.0
    )
    assert not over.feasible
    assert over.slacks["arrival_split"][0] == pytest.approx(-0.5)


def test_feasibility_report_holds_slacks_only():
    """Every constraint, the offline split's two sides included, is a
    signed slack: the report has no second table."""
    assert [f.name for f in fields(FeasibilityReport)] == ["slacks"]
    rep = FeasibilityReport({"a": np.array([1.0, -2e-8]), "b": np.array([])})
    assert rep.min_slack == -2e-8 and not rep.feasible
    assert rep.worst() == "a: min slack -2.000e-08"


@pytest.mark.parametrize("rows", [1, 2])
def test_check_feasibility_rejects_a_schedule_of_the_wrong_length(rows):
    """A schedule with fewer rows than epochs neither broadcasts into a
    passing audit (one row) nor fails inside numpy (two rows)."""
    tl = build_timeline([(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)], T=3.0)
    split = ArrivalSplit(sc=[1.0, 1.0, 1.0], b=[0.0, 0.0, 0.0])
    plan = _Plan(tau=[1.0] * rows, p_sc=[1.0] * rows, p_b=[0.0] * rows)
    with pytest.raises(ValueError, match="one schedule entry per epoch is required"):
        check_feasibility(tl, split, plan, HybridStorage(5.0, 10.0, 0.5), p_peak=4.0)


def test_check_feasibility_flags_peak_and_overflow():
    tl = build_timeline([(0.0, 4.0)], T=1.0)
    storage = HybridStorage(sc_cap=2.0, b_cap=10.0, eta=0.5)
    split = ArrivalSplit(sc=[3.0], b=[1.0])  # 3 J into a 2 J buffer
    plan = _Plan(tau=[1.0], p_sc=[5.0], p_b=[0.0])
    rep = check_feasibility(tl, split, plan, storage, p_peak=4.0)
    assert rep.slacks["sc_overflow"][0] == pytest.approx(-1.0)
    assert rep.slacks["peak_power"][0] == pytest.approx(-1.0)
    assert not rep.feasible
