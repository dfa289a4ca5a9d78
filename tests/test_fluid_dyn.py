import itertools
import math
from array import array
import time
import tracemalloc
from collections.abc import Sequence
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmsr import fluid_dyn
from gmsr.cli import load_scenario
from gmsr.diagnostics import capacity_slack, certify_trajectory
from gmsr.flownet import TransportNetwork
from gmsr.fluid_dyn import (
    IntegrationError,
    IntegratorConfig,
    KernelStats,
    gmsr_routing_set,
    integrate_fluid,
    modes_agree,
    sliding_drift,
)
from gmsr.fluid_opt import solve_fluid_optimum
from gmsr.model import hill, make_system, saturating_exponential, validate_routing
from gmsr.tiers import compute_tiers, tie_masks

from support import (
    WIDE_TASKS,
    acceptance_system,
    dynamics_digest,
    feasible_random_system,
    fig1_system,
    random_system,
    square_feasible_system,
    trajectory_digest,
    wide_task,
)

SQRT2 = math.sqrt(2.0)


def _n_model_04_06():
    return make_system(
        frontends=[("f1", 0.4), ("f2", 0.6)],
        backends=[("b1", hill(1.0, 1.0)), ("b2", hill(1.0, 2.0))],
        edges=[("f1", "b1"), ("f2", "b1"), ("f2", "b2")],
    )


def _single_pair(lam=0.5):
    return make_system([("f1", lam)], [("b1", hill(1, 1))], [("f1", "b1")])


def _symmetric_pairbones():
    return make_system(
        [("f1", 0.5)],
        [("b1", hill(1, 1)), ("b2", hill(1, 1))],
        [("f1", "b1"), ("f1", "b2")],
    )


# -- gmsr_routing_set -------------------------------------------------------------


def test_routing_set_at_origin():
    sets = gmsr_routing_set(_n_model_04_06(), [0.0, 0.0], 1e-3)
    assert sets == {"f1": frozenset({"b1"}), "f2": frozenset({"b1"})}


def test_routing_set_at_optimum_ties():
    sets = gmsr_routing_set(_n_model_04_06(), [SQRT2, SQRT2], 1e-9)
    assert sets["f1"] == frozenset({"b1"})
    assert sets["f2"] == frozenset({"b1", "b2"})


def test_routing_set_single_edge_frontend():
    sets = gmsr_routing_set(_single_pair(), [7.3], 1e-6)
    assert sets == {"f1": frozenset({"b1"})}


@pytest.mark.parametrize("band", [-1.0, 0.0, math.nan, math.inf])
def test_one_state_entry_points_refuse_a_band_that_is_not_positive_and_finite(band):
    for fn in (gmsr_routing_set, sliding_drift):
        with pytest.raises(ValueError, match="tie band must be positive and finite"):
            fn(_n_model_04_06(), [0.0, 0.0], band)


@pytest.mark.parametrize("n", [[math.nan, 0.0], [math.inf, 0.0], [-1.0, 0.0], [0.0]])
def test_one_state_entry_points_refuse_a_bad_workload_vector(n):
    sys = _n_model_04_06()
    with pytest.raises(ValueError, match="workload vector"):
        gmsr_routing_set(sys, n, 1e-3)
    with pytest.raises(ValueError, match="workload vector"):
        sliding_drift(sys, n, 1e-3)
    with pytest.raises(ValueError, match="workload vector"):
        integrate_fluid(sys, n, 1.0)


# -- sliding_drift ----------------------------------------------------------------


def test_sliding_drift_single_backend_tier_absorbs_imbalance():
    sys = _single_pair(0.5)
    n = np.array([0.3 / 0.7])  # rate 0.3, so S = 0.2
    v, x, tiers = sliding_drift(sys, n, 1e-3)
    assert v[0] == pytest.approx(0.2, abs=1e-12)
    assert x[0, 0] == 1.0
    assert [(t.frontends, t.backends) for t in tiers] == [(("f1",), ("b1",))]


def test_sliding_drift_zero_at_optimum():
    sys = _n_model_04_06()
    n = np.array([SQRT2, SQRT2])
    v, x, tiers = sliding_drift(sys, n, 1e-6)
    assert len(tiers) == 1  # equal gradients merge everything
    assert np.max(np.abs(v)) <= 1e-12
    assert np.asarray(sys.lambdas) @ x == pytest.approx(sys.rates_at(n), abs=1e-9)


def test_sliding_drift_symmetric_even_split():
    sys = _symmetric_pairbones()
    v, x, tiers = sliding_drift(sys, np.zeros(2), 1e-9)
    assert v == pytest.approx([0.25, 0.25], abs=1e-12)
    assert x[0] == pytest.approx([0.5, 0.5], abs=1e-9)
    assert len(tiers) == 1


def test_sliding_drift_splits_an_infeasible_tier():
    # both gradients tie at N=0, but f1 can only reach b1 while the equalized
    # drift would hand half of the total inflow to b2: no routing realizes
    # it, so the min cut splits the tier and each piece takes its own drift
    sys = make_system(
        frontends=[("f1", 0.9), ("f2", 0.1)],
        backends=[("b1", hill(3, 1)), ("b2", hill(3, 1))],
        edges=[("f1", "b1"), ("f2", "b1"), ("f2", "b2")],
    )
    assert len(compute_tiers(sys, sys.gradients_at(np.zeros(2)), 1e-9)) == 1
    v, x, tiers = sliding_drift(sys, np.zeros(2), 1e-9)
    assert [(t.frontends, t.backends) for t in tiers] == [(("f1",), ("b1",)), (("f2",), ("b2",))]
    assert v == pytest.approx([0.9, 0.1], abs=1e-12)
    assert x.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    # the integrator's first event is that split, with the same tiers
    traj = integrate_fluid(sys, np.zeros(2), 1e-3, IntegratorConfig(tie_band=1e-9))
    assert traj.events[0].time == 0.0 and traj.events[0].kind == "split"
    assert traj.events[0].tiers == tiers


def test_sliding_drift_tier_drifts_share_sign():
    rng = np.random.default_rng(1234)
    for _ in range(40):
        sys = random_system(rng)
        n = rng.uniform(0.0, 5.0, size=len(sys.backends))
        v, _, tiers = sliding_drift(sys, n, 1e-3)
        for tier in tiers:
            vals = [v[sys.backend_index[b]] for b in tier.backends]
            assert min(vals) >= -1e-12 or max(vals) <= 1e-12


# -- integrate_fluid ---------------------------------------------------------------


def test_integrate_single_pair_reaches_balance():
    traj = integrate_fluid(_single_pair(0.5), [0.0], 50.0)
    assert traj.states[-1, 0] == pytest.approx(1.0, abs=1e-3)


def test_integrate_matches_dense_reference():
    # independent dense Euler reference for dN/dt = 0.5 - N/(N+1)
    n_ref = 0.0
    h_ref = 1e-5
    for _ in range(int(2.0 / h_ref)):
        n_ref += h_ref * (0.5 - n_ref / (n_ref + 1.0))
    traj = integrate_fluid(_single_pair(0.5), [0.0], 2.0)
    assert traj.states[-1, 0] == pytest.approx(n_ref, abs=2e-3)


def test_integrate_fixed_point_is_exact():
    sys = _n_model_04_06()
    opt = solve_fluid_optimum(sys)
    traj = integrate_fluid(sys, opt.n_star, 10.0)
    assert np.max(np.abs(traj.states - opt.n_star)) <= 1e-6


def test_integrate_n_model_converges_in_both_modes():
    sys = _n_model_04_06()
    for mode in ("sliding", "strict-argmax"):
        traj = integrate_fluid(sys, [0.0, 0.0], 50.0, IntegratorConfig(mode=mode))
        assert np.max(np.abs(traj.states[-1] - SQRT2)) <= 1e-2


def test_integrate_records_slide_event_on_merge():
    traj = integrate_fluid(_n_model_04_06(), [0.0, 0.0], 5.0)
    kinds = [e.kind for e in traj.events]
    assert "slide" in kinds
    assert set(kinds) <= {"slide", "split", "reconfigure"}
    merge = next(e for e in traj.events if e.kind == "slide")
    assert 0.0 < merge.time < 2.0
    assert len(merge.tiers) == 1  # everything on one equal-gradient surface


def test_trajectory_recording_invariants():
    sys = _n_model_04_06()
    traj = integrate_fluid(sys, [0.0, 0.0], 2.0)
    assert len(traj) == 2001
    assert np.all(np.diff(traj.times) > 0)
    assert np.allclose(np.diff(traj.times), 1e-3)
    assert np.all(traj.states >= 0)
    lam = np.asarray(sys.lambdas)
    for k in range(0, 2001, 250):
        assert validate_routing(sys, traj.routings[k]) == []
        assert traj.inflows[k] == pytest.approx(lam @ traj.routings[k], abs=1e-12)


def test_boundary_clamp_records_event_and_keeps_state_nonnegative():
    sys = make_system([("f1", 1e-6)], [("b1", hill(2000.0, 1.0))], [("f1", "b1")])
    traj = integrate_fluid(sys, [0.5], 1.0)
    assert traj.boundary_events  # the very first step undershoots zero
    assert traj.boundary_events[0][1] == "b1"
    assert np.all(traj.states >= 0)


def test_integrate_is_deterministic():
    sys = _n_model_04_06()
    a = integrate_fluid(sys, [3.0, 0.5], 5.0)
    b = integrate_fluid(sys, [3.0, 0.5], 5.0)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.routings, b.routings)
    assert a.events == b.events


def _fixed_from(states: np.ndarray) -> int:
    """First row from which every later row repeats it bit for bit."""
    bits = states.view(np.int64)
    moved = np.nonzero(np.any(bits[1:] != bits[:-1], axis=1))[0]
    return int(moved[-1]) + 1 if len(moved) else 0


@pytest.mark.parametrize("mode, digest", [
    ("sliding", "fd5bedeaef51172824940770ac19a4496b59a28a08c7649e836879bcddbda5b9"),
    ("strict-argmax", "93c7d062cd3a06306b775664f769ab046b3dd9d6370270587d28d884864f6c79"),
], ids=["sliding", "strict-argmax"])
def test_rows_after_a_bitwise_fixed_point_are_what_stepping_gives(mode, digest):
    sys = fig1_system()
    cfg = IntegratorConfig(mode=mode)
    traj = integrate_fluid(sys, np.zeros(5), 20.0, cfg)
    # recorded from the integrator that recomputed every step up to the
    # fixed point (repr(stats) in the current KernelStats fields); fig1's
    # Hill curves use only correctly rounded arithmetic, so the digest does
    # not depend on the platform's libm
    assert trajectory_digest(traj) == digest
    last = len(traj) - 1
    fixed = _fixed_from(traj.states)
    assert 0 < fixed < last - 1000  # the run settles well before its end
    assert np.array_equal(traj.times, np.arange(last + 1) * cfg.h)
    if mode == "strict-argmax":
        # every row is one Euler step of v = w − μ(N) from the row before;
        # fig1's Hill curves evaluate bit for bit as in the kernel
        drift = traj.inflows[:-1] - sys.rates_at(traj.states[:-1])
        assert np.array_equal(traj.states[1:], traj.states[:-1] + cfg.h * drift)
    for k in (fixed - 1, fixed, (fixed + last) // 2, last):
        one = integrate_fluid(sys, traj.states[k], cfg.h, cfg)
        assert np.array_equal(one.states[0], traj.states[k])
        assert np.array_equal(one.inflows[0], traj.inflows[k])
        assert np.array_equal(one.routings[0], traj.routings[k])
        assert np.array_equal(one.states[1], traj.states[min(k + 1, last)])
    # a run that ends before the fixed point is a prefix of the longer one
    short = integrate_fluid(sys, np.zeros(5), (fixed - 100) * cfg.h, cfg)
    rows = len(short)
    assert rows == fixed - 99
    for name in ("times", "states", "inflows", "routings"):
        assert np.array_equal(getattr(short, name), getattr(traj, name)[:rows])
    assert short.events == tuple(e for e in traj.events if e.time <= short.times[-1])
    assert short.boundary_events == tuple(
        b for b in traj.boundary_events if b[0] <= short.times[-1]
    )


def test_signed_zero_start_is_not_a_fixed_point():
    # b1 sits exactly at balance (rate 1·1/(1+1) = λ) and b2 gets no inflow,
    # so the first update changes no value, but it turns b2's -0.0 into 0.0
    sys = make_system(
        [("f1", 0.5)],
        [("b1", hill(1.0, 1.0)), ("b2", hill(0.1, 1.0))],
        [("f1", "b1"), ("f1", "b2")],
    )
    for mode in ("sliding", "strict-argmax"):
        traj = integrate_fluid(sys, [1.0, -0.0], 1.0, IntegratorConfig(mode=mode))
        assert np.all(traj.states[:, 0] == 1.0)
        assert np.signbit(traj.states[0, 1])
        assert not np.any(np.signbit(traj.states[1:, 1]))


def _orbit(states: np.ndarray, max_period: int = 1000) -> tuple[int, int] | None:
    """(P, c): the least period P of the run's tail, and the first row c with
    states[k + P] == states[k] bit for bit for every k >= c; None when the
    last two rows repeat no earlier pair at most max_period rows back."""
    bits = np.ascontiguousarray(states).view(np.int64)
    last = len(bits) - 1
    for p in range(1, min(max_period, last - 1) + 1):
        if np.array_equal(bits[last - 1:], bits[last - 1 - p:last + 1 - p]):
            same = np.all(bits[p:] == bits[:-p], axis=1)
            differ = np.nonzero(~same)[0]
            return p, int(differ[-1]) + 1 if len(differ) else 0
    return None


def _repeat_row(period: int, start: int) -> int:
    """The first row the integrator copies rather than computes, for an orbit
    entered at `start` that no checkpoint mark between powers of two finds
    (blocks run across the marks, say): the row after a fixed point, or one
    period after the first power-of-two row at or past both the start and
    the period.  The integrator steps each power-of-two row itself and takes
    it as its checkpoint, so copying starts there at the latest."""
    if period == 1:
        return start + 1
    return (1 << (max(start, period) - 1).bit_length()) + period


def _assert_rows_match_one_step_runs(sys, traj, cfg, rows):
    """Check row k, and the step out of it, against a fresh run of one step
    from states[k]: its first row gives inflows and routings, its second the
    next state, and it records the event (at h) and the clamps (at 0·h + h)
    that the long run records at (k+1)·h and k·h + h."""
    h = cfg.h
    last = len(traj) - 1
    events: dict[float, list] = {}
    for ev in traj.events:
        events.setdefault(ev.time, []).append((ev.kind, ev.tiers))
    clamps: dict[float, list] = {}
    for t, b in traj.boundary_events:
        clamps.setdefault(t, []).append(b)
    for k in sorted(set(rows)):
        one = integrate_fluid(sys, traj.states[k], h, cfg)
        assert one.states[0].tobytes() == traj.states[k].tobytes()
        assert one.inflows[0].tobytes() == traj.inflows[k].tobytes(), k
        assert one.routings[0].tobytes() == traj.routings[k].tobytes(), k
        if k == last:
            continue
        assert one.states[1].tobytes() == traj.states[k + 1].tobytes(), k
        assert [(ev.kind, ev.tiers) for ev in one.events if ev.time == h] == events.get(
            (k + 1) * h, []), k
        assert [b for _, b in one.boundary_events] == clamps.get(k * h + h, []), k


def test_exact_orbit_is_continued_as_stepping_would():
    # acceptance system 0 under strict argmax enters an exact period-253 orbit
    sys, n0 = acceptance_system(0)
    cfg = IntegratorConfig(mode="strict-argmax")
    traj = integrate_fluid(sys, n0, 200.0, cfg)
    last = len(traj) - 1
    period, start = _orbit(traj.states)
    assert period == 253 and 15000 < start < 25000
    # copying starts one period after the checkpoint at row 22,528, a mark
    # (every 2^11 rows in [2^14, 2^15)) that the kernel steps itself, not
    # one period after row 32,768
    repeat = 22528 + period
    assert start < repeat - period and repeat < _repeat_row(period, start)
    rows = [1, start - 2, start - 1, start, start + 1, start + period,
            *range(repeat - 3, repeat + period + 3), (repeat + last) // 2,
            *range(last - period - 1, last + 1), *range(0, last, 997)]
    _assert_rows_match_one_step_runs(sys, traj, cfg, rows)
    # copied events keep their kind and tiers, at their own times
    assert np.array_equal(traj.times, np.arange(last + 1) * cfg.h)
    by_row = {int(round(ev.time / cfg.h)): ev for ev in traj.events}
    assert all(ev.time == traj.times[q] for q, ev in by_row.items())
    template = [q for q in by_row if start < q <= start + period]
    assert len(template) > 100
    for q in template:
        for later in range(q + period, last + 1, 40 * period):
            assert by_row[later].kind == by_row[q].kind
            assert by_row[later].tiers == by_row[q].tiers
    assert sum(1 for q in by_row if q > start) == sum(
        len(range(q, last + 1, period)) for q in template)


@pytest.mark.parametrize("mode", ["sliding", "strict-argmax"])
def test_partly_frozen_steps_are_what_stepping_gives(mode):
    # acceptance system 4 drains b1 forever while b2 and b3 freeze bit for bit
    sys, n0 = acceptance_system(4)
    cfg = IntegratorConfig(mode=mode)
    traj = integrate_fluid(sys, n0, 40.0, cfg)
    bits = traj.states.view(np.int64)
    moved = bits[1:] != bits[:-1]
    partial = np.nonzero(moved.any(axis=1) & ~moved.all(axis=1))[0]
    assert len(partial) > 20000 and moved[-1].tolist() == [True, False, False]
    rows = [*partial[:5], *partial[::150], *partial[-5:], len(traj) - 1]
    _assert_rows_match_one_step_runs(sys, traj, cfg, rows)


def _drain(curve):
    """f1 feeds a steep Hill backend b1 (μ′ ≥ 3 at its balance) and never b2,
    whose gradient stays at most 1: b2 drains with no inflow forever."""
    return make_system([("f1", 0.5)], [("b1", hill(4.0, 1.0)), ("b2", curve)],
                       [("f1", "b1"), ("f1", "b2")])


def _frozen_cases():
    scn = load_scenario(Path(str(files("gmsr").joinpath("scenarios"))) / "overload_disjoint.json")
    # (system, start, horizon, h, rows to check, digest recorded from the
    # integrator that computed every frozen step through the whole kernel)
    return {
        # both tiers are one backend with its frontend; b1 diverges and moves
        # its gradient at every step, so the rows stay but nothing freezes
        "overload_disjoint": (
            scn.system, scn.initial, 20.0, 1e-3, [0, 1, 2, *range(3, 20001, 97), 20000],
            "e6deeebe335e0284e9857cd018fe962cc0b580965c59b2b0383bce899ee109b7"),
        # b2's exponential gradient changes at every step until its workload
        # is below about 1e-13 (from row 3700 on); then exp(-x) takes each
        # value below 1 for a few steps, frozen stretches of 1 to 98 rows
        # that end at a gradient change or at a checkpoint row (4096), until
        # the fixed point at row 4213.  This digest uses the platform's exp
        "exp_drain": (
            _drain(saturating_exponential(1.0, 1.0)), [0.2, 5.0], 60.0, 0.01,
            [*range(0, 3690, 97), *range(3690, 4230), 6000],
            "eabb8001a9fd92e976224a9f007c8c8aab65da009f6e66fcfa02055d36d63ace"),
        # b2's Hill gradient holds its bits once x + 1 rounds to 1 (row 739):
        # one frozen stretch that stops at each checkpoint row (1024, ...,
        # 8192) and ends at a fixed point, x = 4.4e-323, at row 14487.  Hill
        # curves use only correctly rounded arithmetic
        "hill_drain": (
            _drain(hill(1.0, 1.0)), [0.2, 1.0], 1000.0, 0.05,
            [*range(0, 20001, 97), *range(670, 745),
             *(r + d for r in (1024, 2048, 4096, 8192, 14487) for d in range(-3, 4)), 20000],
            "464fe08387f7fc0286aef65c3bc0b5a7acf8d4e4a29c980a37b42959e1df4265"),
    }


@pytest.mark.parametrize("mode", ["sliding", "strict-argmax"])
@pytest.mark.parametrize("case", ["overload_disjoint", "exp_drain", "hill_drain"])
def test_frozen_routing_rows_are_what_stepping_gives(case, mode):
    sys, n0, horizon, h, rows, digest = _frozen_cases()[case]
    cfg = IntegratorConfig(h=h, mode=mode)
    traj = integrate_fluid(sys, n0, horizon, cfg)
    # f1 routes to b1 alone all along, so both modes give the same run
    assert trajectory_digest(traj) == digest
    _assert_rows_match_one_step_runs(sys, traj, cfg, rows)


@pytest.mark.parametrize("mode, curve, digest", [
    ("sliding", hill,
     "a628c6c2c091dd2c5172b0db1951a6c24ffcd899b952541dea3f01a20b951bfc"),
    ("strict-argmax", hill,
     "e557b0f2550b50d0f3f355fd19c035c89a76fbbe7472b9a638f600e7eeaf6a8e"),
    ("sliding", saturating_exponential,
     "ad9939751230e99d987f3128dc21744fd4dcee7a3a6c8597665e1b04607958bc"),
    ("strict-argmax", saturating_exponential,
     "99980ebf135b1ea012c9b3dc1c3190965553940ac8da9c074182597cb87938b7"),
], ids=["sliding-hill", "strict-argmax-hill", "sliding-exp", "strict-argmax-exp"])
def test_a_frozen_stretch_ends_where_a_gradient_changes_the_routing(mode, curve, digest):
    # b1 sits at balance (μ = 1·1/2 = λ) with gradient 0.25.  b2 drains, and
    # its gradient climbs toward its value at zero, its cap: 1e-15 above the
    # tie band's cut (sliding) or above 0.25 (strict argmax).  So b2 joins
    # f1's band, or takes f1's whole rate, only once its workload is about
    # 5e-16, where its gradient holds its bits for several steps at a time:
    # a frozen stretch must stop at the step whose gradient changes
    cut = 0.25 - 1e-3 if mode == "sliding" else 0.25
    sys = make_system([("f1", 0.5)],
                      [("b1", hill(1.0, 1.0)), ("b2", curve(cut * (1 + 1e-15), 1.0))],
                      [("f1", "b1"), ("f1", "b2")])
    cfg = IntegratorConfig(h=0.05, mode=mode)
    traj = integrate_fluid(sys, [1.0, 1.0], 200.0, cfg)
    # recorded from the integrator that computed every frozen step through
    # the whole kernel; the exponential digests use the platform's exp
    assert trajectory_digest(traj) == digest
    joined = [round(ev.time / cfg.h) for ev in traj.events if ev.time > 50.0][0]
    assert 2700 < joined < 3000
    _assert_rows_match_one_step_runs(
        sys, traj, cfg, [*range(0, 4001, 97), *range(joined - 60, joined + 5), 4000])


@pytest.mark.parametrize("mode", ["sliding", "strict-argmax"])
def test_a_frozen_stretch_stops_before_a_clamp(mode):
    # b2's exp(-10⁴·x) is floored at 1e-300 while x > 0.0691, so its
    # gradient holds its bits while x falls by h·cap = 0.1 a step, from 1.08
    # to 0.08, and the next update undershoots zero.  From there b2's
    # gradient, 2e4 at zero, takes f1's rate, and b2 clamps every other step
    sys = make_system([("f1", 0.5)],
                      [("b1", hill(1.0, 1.0)), ("b2", saturating_exponential(2.0, 1e4))],
                      [("f1", "b1"), ("f1", "b2")])
    cfg = IntegratorConfig(h=0.05, mode=mode)
    traj = integrate_fluid(sys, [1.0, 1.08], 5.0, cfg)
    # recorded from the integrator that computed every frozen step through
    # the whole kernel; it uses the platform's exp
    assert trajectory_digest(traj) == (
        "3a77aef0356632bca7a221fa5a6171bb2a912dab3dccd69475abeef9d0fd7977")
    assert traj.boundary_events[0] == (10 * cfg.h + cfg.h, "b2")  # the update out of row 10
    _assert_rows_match_one_step_runs(sys, traj, cfg, range(len(traj)))


@pytest.mark.parametrize("mode", ["sliding", "strict-argmax"])
def test_orbits_that_frozen_stretches_enter_are_copied(mode, monkeypatch):
    computed = [0]  # rows the kernel steps or a block computes

    def counting(method):
        def wrapped(self, *args):
            out = method(self, *args)
            computed[0] += out[0] if method is tier_rows else 1
            return out
        return wrapped

    tier_rows = fluid_dyn._Kernel.tier_rows
    for name in ("sliding_step", "argmax_step", "tier_rows"):
        monkeypatch.setattr(fluid_dyn._Kernel, name, counting(getattr(fluid_dyn._Kernel, name)))
    runs = [
        # b2's drain ends at a fixed point, x = 4.4e-323, in a frozen stretch
        (_drain(hill(1.0, 1.0)), [0.2, 1.0], 1000.0, 0.05, (1, 14487)),
        # one Hill backend whose Euler map ends alternating between two
        # neighbouring floats near 0.041, with its gradient's bits unchanged
        (make_system([("f1", 0.19821564634933192)],
                     [("b1", hill(1.8069482967130726, 0.3329145871160809))], [("f1", "b1")]),
         [1.0], 500.0, 0.25, (2, 19)),
        # a period-36 cycle whose gradient changes at every row, entered in
        # held stretches (test_a_held_stretch_stops_before_the_row_that_repeats_the_checkpoint)
        (_cycling_hill(), [2.0], 10.75 * 3000, 10.75, (36, 427)),
    ]
    for sys, n0, horizon, h, orbit in runs:
        computed[0] = 0
        traj = integrate_fluid(sys, n0, horizon, IntegratorConfig(h=h, mode=mode))
        assert _orbit(traj.states) == orbit
        # the rows from the first copied one on are copies, as in any orbit
        assert computed[0] == _repeat_row(*orbit)


def _record_blocks(monkeypatch) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Wrap the kernel's steps and its block driver.  The returned lists fill
    with the first and last row of each held block and of each tier block of
    the next run."""
    held: list[tuple[int, int]] = []
    tier: list[tuple[int, int]] = []
    row = [0]  # the row the next step or block starts at

    def stepping(method):
        def wrapped(self, *args):
            row[0] += 1
            return method(self, *args)
        return wrapped

    def blocks(self, *args):
        out = tier_rows(self, *args)
        if out[0]:
            (held if args[-1] else tier).append((row[0], row[0] + out[0] - 1))
        row[0] += out[0]
        return out

    tier_rows = fluid_dyn._Kernel.tier_rows
    for name in ("sliding_step", "argmax_step"):
        monkeypatch.setattr(fluid_dyn._Kernel, name, stepping(getattr(fluid_dyn._Kernel, name)))
    monkeypatch.setattr(fluid_dyn._Kernel, "tier_rows", blocks)
    return held, tier


def _b1_at_balance(b2_curve):
    """f1 (λ = 1) feeds b1, which sits at balance from N = 0.8 (μ = 2·0.8/1.6
    = 1 exactly, gradient 0.625), and b2, which receives nothing while its
    gradient stays below b1's."""
    return make_system([("f1", 1.0)], [("b1", hill(2.0, 0.8)), ("b2", b2_curve)],
                       [("f1", "b1"), ("f1", "b2")])


def _cycling_hill():
    """One Hill backend at λ = 1/2, N* = 1, where h = 10.75 gives h·μ′(N*) ≈
    2.69: the Euler map cycles rather than converging."""
    return make_system([("f1", 0.5)], [("b1", hill(1.0, 1.0))], [("f1", "b1")])


@pytest.mark.parametrize("mode, digest", [
    ("sliding", "917955e6a3645e65c799e29f3ee13471dea48e1b3d5e134341c24a8db690cd0a"),
    ("strict-argmax", "4ed6b373925a828dc41efe94077869d0337910f832616f15fd5f9b0a643d157b"),
])
def test_held_stretches_end_at_a_mask_change_and_at_an_argmax_flip(mode, digest, monkeypatch):
    # b2 drains from 1 with no inflow, and its gradient 1/(1 + N)² rises at
    # every step.  It enters f1's tie band (0.05 below b1's 0.625) at row
    # 183, a slide event, with no argmax flip; under strict argmax f1 routes
    # to b1 until b2's gradient passes b1's at row 206, which changes no
    # mask.  Held stretches must end on the rows before both
    blocks, _ = _record_blocks(monkeypatch)
    sys = _b1_at_balance(hill(1.0, 1.0))
    cfg = IntegratorConfig(h=0.01, tie_band=0.05, mode=mode)
    traj = integrate_fluid(sys, [0.8, 1.0], 4.0, cfg)
    # recorded from the integrator that stepped these rows through the kernel
    assert trajectory_digest(traj) == digest
    grads = np.array([sys.gradients_at(n) for n in traj.states[:184]])
    assert np.all(np.diff(grads[:, 1]) > 0)
    assert [(round(ev.time / cfg.h), ev.kind) for ev in traj.events][0] == (183, "slide")
    assert (129, 182) in blocks
    if mode == "strict-argmax":
        assert np.nonzero(traj.routings[:, 0, 1])[0][0] == 206
        assert (184, 205) in blocks
    _assert_rows_match_one_step_runs(sys, traj, cfg, [*range(0, 250), 400])


@pytest.mark.parametrize("mode", ["sliding", "strict-argmax"])
def test_a_held_stretch_whose_gradient_moves_stops_before_a_clamp(mode, monkeypatch):
    # b2's gradient 0.6·exp(−2N) stays below b1's and changes at every step
    # while b2 drains by up to h·cap = 0.6 a step; near zero h·μ′ = 1.2, so
    # the update out of row 51 undershoots zero
    blocks, _ = _record_blocks(monkeypatch)
    sys = _b1_at_balance(saturating_exponential(0.3, 2.0))
    cfg = IntegratorConfig(h=2.0, mode=mode)
    traj = integrate_fluid(sys, [0.8, 30.0], 200.0, cfg)
    # recorded from the integrator that stepped these rows through the
    # kernel; it uses the platform's exp
    assert trajectory_digest(traj) == (
        "2ebbf72c05327c4258a508c4f4059419a74682fa8533a640c297223f6df6df18")
    assert traj.boundary_events[0] == (51 * cfg.h + cfg.h, "b2")
    assert blocks[-1] == (33, 50)
    _assert_rows_match_one_step_runs(sys, traj, cfg, range(len(traj)))


@pytest.mark.parametrize("mode", ["sliding", "strict-argmax"])
def test_a_held_stretch_stops_before_the_row_that_repeats_the_checkpoint(mode, monkeypatch):
    # from row 427 the run repeats every 36 rows, each with a gradient of
    # its own.  Row 548 repeats the checkpoint row 512, so the held stretch
    # from row 513 must stop at row 546, where the kernel's step finds the
    # orbit, and every later row is a copy
    blocks, _ = _record_blocks(monkeypatch)
    sys = _cycling_hill()
    cfg = IntegratorConfig(h=10.75, mode=mode)
    traj = integrate_fluid(sys, [2.0], 10.75 * 3000, cfg)
    # recorded from the integrator that stepped these rows through the kernel
    assert trajectory_digest(traj) == (
        "81978f58f3b50e7f13acb753e190c7fc66918f3d1a711d1546bb2931559215e8")
    assert _orbit(traj.states) == (36, 427)
    assert len(np.unique(traj.states[427:463])) == 36
    assert blocks[-1] == (513, 546)
    _assert_rows_match_one_step_runs(sys, traj, cfg, [*range(400, 600), 3000])


def test_held_stretches_of_gradients_that_move_together(monkeypatch):
    # fig1 from all ones under strict argmax: b1 and b5 drain side by side,
    # b1's gradient a little below b5's, so f4's argmax holds only while b1
    # stays below b5.  Bounds on each gradient alone would hold for one row
    # at a time there; the rows' own masks and argmaxes hold the held blocks
    # up to the slide at row 3445, and then to the end
    blocks, _ = _record_blocks(monkeypatch)
    sys = fig1_system()
    cfg = IntegratorConfig(mode="strict-argmax")
    traj = integrate_fluid(sys, np.ones(5), 50.0, cfg)
    # recorded from the integrator that stepped these rows through the kernel
    assert trajectory_digest(traj) == (
        "4ce511ef9368aecf6fc79b7cc73bdbc5b656ef23e3fdf387ff3fa7de244894e3")
    assert [(round(ev.time / cfg.h), ev.kind) for ev in traj.events][-1] == (3445, "slide")
    assert len(traj) - sum(last - first + 1 for first, last in blocks) <= 40  # kernel rows
    assert blocks[-1] == (32769, 49999)
    _assert_rows_match_one_step_runs(
        sys, traj, cfg, [*range(0, 3500, 11), *range(3430, 3460), *range(32760, 32775), 50000])


@pytest.mark.parametrize("mode", ["sliding", "strict-argmax"])
def test_a_held_block_ends_where_one_of_its_movers_stops(mode, monkeypatch):
    # two pairs, f1-b1 and f2-b2, each backend a tier and an argmax of its
    # own.  b1 starts near N* = 1 and reaches a bitwise fixed point first:
    # the update out of row 2013 keeps its workload, while b2, four times
    # slower, still moves.  The held block of both movers must end at row
    # 2012, and the one after the kernel's step at row 2013 steps b2 alone
    blocks, _ = _record_blocks(monkeypatch)
    sys = make_system([("f1", 0.5), ("f2", 0.5)], [("b1", hill(1.0, 1.0)), ("b2", hill(1.0, 4.0))],
                      [("f1", "b1"), ("f2", "b2")])
    cfg = IntegratorConfig(h=0.05, mode=mode)
    traj = integrate_fluid(sys, [1.001, 8.0], 110.0, cfg)
    # recorded from the integrator that stepped every row through the kernel
    assert trajectory_digest(traj) == (
        "2eef566216c758c4d89b585b0671de37ecc25a22e5589fc11f3ce8d9392150da")
    kept = traj.states[1:] == traj.states[:-1]
    assert np.nonzero(kept[:, 0])[0][0] == 2013 and kept[2013:, 0].all()
    assert not kept[:2100, 1].any()
    assert (1025, 2012) in blocks and (2014, 2046) in blocks
    _assert_rows_match_one_step_runs(sys, traj, cfg, [*range(2008, 2020), 2046, 2047])


def _one_frontend(lam: float, *curves):
    """f1 at rate lam, with an edge to each of the backends b1, b2, ..."""
    return make_system([("f1", lam)], [(f"b{j + 1}", c) for j, c in enumerate(curves)],
                       [("f1", f"b{j + 1}") for j in range(len(curves))])


def _tier_block_cases():
    # (system, start, horizon, h, the last row of a tier block, digest
    # recorded from the integrator that stepped every row of a tier of
    # several backends through the kernel).  Hill curves only, so the
    # digests do not depend on the platform's libm
    return {
        # b1 and b2 fill side by side, one tier from the start, while b3
        # drains with no inflow; b3's gradient enters f1's band at row 290
        "mask": (
            _one_frontend(1.5, hill(1.0, 1.0), hill(1.0, 1.0), hill(1.0, 1.0)),
            [0.0, 0.0, 3.0], 5.0, 0.01, 289,
            "3d3aa904a4f2890d58a3bc0c0b3965255ce259464012053482b7e709076d43e1"),
        # the tier drains, b2 (the flatter) the faster, until its implied
        # inflow is negative at row 298 and a min cut splits it off
        "negative": (
            _one_frontend(1.0, hill(2.0, 0.25), hill(2.0, 1.0)), [3.0, 3.0], 4.0, 0.01, 297,
            "f6da93cb43d9c35d4cb346e1cc1e4a4b990238eaf7a7a95ab3fae493ec939ad1"),
        # two frontends over two backends, overloaded: from row 222 the
        # pattern's tree routes a negative flow, and the demand tree the drift
        "miss": (
            make_system([("f1", 2.0), ("f2", 2.0)],
                        [("b1", hill(1.0, 8.0)), ("b2", hill(0.5, 2.0))],
                        [("f1", "b1"), ("f1", "b2"), ("f2", "b1"), ("f2", "b2")]),
            [1.0, 10.0], 80.0, 0.2, 221,
            "9b9f49d293995bf50c87cadca714ef356bd2093d931df81c58ca97427758e41b"),
        # two equal backends drain side by side by about h·cap = 1.5 a step,
        # and the update out of row 29 undershoots zero
        "clamp": (
            _one_frontend(0.01, hill(1.0, 1.0), hill(1.0, 1.0)), [40.0, 40.0], 60.0, 1.5, 28,
            "46421bc3abd22302f718be2c6f948b32ad5457f32b6ba01042eb93f653f0dfe4"),
        # two equal backends whose Euler map cycles, as _cycling_hill's does,
        # with period 18 from row 445: row 530 repeats the checkpoint row 512,
        # so the block from row 513 leaves rows 529 on to the kernel
        "checkpoint": (
            _one_frontend(1.0, hill(1.0, 1.0), hill(1.0, 1.0)), [2.0, 2.0], 10.75 * 3000, 10.75,
            528,
            "a2203f53b9b22e17c8ded4d27cfecb26d036b40941d410f76faa00858f87f48b"),
    }


@pytest.mark.parametrize("case", ["mask", "negative", "miss", "clamp", "checkpoint"])
def test_tier_blocks_end_before_the_row_the_kernel_must_step(case, monkeypatch):
    # a tier block ends before a row whose masks change, whose implied
    # inflow is negative, whose pattern tree misses, whose update clamps,
    # or whose update repeats the checkpoint row
    _, blocks = _record_blocks(monkeypatch)
    sys, n0, horizon, h, last, digest = _tier_block_cases()[case]
    cfg = IntegratorConfig(h=h)
    traj = integrate_fluid(sys, n0, horizon, cfg)
    assert trajectory_digest(traj) == digest
    first = next(a for a, b in blocks if b == last)
    assert first < last
    if case in ("mask", "negative"):
        kind = "slide" if case == "mask" else "split"
        assert [(round(ev.time / h), ev.kind) for ev in traj.events][-1] == (last + 1, kind)
    elif case == "miss":
        # one-step runs compute two rows: the miss is row last + 1's, and
        # the demand tree resolves it and the next
        assert integrate_fluid(sys, traj.states[last], h, cfg).stats.tree_misses == 1
        assert integrate_fluid(sys, traj.states[last + 1], h, cfg).stats == KernelStats(
            tree_misses=2, patterns=1)
    elif case == "clamp":
        assert traj.boundary_events[0] == ((last + 1) * h + h, "b1")
    else:
        assert _orbit(traj.states) == (18, 445)
        assert np.array_equal(traj.states[last + 2], traj.states[512])
    _assert_rows_match_one_step_runs(
        sys, traj, cfg, [*range(first - 1, first + 2), *range(last - 1, last + 3),
                         *range(0, len(traj), 17), len(traj) - 1])


def test_tier_block_rows_read_inflow_dust_as_the_kernel_does():
    # the "negative" case's tier at a state between its rows 297 and 298
    # (found by bisection) where b2's implied inflow is float dust,
    # -3.7e-13: the kernel reads it as 0 and solves the tier outright, and a
    # tier block's rows must be that step's rows bit for bit
    sys = _one_frontend(1.0, hill(2.0, 0.25), hill(2.0, 1.0))
    n = [0.4167211067222448, 0.33322447983580405]
    cfg = IntegratorConfig(h=0.01)
    k = fluid_dyn._Kernel(sys, cfg)
    k.sliding_step(n[:], k.every, 0.0)
    assert k.missed == 0 and -1e-12 <= k.vbuf[1] + k.mu[1] < 0.0 == k.wbuf[1]
    block = fluid_dyn._TierBlock(k, k.pattern, k.every, False)
    good, *_, w, x_rows = block.rows(k, np.array([[n[j] for j in block.movers]]),
                                     np.empty((1, 0)))
    one = integrate_fluid(sys, n, cfg.h, cfg)
    assert good == 1
    assert w[0].tobytes() == one.inflows[0].tobytes()
    assert x_rows[0].tobytes() == one.routings[0].tobytes()


def test_a_tier_block_leaves_the_rows_of_a_tier_that_stopped_in_it(monkeypatch):
    # two copies of a one-frontend tier of two backends: the first reaches
    # its fixed point at row 1679, inside the tier block from row 1025; the
    # second at row 1730, where the block ends.  The kernel's step at row
    # 1730 recomputes only the second tier, and keeps the first one's rows
    # and drifts from the block's last row
    _, blocks = _record_blocks(monkeypatch)
    sys = make_system([("f1", 0.5), ("f2", 0.5)],
                      [("b1", hill(1.0, 1.0)), ("b2", hill(1.0, 2.0)),
                       ("b3", hill(1.0, 1.0)), ("b4", hill(1.0, 2.0))],
                      [("f1", "b1"), ("f1", "b2"), ("f2", "b3"), ("f2", "b4")])
    cfg = IntegratorConfig(h=0.05)
    traj = integrate_fluid(sys, [0.3, 0.3, 0.0, 0.0], 150.0, cfg)
    # recorded from the integrator that stepped every row of a tier of
    # several backends through the kernel; Hill curves only
    assert trajectory_digest(traj) == (
        "de929f968d682fc17af1e7abc85a8e0fd064953dae545e2150babe63937661ba")
    bits = traj.states.view(np.int64)
    moved = bits[1:] != bits[:-1]
    assert [int(np.nonzero(moved[:, pair].any(axis=1))[0][-1]) + 1
            for pair in ([0, 1], [2, 3])] == [1679, 1730]
    assert (1025, 1729) in blocks
    _assert_rows_match_one_step_runs(sys, traj, cfg, [*range(1675, 1685), *range(1726, 1740)])


@pytest.mark.parametrize("run", ["n_model", "acceptance-0"])
def test_tier_block_rows_are_what_stepping_gives(run, monkeypatch):
    # the bundled n_model at H = 50 is one tier of two backends from row
    # 498 on; acceptance system 0 slides in tiers of several backends until
    # its fixed point at row 18658.  Tier blocks step most rows of both
    _, blocks = _record_blocks(monkeypatch)
    if run == "n_model":
        sys, n0, horizon = _n_model_04_06(), [0.0, 0.0], 50.0
    else:
        sys, n0 = acceptance_system(0)
        horizon = 200.0
    cfg = IntegratorConfig()
    traj = integrate_fluid(sys, n0, horizon, cfg)
    assert sum(b - a + 1 for a, b in blocks) > _fixed_from(traj.states) // 2
    _assert_rows_match_one_step_runs(
        sys, traj, cfg, [r for a, b in blocks for r in (a, a + 1, b)])


@pytest.mark.parametrize("held", [False, True])
def test_block_runs_of_one_shape_share_their_code(held, monkeypatch):
    # two systems of one shape with different parameters: a tier of a Hill
    # and an exponential backend (a tie band that holds both), or, held
    # under strict argmax, a Hill and an exponential pair.  Their blocks'
    # runs share one compiled code, and each steps the rows that the
    # kernel steps when no block takes a row
    def system(scale):
        curves = [("b1", hill(scale, 1.0)), ("b2", saturating_exponential(2.0 * scale, 0.5))]
        if held:
            return make_system([("f1", 0.4), ("f2", 0.3)], curves, [("f1", "b1"), ("f2", "b2")])
        return _one_frontend(0.9, *(curve for _, curve in curves))

    cfg = IntegratorConfig(h=0.01, tie_band=10.0, mode="strict-argmax" if held else "sliding")
    n0, steps = [3.0, 0.5], 50
    runs, rows = [], []
    for scale in (1.0, 1.5):
        sys = system(scale)
        k = fluid_dyn._Kernel(sys, cfg)
        (k.argmax_step if held else k.sliding_step)(n0[:], k.every, 0.0)
        block = fluid_dyn._TierBlock(k, k.pattern, k.every, held)
        assert block.movers == [0, 1]
        xs, es = array("d", n0), array("d")
        block.run(xs, es, cfg.h, steps)
        runs.append(block.run)
        rows.append(np.frombuffer(xs).reshape(-1, 2))
    assert runs[0] is not runs[1] and runs[0].__code__ is runs[1].__code__
    monkeypatch.setattr(fluid_dyn._Kernel, "tier_rows", lambda self, rec, n, dirty, *_: (0, dirty))
    for scale, run_rows in zip((1.0, 1.5), rows):
        traj = integrate_fluid(system(scale), n0, steps * cfg.h, cfg)
        assert run_rows.tobytes() == traj.states.tobytes()


@st.composite
def _gradient_cases(draw):
    nb, nf = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    band = draw(st.sampled_from([1e-3, 0.05, 0.3]))
    edges = [(f"f{i}", f"b{j}") for i in range(nf)
             for j in sorted(draw(st.sets(st.integers(0, nb - 1), min_size=1)))]
    sys = make_system([(f"f{i}", 0.1) for i in range(nf)],
                      [(f"b{j}", hill(1.0, 1.0)) for j in range(nb)], edges)
    # gradients at, or a few ulps from, another's or another's ± band: the
    # rounded cut top − band decides the masks there
    grads: list[float] = []
    for _ in range(nb):
        if grads and draw(st.booleans()):
            g = draw(st.sampled_from(grads)) + draw(st.sampled_from([0.0, band, -band]))
            for _ in range(draw(st.integers(0, 3))):
                g = math.nextafter(g, draw(st.sampled_from([math.inf, -math.inf])))
            grads.append(max(g, 0.0))
        else:
            grads.append(draw(st.floats(0.0, 2.0)))
    movers = draw(st.integers(1, 2**nb - 1))
    # the movers' gradients in a span of rows: each one kept, a few ulps
    # away, at another's or another's ± band, or a step of about the band away
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        row = []
        for j in range(nb):
            if movers >> j & 1:
                g, how = grads[j], draw(st.sampled_from(["keep", "ulps", "tie", "band"]))
                if how == "tie":
                    g = draw(st.sampled_from(grads)) + draw(st.sampled_from([0.0, band, -band]))
                if how in ("ulps", "tie"):
                    for _ in range(draw(st.integers(how == "ulps", 3))):
                        g = math.nextafter(g, draw(st.sampled_from([math.inf, -math.inf])))
                elif how == "band":
                    g += draw(st.floats(-2 * band, 2 * band))
                row.append(g)
        rows.append(row)
    return sys, band, grads, movers, draw(st.booleans()), rows


def _argmaxes(neighbors, grads) -> list[int]:
    return [max(nbrs, key=lambda j: (grads[j], -j)) for nbrs in neighbors]


def test_keeps_finds_the_first_row_that_changes_a_mask_or_an_argmax():
    passed = []  # the pretest's verdict on each example
    # b1, out of f0's band, reaches its cut 1 − band exactly (it joins the
    # band); and b1 at the cut stays in the band
    pair = make_system([("f0", 0.1)], [("b0", hill(1.0, 1.0)), ("b1", hill(1.0, 1.0))],
                       [("f0", "b0"), ("f0", "b1")])

    @settings(max_examples=400, deadline=None)
    @given(_gradient_cases())
    @example((pair, 0.05, [1.0, 0.5], 0b10, False, [[0.9], [1.0 - 0.05]]))
    @example((pair, 0.05, [1.0, 1.0 - 0.05], 0b10, True, [[1.0 - 0.05], [1.0]]))
    def check(case):
        # the first row at which a frontend next to a mover changes its mask
        # (tie_masks) or, under strict argmax, its argmax (a scalar argmax,
        # lowest index on ties); a pretest that passes must find no such row
        sys, band, grads, movers, strict, rows = case
        k = fluid_dyn._Kernel(sys, IntegratorConfig(
            tie_band=band, mode="strict-argmax" if strict else "sliding"))
        k.g = list(grads)
        k.masks = tie_masks(k.neighbors, grads, band)
        k.best = _argmaxes(k.neighbors, grads) if strict else None
        block = fluid_dyn._TierBlock(k, k.pattern_for(k.masks), movers, True)
        fronts = [i for i, nbrs in enumerate(k.neighbors) if any(movers >> j & 1 for j in nbrs)]

        def keeps(row) -> bool:
            at = list(grads)
            for j, g in zip(block.movers, row):
                at[j] = g
            masks, best = tie_masks(k.neighbors, at, band), _argmaxes(k.neighbors, at)
            return all(masks[i] == k.masks[i] and (not strict or best[i] == k.best[i])
                       for i in fronts)

        first = next((r for r, row in enumerate(rows) if not keeps(row)), len(rows))
        g = np.array(rows)
        assert block.keeps(k, g) == first
        passed.append(block.pretest(k, g))
        if passed[-1]:
            assert first == len(rows)

    check()
    # both of keeps' paths ran: the pretest alone, and the rows one by one
    assert any(passed) and not all(passed)


_ARRAYS = ("times", "states", "inflows", "routings")


def test_returned_arrays_are_writeable_rows_of_their_own():
    runs = {
        # every row written: states, inflows and routings can be views on
        # the recording
        "fresh": lambda: integrate_fluid(_n_model_04_06(), [3.0, 0.5], 2.0,
                                         IntegratorConfig(mode="strict-argmax")),
        # b2's frozen drain: inflows and routings taken from few rows by index
        "frozen": lambda: integrate_fluid(_drain(hill(1.0, 1.0)), [0.2, 1.0], 100.0,
                                          IntegratorConfig(h=0.05)),
        # a fixed point at row 5132 of 20001: every array tiled
        "tiled": lambda: integrate_fluid(fig1_system(), np.zeros(5), 20.0),
    }
    for name, run in runs.items():
        a, b = run(), run()
        arrays = [getattr(traj, field) for traj in (a, b) for field in _ARRAYS]
        for i, x in enumerate(arrays):
            assert not any(np.shares_memory(x, y) for y in arrays[i + 1:]), name
        for field in _ARRAYS:
            arr = getattr(a, field)
            assert arr.flags.writeable and arr.flags.c_contiguous, (name, field)
            for k in (0, len(arr) // 2, len(arr) - 2):
                after = arr[k + 1].copy()
                arr[k] = -1.0
                assert np.array_equal(arr[k + 1], after), (name, field, k)


@pytest.mark.parametrize("mode", ["sliding", "strict-argmax", "overload_nmodel", "n_model"])
def test_recording_peak_stays_near_the_returned_arrays(mode):
    # acceptance system 4 drains b1 for most of its 200k steps: its inflow
    # and routing rows are recorded once per change and taken by index, and
    # its states returned as the recording itself.  The bundled
    # overload_nmodel slides as one tier of two backends all along: tier
    # blocks write every row, and their temporaries are bounded by the
    # block size, not by the horizon.  The bundled n_model at H = 200
    # reaches its fixed point at row 163,329: its recordings grow to the
    # full length and are tiled in place, not copied
    if mode in ("overload_nmodel", "n_model"):
        scn = load_scenario(Path(str(files("gmsr").joinpath("scenarios"))) / f"{mode}.json")
        horizon = 100.0 if mode == "overload_nmodel" else 200.0
        sys, n0, cfg = scn.system, scn.initial, scn.integrator
    else:
        sys, n0 = acceptance_system(4)
        horizon, cfg = 200.0, IntegratorConfig(mode=mode)
    tracemalloc.start()
    try:
        traj = integrate_fluid(sys, n0, horizon, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    returned = sum(getattr(traj, field).nbytes for field in _ARRAYS)
    assert peak <= 1.25 * returned + 1e6, (peak, returned)


@st.composite
def _small_runs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sys = feasible_random_system(rng)
    n0 = rng.uniform(0.0, 3.0, size=len(sys.backends))
    # long steps make many runs end in a fixed point or an exact orbit
    h = draw(st.sampled_from([1e-3, 0.05, 0.1, 0.25]))
    mode = draw(st.sampled_from(["sliding", "strict-argmax"]))
    return sys, n0, IntegratorConfig(h=h, mode=mode), draw(st.integers(200, 3000))


def test_incremental_steps_match_one_step_runs(monkeypatch):
    tier_rows = fluid_dyn._Kernel.tier_rows
    block_rows = [0]  # rows the examples' tier blocks took

    def counting(self, *args):
        out = tier_rows(self, *args)
        if not args[-1]:  # a tier block, not a held one
            block_rows[0] += out[0]
        return out

    monkeypatch.setattr(fluid_dyn._Kernel, "tier_rows", counting)
    # the draw of seed 0 with h = 1e-3 in sliding mode, whose tier blocks
    # run to checkpoint rows: about one sliding draw in ten takes a tier
    # block, so this example keeps the count below from hanging on chance
    rng = np.random.default_rng(0)
    seed0 = feasible_random_system(rng)
    n0 = rng.uniform(0.0, 3.0, size=len(seed0.backends))

    @settings(max_examples=80, deadline=None)
    @given(_small_runs())
    @example((seed0, n0, IntegratorConfig(), 3000))
    def check(run):
        sys, n0, cfg, steps = run
        traj = integrate_fluid(sys, n0, steps * cfg.h, cfg)
        assert len(traj) == steps + 1
        rows = [0, 1, 2, *range(3, steps, max(1, steps // 40)), steps - 1, steps]
        orbit = _orbit(traj.states)
        if orbit is not None:
            period, start = orbit
            repeat = _repeat_row(period, start)
            rows += [r for r in (start - 1, start, start + 1, *range(repeat - 2, repeat + 3))
                     if 0 <= r <= steps]
        _assert_rows_match_one_step_runs(sys, traj, cfg, rows)

    check()
    # the property covers tier blocks: some sliding examples take them
    assert block_rows[0] > 0


def _steep_pair():
    """Two steep Hill backends (h·cap/half = 2 at h = 1e-3) that share one
    frontend: under strict argmax the backend left without inflow undershoots
    zero, so from (0, 0) the run alternates (hλ, 0), (0, hλ) with a clamp at
    every step from t = 2h."""
    return make_system(
        [("f1", 0.5)],
        [("b1", hill(2000.0, 1.0)), ("b2", hill(2000.0, 1.0))],
        [("f1", "b1"), ("f1", "b2")],
    )


def test_orbit_through_boundary_clamps_is_continued_with_its_clamps():
    sys = _steep_pair()
    cfg = IntegratorConfig(mode="strict-argmax")
    traj = integrate_fluid(sys, [0.0, 0.0], 1.0, cfg)
    last = len(traj) - 1
    assert _orbit(traj.states) == (2, 1)
    assert len(traj.boundary_events) == last - 1
    assert traj.boundary_events[-1] == ((last - 1) * cfg.h + cfg.h, "b1")
    assert len(traj.events) == last
    _assert_rows_match_one_step_runs(sys, traj, cfg, range(last + 1))
    # recorded from the integrator before orbits were continued by copying
    # (repr(stats) in the current KernelStats fields); Hill curves use only
    # correctly rounded arithmetic, so these digests do not depend on the
    # platform's libm
    assert trajectory_digest(traj) == (
        "91c0980db51d3fee93a5755658f8322dfe148a1bf2b71dce3778b041c480140b")


def test_orbit_tails_are_sequences_built_on_read(monkeypatch):
    # acceptance system 0 under strict argmax enters its period-253 orbit
    # near row 20,487.  A checkpoint every eighth of an octave finds it one
    # period after a checkpoint near row 22,528; at powers of two only, the
    # kernel stepped up to row 33,021 (28,610 argmax steps)
    calls = [0]
    argmax_step = fluid_dyn._Kernel.argmax_step

    def counting(self, *args):
        calls[0] += 1
        return argmax_step(self, *args)

    monkeypatch.setattr(fluid_dyn._Kernel, "argmax_step", counting)
    sys, n0 = acceptance_system(0)
    cfg = IntegratorConfig(mode="strict-argmax")
    traj = integrate_fluid(sys, n0, 40.0, cfg)
    assert calls[0] <= 20000
    events = traj.events
    assert isinstance(events, Sequence) and not isinstance(events, tuple)
    items = tuple(events)
    n = len(items)
    assert len(events) == n > 20000
    assert events[0] is items[0] and events[-n] is items[0]
    assert events[-1] == items[-1] and events[n // 2] == items[n // 2]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            events[i]
    for part in (slice(10, 20), slice(-1000, None, 7), slice(n - 3, n + 3),
                 slice(None, None, -997), slice(n, None)):
        got = events[part]
        assert type(got) is tuple and got == items[part], part
    # == against a tuple either way round, and against another run's tail
    assert events == items and items == events
    assert events != items[:-1] and items[:-1] != events and events != list(items)
    assert events != (*items[:-1], items[0]) and (items[0], *items[1:]) == events
    assert integrate_fluid(sys, n0, 40.0, cfg).events == events
    assert hash(events) == hash(items)
    assert repr(events) == repr(items)
    # a copy is built at each read, equal to the one before, at its row's time
    first, second = events[-1], events[-1]
    assert first is not second and first == second
    assert first.time == traj.times[round(first.time / cfg.h)]


@pytest.mark.parametrize("run", ["chatter", "clamps"])
def test_orbit_tails_add_no_memory_past_the_returned_arrays(run):
    # acceptance system 0 chatters into its orbit near row 20,487 and
    # records an event every 1.7 rows; the steep pair clamps at every row
    # from row 1.  Copied events and clamps are built when they are read,
    # so a longer run costs only its longer arrays
    if run == "chatter":
        sys, n0 = acceptance_system(0)
    else:
        sys, n0 = _steep_pair(), [0.0, 0.0]
    cfg = IntegratorConfig(mode="strict-argmax")
    peaks, sizes = [], []
    for horizon in (100.0, 200.0):
        tracemalloc.start()
        try:
            traj = integrate_fluid(sys, n0, horizon, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traj.events) > horizon * 400
        peaks.append(peak)
        sizes.append(sum(getattr(traj, field).nbytes for field in _ARRAYS))
        del traj
    assert peaks[1] - peaks[0] <= sizes[1] - sizes[0] + 1e6, (peaks, sizes)


def test_steps_that_reuse_tiers_count_the_tree_misses_of_a_full_step():
    # a sliding run whose tree misses the demand tree resolves, on patterns
    # that hold for many steps: every step the kernel computes solves every
    # tier, so each miss is counted at each step that meets it, whichever
    # backends moved.  The miss count and the dynamics digest were recorded
    # from an integrator that recomputed every step, and are unchanged since
    # that integrator ran a max flow on each miss; the full digest (routing
    # rows and repr(stats) included) is that of the demand tree's rows.
    # Hill curves only, so they do not depend on the platform's libm
    sys = make_system(
        frontends=[("f0", 0.1637412074158224), ("f1", 0.117948418019704),
                   ("f2", 0.49317825783393143)],
        backends=[("b0", hill(1.5810962117474014, 1.0884453302068537)),
                  ("b1", hill(2.8849777241903425, 0.8192172848028245)),
                  ("b2", hill(1.3293978583043047, 1.7767917121373873)),
                  ("b3", hill(2.4122918048722357, 0.7031447877454471)),
                  ("b4", hill(2.8752568888321415, 1.0568457410061893))],
        edges=[("f0", "b0"), ("f0", "b1"), ("f0", "b2"), ("f0", "b3"), ("f1", "b0"),
               ("f1", "b1"), ("f1", "b4"), ("f2", "b0"), ("f2", "b1"), ("f2", "b2"),
               ("f2", "b4")],
    )
    n0 = [2.0304793594370336, 0.008353006846236077, 2.0675929897014598,
          2.79637694974464, 1.544059960203668]
    traj = integrate_fluid(sys, n0, 1017 * 0.05, IntegratorConfig(h=0.05))
    assert traj.stats == KernelStats(tree_misses=986, maxflow_witnesses=0, patterns=4)
    assert dynamics_digest(traj) == (
        "03a5d89e4a09d41b698fcee44e57b7643519ea7830555c345fdebe30ffbdfa43")
    assert trajectory_digest(traj) == (
        "02edb251eaa02d648200bd510ad87c84f2871d450c7b19d168b0a0a13466d4b7")


# trajectory_digest of each bundled scenario at H = 5 in both modes, with the
# scenario's step and tie band: routing rows and KernelStats included, which
# the byte pins of `gmsr fluid` do not cover.  Recorded from the kernel that
# re-evaluated only the backends that moved; every curve is a Hill curve, so
# the digests do not depend on the platform's libm
_BUNDLED_DIGESTS = {
    ("fig1", "sliding"): "3390e68cb3c2e2ade28498a7bc30eb6b0d972ffd4b4ac57aad193600f0d078e3",
    ("fig1", "strict-argmax"): "3c473e89a28c0157599aebc49d4adcb9d0cf94138fc580cd07037da66c266f8a",
    ("n_model", "sliding"): "84e3d36312a63ffd4f2e73a36b1afd762d214224b1176c0f821ec08d774ba3c3",
    ("n_model", "strict-argmax"):
        "9eecc104d24d0c1db5faf27fec1b00330d374e9ceec702f4f95e3f042b31627b",
    ("overload_disjoint", "sliding"):
        "7b16a9cd2efda794b05b9c06acba486f18bdac7ed681c4ed38e0a5989d1c0cac",
    ("overload_disjoint", "strict-argmax"):
        "7b16a9cd2efda794b05b9c06acba486f18bdac7ed681c4ed38e0a5989d1c0cac",
    ("overload_nmodel", "sliding"):
        "7e93449fc77a94df24e08f5cb40a86102f77e44fa2493b3922289bbc697bd200",
    ("overload_nmodel", "strict-argmax"):
        "2d65e0ee928844448797738e1b472de67d697720e6a77eaf5a1253fa3852c8e1",
}


@pytest.mark.parametrize("name, mode", list(_BUNDLED_DIGESTS))
def test_bundled_scenarios_keep_their_trajectory_digests(name, mode):
    scn = load_scenario(Path(str(files("gmsr").joinpath("scenarios"))) / f"{name}.json")
    cfg = IntegratorConfig(h=scn.integrator.h, tie_band=scn.integrator.tie_band, mode=mode)
    traj = integrate_fluid(scn.system, scn.initial, 5.0, cfg)
    assert trajectory_digest(traj) == _BUNDLED_DIGESTS[name, mode]


def test_step_budget_is_refused_before_recording():
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="step budget"):
        integrate_fluid(_single_pair(0.5), [0.0], 1e9)
    with pytest.raises(ValueError, match="step budget"):
        integrate_fluid(_single_pair(0.5), [0.0], 1e300, IntegratorConfig(h=1e-300))
    assert time.perf_counter() - t0 < 1.0


def test_lazy_event_tiers_match_compute_tiers():
    # battery system 0 of the acceptance suite chatters under strict argmax
    # and enters its period-253 orbit near row 20,487: every recorded event
    # is checked, and every 50th of the orbit's copies and the last
    rng = np.random.default_rng(424242)
    sys = feasible_random_system(rng)
    n0 = rng.uniform(0.0, 10.0, size=len(sys.backends))
    cfg = IntegratorConfig(mode="strict-argmax")
    traj = integrate_fluid(sys, n0, 40.0, cfg)
    recorded = len(traj.events._head)
    assert recorded > 5000 and len(traj.events) - recorded > 5000
    for ev in [*traj.events[:recorded], *traj.events[recorded::50], traj.events[-1]]:
        k = int(round(ev.time / cfg.h))
        assert ev.time == traj.times[k]
        ref = compute_tiers(sys, sys.gradients_at(traj.states[k]), cfg.tie_band)
        assert [(t.frontends, t.backends) for t in ev.tiers] == [
            (t.frontends, t.backends) for t in ref
        ]
        for got, want in zip(ev.tiers, ref):
            assert got.gradient == pytest.approx(want.gradient, rel=1e-12)
    again = integrate_fluid(sys, n0, 40.0, cfg)
    assert again.events == traj.events
    assert hash(again.events) == hash(traj.events)
    assert repr(again.events[-1]) == repr(traj.events[-1])


def test_integrate_input_validation():
    sys = _single_pair(0.5)
    with pytest.raises(ValueError):
        integrate_fluid(sys, [-1.0], 1.0)
    with pytest.raises(ValueError):
        integrate_fluid(sys, [0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        integrate_fluid(sys, [0.0], -2.0)
    with pytest.raises(ValueError):
        IntegratorConfig(h=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(tie_band=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(mode="midpoint")


def test_equal_gradient_spread_does_not_grow_inside_tiers():
    sys = _n_model_04_06()
    cfg = IntegratorConfig()
    traj = integrate_fluid(sys, [0.0, 0.0], 5.0, cfg)
    tol = 100 * cfg.h**2
    prev_spreads = None
    for state in traj.states:
        grads = sys.gradients_at(state)
        part = compute_tiers(sys, grads, cfg.tie_band)
        spreads = {
            tier.backends: (
                max(grads[sys.backend_index[b]] for b in tier.backends)
                - min(grads[sys.backend_index[b]] for b in tier.backends)
            )
            for tier in part
            if len(tier.backends) > 1
        }
        if prev_spreads is not None:
            for key, spread in spreads.items():
                if key in prev_spreads:
                    assert spread <= prev_spreads[key] + tol
        prev_spreads = spreads


def test_global_convergence_smoke():
    rng = np.random.default_rng(2024)
    for _ in range(2):
        sys = feasible_random_system(rng)
        opt = solve_fluid_optimum(sys)
        n0 = rng.uniform(0.0, 10.0, size=len(sys.backends))
        for mode in ("sliding", "strict-argmax"):
            traj = integrate_fluid(sys, n0, 200.0, IntegratorConfig(mode=mode))
            assert np.max(np.abs(traj.states[-1] - opt.n_star)) <= 1e-2


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.sampled_from([1e-9, 1e-3, 0.05]),
       st.booleans())
def test_sliding_drift_meets_an_independent_oracle(n, seed, band, drained):
    # the oracle reads the curves and the tie graph alone, never the kernel
    sys, n0 = _random_square_start(n, seed)
    if drained:
        n0[::2] = 0.0
    v, x, tiers = sliding_drift(sys, n0, band)
    lam = np.asarray(sys.lambdas)
    mu, grads, curv = sys.rates_at(n0), sys.gradients_at(n0), sys.curvatures_at(n0)
    inflow = lam @ x
    assert validate_routing(sys, x, tol=1e-9) == []
    # the tiers partition the system, each inside one component of the tie graph
    assert sorted(f for t in tiers for f in t.frontends) == sorted(sys.frontend_ids)
    assert sorted(b for t in tiers for b in t.backends) == sorted(sys.backend_ids)
    whole = compute_tiers(sys, grads, band)
    scale = 1.0 + lam.sum() + mu.sum()
    for tier in tiers:
        home = whole.tier_of_backend(tier.backends[0])
        assert all(whole.tier_of_backend(b) == home for b in tier.backends)
        assert all(whole.tier_of_frontend(f) == home for f in tier.frontends)
        fs = [sys.frontend_index[f] for f in tier.frontends]
        bs = [sys.backend_index[b] for b in tier.backends]
        assert v[bs].sum() == pytest.approx(lam[fs].sum() - mu[bs].sum(), abs=1e-9 * scale)
        # equal d/dt μ′ across the tier, realized by the rows
        speed = curv[bs] * v[bs]
        assert np.ptp(speed) <= 1e-9 * (1.0 + np.abs(speed).max())
        assert inflow[bs] == pytest.approx(v[bs] + mu[bs], abs=1e-8 * scale)
        for i in fs:  # rows stay inside the tier, on band edges
            top = max(grads[j] for j in sys.backends_of_frontend[i])
            for j in np.flatnonzero(x[i]):
                assert j in bs and grads[j] >= top - band - 1e-12
    assert not _off_the_drift_kkt_point(sys, n0, inflow, x, band)


def test_sliding_drift_is_the_first_step_of_integrate_fluid():
    # 900 random starts; at 48 of them the first step splits a tier that
    # cannot realize its equalized drift
    h, band = 1e-3, 1e-3
    splits = 0
    for seed in range(300):
        for n in (3, 4, 6):
            sys, n0 = _random_square_start(n, seed)
            v, x, tiers = sliding_drift(sys, n0, band)
            traj = integrate_fluid(sys, n0, h, IntegratorConfig(h=h, tie_band=band))
            assert np.array_equal(traj.routings[0], x)
            step = n0 + h * v
            assert np.array_equal(traj.states[1], np.where(step < 0.0, 0.0, step))
            if traj.events and traj.events[0].time == 0.0:
                splits += 1
                assert traj.events[0].kind == "split" and traj.events[0].tiers == tiers
    assert splits == 48


def test_integration_speed():
    rng = np.random.default_rng(1)
    sys = feasible_random_system(rng)
    while len(sys.frontends) < 4 or len(sys.backends) < 4:
        sys = feasible_random_system(rng)
    n0 = rng.uniform(0.0, 10.0, size=len(sys.backends))
    t0 = time.perf_counter()
    integrate_fluid(sys, n0, 200.0)
    assert time.perf_counter() - t0 < 6.0  # 2e5 sliding steps on a 4x4 system


def test_modes_agree_single_pair_exactly():
    assert modes_agree(_single_pair(0.5), [0.0], 20.0) <= 1e-12


def test_modes_agree_symmetric_system():
    gap = modes_agree(_symmetric_pairbones(), [0.0, 0.0], 20.0)
    assert gap <= 10 * (1e-3 + 1e-3)


def test_modes_agree_n_model():
    assert modes_agree(_n_model_04_06(), [0.0, 0.0], 50.0) <= 0.05


# -- kernel work counts -----------------------------------------------------------


def _counting(monkeypatch, owner, name, counts, key, pred):
    """Wrap owner.name so each call whose result satisfies pred bumps counts[key]."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        if pred(out):
            counts[key] += 1
        return out

    monkeypatch.setattr(owner, name, wrapper)


def test_kernel_stats_count_the_work_on_a_16x16_system(monkeypatch):
    rng = np.random.default_rng(7)
    sys = square_feasible_system(rng, 16)
    n0 = rng.uniform(0.0, 10.0, size=16)
    plain = integrate_fluid(sys, n0, 0.5)

    counts = dict.fromkeys(
        ("tree_misses", "demand_trees", "negative_inflows", "band_flows", "cut_returns",
         "flows", "patterns"),
        0)
    kernel = fluid_dyn._Kernel
    _counting(monkeypatch, kernel, "tree_witness", counts, "tree_misses", lambda ok: not ok)
    _counting(monkeypatch, kernel, "demand_witness", counts, "demand_trees", lambda ok: ok)
    _counting(monkeypatch, kernel, "tier_flows", counts, "negative_inflows", lambda ok: not ok)
    _counting(monkeypatch, kernel, "band_flow", counts, "band_flows", lambda drop: True)
    _counting(monkeypatch, kernel, "band_flow", counts, "cut_returns", lambda drop: drop >= 0)
    _counting(monkeypatch, TransportNetwork, "solve", counts, "flows", lambda out: True)
    _counting(monkeypatch, fluid_dyn, "_build_pattern", counts, "patterns", lambda out: True)
    # a tier block whose step before missed a tree steps each row's tiers as
    # that step did: the moving ones it verifies, the others do not move.  So
    # each row misses as often, and each miss takes the demand tree again
    tier_rows = kernel.tier_rows
    block_rows = [0]

    def blocks(self, *args):
        missed, routed = self.missed, sum(1 for t in self.pattern.tiers if t.b_mask & self.routed)
        out = tier_rows(self, *args)
        if not args[-1]:
            counts["tree_misses"] += out[0] * missed
            counts["demand_trees"] += out[0] * routed
            block_rows[0] += out[0] * (missed > 0)
        return out

    monkeypatch.setattr(kernel, "tier_rows", blocks)
    traj = integrate_fluid(sys, n0, 0.5)

    stats = traj.stats
    assert stats == plain.stats
    assert traj.states.tobytes() == plain.states.tobytes()
    assert stats.tree_misses == counts["tree_misses"]
    assert stats.patterns == counts["patterns"]
    # every miss tries the demand tree, and runs one witness flow when that
    # misses too
    assert stats.tree_misses == stats.maxflow_witnesses + counts["demand_trees"]
    # one flow method on one network per tier: it runs once per miss of
    # both trees and once per tier with a negative implied inflow (which
    # skips the trees, since no routing has a negative inflow), and nothing
    # else runs a flow
    assert counts["flows"] == counts["band_flows"]
    assert counts["flows"] == stats.maxflow_witnesses + counts["negative_inflows"]
    # every tier found bad is split once, by the min cut of that flow
    assert stats.cuts == counts["cut_returns"]
    assert stats.tree_misses > 0 and counts["negative_inflows"] > 0
    assert counts["demand_trees"] > 0 and stats.maxflow_witnesses > 0
    assert counts["cut_returns"] > counts["negative_inflows"]
    assert sum(1 for ev in traj.events if ev.kind == "split") <= stats.cuts
    # the run's longest stretch of misses that the demand tree routes is
    # stepped in tier blocks
    assert block_rows[0] > 100


def test_kernel_stats_in_strict_argmax_mode_count_patterns_only():
    traj = integrate_fluid(fig1_system(), [0.0] * 5, 2.0, IntegratorConfig(mode="strict-argmax"))
    assert traj.stats.patterns > 0
    assert traj.stats == KernelStats(patterns=traj.stats.patterns)


# -- one max flow: the verdict and the min cut ---------------------------------------


def _tier_neighbours(sys, tier, i, masks) -> list[int]:
    """The backends frontend i reaches inside the tier: by every system
    edge, or by its band edges when masks are given."""
    return [j for j in sys.backends_of_frontend[i]
            if j in tier.b_idx and (masks is None or masks[i] >> j & 1)]


def _excess(sys, tier, w, pick: int, masks=None) -> float:
    """λ(P) − w(N(P) ∪ {b : w_b < 0}) for the frontend subset P of a tier
    that the bits of pick select (bit k: the tier's k-th frontend), with
    N(P) the backends P reaches inside the tier (see _tier_neighbours)."""
    lam_p = 0.0
    covered = {j for j in tier.b_idx if w[j] < 0.0}
    for k, i in enumerate(tier.f_idx):
        if pick >> k & 1:
            lam_p += sys.lambdas[i]
            covered.update(_tier_neighbours(sys, tier, i, masks))
    return lam_p - sum(w[j] for j in sorted(covered))


_RATES = st.one_of(
    st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0 / 3.0, 0.7]),
)


@st.composite
def _band_systems(draw):
    """A system of 2-7 frontends and backends with unit Hill curves, and tie
    masks that keep a nonempty subset of each frontend's edges."""
    nf = draw(st.integers(2, 7))
    nb = draw(st.integers(2, 7))
    edge = [[draw(st.booleans()) for _ in range(nb)] for _ in range(nf)]
    for i in range(nf):
        edge[i][i % nb] = True
    for j in range(nb):
        edge[j % nf][j] = True
    sys = make_system(
        frontends=[(f"f{i}", draw(_RATES)) for i in range(nf)],
        backends=[(f"b{j}", hill(1.0, 1.0)) for j in range(nb)],
        edges=[(f"f{i}", f"b{j}") for i in range(nf) for j in range(nb) if edge[i][j]],
    )
    # tie masks: a nonempty subset of each frontend's edges
    masks = []
    for i in range(nf):
        nbrs = sorted(sys.backends_of_frontend[i])
        keep = draw(st.lists(st.sampled_from(nbrs), min_size=1, max_size=len(nbrs)))
        masks.append(sum(1 << j for j in set(keep)))
    return sys, tuple(masks)


@st.composite
def _transport_cases(draw):
    sys, masks = draw(_band_systems())
    nf, nb = len(sys.frontends), len(sys.backends)
    # demands at the feasibility boundary: each frontend's whole rate on one
    # tied backend, so some subsets meet their supply exactly; then some
    # mass moved from one backend to another (which overloads the sets that
    # lose it), and nudges by whole ulps or by 1e-12
    w = [0.0] * nb
    for i in range(nf):
        tied = [j for j in range(nb) if masks[i] >> j & 1]
        w[draw(st.sampled_from(tied))] += sys.lambdas[i]
    src, dst = draw(st.integers(0, nb - 1)), draw(st.integers(0, nb - 1))
    moved = min(w[src], draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-3, 0.1, 1.0])))
    w[src] -= moved
    w[dst] += moved
    shift = draw(st.sampled_from([0.0, 1e-12, -1e-12]))
    for j in range(nb):
        w[j] = max(0.0, w[j] + shift)
        for _ in range(abs(ulps := draw(st.integers(-2, 2)))):
            w[j] = max(0.0, math.nextafter(w[j], math.copysign(math.inf, ulps)))
    # a negative demand, its mass moved to another backend (the kernel's
    # implied inflows below the w ≥ 0 face)
    if draw(st.booleans()):
        neg, dst = draw(st.integers(0, nb - 1)), draw(st.integers(0, nb - 1))
        a = draw(st.sampled_from([2e-12, 1e-9, 1e-3, 0.5]))
        w[dst] += w[neg] + a
        w[neg] = -a
    return sys, masks, w


@settings(max_examples=300, deadline=None)
@given(_transport_cases())
def test_one_flow_verdict_and_cut_match_full_enumeration(case):
    sys, tie, w = case
    fids, bids = sys.frontend_ids, sys.backend_ids
    tiers = [tier for tier in fluid_dyn._build_pattern(sys, tie).tiers if tier.f_idx]
    # two networks per tier: the one over every system edge inside it, which
    # ``transportation_feasible`` builds, and the kernel's one over the band
    # edges alone
    for tier, masks in [(tier, masks) for tier in tiers for masks in (None, tie)]:
        band = None if masks is None else {
            (fids[i], bids[j]) for i in tier.f_idx for j in _tier_neighbours(sys, tier, i, masks)}
        net = TransportNetwork(sys, [fids[i] for i in tier.f_idx],
                               [bids[j] for j in tier.b_idx], band)
        witness, low = net.solve([w[j] for j in net.b_idx])
        # the most any frontend set overloads its neighbourhood and the
        # negative demands, over all 2^|F| of them, and the gap between
        # demand and arrival totals
        most = max(_excess(sys, tier, w, pick, masks) for pick in range(1 << len(tier.f_idx)))
        lam_f = sum(sys.lambdas[i] for i in tier.f_idx)
        gap = abs(sum(w[j] for j in tier.b_idx) - lam_f)
        band = 1e-9 * (1.0 + lam_f)  # the flow's relative tolerance
        supply = {j for j in tier.b_idx if w[j] < 0.0}  # never met by a flow
        if most > 2 * band or gap > 2 * band or supply:
            assert witness is None
        elif most < band / 2 and gap < band / 2:
            assert witness is not None
        if witness is None:
            # the frontends whose in-tier neighbours all lie on the cut's
            # source side overload them by the enumerated maximum, and the
            # source side holds every supply above the flow's noise floor
            lower = sum(1 << k for k, i in enumerate(tier.f_idx)
                        if all(j in low for j in _tier_neighbours(sys, tier, i, masks)))
            assert set(low) <= set(tier.b_idx)
            assert {j for j in supply if w[j] < -1e-12} <= set(low)
            assert _excess(sys, tier, w, lower, masks) >= most - band
        else:  # the witness delivers the demands on the network's edges
            inflow = np.asarray(sys.lambdas) @ witness
            assert max(abs(inflow[j] - w[j]) for j in tier.b_idx) <= 2 * band
            for i in tier.f_idx:
                used = {j for j in range(len(bids)) if witness[i, j] > 0.0}
                assert used <= set(_tier_neighbours(sys, tier, i, masks))


# -- the demand tree -----------------------------------------------------------------


@st.composite
def _demand_tree_cases(draw):
    """Band systems with balanced demands at Hall boundaries: each
    frontend's rate on one or two tied backends, so the frontend sets whose
    flow lands inside their neighbourhood meet it exactly; then mass moved
    between two backends of one tier (which overloads the sets that lose
    it by a hair or by much), and each demand nudged by up to 2 ulps."""
    sys, masks = draw(_band_systems())
    nf, nb = len(sys.frontends), len(sys.backends)
    w = [0.0] * nb
    for i in range(nf):
        tied = [j for j in range(nb) if masks[i] >> j & 1]
        j, k = draw(st.sampled_from(tied)), draw(st.sampled_from(tied))
        part = sys.lambdas[i] * draw(st.sampled_from([0.0, 0.25, 0.5]))
        w[j] += sys.lambdas[i] - part
        w[k] += part
    tiers = [tier for tier in fluid_dyn._build_pattern(sys, masks).tiers if tier.f_idx]
    tier = draw(st.sampled_from(tiers))
    src, dst = draw(st.sampled_from(tier.b_idx)), draw(st.sampled_from(tier.b_idx))
    moved = min(w[src], draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-10, 1e-6, 0.1])))
    w[src] -= moved
    w[dst] += moved
    for j in range(nb):
        for _ in range(abs(ulps := draw(st.integers(-2, 2)))):
            w[j] = max(0.0, math.nextafter(w[j], math.copysign(math.inf, ulps)))
    return sys, masks, w


@settings(max_examples=300, deadline=None)
@given(_demand_tree_cases())
def test_an_accepted_demand_tree_is_a_witness_the_band_flow_accepts(case):
    sys, masks, w = case
    nf, nb = len(sys.frontends), len(sys.backends)
    kernel = fluid_dyn._Kernel(sys, IntegratorConfig())
    kernel.wbuf[:] = w
    for tier in fluid_dyn._build_pattern(sys, masks).tiers:
        if not tier.f_idx:
            continue
        xbuf = [0.0] * (nf * nb)
        if not kernel.demand_witness(tier, xbuf):
            continue
        net = fluid_dyn._tier_network(sys, tier)
        witness, _ = net.solve([w[j] for j in net.b_idx])
        assert witness is not None
        # the rows are simplex rows on band edges that realize the demands
        x = np.reshape(xbuf, (nf, nb))
        for i in tier.f_idx:
            assert min(x[i]) >= 0.0 and abs(x[i].sum() - 1.0) <= 1e-12
            assert {j for j in range(nb) if x[i, j] > 0.0} <= set(
                _tier_neighbours(sys, tier, i, masks))
        inflow = np.asarray(sys.lambdas)[list(tier.f_idx)] @ x[list(tier.f_idx)]
        assert max(abs(inflow[j] - w[j]) for j in tier.b_idx) <= 1e-12


def test_a_one_backend_tier_whose_tree_fails_by_rounding_never_takes_fixed_rows():
    # b0's tier has w = λ_T, summed in frontend order, and its tree sums the
    # three large λ the other way round: the root f0 (λ = 0) is left -1.2e-7,
    # below the tree's -1e-9 floor, at every step.  b1's tier is the plain
    # case, whose tree passes once and then writes its one-hot row directly
    lam = (148727122.6, 184523424.7, 134308381.4)
    assert sum(lam) - (lam[2] + lam[1] + lam[0]) < -1e-9
    sys = make_system(
        [("f0", 0.0), *((f"f{i}", v) for i, v in enumerate(lam, 1)), ("f4", 0.5)],
        [("b0", hill(1e9, 1e9)), ("b1", hill(1.0, 1.0))],
        [("f0", "b0"), ("f1", "b0"), ("f2", "b0"), ("f3", "b0"), ("f4", "b1")],
    )
    kernel = fluid_dyn._Kernel(sys, IntegratorConfig())
    for _ in range(3):
        kernel.sliding_step([1.0, 1.0], kernel.every, 0.0)
    big, small = kernel.pattern.tiers
    assert big.b_idx == (0,) and big.ones is None
    assert small.b_idx == (1,) and small.ones == [4 * 2 + 1]
    assert kernel.tree_misses == 3
    # every step misses the tree and the demand tree (the same star), and a
    # max flow gives the rows; the digest was recorded before one-backend
    # tiers had fixed rows
    traj = integrate_fluid(sys, [1.0, 1.0], 0.05)
    assert traj.stats == KernelStats(tree_misses=51, maxflow_witnesses=51, cuts=0, patterns=1)
    assert trajectory_digest(traj) == (
        "713a233ebb3030fa00f7009751826ece97b2cca50bd5d0a762ae1344f566d0f8")


def test_a_demand_tree_is_rebuilt_when_its_weight_order_changes(monkeypatch):
    # on this 12x12 run a tier of 5 frontends and 2 backends takes a demand
    # tree at row 1567 other than its last one, because two weights traded
    # places; every demand tree used is Kruskal's for its step's order
    rng = np.random.default_rng(3)
    sys = square_feasible_system(rng, 12)
    n0 = rng.uniform(0.0, 10.0, 12)
    demand, step = fluid_dyn._Kernel.demand_witness, fluid_dyn._Kernel.sliding_step
    row, changed = [0], []

    def timed_step(self, n, dirty, t):
        row[0] = round(t / IntegratorConfig().h)
        return step(self, n, dirty, t)

    def checked_demand(self, tier, xbuf):
        last = tier.tree
        weights = [self.lam[i] * self.wbuf[j] * d for (i, j), d in zip(tier.band, tier.inv_deg)]
        order = sorted(range(len(weights)), key=weights.__getitem__, reverse=True)
        ok = demand(self, tier, xbuf)
        assert tier.order == order and tier.tree == self.kruskal(tier, order)
        if last is not None and tier.tree != last:
            changed.append(row[0])
        return ok

    monkeypatch.setattr(fluid_dyn._Kernel, "sliding_step", timed_step)
    monkeypatch.setattr(fluid_dyn._Kernel, "demand_witness", checked_demand)
    traj = integrate_fluid(sys, n0, 2.0)
    assert changed == [1567]
    # recorded before demand trees were reused
    assert trajectory_digest(traj) == (
        "f93a138d9e0f6a4de64adb9b9c7202f0a51527890975aa507e5b7df80500ff35")


def _demand_block_cases():
    # (n and seed of the system square_feasible_system(default_rng(seed), n)
    # and its start, integrated to T = 2; the last row of a tier block whose
    # moving tier the demand tree routes; digest recorded from the integrator
    # that stepped every row with a tree miss through the kernel).  The
    # systems have exponential curves, so the digests use the platform's
    # math.exp (glibc's here)
    return {
        # the run of test_a_demand_tree_is_rebuilt_when_its_weight_order_changes:
        # two of the tier's weights trade places at row 1567
        "order": (12, 3, 1566,
                  "f93a138d9e0f6a4de64adb9b9c7202f0a51527890975aa507e5b7df80500ff35"),
        # the tier's pattern tree, which missed at every row from row 1647 on,
        # passes at row 1795
        "pattern": (4, 55, 1794,
                    "291d8ee534418a102e9d45bc6750d5621ecaa4c4c0e904252e6b87ed04730bdf"),
        # the demand tree routes a negative flow at row 1630, and a max flow
        # gives the rows
        "negative": (16, 51, 1629,
                     "aed9baaf551ddff1acbc90d248fb7aa37fa8bf1a1e1d9bd7951b609605c40599"),
    }


def _one_kernel_step(sys, n) -> fluid_dyn._Kernel:
    """A fresh kernel after one sliding step at n, with the default config."""
    k = fluid_dyn._Kernel(sys, IntegratorConfig())
    k.sliding_step(n.tolist(), k.every, 0.0)
    return k


@pytest.mark.parametrize("case", ["order", "pattern", "negative"])
def test_demand_tree_blocks_end_before_the_row_the_kernel_must_step(case, monkeypatch):
    # a tier block whose tier the demand tree routes ends before the row
    # whose weights sort to another order, whose pattern tree passes, or
    # whose demand tree routes a negative flow; each row in it misses as the
    # step before it did
    _, blocks = _record_blocks(monkeypatch)
    n, seed, last, digest = _demand_block_cases()[case]
    rng = np.random.default_rng(seed)
    sys = square_feasible_system(rng, n)
    n0 = rng.uniform(0.0, 10.0, n)
    cfg = IntegratorConfig()
    traj = integrate_fluid(sys, n0, 2.0, cfg)
    assert trajectory_digest(traj) == digest
    first = next(a for a, b in blocks if b == last)
    assert first < last
    inside, after = (_one_kernel_step(sys, traj.states[r]) for r in (last, last + 1))
    routed = [t for t in inside.pattern.tiers if t.b_mask & inside.routed]
    assert inside.missed >= len(routed) > 0
    assert after.masks == inside.masks
    tier = routed[0]
    if case == "order":
        assert after.routed == inside.routed and after.missed == inside.missed
        assert after.pattern.tiers[inside.pattern.tiers.index(tier)].order != tier.order
    elif case == "pattern":
        assert not after.routed & tier.b_mask and after.missed == inside.missed - 1
    else:
        assert after.missed is None and after.stats().maxflow_witnesses == 1
    _assert_rows_match_one_step_runs(
        sys, traj, cfg, [*range(first - 1, first + 2), *range(last - 1, last + 3)])


# -- V at split rows -----------------------------------------------------------------


def _split_rows_where_v_rises(sys, traj) -> list[int]:
    """Rows with a "split" event at which V = Σ_b |inflow_b − μ_b(N_b)|
    exceeds V of the row before by more than the sliding certificate's
    per-step tolerance 1e-7 + 10h."""
    h = float(traj.times[1] - traj.times[0])
    v = np.abs(traj.inflows - sys.rates_at(traj.states)).sum(axis=1)
    rows = {int(round(ev.time / h)) for ev in traj.events if ev.kind == "split"}
    return sorted(k for k in rows if k > 0 and v[k] > v[k - 1] + 1e-7 + 10.0 * h)


def _rows_off_the_band(sys, traj, cfg) -> list[int]:
    """Rows whose routing puts mass on an edge outside the row's tie masks."""
    off = []
    for k in range(len(traj)):
        masks = tie_masks(sys.backends_of_frontend,
                          sys.gradients_at(traj.states[k]).tolist(), cfg.tie_band)
        if any(traj.routings[k, i, j] > 0.0 and not masks[i] >> j & 1
               for i, nbrs in enumerate(sys.backends_of_frontend) for j in nbrs):
            off.append(k)
    return off


def _task_id(task) -> str:
    return f"{task[0]}x{task[1]}-s{task[2]}-n{task[3]}"


# Per wide task: the dynamics digest and the pattern-tree misses, cuts and
# patterns, all recorded from the integrator that ran a max flow on every
# tree miss, and the max flows left once the demand tree runs first.  The
# wide systems have exponential curves, so the digests use the platform's
# math.exp (glibc's here).
_WIDE_PINS = {
    "16x16-s1-n104": ("c8ba4a9b05b535ee26d19a86de0cc006c17aac21ccb1d8f822e911a83ef2f8d9",
                      1482, 312, 8, 312),
    "16x16-s1-n102": ("50fd43a75e670d208132615a99e5f46beceda74d8d900533b9c64bfa615d058d",
                      1105, 53, 10, 42),
    "32x32-s0-n101": ("b8ab243ced8e1d2bfd9871b019425ae7ac5dae981ec407b7dffd2f6d4a7c43db",
                      253, 50, 16, 55),
}


@pytest.mark.parametrize("task", WIDE_TASKS, ids=_task_id)
def test_v_does_not_rise_at_split_rows_of_the_wide_tasks(task):
    sys, n0, horizon = wide_task(*task)
    traj = integrate_fluid(sys, n0, horizon)
    digest, misses, cuts, patterns, flows = _WIDE_PINS[_task_id(task)]
    assert dynamics_digest(traj) == digest
    assert traj.stats == KernelStats(tree_misses=misses, maxflow_witnesses=flows, cuts=cuts,
                                     patterns=patterns)
    assert _split_rows_where_v_rises(sys, traj) == []
    # GMSR routes every job to a tied-best backend: rows stay on band edges,
    # and every row is a routing that realizes the step's inflows
    assert _rows_off_the_band(sys, traj, IntegratorConfig()) == []
    for x in traj.routings:
        assert validate_routing(sys, x, tol=1e-9) == []
    realized = np.einsum("f,kfb->kb", np.asarray(sys.lambdas), traj.routings)
    assert np.abs(realized - traj.inflows).max() <= 1e-12


def test_wide_rows_after_each_witness_kind_match_one_step_runs(monkeypatch):
    # a tier's rows come from the pattern's tree, the step's demand tree, a
    # max flow, or, after a cut, from its pieces: whichever it is, a row is
    # what a fresh one-step run from the same workload gives
    kernel = fluid_dyn._Kernel
    step, demand, flow = kernel.sliding_step, kernel.demand_witness, kernel.band_flow
    now = [0.0]
    found: dict[str, set[int]] = {}

    def note(kind: str) -> None:
        found.setdefault(kind, set()).add(round(now[0] / IntegratorConfig().h))

    def timed_step(self, n, dirty, t):
        now[0] = t
        return step(self, n, dirty, t)

    def noted_demand(self, tier, xbuf):
        ok = demand(self, tier, xbuf)
        if ok:
            note("demand tree")
        return ok

    def noted_flow(self, tier, xbuf):
        drop = flow(self, tier, xbuf)
        note("max flow" if drop < 0 else "cut")
        return drop

    runs = []
    for task in WIDE_TASKS:
        sys, n0, horizon = wide_task(*task)
        found.clear()
        monkeypatch.setattr(kernel, "sliding_step", timed_step)
        monkeypatch.setattr(kernel, "demand_witness", noted_demand)
        monkeypatch.setattr(kernel, "band_flow", noted_flow)
        traj = integrate_fluid(sys, n0, horizon)
        monkeypatch.undo()
        rows = set()
        for kind_rows in found.values():
            first = sorted(kind_rows)
            rows.update(k + d for k in (*first[:2], first[-1]) for d in (0, 1))
        runs.append((sys, traj, sorted(k for k in rows if k < len(traj)), set(found)))
    # the 16x16 tasks resolve every miss by the demand tree or a cut; only
    # the 32x32 task has tiers whose witness still takes a max flow
    assert [kinds for *_, kinds in runs] == [
        {"demand tree", "cut"}, {"demand tree", "cut"}, {"demand tree", "max flow", "cut"}]
    for sys, traj, rows, _ in runs:
        _assert_rows_match_one_step_runs(sys, traj, IntegratorConfig(), rows)


@pytest.mark.parametrize("task", WIDE_TASKS[1:], ids=_task_id)
def test_demand_tree_block_rows_are_what_stepping_gives(task, monkeypatch):
    # on these wide tasks a tier's pattern tree misses for hundreds of rows
    # in a row, and the demand tree routes it: tier blocks step most of the
    # rows with a tree miss, as the kernel steps them
    _, blocks = _record_blocks(monkeypatch)
    kernel = fluid_dyn._Kernel
    step, tier_rows = kernel.sliding_step, kernel.tier_rows
    miss_rows = {"kernel": 0, "block": 0}

    def counted_step(self, *args):
        before = self.tree_misses
        out = step(self, *args)
        miss_rows["kernel"] += self.tree_misses > before
        return out

    def counted_blocks(self, *args):
        missed = self.missed
        out = tier_rows(self, *args)
        if not args[-1] and missed:
            miss_rows["block"] += out[0]
        return out

    monkeypatch.setattr(kernel, "sliding_step", counted_step)
    monkeypatch.setattr(kernel, "tier_rows", counted_blocks)
    sys, n0, horizon = wide_task(*task)
    cfg = IntegratorConfig()
    traj = integrate_fluid(sys, n0, horizon, cfg)
    digest, misses, cuts, patterns, flows = _WIDE_PINS[_task_id(task)]
    assert dynamics_digest(traj) == digest
    assert traj.stats == KernelStats(tree_misses=misses, maxflow_witnesses=flows, cuts=cuts,
                                     patterns=patterns)
    assert miss_rows["block"] > miss_rows["kernel"]
    _assert_rows_match_one_step_runs(
        sys, traj, cfg, [r for a, b in blocks for r in (a, a + 1, b)])


def test_a_64x64_system_integrates_and_certifies_within_its_budget():
    # digests and Δ recorded before one-backend tiers had fixed rows, demand
    # trees were reused and the slack ranked its forced cuts warm; each
    # budget is several times what that code took (0.21 s, 0.15 s and 0.35 s
    # on a 2-vCPU Xeon)
    rng = np.random.default_rng(0)
    sys = square_feasible_system(rng, 64)
    n0 = rng.uniform(0.0, 10.0, 64)
    pins = {
        "sliding": ("75aefeabb236d27b870064ce742892dbe92cd57ceb525486ff88b758f472ae7c", 1.0,
                    KernelStats(tree_misses=122, maxflow_witnesses=122, cuts=19, patterns=18)),
        "strict-argmax": ("5698700ca426c9721b01cb112dddfe92cfd686fa71a39394458af824823fa06e", 0.6,
                          KernelStats(patterns=59)),
    }
    runs = {}
    for mode, (digest, budget, stats) in pins.items():
        t0 = time.perf_counter()
        runs[mode] = traj = integrate_fluid(sys, n0, 0.2, IntegratorConfig(mode=mode))
        assert time.perf_counter() - t0 < budget
        assert traj.stats == stats
        assert trajectory_digest(traj) == digest
    t0 = time.perf_counter()
    slack = capacity_slack(sys)
    cert = certify_trajectory(sys, runs["sliding"], slack)
    assert time.perf_counter() - t0 < 1.5
    assert slack.delta == float.fromhex("0x1.0eae7d2f8a2acp+4")
    # the horizon ends before the entry deadline: no sample reaches K
    assert cert.ok and cert.entry_time is None


def _random_square_start(n: int, seed: int):
    """A random feasible n×n system and a start in [0, 10]^n from the same
    stream."""
    rng = np.random.default_rng(seed)
    sys = square_feasible_system(rng, n)
    return sys, rng.uniform(0.0, 10.0, size=n)


def _random_square_run(n: int, seed: int):
    """A random square start (``_random_square_start``) and its default
    sliding run to T = 2."""
    sys, n0 = _random_square_start(n, seed)
    cfg = IntegratorConfig()
    return sys, integrate_fluid(sys, n0, 2.0, cfg), cfg


# At rows 1671 of (6, 8) and 987 of (6, 319) a backend's implied inflow goes
# negative.  Splitting it off with every band edge into it raised V there
# (4.758 → 5.317 and 7.545 → 7.791) and missed the drift's KKT point; the
# min cut with that inflow as supply does neither.


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
@example(6, 8)
@example(6, 319)
def test_v_does_not_rise_at_min_cut_split_rows_of_random_square_systems(n, seed):
    sys, traj, _ = _random_square_run(n, seed)
    assert _split_rows_where_v_rises(sys, traj) == []


def _off_the_drift_kkt_point(sys, n, inflow, x, tie_band) -> bool:
    """Whether the inflows w = λ·x of routing x at workload n miss the KKT
    condition of the sliding drift's QP: minimize Σ_b |μ″_b|(w_b − μ_b)²/2
    over the inflows of routings on the band edges at n.  With
    q_b = |μ″_b(N_b)|·(w_b − μ_b(N_b)), each frontend's edges that carry flow
    (above 1e-8) must have the least q among its band edges, within
    1e-6·(1 + max|q|)."""
    q = np.abs(sys.curvatures_at(n)) * (inflow - sys.rates_at(n))
    masks = tie_masks(sys.backends_of_frontend, sys.gradients_at(n).tolist(), tie_band)
    tol = 1e-6 * (1.0 + np.abs(q).max())
    for i, nbrs in enumerate(sys.backends_of_frontend):
        lam = sys.lambdas[i]
        if lam <= 0.0:
            continue
        band = min(q[j] for j in nbrs if masks[i] >> j & 1)
        if any(q[j] > band + tol for j in nbrs if lam * x[i, j] > 1e-8):
            return True
    return False


def _rows_off_the_drift_kkt_point(sys, traj, cfg) -> list[int]:
    """Sampled rows (every split row and every 97th) whose inflows miss the
    drift QP's KKT condition (``_off_the_drift_kkt_point``)."""
    h = cfg.h
    rows = {int(round(ev.time / h)) for ev in traj.events if ev.kind == "split"}
    rows.update(range(0, len(traj), 97))
    return [k for k in sorted(rows) if _off_the_drift_kkt_point(
        sys, traj.states[k], traj.inflows[k], traj.routings[k], cfg.tie_band)]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
@example(6, 8)
@example(6, 319)
def test_sliding_rows_of_random_square_systems_meet_the_drift_kkt_condition(n, seed):
    sys, traj, cfg = _random_square_run(n, seed)
    assert _rows_off_the_drift_kkt_point(sys, traj, cfg) == []


def test_a_frontend_whose_band_edges_all_lie_on_the_cut_keeps_them(monkeypatch):
    # One tier at the start: fA overloads b1 at the equalized drift, so the
    # min cut's source side is {b1}.  fU also reaches b3 inside the tier,
    # but its only band edge goes to b1 (b3 lies 0.08 below b1, outside the
    # 0.05 band), so the cut over band edges puts it in the lower set with
    # fA: it keeps its band edge and routes with the lower sub-tier.
    sys = make_system(
        frontends=[("fA", 3.0), ("fU", 0.1), ("fD", 0.1), ("fC", 0.2)],
        backends=[("b1", hill(4.0, 1.0)), ("b2", hill(3.84, 1.0)), ("b3", hill(3.68, 1.0))],
        edges=[("fA", "b1"), ("fU", "b1"), ("fU", "b3"), ("fD", "b1"), ("fD", "b2"),
               ("fC", "b2"), ("fC", "b3")],
    )
    cfg = IntegratorConfig(tie_band=0.05)
    traj = integrate_fluid(sys, [1.0, 1.0, 1.0], 0.05, cfg)
    stranded = [k for k in range(len(traj)) if traj.routings[k, 1, 0] == 1.0]
    assert stranded[:3] == [0, 1, 2]  # also on rows that have a row before
    assert traj.stats.cuts >= len(stranded)
    for k in range(len(traj)):
        assert validate_routing(sys, traj.routings[k], tol=1e-9) == []
    v = np.abs(traj.inflows - sys.rates_at(traj.states)).sum(axis=1)
    assert np.all(v[1:] <= v[:-1] + 1e-7 + 10.0 * cfg.h)

    # a cut that changes no tie mask cannot split the tier: the run stops
    # and names the tier and the time
    monkeypatch.setattr(fluid_dyn._Kernel, "band_flow", lambda self, tier, xbuf: 0)
    with pytest.raises(IntegrationError,
                       match=r"min cut of tier \['b1', 'b2', 'b3'\] at t=0 changes no mask"):
        integrate_fluid(sys, [1.0, 1.0, 1.0], 0.05, cfg)
