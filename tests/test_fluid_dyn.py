import itertools
import math
import time
import tracemalloc
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmsr import fluid_dyn
from gmsr.cli import load_scenario
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


# -- sliding_drift ----------------------------------------------------------------


def test_sliding_drift_single_backend_tier_absorbs_imbalance():
    sys = _single_pair(0.5)
    n = np.array([0.3 / 0.7])  # rate 0.3, so S = 0.2
    part = compute_tiers(sys, sys.gradients_at(n), 1e-3)
    v, x, feasible = sliding_drift(sys, n, part)
    assert v[0] == pytest.approx(0.2, abs=1e-12)
    assert x[0, 0] == 1.0
    assert feasible == (True,)


def test_sliding_drift_zero_at_optimum():
    sys = _n_model_04_06()
    n = np.array([SQRT2, SQRT2])
    part = compute_tiers(sys, sys.gradients_at(n), 1e-6)
    assert len(part) == 1  # equal gradients merge everything
    v, x, feasible = sliding_drift(sys, n, part)
    assert np.max(np.abs(v)) <= 1e-12
    assert feasible == (True,)
    assert np.asarray(sys.lambdas) @ x == pytest.approx(sys.rates_at(n), abs=1e-9)


def test_sliding_drift_symmetric_even_split():
    sys = _symmetric_pairbones()
    n = np.zeros(2)
    part = compute_tiers(sys, sys.gradients_at(n), 1e-9)
    v, x, feasible = sliding_drift(sys, n, part)
    assert v == pytest.approx([0.25, 0.25], abs=1e-12)
    assert x[0] == pytest.approx([0.5, 0.5], abs=1e-9)
    assert feasible == (True,)


def test_sliding_drift_flags_infeasible_tier():
    # both gradients tie at N=0, but f1 can only reach b1 while the equalized
    # drift would hand half of the total inflow to b2: no routing realizes it
    sys = make_system(
        frontends=[("f1", 0.9), ("f2", 0.1)],
        backends=[("b1", hill(3, 1)), ("b2", hill(3, 1))],
        edges=[("f1", "b1"), ("f2", "b1"), ("f2", "b2")],
    )
    part = compute_tiers(sys, sys.gradients_at(np.zeros(2)), 1e-9)
    assert len(part) == 1
    v, x, feasible = sliding_drift(sys, np.zeros(2), part)
    assert feasible == (False,)
    assert v == pytest.approx([0.5, 0.5], abs=1e-12)  # drift is still reported
    for i in range(2):  # fallback rows are valid one-hot routings
        assert x[i].sum() == pytest.approx(1.0)


def test_sliding_drift_tier_drifts_share_sign():
    rng = np.random.default_rng(1234)
    for _ in range(40):
        sys = random_system(rng)
        n = rng.uniform(0.0, 5.0, size=len(sys.backends))
        part = compute_tiers(sys, sys.gradients_at(n), 1e-3)
        v, _, _ = sliding_drift(sys, n, part)
        for tier in part:
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
    entered at `start`: the row after a fixed point, or one period after the
    first Brent checkpoint (rows 1, 2, 4, ...) at or past both the start and
    the period."""
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


def _acceptance_system(index: int):
    """System `index` of the acceptance battery (seed 424242), first start."""
    rng = np.random.default_rng(424242)
    for _ in range(index + 1):
        sys = feasible_random_system(rng)
        starts = [rng.uniform(0.0, 10.0, size=len(sys.backends)) for _ in range(10)]
    return sys, starts[0]


def test_exact_orbit_is_continued_as_stepping_would():
    # acceptance system 0 under strict argmax enters an exact period-253 orbit
    sys, n0 = _acceptance_system(0)
    cfg = IntegratorConfig(mode="strict-argmax")
    traj = integrate_fluid(sys, n0, 200.0, cfg)
    last = len(traj) - 1
    period, start = _orbit(traj.states)
    assert period == 253 and 15000 < start < 25000
    repeat = _repeat_row(period, start)
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
    sys, n0 = _acceptance_system(4)
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
    computed = [0]  # rows the kernel steps or a frozen stretch computes

    def counting(method):
        def wrapped(self, *args):
            out = method(self, *args)
            computed[0] += out if method is held_rows else 1
            return out
        return wrapped

    held_rows = fluid_dyn._Kernel.held_rows
    for name in ("sliding_step", "argmax_step", "held_rows"):
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


def _record_held_blocks(monkeypatch) -> list[tuple[int, int]]:
    """Wrap the kernel's steps and held blocks.  The returned list fills with
    the first and last row of each held block of the next run."""
    blocks: list[tuple[int, int]] = []
    row = [0]  # the row the next step or block starts at

    def counting(method, held):
        def wrapped(self, *args):
            out = method(self, *args)
            rows = out if held else 1
            if held and rows:
                blocks.append((row[0], row[0] + rows - 1))
            row[0] += rows
            return out
        return wrapped

    for name in ("sliding_step", "argmax_step", "held_rows"):
        method = getattr(fluid_dyn._Kernel, name)
        monkeypatch.setattr(fluid_dyn._Kernel, name, counting(method, name == "held_rows"))
    return blocks


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
    blocks = _record_held_blocks(monkeypatch)
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
    blocks = _record_held_blocks(monkeypatch)
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
    blocks = _record_held_blocks(monkeypatch)
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
    # stays below b5.  Windows on each gradient alone hold for one row at a
    # time there, so held stretches take one row and leave the next to the
    # kernel, until the slide at row 3445; then they run to the end
    blocks = _record_held_blocks(monkeypatch)
    sys = fig1_system()
    cfg = IntegratorConfig(mode="strict-argmax")
    traj = integrate_fluid(sys, np.ones(5), 50.0, cfg)
    # recorded from the integrator that stepped these rows through the kernel
    assert trajectory_digest(traj) == (
        "4ce511ef9368aecf6fc79b7cc73bdbc5b656ef23e3fdf387ff3fa7de244894e3")
    assert [(round(ev.time / cfg.h), ev.kind) for ev in traj.events][-1] == (3445, "slide")
    assert sum(first == last for first, last in blocks) > 40
    assert blocks[-1] == (32769, 49999)
    _assert_rows_match_one_step_runs(
        sys, traj, cfg, [*range(0, 3500, 11), *range(3430, 3460), *range(32760, 32775), 50000])


@st.composite
def _window_cases(draw):
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
    rise = draw(st.integers(0, 2**nb - 1)) & movers
    pace = [draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.1])) for _ in range(nb)]
    span = draw(st.sampled_from([1, 64, 10**5]))
    # the movers' gradients somewhere else: a step of about the band
    other = [g + draw(st.floats(-2 * band, 2 * band)) if movers >> j & 1 else g
             for j, g in enumerate(grads)]
    return sys, band, grads, movers, rise, pace, span, draw(st.booleans()), other


def _argmaxes(neighbors, grads) -> list[int]:
    return [max(nbrs, key=lambda j: (grads[j], -j)) for nbrs in neighbors]


@settings(max_examples=400, deadline=None)
@given(_window_cases())
def test_gradient_windows_keep_every_mask_and_argmax(case):
    # every corner of the box of windows (a mask or argmax condition is a
    # pairwise comparison, so its worst case is a corner) keeps the masks
    # and, under strict argmax, the argmax of each frontend next to a mover;
    # ``holds`` tells whether gradients elsewhere keep them
    sys, band, grads, movers, rise, pace, span, strict, other = case
    k = fluid_dyn._Kernel(sys, IntegratorConfig(tie_band=band,
                                                mode="strict-argmax" if strict else "sliding"))
    k.masks = tie_masks(k.neighbors, grads, band)
    k.best = _argmaxes(k.neighbors, grads) if strict else None
    fronts = [i for i, nbrs in enumerate(k.neighbors) if any(movers >> j & 1 for j in nbrs)]

    def keeps(at) -> bool:
        masks, best = tie_masks(k.neighbors, at, band), _argmaxes(k.neighbors, at)
        return all(masks[i] == k.masks[i] and (not strict or best[i] == k.best[i])
                   for i in fronts)

    assert k.holds(fronts, grads)
    assert k.holds(fronts, other) == keeps(other)
    lo, hi = k.windows(rise, movers & ~rise, fronts, grads, pace, span)
    moving = [j for j in range(len(grads)) if movers >> j & 1]
    for j, g in enumerate(grads):
        assert lo[j] <= g <= hi[j]
        if j not in moving:
            assert lo[j] == g == hi[j]
        elif rise >> j & 1:
            assert lo[j] == g
        else:
            assert hi[j] == g
    for corner in itertools.product(*[(lo[j], hi[j]) for j in moving]):
        at = list(grads)
        for j, g in zip(moving, corner):
            at[j] = min(max(g, -1e300), 1e300)
        assert keeps(at), (corner, lo, hi)


@given(st.floats(-4.0, 4.0), st.sampled_from([0.0, 1e-3, 0.05, 0.3]),
       st.sampled_from([0.0, 1e-300, 1e-20, 1e-9]))
def test_the_band_inverses_are_exact(v, d, nudge):
    # near v = −d, g − d rounds to v for g across very many floats below d
    for v in (v, nudge - d):
        g = fluid_dyn._below(v, d)
        assert g - d <= v < math.nextafter(g, math.inf) - d
        g = fluid_dyn._above(v, d)
        assert g - d >= v > math.nextafter(g, -math.inf) - d


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


@pytest.mark.parametrize("mode", ["sliding", "strict-argmax"])
def test_recording_peak_stays_near_the_returned_arrays(mode):
    # acceptance system 4 drains b1 for most of its 200k steps: its inflow
    # and routing rows are recorded once per change and taken by index, and
    # its states returned as the recording itself
    sys, n0 = _acceptance_system(4)
    tracemalloc.start()
    try:
        traj = integrate_fluid(sys, n0, 200.0, IntegratorConfig(mode=mode))
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


@settings(max_examples=80, deadline=None)
@given(_small_runs())
def test_incremental_steps_match_one_step_runs(run):
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


def test_orbit_through_boundary_clamps_is_continued_with_its_clamps():
    # two steep Hill backends (h·cap/half = 2) share one frontend: under
    # strict argmax the backend left without inflow undershoots zero, so the
    # run alternates (hλ, 0), (0, hλ) with a clamp at every step from t = 2h
    sys = make_system(
        [("f1", 0.5)],
        [("b1", hill(2000.0, 1.0)), ("b2", hill(2000.0, 1.0))],
        [("f1", "b1"), ("f1", "b2")],
    )
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


def test_steps_that_reuse_tiers_count_the_tree_misses_of_a_full_step():
    # a sliding run that alternates steps reusing the previous step's tiers
    # with tree misses that the demand tree resolves: a step after a miss
    # must be computed in full, or the misses of its unmoved tiers go
    # uncounted.  The miss count and the dynamics digest were recorded from
    # the integrator that recomputed every step, and are unchanged since
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


def test_step_budget_is_refused_before_recording():
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="step budget"):
        integrate_fluid(_single_pair(0.5), [0.0], 1e9)
    with pytest.raises(ValueError, match="step budget"):
        integrate_fluid(_single_pair(0.5), [0.0], 1e300, IntegratorConfig(h=1e-300))
    assert time.perf_counter() - t0 < 1.0


def test_lazy_event_tiers_match_compute_tiers():
    # battery system 0 of the acceptance suite chatters under strict argmax
    rng = np.random.default_rng(424242)
    sys = feasible_random_system(rng)
    n0 = rng.uniform(0.0, 10.0, size=len(sys.backends))
    cfg = IntegratorConfig(mode="strict-argmax")
    traj = integrate_fluid(sys, n0, 20.0, cfg)
    assert len(traj.events) > 5000
    for ev in traj.events:
        k = int(round(ev.time / cfg.h))
        assert ev.time == traj.times[k]
        ref = compute_tiers(sys, sys.gradients_at(traj.states[k]), cfg.tie_band)
        assert [(t.frontends, t.backends) for t in ev.tiers] == [
            (t.frontends, t.backends) for t in ref
        ]
        for got, want in zip(ev.tiers, ref):
            assert got.gradient == pytest.approx(want.gradient, rel=1e-12)
    again = integrate_fluid(sys, n0, 20.0, cfg)
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


def test_kernel_step_matches_public_sliding_drift():
    rng = np.random.default_rng(777)
    checked = 0
    for _ in range(20):
        sys = feasible_random_system(rng)
        n = rng.uniform(0.0, 3.0, size=len(sys.backends))
        part = compute_tiers(sys, sys.gradients_at(n), 1e-3)
        v, _, feasible = sliding_drift(sys, n, part)
        if not all(feasible):
            continue
        traj = integrate_fluid(sys, n, 1e-3)  # exactly one Euler step
        if any(e.kind == "split" for e in traj.events):
            continue
        step = (traj.states[1] - traj.states[0]) / 1e-3
        clamped = traj.states[1] == 0.0
        assert np.allclose(step[~clamped], v[~clamped], atol=1e-9)
        checked += 1
    assert checked >= 10


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
    # ``transportation_feasible`` (and so ``sliding_drift``) builds, and the
    # kernel's one over the band edges alone
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


def _random_square_run(n: int, seed: int):
    """A random feasible n×n system, a start in [0, 10]^n from the same
    stream, and its default sliding run to T = 2."""
    rng = np.random.default_rng(seed)
    sys = square_feasible_system(rng, n)
    n0 = rng.uniform(0.0, 10.0, size=n)
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


def _rows_off_the_drift_kkt_point(sys, traj, cfg) -> list[int]:
    """Sampled rows (every split row and every 97th) whose inflows miss the
    KKT condition of the sliding drift's QP: minimize Σ_b |μ″_b|(w_b − μ_b)²/2
    over the inflows w = λ·x of routings x on the row's band edges.  With
    q_b = |μ″_b(N_b)|·(w_b − μ_b(N_b)), each frontend's edges that carry
    flow (above 1e-8) must have the least q among its band edges, within
    1e-6·(1 + max|q|)."""
    h = cfg.h
    rows = {int(round(ev.time / h)) for ev in traj.events if ev.kind == "split"}
    rows.update(range(0, len(traj), 97))
    off = []
    for k in sorted(rows):
        n = traj.states[k]
        q = np.abs(sys.curvatures_at(n)) * (traj.inflows[k] - sys.rates_at(n))
        masks = tie_masks(sys.backends_of_frontend, sys.gradients_at(n).tolist(), cfg.tie_band)
        tol = 1e-6 * (1.0 + np.abs(q).max())
        for i, nbrs in enumerate(sys.backends_of_frontend):
            lam = sys.lambdas[i]
            if lam <= 0.0:
                continue
            band = min(q[j] for j in nbrs if masks[i] >> j & 1)
            if any(q[j] > band + tol for j in nbrs if lam * traj.routings[k, i, j] > 1e-8):
                off.append(k)
                break
    return off


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
