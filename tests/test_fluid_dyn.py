import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmsr import fluid_dyn
from gmsr.flownet import TransportNetwork
from gmsr.fluid_dyn import (
    IntegratorConfig,
    KernelStats,
    gmsr_routing_set,
    integrate_fluid,
    modes_agree,
    sliding_drift,
)
from gmsr.fluid_opt import solve_fluid_optimum
from gmsr.model import hill, make_system, validate_routing
from gmsr.tiers import compute_tiers

from support import (
    feasible_random_system,
    fig1_system,
    random_system,
    square_feasible_system,
    trajectory_digest,
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
    ("sliding", "2c842f7a1d416d6ff61f394dd52916b0797847c5da8aa1f46496f82589ec42d4"),
    ("strict-argmax", "2983be59b577367a58a1e8031a3510e5efebb44c2ee2a7b82b939f41f23d6af5"),
], ids=["sliding", "strict-argmax"])
def test_rows_after_a_bitwise_fixed_point_are_what_stepping_gives(mode, digest):
    sys = fig1_system()
    cfg = IntegratorConfig(mode=mode)
    traj = integrate_fluid(sys, np.zeros(5), 20.0, cfg)
    # recorded from the integrator that recomputed every step up to the
    # fixed point; fig1's Hill curves use only correctly rounded arithmetic,
    # so the digest does not depend on the platform's libm
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
    # recorded from the integrator before orbits were continued by copying;
    # Hill curves use only correctly rounded arithmetic, so these digests
    # do not depend on the platform's libm
    assert trajectory_digest(traj) == (
        "9ac55e0c97c417bc0e87d521b762df9a663371ffa4150f7878eff8450a02b807")


def test_steps_that_reuse_tiers_count_the_tree_misses_of_a_full_step():
    # a sliding run that alternates steps reusing the previous step's tiers
    # with tree misses that max flow resolves: a step after a miss must be
    # computed in full, or the misses of its unmoved tiers go uncounted.
    # Counts and digest recorded from the integrator that recomputed every
    # step; Hill curves only, so they do not depend on the platform's libm
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
    assert traj.stats == KernelStats(tree_misses=986, maxflow_witnesses=986, patterns=4)
    assert trajectory_digest(traj) == (
        "86cb714aa368d67518ce35c83cbbd3cf2ab4e29adecb36e0c5307db12e79c6ef")


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
        ("tree_misses", "hall_rejections", "maxflow_witnesses", "patterns",
         "evicting_flows", "failed_witnesses"), 0)
    kernel = fluid_dyn._Kernel
    _counting(monkeypatch, kernel, "tree_witness", counts, "tree_misses", lambda ok: not ok)
    _counting(monkeypatch, kernel, "hall_ok", counts, "hall_rejections", lambda ok: not ok)
    _counting(monkeypatch, TransportNetwork, "solve", counts, "maxflow_witnesses",
              lambda out: True)
    _counting(monkeypatch, fluid_dyn, "_build_pattern", counts, "patterns", lambda out: True)
    _counting(monkeypatch, kernel, "tier_flows", counts, "evicting_flows", lambda j: j >= 0)
    _counting(monkeypatch, kernel, "exact_witness", counts, "failed_witnesses",
              lambda ok: not ok)
    traj = integrate_fluid(sys, n0, 0.5)

    stats = traj.stats
    assert stats == plain.stats
    assert traj.states.tobytes() == plain.states.tobytes()
    assert stats.tree_misses == counts["tree_misses"]
    assert stats.hall_rejections == counts["hall_rejections"]
    assert stats.maxflow_witnesses == counts["maxflow_witnesses"]
    assert stats.patterns == counts["patterns"]
    # every miss is either rejected by a Hall table or sent to max flow
    assert stats.tree_misses == stats.hall_rejections + stats.maxflow_witnesses
    # every tier found bad is resolved by one eviction or one forced step
    assert stats.evictions + stats.forced_steps == (
        counts["evicting_flows"] + counts["failed_witnesses"])
    # this system exercises every path but the forced strict-argmax step
    assert stats.tree_misses > 0 and stats.hall_rejections > 0
    assert stats.maxflow_witnesses > 0 and stats.evictions > 0
    assert sum(1 for ev in traj.events if ev.kind == "split") <= stats.evictions


def test_kernel_stats_in_strict_argmax_mode_count_patterns_only():
    traj = integrate_fluid(fig1_system(), [0.0] * 5, 2.0, IntegratorConfig(mode="strict-argmax"))
    assert traj.stats.patterns > 0
    assert traj.stats == KernelStats(patterns=traj.stats.patterns)


# -- covered-set Hall tables --------------------------------------------------------


def _full_hall_verdict(sys, tier, w) -> bool:
    """Hall's condition over all 2^|F| - 1 frontend subsets of a tier: λ(P)
    summed in frontend order against the demand of its covered backends
    (original edges inside the tier) summed in index order, 1e-12 slack."""
    b_in = set(tier.b_idx)
    for pick in range(1, 1 << len(tier.f_idx)):
        lam_p = 0.0
        covered = set()
        for k, i in enumerate(tier.f_idx):
            if pick >> k & 1:
                lam_p += sys.lambdas[i]
                covered.update(j for j in sys.backends_of_frontend[i] if j in b_in)
        supply = 0.0
        for j in sorted(covered):
            supply += w[j]
        if lam_p > supply + 1e-12:
            return False
    return True


_RATES = st.one_of(
    st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0 / 3.0, 0.7]),
)


@st.composite
def _hall_cases(draw):
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
    # demands at the Hall boundary: each frontend's whole rate on one tied
    # backend, so some subsets meet their supply exactly, then nudged by
    # whole ulps, and optionally by the table's 1e-12 slack
    w = [0.0] * nb
    for i in range(nf):
        tied = [j for j in range(nb) if masks[i] >> j & 1]
        w[draw(st.sampled_from(tied))] += sys.lambdas[i]
    shift = draw(st.sampled_from([0.0, 1e-12, -1e-12]))
    for j in range(nb):
        w[j] = max(0.0, w[j] + shift)
        for _ in range(abs(ulps := draw(st.integers(-2, 2)))):
            w[j] = max(0.0, math.nextafter(w[j], math.copysign(math.inf, ulps)))
    return sys, tuple(masks), w


@settings(max_examples=300, deadline=None)
@given(_hall_cases())
def test_covered_set_hall_table_matches_full_enumeration(case):
    sys, masks, w = case
    pattern = fluid_dyn._build_pattern(sys, masks)
    kernel = fluid_dyn._Kernel(sys, IntegratorConfig())
    kernel.wbuf[:] = w
    for tier in pattern.tiers:
        if tier.hall:
            assert len(tier.hall) < 1 << min(len(tier.f_idx), len(tier.b_idx))
            assert kernel.hall_ok(tier) is _full_hall_verdict(sys, tier, w)
