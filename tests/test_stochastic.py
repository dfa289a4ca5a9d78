"""Tests for the discrete stochastic simulator.

Covers bit-level equality with the scalar oracle, reproducibility, the
exact integer conservation law, routing/drift correctness at frozen states
(Monte-Carlo z-scores against analytic drift), departure clamping,
fluid-limit convergence diagnostics, and input validation.
"""

import math
import tracemalloc
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

import gmsr.stochastic as stochastic
from gmsr.cli import load_scenario
from gmsr.fluid_dyn import IntegratorConfig, integrate_fluid
from gmsr.fluid_opt import solve_fluid_optimum
from gmsr.model import hill, make_system
from gmsr.stochastic import (
    DiscreteState,
    SampledRun,
    compare_to_fluid,
    mean_drift_check,
    rng_streams,
    simulate,
    step,
)

from support import random_system, scalar_advance, scalar_drift, scalar_simulate

SCENARIOS = Path(str(files("gmsr").joinpath("scenarios")))


def _n_model():
    """Two frontends, two hill backends, f2 connected to both; underloaded."""
    return make_system(
        frontends=[("f1", 0.4), ("f2", 0.6)],
        backends=[("b1", hill(1.0, 1.0)), ("b2", hill(1.0, 2.0))],
        edges=[("f1", "b1"), ("f2", "b1"), ("f2", "b2")],
    )


def _single_pair(lam=0.5):
    return make_system([("f1", lam)], [("b1", hill(1.0, 1.0))], [("f1", "b1")])


def _tie_heavy():
    """f1 has no arrivals, f2 a λ = 12 stream (Poisson by rejection) over
    all three backends, f3 λ = 0.5 over b2 and b3.  b1 and b2 are the same
    Hill curve, so they tie exactly whenever their counts agree and the
    jobs split by multinomial; b3's initial slope of 3000 makes it clamp at
    every scale used here."""
    return make_system(
        frontends=[("f1", 0.0), ("f2", 12.0), ("f3", 0.5)],
        backends=[("b1", hill(6.0, 1.0)), ("b2", hill(6.0, 1.0)), ("b3", hill(30.0, 0.01))],
        edges=[("f1", "b1"), ("f1", "b2"), ("f2", "b1"), ("f2", "b2"), ("f2", "b3"),
               ("f3", "b2"), ("f3", "b3")],
    )


_RUN_ARRAYS = ("times", "y", "arrivals", "departures", "frontend_arrivals", "clamps")


def _assert_same_run(run, oracle):
    for name in _RUN_ARRAYS:
        got, want = getattr(run, name), getattr(oracle, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


# ---------------------------------------------------------------------------
# bit-level equality with the scalar oracle


@pytest.mark.parametrize("thin", [1, 7])
@pytest.mark.parametrize("policy", ["gmsr", "random"])
@pytest.mark.parametrize("c, horizon", [(20, 40.0), (1000, 3.0)])
@pytest.mark.parametrize("name", ["n_model", "fig1", "overload_nmodel"])
def test_bundled_runs_equal_the_scalar_oracle(name, c, horizon, policy, thin):
    scn = load_scenario(SCENARIOS / f"{name}.json")
    run = simulate(scn.system, scn.initial, c, horizon, policy, seed=4, thin=thin)
    oracle = scalar_simulate(scn.system, scn.initial, c, round(horizon * c), policy, 4, thin)
    _assert_same_run(run, oracle)


@pytest.mark.parametrize("thin", [1, 5, 10**6])
@pytest.mark.parametrize("c", [1, 3, 20, 200])
def test_tie_heavy_runs_equal_the_scalar_oracle(c, thin):
    sys = _tie_heavy()
    run = simulate(sys, [0.0, 0.0, 0.0], c, 60.0, seed=c, thin=thin)
    _assert_same_run(run, scalar_simulate(sys, [0.0, 0.0, 0.0], c, 60 * c, "gmsr", c, thin))
    assert run.clamps[2] > 0
    assert run.frontend_arrivals[:, 0].sum() == 0


def test_tie_heavy_runs_split_jobs():
    # the case the blocked draws must rewind for: jobs split between b1 and b2
    sys = _tie_heavy()
    r = simulate(sys, [0.0, 0.0, 0.0], 3, 60.0, seed=3)
    assert np.any((r.arrivals[:, 0] > 0) & (r.arrivals[:, 1] > r.frontend_arrivals[:, 2]))


@pytest.mark.parametrize("policy", ["gmsr", "random"])
def test_random_systems_equal_the_scalar_oracle(policy):
    rng = np.random.default_rng(2323)
    for k in range(20):
        sys = random_system(rng)
        n0 = rng.uniform(0.0, 2.0, len(sys.backends))
        c = int(rng.choice([2, 30, 300]))
        thin = int(rng.choice([1, 4, 500]))
        run = simulate(sys, n0, c, 1500 / c, policy, seed=k, thin=thin)
        _assert_same_run(run, scalar_simulate(sys, n0, c, 1500, policy, k, thin))


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_records_do_not_depend_on_the_chunk(chunk, monkeypatch):
    monkeypatch.setattr(stochastic, "_CHUNK", chunk)
    sys = _n_model()
    for thin in (1, 2, 3, 7, 10):
        run = simulate(sys, [1.0, 0.5], 20, 2.0, seed=1, thin=thin)
        _assert_same_run(run, scalar_simulate(sys, [1.0, 0.5], 20, 40, "gmsr", 1, thin))


@pytest.mark.parametrize("block", [1, 3, 5])
@pytest.mark.parametrize("policy", ["gmsr", "random"])
def test_runs_do_not_depend_on_the_block(block, policy, monkeypatch):
    # small blocks put refills and rewinds at every position in a block
    monkeypatch.setattr(stochastic, "_BLOCK", block)
    for sys, n0, c in ((_n_model(), [1.0, 0.5], 20), (_tie_heavy(), [0.0, 0.0, 0.0], 3)):
        run = simulate(sys, n0, c, 30.0, policy, seed=block)
        _assert_same_run(run, scalar_simulate(sys, n0, c, 30 * c, policy, block, 1))


@pytest.mark.parametrize("policy", ["gmsr", "random"])
@pytest.mark.parametrize("make, c", [(_n_model, 100), (_tie_heavy, 3)])
def test_step_equals_the_oracle_and_leaves_the_streams_as_it_does(make, c, policy):
    sys = make()
    nb, nf = len(sys.backends), len(sys.frontends)
    streams, oracle_streams = rng_streams(sys, 8), rng_streams(sys, 8)
    state = DiscreteState(counts=(0,) * nb, step=0, c=c)
    counts = [0] * nb
    for _ in range(40):
        state = step(sys, state, policy, streams)
        scalar_advance(sys, counts, c, policy, oracle_streams,
                       [0] * nb, [0] * nb, [0] * nf, [0] * nb)
        assert state.counts == tuple(counts)
    for got, want in zip(streams, oracle_streams):
        assert np.array_equal(got.random(8), want.random(8))


@pytest.mark.parametrize("policy", ["gmsr", "random"])
@pytest.mark.parametrize("make, n, c", [(_n_model, [2.0, 1.0], 100), (_tie_heavy, [1.0, 1.0, 0.1], 3)])
def test_drift_mean_and_stderr_equal_the_oracle(make, n, c, policy):
    sys = make()
    est = mean_drift_check(sys, n, c, policy, samples=3000, seed=6)
    mean, stderr = scalar_drift(sys, n, c, policy, 3000, 6)
    assert np.array_equal(est.mean, mean)
    assert np.array_equal(est.stderr, stderr)


# ---------------------------------------------------------------------------
# step counts and memory


def test_decimal_horizons_keep_their_last_step():
    sys = _single_pair()
    for horizon, steps in ((2.3, 230), (0.29, 29), (4.35, 435), (2.305, 230)):
        r = simulate(sys, [1.0], 100, horizon, seed=0)
        assert r.steps == steps and len(r) == steps + 1
        assert r.times[-1] == steps / 100
    assert simulate(sys, [1.0], 100, 2.3, seed=0).times[-1] == 2.3


def test_step_budget_counts_steps_as_the_run_does(monkeypatch):
    sys = _single_pair()
    monkeypatch.setattr(stochastic, "_MAX_STEPS", 229)
    with pytest.raises(ValueError, match="step budget"):
        simulate(sys, [1.0], 100, 2.3)  # 2.3·100 is 229.99999999999997: 230 steps
    monkeypatch.setattr(stochastic, "_MAX_STEPS", 230)
    assert simulate(sys, [1.0], 100, 2.3).steps == 230


def test_zero_step_run_has_one_record():
    sys = _n_model()
    r = simulate(sys, [1.0, 0.5], 10, 0.05, seed=2)  # horizon·c = 0.5
    assert len(r) == 1 and r.steps == 0
    assert np.array_equal(r.times, [0.0]) and np.array_equal(r.y, [[1.0, 0.5]])
    for flux in (r.arrivals, r.departures, r.frontend_arrivals):
        assert flux.shape[0] == 1 and not flux.any()


def test_thinned_long_run_holds_records_and_one_chunk():
    # 30k steps kept whole would hold 30k rows of 6 int64 counts (1.44 MB);
    # the run holds its two records and one chunk of rows at a time
    sys = _n_model()
    steps = 30_000
    width = 2 * len(sys.backends) + len(sys.frontends)
    chunk_bytes = stochastic._CHUNK * width * 8
    simulate(sys, [1.0, 0.5], 1000, 3.0, seed=3, thin=steps)  # what loads on first use
    tracemalloc.start()
    try:
        r = simulate(sys, [1.0, 0.5], 1000, steps / 1000, seed=3, thin=steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(r) == 2 and r.steps == steps
    assert peak < 4 * chunk_bytes + 256 * 1024, peak


# ---------------------------------------------------------------------------
# reproducibility


def test_same_seed_bit_exact():
    sys = _n_model()
    a = simulate(sys, [1.0, 2.0], 50, 8.0, seed=42)
    b = simulate(sys, [1.0, 2.0], 50, 8.0, seed=42)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.arrivals, b.arrivals)
    assert np.array_equal(a.departures, b.departures)
    assert np.array_equal(a.frontend_arrivals, b.frontend_arrivals)
    assert np.array_equal(a.clamps, b.clamps)


def test_distinct_seeds_differ():
    sys = _n_model()
    a = simulate(sys, [1.0, 2.0], 50, 8.0, seed=0)
    b = simulate(sys, [1.0, 2.0], 50, 8.0, seed=1)
    assert not np.array_equal(a.y, b.y)


def test_rng_streams_per_node_and_seed_range():
    sys = _n_model()
    streams = rng_streams(sys, 7)
    assert len(streams) == 4  # 2 frontends + 2 backends
    # distinct nodes get distinct streams
    draws = [s.random() for s in streams]
    assert len(set(draws)) == len(draws)
    for bad in (-1, 2**64, 1.5, "0"):
        with pytest.raises(ValueError):
            rng_streams(sys, bad)


# ---------------------------------------------------------------------------
# conservation and integrality


@pytest.mark.parametrize("thin", [1, 7])
def test_integer_conservation_survives_thinning(thin):
    sys = _n_model()
    r = simulate(sys, [1.0, 2.0], 50, 12.0, seed=3, thin=thin)
    counts = np.rint(r.y * r.c).astype(np.int64)
    # every record is an exact integer count
    assert np.abs(r.y * r.c - counts).max() < 1e-9
    # N[k+1] - N[k] = arrivals - departures, exactly, per backend
    assert np.array_equal(np.diff(counts, axis=0), r.arrivals[1:] - r.departures[1:])
    # jobs leaving frontends all land on backends
    assert np.array_equal(
        r.frontend_arrivals.sum(axis=1), r.arrivals.sum(axis=1)
    )
    # first record carries no flux
    assert r.arrivals[0].sum() == 0 and r.departures[0].sum() == 0


def test_nonnegative_integer_counts():
    sys = _n_model()
    r = simulate(sys, [0.0, 0.0], 20, 30.0, seed=11)
    assert np.all(r.y >= 0)
    assert np.all(r.arrivals >= 0) and np.all(r.departures >= 0)


def test_recording_grid_with_thinning():
    sys = _single_pair()
    r = simulate(sys, [1.0], 50, 1.2, seed=0, thin=7)
    # steps = 60: records at 0, 7, 14, ..., 56, and the final step 60
    assert len(r) == 10
    assert r.times[0] == 0.0
    assert np.allclose(np.diff(r.times)[:-1], 7 / 50)
    assert math.isclose(r.times[-1], 60 / 50)


def test_zero_arrival_rate_stays_empty():
    sys = _single_pair(lam=0.0)
    r = simulate(sys, [0.0], 100, 5.0, seed=9)
    assert np.all(r.y == 0.0)
    assert r.arrivals.sum() == 0 and r.departures.sum() == 0
    assert r.clamps.sum() == 0


# ---------------------------------------------------------------------------
# single-step API


def test_step_advances_state():
    sys = _n_model()
    streams = rng_streams(sys, 5)
    s0 = DiscreteState(counts=(100, 50), step=0, c=100)
    s1 = step(sys, s0, "gmsr", streams)
    assert s1.step == 1
    assert s1.c == 100
    assert all(isinstance(n, int) and n >= 0 for n in s1.counts)
    assert math.isclose(s1.time, 0.01)
    assert np.allclose(s0.y, [1.0, 0.5])


def test_discrete_state_validation():
    with pytest.raises(ValueError):
        DiscreteState(counts=(1, -2), step=0, c=10)
    with pytest.raises(ValueError):
        DiscreteState(counts=(1, 2), step=0, c=0)
    with pytest.raises(ValueError):
        DiscreteState(counts=(1, 2), step=-1, c=10)
    sys = _n_model()
    with pytest.raises(ValueError):
        step(sys, DiscreteState(counts=(1,), step=0, c=10), "gmsr", rng_streams(sys, 0))


# ---------------------------------------------------------------------------
# drift against the analytic field


def test_drift_matches_strict_routing_choice():
    # at y = (2, 1) the second backend has the larger gradient
    # (2/(1+2)^2 = 2/9 vs 1/(2+1)^2 = 1/9), so f2 sends everything there
    sys = _n_model()
    est = mean_drift_check(sys, [2.0, 1.0], 100, samples=20_000, seed=1)
    expected = np.array([0.4 - 2.0 / 3.0, 0.6 - 1.0 / 3.0])
    assert np.allclose(est.expected, expected, atol=1e-12)
    assert np.abs(est.z).max() < 4.0


def test_drift_at_origin_piles_on_steeper_backend():
    # gradients at 0: 1/(0+1)^2 = 1 vs 2/(0+2)^2 = 0.5, so both frontends
    # route to the first backend, which is empty and serves nothing
    sys = _n_model()
    est = mean_drift_check(sys, [0.0, 0.0], 100, samples=20_000, seed=2)
    assert np.allclose(est.expected, [1.0, 0.0], atol=1e-12)
    assert np.abs(est.z).max() < 4.0


def test_drift_vanishes_at_fluid_optimum():
    sys = _single_pair()
    est = mean_drift_check(sys, [1.0], 1000, samples=20_000, seed=3)
    assert abs(est.expected[0]) < 1e-9  # μ(1) = 0.5 = λ
    assert np.abs(est.z).max() < 4.0


def test_drift_without_arrivals_is_pure_service():
    sys = _single_pair(lam=0.0)
    est = mean_drift_check(sys, [1.0], 100, samples=20_000, seed=4)
    assert math.isclose(est.expected[0], -0.5)
    assert np.abs(est.z).max() < 4.0


def test_random_policy_splits_uniformly():
    # the random baseline ignores gradients: f2 splits 50/50 over b1, b2
    sys = _n_model()
    est = mean_drift_check(sys, [2.0, 1.0], 100, policy="random",
                           samples=20_000, seed=5)
    expected = np.array([0.4 + 0.3 - 2.0 / 3.0, 0.3 - 1.0 / 3.0])
    assert np.allclose(est.expected, expected, atol=1e-12)
    assert np.abs(est.z).max() < 4.0


# ---------------------------------------------------------------------------
# departure clamping


def test_clamp_counted_on_steep_curve():
    # hill(30, 0.01) at y = 0.1 has service mean ≈ 27.3 jobs per step while
    # only one job is present: the draw must clamp, and the count says so
    sys = make_system([("f1", 0.0)], [("b1", hill(30.0, 0.01))], [("f1", "b1")])
    r = simulate(sys, [0.1], 10, 1.0, seed=0)
    assert r.clamps[0] == 1  # clamps once, then the backend is empty
    assert r.y[-1, 0] == 0.0
    assert np.all(r.y >= 0)


def test_no_clamps_at_moderate_scale():
    # once c exceeds the curve's initial slope, mean μ(N/c) < N always
    sys = _n_model()
    r = simulate(sys, [0.0, 0.0], 20, 50.0, seed=12)
    assert r.clamps.sum() == 0


# ---------------------------------------------------------------------------
# fluid-limit comparison


def test_compare_identical_trajectories_gives_zero():
    sys = _single_pair()
    fl = integrate_fluid(sys, [0.0], 2.0)  # h = 1e-3 matches c = 1000
    k = len(fl.times)
    fake = SampledRun(
        times=fl.times.copy(),
        y=fl.states.copy(),
        arrivals=np.zeros((k, 1), dtype=np.int64),
        departures=np.zeros((k, 1), dtype=np.int64),
        frontend_arrivals=np.zeros((k, 1), dtype=np.int64),
        clamps=np.zeros(1, dtype=np.int64),
        c=1000,
        seed=0,
        policy="gmsr",
    )
    cmp = compare_to_fluid([fake], fl)
    assert cmp.deviations == (0.0,)
    assert cmp.median_by_scale == {1000: 0.0}


def test_compare_rejects_horizon_mismatch():
    sys = _single_pair()
    fl = integrate_fluid(sys, [0.0], 3.0)
    r = simulate(sys, [0.0], 1000, 2.0, seed=0)
    with pytest.raises(ValueError, match="horizon"):
        compare_to_fluid([r], fl)


def test_compare_rejects_coarse_fluid_grid():
    sys = _single_pair()
    fl = integrate_fluid(sys, [0.0], 2.0, IntegratorConfig(h=0.01))
    r = simulate(sys, [0.0], 1000, 2.0, seed=0)
    with pytest.raises(ValueError, match="coarser"):
        compare_to_fluid([r], fl)


def test_compare_rejects_backend_mismatch_and_empty():
    sys = _single_pair()
    fl = integrate_fluid(_n_model(), [0.0, 0.0], 2.0)
    r = simulate(sys, [0.0], 1000, 2.0, seed=0)
    with pytest.raises(ValueError):
        compare_to_fluid([r], fl)
    with pytest.raises(ValueError):
        compare_to_fluid([], fl)


def test_single_pair_tracks_fluid_tightly_at_large_scale():
    # at c = 1000 over a short horizon the half-filled transient is tracked
    # to a couple of percent; the median over seeds is comfortably small
    sys = _single_pair()
    fl = integrate_fluid(sys, [0.0], 2.0)
    runs = [simulate(sys, [0.0], 1000, 2.0, seed=s) for s in range(10)]
    cmp = compare_to_fluid(runs, fl)
    assert cmp.median_by_scale[1000] <= 0.05


def test_n_model_deviation_scale():
    # long-horizon sup deviation at c = 100 sits in the sub-0.45 band for
    # this chain (equilibrium fluctuation scale ~0.1, sup over 5000 steps);
    # a systematic drift bug would push it to O(1)
    sys = _n_model()
    fl = integrate_fluid(sys, [0.0, 0.0], 50.0)
    runs = [simulate(sys, [0.0, 0.0], 100, 50.0, seed=s) for s in range(5)]
    cmp = compare_to_fluid(runs, fl)
    med = cmp.median_by_scale[100]
    assert 0.02 <= med <= 0.45


def test_deviation_median_shrinks_with_scale():
    sys = _n_model()
    fl = integrate_fluid(sys, [0.0, 0.0], 50.0)
    runs = [simulate(sys, [0.0, 0.0], c, 50.0, seed=s)
            for c in (20, 100) for s in range(5)]
    cmp = compare_to_fluid(runs, fl)
    assert cmp.median_by_scale[20] > cmp.median_by_scale[100]
    assert list(cmp.median_by_scale) == [20, 100]


def test_equilibrium_fluctuations_shrink_with_scale():
    sys = _n_model()
    nstar = solve_fluid_optimum(sys).n_star
    stds = []
    for c in (20, 200):
        r = simulate(sys, nstar, c, 50.0, seed=6)
        stds.append(float(np.std(r.y - nstar)))
    assert stds[0] > stds[1]


# ---------------------------------------------------------------------------
# validation


def test_simulate_validation():
    sys = _n_model()
    with pytest.raises(ValueError, match="policy"):
        simulate(sys, [0.0, 0.0], 10, 1.0, policy="greedy")
    with pytest.raises(ValueError, match="scale"):
        simulate(sys, [0.0, 0.0], 0, 1.0)
    with pytest.raises(ValueError, match="scale"):
        simulate(sys, [0.0, 0.0], 10.5, 1.0)
    with pytest.raises(ValueError, match="thin"):
        simulate(sys, [0.0, 0.0], 10, 1.0, thin=0)
    with pytest.raises(ValueError, match="horizon"):
        simulate(sys, [0.0, 0.0], 10, 0.0)
    with pytest.raises(ValueError, match="horizon"):
        simulate(sys, [0.0, 0.0], 10, math.inf)
    with pytest.raises(ValueError, match="shape"):
        simulate(sys, [0.0], 10, 1.0)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        simulate(sys, [-1.0, 0.0], 10, 1.0)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        simulate(sys, [math.nan, 0.0], 10, 1.0)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        simulate(sys, [1e308, 0.0], 10, 1.0)  # finite, but not times c
    with pytest.raises(ValueError, match="step budget"):
        simulate(sys, [0.0, 0.0], 10**6, 1000.0)


def test_mean_drift_check_validation():
    sys = _n_model()
    with pytest.raises(ValueError, match="samples"):
        mean_drift_check(sys, [1.0, 1.0], 10, samples=999)
    with pytest.raises(ValueError, match="policy"):
        mean_drift_check(sys, [1.0, 1.0], 10, policy="rr")
    with pytest.raises(ValueError, match="shape"):
        mean_drift_check(sys, [1.0], 10)
    for bad in ([math.inf, 1.0], [math.nan, 1.0], [1.0, -0.5], [1e308, 1.0]):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            mean_drift_check(sys, bad, 10)


def test_mean_drift_check_refuses_samples_that_are_not_integers():
    sys = _n_model()
    for bad in (1500.5, 2000.0, True, "2000", None):
        with pytest.raises(ValueError, match="samples must be an integer"):
            mean_drift_check(sys, [1.0, 1.0], 10, samples=bad)
    # numpy integers count as integers, and estimate as the same Python int
    est = mean_drift_check(sys, [1.0, 1.0], 10, samples=np.int64(1000), seed=3)
    ref = mean_drift_check(sys, [1.0, 1.0], 10, samples=1000, seed=3)
    assert np.array_equal(est.mean, ref.mean)
    assert np.array_equal(est.stderr, ref.stderr)
