"""Acceptance battery: one end-to-end check per headline guarantee.

Each test measures its own runtime, asserts the substantive property plus a
runtime budget, and prints one PASS line so a log shows the whole battery at
a glance.  The heavy stability battery (5 random feasible systems x 10
initial states integrated to T=200 in both integrator modes) is shared
between the convergence criterion and the certification criterion through a
module-scoped fixture; each trajectory is checked and certified as it is
produced, then discarded, so memory stays flat."""

import math
import time

import numpy as np
import pytest

from gmsr.cli import load_scenario
from gmsr.diagnostics import capacity_slack, certify_trajectory
from gmsr.fluid_dyn import IntegratorConfig, integrate_fluid
from gmsr.fluid_opt import equilibrium_rates, solve_fluid_optimum
from gmsr.flownet import augmented_network, max_flow, opt_tp, stability_decomposition
from gmsr.model import hill, make_system
from gmsr.stochastic import compare_to_fluid, simulate
from gmsr.tiers import best_backend_graph, compute_tiers, reach, tier_graph

from support import (
    FIG1_GRADS,
    brute_force_optimum,
    feasible_random_system,
    fig1_system,
    random_system,
)
from test_cli import SCENARIOS
from test_flownet import _decompositions_by_enumeration, _min_cut_by_enumeration
from test_tiers import _is_acyclic


def _n_model():
    return make_system(
        frontends=[("f1", 0.4), ("f2", 0.6)],
        backends=[("b1", hill(1.0, 1.0)), ("b2", hill(1.0, 2.0))],
        edges=[("f1", "b1"), ("f2", "b1"), ("f2", "b2")],
    )


def _report(num: int, label: str, dt: float, detail: str) -> None:
    print(f"PASS criterion {num} ({label}): {detail} [{dt:.1f}s]")


# ---------------------------------------------------------------------------
# shared battery for criteria 3 and 4
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def stability_battery():
    """5 random feasible systems x 10 initial states in [0,10]^B, integrated
    to T=200 with h=1e-3 in both modes; sliding trajectories are certified
    on the spot.  Returns endpoint errors and certification results along
    with the two phases' runtimes."""
    rng = np.random.default_rng(424242)
    t_integrate = 0.0
    t_certify = 0.0
    worst_err = {"sliding": 0.0, "strict-argmax": 0.0}
    violations: list[str] = []
    trajectories = 0
    certified = 0
    for _ in range(5):
        sys_ = feasible_random_system(rng)
        opt = solve_fluid_optimum(sys_)
        slack = capacity_slack(sys_)
        nb = len(sys_.backends)
        for _ in range(10):
            n0 = rng.uniform(0.0, 10.0, size=nb)
            for mode in ("sliding", "strict-argmax"):
                t0 = time.perf_counter()
                traj = integrate_fluid(sys_, n0, 200.0, IntegratorConfig(mode=mode))
                t_integrate += time.perf_counter() - t0
                err = float(np.abs(traj.states[-1] - opt.n_star).max())
                worst_err[mode] = max(worst_err[mode], err)
                trajectories += 1
                if mode == "sliding":
                    t0 = time.perf_counter()
                    cert = certify_trajectory(sys_, traj, slack)
                    t_certify += time.perf_counter() - t0
                    violations.extend(cert.violations)
                    certified += 1
                del traj
    return {
        "t_integrate": t_integrate,
        "t_certify": t_certify,
        "worst_err": worst_err,
        "violations": violations,
        "trajectories": trajectories,
        "certified": certified,
    }


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_fluid_optimum_oracle():
    t0 = time.perf_counter()
    sys_ = _n_model()
    opt = solve_fluid_optimum(sys_)
    grid = brute_force_optimum(sys_, grid_step=1e-6)
    assert abs(opt.objective - grid.objective) <= 1e-5
    assert np.abs(opt.n_star - grid.n_star).max() <= 1e-4
    assert opt.kkt_residual <= 1e-8
    # the optimum equalizes gradients at (sqrt 2, sqrt 2); the rate-balanced
    # alternative (2, 1) carries strictly more total workload
    assert np.allclose(opt.n_star, math.sqrt(2.0), atol=1e-6)
    assert opt.objective < 2.0 + 1.0 - 1e-3
    dt = time.perf_counter() - t0
    assert dt < 10
    _report(1, "fluid optimum vs grid oracle", dt,
            f"objective {opt.objective:.6f}, kkt {opt.kkt_residual:.2e}")


def test_criterion_02_reference_tier_structure():
    t0 = time.perf_counter()
    sys_ = fig1_system()
    best = best_backend_graph(sys_, FIG1_GRADS, tie_tol=1e-9)
    assert best == {("f1", "b1"), ("f2", "b2"), ("f3", "b4"),
                    ("f4", "b5"), ("f4", "b1")}
    part = compute_tiers(sys_, FIG1_GRADS, tie_tol=1e-9)
    assert len(part) == 4
    assert [t.frontends for t in part] == [("f1", "f4"), ("f2",), ("f3",), ()]
    assert [t.backends for t in part] == [("b1", "b5"), ("b2",), ("b4",), ("b3",)]
    tg = tier_graph(sys_, part)
    assert tg.arcs == {(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)}
    dt = time.perf_counter() - t0
    assert dt < 1
    _report(2, "reference tier structure", dt,
            "5 best-response edges, 4 tiers, 5 arcs, all exact")


def test_criterion_03_global_fluid_stability(stability_battery):
    b = stability_battery
    assert b["trajectories"] == 100
    assert b["worst_err"]["sliding"] <= 1e-2
    assert b["worst_err"]["strict-argmax"] <= 1e-2
    assert b["t_integrate"] < 120
    _report(3, "global fluid stability", b["t_integrate"],
            f"worst endpoint error sliding {b['worst_err']['sliding']:.2e}, "
            f"strict {b['worst_err']['strict-argmax']:.2e} over 100 runs")


def test_criterion_04_lyapunov_certificates(stability_battery):
    b = stability_battery
    assert b["certified"] == 50
    assert b["violations"] == []
    assert b["t_certify"] < 60
    _report(4, "Lyapunov certificates", b["t_certify"],
            f"zero violations across {b['certified']} sliding trajectories")


def test_criterion_05_invariant_set():
    t0 = time.perf_counter()
    rng = np.random.default_rng(60601)
    worst = -math.inf
    for _ in range(5):
        sys_ = feasible_random_system(rng)
        slack = capacity_slack(sys_)
        for _ in range(3):
            n0 = rng.uniform(0.0, 1.0, size=len(sys_.backends)) * slack.n_tilde
            for mode in ("sliding", "strict-argmax"):
                traj = integrate_fluid(sys_, n0, 20.0, IntegratorConfig(mode=mode))
                worst = max(worst, float((traj.states - slack.n_tilde).max()))
    dt = time.perf_counter() - t0
    assert worst <= 1e-6
    assert dt < 30
    _report(5, "invariant set", dt, f"worst overshoot {worst:.2e}")


# Fluctuations of the chain around its fluid limit shrink like 1/sqrt(c)
# (Kurtz 1978).  Over 16 disjoint sets of 20 seeds, the fitted log-log
# slopes read -0.492 +- 0.024 (median deviations) and -0.510 +- 0.023
# (equilibrium stds), none further than 0.047 from -1/2; the band is about
# four of those standard deviations.
_RATE_BAND = 0.1


def _loglog_slope(by_scale: dict[int, float]) -> float:
    cs = sorted(by_scale)
    return float(np.polyfit(np.log(cs), np.log([by_scale[c] for c in cs]), 1)[0])


def test_criterion_06_stochastic_fluid_convergence():
    t0 = time.perf_counter()
    sys_ = _n_model()
    fluid = integrate_fluid(sys_, [0.0, 0.0], 50.0)
    runs = [simulate(sys_, [0.0, 0.0], c, 50.0, seed=s)
            for c in (20, 100, 500) for s in range(20)]
    med = compare_to_fluid(runs, fluid).median_by_scale
    assert med[20] > med[100] > med[500]

    nstar = solve_fluid_optimum(sys_).n_star
    stds = {}
    for c in (20, 100, 500, 1000):
        pooled = [simulate(sys_, nstar, c, 50.0, seed=s).y - nstar
                  for s in range(20)]
        stds[c] = float(np.std(np.concatenate(pooled)))
    assert stds[20] > stds[100] > stds[500] > stds[1000]
    slopes = (_loglog_slope(med), _loglog_slope(stds))
    assert all(abs(slope + 0.5) <= _RATE_BAND for slope in slopes), slopes
    dt = time.perf_counter() - t0
    assert dt < 300
    _report(6, "stochastic-to-fluid convergence", dt,
            f"medians {med[20]:.3f} > {med[100]:.3f} > {med[500]:.3f}; "
            f"equilibrium stds {stds[20]:.3f} > {stds[100]:.3f} > "
            f"{stds[500]:.3f} > {stds[1000]:.3f}; log-log slopes "
            f"{slopes[0]:.3f} and {slopes[1]:.3f}, within {_RATE_BAND} of -1/2")


def test_criterion_07_max_flow_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(314159)
    for _ in range(200):
        sys_ = random_system(rng, max_frontends=4, max_backends=4)
        net = augmented_network(sys_)  # at most 4 + 4 + 2 = 10 nodes
        assert max_flow(net).value == pytest.approx(
            _min_cut_by_enumeration(net), abs=1e-9)
    dt = time.perf_counter() - t0
    assert dt < 30
    _report(7, "max-flow equals enumerated min-cut", dt, "200 networks exact")


def test_criterion_08_stability_decomposition():
    t0 = time.perf_counter()
    rng = np.random.default_rng(271828)
    for _ in range(100):
        sys_ = random_system(rng, max_frontends=6, max_backends=6,
                             lam_range=(0.1, 2.0))
        dec = stability_decomposition(sys_)
        assert _decompositions_by_enumeration(sys_) == [(dec.frontends, dec.backends)]
    dt = time.perf_counter() - t0
    assert dt < 60
    _report(8, "stability decomposition", dt,
            "unique enumerated pair matched on 100 systems")


def test_criterion_09_overload_equilibrium():
    t0 = time.perf_counter()
    details = []
    for name in ("overload_disjoint", "overload_nmodel"):
        scn = load_scenario(SCENARIOS / f"{name}.json")
        sys_ = scn.system
        eq = equilibrium_rates(sys_)
        traj = integrate_fluid(sys_, scn.initial, scn.horizon, scn.integrator)
        rates_end = sys_.rates_at(traj.states[-1])
        gap = float(np.abs(rates_end - eq.rates).max())
        assert gap <= 1e-3, name
        assert abs(float(eq.rates.sum()) - opt_tp(sys_)) <= 1e-9

        mid = len(traj) // 2
        for j, bid in enumerate(sys_.backend_ids):
            if bid in eq.decomposition.backends:
                # stable backends settle at their finite equilibrium workload
                assert traj.states[:, j].max() <= eq.workloads[j] + 1.0, (name, bid)
                assert abs(traj.states[-1, j] - eq.workloads[j]) <= 1e-3, (name, bid)
            else:
                # overloaded backends keep climbing all the way to the horizon
                assert traj.states[-1, j] > traj.states[mid, j], (name, bid)
                assert traj.states[-1, j] > traj.states[0, j], (name, bid)

        # the disjoint scenario's overloaded backend outgrows any fixed
        # threshold at rate ~1: by T=500 it has left its start far behind
        if name == "overload_disjoint":
            j = sys_.backend_index["b1"]
            assert traj.states[-1, j] > traj.states[0, j] + 400.0

        v = np.abs(traj.inflows - sys_.rates_at(traj.states)).sum(axis=1)
        lam = {f.id: f.lam for f in sys_.frontends}
        caps = {b.id: b.service.cap for b in sys_.backends}
        bound = (sum(l for f, l in lam.items() if f not in eq.decomposition.frontends)
                 - sum(c for b, c in caps.items() if b not in eq.decomposition.backends))
        assert float(v.min()) >= bound - 1e-9, name
        details.append(f"{name}: rate gap {gap:.1e}, V >= {bound:.3f}")
    dt = time.perf_counter() - t0
    assert dt < 120
    _report(9, "overload equilibrium", dt, "; ".join(details))


def test_criterion_10_tier_dag_ordering():
    t0 = time.perf_counter()
    rng = np.random.default_rng(161803)
    tie_tol = 1e-9
    for _ in range(1000):
        sys_ = random_system(rng)
        n = rng.uniform(0.0, 5.0, size=len(sys_.backends))
        part = compute_tiers(sys_, sys_.gradients_at(n), tie_tol)
        tg = tier_graph(sys_, part)
        assert _is_acyclic(tg.n, tg.arcs)
        for i in range(tg.n):
            for j in range(tg.n):
                if i != j and reach(tg, i, j):
                    assert part.tiers[i].gradient > part.tiers[j].gradient - 2 * tie_tol
    dt = time.perf_counter() - t0
    assert dt < 10
    _report(10, "tier DAG ordering", dt, "1000 instances, zero violations")
