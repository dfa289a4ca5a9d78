import math
from dataclasses import replace

import numpy as np
import pytest

from gmsr.diagnostics import (
    _subset_slack_by_mincut,
    capacity_slack,
    certify_trajectory,
    in_invariant_set,
    lyapunov,
    overshoot,
    tier_absolute_drift,
)
from gmsr.fluid_dyn import IntegratorConfig, integrate_fluid
from gmsr.fluid_opt import InfeasibleSystemError, solve_fluid_optimum
from gmsr.flownet import FlowNetwork, feasibility_check, max_flow, stability_decomposition
from gmsr.model import hill, make_system
from gmsr.tiers import Tier

from support import (
    feasible_random_system,
    fig1_system,
    greedy_routing,
    n_model,
    neighborhood_capacity,
    frontend_subsets,
    random_system,
    scaled_system,
    sized_random_system,
    square_feasible_system,
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


# -- lyapunov -------------------------------------------------------------------


def test_lyapunov_zero_at_equilibrium():
    sys = _n_model_04_06()
    n_star = np.array([SQRT2, SQRT2])
    x21 = (1.6 - SQRT2) / 0.6
    x_star = np.array([[1.0, 0.0], [x21, 1.0 - x21]])
    assert lyapunov(sys, n_star, x_star) == pytest.approx(0.0, abs=1e-12)


def test_lyapunov_at_origin_with_greedy_routing():
    sys = _n_model_04_06()
    # at N=(0,0) gradients are (1, 0.5): both frontends pile onto b1
    x = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert lyapunov(sys, np.zeros(2), x) == pytest.approx(1.0, abs=1e-15)


def test_lyapunov_single_pair_direct_value():
    sys = _single_pair(0.5)
    n = np.array([0.3 / 0.7])  # hill(1,1) workload where the rate is 0.3
    assert lyapunov(sys, n, np.array([[1.0]])) == pytest.approx(0.2, abs=1e-12)


def test_lyapunov_shape_validation():
    sys = _n_model_04_06()
    with pytest.raises(ValueError):
        lyapunov(sys, np.zeros(3), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        lyapunov(sys, np.zeros(2), np.zeros((3, 2)))


# -- tier_absolute_drift ----------------------------------------------------------


def test_tier_drift_balanced_tier_is_zero():
    sys = _single_pair(0.5)
    tier = Tier(frontends=("f1",), backends=("b1",), gradient=0.25)
    assert tier_absolute_drift(sys, np.array([1.0]), np.array([[1.0]]), tier) == (
        pytest.approx(0.0, abs=1e-12)
    )


def test_tier_drift_equals_lyapunov_over_all_nodes():
    sys = _n_model_04_06()
    tier = Tier(frontends=("f1", "f2"), backends=("b1", "b2"), gradient=1.0)
    x = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert tier_absolute_drift(sys, np.zeros(2), x, tier) == pytest.approx(1.0)


def test_tier_drift_matches_surplus_under_sliding_routing():
    # one pair with surplus S = 0.5 - 0.7 = -0.2; drift must be |S|
    sys = make_system([("f1", 0.5)], [("b1", hill(2, 1))], [("f1", "b1")])
    n = np.array([0.7 / 1.3])  # hill(2,1) workload where the rate is 0.7
    tier = Tier(frontends=("f1",), backends=("b1",), gradient=1.0)
    assert tier_absolute_drift(sys, n, np.array([[1.0]]), tier) == pytest.approx(
        0.2, abs=1e-12
    )


def test_tier_drift_rejects_unknown_nodes():
    sys = _single_pair(0.5)
    with pytest.raises(ValueError):
        tier_absolute_drift(
            sys, np.array([1.0]), np.array([[1.0]]),
            Tier(frontends=("ghost",), backends=("b1",), gradient=1.0),
        )
    with pytest.raises(ValueError):
        tier_absolute_drift(
            sys, np.array([1.0]), np.array([[1.0]]),
            Tier(frontends=("f1",), backends=("ghost",), gradient=1.0),
        )


# -- capacity_slack ---------------------------------------------------------------


def test_slack_constants_n_model():
    slack = capacity_slack(_n_model_04_06())
    assert slack.kappa == pytest.approx((3 - 2 * SQRT2) / 2, abs=1e-6)
    assert slack.n_tilde[0] == pytest.approx(1 + SQRT2, abs=1e-6)
    assert slack.n_tilde[1] == pytest.approx(2 * SQRT2, abs=1e-6)
    assert slack.delta == pytest.approx(1 - SQRT2 / 2, abs=1e-6)


def test_slack_constants_single_pair_closed_form():
    slack = capacity_slack(_single_pair(0.5))
    assert slack.kappa == pytest.approx(1 / 8, abs=1e-6)
    assert slack.n_tilde[0] == pytest.approx(math.sqrt(8) - 1, abs=1e-6)
    assert slack.delta == pytest.approx(0.5 - SQRT2 / 4, abs=1e-6)


def test_slack_symmetric_system_gives_symmetric_n_tilde():
    sys = make_system(
        frontends=[("f1", 0.5), ("f2", 0.5)],
        backends=[("b1", hill(2, 1)), ("b2", hill(2, 1))],
        edges=[("f1", "b1"), ("f1", "b2"), ("f2", "b1"), ("f2", "b2")],
    )
    slack = capacity_slack(sys)
    assert slack.n_tilde[0] == pytest.approx(slack.n_tilde[1], rel=1e-9)


def test_slack_rejects_infeasible_system():
    with pytest.raises(InfeasibleSystemError):
        capacity_slack(_single_pair(1.5))  # exceeds the unit cap


def test_slack_subset_inequality_and_positivity():
    """On feasible systems every frontend subset keeps Δ of spare capacity."""
    rng = np.random.default_rng(90210)
    for _ in range(30):
        sys = feasible_random_system(rng)
        slack = capacity_slack(sys)
        assert slack.kappa > 0
        assert slack.delta > 0
        rate_tilde = sys.rates_at(slack.n_tilde)
        lam = np.asarray(sys.lambdas)
        for subset in frontend_subsets(sys):
            lam_p = float(sum(lam[i] for i in subset))
            supply = neighborhood_capacity(sys, subset, rate_tilde)
            assert lam_p + slack.delta <= supply + 1e-9


def _enumerated_slack(sys, rates):
    """Oracle for Δ: min over nonempty frontend subsets P of
    Σ_{b∈N(P)} rates_b − λ(P), by enumerating all 2^|F| − 1 subsets."""
    lam = sys.lambdas
    return min(neighborhood_capacity(sys, subset, rates) - float(sum(lam[i] for i in subset))
               for subset in frontend_subsets(sys))


def test_slack_enumeration_and_mincut_agree():
    """Δ from the min cuts has the enumeration's exact bits on the acceptance
    battery's five systems (seed 424242), n_model at half load and fig1."""
    rng = np.random.default_rng(424242)
    systems = [_n_model_04_06(), fig1_system()]
    for _ in range(5):
        systems.append(feasible_random_system(rng))
        for _ in range(10):  # the battery's starts, drawn from the same stream
            rng.uniform(0.0, 10.0, size=len(systems[-1].backends))
    for sys in systems:
        slack = capacity_slack(sys)
        assert slack.delta == _enumerated_slack(sys, sys.rates_at(slack.n_tilde))


def test_slack_many_frontends_uses_mincut_and_matches_enumeration():
    """Up to 12 frontends on random systems, with zero-rate frontends, and a
    13-frontend ring: Δ matches the enumeration to 1e-12 relative."""
    nf = 13
    ring = make_system(
        [(f"f{i}", 0.1) for i in range(nf)],
        [(f"b{j}", hill(2.0, 1.0)) for j in range(3)],
        [(f"f{i}", f"b{i % 3}") for i in range(nf)]
        + [(f"f{i}", f"b{(i + 1) % 3}") for i in range(nf)],
    )
    systems = [ring]
    rng = np.random.default_rng(3141)
    for k in range(24):
        sys = None
        while sys is None or not feasibility_check(sys):
            sys = sized_random_system(rng, 1 + k % 12, int(rng.integers(1, 13)), (0.0, 0.3))
            if k % 3 == 0:  # silence about a third of the frontends
                sys = make_system(
                    [(f.id, 0.0 if rng.random() < 0.3 else f.lam) for f in sys.frontends],
                    [(b.id, b.service) for b in sys.backends], sys.edges)
        systems.append(sys)
    assert sum(0.0 in sys.lambdas for sys in systems) >= 4
    for sys in systems:
        slack = capacity_slack(sys)
        want = _enumerated_slack(sys, sys.rates_at(slack.n_tilde))
        assert abs(slack.delta - want) <= 1e-12 * abs(want)


def _slack_by_string_keyed_flows(sys, rate_tilde):
    """Reference for _subset_slack_by_mincut: one string-keyed FlowNetwork
    and max_flow per forced frontend, arcs in the same order."""
    src, snk = "__slack_source__", "__slack_sink__"
    lam = np.asarray(sys.lambdas)
    nodes = (src,) + sys.frontend_ids + sys.backend_ids + (snk,)
    tail = tuple((f, b, math.inf) for f, b in sys.edges) + tuple(
        (b, snk, float(rate_tilde[j])) for j, b in enumerate(sys.backend_ids))
    best = math.inf
    for forced in range(len(sys.frontends)):
        head = tuple((src, f, math.inf if i == forced else float(lam[i]))
                     for i, f in enumerate(sys.frontend_ids))
        res = max_flow(FlowNetwork(nodes=nodes, source=src, sink=snk, arcs=head + tail))
        best = min(best, res.value - float(lam.sum()))
    return best


def test_slack_mincut_on_one_network_matches_string_keyed_flows_bitwise():
    rng = np.random.default_rng(2718)
    nf = 13
    systems = [make_system(
        [(f"f{i}", 0.1) for i in range(nf)],
        [(f"b{j}", hill(2.0, 1.0)) for j in range(3)],
        [(f"f{i}", f"b{i % 3}") for i in range(nf)]
        + [(f"f{i}", f"b{(i + 1) % 3}") for i in range(nf)],
    )] + [square_feasible_system(rng, n) for n in (13, 16, 16, 32)]
    for sys in systems:
        slack = capacity_slack(sys)
        rate_tilde = sys.rates_at(slack.n_tilde)
        want = _slack_by_string_keyed_flows(sys, rate_tilde)
        assert slack.delta == want  # bit for bit
        other = rng.uniform(0.05, 2.0, size=len(sys.backends))
        assert _subset_slack_by_mincut(sys, other) == _slack_by_string_keyed_flows(sys, other)


# -- invariant set and overshoot ---------------------------------------------------


def test_invariant_set_membership_examples():
    slack = capacity_slack(_n_model_04_06())
    assert in_invariant_set(np.zeros(2), slack)
    assert in_invariant_set(slack.n_tilde, slack)  # boundary included
    assert not in_invariant_set(np.array([3.0, 3.0]), slack)
    with pytest.raises(ValueError):
        in_invariant_set(np.zeros(3), slack)


def test_overshoot_examples():
    slack = capacity_slack(_n_model_04_06())
    assert overshoot(np.zeros(2), slack) == 0.0
    assert overshoot(slack.n_tilde, slack) == 0.0
    assert overshoot(np.array([3.0, 3.0]), slack) == pytest.approx(
        5 - 3 * SQRT2, abs=1e-6
    )
    bumped = slack.n_tilde + np.array([1.0, 0.0])
    assert overshoot(bumped, slack) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        overshoot(np.zeros(3), slack)


def test_overshoot_zero_iff_inside():
    rng = np.random.default_rng(1812)
    slack = capacity_slack(_n_model_04_06())
    for _ in range(200):
        n = rng.uniform(0.0, 5.0, size=2)
        assert (overshoot(n, slack) == 0.0) == in_invariant_set(n, slack)


# -- Lyapunov positive definiteness ------------------------------------------------


def test_lyapunov_positive_definite_under_greedy_routing():
    rng = np.random.default_rng(424242)
    for _ in range(40):
        sys = feasible_random_system(rng)
        opt = solve_fluid_optimum(sys)
        assert lyapunov(sys, opt.n_star, opt.x_star) <= 1e-10
        for _ in range(3):
            n = rng.uniform(0.0, 3.0, size=len(sys.backends))
            while np.max(np.abs(n - opt.n_star)) < 1e-2:
                n = rng.uniform(0.0, 3.0, size=len(sys.backends))
            assert lyapunov(sys, n, greedy_routing(sys, n)) > 0.0


# -- overload lower bound ----------------------------------------------------------


def test_lyapunov_overload_lower_bound():
    """Past saturation, V can never drop below the structural excess
    (unservable arrivals minus the unstable backends' total capacity)."""
    rng = np.random.default_rng(5150)
    meaningful = 0
    for _ in range(40):
        sys = scaled_system(random_system(rng), 3.0)
        dec = stability_decomposition(sys)
        caps = np.array([fn.cap for fn in sys.services])
        lam = np.asarray(sys.lambdas)
        bound = float(
            sum(lam[i] for i, f in enumerate(sys.frontend_ids) if f not in dec.frontends)
            - sum(caps[j] for j, b in enumerate(sys.backend_ids) if b not in dec.backends)
        )
        if bound > 1e-6:
            meaningful += 1
        for _ in range(3):
            n = rng.uniform(0.0, 4.0, size=len(sys.backends))
            v = lyapunov(sys, n, greedy_routing(sys, n))
            assert v >= bound - 1e-9
    assert meaningful >= 10  # the check must have had real bite


# -- certify_trajectory -----------------------------------------------------------


def _certify_setup():
    sys = _n_model_04_06()
    slack = capacity_slack(sys)
    return sys, slack


def test_certificate_from_origin_enters_immediately():
    sys, slack = _certify_setup()
    traj = integrate_fluid(sys, [0.0, 0.0], 30.0)
    cert = certify_trajectory(sys, traj, slack)
    assert cert.entry_time == 0.0  # the origin is inside K
    assert cert.violations == ()
    assert cert.ok
    assert len(cert.v) == len(traj)
    assert cert.v[0] == pytest.approx(1.0, abs=1e-12)  # all mass on b1, rates 0
    assert cert.v[-1] < 1e-2


def test_certificate_fitted_rate_beats_kappa_lower_bound():
    sys, slack = _certify_setup()
    traj = integrate_fluid(sys, [0.0, 0.0], 30.0)
    cert = certify_trajectory(sys, traj, slack)
    assert cert.fitted_rate is not None
    assert cert.fitted_rate >= 0.8 * slack.kappa


def test_certificate_from_far_outside_respects_entry_deadline():
    sys, slack = _certify_setup()
    n0 = np.array([5.0, 5.0])
    traj = integrate_fluid(sys, n0, 30.0)
    cert = certify_trajectory(sys, traj, slack)
    rate_min = min(slack.delta, float(sys.rates_at(slack.n_tilde).min()))
    deadline = overshoot(n0, slack) / rate_min
    assert cert.entry_time is not None
    assert 0.0 < cert.entry_time <= deadline
    assert cert.violations == ()


def test_certificate_constant_at_optimum_is_trivially_clean():
    sys, slack = _certify_setup()
    n_star = solve_fluid_optimum(sys).n_star
    traj = integrate_fluid(sys, n_star, 5.0)
    cert = certify_trajectory(sys, traj, slack)
    assert cert.entry_time == 0.0
    assert cert.violations == ()
    assert np.all(cert.v <= 1e-12)
    assert cert.fitted_rate is None  # nothing above float noise to fit


def test_certificate_flags_strict_mode_chatter():
    # at a tied equilibrium the strict selection hops between backends, so
    # its realized-routing V oscillates instead of decreasing; the
    # certificate must say so rather than smooth over it
    sys, slack = _certify_setup()
    traj = integrate_fluid(
        sys, [5.0, 0.0], 30.0, IntegratorConfig(mode="strict-argmax")
    )
    cert = certify_trajectory(sys, traj, slack)
    assert any(v.startswith("V-monotone") for v in cert.violations)


def test_certificate_random_sliding_trajectories_are_clean():
    rng = np.random.default_rng(97531)
    for _ in range(6):
        sys = feasible_random_system(rng)
        slack = capacity_slack(sys)
        n0 = rng.uniform(0.0, 10.0, size=len(sys.backends))
        traj = integrate_fluid(sys, n0, 60.0)
        cert = certify_trajectory(sys, traj, slack)
        assert cert.violations == ()
        assert cert.entry_time is not None


def test_certify_reuses_the_optimum_of_a_given_slack(monkeypatch):
    import gmsr.diagnostics as dg

    sys = _n_model_04_06()
    traj = integrate_fluid(sys, [3.0, 0.0], 20.0)
    slack = capacity_slack(sys)
    assert np.array_equal(slack.n_star, solve_fluid_optimum(sys).n_star)
    reference = certify_trajectory(sys, traj, replace(slack, n_star=None))

    calls = []
    original = dg.solve_fluid_optimum

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(dg, "solve_fluid_optimum", counting)
    certs = {}
    for label, arg, solves in (("given slack", slack, 0),
                               ("slack without N*", replace(slack, n_star=None), 1)):
        calls.clear()
        certs[label] = certify_trajectory(sys, traj, arg)
        assert len(calls) == solves, label
    certs["own slack"] = certify_trajectory(sys, traj)
    for cert in certs.values():
        assert cert.v.tobytes() == reference.v.tobytes()
        assert (cert.entry_time, cert.fitted_rate, cert.violations) == (
            reference.entry_time, reference.fitted_rate, reference.violations)


def test_certificate_validates_trajectory_shape():
    sys, slack = _certify_setup()
    other = _single_pair()
    traj = integrate_fluid(other, [0.0], 1.0)
    with pytest.raises(ValueError):
        certify_trajectory(sys, traj, slack)


def test_certificate_rejects_nonuniform_grid():
    sys, slack = _certify_setup()
    traj = integrate_fluid(sys, [0.0, 0.0], 1.0)
    warped = replace(traj, times=traj.times**1.5 + traj.times)
    with pytest.raises(ValueError):
        certify_trajectory(sys, warped, slack)


# -- invariant-set trajectories ---------------------------------------------------


def test_trajectories_started_inside_k_never_leave():
    rng = np.random.default_rng(60601)
    for _ in range(5):
        sys = feasible_random_system(rng)
        slack = capacity_slack(sys)
        n0 = rng.uniform(0.0, 1.0, size=len(sys.backends)) * slack.n_tilde
        for mode in ("sliding", "strict-argmax"):
            traj = integrate_fluid(sys, n0, 20.0, IntegratorConfig(mode=mode))
            excess = traj.states - slack.n_tilde
            assert float(excess.max()) <= 1e-6


def test_overload_lower_bound_holds_along_trajectories():
    rng = np.random.default_rng(5150)
    checked = 0
    for _ in range(15):
        base = feasible_random_system(rng)
        sys = scaled_system(base, 4.0)
        if feasibility_check(sys):
            continue
        dec = stability_decomposition(sys)
        lam = {f.id: f.lam for f in sys.frontends}
        cap = {b.id: b.service.cap for b in sys.backends}
        bound = sum(lam[f] for f in lam if f not in dec.frontends) - sum(
            cap[b] for b in cap if b not in dec.backends
        )
        n0 = rng.uniform(0.0, 3.0, size=len(sys.backends))
        traj = integrate_fluid(sys, n0, 25.0)
        v = np.abs(traj.inflows - sys.rates_at(traj.states)).sum(axis=1)
        assert float(v.min()) >= bound - 1e-9
        if bound > 1e-6:
            checked += 1
    assert checked >= 3
