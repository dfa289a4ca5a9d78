import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmsr.diagnostics import capacity_slack
from gmsr.flownet import (
    StabilityDecomposition,
    TransportNetwork,
    _augmented_cut,
    feasibility_check,
    opt_tp,
    stability_decomposition,
)
from gmsr.fluid_opt import (
    SUPPORT_EPS,
    ConvergenceError,
    InfeasibleSystemError,
    brute_force_optimum,
    equilibrium_rates,
    kkt_residual,
    solve_fluid_optimum,
)
from gmsr.model import hill, make_system, saturating_exponential, validate_routing
from gmsr.tiers import compute_tiers

from support import feasible_random_system as _feasible_random_system
from support import fig1_system, n_model, random_system

SQRT2 = math.sqrt(2.0)


def _n_model_04_06():
    return make_system(
        frontends=[("f1", 0.4), ("f2", 0.6)],
        backends=[("b1", hill(1.0, 1.0)), ("b2", hill(1.0, 2.0))],
        edges=[("f1", "b1"), ("f2", "b1"), ("f2", "b2")],
    )


def _single_pair(lam=0.5):
    return make_system([("f1", lam)], [("b1", hill(1, 1))], [("f1", "b1")])


# -- solve_fluid_optimum --------------------------------------------------------


def test_solve_single_pair():
    opt = solve_fluid_optimum(_single_pair(0.5))
    assert opt.n_star[0] == pytest.approx(1.0, abs=1e-7)
    assert opt.x_star[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert opt.objective == pytest.approx(1.0, abs=1e-7)
    assert opt.kkt_residual <= 1e-8


def test_solve_two_backend_example():
    # frozen against the 1e-6 grid oracle and the closed-form stationarity
    # system: equal gradients 1/(N1+1)^2 = 2/(N2+2)^2 with rates summing to 1
    opt = solve_fluid_optimum(_n_model_04_06())
    assert opt.n_star[0] == pytest.approx(SQRT2, abs=1e-6)
    assert opt.n_star[1] == pytest.approx(SQRT2, abs=1e-6)
    assert opt.x_star[1, 0] == pytest.approx((1.6 - SQRT2) / 0.6, abs=1e-6)
    assert opt.x_star[1, 1] == pytest.approx(1.0 - (1.6 - SQRT2) / 0.6, abs=1e-6)
    assert opt.objective == pytest.approx(2.0 * SQRT2, abs=1e-6)
    assert opt.kkt_residual <= 1e-8


def test_solve_raises_with_witness_on_overload():
    with pytest.raises(InfeasibleSystemError) as exc:
        solve_fluid_optimum(_single_pair(2.0))
    assert exc.value.subset == {"f1"}


def test_solve_raises_on_boundary_saturation():
    with pytest.raises(InfeasibleSystemError):
        solve_fluid_optimum(_single_pair(1.0))


_SHORT_FLOW = make_system(  # f1 alone overloads b1: the max flow falls short
    frontends=[("f1", 2.0), ("f2", 0.5)],
    backends=[("b1", hill(1.0, 1.0)), ("b2", hill(1.0, 1.0))],
    edges=[("f1", "b1"), ("f2", "b1"), ("f2", "b2")],
)
_AT_CAPACITY = make_system(  # f1 exactly fills b1: the flow saturates, f1 is starved
    frontends=[("f1", 1.0), ("f2", 0.5)],
    backends=[("b1", hill(1.0, 1.0)), ("b2", hill(1.0, 1.0))],
    edges=[("f1", "b1"), ("f2", "b1"), ("f2", "b2")],
)


@pytest.mark.parametrize("sys, witness, stable_f, stable_b, throughput", [
    (_SHORT_FLOW, {"f1"}, {"f2"}, {"b2"}, 1.5),
    (_AT_CAPACITY, {"f1"}, {"f2"}, {"b2"}, 1.5),
    (n_model(), {"f1", "f2"}, set(), set(), 2.0),  # both frontends at capacity
])
def test_every_entry_point_reads_the_one_augmented_cut(
        sys, witness, stable_f, stable_b, throughput):
    got, dec, value = _augmented_cut(sys)
    assert got == witness
    lam = sys.lambdas
    nbrs = {j for i in range(len(lam)) if sys.frontend_ids[i] in witness
            for j in sys.backends_of_frontend[i]}
    assert sum(lam[sys.frontend_index[f]] for f in witness) >= sum(
        sys.services[j].cap for j in nbrs)
    assert dec == StabilityDecomposition(frozenset(stable_f), frozenset(stable_b))
    assert value == throughput

    assert feasibility_check(sys) is False
    assert stability_decomposition(sys) == dec
    assert opt_tp(sys) == value
    eq = equilibrium_rates(sys)
    assert (eq.feasible, eq.decomposition, eq.throughput) == (False, dec, value)
    for solve in (solve_fluid_optimum, lambda s: brute_force_optimum(s, grid_step=0.1)):
        with pytest.raises(InfeasibleSystemError) as exc:
            solve(sys)
        assert exc.value.subset == witness


def test_solve_raises_convergence_error_when_the_kkt_check_fails(monkeypatch):
    import gmsr.fluid_opt

    # fig1 decomposes into two blocks: one split round and two finishing rounds
    monkeypatch.setattr(gmsr.fluid_opt, "kkt_residual", lambda *args: 1.0)
    with pytest.raises(ConvergenceError) as exc:
        solve_fluid_optimum(fig1_system())
    assert exc.value.residual == 1.0
    assert exc.value.iterations == 3
    assert "after 3 rounds" in str(exc.value)


def test_solve_near_capacity_returns_a_certified_optimum():
    # the only routing puts the inflow within 1e-10 of the cap
    sys = _single_pair(1.0 - 1e-10)
    assert feasibility_check(sys) is True
    opt = solve_fluid_optimum(sys)
    assert opt.kkt_residual <= 1e-12
    assert opt.n_star[0] == hill(1, 1).inverse(1.0 - 1e-10)


def test_solve_near_capacity_certifies_shared_blocks():
    # the shared level γ ≈ 1e-20 lies below the first bracket [1e-18, 1]
    both = make_system([("f1", 2.0 * (1.0 - 1e-10))],
                       [("b1", hill(1, 1)), ("b2", hill(1, 1))],
                       [("f1", "b1"), ("f1", "b2")])
    opt = solve_fluid_optimum(both)
    assert opt.kkt_residual <= 1e-12
    assert opt.n_star == pytest.approx([1e10, 1e10], rel=1e-5)
    # at 1 - 1e-6 of capacity the shared level γ ≈ 4e-12 keeps the hill
    # backend at 1 - 2e-6 of its cap but puts the exponential one at 1 - 4e-12
    mixed = make_system([("f1", 2.0 * (1.0 - 1e-6))],
                        [("b1", hill(1, 1)), ("b2", saturating_exponential(1, 1))],
                        [("f1", "b1"), ("f1", "b2")])
    opt = solve_fluid_optimum(mixed)
    assert opt.kkt_residual <= 1e-12
    assert 1.0 - mixed.rates_at(opt.n_star)[1] == pytest.approx(4e-12, rel=0.1)


def test_solver_flow_balance_and_kkt_structure():
    rng = np.random.default_rng(24601)
    for _ in range(25):
        sys = _feasible_random_system(rng)
        opt = solve_fluid_optimum(sys)
        assert opt.kkt_residual <= 1e-8
        assert validate_routing(sys, opt.x_star, tol=1e-9) == []
        inflow = np.asarray(sys.lambdas) @ opt.x_star
        np.testing.assert_allclose(inflow, sys.rates_at(opt.n_star), atol=1e-8)
        grads = sys.gradients_at(opt.n_star)
        for i, nbrs in enumerate(sys.backends_of_frontend):
            if sys.lambdas[i] <= 0:
                continue
            supported = [j for j in nbrs if opt.x_star[i, j] > 1e-8]
            if not supported:
                continue
            level = grads[supported]
            assert level.max() - level.min() <= 1e-6
            for j in nbrs:
                assert grads[j] <= level.max() + 1e-6


def test_solver_unique_from_different_starts():
    sys = _n_model_04_06()
    opt_a = solve_fluid_optimum(sys)
    for _ in range(5):
        opt_b = solve_fluid_optimum(sys)
        np.testing.assert_allclose(opt_a.n_star, opt_b.n_star, atol=1e-6)


def test_solver_objective_matches_grid_oracle_on_random_systems():
    rng = np.random.default_rng(80486)
    checked = 0
    while checked < 10:
        sys = _feasible_random_system(rng)
        dims = sum(len(n) - 1 for n in sys.backends_of_frontend if len(n) > 1)
        if dims == 0 or dims > 2:
            continue
        opt = solve_fluid_optimum(sys)
        grid = brute_force_optimum(sys, grid_step=1e-3)
        assert opt.objective <= grid.objective + 1e-6
        assert grid.objective - opt.objective <= 5e-3 * (1 + abs(grid.objective))
        checked += 1


def test_solver_counts_its_work():
    opt = solve_fluid_optimum(fig1_system())
    # one split round and one finishing round per block; the feasibility
    # witness runs first, then every round one transportation flow
    assert len(opt.blocks) == 2
    assert opt.rounds == 2 * len(opt.blocks) - 1
    assert opt.max_flows == 1 + opt.rounds
    assert 0 < opt.bisection_steps <= 201 * opt.rounds
    grid = brute_force_optimum(_single_pair(0.5), grid_step=0.25)
    assert (grid.blocks, grid.rounds, grid.max_flows, grid.bisection_steps) == ((), 0, 0, 0)


def test_each_round_solves_one_transportation_flow(monkeypatch):
    solves = []
    original = TransportNetwork.solve

    def counted(self, *args):
        solves.append(args)
        return original(self, *args)

    monkeypatch.setattr(TransportNetwork, "solve", counted)
    opt = solve_fluid_optimum(fig1_system())
    assert opt.rounds == 3
    assert len(solves) == opt.rounds


def test_zero_rate_frontend_rows_are_uniform():
    sys = make_system(
        frontends=[("f1", 0.5), ("f0", 0.0)],
        backends=[("b1", hill(1.0, 1.0)), ("b2", hill(2.0, 1.0)), ("b3", hill(1.0, 1.0))],
        edges=[("f1", "b1"), ("f1", "b2"), ("f0", "b1"), ("f0", "b2"), ("f0", "b3")],
    )
    opt = solve_fluid_optimum(sys)
    assert opt.x_star[1] == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-15)
    assert all(1 not in fr for fr, _ in opt.blocks)
    assert opt.n_star[2] == 0.0
    assert opt.kkt_residual <= 1e-12


def _subset_ratio(lam, nbr_masks, caps):
    """min over frontend subsets P with λ(P) > 0 of cap(N(P)) / λ(P)."""
    best = math.inf
    for pick in range(1, 1 << len(lam)):
        members = [i for i in range(len(lam)) if pick >> i & 1]
        lam_p = sum(lam[i] for i in members)
        if lam_p <= 0:
            continue
        covered = 0
        for i in members:
            covered |= nbr_masks[i]
        best = min(best, sum(c for j, c in enumerate(caps) if covered >> j & 1) / lam_p)
    return best


def _least_spare(sys, rates):
    """min over nonempty frontend subsets P of Σ_{b∈N(P)} rates_b − λ(P)."""
    lam, nf = sys.lambdas, len(sys.frontends)
    best = math.inf
    for pick in range(1, 1 << nf):
        members = [i for i in range(nf) if pick >> i & 1]
        covered = {j for i in members for j in sys.backends_of_frontend[i]}
        best = min(best, sum(rates[j] for j in covered) - sum(lam[i] for i in members))
    return best


@st.composite
def _optimizer_draws(draw):
    """Systems up to 8x8 (some frontends at rate 0) with arrivals scaled to
    a drawn fraction of the critical scale: well inside, within 1e-6, 1e-9
    or 1e-12 of capacity, or beyond it."""
    nf, nb = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    pos = st.floats(0.2, 3.0, allow_nan=False, allow_infinity=False)
    edges = {(i, draw(st.integers(0, nb - 1))) for i in range(nf)}
    edges |= {(draw(st.integers(0, nf - 1)), j) for j in range(nb)}
    edges |= set(draw(st.lists(st.tuples(st.integers(0, nf - 1), st.integers(0, nb - 1)),
                               max_size=nf * nb)))
    lams = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
                         min_size=nf, max_size=nf))
    if sum(lams) == 0:
        lams[0] = 0.5
    curves = [hill(draw(pos), draw(pos)) if draw(st.booleans())
              else saturating_exponential(draw(pos), draw(pos)) for _ in range(nb)]
    masks = [sum(1 << j for i2, j in edges if i2 == i) for i in range(nf)]
    crit = _subset_ratio(lams, masks, [fn.cap for fn in curves])
    regime = draw(st.sampled_from(["inside", "near", "beyond"]))
    scale = {"inside": draw(st.floats(0.05, 0.9)),
             "near": 1.0 - 10.0 ** -draw(st.sampled_from([6, 9, 12])),
             "beyond": draw(st.floats(1.0 + 1e-6, 3.0))}[regime]
    sys = make_system(
        frontends=[(f"f{i}", lam * crit * scale) for i, lam in enumerate(lams)],
        backends=[(f"b{j}", fn) for j, fn in enumerate(curves)],
        edges=[(f"f{i}", f"b{j}") for i, j in sorted(edges)],
    )
    return sys, regime


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(_optimizer_draws())
@example(draw=(make_system(  # a zero-rate frontend ties two pieces of one block
    frontends=[("f0", 0.5), ("f1", 0.0), ("f2", 0.5)],
    backends=[("b0", saturating_exponential(1.0, 1.0)), ("b1", saturating_exponential(1.0, 1.0))],
    edges=[("f0", "b0"), ("f1", "b0"), ("f1", "b1"), ("f2", "b1")],
), "inside"))
@example(draw=(make_system(  # the grid oracle's third coordinate must not go below 0
    frontends=[("f0", 1.625)],
    backends=[("b0", hill(1.75, 0.5)), ("b1", saturating_exponential(1.0, 3.0)),
              ("b2", saturating_exponential(0.5, 1.0))],
    edges=[("f0", "b0"), ("f0", "b1"), ("f0", "b2")],
), "inside"))
def test_decomposition_is_exact_on_random_systems(draw):
    sys, regime = draw
    lam = np.asarray(sys.lambdas)
    if regime == "beyond" or not feasibility_check(sys):
        with pytest.raises(InfeasibleSystemError) as exc:
            solve_fluid_optimum(sys)
        members = [sys.frontend_index[f] for f in exc.value.subset]
        covered = {j for i in members for j in sys.backends_of_frontend[i]}
        lam_p = float(sum(lam[i] for i in members))
        cap_p = sum(sys.services[j].cap for j in covered)
        assert members and lam_p >= cap_p * (1.0 - 1e-9)
        # the max flow treats residuals up to 1e-12 as zero, so a near draw
        # reads as saturated only when its witness is within that of capacity
        assert regime == "beyond" or cap_p - lam_p <= 1e-12 * len(covered)
        return
    opt = solve_fluid_optimum(sys)
    assert opt.kkt_residual <= 1e-12
    assert kkt_residual(sys, opt.n_star, opt.x_star) <= 1e-12
    assert validate_routing(sys, opt.x_star) == []
    # the KKT conditions relative to each frontend's level, which the
    # absolute residual cannot see when every gradient is tiny
    grads = sys.gradients_at(opt.n_star)
    for i in np.flatnonzero(lam > 0):
        nbrs = sys.backends_of_frontend[i]
        supported = [j for j in nbrs if opt.x_star[i, j] > SUPPORT_EPS]
        top = grads[supported].max()
        assert top - grads[supported].min() <= 1e-12 * top
        assert all(grads[j] <= top * (1.0 + 1e-12) for j in nbrs)
    balance = np.abs(lam @ opt.x_star - sys.rates_at(opt.n_star))
    assert balance.max() <= 1e-12 * (1.0 + lam.sum())
    slack = capacity_slack(sys)
    assert slack.kappa > 0 and math.isfinite(slack.delta)
    assert np.all(slack.n_tilde >= slack.n_star)
    # Δ's max flows stop at residuals of 1e-12 too: Δ reads ≤ 0 only when the
    # least spare capacity at Ñ lies within that floor
    spare = _least_spare(sys, sys.rates_at(slack.n_tilde))
    assert spare > 0
    assert slack.delta > 0 or spare <= 1e-12 * len(sys.backends)

    # the tiers at N* are the connected pieces of the blocks: positive-rate
    # frontends and backends with work, joined by edges inside one block
    graph = nx.Graph()
    for fr, ba in opt.blocks:
        busy = {j for j in ba if opt.n_star[j] > 0}
        graph.add_nodes_from(("f", i) for i in fr)
        graph.add_nodes_from(("b", j) for j in busy)
        graph.add_edges_from((("f", i), ("b", j)) for i in fr
                             for j in sys.backends_of_frontend[i] if j in busy)
    # a zero-rate frontend routes nothing, but its tie edges (neighbours
    # within 1e-9 of its best gradient) join the backends with work it reaches
    for i in np.flatnonzero(lam == 0):
        nbrs = sys.backends_of_frontend[i]
        top = max(grads[j] for j in nbrs)
        graph.add_edges_from((("z", i), ("b", j)) for j in nbrs
                             if grads[j] >= top - 1e-9 and graph.has_node(("b", j)))
    pieces = {
        (frozenset(i for kind, i in comp if kind == "f"),
         frozenset(j for kind, j in comp if kind == "b"))
        for comp in nx.connected_components(graph)
    }
    part = compute_tiers(sys, sys.gradients_at(opt.n_star), tie_tol=1e-9)
    tiers = set()
    for tier in part:
        fr = frozenset(sys.frontend_index[f] for f in tier.frontends if lam[sys.frontend_index[f]] > 0)
        ba = frozenset(sys.backend_index[b] for b in tier.backends
                       if opt.n_star[sys.backend_index[b]] > 0)
        if fr:
            tiers.add((fr, ba))
    assert tiers == pieces

    dims = sum(len(n) - 1 for n in sys.backends_of_frontend if len(n) > 1)
    if regime == "inside" and 0 < dims <= 2:
        grid = brute_force_optimum(sys, grid_step=1e-2)
        assert opt.objective <= grid.objective + 1e-9 * (1.0 + grid.objective)


# -- kkt_residual ----------------------------------------------------------------


def test_kkt_residual_zero_at_optimum():
    sys = _n_model_04_06()
    opt = solve_fluid_optimum(sys)
    assert kkt_residual(sys, opt.n_star, opt.x_star) <= 1e-8


def test_kkt_residual_gradient_gap_case():
    sys = _n_model_04_06()
    n = np.array([2.0, 1.0])
    # x chosen so inflows exactly match mu(N) = (2/3, 1/3)
    x = np.array([[1.0, 0.0], [4.0 / 9.0, 5.0 / 9.0]])
    assert kkt_residual(sys, n, x) == pytest.approx(1.0 / 9.0, abs=1e-12)


def test_kkt_residual_contains_flow_violation():
    sys = _single_pair(0.5)
    delta = 0.125
    n = np.array([1.0])  # mu(1) = 0.5; scale lambda mass vs balance by delta
    x = np.array([[1.0]])
    shifted = make_system([("f1", 0.5 + delta)], [("b1", hill(1, 1))], [("f1", "b1")])
    assert kkt_residual(shifted, n, x) >= delta - 1e-12


def test_kkt_residual_shape_errors():
    sys = _n_model_04_06()
    with pytest.raises(ValueError):
        kkt_residual(sys, np.ones(3), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        kkt_residual(sys, np.ones(2), np.zeros((2, 3)))


# -- brute_force_optimum -----------------------------------------------------------


def test_grid_oracle_matches_solver_on_two_backend_example():
    sys = _n_model_04_06()
    grid = brute_force_optimum(sys, grid_step=1e-6)
    opt = solve_fluid_optimum(sys)
    assert grid.objective == pytest.approx(opt.objective, abs=1e-5)
    assert grid.x_star[1, 0] == pytest.approx(opt.x_star[1, 0], abs=1e-4)


def test_grid_oracle_single_pair_exact():
    grid = brute_force_optimum(_single_pair(0.5), grid_step=0.25)
    assert grid.objective == pytest.approx(1.0, abs=1e-12)
    assert grid.kkt_residual <= 1e-12


def test_grid_oracle_symmetric_split():
    sys = make_system(
        [("f1", 0.8)],
        [("b1", hill(1, 1)), ("b2", hill(1, 1))],
        [("f1", "b1"), ("f1", "b2")],
    )
    grid = brute_force_optimum(sys, grid_step=1e-4)
    assert grid.x_star[0, 0] == pytest.approx(0.5, abs=1e-4)
    assert grid.x_star[0, 1] == pytest.approx(0.5, abs=1e-4)


def test_grid_oracle_rejects_high_dimension():
    sys = make_system(
        [("f1", 0.1), ("f2", 0.1), ("f3", 0.1)],
        [("b1", hill(1, 1)), ("b2", hill(1, 1))],
        [(f, b) for f in ("f1", "f2", "f3") for b in ("b1", "b2")],
    )
    with pytest.raises(ValueError):
        brute_force_optimum(sys, grid_step=0.1)


# -- equilibrium_rates ---------------------------------------------------------------


def test_equilibrium_rates_overloaded_disjoint_pairs():
    sys = make_system(
        frontends=[("f1", 2.0), ("f2", 0.5)],
        backends=[("b1", hill(1.0, 1.0)), ("b2", hill(1.0, 1.0))],
        edges=[("f1", "b1"), ("f2", "b2")],
    )
    eq = equilibrium_rates(sys)
    np.testing.assert_allclose(eq.rates, [1.0, 0.5], atol=1e-7)
    assert math.isinf(eq.workloads[0])
    assert eq.workloads[1] == pytest.approx(1.0, abs=1e-6)
    assert eq.decomposition.backends == {"b2"}


def test_equilibrium_rates_feasible_system_matches_optimum():
    sys = _n_model_04_06()
    eq = equilibrium_rates(sys)
    np.testing.assert_allclose(eq.rates, [2.0 - SQRT2, SQRT2 - 1.0], atol=1e-6)
    opt = solve_fluid_optimum(sys)
    np.testing.assert_allclose(eq.workloads, opt.n_star, atol=1e-6)
    assert eq.decomposition.frontends == {"f1", "f2"}


def test_equilibrium_rates_are_not_truncated_by_integer_caps():
    # hill(1, 1) stores an int cap; the stable rate 0.5 must survive
    for curve in (hill(1, 1), hill(1.0, 1.0)):
        eq = equilibrium_rates(make_system([("f1", 0.5)], [("b1", curve)], [("f1", "b1")]))
        assert eq.rates.dtype == float
        assert eq.rates[0] == pytest.approx(0.5, abs=1e-12)


def test_equilibrium_rates_fully_overloaded():
    sys = make_system(
        frontends=[("f1", 0.4), ("f2", 2.0)],
        backends=[("b1", hill(1.0, 1.0)), ("b2", hill(1.0, 2.0))],
        edges=[("f1", "b1"), ("f2", "b1"), ("f2", "b2")],
    )
    eq = equilibrium_rates(sys)
    np.testing.assert_allclose(eq.rates, [1.0, 1.0])
    assert np.all(np.isinf(eq.workloads))
    assert eq.decomposition.frontends == frozenset()


def test_equilibrium_total_is_peak_throughput():
    from gmsr.flownet import opt_tp

    rng = np.random.default_rng(555)
    for _ in range(30):
        sys = random_system(rng, max_frontends=4, max_backends=4, lam_range=(0.1, 2.5))
        eq = equilibrium_rates(sys)
        assert eq.rates.sum() == pytest.approx(opt_tp(sys), abs=1e-6)
