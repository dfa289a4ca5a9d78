import math

import numpy as np
import pytest

from gmsr.flownet import feasibility_check
from gmsr.fluid_opt import (
    CapacityMarginError,
    ConvergenceError,
    InfeasibleSystemError,
    brute_force_optimum,
    equilibrium_rates,
    kkt_residual,
    solve_fluid_optimum,
)
from gmsr.model import hill, make_system, validate_routing

from support import feasible_random_system as _feasible_random_system
from support import n_model, random_system

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


def test_solve_raises_convergence_error_when_iterations_run_out():
    # the README's N-model: three mirror-descent steps leave KKT near 0.49
    with pytest.raises(ConvergenceError) as exc:
        solve_fluid_optimum(_n_model_04_06(), max_iter=3)
    assert exc.value.iterations == 3
    assert exc.value.residual > 0.1
    assert "after 3 iterations" in str(exc.value)
    assert solve_fluid_optimum(_n_model_04_06()).kkt_residual <= 1e-8


def test_solve_near_capacity_fails_with_named_error():
    # feasible, but the only routing puts the inflow above (1 - 1e-9)·cap
    sys = _single_pair(1.0 - 1e-10)
    assert feasibility_check(sys) is True
    with pytest.raises(CapacityMarginError) as exc:
        solve_fluid_optimum(sys)
    assert exc.value.backends == ("b1",)
    assert "capacity" in str(exc.value)


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
    rng = np.random.default_rng(1123)
    sys = _n_model_04_06()
    for _ in range(5):
        x0 = np.where(sys.edge_matrix, rng.random(sys.edge_matrix.shape), 0.0)
        opt_a = solve_fluid_optimum(sys)
        opt_b = solve_fluid_optimum(sys, x0=x0)
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
