import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gmsr.model import (
    BipartiteSystem,
    SaturationError,
    as_workload,
    hill,
    make_system,
    saturating_exponential,
    validate_routing,
    validate_system,
)

KAPPA_NMODEL = (3.0 - 2.0 * math.sqrt(2.0)) / 2.0  # shared tangent gradient below


def _random_curve(rng):
    if rng.random() < 0.5:
        return hill(cap=rng.uniform(0.5, 4.0), half=rng.uniform(0.3, 3.0))
    return saturating_exponential(cap=rng.uniform(0.5, 4.0), rate=rng.uniform(0.3, 3.0))


def _n_model():
    return make_system(
        frontends=[("f1", 1.0), ("f2", 1.0)],
        backends=[("b1", hill(1.0, 1.0)), ("b2", hill(1.0, 2.0))],
        edges=[("f1", "b1"), ("f2", "b1"), ("f2", "b2")],
    )


# -- ServiceRateFn.value -------------------------------------------------------


def test_eval_rate_hill_examples():
    assert hill(1, 1).value(2.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert hill(1, 2).value(1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_eval_rate_zero_workload_is_zero():
    assert hill(2.5, 0.7).value(0.0) == 0.0
    assert saturating_exponential(1.3, 2.0).value(0.0) == 0.0


def test_eval_rate_rejects_negative_workload():
    with pytest.raises(ValueError):
        hill(1, 1).value(-0.1)


def test_eval_rate_stays_below_cap():
    fn = saturating_exponential(2.0, 1.5)
    for n in (0.0, 1.0, 10.0, 20.0):  # e^{-rN} must stay above float eps for strictness
        assert 0.0 <= fn.value(n) < 2.0
    assert hill(2.0, 0.5).value(1e9) < 2.0


# -- ServiceRateFn.gradient ----------------------------------------------------


def test_eval_gradient_examples():
    assert hill(1, 1).gradient(0.0) == pytest.approx(1.0, abs=1e-15)
    assert saturating_exponential(1, 1).gradient(0.0) == pytest.approx(1.0, abs=1e-15)
    # frozen from a central finite difference with step 1e-6 (agrees to <1e-8)
    assert hill(1, 2).gradient(1.0) == pytest.approx(2.0 / 9.0, abs=1e-8)


def test_eval_gradient_rejects_negative_workload():
    with pytest.raises(ValueError):
        saturating_exponential(1, 1).gradient(-1e-9)


# -- ServiceRateFn.inverse -----------------------------------------------------


def test_invert_rate_examples():
    assert hill(1, 1).inverse(0.5) == pytest.approx(1.0, abs=1e-12)
    assert hill(1, 2).inverse(1.0 / 3.0) == pytest.approx(1.0, abs=1e-12)
    assert saturating_exponential(3, 2).inverse(0.0) == 0.0


def test_invert_rate_saturation_and_domain_errors():
    with pytest.raises(SaturationError):
        hill(1, 1).inverse(1.0)
    with pytest.raises(SaturationError):
        saturating_exponential(2, 1).inverse(2.5)
    with pytest.raises(ValueError):
        hill(1, 1).inverse(-0.5)


# -- ServiceRateFn.gradient_inverse --------------------------------------------


def test_invert_gradient_examples():
    assert hill(1, 1).gradient_inverse(1.0) == pytest.approx(0.0, abs=1e-12)
    # frozen from bisection on 1/(N+1)^2 = g and 2/(N+2)^2 = g respectively
    assert hill(1, 1).gradient_inverse(KAPPA_NMODEL) == pytest.approx(2.414214, abs=1e-6)
    assert hill(1, 2).gradient_inverse(KAPPA_NMODEL) == pytest.approx(2.828427, abs=1e-6)


def test_invert_gradient_errors():
    with pytest.raises(ValueError):
        hill(1, 1).gradient_inverse(1.0 + 1e-9)  # above mu'(0)
    with pytest.raises(ValueError):
        hill(1, 1).gradient_inverse(0.0)
    with pytest.raises(ValueError):
        saturating_exponential(1, 2).gradient_inverse(-0.3)


# -- curve invariants ----------------------------------------------------------


def test_curves_increasing_concave_and_derivatives_match():
    rng = np.random.default_rng(20240817)
    h = 1e-4
    fd_step = 1e-5
    for _ in range(1000):
        fn = _random_curve(rng)
        # keep r*N modest for the exponential family so the curve is still
        # resolvably below its cap in double precision
        hi = 10.0 if fn.kind == "hill" else min(10.0, 5.0 / fn.rate)
        n = rng.uniform(0.0, hi)
        assert fn.value(n + h) > fn.value(n)
        assert fn.curvature(n) < 0.0
        fd = (fn.value(n + fd_step) - fn.value(max(n - fd_step, 0.0))) / (
            fd_step + min(n, fd_step)
        )
        grad = fn.gradient(n)
        assert abs(grad - fd) <= 1e-6 * abs(grad)
        cd = (fn.gradient(n + fd_step) - fn.gradient(max(n - fd_step, 0.0))) / (
            fd_step + min(n, fd_step)
        )
        assert abs(fn.curvature(n) - cd) <= 1e-4 * abs(fn.curvature(n))


@given(
    st.sampled_from(["hill", "satexp"]),
    st.floats(0.5, 4.0),
    st.floats(0.3, 3.0),
    st.floats(0.0, 1000.0),
)
def test_rate_round_trip(kind, cap, shape, n):
    fn = hill(cap, shape) if kind == "hill" else saturating_exponential(cap, shape)
    y = fn.value(n)
    if cap - y <= 1e-5 * cap:  # near saturation the workload is not float-recoverable
        return
    assert abs(fn.inverse(y) - n) <= 1e-9 * (1.0 + n)


@given(
    st.sampled_from(["hill", "satexp"]),
    st.floats(0.5, 4.0),
    st.floats(0.3, 3.0),
    st.floats(0.0, 100.0),
)
def test_gradient_round_trip(kind, cap, shape, n):
    fn = hill(cap, shape) if kind == "hill" else saturating_exponential(cap, shape)
    g = fn.gradient(n)
    assert abs(fn.gradient_inverse(g) - n) <= 1e-9 * (1.0 + n)


def test_round_trip_band_matches_tolerance_contract():
    rng = np.random.default_rng(7)
    for _ in range(200):
        fn = _random_curve(rng)
        # hill inverses are well conditioned over the whole range; the
        # exponential family only while e^{-rN} is comfortably above eps
        hi = 1000.0 if fn.kind == "hill" else 14.0 / fn.rate
        n = rng.uniform(0.0, hi)
        assert abs(fn.inverse(fn.value(n)) - n) <= 1e-10 * (1.0 + n)


# -- constructor validation ----------------------------------------------------


def test_curve_parameter_validation():
    with pytest.raises(ValueError):
        hill(0.0, 1.0)
    with pytest.raises(ValueError):
        hill(1.0, -1.0)
    with pytest.raises(ValueError):
        saturating_exponential(1.0, 0.0)
    with pytest.raises(ValueError):
        hill(math.inf, 1.0)


# -- validate_system -----------------------------------------------------------


def test_validate_system_n_model_is_clean():
    assert validate_system(_n_model()) == []


def test_validate_system_flags_isolated_backend():
    sys = make_system(
        frontends=[("f1", 1.0)],
        backends=[("b1", hill(1, 1)), ("b2", hill(1, 1))],
        edges=[("f1", "b1")],
    )
    report = validate_system(sys)
    assert len(report) == 1
    assert "isolated" in report[0] and "b2" in report[0]


def test_validate_system_flags_negative_rate():
    sys = make_system(
        frontends=[("f1", -1.0)],
        backends=[("b1", hill(1, 1))],
        edges=[("f1", "b1")],
    )
    report = validate_system(sys)
    assert len(report) == 1
    assert "negative" in report[0]


def test_validate_system_flags_dangling_edge_and_duplicates():
    sys = BipartiteSystem(
        frontends=(make_system([("f1", 1.0)], [("b1", hill(1, 1))], [("f1", "b1")]).frontends[0],),
        backends=(make_system([("f1", 1.0)], [("b1", hill(1, 1))], [("f1", "b1")]).backends[0],),
        edges=(("f1", "b1"), ("f1", "ghost")),
    )
    report = validate_system(sys)
    assert any("unknown backend" in r for r in report)

    dup = make_system(
        frontends=[("f1", 1.0), ("f1", 2.0)],
        backends=[("b1", hill(1, 1))],
        edges=[("f1", "b1")],
    )
    assert any("duplicate" in r for r in validate_system(dup))


# -- indexing and array helpers -------------------------------------------------


def test_index_structures_follow_input_order():
    sys = _n_model()
    assert sys.frontend_index == {"f1": 0, "f2": 1}
    assert sys.backend_index == {"b1": 0, "b2": 1}
    assert sys.backends_of_frontend == ((0,), (0, 1))
    assert sys.frontends_of_backend == ((0, 1), (1,))
    assert sys.edge_matrix.tolist() == [[True, False], [True, True]]


def test_vectorized_rates_match_scalar():
    sys = _n_model()
    n = np.array([2.0, 1.0])
    np.testing.assert_allclose(sys.rates_at(n), [2.0 / 3.0, 1.0 / 3.0], rtol=1e-15)
    np.testing.assert_allclose(
        sys.gradients_at(n),
        [sys.services[0].gradient(2.0), sys.services[1].gradient(1.0)],
        rtol=1e-15,
    )
    assert np.all(sys.curvatures_at(n) < 0)


def test_as_workload_coercions():
    sys = _n_model()
    np.testing.assert_allclose(as_workload(sys, {"b2": 3.0}), [0.0, 3.0])
    np.testing.assert_allclose(as_workload(sys, 1.5), [1.5, 1.5])
    np.testing.assert_allclose(as_workload(sys, [1.0, 2.0]), [1.0, 2.0])
    with pytest.raises(KeyError):
        as_workload(sys, {"nope": 1.0})


def test_validate_routing():
    sys = _n_model()
    good = np.array([[1.0, 0.0], [0.25, 0.75]])
    assert validate_routing(sys, good) == []
    off_edge = np.array([[0.5, 0.5], [0.0, 1.0]])
    assert any("non-edge" in r for r in validate_routing(sys, off_edge))
    bad_sum = np.array([[0.9, 0.0], [0.0, 1.0]])
    assert any("sums to" in r for r in validate_routing(sys, bad_sum))
