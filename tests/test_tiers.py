import numpy as np
import pytest

from gmsr.fluid_dyn import gmsr_routing_set
from gmsr.model import hill, make_system
from gmsr.tiers import (
    Tier,
    best_backend_graph,
    compute_tiers,
    reach,
    tie_components,
    tie_masks,
    tier_graph,
)

from support import FIG1_GRADS, fig1_system, random_system


def _two_pairs():
    return make_system(
        frontends=[("f1", 1.0), ("f2", 1.0)],
        backends=[("b1", hill(1, 1)), ("b2", hill(1, 1))],
        edges=[("f1", "b1"), ("f2", "b2")],
    )


# -- best_backend_graph --------------------------------------------------------


def test_best_backend_graph_matches_reference_profile():
    got = best_backend_graph(fig1_system(), FIG1_GRADS, tie_tol=1e-9)
    assert got == {("f1", "b1"), ("f2", "b2"), ("f3", "b4"), ("f4", "b5"), ("f4", "b1")}


def test_best_backend_graph_all_equal_keeps_every_edge():
    sys = fig1_system()
    got = best_backend_graph(sys, np.full(5, 2.0), tie_tol=1e-9)
    assert got == set(sys.edges)


def test_best_backend_graph_single_pair():
    sys = make_system([("f1", 1.0)], [("b1", hill(1, 1))], [("f1", "b1")])
    assert best_backend_graph(sys, np.array([0.7]), tie_tol=1e-9) == {("f1", "b1")}


def test_best_backend_graph_monotone_in_tie_tol():
    rng = np.random.default_rng(101)
    for _ in range(50):
        sys = random_system(rng)
        g = rng.uniform(0.1, 1.0, size=len(sys.backends))
        narrow = best_backend_graph(sys, g, tie_tol=1e-9)
        wide = best_backend_graph(sys, g, tie_tol=0.5)
        assert narrow <= wide


def test_best_backend_graph_dimension_mismatch():
    with pytest.raises(ValueError):
        best_backend_graph(fig1_system(), np.ones(3), tie_tol=1e-9)


# -- compute_tiers ---------------------------------------------------------------


def test_compute_tiers_matches_reference_partition():
    part = compute_tiers(fig1_system(), FIG1_GRADS, tie_tol=1e-9)
    assert [t.frontends for t in part] == [("f1", "f4"), ("f2",), ("f3",), ()]
    assert [t.backends for t in part] == [("b1", "b5"), ("b2",), ("b4",), ("b3",)]
    assert [t.gradient for t in part] == [3.0, 2.0, 2.0, 1.0]


def test_compute_tiers_all_equal_connected_is_one_tier():
    sys = fig1_system()
    part = compute_tiers(sys, np.full(5, 1.5), tie_tol=1e-9)
    assert len(part) == 1
    assert part.tiers[0] == Tier(
        frontends=("f1", "f2", "f3", "f4"),
        backends=("b1", "b2", "b3", "b4", "b5"),
        gradient=1.5,
    )


def test_compute_tiers_disjoint_pairs():
    part = compute_tiers(_two_pairs(), np.array([0.3, 0.9]), tie_tol=1e-9)
    assert len(part) == 2
    assert part.tiers[0].backends == ("b1",)
    assert part.tiers[1].backends == ("b2",)


def test_partition_lookup_helpers():
    part = compute_tiers(fig1_system(), FIG1_GRADS, tie_tol=1e-9)
    assert part.tier_of_frontend("f4") == 0
    assert part.tier_of_backend("b3") == 3
    with pytest.raises(KeyError):
        part.tier_of_backend("b9")


# -- tier_graph / reach ----------------------------------------------------------


def test_tier_graph_matches_reference_arcs():
    sys = fig1_system()
    part = compute_tiers(sys, FIG1_GRADS, tie_tol=1e-9)
    tg = tier_graph(sys, part)
    assert tg.n == 4
    assert tg.arcs == {(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)}


def test_tier_graph_single_tier_has_no_arcs():
    sys = fig1_system()
    part = compute_tiers(sys, np.full(5, 1.0), tie_tol=1e-9)
    assert tier_graph(sys, part).arcs == frozenset()


def test_tier_graph_disjoint_pairs_have_no_arcs():
    sys = _two_pairs()
    part = compute_tiers(sys, np.array([0.3, 0.9]), tie_tol=1e-9)
    assert tier_graph(sys, part).arcs == frozenset()


def test_tier_graph_rejects_partition_not_covering_system():
    sys = fig1_system()
    part = compute_tiers(_two_pairs(), np.array([1.0, 1.0]), tie_tol=1e-9)
    with pytest.raises(ValueError):
        tier_graph(sys, part)


def test_reach_on_reference_graph():
    sys = fig1_system()
    tg = tier_graph(sys, compute_tiers(sys, FIG1_GRADS, tie_tol=1e-9))
    assert reach(tg, 0, 3)
    assert reach(tg, 0, 1) and reach(tg, 0, 2)
    assert reach(tg, 1, 3) and reach(tg, 2, 3)
    assert not reach(tg, 3, 0)
    assert not reach(tg, 1, 2)
    for i in range(4):
        assert not reach(tg, i, i)
    with pytest.raises(IndexError):
        reach(tg, 0, 7)


# -- randomized structural invariants ---------------------------------------------


def _is_acyclic(n, arcs):
    succ = {i: [] for i in range(n)}
    indeg = {i: 0 for i in range(n)}
    for u, v in arcs:
        succ[u].append(v)
        indeg[v] += 1
    frontier = [i for i in range(n) if indeg[i] == 0]
    seen = 0
    while frontier:
        u = frontier.pop()
        seen += 1
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                frontier.append(v)
    return seen == n


def test_random_states_give_acyclic_ordered_partitions():
    rng = np.random.default_rng(20240818)
    tie_tol = 1e-9
    for _ in range(1000):
        sys = random_system(rng)
        n = rng.uniform(0.0, 5.0, size=len(sys.backends))
        g = sys.gradients_at(n)
        part = compute_tiers(sys, g, tie_tol)
        # exact cover
        all_f = [f for t in part for f in t.frontends]
        all_b = [b for t in part for b in t.backends]
        assert sorted(all_f) == sorted(sys.frontend_ids)
        assert sorted(all_b) == sorted(sys.backend_ids)
        for t in part:
            assert t.backends  # backend set never empty
            if not t.frontends:
                assert len(t.backends) == 1
        tg = tier_graph(sys, part)
        assert _is_acyclic(tg.n, tg.arcs)
        # gradient decreases along reachability
        for i in range(tg.n):
            for j in range(tg.n):
                if i != j and reach(tg, i, j):
                    assert part.tiers[i].gradient > part.tiers[j].gradient - 2 * tie_tol


# -- tie masks and tie components ------------------------------------------------


def _networkx_groups(nx, nf, nb, masks):
    """tie_components' groups from networkx connected components: components
    holding a frontend ordered by their lowest frontend, then lone backends."""
    graph = nx.Graph()
    graph.add_nodes_from(("f", i) for i in range(nf))
    graph.add_nodes_from(("b", j) for j in range(nb))
    graph.add_edges_from(
        (("f", i), ("b", j)) for i in range(nf) for j in range(nb) if masks[i] >> j & 1
    )
    groups = []
    for comp in nx.connected_components(graph):
        fs = tuple(sorted(k for side, k in comp if side == "f"))
        bs = tuple(sorted(k for side, k in comp if side == "b"))
        groups.append((fs, bs))
    with_f = sorted((g for g in groups if g[0]), key=lambda g: g[0][0])
    lone_b = sorted((g for g in groups if not g[0]), key=lambda g: g[1][0])
    return tuple(with_f + lone_b)


def test_tie_components_match_networkx_components():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(5150)
    for _ in range(400):
        sys = random_system(rng, max_frontends=8, max_backends=8)
        nf, nb = len(sys.frontends), len(sys.backends)
        masks = []
        for nbrs in sys.backends_of_frontend:
            if rng.random() < 0.2:
                masks.append(0)  # a frontend with no tied backend
                continue
            masks.append(sum(1 << j for j in nbrs if rng.random() < 0.6))
        assert tie_components(sys, tuple(masks)) == _networkx_groups(nx, nf, nb, masks)


def _reference_sets(sys, g, band):
    return {
        i: {j for j in nbrs if g[j] >= max(g[k] for k in nbrs) - band}
        for i, nbrs in enumerate(sys.backends_of_frontend)
    }


def test_tied_best_sets_agree_across_entry_points():
    rng = np.random.default_rng(8086)
    levels = np.array([0.0, 0.25, 0.5, 1.0, 3.0])  # repeated workloads: exact ties
    boundary_hits = 0
    for _ in range(300):
        shape = random_system(rng, max_frontends=6, max_backends=6)
        sys = make_system(  # one curve for all, so equal workloads tie exactly
            frontends=[(f.id, f.lam) for f in shape.frontends],
            backends=[(b.id, hill(1.0, 1.0)) for b in shape.backends],
            edges=shape.edges,
        )
        n = rng.choice(levels, size=len(sys.backends))
        g = sys.gradients_at(n)
        # a band that puts some backend exactly at top - band: for gradients
        # within a factor 2, top - g[b] and top - (top - g[b]) are exact
        i = int(rng.integers(len(sys.frontends)))
        nbrs = sys.backends_of_frontend[i]
        top = max(g[j] for j in nbrs)
        below = [j for j in nbrs if top / 2 <= g[j] < top]
        band = 1e-9
        if below and rng.random() < 0.7:
            j = below[int(rng.integers(len(below)))]
            band = float(top - g[j])
            assert top - band == g[j]
            boundary_hits += 1
        expected = _reference_sets(sys, g, band)

        masks = tie_masks(sys.backends_of_frontend, g.tolist(), band)
        edges = best_backend_graph(sys, g, band)
        routing = gmsr_routing_set(sys, n, band)
        for k, f in enumerate(sys.frontend_ids):
            from_masks = {j for j in range(len(sys.backends)) if masks[k] >> j & 1}
            from_graph = {sys.backend_index[b] for ff, b in edges if ff == f}
            from_routing = {sys.backend_index[b] for b in routing[f]}
            assert from_masks == from_graph == from_routing == expected[k]
    assert boundary_hits > 50
