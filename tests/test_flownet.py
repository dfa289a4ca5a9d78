import math
from collections import deque
from itertools import chain, combinations

import numpy as np
import pytest

from gmsr.flownet import (
    FlowNetwork,
    augmented_network,
    feasibility_check,
    max_flow,
    opt_tp,
    stability_decomposition,
    transportation_feasible,
)
from gmsr.model import hill, make_system

from support import fig1_system, n_model, random_system


def _n_model_rates(l1=0.4, l2=0.6):
    return make_system(
        frontends=[("f1", l1), ("f2", l2)],
        backends=[("b1", hill(1.0, 1.0)), ("b2", hill(1.0, 2.0))],
        edges=[("f1", "b1"), ("f2", "b1"), ("f2", "b2")],
    )


def _disjoint_pairs(l1=2.0, l2=0.5):
    return make_system(
        frontends=[("f1", l1), ("f2", l2)],
        backends=[("b1", hill(1.0, 1.0)), ("b2", hill(1.0, 1.0))],
        edges=[("f1", "b1"), ("f2", "b2")],
    )


def _nonempty_subsets(items):
    items = sorted(items)
    return chain.from_iterable(combinations(items, r) for r in range(1, len(items) + 1))


# -- max_flow ------------------------------------------------------------------


def test_max_flow_n_model_value():
    res = max_flow(augmented_network(_n_model_rates(0.4, 0.6)))
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_max_flow_zero_arrivals():
    res = max_flow(augmented_network(_n_model_rates(0.0, 0.0)))
    assert res.value == 0.0


def test_max_flow_disjoint_pairs():
    res = max_flow(augmented_network(_disjoint_pairs(2.0, 0.5)))
    assert res.value == pytest.approx(1.5, abs=1e-12)


def test_max_flow_conservation_and_capacity():
    rng = np.random.default_rng(42)
    for _ in range(50):
        sys = random_system(rng, max_frontends=3, max_backends=4)
        net = augmented_network(sys)
        res = max_flow(net)
        inflow = {n: 0.0 for n in net.nodes}
        outflow = {n: 0.0 for n in net.nodes}
        caps = {}
        for u, v, c in net.arcs:
            caps[(u, v)] = caps.get((u, v), 0.0) + c
        for (u, v), w in res.flows.items():
            assert w >= -1e-12
            assert w <= caps[(u, v)] + 1e-9 or math.isinf(caps[(u, v)])
            outflow[u] += w
            inflow[v] += w
        for n in net.nodes:
            if n not in (net.source, net.sink):
                assert inflow[n] == pytest.approx(outflow[n], abs=1e-9)
        assert res.value == pytest.approx(outflow[net.source], abs=1e-9)


def _min_cut_by_enumeration(net: FlowNetwork) -> float:
    caps = {}
    for u, v, c in net.arcs:
        caps[(u, v)] = caps.get((u, v), 0.0) + c
    interior = [n for n in net.nodes if n not in (net.source, net.sink)]
    best = math.inf
    for r in range(len(interior) + 1):
        for added in combinations(interior, r):
            s_side = set(added) | {net.source}
            cut = sum(c for (u, v), c in caps.items() if u in s_side and v not in s_side)
            best = min(best, cut)
    return best


def test_max_flow_equals_min_cut_enumeration():
    rng = np.random.default_rng(20240819)
    for _ in range(60):
        sys = random_system(rng, max_frontends=3, max_backends=4)
        net = augmented_network(sys)
        res = max_flow(net)
        assert res.value == pytest.approx(_min_cut_by_enumeration(net), abs=1e-9)


def test_max_flow_cut_sides_certify_value():
    # the residual-reachable set is the source side of a minimum cut
    sys = _disjoint_pairs(2.0, 0.5)
    net = augmented_network(sys)
    res = max_flow(net)
    caps = {(u, v): c for u, v, c in net.arcs}
    cut = sum(
        c for (u, v), c in caps.items() if u in res.source_side and v not in res.source_side
    )
    assert cut == pytest.approx(res.value, abs=1e-9)


# -- feasibility_check -----------------------------------------------------------


def test_feasibility_n_model():
    assert feasibility_check(_n_model_rates(0.4, 0.6)) is True


def test_feasibility_single_pair_overload():
    sys = make_system([("f1", 2.0)], [("b1", hill(1, 1))], [("f1", "b1")])
    assert feasibility_check(sys) is False


def test_feasibility_exact_boundary_is_infeasible():
    # arrivals exactly matching capacity leave no finite-workload equilibrium
    sys = make_system([("f1", 1.0)], [("b1", hill(1, 1))], [("f1", "b1")])
    assert feasibility_check(sys) is False


def test_feasibility_matches_subset_enumeration():
    rng = np.random.default_rng(77)
    for _ in range(100):
        sys = random_system(rng, max_frontends=4, max_backends=4, lam_range=(0.1, 2.0))
        caps = np.array([fn.cap for fn in sys.services])
        expected = True
        for p in _nonempty_subsets(range(len(sys.frontends))):
            nbhd = set()
            for i in p:
                nbhd.update(sys.backends_of_frontend[i])
            if sum(sys.lambdas[i] for i in p) >= sum(caps[j] for j in nbhd):
                expected = False
                break
        assert feasibility_check(sys) is expected


# -- stability_decomposition ------------------------------------------------------


def _decompositions_by_enumeration(sys):
    """All (F,B) pairs satisfying the three defining conditions, by brute force."""
    lam = sys.lambdas
    caps = [fn.cap for fn in sys.services]
    nb = len(sys.backends)
    found = []
    for mask in range(1 << nb):
        b_set = {j for j in range(nb) if mask >> j & 1}
        f_set = set()
        for j in b_set:
            f_set.update(sys.frontends_of_backend[j])  # condition 1 by construction
        ok = True
        for p in _nonempty_subsets(f_set):
            nbhd = set()
            for i in p:
                nbhd.update(sys.backends_of_frontend[i])
            if not sum(lam[i] for i in p) < sum(caps[j] for j in nbhd & b_set):
                ok = False
                break
        if ok:
            for q in _nonempty_subsets(set(range(nb)) - b_set):
                fq = set()
                for j in q:
                    fq.update(sys.frontends_of_backend[j])
                if not sum(lam[i] for i in fq - f_set) >= sum(caps[j] for j in q):
                    ok = False
                    break
        if ok:
            found.append(
                (
                    frozenset(sys.frontend_ids[i] for i in f_set),
                    frozenset(sys.backend_ids[j] for j in b_set),
                )
            )
    return found


def test_decomposition_disjoint_pairs():
    dec = stability_decomposition(_disjoint_pairs(2.0, 0.5))
    assert dec.frontends == {"f2"}
    assert dec.backends == {"b2"}


def test_decomposition_fully_overloaded_variant():
    sys = _n_model_rates(0.4, 2.0)
    dec = stability_decomposition(sys)
    assert dec.frontends == frozenset()
    assert dec.backends == frozenset()
    assert _decompositions_by_enumeration(sys) == [(frozenset(), frozenset())]


def test_decomposition_feasible_system_is_everything():
    sys = _n_model_rates(0.4, 0.6)
    dec = stability_decomposition(sys)
    assert dec.frontends == {"f1", "f2"}
    assert dec.backends == {"b1", "b2"}


def test_decomposition_matches_enumeration_and_is_unique():
    rng = np.random.default_rng(31337)
    for _ in range(80):
        sys = random_system(rng, max_frontends=4, max_backends=4, lam_range=(0.1, 3.0))
        dec = stability_decomposition(sys)
        found = _decompositions_by_enumeration(sys)
        assert len(found) == 1
        assert found[0] == (dec.frontends, dec.backends)


def test_decomposition_boundary_subset_goes_unstable():
    # f1 exactly saturates b1 -> both classified unstable; f2/b2 unaffected
    sys = make_system(
        frontends=[("f1", 1.0), ("f2", 0.25)],
        backends=[("b1", hill(1.0, 1.0)), ("b2", hill(1.0, 1.0))],
        edges=[("f1", "b1"), ("f2", "b2")],
    )
    dec = stability_decomposition(sys)
    assert dec.frontends == {"f2"}
    assert dec.backends == {"b2"}
    assert _decompositions_by_enumeration(sys) == [(frozenset({"f2"}), frozenset({"b2"}))]


# -- opt_tp -----------------------------------------------------------------------


def test_opt_tp_examples():
    assert opt_tp(_disjoint_pairs(2.0, 0.5)) == pytest.approx(1.5, abs=1e-12)
    assert opt_tp(_n_model_rates(0.4, 0.6)) == pytest.approx(1.0, abs=1e-12)
    assert opt_tp(_n_model_rates(0.0, 0.0)) == 0.0


def test_opt_tp_equals_decomposition_formula():
    rng = np.random.default_rng(5150)
    for _ in range(60):
        sys = random_system(rng, max_frontends=4, max_backends=4, lam_range=(0.1, 3.0))
        dec = stability_decomposition(sys)
        stable_arrivals = sum(
            sys.lambdas[sys.frontend_index[f]] for f in dec.frontends
        )
        unstable_caps = sum(
            fn.cap for b, fn in zip(sys.backend_ids, sys.services) if b not in dec.backends
        )
        assert opt_tp(sys) == pytest.approx(stable_arrivals + unstable_caps, abs=1e-9)


def test_opt_tp_dominates_random_feasible_throughputs():
    rng = np.random.default_rng(8080)
    for _ in range(40):
        sys = random_system(rng, max_frontends=4, max_backends=4, lam_range=(0.1, 3.0))
        peak = opt_tp(sys)
        caps = np.array([fn.cap for fn in sys.services])
        for _ in range(20):
            x = np.zeros((len(sys.frontends), len(sys.backends)))
            for i, nbrs in enumerate(sys.backends_of_frontend):
                weights = rng.random(len(nbrs))
                x[i, list(nbrs)] = weights / weights.sum()
            inflow = np.asarray(sys.lambdas) @ x
            rates = np.minimum(inflow, caps * rng.uniform(0.5, 1.0, size=len(caps)))
            assert rates.sum() <= peak + 1e-9


def test_max_flow_grows_with_lambda_iff_frontend_is_stable():
    rng = np.random.default_rng(9090)
    tried = 0
    for _ in range(60):
        sys = random_system(rng, max_frontends=4, max_backends=4, lam_range=(0.1, 3.0))
        dec = stability_decomposition(sys)
        base = opt_tp(sys)
        for i, f in enumerate(sys.frontend_ids):
            bumped = make_system(
                frontends=[
                    (g.id, g.lam + (0.25 if g.id == f else 0.0)) for g in sys.frontends
                ],
                backends=[(b.id, b.service) for b in sys.backends],
                edges=sys.edges,
            )
            grew = opt_tp(bumped) > base + 1e-9
            assert grew == (f in dec.frontends)
            tried += 1
    assert tried > 100


# -- transportation_feasible -------------------------------------------------------


def test_transportation_split_single_frontend():
    sys = make_system(
        [("f1", 1.0)],
        [("b1", hill(1, 1)), ("b2", hill(1, 1))],
        [("f1", "b1"), ("f1", "b2")],
    )
    ok, x, low = transportation_feasible(sys, {"f1"}, {"b1", "b2"}, {"b1": 0.5, "b2": 0.5})
    assert ok and low is None
    np.testing.assert_allclose(x, [[0.5, 0.5]], atol=1e-9)


def test_transportation_unreachable_demand():
    sys = make_system(
        [("f1", 1.0)],
        [("b1", hill(1, 1)), ("b2", hill(1, 1))],
        [("f1", "b1"), ("f1", "b2")],
    )
    restricted = make_system(
        [("f1", 1.0)],
        [("b1", hill(1, 1)), ("b2", hill(1, 1))],
        [("f1", "b1")],
    )
    ok, x, low = transportation_feasible(
        restricted, {"f1"}, {"b1", "b2"}, {"b1": 0.0, "b2": 1.0})
    assert not ok and x is None
    assert low == [0]  # f1 reaches only b1, whose demand cannot take its arrivals
    # sanity: same demand is fine when the edge exists
    ok, _, _ = transportation_feasible(sys, {"f1"}, {"b1", "b2"}, {"b1": 0.0, "b2": 1.0})
    assert ok


def test_transportation_within_reference_tier():
    sys = fig1_system()
    ok, x, _ = transportation_feasible(
        sys, {"f1", "f4"}, {"b1", "b5"}, {"b1": 1.5, "b5": 0.5}
    )
    assert ok
    bi, fi = sys.backend_index, sys.frontend_index
    assert x[fi["f1"], bi["b1"]] == pytest.approx(1.0, abs=1e-9)
    assert x[fi["f4"], bi["b1"]] == pytest.approx(0.5, abs=1e-9)
    assert x[fi["f4"], bi["b5"]] == pytest.approx(0.5, abs=1e-9)


def test_transportation_rejects_negative_demand():
    sys = n_model()
    with pytest.raises(ValueError):
        transportation_feasible(sys, {"f1"}, {"b1"}, {"b1": -0.5})


def test_transportation_total_balance_required():
    sys = n_model()
    ok, _, _ = transportation_feasible(sys, {"f1", "f2"}, {"b1", "b2"}, {"b1": 0.5, "b2": 0.5})
    assert not ok  # arrivals total 2.0, demand totals 1.0


def test_transportation_matches_hall_oracle():
    rng = np.random.default_rng(13579)
    for _ in range(120):
        sys = random_system(rng, max_frontends=4, max_backends=4)
        f_all = set(sys.frontend_ids)
        b_all = set(sys.backend_ids)
        lam_total = sys.total_arrival_rate
        # random demands summing to the arrival total
        raw = rng.random(len(sys.backends))
        demand = {b: lam_total * w / raw.sum() for b, w in zip(sys.backend_ids, raw)}
        ok, x, _ = transportation_feasible(sys, f_all, b_all, demand)
        # Hall-style oracle: every frontend subset must fit in its neighborhood demand
        expected = True
        for p in _nonempty_subsets(range(len(sys.frontends))):
            nbhd = set()
            for i in p:
                nbhd.update(sys.backends_of_frontend[i])
            lam_p = sum(sys.lambdas[i] for i in p)
            if lam_p > sum(demand[sys.backend_ids[j]] for j in nbhd) + 1e-9:
                expected = False
                break
        assert ok is expected
        if ok:
            rows = x.sum(axis=1)
            np.testing.assert_allclose(rows, 1.0, atol=1e-9)
            assert np.all(x >= -1e-12)
            assert np.all(x[~sys.edge_matrix] == 0.0)
            inflow = np.asarray(sys.lambdas) @ x
            np.testing.assert_allclose(
                inflow, [demand[b] for b in sys.backend_ids], atol=1e-6
            )


# -- bit-exactness against a dict-keyed reference ---------------------------------------


def _dict_max_flow(net: FlowNetwork):
    """Reference shortest-augmenting-path max flow on dict-keyed residuals:
    neighbours in first-arc order, parallel arcs summed in arc order,
    infinite capacities replaced by the total finite capacity + 1.
    Returns (value, flows, source_side, sink_side) like MaxFlowResult."""
    idx = {name: k for k, name in enumerate(net.nodes)}
    n = len(net.nodes)
    inf_cap = sum(c for _, _, c in net.arcs if math.isfinite(c)) + 1.0
    cap = {}
    for u, v, c in net.arcs:
        key = (idx[u], idx[v])
        cap[key] = cap.get(key, 0.0) + (inf_cap if math.isinf(c) else c)
    adj = [[] for _ in range(n)]
    for u, v in cap:
        if v not in adj[u]:
            adj[u].append(v)
        if u not in adj[v]:
            adj[v].append(u)
    flow = {}

    def residual(u, v):
        return cap.get((u, v), 0.0) - flow.get((u, v), 0.0)

    s, t = idx[net.source], idx[net.sink]
    for _ in range(n * max(len(cap), 1) + 64):
        parent = [-1] * n
        parent[s] = s
        queue = deque([s])
        while queue and parent[t] < 0:
            u = queue.popleft()
            for v in adj[u]:
                if parent[v] < 0 and residual(u, v) > 1e-12:
                    parent[v] = u
                    queue.append(v)
        if parent[t] < 0:
            break
        bottleneck = math.inf
        v = t
        while v != s:
            bottleneck = min(bottleneck, residual(parent[v], v))
            v = parent[v]
        v = t
        while v != s:
            u = parent[v]
            flow[(u, v)] = flow.get((u, v), 0.0) + bottleneck
            flow[(v, u)] = -flow[(u, v)]
            v = u

    def closure(start, usable):
        seen = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in seen and usable(u, v):
                    seen.add(v)
                    queue.append(v)
        return frozenset(net.nodes[k] for k in seen)

    return (
        sum(flow.get((s, v), 0.0) for v in adj[s]),
        {(net.nodes[u], net.nodes[v]): f for (u, v), f in flow.items()
         if (u, v) in cap and f > 0.0},
        closure(s, lambda u, v: residual(u, v) > 1e-12),
        closure(t, lambda v, u: residual(u, v) > 1e-12),
    )


def _random_network(rng, n: int) -> FlowNetwork:
    """Random real capacities, some infinite, with parallel, antiparallel
    and self arcs."""
    nodes = tuple(f"v{k}" for k in range(n))
    arcs = []
    for _ in range(int(rng.integers(1, 4 * n))):
        u, v = (int(k) for k in rng.integers(0, n, size=2))
        if rng.random() < 0.15:
            cap = math.inf
        else:
            cap = float(rng.choice([0.0, rng.uniform(0.0, 3.0), 0.1, 0.2, 0.3]))
        arcs.append((nodes[u], nodes[v], cap))
    return FlowNetwork(nodes=nodes, source=nodes[0], sink=nodes[-1], arcs=tuple(arcs))


def test_max_flow_is_bit_identical_to_dict_reference():
    rng = np.random.default_rng(1618)
    nets = [_random_network(rng, int(rng.integers(2, 9))) for _ in range(300)]
    nets += [augmented_network(random_system(rng, max_frontends=6, max_backends=6,
                                             lam_range=(0.1, 3.0))) for _ in range(100)]
    for net in nets:
        res = max_flow(net)
        value, flows, source_side, sink_side = _dict_max_flow(net)
        assert repr(res.value) == repr(value)
        assert res.flows == flows
        assert all(repr(res.flows[k]) == repr(f) for k, f in flows.items())
        assert res.source_side == source_side
        assert res.sink_side == sink_side


# -- cross-check against networkx -----------------------------------------------------


def _networkx_cut_sides(nx, graph, s, t):
    """Value, source side and sink side from networkx's Edmonds-Karp residual."""
    residual = nx.algorithms.flow.edmonds_karp(graph, s, t)

    def open_arc(u, v):
        arc = residual[u][v]
        return arc["capacity"] - arc["flow"] > 0

    def closure(start, step):
        seen = {start}
        todo = [start]
        while todo:
            u = todo.pop()
            for v in step(u):
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
        return frozenset(seen)

    source_side = closure(s, lambda u: (v for v in residual.succ[u] if open_arc(u, v)))
    sink_side = closure(t, lambda v: (u for u in residual.pred[v] if open_arc(u, v)))
    return residual.graph["flow_value"], source_side, sink_side


def test_max_flow_matches_networkx_on_random_networks():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(2718)
    for _ in range(150):
        n = int(rng.integers(3, 9))
        nodes = tuple(f"v{k}" for k in range(n))
        s, t = nodes[0], nodes[-1]
        arcs = []
        for _ in range(int(rng.integers(1, 4 * n))):
            u, v = (int(k) for k in rng.choice(n, size=2, replace=False))
            # integer capacities keep both solvers' arithmetic exact; inner
            # arcs may be infinite (source and sink arcs stay finite)
            if u != 0 and v != n - 1 and rng.random() < 0.2:
                cap = math.inf
            else:
                cap = float(rng.integers(0, 6))
            arcs.append((nodes[u], nodes[v], cap))  # repeats make parallel arcs
        res = max_flow(FlowNetwork(nodes=nodes, source=s, sink=t, arcs=tuple(arcs)))

        graph = nx.DiGraph()
        graph.add_nodes_from(nodes)
        for u, v, c in arcs:
            if graph.has_edge(u, v):
                if "capacity" in graph[u][v]:
                    if math.isinf(c):
                        del graph[u][v]["capacity"]  # no attribute: infinite
                    else:
                        graph[u][v]["capacity"] += c
            elif math.isinf(c):
                graph.add_edge(u, v)
            else:
                graph.add_edge(u, v, capacity=c)
        value, source_side, sink_side = _networkx_cut_sides(nx, graph, s, t)
        assert res.value == value
        assert res.source_side == source_side
        assert res.sink_side == sink_side
