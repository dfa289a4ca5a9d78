"""Max-flow machinery: feasibility checks, peak-throughput value, the
stable/unstable decomposition of an overloaded system, and transportation
feasibility for tier-internal routing.

The augmented network places a source feeding every frontend (capacity
λ_f), an infinite-capacity arc along every system edge, and a sink draining
every backend (capacity equal to the curve's cap, the service rate at
infinite workload).  Min cuts of that network are exactly the arrival
subsets that can overwhelm their neighborhoods, which is why one max-flow
run answers feasibility, peak throughput, and the decomposition at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gmsr.model import BipartiteSystem

__all__ = [
    "FlowNetwork",
    "MaxFlowResult",
    "StabilityDecomposition",
    "augmented_network",
    "max_flow",
    "feasibility_check",
    "stability_decomposition",
    "opt_tp",
    "transportation_feasible",
    "TransportNetwork",
]

# augmentations below this increment are float noise, not flow
_EPS = 1e-12
# relative slack within which a transportation flow meets its demands
_TRANSPORT_TOL = 1e-9


@dataclass(frozen=True)
class FlowNetwork:
    """A directed capacitated graph with one source and one sink.

    Capacities may be ``math.inf``; max_flow substitutes a finite surrogate
    (total finite capacity + 1) so residual arithmetic stays in ordinary
    floats while still exceeding any achievable flow value.
    """

    nodes: tuple[str, ...]
    source: str
    sink: str
    arcs: tuple[tuple[str, str, float], ...]

    def __post_init__(self) -> None:
        known = set(self.nodes)
        if self.source not in known or self.sink not in known:
            raise ValueError("source and sink must be members of the node set")
        if self.source == self.sink:
            raise ValueError("source and sink must differ")
        for u, v, c in self.arcs:
            if u not in known or v not in known:
                raise ValueError(f"arc ({u!r}, {v!r}) references unknown node")
            if c < 0:
                raise ValueError(f"arc ({u!r}, {v!r}) has negative capacity {c}")


@dataclass(frozen=True)
class MaxFlowResult:
    """value: the max-flow value.
    flows: net flow per (u, v) arc pair (parallel arcs merged).
    source_side: nodes reachable from the source in the residual graph
        (the canonical min cut's source side).
    sink_side: nodes with a residual path to the sink (the largest-source
        min cut's sink side)."""

    value: float
    flows: dict[tuple[str, str], float]
    source_side: frozenset[str]
    sink_side: frozenset[str]


@dataclass(frozen=True)
class StabilityDecomposition:
    """Frontends/backends that stay stable in an overloaded system; the
    complement pair grows without bound under greatest-marginal-rate
    routing.  Feasible systems decompose trivially (everything stable)."""

    frontends: frozenset[str]
    backends: frozenset[str]


class _FlowCore:
    """Integer-indexed residual graph of a fixed arc list.

    Nodes are 0..n-1.  Every ordered node pair joined by an arc in either
    direction owns one slot per direction; slots are laid out per node in
    first-arc order (the order in which the pair first appears in the arc
    list), which fixes the order the BFS scans neighbours in.  Capacities are
    supplied per arc on each solve, so one topology serves many solves.
    """

    __slots__ = ("n", "adj", "head", "tail", "rev", "arc_slot", "is_arc", "n_keys")

    def __init__(self, n: int, pairs) -> None:
        adj: list[list[int]] = [[] for _ in range(n)]
        head: list[int] = []
        tail: list[int] = []
        rev: list[int] = []
        slot_of: dict[tuple[int, int], int] = {}
        arc_slot: list[int] = []
        for u, v in pairs:
            a = slot_of.get((u, v))
            if a is None:
                a = len(head)
                slot_of[(u, v)] = a
                head.append(v)
                tail.append(u)
                adj[u].append(a)
                if u == v:
                    rev.append(a)
                else:
                    slot_of[(v, u)] = a + 1
                    head.append(u)
                    tail.append(v)
                    adj[v].append(a + 1)
                    rev.extend((a + 1, a))
            arc_slot.append(a)
        is_arc = [False] * len(head)
        for a in arc_slot:
            is_arc[a] = True
        self.n = n
        self.adj = adj
        self.head = head
        self.tail = tail
        self.rev = rev
        self.arc_slot = arc_slot
        self.is_arc = is_arc
        self.n_keys = len(set(arc_slot))  # distinct directed arcs

    def solve(self, caps, s: int, t: int):
        """Max flow from s to t under per-arc capacities `caps` (inf allowed).

        Returns (value, flow, res): the flow value, the net flow per slot
        (antisymmetric: flow[rev[a]] == -flow[a]) and the residual
        capacity per slot, for ``cut_sides``.
        """
        n, adj, head, tail, rev = self.n, self.adj, self.head, self.tail, self.rev
        finite_total = sum(c for c in caps if math.isfinite(c))
        inf_cap = finite_total + 1.0
        cap = [0.0] * len(head)
        for a, c in zip(self.arc_slot, caps):
            cap[a] += inf_cap if math.isinf(c) else c
        flow = [0.0] * len(head)
        res = cap[:]  # residual cap - flow, kept current for every slot

        for _ in range(n * max(self.n_keys, 1) + 64):
            # BFS tree; the scan stops once t is labelled, which leaves the
            # path to t as a full scan would have found it
            pred = [-1] * n  # slot that first reached each node; -2 at s
            pred[s] = -2
            queue = [s]
            for u in queue:
                for a in adj[u]:
                    v = head[a]
                    if pred[v] == -1 and res[a] > _EPS:
                        pred[v] = a
                        if v == t:
                            break
                        queue.append(v)
                else:
                    continue
                break
            else:
                break  # t unreachable: the flow is maximum
            bottleneck = math.inf
            v = t
            while v != s:
                a = pred[v]
                if res[a] < bottleneck:
                    bottleneck = res[a]
                v = tail[a]
            if bottleneck <= _EPS:
                break
            v = t
            while v != s:
                a = pred[v]
                b = rev[a]
                f = flow[a] + bottleneck
                flow[a] = f
                flow[b] = -f
                res[a] = cap[a] - f
                res[b] = cap[b] + f
                v = tail[a]

        return sum(flow[a] for a in adj[s]), flow, res

    def cut_sides(self, res, s: int, t: int) -> tuple[list[int], list[int]]:
        """Nodes reachable from s, and nodes that reach t, in the residual graph."""
        return self._closure(res, s, None), self._closure(res, t, self.rev)

    def _closure(self, res, start: int, rev) -> list[int]:
        # given rev, walk backwards: head[a] joins when its slot into u has residual
        adj, head = self.adj, self.head
        seen = {start}
        queue = [start]
        for u in queue:
            for a in adj[u]:
                v = head[a]
                if v not in seen and res[a if rev is None else rev[a]] > _EPS:
                    seen.add(v)
                    queue.append(v)
        return queue


def max_flow(net: FlowNetwork) -> MaxFlowResult:
    """Shortest-augmenting-path (BFS) max flow over real capacities.

    Augmentation count is bounded by the classical n*m/2 shortest-path
    argument, which holds for real capacities; we additionally stop when the
    bottleneck falls below 1e-12 (float noise, not flow).

    A thin shell over ``_FlowCore``, which runs the search on integer node
    and slot indices with residuals kept in lists.  Neighbours are scanned
    in first-arc order, parallel arcs are merged by summing their
    capacities in arc order, and infinite capacities become the total
    finite capacity + 1, so the flows and both cut sides do not depend on
    how the graph is stored.
    """
    idx = {name: k for k, name in enumerate(net.nodes)}
    core = _FlowCore(len(net.nodes), [(idx[u], idx[v]) for u, v, _ in net.arcs])
    s, t = idx[net.source], idx[net.sink]
    value, flow, res = core.solve([c for _, _, c in net.arcs], s, t)
    reach_s, coreach_t = core.cut_sides(res, s, t)
    names, head, tail = net.nodes, core.head, core.tail
    flows = {
        (names[tail[a]], names[head[a]]): f
        for a, f in enumerate(flow)
        if core.is_arc[a] and f > 0.0
    }
    return MaxFlowResult(
        value=value,
        flows=flows,
        source_side=frozenset(names[u] for u in reach_s),
        sink_side=frozenset(names[v] for v in coreach_t),
    )


_SOURCE = "__source__"
_SINK = "__sink__"


def augmented_network(sys: BipartiteSystem) -> FlowNetwork:
    """Source -> frontends (λ_f), edges at infinite capacity,
    backends -> sink (service cap)."""
    nodes = (_SOURCE,) + sys.frontend_ids + sys.backend_ids + (_SINK,)
    arcs: list[tuple[str, str, float]] = []
    for f in sys.frontends:
        arcs.append((_SOURCE, f.id, f.lam))
    for f, b in sys.edges:
        arcs.append((f, b, math.inf))
    for b in sys.backends:
        arcs.append((b.id, _SINK, b.service.cap))
    return FlowNetwork(nodes=nodes, source=_SOURCE, sink=_SINK, arcs=tuple(arcs))


def _augmented_cut(
    sys: BipartiteSystem,
) -> tuple[frozenset[str] | None, StabilityDecomposition, float]:
    """The infeasibility witness, the stability decomposition and the peak
    throughput, all read off one max flow of the augmented network.

    The witness is None exactly when the system is strictly feasible.
    Otherwise it is a frontend subset whose arrivals meet or exceed the
    capacity of its whole neighbourhood: the frontends on the min cut's
    source side when the flow falls short of the arrivals, else (the flow
    saturates, some subset sits exactly at capacity) the frontends with no
    residual path to the sink.
    """
    res = max_flow(augmented_network(sys))
    total = sys.total_arrival_rate
    f_stable = frozenset(f for f in sys.frontend_ids if f in res.sink_side)
    if res.value < total - 1e-9 * (1.0 + total):
        witness = frozenset(f for f in sys.frontend_ids if f in res.source_side)
    else:
        witness = frozenset(sys.frontend_ids) - f_stable or None
    b_stable = frozenset(
        sys.backend_ids[j]
        for j in range(len(sys.backends))
        if all(sys.frontend_ids[i] in f_stable for i in sys.frontends_of_backend[j])
    )
    return witness, StabilityDecomposition(frontends=f_stable, backends=b_stable), res.value


def feasibility_check(sys: BipartiteSystem) -> bool:
    """True iff every frontend subset's arrivals fall strictly below the
    capacity of its neighborhood.

    Strictness matters: finite workloads only ever realize rates strictly
    below the caps, so a subset exactly at capacity still has no
    finite-workload equilibrium.  Implemented as: the max flow saturates the
    arrivals AND every frontend keeps a residual path to the sink (the flow
    could absorb a strictly larger λ_f for every f).
    """
    return _augmented_cut(sys)[0] is None


def stability_decomposition(sys: BipartiteSystem) -> StabilityDecomposition:
    """Split the system into a stable pair (F̃, B̃) and its unstable complement.

    F̃ = frontends with a residual path to the sink under a max flow; B̃ =
    backends whose entire neighborhood lies in F̃.  Boundary subsets whose
    arrivals exactly match their capacity are classified unstable, matching
    the smallest-sink-side min cut.
    """
    return _augmented_cut(sys)[1]


def opt_tp(sys: BipartiteSystem) -> float:
    """Peak long-run throughput: the max-flow value of the augmented network
    (equivalently Σ_{f stable} λ_f + Σ_{b unstable} cap_b)."""
    return _augmented_cut(sys)[2]


def transportation_feasible(
    sys: BipartiteSystem,
    frontends: set[str] | frozenset[str],
    backends: set[str] | frozenset[str],
    demand: dict[str, float],
) -> tuple[bool, np.ndarray | None, list[int] | None]:
    """Can the frontends' full arrival mass be split over edges inside
    (frontends, backends) so each backend b receives exactly demand[b]?

    Returns (feasible, witness, low) from one ``TransportNetwork.solve``.
    The witness is a full-shape routing matrix supported on the restricted
    edges (rows of frontends outside the set are left zero), or None.  low
    is None when the flow meets the demands, else the backend indices on
    the source side of the min cut, as ``TransportNetwork.solve`` gives
    them.
    """
    for b, d in demand.items():
        if d < 0:
            raise ValueError(f"negative demand {d} for backend {b!r}")
    net = TransportNetwork(sys, frontends, backends)
    witness, low = net.solve([demand.get(sys.backend_ids[j], 0.0) for j in net.b_idx])
    return witness is not None, witness, low


class TransportNetwork:
    """The flow network behind ``transportation_feasible`` for one fixed
    (frontends, backends) pair, reusable across demand vectors.

    Source arcs (λ_f) come in sorted frontend-id order, then the system's
    edges inside the pair in system order (infinite capacity; only those in
    ``edges``, a set of (frontend id, backend id) pairs, when given), then sink
    arcs (the positive demands) in sorted backend-id order, then
    source→backend supply arcs (the negated negative demands) in the same
    order; ``b_idx`` lists the backend indices in that order.  One max
    flow gives both the verdict and, when it fails, the min cut.
    """

    __slots__ = ("sys", "f_idx", "b_idx", "core", "lam", "mid", "spare")

    def __init__(self, sys: BipartiteSystem, frontends, backends, edges=None) -> None:
        f_ids = sorted(set(frontends))
        b_ids = sorted(set(backends))
        f_node = {f: 1 + k for k, f in enumerate(f_ids)}
        b_node = {b: 1 + len(f_ids) + k for k, b in enumerate(b_ids)}
        sink = 1 + len(f_ids) + len(b_ids)
        pairs = [(0, f_node[f]) for f in f_ids]
        self.mid = []  # (frontend index, backend index, arc position)
        for f, b in sys.edges:
            if f in f_node and b in b_node and (edges is None or (f, b) in edges):
                self.mid.append((sys.frontend_index[f], sys.backend_index[b], len(pairs)))
                pairs.append((f_node[f], b_node[b]))
        pairs.extend((b_node[b], sink) for b in b_ids)
        pairs.extend((0, b_node[b]) for b in b_ids)
        self.sys = sys
        self.f_idx = [sys.frontend_index[f] for f in f_ids]
        self.b_idx = [sys.backend_index[b] for b in b_ids]
        self.lam = [sys.lambdas[i] for i in self.f_idx]
        self.core = _FlowCore(sink + 1, pairs)
        # per frontend, the first backend its edges inside the network reach
        inside = {(i, j) for i, j, _ in self.mid}
        self.spare = {i: next((j for j in sys.backends_of_frontend[i] if (i, j) in inside), None)
                      for i in self.f_idx}

    def solve(self, demand) -> tuple[np.ndarray | None, list[int] | None]:
        """One max flow for demands given in ``b_idx`` order.

        A negative demand is supply: no flow meets it, and its source arc
        puts its backend on the source side of the min cut.  Nonnegative
        demands leave the supply arcs at capacity 0, which no search crosses.

        Returns (witness, None) when no demand is negative, the demand total
        matches λ to 1e-9 (relative) and the flow meets it; the witness is
        what ``transportation_feasible`` returns.  Otherwise returns
        (None, low): the backend indices on the source side of the minimal
        min cut, ascending, N(P) ∪ {b : demand_b < 0} for the frontend set
        P (perhaps empty) that maximizes λ(P) − demand(N(P) ∪ {b : demand_b
        < 0}); with no negative demand, low may be empty or hold every
        backend when no set overloads its neighbours.  A frontend with no
        edge in the network gives (None, []).
        """
        sys, core = self.sys, self.core
        lam_total = sum(self.lam)
        d_total = sum(demand)
        scale = 1.0 + abs(lam_total)
        value, flow, res = core.solve(
            self.lam + [math.inf] * len(self.mid) + [d if d > 0.0 else 0.0 for d in demand]
            + [-d if d < 0.0 else 0.0 for d in demand], 0, core.n - 1)
        tol = _TRANSPORT_TOL * scale
        if (abs(d_total - lam_total) > tol or value < d_total - tol
                or min(demand, default=0.0) < 0.0):
            first = 1 + len(self.f_idx)
            return None, sorted(self.b_idx[u - first] for u in core._closure(res, 0, None)
                                if first <= u < core.n - 1)

        x = np.zeros((len(sys.frontends), len(sys.backends)))
        lam = sys.lambdas
        for i, j, k in self.mid:
            w = flow[core.arc_slot[k]]
            if lam[i] > 0 and w > 0:
                x[i, j] = w / lam[i]
        for i in self.f_idx:
            total = x[i].sum()
            if total <= 0:
                # carries no flow (zero rate, or rate below float noise); the
                # simplex row still must sit on some edge of the network
                if self.spare[i] is None:
                    return None, []  # no edge in the network at all
                x[i, self.spare[i]] = total = 1.0
            x[i] /= total  # wash out augmentation round-off
        return x, None
