"""Best-backend graphs, tier partitions, and the tier DAG.

A *tier* groups the backends (and the frontends currently preferring them)
that are coupled through ties in the marginal service rate: it is a
connected component of the best-backend graph.  Routing under the
greatest-marginal-rate policy never leaves a frontend's tier, and flow in
the tier DAG only ever points from higher-gradient tiers to lower ones,
which is what makes the partition useful as a convergence diagnostic.

Operations here take an abstract per-backend gradient vector rather than a
workload, so callers (and tests) can inject gradient values directly.

Ties have one representation: per-frontend bitmasks of the tied-best
backends (``tie_masks``).  The best-backend graph, the tier partition, the
fluid integrator's tie patterns and the stochastic chain's routing all start
from such masks, ``tie_components`` is the one search for their connected
components, and ``tier_partition`` turns components and gradients into a
``TierPartition``.  These three helpers serve the package's other
modules and are not exported.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from gmsr.model import BipartiteSystem

__all__ = [
    "Tier",
    "TierPartition",
    "TierGraph",
    "best_backend_graph",
    "compute_tiers",
    "tier_graph",
    "reach",
]


@dataclass(frozen=True)
class Tier:
    """One tier: its frontends (possibly none), backends (never empty), and
    the shared gradient value (mean over member backends)."""

    frontends: tuple[str, ...]
    backends: tuple[str, ...]
    gradient: float


@dataclass(frozen=True)
class TierPartition:
    """Tiers in deterministic order: components discovered by walking
    frontends in index order, then leftover backend-only singletons in
    backend index order."""

    tiers: tuple[Tier, ...]

    def __len__(self) -> int:
        return len(self.tiers)

    def __iter__(self):
        return iter(self.tiers)

    def tier_of_backend(self, backend_id: str) -> int:
        for k, tier in enumerate(self.tiers):
            if backend_id in tier.backends:
                return k
        raise KeyError(f"backend {backend_id!r} not in partition")

    def tier_of_frontend(self, frontend_id: str) -> int:
        for k, tier in enumerate(self.tiers):
            if frontend_id in tier.frontends:
                return k
        raise KeyError(f"frontend {frontend_id!r} not in partition")


@dataclass(frozen=True)
class TierGraph:
    """Directed graph on tier indices; acyclic for partitions produced by
    :func:`compute_tiers` at a consistent gradient vector."""

    n: int
    arcs: frozenset[tuple[int, int]]


def _check_args(sys: BipartiteSystem, grads: np.ndarray, tie_tol: float) -> list[float]:
    g = np.asarray(grads, dtype=float)
    if g.shape != (len(sys.backends),):
        raise ValueError(f"gradient vector has shape {g.shape}, expected ({len(sys.backends)},)")
    if not tie_tol > 0:
        raise ValueError("tie_tol must be positive")
    return g.tolist()


def tie_masks(neighbors, grads, band: float) -> tuple[int, ...]:
    """Per-frontend bitmask of the tied-best neighbours: bit j of mask i is
    set when backend j is a neighbour of frontend i and grads[j] ≥ top − band,
    top being the frontend's best neighbour gradient.  A frontend without
    neighbours gets the empty mask."""
    out = []
    neg_inf = -math.inf
    for nbrs in neighbors:
        top = neg_inf
        for j in nbrs:
            gj = grads[j]
            if gj > top:
                top = gj
        cut = top - band
        m = 0
        for j in nbrs:
            if grads[j] >= cut:
                m |= 1 << j
        out.append(m)
    return tuple(out)


def tie_components(
    sys: BipartiteSystem, masks
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Connected components of the tie graph (frontend i joined to every
    backend in masks[i]) as (frontend indices, backend indices) pairs, each
    sorted.  Components are found from frontends in index order; backends
    no mask touches follow as singletons, in index order."""
    nf, nb = len(masks), len(sys.backends)
    seen = [False] * (nf + nb)
    groups = []
    for start in range(nf):
        if seen[start]:
            continue
        fs: list[int] = []
        bs: list[int] = []
        seen[start] = True
        queue = [start]
        while queue:
            node = queue.pop()
            if node < nf:
                fs.append(node)
                m = masks[node]
                while m:
                    low = m & -m
                    m ^= low
                    u = nf + low.bit_length() - 1
                    if not seen[u]:
                        seen[u] = True
                        queue.append(u)
            else:
                bs.append(node - nf)
                bit = 1 << (node - nf)
                for i in range(nf):
                    if masks[i] & bit and not seen[i]:
                        seen[i] = True
                        queue.append(i)
        groups.append((tuple(sorted(fs)), tuple(sorted(bs))))
    groups.extend(((), (j,)) for j in range(nb) if not seen[nf + j])
    return tuple(groups)


def tier_partition(sys: BipartiteSystem, groups, grads) -> TierPartition:
    """The TierPartition of (frontend indices, backend indices) groups; a
    tier's gradient is the mean of its backends' grads, summed in index
    order (NaN for a tier without backends)."""
    fids, bids = sys.frontend_ids, sys.backend_ids
    return TierPartition(tiers=tuple(
        Tier(
            frontends=tuple(fids[i] for i in fs),
            backends=tuple(bids[j] for j in bs),
            gradient=float(sum(grads[j] for j in bs) / len(bs)) if bs else math.nan,
        )
        for fs, bs in groups
    ))


def best_backend_graph(
    sys: BipartiteSystem, grads: np.ndarray, tie_tol: float
) -> frozenset[tuple[str, str]]:
    """Edges whose backend is within tie_tol of the frontend's best gradient.

    Superset-monotone in tie_tol: widening the band only adds edges.
    """
    masks = tie_masks(sys.backends_of_frontend, _check_args(sys, grads, tie_tol), tie_tol)
    fids, bids = sys.frontend_ids, sys.backend_ids
    return frozenset(
        (fids[i], bids[j])
        for i, nbrs in enumerate(sys.backends_of_frontend)
        for j in nbrs
        if masks[i] >> j & 1
    )


def compute_tiers(sys: BipartiteSystem, grads: np.ndarray, tie_tol: float) -> TierPartition:
    """Connected components of the best-backend graph, as a TierPartition.

    Backends not touched by any best edge form frontend-empty singleton
    tiers.  A tier's gradient is the mean over its member backends (members
    can differ by up to a few tie_tol across a long tie chain).
    """
    g = _check_args(sys, grads, tie_tol)
    masks = tie_masks(sys.backends_of_frontend, g, tie_tol)
    return tier_partition(sys, tie_components(sys, masks), g)


def tier_graph(sys: BipartiteSystem, partition: TierPartition) -> TierGraph:
    """Arc v_i -> v_j whenever some frontend of tier i has an original-graph
    edge to a backend of tier j (i != j)."""
    f_tier: dict[str, int] = {}
    b_tier: dict[str, int] = {}
    for k, tier in enumerate(partition.tiers):
        for f in tier.frontends:
            f_tier[f] = k
        for b in tier.backends:
            b_tier[b] = k
    missing_f = set(sys.frontend_ids) - set(f_tier)
    missing_b = set(sys.backend_ids) - set(b_tier)
    if missing_f or missing_b:
        raise ValueError(
            f"partition does not cover the system: missing frontends {sorted(missing_f)}, "
            f"missing backends {sorted(missing_b)}"
        )
    arcs: set[tuple[int, int]] = set()
    for f, b in sys.edges:
        i, j = f_tier[f], b_tier[b]
        if i != j:
            arcs.add((i, j))
    return TierGraph(n=len(partition.tiers), arcs=frozenset(arcs))


def reach(tg: TierGraph, i: int, j: int) -> bool:
    """Whether a directed path of length >= 1 leads from tier i to tier j.

    Irreflexive on DAGs: reach(i, i) is False unless i lies on a cycle.
    """
    for k in (i, j):
        if not (0 <= k < tg.n):
            raise IndexError(f"tier index {k} out of range [0, {tg.n})")
    succ: dict[int, list[int]] = {}
    for u, v in tg.arcs:
        succ.setdefault(u, []).append(v)
    seen: set[int] = set()
    queue = deque(succ.get(i, ()))
    while queue:
        u = queue.popleft()
        if u == j:
            return True
        if u in seen:
            continue
        seen.add(u)
        queue.extend(succ.get(u, ()))
    return False
