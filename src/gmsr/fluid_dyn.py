"""Fluid-limit integrator for greatest-gradient routing.

The fluid dynamics form a differential inclusion: wherever several connected
backends tie for the highest service-rate gradient, the routing split among
them is not pinned down pointwise, and the realized motion is the sliding
mode that keeps the tied gradients equal.  This module integrates those
dynamics with fixed-step explicit Euler in two modes:

* ``sliding`` — backends are grouped into tiers (connected components of
  the tied-best-edge graph); each tier moves with the unique drift that
  equalizes d/dt μ′_b across its backends while absorbing the tier's total
  flow imbalance, provided a routing realizing that drift exists (a
  transportation-feasibility question).  Otherwise the min cut of a max
  flow over the tier's band edges, with negative implied inflows as
  supply, names the frontend set P that most overloads N(P) ∪ {b : w_b <
  0}; that pair becomes a lower sub-tier, and the tier's other frontends
  drop their band edges into it.  This is the step of the decomposition
  algorithm for separable convex minimization over a polymatroid base (S.
  Fujishige, Submodular Functions and Optimization, 2nd ed., 2005) that
  ``fluid_opt.solve_fluid_optimum`` takes too.  Every edge that carries a
  frontend's flow then has the least |μ″_b|(w_b − μ_b) among its band
  edges, the KKT condition of minimizing Σ_b |μ″_b|(w_b − μ_b)²/2 over
  band-edge routings, so V = Σ_b |inflow_b − μ_b(N_b)| does not rise at a
  split.
* ``strict-argmax`` — each frontend routes its whole rate to its single
  best backend (lowest index on exact ties).  This is the noisy
  discretization that the sliding mode idealizes; the two agree to O(h + ε).

The integrator records states, routings, realized inflows, tier-change
events, and boundary clamps, at every step.  One step is a pure function of
the workload vector, and the integrator uses that three times, without
changing a single output bit:

* Incremental steps.  The Euler update notes which backends' workloads
  changed bits.  Only those backends' curves are re-evaluated; when no
  gradient changed, the tie masks and pattern are reused (and, under strict
  argmax, the routing and inflows too).  Under strict argmax a step whose
  gradients moved recomputes the masks and each frontend's argmax, and
  when no argmax moved it keeps the routing and inflows and recomputes
  only the moved backends' drifts.  In sliding mode, when the tie
  pattern is the previous step's and that step needed no repair (no
  split or tree miss), only the tiers holding a moved
  backend are recomputed; when each moved backend is a tier of its own,
  its implied inflow stays the tier's λ and its frontends' rows stay, so
  only its drift is.  After a split, only the split tier's pieces
  and the tiers not reached yet are recomputed; the others keep their
  rows.
* Held routing.  A step that keeps the inflow and routing rows of the
  step before records them by reference, as the index of the last rows
  written.  Until a tie mask changes (or, under strict argmax, an argmax
  does) the routing stays, so each moving backend follows its own scalar
  recurrence n_j ← n_j + h·(w_j − μ_j(n_j)) with fixed w_j: a draining
  backend, say, whose gradient changes bits at nearly every step (in
  sliding mode, while each moving backend is a tier of its own).  After
  a step that kept its rows, the integrator steps those recurrences alone,
  with the kernel's arithmetic, and records the rows in one block.  Each
  mover runs inside a window of its gradient in which no mask or argmax
  can change (pairwise conditions between the gradients, exact in
  floating point); where one leaves its window the masks are tested at
  that row, and if they stand the block goes on in new windows.  A block
  ends before a row whose masks or argmax differ, before an update that
  would clamp, leave the finite range or stop a mover, before a row equal
  to the Brent checkpoint row, and ahead of the next checkpoint row
  (below).
  Where the windows hold for one row only, the block ends there.  A block
  that takes one row or none (an argmax that flips every step or two, or
  two gradients that move together toward a tie) makes the next attempts
  wait, up to 63 kept steps.
* Exact orbits.  A Brent checkpoint (R. P. Brent, BIT 20, 1980) holds the
  workload vector at power-of-two rows.  Once a row repeats an earlier one
  bit for bit with period P (P = 1 is a fixed point, caught at once), every
  later row, event and boundary clamp is a copy of the one P rows before
  it, with its own time.  Only the first repeated row's event depends on
  the row before it; it is found by replaying the earlier row's pattern.

A tier-change event keeps the tier groups of the tie pattern and the
gradient row it was seen at, and builds its ``TierPartition`` only when
``tiers`` is read.

The inner loop is scalar Python tuned for small systems (a handful of
nodes): per-backend curve evaluations are unrolled by curve kind.  The tie
pattern is the tuple of per-frontend tied-best bitmasks that
``tiers.tie_masks`` gives, the representation the tiers module and the
stochastic chain use as well.  Everything derivable from the pattern alone
is computed once per distinct pattern and cached: tier membership (from
``tiers.tie_components``), spanning-tree elimination schedules for
transportation witnesses, the band edges with their 1/deg_j factors, and
each tier's flow network.  An event's partition is built by
``tiers.tier_partition`` from the pattern's components.

A tier has one edge set, its band edges: GMSR sends a frontend's jobs only
to its tied-best backends, so routing rows never leave them.  A tier's
routing comes from its pattern's spanning tree over those edges.  When
that tree misses, a second spanning tree is tried, fitted to the step's
demands: the maximum-weight tree of the band edges under λ_i·w_j/deg_j
(deg_j: the tier's frontends whose band holds j), accepted only when every
flow it eliminates is ≥ 0 exactly, so the max flow below would accept the
tier too.  It depends on the pattern and the implied inflows alone, so a
row stays a pure function of the workload.  When both trees miss, one max
flow over the band edges (``flownet.TransportNetwork``, the computation
``transportation_feasible`` runs over every system edge) gives the rows,
or its min cut splits the tier; a tier with a negative implied inflow
skips both trees and takes the same flow's cut.  The network and the
demand trees' schedules are cached with the tier, and
``FluidTrajectory.stats`` counts the misses and the flows.
"""

from __future__ import annotations

import math
import struct
from array import array
from dataclasses import dataclass, field

import numpy as np

from gmsr.flownet import TransportNetwork, transportation_feasible
from gmsr.model import HILL, BipartiteSystem
from gmsr.tiers import TierPartition, tie_components, tie_masks, tier_partition

__all__ = [
    "IntegratorConfig",
    "TierEvent",
    "FluidTrajectory",
    "KernelStats",
    "IntegrationError",
    "gmsr_routing_set",
    "sliding_drift",
    "integrate_fluid",
    "modes_agree",
]

_MODES = ("sliding", "strict-argmax")
_MAX_STEPS = 10**8  # round(horizon / h) above this is refused before recording


class IntegrationError(RuntimeError):
    """A trajectory left the finite domain (diverged or produced NaN), or a
    min cut did not split its tier."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size, tie band, and routing mode for ``integrate_fluid``."""

    h: float = 1e-3
    tie_band: float = 1e-3
    mode: str = "sliding"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.h) and self.h > 0):
            raise ValueError(f"step h must be positive and finite, got {self.h}")
        if not (math.isfinite(self.tie_band) and self.tie_band > 0):
            raise ValueError(f"tie band must be positive and finite, got {self.tie_band}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")


class _TiersOnRead:
    """The ``TierEvent.tiers`` field.  It holds a TierPartition, or the
    integrator's (system, tier groups, gradient row) triple, which becomes a
    TierPartition on first read and is replaced by it."""

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError("tiers")  # a required field: no class default
        tiers = obj.__dict__["tiers"]
        if type(tiers) is tuple:
            tiers = obj.__dict__["tiers"] = tier_partition(*tiers)
        return tiers

    def __set__(self, obj, value) -> None:
        obj.__dict__["tiers"] = value


@dataclass(frozen=True)
class TierEvent:
    """A change of the tier partition between consecutive steps.

    kind is "split" when a tier could not realize its equalized drift, so
    the step split it by a min cut; "slide" when tiers merged onto a common
    equal-gradient surface; and "reconfigure" for any other change.

    Events recorded by ``integrate_fluid`` keep the tier groups and gradient
    row of their step and build ``tiers`` when it is first read (equality,
    hashing and repr read it too), so a run that records many events pays
    for the ``TierPartition`` objects only of those that are inspected.
    """

    time: float
    kind: str
    tiers: TierPartition = _TiersOnRead()


def _lazy_event(time: float, kind: str, tiers: tuple) -> TierEvent:
    """TierEvent(time, kind, tiers) for an integrator triple, without the
    frozen-dataclass __init__ (which costs three times as much): the same
    three entries in the instance dict."""
    ev = object.__new__(TierEvent)
    fields = ev.__dict__
    fields["time"] = time
    fields["kind"] = kind
    fields["tiers"] = tiers
    return ev


@dataclass(frozen=True)
class KernelStats:
    """Work the sliding kernel did on one run, counted over computed steps
    (rows copied after a bitwise fixed point or along an exact orbit add
    nothing, and neither do rows stepped in held blocks, which solve no
    tier).  A step that reuses tiers of the previous one counts exactly
    what recomputing them would; a tier solved before a split in the same
    step is not solved, or counted, again.

    tree_misses:       tier witnesses from the pattern's spanning tree that
                       came out negative.
    maxflow_witnesses: max flows over a tier's band edges after a tree miss,
                       one per miss that the demand tree missed too.
    cuts:              tiers split by the min cut of a max flow over their
                       band edges: a failed witness flow, or the one flow a
                       tier with a negative implied inflow runs instead of
                       its tree.
    patterns:          distinct tie patterns whose tier structures were built.

    In strict-argmax mode only ``patterns`` can be nonzero.
    """

    tree_misses: int = 0
    maxflow_witnesses: int = 0
    cuts: int = 0
    patterns: int = 0


@dataclass(frozen=True)
class FluidTrajectory:
    """A recorded fluid trajectory on the uniform grid t_k = k·h.

    states[k], routings[k] and inflows[k] describe the same instant t_k:
    the workload vector, the routing matrix the integrator realized there,
    and the per-backend arrival inflows λ·x it induces.  boundary_events
    lists (time, backend id) pairs where an Euler step undershot zero and
    was clamped.  stats counts the kernel's work (see ``KernelStats``).

    The arrays are writeable, C-contiguous, and hold one row per instant;
    two runs share no memory.  ``integrate_fluid`` may return them as views
    on its own recording (``base`` is then not None) rather than copies.
    """

    times: np.ndarray
    states: np.ndarray
    routings: np.ndarray
    inflows: np.ndarray
    events: tuple[TierEvent, ...]
    boundary_events: tuple[tuple[float, str], ...]
    stats: KernelStats = KernelStats()

    def __len__(self) -> int:
        return len(self.times)


# ---------------------------------------------------------------------------
# public building blocks
# ---------------------------------------------------------------------------


def gmsr_routing_set(
    sys: BipartiteSystem, n, tie_band: float
) -> dict[str, frozenset[str]]:
    """Per-frontend set of tied-best backends at workload n.

    S_f = {b ∈ B(f) : μ′_b(N_b) ≥ max_{j∈B(f)} μ′_j(N_j) − tie_band}.
    """
    grads = sys.gradients_at(np.asarray(n, dtype=float)).tolist()
    masks = tie_masks(sys.backends_of_frontend, grads, tie_band)
    bids = sys.backend_ids
    return {
        f: frozenset(bids[j] for j in nbrs if masks[i] >> j & 1)
        for i, (f, nbrs) in enumerate(zip(sys.frontend_ids, sys.backends_of_frontend))
    }


def sliding_drift(
    sys: BipartiteSystem, n, partition: TierPartition
) -> tuple[np.ndarray, np.ndarray, tuple[bool, ...]]:
    """Equal-gradient drift, realizing routing, and per-tier feasibility.

    Per tier (F, B): the imbalance S = Σ_{f∈F} λ_f − Σ_{b∈B} μ_b(N_b) is
    split as v_b = (1/μ″_b) · S / Σ_{j∈B} 1/μ″_j — the unique allocation
    with Σ v_b = S and equal d/dt μ′_b across the tier.  The implied
    inflows w_b = v_b + μ_b(N_b) are handed to a transportation check; a
    feasible tier's routing rows come from the witness, an infeasible
    tier's rows (negative w or no witness) fall back to exact argmax and
    the tier is flagged False.

    The check routes over every system edge inside a tier, not only its band
    edges as ``integrate_fluid`` does, so a tier can be flagged True where
    the integrator splits it.
    """
    n = np.asarray(n, dtype=float)
    nf, nb = len(sys.frontends), len(sys.backends)
    if n.shape != (nb,):
        raise ValueError(f"workload vector has shape {n.shape}, expected ({nb},)")
    rates = sys.rates_at(n)
    grads = sys.gradients_at(n)
    inv_curv = 1.0 / sys.curvatures_at(n)  # strictly negative for our curves
    lam = np.asarray(sys.lambdas)

    v = np.zeros(nb)
    x = np.zeros((nf, nb))
    feasible: list[bool] = []
    for tier in partition:
        f_idx = [sys.frontend_index[f] for f in tier.frontends]
        b_idx = [sys.backend_index[b] for b in tier.backends]
        s = float(sum(lam[i] for i in f_idx) - sum(rates[j] for j in b_idx))
        denom = float(sum(inv_curv[j] for j in b_idx))
        w = {}
        for j in b_idx:
            v[j] = inv_curv[j] * s / denom
            w[sys.backend_ids[j]] = v[j] + rates[j]
        if not f_idx:
            feasible.append(True)  # drained singleton: w = 0, nothing to route
            continue
        ok = all(val >= 0.0 for val in w.values())
        if ok:
            ok, witness, _ = transportation_feasible(
                sys, set(tier.frontends), set(tier.backends), w
            )
            if ok:
                for i in f_idx:
                    x[i] = witness[i]
        if not ok:
            for i in f_idx:  # exact-argmax fallback rows, lowest index wins
                best = max(
                    sys.backends_of_frontend[i], key=lambda j: (grads[j], -j)
                )
                x[i, best] = 1.0
        feasible.append(ok)
    return v, x, tuple(feasible)


# ---------------------------------------------------------------------------
# pattern-keyed tier structures for the integrator kernel
# ---------------------------------------------------------------------------


class _TierStruct:
    """Everything about one tier that only depends on the tie pattern."""

    __slots__ = (
        "f_idx", "b_idx", "b_mask", "lam_sum", "schedule", "band", "inv_deg",
        "fallback_backend", "node_set", "transport", "demand_schedules",
    )

    def __init__(self, f_idx, b_idx, lam_sum, schedule, band, inv_deg, fallback_backend,
                 node_set):
        self.f_idx = f_idx                    # tuple of frontend indices
        self.b_idx = b_idx                    # tuple of backend indices
        self.b_mask = sum(1 << j for j in b_idx)  # b_idx as a bitmask
        self.lam_sum = lam_sum
        self.schedule = schedule              # tree-elimination steps
        self.band = band                      # band edges (i, j), in band order
        self.inv_deg = inv_deg                # per band edge: 1/(band degree of j)
        self.fallback_backend = fallback_backend  # per f_idx: one-hot target
        self.node_set = node_set              # frozenset of node ids
        self.transport = None                 # TransportNetwork, built on first flow
        self.demand_schedules = {}            # demand-tree edge bitmask -> schedule


class _Pattern:
    __slots__ = ("tiers", "sets", "groups", "single")

    def __init__(self, tiers, sets, groups):
        self.tiers = tiers    # tuple[_TierStruct, ...]
        self.sets = sets      # frozenset of per-tier node_set (for event diffs)
        self.groups = groups  # per tier (f_idx, b_idx), as tie_components gives them
        # bitmask of the backends that form a tier on their own
        self.single = sum(t.b_mask for t in tiers if len(t.b_idx) == 1)


def _build_pattern(sys: BipartiteSystem, masks: tuple[int, ...]) -> _Pattern:
    """Derive tier structures from per-frontend tied-best bitmasks."""
    nf = len(sys.frontends)
    lam = sys.lambdas
    groups = tie_components(sys, masks)
    tiers = []
    sets = []
    for fs, bs in groups:
        lam_sum = float(sum(lam[i] for i in fs))
        # edges available to carry tier flow: the band edges, in system order
        band = tuple((i, j) for i in fs for j in sys.backends_of_frontend[i]
                     if masks[i] >> j & 1)
        deg = dict.fromkeys(bs, 0)
        for _, j in band:
            deg[j] += 1
        inv_deg = tuple(1.0 / deg[j] for _, j in band)
        # the pattern's spanning tree: breadth first over every band edge
        schedule = _tree_schedule(fs, bs, band, nf)

        # every tier frontend has a band edge: its lowest one
        fallback = {}
        for i, j in band:
            fallback.setdefault(i, j)
        node_set = frozenset(fs) | frozenset(nf + j for j in bs)
        tiers.append(_TierStruct(fs, bs, lam_sum, schedule, band, inv_deg, fallback, node_set))
        sets.append(node_set)
    return _Pattern(tuple(tiers), frozenset(sets), groups)


def _tree_schedule(fs, bs, edges, nf: int) -> tuple[tuple[int, int], ...]:
    """Leaf-to-root elimination steps (node, parent) of the breadth-first
    tree from the tier's first frontend over `edges` (frontend, backend
    index pairs; backend j is node nf + j), taken in the order given."""
    if not fs:
        return ()
    adj: dict[int, list[int]] = {i: [] for i in fs}
    for j in bs:
        adj[nf + j] = []
    for i, j in edges:
        adj[i].append(nf + j)
        adj[nf + j].append(i)
    root = fs[0]
    parent = {root: -1}
    order = [root]  # breadth first: the list is its own queue
    for node in order:
        for other in adj[node]:
            if other not in parent:
                parent[other] = node
                order.append(other)
    return tuple((node, parent[node]) for node in reversed(order[1:]))


def _tier_network(sys: BipartiteSystem, tier: _TierStruct) -> TransportNetwork:
    """The tier's transportation network over its band edges."""
    f_ids, b_ids = sys.frontend_ids, sys.backend_ids
    return TransportNetwork(sys, [f_ids[i] for i in tier.f_idx], [b_ids[j] for j in tier.b_idx],
                            {(f_ids[i], b_ids[j]) for i, j in tier.band})


# ---------------------------------------------------------------------------
# integrator kernel
# ---------------------------------------------------------------------------


class _Kernel:
    """One integration run; scalar state, pattern cache, and recorders."""

    def __init__(self, sys: BipartiteSystem, cfg: IntegratorConfig):
        self.sys = sys
        self.cfg = cfg
        self.nf = len(sys.frontends)
        self.nb = len(sys.backends)
        self.lam = [float(v) for v in sys.lambdas]
        # per-backend curve parameters, unrolled by kind
        self.par = [
            (True, fn.cap, fn.half, 2.0 * fn.cap * fn.half, 0.0) if fn.kind == HILL
            else (False, fn.cap, fn.rate, fn.cap * fn.rate, fn.cap * fn.rate * fn.rate)
            for fn in sys.services
        ]
        self.every = (1 << self.nb) - 1  # the bitmask of all backends
        self.bits: dict[int, tuple[int, ...]] = {}  # bitmask -> its set bits, ascending
        self.neighbors = [tuple(sorted(t)) for t in sys.backends_of_frontend]
        self.patterns: dict[tuple[int, ...], _Pattern] = {}
        # state carried from one step to the next: the routing rows, the
        # last computed tie masks and their pattern, and whether the last
        # step solved that pattern with no split or tree miss
        self.xbuf = [0.0] * (self.nf * self.nb)
        self.masks: tuple[int, ...] | None = None
        self.pattern: _Pattern | None = None
        self.clean = False
        self.best: list[int] | None = None  # strict argmax: each frontend's, as last written
        # reusable per-step buffers
        self.zero_row = [0.0] * self.nb
        self.mu = [0.0] * self.nb
        self.g = [0.0] * self.nb
        self.ic = [0.0] * self.nb          # 1/μ″ (negative)
        self.acc = [0.0] * (self.nf + self.nb)
        self.up = list(range(self.nf + self.nb))  # demand-tree union-find
        self.vbuf = [0.0] * self.nb
        self.wbuf = [0.0] * self.nb
        # work counters, returned as KernelStats
        self.tree_misses = 0
        self.maxflow_witnesses = 0
        self.cuts = 0

    def stats(self) -> KernelStats:
        return KernelStats(
            tree_misses=self.tree_misses,
            maxflow_witnesses=self.maxflow_witnesses,
            cuts=self.cuts,
            patterns=len(self.patterns),
        )

    def members(self, mask: int) -> tuple[int, ...]:
        """The backend indices in a bitmask, ascending."""
        out = self.bits.get(mask)
        if out is None:
            out = tuple(j for j in range(self.nb) if mask >> j & 1)
            if len(self.bits) < 4096:
                self.bits[mask] = out
        return out

    def curves(self, n: list[float], backends) -> bool:
        """Re-evaluate the given backends; True when one of their gradients
        changed."""
        mu, g, ic, par = self.mu, self.g, self.ic, self.par
        moved = False
        for j in backends:
            is_hill, a, b, c, d = par[j]
            if is_hill:  # b: half, c: 2·cap·half
                t = n[j] + b
                t2 = t * t
                mu[j] = a * n[j] / t
                gj = a * b / t2
                ic[j] = -(t2 * t) / c
            else:  # b: rate, c: cap·rate, d: cap·rate²
                e = math.exp(-b * n[j])
                if e < 1e-300:  # numerically flat: keep weights finite
                    e = 1e-300
                mu[j] = a - a * e
                gj = c * e
                ic[j] = -1.0 / (d * e)
            if gj != g[j]:  # gradients are never -0.0 or NaN
                moved = True
                g[j] = gj
        return moved

    def pattern_for(self, masks: tuple[int, ...]) -> _Pattern:
        pat = self.patterns.get(masks)
        if pat is None:
            pat = _build_pattern(self.sys, masks)
            self.patterns[masks] = pat
        return pat

    # -- sliding-mode step pieces -------------------------------------------
    # tier_flows, the witnesses and band_flow all use the shared
    # per-backend buffers vbuf/wbuf, indexed globally.

    def tier_flows(self, tier: _TierStruct) -> bool:
        """Drift and implied inflows for one tier.

        Returns False when an implied inflow lies below -1e-12 (it is kept
        in wbuf, where ``band_flow`` reads it as supply); inflows inside that
        band are float dust and read 0.
        """
        mu, ic, v, w = self.mu, self.ic, self.vbuf, self.wbuf
        b_idx = tier.b_idx
        if len(b_idx) == 1:  # single backend: it absorbs the whole imbalance
            j = b_idx[0]
            v[j] = tier.lam_sum - mu[j]
            w[j] = tier.lam_sum
            return True
        s = tier.lam_sum
        denom = 0.0
        for j in b_idx:
            s -= mu[j]
            denom += ic[j]
        scale = s / denom
        ok = True
        for j in b_idx:
            vj = ic[j] * scale
            wj = vj + mu[j]
            if wj < -1e-12:
                ok = False
            elif wj < 0.0:
                wj = 0.0
            v[j] = vj
            w[j] = wj
        return ok

    def tree_witness(self, tier: _TierStruct, xbuf: list[float]) -> bool:
        """Fill routing rows from the pattern's spanning tree of the tier;
        False when an eliminated flow lies below -1e-9 (flows above that
        read 0).  On False the rows may be partially written."""
        return self.eliminate(tier, tier.schedule, -1e-9, xbuf)

    def demand_witness(self, tier: _TierStruct, xbuf: list[float]) -> bool:
        """Fill routing rows from the step's demand tree of the tier: the
        maximum-weight spanning tree of its band edges (Kruskal) with weight
        λ_i·w_j/deg_j, deg_j the number of the tier's frontends whose band
        holds j, ties kept in band order.  True only when every eliminated
        flow is ≥ 0 exactly: a nonnegative flow that meets every marginal,
        which the band max flow would accept too.  The tree depends on the
        pattern and the demands in wbuf alone.  Clears the tier's rows
        first; on False they may be partially written."""
        nf, nb, lam, w = self.nf, self.nb, self.lam, self.wbuf
        band = tier.band
        weights = [lam[i] * w[j] * d for (i, j), d in zip(band, tier.inv_deg)]
        # sorted() is stable with reverse=True too: ties keep band order
        order = sorted(range(len(band)), key=weights.__getitem__, reverse=True)
        up = self.up  # union-find parents, reset on the tier's nodes
        for node in tier.node_set:
            up[node] = node
        need = len(tier.node_set) - 1
        chosen = 0  # bitmask of the tree's positions in band
        for e in order:
            i, j = band[e]
            a, b = i, nf + j
            while up[a] != a:  # path halving
                up[a] = up[up[a]]
                a = up[a]
            while up[b] != b:
                up[b] = up[up[b]]
                b = up[b]
            if a != b:
                up[a] = b
                chosen |= 1 << e
                need -= 1
                if not need:
                    break
        schedules = tier.demand_schedules
        schedule = schedules.get(chosen)
        if schedule is None:
            schedule = _tree_schedule(tier.f_idx, tier.b_idx,
                                      [edge for e, edge in enumerate(band) if chosen >> e & 1], nf)
            if len(schedules) < 4096:
                schedules[chosen] = schedule
        for i in tier.f_idx:
            xbuf[i * nb:(i + 1) * nb] = self.zero_row
        return self.eliminate(tier, schedule, 0.0, xbuf)

    def eliminate(self, tier: _TierStruct, schedule, floor: float, xbuf: list[float]) -> bool:
        """Fill the tier's routing rows from a spanning tree's leaf-to-root
        elimination steps; False when an eliminated flow lies below floor
        (flows in [floor, 0) read 0).  Rows are normalized to simplex
        coordinates; a frontend that carries no flow takes its lowest band
        edge.  On False the rows may be partially written; every caller
        either rebuilds xbuf or overwrites the full tier block."""
        nf, nb, lam, w = self.nf, self.nb, self.lam, self.wbuf
        acc = self.acc
        for node in tier.node_set:
            acc[node] = 0.0
        for node, parent in schedule:
            marg = lam[node] if node < nf else w[node - nf]
            flow = marg - acc[node]
            if flow < floor:
                return False
            if flow < 0.0:
                flow = 0.0
            acc[parent] += flow
            if node < nf:
                xbuf[node * nb + parent - nf] = flow
            else:
                xbuf[parent * nb + node - nf] = flow
        for i in tier.f_idx:  # normalize rows to simplex coordinates
            base = i * nb
            total = 0.0
            for j in tier.b_idx:
                total += xbuf[base + j]
            if total <= 0.0:
                for j in tier.b_idx:
                    xbuf[base + j] = 0.0
                xbuf[base + tier.fallback_backend[i]] = 1.0
                continue
            for j in tier.b_idx:
                if xbuf[base + j]:
                    xbuf[base + j] /= total
        return True

    def band_flow(self, tier: _TierStruct, xbuf: list[float]) -> int:
        """One max flow over the tier's band edges for the demands in wbuf,
        negative ones as supply.  When it meets them, fills the tier's rows
        from its flow and returns -1; otherwise counts a cut and returns the
        bitmask of the backends on its source side."""
        net = tier.transport = tier.transport or _tier_network(self.sys, tier)
        w = self.wbuf
        witness, low = net.solve([w[j] for j in net.b_idx])
        if witness is None:
            self.cuts += 1
            return sum(1 << j for j in low)
        nb = self.nb
        for i in tier.f_idx:
            base = i * nb
            for j in tier.b_idx:
                xbuf[base + j] = witness[i, j]
        return -1

    # -- whole steps ----------------------------------------------------------
    # Both take the workload vector and the bitmask of backends whose
    # workload changed bits since the last call, and the step's time (for
    # errors), fill vbuf/wbuf/xbuf, and return (tie pattern used, whether a
    # tier was split, bitmask of backends whose drift was computed afresh,
    # held).  held is None when the step wrote its inflow and routing rows;
    # otherwise they are the last step's bit for bit, and held is the bitmask
    # of backends that ``held_rows`` may step on while the tie masks (and,
    # under strict argmax, the argmax) stay.  A step reuses what its inputs
    # leave unchanged bit for bit, so it gives the same bits as computing
    # everything.

    def sliding_step(self, n: list[float], dirty: int, t: float
                     ) -> tuple[_Pattern, bool, int, int | None]:
        every, nb = self.every, self.nb
        dirty_b = self.bits.get(dirty) or self.members(dirty)
        if self.curves(n, dirty_b) or self.masks is None:
            fresh = tie_masks(self.neighbors, self.g, self.cfg.tie_band)
            if fresh != self.masks:
                self.masks, self.pattern, self.clean = fresh, self.pattern_for(fresh), False
        pattern = self.pattern
        if self.clean and not dirty & ~pattern.single:
            # the last step solved this pattern outright, and each moved
            # backend is a tier of its own: w_j stays the tier's λ and its
            # frontends' rows stay, so only v_j = w_j − μ_j moves
            v, w, mu = self.vbuf, self.wbuf, self.mu
            for j in dirty_b:
                v[j] = w[j] - mu[j]
            return pattern, False, dirty, pattern.single
        if self.clean and dirty != every:
            # the last step solved this pattern outright; a tier none of
            # whose backends moved would repeat its flows and rows
            xbuf = self.xbuf
            todo = [tier for tier in pattern.tiers if tier.b_mask & dirty]
            active = 0
            for tier in todo:
                active |= tier.b_mask
                for i in tier.f_idx:
                    xbuf[i * nb:(i + 1) * nb] = self.zero_row
        else:
            xbuf = self.xbuf = [0.0] * len(self.xbuf)
            todo = pattern.tiers
            active = every
        used, cur = pattern, self.masks
        misses = self.tree_misses
        while True:
            for tier in todo:
                if self.tier_flows(tier):
                    if not tier.f_idx or self.tree_witness(tier, xbuf):
                        continue
                    # an unlucky tree is not proof of infeasibility; a tree
                    # fitted to this step's demands often realizes them
                    self.tree_misses += 1
                    if self.demand_witness(tier, xbuf):
                        continue
                    self.maxflow_witnesses += 1
                # one max flow gives the rows, or the min cut that splits the
                # tier (always, when an implied inflow is negative)
                drop = self.band_flow(tier, xbuf)
                if drop >= 0:
                    break
            else:
                break
            # the tier's frontends lose their band edges into `drop`, but
            # never their last one: a frontend whose band edges all lie in
            # `drop` (it carries no flow, or the cut would hold it) joins
            # the lower sub-tier with them
            cut = list(cur)
            for i in tier.f_idx:
                cut[i] = cut[i] & ~drop or cut[i]
            cut = tuple(cut)
            if cut == cur:
                # only a cut side of none or all of the tier, which the
                # flow's tolerance rules out, leaves every mask as it was
                bids = [self.sys.backend_ids[j] for j in tier.b_idx]
                raise IntegrationError(f"the min cut of tier {bids} at t={t:.6g} changes no mask")
            # recompute the split tier's pieces and the tiers not reached yet;
            # every other tier of the new pattern is unchanged and solved
            redo = 0
            for later in todo[todo.index(tier):]:
                redo |= later.b_mask
            for i in tier.f_idx:
                xbuf[i * nb:(i + 1) * nb] = self.zero_row
            cur = cut
            used = self.pattern_for(cur)
            todo = [piece for piece in used.tiers if piece.b_mask & redo]
        # only a split changes the pattern used
        self.clean = used is pattern and self.tree_misses == misses
        return used, used is not pattern, active, None

    def argmax_step(self, n: list[float], dirty: int, t: float
                    ) -> tuple[_Pattern, bool, int, int | None]:
        v, w, mu = self.vbuf, self.wbuf, self.mu
        dirty_b = self.bits.get(dirty) or self.members(dirty)
        if self.curves(n, dirty_b) or self.masks is None:
            g = self.g
            fresh = tie_masks(self.neighbors, g, self.cfg.tie_band)
            if fresh != self.masks:
                self.masks, self.pattern = fresh, self.pattern_for(fresh)
            best = []
            for nbrs in self.neighbors:
                b = nbrs[0]
                top = g[b]
                for j in nbrs:
                    gj = g[j]
                    if gj > top:  # strictly greater: lowest index wins ties
                        top = gj
                        b = j
                best.append(b)
            if best != self.best:
                # whole-rate argmax routing: new rows
                self.best = best
                lam, nb = self.lam, self.nb
                xbuf = self.xbuf = [0.0] * len(self.xbuf)
                for j in range(nb):
                    w[j] = 0.0
                for i, j in enumerate(best):
                    xbuf[i * nb + j] = 1.0
                    w[j] += lam[i]
                for j in range(nb):
                    v[j] = w[j] - mu[j]
                return self.pattern, False, self.every, None
        # every frontend's argmax stays, and with it the routing and inflows
        for j in dirty_b:
            v[j] = w[j] - mu[j]
        return self.pattern, False, dirty, self.every

    def held_rows(self, states: array, n: list[float], mask: int, h: float, limit: int,
                  avoid: list[float] | None) -> int:
        """Up to `limit` rows from n on, while the step out of each would keep
        its inflow and routing rows and move the same backends, the movers
        in `mask`.  Each mover runs its ``held_run`` within a gradient window
        from ``windows``, and the rows end before the first step at which
        one mover's run stops.  There the movers' gradients are tested with
        ``holds``; when they pass, the rows go on in new windows, unless the
        last windows held for one row only.  g is left as it was: the next
        step's ``curves`` re-evaluates every mover, sees any gradient change
        and recomputes the masks.  Appends the rows (n first) to `states`,
        leaves n at the row after them, and returns how many it took."""
        g, w = self.g, self.wbuf
        movers = self.members(mask)
        fronts = [i for i, nbrs in enumerate(self.neighbors) if any(mask >> j & 1 for j in nbrs)]
        nb = self.nb
        taken = 0
        trial, pace = g[:], [0.0] * nb
        span = 64  # rows the next windows are sized for
        while limit > 0:
            rise = 0  # the movers whose gradients rise (their workloads fall)
            for j in movers:
                mu, gj = self.curve(j, n[j])
                trial[j] = gj
                # how far the gradient moves in the next step (a step that
                # leaves [0, 1e300] ends the rows anyway)
                x1 = n[j] + h * (w[j] - mu)
                pace[j] = abs(self.curve(j, x1)[1] - gj) if 0.0 <= x1 <= 1e300 else 0.0
                if w[j] < mu:
                    rise |= 1 << j
            if not self.holds(fronts, trial):
                break
            lo, hi = self.windows(rise, mask & ~rise, fronts, trial, pace, span)
            take, first = limit, movers[0]
            runs = []
            for j in movers:
                run = self.held_run(j, n[j], h, take, lo[j], hi[j],
                                    math.nan if avoid is None else avoid[j])
                if len(run) < take:
                    take, first = len(run), j
                    if not take:
                        return taken
                runs.append(run)
            start = len(states)
            states += array("d", n) * take
            for j, run in zip(movers, runs):
                states[start + nb + j::nb] = run[:take - 1]
                n[j] = run[take - 1]
            taken += take
            if take == 1:
                # windows that hold for one row only: two movers whose
                # gradients move together toward a tie, say, which bounds
                # on each alone cannot follow; stepping costs less here
                break
            limit -= take
            span = min(2 * max(span, take), limit)
            # the mover whose run ended the rows runs first next time, so the
            # others do not step past where it stops
            movers = [first, *(j for j in movers if j != first)]
        return taken

    def curve(self, j: int, x: float) -> tuple[float, float]:
        """μ_j(x) and μ′_j(x), with the arithmetic of ``curves``."""
        is_hill, a, b, c, _ = self.par[j]
        if is_hill:
            t = x + b
            return a * x / t, a * b / (t * t)
        e = math.exp(-b * x)
        if e < 1e-300:
            e = 1e-300
        return a - a * e, c * e

    def held_run(self, j: int, x: float, h: float, limit: int, lo: float, hi: float,
                 avoid: float) -> array:
        """The workloads backend j takes in held steps from x, at most `limit`
        of them: each is x + h·(w_j − μ_j(x)) of the one before, with the
        arithmetic of ``curves`` and the Euler update.  Stops before a step
        at whose start j's gradient lies outside [lo, hi], or whose update
        would clamp, leave the finite range, keep x, or equal `avoid` (a NaN
        avoids nothing)."""
        is_hill, a, b, c, _ = self.par[j]
        w = self.wbuf[j]
        out = array("d")
        if is_hill:  # as in curves: μ = a·x/t, μ′ = a·b/t², t = x + b
            ab = a * b
            for _ in range(limit):
                t = x + b
                if not lo <= ab / (t * t) <= hi:
                    break
                x1 = x + h * (w - a * x / t)
                if not 0.0 <= x1 <= 1e300 or x1 == x or x1 == avoid:
                    break
                out.append(x1)
                x = x1
        else:  # μ = a − a·e, μ′ = c·e, e = exp(−b·x) floored at 1e-300
            for _ in range(limit):
                e = math.exp(-b * x)
                if e < 1e-300:
                    e = 1e-300
                if not lo <= c * e <= hi:
                    break
                x1 = x + h * (w - (a - a * e))
                if not 0.0 <= x1 <= 1e300 or x1 == x or x1 == avoid:
                    break
                out.append(x1)
                x = x1
        return out

    def holds(self, fronts, grads: list[float]) -> bool:
        """True when the given frontends' tie masks (and, under strict
        argmax, their argmaxes) at `grads` are the stored ones."""
        masks, best, band = self.masks, self.best, self.cfg.tie_band
        for i in fronts:
            nbrs = self.neighbors[i]
            b = nbrs[0]
            top = grads[b]
            for j in nbrs:
                gj = grads[j]
                if gj > top:
                    top = gj
                    b = j
            if best is not None and b != best[i]:
                return False
            cut = top - band
            m = 0
            for j in nbrs:
                if grads[j] >= cut:
                    m |= 1 << j
            if m != masks[i]:
                return False
        return True

    def windows(self, rise: int, fall: int, fronts, grads: list[float], pace: list[float],
                span: int) -> tuple[list[float], list[float]]:
        """Per-backend bounds (lo, hi) on the gradients, such that the given
        frontends keep their tie masks and, under strict argmax, their
        argmaxes while every gradient stays within its bounds (``holds``
        must be true at `grads`).  A backend outside the bitmasks `rise` and
        `fall` keeps its gradient (lo = hi = its value in `grads`).  A mover
        in `rise` may only rise from its value, and one in `fall` only fall,
        by at most `span` times its `pace`, the change of its next step (a
        pace of 0 sets no such bound).

        Each frontend's masks and argmax follow from pairwise conditions: a
        backend in the band stays at or above g_l − band for every other
        band member l; one outside stays below g_t − band, t the band's top
        (lowest index on ties); and under strict argmax every other
        neighbour stays below g_t (at most g_t when its index is higher).  A
        condition that the bounds already meet is left as it is; one that
        two movers move toward is split in proportion to their paces.
        Bounds are exact in floating point: `top − band` is rounded as
        ``tie_masks`` rounds it, and _below/_above invert that rounding."""
        lo, hi = grads[:], grads[:]
        for j in self.members(rise):
            hi[j] = grads[j] + pace[j] * span if pace[j] > 0.0 else math.inf
        for j in self.members(fall):
            lo[j] = grads[j] - pace[j] * span if pace[j] > 0.0 else -math.inf
        band, strict = self.cfg.tie_band, self.best is not None

        def share(x, y):  # x's part of a slack that x and y move into
            both = pace[x] + pace[y]
            return pace[x] / both if both > 0.0 else 0.5

        def at_least(x, y, d):  # make lo[x] >= hi[y] - d
            gx, bound = grads[x], grads[y] - d
            down, up = lo[x] < gx, hi[y] > grads[y]
            if down and up:  # split the slack [bound, gx]
                bound = min(max(gx - (gx - bound) * share(x, y), bound), gx)
            if down and bound > lo[x]:
                lo[x] = bound
            if up:
                hi[y] = min(hi[y], _below(bound if down else gx, d))

        def less(x, y, d):  # make hi[x] < lo[y] - d
            gx, bound = grads[x], grads[y] - d
            up, down = hi[x] > gx, lo[y] < grads[y]
            if up and down:  # split the slack (gx, bound]
                split = gx + (bound - gx) * share(x, y)
                if gx < split <= bound:
                    bound = split
            if up:
                hi[x] = min(hi[x], math.nextafter(bound, -math.inf))
            if down:
                lo[y] = max(lo[y], _above(bound, d) if up
                            else math.nextafter(_below(gx, d), math.inf))

        for i in fronts:
            nbrs, m = self.neighbors[i], self.masks[i]
            t = nbrs[0]
            for j in nbrs:
                if grads[j] > grads[t]:
                    t = j
            for k in nbrs:
                if m >> k & 1:
                    for l in nbrs:
                        if l != k and m >> l & 1 and lo[k] < hi[l] - band:
                            at_least(k, l, band)
                elif hi[k] >= lo[t] - band:
                    less(k, t, band)
                if strict and k != t:
                    if k < t:
                        if hi[k] >= lo[t]:
                            less(k, t, 0.0)
                    elif lo[t] < hi[k]:
                        at_least(t, k, 0.0)
        return lo, hi


def _below(v: float, d: float) -> float:
    """The largest float g with g − d ≤ v (g − d rounded)."""
    return _edge(lambda g: g - d <= v, v + d)


def _above(v: float, d: float) -> float:
    """The smallest float g with g − d ≥ v (g − d rounded)."""
    return math.nextafter(_edge(lambda g: g - d < v, v + d), math.inf)


def _edge(ok, g: float) -> float:
    """The largest float at which `ok` holds, for a predicate that holds at
    −inf and up to some float and fails above it, and at inf.  Searched
    from g: a few steps of one ulp, which find it when g is its rounded
    estimate, then a galloping search over the floats in order."""
    for _ in range(4):
        if ok(g):
            up = math.nextafter(g, math.inf)
            if not ok(up):
                return g
            g = up
        else:
            g = math.nextafter(g, -math.inf)
    lo = hi = _key(g)  # find keys lo < hi with ok at lo and not at hi
    step = 1
    if ok(g):
        while ok(_unkey(hi)):
            lo, hi, step = hi, min(hi + step, _INF_KEY), 2 * step
    else:
        while not ok(_unkey(lo)):
            hi, lo, step = lo, max(lo - step, -_INF_KEY), 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(_unkey(mid)):
            lo = mid
        else:
            hi = mid
    return _unkey(lo)


def _key(x: float) -> int:
    """An integer that orders the floats as their values (±0 give 0)."""
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def _unkey(key: int) -> float:
    """The float of a ``_key``."""
    return struct.unpack("<d", struct.pack("<q", key if key >= 0 else -key | -(1 << 63)))[0]


_INF_KEY = _key(math.inf)


def _classify(prev_sets: frozenset | None, new_sets: frozenset, split: bool) -> str:
    if split:
        return "split"
    if prev_sets is None:
        return "reconfigure"
    merged = all(
        any(old <= new for new in new_sets) for old in prev_sets
    ) and len(new_sets) < len(prev_sets)
    return "slide" if merged else "reconfigure"


def integrate_fluid(
    sys: BipartiteSystem,
    n0,
    horizon: float,
    cfg: IntegratorConfig | None = None,
) -> FluidTrajectory:
    """Integrate the fluid dynamics from n0 for `horizon` time units.

    Forward Euler on the grid t_k = k·h.  In sliding mode each step uses the
    equal-gradient tier drift with a transportation witness, and a tier that
    cannot realize its drift is split by a min cut (see the module
    docstring).  Workloads are clamped at zero (recorded as boundary
    events).  Raises IntegrationError if the state leaves the finite range,
    or if a min cut changes no tie mask (which the flow's tolerance rules
    out).

    A step depends on nothing but the workload vector, so it is computed
    incrementally from the previous one where that gives the same bits, and
    a stretch of steps that keep their routing steps only the backends that
    move (see the module docstring).  Once the workload vector repeats an
    earlier row bit for bit, the run continues the orbit by copying: every
    later row, event and boundary clamp repeats the one a period before it,
    at its own time (events at q·h, clamps at q·h + h), exactly as computing
    it would.  Copied rows add nothing to ``stats``, and neither do held
    steps, which count no witness or flow.  Recorded events build their
    ``tiers`` when it is first read.

    An event is recorded at every change of the tie pattern, however soon
    it changes back.  Under strict argmax a frontend whose two best
    backends trade places every step or two (chatter) records an event at
    each flip: acceptance system 0 records about 119k events in 200k steps.
    Such a flip cycle is not collapsed into one event.

    Raises ValueError before recording anything when round(horizon/h)
    exceeds the step budget of 10**8 steps.
    """
    cfg = cfg or IntegratorConfig()
    n_arr = np.asarray(n0, dtype=float)
    nb = len(sys.backends)
    nf = len(sys.frontends)
    if n_arr.shape != (nb,):
        raise ValueError(f"initial state has shape {n_arr.shape}, expected ({nb},)")
    if not np.all(np.isfinite(n_arr)) or np.any(n_arr < 0):
        raise ValueError("initial state must be finite and nonnegative")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    h = cfg.h
    ratio = horizon / h
    if ratio > _MAX_STEPS + 1 or round(ratio) > _MAX_STEPS:  # the first test catches inf
        raise ValueError(
            f"step budget exceeded: horizon/h = {ratio:.6g} > {_MAX_STEPS} steps"
        )

    k = _Kernel(sys, cfg)
    steps = max(1, int(round(ratio)))
    n = [float(v) for v in n_arr]

    states = array("d")
    inflows = array("d")  # the inflow and routing rows that steps wrote
    routings = array("d")
    uses = array("q")  # per written inflow and routing row, the rows that use it
    events: list[TierEvent] = []
    boundary: list[tuple[float, str]] = []
    prev_sets: frozenset | None = None
    kinds: dict[tuple, str] = {}  # _classify memo on (prev_sets, used_sets, split)
    step = k.sliding_step if cfg.mode == "sliding" else k.argmax_step
    v, w = k.vbuf, k.wbuf
    bits, members = k.bits, k.members
    dirty = k.every  # backends whose workload changed bits: all, at first
    clamped = 0  # backends the last update clamped
    # Brent checkpoint: the workload row at power-of-two index ckpt_row; once
    # that row is computed, its (pattern, split, gradients) and the lengths
    # of events and boundary before its update
    ckpt_row, ckpt = 0, n[:]
    ckpt_bytes = array("d", n).tobytes()
    period = 0  # set once the workload row repeats an earlier one
    idle = backoff = 0  # blocks to skip, and how many to skip after the next empty one

    step_no = 0
    while True:
        t = step_no * h
        if period:
            # this row repeats row step_no − period bit for bit; only its
            # event depends on the row before, so replay that row's pattern
            used, split, g = replay
        else:
            used, split, active, held = step(n, dirty, t)
            g = k.g
        used_sets = used.sets

        if used_sets is not prev_sets and used_sets != prev_sets:
            if prev_sets is not None or split:
                key = (prev_sets, used_sets, split)
                kind = kinds.get(key)
                if kind is None:
                    kind = kinds[key] = _classify(*key)
                events.append(_lazy_event(t, kind, (sys, used.groups, g[:])))
            prev_sets = used_sets
        if period:
            break  # the rest of the run is copied

        states.extend(n)
        if held is None:
            inflows.extend(w)
            routings.extend(k.xbuf)
            uses.append(1)
        else:
            uses[-1] += 1
        if step_no == ckpt_row:
            ckpt_marks = (len(events), len(boundary))
            ckpt_step = (used, split, g[:])

        if step_no == steps:
            break
        # a backend whose workload and drift are both unchanged since an
        # update that did not clamp it would not move now either
        update = active | clamped
        dirty = clamped = 0
        for j in bits.get(update) or members(update):
            nj = n[j] + h * v[j]
            if 0.0 <= nj <= 1e300:
                pass
            elif nj < 0.0:
                nj = 0.0
                clamped |= 1 << j
                boundary.append((t + h, sys.backend_ids[j]))
            else:
                raise IntegrationError(
                    f"non-finite workload for backend {sys.backend_ids[j]!r} "
                    f"at t={t + h:.6g} (value {nj!r}); state {n!r}"
                )
            # `!=` cannot tell -0.0 from 0.0, so a zero compares signs too
            if nj != n[j] or (nj == 0.0 and math.copysign(1.0, nj) != math.copysign(1.0, n[j])):
                n[j] = nj
                dirty |= 1 << j
        step_no += 1
        if not dirty:  # a fixed point: period 1 from this row
            period, replay = 1, (used, split, g)
            marks = (len(events), len(boundary) - clamped.bit_count())
        elif n == ckpt and array("d", n).tobytes() == ckpt_bytes:
            period, replay, marks = step_no - ckpt_row, ckpt_step, ckpt_marks
        elif not step_no & (step_no - 1):
            ckpt_row, ckpt = step_no, n[:]
            ckpt_bytes = array("d", n).tobytes()
        elif held and not clamped and not dirty & ~held:
            # the step kept its rows, so the next steps may keep them too and
            # move only the same backends: record those rows at once, up to
            # the row before the next checkpoint row (or the last row)
            limit = min(steps + 1, 1 << step_no.bit_length()) - 1 - step_no
            if idle:  # the last blocks took one row or none: try later
                idle -= 1
            elif limit > 0:
                # a row can repeat the checkpoint only if the others do already
                orbit = all(n[j] == ckpt[j] for j in range(nb) if not dirty >> j & 1)
                taken = k.held_rows(states, n, dirty, h, limit, ckpt if orbit else None)
                uses[-1] += taken
                step_no += taken
                if taken > 1:
                    backoff = 0
                else:
                    idle = backoff = min(2 * backoff + 1, 63)

    rows = len(states) // nb
    if rows <= steps:
        # rows `rows`.. repeat the rows `period` before them, and so do the
        # events and clamps recorded since the first row of the orbit
        events.extend(
            _lazy_event(q * h, ev.kind, ev.__dict__["tiers"])
            for q, ev in _tile(events[marks[0]:], lambda ev: round(ev.time / h),
                               period, steps)
        )
        boundary.extend(
            (q * h + h, bid)
            for q, (_, bid) in _tile(boundary[marks[1]:], lambda b: round(b[0] / h) - 1,
                                     period, steps - 1)
        )
    index = None  # the row of inflows and routings that each recorded row has
    if len(uses) < rows:
        index = np.repeat(np.arange(len(uses), dtype=np.intp), np.frombuffer(uses, dtype=np.int64))
    del uses
    states = _tile_rows(states, None, rows, steps + 1, (nb,), period)
    routings = _tile_rows(routings, index, rows, steps + 1, (nf, nb), period)
    inflows = _tile_rows(inflows, index, rows, steps + 1, (nb,), period)
    del index
    times = np.arange(steps + 1, dtype=float)
    times *= h  # k·h, built in place
    return FluidTrajectory(
        times=times,
        states=states,
        routings=routings,
        inflows=inflows,
        events=tuple(events),
        boundary_events=tuple(boundary),
        stats=k.stats(),
    )


def _tile(templates: list, row_of, period: int, last: int):
    """(q, item) for q = row_of(item) + m·period, m = 1, 2, ..., while q ≤ last,
    in row order (templates are in row order and span less than a period)."""
    if not templates:
        return
    rows = [row_of(item) for item in templates]
    shift = period
    while True:
        for row, item in zip(rows, templates):
            q = row + shift
            if q > last:
                return
            yield q, item
        shift += period


def _tile_rows(buf: array, index: np.ndarray | None, rows: int, total: int,
               shape: tuple[int, ...], period: int) -> np.ndarray:
    """`total` rows: the `rows` recorded ones (buf's rows, or buf's rows by
    index), then rows that repeat the row `period` before them, copied in
    doubling blocks.  With no index and nothing to repeat, a view on buf."""
    recorded = np.frombuffer(buf, dtype=float).reshape((-1, *shape))
    if index is None and rows == total:
        return recorded
    out = np.empty((total, *shape))
    if index is None:
        out[:rows] = recorded
    else:  # mode="clip" writes straight into out; "raise" would buffer it
        recorded.take(index, axis=0, out=out[:rows], mode="clip")
    start, filled = rows - period, rows
    while filled < total:
        span = min(filled - start, total - filled)  # a whole number of periods
        out[filled:filled + span] = out[start:start + span]
        filled += span
    return out


def modes_agree(sys: BipartiteSystem, n0, horizon: float) -> float:
    """Sup-norm gap between sliding and strict-argmax trajectories under the
    default step and tie band."""
    a = integrate_fluid(sys, n0, horizon, IntegratorConfig())
    b = integrate_fluid(sys, n0, horizon, IntegratorConfig(mode="strict-argmax"))
    return float(np.max(np.abs(a.states - b.states)))
