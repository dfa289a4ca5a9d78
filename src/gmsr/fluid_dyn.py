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

* Kept rows.  Every row the kernel computes is one full step: it
  evaluates every backend's curves, computes every backend's drift and
  updates every workload.  When no gradient changed bits, the step keeps
  the tie masks and pattern.  A step keeps the inflow and routing rows of
  the step before (a held step) under strict argmax when no frontend's
  argmax moved, and in sliding mode when that step solved the same
  pattern outright (no split or tree miss) and each backend that moved
  is a tier of its own: its implied inflow stays the tier's λ, so only
  its drift w_j − μ_j changes.  Otherwise a sliding step solves every
  tier; after a split it solves only the split tier's pieces and the
  tiers not reached yet, since the others keep their rows.
* Blocks.  A step that keeps the inflow and routing rows of the step
  before records them by reference, as the index of the last rows written.
  Until a tie mask changes (or, under strict argmax, an argmax does) the
  routing stays, so each moving backend follows its own scalar recurrence
  n_j ← n_j + h·(w_j − μ_j(n_j)) with fixed w_j (in sliding mode, while
  each moving backend is a tier of its own).  A sliding tier of several
  backends writes new rows at every step instead: its implied inflows move
  with the workloads.  After a step that kept its rows (a held block), or
  one that wrote them with no split or max flow (each tier whose pattern
  tree missed was routed by its demand tree) and moved a backend of a tier
  of several (a tier block), if it clamped nothing, the integrator steps
  the movers in spans of rows, each in two phases.  First the movers step
  with the kernel's arithmetic in one scalar run, compiled once per shape
  of block (curves; per tier of several s −= μ_j and denom += 1/μ″_j in
  backend order, then v_j = (1/μ″_j)·(s/denom); v_j = w_j − μ_j, w_j
  fixed, for a held mover or a tier of one backend; n_j + h·v_j).  It
  stops before an update that would clamp, leave [0, 1e300], or keep a
  held mover's workload (in a tier block, move no backend of a tier of
  several).
  Then numpy checks the rows, one vector operation per scalar one of the
  kernel and in its order: the movers' gradients (exponential ones from
  the run's math.exp values), each frontend's tie mask as
  ``tiers.tie_masks`` forms it and, under strict argmax, its argmax.  A
  pretest on each mover's least and greatest gradient skips the row-by-row
  check where no row can fail: the conditions are pairwise, and top − band
  rounds monotonically in top.  A tier block also forms its rows: μ and
  1/μ″, the implied inflows with their clip, and each moving tier's tree
  elimination and normalization, by its pattern's tree or, for a tier that
  the step before routed by its demand tree, by that stored tree.  A block
  ends before the first row whose masks or argmax change, whose implied
  inflow lies below -1e-12, whose pattern tree flow lies below -1e-9 (or,
  for a demand tier, none does), whose demand tier's weights sort to
  another order or whose demand tree flow lies below 0, ahead of a row
  equal to the checkpoint row, and ahead of the next power-of-two row
  (below); the row after it goes back to the kernel.  Each row of a tier
  block counts the tree misses of the step before it: its moving tiers
  miss as that step's did, and its other tiers do not move.  A held block
  records states only.  A block that takes one row or none (an argmax
  that flips every step or two, say) makes the next attempts wait, up to
  63 kept steps.
* Exact orbits.  A checkpoint, as in Brent's cycle finder (R. P. Brent,
  BIT 20, 1980), holds the workload vector of one row.  It moves on at
  marks every 2^(k−3) rows in [2^k, 2^(k+1)), eight to an octave: to the
  first row at or past the next mark that the loop steps itself (each
  power-of-two row is one).  Once a row repeats the checkpoint bit for
  bit with period P (P = 1 is a fixed point, caught at once), every later
  row, event and boundary clamp is a copy of the one P rows before it,
  with its own time.  Only the first repeated row's event depends on the
  row before it; it is found by replaying the checkpoint row's pattern.
  An orbit is found one period after a checkpoint inside it whose next
  mark lies at least P rows on: acceptance system 0 under strict argmax
  enters a period-253 orbit at row 20,487 and is found at row 22,781, not
  33,021 as with power-of-two checkpoints alone.  An orbit entered at row
  s whose period is more than s/8 waits for an octave whose marks lie P
  apart: it is found by row 17·P, where power-of-two checkpoints alone
  found it by row 2·max(s, P) + P.

The recording stores each row once; the rows of an orbit's later periods
are copied into the recording's own buffers, grown to their full length,
and the arrays returned are views on them.  The events and clamps of those
periods are not stored: ``events`` and ``boundary_events`` are then
immutable sequences that build each copy when it is read.

A tier-change event keeps the tier groups of the tie pattern and the
gradient row it was seen at, and builds its ``TierPartition`` only when
``tiers`` is read.

The inner loop is scalar Python, and a row's cost follows the tiers it
solves rather than the nf·nb routing cells: the routing rows are one flat
``array('d')``, a step that writes them starts from a copy of a zero
buffer, and the integrator records them with one buffer copy.  The tie
pattern is the tuple of per-frontend tied-best bitmasks that
``tiers.tie_masks`` gives, the representation the tiers module and the
stochastic chain use as well.  Everything derivable from the pattern alone
is computed once per distinct pattern and cached: tier membership (from
``tiers.tie_components``), spanning-tree elimination schedules for
transportation witnesses, the band edges with their 1/deg_j factors, each
tier's flow network, and for a tier of one backend, whose w_j = λ_T makes
its tree elimination a constant of the pattern, the one-hot rows it writes
once that tree has passed.  An event's partition is built by
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
demand trees' schedules are cached with the tier, which keeps its last
demand tree while the step's sorted weight order is the same (Kruskal's
tree depends on that order alone), and ``FluidTrajectory.stats`` counts
the misses and the flows.
"""

from __future__ import annotations

import functools
import math
import operator
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

# fluid_dyn.transportation_feasible is not called here; the benchmark's
# test_wrappers_cover_every_binding expects the binding (ROADMAP item 7)
from gmsr.flownet import TransportNetwork, transportation_feasible  # noqa: F401
from gmsr.model import HILL, BipartiteSystem
from gmsr.tiers import TierPartition, _check_args, tie_components, tie_masks, tier_partition

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
# checkpoint marks per octave of rows, as a power of two: every 2^(k−3) rows
# in [2^k, 2^(k+1)) (see the module docstring's exact orbits)
_CKPT_SHIFT = 3
_GROW = 1 << 16  # doubles added to a recording at a time when it is tiled in place


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


class _Tiled(Sequence):
    """The events or the boundary clamps of a run that ends in an exact
    orbit: the recorded ones (`head`), then copies of the orbit's
    `templates`, (row, item) pairs of its first period in row order (not
    empty; all events or all clamps), at the rows q = row + m·period ≤ last
    (m = 1, 2, ...), in row order.  A copy is built when it is read: a
    TierEvent at q·h with its template's kind and current tiers entry (the
    integrator's triple, or the partition once it is built), or a clamp
    (q·h + h, backend id).  Immutable; a slice is a tuple, and ==, hash and
    repr are those of the tuple of the items."""

    __slots__ = ("_head", "_templates", "_period", "_last", "_h", "_len")

    def __init__(self, head: tuple, templates: tuple, period: int, last: int, h: float):
        self._head, self._templates = head, templates
        self._period, self._last, self._h = period, last, h
        self._len = len(head) + sum((last - row) // period for row, _ in templates)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(*i.indices(self._len))))
        i = operator.index(i)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("index out of range")
        head = self._head
        if i < len(head):
            return head[i]
        # every period but the last holds a copy of each template
        m, j = divmod(i - len(head), len(self._templates))
        row, item = self._templates[j]
        q, h = row + (m + 1) * self._period, self._h
        if type(item) is tuple:  # a clamp, recorded at the time after its row
            return (q * h + h, item[1])
        return _lazy_event(q * h, item.kind, item.__dict__["tiers"])

    def __iter__(self):
        yield from self._head
        templates, period, last, h = self._templates, self._period, self._last, self._h
        clamps = type(templates[0][1]) is tuple
        shift = period
        while True:
            for row, item in templates:
                q = row + shift
                if q > last:
                    return
                yield ((q * h + h, item[1]) if clamps
                       else _lazy_event(q * h, item.kind, item.__dict__["tiers"]))
            shift += period

    def __eq__(self, other):
        if not isinstance(other, (tuple, _Tiled)):
            return NotImplemented
        return len(self) == len(other) and all(a is b or a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class KernelStats:
    """Work the sliding kernel did on one run, counted over computed steps
    (rows copied after a bitwise fixed point or along an exact orbit add
    nothing).  A held block writes no rows and counts nothing; a tier block
    takes only rows whose tiers its trees solve as the step before it did,
    and each of them counts that step's tree misses, as computing it would.
    A computed step solves every tier, but a tier solved before a split in
    the same step is not solved, or counted, again; a held sliding step
    keeps tiers that its last step solved outright, which would count
    nothing.

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
    and the per-backend arrival inflows λ·x it induces.  events lists the
    tier changes in time order, and boundary_events the (time, backend id)
    pairs where an Euler step undershot zero and was clamped.  stats counts
    the kernel's work (see ``KernelStats``).

    The arrays are writeable, C-contiguous, and hold one row per instant;
    two runs share no memory.  ``integrate_fluid`` returns states, routings
    and inflows as views on its own recording (``base`` is not None) rather
    than copies.

    events and boundary_events are immutable sequences: tuples, or, for a
    run that ends in an exact orbit, sequences that build the orbit's
    copied events and clamps each time they are read.  They support len,
    indexing (a slice is a tuple), iteration, and ==, hash and repr as the
    tuple of their items; they are not tuples, so ``+`` does not join them
    with one (``(*traj.events, ...)`` does).
    """

    times: np.ndarray
    states: np.ndarray
    routings: np.ndarray
    inflows: np.ndarray
    events: Sequence[TierEvent]
    boundary_events: Sequence[tuple[float, str]]
    stats: KernelStats = KernelStats()

    def __len__(self) -> int:
        return len(self.times)


# ---------------------------------------------------------------------------
# public building blocks
# ---------------------------------------------------------------------------


def _workload(sys: BipartiteSystem, n) -> np.ndarray:
    """n as a float array, checked: one finite, nonnegative entry per backend."""
    n_arr = np.asarray(n, dtype=float)
    nb = len(sys.backends)
    if n_arr.shape != (nb,):
        raise ValueError(f"workload vector has shape {n_arr.shape}, expected ({nb},)")
    if not np.all(np.isfinite(n_arr)) or np.any(n_arr < 0):
        raise ValueError("workload vector must be finite and nonnegative")
    return n_arr


def gmsr_routing_set(
    sys: BipartiteSystem, n, tie_band: float
) -> dict[str, frozenset[str]]:
    """Per-frontend set of tied-best backends at workload n.

    S_f = {b ∈ B(f) : μ′_b(N_b) ≥ max_{j∈B(f)} μ′_j(N_j) − tie_band}.
    """
    grads = _check_args(sys, sys.gradients_at(_workload(sys, n)), tie_band)
    masks = tie_masks(sys.backends_of_frontend, grads, tie_band)
    bids = sys.backend_ids
    return {
        f: frozenset(bids[j] for j in nbrs if masks[i] >> j & 1)
        for i, (f, nbrs) in enumerate(zip(sys.frontend_ids, sys.backends_of_frontend))
    }


def sliding_drift(
    sys: BipartiteSystem, n, tie_band: float
) -> tuple[np.ndarray, np.ndarray, TierPartition]:
    """The sliding drift at workload n: d/dt N, the routing rows that
    realize it, and the tiers after any split (see the module docstring).

    It is the first step of ``integrate_fluid`` from n at this tie band,
    taken by the same kernel, so the two agree bit for bit; the drift is
    the one before the Euler update clamps a workload at zero.
    """
    k = _Kernel(sys, IntegratorConfig(tie_band=tie_band))
    used = k.sliding_step(_workload(sys, n).tolist(), k.every, 0.0)[0]
    return (np.array(k.vbuf), np.array(k.xbuf).reshape(k.nf, k.nb),
            tier_partition(sys, used.groups, k.g))


# ---------------------------------------------------------------------------
# pattern-keyed tier structures for the integrator kernel
# ---------------------------------------------------------------------------


class _TierStruct:
    """Everything about one tier that only depends on the tie pattern."""

    __slots__ = (
        "f_idx", "b_idx", "b_mask", "lam_sum", "schedule", "band", "inv_deg",
        "fallback_backend", "node_set", "transport", "demand_schedules", "order", "tree",
        "ones",
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
        self.order = None                     # the last demand tree's weight order
        self.tree = None                      # and its schedule
        # a tier of one backend whose pattern tree met its demand: the xbuf
        # positions of its one-hot rows
        self.ones = None


class _Pattern:
    __slots__ = ("tiers", "sets", "groups", "single", "blocks")

    def __init__(self, tiers, sets, groups):
        self.tiers = tiers    # tuple[_TierStruct, ...]
        self.sets = sets      # frozenset of per-tier node_set (for event diffs)
        self.groups = groups  # per tier (f_idx, b_idx), as tie_components gives them
        # bitmask of the backends that form a tier on their own
        self.single = sum(t.b_mask for t in tiers if len(t.b_idx) == 1)
        self.blocks = {}      # (movers' bitmask, held, argmaxes) -> _TierBlock


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


class _TierBlock:
    """The movers of one block (``_Kernel.tier_rows``), their scalar run and
    the numpy form of its checks and rows: a held block's movers move on
    fixed inflows, a tier block's are the backends of the moving tiers.  The
    movers are numbered locally: first the backends of each moving tier of
    several backends (pattern order, each in b_idx order), then the singles,
    which move on their own (the held movers, or the tiers of one backend).
    A moving tier of several takes its rows from its pattern's tree or, when
    the step before the block took its demand tree (``_Kernel.routed``),
    from that tree."""

    def __init__(self, k: _Kernel, pattern: _Pattern, moving: int, held: bool):
        moved = [] if held else [t for t in pattern.tiers if t.b_mask & moving]
        self.tiers = [t for t in moved if len(t.b_idx) > 1]
        ones = [t for t in moved if len(t.b_idx) == 1]
        movers = [j for t in self.tiers for j in t.b_idx]
        self.wide = len(movers)  # the movers of tiers of several backends
        # held movers Hill curves first, so that each kind's columns are a
        # slice.  The run binds their inflows, which the block's key fixes:
        # λ of the frontends whose argmax each is, or its tier's (sliding)
        singles = (sorted((j for j in range(k.nb) if moving >> j & 1),
                          key=lambda j: not k.par[j][0]) if held
                   else [t.b_idx[0] for t in ones])
        inflows = [k.wbuf[j] for j in singles] if held else [t.lam_sum for t in ones]
        movers += singles
        self.movers = movers
        self.cols = np.array(movers, dtype=np.intp)
        self.wcol = {j: c for c, j in enumerate(movers[:self.wide])}
        # per moving tier of several: its frontends (and as a slice when they
        # are consecutive, so that numpy takes views) and their fallback
        # backends, and for a demand tier its band edges' λ_i, inflow
        # columns and 1/deg_j
        self.forms = []
        for t in self.tiers:
            fronts = sel = np.array(t.f_idx, dtype=np.intp)
            if t.f_idx[-1] - t.f_idx[0] == len(t.f_idx) - 1:
                sel = slice(t.f_idx[0], t.f_idx[-1] + 1)
            demand = None
            if t.b_mask & k.routed:
                demand = (np.array([k.lam[i] for i, _ in t.band]),
                          np.array([self.wcol[j] for _, j in t.band], dtype=np.intp),
                          np.array(t.inv_deg))
            self.forms.append((t, sel, fronts,
                               np.array([t.fallback_backend[i] for i in t.f_idx], dtype=np.intp),
                               demand))
        par = [k.par[j] for j in movers]
        self.kinds = []  # per curve kind: its local columns and their parameters
        for hill_kind in (True, False):
            cols = [c for c, p in enumerate(par) if p[0] is hill_kind]
            if cols:
                a, b, c, d = (np.array(v) for v in zip(*(par[c][1:] for c in cols)))
                if cols[-1] - cols[0] == len(cols) - 1:
                    cols = slice(cols[0], cols[-1] + 1)
                self.kinds.append((hill_kind, cols, a, b, c, d))
        self.exp_cols = [c for c, p in enumerate(par) if not p[0]]
        self.groups, start = [], 0
        for t in self.tiers:
            self.groups.append((t.lam_sum, range(start, start + len(t.b_idx))))
            start += len(t.b_idx)
        self.singles = list(enumerate(inflows, start))
        self.run = _scalar_run(par, self.groups, self.singles)
        # the frontends next to a mover: their neighbours, tie masks and
        # (under strict argmax, else -1) argmaxes; for numpy, the neighbours
        # padded by index nb (a gradient of -inf), and the masks over them
        fronts = [i for i, nbrs in enumerate(k.neighbors) if any(moving >> j & 1 for j in nbrs)]
        best = k.best or [-1] * k.nf
        self.fronts = [(k.neighbors[i], k.masks[i], best[i]) for i in fronts]
        deg = max((len(k.neighbors[i]) for i in fronts), default=1)  # movers may have none
        nbr = [list(k.neighbors[i]) + [k.nb] * (deg - len(k.neighbors[i])) for i in fronts]
        self.nbr = np.array(nbr, dtype=np.intp).reshape(-1, deg)
        self.expect = np.array([[k.masks[i] >> j & 1 == 1 for j in row]
                                for i, row in zip(fronts, nbr)]).reshape(-1, deg)
        self.top = None if k.best is None else np.array([row.index(best[i])
                                                         for i, row in zip(fronts, nbr)])

    def curves(self, x: np.ndarray, e: np.ndarray):
        """μ, μ′ and 1/μ″ of the movers at the states x (a row per step; e:
        the exp values of the exponential movers at x), one vector operation
        per scalar one of ``_Kernel.curves``."""
        mu, g, ic = (np.empty(x.shape) for _ in range(3))
        for hill_kind, cols, a, b, c, d in self.kinds:
            if hill_kind:  # b: half, c: cap·half, d: 2·cap·half
                xs = x[:, cols]
                t = xs + b
                t2 = t * t
                out = (a * xs / t, c / t2, -(t2 * t) / d)
            else:  # b: rate, c: cap·rate, d: cap·rate²
                out = (a - a * e, c * e, -1.0 / (d * e))
            for arr, val in zip((mu, g, ic), out):
                arr[:, cols] = val
        return mu, g, ic

    def keeps(self, k: _Kernel, g: np.ndarray) -> int:
        """The first row of g (the movers' gradients, a row per step) at which
        a frontend next to a mover changes its tie mask, as ``tie_masks``
        forms it, or under strict argmax its argmax (the first maximum over
        its sorted neighbours); len(g) when none does.  When ``pretest``
        fails, it runs on the first row alone, where it is exact, before the
        rows are checked one by one."""
        if self.pretest(k, g):
            return len(g)
        if len(g) == 1 or not self.pretest(k, g[:1]):
            return 0
        grads = np.empty((len(g), k.nb + 1))
        grads[:] = [*k.g, -math.inf]
        grads[:, self.cols] = g
        near = grads[:, self.nbr]
        cut = near.max(axis=2)
        cut -= k.cfg.tie_band
        bad = np.any((near >= cut[:, :, None]) != self.expect, axis=(1, 2))
        if self.top is not None:
            bad |= np.any(near.argmax(axis=2) != self.top, axis=1)
        return int(np.argmax(bad)) if bad.any() else len(g)

    def pretest(self, k: _Kernel, g: np.ndarray) -> bool:
        """True when each mover's least and greatest gradient in g bound a box
        in which every frontend next to a mover keeps its tie mask and, under
        strict argmax, its argmax.  Each condition is pairwise, and
        fl(top − band) is monotone in top: a band member j needs g_j ≥
        fl(g_l − band) for every other neighbour l, a neighbour j outside the
        band g_j < fl(g_l − band) for some l, and the argmax t g_j < g_t for
        each neighbour j below t and g_j ≤ g_t for each above it."""
        lo, hi = k.g[:], k.g[:]
        for j, a, b in zip(self.movers, g.min(axis=0).tolist(), g.max(axis=0).tolist()):
            lo[j], hi[j] = a, b
        band = k.cfg.tie_band
        for nbrs, m, t in self.fronts:
            top_lo = top = second = -math.inf  # the greatest lo; the two greatest hi
            for j in nbrs:
                if lo[j] > top_lo:
                    top_lo = lo[j]
                if hi[j] > top:
                    top, second, arg = hi[j], top, j
                elif hi[j] > second:
                    second = hi[j]
            cut = top_lo - band
            for j in nbrs:
                if (lo[j] < (second if j == arg else top) - band if m >> j & 1
                        else hi[j] >= cut):
                    return False
                if t >= 0 and j != t and (hi[j] >= lo[t] if j < t else hi[j] > lo[t]):
                    return False
        return True

    def rows(self, k: _Kernel, x: np.ndarray, e: np.ndarray):
        """Rows of the block's scalar run at the states x (e: its exp
        values), as the kernel's ``curves``, ``tier_flows``, ``tree_witness``
        and ``demand_witness`` compute them, one operation of theirs per
        vector operation.  Returns the number of leading rows that keep the
        tie masks (``keeps``), and for a tier block only those that also
        solve every moving tier as the step before the block did, with their
        μ, μ′, 1/μ″ and drifts per mover, inflows per mover of a tier of
        several, and routing rows.  A tier solved by its pattern's tree must
        have no flow of it below -1e-9.  A demand tier must miss its
        pattern's tree, its weights λ_i·w_j/deg_j must sort to the stored
        ``order`` (descending, ties in band order), and the stored ``tree``
        must eliminate no flow below 0; its tier rows are that tree's."""
        m, nb = len(self.movers), k.nb
        mu, g, ic = self.curves(x, e)
        rows = self.keeps(k, g)  # the rows after them are the kernel's
        if not rows or not self.wide:  # a held block records its states only
            return (rows,)
        mu, g, ic, v = mu[:rows], g[:rows], ic[:rows], np.empty((rows, m))
        for lam_sum, cols in self.groups:
            s = lam_sum - mu[:, cols[0]]
            denom = 0.0 + ic[:, cols[0]]
            for c in cols[1:]:
                s -= mu[:, c]
                denom += ic[:, c]
            s /= denom
            for c in cols:
                v[:, c] = ic[:, c] * s
        for c, lam_sum in self.singles:
            v[:, c] = lam_sum - mu[:, c]
        w = v[:, :self.wide] + mu[:, :self.wide]
        bad = np.any(w < -1e-12, axis=1)
        w[w < 0.0] = 0.0  # float dust; -0.0 stays
        x_rows = np.empty((rows, k.nf, nb))
        x_rows[:] = np.reshape(k.xbuf, (k.nf, nb))
        for tier, sel, fronts, fallback, demand in self.forms:
            x_rows[:, sel] = 0.0
            if demand is None:
                bad |= self.eliminate(k, tier, tier.schedule, -1e-9, w, x_rows)
            else:
                bad |= ~self.eliminate(k, tier, tier.schedule, -1e-9, w)
                lam_e, wc, inv = demand
                order = np.array(tier.order, dtype=np.intp)
                weights = (lam_e * w[:, wc] * inv)[:, order]
                hi, lo = weights[:, :-1], weights[:, 1:]
                bad |= ~np.all((hi > lo) | ((hi == lo) & (order[:-1] < order[1:])), axis=1)
                bad |= self.eliminate(k, tier, tier.tree, 0.0, w, x_rows)
            # simplex coordinates, a column per frontend; no flow takes the fallback
            total = np.zeros((rows, len(fronts)))
            for j in tier.b_idx:
                total += x_rows[:, sel, j]
            none = total <= 0.0
            if none.any():
                total[none] = 1.0
                r, c = np.nonzero(none)
                x_rows[r, fronts[c]] = 0.0
                x_rows[r, fronts[c], fallback[c]] = 1.0
            x_rows[:, sel] /= total[:, :, None]
        good = int(np.argmax(bad)) if bad.any() else rows
        return good, mu, g, ic, v, w, x_rows

    def eliminate(self, k: _Kernel, tier: _TierStruct, schedule, floor: float, w: np.ndarray,
                  x_rows: np.ndarray | None = None) -> np.ndarray:
        """Per row of w (the inflows of the movers of tiers of several), True
        where a flow of the tree's elimination steps (``_Kernel.eliminate``'s)
        lies below floor; flows above it that lie below 0 read 0.  Writes the
        flows into x_rows when it is given, and otherwise stops once every
        row has one below floor."""
        nf, lam, wcol = k.nf, k.lam, self.wcol
        acc = {node: np.zeros(len(w)) for node in tier.node_set}
        below = np.zeros(len(w), dtype=bool)
        for node, parent in schedule:
            if node < nf:
                flow = lam[node] - acc[node]
                i, j = node, parent - nf
            else:
                flow = w[:, wcol[node - nf]] - acc[node]
                i, j = parent, node - nf
            below |= flow < floor
            if x_rows is None and below.all():
                break
            flow[flow < 0.0] = 0.0  # -0.0 stays
            if x_rows is not None:
                x_rows[:, i, j] = flow
            acc[parent] += flow
        return below


def _scalar_run(par, groups, singles):
    """The scalar run of a block, for its movers (``_TierBlock`` numbering;
    par: their curve parameters as ``_Kernel.par`` holds them; groups: (λ_T,
    columns) per tier of several; singles: (column, w_j)): the compiled run
    of its shape (``_run_binder``) with the block's values bound to it."""
    wide = sum(len(cols) for _, cols in groups)
    inflow = dict(singles)
    values = []
    for c, (is_hill, a, b, _, d) in enumerate(par):
        values += (a, b if is_hill else -b, inflow[c] if c >= wide else d)
    values += (lam_sum for lam_sum, _ in groups)
    return _run_binder(tuple(p[0] for p in par), tuple(cols for _, cols in groups))(*values)


@functools.lru_cache(maxsize=4096)
def _run_binder(kinds: tuple[bool, ...], tiers: tuple[range, ...]):
    """bind(*values) -> run for the block runs of one shape: kinds per mover
    (True for Hill), the columns of each tier of several, and singles after
    them.  values are a{c}, b{c} (b, or −rate) and k{c} (d, or a single's
    w_j) per mover, then λ_T per tier; the source names them only,
    so each shape is compiled once per process.

    run(xs, es, h, limit) starts from the movers' workloads, the array xs,
    and steps them up to `limit` times as the kernel does: ``curves``, then
    per tier s −= μ_j and denom += 1/μ″_j in b_idx order, v_j = (1/μ″_j)·
    (s/denom), and n_j + h·v_j (v_j = w_j − μ_j for a single).  It appends
    each step's new workloads to xs and exp values to es, and stops before
    an update that leaves [0, 1e300] or keeps a held mover's workload (in a
    tier block: moves no mover of a tier of several).  Unrolled per mover,
    with the values bound as locals, it runs at a fraction of a generic
    loop's cost per row."""
    wide = sum(len(cols) for cols in tiers)
    body = []
    for c, is_hill in enumerate(kinds):
        if is_hill:  # as in curves: μ = a·x/t, 1/μ″ = −t³/k, t = x + b
            mu = f"a{c} * x{c} / (x{c} + b{c})"
            if c < wide:
                body += [f"t = x{c} + b{c}", f"m{c} = a{c} * x{c} / t",
                         f"i{c} = -(t * t * t) / k{c}"]
        else:  # μ = a − a·e, 1/μ″ = −1/(k·e), e = exp(b·x) floored at 1e-300
            body += [f"e{c} = exp(b{c} * x{c})", f"if e{c} < 1e-300:", f"    e{c} = 1e-300"]
            mu = f"(a{c} - a{c} * e{c})"
            if c < wide:
                body += [f"m{c} = {mu}", f"i{c} = -1.0 / (k{c} * e{c})"]
        if c >= wide:  # a single: μ inlined in its update
            body.append(f"y{c} = x{c} + h * (k{c} - {mu})")
    for g, cols in enumerate(tiers):
        body.append(f"q = (lt{g} - {' - '.join(f'm{c}' for c in cols)})"
                    f" / (0.0 + {' + '.join(f'i{c}' for c in cols)})")
        body += [f"y{c} = x{c} + h * (i{c} * q)" for c in cols]
    every = range(len(kinds))
    stall = (f"({' and '.join(f'y{c} == x{c}' for c in range(wide))})" if wide
             else " or ".join(f"y{c} == x{c}" for c in every))
    body += [
        f"if not ({' and '.join(f'0.0 <= y{c} <= 1e300' for c in every)}) or {stall}:",
        "    break",
        *(f"add(y{c})" for c in every),
        *(f"add_e(e{c})" for c in every if not kinds[c]),
        *(f"x{c} = y{c}" for c in every),
    ]
    names = [f"{v}{c}" for c in every for v in "abk"] + [f"lt{g}" for g in range(len(tiers))]
    src = "\n".join([
        f"def bind({', '.join(names)}):",
        f"    def run(xs, es, h, limit, {', '.join(f'{n}={n}' for n in names)}, exp=exp):",
        f"        {''.join(f'x{c}, ' for c in every)}= xs",
        "        add, add_e = xs.append, es.append",
        "        for _ in range(limit):",
        *(f"            {line}" for line in body),
        "    return run",
    ])
    scope = {"exp": math.exp}
    exec(compile(src, "<block run>", "exec"), scope)
    return scope["bind"]


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
        # per-backend curve parameters (is_hill, a, b, c, d): Hill curves
        # (cap, half, cap·half, 2·cap·half), exponential ones (cap, rate,
        # cap·rate, cap·rate²)
        self.par = [
            (True, fn.cap, fn.half, fn.cap * fn.half, 2.0 * fn.cap * fn.half) if fn.kind == HILL
            else (False, fn.cap, fn.rate, fn.cap * fn.rate, fn.cap * fn.rate * fn.rate)
            for fn in sys.services
        ]
        self.every = (1 << self.nb) - 1  # the bitmask of all backends
        self.neighbors = [tuple(sorted(t)) for t in sys.backends_of_frontend]
        self.patterns: dict[tuple[int, ...], _Pattern] = {}
        # state carried from one step to the next: the routing rows, the
        # last computed tie masks and their pattern, and, when the last step
        # solved that pattern with no split or max flow, its tree misses
        # (else None) and the bitmask of the backends of the tiers whose
        # demand tree it took
        self.zero_x = array("d", bytes(8 * self.nf * self.nb))
        self.xbuf = self.zero_x[:]
        self.masks: tuple[int, ...] | None = None
        self.pattern: _Pattern | None = None
        self.missed: int | None = None
        self.routed = 0
        self.best: list[int] | None = None  # strict argmax: each frontend's, as last written
        # reusable per-step buffers
        self.zero_row = array("d", bytes(8 * self.nb))
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

    def curves(self, n: list[float]) -> bool:
        """Evaluate every backend's μ, μ′ and 1/μ″ at n; True when a
        gradient changed."""
        mu, g, ic = self.mu, self.g, self.ic
        moved = False
        for j, (is_hill, a, b, c, d) in enumerate(self.par):
            if is_hill:
                t = n[j] + b
                t2 = t * t
                mu[j] = a * n[j] / t
                gj = c / t2
                ic[j] = -(t2 * t) / d
            else:
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

    def refresh(self, n: list[float]) -> bool:
        """``curves`` at n, then, when a gradient changed (or at the first
        step), the tie masks and, when they changed, their pattern, which
        no step has solved yet (``missed`` is None).  True when a gradient
        changed."""
        if not self.curves(n) and self.masks is not None:
            return False
        fresh = tie_masks(self.neighbors, self.g, self.cfg.tie_band)
        if fresh != self.masks:
            self.masks, self.pattern, self.missed = fresh, self.pattern_for(fresh), None
        return True

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

    def tree_witness(self, tier: _TierStruct, xbuf: array) -> bool:
        """Fill routing rows from the pattern's spanning tree of the tier;
        False when an eliminated flow lies below -1e-9 (flows above that
        read 0).  On False the rows may be partially written.

        A tier of one backend has w_j = λ_T, so its elimination, and whether
        it passes, is a constant of the tier: every row it writes is one-hot
        at j (flow/flow, or the fallback where a frontend carries none).  Once
        it passes, those rows are written directly.  One that fails by
        rounding (λ_T summed in frontend order against the tree's order)
        fails at every step and keeps eliminating."""
        if tier.ones is not None:
            for p in tier.ones:
                xbuf[p] = 1.0
            return True
        if not self.eliminate(tier, tier.schedule, -1e-9, xbuf):
            return False
        if len(tier.b_idx) == 1:
            tier.ones = [i * self.nb + tier.b_idx[0] for i in tier.f_idx]
        return True

    def demand_witness(self, tier: _TierStruct, xbuf: array) -> bool:
        """Fill routing rows from the step's demand tree of the tier: the
        maximum-weight spanning tree of its band edges (Kruskal) with weight
        λ_i·w_j/deg_j, deg_j the number of the tier's frontends whose band
        holds j, ties kept in band order.  True only when every eliminated
        flow is ≥ 0 exactly: a nonnegative flow that meets every marginal,
        which the band max flow would accept too.  The tree depends on the
        pattern and the demands in wbuf alone, and Kruskal's tree on the
        sorted weight order alone: while that order is the one of the tier's
        last demand tree, that tree is reused.  Clears the tier's rows
        first; on False they may be partially written."""
        nf, nb, lam, w = self.nf, self.nb, self.lam, self.wbuf
        band = tier.band
        weights = [lam[i] * w[j] * d for (i, j), d in zip(band, tier.inv_deg)]
        # sorted() is stable with reverse=True too: ties keep band order
        order = sorted(range(len(band)), key=weights.__getitem__, reverse=True)
        if order == tier.order:
            schedule = tier.tree
        else:
            schedule = tier.tree = self.kruskal(tier, order)
            tier.order = order
        for i in tier.f_idx:
            xbuf[i * nb:(i + 1) * nb] = self.zero_row
        return self.eliminate(tier, schedule, 0.0, xbuf)

    def kruskal(self, tier: _TierStruct, order: list[int]):
        """The schedule of the spanning tree that Kruskal's algorithm takes
        from the tier's band edges in `order` (positions in band)."""
        nf, band = self.nf, tier.band
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
        return schedule

    def eliminate(self, tier: _TierStruct, schedule, floor: float, xbuf: array) -> bool:
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

    def band_flow(self, tier: _TierStruct, xbuf: array) -> int:
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
    # Both take the workload vector, the bitmask of backends whose workload
    # changed bits since the last call, and the step's time (for errors).
    # Each evaluates every backend's curves, computes every backend's drift
    # (a held sliding step keeps those of its tiers of several, none of
    # whose backends moved), fills vbuf/wbuf/xbuf, and returns (tie pattern
    # used, whether a tier was split, held).  held is None when the step wrote its inflow and routing
    # rows; otherwise they are the last step's bit for bit, and held is the
    # bitmask of backends that a held block (``tier_rows``) may step while
    # the tie masks (and, under strict argmax, the argmax) stay.

    def sliding_step(self, n: list[float], dirty: int, t: float
                     ) -> tuple[_Pattern, bool, int | None]:
        nb = self.nb
        self.refresh(n)
        pattern = self.pattern
        if self.missed == 0 and not dirty & ~pattern.single:
            # the last step solved this pattern outright, and each moved
            # backend is a tier of its own: w_j stays the tier's λ and the
            # rows stay, so only the singles' v_j = w_j − μ_j can move
            v, w, mu, single = self.vbuf, self.wbuf, self.mu, pattern.single
            for j in range(nb):
                if single >> j & 1:
                    v[j] = w[j] - mu[j]
            return pattern, False, single
        xbuf = self.xbuf = self.zero_x[:]
        todo = pattern.tiers
        used, cur = pattern, self.masks
        misses, flows, routed = self.tree_misses, self.maxflow_witnesses, 0
        while True:
            for tier in todo:
                if self.tier_flows(tier):
                    if not tier.f_idx or self.tree_witness(tier, xbuf):
                        continue
                    # an unlucky tree is not proof of infeasibility; a tree
                    # fitted to this step's demands often realizes them
                    self.tree_misses += 1
                    if self.demand_witness(tier, xbuf):
                        routed |= tier.b_mask
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
        solved = used is pattern and self.maxflow_witnesses == flows
        self.missed = self.tree_misses - misses if solved else None
        self.routed = routed
        return used, used is not pattern, None

    def argmax_step(self, n: list[float], dirty: int, t: float
                    ) -> tuple[_Pattern, bool, int | None]:
        v, w, mu, nb = self.vbuf, self.wbuf, self.mu, self.nb
        held = self.every  # while every argmax stays, so do the routing and inflows
        if self.refresh(n):
            g = self.g
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
                self.best, held, lam = best, None, self.lam
                xbuf = self.xbuf = self.zero_x[:]
                for j in range(nb):
                    w[j] = 0.0
                for i, j in enumerate(best):
                    xbuf[i * nb + j] = 1.0
                    w[j] += lam[i]
        for j in range(nb):
            v[j] = w[j] - mu[j]
        return self.pattern, False, held

    def tier_rows(self, rec: tuple[array, array, array, array], n: list[float], dirty: int,
                  h: float, limit: int, ckpt: list[float], held: bool) -> tuple[int, int]:
        """A block: up to `limit` rows from n on, while the step at each would
        move the same backends and either keep its inflow and routing rows
        (`held`: the movers are the backends in `dirty`) or solve the stored
        tie pattern by the trees the last step took (no split or max flow;
        each tier the pattern's tree or, in ``routed``, the stored demand
        tree), moving the tiers that hold a backend in `dirty`, one of
        several backends among them, and counting the last step's tree
        misses at each row.  Takes the rows in spans of 8 rows (held) or 64
        at first, growing fourfold, each stepped by the block's scalar run
        and checked with numpy (``_TierBlock.rows``, through
        ``_TierBlock.keeps``); ends before the first row that fails a check,
        before a row the run did not reach, ahead of a row equal to `ckpt`,
        and after `limit` rows.
        Appends the rows (n first) to rec, the states, inflow, routing and use
        recordings (a held block its states only, adding its rows to the last
        use), leaves n at the row after them, and returns how many it took and
        the bitmask of backends whose workload the last update changed (dirty
        after a held block, whose movers all moved, or one that took none).
        A tier block leaves the kernel's buffers as the step at its last row
        leaves them.  A held block leaves g as it was: the next step's
        ``curves`` re-evaluates every backend, sees any gradient change and
        recomputes the masks."""
        states, inflows, routings, uses = rec
        pattern, nb = self.pattern, self.nb
        moving = dirty if held else sum(t.b_mask for t in pattern.tiers if t.b_mask & dirty)
        # tier blocks have no argmax, and held ones no demand tier
        key = (moving, held, self.best and tuple(self.best), self.routed & moving)
        blk = pattern.blocks.get(key)
        if blk is None:
            blk = _TierBlock(self, pattern, moving, held)
            if len(pattern.blocks) < 64:
                pattern.blocks[key] = blk
        movers, cols = blk.movers, blk.cols
        # a row can repeat the checkpoint only if the others do already
        orbit = all(n[j] == ckpt[j] for j in range(nb) if not moving >> j & 1)
        at = [ckpt[j] for j in movers]
        x = [n[j] for j in movers]
        # bounds the numpy temporaries
        size = max(64, min(4096 if held else 1024, (1 << 16) // (self.nf * nb)))
        span, taken, last = 8 if held else 64, 0, None
        while taken < limit:
            take = min(span, limit - taken)
            xs, es = array("d", x), array("d")
            try:
                blk.run(xs, es, h, take)
            except ZeroDivisionError:
                pass  # the kernel raises it at that row, if the run gets there
            run = np.frombuffer(xs).reshape(-1, len(movers))
            reached = len(run) - 1
            if not reached:
                break
            with np.errstate(all="ignore"):
                good, *rows = blk.rows(self, run[:reached],
                                       np.frombuffer(es).reshape(reached, len(blk.exp_cols)))
            if orbit and good:
                hits = np.all(run[1:good + 1] == at, axis=1)
                if hits.any():
                    good = int(np.argmax(hits))  # the row before the hit is the kernel's
            if good:
                row = np.empty((good, nb))
                row[:] = n
                row[:, cols] = run[:good]
                states.frombytes(row.data.cast("B"))
                if rows:
                    *_, w, x_rows = rows
                    row[:] = self.wbuf
                    row[:, cols[:blk.wide]] = w[:good]
                    inflows.frombytes(row.data.cast("B"))
                    routings.frombytes(x_rows[:good].data.cast("B"))
                    uses.extend(array("q", [1]) * good)
                    last = good - 1, run, rows
                else:
                    uses[-1] += good
                taken += good
                x = run[good].tolist()
            if good < span:
                break
            span = min(4 * span, size)
        for c, j in enumerate(movers):
            n[j] = x[c]
        if last is None:
            return taken, dirty
        self.tree_misses += taken * self.missed  # each row misses as the step before did
        r, run, (mu, g, ic, v, w, x_rows) = last
        mu, g, ic, v, w = (a[r].tolist() for a in (mu, g, ic, v, w))
        for c, j in enumerate(movers):
            self.mu[j], self.g[j], self.ic[j], self.vbuf[j] = mu[c], g[c], ic[c], v[c]
            if c < blk.wide:
                self.wbuf[j] = w[c]
        xbuf = np.frombuffer(self.xbuf).reshape(self.nf, nb)
        for tier in blk.tiers:
            xbuf[tier.f_idx, :] = x_rows[r, tier.f_idx]
        moved = run[r + 1].view(np.int64) != run[r].view(np.int64)
        return taken, sum(1 << j for j, m in zip(movers, moved) if m)


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

    A step depends on nothing but the workload vector.  Each row the
    kernel computes is one full step over every backend, which keeps its
    inflow and routing rows when they cannot change, and a stretch of
    steps that keep their routing, or whose tie pattern and trees hold,
    steps only the backends that move, in blocks (see the module
    docstring).  Once the workload vector repeats a checkpoint row bit for
    bit (checkpoints sit eight to an octave of rows, see the module
    docstring), the run continues the orbit by copying: every later row,
    event and boundary clamp repeats the one a period before it, at its own
    time (events at q·h, clamps at q·h + h), exactly as computing it would.
    The rows are copied into the returned arrays; the events and clamps are
    built when they are read, so ``events`` and ``boundary_events`` are then
    sequences of their own (see ``FluidTrajectory``), and a copied event
    takes its template's tiers, built or not.  Copied rows add nothing to
    ``stats``, and blocks run no flow; a tier block's rows count the tree
    misses that computing them would.
    Recorded events build their ``tiers`` when it is first read.

    An event is recorded at every change of the tie pattern, however soon
    it changes back.  Under strict argmax a frontend whose two best
    backends trade places every step or two (chatter) records an event at
    each flip: acceptance system 0 records about 119k events in 200k steps.
    Such a flip cycle is not collapsed into one event.

    Raises ValueError before recording anything when round(horizon/h)
    exceeds the step budget of 10**8 steps.
    """
    cfg = cfg or IntegratorConfig()
    n_arr = _workload(sys, n0)
    nb = len(sys.backends)
    nf = len(sys.frontends)
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
    dirty = k.every  # backends whose workload changed bits: all, at first
    # checkpoint: the workload row ckpt_row, the first row the loop steps
    # itself at or past the mark next_ckpt, with its (pattern, split,
    # gradients) and the lengths of events and boundary before its update
    next_ckpt = 0
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
            used, split, held = step(n, dirty, t)
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
        if step_no >= next_ckpt:
            ckpt_row, ckpt = step_no, n[:]
            ckpt_bytes = array("d", n).tobytes()
            ckpt_marks = (len(events), len(boundary))
            ckpt_step = (used, split, g[:])
            gap = 1 << max(0, step_no.bit_length() - 1 - _CKPT_SHIFT)
            next_ckpt = step_no // gap * gap + gap

        if step_no == steps:
            break
        dirty = clamped = 0
        for j in range(nb):
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
            pass  # the loop steps each power-of-two row itself, a checkpoint
        elif not clamped and (held and not dirty & ~held or held is None
                              and k.missed is not None and dirty & ~k.pattern.single):
            # the step kept its rows, so the next steps may keep them too and
            # move only the same backends; or it solved its pattern with no
            # split or max flow (only sliding steps do) and moved a tier of
            # several backends, which the next steps may solve by the same
            # trees: record those rows at once, up to the row before the next
            # power-of-two row (or the last row)
            limit = min(steps + 1, 1 << step_no.bit_length()) - 1 - step_no
            if idle:  # the last blocks took one row or none: try later
                idle -= 1
            elif limit > 0:
                taken, dirty = k.tier_rows((states, inflows, routings, uses), n, dirty, h,
                                           limit, ckpt, bool(held))
                step_no += taken
                if taken > 1:
                    backoff = 0
                else:
                    idle = backoff = min(2 * backoff + 1, 63)

    rows = len(states) // nb
    events, boundary = tuple(events), tuple(boundary)
    if rows <= steps:
        # rows `rows`.. repeat the rows `period` before them, and so do the
        # events and clamps recorded since the first row of the orbit: their
        # copies are built when they are read
        templates = tuple((round(ev.time / h), ev) for ev in events[marks[0]:])
        if templates:
            events = _Tiled(events, templates, period, steps, h)
        templates = tuple((round(b[0] / h) - 1, b) for b in boundary[marks[1]:])
        if templates:
            boundary = _Tiled(boundary, templates, period, steps - 1, h)
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
        events=events,
        boundary_events=boundary,
        stats=k.stats(),
    )


def _tile_rows(buf: array, index: np.ndarray | None, rows: int, total: int,
               shape: tuple[int, ...], period: int) -> np.ndarray:
    """`total` rows as a view on buf: the `rows` recorded ones (buf's rows,
    or buf's rows by index), then rows that repeat the row `period` before
    them, copied in doubling blocks.  buf grows to `total` rows in parts of
    at most _GROW doubles, and its rows are spread by index and tiled in
    place, so no second copy of them is made."""
    width = math.prod(shape)
    missing = total * width - len(buf)
    zeros = memoryview(bytes(8 * min(missing, _GROW)))
    while missing:
        part = min(missing, _GROW)
        buf.frombytes(zeros[:8 * part])
        missing -= part
    out = np.frombuffer(buf, dtype=float).reshape((total, *shape))
    if index is not None:
        # index[r] <= r and never falls, so filling from the last row down,
        # a part at a time, overwrites no row that a lower one still reads
        step = max(1, _GROW // width)
        for hi in range(rows, 0, -step):
            lo = max(0, hi - step)
            out[lo:hi] = out.take(index[lo:hi], axis=0, mode="clip")
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
