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
  transportation-feasibility question).  A tier whose equalized drift is
  unrealizable is split by evicting one backend at a time — the one whose
  implied inflow went negative (it is leaving through the w ≥ 0 face), or
  failing that the one furthest from the tier's top gradient (it entered
  the tie band last) — until every tier's drift is realizable.  Evicting
  exactly the marginal member keeps the realized inflows continuous in
  time, which the Lyapunov certificate relies on.
* ``strict-argmax`` — each frontend routes its whole rate to its single
  best backend (lowest index on exact ties).  This is the noisy
  discretization that the sliding mode idealizes; the two agree to O(h + ε).

The integrator records states, routings, realized inflows, tier-change
events, and boundary clamps, at every step.  One step is a pure function of
the workload vector, so once an Euler update leaves every workload unchanged
bit for bit (and clamps nothing), every later step would repeat it: the
remaining rows are filled as copies of the last computed one instead of
being recomputed.  A tier-change event keeps the tie pattern and gradient
row it was seen at and builds its ``TierPartition`` only when ``tiers`` is
read.

The inner loop is scalar Python tuned for small systems (a handful of
nodes): per-backend curve evaluations are unrolled by curve kind, and
everything derivable from the tie pattern alone — tier membership,
Hall-condition tables, spanning-tree elimination schedules for
transportation witnesses — is computed once per distinct pattern and
cached.

A tier's routing normally comes from its spanning tree.  When a tree flow
comes out negative, feasibility is decided exactly.  A tier with at most
16 frontends has a Hall table with one row per closed covered set C (a
backend set that is the neighbourhood of some frontend set): λ of the
largest frontend set whose neighbourhood lies inside C, against the demand
of C.  Rounding is monotone and rates are nonnegative, so these at most
2^min(|F|,|B|) − 1 rows give the verdict of all 2^|F| − 1 frontend subsets
bit for bit.  A tier the table accepts, or one with more than 16 frontends,
takes its rows from a max flow on a network cached with the tier
(``flownet.TransportNetwork``, the computation ``transportation_feasible``
runs).  ``FluidTrajectory.stats`` counts these steps.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from gmsr.flownet import TransportNetwork, transportation_feasible
from gmsr.model import HILL, BipartiteSystem
from gmsr.tiers import Tier, TierPartition

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


class IntegrationError(RuntimeError):
    """A trajectory left the finite domain (diverged or produced NaN)."""


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
    integrator's (system, tie pattern, gradient row) triple, which becomes a
    TierPartition on first read and is replaced by it."""

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError("tiers")  # a required field: no class default
        tiers = obj.__dict__["tiers"]
        if type(tiers) is tuple:
            tiers = obj.__dict__["tiers"] = _snapshot(*tiers)
        return tiers

    def __set__(self, obj, value) -> None:
        obj.__dict__["tiers"] = value


@dataclass(frozen=True)
class TierEvent:
    """A change of the tier partition between consecutive steps.

    kind is "split" when a transportation-infeasible tier was broken up by
    tie-band refinement, "slide" when tiers merged onto a common
    equal-gradient surface, and "reconfigure" for any other change.

    Events recorded by ``integrate_fluid`` keep the tie pattern and gradient
    row of their step and build ``tiers`` when it is first read (equality,
    hashing and repr read it too), so a run that records many events pays
    for the ``TierPartition`` objects only of those that are inspected.
    """

    time: float
    kind: str
    tiers: TierPartition = _TiersOnRead()


@dataclass(frozen=True)
class KernelStats:
    """Work the sliding kernel did on one run, counted over computed steps
    (rows copied after a bitwise fixed point add nothing).

    tree_misses:       tier spanning-tree witnesses that came out negative.
    hall_rejections:   of those, tiers the Hall table proved infeasible.
    maxflow_witnesses: max-flow solves for the others (one per miss that
                       the table did not reject, or per miss on a tier with
                       more than 16 frontends, where max flow alone decides).
    evictions:         backends evicted from a tier to split it.
    forced_steps:      steps that fell back to one strict-argmax step.
    patterns:          distinct tie patterns whose tier structures were built.

    In strict-argmax mode only ``patterns`` can be nonzero.
    """

    tree_misses: int = 0
    hall_rejections: int = 0
    maxflow_witnesses: int = 0
    evictions: int = 0
    forced_steps: int = 0
    patterns: int = 0


@dataclass(frozen=True)
class FluidTrajectory:
    """A recorded fluid trajectory on the uniform grid t_k = k·h.

    states[k], routings[k] and inflows[k] describe the same instant t_k:
    the workload vector, the routing matrix the integrator realized there,
    and the per-backend arrival inflows λ·x it induces.  boundary_events
    lists (time, backend id) pairs where an Euler step undershot zero and
    was clamped.  stats counts the kernel's work (see ``KernelStats``).
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
    n = np.asarray(n, dtype=float)
    grads = sys.gradients_at(n)
    out: dict[str, frozenset[str]] = {}
    for i, f in enumerate(sys.frontend_ids):
        nbrs = sys.backends_of_frontend[i]
        top = max(grads[j] for j in nbrs)
        out[f] = frozenset(
            sys.backend_ids[j] for j in nbrs if grads[j] >= top - tie_band
        )
    return out


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
            ok, witness = transportation_feasible(
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
        "f_idx", "b_idx", "lam_sum", "needs_hall", "hall",
        "schedule", "root", "fallback_backend", "node_set", "transport",
    )

    def __init__(self, f_idx, b_idx, lam_sum, needs_hall, hall, schedule, root,
                 fallback_backend, node_set):
        self.f_idx = f_idx                    # tuple of frontend indices
        self.b_idx = b_idx                    # tuple of backend indices
        self.lam_sum = lam_sum
        self.needs_hall = needs_hall          # ≥2 frontends and ≥2 backends
        self.hall = hall                      # (λ(P_C), C) per closed covered set C
        self.schedule = schedule              # tree-elimination steps
        self.root = root                      # root node id (f: i, b: nf+j)
        self.fallback_backend = fallback_backend  # per f_idx: one-hot target
        self.node_set = node_set              # frozenset of node ids
        self.transport = None                 # TransportNetwork, built on first miss


class _Pattern:
    __slots__ = ("tiers", "sets")

    def __init__(self, tiers, sets):
        self.tiers = tiers  # tuple[_TierStruct, ...]
        self.sets = sets    # frozenset of per-tier node_set (for event diffs)


def _hall_rows(nbr: list[int], lams: list[float], bs: list[int]) -> tuple:
    """Hall rows of one tier: (λ(P_C), C) for each closed covered set C.

    nbr[k] is the neighbourhood of the tier's k-th frontend as a bitmask over
    positions in bs, lams[k] its rate.  A covered set C is closed when it is
    the neighbourhood of some frontend set; P_C is the largest such set (every
    frontend whose neighbourhood lies inside C), and λ(P_C) is summed in
    frontend order from 0.0.  Rounding to nearest is monotone and rates are
    nonnegative, so λ(P_C) is the largest λ(P) summed that way over all P with
    N(P) = C: testing these rows alone gives the same verdict as testing all
    2^|F| - 1 frontend subsets.  The closed sets are found from whichever side
    is smaller: all backend subsets, or the neighbourhoods of all frontend
    subsets.
    """
    if len(bs) <= len(nbr):
        covers = range(1, 1 << len(bs))
    else:
        cov = [0] * (1 << len(nbr))
        for pick in range(1, len(cov)):
            top = pick.bit_length() - 1
            cov[pick] = cov[pick ^ (1 << top)] | nbr[top]
        covers = sorted(set(cov[1:]))
    rows = []
    for c in covers:
        lam_p = 0.0
        got = 0
        for m, lam_k in zip(nbr, lams):
            if not m & ~c:
                lam_p += lam_k
                got |= m
        if got == c:
            rows.append((lam_p, tuple(j for k, j in enumerate(bs) if c >> k & 1)))
    return tuple(rows)


def _build_pattern(sys: BipartiteSystem, masks: tuple[int, ...]) -> _Pattern:
    """Derive tier structures from per-frontend tied-best bitmasks."""
    nf, nb = len(sys.frontends), len(sys.backends)
    lam = sys.lambdas
    # flood fill over the tie edges; frontends first for deterministic order
    comp = [-1] * (nf + nb)
    groups: list[tuple[list[int], list[int]]] = []
    for start in range(nf):
        if comp[start] >= 0:
            continue
        gi = len(groups)
        fs: list[int] = []
        bs: list[int] = []
        queue = [start]
        comp[start] = gi
        while queue:
            node = queue.pop()
            if node < nf:
                fs.append(node)
                m = masks[node]
                j = 0
                while m:
                    if m & 1 and comp[nf + j] < 0:
                        comp[nf + j] = gi
                        queue.append(nf + j)
                    m >>= 1
                    j += 1
            else:
                bs.append(node - nf)
                bit = 1 << (node - nf)
                for i in range(nf):
                    if masks[i] & bit and comp[i] < 0:
                        comp[i] = gi
                        queue.append(i)
        groups.append((sorted(fs), sorted(bs)))
    for j in range(nb):  # untouched backends become singleton tiers
        if comp[nf + j] < 0:
            comp[nf + j] = len(groups)
            groups.append(([], [j]))

    tiers = []
    sets = []
    for fs, bs in groups:
        lam_sum = float(sum(lam[i] for i in fs))
        # edges available to carry tier flow: original edges inside the tier
        b_in = set(bs)
        adj: dict[int, list[int]] = {i: [] for i in fs}
        for j in bs:
            adj[nf + j] = []
        for i in fs:
            for j in sys.backends_of_frontend[i]:
                if j in b_in:
                    adj[i].append(nf + j)
                    adj[nf + j].append(i)
        needs_hall = len(fs) >= 2 and len(bs) >= 2
        hall: tuple | None = ()
        if needs_hall and len(fs) <= 16:
            pos = {nf + j: k for k, j in enumerate(bs)}
            nbr = [sum(1 << pos[node] for node in adj[i]) for i in fs]
            hall = _hall_rows(nbr, [lam[i] for i in fs], bs)
        elif needs_hall:
            hall = None  # too many frontends: fall back to max-flow checks

        # spanning tree + leaf-to-root elimination schedule for witnesses
        schedule: list[tuple[int, int]] = []
        root = fs[0] if fs else nf + bs[0]
        if fs:
            parent = {root: -1}
            order = [root]
            queue = [root]
            while queue:
                node = queue.pop(0)
                for other in adj[node]:
                    if other not in parent:
                        parent[other] = node
                        order.append(other)
                        queue.append(other)
            schedule = [(node, parent[node]) for node in reversed(order[1:])]

        fallback = {}
        for i in fs:
            tied = [j for j in sys.backends_of_frontend[i] if masks[i] >> j & 1]
            fallback[i] = min(tied) if tied else min(
                j for j in sys.backends_of_frontend[i] if j in b_in
            )
        node_set = frozenset(fs) | frozenset(nf + j for j in bs)
        tiers.append(
            _TierStruct(tuple(fs), tuple(bs), lam_sum, needs_hall, hall,
                        tuple(schedule), root, fallback, node_set)
        )
        sets.append(node_set)
    return _Pattern(tuple(tiers), frozenset(sets))


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
        # per-kind unrolled curve parameters
        hill_idx, sx_idx = [], []
        hill_par, sx_par = [], []
        for j, fn in enumerate(sys.services):
            if fn.kind == HILL:
                hill_idx.append(j)
                hill_par.append((fn.cap, fn.half, 2.0 * fn.cap * fn.half))
            else:
                sx_idx.append(j)
                sx_par.append((fn.cap, fn.rate, fn.cap * fn.rate,
                               fn.cap * fn.rate * fn.rate))
        self.hill = list(zip(hill_idx, hill_par))
        self.sx = list(zip(sx_idx, sx_par))
        self.neighbors = [tuple(sorted(t)) for t in sys.backends_of_frontend]
        self.patterns: dict[tuple[int, ...], _Pattern] = {}
        # reusable per-step buffers
        self.mu = [0.0] * self.nb
        self.g = [0.0] * self.nb
        self.ic = [0.0] * self.nb          # 1/μ″ (negative)
        self.acc = [0.0] * (self.nf + self.nb)
        self.vbuf = [0.0] * self.nb
        self.wbuf = [0.0] * self.nb
        # work counters, returned as KernelStats
        self.tree_misses = 0
        self.hall_rejections = 0
        self.maxflow_witnesses = 0
        self.evictions = 0
        self.forced_steps = 0

    def stats(self) -> KernelStats:
        return KernelStats(
            tree_misses=self.tree_misses,
            hall_rejections=self.hall_rejections,
            maxflow_witnesses=self.maxflow_witnesses,
            evictions=self.evictions,
            forced_steps=self.forced_steps,
            patterns=len(self.patterns),
        )

    def curves(self, n: list[float]) -> None:
        mu, g, ic = self.mu, self.g, self.ic
        for j, (a, b, two_ab) in self.hill:
            t = n[j] + b
            t2 = t * t
            mu[j] = a * n[j] / t
            g[j] = a * b / t2
            ic[j] = -(t2 * t) / two_ab
        for j, (a, r, ar, arr_) in self.sx:
            e = math.exp(-r * n[j])
            if e < 1e-300:  # numerically flat: keep weights finite
                e = 1e-300
            mu[j] = a - a * e
            g[j] = ar * e
            ic[j] = -1.0 / (arr_ * e)

    def masks_at(self, band: float) -> tuple[int, ...]:
        g = self.g
        out = []
        for nbrs in self.neighbors:
            top = -1.0
            for j in nbrs:
                gj = g[j]
                if gj > top:
                    top = gj
            cut = top - band
            m = 0
            for j in nbrs:
                if g[j] >= cut:
                    m |= 1 << j
            out.append(m)
        return tuple(out)

    def pattern_for(self, masks: tuple[int, ...]) -> _Pattern:
        pat = self.patterns.get(masks)
        if pat is None:
            pat = _build_pattern(self.sys, masks)
            self.patterns[masks] = pat
        return pat

    # -- sliding-mode step pieces -------------------------------------------
    # tier_flows/tree_witness/hall_ok all read and write the shared
    # per-backend buffers vbuf/wbuf, indexed globally.

    def tier_flows(self, tier: _TierStruct) -> int:
        """Drift and implied inflows for one tier.

        Returns -1 on success; otherwise the global index of the backend
        whose implied inflow is most negative (the member to evict).
        """
        mu, ic, v, w = self.mu, self.ic, self.vbuf, self.wbuf
        b_idx = tier.b_idx
        if len(b_idx) == 1:  # single backend: it absorbs the whole imbalance
            j = b_idx[0]
            v[j] = tier.lam_sum - mu[j]
            w[j] = tier.lam_sum
            return -1
        s = tier.lam_sum
        denom = 0.0
        for j in b_idx:
            s -= mu[j]
            denom += ic[j]
        scale = s / denom
        bad_j = -1
        bad_w = -1e-12  # inside this band it is float dust, not an exit
        for j in b_idx:
            vj = ic[j] * scale
            wj = vj + mu[j]
            if wj < 0.0:
                if wj < bad_w:
                    bad_w = wj
                    bad_j = j
                wj = 0.0
            v[j] = vj
            w[j] = wj
        return bad_j

    def most_marginal(self, tier: _TierStruct) -> int:
        """Tier member furthest below the tier's top gradient; -1 on exact tie."""
        g = self.g
        top = max(g[j] for j in tier.b_idx)
        bad_j = -1
        bad_gap = 0.0
        for j in tier.b_idx:
            gap = top - g[j]
            if gap > bad_gap:
                bad_gap = gap
                bad_j = j
        return bad_j

    def hall_ok(self, tier: _TierStruct) -> bool:
        """Hall's condition for the demands in wbuf (tiers with a table)."""
        w = self.wbuf
        for lam_p, covered in tier.hall:
            supply = 0.0
            for j in covered:
                supply += w[j]
            if lam_p > supply + 1e-12:
                return False
        return True

    def tree_witness(self, tier: _TierStruct, xbuf: list[float]) -> bool:
        """Fill routing rows from the tier's spanning tree; False on negatives.

        On False the rows may be partially written; every caller either
        rebuilds xbuf or overwrites the full tier block.
        """
        nf, nb, lam, w = self.nf, self.nb, self.lam, self.wbuf
        acc = self.acc
        for node in tier.node_set:
            acc[node] = 0.0
        for node, parent in tier.schedule:
            marg = lam[node] if node < nf else w[node - nf]
            flow = marg - acc[node]
            if flow < -1e-9:
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

    def exact_witness(self, tier: _TierStruct, xbuf: list[float]) -> bool:
        """After a tree miss: decide feasibility exactly, and on success fill
        the tier's rows from a max-flow witness.

        The Hall table decides when the tier has one; a tier with more than
        16 frontends has none, and the max flow decides by itself.
        """
        if tier.hall is not None and not self.hall_ok(tier):
            self.hall_rejections += 1
            return False
        net = tier.transport
        if net is None:
            sys = self.sys
            net = tier.transport = TransportNetwork(
                sys,
                [sys.frontend_ids[i] for i in tier.f_idx],
                [sys.backend_ids[j] for j in tier.b_idx],
            )
        self.maxflow_witnesses += 1
        w = self.wbuf
        ok, witness = net.solve([w[j] for j in net.b_idx])
        if not ok:
            return False
        nb = self.nb
        for i in tier.f_idx:
            base = i * nb
            for j in tier.b_idx:
                xbuf[base + j] = witness[i, j]
        return True

    def strict_step(self, xbuf: list[float]) -> None:
        """Whole-rate argmax routing; fills vbuf/wbuf."""
        g, lam, nb = self.g, self.lam, self.nb
        mu, v, w = self.mu, self.vbuf, self.wbuf
        for j in range(nb):
            w[j] = 0.0
        for i, nbrs in enumerate(self.neighbors):
            best = nbrs[0]
            top = g[best]
            for j in nbrs:
                gj = g[j]
                if gj > top:  # strictly greater: lowest index wins ties
                    top = gj
                    best = j
            xbuf[i * nb + best] = 1.0
            w[best] += lam[i]
        for j in range(nb):
            v[j] = w[j] - mu[j]


def _classify(prev_sets: frozenset | None, new_sets: frozenset, forced: bool) -> str:
    if forced:
        return "split"
    if prev_sets is None:
        return "reconfigure"
    merged = all(
        any(old <= new for new in new_sets) for old in prev_sets
    ) and len(new_sets) < len(prev_sets)
    return "slide" if merged else "reconfigure"


def _snapshot(sys: BipartiteSystem, pattern: _Pattern, g: list[float]) -> TierPartition:
    tiers = []
    for ts in pattern.tiers:
        grad = sum(g[j] for j in ts.b_idx) / len(ts.b_idx)
        tiers.append(
            Tier(
                frontends=tuple(sys.frontend_ids[i] for i in ts.f_idx),
                backends=tuple(sys.backend_ids[j] for j in ts.b_idx),
                gradient=float(grad),
            )
        )
    return TierPartition(tiers=tuple(tiers))


def integrate_fluid(
    sys: BipartiteSystem,
    n0,
    horizon: float,
    cfg: IntegratorConfig | None = None,
) -> FluidTrajectory:
    """Integrate the fluid dynamics from n0 for `horizon` time units.

    Forward Euler on the grid t_k = k·h.  In sliding mode each step uses the
    equal-gradient tier drift with a transportation witness; a tier that
    cannot realize its drift is split by evicting its most marginal backend
    (negative implied inflow first, then largest gradient gap) and re-tiering,
    and if evictions cannot resolve it — an exact tie with an unrealizable
    drift — the step falls back to strict argmax routing.  Workloads are
    clamped at zero (recorded as boundary events).  Raises IntegrationError
    if the state leaves the finite range.

    A step depends on nothing but the workload vector.  When an update
    leaves it unchanged in every bit and clamps no backend, the rows after
    that point are copies of the last computed row (times stay k·h), which
    is exactly what computing them would give.  Recorded events build their
    ``tiers`` when it is first read.
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

    k = _Kernel(sys, cfg)
    h = cfg.h
    steps = max(1, int(round(horizon / h)))
    n = [float(v) for v in n_arr]

    states = array("d")
    inflows = array("d")
    routings = array("d")
    events: list[TierEvent] = []
    boundary: list[tuple[float, str]] = []
    prev_sets: frozenset | None = None
    kinds: dict[tuple, str] = {}  # _classify memo on (prev_sets, used_sets, forced)
    sliding = cfg.mode == "sliding"
    v, w = k.vbuf, k.wbuf

    for step_no in range(steps + 1):
        t = step_no * h
        k.curves(n)
        xbuf = [0.0] * (nf * nb)
        forced = False

        if sliding:
            masks = list(k.masks_at(cfg.tie_band))
            while True:
                pattern = k.pattern_for(tuple(masks))
                bad_tier = None
                evict = -1
                for tier in pattern.tiers:
                    evict = k.tier_flows(tier)
                    if evict >= 0:
                        bad_tier = tier
                        break
                    if tier.f_idx and not k.tree_witness(tier, xbuf):
                        # an unlucky tree is not proof of infeasibility:
                        # decide exactly, then fetch a max-flow witness
                        k.tree_misses += 1
                        if not k.exact_witness(tier, xbuf):
                            bad_tier = tier
                            break
                if bad_tier is None:
                    break
                if evict < 0:
                    evict = k.most_marginal(bad_tier)
                changed = False
                if evict >= 0:
                    bit = ~(1 << evict)
                    for i in bad_tier.f_idx:
                        m = masks[i] & bit
                        if m and m != masks[i]:  # never strand a frontend
                            masks[i] = m
                            changed = True
                if not changed:
                    # exact tie with unrealizable drift: one strict-argmax step
                    xbuf = [0.0] * (nf * nb)
                    k.strict_step(xbuf)
                    k.forced_steps += 1
                    forced = True
                    break
                k.evictions += 1
                forced = True
                xbuf = [0.0] * (nf * nb)
        else:
            k.strict_step(xbuf)
            pattern = k.pattern_for(k.masks_at(cfg.tie_band))
        used_sets = pattern.sets

        if used_sets != prev_sets:
            if prev_sets is not None or forced:
                key = (prev_sets, used_sets, forced)
                kind = kinds.get(key)
                if kind is None:
                    kind = kinds[key] = _classify(*key)
                events.append(
                    TierEvent(time=t, kind=kind, tiers=(sys, pattern, k.g[:]))
                )
            prev_sets = used_sets

        states.extend(n)
        inflows.extend(w)
        routings.extend(xbuf)

        if step_no == steps:
            break
        moved = False
        for j in range(nb):
            nj = n[j] + h * v[j]
            if 0.0 <= nj <= 1e300:
                if nj != n[j]:
                    moved = True
                n[j] = nj
            elif nj < 0.0:
                n[j] = 0.0
                moved = True  # a clamp would repeat at every later step
                boundary.append((t + h, sys.backend_ids[j]))
            else:
                raise IntegrationError(
                    f"non-finite workload for backend {sys.backend_ids[j]!r} "
                    f"at t={t + h:.6g} (value {nj!r}); state {n!r}"
                )
        # `!=` cannot tell -0.0 from 0.0, so confirm on the bits
        if not moved and states[-nb:].tobytes() == array("d", n).tobytes():
            break  # bitwise fixed point: all later rows repeat this one

    rows = len(states) // nb
    return FluidTrajectory(
        times=np.arange(steps + 1) * h,
        states=_fill_rows(states, rows, steps + 1, (nb,)),
        routings=_fill_rows(routings, rows, steps + 1, (nf, nb)),
        inflows=_fill_rows(inflows, rows, steps + 1, (nb,)),
        events=tuple(events),
        boundary_events=tuple(boundary),
        stats=k.stats(),
    )


def _fill_rows(buf: array, rows: int, total: int, shape: tuple[int, ...]) -> np.ndarray:
    """The `rows` rows recorded in buf, then copies of the last one up to `total`."""
    head = np.frombuffer(buf, dtype=float).reshape((rows, *shape))
    out = np.empty((total, *shape))
    out[:rows] = head
    out[rows:] = head[-1]
    return out


def modes_agree(
    sys: BipartiteSystem, n0, horizon: float, h: float = 1e-3, tie_band: float = 1e-3
) -> float:
    """Sup-norm gap between sliding and strict-argmax trajectories."""
    a = integrate_fluid(sys, n0, horizon, IntegratorConfig(h=h, tie_band=tie_band))
    b = integrate_fluid(
        sys, n0, horizon, IntegratorConfig(h=h, tie_band=tie_band, mode="strict-argmax")
    )
    return float(np.max(np.abs(a.states - b.states)))
