"""Shared fixtures/helpers: canonical example systems, random generators,
and small brute-force oracles used to cross-check the library's algorithms."""

from __future__ import annotations

import hashlib
import math
from itertools import combinations

import numpy as np

from gmsr.flownet import _augmented_cut
from gmsr.fluid_opt import FluidOptimum, InfeasibleSystemError, kkt_residual
from gmsr.model import HILL, BipartiteSystem, hill, make_system, saturating_exponential


def n_model() -> BipartiteSystem:
    """Two frontends (rate 1 each); b1=hill(1,1), b2=hill(1,2);
    f1-b1, f2-b1, f2-b2."""
    return make_system(
        frontends=[("f1", 1.0), ("f2", 1.0)],
        backends=[("b1", hill(1.0, 1.0)), ("b2", hill(1.0, 2.0))],
        edges=[("f1", "b1"), ("f2", "b1"), ("f2", "b2")],
    )


def fig1_system() -> BipartiteSystem:
    """Four frontends, five backends, ten edges; hill caps chosen so that the
    all-ones workload realizes the gradient profile (3, 2, 1, 2, 3)."""
    caps = {"b1": 12.0, "b2": 8.0, "b3": 4.0, "b4": 8.0, "b5": 12.0}
    return make_system(
        frontends=[("f1", 1.0), ("f2", 1.0), ("f3", 1.0), ("f4", 1.0)],
        backends=[(b, hill(c, 1.0)) for b, c in caps.items()],
        edges=[
            ("f1", "b1"), ("f1", "b2"), ("f1", "b3"),
            ("f2", "b2"), ("f2", "b3"),
            ("f3", "b3"), ("f3", "b4"),
            ("f4", "b4"), ("f4", "b5"), ("f4", "b1"),
        ],
    )


FIG1_GRADS = np.array([3.0, 2.0, 1.0, 2.0, 3.0])


def random_curve(rng: np.random.Generator):
    if rng.random() < 0.5:
        return hill(cap=float(rng.uniform(1.0, 3.0)), half=float(rng.uniform(0.5, 2.0)))
    return saturating_exponential(
        cap=float(rng.uniform(1.0, 3.0)), rate=float(rng.uniform(0.5, 2.0))
    )


def random_system(
    rng: np.random.Generator,
    max_frontends: int = 5,
    max_backends: int = 6,
    lam_range: tuple[float, float] = (0.1, 1.0),
) -> BipartiteSystem:
    """A random connected-enough system: every node gets at least one edge."""
    nf = int(rng.integers(1, max_frontends + 1))
    nb = int(rng.integers(1, max_backends + 1))
    return sized_random_system(rng, nf, nb, lam_range)


def sized_random_system(
    rng: np.random.Generator, nf: int, nb: int, lam_range: tuple[float, float]
) -> BipartiteSystem:
    """An nf x nb system: one edge per frontend and per backend at random,
    plus each pair at chance 0.3."""
    fids = [f"f{i}" for i in range(1, nf + 1)]
    bids = [f"b{j}" for j in range(1, nb + 1)]
    edges: set[tuple[str, str]] = set()
    for f in fids:  # every frontend gets one edge
        edges.add((f, bids[int(rng.integers(nb))]))
    for b in bids:  # every backend gets one edge
        edges.add((fids[int(rng.integers(nf))], b))
    for f in fids:  # sprinkle extras
        for b in bids:
            if rng.random() < 0.3:
                edges.add((f, b))
    return make_system(
        frontends=[(f, float(rng.uniform(*lam_range))) for f in fids],
        backends=[(b, random_curve(rng)) for b in bids],
        edges=sorted(edges),
    )


def feasible_random_system(
    rng: np.random.Generator,
    max_frontends: int = 4,
    max_backends: int = 4,
    lam_range: tuple[float, float] = (0.05, 0.5),
) -> BipartiteSystem:
    """Random system scaled (by halving arrival rates) until strictly feasible."""
    while True:
        found = _halved_until_feasible(random_system(rng, max_frontends, max_backends,
                                                     lam_range))
        if found is not None:
            return found


def acceptance_system(index: int) -> tuple[BipartiteSystem, np.ndarray]:
    """System `index` of the acceptance battery (seed 424242) and its first
    start."""
    rng = np.random.default_rng(424242)
    for _ in range(index + 1):
        sys = feasible_random_system(rng)
        starts = [rng.uniform(0.0, 10.0, size=len(sys.backends)) for _ in range(10)]
    return sys, starts[0]


def scenario_doc(sys: BipartiteSystem, n0, horizon: float, mode: str = "sliding") -> dict:
    """A scenario document (the JSON that ``gmsr`` commands read) for sys
    started at n0, with the default step and tie band.  JSON writes floats
    by repr, so the scenario loads back bit for bit."""
    def service(fn):
        if fn.kind == "hill":
            return {"kind": "hill", "cap": fn.cap, "half": fn.half}
        return {"kind": "saturating-exponential", "cap": fn.cap, "rate": fn.rate}

    return {
        "frontends": [{"id": f.id, "lambda": f.lam} for f in sys.frontends],
        "backends": [{"id": b.id, "service": service(b.service)} for b in sys.backends],
        "edges": [list(e) for e in sys.edges],
        "initial": {b: float(v) for b, v in zip(sys.backend_ids, n0)},
        "horizon": horizon,
        "integrator": {"mode": mode},
    }


def _halved_until_feasible(sys: BipartiteSystem) -> BipartiteSystem | None:
    """sys with its arrival rates halved, at most 19 times, until strictly feasible."""
    from gmsr.flownet import feasibility_check

    scale = 1.0
    for _ in range(20):
        trial = scaled_system(sys, scale)
        if feasibility_check(trial):
            return trial
        scale *= 0.5
    return None


# The pinned (frontends, backends, system seed, start seed, horizon) tasks of
# the benchmark's `wide` workload, rebuilt here from the same random streams.
WIDE_TASKS = (
    (16, 16, 1, 104, 1.5),
    (16, 16, 1, 102, 2.0),
    (32, 32, 0, 101, 0.5),
)


def wide_task(nf: int, nb: int, sys_seed: int, start_seed: int, horizon: float):
    """(system, start, horizon) of one wide task: the first nf x nb system
    from seed sys_seed (rates in [0.05, 0.5]) that halving makes strictly
    feasible, and a start drawn uniformly in [0, 10]^nb from start_seed."""
    rng = np.random.default_rng(sys_seed)
    while True:
        sys = _halved_until_feasible(sized_random_system(rng, nf, nb, (0.05, 0.5)))
        if sys is not None:
            break
    start = np.random.default_rng(start_seed).uniform(0.0, 10.0, size=nb)
    return sys, start, horizon


def square_feasible_system(rng: np.random.Generator, n: int) -> BipartiteSystem:
    """n x n system: edges f_i-b_i plus each other pair at chance 0.3, arrival
    rates halved until strictly feasible."""
    from gmsr.flownet import feasibility_check

    fids = [f"f{i}" for i in range(1, n + 1)]
    bids = [f"b{j}" for j in range(1, n + 1)]
    edges = {(fids[i], bids[i]) for i in range(n)}
    edges |= {(fids[i], bids[j]) for i in range(n) for j in range(n) if rng.random() < 0.3}
    sys = make_system(
        frontends=[(f, float(rng.uniform(0.05, 0.5))) for f in fids],
        backends=[(b, random_curve(rng)) for b in bids],
        edges=sorted(edges),
    )
    while not feasibility_check(sys):
        sys = scaled_system(sys, 0.5)
    return sys


def scaled_system(sys: BipartiteSystem, factor: float) -> BipartiteSystem:
    """The same system with every arrival rate multiplied by `factor`."""
    return make_system(
        frontends=[(f.id, f.lam * factor) for f in sys.frontends],
        backends=[(b.id, b.service) for b in sys.backends],
        edges=sys.edges,
    )


def greedy_routing(sys: BipartiteSystem, n: np.ndarray) -> np.ndarray:
    """Routing that splits each frontend uniformly over its exact-argmax
    (highest-gradient) connected backends at workload n."""
    grads = sys.gradients_at(np.asarray(n, float))
    x = np.zeros((len(sys.frontends), len(sys.backends)))
    for i in range(len(sys.frontends)):
        nbrs = sys.backends_of_frontend[i]
        top = max(grads[j] for j in nbrs)
        best = [j for j in nbrs if grads[j] == top]
        for j in best:
            x[i, j] = 1.0 / len(best)
    return x


def neighborhood_capacity(sys: BipartiteSystem, frontends: set[int], rates: np.ndarray) -> float:
    """Sum of `rates` over backends adjacent to any frontend in the set."""
    touched: set[int] = set()
    for i in frontends:
        touched.update(sys.backends_of_frontend[i])
    return float(sum(rates[j] for j in touched))


def frontend_subsets(sys: BipartiteSystem):
    """All nonempty frontend index subsets (exponential; keep systems small)."""
    idx = range(len(sys.frontends))
    for r in range(1, len(sys.frontends) + 1):
        yield from (set(c) for c in combinations(idx, r))


def dynamics_digest(traj) -> str:
    """SHA-256 over what a run's dynamics fix: the bytes of times, states
    and inflows, then repr of events and boundary events.  Routing rows and
    stats are left out: a tier's rows are one of its valid witnesses, and
    the counts say which solver found it."""
    digest = hashlib.sha256()
    for name in ("times", "states", "inflows"):
        digest.update(np.ascontiguousarray(getattr(traj, name)).tobytes())
    for part in (traj.events, traj.boundary_events):
        digest.update(repr(part).encode())
    return digest.hexdigest()


def trajectory_digest(traj) -> str:
    """SHA-256 over everything integrate_fluid returns: the bytes of times,
    states, inflows and routings, then repr of events (which builds every
    tier partition, gradients included), boundary events and stats."""
    digest = hashlib.sha256()
    for name in ("times", "states", "inflows", "routings"):
        digest.update(np.ascontiguousarray(getattr(traj, name)).tobytes())
    for part in (traj.events, traj.boundary_events, traj.stats):
        digest.update(repr(part).encode())
    return digest.hexdigest()


# -- the grid oracle for the fluid optimum ----------------------------------------

_CAP_MARGIN = 1.0 - 1e-9  # the grid oracle keeps its inflows strictly inside the caps


def _invert_rates(sys: BipartiteSystem, w: np.ndarray) -> np.ndarray:
    """Vectorized μ_b⁻¹ over a (…, n_backends) inflow array (w < cap)."""
    out = np.empty_like(w)
    for j, fn in enumerate(sys.services):
        col = w[..., j]
        if fn.kind == HILL:
            out[..., j] = fn.half * col / (fn.cap - col)
        else:
            out[..., j] = -np.log1p(-col / fn.cap) / fn.rate
    return out


def brute_force_optimum(sys: BipartiteSystem, grid_step: float) -> FluidOptimum:
    """Exhaustive grid search over the free routing coordinates.

    Only meant as an oracle: the free dimension (Σ_f (|B(f)|−1)) must be at
    most 2.  Grid rows violating a cap are discarded; the best surviving
    candidate is returned with its exact KKT residual.
    """
    if not 0 < grid_step <= 1:
        raise ValueError("grid_step must lie in (0, 1]")
    nf, nb = len(sys.frontends), len(sys.backends)
    lam = np.asarray(sys.lambdas)
    caps = np.array([fn.cap for fn in sys.services])

    free = [(i, sys.backends_of_frontend[i]) for i in range(nf) if len(sys.backends_of_frontend[i]) > 1]
    dims = sum(len(nbrs) - 1 for _, nbrs in free)
    if dims > 2:
        raise ValueError(f"{dims} free coordinates exceed the oracle's limit of 2")

    base = np.zeros(nb)
    for i in range(nf):
        nbrs = sys.backends_of_frontend[i]
        if len(nbrs) == 1:
            base[nbrs[0]] += lam[i]

    ticks = np.arange(0.0, 1.0 + grid_step / 2, grid_step)
    ticks = np.minimum(ticks, 1.0)

    def rows_for(nbrs) -> np.ndarray:
        if len(nbrs) == 2:
            return np.stack([ticks, 1.0 - ticks], axis=1)
        pp, qq = np.meshgrid(ticks, ticks, indexing="ij")
        keep = pp + qq <= 1.0 + 1e-12
        # clamping q to 1 − p keeps the third coordinate nonnegative in floats
        pp, qq = pp[keep], np.minimum(qq[keep], 1.0 - pp[keep])
        return np.stack([pp, qq, 1.0 - pp - qq], axis=1)

    best_obj = math.inf
    best_rows: list[np.ndarray] = []

    def scan(outer_rows: list[np.ndarray]):
        nonlocal best_obj, best_rows
        w = base.copy()
        for (i, nbrs), row in zip(free[:-1], outer_rows):
            for k, j in enumerate(nbrs):
                w[j] += lam[i] * row[k]
        i, nbrs = free[-1]
        rows = rows_for(nbrs)
        w_block = np.repeat(w[None, :], len(rows), axis=0)
        for k, j in enumerate(nbrs):
            w_block[:, j] += lam[i] * rows[:, k]
        ok = np.all(w_block <= caps[None, :] * _CAP_MARGIN, axis=1)
        if not np.any(ok):
            return
        n_block = _invert_rates(sys, w_block[ok])
        objs = n_block.sum(axis=1)
        k = int(np.argmin(objs))
        if objs[k] < best_obj:
            best_obj = float(objs[k])
            best_rows = outer_rows + [rows[ok][k]]

    if not free:
        scan_rows: list[np.ndarray] = []
        w = base
        if np.all(w <= caps * _CAP_MARGIN):
            best_obj = float(_invert_rates(sys, w[None, :]).sum())
            best_rows = scan_rows
    elif len(free) == 1:
        scan([])
    else:
        for outer in rows_for(free[0][1]):
            scan([outer])

    if math.isinf(best_obj):
        witness = _augmented_cut(sys)[0]
        raise InfeasibleSystemError(witness or frozenset(sys.frontend_ids))

    x = np.zeros((nf, nb))
    for i in range(nf):
        nbrs = sys.backends_of_frontend[i]
        if len(nbrs) == 1:
            x[i, nbrs[0]] = 1.0
    for (i, nbrs), row in zip(free, best_rows):
        for k, j in enumerate(nbrs):
            x[i, j] = row[k]
    w = np.minimum(lam @ x, caps * _CAP_MARGIN)
    n = _invert_rates(sys, w)
    return FluidOptimum(
        n_star=n,
        x_star=x,
        objective=float(n.sum()),
        kkt_residual=kkt_residual(sys, n, x),
    )
