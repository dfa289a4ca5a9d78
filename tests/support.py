"""Shared fixtures/helpers: canonical example systems, random generators,
and small brute-force oracles used to cross-check the library's algorithms."""

from __future__ import annotations

import hashlib
from itertools import combinations

import numpy as np

from gmsr.model import BipartiteSystem, hill, make_system, saturating_exponential


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
