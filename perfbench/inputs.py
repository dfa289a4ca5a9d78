"""Seeded input generators for the benchmark workloads.

Every input is a pure function of its seed, so the same seed always gives
the same systems and starts.  The battery generator consumes its random
stream in exactly the order the acceptance battery does (one system, then
its ten starts, five times over), so seed 424242 reproduces the systems and
starts of acceptance criterion 3 without importing anything from ``tests/``.
"""

from __future__ import annotations

import numpy as np

from gmsr.flownet import feasibility_check
from gmsr.model import BipartiteSystem, hill, make_system, saturating_exponential

BATTERY_SEED = 424242  # the acceptance battery's seed (criterion 3)
BATTERY_SYSTEMS = 5
BATTERY_STARTS = 10

# Pinned (frontends, backends, system seed, start seed, horizon) tasks of the
# `wide` workload.  Integration cost is heavy-tailed in both the system and
# the start (0.07 s to 13 s over six starts of one 16x16 system at H=1.5),
# so both are fixed here.  The first task spends about 70% of its time in
# Hall tables, the second about 50% in max-flow witnesses and its sliding
# certificate reports V-monotone violations, and the 32x32 system takes the
# min-cut slack path like every system above 12 frontends.
WIDE_TASKS = (
    (16, 16, 1, 104, 1.5),
    (16, 16, 1, 102, 2.0),
    (32, 32, 0, 101, 0.5),
)
DENSITY = 0.3  # chance of each extra edge, in the battery and the wide systems


def random_curve(rng: np.random.Generator):
    if rng.random() < 0.5:
        return hill(cap=float(rng.uniform(1.0, 3.0)), half=float(rng.uniform(0.5, 2.0)))
    return saturating_exponential(
        cap=float(rng.uniform(1.0, 3.0)), rate=float(rng.uniform(0.5, 2.0))
    )


def random_system(
    rng: np.random.Generator,
    nf: int,
    nb: int,
    lam_range: tuple[float, float],
) -> BipartiteSystem:
    """nf x nb system in which every node has an edge, plus extras at DENSITY."""
    fids = [f"f{i}" for i in range(1, nf + 1)]
    bids = [f"b{j}" for j in range(1, nb + 1)]
    edges: set[tuple[str, str]] = set()
    for f in fids:
        edges.add((f, bids[int(rng.integers(nb))]))
    for b in bids:
        edges.add((fids[int(rng.integers(nf))], b))
    for f in fids:
        for b in bids:
            if rng.random() < DENSITY:
                edges.add((f, b))
    return make_system(
        frontends=[(f, float(rng.uniform(*lam_range))) for f in fids],
        backends=[(b, random_curve(rng)) for b in bids],
        edges=sorted(edges),
    )


def halve_until_feasible(sys: BipartiteSystem) -> BipartiteSystem | None:
    """The system with arrival rates halved (at most 20 times) until it is strictly feasible."""
    scale = 1.0
    for _ in range(20):
        trial = make_system(
            frontends=[(f.id, f.lam * scale) for f in sys.frontends],
            backends=[(b.id, b.service) for b in sys.backends],
            edges=sys.edges,
        )
        if feasibility_check(trial):
            return trial
        scale *= 0.5
    return None


def feasible_small_system(rng: np.random.Generator) -> BipartiteSystem:
    """A random feasible system of at most 4 x 4, as the acceptance battery draws it."""
    while True:
        nf = int(rng.integers(1, 5))
        nb = int(rng.integers(1, 5))
        found = halve_until_feasible(random_system(rng, nf, nb, (0.05, 0.5)))
        if found is not None:
            return found


def battery_inputs():
    """The acceptance battery's five feasible systems and ten starts in [0,10]^B for each."""
    rng = np.random.default_rng(BATTERY_SEED)
    systems, starts = [], []
    for _ in range(BATTERY_SYSTEMS):
        sys_ = feasible_small_system(rng)
        nb = len(sys_.backends)
        systems.append(sys_)
        starts.append([rng.uniform(0.0, 10.0, size=nb) for _ in range(BATTERY_STARTS)])
    return systems, starts


def wide_system(nf: int, nb: int, seed: int) -> BipartiteSystem:
    rng = np.random.default_rng(seed)
    while True:
        found = halve_until_feasible(random_system(rng, nf, nb, (0.05, 0.5)))
        if found is not None:
            return found


def wide_inputs():
    """(label, system, start, horizon) for each pinned wide task."""
    tasks = []
    for nf, nb, sys_seed, start_seed, horizon in WIDE_TASKS:
        start = np.random.default_rng(start_seed).uniform(0.0, 10.0, size=nb)
        tasks.append((f"{nf}x{nb}-s{sys_seed}-n{start_seed}",
                      wide_system(nf, nb, sys_seed), start, horizon))
    return tasks
