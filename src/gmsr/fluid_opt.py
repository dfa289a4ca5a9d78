"""Least-workload fluid optimization and overload equilibrium rates.

The problem: choose a routing matrix x (simplex row per frontend, supported
on edges) and workloads N so that each backend's inflow Σ_f λ_f x_{f,b}
balances its service rate μ_b(N_b), minimizing Σ_b N_b.  Substituting the
inflow w_b for N_b = μ_b⁻¹(w_b) turns it into minimizing Σ_b μ_b⁻¹(w_b)
over the realizable inflow vectors.  Those form the base polytope of the
coverage function B′ ↦ λ(frontends with a neighbour in B′), and each μ_b⁻¹
is convex, so this is separable convex minimization over a polymatroid
base.  The decomposition algorithm (Fujishige 1980, Math. Oper. Res. 5;
Groenevelt 1991, EJOR 54) solves it exactly with at most |B| splits.

A block (F′, B′) starts as all positive-rate frontends and all backends.
Its backends share one gradient level γ: N_b(γ) = (μ_b′)⁻¹(γ), or 0 when
γ ≥ μ_b′(0), and bisection picks γ so that Σ_b μ_b(N_b(γ)) = λ(F′).  One
transportation max flow with demands μ_b(N_b(γ)) then either saturates,
and its flow is the block's routing, or leaves a residual source side P
with λ(P) > Σ_{N(P)} μ_b(N_b(γ)).  P then needs more service than γ
allows: (P, N(P) ∩ B′) becomes a lower-gradient block and
(F′ ∖ P, B′ ∖ N(P)) a higher-gradient one.  The finished blocks are the
tiers of the optimum, up to ties between disconnected parts.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from gmsr.flownet import (
    StabilityDecomposition,
    TransportNetwork,
    _augmented_cut,
    augmented_network,
    max_flow,
    transportation_feasible,
)
from gmsr.model import HILL, BipartiteSystem

__all__ = [
    "FluidOptimum",
    "OverloadEquilibrium",
    "InfeasibleSystemError",
    "ConvergenceError",
    "CapacityMarginError",
    "solve_fluid_optimum",
    "kkt_residual",
    "brute_force_optimum",
    "equilibrium_rates",
]

SUPPORT_EPS = 1e-8  # routing entries above this count as carrying flow
_CAP_MARGIN = 1.0 - 1e-9  # keep inflows strictly inside the caps


class InfeasibleSystemError(ValueError):
    """Arrivals of some frontend subset meet or exceed their neighborhood's
    total capacity; `.subset` holds the violating frontend ids."""

    def __init__(self, subset: frozenset[str]):
        self.subset = subset
        super().__init__(
            f"no finite-workload equilibrium: frontends {sorted(subset)} saturate "
            "their reachable backends"
        )


class ConvergenceError(RuntimeError):
    """The solver stopped without a certified optimum: its decomposition
    rounds ran out (`.residual` is inf), a min cut failed to split a block
    (inf as well), or the assembled optimum's KKT residual exceeds tol.
    `.iterations` is the number of rounds used."""

    def __init__(self, residual: float, iterations: int, tol: float):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"fluid optimum not converged: KKT residual {residual:.3g} > tol {tol:.3g} "
            f"after {iterations} rounds"
        )


class CapacityMarginError(RuntimeError):
    """Feasible arrivals whose optimum puts some inflows at or past
    (1 − 1e-9)·cap, outside what the solver resolves.  `.backends` names
    them: the backends of a finished block that reach the margin, or every
    backend of a block whose gradient level lies below the bisection
    bracket."""

    def __init__(self, backends: tuple[str, ...]):
        self.backends = backends
        super().__init__(
            f"arrivals are within 1e-9 (relative) of the capacity of backends "
            f"{list(backends)}; the solver keeps every inflow below (1 - 1e-9)·cap, "
            "so it cannot represent this optimum"
        )


@dataclass(frozen=True)
class FluidOptimum:
    """The optimum and the work that found it.

    blocks: the finished decomposition blocks, as (frontend indices,
        backend indices); a block's backends share one gradient level, and
        those with μ_b′(0) at or below it stay at N = 0.
    rounds: blocks examined (level bisection plus transportation flow).
    max_flows: every max flow run, the feasibility witness included.
    bisection_steps: total-service evaluations over all level bisections.
    The counts are 0 and blocks empty for optima found another way.
    """

    n_star: np.ndarray
    x_star: np.ndarray
    objective: float
    kkt_residual: float
    blocks: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = ()
    rounds: int = 0
    max_flows: int = 0
    bisection_steps: int = 0


@dataclass(frozen=True)
class OverloadEquilibrium:
    """Long-run service rates: finite-workload balance on the stable part,
    full caps (infinite workload) on the unstable part.  ``decomposition``,
    ``feasible`` and ``throughput`` are what ``stability_decomposition``,
    ``feasibility_check`` and ``opt_tp`` return, read off the same max
    flow."""

    rates: np.ndarray
    workloads: np.ndarray  # np.inf marks backends that grow without bound
    decomposition: StabilityDecomposition
    feasible: bool
    throughput: float


def _infeasibility_witness(sys: BipartiteSystem) -> frozenset[str] | None:
    """None when strictly feasible; otherwise a frontend subset P with
    arrivals >= capacity of its whole neighborhood (a min-cut witness)."""
    res = max_flow(augmented_network(sys))
    total = sys.total_arrival_rate
    if res.value < total - 1e-9 * (1.0 + total):
        return frozenset(f for f in sys.frontend_ids if f in res.source_side)
    starved = frozenset(f for f in sys.frontend_ids if f not in res.sink_side)
    return starved or None


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


def kkt_residual(sys: BipartiteSystem, n: np.ndarray, x: np.ndarray) -> float:
    """Distance from first-order optimality at (N, x).

    Sum of three terms: the largest within-frontend spread of gradients over
    supported backends (entries above SUPPORT_EPS), the largest positive
    excess of an unsupported connected backend's gradient over the
    frontend's supported level, and the largest per-backend flow-balance
    violation |inflow − μ(N)|.  Zero exactly at the optimum.  Frontends
    with zero arrival rate route no flow and impose no condition, so they
    are skipped.
    """
    n = np.asarray(n, dtype=float)
    x = np.asarray(x, dtype=float)
    nf, nb = len(sys.frontends), len(sys.backends)
    if n.shape != (nb,) or x.shape != (nf, nb):
        raise ValueError(
            f"shapes ({n.shape}, {x.shape}) do not match system ({nb} backends, {nf} frontends)"
        )
    lam = np.asarray(sys.lambdas)
    grads = sys.gradients_at(n)
    inflow = lam @ x
    balance = float(np.max(np.abs(inflow - sys.rates_at(n)))) if nb else 0.0

    worst_gap = 0.0
    worst_excess = 0.0
    for i in range(nf):
        if lam[i] <= 0:
            continue
        nbrs = sys.backends_of_frontend[i]
        supported = [j for j in nbrs if x[i, j] > SUPPORT_EPS]
        if not supported:
            continue
        sup = grads[supported]
        worst_gap = max(worst_gap, float(sup.max() - sup.min()))
        unsupported = [j for j in nbrs if x[i, j] <= SUPPORT_EPS]
        if unsupported:
            excess = float(grads[unsupported].max() - sup.max())
            worst_excess = max(worst_excess, max(0.0, excess))
    return worst_gap + worst_excess + balance


def _level(curves, g_zero, lam_c: float) -> tuple[float, bool, int]:
    """A block's common gradient level γ, whether the bracket holds it, and
    the bisection steps spent.

    Backend b takes N_b(γ) = (μ_b′)⁻¹(γ), or 0 when γ ≥ μ_b′(0), so the
    block's total service Σ_b μ_b(N_b(γ)) falls as γ rises; bisection on
    [1e-18·max μ′(0), max μ′(0)] finds where it meets lam_c.  It stops once
    the bracket's midpoint rounds onto an end, which leaves γ as the full
    200 halvings would.  When the total service at the low end is still at
    or below lam_c, the low end is returned, unbracketed.
    """
    def total_rate(gamma: float) -> float:
        out = 0.0
        for fn, g0 in zip(curves, g_zero):
            if gamma < g0:
                out += fn.value(fn.gradient_inverse(gamma))
        return out

    g_max = max(g_zero)
    lo, hi = 1e-18 * g_max, g_max
    steps = 1
    if total_rate(lo) <= lam_c:
        return lo, False, steps
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        steps += 1
        if total_rate(mid) > lam_c:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), True, steps


def solve_fluid_optimum(
    sys: BipartiteSystem,
    tol: float = 1e-8,
    x0: np.ndarray | None = None,
    max_iter: int = 100_000,
) -> FluidOptimum:
    """Minimize total workload subject to per-backend flow balance.

    Raises InfeasibleSystemError (with a witness subset) when some frontend
    group saturates its neighborhood.  Otherwise runs the decomposition
    algorithm (module docstring): each round takes one block, finds its
    gradient level (a lone backend's inflow is the block's arrival rate)
    and runs a transportation max flow, which either routes the block or,
    with a second flow for the min cut, splits it.  After max_iter rounds,
    or if the assembled optimum's KKT residual exceeds tol, it raises
    ConvergenceError.  A finished block whose inflows reach
    (1 − 1e-9)·cap, or whose level lies below the bisection bracket, raises
    CapacityMarginError naming its backends.

    A frontend with zero arrival rate routes nothing and joins no block; its
    routing row is uniform over its neighbours.  ``x0`` is not used (the
    algorithm needs no starting routing); it is still shape-checked and
    draws a DeprecationWarning.
    """
    nf, nb = len(sys.frontends), len(sys.backends)
    if x0 is not None:
        if np.shape(x0) != (nf, nb):
            raise ValueError(f"x0 has shape {np.shape(x0)}, expected {(nf, nb)}")
        warnings.warn("solve_fluid_optimum ignores x0: the decomposition algorithm "
                      "needs no starting routing", DeprecationWarning, stacklevel=2)
    witness = _infeasibility_witness(sys)
    if witness is not None:
        raise InfeasibleSystemError(witness)

    lam = sys.lambdas
    fids, bids = sys.frontend_ids, sys.backend_ids
    services = sys.services
    g_zero = [fn.gradient(0.0) for fn in services]
    edge = sys.edge_matrix
    x = np.where(edge, 1.0, 0.0)
    x /= np.maximum(edge.sum(axis=1), 1)[:, None]
    n = np.zeros(nb)
    rounds = steps = 0
    flows = 1  # the feasibility witness
    blocks = []
    todo = [(tuple(i for i in range(nf) if lam[i] > 0), tuple(range(nb)))]
    while todo:
        fr, ba = todo.pop()
        lam_c = sum(lam[i] for i in fr)
        if lam_c <= 0:
            continue  # backends no arrivals reach keep N = 0
        if rounds == max_iter:
            raise ConvergenceError(math.inf, rounds, tol)
        rounds += 1
        if len(ba) == 1:  # the balance pins a lone backend's inflow
            level, bracketed = [services[ba[0]].inverse(lam_c)], True
        else:
            gamma, bracketed, used = _level(
                [services[j] for j in ba], [g_zero[j] for j in ba], lam_c)
            steps += used
            level = [services[j].gradient_inverse(gamma) if gamma < g_zero[j] else 0.0
                     for j in ba]
        demand = {bids[j]: services[j].value(nj) for j, nj in zip(ba, level)}
        f_set, b_set = {fids[i] for i in fr}, {bids[j] for j in ba}
        if bracketed:
            ok, flow = transportation_feasible(sys, f_set, b_set, demand)
            flows += 1
            if ok:
                at_margin = tuple(bids[j] for j in ba
                                  if demand[bids[j]] >= _CAP_MARGIN * services[j].cap)
                if at_margin:
                    raise CapacityMarginError(at_margin)
                n[list(ba)] = level
                x[list(fr)] = flow[list(fr)]
                blocks.append((fr, ba))
                continue
        # the frontends whose block neighbours all lie on the min cut's source
        # side overload them at this level: they form the lower-gradient block
        net = TransportNetwork(sys, f_set, b_set)
        low = set(net.short_side([demand[bids[j]] for j in net.b_idx]))
        flows += 1
        if not low or len(low) == len(ba):
            if not bracketed:  # the whole block needs a level below the bracket
                raise CapacityMarginError(tuple(bids[j] for j in ba))
            raise ConvergenceError(math.inf, rounds, tol)  # the cut does not split
        inside = set(ba)
        lower = {i for i in fr
                 if all(j in low for j in sys.backends_of_frontend[i] if j in inside)}
        todo.append((tuple(i for i in fr if i not in lower),
                     tuple(j for j in ba if j not in low)))
        todo.append((tuple(sorted(lower)), tuple(sorted(low))))

    residual = kkt_residual(sys, n, x)
    if residual > tol:
        raise ConvergenceError(residual, rounds, tol)
    return FluidOptimum(
        n_star=n, x_star=x, objective=float(n.sum()), kkt_residual=residual,
        blocks=tuple(blocks), rounds=rounds, max_flows=flows, bisection_steps=steps,
    )


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
        return np.stack([pp[keep], qq[keep], 1.0 - pp[keep] - qq[keep]], axis=1)

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
        witness = _infeasibility_witness(sys)
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


def equilibrium_rates(sys: BipartiteSystem, tol: float = 1e-8) -> OverloadEquilibrium:
    """Long-run per-backend service rates under greatest-marginal-rate
    routing, feasible or not.

    The stable part gets the least-workload optimum of the restricted
    system; every unstable backend is driven to its cap.  Total equals the
    peak achievable throughput.
    """
    feasible, dec, throughput = _augmented_cut(sys)
    nb = len(sys.backends)
    rates = np.array([fn.cap for fn in sys.services])
    workloads = np.full(nb, np.inf)
    if dec.backends:
        sub = BipartiteSystem(
            frontends=tuple(f for f in sys.frontends if f.id in dec.frontends),
            backends=tuple(b for b in sys.backends if b.id in dec.backends),
            edges=tuple(
                (f, b) for f, b in sys.edges if f in dec.frontends and b in dec.backends
            ),
        )
        opt = solve_fluid_optimum(sub, tol=tol)
        sub_rates = sub.rates_at(opt.n_star)
        for k, b in enumerate(sub.backend_ids):
            j = sys.backend_index[b]
            rates[j] = sub_rates[k]
            workloads[j] = opt.n_star[k]
    return OverloadEquilibrium(rates=rates, workloads=workloads, decomposition=dec,
                               feasible=feasible, throughput=throughput)
