"""Least-workload fluid optimization and overload equilibrium rates.

The problem: choose a routing matrix x (simplex row per frontend, supported
on edges) and workloads N so that each backend's inflow Σ_f λ_f x_{f,b}
balances its service rate μ_b(N_b), minimizing Σ_b N_b.  Substituting the
inflow w_b for N_b = μ_b⁻¹(w_b) turns it into minimizing Σ_b μ_b⁻¹(w_b)
over a transportation polytope — convex, because each μ_b⁻¹ is convex —
so per-frontend mirror descent with multiplicative simplex updates finds
the unique optimum without any projection step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gmsr.flownet import (
    FlowNetwork,
    StabilityDecomposition,
    _augmented_cut,
    augmented_network,
    max_flow,
    transportation_feasible,
)
from gmsr.model import HILL, BipartiteSystem
from gmsr.tiers import tie_components, tie_masks

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
    """The solver stopped with its KKT residual still above tolerance;
    `.residual` and `.iterations` say where it stopped."""

    def __init__(self, residual: float, iterations: int, tol: float):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"fluid optimum not converged: KKT residual {residual:.3g} > tol {tol:.3g} "
            f"after {iterations} iterations"
        )


class CapacityMarginError(RuntimeError):
    """Feasible arrivals that no routing keeps below (1 − 1e-9)·cap on
    every backend: the optimum's workloads lie outside what the solver
    resolves.  `.backends` names the backends at the margin."""

    def __init__(self, backends: tuple[str, ...]):
        self.backends = backends
        super().__init__(
            f"arrivals are within 1e-9 (relative) of the capacity of backends "
            f"{list(backends)}; the solver keeps every inflow below (1 - 1e-9)·cap, "
            "so it cannot represent this optimum"
        )


@dataclass(frozen=True)
class FluidOptimum:
    n_star: np.ndarray
    x_star: np.ndarray
    objective: float
    kkt_residual: float


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


def _interior_routing(sys: BipartiteSystem) -> np.ndarray:
    """A routing matrix whose inflows sit strictly inside every cap.

    Found by max flow against shrunk sink capacities (1−δ)·cap, then mixed
    with a sliver of the uniform routing so every edge keeps positive mass
    (multiplicative updates can never revive an exactly-zero entry).
    """
    nf, nb = len(sys.frontends), len(sys.backends)
    edge = sys.edge_matrix
    uniform = np.where(edge, 1.0, 0.0)
    uniform /= np.maximum(edge.sum(axis=1), 1)[:, None]
    lam = np.asarray(sys.lambdas)
    total = sys.total_arrival_rate
    if total <= 0:
        return uniform
    caps = np.array([fn.cap for fn in sys.services])
    for delta in (1e-2, 1e-4, 1e-6, 1e-9, 1e-12):
        nodes = ("__s__",) + sys.frontend_ids + sys.backend_ids + ("__t__",)
        arcs = (
            [("__s__", f.id, f.lam) for f in sys.frontends]
            + [(f, b, math.inf) for f, b in sys.edges]
            + [(b.id, "__t__", (1.0 - delta) * b.service.cap) for b in sys.backends]
        )
        res = max_flow(FlowNetwork(nodes, "__s__", "__t__", tuple(arcs)))
        if res.value < total - 1e-9 * (1.0 + total):
            continue
        x = np.zeros((nf, nb))
        for (u, v), fl in res.flows.items():
            if u in sys.frontend_index and v in sys.backend_index:
                x[sys.frontend_index[u], sys.backend_index[v]] = fl
        rows = x.sum(axis=1, keepdims=True)
        x = np.where(rows > 0, x / np.maximum(rows, 1e-300), uniform)
        w_flow = lam @ x
        w_unif = lam @ uniform
        excess = np.maximum(w_unif - w_flow, 0.0)
        eps = 1e-3
        tight = excess > 0
        if np.any(tight):
            eps = min(eps, 0.25 * float(np.min(delta * caps[tight] / excess[tight])))
        return (1.0 - eps) * x + eps * uniform
    return uniform


def _equal_gradient_finish(
    sys: BipartiteSystem,
    n_est: np.ndarray,
    x_est: np.ndarray,
    band: float,
    tol: float,
) -> FluidOptimum | None:
    """Try to finish a nearly-converged iterate exactly.

    Guess the optimal support (edges whose backend gradient is within
    `band` of the frontend's best, for frontends with positive rate), solve
    each support component's scalar balance equation — its backends share
    one gradient level γ, so Σ_b μ_b(N_b(γ)) = Σ_f λ_f pins γ by bisection —
    then recover a routing by transportation.  Returns the finished optimum only if its true KKT
    residual meets tol; any wrong guess fails that gate and we keep
    iterating instead.
    """
    lam = np.asarray(sys.lambdas)
    masks = tie_masks(sys.backends_of_frontend, sys.gradients_at(n_est).tolist(), band)
    # a zero-rate frontend routes nothing and joins no component
    masks = [m if lam_i > 0 else 0 for m, lam_i in zip(masks, lam)]

    n_new = np.zeros(len(sys.backends))
    x_new = x_est.copy()
    # components write disjoint entries and any failure returns None, so
    # their order does not matter
    for fr, ba in tie_components(sys, masks):
        lam_c = sum(lam[i] for i in fr)
        if lam_c <= 0:
            continue  # untouched backends keep N = 0
        curves = [sys.services[j] for j in ba]
        g0 = max(fn.gradient(0.0) for fn in curves)

        def total_rate(gamma: float) -> float:
            out = 0.0
            for fn in curves:
                if gamma < fn.gradient(0.0):
                    out += fn.value(fn.gradient_inverse(gamma))
            return out

        lo, hi = 1e-18 * g0, g0
        if total_rate(lo) <= lam_c:
            return None  # guessed support can't absorb these arrivals
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if total_rate(mid) > lam_c:
                lo = mid
            else:
                hi = mid
        gamma = 0.5 * (lo + hi)
        demand = {}
        for j, fn in zip(ba, curves):
            n_new[j] = fn.gradient_inverse(gamma) if gamma < fn.gradient(0.0) else 0.0
            demand[sys.backend_ids[j]] = fn.value(n_new[j])
        ok, witness = transportation_feasible(
            sys,
            {sys.frontend_ids[i] for i in fr},
            {sys.backend_ids[j] for j in ba},
            demand,
        )
        if not ok:
            return None
        for i in fr:
            x_new[i] = witness[i]

    residual = kkt_residual(sys, n_new, x_new)
    if residual > tol:
        return None
    return FluidOptimum(
        n_star=n_new, x_star=x_new, objective=float(n_new.sum()), kkt_residual=residual
    )


def solve_fluid_optimum(
    sys: BipartiteSystem,
    tol: float = 1e-8,
    x0: np.ndarray | None = None,
    max_iter: int = 100_000,
) -> FluidOptimum:
    """Minimize total workload subject to per-backend flow balance.

    Raises InfeasibleSystemError (with a witness subset) when some frontend
    group saturates its neighborhood, and CapacityMarginError when the
    system is feasible but no routing keeps every inflow below
    (1 − 1e-9)·cap.  Otherwise iterates multiplicative
    (exponentiated-gradient) updates on each frontend's simplex row until
    the KKT residual drops to tol.  Steps adapt to a per-frontend curvature
    bound, grow while the monotone line search keeps accepting, and any
    proposal pushing an inflow to its cap counts as infinitely costly, so
    iterates stay strictly interior (the true objective is +∞ there; a
    clamped evaluation would fake a local minimum on the boundary).  If
    neither the iterations (at most max_iter) nor the exact finish reach
    tol, raises ConvergenceError with the last residual.
    """
    witness = _infeasibility_witness(sys)
    if witness is not None:
        raise InfeasibleSystemError(witness)

    nf, nb = len(sys.frontends), len(sys.backends)
    lam = np.asarray(sys.lambdas)
    caps = np.array([fn.cap for fn in sys.services])
    edge = sys.edge_matrix

    if x0 is None:
        x = _interior_routing(sys)
    else:
        x = np.asarray(x0, dtype=float).copy()
        if x.shape != (nf, nb):
            raise ValueError(f"x0 has shape {x.shape}, expected {(nf, nb)}")
        x[~edge] = 0.0
        x /= np.maximum(x.sum(axis=1, keepdims=True), 1e-300)

    w_max = _CAP_MARGIN * caps

    def eval_state(xm: np.ndarray):
        w = lam @ xm
        if np.any(w >= w_max):
            return w, None, math.inf
        n = _invert_rates(sys, w)
        return w, n, float(n.sum())

    w, n, obj = eval_state(x)
    if n is None:
        # a caller-supplied start outside the caps: retreat to the interior
        x = _interior_routing(sys)
        w, n, obj = eval_state(x)
    if n is None:
        raise CapacityMarginError(
            tuple(b for b, wb, cap in zip(sys.backend_ids, w, w_max) if wb >= cap)
        )
    scale = 1.0
    residual = kkt_residual(sys, n, x)
    next_finish = 16
    iterations = 0
    for it in range(max_iter):
        if residual <= tol:
            break
        iterations = it + 1
        if it >= next_finish:
            # mirror descent identifies the optimal support long before its
            # sublinear tail meets tol; periodically try to finish exactly
            next_finish *= 2
            for band in (1e-9, 1e-6, 1e-3):
                finished = _equal_gradient_finish(sys, n, x, band, tol)
                if finished is not None:
                    return finished
        grads = sys.gradients_at(n)
        curv = -sys.curvatures_at(n) / grads**3  # (μ⁻¹)″, the objective's curvature
        lipschitz = np.where(
            lam > 0, lam**2 * np.max(np.where(edge, curv[None, :], 0.0), axis=1), np.inf
        )
        eta = 0.5 / lipschitz  # zero step for zero-rate frontends

        d = lam[:, None] / grads[None, :]  # ∂objective/∂x on edges
        stalled = False
        while True:
            step = scale * eta[:, None] * d
            shift = np.min(np.where(edge, step, np.inf), axis=1, keepdims=True)
            y = np.where(edge, x * np.exp(-(step - shift)), 0.0)
            y /= y.sum(axis=1, keepdims=True)
            w2, n2, obj2 = eval_state(y)
            if n2 is not None and obj2 <= obj + 1e-15 * (1.0 + abs(obj)):
                x, w, n, obj = y, w2, n2, obj2
                # the curvature bound is only a local guess; let the accepted
                # scale climb past 1 when the landscape allows bigger moves
                scale = min(scale * 1.5, 1e12)
                break
            scale *= 0.5
            if scale < 1e-18:  # no direction improves: numerically stationary
                stalled = True
                break
        if stalled:
            break
        residual = kkt_residual(sys, n, x)

    if residual > tol:
        for band in (1e-9, 1e-6, 1e-3):
            finished = _equal_gradient_finish(sys, n, x, band, tol)
            if finished is not None:
                return finished
        raise ConvergenceError(residual, iterations, tol)
    return FluidOptimum(n_star=n, x_star=x, objective=obj, kkt_residual=residual)


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
