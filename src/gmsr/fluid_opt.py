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
from dataclasses import dataclass

import numpy as np

from gmsr.flownet import StabilityDecomposition, _augmented_cut, transportation_feasible
from gmsr.model import BipartiteSystem

__all__ = [
    "FluidOptimum",
    "OverloadEquilibrium",
    "InfeasibleSystemError",
    "ConvergenceError",
    "solve_fluid_optimum",
    "kkt_residual",
    "equilibrium_rates",
]

SUPPORT_EPS = 1e-8  # routing entries above this count as carrying flow
_KKT_TOL = 1e-8  # the largest KKT residual an optimum is returned with


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
    """The solver stopped without a certified optimum: a min cut failed to
    split a block or a level bracket's low end underflowed to 0 (`.residual`
    is inf for both), or the assembled optimum's KKT residual exceeds 1e-8.
    `.iterations` is the number of rounds used."""

    def __init__(self, residual: float, iterations: int):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"fluid optimum not converged: KKT residual {residual:.3g} > tol {_KKT_TOL:.3g} "
            f"after {iterations} rounds"
        )


@dataclass(frozen=True)
class FluidOptimum:
    """The optimum and the work that found it.

    N* is finite for every strictly feasible system, however close its
    arrivals are to capacity.
    blocks: the finished decomposition blocks, as (frontend indices,
        backend indices); a block's backends share one gradient level, and
        those with μ_b′(0) at or below it stay at N = 0.
    rounds: blocks examined (level bisection plus transportation flow), at
        most 2|B| − 1.
    max_flows: every max flow run: the feasibility witness, then one per
        round.
    bisection_steps: total-service evaluations over all level brackets and
        bisections.
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


def _level(curves, g_zero, lam_c: float) -> tuple[float | None, int]:
    """A block's common gradient level γ and the total-service evaluations
    spent finding it.

    Backend b takes N_b(γ) = (μ_b′)⁻¹(γ), or 0 when γ ≥ μ_b′(0), so the
    block's total service Σ_b μ_b(N_b(γ)) falls as γ rises, from the sum of
    the caps as γ → 0 to 0 at max μ′(0).  The first bracket is
    [1e-18·max μ′(0), max μ′(0)]; while the total service at its low end is
    still at or below lam_c, the bracket moves down a factor 1e-18 at a
    time.  Linear bisection then stops once the bracket's midpoint rounds
    onto an end, which leaves γ as the full 200 halvings would.  γ is None
    when the low end underflows to 0 first.
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
    while total_rate(lo) <= lam_c:
        lo, hi = 1e-18 * lo, lo
        if lo == 0.0:
            return None, steps
        steps += 1
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        steps += 1
        if total_rate(mid) > lam_c:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), steps


def solve_fluid_optimum(sys: BipartiteSystem) -> FluidOptimum:
    """Minimize total workload subject to per-backend flow balance.

    Raises InfeasibleSystemError (with a witness subset) when some frontend
    group saturates its neighborhood.  Otherwise runs the decomposition
    algorithm (module docstring): each round takes one block, finds its
    gradient level (a lone backend's inflow is the block's arrival rate)
    and runs a transportation max flow, which either routes the block or
    splits it by its min cut into two blocks with fewer backends each, so
    at most 2|B| − 1 rounds run.  Any strictly feasible system gets its
    optimum, however close its arrivals are to capacity.  It raises
    ConvergenceError when a min cut does not split its block, when a level
    bracket's low end underflows to 0, or when the assembled optimum's KKT
    residual exceeds 1e-8.

    A frontend with zero arrival rate routes nothing and joins no block; its
    routing row is uniform over its neighbours.
    """
    nf, nb = len(sys.frontends), len(sys.backends)
    witness = _augmented_cut(sys)[0]
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
    blocks = []
    todo = [(tuple(i for i in range(nf) if lam[i] > 0), tuple(range(nb)))]
    while todo:
        fr, ba = todo.pop()
        lam_c = sum(lam[i] for i in fr)
        if lam_c <= 0:
            continue  # backends no arrivals reach keep N = 0
        rounds += 1
        if len(ba) == 1:  # the balance pins a lone backend's inflow
            level = [services[ba[0]].inverse(lam_c)]
        else:
            gamma, used = _level([services[j] for j in ba], [g_zero[j] for j in ba], lam_c)
            steps += used
            if gamma is None:
                raise ConvergenceError(math.inf, rounds)
            level = [services[j].gradient_inverse(gamma) if gamma < g_zero[j] else 0.0
                     for j in ba]
        demand = {bids[j]: services[j].value(nj) for j, nj in zip(ba, level)}
        ok, flow, low = transportation_feasible(
            sys, {fids[i] for i in fr}, {bids[j] for j in ba}, demand)
        if ok:
            n[list(ba)] = level
            x[list(fr)] = flow[list(fr)]
            blocks.append((fr, ba))
            continue
        # the frontends whose block neighbours all lie on the min cut's source
        # side overload them at this level: they form the lower-gradient block
        low = set(low)
        if not low or len(low) == len(ba):
            raise ConvergenceError(math.inf, rounds)  # the cut does not split
        inside = set(ba)
        lower = {i for i in fr
                 if all(j in low for j in sys.backends_of_frontend[i] if j in inside)}
        todo.append((tuple(i for i in fr if i not in lower),
                     tuple(j for j in ba if j not in low)))
        todo.append((tuple(sorted(lower)), tuple(sorted(low))))

    residual = kkt_residual(sys, n, x)
    if residual > _KKT_TOL:
        raise ConvergenceError(residual, rounds)
    return FluidOptimum(
        n_star=n, x_star=x, objective=float(n.sum()), kkt_residual=residual,
        blocks=tuple(blocks), rounds=rounds, max_flows=1 + rounds, bisection_steps=steps,
    )


def equilibrium_rates(sys: BipartiteSystem) -> OverloadEquilibrium:
    """Long-run per-backend service rates under greatest-marginal-rate
    routing, feasible or not.

    The stable part gets the least-workload optimum of the restricted
    system; every unstable backend is driven to its cap.  Total equals the
    peak achievable throughput.
    """
    witness, dec, throughput = _augmented_cut(sys)
    nb = len(sys.backends)
    rates = np.array([fn.cap for fn in sys.services], dtype=float)
    workloads = np.full(nb, np.inf)
    if dec.backends:
        sub = BipartiteSystem(
            frontends=tuple(f for f in sys.frontends if f.id in dec.frontends),
            backends=tuple(b for b in sys.backends if b.id in dec.backends),
            edges=tuple(
                (f, b) for f, b in sys.edges if f in dec.frontends and b in dec.backends
            ),
        )
        opt = solve_fluid_optimum(sub)
        sub_rates = sub.rates_at(opt.n_star)
        for k, b in enumerate(sub.backend_ids):
            j = sys.backend_index[b]
            rates[j] = sub_rates[k]
            workloads[j] = opt.n_star[k]
    return OverloadEquilibrium(rates=rates, workloads=workloads, decomposition=dec,
                               feasible=witness is None, throughput=throughput)
