"""Discrete stochastic simulator for greatest-gradient routing.

Simulates the scaled discrete-time chain behind the fluid model: integer job
counts N_b, steps of physical duration 1/c, per-step Poisson arrivals at each
frontend, per-job routing (greatest-gradient with uniform tie-break, or a
uniform-random baseline), and integer departures with mean μ_b(N_b/c).  The
normalized trajectory Y = N/c on the grid t_i = i/c approaches the fluid
trajectory as the scale c grows; `compare_to_fluid` measures that gap.

Randomness is counter-based and per-node: each frontend and each backend of a
run owns an independent Philox (4x64) stream keyed by
``seed·2⁶⁴ + node ordinal`` (frontends first, then backends, in system
order).  A run is therefore bit-reproducible from ``(config, seed)`` within
this implementation, and nodes can be resampled independently.  Bit-level
equality across other RNG implementations is not promised — only the
statistical claims travel.

Two unavoidable integer-vs-mean compromises, both explicit:

* a departure draw with mean m > 1 uses floor(m) + Bernoulli(m − floor(m)),
  since a single Bernoulli cannot have mean above 1;
* departures are clamped to the available jobs (D_b ≤ N_b).  Each clamp is
  counted on the run rather than hidden; clamps need a near-empty backend
  whose service mean exceeds the job count, which vanishes under scaling
  (and is impossible once c exceeds the curve's initial slope).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from gmsr.model import BipartiteSystem
from gmsr.tiers import tie_masks

__all__ = [
    "DiscreteState",
    "SampledRun",
    "DriftEstimate",
    "FluidComparison",
    "rng_streams",
    "step",
    "simulate",
    "mean_drift_check",
    "compare_to_fluid",
]

_POLICIES = ("gmsr", "random")
_TIE_TOL = 1e-12  # gradients this close to the per-frontend max count as tied
_MAX_STEPS = 10**8


@dataclass(frozen=True)
class DiscreteState:
    """Integer job counts at one step of a scaled run."""

    counts: tuple[int, ...]
    step: int
    c: int

    def __post_init__(self):
        if not (isinstance(self.c, int) and self.c >= 1):
            raise ValueError(f"scale c must be a positive integer, got {self.c!r}")
        if not (isinstance(self.step, int) and self.step >= 0):
            raise ValueError(f"step index must be a nonnegative integer, got {self.step!r}")
        if any(not isinstance(n, int) or n < 0 for n in self.counts):
            raise ValueError("job counts must be nonnegative integers")

    @property
    def y(self) -> np.ndarray:
        """Normalized workload Y = N/c."""
        return np.array(self.counts, dtype=float) / self.c

    @property
    def time(self) -> float:
        """Physical time i/c of this step."""
        return self.step / self.c


@dataclass(frozen=True)
class SampledRun:
    """One recorded stochastic run.

    times/y hold the recorded grid i/c and normalized states.  arrivals,
    departures (per backend) and frontend_arrivals (per frontend) hold the
    raw job counts accumulated since the previous record, so the exact
    conservation law Y[k+1] − Y[k] = (arrivals[k+1] − departures[k+1])/c
    survives any thinning.  clamps counts departure truncations per backend
    over the whole run.
    """

    times: np.ndarray
    y: np.ndarray
    arrivals: np.ndarray
    departures: np.ndarray
    frontend_arrivals: np.ndarray
    clamps: np.ndarray
    c: int
    seed: int
    policy: str

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class DriftEstimate:
    """Monte-Carlo estimate of the one-step mean drift at a frozen state.

    mean/stderr are per-backend statistics of c·ΔY = ΔN over independent
    single steps; expected is the analytic drift inflow_b − μ_b(N_b) under
    the policy's routing proportions; z holds (mean − expected)/stderr.
    """

    mean: np.ndarray
    stderr: np.ndarray
    expected: np.ndarray
    z: np.ndarray


@dataclass(frozen=True)
class FluidComparison:
    """Per-run sup-norm deviations from a fluid trajectory, grouped by scale."""

    deviations: tuple[float, ...]
    median_by_scale: dict[int, float]


def rng_streams(sys: BipartiteSystem, seed: int) -> list[np.random.Generator]:
    """One Philox stream per node: frontends in order, then backends."""
    if not (isinstance(seed, int) and 0 <= seed < 2**64):
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    n_nodes = len(sys.frontends) + len(sys.backends)
    return [
        np.random.Generator(np.random.Philox(key=(seed << 64) + ordinal))
        for ordinal in range(n_nodes)
    ]


def _advance(
    sys: BipartiteSystem,
    counts: list[int],
    c: int,
    policy: str,
    streams: list[np.random.Generator],
    arr_b: list[int],
    dep_b: list[int],
    arr_f: list[int],
    clamp_b: list[int],
) -> None:
    """One step in place.  Overwrites the arrival/departure buffers and
    accumulates clamp events per backend into clamp_b."""
    nf = len(sys.frontends)
    services = [b.service for b in sys.backends]
    for j in range(len(counts)):
        arr_b[j] = 0

    if policy == "gmsr":
        g = [svc.gradient(counts[j] / c) for j, svc in enumerate(services)]
        masks = tie_masks(sys.backends_of_frontend, g, _TIE_TOL)
    for i, lam in enumerate(sys.lambdas):
        if lam == 0.0:  # no arrival process: consume no randomness
            arr_f[i] = 0
            continue
        w = int(streams[i].poisson(lam))
        arr_f[i] = w
        if w == 0:
            continue
        nbrs = sys.backends_of_frontend[i]
        targets = [j for j in nbrs if masks[i] >> j & 1] if policy == "gmsr" else list(nbrs)
        if len(targets) == 1:
            arr_b[targets[0]] += w
        else:  # each job picks uniformly and independently among the targets
            split = streams[i].multinomial(w, [1.0 / len(targets)] * len(targets))
            for j, cnt in zip(targets, split):
                arr_b[j] += int(cnt)

    for j, svc in enumerate(services):
        nj = counts[j]
        if nj == 0:  # empty backend: μ(0)=0, serve nothing, consume no randomness
            dep_b[j] = 0
            counts[j] = arr_b[j]
            continue
        m = svc.value(nj / c)
        if m <= 1.0:
            d = int(streams[nf + j].random() < m)
        else:  # a single Bernoulli cannot carry mean > 1: split off the floor
            whole = int(m)
            d = whole + int(streams[nf + j].random() < m - whole)
        if d > nj:
            clamp_b[j] += 1
            d = nj
        dep_b[j] = d
        counts[j] = nj + arr_b[j] - d


def step(
    sys: BipartiteSystem,
    state: DiscreteState,
    policy: str,
    streams: list[np.random.Generator],
) -> DiscreteState:
    """Advance one discrete step: Poisson arrivals, per-job routing, departures."""
    if policy not in _POLICIES:
        raise ValueError(f"policy must be one of {_POLICIES}, got {policy!r}")
    nb = len(sys.backends)
    if len(state.counts) != nb:
        raise ValueError(
            f"state has {len(state.counts)} backends, the system has {nb}"
        )
    counts = list(state.counts)
    _advance(sys, counts, state.c, policy, streams, [0] * nb, [0] * nb,
             [0] * len(sys.frontends), [0] * nb)
    return DiscreteState(counts=tuple(counts), step=state.step + 1, c=state.c)


def _initial_counts(sys: BipartiteSystem, n, c: int) -> list[int]:
    """The integer state round(n·c), once n is checked to hold one
    nonnegative workload per backend, finite also when scaled by c."""
    n_arr = np.asarray(n, dtype=float)
    nb = len(sys.backends)
    if n_arr.shape != (nb,):
        raise ValueError(f"initial state has shape {n_arr.shape}, expected ({nb},)")
    with np.errstate(over="ignore"):
        scaled = n_arr * c
    if not np.all(np.isfinite(scaled)) or np.any(n_arr < 0):
        raise ValueError("initial state must be finite and nonnegative, also times c")
    return [int(round(v)) for v in scaled]


def simulate(
    sys: BipartiteSystem,
    n0,
    c: int,
    horizon: float,
    policy: str = "gmsr",
    seed: int = 0,
    thin: int = 1,
) -> SampledRun:
    """Run ⌊horizon·c⌋ steps from the integer state round(n0·c).

    Records the normalized state every `thin` steps (the final step is always
    recorded), along with the raw arrival/departure counts accumulated since
    the previous record.
    """
    if policy not in _POLICIES:
        raise ValueError(f"policy must be one of {_POLICIES}, got {policy!r}")
    if not (isinstance(c, int) and c >= 1):
        raise ValueError(f"scale c must be a positive integer, got {c!r}")
    if not (isinstance(thin, int) and thin >= 1):
        raise ValueError(f"thin must be a positive integer, got {thin!r}")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    counts = _initial_counts(sys, n0, c)
    nb = len(sys.backends)
    nf = len(sys.frontends)
    steps = int(horizon * c)
    if steps > _MAX_STEPS:
        raise ValueError(
            f"step budget exceeded: horizon*c = {steps} > {_MAX_STEPS}"
        )

    streams = rng_streams(sys, seed)
    arr_b = [0] * nb
    dep_b = [0] * nb
    arr_f = [0] * nf
    win_arr = [0] * nb
    win_dep = [0] * nb
    win_arr_f = [0] * nf
    clamps = [0] * nb

    times = array("d", [0.0])
    ys = array("d", [n / c for n in counts])
    arrs = array("q", [0] * nb)
    deps = array("q", [0] * nb)
    arrs_f = array("q", [0] * nf)

    for i in range(1, steps + 1):
        _advance(sys, counts, c, policy, streams, arr_b, dep_b, arr_f, clamps)
        for j in range(nb):
            win_arr[j] += arr_b[j]
            win_dep[j] += dep_b[j]
        for f in range(nf):
            win_arr_f[f] += arr_f[f]
        if i % thin == 0 or i == steps:
            times.append(i / c)
            ys.extend(n / c for n in counts)
            arrs.extend(win_arr)
            deps.extend(win_dep)
            arrs_f.extend(win_arr_f)
            win_arr = [0] * nb
            win_dep = [0] * nb
            win_arr_f = [0] * nf

    records = len(times)
    return SampledRun(
        times=np.frombuffer(times, dtype=float).copy(),
        y=np.frombuffer(ys, dtype=float).reshape(records, nb).copy(),
        arrivals=np.frombuffer(arrs, dtype=np.int64).reshape(records, nb).copy(),
        departures=np.frombuffer(deps, dtype=np.int64).reshape(records, nb).copy(),
        frontend_arrivals=np.frombuffer(arrs_f, dtype=np.int64)
        .reshape(records, nf)
        .copy(),
        clamps=np.array(clamps, dtype=np.int64),
        c=c,
        seed=seed,
        policy=policy,
    )


def _expected_drift(sys: BipartiteSystem, y: np.ndarray, policy: str) -> np.ndarray:
    """Analytic mean drift inflow − μ at normalized state y under the policy."""
    rates = sys.rates_at(y)
    inflow = np.zeros(len(sys.backends))
    masks = tie_masks(sys.backends_of_frontend, sys.gradients_at(y), _TIE_TOL)
    for i, lam in enumerate(sys.lambdas):
        nbrs = sys.backends_of_frontend[i]
        targets = [j for j in nbrs if masks[i] >> j & 1] if policy == "gmsr" else list(nbrs)
        share = lam / len(targets)
        for j in targets:
            inflow[j] += share
    return inflow - rates


def mean_drift_check(
    sys: BipartiteSystem,
    n,
    c: int,
    policy: str = "gmsr",
    samples: int = 10_000,
    seed: int = 0,
) -> DriftEstimate:
    """Monte-Carlo check that one-step drift matches the fluid drift.

    Freezes the state at round(n·c), draws `samples` independent single
    steps (the state is reset between samples, the streams are not), and
    compares the empirical mean of ΔN = c·ΔY per step with the analytic
    drift under the policy's routing proportions.
    """
    if policy not in _POLICIES:
        raise ValueError(f"policy must be one of {_POLICIES}, got {policy!r}")
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples for a stable estimate, got {samples}")
    if not (isinstance(c, int) and c >= 1):
        raise ValueError(f"scale c must be a positive integer, got {c!r}")
    base = _initial_counts(sys, n, c)
    nb = len(sys.backends)
    nf = len(sys.frontends)

    streams = rng_streams(sys, seed)
    arr_b = [0] * nb
    dep_b = [0] * nb
    arr_f = [0] * nf
    clamp_b = [0] * nb
    total = np.zeros(nb)
    total_sq = np.zeros(nb)
    for _ in range(samples):
        counts = list(base)
        _advance(sys, counts, c, policy, streams, arr_b, dep_b, arr_f, clamp_b)
        for j in range(nb):
            d = arr_b[j] - dep_b[j]
            total[j] += d
            total_sq[j] += d * d

    mean = total / samples
    var = np.maximum(total_sq / samples - mean**2, 0.0) * samples / (samples - 1)
    stderr = np.sqrt(var / samples)
    expected = _expected_drift(sys, np.array(base, dtype=float) / c, policy)
    z = np.where(stderr > 0, (mean - expected) / np.where(stderr > 0, stderr, 1.0), 0.0)
    return DriftEstimate(mean=mean, stderr=stderr, expected=expected, z=z)


def compare_to_fluid(runs, fluid) -> FluidComparison:
    """Sup-norm deviation of each run's interpolated Ȳ from the fluid path.

    Each run's piecewise-linear interpolation is evaluated on the fluid time
    grid; the fluid grid must be at least as fine as every run's 1/c, and
    horizons must agree to within one run step.
    """
    runs = list(runs)
    if not runs:
        raise ValueError("need at least one run to compare")
    tf = fluid.times
    t_end = float(tf[-1])
    h_fluid = float(tf[1] - tf[0]) if len(tf) > 1 else math.inf
    devs: list[float] = []
    by_scale: dict[int, list[float]] = {}
    for run in runs:
        if run.y.shape[1] != fluid.states.shape[1]:
            raise ValueError("run and fluid trajectory have different backend counts")
        if abs(float(run.times[-1]) - t_end) > 1.0 / run.c + 1e-9:
            raise ValueError(
                f"horizon mismatch: run ends at {float(run.times[-1]):.6g}, "
                f"fluid at {t_end:.6g}"
            )
        if h_fluid > 1.0 / run.c + 1e-12:
            raise ValueError(
                f"fluid grid step {h_fluid:.6g} is coarser than the run's 1/c "
                f"= {1.0 / run.c:.6g}"
            )
        dev = 0.0
        for j in range(run.y.shape[1]):
            interp = np.interp(tf, run.times, run.y[:, j])
            dev = max(dev, float(np.abs(interp - fluid.states[:, j]).max()))
        devs.append(dev)
        by_scale.setdefault(run.c, []).append(dev)
    medians = {c: float(np.median(v)) for c, v in sorted(by_scale.items())}
    return FluidComparison(deviations=tuple(devs), median_by_scale=medians)
