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

`simulate` and `mean_drift_check` take draws in blocks: a stream hands out
values from one vectorized draw at a time, and a frontend's stream is rewound
to the exact scalar position before a multinomial split.  Each stream's
sequence of used values is the one that one scalar draw per value gives.
`step` draws one value at a time, so it leaves the caller's streams where
those scalar draws do.

Two unavoidable integer-vs-mean compromises, both explicit:

* a departure draw with mean m > 1 uses floor(m) + Bernoulli(m − floor(m)),
  since a single Bernoulli cannot have mean above 1;
* departures are clamped to the available jobs (D_b ≤ N_b).  Each clamp is
  counted on the run rather than hidden; clamps need a near-empty backend
  whose service mean exceeds the job count, which vanishes under scaling
  (and is impossible once c exceeds the curve's initial slope).
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
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
_BLOCK = 256  # values per vectorized draw of a blocked stream
_CHUNK = 1024  # steps whose raw counts are held before they are summed into records


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

    @property
    def steps(self) -> int:
        """Chain steps of 1/c the run took: the step of its last record."""
        return round(float(self.times[-1]) * self.c)


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


class _Draws:
    """One stream's values, handed out one at a time from `it`.

    Blocked, `it` runs over blocks of values from draw(_BLOCK); the
    stream's state before the block is kept, so rewind() can put the stream
    where scalar draws of the values handed out would have left it.  Numpy
    fills an array with the same values, in the same order, as repeated
    scalar calls, so blocking changes no value.  Unblocked, `it` calls
    draw() once per value and there is nothing to rewind."""

    __slots__ = ("gen", "draw", "block", "it", "saved")

    def __init__(self, gen: np.random.Generator, draw, blocked: bool):
        self.gen = gen
        self.draw = draw
        self.block: list = []
        self.it = iter(self.block) if blocked else iter(draw, None)
        self.saved = None

    def refill(self):
        """Draw the next block and hand out its first value."""
        self.saved = self.gen.bit_generator.state
        self.block = self.draw(_BLOCK).tolist()
        self.it = iter(self.block)
        return next(self.it)

    def rewind(self) -> None:
        """Leave the stream just past the values handed out; the next value
        comes from a new block."""
        if self.saved is None:
            return
        used = len(self.block) - operator.length_hint(self.it)
        self.gen.bit_generator.state = self.saved
        self.draw(used)
        self.saved = None
        self.block = []
        self.it = iter(self.block)


class _Chain:
    """The chain's step loop over one run's streams, shared by `simulate`,
    `step` and `mean_drift_check`.

    Each frontend with λ > 0 takes its Poisson counts from a stream, and
    each backend its uniforms; with `blocked`, from blocked draws.  A job
    split needs a multinomial from the frontend's stream at the position
    scalar draws would have reached, so the stream is rewound first; under
    the random policy a frontend with several neighbours splits on most
    arrivals, and draws unblocked (rewound at every split, blocked draws
    made fig1 step 2.5x slower than scalar ones).  The targets of each
    frontend are kept per tie pattern, the mask tuple."""

    def __init__(self, sys: BipartiteSystem, c: int, policy: str,
                 streams: list[np.random.Generator], blocked: bool = True):
        nf, nb = len(sys.frontends), len(sys.backends)
        nbrs = sys.backends_of_frontend
        self.c = c
        self.width = 2 * nb + nf
        self.nbrs = nbrs
        self.curves = [(svc.gradient, svc.value) for svc in sys.services]
        self.gmsr = policy == "gmsr"
        self.arrivals = [  # (frontend, its column in a step's row, its draws)
            (i, 2 * nb + i, _Draws(streams[i], functools.partial(streams[i].poisson, lam),
                                   blocked and (self.gmsr or len(nbrs[i]) == 1)))
            for i, lam in enumerate(sys.lambdas)
            if lam != 0.0  # no arrival process: consume no randomness
        ]
        self.uniforms = [_Draws(streams[nf + j], streams[nf + j].random, blocked)
                         for j in range(nb)]
        self.clamps = [0] * nb

        @functools.lru_cache(maxsize=4096)
        def targets(masks: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
            return tuple(tuple(j for j in nb_i if m >> j & 1) for nb_i, m in zip(nbrs, masks))

        self.targets = targets

    def run(self, counts: list[int], steps: int, out: array) -> None:
        """Advance `counts` in place by `steps` steps, appending one row per
        step to `out`: the arrivals and the departures of each backend, then
        the arrivals at each frontend.  Departure clamps add up in
        self.clamps."""
        c, width, nbrs, curves = self.c, self.width, self.nbrs, self.curves
        nb = len(counts)
        gmsr, targets = self.gmsr, self.targets
        arrivals, uniforms, clamps = self.arrivals, self.uniforms, self.clamps
        put = out.extend
        to = nbrs  # the random policy's targets: every neighbour
        for _ in range(steps):
            g = []
            mu = []
            for (grad, value), n in zip(curves, counts):
                x = n / c
                if gmsr:
                    g.append(grad(x))
                mu.append(value(x))
            if gmsr:
                to = targets(tie_masks(nbrs, g, _TIE_TOL))

            row = [0] * width
            for i, slot, draws in arrivals:
                w = next(draws.it, None)
                if w is None:
                    w = draws.refill()
                if w == 0:
                    continue
                row[slot] = w
                t = to[i]
                if len(t) == 1:
                    row[t[0]] += w
                else:  # each job picks uniformly and independently among the targets
                    draws.rewind()
                    for j, k in zip(t, draws.gen.multinomial(w, [1.0 / len(t)] * len(t)).tolist()):
                        row[j] += k

            for j in range(nb):
                nj = counts[j]
                if nj == 0:  # empty backend: μ(0)=0, serve nothing, consume no randomness
                    counts[j] = row[j]
                    continue
                draws = uniforms[j]
                u = next(draws.it, None)
                if u is None:
                    u = draws.refill()
                m = mu[j]
                if m <= 1.0:
                    d = 1 if u < m else 0
                else:  # a single Bernoulli cannot carry mean > 1: split off the floor
                    whole = int(m)
                    d = whole + (1 if u < m - whole else 0)
                if d > nj:
                    clamps[j] += 1
                    d = nj
                row[nb + j] = d
                counts[j] = nj + row[j] - d
            put(row)


def step(
    sys: BipartiteSystem,
    state: DiscreteState,
    policy: str,
    streams: list[np.random.Generator],
) -> DiscreteState:
    """Advance one discrete step: Poisson arrivals, per-job routing, departures.

    Draws one value at a time, so the caller's streams are left just past
    the values used."""
    if policy not in _POLICIES:
        raise ValueError(f"policy must be one of {_POLICIES}, got {policy!r}")
    nb = len(sys.backends)
    if len(state.counts) != nb:
        raise ValueError(
            f"state has {len(state.counts)} backends, the system has {nb}"
        )
    counts = list(state.counts)
    _Chain(sys, state.c, policy, streams, blocked=False).run(counts, 1, array("q"))
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


def _step_count(horizon: float, c: int) -> int:
    """The chain steps of 1/c in `horizon`: the integer nearest horizon·c
    when the product lies within a few ulps of it (2.3·100 is
    229.99999999999997 in floats), its floor otherwise."""
    x = horizon * c
    k = round(x)
    return k if abs(x - k) <= 4 * math.ulp(x) else math.floor(x)


def simulate(
    sys: BipartiteSystem,
    n0,
    c: int,
    horizon: float,
    policy: str = "gmsr",
    seed: int = 0,
    thin: int = 1,
) -> SampledRun:
    """Run horizon·c steps (rounded to the nearest integer within a few
    ulps, down otherwise) from the integer state round(n0·c).

    Records the normalized state every `thin` steps (the final step is always
    recorded), along with the raw arrival/departure counts accumulated since
    the previous record.  Per-step counts are held for one chunk of
    `_CHUNK` steps at a time, so memory grows with the records only.
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
    steps = _step_count(horizon, c)
    if steps > _MAX_STEPS:
        raise ValueError(
            f"step budget exceeded: horizon*c = {steps} > {_MAX_STEPS}"
        )

    marks = np.arange(0, steps + 1, thin, dtype=np.int64)  # the recorded steps
    if marks[-1] != steps:
        marks = np.append(marks, steps)
    start = np.array(counts, dtype=np.int64)
    y = np.empty((len(marks), nb))
    y[0] = start / c
    # a step's row holds the arrivals and departures per backend, then the
    # arrivals per frontend; each record sums the rows since the last one
    columns = (slice(0, nb), slice(nb, 2 * nb), slice(2 * nb, None))
    flux = [np.zeros((len(marks), n), dtype=np.int64) for n in (nb, nb, nf)]
    total = np.zeros(2 * nb + nf, dtype=np.int64)  # row sums from step 0 to the last step run
    last = total  # ... and to the last record
    chain = _Chain(sys, c, policy, rng_streams(sys, seed))
    done, rec = 0, 1
    while done < steps:
        k = min(_CHUNK, steps - done)
        rows = array("q")
        chain.run(counts, k, rows)
        sums = np.frombuffer(rows, dtype=np.int64).reshape(k, -1)
        np.cumsum(sums, axis=0, out=sums)
        sums += total
        total = sums[-1].copy()
        upto = int(np.searchsorted(marks, done + k, side="right"))
        if upto > rec:
            at = sums[marks[rec:upto] - (done + 1)]
            y[rec:upto] = (start + at[:, columns[0]] - at[:, columns[1]]) / c
            for out, cols in zip(flux, columns):
                out[rec:upto] = at[:, cols]
                out[rec + 1:upto] -= at[:-1, cols]
                out[rec] -= last[cols]
            last = at[-1]
        done, rec = done + k, upto

    return SampledRun(
        times=marks / c,
        y=y,
        arrivals=flux[0],
        departures=flux[1],
        frontend_arrivals=flux[2],
        clamps=np.array(chain.clamps, dtype=np.int64),
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
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral):
        raise ValueError(f"samples must be an integer, got {samples!r}")
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples for a stable estimate, got {samples}")
    if not (isinstance(c, int) and c >= 1):
        raise ValueError(f"scale c must be a positive integer, got {c!r}")
    base = _initial_counts(sys, n, c)
    nb = len(sys.backends)
    nf = len(sys.frontends)

    chain = _Chain(sys, c, policy, rng_streams(sys, seed))
    total = np.zeros(nb, dtype=np.int64)
    total_sq = np.zeros(nb, dtype=np.int64)
    for first in range(0, samples, _CHUNK):
        rows = array("q")
        for _ in range(min(_CHUNK, samples - first)):
            chain.run(list(base), 1, rows)
        per_step = np.frombuffer(rows, dtype=np.int64).reshape(-1, 2 * nb + nf)
        delta = per_step[:, :nb] - per_step[:, nb:2 * nb]
        total += delta.sum(axis=0)
        total_sq += (delta * delta).sum(axis=0)

    # integer sums below 2^53 are exact in floats, as a float running sum is
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
