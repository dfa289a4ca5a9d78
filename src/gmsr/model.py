"""Domain model: service-rate curves, bipartite systems, workloads, routings.

Workload vectors are plain numpy float arrays ordered by backend index
(the order backends were listed in when the system was built).  Routing
matrices are ``(n_frontends, n_backends)`` float arrays in the same index
convention.  Helpers below convert between id-keyed mappings and arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

HILL = "hill"
SATURATING_EXPONENTIAL = "saturating-exponential"

_KINDS = (HILL, SATURATING_EXPONENTIAL)


class SaturationError(ValueError):
    """A requested service level is at or above the curve's cap."""


@dataclass(frozen=True)
class ServiceRateFn:
    """A workload-dependent service rate curve mu(N).

    Both supported families are strictly increasing, strictly concave,
    bounded by ``cap``, twice differentiable, and satisfy mu(0) = 0:

    - ``hill``:                    mu(N) = cap * N / (N + half)
    - ``saturating-exponential``:  mu(N) = cap * (1 - exp(-rate * N))

    All four of value/gradient/inverse/gradient-inverse have closed forms,
    which keeps slack constants and equilibrium workloads exact.
    """

    kind: str
    cap: float
    half: float | None = None
    rate: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown service kind {self.kind!r}; expected one of {_KINDS}")
        if not (self.cap > 0 and math.isfinite(self.cap)):
            raise ValueError("cap must be a positive finite real")
        if self.kind == HILL:
            if self.half is None or not (self.half > 0 and math.isfinite(self.half)):
                raise ValueError("hill curve requires a positive finite 'half' parameter")
            if self.rate is not None:
                raise ValueError("hill curve does not take a 'rate' parameter")
        else:
            if self.rate is None or not (self.rate > 0 and math.isfinite(self.rate)):
                raise ValueError("saturating-exponential curve requires a positive finite 'rate'")
            if self.half is not None:
                raise ValueError("saturating-exponential curve does not take a 'half' parameter")

    # -- closed forms -------------------------------------------------------

    def value(self, n: float) -> float:
        """mu(N)."""
        if n < 0:
            raise ValueError(f"workload must be nonnegative, got {n}")
        if self.kind == HILL:
            return self.cap * n / (n + self.half)
        return self.cap * -math.expm1(-self.rate * n)

    def gradient(self, n: float) -> float:
        """mu'(N) > 0."""
        if n < 0:
            raise ValueError(f"workload must be nonnegative, got {n}")
        if self.kind == HILL:
            d = n + self.half
            return self.cap * self.half / (d * d)
        return self.cap * self.rate * math.exp(-self.rate * n)

    def curvature(self, n: float) -> float:
        """mu''(N) < 0."""
        if n < 0:
            raise ValueError(f"workload must be nonnegative, got {n}")
        if self.kind == HILL:
            d = n + self.half
            return -2.0 * self.cap * self.half / (d * d * d)
        return -self.cap * self.rate * self.rate * math.exp(-self.rate * n)

    def inverse(self, y: float) -> float:
        """The unique N with mu(N) = y, for 0 <= y < cap."""
        if y < 0:
            raise ValueError(f"service level must be nonnegative, got {y}")
        if y >= self.cap:
            raise SaturationError(f"service level {y} is at or above the cap {self.cap}")
        if self.kind == HILL:
            return self.half * y / (self.cap - y)
        return -math.log1p(-y / self.cap) / self.rate

    def gradient_inverse(self, g: float) -> float:
        """The unique N with mu'(N) = g, for 0 < g <= mu'(0)."""
        if g <= 0:
            raise ValueError(f"gradient must be positive, got {g}")
        g0 = self.gradient(0.0)
        if g > g0:
            raise ValueError(f"no workload has gradient {g}; the maximum is mu'(0) = {g0}")
        if self.kind == HILL:
            return math.sqrt(self.cap * self.half / g) - self.half
        return math.log(self.cap * self.rate / g) / self.rate


def hill(cap: float, half: float) -> ServiceRateFn:
    return ServiceRateFn(kind=HILL, cap=cap, half=half)


def saturating_exponential(cap: float, rate: float) -> ServiceRateFn:
    return ServiceRateFn(kind=SATURATING_EXPONENTIAL, cap=cap, rate=rate)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Frontend:
    id: str
    lam: float  # arrival rate, jobs per unit time


@dataclass(frozen=True)
class Backend:
    id: str
    service: ServiceRateFn


@dataclass(frozen=True)
class BipartiteSystem:
    """Frontends with arrival rates, backends with rate curves, and edges.

    Instances are immutable after construction and safe to share across
    threads.  Construction normalizes containers but performs no semantic
    validation; call :func:`validate_system` and check the report is empty
    before feeding a system to solvers or integrators.
    """

    frontends: tuple[Frontend, ...]
    backends: tuple[Backend, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "frontends", tuple(self.frontends))
        object.__setattr__(self, "backends", tuple(self.backends))
        seen: set[tuple[str, str]] = set()
        deduped: list[tuple[str, str]] = []
        for e in self.edges:
            e = (str(e[0]), str(e[1]))
            if e not in seen:
                seen.add(e)
                deduped.append(e)
        object.__setattr__(self, "edges", tuple(deduped))

    # -- index structures (dense integer indices in input order) -----------

    @cached_property
    def frontend_ids(self) -> tuple[str, ...]:
        return tuple(f.id for f in self.frontends)

    @cached_property
    def backend_ids(self) -> tuple[str, ...]:
        return tuple(b.id for b in self.backends)

    @cached_property
    def frontend_index(self) -> dict[str, int]:
        return {f.id: i for i, f in enumerate(self.frontends)}

    @cached_property
    def backend_index(self) -> dict[str, int]:
        return {b.id: j for j, b in enumerate(self.backends)}

    @cached_property
    def lambdas(self) -> tuple[float, ...]:
        return tuple(f.lam for f in self.frontends)

    @cached_property
    def services(self) -> tuple[ServiceRateFn, ...]:
        return tuple(b.service for b in self.backends)

    @cached_property
    def edge_indices(self) -> tuple[tuple[int, int], ...]:
        fi, bi = self.frontend_index, self.backend_index
        return tuple((fi[f], bi[b]) for f, b in self.edges)

    @cached_property
    def backends_of_frontend(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in self.frontends]
        for i, j in self.edge_indices:
            if j not in nbrs[i]:
                nbrs[i].append(j)
        return tuple(tuple(sorted(n)) for n in nbrs)

    @cached_property
    def frontends_of_backend(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in self.backends]
        for i, j in self.edge_indices:
            if i not in nbrs[j]:
                nbrs[j].append(i)
        return tuple(tuple(sorted(n)) for n in nbrs)

    @cached_property
    def edge_matrix(self) -> np.ndarray:
        """Boolean (n_frontends, n_backends) adjacency."""
        m = np.zeros((len(self.frontends), len(self.backends)), dtype=bool)
        for i, j in self.edge_indices:
            m[i, j] = True
        return m

    @cached_property
    def total_arrival_rate(self) -> float:
        return float(sum(self.lambdas))

    @cached_property
    def total_capacity(self) -> float:
        return float(sum(fn.cap for fn in self.services))

    # -- vectorized curve evaluation ----------------------------------------

    def rates_at(self, workload: np.ndarray) -> np.ndarray:
        """mu_b(N_b) for every backend, vectorized over a workload vector."""
        return self._eval_curves(workload, "value")

    def gradients_at(self, workload: np.ndarray) -> np.ndarray:
        """mu'_b(N_b) for every backend."""
        return self._eval_curves(workload, "gradient")

    def curvatures_at(self, workload: np.ndarray) -> np.ndarray:
        """mu''_b(N_b) for every backend."""
        return self._eval_curves(workload, "curvature")

    def _eval_curves(self, workload: np.ndarray, which: str) -> np.ndarray:
        n = np.asarray(workload, dtype=float)
        if n.shape[-1] != len(self.backends):
            raise ValueError(
                f"workload has {n.shape[-1]} entries for {len(self.backends)} backends"
            )
        if np.any(n < 0):
            raise ValueError("workload must be nonnegative")
        out = np.empty_like(n)
        for j, fn in enumerate(self.services):
            col = n[..., j]
            if fn.kind == HILL:
                d = col + fn.half
                if which == "value":
                    out[..., j] = fn.cap * col / d
                elif which == "gradient":
                    out[..., j] = fn.cap * fn.half / (d * d)
                else:
                    out[..., j] = -2.0 * fn.cap * fn.half / (d * d * d)
            else:
                e = np.exp(-fn.rate * col)
                if which == "value":
                    out[..., j] = fn.cap * (1.0 - e)
                elif which == "gradient":
                    out[..., j] = fn.cap * fn.rate * e
                else:
                    out[..., j] = -fn.cap * fn.rate * fn.rate * e
        return out


def make_system(
    frontends: Iterable[tuple[str, float]],
    backends: Iterable[tuple[str, ServiceRateFn]],
    edges: Iterable[tuple[str, str]],
) -> BipartiteSystem:
    """Convenience constructor from (id, rate) / (id, curve) pairs."""
    return BipartiteSystem(
        frontends=tuple(Frontend(i, lam) for i, lam in frontends),
        backends=tuple(Backend(i, fn) for i, fn in backends),
        edges=tuple(edges),
    )


def validate_system(sys: BipartiteSystem) -> list[str]:
    """Report violated structural invariants; an empty list means valid.

    Walks the raw fields only, so malformed systems (dangling edges,
    duplicate ids) produce findings instead of crashes.
    """
    report: list[str] = []
    fids = [f.id for f in sys.frontends]
    bids = [b.id for b in sys.backends]
    for name, ids in (("frontend", fids), ("backend", bids)):
        seen: set[str] = set()
        for i in ids:
            if i in seen:
                report.append(f"duplicate {name} id {i!r}")
            seen.add(i)
    if set(fids) & set(bids):
        report.append(f"ids shared between frontends and backends: {sorted(set(fids) & set(bids))}")
    for f in sys.frontends:
        if not math.isfinite(f.lam):
            report.append(f"frontend {f.id!r} has non-finite arrival rate {f.lam}")
        elif f.lam < 0:
            report.append(f"frontend {f.id!r} has negative arrival rate {f.lam}")
    fset, bset = set(fids), set(bids)
    touched_f: set[str] = set()
    touched_b: set[str] = set()
    for f, b in sys.edges:
        if f not in fset:
            report.append(f"edge ({f!r}, {b!r}) references unknown frontend {f!r}")
        if b not in bset:
            report.append(f"edge ({f!r}, {b!r}) references unknown backend {b!r}")
        touched_f.add(f)
        touched_b.add(b)
    for i in fids:
        if i not in touched_f:
            report.append(f"frontend {i!r} is isolated (no edges)")
    for i in bids:
        if i not in touched_b:
            report.append(f"backend {i!r} is isolated (no edges)")
    return report


def as_workload(sys: BipartiteSystem, value: Mapping[str, float] | Sequence[float] | np.ndarray | float) -> np.ndarray:
    """Coerce an id-keyed mapping / sequence / scalar to a workload array."""
    nb = len(sys.backends)
    if isinstance(value, Mapping):
        out = np.zeros(nb)
        for k, v in value.items():
            if k not in sys.backend_index:
                raise KeyError(f"unknown backend id {k!r}")
            out[sys.backend_index[k]] = float(v)
        return out
    if np.isscalar(value):
        return np.full(nb, float(value))
    arr = np.asarray(value, dtype=float)
    if arr.shape != (nb,):
        raise ValueError(f"expected {nb} workload entries, got shape {arr.shape}")
    return arr.copy()


def validate_routing(sys: BipartiteSystem, x: np.ndarray, tol: float = 1e-12) -> list[str]:
    """Report violations of the routing-matrix invariants."""
    report: list[str] = []
    x = np.asarray(x, dtype=float)
    nf, nb = len(sys.frontends), len(sys.backends)
    if x.shape != (nf, nb):
        return [f"routing matrix has shape {x.shape}, expected {(nf, nb)}"]
    if np.any(x < -tol):
        report.append("routing matrix has negative entries")
    off = x[~sys.edge_matrix]
    if off.size and np.max(np.abs(off)) > tol:
        report.append("routing matrix places mass on non-edges")
    rows = x.sum(axis=1)
    for i, s in enumerate(rows):
        if abs(s - 1.0) > tol:
            report.append(f"frontend {sys.frontends[i].id!r} routing sums to {s}, expected 1")
    return report
