"""Spans around the library's public functions, recorded from outside.

``Recorder.install`` replaces a public function at every binding the library
calls it through: a name pulled in with ``from gmsr.flownet import max_flow``
lives in several module namespaces, so every ``gmsr`` module attribute that
*is* the original function object is swapped for one wrapper.  The wrapper
opens a span (name, start, end, parent), calls the original, closes the span
and returns the original's result object unchanged.  ``uninstall`` puts the
original objects back.

Spans are kept in memory; ``write_spans`` dumps them when the run ends.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import sys
import time
from pathlib import Path

# (module, function) pairs; the span name is "<module>.<function>".
LAYER_FUNCTIONS = (
    ("fluid_dyn", "integrate_fluid"),
    ("flownet", "transportation_feasible"),
    ("flownet", "max_flow"),
    ("fluid_opt", "solve_fluid_optimum"),
    ("fluid_opt", "kkt_residual"),
    ("fluid_opt", "equilibrium_rates"),
    ("diagnostics", "certify_trajectory"),
    ("diagnostics", "capacity_slack"),
    ("tiers", "compute_tiers"),
    ("tiers", "tier_graph"),
    ("stochastic", "simulate"),
    ("stochastic", "compare_to_fluid"),
)

# The two timers every run keeps, traced or not: they give the end-to-end
# fluid_steps_per_s (and the printed chain_steps_per_s) on every workload.
TIMED_FUNCTIONS = (("fluid_dyn", "integrate_fluid"), ("stochastic", "simulate"))


def _integrate_counts(traj) -> dict[str, float]:
    arrays = (traj.times, traj.states, traj.routings, traj.inflows)
    return {
        "steps": len(traj.times) - 1,
        "events": len(traj.events),
        "split_events": sum(1 for ev in traj.events if ev.kind == "split"),
        "record_bytes": sum(a.nbytes for a in arrays),
    }


def _simulate_counts(run) -> dict[str, float]:
    return {"steps": int(round(float(run.times[-1]) * run.c)), "clamps": int(run.clamps.sum())}


def _transport_counts(result) -> dict[str, float]:
    return {"ok": 1 if result[0] else 0}


# Counts read off a function's result; they are added to the call's span.
RESULT_COUNTS = {
    "fluid_dyn.integrate_fluid": _integrate_counts,
    "stochastic.simulate": _simulate_counts,
    "flownet.transportation_feasible": _transport_counts,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts: dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span log with a stack of open spans (single-threaded)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-side span around the body of a ``with`` block."""
        idx = self.open(name)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    # -- wrappers ------------------------------------------------------------

    def wrap(self, name: str, fn):
        counter = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                self.spans[idx].counts = counter(out)
            return out

        return wrapper

    def install(self, functions=LAYER_FUNCTIONS) -> None:
        """Wrap each function at every gmsr module binding that holds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "gmsr" or n.startswith("gmsr."))]
        for mod_name, fn_name in functions:
            original = getattr(sys.modules[f"gmsr.{mod_name}"], fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def bindings(self) -> list[str]:
        return sorted(f"{mod.__name__}.{attr}" for mod, attr, _ in self._patched)


def write_spans(spans: list[Span], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "name", "start", "end", "parent"])
        for i, s in enumerate(spans):
            w.writerow([i, s.name, repr(s.start), repr(s.end), s.parent])


def self_time(spans: list[Span], idx: int, children: dict[int, list[int]]) -> float:
    """A span's duration minus the time its direct child spans cover."""
    return spans[idx].duration - sum(spans[c].duration for c in children.get(idx, ()))


def children_of(spans: list[Span]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            out.setdefault(s.parent, []).append(i)
    return out


def within(spans: list[Span], idx: int, name: str) -> bool:
    """Does span idx run inside a span called `name`?"""
    parent = spans[idx].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def descendants(spans: list[Span], idx: int, children: dict[int, list[int]]):
    todo = list(children.get(idx, ()))
    while todo:
        i = todo.pop()
        yield i
        todo.extend(children.get(i, ()))


CLI_COMMANDS = ("validate", "optimum", "overload", "fluid", "certify", "simulate", "report")

# Per-layer metrics of the traced run, with their units.
LAYER_METRICS = (
    ("fluid_dyn.integrate_fluid.calls", "count"),
    ("fluid_dyn.integrate_fluid.self_s", "s"),
    ("fluid_dyn.step_us", "us"),
    ("fluid_dyn.events", "count"),
    ("fluid_dyn.split_events", "count"),
    ("fluid_dyn.record_mb", "MB"),
    ("flownet.transportation_feasible.calls", "count"),
    ("flownet.transportation_feasible.kernel_calls", "count"),
    ("flownet.transportation_feasible.s", "s"),
    ("flownet.transportation_feasible.ok_ratio", "ratio"),
    ("flownet.max_flow.calls", "count"),
    ("flownet.max_flow.s", "s"),
    ("fluid_opt.solve_fluid_optimum.calls", "count"),
    ("fluid_opt.solve_fluid_optimum.s", "s"),
    ("fluid_opt.kkt_residual.calls", "count"),
    ("fluid_opt.equilibrium_rates.s", "s"),
    ("diagnostics.certify_trajectory.self_s", "s"),
    ("diagnostics.capacity_slack.s", "s"),
    ("diagnostics.optimum_solves_per_certify", "ratio"),
    ("tiers.compute_tiers.s", "s"),
    ("tiers.tier_graph.s", "s"),
    ("stochastic.simulate.calls", "count"),
    ("stochastic.simulate.s", "s"),
    ("stochastic.step_us", "us"),
    ("stochastic.compare_to_fluid.s", "s"),
    ("stochastic.clamps", "count"),
    *((f"cli.{c}.s", "s") for c in CLI_COMMANDS),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("cli.bytes_read", "bytes"),
    ("cli.certify.wasted_s", "s"),
    ("trace.overhead_s", "s"),
)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced batch (all but trace.overhead_s)."""
    kids = children_of(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def ids(name):
        return by_name.get(name, [])

    def total(name):
        return sum(spans[i].duration for i in ids(name))

    def count(name, key):
        return sum(spans[i].counts.get(key, 0) for i in ids(name))

    def ratio(num, den):
        return num / den if den else 0.0

    integ = "fluid_dyn.integrate_fluid"
    integ_self = sum(self_time(spans, i, kids) for i in ids(integ))
    transport = "flownet.transportation_feasible"
    certify = "diagnostics.certify_trajectory"
    solves_in_certify = sum(
        1 for c in ids(certify) for d in descendants(spans, c, kids)
        if spans[d].name == "fluid_opt.solve_fluid_optimum"
    )
    simulate = "stochastic.simulate"
    cli_spans = [i for c in CLI_COMMANDS for i in ids(f"cli.{c}")]
    wasted = sum(
        spans[d].duration for c in ids("cli.certify") if spans[c].counts.get("exit") == 2
        for d in descendants(spans, c, kids) if spans[d].name == integ
    )
    out = {
        f"{integ}.calls": len(ids(integ)),
        f"{integ}.self_s": integ_self,
        "fluid_dyn.step_us": 1e6 * ratio(integ_self, count(integ, "steps")),
        "fluid_dyn.events": count(integ, "events"),
        "fluid_dyn.split_events": count(integ, "split_events"),
        "fluid_dyn.record_mb": count(integ, "record_bytes") / 1e6,
        f"{transport}.calls": len(ids(transport)),
        f"{transport}.kernel_calls": sum(1 for i in ids(transport) if within(spans, i, integ)),
        f"{transport}.s": total(transport),
        f"{transport}.ok_ratio": ratio(count(transport, "ok"), len(ids(transport))),
        "flownet.max_flow.calls": len(ids("flownet.max_flow")),
        "flownet.max_flow.s": total("flownet.max_flow"),
        "fluid_opt.solve_fluid_optimum.calls": len(ids("fluid_opt.solve_fluid_optimum")),
        "fluid_opt.solve_fluid_optimum.s": total("fluid_opt.solve_fluid_optimum"),
        "fluid_opt.kkt_residual.calls": len(ids("fluid_opt.kkt_residual")),
        "fluid_opt.equilibrium_rates.s": total("fluid_opt.equilibrium_rates"),
        f"{certify}.self_s": sum(self_time(spans, i, kids) for i in ids(certify)),
        "diagnostics.capacity_slack.s": total("diagnostics.capacity_slack"),
        "diagnostics.optimum_solves_per_certify": ratio(solves_in_certify, len(ids(certify))),
        "tiers.compute_tiers.s": total("tiers.compute_tiers"),
        "tiers.tier_graph.s": total("tiers.tier_graph"),
        f"{simulate}.calls": len(ids(simulate)),
        f"{simulate}.s": total(simulate),
        "stochastic.step_us": 1e6 * ratio(total(simulate), count(simulate, "steps")),
        "stochastic.compare_to_fluid.s": total("stochastic.compare_to_fluid"),
        "stochastic.clamps": count(simulate, "clamps"),
        **{f"cli.{c}.s": total(f"cli.{c}") for c in CLI_COMMANDS},
        "cli.self_s": sum(self_time(spans, i, kids) for i in cli_spans),
        "cli.bytes_written": sum(spans[i].counts.get("bytes_written", 0) for i in cli_spans),
        "cli.bytes_read": sum(spans[i].counts.get("bytes_read", 0) for i in cli_spans),
        "cli.certify.wasted_s": wasted,
    }
    return {k: float(v) for k, v in out.items()}
