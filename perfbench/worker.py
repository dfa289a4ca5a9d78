"""Run one workload in this process and write its measurements as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --result PATH
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

The worker imports ``gmsr`` from the checkout's ``src/``, builds the
workload's inputs from the seed, then runs the workload's fixed batch again
and again until ``--seconds`` have been spent (at least one batch; with
``--trace 1`` at least one untraced and one traced batch, alternating).
Untraced batches wrap only ``integrate_fluid`` and ``simulate``, to time
them; traced batches wrap every function in ``spans.LAYER_FUNCTIONS``.
``run.py`` starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / ".work"
# optimum_s: the median of this many solves of each system, summed over the
# workload's systems.  The solves run after the batches, with no wrapper
# installed, so they touch neither wall_s nor the per-layer figures.
OPTIMUM_SOLVES = 7


def _rate(spans, name: str) -> float:
    """Steps per second inside the spans called `name`."""
    chosen = [s for s in spans if s.name == name]
    busy = sum(s.duration for s in chosen)
    steps = sum(s.counts.get("steps", 0) for s in chosen)
    return steps / busy if busy > 0 else 0.0


def time_optimum(systems) -> float:
    import gmsr.fluid_opt as fo

    total = 0.0
    for sys_ in systems:
        times = []
        for _ in range(OPTIMUM_SOLVES):
            t0 = time.perf_counter()
            fo.solve_fluid_optimum(sys_)
            times.append(time.perf_counter() - t0)
        total += statistics.median(times)
    return total


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", type=Path)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import gmsr.cli  # noqa: F401 - the set-up being timed starts here

    if not Path(gmsr.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"gmsr was imported from {gmsr.cli.__file__}, not from {src}")

    import spans as sp
    from workloads import KNOWN_DEFECTS, WORKLOADS

    workload = WORKLOADS[args.workload]
    data = workload.prepare(args.seed, WORKDIR)
    if args.setup_only:
        return 0
    if args.seconds is None or args.result is None:
        p.error("--seconds and --result are required unless --setup-only is given")

    rec = sp.Recorder()
    batches = {False: [], True: []}  # traced -> list of per-batch dicts
    attempted = failed = 0
    failures = {}
    last_traced = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(batches[False]) > len(batches[True])
        rec.reset()
        rec.install(sp.LAYER_FUNCTIONS if traced else sp.TIMED_FUNCTIONS)
        t0 = time.perf_counter()
        try:
            res = workload.run_batch(data, rec, args.seed)
        finally:
            wall = time.perf_counter() - t0
            rec.uninstall()
        attempted += res.attempted
        failed += res.failed
        for f in res.failures:
            failures.setdefault((f.task, f.check), f)
        batch = {
            "wall_s": wall,
            "fluid_steps_per_s": _rate(rec.spans, "fluid_dyn.integrate_fluid"),
            "chain_steps_per_s": _rate(rec.spans, "stochastic.simulate"),
        }
        if traced:
            batch["layers"] = sp.layer_metrics(rec.spans)
            last_traced = list(rec.spans)
        batches[traced].append(batch)
        done = len(batches[False]) + len(batches[True])
        enough = done >= (2 if args.trace else 1)
        if enough and time.perf_counter() - start >= args.seconds:
            break

    def median(rows, key):
        return statistics.median(r[key] for r in rows)

    plain = batches[False]
    out = {
        "batches": {"untraced": len(plain), "traced": len(batches[True])},
        "wall_s": median(plain, "wall_s"),
        "optimum_s": time_optimum(workload.optimum_systems(data)),
        "fluid_steps_per_s": median(plain, "fluid_steps_per_s"),
        "chain_steps_per_s": median(plain, "chain_steps_per_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "failures": [
            {"task": f.task, "check": f.check, "detail": f.detail,
             "known_defect": (args.workload, f.task, f.check) in KNOWN_DEFECTS}
            for f in failures.values()
        ],
    }
    if args.trace:
        traced_rows = batches[True]
        layers = {name: statistics.median(r["layers"][name] for r in traced_rows)
                  for name in traced_rows[0]["layers"]}
        layers["trace.overhead_s"] = median(traced_rows, "wall_s") - out["wall_s"]
        out["layers"] = layers
        spans_path = WORKDIR / "spans" / f"{args.workload}-seed{args.seed}.csv"
        sp.write_spans(last_traced, spans_path)
        out["spans_file"] = str(spans_path.relative_to(ROOT))
    args.result.parent.mkdir(parents=True, exist_ok=True)
    args.result.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
