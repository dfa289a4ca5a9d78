"""The gmsr benchmark: one workload per invocation, in its own processes.

    python3 perfbench/run.py --workload battery|wide|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The command

1. starts ``worker.py``, which runs the workload's fixed batch, with every
   output verified, for ``--seconds``;
2. times the set-up ``SETUP_RUNS`` times, half of them before the worker and
   half after it, each in a fresh interpreter that imports ``gmsr.cli`` from
   ``src/`` and builds the workload's inputs, and reports the median as
   ``setup_s``;
3. prints the machine, each metric by name with its unit, the failed checks
   and ``failed_frac`` with its base, and, as the last line, one JSON object
   with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones, from spans around the library's public
functions, plus the tracing overhead.  Every result set is also written,
with the machine and the seeds, to ``perfbench/.work/results/``.  The exit
code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS = HERE / ".work" / "results"

WORKLOADS = ("battery", "wide", "cli")
SETUP_RUNS = 22
SETUP_TIMEOUT_S = 60
WORKER_GRACE_S = 120  # beyond --seconds: the last batch, start-up and exit

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("fluid_steps_per_s", "steps/s"),
)

# Printed and recorded with the end-to-end metrics, but not gated:
# chain_steps_per_s exists on cli only, and optimum_s (milliseconds of
# solving on battery and cli) spreads more than any bound allows here.
REPORTED = (
    ("optimum_s", "s"),
    ("chain_steps_per_s", "steps/s"),
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _worker_cmd(args, *extra: str) -> list[str]:
    return [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def time_setup(args, runs: int) -> list[float]:
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.run(_worker_cmd(args, "--setup-only"), cwd=ROOT,
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed (exit {proc.returncode}):\n{proc.stderr}")
    return times


def run_worker(args) -> dict:
    result = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.worker.json"
    result.unlink(missing_ok=True)
    proc = subprocess.run(
        _worker_cmd(args, "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--result", str(result)),
        cwd=ROOT, capture_output=True, text=True, timeout=args.seconds + WORKER_GRACE_S,
    )
    if proc.returncode != 0 or not result.is_file():
        raise RuntimeError(f"workload failed (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(result.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "gmsr" / "cli.py").is_file():
        print(f"perfbench: no gmsr sources under {ROOT / 'src'}; "
              "run from the root of a gmsr checkout", file=sys.stderr)
        return 2
    try:
        setup = time_setup(args, SETUP_RUNS // 2)
        res = run_worker(args)
        setup += time_setup(args, SETUP_RUNS - SETUP_RUNS // 2)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    values = {
        "setup_s": statistics.median(setup),
        "wall_s": res["wall_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "fluid_steps_per_s": res["fluid_steps_per_s"],
        "optimum_s": res["optimum_s"],
        "chain_steps_per_s": res["chain_steps_per_s"],
    }
    if args.trace:
        from spans import LAYER_METRICS

        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit in LAYER_METRICS}
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    known = [f for f in res["failures"] if f["known_defect"]]
    unknown = [f for f in res["failures"] if not f["known_defect"]]
    attempted, failed = res["attempted"], res["failed"]
    info = machine()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": info, "batches": res["batches"],
        "setup_runs_s": setup, "end_to_end": values,
        "correct": not unknown, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "failures": res["failures"],
        "metrics": metrics,
    }
    if "spans_file" in res:
        record["spans_file"] = res["spans_file"]
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"machine: nproc={info['nproc']} cpu={info['cpu']!r} python={info['python']} "
          f"numpy={info['numpy']}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} batches={res['batches']}")
    for name, m in metrics.items():
        print(f"  {name:<46} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for name, unit in REPORTED:
            print(f"  {name:<46} {values[name]:.6g} {unit} (not gated)")
    print(f"  {'failed_frac':<46} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} tasks)")
    for label, group in (("known defect", known), ("FAILED", unknown)):
        for f in group:
            print(f"  {label}: {f['task']} {f['check']}: {f['detail'][:160]}")
    print(json.dumps({"correct": not unknown, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
