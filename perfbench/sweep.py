"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/BASELINE.json
    python3 perfbench/sweep.py --workloads cli --seeds 1,2,3 --seconds 30

For every workload, ``run.py`` runs once per seed with ``--trace 0`` and once
with ``--trace 1`` on the first seed, one after another.  The summary holds,
per end-to-end metric (gated or not), the values, their median and quartiles
(as ``statistics.quantiles(values, n=4)`` gives them) and the spread
(Q3 - Q1) / median; the per-layer metrics of the traced run; and the
machine.  A performance change cites two such files, made on the same
machine: one for the parent commit and one for the change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from run import END_TO_END, REPORTED, RESULTS, WORKLOADS, machine  # noqa: E402


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads((RESULTS / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p.add_argument("--seconds", type=int,
                   default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    summary = {"machine": machine(), "seconds": args.seconds, "seeds": args.seeds,
               "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, args.seconds, 0))
            print(workload, seed, {k: round(v, 5) for k, v in runs[-1]["end_to_end"].items()},
                  flush=True)
        traced = run_once(workload, args.seeds[0], args.seconds, 1)
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {n: {"unit": unit, "gated": (n, unit) in END_TO_END,
                               **summarise([r["end_to_end"][n] for r in runs])}
                           for n, unit in END_TO_END + REPORTED},
            "per_layer": traced["metrics"],
        }
        summary["workloads"][workload] = entry
        for n, s in entry["end_to_end"].items():
            print(f"{workload} {n}: median {s['median']:.6g} spread {s['spread']}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
