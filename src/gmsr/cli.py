"""Command-line interface: scenario files, experiment runs, CSV/JSON reports.

Scenario files are JSON (UTF-8) with top-level fields `frontends` (array of
{id, lambda}), `backends` (array of {id, service: {kind, cap, half|rate}}),
`edges` (array of [frontend_id, backend_id] pairs), and optional `initial`
(map backend_id -> workload, default 0), `horizon` (default 50), `integrator`
({h, tie_tol, mode}), `scales` (array of positive ints), `seeds` (int),
`policy` ("gmsr" | "random"), and `out` (output directory).

Subcommands:

  validate  parse and validate a scenario, print a summary
  optimum   solve the fluid optimization; write optimum.json
  fluid     integrate the fluid dynamics; write trajectory.csv + events.csv,
            and fluid.json with the sample and event counts report copies
  simulate  run the stochastic chain over scales x seeds; write one CSV per
            run plus summary.json
  overload  stability decomposition + long-run service rates; write
            overload.json (a null workload marks a divergent backend)
  certify   integrate and check the Lyapunov convergence certificate; write
            certificate.json (with the integrator's work counts under
            "kernel")
  report    aggregate previously written files in --out into report.json,
            copying their numbers without recomputation, with a "totals"
            block of the work counts they hold; it reads the JSON files and
            only lists the CSVs it finds

Exit codes: 0 success, 1 scenario/argument validation failure, 2 infeasible
system where feasibility is required (optimum, certify), 3 runtime failure.
Command-line flags override the corresponding scenario fields.  All
randomness derives from --seed-base (default 0): run k of a cell uses seed
seed_base + k.  `report` names every file the other commands emit in its
sources.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys as _sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from gmsr.diagnostics import capacity_slack, certify_trajectory
from gmsr.fluid_dyn import _MODES, IntegratorConfig, integrate_fluid
from gmsr.fluid_opt import InfeasibleSystemError, equilibrium_rates, solve_fluid_optimum
from gmsr.flownet import feasibility_check
from gmsr.model import (
    HILL,
    BipartiteSystem,
    hill,
    make_system,
    saturating_exponential,
    validate_system,
)
from gmsr.stochastic import _POLICIES, simulate

__all__ = ["Scenario", "ScenarioError", "load_scenario", "run_command", "main"]


class ScenarioError(ValueError):
    """A scenario file or command line failed validation."""


@dataclass(frozen=True)
class Scenario:
    """A parsed experiment description: the system plus run parameters."""

    system: BipartiteSystem
    initial: np.ndarray
    horizon: float
    integrator: IntegratorConfig
    scales: tuple[int, ...]
    seeds: int
    policy: str
    out: str | None


# ---------------------------------------------------------------------------
# scenario loading
# ---------------------------------------------------------------------------


def _require(cond: bool, field: str, msg: str) -> None:
    if not cond:
        raise ScenarioError(f"{field}: {msg}")


def _as_real(value, field: str, *, minimum: float | None = None) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             field, f"expected a number, got {value!r}")
    v = float(value)
    _require(math.isfinite(v), field, "must be finite")
    if minimum is not None:
        _require(v >= minimum, field, f"must be >= {minimum}")
    return v


def _parse_service(obj, field: str):
    _require(isinstance(obj, dict), field, "expected an object")
    kind = obj.get("kind")
    extra = set(obj) - {"kind", "cap", "half", "rate"}
    _require(not extra, field, f"unknown keys {sorted(extra)}")
    cap = _as_real(obj.get("cap"), f"{field}.cap")
    try:
        if kind == "hill":
            _require("rate" not in obj, f"{field}.rate", "hill curves take 'half', not 'rate'")
            return hill(cap, _as_real(obj.get("half"), f"{field}.half"))
        if kind == "saturating-exponential":
            _require("half" not in obj, f"{field}.half",
                     "saturating-exponential curves take 'rate', not 'half'")
            return saturating_exponential(cap, _as_real(obj.get("rate"), f"{field}.rate"))
    except ValueError as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"{field}: {exc}") from exc
    raise ScenarioError(
        f"{field}.kind: unknown service kind {kind!r}; "
        "expected 'hill' or 'saturating-exponential'"
    )


def _parse_system(doc: dict) -> BipartiteSystem:
    for key in ("frontends", "backends", "edges"):
        _require(key in doc, key, "required field is missing")
        _require(isinstance(doc[key], list), key, "expected an array")

    frontends = []
    for i, item in enumerate(doc["frontends"]):
        field = f"frontends[{i}]"
        _require(isinstance(item, dict), field, "expected an object")
        _require(isinstance(item.get("id"), str) and item["id"], f"{field}.id",
                 "expected a nonempty string")
        frontends.append((item["id"], _as_real(item.get("lambda"), f"{field}.lambda", minimum=0.0)))

    backends = []
    for j, item in enumerate(doc["backends"]):
        field = f"backends[{j}]"
        _require(isinstance(item, dict), field, "expected an object")
        _require(isinstance(item.get("id"), str) and item["id"], f"{field}.id",
                 "expected a nonempty string")
        backends.append((item["id"], _parse_service(item.get("service"), f"{field}.service")))

    edges = []
    for k, item in enumerate(doc["edges"]):
        field = f"edges[{k}]"
        _require(isinstance(item, list) and len(item) == 2
                 and all(isinstance(x, str) for x in item),
                 field, "expected a [frontend_id, backend_id] pair")
        edges.append((item[0], item[1]))

    try:
        sys_ = make_system(frontends, backends, edges)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    violations = validate_system(sys_)
    if violations:
        raise ScenarioError("validation failed: " + "; ".join(violations))
    return sys_


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file.

    Raises ScenarioError naming the offending field on any parse or
    validation problem, including systems rejected by validate_system.
    """
    p = Path(path)
    if not p.is_file():
        raise ScenarioError(f"scenario file not found: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"parse error in {p}: {exc}") from exc
    _require(isinstance(doc, dict), str(p), "top level must be a JSON object")

    known = {"description", "frontends", "backends", "edges", "initial", "horizon",
             "integrator", "scales", "seeds", "policy", "out"}
    extra = set(doc) - known
    _require(not extra, str(p), f"unknown top-level fields {sorted(extra)}")

    sys_ = _parse_system(doc)

    initial = np.zeros(len(sys_.backends))
    init_doc = doc.get("initial", {})
    _require(isinstance(init_doc, dict), "initial", "expected an object mapping backend id to workload")
    for bid, value in init_doc.items():
        _require(bid in sys_.backend_index, f"initial.{bid}", "unknown backend id")
        initial[sys_.backend_index[bid]] = _as_real(value, f"initial.{bid}", minimum=0.0)

    horizon = _as_real(doc.get("horizon", 50.0), "horizon")
    _require(horizon > 0, "horizon", "must be positive")

    integ_doc = doc.get("integrator", {})
    _require(isinstance(integ_doc, dict), "integrator", "expected an object")
    extra = set(integ_doc) - {"h", "tie_tol", "mode"}
    _require(not extra, "integrator", f"unknown keys {sorted(extra)}")
    kwargs = {}
    if "h" in integ_doc:
        kwargs["h"] = _as_real(integ_doc["h"], "integrator.h")
    if "tie_tol" in integ_doc:
        kwargs["tie_band"] = _as_real(integ_doc["tie_tol"], "integrator.tie_tol", minimum=0.0)
    if "mode" in integ_doc:
        _require(integ_doc["mode"] in _MODES, "integrator.mode",
                 f"expected one of {list(_MODES)}")
        kwargs["mode"] = integ_doc["mode"]
    try:
        integrator = IntegratorConfig(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"integrator: {exc}") from exc

    scales_doc = doc.get("scales", [100])
    _require(isinstance(scales_doc, list) and scales_doc, "scales", "expected a nonempty array")
    scales = []
    for i, s in enumerate(scales_doc):
        _require(isinstance(s, int) and not isinstance(s, bool) and s >= 1,
                 f"scales[{i}]", "expected a positive integer")
        scales.append(s)

    seeds = doc.get("seeds", 5)
    _require(isinstance(seeds, int) and not isinstance(seeds, bool) and seeds >= 1,
             "seeds", "expected a positive integer")

    policy = doc.get("policy", "gmsr")
    _require(policy in _POLICIES, "policy", f"expected one of {list(_POLICIES)}")

    out = doc.get("out")
    _require(out is None or (isinstance(out, str) and out), "out",
             "expected a nonempty string")

    return Scenario(system=sys_, initial=initial, horizon=horizon,
                    integrator=integrator, scales=tuple(scales), seeds=seeds,
                    policy=policy, out=out)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _out_dir(args, scn: Scenario | None) -> Path:
    out = args.out or (scn.out if scn else None) or "."
    p = Path(out)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def _effective_config(scn: Scenario, args) -> IntegratorConfig:
    cfg = scn.integrator
    if getattr(args, "h", None) is not None:
        cfg = replace(cfg, h=args.h)
    if getattr(args, "tie_tol", None) is not None:
        cfg = replace(cfg, tie_band=args.tie_tol)
    if getattr(args, "mode", None) is not None:
        cfg = replace(cfg, mode=args.mode)
    return cfg


def _serialize_tiers(partition) -> str:
    return ";".join(
        ",".join(t.frontends) + "|" + ",".join(t.backends) for t in partition.tiers
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    scn = load_scenario(args.scenario)
    sys_ = scn.system
    feasible = feasibility_check(sys_)
    print(
        f"ok: {len(sys_.frontends)} frontends, {len(sys_.backends)} backends, "
        f"{len(sys_.edges)} edges; total arrival rate "
        f"{sys_.total_arrival_rate:g}; feasible: {str(feasible).lower()}"
    )
    return 0


def _cmd_optimum(args) -> int:
    scn = load_scenario(args.scenario)
    sys_ = scn.system
    opt = solve_fluid_optimum(sys_)  # raises InfeasibleSystemError -> exit 2
    x_star = {
        f.id: {
            sys_.backend_ids[j]: float(opt.x_star[i, j])
            for j in sys_.backends_of_frontend[i]
        }
        for i, f in enumerate(sys_.frontends)
    }
    out = _out_dir(args, scn)
    _write_json(out / "optimum.json", {
        "n_star": {b: float(v) for b, v in zip(sys_.backend_ids, opt.n_star)},
        "x_star": x_star,
        "objective": float(opt.objective),
        "kkt_residual": float(opt.kkt_residual),
        "rounds": opt.rounds,
        "max_flows": opt.max_flows,
        "bisection_steps": opt.bisection_steps,
    })
    print(f"wrote {out / 'optimum.json'} (objective {opt.objective:.6g})")
    return 0


_CSV_BLOCK = 256  # samples formatted per write: memory stays flat in the run length


def _csv_fields(values) -> list[str]:
    """Each string as ``csv.writer`` writes it inside a row."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    out = []
    for value in values:
        writer.writerow([value])
        out.append(buf.getvalue()[:-2])  # without the "\r\n" row end
        buf.seek(0)
        buf.truncate()
    return out


def _csv_blocks(bids, times, floats, ints=()):
    """CSV text of the rows ``t, backend id, *floats, *ints``, one per sample
    and backend, in blocks of _CSV_BLOCK samples: the bytes ``csv.writer``
    writes for the repr of each float and the str of each int.

    `times` holds one value per sample; each array of `floats` and `ints`
    one row per sample and one column per backend.  A block is one %-format
    of a per-sample row template, and float.__repr__ runs once per distinct
    64-bit pattern in the block: the unique is taken on the bits, not on the
    values, which would merge -0.0 with 0.0.
    """
    nb, nfl = len(bids), 1 + len(floats)
    row = ",".join(["%s"] * (len(floats) + len(ints)))
    sample = "".join(f"%s,{b.replace('%', '%%')},{row}\r\n" for b in _csv_fields(bids))
    r = float.__repr__
    for lo in range(0, len(times), _CSV_BLOCK):
        hi = min(lo + _CSV_BLOCK, len(times))
        vals = np.empty((hi - lo, nb, nfl))
        vals[:, :, 0] = times[lo:hi, None]
        for k, col in enumerate(floats, 1):
            vals[:, :, k] = col[lo:hi]
        bits, inverse = np.unique(vals.view(np.int64), return_inverse=True)
        reprs = np.array([r(v) for v in bits.view(np.float64).tolist()], dtype=object)
        cells = np.empty((hi - lo, nb, nfl + len(ints)), dtype=object)
        cells[:, :, :nfl] = reprs[inverse.reshape(vals.shape)]
        for k, col in enumerate(ints, nfl):
            cells[:, :, k] = col[lo:hi]  # as Python ints
        yield (sample * (hi - lo)) % tuple(cells.ravel().tolist())


def _cmd_fluid(args) -> int:
    scn = load_scenario(args.scenario)
    sys_ = scn.system
    cfg = _effective_config(scn, args)
    traj = integrate_fluid(sys_, scn.initial, scn.horizon, cfg)
    out = _out_dir(args, scn)

    idx = np.arange(0, len(traj), args.thin)
    if idx[-1] != len(traj) - 1:
        idx = np.append(idx, len(traj) - 1)  # the last row, off the thinning grid
    times, states = traj.times[idx], traj.states[idx]
    traj_path = out / "trajectory.csv"
    with traj_path.open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "backend_id", "workload", "service_rate", "gradient", "inflow"])
        fh.writelines(_csv_blocks(sys_.backend_ids, times, (
            states, sys_.rates_at(states), sys_.gradients_at(states), traj.inflows[idx])))

    events_path = out / "events.csv"
    kinds: dict[str, int] = {}
    with events_path.open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "kind", "tiers"])
        for ev in traj.events:
            w.writerow([repr(float(ev.time)), ev.kind, _serialize_tiers(ev.tiers)])
            kinds[ev.kind] = kinds.get(ev.kind, 0) + 1

    # what `report` copies; the times strictly increase, so each sample is
    # one run of equal t in trajectory.csv
    _write_json(out / "fluid.json", {
        "fluid": {
            "samples": len(idx),
            "backends": sorted(sys_.backend_ids),
            "final_time": float(times[-1]),
            "final_workloads": {b: float(v) for b, v in zip(sys_.backend_ids, states[-1])},
        },
        "events": {"count": sum(kinds.values()), "by_kind": kinds},
    })

    print(
        f"wrote {traj_path} ({len(traj)} samples x {len(sys_.backends)} backends), "
        f"{events_path} ({len(traj.events)} events) and {out / 'fluid.json'}"
    )
    return 0


def _cmd_simulate(args) -> int:
    scn = load_scenario(args.scenario)
    sys_ = scn.system
    scales = args.scales if args.scales is not None else scn.scales
    seeds = args.seeds if args.seeds is not None else scn.seeds
    policy = args.policy if args.policy is not None else scn.policy
    _require(args.seed_base + seeds <= 2**64, "--seed-base",
             f"runs use seeds up to seed_base + {seeds - 1}, which must be below 2^64")
    out = _out_dir(args, scn)

    runs = []
    for c in scales:
        for k in range(seeds):
            seed = args.seed_base + k
            run = simulate(sys_, scn.initial, c, scn.horizon,
                           policy=policy, seed=seed, thin=args.thin)
            name = f"sim_c{c}_s{seed}.csv"
            with (out / name).open("w", newline="", encoding="utf-8") as fh:
                w = csv.writer(fh)
                w.writerow(["t", "backend_id", "workload", "arrivals", "departures"])
                fh.writelines(_csv_blocks(sys_.backend_ids, run.times, (run.y,),
                                          (run.arrivals, run.departures)))
            runs.append({
                "scale": c,
                "seed": seed,
                "file": name,
                "records": len(run),
                "steps": run.steps,
                "clamps": int(run.clamps.sum()),
                "final": {b: float(v) for b, v in zip(sys_.backend_ids, run.y[-1])},
            })

    _write_json(out / "summary.json", {
        "policy": policy,
        "horizon": scn.horizon,
        "thin": args.thin,
        "seed_base": args.seed_base,
        "scales": list(scales),
        "seeds": seeds,
        "runs": runs,
    })
    print(f"wrote {len(runs)} run files and {out / 'summary.json'}")
    return 0


def _cmd_overload(args) -> int:
    scn = load_scenario(args.scenario)
    sys_ = scn.system
    eq = equilibrium_rates(sys_)
    feasible = eq.feasible
    out = _out_dir(args, scn)
    _write_json(out / "overload.json", {
        "feasible": feasible,
        "note": "feasible" if feasible else "overloaded",
        "stable_frontends": sorted(eq.decomposition.frontends),
        "stable_backends": sorted(eq.decomposition.backends),
        "equilibrium_rates": {b: float(v) for b, v in zip(sys_.backend_ids, eq.rates)},
        "equilibrium_workloads": {
            b: (None if math.isinf(v) else float(v))
            for b, v in zip(sys_.backend_ids, eq.workloads)
        },
        "opt_tp": float(eq.throughput),
        "total_equilibrium_rate": float(eq.rates.sum()),
    })
    print(f"wrote {out / 'overload.json'} ({'feasible' if feasible else 'overloaded'})")
    return 0


def _cmd_certify(args) -> int:
    scn = load_scenario(args.scenario)
    sys_ = scn.system
    cfg = _effective_config(scn, args)
    slack = capacity_slack(sys_)  # raises on infeasible -> 2, before integrating
    traj = integrate_fluid(sys_, scn.initial, scn.horizon, cfg)
    cert = certify_trajectory(sys_, traj, slack)
    out = _out_dir(args, scn)
    _write_json(out / "certificate.json", {
        "v": [float(v) for v in cert.v],
        "entry_time": None if cert.entry_time is None else float(cert.entry_time),
        "fitted_rate": None if cert.fitted_rate is None else float(cert.fitted_rate),
        "violations": list(cert.violations),
        "ok": cert.ok,
        "kernel": asdict(traj.stats),
    })
    status = "ok" if cert.ok else f"{len(cert.violations)} violations"
    print(f"wrote {out / 'certificate.json'} ({status})")
    return 0


def _cmd_report(args) -> int:
    out = _out_dir(args, None)
    report: dict = {"sources": [], "totals": {}}
    totals = report["totals"]

    opt_path = out / "optimum.json"
    if opt_path.is_file():
        report["optimum"] = opt = json.loads(opt_path.read_text(encoding="utf-8"))
        report["sources"].append(opt_path.name)
        totals.update(rounds=opt["rounds"], max_flows=opt["max_flows"])

    fluid_path = out / "fluid.json"
    if fluid_path.is_file():
        doc = json.loads(fluid_path.read_text(encoding="utf-8"))
        report.update(fluid=doc["fluid"], events=doc["events"])
        report["sources"].append(fluid_path.name)
    for name in ("trajectory.csv", "events.csv"):
        if (out / name).is_file():
            report["sources"].append(name)

    summary_path = out / "summary.json"
    if summary_path.is_file():
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        report["simulate"] = summary
        report["sources"].append(summary_path.name)
        runs = summary.get("runs", [])
        for run in runs:
            run_path = out / run.get("file", "")
            if run_path.is_file():
                report["sources"].append(run_path.name)
        totals.update({key: sum(run[key] for run in runs) for key in ("steps", "clamps")})

    overload_path = out / "overload.json"
    if overload_path.is_file():
        report["overload"] = json.loads(overload_path.read_text(encoding="utf-8"))
        report["sources"].append(overload_path.name)

    cert_path = out / "certificate.json"
    if cert_path.is_file():
        cert = json.loads(cert_path.read_text(encoding="utf-8"))
        report["certificate"] = {
            "ok": cert["ok"],
            "entry_time": cert["entry_time"],
            "fitted_rate": cert["fitted_rate"],
            "violations": cert["violations"],
            "v_samples": len(cert["v"]),
            "v_first": cert["v"][0] if cert["v"] else None,
            "v_final": cert["v"][-1] if cert["v"] else None,
            "kernel": cert.get("kernel"),
        }
        report["sources"].append(cert_path.name)
        kernel = cert.get("kernel") or {}
        totals.update({key: kernel[key] for key in ("maxflow_witnesses", "cuts") if key in kernel})

    if not report["sources"]:
        raise ScenarioError(f"nothing to report: no known output files in {out}")
    _write_json(out / "report.json", report)
    print(f"wrote {out / 'report.json'} from {len(report['sources'])} source files")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # raise instead of exiting so callers get code 1
        raise ScenarioError(message)


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("scales must be positive integers")
    return values


def _positive_real(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not (math.isfinite(v) and v > 0):
        raise argparse.ArgumentTypeError("must be positive and finite")
    return v


def _seed(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if not 0 <= v < 2**64:
        raise argparse.ArgumentTypeError("must be an integer in [0, 2^64)")
    return v


def _positive_int(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if v < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return v


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The gmsr parser, built on the first call and shared by the later ones
    in the process: parsing leaves no state in it."""
    parser = _Parser(prog="gmsr", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, *, scenario=True, out=True, integrator=False,
            sim=False, thin=False):
        p = sub.add_parser(name)
        if scenario:
            p.add_argument("scenario", help="path to a scenario JSON file")
        if out:
            p.add_argument("--out", help="output directory (default: scenario 'out' or '.')")
        if integrator:
            p.add_argument("--h", type=_positive_real, help="integrator step size")
            p.add_argument("--tie-tol", type=_positive_real, dest="tie_tol",
                           help="gradient tie tolerance")
            p.add_argument("--mode", choices=_MODES, help="integrator mode")
        if sim:
            p.add_argument("--scales", type=_int_list,
                           help="comma-separated scale factors, e.g. 20,100")
            p.add_argument("--seeds", type=_positive_int, help="seeds per scale")
            p.add_argument("--policy", choices=_POLICIES, help="routing policy")
            p.add_argument("--seed-base", type=_seed, dest="seed_base", default=0,
                           help="first seed; run k uses seed_base + k")
        if thin:
            p.add_argument("--thin", type=_positive_int, default=1,
                           help="record every K-th sample")
        p.set_defaults(func=func)
        return p

    add("validate", _cmd_validate, out=False)
    add("optimum", _cmd_optimum)
    add("fluid", _cmd_fluid, integrator=True, thin=True)
    add("simulate", _cmd_simulate, sim=True, thin=True)
    add("overload", _cmd_overload)
    add("certify", _cmd_certify, integrator=True)
    add("report", _cmd_report, scenario=False)
    return parser


def run_command(argv=None) -> int:
    """Run one CLI invocation; return the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except ScenarioError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    except InfeasibleSystemError as exc:
        print(f"infeasible: {exc}", file=_sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - boundary: map any failure to exit 3
        print(f"failure: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return 3


def main() -> None:
    raise SystemExit(run_command())


if __name__ == "__main__":
    main()
