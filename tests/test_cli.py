"""Tests for the command-line interface: scenario parsing, subcommand
outputs, exit codes, and the report round-trip guarantee."""

import csv
import hashlib
import io
import json
import math
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

from gmsr.cli import Scenario, ScenarioError, _csv_blocks, load_scenario, run_command
from gmsr.fluid_dyn import IntegratorConfig, integrate_fluid
from gmsr.fluid_opt import solve_fluid_optimum
from gmsr.stochastic import simulate

from support import acceptance_system, report_blocks_from_csv, scenario_doc

SCENARIOS = Path(str(files("gmsr").joinpath("scenarios")))


def _scenario_doc(**overrides):
    doc = {
        "frontends": [{"id": "f1", "lambda": 0.4}, {"id": "f2", "lambda": 0.6}],
        "backends": [
            {"id": "b1", "service": {"kind": "hill", "cap": 1.0, "half": 1.0}},
            {"id": "b2", "service": {"kind": "hill", "cap": 1.0, "half": 2.0}},
        ],
        "edges": [["f1", "b1"], ["f2", "b1"], ["f2", "b2"]],
        "initial": {"b1": 0.0, "b2": 0.0},
        "horizon": 20.0,
        "integrator": {"h": 0.001, "tie_tol": 0.001, "mode": "sliding"},
        "scales": [20],
        "seeds": 2,
        "policy": "gmsr",
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def scenario_file(tmp_path):
    def write(name="scn.json", **overrides):
        p = tmp_path / name
        p.write_text(json.dumps(_scenario_doc(**overrides)), encoding="utf-8")
        return str(p)

    return write


# ---------------------------------------------------------------------------
# scenario loading


def test_bundled_scenarios_load():
    for name in ("n_model", "fig1", "overload_disjoint", "overload_nmodel"):
        scn = load_scenario(SCENARIOS / f"{name}.json")
        assert isinstance(scn, Scenario)
        assert scn.horizon > 0
        assert all(s >= 1 for s in scn.scales)
    nm = load_scenario(SCENARIOS / "n_model.json")
    assert [f.lam for f in nm.system.frontends] == [0.4, 0.6]
    assert nm.system.backend_ids == ("b1", "b2")
    fig1 = load_scenario(SCENARIOS / "fig1.json")
    assert len(fig1.system.frontends) == 4
    assert [b.service.cap for b in fig1.system.backends] == [12, 8, 4, 8, 12]
    assert np.allclose(fig1.system.gradients_at(fig1.initial), [3, 2, 1, 2, 3])


def test_load_scenario_defaults(tmp_path):
    p = tmp_path / "minimal.json"
    doc = _scenario_doc()
    for key in ("initial", "horizon", "integrator", "scales", "seeds", "policy"):
        del doc[key]
    p.write_text(json.dumps(doc), encoding="utf-8")
    scn = load_scenario(p)
    assert np.all(scn.initial == 0.0)
    assert scn.horizon == 50.0
    assert scn.integrator.h == 1e-3
    assert scn.scales == (100,)
    assert scn.policy == "gmsr"
    assert scn.out is None


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ScenarioError, match="not found"):
        load_scenario(tmp_path / "nope.json")


def test_load_scenario_parse_error_names_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"frontends": [,]}', encoding="utf-8")
    with pytest.raises(ScenarioError, match="parse error.*line"):
        load_scenario(p)


@pytest.mark.parametrize(
    "overrides, pattern",
    [
        ({"backends": [{"id": "b1", "service": {"kind": "gompertz", "cap": 1.0}}],
          "edges": [["f1", "b1"], ["f2", "b1"]], "initial": {}},
         r"backends\[0\]\.service\.kind"),
        ({"backends": [{"id": "b1", "service": {"kind": "hill", "cap": 1.0, "half": 1.0, "rate": 2.0}}],
          "edges": [["f1", "b1"], ["f2", "b1"]], "initial": {}},
         r"backends\[0\]\.service"),
        ({"edges": [["f1", "b1"], ["f2", "b1"]]}, "isolated"),
        ({"edges": [["f1", "b9"], ["f2", "b1"], ["f2", "b2"]]}, "b9"),
        ({"initial": {"b9": 1.0}}, r"initial\.b9"),
        ({"initial": {"b1": -1.0, "b2": 0.0}}, r"initial\.b1"),
        ({"horizon": -5.0}, "horizon"),
        ({"horizon": "long"}, "horizon"),
        ({"scales": [0]}, r"scales\[0\]"),
        ({"scales": []}, "scales"),
        ({"seeds": 0}, "seeds"),
        ({"policy": "greedy"}, "policy"),
        ({"integrator": {"mode": "rk4"}}, r"integrator\.mode"),
        ({"integrator": {"dt": 0.1}}, "integrator"),
        ({"unexpected": 1}, "unexpected"),
        ({"frontends": [{"id": "f1"}]}, r"frontends\[0\]\.lambda"),
    ],
)
def test_load_scenario_field_errors(tmp_path, overrides, pattern):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(_scenario_doc(**overrides)), encoding="utf-8")
    with pytest.raises(ScenarioError, match=pattern):
        load_scenario(p)


# ---------------------------------------------------------------------------
# exit codes


def test_exit_codes(tmp_path, scenario_file, capsys):
    assert run_command(["validate", str(SCENARIOS / "n_model.json")]) == 0
    assert "feasible: true" in capsys.readouterr().out

    assert run_command(["validate", str(tmp_path / "missing.json")]) == 1
    assert run_command(["frobnicate", "x.json"]) == 1
    assert run_command(["--help"]) == 0
    capsys.readouterr()

    # infeasibility where feasibility is required
    over = str(SCENARIOS / "overload_nmodel.json")
    assert run_command(["optimum", over, "--out", str(tmp_path)]) == 2
    assert run_command(["certify", over, "--out", str(tmp_path)]) == 2
    assert "infeasible" in capsys.readouterr().err

    # but overload and validate accept overloaded systems
    assert run_command(["validate", over]) == 0
    assert run_command(["overload", over, "--out", str(tmp_path)]) == 0

    # report with nothing to read
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_command(["report", "--out", str(empty)]) == 1


@pytest.mark.parametrize("argv", [
    ["fluid", "--h", "-1"],
    ["fluid", "--h", "0"],
    ["fluid", "--h", "nan"],
    ["certify", "--h", "0"],
    ["fluid", "--tie-tol", "-1"],
    ["fluid", "--tie-tol", "0"],
    ["fluid", "--tie-tol", "nan"],
    ["certify", "--tie-tol", "nan"],
    ["simulate", "--seed-base", "-1"],
    ["simulate", "--seed-base", str(2**64)],
    ["simulate", "--seed-base", str(2**64 - 1), "--seeds", "2"],
])
def test_bad_flags_exit_1(tmp_path, capsys, argv):
    command, *flags = argv
    code = run_command([command, str(SCENARIOS / "n_model.json"), "--out", str(tmp_path),
                        *flags])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")
    assert not any(tmp_path.iterdir())  # refused before writing anything


def test_optimum_exits_3_when_the_solver_does_not_converge(tmp_path, monkeypatch, capsys):
    import gmsr.fluid_opt

    # fig1 needs three decomposition rounds; no optimum passes a KKT check of 1
    monkeypatch.setattr(gmsr.fluid_opt, "kkt_residual", lambda *args: 1.0)
    assert run_command(["optimum", str(SCENARIOS / "fig1.json"), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "ConvergenceError" in err and "after 3 rounds" in err
    assert not (tmp_path / "optimum.json").exists()


def test_optimum_exits_0_near_capacity(tmp_path, scenario_file, capsys):
    scn_path = scenario_file(
        frontends=[{"id": "f1", "lambda": 1.0 - 1e-10}],
        backends=[{"id": "b1", "service": {"kind": "hill", "cap": 1.0, "half": 1.0}}],
        edges=[["f1", "b1"]],
        initial={"b1": 0.0},
    )
    assert run_command(["validate", scn_path]) == 0
    assert "feasible: true" in capsys.readouterr().out
    assert run_command(["optimum", scn_path, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "optimum.json").read_text())
    assert doc["kkt_residual"] <= 1e-8


def test_overload_solves_a_stable_part_near_capacity(tmp_path, scenario_file):
    # f1 overloads b1; the stable part f2 -> b2 runs within 1e-10 of b2's cap
    scn_path = scenario_file(
        frontends=[{"id": "f1", "lambda": 5.0}, {"id": "f2", "lambda": 1.0 - 1e-10}],
        backends=[{"id": b, "service": {"kind": "hill", "cap": 1.0, "half": 1.0}}
                  for b in ("b1", "b2")],
        edges=[["f1", "b1"], ["f2", "b2"]],
        initial={"b1": 0.0, "b2": 0.0},
    )
    assert run_command(["overload", scn_path, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "overload.json").read_text())
    assert doc["stable_backends"] == ["b2"]
    assert doc["equilibrium_rates"] == {"b1": 1.0, "b2": 1.0 - 1e-10}
    assert doc["total_equilibrium_rate"] == doc["opt_tp"] == 2.0 - 1e-10


# ---------------------------------------------------------------------------
# subcommand outputs


def test_optimum_output_matches_solver(tmp_path, scenario_file):
    scn_path = scenario_file()
    assert run_command(["optimum", scn_path, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "optimum.json").read_text())
    scn = load_scenario(scn_path)
    opt = solve_fluid_optimum(scn.system)
    assert doc["n_star"] == {
        b: float(v) for b, v in zip(scn.system.backend_ids, opt.n_star)
    }
    assert doc["objective"] == float(opt.objective)
    assert doc["kkt_residual"] <= 1e-8
    assert set(doc) == {"n_star", "x_star", "objective", "kkt_residual",
                        "rounds", "max_flows", "bisection_steps"}
    assert (doc["rounds"], doc["max_flows"], doc["bisection_steps"]) == (
        opt.rounds, opt.max_flows, opt.bisection_steps)
    for fid, row in doc["x_star"].items():
        assert math.isclose(sum(row.values()), 1.0, abs_tol=1e-9), fid
    assert np.allclose(list(doc["n_star"].values()), math.sqrt(2))


def test_fluid_outputs(tmp_path, scenario_file):
    scn_path = scenario_file(horizon=5.0)
    assert run_command(["fluid", scn_path, "--out", str(tmp_path), "--thin", "10"]) == 0

    with (tmp_path / "trajectory.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["t", "backend_id", "workload", "service_rate",
                             "gradient", "inflow"]
    # 5001 grid points thinned by 10 -> 501 samples (the last index, 5000,
    # falls on the thinning grid, so no extra final row is appended)
    assert len(rows) == 501 * 2
    assert rows[0]["t"] == "0.0" and rows[0]["backend_id"] == "b1"
    scn = load_scenario(scn_path)
    # each row's derived columns are consistent with the model at its workload
    for r in rows[:6] + rows[-2:]:
        j = scn.system.backend_index[r["backend_id"]]
        state = np.zeros(2)
        state[j] = float(r["workload"])
        assert math.isclose(float(r["service_rate"]),
                            scn.system.rates_at(state)[j], abs_tol=1e-12)
        assert math.isclose(float(r["gradient"]),
                            scn.system.gradients_at(state)[j], abs_tol=1e-12)

    with (tmp_path / "events.csv").open(newline="") as fh:
        ev_rows = list(csv.DictReader(fh))
    assert list(ev_rows[0]) == ["t", "kind", "tiers"] if ev_rows else True
    for r in ev_rows:
        float(r["t"])
        assert r["kind"] in ("split", "slide", "reconfigure")
        for tier in r["tiers"].split(";"):
            fpart, bpart = tier.split("|")
            assert bpart  # backends never empty
            for bid in bpart.split(","):
                assert bid in scn.system.backend_index
            for fid in filter(None, fpart.split(",")):
                assert fid in scn.system.frontend_index


def test_fluid_events_csv_holds_the_copied_events_of_an_orbit(tmp_path):
    # acceptance system 0 under strict argmax chatters into a period-253
    # orbit near row 20,487; integrate_fluid builds the events of its later
    # periods when they are read, and events.csv holds every one of them
    sys, n0 = acceptance_system(0)
    scn_path = tmp_path / "chatter.json"
    scn_path.write_text(json.dumps(scenario_doc(sys, n0, 40.0)), encoding="utf-8")
    out = tmp_path / "out"
    assert run_command(["fluid", str(scn_path), "--mode", "strict-argmax", "--thin", "1000",
                        "--out", str(out)]) == 0
    with (out / "events.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "kind", "tiers"]
    traj = integrate_fluid(sys, n0, 40.0, IntegratorConfig(mode="strict-argmax"))
    assert len(traj.events) > 20000
    assert rows[1:] == [
        [repr(ev.time), ev.kind,
         ";".join(",".join(t.frontends) + "|" + ",".join(t.backends) for t in ev.tiers)]
        for ev in traj.events
    ]
    # fluid.json counts the copied events as they are written, and report
    # copies the counts that parsing the CSVs gives
    assert run_command(["report", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    oracle = report_blocks_from_csv(out)
    assert oracle["events"]["count"] == len(traj.events)
    assert {k: report[k] for k in oracle} == oracle


# sha256 of what `gmsr fluid` and `gmsr certify` write on bundled scenarios,
# recorded from the integrator that stepped every row of a tier of several
# backends through the kernel.  Their Hill curves use only correctly rounded
# arithmetic, so the files do not depend on the platform's libm.  The
# certificate's fitted_rate goes through np.log and a least-squares fit, so
# it is compared to 12 digits and its digest is of the rest of the document.
# fluid.json's digests were recorded when `gmsr fluid` began writing it; its
# blocks equal those `gmsr report` parsed from the two CSVs before then
_OUTPUT_PINS = {
    ("fluid", "n_model"): {
        "trajectory.csv": "b195a7c609ba6eb4ff32a6785109747b4d0831d3c6bd241f88964b1d0315a42d",
        "events.csv": "2ef946a7655bb71949d47b496a7848a9b9cd0e80448239d391f71d17795b641e",
        "fluid.json": "42281cc25aa340ea69f0688543281b375c79055425e15c8f6fb5894b1ea770a5",
    },
    ("certify", "n_model"): {
        "certificate.json": ("12f369bb27f6a73d16ef8c20592aed1777b0ea2842161c850f17f3d6582713e8",
                             0.1803887350155864),
    },
    ("fluid", "fig1"): {
        "trajectory.csv": "435a0741758de798d038fb87ae3b1d57fd2d390207c35cb6fe9c38da3e9a7213",
        "events.csv": "9703d90fa5785ea93415d294d1079344a934a1108ceb496343d5a4ecb3ff2374",
        "fluid.json": "d9cca7ab4b3d64cac30f471f0f7d59e9260fb6f3b4379d35078d44d6294a78f9",
    },
    ("certify", "fig1"): {
        "certificate.json": ("d322394685a96bb01b544c643cc8c6eed689bbd9f7d127a9aea74ef34753a7aa",
                             4.014711545191143),
    },
    # at H = 20 rather than its bundled 500
    ("fluid", "overload_nmodel"): {
        "trajectory.csv": "07a7a7bc829394a4f17cc29d5e08eac172d7911e7bb6510f595280c597f5fac6",
        "events.csv": "9703d90fa5785ea93415d294d1079344a934a1108ceb496343d5a4ecb3ff2374",
        "fluid.json": "ce36d0058d6bb7da412927201fd5633ac89bc3e8ea1ae77e69f4206446fe2fa7",
    },
}


@pytest.mark.parametrize("command, name", list(_OUTPUT_PINS))
def test_fluid_and_certify_write_the_pinned_bytes(tmp_path, command, name):
    # n_model, fig1 and overload_nmodel slide in tiers of two backends
    scn_path = SCENARIOS / f"{name}.json"
    if name == "overload_nmodel":
        doc = json.loads(scn_path.read_text(encoding="utf-8"))
        doc["horizon"] = 20.0
        scn_path = tmp_path / scn_path.name
        scn_path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert run_command([command, str(scn_path), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(_OUTPUT_PINS[command, name])
    for file, pin in _OUTPUT_PINS[command, name].items():
        data = (out / file).read_bytes()
        if file == "certificate.json":
            doc = json.loads(data)
            pin, rate = pin
            assert doc.pop("fitted_rate") == pytest.approx(rate, rel=1e-12)
            data = json.dumps(doc).encode()
        assert hashlib.sha256(data).hexdigest() == pin, file


def test_simulate_file_count_and_content(tmp_path, scenario_file):
    scn_path = scenario_file(horizon=2.0)
    code = run_command(["simulate", scn_path, "--out", str(tmp_path),
                        "--scales", "20,100", "--seeds", "5", "--thin", "4"])
    assert code == 0
    run_files = sorted(tmp_path.glob("sim_c*.csv"))
    assert len(run_files) == 10  # 2 scales x 5 seeds
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["scales"] == [20, 100] and summary["seeds"] == 5
    assert len(summary["runs"]) == 10
    assert {r["file"] for r in summary["runs"]} == {p.name for p in run_files}
    assert all(r["steps"] == 2 * r["scale"] for r in summary["runs"])  # horizon·c

    # spot-check one run file: conservation at the integer level
    rec = next(r for r in summary["runs"] if r["scale"] == 100 and r["seed"] == 3)
    with (tmp_path / rec["file"]).open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_backend: dict[str, list] = {}
    for r in rows:
        by_backend.setdefault(r["backend_id"], []).append(r)
    for series in by_backend.values():
        counts = [round(float(r["workload"]) * 100) for r in series]
        for k in range(1, len(series)):
            flux = int(series[k]["arrivals"]) - int(series[k]["departures"])
            assert counts[k] - counts[k - 1] == flux
    # summary's final workloads equal the file's last records
    last_t = rows[-1]["t"]
    finals = {r["backend_id"]: float(r["workload"]) for r in rows if r["t"] == last_t}
    assert rec["final"] == finals


def test_simulate_summary_counts_the_steps_the_run_took(tmp_path, scenario_file):
    # 2.3·100 is 229.99999999999997 in floats; the run takes 230 steps and
    # ends at t = 2.3, as the fluid path does, and summary.json says so
    code = run_command(["simulate", scenario_file(horizon=2.3), "--out", str(tmp_path),
                        "--scales", "100", "--seeds", "1"])
    assert code == 0
    (rec,) = json.loads((tmp_path / "summary.json").read_text())["runs"]
    assert rec["steps"] == 230 and rec["records"] == 231
    with (tmp_path / rec["file"]).open(newline="") as fh:
        assert list(csv.DictReader(fh))[-1]["t"] == "2.3"


def test_csv_rows_are_the_bytes_csv_writer_writes(tmp_path, scenario_file):
    # backend ids that csv quotes, and runs longer than one block of rows;
    # the reference writes every cell's repr through csv.writer
    quoted = {"b1": 'b,1', "b2": 'b"2'}
    doc = _scenario_doc()
    for b in doc["backends"]:
        b["id"] = quoted[b["id"]]
    scn_path = scenario_file(
        backends=doc["backends"], initial={quoted[b]: v for b, v in doc["initial"].items()},
        edges=[[f, quoted[b]] for f, b in doc["edges"]], horizon=1.0)
    scn = load_scenario(scn_path)
    sys_, bids = scn.system, scn.system.backend_ids

    def reference(header, rows) -> bytes:
        out = tmp_path / "reference.csv"
        with out.open("w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
        return out.read_bytes()

    assert run_command(["fluid", scn_path, "--out", str(tmp_path), "--thin", "3"]) == 0
    traj = integrate_fluid(sys_, scn.initial, scn.horizon, scn.integrator)
    idx = [*range(0, len(traj), 3), len(traj) - 1]
    assert len(idx) > 300
    states = traj.states[idx]
    cols = (states, sys_.rates_at(states), sys_.gradients_at(states), traj.inflows[idx])
    assert (tmp_path / "trajectory.csv").read_bytes() == reference(
        ["t", "backend_id", "workload", "service_rate", "gradient", "inflow"],
        ([repr(float(traj.times[k])), bid, *(repr(float(c[r, j])) for c in cols)]
         for r, k in enumerate(idx) for j, bid in enumerate(bids)))

    assert run_command(["simulate", scn_path, "--out", str(tmp_path), "--scales", "300",
                        "--seeds", "1", "--seed-base", "5"]) == 0
    run = simulate(sys_, scn.initial, 300, scn.horizon, policy=scn.policy, seed=5)
    assert len(run) > 300
    assert (tmp_path / "sim_c300_s5.csv").read_bytes() == reference(
        ["t", "backend_id", "workload", "arrivals", "departures"],
        ([repr(float(run.times[i])), bid, repr(float(run.y[i, j])), int(run.arrivals[i, j]),
          int(run.departures[i, j])] for i in range(len(run)) for j, bid in enumerate(bids)))


def test_block_writer_keeps_signed_zeros_exponents_and_percent_ids():
    # each block holds 0.0 beside -0.0 (a unique on the values would give
    # both one repr), reprs with exponents, and ids that csv quotes or that
    # hold "%"; the reference writes every cell through csv.writer
    bids = ["b%s", 'b,"%d"', "100%"]
    edges = np.array([0.0, -0.0, 1e-05, 1e+16, -2.5e-300, 0.1, 1.0, -0.0, 0.0, 3e-17])
    samples = 600  # two whole blocks and a part
    times = np.arange(samples) * 1e-05
    floats = [np.resize(np.roll(edges, k), (samples, len(bids))) for k in range(3)]
    ints = [np.arange(samples * len(bids)).reshape(samples, -1) % 7 - 3]
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(
        [repr(float(times[i])), bid, *(repr(float(f[i, j])) for f in floats),
         *(int(c[i, j]) for c in ints)]
        for i in range(samples) for j, bid in enumerate(bids))
    assert "".join(_csv_blocks(bids, times, floats, ints)) == buf.getvalue()


def test_simulate_deterministic_per_seed_base(tmp_path, scenario_file):
    scn_path = scenario_file(horizon=1.0)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run_command(["simulate", scn_path, "--out", str(out),
                            "--scales", "50", "--seeds", "1",
                            "--seed-base", "7"]) == 0
    assert (out1 / "sim_c50_s7.csv").read_text() == (out2 / "sim_c50_s7.csv").read_text()


def test_overload_output(tmp_path):
    assert run_command(["overload", str(SCENARIOS / "overload_disjoint.json"),
                        "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "overload.json").read_text())
    assert doc["note"] == "overloaded" and doc["feasible"] is False
    assert doc["stable_frontends"] == ["f2"]
    assert doc["stable_backends"] == ["b2"]
    assert doc["equilibrium_workloads"]["b1"] is None  # divergent
    assert math.isclose(doc["equilibrium_workloads"]["b2"], 4 / 3)
    assert doc["equilibrium_rates"] == {"b1": 1.0, "b2": 0.4}
    assert doc["opt_tp"] == 1.4
    assert math.isclose(doc["total_equilibrium_rate"], 1.4)


def test_overload_on_feasible_system(tmp_path, scenario_file):
    assert run_command(["overload", scenario_file(), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "overload.json").read_text())
    assert doc["note"] == "feasible" and doc["feasible"] is True
    assert doc["stable_frontends"] == ["f1", "f2"]
    assert doc["stable_backends"] == ["b1", "b2"]
    assert all(v is not None for v in doc["equilibrium_workloads"].values())


def test_certify_refuses_an_infeasible_system_before_integrating(tmp_path, monkeypatch, capsys):
    import gmsr.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("integrate_fluid called on an infeasible system")

    monkeypatch.setattr(cli, "integrate_fluid", never)
    for name in ("overload_disjoint", "overload_nmodel"):
        capsys.readouterr()
        assert run_command(["certify", str(SCENARIOS / f"{name}.json"),
                            "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("infeasible: ")
    assert not (tmp_path / "certificate.json").exists()


def test_certify_output(tmp_path, scenario_file):
    scn_path = scenario_file(horizon=20.0)
    assert run_command(["certify", scn_path, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "certificate.json").read_text())
    assert set(doc) == {"v", "entry_time", "fitted_rate", "violations", "ok", "kernel"}
    assert doc["kernel"]["patterns"] >= 1
    assert set(doc["kernel"]) == {"tree_misses", "maxflow_witnesses", "cuts", "patterns"}
    assert doc["ok"] is True and doc["violations"] == []
    assert doc["entry_time"] == 0.0  # the origin lies inside the invariant set
    assert len(doc["v"]) == 20001
    assert doc["v"][0] == pytest.approx(1.0)
    assert doc["v"][-1] < 1e-2
    assert doc["fitted_rate"] > 0


def test_report_copies_sources_exactly(tmp_path, scenario_file):
    scn_path = scenario_file(horizon=5.0)
    out = str(tmp_path)
    assert run_command(["optimum", scn_path, "--out", out]) == 0
    assert run_command(["fluid", scn_path, "--out", out, "--thin", "10"]) == 0
    assert run_command(["simulate", scn_path, "--out", out,
                        "--scales", "20", "--seeds", "2", "--thin", "4"]) == 0
    assert run_command(["overload", scn_path, "--out", out]) == 0
    assert run_command(["certify", scn_path, "--out", out]) == 0
    assert run_command(["report", "--out", out]) == 0

    report = json.loads((tmp_path / "report.json").read_text())
    assert report["optimum"] == json.loads((tmp_path / "optimum.json").read_text())
    assert report["overload"] == json.loads((tmp_path / "overload.json").read_text())
    assert report["simulate"] == json.loads((tmp_path / "summary.json").read_text())
    assert [r["steps"] for r in report["simulate"]["runs"]] == [100, 100]

    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert report["certificate"]["v_final"] == cert["v"][-1]
    assert report["certificate"]["ok"] == cert["ok"]

    with (tmp_path / "trajectory.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    last_t = rows[-1]["t"]
    finals = {r["backend_id"]: float(r["workload"]) for r in rows if r["t"] == last_t}
    assert report["fluid"]["final_workloads"] == finals
    assert report["fluid"]["final_time"] == float(last_t)
    assert "trajectory.csv" in report["sources"]
    assert "sim_c20_s1.csv" in report["sources"]

    # the work counts, summed over the chain runs and copied from the rest
    opt = report["optimum"]
    runs = report["simulate"]["runs"]
    assert report["totals"] == {
        "rounds": opt["rounds"], "max_flows": opt["max_flows"],
        "steps": 200, "clamps": runs[0]["clamps"] + runs[1]["clamps"],
        "maxflow_witnesses": cert["kernel"]["maxflow_witnesses"], "cuts": cert["kernel"]["cuts"],
    }


@pytest.mark.parametrize("thin, quoted", [(1, False), (7, False), (10, False), (7, True)])
def test_report_copies_what_the_csv_oracle_parses(tmp_path, scenario_file, thin, quoted):
    # --thin 7 leaves the last row off the thinning grid; quoted ids are
    # csv-quoted in trajectory.csv and hold "%"
    ids = {"b1": 'b,1%', "b2": 'b"2'} if quoted else {"b1": "b1", "b2": "b2"}
    doc = _scenario_doc()
    for b in doc["backends"]:
        b["id"] = ids[b["id"]]
    scn_path = scenario_file(
        backends=doc["backends"], initial={ids[b]: v for b, v in doc["initial"].items()},
        edges=[[f, ids[b]] for f, b in doc["edges"]], horizon=5.0)
    assert run_command(["fluid", scn_path, "--out", str(tmp_path), "--thin", str(thin)]) == 0
    assert run_command(["report", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    oracle = report_blocks_from_csv(tmp_path)
    assert oracle["fluid"]["samples"] == -(-5000 // thin) + 1  # rows 0, thin, ... and 5000
    assert json.loads((tmp_path / "fluid.json").read_text(encoding="utf-8")) == oracle
    assert {k: report[k] for k in oracle} == oracle
    assert report["sources"] == ["fluid.json", "trajectory.csv", "events.csv"]


def test_report_lists_csvs_without_fluid_json(tmp_path, scenario_file):
    # an --out directory from before fluid.json: the CSVs are listed, and no
    # fluid or events block is made up from them
    assert run_command(["fluid", scenario_file(horizon=1.0), "--out", str(tmp_path)]) == 0
    (tmp_path / "fluid.json").unlink()
    assert run_command(["report", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report == {"sources": ["trajectory.csv", "events.csv"], "totals": {}}


def test_report_totals_hold_only_the_sources_present(tmp_path, scenario_file):
    scn_path = scenario_file(horizon=2.0)
    out = str(tmp_path)
    assert run_command(["certify", scn_path, "--out", out]) == 0
    assert run_command(["report", "--out", out]) == 0
    kernel = json.loads((tmp_path / "certificate.json").read_text())["kernel"]
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["totals"] == {"maxflow_witnesses": kernel["maxflow_witnesses"],
                                "cuts": kernel["cuts"]}
    assert run_command(["fluid", scn_path, "--out", out]) == 0
    (tmp_path / "certificate.json").unlink()
    assert run_command(["report", "--out", out]) == 0
    assert json.loads((tmp_path / "report.json").read_text())["totals"] == {}


def test_flag_overrides_scenario(tmp_path, scenario_file):
    scn_path = scenario_file(horizon=2.0)
    assert run_command(["fluid", scn_path, "--out", str(tmp_path),
                        "--h", "0.01"]) == 0
    with (tmp_path / "trajectory.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 201 * 2  # coarser grid than the scenario's h=1e-3
