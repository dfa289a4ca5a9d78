"""Checks of the benchmark itself: its inputs, its wrappers and its contract.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (HERE, ROOT / "src", ROOT / "tests"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import gmsr  # noqa: E402
import gmsr.cli  # noqa: E402
import gmsr.diagnostics as dg  # noqa: E402
import gmsr.fluid_dyn as fd  # noqa: E402
import gmsr.fluid_opt as fo  # noqa: E402
import gmsr.flownet as fn  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
import spans as sp  # noqa: E402


def _same_system(a, b) -> bool:
    return (a.frontend_ids == b.frontend_ids and a.backend_ids == b.backend_ids
            and a.edges == b.edges and a.lambdas == b.lambdas
            and a.services == b.services)


def test_battery_inputs_match_acceptance_criterion_3():
    from support import feasible_random_system

    rng = np.random.default_rng(inputs.BATTERY_SEED)
    systems, starts = inputs.battery_inputs()
    for k in range(inputs.BATTERY_SYSTEMS):
        expected = feasible_random_system(rng)
        assert _same_system(systems[k], expected)
        for n0 in starts[k]:
            assert np.array_equal(n0, rng.uniform(0.0, 10.0, size=len(expected.backends)))


def test_wide_inputs_are_pinned_and_feasible():
    first, second = inputs.wide_inputs(), inputs.wide_inputs()
    for (la, sa, na, ha), (lb, sb, nb, hb) in zip(first, second):
        assert la == lb and ha == hb and np.array_equal(na, nb)
        assert _same_system(sa, sb)
        assert fn.feasibility_check(sa)
        assert len(sa.frontends) > 12  # capacity_slack takes the min-cut path


@pytest.fixture
def recorder():
    rec = sp.Recorder()
    rec.install()
    yield rec
    rec.uninstall()


def test_wrappers_cover_every_binding(recorder):
    bound = set(recorder.bindings())
    for name in ("gmsr.fluid_dyn.transportation_feasible", "gmsr.diagnostics.max_flow",
                 "gmsr.diagnostics.solve_fluid_optimum", "gmsr.cli.integrate_fluid",
                 "gmsr.cli.solve_fluid_optimum", "gmsr.fluid_opt.kkt_residual",
                 "gmsr.integrate_fluid", "gmsr.flownet.max_flow"):
        assert name in bound
    recorder.uninstall()
    assert gmsr.diagnostics.max_flow is fn.max_flow
    assert not hasattr(fn.max_flow, "__wrapped__")


def test_wrapper_returns_the_callees_object():
    rec = sp.Recorder()
    sentinel = object()
    wrapped = rec.wrap("x.f", lambda *a, **k: sentinel)
    assert wrapped(1, k=2) is sentinel
    assert [s.name for s in rec.spans] == ["x.f"]
    with pytest.raises(ZeroDivisionError):
        rec.wrap("x.g", lambda: 1 / 0)()
    assert rec.spans[-1].end >= rec.spans[-1].start and not rec._stack


def test_wrapped_calls_give_the_unwrapped_values():
    sys_ = inputs.wide_system(16, 16, 1)
    n0 = np.random.default_rng(102).uniform(0.0, 10.0, size=16)
    plain_traj = fd.integrate_fluid(sys_, n0, 0.3)
    plain_opt = fo.solve_fluid_optimum(sys_)
    plain_cert = dg.certify_trajectory(sys_, plain_traj)

    rec = sp.Recorder()
    rec.install()
    try:
        traj = fd.integrate_fluid(sys_, n0, 0.3)
        opt = fo.solve_fluid_optimum(sys_)
        cert = dg.certify_trajectory(sys_, traj)
    finally:
        rec.uninstall()

    for name in ("times", "states", "routings", "inflows"):
        assert np.array_equal(getattr(traj, name), getattr(plain_traj, name))
    assert traj.events == plain_traj.events
    assert np.array_equal(opt.n_star, plain_opt.n_star)
    assert np.array_equal(opt.x_star, plain_opt.x_star)
    assert np.array_equal(cert.v, plain_cert.v) and cert.violations == plain_cert.violations
    names = {s.name for s in rec.spans}
    assert {"fluid_dyn.integrate_fluid", "flownet.transportation_feasible",
            "flownet.max_flow", "diagnostics.capacity_slack"} <= names
    layers = sp.layer_metrics(rec.spans)
    assert layers["diagnostics.optimum_solves_per_certify"] == 2.0
    assert layers["fluid_dyn.integrate_fluid.calls"] == 1.0
    assert (layers["flownet.transportation_feasible.kernel_calls"]
            <= layers["flownet.transportation_feasible.calls"])


def test_self_time_subtracts_direct_children():
    rec = sp.Recorder()
    outer = rec.open("outer")
    inner = rec.open("inner")
    rec.close(inner)
    rec.close(outer)
    rec.spans[outer].start, rec.spans[outer].end = 0.0, 5.0
    rec.spans[inner].start, rec.spans[inner].end = 1.0, 3.0
    kids = sp.children_of(rec.spans)
    assert sp.self_time(rec.spans, outer, kids) == 3.0
    assert list(sp.descendants(rec.spans, outer, kids)) == [inner]
    assert sp.within(rec.spans, inner, "outer") and not sp.within(rec.spans, outer, "inner")


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(sp.LAYER_METRICS)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
