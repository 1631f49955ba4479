"""Tests of the benchmark itself: span arithmetic, output checks, metric names.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
from tracer import Entry, Span, Tracer, layer_metrics, self_times
from workloads import WORKLOADS, RunOutput, check, check_digests

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# metric names as the benchmark's specification lists them; fail_frac is
# reported as pass_frac = 1 - fail_frac, because an end-to-end metric must
# never read 0
SPEC_END_TO_END = {"cycle_ms", "cycle_cpu_ms", "setup_s", "peak_rss_mb",
                   "pass_frac"}
SPEC_PER_LAYER = {
    "model.kinematics_builds_per_cycle", "model.task_jacobians_calls_per_cycle",
    "model.self_ms_per_cycle",
    "dynamics.closed_loop_calls_per_cycle",
    "dynamics.tree_dynamics_calls_per_cycle", "dynamics.self_ms_per_cycle",
    "hqp.solve_ms_p50", "hqp.solve_ms_tail", "hqp.self_ms_per_cycle",
    "hqp.levels_per_solve", "hqp.active_rows_per_cycle",
    "hqp.saturated_cycle_frac", "hqp.phase1_lp_per_cycle",
    "task_control.self_ms_per_cycle", "task_control.lqr_solves_per_run",
    "terrain.queries_per_cycle", "terrain.self_ms_per_cycle",
    "terrain_estimation.update_ms_p50", "terrain_estimation.cells_per_update",
    "terrain_estimation.neighborhood_queries_per_cell",
    "terrain_estimation.lookup_hit_frac",
    "terrain_estimation.lookup_ms_per_cycle",
    "terrain_estimation.self_ms_per_cycle",
    "simulator.step_ms_p50", "simulator.substeps_per_cycle",
    "simulator.lidar_ms_per_frame", "simulator.self_ms_per_cycle",
    "cli.load_ms", "cli.write_ms", "cli.artifact_bytes",
    "trace.overhead_frac", "trace.coverage_frac",
}


# -- span arithmetic -----------------------------------------------------------

def test_self_time_on_synthetic_nested_calls():
    now = [0.0]
    tr = Tracer(clock=lambda: now[0])

    def work(dt):
        now[0] += dt

    leaf = tr.wrap(lambda: work(1.0), "x.leaf", "x")

    def mid_body():
        work(0.5)
        leaf()
        work(0.25)
        leaf()
    mid = tr.wrap(mid_body, "x.mid", "x")

    def top_body():
        work(2.0)
        mid()
        work(3.0)
    tr.wrap(top_body, "y.top", "y")()

    spans = tr.finished()
    assert [s.name for s in spans] == ["y.top", "x.mid", "x.leaf", "x.leaf"]
    assert [s.parent for s in spans] == [-1, 0, 1, 1]
    assert spans[0].end - spans[0].start == pytest.approx(7.75)
    assert self_times(spans) == pytest.approx([5.0, 0.75, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [Span("p", "a", 0.0, 10.0, -1),
             Span("c1", "a", 2.0, 5.0, 0),
             Span("c2", "a", 4.0, 6.0, 0),
             Span("c3", "a", 9.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_span_recorded_when_the_call_raises():
    tr = Tracer()

    def boom():
        raise ValueError("x")
    with pytest.raises(ValueError):
        tr.wrap(boom, "x.boom", "x")()
    assert [s.name for s in tr.finished()] == ["x.boom"]


def test_layer_metrics_on_a_synthetic_run():
    S = Span
    spans = [
        S("cli.load_scenario", "cli", 0.0, 0.5, -1),
        S("simulator.run_scenario", "simulator", 1.0, 11.0, -1),         # 1
        S("model.KinematicsCache.__init__", "model", 1.0, 2.0, 1),
        S("hqp.HierarchySolver.solve", "hqp", 2.0, 6.0, 1, 3),            # 3
        S("hqp.solve_level", "hqp", 2.0, 3.0, 3),
        S("hqp.feasible_start", "hqp", 3.0, 4.0, 3),                      # 5
        S("optimize.linprog", "hqp", 3.0, 3.5, 5),
        S("hqp.HierarchySolver.solve", "hqp", 6.0, 8.0, 1, 0),
        S("hqp.solve_level", "hqp", 6.0, 7.0, 7),
        S("terrain.Terrain.normal", "terrain", 8.0, 9.0, 1),              # 9
        S("terrain.SlopeTerrain.grad", "terrain", 8.0, 8.5, 9),
        S("cli.write_artifacts", "cli", 11.0, 11.25, -1),
        S("model.KinematicsCache.__init__", "model", 12.0, 13.0, -1),     # outside
    ]
    m = layer_metrics(spans, cycles=2)
    assert m["model.kinematics_builds_per_cycle"] == 0.5
    assert m["hqp.levels_per_solve"] == 1.0
    assert m["hqp.active_rows_per_cycle"] == 1.5
    assert m["hqp.saturated_cycle_frac"] == 0.5
    assert m["hqp.phase1_lp_per_cycle"] == 0.5
    assert m["hqp.solve_ms_p50"] == pytest.approx(3000.0)
    assert m["terrain.queries_per_cycle"] == 0.5
    assert m["hqp.self_ms_per_cycle"] == pytest.approx(1e3 * 6.0 / 2)
    assert m["simulator.self_ms_per_cycle"] == pytest.approx(1e3 * 2.0 / 2)
    assert m["trace.coverage_frac"] == pytest.approx(0.8)
    assert m["cli.load_ms"] == pytest.approx(500.0)
    assert m["cli.write_ms"] == pytest.approx(250.0)
    assert m["terrain_estimation.update_ms_p50"] == 0.0


def test_info_reader_that_raises_is_reported_absent():
    tr = Tracer()
    solve = tr.wrap(lambda: object(), "hqp.HierarchySolver.solve", "hqp",
                    info=tracer._active_rows)
    solve()
    solve()
    assert tr.absent == ["hqp.HierarchySolver.solve.info"]
    assert [s.info for s in tr.finished()] == [None, None]


def test_tracer_wraps_each_callers_namespace_and_reports_absent_entries():
    from wbcsim import dynamics, simulator
    from wbcsim.model import RobotModel
    from wbcsim.terrain import FlatTerrain

    model = RobotModel()
    original = simulator.closed_loop_dynamics
    tr = Tracer()
    tr.install(tracer.ENTRIES + (Entry("model", "wbcsim.model", "NoSuch.method"),
                                 Entry("x", "wbcsim.no_such_module", "f")))
    try:
        assert simulator.closed_loop_dynamics is not original
        assert simulator.closed_loop_dynamics is dynamics.closed_loop_dynamics
        simulator.initial_state(model, FlatTerrain())
    finally:
        tr.uninstall()
    assert simulator.closed_loop_dynamics is original
    assert tr.absent == ["model.NoSuch.method", "no_such_module.f"]
    spans = tr.finished()
    by_name = {s.name: s for s in spans}
    cl = by_name["dynamics.closed_loop_dynamics"]
    assert spans[cl.parent].name == "simulator.initial_state"
    tree = by_name["dynamics.spanning_tree_dynamics"]
    assert spans[tree.parent].name == "dynamics.closed_loop_dynamics"
    assert "model.KinematicsCache.__init__" in by_name


def test_end_to_end_takes_the_slowest_repetition_and_median_setup():
    reps = [{"cycles": 100, "run_s": 2.0, "cpu_s": 1.9, "setup_s": 1.0,
             "peak_rss_mb": 80.0},
            {"cycles": 100, "run_s": 1.2, "cpu_s": 1.2, "setup_s": 0.6,
             "peak_rss_mb": 81.0},
            {"cycles": 100, "run_s": 1.5, "cpu_s": 2.1, "setup_s": 0.8,
             "peak_rss_mb": 82.0}]
    m = run.end_to_end(reps, passed=2)
    assert m["cycle_ms"] == pytest.approx(20.0)
    assert m["cycle_cpu_ms"] == pytest.approx(21.0)
    assert m["setup_s"] == pytest.approx(0.8)
    assert m["peak_rss_mb"] == 81.0
    assert m["pass_frac"] == pytest.approx(2 / 3)


# -- output checks -------------------------------------------------------------

def _output(tmp_path, fell, failed, tau=10.0, beta=0.01):
    (tmp_path / "log.csv").write_text(
        f"t,tau_hl,tau_kl\n0,{tau},-1.5\n0.002,2,{-tau}\n")
    return RunOutput(fell=fell, failed=failed, failure="", max_abs_beta=beta,
                     out_dir=tmp_path)


def test_expected_outcome_passes(tmp_path):
    assert check(WORKLOADS["flat_push"], _output(tmp_path, False, False)) == []
    assert check(WORKLOADS["slope_saturate"], _output(tmp_path, True, False)) == []


@pytest.mark.parametrize("name, fell, failed", [
    ("flat_push", True, False),
    ("flat_push", False, True),
    ("slope_saturate", False, False),
    ("slope_saturate", False, True),
])
def test_fell_failed_mismatch_is_a_failure(tmp_path, name, fell, failed):
    problems = check(WORKLOADS[name], _output(tmp_path, fell, failed))
    assert any(p.startswith("outcome") for p in problems)


def test_torque_beyond_limit_is_a_failure(tmp_path):
    assert check(WORKLOADS["flat_push"],
                 _output(tmp_path, False, False, tau=40.0)) == []
    problems = check(WORKLOADS["flat_push"],
                     _output(tmp_path, False, False, tau=40.01))
    assert problems and "torque" in problems[0]


def test_pitch_bound_applies_to_flat_push(tmp_path):
    problems = check(WORKLOADS["flat_push"],
                     _output(tmp_path, False, False, beta=0.25))
    assert problems and "pitch" in problems[0]


def test_slope_window_must_reach_the_incline(tmp_path):
    out = _output(tmp_path, False, False)
    (tmp_path / "psi_trace.csv").write_text("t,psi_hat,psi_true\n0,0,0\n1,2,3\n")
    assert any("incline" in p for p in check(WORKLOADS["slope_lidar"], out))
    (tmp_path / "psi_trace.csv").write_text("t,psi_hat,psi_true\n0,0,0\n1,14,15\n")
    assert check(WORKLOADS["slope_lidar"], out) == []


def test_same_seed_digest_mismatch_is_flagged():
    assert check_digests(["a", "a", "a"]) == []
    assert check_digests(["a", "b", "a", None]) == [1, 3]


def test_flat_push_window_holds_the_whole_push():
    w = WORKLOADS["flat_push"]
    push = w.params["disturbances"][0]
    assert push["t_start"] + push["duration"] < w.params["duration"]


# -- metric names ----------------------------------------------------------------

def test_metric_names_units_and_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    for name, m in list(e2e.items()) + list(layers.items()):
        assert NAME.match(name), name
        assert UNIT.match(m["unit"]), m["unit"]
    assert set(e2e) == SPEC_END_TO_END == set(run.END_TO_END)
    assert set(layers) == SPEC_PER_LAYER == set(run.PER_LAYER)
    assert {k: v["unit"] for k, v in e2e.items()} == run.END_TO_END
    assert {k: v["unit"] for k, v in layers.items()} == run.PER_LAYER
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_layer_metrics_cover_every_per_layer_name():
    spans = [Span("simulator.run_scenario", "simulator", 0.0, 1.0, -1)]
    computed = set(layer_metrics(spans, cycles=1))
    assert computed | {"cli.artifact_bytes", "trace.overhead_frac"} \
        == set(run.PER_LAYER)


def test_fails_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flat_push",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
