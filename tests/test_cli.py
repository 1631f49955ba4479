"""CLI tests: artifacts, determinism, overrides, sweep fan-out, error paths."""

import ast
import concurrent.futures
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

from importlib.resources import files

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from wbcsim import cli
from wbcsim.cli import bench_normals, main
from wbcsim.scenario import (MAX_CYCLES, Scenario, ScenarioError, YamlLoader, apply_override,
                             load_scenario, parse_param)
from wbcsim.simulator import LOG_COLUMNS, MetricsSummary, write_csv

METRICS_KEYS = set(MetricsSummary.__dataclass_fields__)

MINI_SLOPE = """\
name: mini
terrain:
  kind: slope
  angle_deg: 10.0
  start: 0.3
  blend: 0.4
duration: 0.5
reference:
  - t_start: 0.0
    speed: 0.5
    height: 0.25
"""

MINI_FLAT = """\
name: flat_hold
terrain:
  kind: flat
duration: 0.3
"""


@pytest.fixture
def slope_scn(tmp_path):
    p = tmp_path / "mini.scn"
    p.write_text(MINI_SLOPE)
    return str(p)


@pytest.fixture(scope="module")
def slope_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("scn") / "mini.scn"
    p.write_text(MINI_SLOPE)
    return str(p)


@pytest.fixture
def flat_scn(tmp_path):
    p = tmp_path / "flat.scn"
    p.write_text(MINI_FLAT)
    return str(p)


# -- param parsing -----------------------------------------------------------

PARAM_TYPES = [
    ("duration=2.5", ("duration", 2.5)),
    ("estimation_mode=true_normal", ("estimation_mode", "true_normal")),
    ("lqr_q=[1,2,3,4]", ("lqr_q", [1, 2, 3, 4])),
]


def test_parse_param_types():
    for text, parsed in PARAM_TYPES:
        assert parse_param(text) == parsed
    with pytest.raises(ScenarioError):
        parse_param("no_equals_sign")


def test_apply_override_dotted():
    cfg = {"terrain": {"kind": "slope", "angle_deg": 10.0}}
    apply_override(cfg, "terrain.angle_deg", 20.0)
    apply_override(cfg, "duration", 1.0)
    assert cfg["terrain"]["angle_deg"] == 20.0 and cfg["duration"] == 1.0
    with pytest.raises(ScenarioError):
        apply_override(cfg, "duration.sub", 1.0)   # scalar is not a section


# -- run mode ----------------------------------------------------------------

def test_run_writes_artifacts(slope_scn, tmp_path):
    out = tmp_path / "out"
    assert main(["--scenario", slope_scn, "--out", str(out), "--seed", "2"]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics) == METRICS_KEYS       # documented closed key set
    assert metrics["fell"] is False and metrics["failed"] is False
    header = (out / "log.csv").read_text().splitlines()[0]
    assert header == ",".join(LOG_COLUMNS)
    # slope terrain: incline trace artifact present
    trace = (out / "psi_trace.csv").read_text().splitlines()
    assert trace[0] == "t,psi_hat,psi_true"
    assert len(trace) > 100
    assert (out / "metrics.txt").read_text().startswith("name = mini")


def test_same_seed_byte_identical_logs(slope_scn, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--scenario", slope_scn, "--out", str(a), "--seed", "5"]) == 0
    assert main(["--scenario", slope_scn, "--out", str(b), "--seed", "5"]) == 0
    assert (a / "log.csv").read_bytes() == (b / "log.csv").read_bytes()


def test_flat_terrain_has_no_psi_trace(flat_scn, tmp_path):
    out = tmp_path / "out"
    assert main(["--scenario", flat_scn, "--out", str(out)]) == 0
    assert not (out / "psi_trace.csv").exists()


@pytest.mark.parametrize("terrain", [
    "{kind: slope, angle_deg: 10.0, start: 4.0}",       # the slope begins beyond x = 3
    "{kind: asymmetric_support, left: {height: 0.1, start: 0.8, ramp: 0.5}}",
])
def test_every_terrain_but_flat_has_psi_trace(flat_scn, tmp_path, terrain):
    out = tmp_path / "out"
    assert main(["--scenario", flat_scn, "--out", str(out),
                 "--param", f"terrain={terrain}", "--param", "duration=0.02"]) == 0
    assert (out / "psi_trace.csv").read_text().startswith("t,psi_hat,psi_true\n")


def test_psi_trace_is_three_columns_of_the_log(slope_scn, tmp_path):
    """psi_trace.csv holds the t, psi_hat and psi_true columns of log.csv,
    row for row and digit for digit."""
    out = tmp_path / "out"
    assert main(["--scenario", slope_scn, "--out", str(out), "--param", "duration=0.2",
                 "--param", "terrain.start=0.0",
                 "--param", "estimation_mode=estimated_normal"]) == 0
    with open(out / "log.csv", newline="") as fh:
        log = list(csv.reader(fh))
    with open(out / "psi_trace.csv", newline="") as fh:
        trace = list(csv.reader(fh))
    cols = [log[0].index(c) for c in ("t", "psi_hat", "psi_true")]
    assert trace == [[row[i] for i in cols] for row in log]
    assert len(trace) == 101
    assert any(float(hat) != float(true) > 0.0 for _, hat, true in trace[1:])


def test_write_csv_formats_each_value_as_format_spec(tmp_path):
    """Each value is written as f"{v:.9g}" would write it, the extremes and
    the special values included."""
    row = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
           1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3, 123456789012.0]
    log = np.array([row, row[::-1]])
    path = tmp_path / "log.csv"
    write_csv(str(path), [f"c{i}" for i in range(len(row))], log)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(f"c{i}" for i in range(len(row)))
    assert lines[1:] == [",".join(f"{v:.9g}" for v in r) for r in log.tolist()]


def test_env_var_sets_output_dir(flat_scn, tmp_path, monkeypatch):
    out = tmp_path / "from_env"
    monkeypatch.setenv("WBCSIM_OUT", str(out))
    assert main(["--scenario", flat_scn]) == 0
    assert (out / "metrics.json").exists()


def test_param_override_applied(flat_scn, tmp_path):
    out = tmp_path / "out"
    assert main(["--scenario", flat_scn, "--out", str(out),
                 "--param", "duration=0.1", "--param", "name=renamed"]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["name"] == "renamed"
    assert len((out / "log.csv").read_text().splitlines()) < 60


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a new interpreter that imports wbcsim from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_run_loads_no_scipy(slope_scn):
    """Loading the CLI and running a scenario in each estimation mode loads
    no SciPy module, whose import alone costs more than a short run, and a
    run itself imports nothing: every module it needs is loaded before the
    first control cycle.  The lidar draws from the standard library's
    random module, which NumPy loads, so no run loads NumPy's random module,
    and with it secrets and hashlib (OpenSSL); nor does a lidar scenario
    built by Scenario.from_dict."""
    runs = [{"duration": 0.1, "estimation_mode": "true_normal"},
            {"duration": 0.1, "estimation_mode": "horizontal_normal"},
            {"duration": 0.1, "estimation_mode": "estimated_normal",
             "terrain": {"kind": "composite", "knots_x": [0.2, 0.6, 1.0],
                         "knots_h": [0.0, 0.02, 0.03]}},
            {"duration": 0.1, "estimation_mode": "estimated_normal"}]
    direct = {"terrain": {"kind": "slope", "angle_deg": 10.0, "start": 0.3},
              "duration": 0.1, "estimation_mode": "estimated_normal",
              "reference": [{"speed": 0.5}]}
    code = ("import sys\n"
            "from wbcsim import cli, simulator\n"
            "from wbcsim.model import RobotModel\n"
            f"makers = [lambda p=p: cli.load_scenario({slope_scn!r}, p) for p in {runs!r}]\n"
            f"makers.insert(2, lambda: simulator.Scenario.from_dict({direct!r}))\n"
            "for make in makers:\n"
            "    scenario = make()\n"
            "    model = RobotModel()\n"
            "    loaded = set(sys.modules)\n"
            "    log, metrics = simulator.run_scenario(model, scenario, seed=1)\n"
            "    assert len(log) and not metrics.failed\n"
            "    print(scenario.estimation_mode,\n"
            "          sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'),\n"
            "          sorted(set(sys.modules) - loaded),\n"
            "          sorted(m for m in ('numpy.random', 'secrets', 'hashlib')\n"
            "                 if m in sys.modules))\n")
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-5:] == [
        "true_normal [] [] []", "horizontal_normal [] [] []",
        *["estimated_normal [] [] []"] * 3]


@pytest.mark.parametrize("traced", [False, True])
def test_benchmark_worker_runs_a_scenario(tmp_path, traced):
    """perfbench/worker.py calls wbcsim functions by name; run it as
    perfbench/run.py does, in a fresh process with src on PYTHONPATH, so
    that a renamed entry point fails here and not only in the benchmark."""
    root = Path(__file__).resolve().parents[1]
    scenario = str(files("wbcsim").joinpath("data/scenarios/disturbance.scn"))
    spec = {"scenario": scenario, "params": {"duration": 0.02}, "seed": 1,
            "out_dir": str(tmp_path), "trace": traced}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "worker.py"),
                           json.dumps(spec)], env=env, cwd=root,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "ready"
    result = json.loads(lines[-1])
    assert result["cycles"] > 0 and not result["failed"], result
    assert (tmp_path / "spans.csv").is_file() == traced


def test_start_up_loads_no_sweep_or_parser_modules(slope_scn):
    """Importing the CLI, loading a scenario and building the model load
    neither the sweep's process pool (and with it logging) nor argparse:
    a run needs none of them, and they cost a run's start-up about 4 ms."""
    code = ("import sys\n"
            "from wbcsim import cli, simulator\n"
            "from wbcsim.model import RobotModel\n"
            f"cli.load_scenario({slope_scn!r}, {{}})\n"
            "RobotModel()\n"
            "print(sorted(m for m in ('concurrent.futures', 'logging', 'argparse')\n"
            "             if m in sys.modules))\n")
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "wbcsim"


def _imports(path: Path):
    """(module, imported names) of every import in the file at path, function-local
    ones included; a relative module keeps its leading dots."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from ((alias.name, []) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or ""), [a.name for a in node.names]


def test_runtime_dependencies_are_the_imported_modules():
    """The third-party modules imported anywhere under src/wbcsim, function-local
    imports included, are exactly numpy and yaml, and they are the runtime
    dependencies pyproject.toml declares: SciPy is a test dependency only."""
    imported = {module.partition(".")[0] for path in SRC.rglob("*.py")
                for module, _ in _imports(path) if not module.startswith(".")}
    third_party = imported - set(sys.stdlib_module_names) - {"wbcsim"}
    assert third_party == {"numpy", "yaml"}
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

    def names(requirements):
        return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower() for r in requirements}

    assert names(project["dependencies"]) == {{"yaml": "pyyaml"}.get(m, m) for m in third_party}
    assert "scipy" in names(project["optional-dependencies"]["test"])


def test_scenario_format_is_known_in_one_module():
    """Only wbcsim/scenario.py imports yaml, and wbcsim/simulator.py imports no
    terrain subclass: the scenario file's format, its YAML dialect and the
    terrain classes its parser picks from live in the scenario module."""
    import wbcsim.terrain as terrain
    readers = {str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
               for module, _ in _imports(path) if module.partition(".")[0] == "yaml"}
    assert readers == {"scenario.py"}
    kinds = [name for module, names in _imports(SRC / "simulator.py")
             if module in (".terrain", "wbcsim.terrain") for name in names
             if isinstance(getattr(terrain, name), type)
             and issubclass(getattr(terrain, name), terrain.Terrain)
             and getattr(terrain, name) is not terrain.Terrain]
    assert kinds == []


# -- error paths -------------------------------------------------------------

def test_malformed_scenario_diagnostic_names_key(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("terrain: {kind: flat}\nspeeed: 1.0\n")
    assert main(["--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "speeed" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"terrain: {kind: flat\nduration: [1, 2\n",
                                     b"terrain: {kind: flat}\nname: \xff\xfe\n"])
def test_unparsable_scenario_file_exits_2(tmp_path, capsys, content):
    """Bad YAML and bytes that are not UTF-8 (a traceback before) both exit 2."""
    bad = tmp_path / "bad.scn"
    bad.write_bytes(content)
    assert main(["--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "cannot parse scenario file" in err and "Traceback" not in err


@pytest.mark.parametrize("sim_rate", [1e12, 1e308])
def test_huge_sim_rate_rejected_at_parse(flat_scn, tmp_path, capsys, sim_rate):
    """A sim_rate whose physics substeps per control cycle pass
    MAX_SUBSTEPS is rejected before a run starts: 1e308 asked 2e305
    substeps of every cycle, and the run never ended."""
    with pytest.raises(ScenarioError, match="sim_rate"):
        load_scenario(flat_scn, {"sim_rate": sim_rate})
    assert main(["--scenario", flat_scn, "--out", str(tmp_path / "o"),
                 "--param", f"sim_rate={sim_rate!r}"]) == 2
    assert "sim_rate" in capsys.readouterr().err


CYCLE_BOUND = "'duration' x 'control_rate' must be at most 1e+07 control cycles"
STEP_BOUND = "'duration' x 'sim_rate' must be at most 2e+07 physics steps"


@pytest.mark.parametrize("params,bound", [
    pytest.param({"control_rate": 1e12, "sim_rate": 2e12}, CYCLE_BOUND, id="params0"),
    pytest.param({"duration": 1e300}, CYCLE_BOUND, id="params1"),
    pytest.param({"duration": 20000.002}, CYCLE_BOUND, id="params2"),
    pytest.param({"duration": 20000, "sim_rate": 500000}, STEP_BOUND, id="params3"),
])
def test_huge_cycle_count_rejected_at_parse(flat_scn, tmp_path, capsys, monkeypatch,
                                            params, bound):
    """More than MAX_CYCLES control cycles or MAX_STEPS physics steps exit 2
    before a run starts: 2 substeps a cycle at control_rate=1e12 passed
    MAX_SUBSTEPS and asked 3e11 cycles of 0.3 s; duration=1e300 asked
    5e302; 20000.002 one too many; 20000 s at 1000 substeps a cycle asked
    1e10 physics steps, about 27 CPU-days."""
    monkeypatch.setattr(cli, "run_scenario", lambda *a, **k: pytest.fail("a run started"))
    with pytest.raises(ScenarioError, match=re.escape(bound)):
        load_scenario(flat_scn, params)
    args = [f"--param={key}={value!r}" for key, value in params.items()]
    assert main(["--scenario", flat_scn, "--out", str(tmp_path / "o"), *args]) == 2
    assert bound in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cycle_bound_admits_max_cycles(flat_scn):
    assert load_scenario(flat_scn, {"duration": 20000.0}).timing()[2] == MAX_CYCLES


# each override must exit 2 with a diagnostic naming the key, not a traceback
BAD_PARAMS = [
    ("terrain.bogus=1", "bogus"),
    ("reference=[{sped: 1}]", "reference[0].sped"),
    ("sensor={bogus: 1}", "sensor.bogus"),
    ("disturbances=[{kind: push, t_start: 0, foo: 1}]", "disturbances[0].foo"),
    ("reference=5", "reference"),
    ("duration=.nan", "duration"),
    ("duration=.inf", "duration"),
    ("duration=1e-9", "duration"),
    ("duration=1.0e-9", "duration"),
    ("control_rate=.nan", "control_rate"),
    ("sensor.rate_hz=0", "sensor.rate_hz"),
    # rates whose ratio timing() would round: the controller ran at 700 Hz
    # instead of 500 Hz, the lidar on every cycle instead of at 1000 Hz
    ("sim_rate=700", "sim_rate"),
    ("sensor.rate_hz=1000", "sensor.rate_hz"),
    # fewer points than a normal estimate needs: every frame recorded nothing
    ("sensor.points=5", "sensor.points"),
    # past MAX_POINTS: 10**12 points asked numpy for 7.3 TiB in the first
    # lidar frame, a MemoryError traceback
    ("sensor.points=1000000000000", "sensor.points"),
    ("sensor.points=100001", "sensor.points"),
    ("lookahead=abc", "lookahead"),
    ("start_xy=[0]", "start_xy"),
    ("kp=[1,2]", "kp"),
    ("kp=[1,1,1,1,-1]", "kp[4]"),
    ("reference=[{height: 5}]", "reference[0].height"),
    ("reference=[{t_start: 1}, {t_start: 0, height: 5}]", "reference[1].height"),
    # a start height at or below the wheel radius folded the legs up over
    # the hips (0, 0.05) or put the wheel centers level with them (0.09)
    ("reference=[{height: 0}]", "reference[0].height"),
    ("reference=[{height: 0.05}]", "reference[0].height"),
    ("reference=[{height: 0.09}]", "reference[0].height"),
    # a later segment's height was not checked: the legs folded up over the
    # hips (0) or could not reach the ground (0.6) and the run fell
    ("reference=[{height: 0.25}, {t_start: 0.02, height: 0}]", "reference[1].height"),
    ("reference=[{height: 0.25}, {t_start: 0.02, height: 0.6}]", "reference[1].height"),
    ("disturbances=[{kind: push, t_start: 0, duration: 0.05, f_max: 8, "
     "direction: [0, 0, 0]}]", "disturbances[0].direction"),
    ("disturbances=[{kind: push, t_start: 0.0, f_max: 500.0}]",
     "disturbances[0].duration"),
    # positions past wbcsim.scenario.POSITION_LIMIT overflowed the normal
    # map's integer cell keys
    ("lookahead=1e20", "lookahead"),
    ("start_xy=[1e300, 0]", "start_xy[0]"),
    # a lidar radius or noise past it put the first frame's points there
    ("sensor.radius=1.0e+300", "sensor.radius"),
    ("sensor.noise=1.0e+300", "sensor.noise"),
    # a height field has no vertical or overhanging grade
    ("terrain={kind: slope, angle_deg: 90}", "angle_deg"),
    ("terrain={kind: slope, angle_deg: 135}", "angle_deg"),
    # a start pose whose ground normal is parallel to the heading
    ("terrain={kind: slope, angle_deg: 89.9999999999, start: -5}", "start_xy"),
    # the terrain section names its keys by path
    ("terrain={kind: composite, knots_x: 1.0, knots_h: [0, 1]}", "terrain.knots_x"),
    ("terrain={kind: asymmetric_support, left: {hieght: 0.1}}", "terrain.left.hieght"),
    ("terrain={kind: asymmetric_support, left: 3}", "terrain.left"),
    ("terrain={kind: stairs}", "terrain.kind"),
    # knots whose cubic would not be finite
    ("terrain={kind: composite, knots_x: [-1.0e+308, 1.0e+308], knots_h: [0, 1]}", "knots"),
    # ground heights past POSITION_LIMIT left the leg geometry no precision
    # (a ZeroDivisionError traceback), or a grade whose square overflowed
    ("terrain={kind: flat, z0: 1.0e+16}", "terrain.z0"),
    ("terrain={kind: composite, knots_x: [0, 1], knots_h: [1.0e+20, 1.0e+20]}",
     "terrain.knots_h[0]"),
    ("terrain={kind: asymmetric_support, left: {start: -5, height: 1.0e+20}, "
     "right: {start: -5, height: 1.0e+20}}", "terrain.left.height"),
    ("terrain={kind: composite, knots_x: [0, 1], knots_h: [0, 1.0e+200]}",
     "terrain.knots_h[1]"),
    # references, pushes, blocks, gains and weights past their bounds failed
    # the run's first cycle with exit 1: task rows not finite, a math domain
    # error naming no key, a NaN velocity, a Riccati solve that diverged
    ("reference=[{speed: 1.0e+300}]", "reference[0].speed"),
    ("reference=[{speed: -1001}]", "reference[0].speed"),
    ("reference=[{yaw_rate: 1.0e+300}]", "reference[0].yaw_rate"),
    ("disturbances=[{kind: push, t_start: 0, duration: 0.1, f_max: 1.0e+300}]",
     "disturbances[0].f_max"),
    ("disturbances=[{kind: block_impact, t_start: 0, mass: 1.0e+300}]", "disturbances[0].mass"),
    ("disturbances=[{kind: block_impact, t_start: 0, mass: 1, drop_height: 1.0e+300}]",
     "disturbances[0].drop_height"),
    ("kp=[1, 1, 1, 1, 1.0e+300]", "kp[4]"),
    ("lqr_q=[1.0e+300, 1, 1, 1]", "lqr_q[0]"),
    ("lqr_q=[1, 1, 1, 1.0e-9]", "lqr_q[3]"),
    ("lqr_r=1.0e-300", "lqr_r"),
    ("lqr_r=1.0e+300", "lqr_r"),
    # a friction coefficient that overflowed the contact rows, a slope start
    # that put the ground at 1e300 m, and directions whose length overflowed
    # (the push became zero) or underflowed (the block's velocity NaN)
    ("terrain={kind: flat, mu: 1.0e+300}", "terrain.mu"),
    ("terrain={kind: slope, angle_deg: 10, start: -1.0e+300}", "terrain.start"),
    ("disturbances=[{kind: push, t_start: 0, duration: 0.1, f_max: 8, "
     "direction: [1.0e+300, 1, 0]}]", "disturbances[0].direction"),
    ("disturbances=[{kind: block_impact, t_start: 0, mass: 1, "
     "direction: [1.0e-200, 1.0e-200, 0]}]", "disturbances[0].direction"),
]

# runs at the edges of those bounds
EDGE_PARAMS = [
    ["reference=[{speed: 1000, yaw_rate: 1000}]"],
    ["reference=[{speed: -1000, yaw_rate: -1000}]"],
    ["disturbances=[{kind: push, t_start: 0, duration: 0.01, f_max: 10000}]"],
    ["disturbances=[{kind: push, t_start: 0, duration: 0.01, f_max: -10000}]"],
    ["disturbances=[{kind: block_impact, t_start: 0, mass: 100, drop_height: 0.5}]"],
    ["disturbances=[{kind: block_impact, t_start: 0, mass: 1, drop_height: 100}]"],
    ["disturbances=[{kind: block_impact, t_start: 0, mass: 100, drop_height: 100}]"],
    ["kp=[1.0e+6, 1.0e+6, 1.0e+6, 1.0e+6, 1.0e+6]"],
    ["lqr_q=[1.0e+6, 1.0e+6, 1.0e+6, 1.0e+6]", "lqr_r=0.01"],
    ["lqr_q=[0.01, 1.0e+6, 1.0e+6, 0.01]", "lqr_r=0.01"],
    ["lqr_q=[0.01, 0.01, 0.01, 0.01]", "lqr_r=1.0e+6"],
    ["terrain={kind: flat, mu: 10}"],
    # the ground at about 5.7e9 m under the start pose
    ["terrain={kind: slope, angle_deg: 89.99, start: -1.0e+6}"],
    ["terrain={kind: slope, angle_deg: 89.99, start: -1.0e+6}", "estimation_mode=estimated_normal"],
    ["disturbances=[{kind: push, t_start: 0, duration: 0.01, f_max: 8, "
     "direction: [1.0e+150, 1, 0]}]"],
    ["disturbances=[{kind: block_impact, t_start: 0, mass: 1, drop_height: 0.5, "
     "direction: [1.0e-150, 1.0e-150, 0]}]"],
]


class PurePythonLoader(yaml.SafeLoader):
    """YamlLoader's pure-Python twin: PyYAML's own parser, the same resolvers."""
    yaml_implicit_resolvers = YamlLoader.yaml_implicit_resolvers


def test_yaml_loader_agrees_with_pure_python_twin():
    """The shared loader (libyaml where PyYAML has it) reads every bundled
    scenario, the robot file and every override value of these tests as
    PyYAML's pure-Python parser does, types included, so both paths give a
    run the same inputs."""
    assert issubclass(YamlLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    data = files("wbcsim.data")
    scenarios = [f.read_text() for f in data.joinpath("scenarios").iterdir()]
    assert len(scenarios) >= 4
    texts = [data.joinpath("robot_default.yaml").read_text(), *scenarios]
    texts += [text.partition("=")[2] for text, _ in BAD_PARAMS + PARAM_TYPES]
    for text in texts:
        fast = yaml.load(text, Loader=YamlLoader)
        pure = yaml.load(text, Loader=PurePythonLoader)
        assert repr(fast) == repr(pure), text
    assert isinstance(yaml.load("1e-9", Loader=YamlLoader), float)


@pytest.mark.parametrize("params", EDGE_PARAMS, ids=" ".join)
def test_run_at_the_edge_of_a_bound_completes_its_first_cycles(flat_scn, tmp_path, params):
    """A run at a bound of a reference, push, block, gain, weight, friction
    coefficient, slope start or direction length runs its first cycles
    without a solver failure (a block this heavy may topple it)."""
    out = tmp_path / "o"
    args = ["--scenario", flat_scn, "--out", str(out), "--param", "duration=0.01"]
    rc = main(args + [a for p in params for a in ("--param", p)])
    metrics = json.loads((out / "metrics.json").read_text())
    assert rc in (0, 1) and not metrics["failed"], metrics["failure"]
    assert len((out / "log.csv").read_text().splitlines()) > 1
    assert rc == 0 or metrics["fell"]


@pytest.mark.parametrize("param,key", BAD_PARAMS)
def test_bad_override_exits_2_naming_key(flat_scn, tmp_path, capsys, recwarn, param, key):
    rc = main(["--scenario", flat_scn, "--out", str(tmp_path / "o"),
               "--param", param])
    err = capsys.readouterr().err
    assert rc == 2
    assert any(line.startswith("error:") and key in line
               for line in err.splitlines()), err
    assert "Traceback" not in err and "Warning" not in err
    assert not [str(w.message) for w in recwarn]


SCENARIO_KEYS = [
    "name", "duration", "control_rate", "sim_rate", "estimation_mode",
    "start_xy", "start_yaw", "reference", "disturbances", "sensor",
    "lookahead", "kp", "lqr_q", "lqr_r", "terrain", "terrain.kind",
    "terrain.angle_deg", "terrain.start", "terrain.blend", "terrain.mu",
    "terrain.left", "terrain.knots_x", "sensor.rate_hz", "sensor.points",
    "sensor.radius", "bogus"]
SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=5) | st.sampled_from(
               ["push", "block_impact", "slope", "composite",
                "asymmetric_support", "estimated_normal", "t_start", "kind"]))
VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(st.sampled_from(["kind", "t_start", "speed", "height",
                                       "mass", "direction", "rate_hz",
                                       "sped"]), inner, max_size=4),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(SCENARIO_KEYS), VALUES, max_size=4))
def test_random_overrides_give_scenario_or_scenario_error(slope_path, params):
    try:
        assert isinstance(load_scenario(slope_path, params), Scenario)
    except ScenarioError:
        pass


# -- every override either exits 2 naming its key, or runs ---------------------

def _flow(fields: dict, name: str) -> str:
    """The YAML flow mapping of fields with the value of `name` drawn ('@')."""
    return "{" + ", ".join(f"{k}: {'@' if k == name else v}" for k, v in fields.items()) + "}"


def _entry(values: list, i: int) -> str:
    """The YAML flow list of values with entry i drawn ('@')."""
    return "[" + ", ".join("@" if j == i else v for j, v in enumerate(values)) + "]"


LIDAR = "estimation_mode=estimated_normal"
SLOPE = {"kind": "slope", "angle_deg": "10", "start": "0.3", "blend": "0.3", "mu": "0.8"}
LANE = {"height": "0.05", "start": "0.1", "ramp": "0.3"}
REFERENCE = {"t_start": "0", "speed": "0.5", "yaw_rate": "0.5", "height": "0.25"}
PUSH = {"kind": "push", "t_start": "0", "duration": "0.01", "f_max": "8", "direction": "[1, 0, 0]"}
BLOCK = {"kind": "block_impact", "t_start": "0", "mass": "1", "drop_height": "0.5",
         "direction": "[0, 0, -1]"}
# (overrides with one value drawn ('@'), the text the error line must hold):
# every scalar key of every section and every entry of a list of numbers.  A
# terrain class's own check names the key without its path (angle_deg,
# blend, ramp, mu, the knots)
OVERRIDE_CASES = [
    *(([f"{k}=@"], k) for k in ("name", "duration", "control_rate", "sim_rate",
                                "estimation_mode", "start_yaw", "lqr_r")),
    (["lookahead=@", LIDAR], "lookahead"),
    *(([f"{k}={_entry(base, i)}"], f"{k}[{i}]")
      for k, base in (("start_xy", ["0", "0"]), ("kp", ["100"] * 5), ("lqr_q", ["1"] * 4))
      for i in range(len(base))),
    (["terrain={kind: flat, z0: @}"], "terrain.z0"),
    (["terrain={kind: flat, mu: @}"], "mu"),
    *(([f"terrain={_flow(SLOPE, k)}", LIDAR], k) for k in SLOPE),
    *(([f"terrain={{kind: asymmetric_support, {side}: {_flow(LANE, k)}}}"], k)
      for side in ("left", "right") for k in LANE),
    *(([f"terrain={{kind: composite, knots_x: {_entry(['0', '0.5', '1'], i)}, "
        "knots_h: [0, 0.05, 0.05]}"], "knots") for i in range(3)),
    *(([f"terrain={{kind: composite, knots_x: [0, 0.5, 1], "
        f"knots_h: {_entry(['0', '0.05', '0.05'], i)}}}"], "knots") for i in range(3)),
    *(([f"reference=[{_flow(REFERENCE, k)}]"], f"reference[0].{k}") for k in REFERENCE),
    *(([f"disturbances=[{_flow(fields, k)}]"], f"disturbances[0].{k}")
      for fields in (PUSH, BLOCK) for k in fields),
    *(([f"disturbances=[{_flow({**fields, 'direction': _entry(['0'] * 3, i)}, '')}]"],
       "disturbances[0].direction") for fields in (PUSH, BLOCK) for i in range(3)),
    *(([f"sensor.{k}=@", LIDAR], f"sensor.{k}") for k in ("radius", "points", "noise",
                                                           "rate_hz")),
]
EDGE_VALUES = ["0", "1.0e-300", "-1.0e-300", "1.0e+200", "-1.0e+200", "1.0e+300",
               "-1.0e+300", ".nan", ".inf", "-.inf", str(10**30), "abc", "true", "[1, 2]"]


def check_override(scn: str, params: list, key: str) -> None:
    """A 0.01 s CLI run with the overrides params either exits 2 with an
    error line that holds key, or logs a cycle and does not fail at t = 0;
    neither prints a traceback or raises a warning."""
    args = ["--scenario", scn, "--param", "duration=0.01"]
    args += [a for p in params for a in ("--param", p)]
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(io.StringIO()) as err, \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        out = Path(tmp) / "o"
        rc = main(args + ["--out", str(out)])
        if rc != 2:
            cycles = len((out / "log.csv").read_text().splitlines()) - 1
            failure = json.loads((out / "metrics.json").read_text())["failure"]
    err = err.getvalue()
    assert "Traceback" not in err and "Warning" not in err, err
    assert not [str(w.message) for w in caught]
    if rc == 2:
        assert any(line.startswith("error:") and key in line for line in err.splitlines()), err
    else:
        assert rc in (0, 1) and cycles >= 1 and not failure.startswith("t=0.000"), failure


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=st.sampled_from(OVERRIDE_CASES), value=st.sampled_from(EDGE_VALUES))
@example(case=(["terrain={kind: flat, mu: @}"], "mu"), value="1.0e+300")
@example(case=(["terrain={kind: slope, angle_deg: 10, start: @}", LIDAR], "terrain.start"),
         value="-1.0e+300")
@example(case=([f"disturbances=[{_flow(PUSH, 'direction')}]"], "disturbances[0].direction"),
         value="[1.0e+300, 1, 0]")
@example(case=([f"disturbances=[{_flow(BLOCK, 'direction')}]"], "disturbances[0].direction"),
         value="[1.0e-200, 1.0e-200, 0]")
def test_every_override_exits_2_naming_its_key_or_runs(case, value):
    """Each scalar key of each section, at edge values and of wrong types,
    either exits 2 naming the key or runs its first cycles.  The examples
    are the inputs that reached the run unbounded: a
    friction coefficient that overflowed the contact rows, a slope start
    that put the ground at 1e300 m, and push and block directions whose
    length overflowed or underflowed."""
    params, key = case
    scn = files("wbcsim").joinpath("data/scenarios/disturbance.scn")
    check_override(str(scn), [p.replace("@", value) for p in params], key)


def test_failed_lqr_design_is_a_solver_failure(flat_scn, tmp_path, capsys, monkeypatch):
    """A balance weight too large for the Riccati solve ends the run as a
    recorded solver failure: exit 1, metrics written, no traceback.  Such a
    weight is out of the scenario file's bounds, so the controller's default
    weights stand in for it."""
    from wbcsim import simulator
    monkeypatch.setattr(simulator, "DEFAULT_Q", np.diag([1e200, 1.0, 1.0, 1.0]))
    out = tmp_path / "out"
    assert main(["--scenario", flat_scn, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: solver failure: t=0.000: Riccati solve did not converge" in err
    assert "Traceback" not in err and "Warning" not in err
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["failed"] is True
    assert (out / "log.csv").read_text() == ",".join(LOG_COLUMNS) + "\n"   # no cycle ran


@pytest.mark.parametrize("terrain", [
    "{kind: slope, angle_deg: 10, blend: 1.0e-320}",
    "{kind: asymmetric_support, left: {ramp: 1.0e-320, height: 0.05}}",
])
def test_subnormal_ramp_runs_without_warnings(flat_scn, tmp_path, recwarn, terrain):
    """A ramp of subnormal length is a step: its smoothstep argument
    overflows to inf on Python floats, which numpy scalars warned about."""
    assert main(["--scenario", flat_scn, "--out", str(tmp_path / "o"),
                 "--param", f"terrain={terrain}", "--param", "duration=0.05"]) == 0
    assert not [str(w.message) for w in recwarn]


def test_bad_normal_in_a_physics_substep_is_a_solver_failure(flat_scn, tmp_path, capsys):
    """A ground normal parallel to the heading met in a physics substep ends
    the run as a recorded solver failure, not a traceback."""
    out = tmp_path / "out"
    assert main(["--scenario", flat_scn, "--out", str(out), "--param",
                 "terrain={kind: slope, angle_deg: 89.99999, start: -5}"]) == 1
    err = capsys.readouterr().err
    assert "error: solver failure: t=" in err
    assert "left ground normal is parallel to the heading" in err
    assert "Traceback" not in err
    assert json.loads((out / "metrics.json").read_text())["failed"] is True


def test_arithmetic_error_mid_run_is_a_solver_failure(flat_scn, tmp_path, capsys,
                                                     monkeypatch):
    """An ArithmeticError raised in a cycle, such as a ZeroDivisionError from
    the task pass's division by the contact geometry, ends the run as a
    recorded solver failure: exit 1, the cycles before it logged, no traceback."""
    from wbcsim.model import RobotModel
    task_jacobians = RobotModel.task_jacobians
    calls = []

    def dividing_by_zero(self, *args):
        calls.append(None)
        if len(calls) == 10:
            raise ZeroDivisionError("float division by zero")
        return task_jacobians(self, *args)

    monkeypatch.setattr(RobotModel, "task_jacobians", dividing_by_zero)
    out = tmp_path / "out"
    assert main(["--scenario", flat_scn, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: solver failure: t=0.018: float division by zero" in err
    assert "Traceback" not in err
    assert json.loads((out / "metrics.json").read_text())["failed"] is True
    assert len((out / "log.csv").read_text().splitlines()) == 1 + 9


def test_missing_scenario_file(tmp_path, capsys):
    assert main(["--scenario", str(tmp_path / "nope.scn"),
                 "--out", str(tmp_path / "o")]) == 2
    assert "nope.scn" in capsys.readouterr().err


def test_run_mode_requires_scenario(tmp_path, capsys):
    assert main(["--out", str(tmp_path / "o")]) == 2
    assert "--scenario" in capsys.readouterr().err


# -- sweep mode --------------------------------------------------------------

def test_sweep_writes_per_value_runs_and_summary(flat_scn, tmp_path):
    out = tmp_path / "sweep"
    assert main(["--scenario", flat_scn, "--out", str(out), "--mode", "sweep",
                 "--sweep", "duration=0.1,0.2", "--jobs", "1"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("sweep_value,name,fell,failed")
    assert len(lines) == 3
    for tag in ("duration_0.1", "duration_0.2"):
        assert (out / tag / "metrics.json").exists()


def test_sweep_csv_quotes_values_with_commas(flat_scn, tmp_path):
    out = tmp_path / "sweep"
    assert main(["--scenario", flat_scn, "--out", str(out), "--mode", "sweep",
                 "--sweep", "start_xy=[[0,0],[0.5,0]]", "--param", "duration=0.02",
                 "--jobs", "1"]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    assert all(len(row) == len(rows[0]) for row in rows)
    assert [row[0] for row in rows[1:]] == ["[0, 0]", "[0.5, 0]"]


def test_sweep_requires_key(flat_scn, tmp_path, capsys):
    assert main(["--scenario", flat_scn, "--out", str(tmp_path / "o"),
                 "--mode", "sweep"]) == 2
    assert "--sweep" in capsys.readouterr().err


BAD_OPTIONS = [
    (["--seed", "-1"], "--seed"),
    (["--mode", "bench-normals", "--seed", "-1"], "--seed"),
    (["--mode", "sweep", "--sweep", "duration=0.1", "--seed", "-1"], "--seed"),
    (["--mode", "sweep", "--sweep", "duration=[]"], "--sweep"),
    (["--mode", "sweep", "--sweep", "duration=0.1,0.2", "--jobs", "0"], "--jobs"),
    # a bad value after a good one stops the sweep before any run
    (["--mode", "sweep", "--sweep", "duration=0.1,abc", "--jobs", "1"], "'duration'"),
    # a value that is not YAML (a traceback before)
    (["--mode", "sweep", "--sweep", "duration=0.1,[", "--jobs", "1"], "--sweep"),
]


@pytest.mark.parametrize("values,first,second", [("1,1", 1, 2), ("0.5,5e-1", 1, 2),
                                                 ("2,0.5,0.50", 2, 3)])
def test_sweep_values_sharing_a_directory_exit_2_naming_them(flat_scn, tmp_path, capsys,
                                                              values, first, second):
    """Values that parse alike would write one directory twice: the sweep
    stops before any run and names both."""
    rc = main(["--scenario", flat_scn, "--out", str(tmp_path / "o"), "--mode", "sweep",
               "--sweep", f"lqr_r={values}", "--jobs", "1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: --sweep lqr_r:")
    assert f"values {first} (" in err and f"and {second} (" in err, err
    assert "'lqr_r_" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args,option", BAD_OPTIONS)
def test_bad_option_exits_2_naming_it(flat_scn, tmp_path, capsys, args, option):
    rc = main(["--scenario", flat_scn, "--out", str(tmp_path / "o"), *args])
    err = capsys.readouterr().err
    assert rc == 2
    assert any(line.startswith("error:") and option in line
               for line in err.splitlines()), err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_sweep_workers_capped_at_value_count(flat_scn, tmp_path, monkeypatch):
    """--jobs 1000 over two values asks the pool for two workers; the pool
    is replaced by an in-process recorder, so no process is started."""
    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    assert main(["--scenario", flat_scn, "--out", str(tmp_path / "o"),
                 "--mode", "sweep", "--sweep", "duration=0.1,0.2",
                 "--jobs", "1000"]) == 0
    assert asked == [2]


# -- bench-normals -----------------------------------------------------------

def test_bench_normals_passes(capsys):
    assert bench_normals(seed=1) == 0
    table = capsys.readouterr().out
    assert "ramp pipeline" in table and "FAIL" not in table
