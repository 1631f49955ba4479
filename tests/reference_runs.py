"""Reference runs: the first 0.2 s of eight configurations, pinned as data.

The configurations are the four bundled scenarios at seed 3, the three
benchmark workloads (``perfbench/workloads.py``) at seed 1, and
``disturbance`` at seed 3 with two physics substeps a control cycle
(``sim_rate=1000``), the multi-substep path of the run loop.  Each run's log
array and metrics are stored in ``tests/data/reference_runs.npz``, which
``tests/test_artifacts.py`` compares bit for bit with a fresh run.

A change that moves the arithmetic on purpose regenerates the data, from the
repository root::

    PYTHONPATH=src python tests/reference_runs.py [NAME ...]

With names, only those configurations are rerun and the others keep their
stored data.

A change that keeps the arithmetic compares full-length runs as well: ::

    PYTHONPATH=src python tests/reference_runs.py --artifacts DIR

writes the CLI artifacts (``log.csv``, ``metrics.*``, ``psi_trace.csv``) of
the eleven runs in ``FULL_RUNS`` into one subdirectory of DIR per run.  Run
it in two checkouts, then ``diff -r DIR_A DIR_B`` shows every difference.

After a regeneration, ::

    PYTHONPATH=src python tests/reference_runs.py --moves OLD.npz

prints, for each window, every log column and metric that moved from the
data in OLD.npz (a copy of the file before regenerating) and its largest
|difference|.
"""

import json
import sys
from importlib.resources import files
from pathlib import Path

import numpy as np

from wbcsim.cli import main as cli_main
from wbcsim.model import RobotModel
from wbcsim.scenario import load_scenario
from wbcsim.simulator import LOG_COLUMNS, run_scenario

DATA = Path(__file__).resolve().parent / "data" / "reference_runs.npz"
WINDOW = 0.2                  # s of each run
# name: (bundled scenario, seed, overrides)
CONFIGS = {
    "disturbance": ("disturbance", 3, {}),
    "asymmetric": ("asymmetric", 3, {}),
    "slope_impact": ("slope_impact", 3, {}),
    "slope_uturn": ("slope_uturn", 3, {}),
    "flat_push": ("disturbance", 1, {
        "estimation_mode": "true_normal",
        "disturbances": [{"kind": "push", "t_start": 0.05, "duration": 0.1,
                          "f_max": 8.0, "direction": [1.0, 0.0, 0.0]}]}),
    "slope_lidar": ("slope_uturn", 1, {"start_xy": [0.7, 0.0],
                                       "estimation_mode": "estimated_normal"}),
    "slope_saturate": ("slope_impact", 1, {"estimation_mode": "horizontal_normal"}),
    "disturbance_1khz": ("disturbance", 3, {"sim_rate": 1000}),
}

# name: (bundled scenario, seed, overrides) of the full-length runs that
# --artifacts writes: the bundled scenarios at seed 3 with their own normals,
# three of them with estimated normals and slope_impact with horizontal ones,
# and the benchmark workloads at seed 1 with their benchmark durations
FULL_RUNS = {
    **{name: CONFIGS[name] for name in ("disturbance", "asymmetric", "slope_impact",
                                        "slope_uturn")},
    **{f"{name}_estimated": (name, 3, {"estimation_mode": "estimated_normal"})
       for name in ("asymmetric", "disturbance", "slope_impact")},
    "slope_impact_horizontal": ("slope_impact", 3, {"estimation_mode": "horizontal_normal"}),
    **{name: (*CONFIGS[name][:2], {**CONFIGS[name][2], "duration": duration})
       for name, duration in (("flat_push", 0.2), ("slope_lidar", 0.4),
                              ("slope_saturate", 1.2))},
}


def run(name: str, model: RobotModel | None = None) -> tuple[np.ndarray, str]:
    """The log array and the metrics, as sorted JSON, of one configuration's window."""
    scenario_name, seed, params = CONFIGS[name]
    path = files("wbcsim").joinpath(f"data/scenarios/{scenario_name}.scn")
    scenario = load_scenario(str(path), {**params, "duration": WINDOW})
    log, metrics = run_scenario(model or RobotModel(), scenario, seed=seed)
    return log, json.dumps(metrics.to_dict(), sort_keys=True)


def load() -> dict[str, tuple[np.ndarray, str]]:
    """The stored log array and metrics JSON of every configuration."""
    with np.load(DATA) as data:
        return {name: (data[f"{name}.log"], str(data[f"{name}.metrics"]))
                for name in CONFIGS}


def write_full_runs(out: Path) -> int:
    """The CLI artifacts of every FULL_RUNS entry, each in out/<name>."""
    for name, (scenario_name, seed, params) in FULL_RUNS.items():
        path = files("wbcsim").joinpath(f"data/scenarios/{scenario_name}.scn")
        args = ["--scenario", str(path), "--out", str(out / name), "--seed", str(seed)]
        for key, value in params.items():
            args += ["--param", f"{key}={json.dumps(value)}"]
        if cli_main(args) == 2:          # 0 for a run that stands, 1 for a fall
            return 2
    return 0


def _largest_move(new, old) -> float | None:
    """The largest |new - old| of two arrays of a shape, or None when they are
    bit-equal; inf where only one of a pair is NaN."""
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    if np.array_equal(new, old, equal_nan=True):
        return None
    with np.errstate(invalid="ignore"):
        diff = np.where(np.isnan(new) & np.isnan(old), 0.0, np.abs(new - old))
    return float(np.where(np.isnan(diff), np.inf, diff).max())


def moves(old_path: Path) -> list[str]:
    """For each window, one line naming every log column and metric that moved
    from the data in old_path, each with its largest |difference|."""
    with np.load(old_path) as data:
        old = {name: (data[f"{name}.log"], str(data[f"{name}.metrics"]))
               for name in CONFIGS if f"{name}.log" in data}
    lines = []
    for name, (log, metrics) in load().items():
        if name not in old:
            lines.append(f"{name}: not in {old_path}")
            continue
        old_log, old_metrics = old[name]
        rows = min(len(log), len(old_log))
        moved = [f"{col} {d:.2g}" for col, d in
                 ((col, _largest_move(log[:rows, j], old_log[:rows, j]))
                  for j, col in enumerate(LOG_COLUMNS)) if d is not None]
        if len(log) != len(old_log):
            moved.append(f"{len(old_log)} -> {len(log)} rows")
        new_m, old_m = json.loads(metrics), json.loads(old_metrics)
        for key in sorted(new_m.keys() | old_m.keys()):
            a, b = new_m.get(key), old_m.get(key)
            if isinstance(a, (int, float)) and isinstance(b, (int, float)):
                d = _largest_move(a, b)
                if d is not None:
                    moved.append(f"metrics.{key} {d:.2g}")
            elif a != b:
                moved.append(f"metrics.{key} {b!r} -> {a!r}")
        lines.append(f"{name}: {', '.join(moved) if moved else 'unchanged'}")
    return lines


def main(names: list[str]) -> int:
    usage = {"--artifacts": "DIR", "--moves": "OLD.npz"}
    if names[:1] and names[0] in usage:
        if len(names) != 2:
            print(f"usage: reference_runs.py {names[0]} {usage[names[0]]}", file=sys.stderr)
            return 2
        if names[0] == "--moves":
            print("\n".join(moves(Path(names[1]))))
            return 0
        return write_full_runs(Path(names[1]))
    unknown = sorted(set(names) - set(CONFIGS))
    if unknown:
        print(f"unknown configuration(s): {', '.join(unknown)}; "
              f"known: {', '.join(CONFIGS)}", file=sys.stderr)
        return 2
    runs = load() if names and DATA.exists() else {}
    model = RobotModel()
    for name in names or CONFIGS:
        runs[name] = run(name, model)
    DATA.parent.mkdir(exist_ok=True)
    arrays = {}
    for name, (log, metrics) in runs.items():
        arrays[f"{name}.log"] = log
        arrays[f"{name}.metrics"] = np.array(metrics)
    np.savez_compressed(DATA, **arrays)
    print(f"wrote {len(runs)} configurations to {DATA}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
