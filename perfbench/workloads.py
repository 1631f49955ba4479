"""Benchmark workloads: bundled scenarios, their overrides and output checks.

Every workload is a closed loop with one client: one process runs one
scenario, and each control cycle waits for the previous one.  The workload
seed is passed through to ``run_scenario``; the scenario and its overrides
are fixed, so the same seed gives the same inputs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

# 40 N*m actuator limit of robot_default.yaml; log.csv keeps 9 significant
# digits, so a torque sitting on the bound may read back a hair above it
TORQUE_LIMIT = 40.0
TORQUE_TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str                  # bundled scenario file name
    params: dict                   # overrides, as ``--param KEY=VALUE`` would set
    why: str
    fell: bool = False             # expected outcome of every run
    failed: bool = False
    max_abs_beta: float | None = None   # acceptance pitch bound inside the window
    min_psi_true: float | None = None   # deg; the window must reach the slope


WORKLOADS = {w.name: w for w in (
    Workload(
        name="flat_push",
        scenario="disturbance.scn",
        # the scenario's 8 N push, moved from 1.5 s into the 0.2 s window and
        # ramped over 0.1 s instead of 2.5 s, so the window holds its onset,
        # its peak and its release
        params={"duration": 0.2, "estimation_mode": "true_normal",
                "disturbances": [{"kind": "push", "t_start": 0.05,
                                  "duration": 0.1, "f_max": 8.0,
                                  "direction": [1.0, 0.0, 0.0]}]},
        why="an 8 N push on flat ground with true normals: model, dynamics "
            "and the equality-only HQP path; no estimation work",
        max_abs_beta=0.2),
    Workload(
        name="slope_lidar",
        scenario="slope_uturn.scn",
        # start 0.3 m before the slope blend at x = 1.0 m, so the 0.4 s
        # window drives onto the incline with lidar-estimated normals
        params={"duration": 0.4, "start_xy": [0.7, 0.0],
                "estimation_mode": "estimated_normal"},
        why="lidar-estimated normals driving onto a 15 deg slope: the only "
            "workload with normal-map updates and lookups",
        min_psi_true=5.0),
    Workload(
        name="slope_saturate",
        scenario="slope_impact.scn",
        # falls at about 0.95 s; the duration only caps a run that no
        # longer falls
        params={"duration": 1.2, "estimation_mode": "horizontal_normal"},
        why="horizontal normals on a 25 deg slope: torque bounds active and "
            "phase-1 LPs, the only HQP inequality path; ends in a fall",
        fell=True),
)}


@dataclass
class RunOutput:
    """What one scenario run left behind, as the checks need it."""
    fell: bool
    failed: bool
    failure: str
    max_abs_beta: float
    out_dir: Path


def read_columns(path: Path, prefix: str) -> list[list[float]]:
    """Columns of a CSV artifact whose header starts with ``prefix``."""
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows)
        idx = [i for i, name in enumerate(header) if name.startswith(prefix)]
        cols = [[] for _ in idx]
        for row in rows:
            for c, i in zip(cols, idx):
                c.append(float(row[i]))
    return cols


def check(workload: Workload, out: RunOutput) -> list[str]:
    """Problems with one run's output; an empty list means it passed."""
    problems = []
    if (out.fell, out.failed) != (workload.fell, workload.failed):
        problems.append(f"outcome fell={out.fell} failed={out.failed} "
                        f"({out.failure or 'no failure'}), expected "
                        f"fell={workload.fell} failed={workload.failed}")
    log = out.out_dir / "log.csv"
    if not log.is_file():
        return problems + ["log.csv missing"]
    worst = max((abs(v) for col in read_columns(log, "tau_") for v in col),
                default=0.0)
    if worst > TORQUE_LIMIT + TORQUE_TOL:
        problems.append(f"torque {worst:.9g} N*m beyond the "
                        f"{TORQUE_LIMIT:g} N*m limit")
    if workload.max_abs_beta is not None and not out.fell \
            and not out.max_abs_beta < workload.max_abs_beta:
        problems.append(f"pitch excursion {out.max_abs_beta:.4g} rad, "
                        f"bound {workload.max_abs_beta:g}")
    if workload.min_psi_true is not None:
        psi = out.out_dir / "psi_trace.csv"
        reached = (max(read_columns(psi, "psi_true")[0], default=0.0)
                   if psi.is_file() else 0.0)
        if reached < workload.min_psi_true:
            problems.append(f"window ends at incline {reached:.3g} deg, "
                            f"below {workload.min_psi_true:g} deg")
    return problems


def check_digests(digests: list[str]) -> list[int]:
    """Indices of same-seed runs whose log.csv differs from the first run's."""
    return [i for i, d in enumerate(digests) if d != digests[0]]
