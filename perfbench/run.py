"""Scenario benchmark for wbcsim.

Usage, from the repository root::

    python3 perfbench/run.py --workload flat_push --seed 1 --seconds 40 --trace 0

Each repetition is a fresh process (``worker.py``) that follows the
``wbcsim --mode run`` path: parse the bundled scenario with the workload's
overrides, build the robot model, ``run_scenario``, write the artifacts.
Repetitions run one after another, all with the same seed, until the next
one would overrun ``--seconds``; every repetition's output is checked (see
``workloads.check``) and all of them must write the same ``log.csv``.

``--trace 0`` reports the end-to-end metrics over the repetitions (see
``end_to_end``).
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (see ``tracer.layer_metrics``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the run
(every repetition, the machine probe and, when traced, the per-entry
self-time shares and the spans) is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import probe
import tracer
from workloads import WORKLOADS, RunOutput, check, check_digests

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIOS = SRC / "wbcsim" / "data" / "scenarios"
OUT = HERE / "out"
REP_TIMEOUT_S = 150.0

END_TO_END = {
    "cycle_ms": "ms",
    "cycle_cpu_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}

PER_LAYER = {
    "model.kinematics_builds_per_cycle": "count",
    "model.task_jacobians_calls_per_cycle": "count",
    "model.self_ms_per_cycle": "ms",
    "dynamics.closed_loop_calls_per_cycle": "count",
    "dynamics.tree_dynamics_calls_per_cycle": "count",
    "dynamics.self_ms_per_cycle": "ms",
    "hqp.solve_ms_p50": "ms",
    "hqp.solve_ms_tail": "ms",
    "hqp.self_ms_per_cycle": "ms",
    "hqp.levels_per_solve": "count",
    "hqp.active_rows_per_cycle": "count",
    "hqp.saturated_cycle_frac": "ratio",
    "hqp.phase1_lp_per_cycle": "count",
    "task_control.self_ms_per_cycle": "ms",
    "task_control.lqr_solves_per_run": "count",
    "terrain.queries_per_cycle": "count",
    "terrain.self_ms_per_cycle": "ms",
    "terrain_estimation.update_ms_p50": "ms",
    "terrain_estimation.cells_per_update": "count",
    "terrain_estimation.neighborhood_queries_per_cell": "count",
    "terrain_estimation.lookup_hit_frac": "ratio",
    "terrain_estimation.lookup_ms_per_cycle": "ms",
    "terrain_estimation.self_ms_per_cycle": "ms",
    "simulator.step_ms_p50": "ms",
    "simulator.substeps_per_cycle": "count",
    "simulator.lidar_ms_per_frame": "ms",
    "simulator.self_ms_per_cycle": "ms",
    "cli.load_ms": "ms",
    "cli.write_ms": "ms",
    "cli.artifact_bytes": "bytes",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}


def run_rep(workload, seed: int, traced: bool, work_dir: Path) -> dict:
    """One repetition in a fresh worker process; returns its record."""
    out_dir = Path(tempfile.mkdtemp(prefix="rep-", dir=work_dir))
    spec = {"scenario": str(SCENARIOS / workload.scenario),
            "params": workload.params, "seed": seed,
            "out_dir": str(out_dir), "trace": traced}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    rep = {"traced": traced, "problems": []}
    t0 = time.perf_counter()
    with tempfile.TemporaryFile("w+", dir=work_dir) as err, subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            stdout=subprocess.PIPE, stderr=err, text=True, env=env,
            cwd=ROOT) as proc:
        watchdog = threading.Timer(REP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            rep["setup_s"] = time.perf_counter() - t0
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
        rep["wall_s"] = time.perf_counter() - t0
        err.seek(0)
        stderr_tail = err.read()[-2000:]
    lines = rest.strip().splitlines()
    if ready.strip() != "ready" or proc.returncode != 0 or not lines:
        rep["problems"].append(f"worker exited with {proc.returncode}: "
                               f"{stderr_tail.strip() or 'no output'}")
        shutil.rmtree(out_dir, ignore_errors=True)
        return rep
    rep.update(json.loads(lines[-1]))
    out = RunOutput(fell=rep["fell"], failed=rep["failed"],
                    failure=rep["failure"], max_abs_beta=rep["max_abs_beta"],
                    out_dir=out_dir)
    rep["problems"] += check(workload, out)
    if traced and rep["cycles"] > 0:
        spans = tracer.read_csv(out_dir / "spans.csv")
        rep["layers"] = tracer.layer_metrics(spans, rep["cycles"])
        rep["shares"] = tracer.entry_shares(spans)
        rep["spans_csv"] = (out_dir / "spans.csv").read_text()
    shutil.rmtree(out_dir, ignore_errors=True)
    return rep


def run_reps(workload, seed: int, seconds: float, trace: bool,
             work_dir: Path) -> list[dict]:
    """Repetitions until the next would overrun ``seconds``; at least two.

    With tracing, untraced and traced repetitions alternate, so that the
    overhead compares runs made at nearly the same time.
    """
    start = time.perf_counter()
    reps = []
    while True:
        traced = trace and len(reps) % 2 == 1
        reps.append(run_rep(workload, seed, traced, work_dir))
        elapsed = time.perf_counter() - start
        longest = max(r["wall_s"] for r in reps)
        if len(reps) >= 2 and elapsed + longest > seconds:
            return reps


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(reps: list[dict], passed: int) -> dict:
    """Per-cycle times of the slowest repetition; medians of the rest.

    On a shared host, other tenants' load comes and goes in bursts that
    make whole repetitions up to 1.7x faster.  The slowest repetition of a
    run tracks the host's loaded speed, which holds from run to run; the
    median follows the share of fast bursts a run happened to catch.
    """
    done = [r for r in reps if r.get("cycles", 0) > 0]
    return {
        "cycle_ms": max(1e3 * r["run_s"] / r["cycles"] for r in done),
        "cycle_cpu_ms": max(1e3 * r["cpu_s"] / r["cycles"] for r in done),
        "setup_s": _median(r["setup_s"] for r in reps),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in done),
        "pass_frac": passed / len(reps),
    }


def per_layer(reps: list[dict]) -> dict:
    traced = [r for r in reps if r.get("layers")]
    plain = [r for r in reps if not r["traced"] and r.get("cycles", 0) > 0]
    m = {k: _median(r["layers"][k] for r in traced)
         for k in traced[0]["layers"]}
    m["cli.artifact_bytes"] = _median(r["artifact_bytes"] for r in traced)
    m["trace.overhead_frac"] = (
        _median(1e3 * r["run_s"] / r["cycles"] for r in traced)
        / _median(1e3 * r["run_s"] / r["cycles"] for r in plain) - 1.0)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "wbcsim" / "simulator.py").is_file():
        print(f"error: no wbcsim sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # one BLAS thread in the probe and every worker: the matrices are at most
    # 22 x 22, and on a 2-vCPU host a second thread only adds contention,
    # doubling the run-to-run noise of flat_push and inflating CPU time
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    OUT.mkdir(exist_ok=True)
    machine = probe.machine_probe()
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as work:
        reps = run_reps(workload, args.seed, args.seconds, bool(args.trace),
                        Path(work))
    machine["steal_ticks_end"] = probe.steal_ticks()

    for i in check_digests([r.get("digest") for r in reps]):
        reps[i]["problems"].append("log.csv differs from the first same-seed run")
    failed = sum(1 for r in reps if r["problems"])
    if not any(r.get("cycles", 0) > 0 and not r["traced"] for r in reps) or (
            args.trace and not any(r.get("layers") for r in reps)):
        for r in reps:
            print("; ".join(r["problems"]), file=sys.stderr)
        print("error: no repetition completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics, units = per_layer(reps), PER_LAYER
    else:
        metrics, units = end_to_end(reps, len(reps) - failed), END_TO_END

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "probe": machine,
              "metrics": metrics,
              "reps": [{k: v for k, v in r.items() if k != "spans_csv"}
                       for r in reps]}
    spans = next((r["spans_csv"] for r in reps if r.get("spans_csv")), None)
    if spans is not None:
        (OUT / f"spans-{tag}.csv").write_text(spans)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for r in reps:
        if r["problems"]:
            print("FAILED: " + "; ".join(r["problems"]))
    print(f"{workload.name}: {len(reps)} repetitions, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    for name, unit in units.items():
        print(f"  {name:52s} {metrics[name]:14.6g} {unit}")
    print("probe: " + json.dumps(machine))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(reps), "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
