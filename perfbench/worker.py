"""One scenario run in a fresh process, along the ``wbcsim --mode run`` path.

Usage: ``python3 worker.py SPEC_JSON`` with ``src/`` on ``PYTHONPATH``.  The
spec names the scenario file, overrides, seed, output directory and
whether to trace.  The worker imports wbcsim, builds ``RobotModel()`` and
parses the scenario with its overrides, then prints ``ready``: the parent
times set-up up to that line.  It then runs the scenario, writes the
artifacts, and prints one JSON line with the run phase's wall and CPU
time, the cycles completed (``log.csv`` rows), the outcome, the log digest
and the peak resident memory.  With tracing on, wrappers are installed
before the scenario is parsed and the spans are written to ``spans.csv``
in the output directory after the run.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time


def main(spec: dict) -> int:
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
    import numpy as np
    from wbcsim import cli, simulator
    from wbcsim.model import RobotModel
    if tracer is not None:
        tracer.install()
    scenario = cli.load_scenario(spec["scenario"], spec["params"])
    model = RobotModel()
    print("ready", flush=True)

    out_dir = spec["out_dir"]
    t0, c0 = time.perf_counter(), time.process_time()
    records, metrics = simulator.run_scenario(model, scenario, seed=spec["seed"])
    slope = not np.allclose(
        [scenario.terrain.grad(x, 0.0) for x in np.linspace(-3, 3, 13)], 0.0)
    cli.write_artifacts(out_dir, records, metrics, slope)
    run_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0

    if tracer is not None:
        tracer.uninstall()
        tracer.write_csv(os.path.join(out_dir, "spans.csv"))
    with open(os.path.join(out_dir, "log.csv"), "rb") as fh:
        log = fh.read()
    result = {
        "run_s": run_s,
        "cpu_s": cpu_s,
        "cycles": log.count(b"\n") - 1,
        "fell": bool(metrics.fell),
        "failed": bool(metrics.failed),
        "failure": metrics.failure,
        "max_abs_beta": float(metrics.max_abs_beta),
        "digest": hashlib.sha256(log).hexdigest(),
        "artifact_bytes": sum(e.stat().st_size for e in os.scandir(out_dir)
                              if e.is_file() and e.name != "spans.csv"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "absent": tracer.absent if tracer is not None else [],
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
