"""Repeat the benchmark over seeds and summarise the run-to-run spread.

Usage, from the repository root::

    python3 perfbench/collect.py --workloads flat_push slope_lidar \\
        --seeds 1-10 --trace 0 --out perfbench/out/set1.json

Runs ``run.py`` once per workload and seed, one after another, for the
``run_seconds`` of ``BENCHMARK.json``, and writes
every run's result line plus, per metric, the median, the quartiles and the
spread (interquartile range over median) as ``statistics.quantiles(values,
n=4)`` gives them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "min": min(values), "max": max(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    report = {}
    for name in args.workloads:
        runs = []
        for seed in seeds_of(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, check=False)
            line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0 or not line.startswith("{"):
                print(f"{name} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            result = json.loads(line)
            result["seed"] = seed
            runs.append(result)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                flush=True)
        metrics = runs[0]["metrics"]
        report[name] = {
            "runs": runs,
            "summary": {k: summarise([r["metrics"][k]["value"] for r in runs])
                        | {"unit": metrics[k]["unit"]} for k in metrics},
        }
        for k, s in report[name]["summary"].items():
            print(f"  {name} {k}: median {s['median']:.5g} {s['unit']}, "
                  f"spread {s['spread']:.4f}", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
