"""Steadiness check: run workloads over several seeds and report, per
metric, the median, the quartiles and the spread (quartile distance as
a share of the median) next to the bound ``BENCHMARK.json`` fixes.

    python3 perfbench/spread.py --seeds 10 --out perfbench/steadiness.json
    python3 perfbench/spread.py --trace 1 --seeds 2 --same-seed --out perfbench/determinism.json

Run from the root of a checkout. Each run is a separate process, run
one after another, exactly as ``BENCHMARK.json``'s command line. With
``--same-seed`` every run uses the first seed, so count metrics must
come out identical (spread 0).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    report = {}
    for workload in args.workloads:
        per_metric: dict[str, list[float]] = {}
        walls = []
        seeds = ([args.first_seed] * args.seeds if args.same_seed
                 else range(args.first_seed, args.first_seed + args.seeds))
        for seed in seeds:
            doc, wall = run_once(workload, seed, spec["run_seconds"], args.trace)
            if not doc["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: answers failed the check")
            walls.append(wall)
            for name, m in doc["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
        rows = {name: summarize(vals) for name, vals in per_metric.items()}
        report[workload] = {"wall_s": summarize(walls), "metrics": rows}
        print(f"{workload}: run wall time median {statistics.median(walls):.1f}s")
        for name, row in rows.items():
            bound = bounds.get(name) if not args.trace else None
            flag = ""
            if bound is not None:
                flag = "ok" if row["spread"] <= bound / 3 else "WIDE"
            print(f"  {name:<36} median={row['median']:<14.6g} "
                  f"spread={row['spread']:.4f} bound={bound} {flag}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
