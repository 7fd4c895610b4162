"""Run one benchmark workload, check its answers and print its metrics.

    python3 perfbench/run.py --workload engine_miss --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the library is imported from ``src/``
next to this directory, and scratch files go under
``.perfbench_work/`` in the current directory (removed at exit).

Workloads: ``engine_miss`` and ``engine_hot_moving`` (closed loops on
one in-process engine, see ``engine_bench.py``) and ``served_open``
(an open loop through the front door and a shard process, see
``served_bench.py``). ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones. The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Exit code 0 means the run finished and every answer checked out.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("engine_miss", "engine_hot_moving", "served_open")
#: a run that is still going after this many seconds fails
DEADLINE_S = 165
#: last resort if cleanup itself hangs: dump stacks and exit
_HARD_EXIT_S = 175


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded(f"run exceeded its {DEADLINE_S}s deadline")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("small", "tiny"), default="small",
                        help="venue size (tiny: the smoke test's profile)")
    return parser.parse_args(argv)


def run_workload(args, workdir: Path) -> dict:
    if args.workload == "served_open":
        import served_bench

        return served_bench.run(seed=args.seed, seconds=args.seconds,
                                trace=bool(args.trace), profile=args.profile,
                                workdir=workdir)
    import engine_bench

    return engine_bench.run(args.workload, seed=args.seed, seconds=args.seconds,
                            trace=bool(args.trace), profile=args.profile)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: FAILED: no library sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from common import busy_cpus
    from metrics import END_TO_END, PER_LAYER

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    faulthandler.dump_traceback_later(_HARD_EXIT_S, exit=True)
    scratch = Path.cwd() / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp, busy_cpus():
            out = run_workload(args, Path(tmp))
    except Exception as exc:  # noqa: BLE001 - the run's failure report
        import traceback

        traceback.print_exc()
        print(f"perfbench: FAILED: {args.workload}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        faulthandler.cancel_dump_traceback_later()
        shutil.rmtree(scratch, ignore_errors=True)

    wanted = PER_LAYER if args.trace else END_TO_END
    missing = [name for name in wanted if name not in out["metrics"]]
    if missing:
        out["notes"].append("n/a here (reported as 0): " + ", ".join(missing))
    for line in out["notes"]:
        print(line)
    for problem in out["problems"]:
        print(f"CHECK FAILED: {problem}")
    metrics = {name: {"value": float(out["metrics"].get(name, 0.0)), "unit": unit}
               for name, unit in wanted.items()}
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.4f} {m['unit']}"
              + ("  (n/a)" if name in missing else ""))
    correct = not out["problems"]
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
