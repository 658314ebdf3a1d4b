"""Print every end-to-end metric, with units, for each benchmark workload.

Usage (from the repository root)::

    python3 perfbench/summary.py --seed 1

Each workload runs in its own fresh ``perfbench/run.py`` process with
tracing off.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    args = p.parse_args(argv)
    for w in BENCH["workloads"]:
        report, result = _run(w["name"], args.seed, args.seconds)
        run_s = report["run_s"]
        print(f"{w['name']}  (seed {args.seed}, {run_s['samples']} passes, "
              f"correct={result['correct']})")
        for name, m in result["metrics"].items():
            print(f"  {name:<22} {m['value']:>12.4f} {m['unit']}")
        print(f"  {'checks_failed_ratio':<22} {report['checks_failed_ratio']:>12.4f}"
              f" ratio  ({result['failed']}/{result['attempted']})")
        if run_s["tail"]:
            print(f"  run_s p{run_s['tail']['percentile']:.0f}"
                  f"{'':<16} {run_s['tail']['value']:>12.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
