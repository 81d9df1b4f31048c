"""Print every metric of every workload: one untraced and one traced run each.

    python3 perfbench/report.py --seed 0 --seconds 30

The runs go one after another, never two at once, each in its own
process through run.py.  Each metric is printed by name with its unit and
sample count, followed by the workload's failed_ops line.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent

sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=600,
            )
            lines = done.stdout.splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: run failed\n{done.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            for line in lines[:-1]:
                if line.startswith(("metric ", "FAILED ", "design ")):
                    print(f"{workload:10s} trace={trace} {line}")
            if not result["correct"]:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
