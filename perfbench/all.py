"""Run every workload of the benchmark on one seed, untraced then traced.

    python3 perfbench/all.py [--seed 42] [--seconds 18]

Prints each run's output (end-to-end metrics, then per-layer metrics, each
with its unit and the run's provenance) and exits non-zero if any run
failed or failed a check.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=18)
    args = ap.parse_args(argv)
    failed = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"== {workload} trace={trace}", flush=True)
            done = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(trace)], check=False)
            if done.returncode != 0:
                failed.append(f"{workload} trace={trace} (exit {done.returncode})")
    for f in failed:
        print(f"FAILED {f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
