"""Time one set-up of a workload in this fresh interpreter and print it.

The set-up is what ``run.py`` does before its first timed operation:
importing the benchmark and peerchain, then generating the workload's
inputs (datasets of the first cycle, incentive scenarios with their
calibrated worlds).  It prints the time at the nominal reference speed
(see pcbench/speed.py).  ``run.py`` starts this script a few times per
run and reports the median as ``setup_s``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from pcbench import runner  # noqa: E402,F401  (the same imports as run.py)
from pcbench.speed import Speedometer, normalised  # noqa: E402
from pcbench.workloads import SPECS, Workload  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    Workload(SPECS[args.workload], args.seed)
    wall = time.perf_counter() - T_START
    print(f"{normalised(wall, Speedometer().warm()):.9f}")


if __name__ == "__main__":
    main()
