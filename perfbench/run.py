"""Round benchmark for peerchain.

Run from the root of a checkout:

    python3 perfbench/run.py --workload settle-all-peers --seed 1 --seconds 20 --trace 0

It measures the checkout's own ``src/peerchain``: complete protocol rounds,
their verification by replay and audit, and the Monte-Carlo estimators of
``peerchain incentives``, in a closed loop for about ``--seconds`` seconds.
Every output is checked.  It prints a readable report and, as its last
line, one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Details (every operation's wall and CPU time, output
digests, spans of a traced run) go to ``perfbench/out/``.  Exit status is 0
when every output check passed.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PINS = HERE / "pins.json"


def import_checkout_package() -> None:
    """Put the checkout's sources first and make sure they are what loads."""
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import peerchain
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import peerchain from {SRC}: {exc}")
    loaded = Path(peerchain.__file__).resolve().parent
    if loaded != (SRC / "peerchain").resolve():
        raise SystemExit(f"perfbench: peerchain loaded from {loaded}, not from {SRC}")


def load_pins(workload: str, seed: int) -> dict[int, dict]:
    from pcbench.workloads import DEFAULT_SEED

    if seed != DEFAULT_SEED:
        return {}
    pinned = json.loads(PINS.read_text())["workloads"][workload]
    return dict(enumerate(pinned))


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload named in BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    import_checkout_package()
    from pcbench import runner
    from pcbench.workloads import SPECS

    if args.workload not in SPECS:
        parser.error(f"--workload must be one of {', '.join(SPECS)}")

    result = runner.run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        t_start=T_START,
        pins=load_pins(args.workload, args.seed),
        setup_probe=lambda: setup_probe(args.workload, args.seed),
    )
    env = runner.environment(ROOT, args.seed)
    for line in runner.report_lines(result, env):
        print(line)
    print(f"details in {runner.write_outputs(result, env, OUT).relative_to(ROOT)}")
    print(json.dumps(result.summary()), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
