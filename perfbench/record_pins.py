"""Record the default-seed pins: gas total and output digests per round.

    python3 perfbench/record_pins.py

Plays the first rounds of every workload at the default workload seed,
untimed, and writes their gas totals and the SHA-256 of their settlement
CSVs and event logs to ``perfbench/pins.json``.  Runs of ``run.py`` at the
default seed then require each of those rounds to match byte for byte.
Re-record only in a change that says why its outputs change.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from peerchain import sim  # noqa: E402
from pcbench import runner  # noqa: E402
from pcbench.workloads import DEFAULT_SEED, SPECS, Workload  # noqa: E402

PINNED_ROUNDS = 100  # more rounds than a 35-second run plays on a 2.1 GHz Xeon core


def main() -> None:
    pins = {}
    for name, spec in SPECS.items():
        wl = Workload(spec, DEFAULT_SEED)
        rows = []
        for i in range(PINNED_ROUNDS):
            inp = wl.round_input(i)
            rows.append(runner.round_facts(sim.run_experiment(inp.config, inp.dataset)))
        pins[name] = rows
        print(f"{name}: {len(rows)} rounds", flush=True)
    env = runner.environment(HERE.parent, DEFAULT_SEED)
    doc = {
        "seed": DEFAULT_SEED,
        "recorded_from": {k: env[k] for k in ("git_commit", "source_sha256", "python", "numpy")},
        "workloads": pins,
    }
    (HERE / "pins.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
