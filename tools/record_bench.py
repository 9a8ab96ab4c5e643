"""Record the round benchmark's end-to-end and per-layer metrics into ``BENCH_<label>.json``.

Run from anywhere; it measures the checkout this file lives in:

    python3 tools/record_bench.py --label 31 --seeds 1 --runs 10
    python3 tools/record_bench.py --label 31 --runs 10 --baseline ../parent
    python3 tools/record_bench.py --compare BENCH_30.json BENCH_31.json

Each run is ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` in a fresh process, one at a time, and each is followed by the
same command with ``--trace 1``; the last line of a run's output is the
JSON summary read here.  Per workload the file holds each end-to-end
metric's median and quartiles over the untraced runs, with every run's
value in run order, and in the same form ``speed_reference_ms``: each
untraced run's ``speed reference median X ms`` line, the machine-speed
probe that normalises its times, and ``raw_wall_p50_s``: for each
operation kind and label, the median raw wall time of each untraced run's
correct untraced operations, read from the details file its ``details in``
line names (``operations[].wall_s``), under the name of the normalised
metric it stands beside (``round_oa_p50_s``; ``mc_payment_mc_p50_s`` for
an estimator, which no normalised metric names one by one).  Its
``layers`` hold, in the same form,
each per-layer metric of ``BENCHMARK.json`` over the traced runs, with
their run and incorrect-run counts.  The file also holds the
``src/peerchain`` digest the runs printed, the seeds and the run length
(``--seconds``, by default ``BENCHMARK.json``'s ``run_seconds``).
Its ``commit`` is the checkout's HEAD, with ``+dirty`` appended when
``src/`` or ``perfbench/`` differ from it (run.py itself reads HEAD alone).

Before the workloads run, the recording times one probe that no workload
runs, ``--runs`` times, each in a fresh interpreter: ``cold_verify_s``, the
``Ledger.load`` plus ``audit`` of one fixed log (the OA round of
``COLD_VERIFY_ROUND``: 12 agents, 40 synthetic services at seed 3, one
commitment per answer), imports excluded.  The log is written once, by this
checkout, and every run checks that the replay is clean and byte-identical.
Its median, quartiles and run values are the file's top-level ``probes``.

``--baseline DIR`` runs the same workloads and probe in the checkout at DIR
as well (make it with ``git clone``, so that its commit is named),
alternating the two runs of each pair and which goes first, and writes
``BENCH_<label>-baseline.json`` beside the other file.  ``--compare A B``
prints, per workload and metric, both medians, the relative change,
whether it is larger than A's interquartile range, and, when both files
hold the same number of runs (as a ``--baseline`` recording does), in how
many pairs taken in run order B was the better.  The end-to-end metrics
come first, each followed by its raw wall p50 as ``raw.<name>``, then the
raw wall p50s of the estimators, the per-layer metrics and the speed
reference, each where both files hold it, and last the probes both files
hold.  So a claim can be read both normalised and raw.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
METRICS = {m["name"]: m for m in DECLARED["end_to_end"]}
LAYERS = {m["name"]: m for m in DECLARED["per_layer"]}
SPEED_REFERENCE = re.compile(r"speed reference median ([0-9.]+) ms over \d+ operations")
DETAILS = re.compile(r"details in (.+)$")
# prints the cold-verify probe's log: an unpacked 12 x 40 OA round, seed 3 (694 events, 339 commitments)
COLD_VERIFY_ROUND = """
import sys
from peerchain import sim
config = sim.ExperimentConfig(packed=False, agents=12, seed=3)
sys.stdout.write(sim.run_experiment(config, sim.QoSDataset.synthetic(12, 40, seed=3)).ledger.dump())
"""
# prints the seconds one Ledger.load plus audit of the log at argv[1] takes
COLD_VERIFY = """
import sys, time
from peerchain.ledger import Ledger
text = open(sys.argv[1], encoding="utf-8", newline="").read()  # the bytes as written: no newline translation
start = time.perf_counter()
ledger = Ledger.load(text)
findings = ledger.audit()
seconds = time.perf_counter() - start
if findings or ledger.dump() != text:
    sys.exit(f"the replay is not clean: {findings[:3]}")
print(seconds)
"""


def _env_fields(lines: list[str]) -> dict[str, str]:
    """The ``key=value`` fields of a run's ``env`` line (two spaces apart)."""
    for line in lines:
        if line.startswith("env "):
            return dict(field.partition("=")[::2] for field in line[4:].split("  ") if "=" in field)
    return {}


def speed_reference_ms(lines: list[str]) -> float | None:
    """The median of a run's speed-reference line, None when it printed none."""
    for line in lines:
        found = SPEED_REFERENCE.match(line)
        if found:
            return float(found.group(1))
    return None


def raw_wall_p50_s(details: Path) -> dict[str, float]:
    """Per operation kind and label, in first-run order, the median raw wall
    time of a details file's correct untraced operations, each under the
    name ``<kind>_<label>_p50_s`` of the normalised metric beside it."""
    walls: dict[str, list[float]] = {}
    for op in json.loads(details.read_text())["operations"]:
        if op["ok"] and not op["traced"]:
            walls.setdefault(f"{op['kind']}_{op['label']}_p50_s", []).append(op["wall_s"])
    return {name: median(values) for name, values in walls.items()}


def details_path(checkout: Path, lines: list[str]) -> Path | None:
    """The details file a run's ``details in`` line names, None when it printed none."""
    for line in lines:
        found = DETAILS.match(line)
        if found:
            return checkout / found.group(1)
    return None


def checkout_commit(checkout: Path) -> str:
    """The checkout's HEAD commit, ``<sha>+dirty`` when ``src/`` or
    ``perfbench/`` hold changes or untracked files."""
    git = ["git", "-C", str(checkout)]
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
    if head.returncode:
        return "unknown (not a git checkout)"
    status = subprocess.run(git + ["status", "--porcelain", "--", "src", "perfbench"],
                            capture_output=True, text=True, check=True)
    return head.stdout.strip() + ("+dirty" if status.stdout.strip() else "")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, commit: str, trace: bool = False) -> dict:
    """One benchmark run in a fresh process, traced or not: its JSON
    summary, with the given commit and the source digest the run printed."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = done.stdout.splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} printed nothing: {done.stderr[-2000:]}")
    try:
        summary = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} ended without its JSON summary "
                           f"(exit {done.returncode}): {done.stderr[-2000:]}") from None
    summary["git_commit"] = commit
    summary["source_sha256"] = _env_fields(lines).get("source_sha256", "unknown")
    summary["speed_reference_ms"] = speed_reference_ms(lines)
    details = details_path(checkout, lines)
    summary["raw_wall_p50_s"] = raw_wall_p50_s(details) if details else {}
    return summary


def _python(checkout: Path, code: str, *args: str) -> str:
    """What ``code`` prints, run by a fresh interpreter on the checkout's ``src``."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    done = subprocess.run([sys.executable, "-c", code, *args], cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"a probe in {checkout} failed (exit {done.returncode}): {done.stderr[-2000:]}")
    return done.stdout


def cold_verify_log(checkout: Path) -> str:
    """The cold-verify probe's log, as the checkout writes it."""
    return _python(checkout, COLD_VERIFY_ROUND)


def cold_verify_s(checkout: Path, log: Path) -> float:
    """One fresh interpreter's ``Ledger.load`` plus ``audit`` of the log file, in seconds."""
    return float(_python(checkout, COLD_VERIFY, str(log)))


def _spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method, as numpy's default)."""
    q1, _, q3 = quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median(values), "q1": q1, "q3": q3}


def _distribution(values: list[float], unit: str, better: str) -> dict:
    """One metric's entry: unit, direction, median and quartiles, the values."""
    spread = _spread(values) if values else {"median": None, "q1": None, "q3": None}
    return {"unit": unit, "better": better, **spread, "values": values}


def _raw_distributions(summaries: list[dict]) -> dict[str, dict]:
    """Each operation kind and label's raw wall p50 over the runs that hold it."""
    names = dict.fromkeys(name for s in summaries for name in s.get("raw_wall_p50_s", {}))
    return {name: _distribution([s["raw_wall_p50_s"][name] for s in summaries if name in s.get("raw_wall_p50_s", {})],
                                "s", "lower") for name in names}


def _distributions(declared: dict[str, dict], summaries: list[dict]) -> dict[str, dict]:
    """Each declared metric's entry over the runs that give it a value."""
    entries = {}
    for name, metric in declared.items():
        values = [s["metrics"][name]["value"] for s in summaries
                  if s["metrics"].get(name, {}).get("value") is not None]
        entries[name] = _distribution(values, metric["unit"], metric["better"])
    return entries


def summarise(label: str, summaries: dict[str, list[dict]], traced: dict[str, list[dict]],
              seeds: list[int], seconds: float, probes: dict[str, list[float]]) -> dict:
    """The BENCH file's contents from each workload's untraced and traced
    run summaries and each probe's values (seconds, lower is better), in run order."""
    runs = [s for per_workload in [*summaries.values(), *traced.values()] for s in per_workload]
    commits = sorted({s["git_commit"] for s in runs})
    sources = sorted({s["source_sha256"] for s in runs})
    workloads = {}
    for workload, per_workload in summaries.items():
        references = [s["speed_reference_ms"] for s in per_workload if s["speed_reference_ms"] is not None]
        layers = traced.get(workload, [])
        workloads[workload] = {
            "runs": len(per_workload),
            "incorrect_runs": sum(not s["correct"] for s in per_workload),
            "attempted": sum(s["attempted"] for s in per_workload),
            "failed": sum(s["failed"] for s in per_workload),
            "metrics": _distributions(METRICS, per_workload),
            "raw_wall_p50_s": _raw_distributions(per_workload),
            "speed_reference_ms": _distribution(references, "ms", "lower"),
            "layers": {
                "runs": len(layers),
                "incorrect_runs": sum(not s["correct"] for s in layers),
                "metrics": _distributions(LAYERS, layers),
            },
        }
    return {
        "label": label,
        "commit": commits[0] if len(commits) == 1 else commits,
        "source_sha256": sources[0] if len(sources) == 1 else sources,
        "seeds": seeds,
        "seconds": seconds,
        "runs_per_seed": sum(map(len, summaries.values())) // max(1, len(seeds) * len(summaries)),
        "workloads": workloads,
        "probes": {name: _distribution(values, "s", "lower") for name, values in probes.items()},
    }


def record(label: str, out_dir: Path, workloads: list[str], seeds: list[int], runs: int, seconds: float,
           baseline: Path | None = None) -> list[Path]:
    """Run every (workload, seed) ``runs`` times untraced and as often
    traced, and write the BENCH file(s)."""
    labels = {ROOT: label, baseline: f"{label}-baseline"} if baseline else {ROOT: label}
    commits = {checkout: checkout_commit(checkout) for checkout in labels}
    # per checkout and trace flag, each workload's run summaries in run order
    kept = {(checkout, trace): {w: [] for w in workloads} for checkout in labels for trace in (False, True)}
    probes = {checkout: [] for checkout in labels}
    with tempfile.TemporaryDirectory() as scratch:
        log = Path(scratch) / "cold_verify.log"
        log.write_text(cold_verify_log(ROOT))
        for pair in range(runs):
            order = list(labels)
            for checkout in order[::-1] if pair % 2 else order:
                probes[checkout].append(cold_verify_s(checkout, log))
                print(f"{labels[checkout]} cold_verify_s={probes[checkout][-1]:.4f}", file=sys.stderr, flush=True)
    pair = 0
    for workload in workloads:
        for seed in seeds:
            for _ in range(runs):
                for trace in (False, True):
                    order = list(labels)
                    for checkout in order[::-1] if pair % 2 else order:
                        summary = run_once(checkout, workload, seed, seconds, commits[checkout], trace)
                        kept[checkout, trace][workload].append(summary)
                        _progress(labels[checkout], workload, seed, trace, summary)
                pair += 1
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for checkout, name in labels.items():
        path = out_dir / f"BENCH_{name}.json"
        bench = summarise(name, kept[checkout, False], kept[checkout, True], seeds, seconds,
                          {"cold_verify_s": probes[checkout]})
        path.write_text(json.dumps(bench, indent=1) + "\n")
        paths.append(path)
    return paths


def _progress(label: str, workload: str, seed: int, trace: bool, summary: dict) -> None:
    metric = "peer_selection.sample_s" if trace else "mc_rounds_per_s"
    value = summary["metrics"].get(metric, {}).get("value")
    print(f"{label} {workload} seed {seed} trace {int(trace)}: correct={summary['correct']} {metric}={value}",
          file=sys.stderr, flush=True)


def _compared(name: str, ma: dict, mb: dict) -> str:
    """One metric's line: both medians, the change, whether it exceeds A's
    interquartile range, and the pairs B won when the run counts match."""
    delta = mb["median"] - ma["median"]
    # relative to A's size, so the change has delta's sign even where A
    # is negative (trace.overhead_frac can be)
    change = delta / abs(ma["median"]) if ma["median"] else float("nan")
    sign = 1 if ma["better"] == "higher" else -1
    beyond = abs(delta) > ma["q3"] - ma["q1"]
    line = (f"  {name:30s} A {ma['median']:<12.6g} B {mb['median']:<12.6g} "
            f"{change:+8.2%}  {'beyond' if beyond else 'within'} A's IQR")
    va, vb = ma["values"], mb["values"]
    if len(va) == len(vb) and va:
        wins = sum(sign * (y - x) > 0 for x, y in zip(va, vb))
        line += f"  B better in {wins}/{len(va)} pairs"
    return line


def _both(ma: dict | None, mb: dict | None) -> bool:
    return not (ma is None or mb is None or ma["median"] is None or mb["median"] is None)


def compare(a: dict, b: dict) -> list[str]:
    """Per workload: the end-to-end metrics, each with its raw wall p50,
    then the estimators' raw wall p50s, the per-layer metrics and the speed
    reference where both files hold them, each with both medians,
    the change, and whether it exceeds A's interquartile range; pair wins
    when the run counts match.  Then the probes both files hold."""
    lines = [f"A = {a['label']} ({a['commit']}), B = {b['label']} ({b['commit']})"]
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            continue
        lines.append(f"{workload}: A {wa['runs']} runs, B {wb['runs']} runs")
        reference = "speed_reference_ms"
        layers_a, layers_b = (w.get("layers", {}).get("metrics", {}) for w in (wa, wb))
        raw_a, raw_b = ({f"raw.{name}": m for name, m in w.get("raw_wall_p50_s", {}).items()} for w in (wa, wb))
        in_b = {**wb["metrics"], **raw_b, **layers_b, reference: wb.get(reference)}
        # each end-to-end metric with its raw counterpart, then the raw ones that have none
        paired = [item for name, ma in wa["metrics"].items()
                  for item in [(name, ma), (f"raw.{name}", raw_a.pop(f"raw.{name}", None))]]
        for name, ma in [*paired, *raw_a.items(), *layers_a.items(), (reference, wa.get(reference))]:
            if _both(ma, in_b.get(name)):
                lines.append(_compared(name, ma, in_b[name]))
    probes_a, probes_b = a.get("probes", {}), b.get("probes", {})
    probes = [name for name, ma in probes_a.items() if _both(ma, probes_b.get(name))]
    if probes:
        lines.append("probes:")
        lines += [_compared(name, probes_a[name], probes_b[name]) for name in probes]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", help="names the output file BENCH_<label>.json")
    parser.add_argument("--workloads", nargs="+", default=WORKLOADS, choices=WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--runs", type=int, default=10, help="untraced and traced runs per workload and seed")
    parser.add_argument("--seconds", type=float, default=float(DECLARED["run_seconds"]),
                        help="length of each run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory of the BENCH files")
    parser.add_argument("--baseline", type=Path, help="a second checkout, run alternately")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(p.read_text()) for p in args.compare)
        print("\n".join(compare(a, b)))
        return 0
    if not args.label:
        parser.error("--label is required unless --compare is given")
    if args.runs < 1 or args.seconds <= 0 or any(s < 0 for s in args.seeds):
        parser.error("--runs must be positive, --seconds positive and --seeds nonnegative")
    baseline = args.baseline.resolve() if args.baseline else None
    for path in record(args.label, args.out, args.workloads, args.seeds, args.runs, args.seconds, baseline):
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
