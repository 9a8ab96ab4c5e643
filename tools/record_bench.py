"""Record the round benchmark's end-to-end metrics into ``BENCH_<label>.json``.

Run from anywhere; it measures the checkout this file lives in:

    python3 tools/record_bench.py --label 31 --seeds 1 --runs 10 --seconds 20
    python3 tools/record_bench.py --label 31 --runs 10 --baseline ../parent
    python3 tools/record_bench.py --compare BENCH_30.json BENCH_31.json

Each run is ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` in a fresh process, one at a time; its last line of output is
the JSON summary read here.  Per workload the file holds each end-to-end
metric's median and quartiles over the runs, with every run's value in run
order, the ``src/peerchain`` digest the runs printed, the seeds and the run
length.  Its ``commit`` is the checkout's HEAD, with ``+dirty`` appended
when ``src/`` or ``perfbench/`` differ from it (run.py itself reads HEAD
alone).

``--baseline DIR`` runs the same workloads in the checkout at DIR as well
(make it with ``git clone``, so that its commit is named),
alternating the two runs of each pair and which goes first, and writes
``BENCH_<label>-baseline.json`` beside the other file.  ``--compare A B``
prints, per workload and metric, both medians, the relative change,
whether it is larger than A's interquartile range, and, when both files
hold the same number of runs (as a ``--baseline`` recording does), in how
many pairs taken in run order B was the better.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
METRICS = {m["name"]: m for m in DECLARED["end_to_end"]}


def _env_fields(lines: list[str]) -> dict[str, str]:
    """The ``key=value`` fields of a run's ``env`` line (two spaces apart)."""
    for line in lines:
        if line.startswith("env "):
            return dict(field.partition("=")[::2] for field in line[4:].split("  ") if "=" in field)
    return {}


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


def run_once(checkout: Path, workload: str, seed: int, seconds: float, commit: str) -> dict:
    """One benchmark run in a fresh process: its JSON summary, with the
    given commit and the source digest the run printed."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
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
    return summary


def _spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method, as numpy's default)."""
    q1, _, q3 = quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median(values), "q1": q1, "q3": q3}


def summarise(label: str, summaries: dict[str, list[dict]], seeds: list[int], seconds: float) -> dict:
    """The BENCH file's contents from each workload's run summaries, in run order."""
    runs = [s for per_workload in summaries.values() for s in per_workload]
    commits = sorted({s["git_commit"] for s in runs})
    sources = sorted({s["source_sha256"] for s in runs})
    workloads = {}
    for workload, per_workload in summaries.items():
        metrics = {}
        for name, declared in METRICS.items():
            values = [s["metrics"][name]["value"] for s in per_workload
                      if s["metrics"].get(name, {}).get("value") is not None]
            metrics[name] = {"unit": declared["unit"], "better": declared["better"],
                             **(_spread(values) if values else {"median": None, "q1": None, "q3": None}),
                             "values": values}
        workloads[workload] = {
            "runs": len(per_workload),
            "incorrect_runs": sum(not s["correct"] for s in per_workload),
            "attempted": sum(s["attempted"] for s in per_workload),
            "failed": sum(s["failed"] for s in per_workload),
            "metrics": metrics,
        }
    return {
        "label": label,
        "commit": commits[0] if len(commits) == 1 else commits,
        "source_sha256": sources[0] if len(sources) == 1 else sources,
        "seeds": seeds,
        "seconds": seconds,
        "runs_per_seed": len(runs) // max(1, len(seeds) * len(summaries)),
        "workloads": workloads,
    }


def record(label: str, out_dir: Path, workloads: list[str], seeds: list[int], runs: int, seconds: float,
           baseline: Path | None = None) -> list[Path]:
    """Run every (workload, seed) ``runs`` times and write the BENCH file(s)."""
    measured: dict[str, list[dict]] = {w: [] for w in workloads}
    base: dict[str, list[dict]] = {w: [] for w in workloads}
    commits = {checkout: checkout_commit(checkout) for checkout in (ROOT, baseline) if checkout}
    pair = 0
    for workload in workloads:
        for seed in seeds:
            for _ in range(runs):
                order = [(ROOT, measured), (baseline, base)] if baseline else [(ROOT, measured)]
                for checkout, into in order[::-1] if pair % 2 else order:
                    into[workload].append(run_once(checkout, workload, seed, seconds, commits[checkout]))
                    _progress(label if into is measured else f"{label}-baseline", workload, seed, into[workload][-1])
                pair += 1
    out_dir.mkdir(parents=True, exist_ok=True)
    written = [(label, measured)] + ([(f"{label}-baseline", base)] if baseline else [])
    paths = []
    for name, summaries in written:
        path = out_dir / f"BENCH_{name}.json"
        path.write_text(json.dumps(summarise(name, summaries, seeds, seconds), indent=1) + "\n")
        paths.append(path)
    return paths


def _progress(label: str, workload: str, seed: int, summary: dict) -> None:
    mc = summary["metrics"].get("mc_rounds_per_s", {}).get("value")
    print(f"{label} {workload} seed {seed}: correct={summary['correct']} mc_rounds_per_s={mc}",
          file=sys.stderr, flush=True)


def compare(a: dict, b: dict) -> list[str]:
    """Per workload and metric: both medians, the change, and whether it
    exceeds A's interquartile range; pair wins when the run counts match."""
    lines = [f"A = {a['label']} ({a['commit']}), B = {b['label']} ({b['commit']})"]
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            continue
        lines.append(f"{workload}: A {wa['runs']} runs, B {wb['runs']} runs")
        for name, ma in wa["metrics"].items():
            mb = wb["metrics"].get(name)
            if mb is None or ma["median"] is None or mb["median"] is None:
                continue
            delta = mb["median"] - ma["median"]
            change = delta / ma["median"] if ma["median"] else float("nan")
            sign = 1 if ma["better"] == "higher" else -1
            beyond = abs(delta) > ma["q3"] - ma["q1"]
            line = (f"  {name:18s} A {ma['median']:<12.6g} B {mb['median']:<12.6g} "
                    f"{change:+8.2%}  {'beyond' if beyond else 'within'} A's IQR")
            va, vb = ma["values"], mb["values"]
            if len(va) == len(vb) and va:
                wins = sum(sign * (y - x) > 0 for x, y in zip(va, vb))
                line += f"  B better in {wins}/{len(va)} pairs"
            lines.append(line)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", help="names the output file BENCH_<label>.json")
    parser.add_argument("--workloads", nargs="+", default=WORKLOADS, choices=WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and seed")
    parser.add_argument("--seconds", type=float, default=20.0, help="length of each run")
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
