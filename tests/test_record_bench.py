"""The benchmark recorder: its BENCH file from the self-test's tiny workloads,
the commit it names and the runs it refuses."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_NAMES = [m["name"] for m in DECLARED["per_layer"]]
sys.path.insert(0, str(ROOT / "perfbench"))

from pcbench import runner  # noqa: E402


def _recorder():
    spec = importlib.util.spec_from_file_location("record_bench", ROOT / "tools" / "record_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tiny_summary(recorder, workload, seed, trace=False):
    result = runner.run(workload, seed, 0.001, trace, tiny=True)
    env = runner.environment(ROOT, seed)
    return {**result.summary(), "git_commit": env["git_commit"], "source_sha256": env["source_sha256"],
            "speed_reference_ms": recorder.speed_reference_ms(runner.report_lines(result, env))}


def test_a_tiny_recording_holds_every_end_to_end_and_layer_metric_with_its_quartiles():
    recorder = _recorder()
    workloads = [w["name"] for w in DECLARED["workloads"]]
    summaries = {w: [_tiny_summary(recorder, w, 3) for _ in range(2)] for w in workloads}
    traced = {w: [_tiny_summary(recorder, w, 3, trace=True) for _ in range(2)] for w in workloads}
    bench = json.loads(json.dumps(recorder.summarise("tiny", summaries, traced, [3], 0.001)))
    assert set(bench) == {"label", "commit", "source_sha256", "seeds", "seconds", "runs_per_seed", "workloads"}
    assert (bench["label"], bench["seeds"], bench["seconds"], bench["runs_per_seed"]) == ("tiny", [3], 0.001, 2)
    assert isinstance(bench["commit"], str) and len(bench["source_sha256"]) == 64
    assert list(bench["workloads"]) == workloads
    for workload in bench["workloads"].values():
        assert (workload["runs"], workload["incorrect_runs"], workload["failed"]) == (2, 0, 0)
        assert workload["attempted"] > 0
        assert [(name, m["unit"], m["better"]) for name, m in workload["metrics"].items()] == [
            (m["name"], m["unit"], m["better"]) for m in DECLARED["end_to_end"]]
        layers = workload["layers"]
        assert (layers["runs"], layers["incorrect_runs"]) == (2, 0)
        assert [(name, m["unit"], m["better"]) for name, m in layers["metrics"].items()] == [
            (m["name"], m["unit"], m["better"]) for m in DECLARED["per_layer"]]
        reference = workload["speed_reference_ms"]
        assert (reference["unit"], reference["better"]) == ("ms", "lower")
        for m in [*workload["metrics"].values(), *layers["metrics"].values(), reference]:
            assert len(m["values"]) == 2
            assert min(m["values"]) <= m["q1"] <= m["median"] <= m["q3"] <= max(m["values"])

    lines = recorder.compare(bench, bench)
    end_to_end, per_layer = len(DECLARED["end_to_end"]), len(DECLARED["per_layer"])
    assert len(lines) == 1 + len(workloads) * (2 + end_to_end + per_layer)
    # per workload: its heading, the end-to-end metrics, the per-layer ones, the speed reference
    names = [line.split()[0] for line in lines[2:2 + end_to_end + per_layer + 1]]
    assert names == [*(m["name"] for m in DECLARED["end_to_end"]),
                     *(m["name"] for m in DECLARED["per_layer"]), "speed_reference_ms"]
    # a per-layer median can be 0 (a layer the workload never enters), and its change reads nan
    compared = [line for line in lines
                if line.startswith("  ") and not (line.split()[0] in LAYER_NAMES and "+nan%" in line)]
    assert all("+0.00%  within A's IQR  B better in 0/2 pairs" in line for line in compared)
    # a change is relative to A's size, so a rise from a negative median reads as a rise
    overhead = json.loads(json.dumps(bench))
    for workload, sign in zip(overhead["workloads"].values(), (-1, 1, -1)):
        workload["layers"]["metrics"]["trace.overhead_frac"].update(median=sign * 0.25, q1=-1.0, q3=1.0)
    rise = json.loads(json.dumps(overhead))
    for workload in rise["workloads"].values():
        workload["layers"]["metrics"]["trace.overhead_frac"]["median"] += 0.05
    changes = [line.split()[5] for line in recorder.compare(overhead, rise) if line.startswith("  trace.overhead_frac ")]
    assert changes == ["+20.00%"] * len(workloads)
    assert sum(line.startswith("  speed_reference_ms ") for line in lines) == len(workloads)
    # a file recorded before the speed reference and the layers were kept
    # still compares, without them
    older = json.loads(json.dumps(bench))
    for workload in older["workloads"].values():
        del workload["speed_reference_ms"], workload["layers"]
    kept = [line for line in lines if line.split()[0] not in ("speed_reference_ms", *LAYER_NAMES)]
    for a, b in ((older, bench), (bench, older)):
        assert recorder.compare(a, b) == kept


def test_the_speed_reference_is_read_from_its_report_line():
    recorder = _recorder()
    lines = ["env python=3.11", "speed reference median 9.301 ms over 120 operations (nominal 10.0 ms); times below",
             "operations 120 attempted, 0 failed"]
    assert recorder.speed_reference_ms(lines) == 9.301
    assert recorder.speed_reference_ms(lines[::2]) is None


def test_a_checkout_names_its_commit_and_whether_its_sources_differ(tmp_path):
    recorder = _recorder()
    assert recorder.checkout_commit(tmp_path) == "unknown (not a git checkout)"
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t"]
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\n")
    for args in (["init", "-q"], ["add", "."], ["commit", "-qm", "a"]):
        subprocess.run(git + args, check=True)
    sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True, check=True).stdout.strip()
    (tmp_path / "notes.txt").write_text("outside src and perfbench\n")
    assert recorder.checkout_commit(tmp_path) == sha
    (tmp_path / "src" / "a.py").write_text("x = 2\n")
    assert recorder.checkout_commit(tmp_path) == sha + "+dirty"


def test_a_run_that_ends_without_its_summary_is_refused_with_its_exit_and_stderr(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text('print("details in out.json")\nraise SystemExit("crashed")\n')
    with pytest.raises(RuntimeError, match=r"without its JSON summary \(exit 1\): crashed"):
        _recorder().run_once(tmp_path, "settle-all-peers", 1, 1.0, "abc")
