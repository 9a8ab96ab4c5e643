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
sys.path.insert(0, str(ROOT / "perfbench"))

from pcbench import runner  # noqa: E402


def _recorder():
    spec = importlib.util.spec_from_file_location("record_bench", ROOT / "tools" / "record_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tiny_summary(workload, seed):
    summary = runner.run(workload, seed, 0.001, False, tiny=True).summary()
    env = runner.environment(ROOT, seed)
    return {**summary, "git_commit": env["git_commit"], "source_sha256": env["source_sha256"]}


def test_a_tiny_recording_holds_every_end_to_end_metric_with_its_quartiles():
    recorder = _recorder()
    workloads = [w["name"] for w in DECLARED["workloads"]]
    summaries = {w: [_tiny_summary(w, 3) for _ in range(2)] for w in workloads}
    bench = json.loads(json.dumps(recorder.summarise("tiny", summaries, [3], 0.001)))
    assert set(bench) == {"label", "commit", "source_sha256", "seeds", "seconds", "runs_per_seed", "workloads"}
    assert (bench["label"], bench["seeds"], bench["seconds"], bench["runs_per_seed"]) == ("tiny", [3], 0.001, 2)
    assert isinstance(bench["commit"], str) and len(bench["source_sha256"]) == 64
    assert list(bench["workloads"]) == workloads
    for workload in bench["workloads"].values():
        assert (workload["runs"], workload["incorrect_runs"], workload["failed"]) == (2, 0, 0)
        assert workload["attempted"] > 0
        assert [(name, m["unit"], m["better"]) for name, m in workload["metrics"].items()] == [
            (m["name"], m["unit"], m["better"]) for m in DECLARED["end_to_end"]]
        for m in workload["metrics"].values():
            assert len(m["values"]) == 2
            assert min(m["values"]) <= m["q1"] <= m["median"] <= m["q3"] <= max(m["values"])

    lines = recorder.compare(bench, bench)
    assert len(lines) == 1 + len(workloads) * (1 + len(DECLARED["end_to_end"]))
    assert all("+0.00%  within A's IQR  B better in 0/2 pairs" in line for line in lines if line.startswith("  "))


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
