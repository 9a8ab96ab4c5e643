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
from pcbench.workloads import DEVIATIONS  # noqa: E402

# the raw wall p50 of each Monte-Carlo estimator a cycle runs, in run order
RAW_ESTIMATORS = ["mc_payment_mc_p50_s", "mc_saving_mc_p50_s",
                  *(f"mc_equilibrium_check[{d.name}]_p50_s" for d in DEVIATIONS)]


def _recorder():
    spec = importlib.util.spec_from_file_location("record_bench", ROOT / "tools" / "record_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tiny_summary(recorder, out_dir, workload, seed, trace=False):
    result = runner.run(workload, seed, 0.001, trace, tiny=True)
    env = runner.environment(ROOT, seed)
    details = runner.write_outputs(result, env, out_dir)
    return {**result.summary(), "git_commit": env["git_commit"], "source_sha256": env["source_sha256"],
            "speed_reference_ms": recorder.speed_reference_ms(runner.report_lines(result, env)),
            "raw_wall_p50_s": recorder.raw_wall_p50_s(details)}


def test_a_tiny_recording_holds_every_end_to_end_and_layer_metric_with_its_quartiles(tmp_path):
    recorder = _recorder()
    workloads = [w["name"] for w in DECLARED["workloads"]]
    summaries = {w: [_tiny_summary(recorder, tmp_path, w, 3) for _ in range(2)] for w in workloads}
    traced = {w: [_tiny_summary(recorder, tmp_path, w, 3, trace=True) for _ in range(2)] for w in workloads}
    probes = {"cold_verify_s": [0.25, 0.5]}
    bench = json.loads(json.dumps(recorder.summarise("tiny", summaries, traced, [3], 0.001, probes)))
    assert set(bench) == {"label", "commit", "source_sha256", "seeds", "seconds", "runs_per_seed", "workloads",
                          "probes"}
    assert bench["probes"] == {"cold_verify_s": {"unit": "s", "better": "lower", "median": 0.375, "q1": 0.3125,
                                                 "q3": 0.4375, "values": [0.25, 0.5]}}
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
        # a raw wall p50 beside each round and verify metric, and one per estimator
        raw = workload["raw_wall_p50_s"]
        timed = [name for name in workload["metrics"] if name.startswith(("round_", "verify_"))]
        assert sorted(name for name in raw if not name.startswith("mc_")) == sorted(timed)
        assert [name for name in raw if name.startswith("mc_")] == RAW_ESTIMATORS
        assert all((m["unit"], m["better"]) == ("s", "lower") and m["median"] > 0 for m in raw.values())
        for m in [*workload["metrics"].values(), *raw.values(), *layers["metrics"].values(), reference]:
            assert len(m["values"]) == 2
            assert min(m["values"]) <= m["q1"] <= m["median"] <= m["q3"] <= max(m["values"])

    lines = recorder.compare(bench, bench)
    end_to_end, per_layer = len(DECLARED["end_to_end"]), len(DECLARED["per_layer"])
    raws = 6 + len(RAW_ESTIMATORS)
    assert len(lines) == 1 + len(workloads) * (2 + end_to_end + raws + per_layer) + 2
    # the probes come last, after a heading of their own
    assert lines[-2] == "probes:" and lines[-1].split()[0] == "cold_verify_s"
    # per workload: its heading, the end-to-end metrics each with its raw wall p50 where it has one, the
    # estimators' raw wall p50s, the per-layer metrics, the speed reference
    names = [line.split()[0] for line in lines[2:2 + end_to_end + raws + per_layer + 1]]
    assert names == [*(n for m in DECLARED["end_to_end"]
                       for n in [m["name"], f"raw.{m['name']}"][:1 + m["name"].startswith(("round_", "verify_"))]),
                     *(f"raw.{name}" for name in RAW_ESTIMATORS),
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
    # a file recorded before the speed reference, the layers and the probes
    # were kept still compares, without them
    older = json.loads(json.dumps(bench))
    del older["probes"]
    for workload in older["workloads"].values():
        del workload["speed_reference_ms"], workload["layers"], workload["raw_wall_p50_s"]
    kept = [line for line in lines if line.split()[0] not in ("speed_reference_ms", "probes:", "cold_verify_s",
                                                              *LAYER_NAMES) and not line.startswith("  raw.")]
    for a, b in ((older, bench), (bench, older)):
        assert recorder.compare(a, b) == kept


def test_the_cold_verify_probe_times_a_clean_replay_of_its_fixed_log(tmp_path):
    recorder = _recorder()
    log = tmp_path / "cold_verify.log"
    log.write_text(recorder.cold_verify_log(ROOT))
    assert len(log.read_text().splitlines()) == 694
    assert 0 < recorder.cold_verify_s(ROOT, log) < 60
    # a log the replay does not reproduce is refused, with the probe's stderr
    log.write_text(log.read_text().replace("\n", "\r\n"))
    with pytest.raises(RuntimeError, match="(?s)a probe in .* failed .*ReplayDivergence: event log line 1 "):
        recorder.cold_verify_s(ROOT, log)


def test_a_run_names_its_details_file_and_the_raw_wall_p50s_come_from_its_untraced_correct_operations(tmp_path):
    recorder = _recorder()
    lines = ["speed reference median 9.3 ms over 4 operations", "details in out/run.json", "{}"]
    assert recorder.details_path(tmp_path, lines) == tmp_path / "out" / "run.json"
    assert recorder.details_path(tmp_path, lines[::2]) is None
    # (kind, label, traced, ok, wall_s): the traced and the failed round are left out
    ops = [("round", "oa", False, True, 0.004), ("round", "oa", False, True, 0.002),
           ("round", "oa", False, True, 0.009), ("round", "oa", True, True, 1.0), ("round", "oa", False, False, 1.0),
           ("verify", "dg", False, True, 0.5)]
    details = tmp_path / "run.json"
    details.write_text(json.dumps({"operations": [
        {"kind": kind, "label": label, "traced": traced, "ok": ok, "wall_s": wall}
        for kind, label, traced, ok, wall in ops]}))
    assert recorder.raw_wall_p50_s(details) == {"round_oa_p50_s": 0.004, "verify_dg_p50_s": 0.5}


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
