"""Self-test of the round benchmark on seconds-long versions of its workloads.

The benchmark must report every metric that BENCHMARK.json names, count a
tampered log or a wrong pinned digest as a failed operation, and leave the
program's outputs unchanged when tracing is on.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from pcbench import runner, tracing  # noqa: E402
from pcbench.workloads import TINY_SPECS, Workload  # noqa: E402
from peerchain import commitment, sim  # noqa: E402

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = sorted(TINY_SPECS)


def tiny(workload, trace=False, **kwargs):
    return runner.run(workload, seed=3, seconds=0.001, trace=trace, tiny=True, **kwargs)


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in DECLARED["workloads"]) == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_is_correct_and_reports_every_metric(workload):
    result = tiny(workload)
    assert result.correct and result.failed_frac == 0
    assert [(name, unit) for name, (_v, unit) in result.metrics.items()] == [
        (m["name"], m["unit"]) for m in DECLARED["end_to_end"]]
    for name, (value, _unit) in result.metrics.items():
        assert value is not None and value > 0, name


def _bump_settle_block(log: str) -> str:
    """Change one byte: the first digit of the settle event's block number.

    Ledger.load ignores block numbers, so only the byte comparison sees it.
    """
    head, last = log.rstrip("\n").rsplit("\n", 1)
    digit = str(int(last[0]) % 9 + 1)
    return f"{head}\n{digit}{last[1:]}\n"


def _flip_payload_hex(log: str) -> str:
    """Change one byte inside the last reveal event's hex payload."""
    lines = log.split("\n")
    i = max(j for j, line in enumerate(lines) if ",reveal," in line)
    pos = len(lines[i]) - 3
    lines[i] = lines[i][:pos] + ("0" if lines[i][pos] != "0" else "1") + lines[i][pos + 1:]
    return "\n".join(lines)


@pytest.mark.parametrize("tamper", [_bump_settle_block, _flip_payload_hex])
def test_tampered_log_fails_verification(tamper):
    result = tiny("settle-all-peers", log_tamper=tamper, cycles=1)
    verifies = [op for op in result.ops if op.kind == "verify"]
    assert verifies and not any(op.ok for op in verifies)
    assert all(op.ok for op in result.ops if op.kind != "verify")
    assert result.failed_frac > 0 and not result.correct


def test_pinned_digests_are_enforced():
    inp = Workload(TINY_SPECS["commit-unpacked"], 3).round_input(0)
    facts = runner.round_facts(sim.run_experiment(inp.config, inp.dataset))
    good = tiny("commit-unpacked", pins={0: facts}, cycles=1)
    assert good.correct and good.pinned_checked == 1
    wrong = dict(facts, settlement_csv_sha256="0" * 64)
    bad = tiny("commit-unpacked", pins={0: wrong}, cycles=1)
    assert bad.failed == 1 and bad.failed_frac > 0
    assert "settlement_csv_sha256" in next(op.error for op in bad.ops if not op.ok)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_keeps_outputs_and_reports_layers(workload):
    plain = tiny(workload, cycles=2)
    traced = tiny(workload, trace=True, cycles=2)
    assert traced.correct
    assert plain.digests and traced.digests == plain.digests
    assert [(name, unit) for name, (_v, unit) in traced.metrics.items()] == [
        (m["name"], m["unit"]) for m in DECLARED["per_layer"]]
    metrics = {name: value for name, (value, _unit) in traced.metrics.items()}
    # two hashes per commitment in the round (commit, reveal), two in the verify (load, audit)
    assert metrics["commitment.hashes_per_batch"] == 4.0
    sampled = TINY_SPECS[workload].rounds.sample_k is not None
    # the mechanism and the gas model each draw the peers of every cell
    assert metrics["peer_selection.calls_per_cell"] == (2.0 if sampled else 0.0)
    assert metrics["mechanisms.kernel_dg_s"] > 0 and metrics["incentives.payment_s"] > 0
    assert commitment.keccak256.__module__ == "peerchain.keccak"
    assert not hasattr(sim.Ledger.load, "__wrapped__")


def test_tracer_restores_every_boundary():
    before = [owner.__dict__[attr] for owner, attr, _name, _counted in tracing.BOUNDARIES]
    tracer = tracing.Tracer()
    tracer.install()
    assert all(owner.__dict__[attr] is not raw
               for (owner, attr, _n, _c), raw in zip(tracing.BOUNDARIES, before))
    tracer.uninstall()
    assert [owner.__dict__[attr] for owner, attr, _n, _c in tracing.BOUNDARIES] == before


def test_tracer_skips_a_boundary_the_program_dropped(monkeypatch):
    monkeypatch.delattr(tracing.ledger, "charge_settlement_compute")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["gas_model.charge_settlement_compute"]
    assert not hasattr(tracing.ledger, "charge_settlement_compute")
