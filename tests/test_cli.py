"""CLI exit codes, output files, and rerun determinism."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from peerchain.cli import INCENTIVES_HEADER, SAMPLE_DATASET, build_parser, main
from peerchain.gas_model import DEFAULT_GAS_TABLE


def run(argv):
    return main(argv)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# SHA-256 of each file the two commands below write; a change that does not
# mean to alter outputs must leave every byte as it is
ROUND_RERUN_SHA256 = {
    "settlement.csv": "dbc02a1989c38fc622b9dcbbbc819c78aeca703c4a5009f0579a83c44a023318",
    "gas.csv": "4bf7bbd6523f03711996b08fa09520b78031e57eee55c02987639673c7d973fc",
    "events.log": "95cac58b09280d4d750d566f0bf3727000e3b1fa53190c818661aa980eb4e728",
}
GAS_BENCH_SKIP_ONE_SHA256 = {
    "packing.csv": "3fca29fdd4a2934b6d50472d848cf7f84a508a4b422b8d3ee3638cf7db5ff878",
    "optimization.csv": "45dc6f4c1847ed401e37eaeffe907e170779d19e98e6a600f2f1e89ceb62a821",
    "mechanisms.csv": "668ea27d5e295eb91edc3775282c12ad7bfbb04e15bbdafb60cb6e5d682a12fc",
    "peers.csv": "9ad8241a355de413e96aed9ecd1c892d8c240d9be51ff758523fb2134904b0f1",
}


def test_sample_dataset_ships():
    assert SAMPLE_DATASET.exists()


def test_round_on_sample_dataset(tmp_path, capsys):
    out = tmp_path / "r"
    assert run(["round", "--mechanism", "oa", "--out", str(out)]) == 0
    assert (out / "settlement.csv").exists()
    gas = (out / "gas.csv").read_text().splitlines()
    assert gas[0] == "phase,party,op_kind,words,gas"
    events = (out / "events.log").read_text().splitlines()
    assert events[0].startswith("0,genesis,chain,")
    assert "round settled" in capsys.readouterr().out


def test_round_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["round", "--mechanism", "ptsc", "--alpha", "1/2",
                    "--peers", "3", "--seed", "9", "--out", str(out)]) == 0
    for name, digest in ROUND_RERUN_SHA256.items():
        assert (a / name).read_bytes() == (b / name).read_bytes()
        assert sha256(a / name) == digest, name


def test_round_alpha_margin_reaches_the_ledger(tmp_path):
    alphas = {}
    for spec in ("auto", "auto*3"):
        out = tmp_path / spec.replace("*", "x")
        assert run(["round", "--mechanism", "ptsc", "--agents", "6", "--alpha", spec,
                    "--out", str(out)]) == 0
        genesis = (out / "events.log").read_text().split("\n", 1)[0]
        alphas[spec] = Fraction(*json.loads(bytes.fromhex(genesis.rsplit(",", 1)[1]))["alpha"])
    assert alphas["auto*3"] == Fraction(3, 2) * alphas["auto"]


@pytest.mark.parametrize("spec", ["auto*abc", "auto*", "auto*0", "auto*-2"])
def test_round_rejects_bad_alpha_margins(tmp_path, capsys, spec):
    with pytest.raises(SystemExit) as exc:
        run(["round", "--alpha", spec, "--agents", "4", "--out", str(tmp_path / "r")])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("flags", [
    ["--agents", "-3"], ["--agents", "0"], ["--questions", "-2"], ["--questions", "0"],
])
def test_round_rejects_nonpositive_counts(tmp_path, capsys, flags):
    out = tmp_path / "r"
    assert run(["round", *flags, "--out", str(out)]) == 2
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


def test_round_with_custom_gas_table(tmp_path):
    table_path = tmp_path / "gt.json"
    table_path.write_text(DEFAULT_GAS_TABLE.to_json())
    out = tmp_path / "r"
    assert run(["round", "--gas-table", str(table_path), "--out", str(out)]) == 0


def test_dg_on_dense_dataset_is_a_protocol_error(tmp_path, capsys):
    dense = tmp_path / "dense.txt"
    dense.write_text("0.5 0.5\n0.5 0.5\n")
    code = run(["round", "--mechanism", "dg", "--dataset", str(dense),
                "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert code == 1
    assert "NoNonCommonQuestions" in err


def test_usage_errors_exit_2(tmp_path, capsys):
    assert run(["round", "--dataset", str(tmp_path / "missing.txt"),
                "--out", str(tmp_path / "r")]) == 2
    with pytest.raises(SystemExit) as exc:
        run(["round", "--mechanism", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        run([])
    capsys.readouterr()


def test_parser_defaults():
    args = build_parser().parse_args(["round"])
    assert (args.mechanism, args.alpha, args.peers, args.pack) == ("oa", "auto", "all", "on")
    args = build_parser().parse_args(["round", "--peers", "4", "--alpha", "0.25"])
    assert args.peers == 4 and str(args.alpha) == "1/4"
    args = build_parser().parse_args(["incentives"])
    assert args.rounds == 200_000


def test_incentives_default_scenario(tmp_path, capsys):
    out = tmp_path / "inc"
    assert run(["incentives", "--rounds", "200000", "--out", str(out)]) == 0
    lines = (out / "incentives.csv").read_text().splitlines()
    assert lines[0] == INCENTIVES_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "example-n10"
    assert fields[1] == "0.646"
    assert fields[2] == "1.292"
    assert fields[-1] == "323/500"
    assert fields[6:10] == ["StrictlyPositive"] * 4
    assert "example-n10" in capsys.readouterr().out


def test_incentives_scenario_file_and_bad_beliefs(tmp_path, capsys):
    good = tmp_path / "s.json"
    good.write_text(json.dumps({"scenario_id": "tiny", "n": 3, "prior": "0.9",
                                "bump": "0.05", "alpha": "auto"}))
    out = tmp_path / "inc"
    assert run(["incentives", "--scenario", str(good), "--rounds", "20000",
                "--out", str(out)]) == 0
    assert (out / "incentives.csv").read_text().splitlines()[1].startswith("tiny,")

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario_id": "flat", "n": 5, "prior": "0.5",
                               "bump": "0", "alpha": "auto"}))
    code = run(["incentives", "--scenario", str(bad), "--out", str(tmp_path / "i2")])
    assert code == 1
    assert "NonPositiveBeta" in capsys.readouterr().err

    malformed = tmp_path / "notalist.json"
    malformed.write_text(json.dumps("just a string"))
    assert run(["incentives", "--scenario", str(malformed),
                "--out", str(tmp_path / "i3")]) == 2


@pytest.mark.parametrize("scenario", [
    {"n": 2.7, "prior": "0.9", "bump": "0.05"},       # n is not a whole number
    {"n": 5, "prior": "0.95", "bump": "0.1"},         # posterior above 1
])
def test_incentives_rejects_impossible_scenarios(tmp_path, capsys, scenario):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    assert run(["incentives", "--scenario", str(path), "--rounds", "1000",
                "--out", str(tmp_path / "inc")]) == 2
    assert "usage error" in capsys.readouterr().err


def test_incentives_without_rounds_is_a_usage_error(tmp_path, capsys):
    assert run(["incentives", "--rounds", "0", "--out", str(tmp_path / "i")]) == 2
    assert "at least one round" in capsys.readouterr().err


def test_gas_bench_writes_sweep_csvs(tmp_path):
    # a small sparse corner can legitimately be DG-invalid, so give the
    # bench a skip-one matrix that stays valid at 8 agents
    from peerchain.sim import QoSDataset

    ds = QoSDataset.skip_one(8, 50, seed=1)
    path = tmp_path / "skip.txt"
    path.write_text("\n".join(" ".join(str(v) for v in row) for row in ds.response_times))
    out = tmp_path / "bench"
    assert run(["gas-bench", "--agents", "8", "--dataset", str(path),
                "--out", str(out)]) == 0
    for name, digest in GAS_BENCH_SKIP_ONE_SHA256.items():
        lines = (out / name).read_text().splitlines()
        assert lines[0].startswith("config_id,mechanism,packing")
        assert len(lines) > 1
        assert sha256(out / name) == digest, name
