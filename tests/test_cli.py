"""CLI exit codes, output files, and rerun determinism."""

import hashlib
import json
import time
from dataclasses import asdict, fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from peerchain import incentives as inc
from peerchain.cli import INCENTIVES_HEADER, SAMPLE_DATASET, build_parser, main
from peerchain.gas_model import DEFAULT_GAS_TABLE, GasTable


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
# incentives.csv of the default run (--rounds 200000) and of the "tiny" scenario file
INCENTIVES_SHA256 = {
    "default": "c5b19280b5b3f92852a725c3bc3ac20c554b6f01968355579d43f73f36d4a34b",
    "tiny": "ec2a34312408f46dd74c133dd57683e14e819347e17a27661ef80eee7ada8898",
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


@pytest.mark.parametrize("alpha", ["--alpha=-1", "--alpha=0"])
def test_round_rejects_nonpositive_alpha(tmp_path, capsys, alpha):
    out = tmp_path / "r"
    assert run(["round", "--mechanism", "ptsc", alpha, "--agents", "4", "--out", str(out)]) == 2
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


def test_round_with_numeric_alpha_builds_no_scenario(tmp_path, monkeypatch):
    # only auto alphas read the truthfulness bound of a calibrated world
    def no_scenario(*args, **kwargs):
        raise AssertionError("numeric alpha built an IncentiveScenario")

    monkeypatch.setattr(inc.IncentiveScenario, "from_parameters", no_scenario)
    out = tmp_path / "r"
    assert run(["round", "--mechanism", "ptsc", "--alpha", "1/2", "--agents", "4",
                "--out", str(out)]) == 0
    genesis = (out / "events.log").read_text().split("\n", 1)[0]
    assert json.loads(bytes.fromhex(genesis.rsplit(",", 1)[1]))["alpha"] == [1, 2]


def test_round_with_custom_gas_table(tmp_path):
    table_path = tmp_path / "gt.json"
    entries = {**asdict(DEFAULT_GAS_TABLE), "tx_base": 30000}
    table_path.write_text(json.dumps(entries))
    out = tmp_path / "r"
    assert run(["round", "--gas-table", str(table_path), "--out", str(out)]) == 0
    genesis = (out / "events.log").read_text().split("\n", 1)[0]
    assert json.loads(bytes.fromhex(genesis.rsplit(",", 1)[1]))["gas_table"] == entries


@pytest.mark.parametrize("text", ["[1]", '"x"', "null", "3", '{"tx_base": true}'])
def test_round_rejects_malformed_gas_tables(tmp_path, capsys, text):
    table_path = tmp_path / "gt.json"
    table_path.write_text(text)
    assert run(["round", "--gas-table", str(table_path), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: gas table") and "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_round_rejects_non_finite_response_times(tmp_path, capsys, value):
    dataset = tmp_path / "rt.txt"
    dataset.write_text(f"0.5 0.5\n0.5 {value}\n")
    out = tmp_path / "r"
    assert run(["round", "--dataset", str(dataset), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "usage error" in err and "not a finite number" in err and "Traceback" not in err
    assert not out.exists()


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


@pytest.mark.parametrize("flag", ["--dataset", "--gas-table"])
def test_incentives_refuses_the_round_input_flags(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        run(["incentives", flag, str(tmp_path / "missing"), "--out", str(tmp_path / "i")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "i").exists()


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
    assert sha256(out / "incentives.csv") == INCENTIVES_SHA256["default"]


def test_incentives_scenario_file_and_bad_beliefs(tmp_path, capsys):
    good = tmp_path / "s.json"
    good.write_text(json.dumps({"scenario_id": "tiny", "n": 3, "prior": "0.9",
                                "bump": "0.05", "alpha": "auto"}))
    out = tmp_path / "inc"
    assert run(["incentives", "--scenario", str(good), "--rounds", "20000",
                "--out", str(out)]) == 0
    assert (out / "incentives.csv").read_text().splitlines()[1].startswith("tiny,")
    assert sha256(out / "incentives.csv") == INCENTIVES_SHA256["tiny"]

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
    assert not (tmp_path / "inc").exists()


def test_incentives_refuses_a_population_beyond_the_monte_carlo_cap(tmp_path, capsys, monkeypatch):
    # a (rounds, n) chunk at n = 10**7 would ask numpy for terabytes
    draws = []
    monkeypatch.setattr(inc.GenerativeWorld, "sample_observations", lambda *args: draws.append(args))
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"n": 10**7, "prior": "19/20", "bump": "0.01"}))
    out = tmp_path / "inc"
    assert run(["incentives", "--scenario", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"usage error: Monte-Carlo estimates simulate at most {inc.MAX_MC_AGENTS} agents, got n = 10000000" in err
    assert "Traceback" not in err
    assert draws == [] and not out.exists()


@pytest.mark.parametrize("scenarios, named", [
    ({"n": 10}, "scenario #1 lacks the key(s) 'prior', 'bump'"),
    ([{"scenario_id": "ok", "n": 3, "prior": "0.9", "bump": "0.05"},
      {"scenario_id": "short", "n": 3, "bump": "0.05"}], "scenario 'short' lacks the key(s) 'prior'"),
    ([{"n": 3, "prior": "0.9", "bump": "0.05"}, {"prior": "0.9", "bump": "0.05"}],
     "scenario #2 lacks the key(s) 'n'"),
], ids=["object", "by-id", "by-position"])
def test_incentives_names_a_missing_scenario_key(tmp_path, capsys, scenarios, named):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenarios))
    out = tmp_path / "inc"
    assert run(["incentives", "--scenario", str(path), "--rounds", "1000", "--out", str(out)]) == 2
    assert f"usage error: {named}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario, message", [
    ({"n": 10, "prior": "19/20", "bump": "1e-400"},   # auto alpha near 1e400
     "alpha is too large for a float"),
    ({"n": 10, "prior": "19/20", "bump": "0.01", "alpha": "1e400"}, "alpha is too large for a float"),
    ({"n": 10, "prior": "19/20", "bump": "0.01", "c": "1e400"}, "c is too large for a float"),
    ({"n": 10, "prior": "19/20", "bump": "0.01", "c": "1e-400"},  # c underflows to 0.0
     "c is too small for a float"),
    # both are floats, but the Monte-Carlo sums overflow
    ({"n": 10, "prior": "19/20", "bump": "0.01", "c": "1e308"},
     "Monte-Carlo sums overflow a float at alpha = 1.292e+308, c = 1e+308"),
    ({"n": 10, "prior": "19/20", "bump": "0.01", "alpha": "1e308"},
     "Monte-Carlo sums overflow a float at alpha = 1e+308, c = 1"),
], ids=["auto-alpha", "alpha", "c", "tiny-c", "huge-c", "huge-alpha"])
def test_incentives_rejects_an_alpha_or_c_beyond_float(tmp_path, capsys, scenario, message):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "inc"
    assert run(["incentives", "--scenario", str(path), "--rounds", "10", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"usage error: {message}" in err
    assert "Traceback" not in err and "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize("scenario, code, message", [
    # alpha = 1 is below the bound 0.646e308 too, but the overflow is reported
    ({"n": 10, "prior": "19/20", "bump": "0.01", "alpha": "1", "c": "1e308"}, 2,
     "usage error: Monte-Carlo sums overflow a float at alpha = 1, c = 1e+308"),
    ({"n": 10, "prior": "19/20", "bump": "0.01", "alpha": "1/2"}, 1,
     "error: AlphaTooSmall: alpha = 1/2 is not above the truthfulness bound 323/500"),
], ids=["overflow-first", "alpha-too-small"])
def test_incentives_reports_an_overflow_before_a_small_alpha(tmp_path, capsys, scenario, code, message):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "inc"
    assert run(["incentives", "--scenario", str(path), "--rounds", "10", "--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["1e-999999999", "1e999999999"])
def test_huge_decimal_exponents_are_refused_at_once(tmp_path, capsys, value):
    # building 10**999999999 would run for hours
    out = tmp_path / "r"
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        run(["round", "--alpha", value, "--out", str(out)])
    assert exc.value.code == 2
    assert f"decimal '{value}' has an exponent beyond" in capsys.readouterr().err

    path = tmp_path / "s.json"
    path.write_text(json.dumps({"n": 10, "prior": "19/20", "bump": value}))
    assert run(["incentives", "--scenario", str(path), "--rounds", "10", "--out", str(out)]) == 2
    assert f"usage error: decimal '{value}' has an exponent beyond" in capsys.readouterr().err
    assert time.perf_counter() - start < 1
    assert not out.exists()


def test_incentives_without_rounds_is_a_usage_error(tmp_path, capsys):
    assert run(["incentives", "--rounds", "0", "--out", str(tmp_path / "i")]) == 2
    assert "at least one round" in capsys.readouterr().err


@pytest.mark.parametrize("agents", ["-3", "0"])
def test_gas_bench_rejects_nonpositive_agents(tmp_path, capsys, agents):
    out = tmp_path / "bench"
    assert run(["gas-bench", "--agents", agents, "--out", str(out)]) == 2
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


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


# ---------------------------------------------------------------------------
# file inputs: any text ends in exit 0, 1 or 2, never in a traceback
# ---------------------------------------------------------------------------

# decimal strings from tiny to huge, so a value no float or power of ten can
# hold turns up among ordinary ones
DECIMAL = st.builds(
    "{}e{}".format,
    st.integers(1, 9) | st.integers(-99, 99),
    st.sampled_from([-400, 400, -999999999, 999999999, -3, -2, -1, 0, 1, 2, 3]),
)
JUNK = st.one_of(
    st.sampled_from(["1/0", "nan", "inf", "-1", "0", "abc", "", "auto*0"]),
    st.integers(-3, 3), st.floats(), st.booleans(), st.none(), st.lists(st.integers(), max_size=2),
)
# the running example with up to three fields replaced or left out
SCENARIO = st.dictionaries(
    st.sampled_from(["bump", "alpha", "c", "prior", "n", "scenario_id"]),
    DECIMAL | DECIMAL.map("auto*{}".format) | st.just("omit") | JUNK,
    min_size=1, max_size=3,
).map(lambda fields: {key: value for key, value in
                      {"n": 10, "prior": "19/20", "bump": "1/100", **fields}.items() if value != "omit"})
GAS_VALUE = st.one_of(
    st.integers(-2, 3 * 10**4), st.integers(min_value=2**64), st.booleans(), st.none(),
    st.floats(), st.text(max_size=3),
)
GAS_TABLE = st.one_of(
    st.dictionaries(st.sampled_from([f.name for f in fields(GasTable)] + ["gas_per_byte"]), GAS_VALUE),
    st.lists(st.integers(), max_size=2),
    GAS_VALUE,
)
RESPONSE = st.one_of(
    st.sampled_from(["-1", "0", "0.4", "0.99", "1", "1.0", "2.5", "nan", "inf", "-0.5", "1e400", "x", ","]),
    st.floats().map(repr),
)
DATASET = st.one_of(
    st.lists(st.lists(RESPONSE, max_size=6).map(" ".join), max_size=6).map("\n".join),
    st.text(max_size=20),
)


def _check_file_input(tmp_path, capsys, contents, flags, max_examples):
    """Run the command that ``flags`` draws on a file of each drawn content."""
    path = tmp_path / "input"

    @settings(derandomize=True, database=None, max_examples=max_examples, deadline=None)
    @given(contents, flags)
    def check(text, argv):
        path.write_text(text)
        try:
            code = run([*argv, str(path), "--out", str(tmp_path / "out")])
        except SystemExit as exc:  # argparse rejects a flag value
            code = exc.code
        assert code in (0, 1, 2)
        assert "Traceback" not in capsys.readouterr().err

    # keep Hypothesis' constants cache out of the working tree
    set_hypothesis_home_dir(tmp_path)
    try:
        check()
    finally:
        set_hypothesis_home_dir(None)


def test_any_dataset_text_ends_in_an_exit_code(tmp_path, capsys):
    flags = st.tuples(st.just("round"), st.just("--mechanism"), st.sampled_from(["oa", "dg", "ptsc"]),
                      st.just("--peers"), st.sampled_from(["all", "2"]), st.just("--dataset"))
    _check_file_input(tmp_path, capsys, DATASET, flags, max_examples=60)


def test_any_gas_table_json_ends_in_an_exit_code(tmp_path, capsys):
    flags = st.tuples(st.just("round"), st.just("--agents"), st.just("4"),
                      st.just("--mechanism"), st.sampled_from(["oa", "dg"]), st.just("--gas-table"))
    _check_file_input(tmp_path, capsys, GAS_TABLE.map(json.dumps), flags, max_examples=60)


def test_any_scenario_json_ends_in_an_exit_code(tmp_path, capsys):
    scenarios = (SCENARIO | st.lists(SCENARIO, max_size=2) | st.sampled_from([None, "x", 3])).map(json.dumps)
    flags = st.just(("incentives", "--rounds", "10", "--scenario"))
    _check_file_input(tmp_path, capsys, scenarios, flags, max_examples=80)
