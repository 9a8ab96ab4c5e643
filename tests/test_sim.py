"""Dataset handling, behavior mixes, and the end-to-end experiment driver."""

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from peerchain import commitment as cmt
from peerchain import keccak, mechanisms, peer_selection, sim
from peerchain.errors import EmptyDataset, NoNonCommonQuestions
from peerchain.gas_model import GasLedger, GasTable
from peerchain.ledger import Ledger, LedgerConfig, Phase
from peerchain.mechanisms import Mechanism, SampledPeers, compute_rewards
from peerchain.peer_selection import SelectionSeed
from peerchain.sim import (
    MISSING,
    AgentPopulation,
    Behavior,
    ExperimentConfig,
    QoSDataset,
    assert_dg_valid,
    binarize,
    generate_reports,
    run_experiment,
    sweep_mechanisms,
    sweep_packing,
    sweep_peers,
)
from conftest import matrix_of, random_matrix


def test_dataset_validation():
    with pytest.raises(EmptyDataset):
        QoSDataset(())
    with pytest.raises(ValueError):
        QoSDataset(((1.0, 2.0), (1.0,)))
    with pytest.raises(ValueError):
        QoSDataset(((-0.5,),))
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite"):
            QoSDataset(((0.5, bad),))
    ds = QoSDataset(((0.5, MISSING), (MISSING, 2.0)))
    assert ds.n_agents == 2 and ds.n_services == 2


def test_load_accepts_commas_and_whitespace(tmp_path):
    p = tmp_path / "rt.txt"
    p.write_text("0.5, 3.2, -1\n\n1.0 0.25 0.9\n")
    ds = QoSDataset.load(p)
    assert ds.response_times == ((0.5, 3.2, -1.0), (1.0, 0.25, 0.9))
    empty = tmp_path / "empty.txt"
    empty.write_text("\n  \n")
    with pytest.raises(EmptyDataset):
        QoSDataset.load(empty)


def test_binarize_threshold_inclusive():
    ds = QoSDataset(((0.5, 3.2, 1.0, MISSING),))
    m = binarize(ds)
    assert m.cells[("a000", "s0000")] == 1
    assert m.cells[("a000", "s0001")] == 0
    assert m.cells[("a000", "s0002")] == 1  # exactly at the threshold
    assert ("a000", "s0003") not in m.cells
    with pytest.raises(EmptyDataset):
        binarize(QoSDataset(((MISSING, MISSING),)))
    with pytest.raises(ValueError):
        binarize(ds, threshold_seconds=0)


def _binarize_by_cell(dataset, threshold_seconds):
    """The per-cell reference: (agent, question) -> bit of every measured cell, row by row."""
    return {(f"a{i:03d}", f"s{j:04d}"): 1 if v <= threshold_seconds else 0
            for i, row in enumerate(dataset.response_times)
            for j, v in enumerate(row) if v != MISSING}


# times straddling and hitting the thresholds below, as ints and floats
TIMES = st.one_of(st.just(MISSING), st.sampled_from((0, 1, 2, 3, 0.5, 1.0, 2.5, 3.0)),
                  st.integers(0, 10**6), st.floats(0, 10, allow_nan=False))


@st.composite
def datasets_and_thresholds(draw):
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(TIMES, min_size=m, max_size=m).map(tuple), min_size=n, max_size=n))
    if draw(st.booleans()):
        rows = [tuple(MISSING for _ in row) for row in rows]
    return QoSDataset(tuple(rows)), draw(st.sampled_from((1.0, 0.5, 2, 2.5, 3.0)))


def test_binarize_equals_the_per_cell_reference(tmp_path):
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(datasets_and_thresholds())
    def check(case):
        dataset, threshold = case
        expected = _binarize_by_cell(dataset, threshold)
        if not expected:
            with pytest.raises(EmptyDataset):
                binarize(dataset, threshold)
            return
        m = binarize(dataset, threshold)
        assert m.agents == tuple(f"a{i:03d}" for i in range(dataset.n_agents))
        assert m.questions == tuple(f"s{j:04d}" for j in range(dataset.n_services))
        assert list(m.cells.items()) == list(expected.items())  # row-major entries

    # keep Hypothesis' constants cache out of the working tree
    set_hypothesis_home_dir(tmp_path)
    try:
        check()
    finally:
        set_hypothesis_home_dir(None)


def _reports_by_cell(truth, population, seed):
    """The per-cell reference walk: one randint(0, 1) per random agent's
    cell, in agent and then question order."""
    behaviors = population.assign(truth.agents)
    rng = random.Random(f"reports:{seed}")
    cells = {}
    for a, row in truth.answers_by_agent.items():
        for q, bit in row.items():
            if behaviors[a] is Behavior.TRUTHFUL:
                cells[(a, q)] = bit
            elif behaviors[a] is Behavior.RANDOM:
                cells[(a, q)] = rng.randint(0, 1)
            else:
                cells[(a, q)] = 1 - bit
    return cells


def test_generate_reports_equals_the_per_cell_walk(desk_truth):
    rng = random.Random(29)
    # the second matrix lists its cells out of row-major order
    shuffled = list(random_matrix(rng, 7, 9, p_answer=0.6).cells.items())
    rng.shuffle(shuffled)
    truths = [desk_truth, matrix_of((f"a{i}" for i in range(7)), (f"q{j}" for j in range(9)), dict(shuffled)),
              binarize(QoSDataset.skip_one(9, 9, seed=4))]
    populations = [AgentPopulation(F(1), F(0), F(0)), AgentPopulation(F(0), F(1), F(0)),
                   AgentPopulation(F(0), F(0), F(1)), AgentPopulation()]
    for truth in truths:
        for population in populations:
            for seed in (0, 1, 7, 123):
                reports = generate_reports(truth, population, seed)
                assert (reports.agents, reports.questions) == (truth.agents, truth.questions)
                assert list(reports.cells.items()) == list(_reports_by_cell(truth, population, seed).items())


@pytest.mark.parametrize("count", [0, 1, 2, 3, 777, 4096])
@pytest.mark.parametrize("seed", [0, 1, "reports:7", 2**70])
def test_coin_tosses_draw_the_bits_and_stream_of_randint(seed, count):
    fast, reference = random.Random(seed), random.Random(seed)
    drawn = sim._coin_tosses(fast, count)
    assert drawn.tolist() == [reference.randint(0, 1) for _ in range(count)]
    assert fast.getstate() == reference.getstate()


def test_population_counts_and_assignment():
    pop = AgentPopulation()
    assert pop.counts(50) == (25, 13, 12)
    assert pop.counts(4) == (2, 1, 1)
    assert pop.counts(1) == (1, 0, 0)
    assert sum(pop.counts(7)) == 7
    assigned = pop.assign([f"a{i}" for i in range(4)])
    assert assigned == {
        "a0": Behavior.TRUTHFUL,
        "a1": Behavior.TRUTHFUL,
        "a2": Behavior.RANDOM,
        "a3": Behavior.ADVERSARIAL,
    }
    with pytest.raises(ValueError):
        AgentPopulation(F(1, 2), F(1, 2), F(1, 2))
    with pytest.raises(ValueError):
        AgentPopulation(F(3, 2), F(-1, 4), F(-1, 4))


def test_generate_reports_behaviors(desk_truth):
    all_truthful = AgentPopulation(F(1), F(0), F(0))
    assert generate_reports(desk_truth, all_truthful, seed=0).cells == desk_truth.cells

    all_flipped = generate_reports(desk_truth, AgentPopulation(F(0), F(0), F(1)), seed=0)
    assert set(all_flipped.cells) == set(desk_truth.cells)
    assert all(all_flipped.cells[k] == 1 - desk_truth.cells[k] for k in desk_truth.cells)

    mixed = generate_reports(desk_truth, AgentPopulation(), seed=7)
    behaviors = AgentPopulation().assign(desk_truth.agents)
    agree = {b: [] for b in Behavior}
    for (a, q), bit in desk_truth.cells.items():
        agree[behaviors[a]].append(mixed.cells[(a, q)] == bit)
    assert all(agree[Behavior.TRUTHFUL])
    assert not any(agree[Behavior.ADVERSARIAL])
    n = len(agree[Behavior.RANDOM])
    rate = sum(agree[Behavior.RANDOM]) / n
    assert abs(rate - 0.5) < 3 * (0.25 / n) ** 0.5


def test_skip_one_is_dg_valid():
    ds = QoSDataset.skip_one(8, 8, seed=3)
    assert all(ds.response_times[i][i] == MISSING for i in range(8))
    assert_dg_valid(binarize(ds))
    with pytest.raises(ValueError):
        QoSDataset.skip_one(5, 4, seed=0)


def test_assert_dg_valid_catches_subsets():
    bad = QoSDataset(((0.5, 0.5), (0.5, MISSING)))  # row 1 answers a subset
    with pytest.raises(AssertionError, match=r"pair \(a000, a001\)"):
        assert_dg_valid(binarize(bad))


def test_assert_dg_valid_is_dgs_own_rule():
    # assert_dg_valid raises iff all-peers DG scoring does, naming the same pair
    rng = random.Random(17)
    raised = 0
    for _ in range(300):
        m = random_matrix(rng, rng.randint(2, 6), rng.randint(2, 8), p_answer=rng.choice((0.5, 0.8)))
        try:
            compute_rewards(m, Mechanism.DG)
            dg = None
        except NoNonCommonQuestions as e:
            dg = f"pair ({e.agent}, {e.peer}) has no exclusive questions"
        try:
            assert_dg_valid(m)
            valid = None
        except AssertionError as e:
            valid = str(e)
        assert valid == dg
        raised += dg is not None
    assert 0 < raised < 300


def test_run_experiment_deterministic_and_reconciled(desk_dataset):
    cfg = ExperimentConfig(mechanism=Mechanism.OA, agents=12, seed=4)
    r1 = run_experiment(cfg, desk_dataset)
    r2 = run_experiment(cfg, desk_dataset)
    assert r1.gas_per_phase == r2.gas_per_phase
    assert r1.behavior_means == r2.behavior_means
    assert r1.gas_total == sum(r1.gas_per_phase.values())
    assert r1.gas_total == sum(r1.ledger.gas.per_phase.values())
    assert r1.ledger.phase is Phase.SETTLED
    rows = r1.csv_rows()
    assert len(rows) == len(r1.gas_per_phase)
    assert all(row.count(",") == 10 for row in rows)
    # settle() runs no audit, so audit the settled round here; then
    # spot-check that rewards flowed to the behaviours in the right order
    assert r1.ledger.audit() == []
    assert r1.behavior_means[Behavior.TRUTHFUL] > r1.behavior_means[Behavior.ADVERSARIAL]


def test_corner_of_the_whole_dataset_is_the_dataset(desk_dataset):
    assert desk_dataset.corner(50, 50) is desk_dataset
    part = desk_dataset.corner(12, 50)
    assert part.response_times == desk_dataset.response_times[:12]
    assert desk_dataset.corner(50, 7).response_times == tuple(row[:7] for row in desk_dataset.response_times)
    with pytest.raises(ValueError, match="corner larger"):
        desk_dataset.corner(51, 50)


def test_run_experiment_rejects_small_dataset(desk_dataset):
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(agents=51), desk_dataset)


@pytest.mark.parametrize("bad", [
    dict(mechanism="oa"), dict(mechanism="dg"), dict(peer_mode=None), dict(gas_table={}),
    dict(alpha=0), dict(alpha=0.5), dict(optimized="no"),
], ids=["mechanism-oa-string", "mechanism-dg-string", "peer-mode-none", "gas-table-dict",
        "alpha-zero", "alpha-float", "optimized-str"])
def test_run_experiment_rejects_bad_config_with_value_error(bad):
    # the experiment's round settings fail when it is configured, by LedgerConfig's rule
    with pytest.raises(ValueError) as ledger_error:
        LedgerConfig(**bad)
    with pytest.raises(ValueError) as experiment_error:
        ExperimentConfig(agents=5, **bad)
    assert str(experiment_error.value) == str(ledger_error.value)


def test_run_experiment_plays_the_configs_own_ledger_config(monkeypatch):
    config = ExperimentConfig(mechanism=Mechanism.PTSC, packed=False, optimized=False, agents=6, seed=2)
    assert config.ledger_config == LedgerConfig(mechanism=Mechanism.PTSC, alpha=F(1, 2), batch_size=1,
                                                optimized=False)

    def no_config(*args, **kwargs):
        raise AssertionError("run_experiment built a LedgerConfig")

    monkeypatch.setattr(sim, "LedgerConfig", no_config)
    assert run_experiment(config).ledger.config is config.ledger_config


def test_sweep_packing_shapes(desk_dataset):
    base = ExperimentConfig(agents=6, seed=2)
    reports = sweep_packing(base, desk_dataset, questions=[1, 3])
    assert len(reports) == 4
    gas = {r.config.config_id: r.gas_per_phase["commit"] + r.gas_per_phase["reveal"] for r in reports}
    assert gas["pack-off-q3"] > gas["pack-on-q3"]
    assert gas["pack-off-q3"] > gas["pack-off-q1"]


def test_sweep_mechanisms_and_peers(desk_dataset):
    base = ExperimentConfig(agents=10, seed=2, alpha=F(1, 2))
    ds = QoSDataset.skip_one(10, 50, seed=2)
    mechs = sweep_mechanisms(base, ds)
    assert set(mechs) == set(Mechanism)
    assert all(r.gas_per_phase["settle"] > 0 for r in mechs.values())

    peers = sweep_peers(ExperimentConfig(mechanism=Mechanism.DG, agents=10, seed=2), ds, ks=[1])
    assert set(peers) == {"all", "1"}
    assert isinstance(peers["1"].config.peer_mode, SampledPeers)
    assert peers["1"].gas_per_phase["settle"] < peers["all"].gas_per_phase["settle"]


def _counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_selection_seed_is_hashed_once_per_round_and_replay(monkeypatch):
    # every sampled cell derives its substream from the seed; the seed is
    # looked up once per pass over the cells, not once per cell, and the
    # sponge behind it runs once per seed value: keccak256 memoises it
    ds = QoSDataset.skip_one(12, 12, seed=5)
    seed = SelectionSeed(12, 34)
    cfg = ExperimentConfig(peer_mode=SampledPeers(3, seed), agents=12, seed=5)
    payload = (12).to_bytes(32, "big") + (34).to_bytes(32, "big")
    keccak._memo.clear()
    sponges = _counting(monkeypatch, keccak, "_sponge_256")
    lookups = _counting(monkeypatch, peer_selection, "keccak256")
    report = run_experiment(cfg, ds)
    assert [m for messages, _pad in sponges for m in messages].count(payload) == 1
    assert 1 <= len(lookups) <= 3  # the config check, the kernel and the gas model
    sponges.clear()
    lookups.clear()
    Ledger.load(report.ledger.dump())  # a new SelectionSeed from the log
    assert [m for messages, _pad in sponges for m in messages].count(payload) == 0
    assert 1 <= len(lookups) <= 3


@pytest.mark.parametrize("packed", [True, False], ids=["packed", "unpacked"])
def test_a_round_encodes_every_batch_in_one_call_and_prices_each_bundle_once_per_view(packed, monkeypatch):
    """A packed 12x12 and an unpacked 12x40 round: one `encode_slots` call,
    and every read of a `GasLedger` view calls `GasTable.gas`
    at most once per distinct bundle."""
    encodes = _counting(monkeypatch, cmt, "encode_slots")
    priced, views = [], []  # every bundle GasTable.gas priced; those of each view read
    real_gas, real_view = GasTable.gas, GasLedger._gas_by

    def gas(table, bundle):
        priced.append(bundle)
        return real_gas(table, bundle)

    def view(ledger, column):
        start = len(priced)
        out = real_view(ledger, column)
        views.append(priced[start:])
        return out

    monkeypatch.setattr(GasTable, "gas", gas)
    monkeypatch.setattr(GasLedger, "_gas_by", view)
    config = ExperimentConfig(mechanism=Mechanism.PTSC, packed=packed, agents=12, seed=1)
    report = run_experiment(config, QoSDataset.synthetic(12, 12 if packed else 40, seed=1))
    assert len(encodes) == 1
    counts = report.ledger.gas._counts
    assert len(views) == 2  # per_agent at the settle and per_phase for the report
    for bundles in views:
        assert sorted(map(repr, bundles)) == sorted({repr(bundle) for _phase, _party, bundle in counts})
    assert report.gas_total == sum(report.ledger.gas.per_phase.values()) == sum(report.gas_per_phase.values())
    assert len(report.ledger.commitments) == (12 if packed else len(report.ledger.revealed_cells))


# (config, dataset, commitments, gas total, SHA-256 of the event log and of
# the settlement CSV), the outputs recorded before the batch hash existed
LAYOUT_ROUNDS = {
    "packed": (
        ExperimentConfig(mechanism=Mechanism.PTSC, agents=30, seed=3), QoSDataset.synthetic(30, 50, seed=3),
        30, 6871828,
        "7047d2e89a133d78d797e5f22875ef6dd04017aff2e46b53e4ae44e9aa740688",
        "d773c44fa0177494587eaa9c08b3b30854f5ca9626d1b994a656d37b7930a517",
    ),
    "unpacked-past-the-memo": (
        ExperimentConfig(packed=False, agents=40, seed=4), QoSDataset.synthetic(40, 40, seed=4),
        1090, 94236670,
        "239907758e0a9898c3dcd0f2ca62e772523a998d8efab00abc1bdb63dbbf46b7",
        "9f8ecc4e35d24866f3d215f528b1989b6c2e976bd802394d83f15613b778b847",
    ),
}


@pytest.mark.parametrize("config, dataset, commitments, gas, log_sha, csv_sha",
                         LAYOUT_ROUNDS.values(), ids=LAYOUT_ROUNDS.keys())
def test_a_round_never_runs_the_sponge_on_a_commitment_layout(monkeypatch, config, dataset, commitments,
                                                              gas, log_sha, csv_sha):
    # the agents' batch hash fills the memo slice by slice; every commit and
    # reveal check finds its layout there, also past MEMO_SIZE commitments,
    # and so do the replay and audit of a round that fits in the memo
    keccak._memo.clear()
    single = []  # the messages keccak256 passes to the sponge: its misses
    real = keccak._sponge_256

    def sponge(messages, pad_byte):
        if sys._getframe(1).f_code.co_name != "keccak256_many":
            single.extend(messages)
        return real(messages, pad_byte)

    monkeypatch.setattr(keccak, "_sponge_256", sponge)
    report = run_experiment(config, dataset)
    if commitments <= keccak.MEMO_SIZE:
        assert Ledger.load(report.ledger.dump()).audit() == []
    assert [m for m in single if len(m) == cmt.LAYOUT_BYTES] == []
    assert len(report.ledger.commitments) == commitments
    assert report.gas_total == gas
    assert hashlib.sha256(report.ledger.dump().encode()).hexdigest() == log_sha
    assert hashlib.sha256(report.ledger.settlement.to_csv().encode()).hexdigest() == csv_sha


def test_the_large_layout_round_outgrows_the_memo():
    assert LAYOUT_ROUNDS["unpacked-past-the-memo"][2] > keccak.MEMO_SIZE


@pytest.mark.parametrize("mechanism", list(Mechanism))
def test_selection_seed_rounds_equal_its_seed64_rounds(mechanism):
    ds = QoSDataset.skip_one(12, 12, seed=5)
    reports = [
        run_experiment(ExperimentConfig(mechanism=mechanism, peer_mode=SampledPeers(3, s),
                                        agents=12, seed=5), ds)
        for s in (SelectionSeed(12, 34), SelectionSeed(12, 34).seed64())
    ]
    a, b = (r.reward_report.per_agent_reward for r in reports)
    assert a == b
    a, b = (r.ledger.gas.report_rows() for r in reports)
    assert a == b


def test_dg_settle_builds_pair_counts_once(monkeypatch):
    # the DG kernel builds it once per matrix, in the round and again in
    # its replay
    ds = QoSDataset.skip_one(12, 12, seed=5)
    builds = _counting(monkeypatch, mechanisms.PairCounts, "__init__")
    report = run_experiment(ExperimentConfig(mechanism=Mechanism.DG, agents=12, seed=5), ds)
    assert len(builds) == 1
    builds.clear()
    Ledger.load(report.ledger.dump())
    assert len(builds) == 1


def test_a_round_and_its_replay_do_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call, about 18 ms of a fresh
    # process; settlement takes its distinct small ints with np.bincount
    script = (
        "import sys\n"
        "from peerchain import sim\n"
        "from peerchain.ledger import Ledger\n"
        "from peerchain.mechanisms import Mechanism, SampledPeers\n"
        "ds = sim.QoSDataset.synthetic(12, 40, 1)\n"
        "for mechanism in Mechanism:\n"
        "    for peer_mode in (sim.ALL_PEERS, SampledPeers(3, 1)):\n"
        "        config = sim.ExperimentConfig(mechanism, peer_mode, agents=12)\n"
        "        Ledger.load(sim.run_experiment(config, ds).ledger.dump()).audit()\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(sim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["False"]
