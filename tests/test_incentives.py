"""Belief formulas, world calibration, and Monte-Carlo equilibrium checks."""

import threading
import tracemalloc
from fractions import Fraction as F
from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peerchain import incentives as inc
from peerchain.errors import AlphaTooSmall, DegeneratePrior, NonPositiveBeta, NoSolution
from peerchain.incentives import (
    ALWAYS_0,
    ALWAYS_1,
    CHUNK_ROUNDS,
    FLIP,
    MAX_MC_AGENTS,
    TRUTHFUL,
    BeliefModel,
    Deviation,
    IncentiveScenario,
    MCEstimate,
    alpha_bound,
    beta,
    calibrate_world,
    equilibrium_check,
    gamma,
    incentive_estimates,
    max_saving,
    parse_alpha,
    payment_mc,
    saving_lower_bound,
    saving_mc,
)

PRIOR = F(19, 20)
BUMP = F(1, 100)


def example_scenario(n=10, alpha="auto"):
    return IncentiveScenario.from_parameters(n=n, c=F(1), alpha=alpha,
                                             prior_1=PRIOR, bump=BUMP)


def test_running_example_exact_rationals():
    model = BeliefModel.from_bump(PRIOR, BUMP)
    assert model.prior_1 == PRIOR
    assert model.post_1_given_1 == F(24, 25)
    assert beta(model) == F(4, 19)
    assert gamma(model) == F(1, 25)
    assert alpha_bound(10, 1, model) == F(323, 500)
    assert float(alpha_bound(10, 1, model)) == 0.646
    # bound formula: c (1 + (n-1) gamma) / (n beta)
    n = 10
    assert alpha_bound(n, 1, model) == (1 + (n - 1) * F(1, 25)) / (n * F(4, 19))


def test_alpha_bound_monotone_decreasing_in_n():
    model = BeliefModel.from_bump(PRIOR, BUMP)
    bounds = [alpha_bound(n, 1, model) for n in (2, 5, 10, 25, 100)]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))
    # ... and scales linearly in c
    assert alpha_bound(10, 3, model) == 3 * alpha_bound(10, 1, model)
    with pytest.raises(ValueError):
        alpha_bound(1, 1, model)


def test_degenerate_and_uncorrelated_beliefs_rejected():
    with pytest.raises(DegeneratePrior):  # the model itself refuses a prior of 1
        BeliefModel(F(1), F(1))
    flat = BeliefModel.from_bump(F(1, 2), F(0))  # posterior equals prior
    with pytest.raises(NonPositiveBeta):
        alpha_bound(10, 1, flat)


def test_max_saving_exact():
    assert max_saving(F(19, 20)) == F(399, 400)
    assert float(max_saving(F(19, 20))) == 0.9975
    assert max_saving(F(1, 2)) == F(3, 4)
    assert max_saving(1) == F(1)
    with pytest.raises(ValueError):
        max_saving(F(3, 2))


def test_saving_lower_bound_formula():
    sc = example_scenario(alpha=F(1, 2))
    assert saving_lower_bound(sc) == F(399, 400) - F(1, 2)


def posterior(world):
    """P(x_p=1|x_i=1) of a calibrated world: two draws from one latent state."""
    return (world.w * world.h**2 + (1 - world.w) * world.l**2) / world.prior_1()


def test_world_calibration():
    world = calibrate_world(0.95, 0.96)
    assert abs(world.prior_1() - 0.95) < 1e-9
    assert abs(posterior(world) - 0.96) < 1e-9
    assert 0.5 < world.h < 1 and 0 < world.w < 1
    # empirical check of the conditional structure
    rng = np.random.default_rng(1)
    x = world.sample_observations(rng, 200_000, 2)
    p_match = (x[:, 1][x[:, 0] == 1] == 1).mean()
    assert abs(p_match - 0.96) < 0.005


@pytest.mark.parametrize("prior_1, post_1_given_1",
                         [(0.5, 1 - 1e-15), (0.95, 0.96), (0.3, 0.5), (0.999, 0.9995)])
def test_world_calibration_residuals_are_at_float_precision(prior_1, post_1_given_1):
    world = calibrate_world(prior_1, post_1_given_1)
    assert abs(world.prior_1() - prior_1) < 1e-15
    assert abs(posterior(world) - post_1_given_1) < 1e-15


def test_world_calibration_infeasible_cases():
    with pytest.raises(NoSolution):
        calibrate_world(0.95, 0.90)  # posterior below prior
    with pytest.raises(NoSolution):
        calibrate_world(0.95, 1.0)
    with pytest.raises(NoSolution):
        calibrate_world(1.0, 0.99)


def test_world_is_calibrated_once_per_scenario(monkeypatch):
    calls = []

    def counting(prior_1, post_1_given_1):
        calls.append((prior_1, post_1_given_1))
        return calibrate_world(prior_1, post_1_given_1)

    monkeypatch.setattr("peerchain.incentives.calibrate_world", counting)
    BeliefModel.from_bump(PRIOR, BUMP)
    assert calls == []
    sc = example_scenario()
    assert calls == [(PRIOR, PRIOR + BUMP)]
    assert abs(posterior(sc.world) - 0.96) < 1e-9


def test_scenario_construction_and_auto_alpha():
    sc = example_scenario()
    assert sc.alpha == 2 * F(323, 500) == F(323, 250)
    assert sc.bound() == F(323, 500)
    assert sc.n == 10
    with pytest.raises(ValueError):
        example_scenario(n=1)
    sc3 = IncentiveScenario.from_parameters(n=10, c=F(1), alpha="auto*3",
                                            prior_1=PRIOR, bump=BUMP)
    assert sc3.alpha == 3 * F(323, 500)


def test_alpha_spec_grammar():
    assert parse_alpha("auto") == (F(2), True)
    assert parse_alpha("auto*1/2") == parse_alpha("auto*0.5") == (F(1, 2), True)
    assert parse_alpha("0.25") == parse_alpha("1/4") == parse_alpha(0.25) == (F(1, 4), False)
    assert parse_alpha(F(3, 7)) == (F(3, 7), False)
    for bad in ("auto*abc", "auto*", "auto*0", "auto*-1", "autox", "1/0", "inf", None):
        with pytest.raises(ValueError):
            parse_alpha(bad)


def test_mc_estimates_need_a_round():
    sc = example_scenario()

    def equilibrium(scenario, **kwargs):
        return equilibrium_check(scenario, ALWAYS_0, **kwargs)

    def one_pass(scenario, **kwargs):
        return incentive_estimates(scenario, [ALWAYS_0], **kwargs)

    for estimate in (payment_mc, saving_mc, equilibrium, one_pass):
        # rounds and the seed are ints; a bool is not, and neither is 1e3
        for rounds in (0, -1, 1e3, 1.0, True, "10", None, np.int64(10)):
            with pytest.raises(ValueError):
                estimate(sc, rounds=rounds)
        for seed in (-1, 0.5, False, "0", None):
            with pytest.raises(ValueError):
                estimate(sc, rounds=10, master_seed=seed)


def test_mc_estimate_verdicts():
    assert MCEstimate(0.5, 0.1, 100).verdict() == "StrictlyPositive"
    assert MCEstimate(-0.5, 0.1, 100).verdict() == "StrictlyNegative"
    assert MCEstimate(0.1, 0.1, 100).verdict() == "Inconclusive"
    assert MCEstimate(0.5, 0.1, 100).within(0.45)
    assert not MCEstimate(0.5, 0.01, 100).within(0.45)


def test_payment_mc_bounded_by_alpha():
    sc = example_scenario()
    est = payment_mc(sc, rounds=100_000, master_seed=3)
    # the per-agent budget that suffices is alpha
    assert est.mean <= float(sc.alpha) + 3 * est.std_error
    # the running example pays about 0.2 alpha
    assert est.within(0.19998 * float(sc.alpha), sigmas=4)


def test_payment_mc_deterministic_given_seed():
    sc = example_scenario()
    a = payment_mc(sc, rounds=20_000, master_seed=5)
    b = payment_mc(sc, rounds=20_000, master_seed=5)
    c = payment_mc(sc, rounds=20_000, master_seed=6)
    assert (a.mean, a.std_error) == (b.mean, b.std_error)
    assert a.mean != c.mean


def test_truthful_deviation_gap_is_exactly_zero():
    sc = example_scenario()
    est = equilibrium_check(sc, TRUTHFUL, rounds=20_000, master_seed=2)
    assert est.mean == 0.0 and est.std_error == 0.0


def test_equilibrium_deviations_lose_at_twice_bound():
    sc = example_scenario()
    for dev in (ALWAYS_0, ALWAYS_1, FLIP, Deviation("random", 0.5)):
        est = equilibrium_check(sc, dev, rounds=200_000, master_seed=0)
        assert est.verdict() == "StrictlyPositive", (dev.kind, est)


def test_always0_gap_matches_analytic_margin():
    # at alpha = 2 x bound the always-0 utility gap is P(1) c (1+(n-1)g)/n
    sc = example_scenario()
    analytic = 0.95 * (1 + 9 * 0.04) / 10
    est = equilibrium_check(sc, ALWAYS_0, rounds=400_000, master_seed=1)
    assert est.within(analytic, sigmas=3), (est.mean, analytic, est.std_error)


def test_alpha_at_or_below_bound_rejected():
    sc = example_scenario(alpha=F(323, 500))
    with pytest.raises(AlphaTooSmall):
        equilibrium_check(sc, ALWAYS_0, rounds=1000)
    # but the enforcement can be lifted to demonstrate the failure mode
    weak = example_scenario(alpha=F(1, 100))
    est = equilibrium_check(weak, ALWAYS_0, rounds=200_000, master_seed=0,
                            enforce_alpha_bound=False)
    assert est.verdict() == "StrictlyNegative"


def test_saving_mc_meets_lower_bound():
    # pick alpha between the truthfulness bound and c * max_saving so the
    # saving bound is positive and the equilibrium condition still holds
    bound = F(323, 500)
    alpha = (bound + F(399, 400)) / 2
    sc = example_scenario(alpha=alpha)
    lower = saving_lower_bound(sc)
    assert lower > 0
    est = saving_mc(sc, rounds=100_000, master_seed=4)
    assert est.mean >= float(lower) - 3 * est.std_error
    assert 0 < est.mean <= 1


def test_deviation_validation():
    with pytest.raises(ValueError):
        Deviation("sideways")
    for p in (1.5, -0.1, float("nan"), "0.5", None, True, 1j):
        with pytest.raises(ValueError):
            Deviation("random", p)
    assert Deviation("random", 1) == Deviation("random", 1.0)
    assert Deviation("random", F(1, 4)).name == "random(0.25)"


# ---------------------------------------------------------------------------
# reference: every agent scored, one estimate at a time
# ---------------------------------------------------------------------------
#
# The library scores only agent 0 and shares each chunk's draws between the
# statistics of a pass.  These are the whole-population formulas it must
# agree with bit for bit: each estimate draws its own world and peers
# (through astype and int64 draws), scores all n agents and reads agent 0.

def _ref_chunk_rng(master_seed, tag, chunk):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([master_seed, tag, chunk])))


def _ref_observations(world, rng, rounds, n):
    high = rng.random(rounds) < world.w
    emit = np.where(high, world.h, world.l)
    return (rng.random((rounds, n)) < emit[:, None]).astype(np.int8)


def _ref_peers(rng, rounds, n):
    raw = rng.integers(0, n - 1, size=(rounds, n))
    return raw + (raw >= np.arange(n)[None, :])


def _ref_ptsc_scores(reports, peers, r1):
    r_freq = np.where(reports == 1, r1, 1.0 - r1)
    peer_reports = np.take_along_axis(reports, peers, axis=1)
    match = (peer_reports == reports).astype(np.float64)
    return match / r_freq - 1.0


def _ref_apply_deviation(x, deviation, rng):
    y = x.copy()
    if deviation.kind == "always-0":
        y[:, 0] = 0
    elif deviation.kind == "always-1":
        y[:, 0] = 1
    elif deviation.kind == "flip":
        y[:, 0] = 1 - x[:, 0]
    elif deviation.kind == "random":
        y[:, 0] = (rng.random(x.shape[0]) < deviation.p).astype(np.int8)
    return y


def _ref_agent0_utility(reports, peers, alpha, c, r1):
    scores = _ref_ptsc_scores(reports, peers, r1)
    o_q = (reports == 0).mean(axis=1)
    refund = c * o_q * (reports[:, 0] == 0)
    return alpha * scores[:, 0] + refund


def _ref_loop(scenario, rounds, master_seed, per_round):
    total, acc_sum, acc_sq, chunk = 0, 0.0, 0.0, 0
    while total < rounds:
        size = min(CHUNK_ROUNDS, rounds - total)
        x = _ref_observations(scenario.world, _ref_chunk_rng(master_seed, 1, chunk), size, scenario.n)
        peers = _ref_peers(_ref_chunk_rng(master_seed, 2, chunk), size, scenario.n)
        stat = per_round(x, peers, _ref_chunk_rng(master_seed, 3, chunk))
        acc_sum += float(stat.sum())
        acc_sq += float((stat * stat).sum())
        total += size
        chunk += 1
    mean = acc_sum / total
    var = max(acc_sq / total - mean * mean, 0.0)
    return MCEstimate(mean, sqrt(var / total), total)


def _ref_payment(scenario, rounds, master_seed):
    alpha, r1 = float(scenario.alpha), scenario.world.prior_1()
    return _ref_loop(scenario, rounds, master_seed,
                     lambda x, peers, _rng: alpha * _ref_ptsc_scores(x, peers, r1).mean(axis=1))


def _ref_saving(scenario, rounds, master_seed):
    alpha, c, n, r1 = float(scenario.alpha), float(scenario.c), scenario.n, scenario.world.prior_1()

    def per_round(x, peers, _rng):
        ptsc = alpha * _ref_ptsc_scores(x, peers, r1).sum(axis=1)
        refunds = c * (x == 0).mean(axis=1) * (x == 0).sum(axis=1)
        return (n * c - (ptsc + refunds)) / (n * c)

    return _ref_loop(scenario, rounds, master_seed, per_round)


def _ref_gap(scenario, deviation, rounds, master_seed):
    alpha, c, r1 = float(scenario.alpha), float(scenario.c), scenario.world.prior_1()

    def per_round(x, peers, rng):
        truthful = _ref_agent0_utility(x, peers, alpha, c, r1)
        return truthful - _ref_agent0_utility(_ref_apply_deviation(x, deviation, rng), peers, alpha, c, r1)

    return _ref_loop(scenario, rounds, master_seed, per_round)


@st.composite
def scenarios(draw):
    """Feasible beliefs (posterior above the prior, below 1) at alpha above the bound."""
    prior = F(draw(st.integers(1, 99)), 100)
    bump = (1 - prior) * F(draw(st.integers(1, 99)), 100)
    return IncentiveScenario.from_parameters(
        n=draw(st.integers(2, 12)), c=F(draw(st.integers(1, 8)), 2),
        alpha=draw(st.sampled_from(["auto", "auto*1.01", "auto*7"])), prior_1=prior, bump=bump)


def _assert_equal_to_the_reference(sc, rounds, seed, p):
    deviations = [TRUTHFUL, ALWAYS_0, ALWAYS_1, FLIP,
                  Deviation("random", 0), Deviation("random", 1), Deviation("random", p)]
    payment = _ref_payment(sc, rounds, seed)
    saving = _ref_saving(sc, rounds, seed)
    gaps = tuple(_ref_gap(sc, d, rounds, seed) for d in deviations)
    assert payment_mc(sc, rounds, seed) == payment
    assert saving_mc(sc, rounds, seed) == saving
    assert tuple(equilibrium_check(sc, d, rounds, seed) for d in deviations) == gaps
    assert incentive_estimates(sc, deviations, rounds, seed) == inc.IncentiveEstimates(payment, saving, gaps)
    # below the bound only the separate check runs, and only when asked to
    off = IncentiveScenario(sc.n, sc.c, F(0), sc.beliefs)
    assert (equilibrium_check(off, ALWAYS_0, rounds, seed, enforce_alpha_bound=False)
            == _ref_gap(off, ALWAYS_0, rounds, seed))
    with pytest.raises(AlphaTooSmall):
        incentive_estimates(off, [ALWAYS_0], rounds, seed)


@pytest.mark.parametrize("rounds", [
    1, 7,
    # one row short of a whole row block, and one row into the second
    pytest.param(lambda n: inc._block_rows(n) - 1, id="block-1"),
    pytest.param(lambda n: inc._block_rows(n) + 1, id="block+1"),
    CHUNK_ROUNDS, CHUNK_ROUNDS + 1,
])
@settings(derandomize=True, database=None, max_examples=6, deadline=None)
@given(sc=scenarios(), seed=st.integers(0, 2**64 - 1), p=st.floats(0, 1))
def test_estimates_equal_the_whole_population_reference(rounds, sc, seed, p):
    _assert_equal_to_the_reference(sc, rounds(sc.n) if callable(rounds) else rounds, seed, p)


def test_estimates_equal_the_whole_population_reference_with_wide_peer_indices():
    sc = example_scenario(n=300)
    assert inc._Chunk(sc, 0, 0, 1).draws.dtype == np.uint16
    # three row blocks, the last of one row
    _assert_equal_to_the_reference(sc, 2 * inc._block_rows(sc.n) + 1, 2**64 - 1, 0.3)


def test_estimates_equal_the_whole_population_reference_at_the_population_cap():
    sc = example_scenario(n=MAX_MC_AGENTS)
    assert inc._Chunk(sc, 0, 0, 1).draws.dtype == np.uint16
    # two row blocks and one row
    _assert_equal_to_the_reference(sc, 2 * inc._block_rows(sc.n) + 1, 7, 0.6)


@pytest.mark.parametrize("n", [2, 10, 300])
@pytest.mark.parametrize("block_cells", [1, 7, 64])
def test_estimates_do_not_depend_on_the_block_size(monkeypatch, n, block_cells):
    # every row-block loop reuses one block of scratch; a short last block
    # must read none of what the full blocks before it left there
    deviations = [TRUTHFUL, ALWAYS_0, ALWAYS_1, FLIP, Deviation("random", 0.4)]
    sc = example_scenario(n=n)

    def estimates(rounds):
        return (payment_mc(sc, rounds, 11), saving_mc(sc, rounds, 11),
                tuple(equilibrium_check(sc, d, rounds, 11) for d in deviations),
                incentive_estimates(sc, deviations, rounds, 11))

    rows = max(1, block_cells // n)
    rounds = 2 * rows + max(1, rows // 2)
    default = estimates(rounds)
    monkeypatch.setattr(inc, "BLOCK_CELLS", block_cells)
    assert inc._block_rows(n) == rows
    assert estimates(rounds) == default


@pytest.mark.parametrize("estimate", [
    payment_mc,
    saving_mc,
    lambda sc, rounds: equilibrium_check(sc, Deviation("random", 0.5), rounds),
    lambda sc, rounds: incentive_estimates(sc, [ALWAYS_0, ALWAYS_1, FLIP, Deviation("random", 0.5)], rounds),
], ids=["payment_mc", "saving_mc", "equilibrium_check", "incentive_estimates"])
def test_a_chunk_peaks_below_ten_bytes_per_round_and_agent(estimate):
    # a chunk keeps 2 bytes per (round, agent); whole-chunk temporaries
    # (float64 uniforms and scores, int64 gather indices) would add 8 each
    sc = example_scenario()
    tracemalloc.start()
    try:
        estimate(sc, rounds=CHUNK_ROUNDS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (CHUNK_ROUNDS * sc.n) < 10


@pytest.mark.parametrize("broken", ["peer stream", "world"])
def test_an_error_on_either_thread_reaches_the_caller(monkeypatch, broken):
    # the peer stream is drawn on the helper thread, the world on the caller's
    before = threading.active_count()
    alive = []
    chunk_rng = inc._chunk_rng

    class Broken:
        def integers(self, *args, **kwargs):
            alive.append(threading.active_count())
            raise RuntimeError(f"{broken} broke")

        random = integers

    def rng(master_seed, tag, chunk):
        wanted = inc._TAG_PEERS if broken == "peer stream" else inc._TAG_WORLD
        return Broken() if tag == wanted else chunk_rng(master_seed, tag, chunk)

    monkeypatch.setattr(inc, "_chunk_rng", rng)
    for estimate in (payment_mc, lambda sc, rounds: incentive_estimates(sc, [ALWAYS_0], rounds)):
        with pytest.raises(RuntimeError, match=f"{broken} broke"):
            estimate(example_scenario(), rounds=CHUNK_ROUNDS + 1)
        assert threading.active_count() == before
    # at most one helper thread, alive while it draws the peers
    assert len(alive) == 2 and all(count <= before + 1 for count in alive)
    if broken == "peer stream":
        assert alive == [before + 1] * 2


def test_the_helper_thread_runs_under_the_callers_numpy_error_state():
    # numpy's error state is per thread, and an overflow's RuntimeWarning is
    # an error under this suite's warning filters
    huge = np.array([1e308])
    with np.errstate(over="ignore"):
        inc._concurrently(lambda: huge * 10, lambda: None)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        inc._concurrently(lambda: huge * 10, lambda: None)


def test_mc_population_is_capped_before_any_draw(monkeypatch):
    assert payment_mc(example_scenario(n=MAX_MC_AGENTS), rounds=1).rounds == 1
    draws = []
    monkeypatch.setattr(inc.GenerativeWorld, "sample_observations", lambda *args: draws.append(args))
    big = example_scenario(n=MAX_MC_AGENTS + 1)
    for estimate in (payment_mc, saving_mc, lambda sc, rounds: equilibrium_check(sc, ALWAYS_0, rounds),
                     lambda sc, rounds: incentive_estimates(sc, [ALWAYS_0], rounds)):
        with pytest.raises(ValueError, match=f"at most {MAX_MC_AGENTS} agents, got n = {MAX_MC_AGENTS + 1}"):
            estimate(big, rounds=1)
    assert draws == []
    # the closed forms take any population
    huge = example_scenario(n=10**7)
    assert 0 < huge.bound() < big.bound()
    assert saving_lower_bound(huge) == max_saving(PRIOR) - huge.alpha


def test_one_pass_draws_each_chunk_once(monkeypatch):
    calls = []
    draw = inc.GenerativeWorld.sample_observations

    def counting(world, rng, rounds, n):
        calls.append(rounds)
        return draw(world, rng, rounds, n)

    monkeypatch.setattr(inc.GenerativeWorld, "sample_observations", counting)
    incentive_estimates(example_scenario(), [ALWAYS_0, FLIP, Deviation("random", 0.5)], CHUNK_ROUNDS + 1, 0)
    assert calls == [CHUNK_ROUNDS, 1]


def test_one_pass_refuses_a_small_alpha_after_payment_and_saving():
    # the payment and saving run first, so their errors win, as in separate calls
    small = example_scenario(alpha=F(1, 2))
    with pytest.raises(AlphaTooSmall):
        incentive_estimates(small, [ALWAYS_0], 10)
    assert incentive_estimates(small, [], 10) == inc.IncentiveEstimates(
        payment_mc(small, 10), saving_mc(small, 10), ())
    huge_c = IncentiveScenario.from_parameters(n=10, c=F(10) ** 308, alpha=F(1, 2), prior_1=PRIOR, bump=BUMP)
    with pytest.raises(ValueError, match="overflow"):
        incentive_estimates(huge_c, [ALWAYS_0], 10)
