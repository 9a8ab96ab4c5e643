"""Belief formulas, world calibration, and Monte-Carlo equilibrium checks."""

from fractions import Fraction as F

import numpy as np
import pytest

from peerchain.errors import AlphaTooSmall, DegeneratePrior, NonPositiveBeta, NoSolution
from peerchain.incentives import (
    ALWAYS_0,
    ALWAYS_1,
    FLIP,
    TRUTHFUL,
    AgentBelief,
    BeliefModel,
    Deviation,
    IncentiveScenario,
    MCEstimate,
    alpha_bound,
    beta,
    calibrate_world,
    equilibrium_check,
    gamma,
    max_saving,
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
    assert model.agents[0].prior_1 == PRIOR
    assert model.agents[0].post_1_given_1 == F(24, 25)
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
    certain = BeliefModel((AgentBelief(F(1), F(1), F(0), F(0)),))
    with pytest.raises(DegeneratePrior):
        beta(certain)
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


def test_world_calibration():
    world = calibrate_world(0.95, 0.96)
    assert abs(world.prior_1() - 0.95) < 1e-9
    assert abs(world.post_1_given_1() - 0.96) < 1e-9
    assert 0.23 < world.post_0_given_0() < 0.25
    assert 0.5 < world.h < 1 and 0 < world.w < 1
    # empirical check of the conditional structure
    rng = np.random.default_rng(1)
    x = world.sample_observations(rng, 200_000, 2)
    p_match = (x[:, 1][x[:, 0] == 1] == 1).mean()
    assert abs(p_match - 0.96) < 0.005


def test_world_calibration_infeasible_cases():
    with pytest.raises(NoSolution):
        calibrate_world(0.95, 0.90)  # posterior below prior
    with pytest.raises(NoSolution):
        calibrate_world(0.95, 1.0)
    with pytest.raises(NoSolution):
        calibrate_world(1.0, 0.99)


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
    with pytest.raises(ValueError):
        Deviation("random", p=1.5)
