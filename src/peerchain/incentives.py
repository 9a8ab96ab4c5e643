"""Belief models, the PTSC scaling bound, and Monte-Carlo equilibrium checks.

Closed forms are exact rationals:

* beta  = P(x_p=1|x_i=1)/P(x_p=1) - P(x_p=0|x_i=1)/P(x_p=0)
* gamma = P(x_p=0|x_i=1)
* alpha_bound(n, c) = c * (1 + (n-1)*gamma) / (n*beta); any alpha strictly
  above it makes truth-telling a strict equilibrium against the refund
  incentive c * o_q paid to agents who report 0.
* max_saving(p1) = p1*(2 - p1) and saving_lower_bound = max_saving - alpha/c.

The claimed expectations are over a belief-consistent world, which is
only available here by sampling, so the verification side is Monte-Carlo:
a symmetric two-state mixture (weight w on the high state, emission h,
low-state emission 1-h) is calibrated by bisection so its marginal and
posterior match the beliefs, then rounds are simulated with numpy and
compared at a 3-standard-error margin.  Each agent is scored against one
uniformly random peer; o_q counts the agent's own report; R(y) is the
population answer frequency, which truthful play pins at the prior
marginal (see `_ptsc_scores`).

Monte-Carlo rounds are chunked; chunk seeds derive from
SeedSequence([master_seed, stream_tag, chunk_index]) so results do not
depend on chunk size or scheduling, and truthful-versus-deviation gaps
share the common random numbers of the world and the peer draws.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from math import sqrt

import numpy as np

from .errors import AlphaTooSmall, DegeneratePrior, NonPositiveBeta, NoSolution

CHUNK_ROUNDS = 100_000
_TAG_WORLD, _TAG_PEERS, _TAG_DEVIATION = 1, 2, 3


# ---------------------------------------------------------------------------
# beliefs and closed forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BeliefModel:
    """Every agent's prior P(x=1) and posterior P(x_p=1|x_i=1), exact."""

    prior_1: Fraction
    post_1_given_1: Fraction

    def __post_init__(self):
        for name in ("prior_1", "post_1_given_1"):
            p = getattr(self, name)
            if not 0 <= p <= 1:
                raise ValueError(f"{name} = {p} is not a probability")

    @classmethod
    def from_bump(cls, prior_1, bump) -> "BeliefModel":
        """Beliefs with P(x_p=1|x_i=1) = prior + bump."""
        prior_1 = Fraction(prior_1)
        return cls(prior_1, prior_1 + Fraction(bump))


def _require_mixed(model: BeliefModel) -> None:
    if model.prior_1 in (0, 1):
        raise DegeneratePrior(f"prior {model.prior_1} is not fully mixed")


def beta(model: BeliefModel) -> Fraction:
    """Correlation strength, exact."""
    _require_mixed(model)
    return model.post_1_given_1 / model.prior_1 - (1 - model.post_1_given_1) / (1 - model.prior_1)


def gamma(model: BeliefModel) -> Fraction:
    """Posterior weight on a peer observing 0 given 1."""
    _require_mixed(model)
    return 1 - model.post_1_given_1


def _require_agents(n: int) -> None:
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"n must be a whole number of at least two agents, got {n!r}")


def alpha_bound(n: int, c, model: BeliefModel) -> Fraction:
    _require_agents(n)
    c = Fraction(c)
    if c <= 0:
        raise ValueError("refund coefficient c must be positive")
    b = beta(model)
    if b <= 0:
        raise NonPositiveBeta(f"beta = {b}; the bound needs positive correlation")
    return c * (1 + (n - 1) * gamma(model)) / (n * b)


def max_saving(p1) -> Fraction:
    p1 = Fraction(p1)
    if not 0 <= p1 <= 1:
        raise ValueError("p1 must be a probability")
    return p1 * (2 - p1)


# ---------------------------------------------------------------------------
# generative world
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GenerativeWorld:
    """Symmetric two-state mixture: state H with weight w emits 1 with
    probability h, state L emits 1 with probability l = 1 - h."""

    w: float
    h: float

    def __post_init__(self):
        if not (0 <= self.w <= 1 and 0 <= self.h <= 1):
            raise ValueError("w and h must be probabilities")

    @property
    def l(self) -> float:
        return 1.0 - self.h

    def prior_1(self) -> float:
        return self.w * self.h + (1 - self.w) * self.l

    def post_1_given_1(self) -> float:
        p1 = self.prior_1()
        return (self.w * self.h**2 + (1 - self.w) * self.l**2) / p1

    def sample_observations(self, rng: np.random.Generator, rounds: int, n: int) -> np.ndarray:
        """(rounds, n) int8 matrix of observations, one latent state per row."""
        high = rng.random(rounds) < self.w
        emit = np.where(high, self.h, self.l)
        return (rng.random((rounds, n)) < emit[:, None]).astype(np.int8)


def calibrate_world(prior_1, post_1_given_1, tol: float = 1e-12) -> GenerativeWorld:
    """Solve w*h + (1-w)*(1-h) = prior and the posterior equation by
    bisection over h; the mixture weight follows from the marginal."""
    p1 = float(prior_1)
    target = float(post_1_given_1)
    if not 0 < p1 < 1:
        raise NoSolution(f"prior {p1} must be fully mixed")
    if target < p1:
        raise NoSolution("posterior below prior needs negative correlation")
    if target >= 1:
        raise NoSolution("posterior 1 is not fully mixed")

    lo = max(p1, 1 - p1)  # w = 1 (or 0); posterior equals the prior
    hi = 1.0

    def posterior(h: float) -> float:
        if h == 0.5:
            return p1
        w = (p1 - (1 - h)) / (2 * h - 1)
        l = 1 - h
        return (w * h * h + (1 - w) * l * l) / p1

    if target <= posterior(lo) + tol:
        h = lo
    else:
        for _ in range(200):
            mid = (lo + hi) / 2
            if posterior(mid) < target:
                lo = mid
            else:
                hi = mid
            if hi - lo < tol:
                break
        h = (lo + hi) / 2
    w = 1.0 if h == 0.5 else (p1 - (1 - h)) / (2 * h - 1)
    world = GenerativeWorld(min(max(w, 0.0), 1.0), h)
    if abs(world.prior_1() - p1) > 1e-9 or abs(world.post_1_given_1() - target) > 1e-9:
        raise NoSolution(
            f"bisection finished at prior {world.prior_1():.12f}, "
            f"posterior {world.post_1_given_1():.12f}; target unreachable"
        )
    return world


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def exact_number(v) -> Fraction:
    """An exact rational from an int, Fraction, float (by its shortest
    decimal repr) or a decimal or p/q string.

    A decimal whose exponent is beyond Python's integer string-conversion
    limit (``sys.get_int_max_str_digits()``, under which the ledger's JSON
    log is written) is refused before its power of ten is built.
    """
    d = None
    try:
        if isinstance(v, (int, Fraction)) or isinstance(v, str) and "/" in v:
            return Fraction(v)
        if isinstance(v, (str, float)):
            d = Decimal(str(v))
    except (ArithmeticError, ValueError):
        pass
    if d is None or not d.is_finite():
        raise ValueError(f"not a decimal or p/q rational: {v!r}")
    limit = sys.get_int_max_str_digits()
    if limit and abs(d.as_tuple().exponent) > limit:
        raise ValueError(f"decimal {v!r} has an exponent beyond {limit} digits")
    return Fraction(d)


def parse_alpha(spec) -> tuple[Fraction, bool]:
    """Read an alpha spec: a number, "auto" (2x the truthfulness bound) or
    "auto*m" (m times the bound, m > 0).

    Returns (alpha, False) for a number and (m, True) for the auto forms.
    """
    if isinstance(spec, str) and (spec == "auto" or spec.startswith("auto*")):
        margin = Fraction(2) if spec == "auto" else exact_number(spec[5:])
        if margin <= 0:
            raise ValueError(f"alpha margin must be positive, got {spec!r}")
        return margin, True
    return exact_number(spec), False


@dataclass(frozen=True)
class IncentiveScenario:
    n: int
    c: Fraction
    alpha: Fraction
    beliefs: BeliefModel
    world: GenerativeWorld = field(init=False)

    def __post_init__(self):
        _require_agents(self.n)
        if self.c <= 0:
            raise ValueError("c must be positive")
        # alpha = 0 is allowed to demonstrate the PTSC-off failure mode;
        # the bound and payment helpers still demand a positive alpha.
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        # the Monte-Carlo estimates run in floats, and divide by c
        for name in ("c", "alpha"):
            try:
                float(getattr(self, name))
            except OverflowError:
                raise ValueError(f"{name} is too large for a float") from None
        if float(self.c) == 0:
            raise ValueError("c is too small for a float")
        world = calibrate_world(self.beliefs.prior_1, self.beliefs.post_1_given_1)
        object.__setattr__(self, "world", world)

    @classmethod
    def from_parameters(cls, n: int, c, alpha, prior_1, bump) -> "IncentiveScenario":
        """Build a consistent scenario; alpha is any spec `parse_alpha` reads."""
        c = Fraction(c)
        beliefs = BeliefModel.from_bump(prior_1, bump)
        alpha, auto = parse_alpha(alpha)
        if auto:
            alpha *= alpha_bound(n, c, beliefs)
        return cls(n, c, alpha, beliefs)

    def bound(self) -> Fraction:
        return alpha_bound(self.n, self.c, self.beliefs)


def saving_lower_bound(scenario: IncentiveScenario) -> Fraction:
    """Closed-form saving floor: p1*(2-p1) - alpha/c."""
    return max_saving(scenario.beliefs.prior_1) - scenario.alpha / scenario.c


# ---------------------------------------------------------------------------
# Monte-Carlo engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Deviation:
    """A unilateral reporting strategy for the agent under test."""

    kind: str  # truthful | always-0 | always-1 | flip | random
    p: float = 0.5

    def __post_init__(self):
        if self.kind not in ("truthful", "always-0", "always-1", "flip", "random"):
            raise ValueError(f"unknown deviation {self.kind!r}")
        if not 0 <= self.p <= 1:
            raise ValueError("deviation probability must be in [0, 1]")

    @property
    def name(self) -> str:
        return f"random({self.p:g})" if self.kind == "random" else self.kind


TRUTHFUL = Deviation("truthful")
ALWAYS_0 = Deviation("always-0")
ALWAYS_1 = Deviation("always-1")
FLIP = Deviation("flip")


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    std_error: float
    rounds: int

    def within(self, target: float, sigmas: float = 3.0) -> bool:
        return self.mean <= target + sigmas * self.std_error

    def verdict(self, sigmas: float = 3.0) -> str:
        if self.mean > sigmas * self.std_error:
            return "StrictlyPositive"
        if self.mean < -sigmas * self.std_error:
            return "StrictlyNegative"
        return "Inconclusive"


def _chunk_rng(master_seed: int, tag: int, chunk: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([master_seed, tag, chunk])))


def _ptsc_scores(reports: np.ndarray, peers: np.ndarray, r1: float) -> np.ndarray:
    """Unscaled per-agent scores 1[y=y_peer]/R(y) - 1.

    R(y) is the population relative frequency of y over the whole answer
    batch, which under truthful play converges to the marginal P(y); a
    single agent's deviation cannot move it because her own answers are
    excluded from R by definition.  The match, by contrast, is against a
    peer on the shared question, where answers are correlated; that gap is
    the whole PTSC incentive.
    """
    r_freq = np.where(reports == 1, r1, 1.0 - r1)
    peer_reports = np.take_along_axis(reports, peers, axis=1)
    match = (peer_reports == reports).astype(np.float64)
    return match / r_freq - 1.0


def _draw_peers(rng: np.random.Generator, rounds: int, n: int) -> np.ndarray:
    raw = rng.integers(0, n - 1, size=(rounds, n))
    return raw + (raw >= np.arange(n)[None, :])


def _mc_loop(scenario, rounds, master_seed, per_round):
    """Drive chunked simulation; per_round maps a chunk to a 1-d statistic."""
    if rounds < 1:
        raise ValueError(f"Monte-Carlo estimates need at least one round, got {rounds}")
    total = 0
    acc_sum = 0.0
    acc_sq = 0.0
    chunk_index = 0
    while total < rounds:
        size = min(CHUNK_ROUNDS, rounds - total)
        rng_world = _chunk_rng(master_seed, _TAG_WORLD, chunk_index)
        rng_peers = _chunk_rng(master_seed, _TAG_PEERS, chunk_index)
        rng_dev = _chunk_rng(master_seed, _TAG_DEVIATION, chunk_index)
        x = scenario.world.sample_observations(rng_world, size, scenario.n)
        peers = _draw_peers(rng_peers, size, scenario.n)
        stat = per_round(x, peers, rng_dev)
        acc_sum += float(stat.sum())
        acc_sq += float((stat * stat).sum())
        total += size
        chunk_index += 1
    mean = acc_sum / total
    var = max(acc_sq / total - mean * mean, 0.0)
    return MCEstimate(mean, sqrt(var / total), total)


def payment_mc(scenario: IncentiveScenario, rounds: int = 10**5, master_seed: int = 0) -> MCEstimate:
    """Expected PTSC payment per agent under truthful play (refunds excluded)."""
    alpha = float(scenario.alpha)
    r1 = scenario.world.prior_1()

    def per_round(x, peers, _rng):
        return alpha * _ptsc_scores(x, peers, r1).mean(axis=1)

    return _mc_loop(scenario, rounds, master_seed, per_round)


def saving_mc(scenario: IncentiveScenario, rounds: int = 10**5, master_seed: int = 0) -> MCEstimate:
    """Relative saving (n*c - P)/(n*c) with P = PTSC payments + refunds."""
    alpha = float(scenario.alpha)
    c = float(scenario.c)
    n = scenario.n
    r1 = scenario.world.prior_1()

    def per_round(x, peers, _rng):
        ptsc = alpha * _ptsc_scores(x, peers, r1).sum(axis=1)
        o_q = (x == 0).mean(axis=1)
        refunds = c * o_q * (x == 0).sum(axis=1)
        total_paid = ptsc + refunds
        return (n * c - total_paid) / (n * c)

    return _mc_loop(scenario, rounds, master_seed, per_round)


def _apply_deviation(x: np.ndarray, deviation: Deviation, rng: np.random.Generator) -> np.ndarray:
    y = x.copy()
    col = x[:, 0]
    if deviation.kind == "truthful":
        return y
    if deviation.kind == "always-0":
        y[:, 0] = 0
    elif deviation.kind == "always-1":
        y[:, 0] = 1
    elif deviation.kind == "flip":
        y[:, 0] = 1 - col
    else:
        y[:, 0] = (rng.random(x.shape[0]) < deviation.p).astype(np.int8)
    return y


def _agent0_utility(reports: np.ndarray, peers: np.ndarray, alpha: float, c: float, r1: float) -> np.ndarray:
    scores = _ptsc_scores(reports, peers, r1)
    o_q = (reports == 0).mean(axis=1)
    refund = c * o_q * (reports[:, 0] == 0)
    return alpha * scores[:, 0] + refund


def equilibrium_check(
    scenario: IncentiveScenario,
    deviation: Deviation,
    rounds: int = 10**6,
    master_seed: int = 0,
    enforce_alpha_bound: bool = True,
) -> MCEstimate:
    """Estimate E[utility | truthful] - E[utility | deviation] for one
    deviating agent against truthful peers; StrictlyPositive at 3 standard
    errors confirms the strict equilibrium.

    Pass enforce_alpha_bound=False to probe the regime below the bound
    where nothing is guaranteed (such as alpha = 0, where PTSC is off and
    reporting 0 dominates).
    """
    if enforce_alpha_bound and scenario.alpha <= scenario.bound():
        raise AlphaTooSmall(
            f"alpha = {scenario.alpha} is not above the truthfulness bound {scenario.bound()}"
        )
    alpha = float(scenario.alpha)
    c = float(scenario.c)
    r1 = scenario.world.prior_1()

    def per_round(x, peers, rng_dev):
        truthful = _agent0_utility(x, peers, alpha, c, r1)
        deviant = _agent0_utility(_apply_deviation(x, deviation, rng_dev), peers, alpha, c, r1)
        return truthful - deviant

    return _mc_loop(scenario, rounds, master_seed, per_round)
