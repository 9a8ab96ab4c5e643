"""Belief models, the PTSC scaling bound, and Monte-Carlo equilibrium checks.

Closed forms are exact rationals, every input read by `exact_number`:

* beta  = P(x_p=1|x_i=1)/P(x_p=1) - P(x_p=0|x_i=1)/P(x_p=0)
* gamma = P(x_p=0|x_i=1)
* alpha_bound(n, c) = c * (1 + (n-1)*gamma) / (n*beta); any alpha strictly
  above it makes truth-telling a strict equilibrium against the refund
  incentive c * o_q paid to agents who report 0.
* max_saving(p1) = p1*(2 - p1) and saving_lower_bound = max_saving - alpha/c,
  not a bound in general: it assumes each round's share of 0 reports is 1 - p1.

The claimed expectations are over a belief-consistent world, which is
only available here by sampling, so the verification side is Monte-Carlo:
a symmetric two-state mixture (weight w on the high state, emission h,
low-state emission 1-h) is calibrated in closed form so its marginal and
posterior match the beliefs, then rounds are simulated with numpy and
compared at a 3-standard-error margin.  Each agent is scored against one
uniformly random peer; o_q counts the agent's own report; R(y) is the
population answer frequency, which truthful play pins at the prior
marginal (see `_Chunk.score_sums`).

Monte-Carlo rounds run in chunks of CHUNK_ROUNDS seeded by
SeedSequence([master_seed, stream_tag, chunk_index]), so an estimate depends
only on (scenario, rounds, master_seed) at that chunk size, and deviation
gaps share the common random numbers of the world and the peer draws.

A chunk keeps two (rounds x n) arrays: the int8 reports and each agent's
raw peer draw (uint8 up to n = 256, uint16 above), so 2 bytes per (round,
agent) up to n = 256 and 3 above; a draw becomes a peer index only where a
statistic reads one.  Everything else is drawn or scored in row blocks of
about BLOCK_CELLS (round, agent) cells, through scratch buffers of one
block made once per chunk, or kept as one value per round.  Consecutive
blocks consume a numpy stream exactly as one whole-chunk call would, and
each round's score is summed within its row, so estimates do not depend on
the block size.  Agent 0's PTSC utility reads the same four-entry score
table as the population's, scaled by alpha.  The simulated population is
capped at MAX_MC_AGENTS, where a chunk keeps about 300 MB and an estimate,
drawing each chunk beside the last, about 600 MB; the closed forms take any n.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from math import isfinite, sqrt
from numbers import Real
from operator import methodcaller

import numpy as np

from .errors import AlphaTooSmall, DegeneratePrior, NonPositiveBeta, NoSolution, PeerchainError, require_ints

CHUNK_ROUNDS = 100_000
BLOCK_CELLS = 1 << 16
MAX_MC_AGENTS = 1_000
_TAG_WORLD, _TAG_PEERS, _TAG_DEVIATION = 1, 2, 3


# ---------------------------------------------------------------------------
# beliefs and closed forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BeliefModel:
    """Every agent's prior P(x=1) and posterior P(x_p=1|x_i=1), exact; a prior
    of 0 or 1 is DegeneratePrior and a posterior below it NonPositiveBeta."""

    prior_1: Fraction
    post_1_given_1: Fraction

    def __post_init__(self):
        for name in ("prior_1", "post_1_given_1"):
            p = exact_number(getattr(self, name))
            if not 0 <= p <= 1:
                raise ValueError(f"{name} = {p} is not a probability")
            object.__setattr__(self, name, p)
        if self.prior_1 in (0, 1):
            raise DegeneratePrior(f"prior {self.prior_1} is not fully mixed")
        if self.post_1_given_1 < self.prior_1:
            raise NonPositiveBeta("a posterior below the prior is negative correlation")

    @classmethod
    def from_bump(cls, prior_1, bump) -> "BeliefModel":
        """Beliefs with P(x_p=1|x_i=1) = prior + bump."""
        return cls(prior_1, exact_number(prior_1) + exact_number(bump))


def beta(model: BeliefModel) -> Fraction:
    """Correlation strength, exact."""
    return model.post_1_given_1 / model.prior_1 - (1 - model.post_1_given_1) / (1 - model.prior_1)


def gamma(model: BeliefModel) -> Fraction:
    """Posterior weight on a peer observing 0 given 1."""
    return 1 - model.post_1_given_1


def _require_agents(n: int) -> None:
    require_ints(n=n)
    if n < 2:
        raise ValueError(f"n must be a whole number of at least two agents, got {n!r}")


def alpha_bound(n: int, c, model: BeliefModel) -> Fraction:
    _require_agents(n)
    c = exact_number(c)
    if c <= 0:
        raise ValueError("refund coefficient c must be positive")
    b = beta(model)
    if b <= 0:
        raise NonPositiveBeta(f"beta = {b}; the bound needs positive correlation")
    return c * (1 + (n - 1) * gamma(model)) / (n * b)


def max_saving(p1) -> Fraction:
    p1 = exact_number(p1)
    if not 0 <= p1 <= 1:
        raise ValueError("p1 must be a probability")
    return p1 * (2 - p1)


# ---------------------------------------------------------------------------
# generative world
# ---------------------------------------------------------------------------

def _block_rows(n: int) -> int:
    """Rows of one row block of a (rounds, n) array: about BLOCK_CELLS cells."""
    return max(1, BLOCK_CELLS // n)


def _row_blocks(rounds: int, n: int):
    """(start, stop) of each row block of a (rounds, n) array."""
    step = _block_rows(n)
    for start in range(0, rounds, step):
        yield start, min(start + step, rounds)


def _block_scratch(rounds: int, n: int, dtype) -> np.ndarray:
    """An uninitialised buffer for one row block of a (rounds, n) array; a
    loop over the blocks fills a leading slice of it with ``out=``."""
    return np.empty((min(rounds, _block_rows(n)), n), dtype=dtype)


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

    def sample_observations(self, rng: np.random.Generator, rounds: int, n: int) -> np.ndarray:
        """(rounds, n) int8 matrix of observations, one latent state per row.

        The states take the stream's first ``rounds`` uniforms and the
        observations the next rounds x n, as a (rounds,) and a (rounds, n)
        draw would; both are drawn through one row block of scratch uniforms.
        """
        x = np.empty((rounds, n), dtype=np.int8)
        uniforms = _block_scratch(rounds, n, np.float64)
        high = np.empty(rounds, dtype=np.bool_)
        for s in range(0, rounds, uniforms.size):
            e = min(s + uniforms.size, rounds)
            np.less(rng.random(out=uniforms.ravel()[:e - s]), self.w, out=high[s:e])
        for s, e in _row_blocks(rounds, n):
            u = rng.random(out=uniforms[:e - s])
            np.less(u, np.where(high[s:e, None], self.h, self.l), out=x[s:e].view(np.bool_))
        return x


def calibrate_world(prior_1, post_1_given_1) -> GenerativeWorld:
    """Solve w*h + (1-w)*l = prior and w*h^2 + (1-w)*l^2 = post*prior in
    closed form.  With h = 1 - l the two reduce to l^2 - l + c = 0 for
    c = prior*(1 - post); l is the smaller root, and w follows from the
    marginal."""
    p1 = float(prior_1)
    target = float(post_1_given_1)
    if not 0 < p1 < 1:
        raise NoSolution(f"prior {p1} must be fully mixed")
    if target < p1:
        raise NoSolution("posterior below prior needs negative correlation")
    if target >= 1:
        raise NoSolution("posterior 1 is not fully mixed")
    c = p1 * (1 - target)
    l = 2 * c / (1 + sqrt(1 - 4 * c))  # (1 - sqrt(1 - 4c)) / 2 without cancellation
    h = 1 - l
    w = 1.0 if h == l else (p1 - l) / (h - l)
    return GenerativeWorld(min(max(w, 0.0), 1.0), h)


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def exact_number(v) -> Fraction:
    """An exact rational from an int, Fraction, float (by its shortest
    decimal repr) or a decimal or p/q string; a bool is not a number.

    A decimal whose exponent is beyond Python's integer string-conversion
    limit (``sys.get_int_max_str_digits()``, under which the ledger's JSON
    log is written) is refused before its power of ten is built.
    """
    d = None
    try:
        if not isinstance(v, bool) and isinstance(v, (int, Fraction)) or isinstance(v, str) and "/" in v:
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
        if not isinstance(self.beliefs, BeliefModel):
            raise ValueError(f"beliefs must be a BeliefModel, got {self.beliefs!r}")
        for name in ("c", "alpha"):
            object.__setattr__(self, name, exact_number(getattr(self, name)))
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
        beliefs = BeliefModel.from_bump(prior_1, bump)
        alpha, auto = parse_alpha(alpha)
        if auto:
            alpha *= alpha_bound(n, c, beliefs)
        return cls(n, c, alpha, beliefs)

    def bound(self) -> Fraction:
        return alpha_bound(self.n, self.c, self.beliefs)


def saving_lower_bound(scenario: IncentiveScenario) -> Fraction:
    """Closed-form saving floor p1*(2-p1) - alpha/c; it assumes each round's share
    of 0 reports is fixed at 1 - p1, so it is not a bound in general."""
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
        if isinstance(self.p, bool) or not isinstance(self.p, Real):
            raise ValueError(f"deviation probability must be a real number, got {self.p!r}")
        if not 0 <= self.p <= 1:
            raise ValueError("deviation probability must be in [0, 1]")
        object.__setattr__(self, "p", float(self.p))

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


@dataclass(frozen=True)
class IncentiveEstimates:
    """The estimates of one `incentive_estimates` pass."""

    payment: MCEstimate
    saving: MCEstimate
    gaps: tuple[MCEstimate, ...]  # one per deviation, in the order given


def _chunk_rng(master_seed: int, tag: int, chunk: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([master_seed, tag, chunk])))


class _Chunk:
    """One chunk's reports x (rounds x n, int8) and raw peer draws (rounds x n,
    the smallest unsigned type that holds n - 1), drawn once for all the
    per-round statistics of a pass, which share what they build from them.

    Agent j's draw d picks its peer from the other n - 1 agents: the peer is
    agent d + (d >= j).  That index is derived only where a statistic reads
    it: inside `score_sums`' row blocks, and as d + 1 for agent 0 (`peer0`),
    so a chunk that only scores agent 0 never converts the whole matrix.

    Those two arrays are all the chunk keeps per (round, agent): 2 bytes up to
    n = 256 and 3 above, about 300 MB a chunk at MAX_MC_AGENTS, and 600 MB
    while `_mc_loop` draws the next.  The draws are made, and the population's
    scores and 0 reports summed, one row block of about BLOCK_CELLS cells at a
    time; each such loop fills scratch buffers of one block, made once per
    chunk, with ``out=``; every other statistic holds one value per round.
    """

    def __init__(self, scenario: IncentiveScenario, master_seed: int, index: int, size: int):
        self.n, self.alpha, self.c = scenario.n, float(scenario.alpha), float(scenario.c)
        n = self.n
        self.master_seed, self.index = master_seed, index
        r1 = scenario.world.prior_1()
        r0 = 1.0 - r1
        # 1[y = y_peer]/R(y) - 1, indexed by 2 * own report + peer's report
        self.score = np.array([1.0 / r0 - 1.0, 0.0 / r0 - 1.0, 0.0 / r1 - 1.0, 1.0 / r1 - 1.0])
        self.x = scenario.world.sample_observations(_chunk_rng(master_seed, _TAG_WORLD, index), size, n)
        self.x0 = self.x[:, 0]
        peer_rng = _chunk_rng(master_seed, _TAG_PEERS, index)
        self.draws = np.empty((size, n), dtype=np.min_scalar_type(n - 1))
        for s, e in _row_blocks(size, n):
            self.draws[s:e] = peer_rng.integers(0, n - 1, size=(e - s, n), dtype=np.int32)

    @cached_property
    def zeros(self) -> np.ndarray:
        """Each round's count of 0 reports: n minus a float32 mat-vec of each
        row block with ones.  Every partial sum is a whole number below
        2**24, so the count is exact in any summation order."""
        n = self.n
        zeros = np.empty(len(self.x), dtype=np.int32)
        reports = _block_scratch(len(self.x), n, np.float32)
        ones_per_row = np.empty(len(reports), dtype=np.float32)
        unit = np.ones(n, dtype=np.float32)
        for s, e in _row_blocks(len(self.x), n):
            b = e - s
            np.copyto(reports[:b], self.x[s:e])
            np.matmul(reports[:b], unit, out=ones_per_row[:b])
            np.subtract(n, ones_per_row[:b], out=zeros[s:e], casting="unsafe")
        return zeros

    @cached_property
    def score_sums(self) -> np.ndarray:
        """Each round's sum over agents of the PTSC score 1[y = y_peer]/R(y) - 1.

        R(y) is the population relative frequency of y over the whole answer
        batch, which under truthful play converges to the marginal P(y); a
        single agent's deviation cannot move it because its own answers are
        excluded from R by definition.  The match, by contrast, is against a
        peer on the shared question, where answers are correlated; that gap
        is the whole PTSC incentive.
        """
        n = self.n
        sums = np.empty(len(self.x))
        up = _block_scratch(len(self.x), n, np.bool_)
        flat = _block_scratch(len(self.x), n, np.int32)
        code = _block_scratch(len(self.x), n, np.int8)
        terms = _block_scratch(len(self.x), n, np.float64)
        row_starts = np.arange(0, len(flat) * n, n, dtype=np.int32)[:, None]
        agents = np.arange(n, dtype=self.draws.dtype)
        for s, e in _row_blocks(len(self.x), n):
            b, x, d = e - s, self.x[s:e], self.draws[s:e]
            # the flat index within the block of each agent's peer's report
            np.greater_equal(d, agents, out=up[:b])
            np.add(d, row_starts[:b], out=flat[:b])
            flat[:b] += up[:b]
            # 2 * own report + peer's report; clip mode writes to out unbuffered
            np.take(x.ravel(), flat[:b], out=code[:b], mode="clip")
            code[:b] += x
            code[:b] += x
            np.take(self.score, code[:b], out=terms[:b], mode="clip")
            terms[:b].sum(axis=1, out=sums[s:e])
        return sums

    @cached_property
    def peer0(self) -> np.ndarray:
        """Agent 0's peer's reports, which agent 0's deviation cannot move.
        No draw is below 0, so agent 0's peer is agent d + 1."""
        flat = np.arange(1, len(self.x) * self.n, self.n, dtype=np.int32)
        flat += self.draws[:, 0]
        return self.x.ravel().take(flat)

    def utility0(self, y: np.ndarray, zeros: np.ndarray) -> np.ndarray:
        """Agent 0's scaled score and refund for reports y, with ``zeros`` 0 reports a round;
        the score is the population's `score` entry scaled by alpha."""
        return (self.alpha * self.score).take(y + y + self.peer0) + self.c * (zeros / self.n) * (y == 0)

    @cached_property
    def truthful0(self) -> np.ndarray:
        return self.utility0(self.x0, self.zeros)

    def payment(self) -> np.ndarray:
        return self.alpha * (self.score_sums / self.n)

    def saving(self) -> np.ndarray:
        total_paid = self.alpha * self.score_sums + self.c * (self.zeros / self.n) * self.zeros
        return (self.n * self.c - total_paid) / (self.n * self.c)

    def gap(self, deviation: Deviation) -> np.ndarray:
        """Agent 0's truthful utility minus its utility under the deviation."""
        x0 = self.x0
        if deviation.kind == "truthful":
            y = x0
        elif deviation.kind == "always-0":
            y = np.zeros_like(x0)
        elif deviation.kind == "always-1":
            y = np.ones_like(x0)
        elif deviation.kind == "flip":
            y = 1 - x0
        else:  # a fresh deviation stream for every random deviation
            rng = _chunk_rng(self.master_seed, _TAG_DEVIATION, self.index)
            y = (rng.random(len(x0)) < deviation.p).view(np.int8)
        return self.truthful0 - self.utility0(y, self.zeros - (x0 == 0) + (y == 0))


def _require_mc_inputs(n: int, rounds: object, master_seed: object) -> None:
    """Raise ValueError unless rounds >= 1 and master_seed >= 0 are ints (a bool
    is not) and the population n is at most MAX_MC_AGENTS."""
    require_ints(rounds=rounds, master_seed=master_seed)
    if rounds < 1:
        raise ValueError(f"Monte-Carlo estimates need at least one round, got {rounds}")
    if master_seed < 0:
        raise ValueError(f"master_seed must be nonnegative, got {master_seed}")
    if n > MAX_MC_AGENTS:
        raise ValueError(f"Monte-Carlo estimates simulate at most {MAX_MC_AGENTS} agents, got n = {n}")


def _mc_loop(scenario, rounds, master_seed, stats) -> list[MCEstimate]:
    """Estimate every statistic, a map from a `_Chunk` to one value per round,
    on one chunked simulation.  A statistic that needs random numbers of its
    own opens the chunk's deviation stream afresh, so an estimate is the same
    alone or beside others, and the estimates of one pass share the draws."""
    _require_mc_inputs(scenario.n, rounds, master_seed)
    sums = [[0.0, 0.0] for _ in stats]
    total = 0
    chunk_index = 0
    while total < rounds:
        size = min(CHUNK_ROUNDS, rounds - total)
        chunk = _Chunk(scenario, master_seed, chunk_index, size)
        # an overflow shows as a non-finite sum, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            for acc, per_round in zip(sums, stats):
                stat = per_round(chunk)
                acc[0] += float(stat.sum())
                acc[1] += float((stat * stat).sum())
        if not all(isfinite(a) for acc in sums for a in acc):
            raise ValueError(
                f"Monte-Carlo sums overflow a float at alpha = {float(scenario.alpha):g}, "
                f"c = {float(scenario.c):g}"
            )
        total += size
        chunk_index += 1
    estimates = []
    for acc_sum, acc_sq in sums:
        mean = acc_sum / total
        var = max(acc_sq / total - mean * mean, 0.0)
        estimates.append(MCEstimate(mean, sqrt(var / total), total))
    return estimates


def payment_mc(scenario: IncentiveScenario, rounds: int = 10**5, master_seed: int = 0) -> MCEstimate:
    """Expected PTSC payment per agent under truthful play (refunds excluded)."""
    return _mc_loop(scenario, rounds, master_seed, [_Chunk.payment])[0]


def saving_mc(scenario: IncentiveScenario, rounds: int = 10**5, master_seed: int = 0) -> MCEstimate:
    """Relative saving (n*c - P)/(n*c) with P = PTSC payments + refunds."""
    return _mc_loop(scenario, rounds, master_seed, [_Chunk.saving])[0]


def _require_above_bound(scenario: IncentiveScenario) -> None:
    if scenario.alpha <= scenario.bound():
        raise AlphaTooSmall(
            f"alpha = {scenario.alpha} is not above the truthfulness bound {scenario.bound()}"
        )


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

    Only agent 0 is scored.  Its peer is never itself, so a deviation moves
    only its own score and the round's count of 0 reports.  The statistic
    runs in the chunk loop that `incentive_estimates` shares.

    Pass enforce_alpha_bound=False to probe the regime below the bound
    where nothing is guaranteed (such as alpha = 0, where PTSC is off and
    reporting 0 dominates).
    """
    if enforce_alpha_bound:
        _require_above_bound(scenario)
    return _mc_loop(scenario, rounds, master_seed, [methodcaller("gap", deviation)])[0]


def incentive_estimates(
    scenario: IncentiveScenario,
    deviations: Iterable[Deviation],
    rounds: int = 10**5,
    master_seed: int = 0,
) -> IncentiveEstimates:
    """`payment_mc`, `saving_mc` and `equilibrium_check` for each deviation,
    in one pass: each chunk is drawn once and agent 0's truthful utility
    is computed once.

    The estimates equal those of the separate calls, and so does the first
    error: bad inputs or overflowing payment or saving sums come before a
    refused alpha, and the deviations run only when alpha is above the bound.
    """
    stats = [_Chunk.payment, _Chunk.saving] + [methodcaller("gap", d) for d in deviations]
    if len(stats) > 2:
        try:
            _require_above_bound(scenario)
        except PeerchainError:
            _mc_loop(scenario, rounds, master_seed, stats[:2])
            raise
    payment, saving, *gaps = _mc_loop(scenario, rounds, master_seed, stats)
    return IncentiveEstimates(payment, saving, tuple(gaps))
