"""Workload inputs, all derived from the workload seed.

A workload runs in cycles.  A cycle plays the workload's mix of OA, PTSC
and DG rounds, interleaved, then the six Monte-Carlo estimates of
`peerchain incentives` on its default scenario.  Rounds are numbered
across cycles, and round i takes its dataset seed, key seed and
peer-sampling seed from
(workload, workload seed, i), so the same seed always gives the same inputs.

Every workload runs every kind of operation, because the benchmark reports
every end-to-end metric on every workload; the workloads differ in which
layer does most of the work.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction

from peerchain import incentives as inc
from peerchain import sim
from peerchain.mechanisms import ALL_PEERS, Mechanism, SampledPeers

DEFAULT_SEED = 0
MECHANISMS = (Mechanism.OA, Mechanism.PTSC, Mechanism.DG)
DEVIATIONS = (inc.ALWAYS_0, inc.ALWAYS_1, inc.FLIP, inc.Deviation("random", 0.5))
# The running example of the incentive analysis: prior 19/20, bump 1/100,
# refund coefficient 1, alpha twice the truthfulness bound.
PRIOR_1 = Fraction(19, 20)
BUMP = Fraction(1, 100)
DG_DATASET_ATTEMPTS = 100


@dataclass(frozen=True)
class RoundShape:
    dataset: str            # "skip_one" or "synthetic"
    agents: int
    services: int
    packed: bool
    sample_k: int | None    # None scores against all peers


@dataclass(frozen=True)
class Spec:
    name: str
    rounds: RoundShape
    mix: tuple[int, int, int]   # rounds per cycle of OA, PTSC and DG
    mc_rounds: int              # Monte-Carlo rounds per estimate

    @property
    def cycle(self) -> tuple[Mechanism, ...]:
        """Mechanisms of one cycle's rounds, interleaved: OA, PTSC, DG, OA, ..."""
        left = dict(zip(MECHANISMS, self.mix))
        order = []
        while any(left.values()):
            for m in MECHANISMS:
                if left[m]:
                    order.append(m)
                    left[m] -= 1
        return tuple(order)


def _specs(settle: int, unpacked_agents: int, desk: int, k: int, mc_rounds: int) -> dict[str, Spec]:
    # A DG round on all peers costs about four OA or PTSC rounds, so
    # settle-all-peers plays OA and PTSC twice per cycle: every mechanism
    # then gets a similar share of the run and a similar number of samples.
    return {
        spec.name: spec
        for spec in (
            Spec("settle-all-peers", RoundShape("skip_one", settle, settle, True, None), (2, 2, 1), mc_rounds),
            Spec("settle-sampled", RoundShape("skip_one", settle, settle, True, k), (1, 1, 1), mc_rounds),
            Spec("commit-unpacked", RoundShape("synthetic", unpacked_agents, desk, False, None), (1, 1, 1), mc_rounds),
        )
    }


SPECS = _specs(settle=56, unpacked_agents=12, desk=40, k=10, mc_rounds=200_000)
# Seconds-long versions of every workload for the benchmark's self-test.
TINY_SPECS = _specs(settle=10, unpacked_agents=8, desk=30, k=3, mc_rounds=100_000)
# The Monte-Carlo block of every cycle is the default scenario of
# `peerchain incentives`: ten agents in the running example.
MC_AGENTS = 10


def derive(*parts) -> int:
    """64-bit seed from tags; the same tags give the same seed everywhere."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class RoundInput:
    config: sim.ExperimentConfig
    dataset: sim.QoSDataset


def _dataset(shape: RoundShape, seed: int) -> sim.QoSDataset:
    if shape.dataset == "skip_one":
        return sim.QoSDataset.skip_one(shape.agents, shape.services, seed)
    return sim.QoSDataset.synthetic(shape.agents, shape.services, seed)


def _dg_valid(dataset: sim.QoSDataset) -> bool:
    try:
        sim.assert_dg_valid(sim.binarize(dataset))
    except AssertionError:
        return False
    return True


class Workload:
    """The inputs of one workload at one seed; building it is the set-up."""

    def __init__(self, spec: Spec, seed: int):
        self.spec = spec
        self.seed = seed
        self.scenario = inc.IncentiveScenario.from_parameters(
            n=MC_AGENTS, c=1, alpha="auto", prior_1=PRIOR_1, bump=BUMP)
        self._pending = {i: self._build(i) for i in range(len(spec.cycle))}

    def _build(self, i: int) -> RoundInput:
        shape = self.spec.rounds
        cycle = self.spec.cycle
        mechanism = cycle[i % len(cycle)]
        # Synthetic matrices can leave an agent pair without exclusive
        # questions, which DG rejects; redraw so that no round fails.
        for attempt in range(DG_DATASET_ATTEMPTS):
            dataset = _dataset(shape, derive(self.spec.name, self.seed, i, "dataset", attempt))
            if shape.dataset == "skip_one" or mechanism is not Mechanism.DG or _dg_valid(dataset):
                break
        else:
            raise RuntimeError(f"no DG-valid dataset for round {i} after {DG_DATASET_ATTEMPTS} draws")
        peer_mode = (
            ALL_PEERS if shape.sample_k is None
            else SampledPeers(shape.sample_k, derive(self.spec.name, self.seed, i, "sample"))
        )
        config = sim.ExperimentConfig(
            mechanism=mechanism,
            peer_mode=peer_mode,
            packed=shape.packed,
            agents=shape.agents,
            seed=derive(self.spec.name, self.seed, i, "keys"),
            config_id=f"{self.spec.name}-round{i}",
        )
        return RoundInput(config, dataset)

    def round_input(self, i: int) -> RoundInput:
        """Inputs of round i; the first cycle's are built during set-up."""
        pending = self._pending.pop(i, None)
        return pending if pending is not None else self._build(i)

    def mc_seed(self, cycle: int) -> int:
        return derive(self.spec.name, self.seed, cycle, "mc")
