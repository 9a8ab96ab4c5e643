"""Peer-consistency oracle toolkit: mechanisms, commit-reveal, ledger, gas, incentives."""

from .commitment import (
    KEY_BITS,
    LAYOUT_BYTES,
    MAX_ANSWERS,
    Commitment,
    commit,
    verify_reveal,
)
from .errors import PeerchainError
from .gas_model import DEFAULT_GAS_TABLE, GasLedger, GasTable
from .incentives import (
    BeliefModel,
    GenerativeWorld,
    IncentiveScenario,
    alpha_bound,
    calibrate_world,
    equilibrium_check,
    incentive_estimates,
    max_saving,
    payment_mc,
    saving_lower_bound,
    saving_mc,
)
from .keccak import keccak256
from .ledger import Ledger, LedgerConfig, Phase, SettlementReport
from .mechanisms import (
    ALL_PEERS,
    AnswerMatrix,
    Mechanism,
    RewardReport,
    SampledPeers,
    compute_rewards,
    rewards_naive,
)
from .peer_selection import SelectionSeed, SplitMix64, sample_peers
from .sim import (
    AgentPopulation,
    Behavior,
    ExperimentConfig,
    ExperimentReport,
    QoSDataset,
    binarize,
    generate_reports,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
