"""Command-line front end: protocol rounds, gas benchmarks, incentive analysis.

Subcommands
    round        one full post/select/commit/reveal/settle lifecycle;
                 writes settlement.csv, gas.csv and events.log
    gas-bench    packing, optimization, mechanism and peer-count sweeps;
                 writes packing.csv, optimization.csv, mechanisms.csv
                 and peers.csv
    incentives   alpha bounds, expected payments, savings and equilibrium
                 verdicts per scenario; writes incentives.csv (saving_bound
                 assumes each round's share of 0 reports is 1 - p1; not a bound in general)

Exit codes: 0 success, 1 domain error (the diagnostic names the error
class), 2 usage or parse error.  Every run is deterministic given the
flags; files are written atomically so a crash never leaves half a CSV.

All decimal output carries 12 significant digits; exact rationals get an
extra p/q column where that matters.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from . import incentives as inc
from .errors import PeerchainError
from .gas_model import DEFAULT_GAS_TABLE, GasTable
from .ledger import format_decimal
from .mechanisms import ALL_PEERS, Mechanism, SampledPeers
from .sim import (
    CSV_HEADER,
    ExperimentConfig,
    QoSDataset,
    run_experiment,
    sweep_mechanisms,
    sweep_packing,
    sweep_peers,
)

SAMPLE_DATASET = Path(__file__).parent / "data" / "rt_sample.txt"

# running-example beliefs used whenever no scenario file is supplied
DEFAULT_PRIOR = Fraction(19, 20)
DEFAULT_BUMP = Fraction(1, 100)


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _alpha_arg(s: str) -> str | Fraction:
    try:
        alpha, auto = inc.parse_alpha(s)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    return s if auto else alpha


def _peers_arg(s: str):
    if s == "all":
        return "all"
    try:
        k = int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--peers takes 'all' or a positive integer, got {s!r}")
    if k < 1:
        raise argparse.ArgumentTypeError("--peers K must be >= 1")
    return k


def _dataset(args) -> QoSDataset:
    return QoSDataset.load(args.dataset if args.dataset else SAMPLE_DATASET)


def _gas_table(args) -> GasTable:
    return GasTable.load(args.gas_table) if args.gas_table else DEFAULT_GAS_TABLE


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fnum(x: float) -> str:
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# round
# ---------------------------------------------------------------------------

def cmd_round(args) -> int:
    dataset = _dataset(args)
    agents = min(args.agents, dataset.n_agents)
    peer_mode = ALL_PEERS if args.peers == "all" else SampledPeers(args.peers, args.seed)
    alpha = args.alpha
    if isinstance(alpha, str):
        # auto alphas scale the truthfulness bound of the running-example beliefs
        alpha = inc.IncentiveScenario.from_parameters(
            max(agents, 2), 1, alpha, DEFAULT_PRIOR, DEFAULT_BUMP).alpha
    config = ExperimentConfig(
        mechanism=Mechanism(args.mechanism),
        peer_mode=peer_mode,
        packed=args.pack == "on",
        gas_table=_gas_table(args),
        agents=agents,
        questions_per_agent=args.questions,
        alpha=alpha,
        seed=args.seed,
    )
    report = run_experiment(config, dataset)
    out = _out_dir(args)

    _atomic_write(out / "settlement.csv", report.ledger.settlement.to_csv() + "\n")
    gas_lines = ["phase,party,op_kind,words,gas"]
    gas_lines += [",".join(str(v) for v in row) for row in report.ledger.gas.report_rows()]
    _atomic_write(out / "gas.csv", "\n".join(gas_lines) + "\n")
    _atomic_write(out / "events.log", report.ledger.dump())

    print(f"round settled: mechanism={config.mechanism.value} agents={agents} "
          f"answers={report.reward_report and len(report.reward_report.per_agent_reward)}")
    for phase, gas in report.gas_per_phase.items():
        print(f"  gas {phase:<9} {gas}")
    print(f"  gas total     {report.gas_total}")
    print(f"wrote {out / 'settlement.csv'}, {out / 'gas.csv'}, {out / 'events.log'}")
    return 0


# ---------------------------------------------------------------------------
# gas-bench
# ---------------------------------------------------------------------------

def cmd_gas_bench(args) -> int:
    if args.agents < 1:
        raise ValueError(f"gas-bench needs at least one agent, got {args.agents}")
    out = _out_dir(args)
    table = _gas_table(args)
    if args.dataset:
        desk = QoSDataset.load(args.dataset)
    else:
        desk = QoSDataset.synthetic(args.agents, args.agents, seed=11)
    agents = min(args.agents, desk.n_agents)
    desk = desk.corner(agents, desk.n_services)
    base = ExperimentConfig(gas_table=table, agents=agents, seed=args.seed)

    # the packing sweep needs every agent to hold q answers for q = 1..43,
    # so it runs on a dense synthetic matrix; the commit cost it shows is
    # per agent, so a small population suffices
    small = min(agents, 10)
    dense = QoSDataset.synthetic(small, 43, seed=args.seed, p_miss=0.0)
    rows = [CSV_HEADER]
    for rep in sweep_packing(replace(base, agents=small), dense, questions=range(1, 44)):
        rows += rep.csv_rows()
    _atomic_write(out / "packing.csv", "\n".join(rows) + "\n")

    # optimized vs naive settlement; the skip-one pattern keeps DG valid
    # at any size and the naive path tractable
    side = min(agents, 20)
    skew = QoSDataset.skip_one(side, side, seed=args.seed)
    rows = [CSV_HEADER]
    for mech in Mechanism:
        for optimized in (True, False):
            cfg = ExperimentConfig(
                mechanism=mech, gas_table=table, agents=side, seed=args.seed,
                optimized=optimized,
                config_id=f"{mech.value}-{'optimized' if optimized else 'naive'}",
            )
            rows += run_experiment(cfg, skew).csv_rows()
    _atomic_write(out / "optimization.csv", "\n".join(rows) + "\n")

    rows = [CSV_HEADER]
    for rep in sweep_mechanisms(base, desk).values():
        rows += rep.csv_rows()
    _atomic_write(out / "mechanisms.csv", "\n".join(rows) + "\n")

    ks = sorted({1, 2, 5, 10, 25, agents - 1} - {0})
    rows = [CSV_HEADER]
    for rep in sweep_peers(
        ExperimentConfig(mechanism=Mechanism.DG, gas_table=table, agents=agents, seed=args.seed),
        desk, ks=[k for k in ks if k < agents], sample_seed=args.seed,
    ).values():
        rows += rep.csv_rows()
    _atomic_write(out / "peers.csv", "\n".join(rows) + "\n")

    print(f"wrote packing.csv, optimization.csv, mechanisms.csv, peers.csv under {out}")
    return 0


# ---------------------------------------------------------------------------
# incentives
# ---------------------------------------------------------------------------

def _load_scenarios(args) -> list[tuple[str, inc.IncentiveScenario]]:
    """(scenario id, scenario) for each spec, all built before any output."""
    if not args.scenario:
        raw = [{"scenario_id": "example-n10", "n": 10,
                "prior": DEFAULT_PRIOR, "bump": DEFAULT_BUMP, "alpha": "auto"}]
    else:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if isinstance(raw, dict):
            raw = [raw]
        if not isinstance(raw, list) or not all(isinstance(s, dict) for s in raw):
            raise ValueError("scenario file must hold a JSON object or list of objects")
    scenarios = []
    for position, spec_ in enumerate(raw, 1):
        missing = [key for key in ("n", "prior", "bump") if key not in spec_]
        if missing:
            name = repr(spec_["scenario_id"]) if "scenario_id" in spec_ else f"#{position}"
            raise ValueError(f"scenario {name} lacks the key(s) {', '.join(map(repr, missing))}")
        scenario = inc.IncentiveScenario.from_parameters(
            spec_["n"], spec_.get("c", 1), spec_.get("alpha", "auto"), spec_["prior"], spec_["bump"])
        scenarios.append((spec_.get("scenario_id", f"n{spec_['n']}"), scenario))
    return scenarios


INCENTIVES_HEADER = (
    "scenario_id,alpha_bound,alpha_used,payment_mc,saving_bound,saving_mc,"
    "verdict_always_0,verdict_always_1,verdict_flip,verdict_random,alpha_bound_exact"
)
INCENTIVES_DEVIATIONS = (inc.ALWAYS_0, inc.ALWAYS_1, inc.FLIP, inc.Deviation("random", 0.5))


def cmd_incentives(args) -> int:
    scenarios = _load_scenarios(args)
    rows = [INCENTIVES_HEADER]
    summary = []
    for sid, scenario in scenarios:
        bound = scenario.bound()
        est = inc.incentive_estimates(scenario, INCENTIVES_DEVIATIONS,
                                      rounds=args.rounds, master_seed=args.seed)
        verdicts = [gap.verdict() for gap in est.gaps]
        rows.append(
            f"{sid},{format_decimal(bound)},{format_decimal(scenario.alpha)},"
            f"{_fnum(est.payment.mean)},{format_decimal(inc.saving_lower_bound(scenario))},"
            f"{_fnum(est.saving.mean)},{','.join(verdicts)},"
            f"{bound.numerator}/{bound.denominator}"
        )
        summary.append((sid, verdicts))
    out = _out_dir(args)
    _atomic_write(out / "incentives.csv", "\n".join(rows) + "\n")
    for sid, verdicts in summary:
        print(f"{sid}: " + " ".join(verdicts))
    print(f"wrote {out / 'incentives.csv'}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peerchain",
        description="decentralized-oracle peer-consistency toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, inputs: bool = True):
        if inputs:
            p.add_argument("--dataset", help="response-time matrix file (default: bundled sample)")
            p.add_argument("--gas-table", help="gas table JSON (default: built-in constants)")
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        p.add_argument("--out", default="out", help="output directory (default ./out)")

    p = sub.add_parser("round", help="run one full protocol round")
    common(p)
    p.add_argument("--mechanism", choices=[m.value for m in Mechanism], default="oa")
    p.add_argument("--alpha", type=_alpha_arg, default="auto",
                   help="PTSC scaling: decimal, p/q, 'auto' (2x the bound, default) or 'auto*M'")
    p.add_argument("--peers", type=_peers_arg, default="all", help="'all' or K sampled peers")
    p.add_argument("--pack", choices=["on", "off"], default="on")
    p.add_argument("--agents", type=int, default=50)
    p.add_argument("--questions", type=int, default=None,
                   help="truncate each agent to the first N answered questions")

    p = sub.add_parser("gas-bench",
                       help="gas sweeps: packing, optimization, mechanisms, peers")
    common(p)
    p.add_argument("--agents", type=int, default=50)

    p = sub.add_parser("incentives", help="bounds, payments, savings, equilibrium verdicts")
    common(p, inputs=False)
    p.add_argument("--scenario", help="scenario JSON file (default: running example)")
    p.add_argument("--rounds", type=int, default=2 * 10**5,
                   help="Monte-Carlo rounds per estimate (default 200000)")

    parser.set_defaults(func=None)
    for name, fn in (("round", cmd_round), ("gas-bench", cmd_gas_bench),
                     ("incentives", cmd_incentives)):
        sub.choices[name].set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PeerchainError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
