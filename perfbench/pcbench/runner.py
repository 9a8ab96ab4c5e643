"""Closed-loop round benchmark with one client.

Each operation starts when the previous one has finished.  A cycle plays
the workload's mix of OA, PTSC and DG rounds, verifies each one right
after it, and then runs the cycle's Monte-Carlo estimates.  Cycles repeat until the next one
would end past the measuring window; at least one cycle always runs.

Operations:

* round: ``sim.run_experiment(config, dataset)``, a full post, select,
  commit, reveal and settle on a fresh ledger;
* verify: the auditor's work on that round's log: ``Ledger.load`` of the
  dump, ``audit()`` of the replay, and the byte comparison of the replay's
  log with the log the auditor received and with the round's own log;
* mc: one of the estimators ``payment_mc``, ``saving_mc`` and
  ``equilibrium_check`` that ``peerchain incentives`` runs.

An operation fails when it raises or when its output check fails; failed
operations are counted and kept out of every median.  With tracing on,
even cycles run under a `Tracer` and odd cycles run without one, which
gives the per-layer metrics and the tracing overhead from the same run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

import numpy as np

from peerchain import incentives as inc
from peerchain import sim
from peerchain.ledger import Ledger
from peerchain.mechanisms import Mechanism, SampledPeers, peers_for_cell

from . import tracing
from .speed import NOMINAL_S, Speedometer, normalised
from .workloads import DEVIATIONS, MECHANISMS, SPECS, TINY_SPECS, Workload

SETUP_PROBES = 8              # fresh-interpreter set-ups per untraced run
DESCHEDULED_CPU_SHARE = 0.9   # cpu/wall below this: the process waited for a core
MECH_NAMES = tuple(m.value for m in MECHANISMS)


@dataclass
class Op:
    kind: str          # round | verify | mc
    label: str         # mechanism, or estimator and scenario size
    group: str
    cycle: int
    traced: bool
    wall: float = 0.0
    cpu: float = 0.0
    ok: bool = False
    error: str = ""
    work: int = 0      # answers settled (round) or Monte-Carlo rounds (mc)
    ref_index: int = 0  # the speed sample taken right after this operation
    ref: float = 0.0    # reference time around this operation (speed.py)

    @property
    def norm(self) -> float:
        """Wall time at the nominal reference speed; what the metrics report."""
        return normalised(self.wall, self.ref)

    @property
    def descheduled(self) -> bool:
        return self.wall > 0 and self.cpu / self.wall < DESCHEDULED_CPU_SHARE


@dataclass
class RunResult:
    workload: str
    seed: int
    trace: bool
    ops: list[Op] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    setup_samples: list[float] = field(default_factory=list)   # normalised seconds
    metrics: dict[str, tuple[float | None, str]] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    pinned_checked: int = 0
    tracer: tracing.Tracer | None = None

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

    def summary(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in self.metrics.items()},
        }


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def round_facts(report: sim.ExperimentReport) -> dict:
    """Gas total and output digests of one round, as pinned for the default seed."""
    return {
        "mechanism": report.config.mechanism.value,
        "gas_total": report.gas_total,
        "settlement_csv_sha256": sha256_text(report.ledger.settlement.to_csv()),
        "event_log_sha256": sha256_text(report.ledger.dump()),
    }


def work_counts(matrix, mechanism: Mechanism, peer_mode) -> dict[str, int]:
    """Work of one settlement, computed outside the program.

    cells_scored: answered cells with at least one peer; peer_visits: peers
    scored over those cells; dg_pairs: distinct agent pairs whose DG
    penalty is needed.  Sampled peers are re-drawn with the program's own
    sampler; call this only while no tracer is installed.
    """
    sampled = isinstance(peer_mode, SampledPeers)
    need_pairs = mechanism is Mechanism.DG
    cells = visits = 0
    pairs: set[tuple[str, str]] = set()
    for agent in matrix.agents:
        for q in matrix.answers_by_agent[agent]:
            pool = len(matrix.answerers_by_question[q]) - 1
            if pool < 1:
                continue
            cells += 1
            if not sampled:
                visits += pool
                continue
            visits += min(peer_mode.k, pool)
            if need_pairs:
                for p in peers_for_cell(matrix, agent, q, peer_mode):
                    pairs.add((agent, p) if agent < p else (p, agent))
    if need_pairs and not sampled:
        for q in matrix.questions:
            answerers = matrix.answerers_by_question[q]
            for i, a in enumerate(answerers):
                for b in answerers[i + 1:]:
                    pairs.add((a, b) if a < b else (b, a))
    return {"cells_scored": cells, "peer_visits": visits, "dg_pairs": len(pairs)}


def _check_round(report: sim.ExperimentReport, pin: dict | None) -> str:
    """Empty string when the round's outputs hold, else the first failure."""
    transfers = report.ledger.settlement.transfers
    if sum(transfers.values()) != 0:
        return "settlement transfers do not sum to zero"
    try:
        report.reward_report.validate_bounds()
    except AssertionError as exc:
        return f"reward out of bounds: {exc}"
    if pin is not None:
        facts = round_facts(report)
        for key, want in pin.items():
            if facts[key] != want:
                return f"{key} is {facts[key]!r}, pinned {want!r}"
    return ""


def _verify(received: str, original: str) -> str:
    """The auditor's replay; empty string when the log checks out."""
    replay = Ledger.load(received)
    findings = replay.audit()
    replay_log = replay.dump()
    if findings:
        return f"audit findings: {findings[:3]}"
    if replay_log != received:
        return "replayed log differs from the log received"
    if replay_log != original:
        return "replayed log differs from the round's log"
    return ""


class _Runner:
    def __init__(self, workload: Workload, result: RunResult, pins, log_tamper, tracer: tracing.Tracer | None):
        self.workload = workload
        self.result = result
        self.pins = pins or {}
        self.log_tamper = log_tamper
        self.tracer = tracer
        self.speed = Speedometer()
        self.traced_rounds: dict[str, dict] = {}
        self.traced_mc: list[str] = []
        self._pending_counts: list[tuple[str, sim.ExperimentReport]] = []

    def _timed(self, op: Op, fn, *args, **kwargs):
        """Run one operation, recording wall and process CPU time."""
        if op.traced:
            self.tracer.group = op.group
        c0 = process_time()
        t0 = perf_counter()
        try:
            if op.traced:
                return self.tracer.span(f"op.{op.kind}", fn, *args, **kwargs)
            return fn(*args, **kwargs)
        except Exception as exc:  # an operation that raises is a failed operation
            op.error = f"{type(exc).__name__}: {exc}"
            return None
        finally:
            op.wall = perf_counter() - t0
            op.cpu = process_time() - c0
            op.ref_index = self.speed.sample()
            self.result.ops.append(op)

    def round_and_verify(self, cycle: int, index: int, traced: bool) -> None:
        inp = self.workload.round_input(index)
        mech = inp.config.mechanism.value
        group = f"round{index}"
        op = Op("round", mech, group, cycle, traced)
        report = self._timed(op, sim.run_experiment, inp.config, inp.dataset)
        if report is None:
            return
        op.error = _check_round(report, self.pins.get(index))
        op.ok = not op.error
        op.work = len(report.ledger.revealed_cells)
        self.result.pinned_checked += index in self.pins
        log = report.ledger.dump()
        facts = round_facts(report)
        self.result.digests[group] = sha256_text(json.dumps(facts, sort_keys=True))

        received = self.log_tamper(log) if self.log_tamper else log
        vop = Op("verify", mech, group, cycle, traced)
        error = self._timed(vop, _verify, received, log)
        if error is not None:
            vop.error = error
            vop.ok = not error
        if traced:
            self.traced_rounds[group] = {
                "mechanism": mech,
                "commitments": len(report.ledger.commitments),
                "events": len(report.ledger.events),
                "log_bytes": len(log.encode()),
            }
            self._pending_counts.append((group, report))

    def mc_block(self, cycle: int, traced: bool) -> None:
        group = f"mc{cycle}"
        scenario = self.workload.scenario
        rounds = self.workload.spec.mc_rounds
        seed = self.workload.mc_seed(cycle)
        estimators = [("payment_mc", ()), ("saving_mc", ())]
        estimators += [("equilibrium_check", (d,)) for d in DEVIATIONS]
        for name, extra in estimators:
            label = f"{name}[{extra[0].name}]" if extra else name
            op = Op("mc", label, group, cycle, traced)
            # looked up at call time, so an installed tracer's wrapper runs
            est = self._timed(op, getattr(inc, name), scenario, *extra, rounds=rounds, master_seed=seed)
            if est is None:
                continue
            if not math.isfinite(est.mean) or est.rounds != rounds:
                op.error = f"estimate {est} is not finite or has the wrong round count"
            elif name == "payment_mc" and not est.within(float(scenario.alpha)):
                op.error = f"payment {est.mean} above alpha {float(scenario.alpha)} + 3 SE"
            elif name == "equilibrium_check" and est.verdict() != "StrictlyPositive":
                op.error = f"deviation {extra[0].name} verdict {est.verdict()}"
            op.ok = not op.error
            op.work = est.rounds
            self.result.digests[f"{group}/{label}"] = sha256_text(repr((est.mean, est.std_error, est.rounds)))
        if traced:
            self.traced_mc.append(group)

    def cycle(self, cycle: int, traced: bool) -> None:
        if traced:
            self.tracer.install()
        try:
            per_cycle = len(self.workload.spec.cycle)
            for k in range(per_cycle):
                self.round_and_verify(cycle, cycle * per_cycle + k, traced)
            self.mc_block(cycle, traced)
        finally:
            if traced:
                self.tracer.uninstall()
        # work counts re-run the sampler, so they wait until the tracer is out
        for group, report in self._pending_counts:
            matrix = report.ledger.revealed_matrix()
            self.traced_rounds[group].update(work_counts(matrix, report.config.mechanism, report.config.peer_mode))
        self._pending_counts.clear()


def _median_of(ops: list[Op]) -> float | None:
    return median(op.norm for op in ops) if ops else None


def _end_to_end(result: RunResult, ops: list[Op]) -> None:
    good = [op for op in ops if op.ok and not op.traced]
    for kind in ("round", "verify"):
        for m in MECH_NAMES:
            sel = [op for op in good if op.kind == kind and op.label == m]
            name = f"{kind}_{m}_p50_s"
            result.metrics[name] = (_median_of(sel), "s")
            result.samples[name] = len(sel)
    rounds = [op for op in good if op.kind == "round"]
    mc = [op for op in good if op.kind == "mc"]
    round_wall = sum(op.norm for op in rounds)
    mc_wall = sum(op.norm for op in mc)
    result.metrics["answers_per_s"] = (sum(op.work for op in rounds) / round_wall if round_wall else None, "answers/s")
    result.samples["answers_per_s"] = len(rounds)
    result.metrics["mc_rounds_per_s"] = (sum(op.work for op in mc) / mc_wall if mc_wall else None, "rounds/s")
    result.samples["mc_rounds_per_s"] = len(mc)
    result.metrics["setup_s"] = (median(result.setup_samples), "s")
    result.samples["setup_s"] = len(result.setup_samples)
    result.metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    result.samples["peak_rss_mb"] = 1


def _overhead(ops: list[Op]) -> float:
    """Traced over untraced round+verify time (normalised medians per mechanism), minus 1."""
    def total(traced: bool) -> float:
        out = 0.0
        for kind in ("round", "verify"):
            for m in MECH_NAMES:
                sel = [op for op in ops if op.ok and op.traced is traced and op.kind == kind and op.label == m]
                out += _median_of(sel) or 0.0
        return out

    untraced = total(False)
    return total(True) / untraced - 1 if untraced else 0.0


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    t_start: float | None = None,
    tiny: bool = False,
    pins: dict[int, dict] | None = None,
    log_tamper=None,
    cycles: int | None = None,
    setup_probe=None,
) -> RunResult:
    """Run one workload for about ``seconds`` and compute its metrics.

    ``t_start`` is when the process began importing (set-up starts there).
    ``pins`` maps round index to the facts that round must reproduce.
    ``log_tamper`` edits each round's log before the auditor receives it,
    and ``cycles`` plays exactly that many cycles whatever the clock says;
    only the self-test uses them.  ``setup_probe`` returns one more set-up
    time measured in a fresh interpreter; it is called a few times after
    the measuring window.
    """
    t_start = perf_counter() if t_start is None else t_start
    spec = (TINY_SPECS if tiny else SPECS)[workload]
    result = RunResult(workload, seed, trace)
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        wl = Workload(spec, seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_wall = perf_counter() - t_start

    runner = _Runner(wl, result, pins, log_tamper, tracer)
    setup_ref = runner.speed.warm()
    result.setup_samples.append(normalised(setup_wall, setup_ref))
    # tracing alternates traced and untraced cycles, so it needs two
    min_cycles = 2 if trace else 1
    deadline = perf_counter() + seconds
    cycle = 0
    last = 0.0
    while (cycle < cycles if cycles is not None
           else cycle < min_cycles or perf_counter() + last <= deadline):
        c0 = perf_counter()
        runner.cycle(cycle, traced=trace and cycle % 2 == 0)
        last = perf_counter() - c0
        cycle += 1

    for op in result.ops:
        op.ref = runner.speed.around(op.ref_index)
    if trace:
        group_refs = defaultdict(list)
        for op in result.ops:
            if op.traced:
                group_refs[op.group].append(op.ref)
        factors = {g: NOMINAL_S / median(refs) for g, refs in group_refs.items()}
        factors["setup"] = NOMINAL_S / setup_ref
        result.metrics = tracing.layer_metrics(
            tracer, factors, runner.traced_rounds, runner.traced_mc, _overhead(result.ops))
        result.tracer = tracer
    else:
        for _ in range(SETUP_PROBES if setup_probe else 0):
            result.setup_samples.append(setup_probe())
        _end_to_end(result, result.ops)
    return result


# ---------------------------------------------------------------------------
# environment and reporting
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root: Path, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root / "src" / "peerchain"),
        "workload_seed": seed,
    }


def report_lines(result: RunResult, env: dict) -> list[str]:
    lines = [
        f"workload {result.workload}  seed {result.seed}  trace {int(result.trace)}",
        "env " + "  ".join(f"{k}={v}" for k, v in env.items()),
    ]
    flagged = [op for op in result.ops if op.descheduled]
    refs = [op.ref for op in result.ops]
    if refs:
        lines.append(
            f"speed reference median {1e3 * median(refs):.3f} ms over {len(refs)} operations "
            f"(nominal {1e3 * NOMINAL_S:.1f} ms); times below are at the nominal speed"
        )
    lines.append(
        f"operations {result.attempted} attempted, {result.failed} failed "
        f"(failed_frac {result.failed_frac:.4f} ratio); {len(flagged)} with cpu/wall < "
        f"{DESCHEDULED_CPU_SHARE} (descheduled); {result.pinned_checked} rounds checked against pins"
    )
    if result.tracer is not None and result.tracer.missing:
        lines.append("not traced, attribute gone: " + ", ".join(result.tracer.missing))
    for op in result.ops:
        if not op.ok:
            lines.append(f"FAILED {op.kind} {op.label} {op.group}: {op.error}")
    for op in flagged:
        lines.append(f"descheduled {op.kind} {op.label} {op.group}: wall {op.wall:.4f} s, cpu {op.cpu:.4f} s")
    for name, (value, unit) in result.metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        n = result.samples.get(name)
        lines.append(f"{name:34s} {shown:>14s} {unit}" + (f"  (n={n})" if n is not None else ""))
    return lines


def write_outputs(result: RunResult, env: dict, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{result.workload}-seed{result.seed}-trace{int(result.trace)}"
    detail = {
        "environment": env,
        "summary": result.summary(),
        "failed_frac": result.failed_frac,
        "samples": result.samples,
        "setup_samples_s": result.setup_samples,
        "pinned_rounds_checked": result.pinned_checked,
        "output_digests": result.digests,
        "operations": [
            {"kind": op.kind, "label": op.label, "group": op.group, "cycle": op.cycle,
             "traced": op.traced, "wall_s": op.wall, "cpu_s": op.cpu, "reference_s": op.ref,
             "normalised_s": op.norm, "ok": op.ok,
             "error": op.error, "descheduled": op.descheduled}
            for op in result.ops
        ],
    }
    path = out_dir / f"{stem}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n")
    if result.tracer is not None:
        result.tracer.write(out_dir / f"{stem}-spans.csv.gz")
    return path
