"""Spans around the calls one peerchain layer makes into the next.

While installed, a `Tracer` replaces the module and class attributes
through which the layers call each other with wrappers that record one
span per call: name, start, end, parent span and group.  A group is one
round together with its verification, one cycle's Monte-Carlo block, or
the set-up.  Spans stay in memory until the run writes them out.

The wrappers call the original function with the original arguments and
return its result unchanged, so traced rounds produce the same outputs as
untraced ones (the self-test checks this).  `Ledger.agent_batches` is not
wrapped: `submit_commitment` calls it once per registered agent on every
commit, and a span per call would cost more than the call itself.
"""

from __future__ import annotations

import functools
import gzip
from collections import defaultdict
from statistics import median
from time import perf_counter

from peerchain import commitment, incentives, ledger, mechanisms, sim

# (owner, attribute, span name, argument counted by the span or None)
BOUNDARIES = (
    (ledger, "compute_rewards", "mechanisms.compute_rewards", None),
    (ledger, "charge_settlement_compute", "gas_model.charge_settlement_compute", None),
    (mechanisms, "sample_peers", "peer_selection.sample_peers", 1),   # k: one draw per peer
    (commitment, "keccak256", "keccak.keccak256", None),
    (commitment, "commit", "commitment.commit", None),
    (commitment, "verify_reveal", "commitment.verify_reveal", None),
    (ledger.Ledger, "post_questions", "ledger.post_questions", None),
    (ledger.Ledger, "select_questions", "ledger.select_questions", None),
    (ledger.Ledger, "tick", "ledger.tick", None),
    (ledger.Ledger, "submit_commitment", "ledger.submit_commitment", None),
    (ledger.Ledger, "reveal", "ledger.reveal", None),
    (ledger.Ledger, "revealed_matrix", "ledger.revealed_matrix", None),
    (ledger.Ledger, "settle", "ledger.settle", None),
    (ledger.Ledger, "load", "ledger.load", None),
    (ledger.Ledger, "audit", "ledger.audit", None),
    (sim, "binarize", "sim.binarize", None),
    (sim, "generate_reports", "sim.generate_reports", None),
    (incentives, "calibrate_world", "incentives.calibrate_world", None),
    (incentives.GenerativeWorld, "sample_observations", "incentives.sample_observations", None),
    (incentives, "payment_mc", "incentives.payment_mc", None),
    (incentives, "saving_mc", "incentives.saving_mc", None),
    (incentives, "equilibrium_check", "incentives.equilibrium_check", None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, start, end, parent index or -1, group)
        self.spans: list[tuple | None] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.group = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []   # boundaries whose attribute no longer exists

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((self._name_id(name), perf_counter(), None, self._stack[-1] if self._stack else -1, self.group))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        end = perf_counter()
        self._stack.pop()
        nid, start, _, parent, group = self.spans[idx]
        self.spans[idx] = (nid, start, end, parent, group)

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn under a span opened by the benchmark itself."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, counted_arg: int | None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counted_arg is not None:
                tracer.counts[(tracer.group, name)] += args[counted_arg]
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for owner, attr, name, counted in BOUNDARIES:
            raw = owner.__dict__.get(attr)
            if raw is None:
                # the program no longer calls through this attribute; its
                # metrics read 0 and the report names it
                self.missing.append(name)
                continue
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(name, raw.__func__, counted)))
            else:
                setattr(owner, attr, self._wrap(name, raw, counted))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- aggregation ----------------------------------------------------------

    def group_totals(self, factors: dict[str, float]) -> dict[str, dict[str, list[float]]]:
        """group -> span name -> [calls, total duration, total self time].

        Times are multiplied by the group's speed factor (see speed.py).
        """
        child_time = [0.0] * len(self.spans)
        for nid, start, end, parent, _group in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        verify_id = self._name_ids.get("commitment.verify_reveal", -1)
        for idx, (nid, start, end, parent, group) in enumerate(self.spans):
            name = self.names[nid]
            if name == "commitment.commit" and parent >= 0 and self.spans[parent][0] == verify_id:
                name = "commitment.commit(verify)"
            f = factors.get(group, 1.0)
            entry = totals[group][name]
            entry[0] += 1
            entry[1] += f * (end - start)
            entry[2] += f * (end - start - child_time[idx])
        return totals

    def durations(self, name: str, factors: dict[str, float]) -> list[float]:
        nid = self._name_ids.get(name)
        return [factors.get(g, 1.0) * (end - start) for n, start, end, _p, g in self.spans if n == nid]

    def write(self, path) -> None:
        """Spans as gzip CSV: index,name,start,end,parent,group."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent,group\n")
            for idx, (nid, start, end, parent, group) in enumerate(self.spans):
                fh.write(f"{idx},{self.names[nid]},{start:.9f},{end:.9f},{parent},{group}\n")


def _med(values) -> float:
    values = list(values)
    return median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer, factors: dict[str, float], rounds: dict[str, dict], mc_groups: list[str], overhead_frac: float,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of traced cycles.

    ``rounds`` maps each traced round's group to its facts: mechanism,
    commitments, events, log bytes and the computed work counts.  Times
    and counts are medians per group (a round with its verification, or a
    cycle's Monte-Carlo block); per-unit figures are ratios of totals.
    Times are scaled by each group's speed factor in ``factors``.
    """
    totals = tracer.group_totals(factors)

    def calls(group, name):
        return totals[group][name][0] if name in totals[group] else 0

    def dur(group, *names):
        return sum(totals[group][n][1] for n in names if n in totals[group])

    def self_time(group, name):
        return totals[group][name][2] if name in totals[group] else 0.0

    groups = list(rounds)
    by_mech = defaultdict(list)
    for g, facts in rounds.items():
        by_mech[facts["mechanism"]].append(g)
    settles = {g: calls(g, "ledger.settle") for g in groups}
    kernel = {g: dur(g, "mechanisms.compute_rewards") for g in groups}
    hashes = {g: calls(g, "keccak.keccak256") for g in groups}
    sample_calls = {g: calls(g, "peer_selection.sample_peers") for g in groups}
    cells = {g: rounds[g]["cells_scored"] for g in groups}
    out = {
        "mechanisms.kernel_oa_s": (_med(kernel[g] for g in by_mech["oa"]), "s"),
        "mechanisms.kernel_ptsc_s": (_med(kernel[g] for g in by_mech["ptsc"]), "s"),
        "mechanisms.kernel_dg_s": (_med(kernel[g] for g in by_mech["dg"]), "s"),
        "mechanisms.matrix_build_s": (_med(dur(g, "ledger.revealed_matrix") for g in groups), "s"),
        "mechanisms.cells_scored": (_med(cells.values()), "count"),
        "mechanisms.peer_visits": (_med(rounds[g]["peer_visits"] for g in groups), "count"),
        "mechanisms.dg_pairs": (_med(rounds[g]["dg_pairs"] for g in by_mech["dg"]), "count"),
        "mechanisms.ns_per_peer_visit": (
            1e9 * _ratio(sum(kernel.values()), sum(rounds[g]["peer_visits"] * settles[g] for g in groups)), "ns"),
        "peer_selection.sample_s": (_med(dur(g, "peer_selection.sample_peers") for g in groups), "s"),
        "peer_selection.sample_calls": (_med(sample_calls.values()), "count"),
        "peer_selection.draws": (_med(tracer.counts[(g, "peer_selection.sample_peers")] for g in groups), "count"),
        "peer_selection.calls_per_cell": (
            _ratio(sum(sample_calls.values()), sum(cells[g] * settles[g] for g in groups)), "ratio"),
        "gas_model.price_s": (_med(self_time(g, "gas_model.charge_settlement_compute") for g in groups), "s"),
        "keccak.hashes": (_med(hashes.values()), "count"),
        "keccak.hash_s": (_med(dur(g, "keccak.keccak256") for g in groups), "s"),
        "keccak.us_per_hash": (
            1e6 * _ratio(sum(dur(g, "keccak.keccak256") for g in groups), sum(hashes.values())), "us"),
        "commitment.commit_s": (_med(dur(g, "commitment.commit") for g in groups), "s"),
        "commitment.verify_s": (_med(dur(g, "commitment.verify_reveal") for g in groups), "s"),
        "commitment.hashes_per_batch": (
            _ratio(sum(hashes.values()), sum(rounds[g]["commitments"] for g in groups)), "ratio"),
        "ledger.commit_s": (_med(dur(g, "ledger.submit_commitment") for g in groups), "s"),
        "ledger.reveal_self_s": (_med(self_time(g, "ledger.reveal") for g in groups), "s"),
        "ledger.settle_self_s": (_med(self_time(g, "ledger.settle") for g in groups), "s"),
        "ledger.load_s": (_med(dur(g, "ledger.load") for g in groups), "s"),
        "ledger.audit_s": (_med(dur(g, "ledger.audit") for g in groups), "s"),
        "ledger.events": (_med(rounds[g]["events"] for g in groups), "count"),
        "ledger.log_bytes": (_med(rounds[g]["log_bytes"] for g in groups), "bytes"),
        "sim.reports_s": (_med(dur(g, "sim.binarize", "sim.generate_reports") for g in groups), "s"),
        "incentives.calibrate_s": (_med(tracer.durations("incentives.calibrate_world", factors)), "s"),
        "incentives.sample_s": (_med(dur(g, "incentives.sample_observations") for g in mc_groups), "s"),
        "incentives.payment_s": (_med(dur(g, "incentives.payment_mc") for g in mc_groups), "s"),
        "incentives.saving_s": (_med(dur(g, "incentives.saving_mc") for g in mc_groups), "s"),
        "incentives.equilibrium_s": (_med(dur(g, "incentives.equilibrium_check") for g in mc_groups), "s"),
        "incentives.chunks": (_med(calls(g, "incentives.sample_observations") for g in mc_groups), "count"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
    return out
