"""Deterministic gas accounting for the simulated contract.

Gas is assigned by a configurable table of per-operation costs, not by
instrumenting host code.  The ledger charges each posting, selection,
commit and reveal event from the table (its module docstring lists the
words), so packing shows as fewer commit and reveal events; this module
prices settlement compute.  Only the ordering of the table entries
matters for the cost trends; the shipped defaults follow Ethereum
yellow-paper-era constants so desk numbers are comparable across
implementations.

Every charge is one `GasBundle`: the (op kind, words) pairs an event
charges, in charge order, checked once when the bundle is built.  The
ledger's commit and reveal bundles are built once, at import, and
`charge_settlement_compute` charges its whole pattern as one bundle.
`GasLedger` stores only how many times each (phase, party, bundle) was
charged; every gas figure it reports is derived from those counts as
words x the table's cost, and `GasTable.cost` answers only for the
table's own entries.  A read of `per_phase`, `per_party` or `per_agent`
prices each distinct bundle once.  The report rows expand the
counts per (phase, party, op kind), bundles in first-charge order: a key
is first charged by the first bundle holding it, so each row sits where
its key was first charged, as if every op kind had been charged on its
own.

`charge_settlement_compute` prices the cells the reward paths score, read
from the `mechanisms.PeerVisits` that `mechanisms.peer_visits` builds:
C cells (answered cells with at least one peer) and V peer visits over
them from its per-cell peer counts, and the distinct DG pairs those
visits use, with both agents' answer counts, from its per-pair visit
counts.  Only the sampling charges ask for the peer mode; the pool sizes
they price come from the per-question answerer counts.  The function
builds its own `PeerVisits` because its signature takes the matrix, not
the kernel's visits, so in sampled mode every cell's `sample_peers` call
is made a second time; the draw is a pure function of the seed and the
cell, so it picks the peers the mechanism scored.  On a settle of at
most `DRAW_MEMO_SIZE` cells every second draw is a hit in the sampler's
memo (`peer_selection`), which still holds the kernel's one batch, so a
cell costs one `sample_peers` call that copies its positions (about 1 us
at k = 10), not k draws; a larger settle draws each batch again.  Only DG
pricing reads the per-pair counts (`PeerVisits.visited`), so OA and PTSC
pricing never count them.  Passing the kernel's `PeerVisits` in instead
("draw once") would halve the sampler calls that the round benchmark
counts, so it is left to a change of that benchmark.

Cost patterns (T total answers, n_q answerers on question q, t_i answers
by agent i):

optimized paths
  prelude (all mechanisms): read every answer once into memory,
      T x (storage_read_word + memory_word), then count per question,
      T x arithmetic_op + 2 per question memory words.
  OA per cell: 4 arithmetic ops (match count from the table, accumulate).
  PTSC: adds per-agent counts (T arithmetic + 2 memory words per agent)
      and global counts; per cell 6 arithmetic + 1 comparison.
  DG: adds one penalty per used pair, (t_i + t_p) comparisons and memory
      words plus 4 memory words and 5 arithmetic; per cell the priced
      contract's peer loop costs (memory_word + arithmetic_op) per peer,
      reading each pair's cached penalty.  This loop is why DG
      settlement exceeds OA and PTSC on the same matrix.
  finalize: 2 arithmetic ops per agent.

sampled peers (replaces the per-cell peer set)
  per cell: candidate pool copy (n_q - 1 memory words), one seed hash
      (hash_base + 3 hash words), exactly k' = min(k, pool) draws at
      5 arithmetic + 3 memory words each.  The table's match counts do
      not cover a sample, so OA and PTSC pay memory_word + comparison_op
      + 2 arithmetic per sampled peer, and OA only 2 arithmetic per cell.
  DG penalties are charged only for distinct pairs actually sampled.

naive paths re-read storage wherever the optimized path reads memory:
  OA per cell scans peers straight from storage; PTSC recomputes R_i(y)
  by scanning all T answers per cell; DG recomputes each pair penalty at
  every use with storage reads, (t_i + t_p) per peer visit.  These
  reproduce the baseline the intermediary-value optimization is measured
  against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .errors import UnknownOpKind, require_ints
from .mechanisms import AllPeers, AnswerMatrix, Mechanism, PeerMode, peer_visits, require_scoring


@dataclass(frozen=True)
class GasTable:
    tx_base: int = 21000
    storage_write_new_word: int = 20000
    storage_write_update_word: int = 5000
    storage_read_word: int = 200
    hash_base: int = 30
    hash_per_word: int = 6
    memory_word: int = 3
    arithmetic_op: int = 5
    comparison_op: int = 3

    def __post_init__(self):
        entries = {f"gas table entry {f.name}": getattr(self, f.name) for f in fields(self)}
        require_ints(**entries)
        for name, v in entries.items():
            if v <= 0:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if not (
            self.storage_write_new_word
            > self.storage_write_update_word
            > self.storage_read_word
            > self.memory_word
        ):
            raise ValueError("gas table must order new-write > update > read > memory word")

    def cost(self, op_kind: str) -> int:
        """The entry named ``op_kind``.  The instance dict holds exactly the
        table's fields, so any other name, a method or dunder name included,
        is UnknownOpKind."""
        try:
            return self.__dict__[op_kind]
        except (KeyError, TypeError):
            raise UnknownOpKind(op_kind) from None

    def gas(self, bundle: GasBundle) -> int:
        """The gas of one charge of ``bundle``: its words x this table's costs."""
        return sum(self.cost(op_kind) * words for op_kind, words in bundle)

    @classmethod
    def from_dict(cls, raw: object) -> "GasTable":
        """The one reader of a gas-table object (a ``--gas-table`` file, a
        genesis ``gas_table``): a missing entry keeps its default."""
        if not isinstance(raw, dict):
            raise ValueError(f"gas table must be a JSON object, got {type(raw).__name__}")
        unknown = raw.keys() - cls.__dataclass_fields__.keys()
        if unknown:
            raise UnknownOpKind(", ".join(sorted(unknown)))
        return cls(**raw)

    @classmethod
    def load(cls, path) -> "GasTable":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


DEFAULT_GAS_TABLE = GasTable()


_OP_KINDS = frozenset(f.name for f in fields(GasTable))


class GasBundle(tuple):
    """The words one event charges: (op kind, words) pairs in charge order.

    Built once and checked here: an op kind that is not a `GasTable` field
    is UnknownOpKind, and a word count that is not a nonnegative Python int
    is ValueError.  An op kind may appear more than once; its words add.
    """

    __slots__ = ()

    def __new__(cls, pairs) -> GasBundle:
        bundle = super().__new__(cls, pairs)
        if not bundle:
            raise ValueError("a gas bundle charges at least one op kind")
        for pair in bundle:
            if type(pair) is not tuple or len(pair) != 2:
                raise ValueError(f"a gas bundle holds (op kind, words) pairs, got {pair!r}")
            op_kind, words = pair
            if not isinstance(op_kind, str) or op_kind not in _OP_KINDS:
                raise UnknownOpKind(op_kind)
            if type(words) is not int or words < 0:
                raise ValueError(f"word count must be a nonnegative int, got {words!r}")
        return bundle


class GasLedger:
    """Itemized gas charges: how many times each (phase, party, bundle) was
    charged, in first-charge order; words and gas are derived when read.

    ``party`` is an agent id or the literal string "requester"; the
    per-agent view excludes the requester so that
    sum(per_phase) = sum(per_party) = sum(per_agent) + requester gas.
    """

    REQUESTER = "requester"

    def __init__(self, table: GasTable | None = None):
        self.table = table or DEFAULT_GAS_TABLE
        self._counts: dict[tuple[str, str, GasBundle], int] = {}

    def charge(self, phase: str, party: str, bundle: GasBundle) -> None:
        """Charge ``party`` every pair of ``bundle`` in ``phase``: one count."""
        if type(bundle) is not GasBundle:
            raise ValueError(f"a charge takes a GasBundle, got {type(bundle).__name__}")
        key = (phase, party, bundle)
        self._counts[key] = self._counts.get(key, 0) + 1

    def report_rows(self) -> list[tuple[str, str, str, int, int]]:
        """Rows for the gas report CSV: phase, party, op_kind, words, gas,
        in the order each (phase, party, op kind) was first charged."""
        words: dict[tuple[str, str, str], int] = {}
        for (phase, party, bundle), count in self._counts.items():
            for op_kind, w in bundle:
                key = (phase, party, op_kind)
                words[key] = words.get(key, 0) + count * w
        cost = self.table.cost
        return [(phase, party, op_kind, w, cost(op_kind) * w) for (phase, party, op_kind), w in words.items()]

    def _gas_by(self, column: int) -> dict[str, int]:
        """Gas per phase (column 0) or per party (column 1), pricing each
        distinct bundle once."""
        price: dict[GasBundle, int] = {}
        out: dict[str, int] = {}
        for key, count in self._counts.items():
            gas = price.get(key[2])
            if gas is None:
                gas = price[key[2]] = self.table.gas(key[2])
            out[key[column]] = out.get(key[column], 0) + count * gas
        return out

    @property
    def per_phase(self) -> dict[str, int]:
        return self._gas_by(0)

    @property
    def per_party(self) -> dict[str, int]:
        return self._gas_by(1)

    @property
    def per_agent(self) -> dict[str, int]:
        out = self.per_party
        out.pop(self.REQUESTER, None)
        return out


# ---------------------------------------------------------------------------
# settlement compute costs (Figs. 2b-2d)
# ---------------------------------------------------------------------------

def charge_settlement_compute(
    gas: GasLedger,
    matrix: AnswerMatrix,
    mechanism: Mechanism,
    peer_mode: PeerMode,
    optimized: bool = True,
) -> int:
    """Charge the reward-computation pattern documented in the module
    docstring to the requester's settle phase, as one bundle.  Returns the
    gas added."""
    require_scoring(mechanism, peer_mode)  # before the first charge

    pairs: list[tuple[str, int]] = []

    def charge(op_kind: str, words: int) -> None:
        pairs.append((op_kind, words))

    sampled = not isinstance(peer_mode, AllPeers)

    T = matrix.total_answers
    n_agents = len(matrix.agents)
    n_questions = len(matrix.questions)
    per_agent = matrix.answered.sum(axis=1)
    # a cell's candidate pool is the other answerers of its question
    n_q = matrix.answerers_per_question
    pool_words = int((n_q * (n_q - 1)).sum())

    scored = peer_visits(matrix, peer_mode)
    cells = int(np.count_nonzero(scored.peers))
    visits = int(scored.peers.sum())
    # n_pairs and pair_scan: the distinct DG pairs used and the sum of both
    # agents' answer counts over them; scan: that sum over every peer visit
    n_pairs = pair_scan = scan = 0
    if mechanism is Mechanism.DG:
        visited = scored.visited()
        used = visited + visited.T
        both = per_agent[:, None] + per_agent[None, :]
        n_pairs = int(np.count_nonzero(used)) // 2
        pair_scan = int(both[used > 0].sum()) // 2
        scan = int((visited * both).sum())

    if optimized:
        # prelude: cache answers, count per question
        charge("storage_read_word", T)
        charge("memory_word", T)
        charge("arithmetic_op", T)
        charge("memory_word", 2 * n_questions)

    if sampled:
        # per-cell sampling: pool copy, seed hash, one draw per peer kept;
        # the per-question counts do not cover a sample, so optimized OA
        # and PTSC scan the drawn peers' answers
        charge("memory_word", pool_words)
        charge("hash_base", cells)
        charge("hash_per_word", 3 * cells)
        charge("arithmetic_op", 5 * visits)
        charge("memory_word", 3 * visits)
        if optimized and mechanism is not Mechanism.DG:
            charge("memory_word", visits)
            charge("comparison_op", visits)
            charge("arithmetic_op", 2 * visits)
    elif optimized and mechanism is Mechanism.OA:
        # all-peers OA reads each cell's match count from the counts
        charge("arithmetic_op", 2 * cells)

    if mechanism is Mechanism.OA:
        if optimized:
            charge("arithmetic_op", 2 * cells)  # accumulate
        else:
            # scan each peer's answer from storage, compare, accumulate
            charge("storage_read_word", visits + cells)
            charge("comparison_op", visits)
            charge("arithmetic_op", 2 * visits + 2 * cells)

    elif mechanism is Mechanism.PTSC:
        if optimized:
            charge("arithmetic_op", T + 2 * n_agents)
            charge("memory_word", 2 * n_agents)
            charge("arithmetic_op", 6 * cells)
            charge("comparison_op", cells)
        else:
            # R_i(y) recomputed per cell by scanning all answers from storage
            charge("storage_read_word", T * cells)
            charge("arithmetic_op", T * cells + 6 * cells)
            charge("storage_read_word", visits + cells)
            charge("comparison_op", visits + cells)
            charge("arithmetic_op", 2 * visits)

    else:  # DG
        if optimized:
            charge("comparison_op", pair_scan)
            charge("memory_word", pair_scan + 4 * n_pairs)
            charge("arithmetic_op", 5 * n_pairs)
            # peer loop: match + cached-penalty read per peer
            charge("memory_word", visits)
            charge("comparison_op", visits)
            charge("arithmetic_op", 2 * visits + 2 * cells)
        else:
            # penalty recomputed per use: storage scan of both agents' rows
            charge("storage_read_word", scan)
            charge("comparison_op", scan)
            charge("storage_read_word", visits + cells)
            charge("comparison_op", visits)
            charge("arithmetic_op", 2 * visits + 2 * cells)

    # per-agent averaging
    charge("arithmetic_op", 2 * n_agents)
    bundle = GasBundle(pairs)
    gas.charge("settle", GasLedger.REQUESTER, bundle)
    return gas.table.gas(bundle)
