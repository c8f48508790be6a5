"""Deterministic in-process message bus with bulk-synchronous rounds and a
per-edge communication-volume ledger.

Nodes are closures invoked once per round with the messages delivered to them
from the previous round; every send of round k is delivered before any node
observes round k+1.  Outputs are therefore independent of the order in which
node closures run within a round.  The bus delivers each payload array as it
was sent; the ledger counts one unit per array entry.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np


class ProtocolViolationError(Exception):
    pass


class Message(NamedTuple):
    dest: int
    tag: str
    payload: np.ndarray


# Inbox maps (source area, tag) -> payload.
NodeFn = Callable[[Mapping[tuple[int, str], np.ndarray]], tuple[Any, list[Message]]]


@dataclass
class CommLedger:
    """Payload entry counts per (area pair, round, tag)."""

    counts: dict[tuple[frozenset[int], int, str], int] = field(default_factory=dict)

    def count(self, pair: Iterable[int], rounds: Iterable[int]) -> int:
        """Units the pair exchanged over `rounds`, summed over every tag."""
        pair, rounds = frozenset(pair), set(rounds)
        return sum(units for (p, r, _), units in self.counts.items()
                   if p == pair and r in rounds)

    def pairs(self) -> set[frozenset[int]]:
        return {p for (p, _, _) in self.counts}


class MessageBus:
    """Bulk-synchronous bus over a fixed area adjacency graph."""

    def __init__(self, adjacency: Iterable[frozenset[int]]):
        self.ledger = CommLedger()
        self.round_index = 0
        self._pending: dict[int, dict[tuple[int, str], np.ndarray]] = defaultdict(dict)
        # (src, dest) -> ledger key of the edge, both ways: the bus's one graph
        self._edges: dict[tuple[int, int], frozenset[int]] = {}
        for pair in map(frozenset, adjacency):
            if len(pair) == 2:
                a, b = pair
                self._edges[a, b] = self._edges[b, a] = pair

    def run_round(
        self,
        nodes: Mapping[int, NodeFn],
        order: Sequence[int] | None = None,
    ) -> dict[int, Any]:
        """Run every node once against the previous round's inbox.

        Each send is checked against the edge table as its node returns;
        nothing is delivered or counted until every node has run, so a
        refused round leaves the bus as it was.  ``order`` only permutes execution.
        """
        schedule = list(order) if order is not None else list(nodes)
        if sorted(schedule) != sorted(nodes):
            raise ProtocolViolationError("order must be a permutation of the node ids")
        outputs: dict[int, Any] = {}
        staged: list[tuple[int, frozenset[int], Message]] = []
        for area in schedule:
            inbox = self._pending.get(area, {})
            out, sends = nodes[area](inbox)
            outputs[area] = out
            for msg in sends:
                pair = self._edges.get((area, msg.dest))
                if pair is None:
                    raise ProtocolViolationError(
                        f"area {area} may not message non-neighbor area {msg.dest}")
                staged.append((area, pair, msg))
        self._pending = defaultdict(dict)
        counts = self.ledger.counts
        for src, pair, msg in staged:
            key = (pair, self.round_index, msg.tag)
            counts[key] = counts.get(key, 0) + msg.payload.size
            self._pending[msg.dest][(src, msg.tag)] = msg.payload
        self.round_index += 1
        return outputs


def paper_comm_formula(n_l: int, n_j: int, m: int, r: int) -> int:
    """Per-pair per-iteration count claimed in the source analysis."""
    return n_l + n_j + m * r


def protocol_comm_formula(m: int, r: int, rank_lj: int, rank_jl: int) -> int:
    """Exact per-pair per-ADMM-iteration real-number count of the implemented
    protocol (m = 5T): the basis factor each way (2mr), plus the flow term
    and the flow pull point of each direction, T * rank reals each.

    rank_lj is the rank of the per-step coupling block from area j into the
    residual of area l (`AreaMaps.coupling_rank(l, j)`), rank_jl the
    reverse."""
    if m % 5 != 0:
        raise ValueError("m must be 5T")
    t_steps = m // 5
    return 2 * m * r + 2 * t_steps * (rank_lj + rank_jl)

