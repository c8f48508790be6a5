import itertools

import numpy as np
import pytest

from gridmc import simnet as sn


def make_bus(n=2):
    return sn.MessageBus({frozenset((a, a + 1)) for a in range(1, n)})


class TestMessageBus:
    def test_two_node_echo(self):
        """A value sent in round k arrives in round k+1 and nowhere earlier,
        as the array that was sent."""
        bus = make_bus(2)
        sent = np.array([1.5, -2.0])
        received = {}

        def node1(inbox):
            return None, [(2, "ping", sent)]

        def node2(inbox):
            received.update(inbox)
            return None, []

        bus.run_round({1: node1, 2: node2})
        assert received == {}
        bus.run_round({1: lambda i: (None, []), 2: node2})
        assert received[(1, "ping")] is sent

    def test_non_neighbor_send_rejected(self):
        bus = make_bus(3)  # chain 1-2-3: areas 1 and 3 are not adjacent

        def node1(inbox):
            return None, [(3, "x", np.zeros(1))]

        nodes = {a: (lambda i: (None, [])) for a in (2, 3)}
        nodes[1] = node1
        with pytest.raises(sn.ProtocolViolationError):
            bus.run_round(nodes)

    def test_self_send_rejected(self):
        bus = make_bus(2)

        def node1(inbox):
            return None, [(1, "x", np.zeros(1))]

        with pytest.raises(sn.ProtocolViolationError):
            bus.run_round({1: node1, 2: lambda i: (None, [])})

    def test_refused_round_leaves_the_bus_unchanged(self):
        """A round with one send off the area graph delivers and counts
        nothing, not even a valid send staged before it: the ledger, the
        round index and the inbox the next round reads stay as they were."""
        bus = make_bus(3)  # chain 1-2-3: areas 1 and 3 are not adjacent
        sent = np.array([1.5, -2.0])

        def quiet(inbox):
            return None, []

        def send(dest, tag, payload):
            return lambda inbox: (None, [(dest, tag, payload)])

        bus.run_round({1: send(2, "a", sent), 2: quiet, 3: quiet})
        counts, round_index = dict(bus.ledger.counts), bus.round_index
        nodes = {1: send(2, "b", np.ones(3)), 2: quiet, 3: send(1, "b", np.ones(4))}
        with pytest.raises(sn.ProtocolViolationError,
                           match="area 3 may not message non-neighbor area 1"):
            bus.run_round(nodes, order=[1, 2, 3])
        assert bus.ledger.counts == counts and bus.round_index == round_index

        inboxes = {}

        def record(area):
            def node(inbox):
                inboxes[area] = dict(inbox)
                return None, []
            return node

        bus.run_round({a: record(a) for a in (1, 2, 3)})
        assert inboxes[1] == {} and inboxes[3] == {}
        assert list(inboxes[2]) == [(1, "a")] and inboxes[2][(1, "a")] is sent

    def test_bad_order_rejected(self):
        bus = make_bus(2)
        nodes = {a: (lambda i: (None, [])) for a in (1, 2)}
        with pytest.raises(sn.ProtocolViolationError):
            bus.run_round(nodes, order=[1, 1])

    def test_order_independence_on_ring(self):
        """Ten random execution orders on a 5-node ring produce bitwise
        identical node outputs over several gossip rounds."""
        areas = [1, 2, 3, 4, 5]
        ring = {frozenset((a, a % 5 + 1)) for a in areas}

        def run(orders):
            bus = sn.MessageBus(ring)
            state = {a: float(a) for a in areas}

            def make_node(a):
                def node(inbox):
                    for (_, _), payload in sorted(inbox.items()):
                        state[a] = 0.5 * state[a] + 0.25 * payload[0]
                    sends = [(d, "g", np.array([state[a]]))
                             for d in (a % 5 + 1, (a - 2) % 5 + 1)]
                    return state[a], sends

                return node

            nodes = {a: make_node(a) for a in areas}
            outs = []
            for order in orders:
                outs.append(bus.run_round(nodes, order=order))
            return outs

        rng = np.random.default_rng(9)
        baseline = run([areas] * 6)
        for _ in range(10):
            orders = [list(rng.permutation(areas)) for _ in range(6)]
            assert run(orders) == baseline


class TestCommLedger:
    def _run_traffic(self):
        bus = make_bus(2)

        def node1(inbox):
            return None, [(2, "a", np.zeros(3)), (2, "b", np.zeros(5))]

        def node2(inbox):
            return None, [(1, "a", np.zeros(2))]

        nodes = {1: node1, 2: node2}
        bus.run_round(nodes)
        bus.run_round(nodes)
        return bus

    def test_counts_by_round_and_tag(self):
        """`counts` keeps each (pair, round, tag) volume, both directions of
        a pair under one key."""
        bus = self._run_traffic()
        pair = frozenset({1, 2})
        assert bus.ledger.counts == {(pair, k, "a"): 5 for k in (0, 1)} | {
            (pair, k, "b"): 5 for k in (0, 1)}


class TestFormulas:
    def test_claimed_count(self):
        # documented example: m=25, r=5, n_l=40, n_j=60
        assert sn.paper_comm_formula(40, 60, 25, 5) == 225

    def test_protocol_count(self):
        # m=25 means 5 time steps: 2*25*5 + 2*5*(120+180) at the full
        # residual ranks 3n_l and 3n_j of n_l=40, n_j=60
        assert sn.protocol_comm_formula(25, 5, 120, 180) == 250 + 3000

    def test_protocol_count_with_coupling_ranks(self):
        # flow and q terms carry T reals per coupling rank and direction;
        # a pair whose coupling has rank 0 sends only the basis factors
        assert sn.protocol_comm_formula(25, 5, 2, 3) == 250 + 50
        assert sn.protocol_comm_formula(25, 5, 0, 0) == 250

    def test_protocol_count_requires_block_rows(self):
        with pytest.raises(ValueError):
            sn.protocol_comm_formula(13, 2, 1, 1)
