"""A naive PDA/MPDA oracle, and a lockstep that checks production against it.

:class:`OraclePDA` and :class:`OracleMPDA` follow the paper's Figs. 1-4
as written and take none of the production core's shortcuts.  Topology
tables are plain ``{(head, tail): cost}`` dicts.  A textbook Dijkstra
with the lower-address tie rule runs on every NTU and every MTU.
Feasible distances and successor sets are recomputed in full after
every event.  There are no snapshots, no carried MTU state and no dirty
flags.  The oracle shares only the wire types of
:mod:`repro.core.linkstate` with :mod:`repro.core.pda` and
:mod:`repro.core.mpda`.

:class:`Lockstep` runs a production :class:`~repro.core.driver.
ProtocolDriver` and an oracle one on the same events, seed and
transport profile.  After every delivery it compares the two receiving
routers; at every quiescence it compares all routers and the message
counts.  The first difference raises :class:`Divergence`, naming the
delivery, the router and the field.  :func:`lockstep_case` replays a
fuzz case through a lockstep.

Run a check from the repository root, for example::

    PYTHONPATH=src python -c "from repro.core.mpda import MPDARouter; \\
    from repro.testing.fuzz import generate_case; \\
    from repro.testing.oracle import lockstep_case; \\
    lockstep_case(generate_case(3, reliable=False), MPDARouter)"
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque

from repro.core.driver import ProtocolDriver
from repro.core.linkstate import INFINITY, EntryOp, LinkEntry, LSUMessage
from repro.testing.fuzz import FuzzCase, build_topology, play


def shortest_distances(links, root, nodes) -> dict:
    """Dijkstra from ``root`` over ``{(head, tail): cost}`` links.

    Every node of ``nodes`` gets a distance, infinity when unreachable.
    """
    out: dict = {}
    for (head, tail), cost in links.items():
        out.setdefault(head, []).append((tail, cost))
    dist = dict.fromkeys(nodes, INFINITY)
    dist[root] = 0.0
    order = itertools.count()
    heap = [(0.0, next(order), root)]
    while heap:
        d, _, node = heapq.heappop(heap)
        if d > dist[node]:
            continue  # superseded by a shorter path pushed later
        for tail, cost in out.get(node, ()):
            alt = d + cost
            if alt < dist[tail]:
                dist[tail] = alt
                heapq.heappush(heap, (alt, next(order), tail))
    return dist


class OraclePDA:
    """PDA (Figs. 1-3), recomputed from scratch on every event."""

    def __init__(self, node_id) -> None:
        self.node_id = node_id
        self.link_costs: dict = {}  # l_k for every up neighbor k
        self.neighbor_tables: dict = {}  # T_k, as last reported by k
        self.nbr_distances: dict = {}  # D_jk, Dijkstra over T_k from k
        self.main_table: dict = {}  # T_i, this router's shortest-path tree
        self.distances: dict = {}  # D_j
        self.outbox: list = []
        self.lsu_sent = 0
        self.lsu_received = 0
        self.mtu_runs = 0

    # -- events (Fig. 1) ------------------------------------------------
    def link_up(self, k, cost) -> None:
        self.link_costs[k] = cost
        self.neighbor_tables.setdefault(k, {})
        self.nbr_distances.setdefault(k, {k: 0.0})
        self._greet(k)
        self._after_event(None)

    def link_cost_change(self, k, cost) -> None:
        self.link_costs[k] = cost
        self._after_event(None)

    def link_down(self, k) -> None:
        del self.link_costs[k]
        del self.neighbor_tables[k]
        del self.nbr_distances[k]
        self._after_event(None)

    def receive(self, message: LSUMessage) -> None:
        self.lsu_received += 1
        if message.sender not in self.link_costs:
            return
        self._ntu(message)
        self._after_event(message.sender)

    def _after_event(self, sender) -> None:
        changes = self._mtu()
        if changes:
            self._flood(changes)

    # -- NTU (Fig. 2) ---------------------------------------------------
    def _greet(self, k) -> bool:
        """Step 2: send a new neighbor the whole main table."""
        if not self.main_table:
            return False
        dump = tuple(
            LinkEntry(EntryOp.ADD, head, tail, cost)
            for (head, tail), cost in self.main_table.items()
        )
        self._send(k, LSUMessage(self.node_id, dump))
        return True

    def _ntu(self, message: LSUMessage) -> None:
        """Step 1: apply the entries to T_k, then recompute D_jk."""
        k = message.sender
        table = self.neighbor_tables[k]
        for entry in message.entries:
            if entry.op is EntryOp.DELETE:
                table.pop((entry.head, entry.tail), None)
            else:
                table[(entry.head, entry.tail)] = entry.cost
        nodes = {k, *itertools.chain.from_iterable(table)}
        self.nbr_distances[k] = shortest_distances(table, k, nodes)

    # -- MTU (Fig. 3) ---------------------------------------------------
    def _mtu(self) -> tuple:
        """Merge the neighbor tables, keep the tree, return the diff."""
        self.mtu_runs += 1
        me = self.node_id
        universe = {me, *self.link_costs}
        for table in self.neighbor_tables.values():
            universe.update(itertools.chain.from_iterable(table))
        # j's preferred neighbor minimizes D_jk + l_k; scanning in address
        # order with a strict < leaves ties with the lower address.
        rows = [
            (k, self.nbr_distances[k], self.link_costs[k])
            for k in sorted(self.link_costs, key=repr)
        ]
        preferred = {}
        for j in universe - {me}:
            best = INFINITY
            for k, row, cost in rows:
                via = row.get(j, INFINITY) + cost
                if via < best:
                    best, preferred[j] = via, k
        # j's outgoing links come from its preferred neighbor's table;
        # adjacent links come from this router's own measurements.
        merged = {}
        for k, table in self.neighbor_tables.items():
            for link, cost in table.items():
                if preferred.get(link[0]) == k:
                    merged[link] = cost
        for k, cost in self.link_costs.items():
            merged[(me, k)] = cost
        self.distances = dist = shortest_distances(merged, me, universe)
        # The tree keeps, for every reachable node, the link from its
        # lower-address predecessor on a shortest path.
        parent: dict = {}
        for (head, tail), cost in merged.items():
            if tail == me or dist[tail] == INFINITY:
                continue
            if dist[head] + cost == dist[tail] and (
                tail not in parent or repr(head) < repr(parent[tail])
            ):
                parent[tail] = head
        tree = {(h, t): merged[(h, t)] for t, h in parent.items()}
        old = self.main_table
        changes = [
            LinkEntry(EntryOp.CHANGE if link in old else EntryOp.ADD, *link, cost)
            for link, cost in tree.items()
            if old.get(link) != cost
        ]
        changes += [
            LinkEntry(EntryOp.DELETE, *link) for link in old if link not in tree
        ]
        self.main_table = tree
        return tuple(changes)

    # -- messages -------------------------------------------------------
    def _send(self, k, message: LSUMessage) -> None:
        self.outbox.append((k, message))
        self.lsu_sent += 1

    def _flood(self, entries, ack_to=None) -> None:
        for k in self.link_costs:
            self._send(k, LSUMessage(self.node_id, entries, ack=k == ack_to))


class OracleMPDA(OraclePDA):
    """MPDA (Fig. 4): PDA plus ACTIVE/PASSIVE sync and the LFI successors."""

    def __init__(self, node_id) -> None:
        super().__init__(node_id)
        self.passive = True
        self.pending_acks: dict = {}
        self.feasible_distance: dict = {}  # FD_j; no entry means infinity
        self.successor_sets: dict = {}  # S_j; empty sets are left out

    def is_passive(self) -> bool:
        return self.passive

    def _greet(self, k) -> bool:
        if not super()._greet(k):
            return False
        self._await_ack(k)
        return True

    def _await_ack(self, k) -> None:
        self.pending_acks[k] = self.pending_acks.get(k, 0) + 1
        self.passive = False

    def link_down(self, k) -> None:
        # A failed link's pending ACK counts as received.
        self.pending_acks.pop(k, None)
        super().link_down(k)

    def receive(self, message: LSUMessage) -> None:
        k = message.sender
        if k not in self.link_costs:
            return
        self.lsu_received += 1
        if message.ack and self.pending_acks.get(k, 0) > 0:
            self.pending_acks[k] -= 1
        if message.entries:
            self._ntu(message)
            self._after_event(k)
        else:
            self._after_event(None)

    def _after_event(self, sender) -> None:
        me = self.node_id
        changes: tuple = ()
        if self.passive:
            # Step 2: MTU, then FD_j = min(FD_j, D_j).
            changes = self._mtu()
            for j, d in self.distances.items():
                if j != me and d < self.feasible_distance.get(j, INFINITY):
                    self.feasible_distance[j] = d
        elif not any(self.pending_acks.values()):
            # Step 3: the last ACK is in; go PASSIVE, MTU, and reset
            # FD_j = min(D_j before, D_j after).
            before = self.distances
            self.passive = True
            changes = self._mtu()
            after = self.distances
            self.feasible_distance = {}
            for j in before.keys() | after.keys():
                fd = min(before.get(j, INFINITY), after.get(j, INFINITY))
                if j != me and fd < INFINITY:
                    self.feasible_distance[j] = fd
        # Step 4 (Eq. 17): S_j = {k : D_jk < FD_j}.
        self.successor_sets = {}
        for j in {j for row in self.nbr_distances.values() for j in row} - {me}:
            fd = self.feasible_distance.get(j, INFINITY)
            chosen = {
                k
                for k in self.link_costs
                if self.nbr_distances[k].get(j, INFINITY) < fd
            }
            if chosen:
                self.successor_sets[j] = chosen
        # Steps 5-8: flood the changes and go ACTIVE, or just ACK.
        if changes and self.link_costs:
            for k in self.link_costs:
                self._await_ack(k)
            self._flood(changes, ack_to=sender)
        elif sender is not None:
            self._send(sender, LSUMessage(me, (), ack=True))


# ----------------------------------------------------------------------
# lockstep
# ----------------------------------------------------------------------
class Divergence(AssertionError):
    """Production and oracle routers disagree."""


def _view(router) -> dict:
    """The protocol state the lockstep compares, copied out of ``router``.

    Works on production and oracle routers alike: D_j, and for every up
    neighbor k D_jk and the table T_k, the main table, and for MPDA
    FD_j, S_j, the ACTIVE/PASSIVE state and the pending ACKs.
    """
    up = list(router.link_costs)
    view = {
        "D": dict(router.distances),
        "D_jk": {k: dict(router.nbr_distances[k]) for k in up},
        "T_k": {k: _links(router.neighbor_tables[k]) for k in up},
        "T": _links(router.main_table),
    }
    if hasattr(router, "is_passive"):
        view["FD"] = dict(router.feasible_distance)
        view["S"] = dict(router.successor_sets)
        view["passive"] = router.is_passive()
        view["pending_acks"] = {
            k: n for k, n in router.pending_acks.items() if n
        }
    return view


def _links(table) -> dict:
    return dict(table) if isinstance(table, dict) else table.links()


def _wire(message: LSUMessage) -> tuple:
    """What a message says, up to the order of its entries."""
    return message.sender, message.ack, frozenset(message.entries)


def _compare(where: str, node, production: dict, oracle: dict) -> None:
    for field, got in production.items():
        want = oracle[field]
        if got == want:
            continue
        if isinstance(got, dict):
            keys = got.keys() | want.keys()
            got = {k: got.get(k) for k in keys if got.get(k) != want.get(k)}
            want = {k: want.get(k) for k in got}
        raise Divergence(
            f"{where}: router {node!r} differs on {field}: "
            f"production {got!r}, oracle {want!r}"
        )


class Lockstep:
    """A production driver and an oracle driver, fed the same events.

    ``router_cls`` is the production router class; the oracle side runs
    :class:`OracleMPDA` when it has the ACTIVE/PASSIVE state machine
    (``is_passive``) and :class:`OraclePDA` otherwise.  Both drivers get
    ``topo``, the interleaving ``seed`` and a transport of their own
    from the zero-argument factory ``transport`` (None: the default
    :class:`~repro.core.transport.PerfectChannel`).

    The event methods mirror :class:`ProtocolDriver`'s; ``partition``,
    ``heal`` and ``busy_links`` mirror the transport's, so
    :func:`repro.testing.fuzz.play` can drive a lockstep as it drives a
    driver and its transport.
    """

    def __init__(self, topo, router_cls, *, seed: int = 0, transport=None):
        oracle_cls = OracleMPDA if hasattr(router_cls, "is_passive") else OraclePDA
        #: Production deliveries not yet matched by the oracle side.
        self._unmatched: deque = deque()

        def drive(cls, on_receive):
            class Recorded(cls):
                def receive(self, message):
                    super().receive(message)
                    on_receive(self, message)

            return ProtocolDriver(
                topo,
                Recorded,
                seed=seed,
                transport=None if transport is None else transport(),
            )

        self.production = drive(router_cls, self._record)
        self.oracle = drive(oracle_cls, self._check)

    def _record(self, router, message) -> None:
        self._unmatched.append((router.node_id, _wire(message), _view(router)))

    def _check(self, router, message) -> None:
        where = f"delivery {self.oracle.delivered}"
        if not self._unmatched:
            raise Divergence(f"{where}: only the oracle delivered a message")
        node, wire, view = self._unmatched.popleft()
        if (node, wire) != (router.node_id, _wire(message)):
            raise Divergence(
                f"{where}: production delivered {wire!r} to {node!r}, "
                f"oracle {_wire(message)!r} to {router.node_id!r}"
            )
        _compare(where, node, view, _view(router))

    def _compare_all(self, where: str) -> None:
        for node, router in self.production.routers.items():
            oracle = self.oracle.routers[node]
            _compare(where, node, _view(router), _view(oracle))

    def _both(self, name: str, *args) -> None:
        getattr(self.production, name)(*args)
        getattr(self.oracle, name)(*args)
        self._compare_all(f"after {name}{args!r}")

    # -- ProtocolDriver events ------------------------------------------
    def start(self, costs) -> None:
        self._both("start", costs)

    def set_costs(self, costs) -> None:
        self._both("set_costs", costs)

    def fail_link(self, a, b) -> None:
        self._both("fail_link", a, b)

    def restore_link(self, a, b, cost_ab, cost_ba) -> None:
        self._both("restore_link", a, b, cost_ab, cost_ba)

    def step(self) -> bool:
        """Deliver one frame on each side; both must agree."""
        busy = self.production.step()
        if self.oracle.step() != busy or self._unmatched:
            raise Divergence(
                f"delivery {self.production.delivered}: production and "
                "oracle drivers made different progress"
            )
        return busy

    def run(self) -> None:
        """Step to quiescence, then compare every router and the counts."""
        while self.step():
            pass
        self._compare_all(f"quiescence at delivery {self.production.delivered}")
        stats = self.production.message_stats()
        if stats != self.oracle.message_stats():
            raise Divergence(
                f"message_stats differ: production {stats!r}, "
                f"oracle {self.oracle.message_stats()!r}"
            )

    # -- transport calls a fuzz schedule makes --------------------------
    def busy_links(self) -> list:
        busy = self.production.transport.busy_links()
        if self.oracle.transport.busy_links() != busy:
            raise Divergence("production and oracle transports differ")
        return busy

    def partition(self, a, b) -> None:
        self.production.transport.partition(a, b)
        self.oracle.transport.partition(a, b)

    def heal(self, a, b) -> None:
        self.production.transport.heal(a, b)
        self.oracle.transport.heal(a, b)


def lockstep_case(case: FuzzCase, router_cls) -> Lockstep:
    """Replay ``case``'s topology, transport and schedule in lockstep.

    Invariant checks are off: this compares production with the oracle,
    including over raw channels, where Theorem 3 need not hold.
    """
    topo = build_topology(case.topology)
    lockstep = Lockstep(
        topo,
        router_cls,
        seed=case.driver_seed,
        transport=case.profile.build_transport,
    )
    play(case, lockstep, lockstep, topo.idle_marginal_costs())
    return lockstep
