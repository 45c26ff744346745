"""PDA — the Partial-topology Dissemination Algorithm (Figs. 1-3).

Each router maintains its own shortest-path tree ``T_i`` (the *main
topology table*) and a per-neighbor table ``T_k_i``, a time-delayed copy
of neighbor *k*'s tree.  On every event (an LSU from a neighbor, or an
adjacent-link change) the router runs:

- **NTU** (Neighbor Topology-table Update, Fig. 2): apply the LSU to the
  neighbor's table and recompute that neighbor's distances by running
  Dijkstra rooted at the neighbor.  A receiver whose copy is the table
  the sender diffed against — always, under the paper's delivery
  model — adopts the sender's frozen tree and distances by reference
  instead (:class:`~repro.core.linkstate.FrozenTree`), with the same
  result;
- **MTU** (Main Topology-table Update, Fig. 3): merge the neighbor trees —
  for each known node *j*, copy *j*'s outgoing links from the *preferred
  neighbor* ``p`` minimizing :math:`D^i_{jp} + l^i_p` (conflicts between
  neighbors are resolved by distance to the head of the link, not by
  sequence numbers), override adjacent links with locally measured costs,
  run Dijkstra, and keep only the tree.  Differences from the previous
  tree are flooded to the neighbors as LSU entries.  Here the Dijkstra
  step is :func:`repair_tree`: it re-settles only the nodes below the
  candidate links that moved since the last run, with the same result.

A changed MTU costs what changed, not the size of the network.  The
"copy" of step 4 holds the preferred neighbor's link group by
reference, since groups are never edited in place.  The main table is
the frozen tree the router floods, plus a private predecessor map; the
next tree is built from the repaired nodes and shares every unchanged
group.  The known-node universe is a reference count fed by the node
deltas the adopted trees carry, and MPDA's feasible-distance updates
visit only the repaired nodes and the destinations whose FD is below D.

PDA converges to correct shortest paths a finite time after the last
change (Theorem 2, proved via n-hop minimum trees).  Routers here are
transport-agnostic: outgoing messages accumulate in ``outbox`` and a
driver (:mod:`repro.core.driver` or the packet simulator) delivers them.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Mapping

from repro.core.linkstate import (
    INFINITY,
    EntryOp,
    FrozenTree,
    LinkEntry,
    LSUMessage,
    TopologyTable,
)
from repro.exceptions import RoutingError
from repro.graph.shortest_paths import dijkstra, rank_nodes
from repro.graph.topology import NodeId

#: Shared empty adjacency for nodes without links (never mutated).
_NO_LINKS: Mapping = {}


def repair_tree(
    pred: Mapping[NodeId, NodeId],
    children: Mapping[NodeId, Mapping[NodeId, float]],
    dist: dict[NodeId, float],
    adj: Mapping[NodeId, Mapping[NodeId, float]],
    adj_in: Mapping[NodeId, Mapping[NodeId, float]],
    rank: Mapping[NodeId, int],
    moved: Iterable[tuple[NodeId, NodeId]],
) -> tuple[list[LinkEntry], dict[NodeId, NodeId | None]]:
    """MTU steps 6-8: bring a shortest-path tree up to date after edits.

    The previous tree is given twice: ``pred`` maps each tree node to
    its predecessor, and ``children`` (head -> {tail: cost}) holds the
    tree links, so the old cost of tree link ``(pred[n], n)`` is
    ``children[pred[n]][n]``.  The tree and ``dist`` must hold exactly
    what :func:`~repro.graph.shortest_paths.dijkstra` gave for the
    previous candidate graph, with ``dist`` covering the current node
    universe (nodes new to it at infinity).  The empty tree with the
    root at 0.0 and every other node at infinity is Dijkstra's result
    for the empty graph, so a first run starts there with every link
    in ``moved``.  ``adj`` (head -> {tail: cost}) and ``adj_in`` (tail
    -> {head: cost}) describe the current candidate graph, ``rank`` is
    :func:`rank_nodes` order over (at least) the universe, and
    ``moved`` lists every link (head, tail) added, removed or
    re-costed since.

    The subtrees below removed or costlier tree links are dropped, and
    those nodes plus the tails of cheaper or new links are re-settled by
    a heap seeded from them alone.  A node's predecessor is the
    lowest-rank head among those giving the float-exact minimum of
    ``dist[head] + cost`` — Dijkstra's lower-address tie rule — so
    ``dist`` ends equal to
    :func:`~repro.graph.shortest_paths.dijkstra`'s distances over the
    candidate graph and the universe, and the tree to its predecessor
    links.

    ``dist`` is updated in place; ``pred`` and ``children`` are only
    read.  Returns ``(entries, repaired)``: the ADD/CHANGE entries then
    the DELETE entries that turn the old tree into the new one (each
    touches a distinct link), and ``repaired`` mapping every node whose
    tree link or distance may have moved to its new predecessor (None
    when unreachable).  Nodes absent from ``repaired`` kept both.
    """
    repaired: dict = {}
    heap: list = []
    push = heapq.heappush
    seeds = []
    stack = []
    for head, tail in moved:
        cost = adj.get(head, _NO_LINKS).get(tail)
        if pred.get(tail) == head:
            old = children[head][tail]
            if cost is None or cost > old:
                stack.append(tail)
            elif cost < old:
                seeds.append((head, tail, cost))
        elif cost is not None:
            seeds.append((head, tail, cost))
    # Drop the subtrees below removed or costlier tree links.
    while stack:
        node = stack.pop()
        if node in repaired:
            continue
        repaired[node] = None
        dist[node] = INFINITY
        stack.extend(children.get(node, ()))
    # Re-label each dropped node from its in-links (in-links from
    # dropped nodes still at infinity add nothing; those nodes relax
    # their out-links when they settle).
    for node in list(repaired):
        best = INFINITY
        best_head = None
        for head, cost in adj_in.get(node, _NO_LINKS).items():
            alt = dist[head] + cost
            if alt < best or (
                alt == best
                and best_head is not None
                and rank[head] < rank[best_head]
            ):
                best, best_head = alt, head
        if best_head is not None:
            dist[node] = best
            repaired[node] = best_head
            push(heap, (best, rank[node], node))
    # New or cheaper links may lower their tail.  A cheaper tree link
    # whose float sum does not move keeps its tail's predecessor
    # (``<=``), but the tail is still marked repaired: its tree link
    # changed cost.
    for head, tail, cost in seeds:
        alt = dist[head] + cost
        cur = dist[tail]
        if alt < cur:
            dist[tail] = alt
            repaired[tail] = head
            push(heap, (alt, rank[tail], tail))
        elif alt == cur < INFINITY:
            prev = repaired.get(tail)
            if prev is None:
                prev = pred[tail]
            if rank[head] <= rank[prev]:
                repaired[tail] = head
    # Label-setting from the seeds: every label is the cost of a real
    # path, and every push raises the heap minimum by a positive cost,
    # so each node settles once, at its final distance.
    pop = heapq.heappop
    while heap:
        d, node_rank, node = pop(heap)
        if d > dist[node]:
            continue
        for tail, cost in adj.get(node, _NO_LINKS).items():
            alt = d + cost
            cur = dist[tail]
            if alt < cur:
                dist[tail] = alt
                repaired[tail] = node
                push(heap, (alt, rank[tail], tail))
            elif alt == cur:
                prev = repaired.get(tail)
                if prev is None:
                    prev = pred[tail]
                if node_rank < rank[prev]:
                    repaired[tail] = node
    entries = []
    deletes = []
    for node, head in repaired.items():
        old_head = pred.get(node)
        if old_head is not None:
            if old_head == head:
                cost = adj[head][node]
                if cost != children[head][node]:
                    entries.append(LinkEntry(EntryOp.CHANGE, head, node, cost))
                continue
            deletes.append(LinkEntry(EntryOp.DELETE, old_head, node))
        if head is not None:
            entries.append(LinkEntry(EntryOp.ADD, head, node, adj[head][node]))
    entries += deletes
    return entries, repaired


class PDARouter:
    """One router running PDA.

    Public event entry points (each may queue messages on ``outbox``):

    - :meth:`link_up` — an adjacent link came up (or a router boots and
      discovers its neighbor);
    - :meth:`link_cost_change` — the measured cost of an adjacent link
      changed (this is how marginal-delay updates enter the protocol);
    - :meth:`link_down` — an adjacent link failed;
    - :meth:`receive` — an LSU message arrived from a neighbor.

    Attributes:
        main_table: this router's tree ``T_i`` — the
            :class:`~repro.core.linkstate.FrozenTree` it last flooded.
        outbox: queued ``(neighbor, LSUMessage)`` pairs for the driver.
        mtu_runs / lsu_sent / lsu_received: protocol statistics.

    Incremental bookkeeping: every event that can change MTU's inputs
    (adjacent link set or cost, any neighbor-table content) sets
    ``_tables_dirty``; MTU is deterministic in those inputs and
    idempotent, so while the flag is clear :meth:`_mtu` returns the empty
    diff without recomputing — the dominant case for MPDA's pure-ACK
    deliveries.  Otherwise steps 3-5 re-source only the link groups
    whose inputs moved and report the candidate links that changed, and
    :func:`repair_tree` re-settles only the nodes those links affect;
    the LSU diff, ``distances`` and the next snapshot are built from the
    repaired nodes alone.  Every event takes this one path, the first
    included: an LSU, adopted or replayed, marks the rows and link
    groups it changed in the sender's table, and an adjacent-link event
    marks every row through that neighbor (its merged value moved) and
    the router's own group of adjacent links (step 5).
    :mod:`repro.testing.oracle` checks every such shortcut against a
    naive router that recomputes everything per event.
    """

    #: The internal steps a profiling run times, as sub-phases of the
    #: protocol run: method name -> phase name.  The driver swaps each
    #: router's class for a subclass wrapping exactly these under
    #: ``observe(profile=True)``, so other runs execute the plain methods.
    PROFILED_STEPS = {
        "_ntu_adopt": "protocol.ntu.adopt",
        "_ntu_replay": "protocol.ntu.replay",
        "_mtu_refresh": "protocol.mtu.refresh",
        "_repair": "protocol.mtu.repair",
        "_snapshot": "protocol.mtu.snapshot",
    }

    def __init__(self, node_id: NodeId) -> None:
        self.node_id = node_id
        #: Bumped after every processed event; the incremental Theorem-3
        #: check (:class:`repro.core.mpda.IncrementalSafetyCheck`) uses it
        #: to tell which routers may have changed state since it last
        #: looked.
        self.route_version = 0
        self.main_table = FrozenTree.empty(node_id)
        #: The main table's predecessor map: each tree node's head.
        self._pred: dict[NodeId, NodeId] = {}
        self.neighbor_tables: dict[NodeId, TopologyTable | FrozenTree] = {}
        self.link_costs: dict[NodeId, float] = {}
        self.distances: dict[NodeId, float] = {}
        #: nbr_distances[k][j] = D^i_jk, distance k -> j in this router's
        #: copy of k's topology (NTU step 1c).
        self.nbr_distances: dict[NodeId, dict[NodeId, float]] = {}
        self.outbox: list[tuple[NodeId, LSUMessage]] = []
        self.mtu_runs = 0
        self.lsu_sent = 0
        self.lsu_received = 0
        self.entries_sent = 0
        #: True when MTU's inputs changed since its last recomputation.
        self._tables_dirty = True
        #: The known-node universe as reference counts: this router,
        #: each up neighbor, and each node of a neighbor table other than
        #: that table's root (the root counts through ``link_costs``).
        self._known: dict[NodeId, int] = {node_id: 1}
        #: Nodes whose membership may have flipped since the last MTU.
        self._known_moved: dict[NodeId, None] = {node_id: None}
        #: Tie-break ranks over (at least) the universe, rebuilt only
        #: when a node without a rank joins it.
        self._rank: dict[NodeId, int] = {}
        #: Per-neighbor version of the frozen snapshot currently held
        #: in ``neighbor_tables`` (absent = mutable or out-of-sync).
        self._nbr_versions: dict[NodeId, int] = {}
        #: MTU steps 3-5 state carried across runs: per-destination
        #: preferred neighbor and its merged value, and the candidate
        #: graph as out-adjacency (head -> {tail: cost}, each group the
        #: winning neighbor table's own, by reference, and this router's
        #: own group its adjacent links) and in-adjacency (tail -> {head:
        #: cost}).  ``_best_dirty`` lists destinations whose neighbor
        #: rows moved and ``_group_dirty`` the heads whose link group
        #: must be re-sourced.
        self._best_val: dict[NodeId, float] = {}
        self._best_nbr: dict[NodeId, NodeId] = {}
        self._adj: dict[NodeId, Mapping[NodeId, float]] = {}
        self._adj_in: dict[NodeId, dict[NodeId, float]] = {}
        self._best_dirty: set[NodeId] = set()
        self._group_dirty: set[NodeId] = set()
        #: The single neighbor all of ``_best_dirty`` came from, or None
        #: once several senders contributed (None disables the
        #: challenger short-cut in ``_mtu_refresh``).
        self._dirty_sender: NodeId | None = None

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def link_up(self, neighbor: NodeId, cost: float) -> None:
        """Adjacent link to ``neighbor`` came up with measured cost ``cost``."""
        self._check_cost(neighbor, cost)
        if neighbor not in self.link_costs:
            self._know((neighbor,))
        self.link_costs[neighbor] = cost
        self.neighbor_tables.setdefault(neighbor, TopologyTable())
        rows = self.nbr_distances.setdefault(neighbor, {neighbor: 0.0})
        self._tables_dirty = True
        self._note_mtu_dirty(neighbor, rows, ())
        self._note_rows_changed(rows)
        self._group_dirty.add(self.node_id)
        self._greet(neighbor)
        self._after_ntu(lsu_sender=None)

    def _greet(self, neighbor: NodeId) -> bool:
        """NTU step 2: greet a new neighbor with the full main table.

        Returns whether a greeting was sent (an empty tree sends none).
        """
        tree = self.main_table
        dump = tree.full_dump()
        if not dump:
            return False
        self._send(
            neighbor,
            LSUMessage(self.node_id, dump, snapshot=tree.as_full(self.node_id)),
        )
        return True

    def link_cost_change(self, neighbor: NodeId, cost: float) -> None:
        """The measured cost of the adjacent link changed (NTU step 3)."""
        self._check_cost(neighbor, cost)
        if neighbor not in self.link_costs:
            raise RoutingError(
                f"{self.node_id!r}: cost change for unknown link to "
                f"{neighbor!r}"
            )
        self.link_costs[neighbor] = cost
        self._tables_dirty = True
        # Every merged value through this neighbor shifted.
        self._note_mtu_dirty(neighbor, self.nbr_distances[neighbor], ())
        self._group_dirty.add(self.node_id)
        self._after_ntu(lsu_sender=None)

    def link_down(self, neighbor: NodeId) -> None:
        """Adjacent link failed (NTU step 4): clear the neighbor's table."""
        if self.link_costs.pop(neighbor, None) is not None:
            self._forget((neighbor,))
        table = self.neighbor_tables.pop(neighbor, None)
        if table is not None:
            self._forget(
                [node for node in table.nodes_map_view() if node != neighbor]
            )
        rows = self.nbr_distances.pop(neighbor, _NO_LINKS)
        self._nbr_versions.pop(neighbor, None)
        self._tables_dirty = True
        self._note_mtu_dirty(neighbor, rows, ())
        self._note_rows_changed(rows)
        self._group_dirty.add(self.node_id)
        self._after_ntu(lsu_sender=None)

    def receive(self, message: LSUMessage) -> None:
        """An LSU arrived from a (current) neighbor."""
        sender = message.sender
        self.lsu_received += 1
        if sender not in self.link_costs:
            # Stale message from a link that has since failed; the paper's
            # delivery assumptions make this impossible, but drivers that
            # inject failures may race — drop it.
            return
        self._ntu_apply_lsu(message)
        self._after_ntu(lsu_sender=sender)

    # ------------------------------------------------------------------
    # the known-node universe
    # ------------------------------------------------------------------
    def _know(self, nodes) -> None:
        """Count one more mention of each of ``nodes``."""
        known = self._known
        for node in nodes:
            count = known.get(node)
            if count is None:
                known[node] = 1
                self._known_moved[node] = None
            else:
                known[node] = count + 1

    def _forget(self, nodes) -> None:
        """Count one mention less of each of ``nodes``."""
        known = self._known
        for node in nodes:
            count = known[node] - 1
            if count:
                known[node] = count
            else:
                del known[node]
                self._known_moved[node] = None

    # ------------------------------------------------------------------
    # NTU / MTU internals
    # ------------------------------------------------------------------
    def _ntu_apply_lsu(self, message: LSUMessage) -> None:
        """NTU step 1: apply entries and recompute the sender's distances.

        ``link_up`` seeds the sender's table and distances, and
        ``receive`` drops messages from non-neighbors, so both exist.
        """
        snap = message.snapshot
        if snap is not None:
            sender = message.sender
            if self._nbr_versions.get(sender, -1) == snap.prev_version:
                # The held table *is* the sender's previous snapshot.
                self._ntu_adopt(message, snap.joined, snap.left)
                return
            if snap.applies_to_empty and len(self.neighbor_tables[sender]) == 0:
                # Both are empty and the entries rebuild the whole tree.
                self._ntu_adopt(
                    message, [node for node in snap.dist if node != sender], ()
                )
                return
        self._ntu_replay(message)

    def _ntu_adopt(self, message: LSUMessage, joined, left) -> None:
        """NTU by reference: the held table is exactly the state the
        entries were diffed against, so adopting the sender's frozen
        result is identical to replaying them.  ``joined`` and ``left``
        are the tree nodes the swap adds to and drops from the table."""
        sender = message.sender
        snap = message.snapshot
        self.neighbor_tables[sender] = snap
        self.nbr_distances[sender] = snap.dist
        self._nbr_versions[sender] = snap.version
        self._tables_dirty = True
        if joined:
            self._know(joined)
        if left:
            self._forget(left)
        self._note_mtu_dirty(sender, snap.changed_rows, message.entries)
        self._note_rows_changed(snap.changed_rows)

    def _ntu_replay(self, message: LSUMessage) -> None:
        """NTU as Fig. 2 writes it: apply the entries to a mutable copy
        and rerun Dijkstra from the sender — taken on duplicated or
        reordered delivery over a raw channel, where the snapshot's
        baseline doesn't match."""
        sender = message.sender
        table = self.neighbor_tables[sender]
        if isinstance(table, FrozenTree):
            table = self.neighbor_tables[sender] = table.thaw()
            self._nbr_versions.pop(sender, None)
        before = set(table.nodes_map_view())
        if not table.apply(message.entries):
            # Every entry was a no-op on the table, so the sender's
            # distances — and MTU's inputs — are exactly as before.
            return
        after = table.nodes_map_view()
        self._know([n for n in after if n not in before and n != sender])
        self._forget([n for n in before if n not in after and n != sender])
        self._tables_dirty = True
        old = self.nbr_distances[sender]
        new = dijkstra(table.links_view(), sender)[0]
        self.nbr_distances[sender] = new
        rows = [j for j in old.keys() | new.keys() if old.get(j) != new.get(j)]
        self._note_mtu_dirty(sender, rows, message.entries)
        self._note_rows_changed(rows)

    def _note_mtu_dirty(self, sender: NodeId, rows, entries) -> None:
        """Record what an event invalidates in the carried MTU state.

        ``rows`` (destinations whose distance through ``sender`` moved:
        an LSU's changed rows, or every row of a neighbor whose adjacent
        link came up, failed or changed cost) re-open the
        preferred-neighbor choice; entry heads whose current preferred
        neighbor *is* the sender now have a new link group in the
        sender's table, so the group is re-sourced even when the choice
        itself stands.
        """
        if not self._best_dirty:
            self._dirty_sender = sender
        elif self._dirty_sender != sender:
            self._dirty_sender = None
        self._best_dirty.update(rows)
        best_nbr = self._best_nbr
        group_dirty = self._group_dirty
        for entry in entries:
            head = entry.head
            if best_nbr.get(head) == sender:
                group_dirty.add(head)

    def _note_rows_changed(self, destinations) -> None:
        """Hook: destinations whose neighbor-table rows, or the adjacent
        link those rows come through, changed (MPDA)."""

    def _after_ntu(self, lsu_sender: NodeId | None) -> None:
        """The tail of procedure PDA: MTU, then flood any differences."""
        self.route_version += 1
        changes, _ = self._mtu()
        if changes:
            self._broadcast(changes)

    def _mtu(self):
        """MTU (Fig. 3): update the main table.

        Returns ``(changes, repaired)``: the LSU diff, and the nodes
        whose distance or predecessor may have moved (what
        :func:`repair_tree` returns; empty when MTU was skipped).

        MTU is a pure function of the adjacent-link costs and the
        neighbor tables, and running it twice on the same inputs yields
        the same tree and an empty diff — so when nothing marked those
        inputs dirty the whole computation is skipped (the counter still
        advances: a skipped run is still a protocol-level MTU event).
        """
        self.mtu_runs += 1
        if not self._tables_dirty:
            return (), _NO_LINKS
        self._tables_dirty = False
        link_costs = self.link_costs
        up = [n for n in link_costs if link_costs[n] < INFINITY]
        # ``distances`` covers exactly the known-node universe: nodes
        # new to it start at infinity, and nodes that left it (no table
        # mentions them, so no candidate link reaches them) are dropped
        # after the repair.  The router itself joins at its first MTU,
        # at 0.0: the empty tree is Dijkstra's result for the empty
        # candidate graph, and the first repair starts from it.
        dist = self.distances
        gone = []
        if self._known_moved:
            known = self._known
            rank = self._rank
            me = self.node_id
            stale = False
            for node in self._known_moved:
                if node in known:
                    if node not in dist:
                        dist[node] = INFINITY if node != me else 0.0
                        stale = stale or node not in rank
                elif node in dist:
                    gone.append(node)
            self._known_moved = {}
            if stale:
                self._rank = rank_nodes(known)
        rank = self._rank

        moved = self._mtu_refresh(up, rank)
        entries, repaired = self._repair(moved, rank)
        for node in gone:
            del dist[node]
        changes = tuple(entries)
        if changes:
            self._snapshot(changes, repaired)
        return changes, repaired

    def _repair(self, moved, rank):
        """MTU steps 6-8 on the main table (:func:`repair_tree`)."""
        return repair_tree(
            self._pred,
            self.main_table.groups,
            self.distances,
            self._adj,
            self._adj_in,
            rank,
            moved,
        )

    def _snapshot(self, changes, repaired) -> None:
        """Install the tree ``changes`` lead to as the next main table.

        Receivers share the snapshot by reference, so its distance view
        and every link group the diff touches are fresh objects; the
        rest are shared with the previous snapshot.  The previous view
        had one entry (self) iff the previous tree was empty, in which
        case the diff entries also reconstruct the tree from scratch.
        """
        prev = self.main_table
        prev_groups = prev.groups
        dist = self.distances
        pred = self._pred
        flood = dict(prev.dist)
        changed_rows = set()
        joined = []
        left = []
        for node, head in repaired.items():
            if head is None:
                if node in pred:
                    del pred[node]
                    del flood[node]
                    left.append(node)
                    changed_rows.add(node)
            else:
                d = dist[node]
                old = flood.get(node)
                if old is None:
                    joined.append(node)
                flood[node] = d
                pred[node] = head
                if old != d:
                    changed_rows.add(node)
        # Each touched group is copied once, then edited in entry order.
        touched: dict[NodeId, dict[NodeId, float]] = {}
        n_links = prev._n_links
        for entry in changes:
            head = entry.head
            group = touched.get(head)
            if group is None:
                group = touched[head] = dict(prev_groups.get(head, _NO_LINKS))
            if entry.op is EntryOp.DELETE:
                del group[entry.tail]
                n_links -= 1
            else:
                if entry.op is EntryOp.ADD:
                    n_links += 1
                group[entry.tail] = entry.cost
        groups = dict(prev_groups)
        for head, group in touched.items():
            if group:
                groups[head] = group
            else:
                del groups[head]
        self.main_table = FrozenTree(
            version=prev.version + 1,
            prev_version=prev.version,
            applies_to_empty=len(prev.dist) == 1,
            dist=flood,
            changed_rows=changed_rows,
            joined=tuple(joined),
            left=tuple(left),
            groups=groups,
            n_links=n_links,
        )

    def _mtu_refresh(self, up, rank) -> list[tuple[NodeId, NodeId]]:
        """MTU steps 3-5, touching only destinations whose inputs moved.

        ``_best_dirty`` holds every node whose merged-distance row
        changed in some neighbor table since the last run; re-probing
        just those rows reproduces the full argmin's winner because the
        probe is a pure (value, lower-address) argmin over the same
        inputs and untouched rows cannot have changed their entry.
        ``_group_dirty`` holds nodes whose link group may differ even
        with an unchanged winner (the winning neighbor re-announced
        links leaving that head); their groups are re-sourced.  The
        router's own group is step 5's: its adjacent links at their
        measured costs, which override anything neighbors reported.

        Returns the candidate links (head, tail) that were added,
        removed or re-costed — what :func:`repair_tree` starts from.
        """
        best_val, best_nbr = self._best_val, self._best_nbr
        link_costs = self.link_costs
        nbr_rows = self.nbr_distances
        group_dirty = self._group_dirty
        adj = self._adj
        rows = [
            (k, nbr_rows[k].get, link_costs[k], rank[k])
            for k in up
            if nbr_rows.get(k)
        ]
        # When every dirty row came from one sender, a destination whose
        # current winner is a *different* neighbor only needs the
        # sender's new value checked against the incumbent: the winner's
        # own value is untouched, so unless the challenger beats it (or
        # ties with a lower address) nothing changes.
        ds = self._dirty_sender
        if ds is not None and ds in link_costs:
            ds_row = nbr_rows.get(ds)
            ds_lc = link_costs[ds]
            ds_rk = rank[ds]
        else:
            ds = None
        for j in self._best_dirty:
            if ds is not None:
                w = best_nbr.get(j)
                if w is not None and w != ds:
                    d = ds_row.get(j) if ds_row else None
                    if d is None:
                        continue
                    val = d + ds_lc
                    bv = best_val[j]
                    if val > bv or (val == bv and ds_rk > rank[w]):
                        continue
            bv = INFINITY
            bk = None
            br = 0
            for k, row_get, lc, rk in rows:
                d = row_get(j)
                if d is None:
                    continue
                val = d + lc
                if bk is None or val < bv or (val == bv and rk < br):
                    bv, bk, br = val, k, rk
            prev = best_nbr.get(j)
            if bk is None:
                if prev is not None:
                    del best_nbr[j]
                    del best_val[j]
                    group_dirty.add(j)
            else:
                best_val[j] = bv
                best_nbr[j] = bk
                # A winner flip changes which table the group comes
                # from; an INFINITY<->finite flip adds or removes the
                # group even when the winner is unchanged.
                if prev != bk or (j in adj) != (bv < INFINITY):
                    group_dirty.add(j)
        self._best_dirty = set()

        adj_in = self._adj_in
        tables = self.neighbor_tables
        me = self.node_id
        moved: list[tuple[NodeId, NodeId]] = []
        for j in group_dirty:
            old_group = adj.pop(j, _NO_LINKS)
            group = _NO_LINKS
            if j == me:
                if up:
                    group = adj[me] = {k: link_costs[k] for k in up}
            else:
                k = best_nbr.get(j)
                if k is not None and best_val[j] != INFINITY:
                    view = tables[k].groups.get(j)
                    if view:
                        group = adj[j] = view
            if group is old_group:
                continue
            for tail in old_group:
                if tail not in group:
                    incoming = adj_in[tail]
                    del incoming[j]
                    if not incoming:
                        del adj_in[tail]
                    moved.append((j, tail))
            for tail, cost in group.items():
                if old_group.get(tail) != cost:
                    adj_in.setdefault(tail, {})[j] = cost
                    moved.append((j, tail))
        self._group_dirty = set()
        return moved

    # ------------------------------------------------------------------
    # message plumbing
    # ------------------------------------------------------------------
    def _send(self, neighbor: NodeId, message: LSUMessage) -> None:
        self.outbox.append((neighbor, message))
        self.lsu_sent += 1
        self.entries_sent += len(message.entries)

    def _broadcast(self, entries, ack_to: NodeId | None = None) -> None:
        """Send ``entries`` to every up neighbor (ACK flag to ``ack_to``).

        The snapshot rides along whenever the entries are the diff MTU
        just flooded — ``_broadcast`` is only reached straight after a
        changed MTU, which installed the post-diff tree as
        ``main_table``.
        """
        snapshot = self.main_table
        for nbr in self.link_costs:
            self._send(
                nbr,
                LSUMessage(
                    self.node_id,
                    tuple(entries),
                    ack=(nbr == ack_to),
                    snapshot=snapshot,
                ),
            )

    @staticmethod
    def _check_cost(neighbor: NodeId, cost: float) -> None:
        if not cost > 0 or cost == INFINITY:
            raise RoutingError(
                f"adjacent link cost to {neighbor!r} must be positive and "
                f"finite, got {cost!r}"
            )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def distance_to(self, destination: NodeId) -> float:
        """:math:`D^i_j` — this router's distance to ``destination``."""
        if destination == self.node_id:
            return 0.0
        return self.distances.get(destination, INFINITY)

    def neighbor_distance(self, neighbor: NodeId, destination: NodeId) -> float:
        """:math:`D^i_{jk}` — ``neighbor``'s distance to ``destination``
        according to this router's copy of its topology."""
        if neighbor == destination:
            return 0.0
        return self.nbr_distances.get(neighbor, {}).get(destination, INFINITY)

    def up_neighbors(self) -> list[NodeId]:
        """Neighbors with an operational adjacent link."""
        return list(self.link_costs)

    def __repr__(self) -> str:
        return f"PDARouter({self.node_id!r})"
