"""MPDA — the Multipath Partial-topology Dissemination Algorithm (Fig. 4).

MPDA is PDA plus the machinery that makes the successor sets *loop-free
at every instant* (Theorem 3):

- every LSU a router sends is acknowledged by all its neighbors before
  the router sends the next one (one-hop synchronization, unlike the
  network-wide synchronization of diffusing computations);
- a router is **ACTIVE** while waiting for those ACKs and **PASSIVE**
  otherwise; events received while ACTIVE update the neighbor tables but
  the main-table update (MTU) is deferred to the ACTIVE→PASSIVE
  transition;
- the **feasible distance** :math:`FD^i_j` is kept no larger than any
  distance value this router has *reported* that a neighbor may still
  hold: lowered to ``min(FD, D)`` at every PASSIVE-state MTU, and reset
  to ``min(D_before, D_after)`` at the ACTIVE→PASSIVE transition (at that
  point every neighbor has acknowledged — hence applied — the last
  report, so older history is irrelevant);
- successors are chosen by the LFI rule :math:`S^i_j =
  \\{k : D^i_{jk} < FD^i_j\\}` (Eq. 17) after *every* event.

:func:`check_safety` verifies the LFI conditions across a whole network
of live routers, including in-flight states.  It is the only Theorem-3
checker in ``repro.core``: it reads each router's dicts in place, one
pass per destination, and decides acyclicity with the peeling pass of
:func:`repro.graph.validation.find_successor_cycle`.  ProtocolDriver and the
invariant auditor run it after every event through
:class:`IncrementalSafetyCheck`, which re-verifies only the conditions
that read a router whose state moved and hands every suspect state to
:func:`check_safety`.  The test-only :mod:`repro.testing.safety_reference`
keeps the naive map-building form both are differentially tested
against.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping

from repro.core.lfi import LFIViolation
from repro.core.linkstate import INFINITY, LSUMessage
from repro.core.pda import PDARouter
from repro.exceptions import LoopError
from repro.graph.topology import NodeId
from repro.graph.validation import find_successor_cycle


class RouterState(enum.Enum):
    """MPDA synchronization state."""

    PASSIVE = "passive"
    ACTIVE = "active"


class MPDARouter(PDARouter):
    """One router running MPDA.

    In addition to the PDA state, keeps the feasible distances
    ``feasible_distance[j]`` (:math:`FD^i_j`), the successor sets
    ``successor_sets[j]`` (:math:`S^i_j`), and the ACTIVE/PASSIVE
    synchronization state with the set of neighbors whose ACK is pending.
    """

    PROFILED_STEPS = {
        **PDARouter.PROFILED_STEPS,
        "_lower_feasible_distances": "protocol.mpda.fd",
        "_reset_feasible_distances": "protocol.mpda.fd",
        "_recompute_successors": "protocol.mpda.successors",
    }

    def __init__(self, node_id: NodeId) -> None:
        super().__init__(node_id)
        self.state = RouterState.PASSIVE
        #: Per-neighbor count of LSUs sent and not yet acknowledged.  A
        #: counter (not a set) because a newly-up neighbor receives a
        #: full-table dump in addition to the regular diff floods.
        self.pending_acks: dict[NodeId, int] = {}
        self.feasible_distance: dict[NodeId, float] = {}
        self._successor_sets: dict[NodeId, frozenset[NodeId]] = {}
        #: True while a recorded input change has not been folded into
        #: ``_successor_sets`` yet; the property flushes on read.
        self._succ_stale = False
        self.transitions = 0  # PASSIVE -> ACTIVE count, a protocol metric
        self.acks_received = 0  # consumed ACKs, one per LSU round-trip
        #: Destinations whose LFI inputs (a neighbor row, the adjacent
        #: link it comes through, or an FD entry) changed since the
        #: successor sets were last recomputed.
        self._dirty_dests: set[NodeId] = set()
        #: The destinations whose FD is below D (``D = inf`` outside the
        #: universe, so this includes every FD entry a node left behind
        #: when it quit the universe).  Elsewhere FD equals D, or both
        #: are infinite, which is why the FD updates need visit only
        #: these and the nodes MTU repaired.
        self._fd_below: set[NodeId] = set()
        #: One frozenset per distinct successor set, so destinations
        #: with the same choice share it.
        self._succ_intern: dict[frozenset, frozenset] = {}

    def _note_rows_changed(self, destinations) -> None:
        # One add per row: ``set.update`` sizes the table for the union
        # of two large sets, and a greeting's rows are the whole tree, so
        # it doubles the dirty sets a cold start leaves unread.
        add = self._dirty_dests.add
        for j in destinations:
            add(j)

    def _outstanding(self) -> bool:
        """True while any sent LSU still awaits its acknowledgment."""
        return any(count > 0 for count in self.pending_acks.values())

    def _note_sent(self, neighbor: NodeId) -> None:
        self.pending_acks[neighbor] = self.pending_acks.get(neighbor, 0) + 1
        self.state = RouterState.ACTIVE

    def _greet(self, neighbor: NodeId) -> bool:
        if not super()._greet(neighbor):
            return False
        self._note_sent(neighbor)
        self.transitions += 1
        return True

    # ------------------------------------------------------------------
    # events (PDA entry points reuse _after_ntu, overridden below)
    # ------------------------------------------------------------------
    def receive(self, message: LSUMessage) -> None:
        """An LSU arrived; it may acknowledge our last LSU and/or carry
        topology entries that themselves require an acknowledgment."""
        sender = message.sender
        if sender not in self.link_costs:
            return  # stale: the adjacent link failed meanwhile
        self.lsu_received += 1
        if message.ack and self.pending_acks.get(sender, 0) > 0:
            self.pending_acks[sender] -= 1
            self.acks_received += 1
        if message.entries:
            self._ntu_apply_lsu(message)
            self._after_ntu(lsu_sender=sender)
        else:
            # Pure ACK: no table changes and nothing to acknowledge back
            # (acknowledging ACKs would chatter forever).
            self._after_ntu(lsu_sender=None)

    def link_down(self, neighbor: NodeId) -> None:
        """Adjacent link failed: pending ACKs from that neighbor are
        treated as received (the paper's deadlock-avoidance rule)."""
        self.pending_acks.pop(neighbor, None)
        super().link_down(neighbor)

    # ------------------------------------------------------------------
    # the Fig. 4 state machine
    # ------------------------------------------------------------------
    def _after_ntu(self, lsu_sender: NodeId | None) -> None:
        self.route_version += 1
        changes: tuple = ()
        if self.state is RouterState.PASSIVE:
            # Step 2: update T and lower the feasible distances.
            changes, repaired = self._mtu()
            self._lower_feasible_distances(repaired)
        elif not self._outstanding():
            # Step 3: the last ACK arrived — leave the ACTIVE phase.  The
            # tree about to be replaced holds D_before: its distance
            # view is every finite D_j.
            before = self.main_table.dist
            self.state = RouterState.PASSIVE
            changes, repaired = self._mtu()
            self._reset_feasible_distances(before, repaired)
        # else: ACTIVE with ACKs outstanding — MTU is deferred.

        # Step 4: successor sets from the LFI rule.  The sets feed only
        # the forwarding layer — no protocol message depends on them —
        # so the recomputation waits until a reader (the router manager,
        # an auditor, a test) actually looks at them; recomputing once
        # per accumulated dirty set yields the same sets as recomputing
        # after every event.
        self._succ_stale = True

        # Steps 5-8: flood changes (going ACTIVE) and/or acknowledge.
        if changes and self.link_costs:
            self.transitions += 1
            for nbr in self.link_costs:
                self._note_sent(nbr)
            self._broadcast(changes, ack_to=lsu_sender)
        elif lsu_sender is not None:
            self._send(lsu_sender, LSUMessage(self.node_id, (), ack=True))

    def _lower_feasible_distances(self, repaired) -> None:
        """Fig. 4 step 2b: ``FD_j = min(FD_j, D_j)`` for every known j.

        D moved since the last FD update only at the nodes MTU just
        ``repaired`` (none when it was skipped): everywhere else FD is
        already at most D, so the lowering visits just those.
        """
        dirty = self._dirty_dests
        below = self._fd_below
        feasible = self.feasible_distance
        distances = self.distances
        for j in repaired:
            d = distances.get(j, INFINITY)
            fd = feasible.get(j, INFINITY)
            if d < fd:
                feasible[j] = d
                dirty.add(j)
                below.discard(j)
            elif fd < d:
                below.add(j)
            else:
                below.discard(j)

    def _reset_feasible_distances(
        self, before: Mapping[NodeId, float], repaired
    ) -> None:
        """Fig. 4 step 3c: ``FD_j = min(D_j^before, D_j^after)``.

        Unlike step 2b this may *raise* FD: every neighbor has ACKed the
        last LSU, so only the just-reported and the about-to-be-reported
        distances can still be in any neighbor's tables.  ``before``
        maps the nodes whose D_before was finite (the previous tree's
        distance view); a missing node had D_before = infinity, and a
        node outside both universes loses its FD entry, as it would
        under ``FD = min(inf, inf)``.

        A destination that MTU did not repair and whose FD equals D
        keeps it, so the reset visits the ``repaired`` nodes and the
        ``_fd_below`` set only.
        """
        dirty = self._dirty_dests
        feasible = self.feasible_distance
        distances = self.distances
        visit = self._fd_below
        self._fd_below = below = set()
        for group in (repaired, visit):
            for j in group:
                b = before.get(j, INFINITY)
                d = distances.get(j, INFINITY)
                fd = b if b < d else d
                if fd == INFINITY:
                    if feasible.pop(j, None) is not None:
                        dirty.add(j)
                else:
                    if feasible.get(j) != fd:
                        dirty.add(j)
                    feasible[j] = fd
                    if fd < d:
                        below.add(j)

    def _recompute_successors(self) -> None:
        """Fig. 4 step 4: :math:`S_j = \\{k : D^i_{jk} < FD^i_j\\}`.

        A destination with no feasible-distance entry has
        :math:`FD = \\infty`; neighbors with finite reported distance
        are then usable — safe because this router has never reported a
        finite distance to that destination, so no neighbor can be
        routing through it (see module docstring).

        The rule for destination *j* reads only *j*'s feasible distance,
        *j*'s row of each neighbor table, and the adjacent-link set; NTU,
        the link events (every row through the neighbor whose link came
        up or failed) and the FD updates record which of those moved, so
        only the dirty destinations are recomputed.
        """
        dirty = self._dirty_dests
        if not dirty:
            return
        self._dirty_dests = set()
        me = self.node_id
        feasible = self.feasible_distance
        successors = self._successor_sets
        intern = self._succ_intern
        nbr_distances = self.nbr_distances
        rows = [(k, nbr_distances.get(k)) for k in self.link_costs]
        for j in dirty:
            if j == me:
                continue
            fd = feasible.get(j, INFINITY)
            chosen = []
            for k, row in rows:
                if k == j:
                    if fd > 0.0:
                        chosen.append(k)
                elif row is not None:
                    dist_kj = row.get(j)
                    if dist_kj is not None and dist_kj < fd:
                        chosen.append(k)
            if chosen:
                chosen = frozenset(chosen)
                successors[j] = intern.setdefault(chosen, chosen)
            else:
                successors.pop(j, None)

    # ------------------------------------------------------------------
    # forwarding-layer queries
    # ------------------------------------------------------------------
    @property
    def successor_sets(self) -> dict[NodeId, frozenset[NodeId]]:
        """:math:`S^i_j` per destination, recomputed lazily on read.

        The stored sets are frozen and shared between destinations with
        the same choice; recomputation replaces them, never edits them.
        """
        if self._succ_stale:
            self._succ_stale = False
            self._recompute_successors()
        return self._successor_sets

    def successors(self, destination: NodeId) -> set[NodeId]:
        """:math:`S^i_j` — may be empty when no loop-free route is known."""
        return set(self.successor_sets.get(destination, ()))

    def successor_snapshot(self) -> dict[NodeId, frozenset[NodeId]]:
        """A diffable copy of the current successor sets.

        A shallow copy suffices: the stored sets are frozensets, so the
        snapshot's values stay frozen-in-time.
        """
        return dict(self.successor_sets)

    def is_passive(self) -> bool:
        return self.state is RouterState.PASSIVE

    def __repr__(self) -> str:
        return f"MPDARouter({self.node_id!r}, {self.state.value})"


def check_safety(
    routers: Mapping[NodeId, MPDARouter],
    destination: NodeId | None = None,
) -> None:
    """Machine-check Theorem 3 over live router states.

    Verifies, for each destination *j* (or just ``destination``), in
    this order:

    1. Eq. (17): every successor's reported distance is below the
       router's feasible distance, router by router;
    2. the global successor graph is acyclic;
    3. Eq. (16), in its reported-value form: each router's feasible
       distance never exceeds the copy of *its own* distance held by any
       neighbor (that copy is what neighbors base their choices on).

    One pass per destination reads each router's ``feasible_distance``,
    ``nbr_distances``, ``link_costs`` and ``successor_sets`` in place.
    No router state is copied: per destination the check builds only
    the map of non-empty successor sets that
    :func:`~repro.graph.validation.find_successor_cycle` peels.  A
    successor must be an up neighbor; one whose row lacks *j* reports
    an infinite distance.  The first violation found is raised, so the
    order above decides which one a broken state reports.  Wherever a
    set would decide that order, ``repr`` order does instead:
    destinations, a router's failing successors and the cycle search's
    branches.  Set iteration order follows the hash seed for string
    ids, so this keeps the message a broken state gets the same in
    every process.

    Raises:
        LFIViolation / LoopError: if the invariant is broken.
    """
    if destination is None:
        destinations: set[NodeId] = set()
        for router in routers.values():
            destinations.update(router.successor_sets)
        order = sorted(destinations, key=repr)
    else:
        order = (destination,)
    states = []
    # Eq. (16) inputs: per router, the rows that its up neighbors (those
    # in ``routers`` that hold it as a neighbor too) keep for it.
    held_rows = []
    for i, router in routers.items():
        links = router.link_costs
        feasible = router.feasible_distance
        states.append(
            (i, router.successor_sets, feasible, router.nbr_distances, links)
        )
        held = []
        for k in links:
            peer = routers.get(k)
            if peer is not None and i in peer.link_costs:
                row = peer.nbr_distances.get(i)
                if row is not None:
                    held.append((k, row))
        if held:
            held_rows.append((i, feasible, held))

    for j in order:
        graph = {}
        for i, successor_sets, feasible, rows, links in states:
            succ = successor_sets.get(j)
            if not succ:
                continue
            graph[i] = succ
            if i == j:
                continue
            fd = feasible.get(j, INFINITY)
            for k in succ:
                if k not in links:
                    break
                row = rows.get(k)
                dist_kj = INFINITY if row is None else row.get(j, INFINITY)
                if not dist_kj < fd:
                    break
            else:
                continue
            raise _eq17_violation(i, j, fd, succ, rows, links)
        cycle = find_successor_cycle(graph)
        if cycle is not None:
            raise LFIViolation(
                f"successor graph for {j!r} has cycle {cycle!r} "
                "(Theorem 1 violated)"
            )
        for i, feasible, held in held_rows:
            if i == j:
                continue
            fd = feasible.get(j, INFINITY)
            if fd == INFINITY:
                continue
            for k, row in held:
                dist = row.get(j)
                if dist is not None and fd > dist + 1e-12:
                    raise LoopError(
                        f"router {i!r}: FD to {j!r} is {fd!r} but neighbor "
                        f"{k!r} holds distance {dist!r} (Eq. 16 violated)"
                    )


def _eq17_violation(i, j, fd, succ, rows, links) -> LFIViolation:
    """The Eq. (17) violation router ``i`` reports for ``j``: its first
    failing successor in ``repr`` order."""
    for k in sorted(succ, key=repr):
        if k not in links:
            return LFIViolation(
                f"router {i!r}: successor {k!r} has no reported "
                f"distance to {j!r}"
            )
        row = rows.get(k)
        dist_kj = INFINITY if row is None else row.get(j, INFINITY)
        if not dist_kj < fd:
            return LFIViolation(
                f"router {i!r}: successor {k!r} has "
                f"D_jk = {dist_kj!r} >= FD = {fd!r} "
                f"(Eq. 17 violated for destination {j!r})"
            )


class IncrementalSafetyCheck:
    """:func:`check_safety` after each event, at the cost of what moved.

    Per router it remembers the ``route_version`` and the successor-set
    map it last saw pass.  A call finds the routers whose version moved
    since then (several, when calls skip events) and re-verifies only
    the conditions that read one of them:

    - Eq. (17) at the router, for every destination it routes to;
    - Eq. (16) in both directions across each of its mutual up links;
    - for each destination whose successor set gained members, a search
      from those members through the routers' successor sets back to
      the router: a cycle the last state did not have uses an edge that
      a set gained, so it passes through that set's router;
    - ``check_safety(routers, j)`` for a destination ``j`` that has just
      entered the checked set (no router routed to it before, so none of
      its Eq. (16) conditions were checked).

    This is complete because the remembered state passed the full check:
    each Eq. (16) or (17) condition reads at most two routers, so one
    that reads no moved router still holds.  Nothing here reads MPDA's
    own records of what moved; the contract is only that an event which
    may change a router's LFI inputs bumps its ``route_version``, and
    that a router replaces a successor set rather than editing it.

    The incremental pass only sorts a state into clean or suspect.  A
    suspect state, the first call, a changed router population, the call
    after a violation and a call with ``full=True`` run the full
    :func:`check_safety`, and its exception is raised: every verdict and
    message is the full check's.  Pass ``full=True`` where state may
    have changed without a version tick.
    """

    __slots__ = ("_seen", "_refs")

    def __init__(self) -> None:
        #: node -> [router, route_version, successor-set map] as last
        #: seen passing; None until a full check passes.
        self._seen: dict[NodeId, list] | None = None
        #: The checked destination set, as counts of the remembered
        #: maps that hold each destination.
        self._refs: dict[NodeId, int] = {}

    def __call__(
        self, routers: Mapping[NodeId, MPDARouter], *, full: bool = False
    ) -> None:
        """Verify Theorem 3 on ``routers``; raises what
        :func:`check_safety` raises."""
        seen = self._seen
        if full or seen is None or len(seen) != len(routers):
            self._full(routers)
            return
        changed = []
        for i, router in routers.items():
            entry = seen.get(i)
            if entry is None or entry[0] is not router:
                self._full(routers)
                return
            if entry[1] != router.route_version:
                changed.append((i, router, entry))
        if changed and not self._clean(routers, changed):
            self._full(routers)

    def _full(self, routers: Mapping[NodeId, MPDARouter]) -> None:
        self._seen = None
        check_safety(routers)
        seen = {}
        refs: dict[NodeId, int] = {}
        for i, router in routers.items():
            sets = dict(router.successor_sets)
            seen[i] = [router, router.route_version, sets]
            for j in sets:
                refs[j] = refs.get(j, 0) + 1
        self._seen = seen
        self._refs = refs

    def _clean(self, routers, changed) -> bool:
        """Whether every condition that reads a moved router holds; the
        memory then describes the current state."""
        refs = self._refs
        fresh = []
        grown = []
        for i, router, entry in changed:
            sets = router.successor_sets
            old = entry[2]
            entry[1] = router.route_version
            entry[2] = dict(sets)
            added = 0
            for j, succ in sets.items():
                before = old.get(j)
                if before is succ:
                    continue
                if before is None:
                    added += 1
                    count = refs.get(j, 0)
                    refs[j] = count + 1
                    if not count:
                        fresh.append(j)
                    gained = succ
                else:
                    gained = succ - before
                if gained:
                    grown.append((i, j, gained))
            if len(sets) - added != len(old):
                for j in old.keys() - sets.keys():
                    count = refs[j] - 1
                    if count:
                        refs[j] = count
                    else:
                        del refs[j]
        for i, router, _ in changed:
            if not _router_holds(routers, i, router, refs):
                return False
        for i, j, gained in grown:
            if _on_cycle(routers, i, j, gained):
                return False
        for j in fresh:
            try:
                check_safety(routers, j)
            except (LFIViolation, LoopError):
                return False
        return True


def _router_holds(routers, i, router, checked) -> bool:
    """Eq. (17) at router ``i`` and Eq. (16) across its mutual up links,
    for the destinations in ``checked``."""
    feasible = router.feasible_distance
    links = router.link_costs
    rows = router.nbr_distances
    for j, succ in router.successor_sets.items():
        if j == i:
            continue
        fd = feasible.get(j, INFINITY)
        for k in succ:
            if k not in links:
                return False
            row = rows.get(k)
            if row is None or not row.get(j, INFINITY) < fd:
                return False
    for k in links:
        peer = routers.get(k)
        if peer is None or i not in peer.link_costs:
            continue
        held = peer.nbr_distances.get(i)
        if held is not None and not _eq16_holds(i, feasible, held, checked):
            return False
        row = rows.get(k)
        if row is not None and not _eq16_holds(
            k, peer.feasible_distance, row, checked
        ):
            return False
    return True


def _eq16_holds(i, feasible, held, checked) -> bool:
    """Eq. (16) for router ``i`` against one neighbor's ``held`` row."""
    for j, fd in feasible.items():
        dist = held.get(j)
        if (
            dist is not None
            and fd > dist + 1e-12
            and j != i
            and j in checked
            and fd != INFINITY
        ):
            return False
    return True


def _on_cycle(routers, i, j, gained) -> bool:
    """Whether router ``i`` reaches itself through the successor sets
    toward ``j`` from one of the successors it ``gained``."""
    stack = list(gained)
    visited = set()
    while stack:
        k = stack.pop()
        if k == i:
            return True
        if k in visited:
            continue
        visited.add(k)
        peer = routers.get(k)
        if peer is not None:
            nxt = peer.successor_sets.get(j)
            if nxt:
                stack.extend(nxt)
    return False
