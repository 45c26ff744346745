"""Link-state update (LSU) messages and topology tables.

The unit of information exchanged between routers is the LSU message: one
or more entries, each the triplet ``[h, t, d]`` (head, tail, cost of link
``h -> t``) tagged *add*, *change* or *delete*, plus an ACK flag used by
MPDA to acknowledge the previous LSU from that neighbor.

A :class:`TopologyTable` stores one router's view of some set of links.
Each router keeps a *main* table ``T_i`` (its own shortest-path tree after
MTU) and one *neighbor* table ``T_k_i`` per neighbor — a time-delayed copy
of that neighbor's main table.
"""

from __future__ import annotations

import enum
import itertools
import os
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field

from repro.graph.topology import LinkId, NodeId

INFINITY = float("inf")

#: Shared empty mapping returned by no-copy view accessors.
_EMPTY_LINKS: Mapping = {}


class EntryOp(enum.Enum):
    """What an LSU entry does to the receiver's neighbor table."""

    ADD = "add"
    CHANGE = "change"
    DELETE = "delete"


@dataclass(frozen=True)
class LinkEntry:
    """One LSU entry: the link ``head -> tail`` with cost ``cost``."""

    op: EntryOp
    head: NodeId
    tail: NodeId
    cost: float = INFINITY

    def __str__(self) -> str:  # compact form used in protocol traces
        if self.op is EntryOp.DELETE:
            return f"-({self.head}->{self.tail})"
        sign = "+" if self.op is EntryOp.ADD else "~"
        return f"{sign}({self.head}->{self.tail}:{self.cost:.4g})"


class _LSUSequence:
    """The process-wide LSU sequence, resettable and fork-safe.

    ``seq`` exists for traces, causal tags and debugging only (PDA
    validates link information by distance to the head node, never by
    sequence number), but the causal tracker keys in-flight message
    tags by it, so reproducibility demands that a run's sequence stream
    be a function of the run alone: a fleet worker resets the counter
    before each cell (:func:`reset_lsu_sequence`), and a fork starts the
    child at 1 automatically (``os.register_at_fork`` below), so any
    cell replayed standalone sees byte-identical sequence numbers.
    """

    __slots__ = ("_count",)

    def __init__(self) -> None:
        self._count = itertools.count(1)

    def __call__(self) -> int:
        return next(self._count)

    def reset(self) -> None:
        self._count = itertools.count(1)


_sequence = _LSUSequence()


def reset_lsu_sequence() -> None:
    """Restart LSU sequence numbers at 1 (fleet cells, test isolation).

    Safe whenever no driver is mid-run: routers never compare sequence
    numbers, and the causal tag map is cleared at every quiescence.
    """
    _sequence.reset()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX
    os.register_at_fork(after_in_child=reset_lsu_sequence)


@dataclass(frozen=True)
class LSUMessage:
    """A link-state update from ``sender``.

    Attributes:
        sender: the originating router.
        entries: topology differences (may be empty for a pure ACK).
        ack: True when this message also acknowledges the last LSU
            received from the destination neighbor (MPDA only).
        seq: monotonically increasing id, for traces and debugging only —
            the protocol itself never inspects it (PDA validates link
            information by distance to the head node, not sequence
            numbers).
        snapshot: optional :class:`FrozenTree` of the sender's tree
            after applying ``entries`` — a shared-reference shortcut
            for receivers whose copy already matches the state the
            entries were diffed against.  Purely an acceleration: the
            entries alone carry the full protocol content.
    """

    sender: NodeId
    entries: tuple[LinkEntry, ...] = ()
    ack: bool = False
    seq: int = field(default_factory=_sequence)
    snapshot: "FrozenTree | None" = field(
        default=None, compare=False, repr=False
    )

    @property
    def is_pure_ack(self) -> bool:
        return self.ack and not self.entries

    def __str__(self) -> str:
        body = ",".join(str(e) for e in self.entries) or "empty"
        flag = "+ack" if self.ack else ""
        return f"LSU#{self.seq}[{self.sender}:{body}{flag}]"


class TopologyTable:
    """A set of directed links with costs — one router's view of a graph.

    Alongside the flat link map the table maintains three derived
    indexes, updated O(1) per mutation, that the protocol hot path leans
    on:

    - ``_by_head[h]``: the links leaving ``h`` (MTU copies a node's
      outgoing links from its preferred neighbor's table — a full link
      scan per node would make MTU quadratic);
    - ``_in_links[n]``: the links *into* ``n`` (in a main table, each
      node's tree link, which :func:`~repro.core.pda.repair_tree`
      reads);
    - ``_node_refs[n]``: how many link endpoints mention ``n`` (so the
      node set needs no scan).

    :meth:`in_links_view`, :meth:`link_groups_view` and
    :meth:`nodes_map_view` expose the three indexes read-only.
    """

    def __init__(self, links: Mapping[LinkId, float] | None = None) -> None:
        self._links: dict[LinkId, float] = {}
        self._by_head: dict[NodeId, dict[LinkId, float]] = {}
        self._node_refs: dict[NodeId, int] = {}
        self._in_links: dict[NodeId, dict[NodeId, float]] = {}
        if links:
            for (head, tail), cost in links.items():
                self.set_link(head, tail, cost)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def set_link(self, head: NodeId, tail: NodeId, cost: float) -> bool:
        """Add or update a link; True when the table changed."""
        link_id = (head, tail)
        links = self._links
        old = links.get(link_id)
        if old is not None and old == cost:
            return False
        links[link_id] = cost
        self._by_head.setdefault(head, {})[link_id] = cost
        self._in_links.setdefault(tail, {})[head] = cost
        if old is None:
            refs = self._node_refs
            refs[head] = refs.get(head, 0) + 1
            refs[tail] = refs.get(tail, 0) + 1
        return True

    def delete_link(self, head: NodeId, tail: NodeId) -> bool:
        """Remove a link; True when it existed."""
        link_id = (head, tail)
        if self._links.pop(link_id, None) is None:
            return False
        outgoing = self._by_head[head]
        del outgoing[link_id]
        if not outgoing:
            del self._by_head[head]
        refs = self._node_refs
        for node in (head, tail):
            left = refs[node] - 1
            if left:
                refs[node] = left
            else:
                del refs[node]
        incoming = self._in_links[tail]
        del incoming[head]
        if not incoming:
            del self._in_links[tail]
        return True

    def apply(self, entries: Iterable[LinkEntry]) -> bool:
        """Apply LSU entries in order; True when anything changed."""
        changed = False
        for entry in entries:
            if entry.op is EntryOp.DELETE:
                changed = self.delete_link(entry.head, entry.tail) or changed
            else:
                changed = (
                    self.set_link(entry.head, entry.tail, entry.cost) or changed
                )
        return changed

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def links(self) -> dict[LinkId, float]:
        """All links as a plain cost map (a copy)."""
        return dict(self._links)

    def links_with_head_view(self, head: NodeId) -> Mapping[LinkId, float]:
        """Read-only view of the links leaving ``head`` (no copy).

        The MTU inner loop only iterates the result; callers must not
        mutate it or hold it across table mutations.
        """
        return self._by_head.get(head, _EMPTY_LINKS)

    def links_view(self) -> Mapping[LinkId, float]:
        """The live link map (read-only; do not hold across mutations)."""
        return self._links

    def link_groups_view(self) -> Mapping[NodeId, Mapping[LinkId, float]]:
        """The links grouped by head, ``{head: {(head, tail): cost}}``.

        The live index (no copy): read-only, and not to be held across
        mutations.  On a tree, ``head``'s group lists its children.
        """
        return self._by_head

    def in_links_view(self) -> Mapping[NodeId, Mapping[NodeId, float]]:
        """The links grouped by tail, ``{tail: {head: cost}}``.

        The live index (no copy): read-only, and not to be held across
        mutations.  On a tree, every node but the root has exactly one
        entry, its predecessor.
        """
        return self._in_links

    def nodes_map_view(self) -> Mapping[NodeId, object]:
        """The node set as a mapping (values meaningless; no copy).

        Lets callers merge node sets with one C-level ``dict.update``
        instead of materializing an intermediate ``dict.fromkeys``.
        """
        return self._node_refs

    def full_dump(self) -> tuple[LinkEntry, ...]:
        """ADD entries for every link — sent to a newly-up neighbor."""
        return tuple(
            LinkEntry(EntryOp.ADD, head, tail, cost)
            for (head, tail), cost in self._links.items()
        )

    def __len__(self) -> int:
        return len(self._links)

    def __iter__(self) -> Iterator[LinkId]:
        return iter(self._links)

    def __contains__(self, link_id: LinkId) -> bool:
        return link_id in self._links

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TopologyTable):
            return NotImplemented
        return self._links == other._links

    def __repr__(self) -> str:
        return f"TopologyTable({len(self._links)} links)"


class FrozenTree:
    """An immutable tree snapshot flooded alongside an LSU.

    Built once by the sender when MTU changes its tree, and shared by
    reference with every receiver of the flood.  A receiver may adopt it
    in place of replaying the LSU entries exactly when its current copy
    of the sender's table equals the state the entries were diffed
    against — either the copy *is* the sender's previous snapshot (same
    object, recognized by version), or the copy is empty and the entries
    rebuild the tree from scratch (``applies_to_empty``).  In both cases
    the swap lands the receiver on the same table content and the same
    distance values the entry replay would produce, by construction, at
    O(1) instead of an entry replay plus a Dijkstra run over the whole
    table.  Any other receiver state (duplicated or reordered delivery
    over a raw faulty channel) ignores the snapshot and takes the entry
    path.

    Instances are shared across routers and must never be mutated; a
    receiver that needs to edit its copy materializes a mutable
    :class:`TopologyTable` with :meth:`thaw` first.  A sender's next
    snapshot shares every per-head link group that did not change with
    this one and holds fresh dicts for the rest.

    Attributes:
        version: the sender's table version this snapshot captures.
        prev_version: the version the LSU entries were diffed against
            (None for a full-table greeting dump).
        applies_to_empty: True when folding the entries onto an *empty*
            table yields exactly this snapshot's content (full dumps,
            and diffs taken against an empty tree).
        dist: distances from the sender within the tree (tree nodes
            plus the sender) — what the receiver's NTU would compute.
        changed_rows: destinations whose ``dist`` entry differs from
            the predecessor state's, i.e. the row diff the receiver's
            NTU would report.
    """

    __slots__ = (
        "version",
        "prev_version",
        "applies_to_empty",
        "dist",
        "changed_rows",
        "_by_head",
        "_nodes",
        "_n_links",
    )

    def __init__(
        self,
        *,
        version: int,
        prev_version: int | None,
        applies_to_empty: bool,
        dist: dict[NodeId, float],
        changed_rows: set[NodeId],
        by_head: dict[NodeId, dict[LinkId, float]],
        nodes: dict[NodeId, None],
        n_links: int,
    ) -> None:
        self.version = version
        self.prev_version = prev_version
        self.applies_to_empty = applies_to_empty
        self.dist = dist
        self.changed_rows = changed_rows
        self._by_head = by_head
        self._nodes = nodes
        self._n_links = n_links

    def as_full(self, root: NodeId) -> "FrozenTree":
        """A full-dump variant of this snapshot (greeting messages).

        Shares every underlying mapping; only the acceptance metadata
        differs: it applies to an empty table and every row counts as
        changed relative to that empty baseline.
        """
        changed = set(self.dist)
        changed.discard(root)
        return FrozenTree(
            version=self.version,
            prev_version=None,
            applies_to_empty=True,
            dist=self.dist,
            changed_rows=changed,
            by_head=self._by_head,
            nodes=self._nodes,
            n_links=self._n_links,
        )

    def thaw(self) -> TopologyTable:
        """A mutable :class:`TopologyTable` with this snapshot's links."""
        table = TopologyTable()
        for group in self._by_head.values():
            for (head, tail), cost in group.items():
                table.set_link(head, tail, cost)
        return table

    # Read-only surface shared with TopologyTable (what MTU touches).
    def links_with_head_view(self, head: NodeId) -> Mapping[LinkId, float]:
        return self._by_head.get(head, _EMPTY_LINKS)

    def link_groups_view(self) -> Mapping[NodeId, Mapping[LinkId, float]]:
        return self._by_head

    def nodes_map_view(self):
        return self._nodes

    def links(self) -> dict[LinkId, float]:
        out: dict[LinkId, float] = {}
        for group in self._by_head.values():
            out.update(group)
        return out

    def __len__(self) -> int:
        return self._n_links

    def __repr__(self) -> str:
        return f"FrozenTree(v{self.version}, {self._n_links} links)"
