"""Link-state update (LSU) messages and topology tables.

The unit of information exchanged between routers is the LSU message: one
or more entries, each the triplet ``[h, t, d]`` (head, tail, cost of link
``h -> t``) tagged *add*, *change* or *delete*, plus an ACK flag used by
MPDA to acknowledge the previous LSU from that neighbor.

Each router keeps a *main* table ``T_i`` (its own shortest-path tree after
MTU) and one *neighbor* table ``T_k_i`` per neighbor — a time-delayed copy
of that neighbor's main table.  The main table is a :class:`FrozenTree`,
the immutable snapshot the router floods; a neighbor table is the
sender's snapshot itself, shared by reference, until a delivery the
snapshot cannot stand for turns it into a mutable :class:`TopologyTable`.
Both store links in *groups*, ``{head: {tail: cost}}``, that are never
edited in place, so MTU's candidate graph holds the winning neighbor's
groups by reference instead of copying them.
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

    def __str__(self) -> str:
        body = ",".join(str(e) for e in self.entries) or "empty"
        flag = "+ack" if self.ack else ""
        return f"LSU#{self.seq}[{self.sender}:{body}{flag}]"


class TopologyTable:
    """A mutable set of directed links with costs.

    A receiver edits one only on NTU's replay path: an LSU that cannot
    adopt the sender's snapshot is applied entry by entry to a thawed
    copy of the neighbor's table.  Besides the flat link map (what
    Dijkstra reads) it keeps two indexes, updated per mutation:

    - ``groups[h]``: ``{tail: cost}`` for the links leaving ``h``, the
      *link group* MTU's candidate graph holds by reference.  A group
      is never edited in place: every write installs a fresh copy
      (O(out-degree) on this rare path), so a reference taken earlier
      keeps its content.  Read-only to callers, as on
      :class:`FrozenTree`;
    - ``_node_refs[n]``: how many link endpoints mention ``n`` (so the
      node set needs no scan).
    """

    def __init__(self, links: Mapping[LinkId, float] | None = None) -> None:
        self._links: dict[LinkId, float] = {}
        self.groups: dict[NodeId, dict[NodeId, float]] = {}
        self._node_refs: dict[NodeId, int] = {}
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
        group = dict(self.groups.get(head, _EMPTY_LINKS))
        group[tail] = cost
        self.groups[head] = group
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
        group = dict(self.groups[head])
        del group[tail]
        if group:
            self.groups[head] = group
        else:
            del self.groups[head]
        refs = self._node_refs
        for node in (head, tail):
            left = refs[node] - 1
            if left:
                refs[node] = left
            else:
                del refs[node]
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

    def links_view(self) -> Mapping[LinkId, float]:
        """The live link map (read-only; do not hold across mutations)."""
        return self._links

    def nodes_map_view(self) -> Mapping[NodeId, object]:
        """The node set as a mapping (values meaningless; no copy)."""
        return self._node_refs

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
    """An immutable shortest-path tree: a router's main table, as flooded.

    A router's main table *is* its latest snapshot.  A changed MTU
    builds the next one and floods it alongside the LSU entries, and
    every receiver of the flood shares it by reference.  A receiver may
    adopt it in place of replaying the entries exactly when its current
    copy of the sender's table equals the state the entries were diffed
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
    snapshot shares every link group that did not change with this one
    and holds fresh dicts for the rest.

    Attributes:
        version: the sender's table version this snapshot captures.
        prev_version: the version the LSU entries were diffed against
            (None for a full-table greeting dump).
        applies_to_empty: True when folding the entries onto an *empty*
            table yields exactly this snapshot's content (full dumps,
            and diffs taken against an empty tree).
        dist: distances from the sender within the tree (tree nodes
            plus the sender) — what the receiver's NTU would compute.
            Its keys are also the tree's node set.
        changed_rows: destinations whose ``dist`` entry differs from
            the predecessor state's, i.e. the row diff the receiver's
            NTU would report.
        joined / left: the tree nodes (never the sender) that entered
            or left ``dist`` since ``prev_version`` — what a receiver
            holding that version folds into its known-node counts.
        groups: ``{head: {tail: cost}}``, the tree's links grouped by
            head; on a tree, ``head``'s group lists its children.
    """

    __slots__ = (
        "version",
        "prev_version",
        "applies_to_empty",
        "dist",
        "changed_rows",
        "joined",
        "left",
        "groups",
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
        joined: tuple[NodeId, ...],
        left: tuple[NodeId, ...],
        groups: dict[NodeId, dict[NodeId, float]],
        n_links: int,
    ) -> None:
        self.version = version
        self.prev_version = prev_version
        self.applies_to_empty = applies_to_empty
        self.dist = dist
        self.changed_rows = changed_rows
        self.joined = joined
        self.left = left
        self.groups = groups
        self._n_links = n_links

    @classmethod
    def empty(cls, root: NodeId) -> "FrozenTree":
        """Version 0: the tree of a router that knows no links yet."""
        return cls(
            version=0,
            prev_version=None,
            applies_to_empty=True,
            dist={root: 0.0},
            changed_rows=set(),
            joined=(),
            left=(),
            groups={},
            n_links=0,
        )

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
            joined=(),
            left=(),
            groups=self.groups,
            n_links=self._n_links,
        )

    def full_dump(self) -> tuple[LinkEntry, ...]:
        """ADD entries for every link — sent to a newly-up neighbor."""
        return tuple(
            LinkEntry(EntryOp.ADD, head, tail, cost)
            for head, group in self.groups.items()
            for tail, cost in group.items()
        )

    def thaw(self) -> TopologyTable:
        """A mutable :class:`TopologyTable` with this snapshot's links.

        The table starts out sharing this snapshot's link groups; it
        copies a group before writing it.
        """
        table = TopologyTable()
        links = table._links
        refs = table._node_refs
        for head, group in self.groups.items():
            for tail, cost in group.items():
                links[(head, tail)] = cost
                refs[head] = refs.get(head, 0) + 1
                refs[tail] = refs.get(tail, 0) + 1
        table.groups = dict(self.groups)
        return table

    # Read-only surface shared with TopologyTable (what MTU touches).
    def nodes_map_view(self) -> Mapping[NodeId, object]:
        return self.dist

    def links(self) -> dict[LinkId, float]:
        return {
            (head, tail): cost
            for head, group in self.groups.items()
            for tail, cost in group.items()
        }

    def __len__(self) -> int:
        return self._n_links

    def __repr__(self) -> str:
        return f"FrozenTree(v{self.version}, {self._n_links} links)"
