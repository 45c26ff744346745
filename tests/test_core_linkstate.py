"""LSU messages and topology tables."""

from repro.core.linkstate import (
    EntryOp,
    LinkEntry,
    LSUMessage,
    TopologyTable,
)
from repro.core.pda import PDARouter


class TestLinkEntry:
    def test_string_forms(self):
        add = LinkEntry(EntryOp.ADD, "a", "b", 2.0)
        change = LinkEntry(EntryOp.CHANGE, "a", "b", 3.0)
        delete = LinkEntry(EntryOp.DELETE, "a", "b")
        assert str(add).startswith("+")
        assert str(change).startswith("~")
        assert str(delete).startswith("-")


class TestLSUMessage:
    def test_sequence_increases(self):
        m1 = LSUMessage("a")
        m2 = LSUMessage("a")
        assert m2.seq > m1.seq


class TestTopologyTable:
    def test_set_and_cost(self):
        table = TopologyTable()
        table.set_link("a", "b", 2.0)
        assert table.links() == {("a", "b"): 2.0}
        assert ("b", "a") not in table

    def test_apply_entries(self):
        table = TopologyTable()
        table.apply(
            [
                LinkEntry(EntryOp.ADD, "a", "b", 1.0),
                LinkEntry(EntryOp.ADD, "b", "c", 2.0),
                LinkEntry(EntryOp.CHANGE, "a", "b", 5.0),
                LinkEntry(EntryOp.DELETE, "b", "c"),
            ]
        )
        assert table.links() == {("a", "b"): 5.0}

    def test_delete_missing_is_noop(self):
        table = TopologyTable()
        table.delete_link("x", "y")  # must not raise
        assert len(table) == 0

    def test_links_with_head(self):
        table = TopologyTable({("a", "b"): 1.0, ("a", "c"): 2.0, ("b", "c"): 3.0})
        assert table.groups["a"] == {"b": 1.0, "c": 2.0}
        assert "c" not in table.groups

    def test_groups_are_copied_before_writes(self):
        """A group handed out earlier keeps its content: every write
        installs a fresh group instead of editing the old one."""
        table = TopologyTable({("a", "b"): 1.0, ("a", "c"): 2.0})
        held = table.groups["a"]
        table.set_link("a", "b", 5.0)
        table.delete_link("a", "c")
        table.set_link("a", "d", 1.0)
        assert held == {"b": 1.0, "c": 2.0}
        assert table.groups["a"] == {"b": 5.0, "d": 1.0}

    def test_nodes(self):
        """The node index counts link endpoints, so a node leaves with
        its last link."""
        table = TopologyTable({("a", "b"): 1.0, ("b", "c"): 1.0})
        assert set(table.nodes_map_view()) == {"a", "b", "c"}
        table.delete_link("b", "c")
        assert set(table.nodes_map_view()) == {"a", "b"}

    def test_full_dump(self):
        """A snapshot's greeting dump rebuilds its links in an empty
        table, and so does thawing it, without touching its groups."""
        router = PDARouter("a")
        router.link_up("b", 1.0)
        router.link_up("c", 2.0)
        tree = router.main_table
        groups = {head: dict(group) for head, group in tree.groups.items()}
        fresh = TopologyTable()
        fresh.apply(tree.full_dump())
        assert fresh.links() == tree.links() == {("a", "b"): 1.0, ("a", "c"): 2.0}
        thawed = tree.thaw()
        assert thawed == fresh
        thawed.delete_link("a", "b")
        assert tree.groups == groups
