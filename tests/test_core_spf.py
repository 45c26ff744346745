"""The SP restriction helpers."""

import pytest

from repro.core.spf import restrict_successors


class TestRestrictSuccessors:
    def test_none_keeps_all(self):
        via = {"a": 1.0, "b": 2.0, "c": 3.0}
        assert restrict_successors(via, None) == via

    def test_limit_one_keeps_best(self):
        via = {"a": 2.0, "b": 1.0, "c": 3.0}
        assert restrict_successors(via, 1) == {"b": 1.0}

    def test_limit_two(self):
        via = {"a": 2.0, "b": 1.0, "c": 3.0}
        assert set(restrict_successors(via, 2)) == {"a", "b"}

    def test_limit_larger_than_set(self):
        via = {"a": 1.0}
        assert restrict_successors(via, 5) == via

    def test_tie_break_deterministic(self):
        via = {"x": 1.0, "y": 1.0}
        assert restrict_successors(via, 1) == restrict_successors(via, 1)

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            restrict_successors({"a": 1.0, "b": 2.0}, 0)

    def test_empty_passthrough(self):
        assert restrict_successors({}, 1) == {}

