"""IH and AH flow-allocation heuristics (Figs. 6-7) and Property 1."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import AllocationTable, ah, ih, validate_property1
from repro.exceptions import AllocationError

distances = st.dictionaries(
    st.sampled_from(["k1", "k2", "k3", "k4", "k5"]),
    st.floats(1e-6, 10.0),
    min_size=1,
    max_size=5,
)


class TestIH:
    def test_single_successor_gets_everything(self):
        assert ih({"k": 3.0}) == {"k": 1.0}

    def test_two_successors_inverse_to_distance(self):
        phi = ih({"near": 1.0, "far": 3.0})
        # (1 - 1/4) / 1 = 0.75 and (1 - 3/4) / 1 = 0.25
        assert phi["near"] == pytest.approx(0.75)
        assert phi["far"] == pytest.approx(0.25)

    def test_equal_distances_equal_split(self):
        phi = ih({"a": 2.0, "b": 2.0, "c": 2.0})
        assert all(v == pytest.approx(1 / 3) for v in phi.values())

    def test_all_zero_distances_uniform(self):
        phi = ih({"a": 0.0, "b": 0.0})
        assert phi == {"a": 0.5, "b": 0.5}

    def test_empty_set_rejected(self):
        with pytest.raises(AllocationError):
            ih({})

    def test_invalid_distance_rejected(self):
        with pytest.raises(AllocationError):
            ih({"a": -1.0})
        with pytest.raises(AllocationError):
            ih({"a": float("nan")})
        # An infinite distance used to give the other successors NaN.
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(
                AllocationError, match=re.escape(f"via 'b': {bad!r}")
            ):
                ih({"a": 1.0, "b": bad})
        # Finite distances whose sum overflows used to give every
        # successor 1 / (n - 1), a split summing past one.
        for distances, via in (
            ({"a": 1e308, "b": 1e308}, "via 'a', 'b' sum to inf"),
            ({"a": 1e308, "b": 1e308, "c": 1e308}, "via 'a', 'b', 'c' sum"),
        ):
            with pytest.raises(AllocationError, match=re.escape(via)):
                ih(distances)

    @settings(max_examples=200, deadline=None)
    @given(d=distances)
    def test_property1_always(self, d):
        phi = ih(d)
        validate_property1(phi, d.keys())

    @settings(max_examples=100, deadline=None)
    @given(d=distances)
    def test_monotone_larger_distance_smaller_share(self, d):
        """The paper: 'the greater the marginal delay through a neighbor,
        the smaller the fraction of traffic forwarded to it'."""
        phi = ih(d)
        items = sorted(d.items(), key=lambda kv: kv[1])
        for (k1, d1), (k2, d2) in zip(items, items[1:]):
            if d1 < d2:
                assert phi[k1] >= phi[k2] - 1e-12


class TestAH:
    def test_fixed_point_when_equalized(self):
        phi = {"a": 0.6, "b": 0.4}
        assert ah(phi, {"a": 2.0, "b": 2.0}) == phi

    def test_moves_toward_best(self):
        phi = {"a": 0.5, "b": 0.5}
        adjusted = ah(phi, {"a": 1.0, "b": 3.0})
        assert adjusted["a"] > 0.5
        assert adjusted["b"] < 0.5

    def test_min_ratio_zeroes_one_successor(self):
        """The paper's eta = min(phi/a) drives (at least) one phi to 0."""
        phi = {"a": 0.5, "b": 0.3, "c": 0.2}
        adjusted = ah(phi, {"a": 1.0, "b": 2.0, "c": 3.0})
        assert min(adjusted.values()) == pytest.approx(0.0, abs=1e-12)

    def test_damping_halves_the_step(self):
        phi = {"a": 0.5, "b": 0.5}
        full = ah(phi, {"a": 1.0, "b": 2.0})
        half = ah(phi, {"a": 1.0, "b": 2.0}, damping=0.5)
        assert full["a"] - 0.5 == pytest.approx(2 * (half["a"] - 0.5))

    def test_amount_moved_proportional_to_excess(self):
        phi = {"a": 0.4, "b": 0.3, "c": 0.3}
        adjusted = ah(phi, {"a": 1.0, "b": 2.0, "c": 3.0}, damping=0.5)
        moved_b = phi["b"] - adjusted["b"]
        moved_c = phi["c"] - adjusted["c"]
        # excesses are 1.0 and 2.0
        assert moved_c == pytest.approx(2 * moved_b)

    def test_single_successor_identity(self):
        assert ah({"a": 1.0}, {"a": 7.0}) == {"a": 1.0}

    def test_key_mismatch_rejected(self):
        with pytest.raises(AllocationError):
            ah({"a": 1.0}, {"b": 1.0})

    def test_bad_damping_rejected(self):
        with pytest.raises(AllocationError):
            ah({"a": 0.5, "b": 0.5}, {"a": 1.0, "b": 2.0}, damping=0.0)

    @pytest.mark.parametrize(
        "distance_via, bad",
        [
            # Was a bare ValueError from min() of an empty tie list.
            pytest.param({"a": math.nan, "b": 3.0}, "a", id="nan-first"),
            # Was read as a fixed point: the entry came back unchanged.
            pytest.param({"a": 1.0, "b": math.nan}, "b", id="nan-later"),
            # Was a 0 * inf step that made every fraction NaN.
            pytest.param({"a": 1.0, "b": math.inf}, "b", id="inf"),
            # Was accepted, although IH rejects it.
            pytest.param({"a": 1.0, "b": -2.0}, "b", id="negative"),
        ],
    )
    def test_invalid_distance_rejected(self, distance_via, bad):
        with pytest.raises(
            AllocationError,
            match=re.escape(f"via {bad!r}: {distance_via[bad]!r}"),
        ):
            ah({"a": 0.5, "b": 0.5}, distance_via)

    @settings(max_examples=200, deadline=None)
    @given(d=distances, data=st.data())
    def test_property1_always(self, d, data):
        start = ih(d)
        adjusted = ah(start, d)
        validate_property1(adjusted, d.keys())

    @settings(max_examples=100, deadline=None)
    @given(d=distances)
    def test_repeated_ah_converges_to_best_successor(self, d):
        """With static distances, AH concentrates on the minimum (the
        fixed points of AH are exactly the equal-marginal allocations;
        with frozen inputs only the best successor survives)."""
        phi = ih(d)
        for _ in range(60):
            phi = ah(phi, d)
        best = min(d.values())
        mass_on_best = sum(
            phi[k] for k in phi if d[k] == pytest.approx(best)
        )
        assert mass_on_best == pytest.approx(1.0, abs=1e-6)


class TestValidateProperty1:
    def test_accepts_empty(self):
        validate_property1({}, [])

    def test_rejects_negative(self):
        with pytest.raises(AllocationError):
            validate_property1({"a": -0.1, "b": 1.1}, ["a", "b"])

    def test_rejects_off_successor_mass(self):
        with pytest.raises(AllocationError):
            validate_property1({"x": 1.0}, ["a"])

    def test_rejects_bad_sum(self):
        with pytest.raises(AllocationError):
            validate_property1({"a": 0.7}, ["a"])
        # NaN compares False with everything, so it passes a plain
        # "total differs from 1" or "fraction < 0" test.
        for phi in ({"a": math.nan}, {"a": 1.0, "b": math.nan}):
            with pytest.raises(AllocationError, match="is not a number"):
                validate_property1(phi, ["a", "b"])


class TestAllocationTable:
    def test_first_update_runs_ih(self):
        table = AllocationTable("r")
        phi = table.update("j", {"a": 1.0, "b": 3.0})
        assert phi == ih({"a": 1.0, "b": 3.0})

    def test_same_set_runs_ah(self):
        table = AllocationTable("r")
        first = table.update("j", {"a": 1.0, "b": 3.0})
        second = table.update("j", {"a": 1.0, "b": 3.0})
        assert second == ah(first, {"a": 1.0, "b": 3.0})

    def test_set_change_reruns_ih(self):
        table = AllocationTable("r")
        table.update("j", {"a": 1.0, "b": 3.0})
        phi = table.update("j", {"a": 1.0, "c": 2.0})
        assert phi == ih({"a": 1.0, "c": 2.0})

    def test_empty_update_clears(self):
        table = AllocationTable("r")
        table.update("j", {"a": 1.0})
        assert table.update("j", {}) == {}
        assert table.as_phi() == {}

    def test_as_phi_shape(self):
        table = AllocationTable("r")
        table.update("j", {"a": 1.0})
        table.update("k", {"b": 1.0})
        phi = table.as_phi()
        assert phi == {"j": {"a": 1.0}, "k": {"b": 1.0}}

    def test_unchanged_result_keeps_the_stored_entry(self):
        """AH at a fixed point returns the stored object, which every
        reader is handed as is."""
        table = AllocationTable("r")
        first = table.update("j", {"a": 1.0, "b": 1.0})
        assert table.update("j", {"a": 1.0, "b": 1.0}) is first
        assert table.as_phi()["j"] is first

    def test_reordered_result_is_a_new_entry(self):
        """A step too small to move any float still appends the best
        successor last: equal in content, but a new entry, since the
        key order is part of it."""
        table = AllocationTable("r", damping=1e-300)
        first = table.update("j", {"a": 1.0, "b": 1.0})
        assert list(first.items()) == [("a", 0.5), ("b", 0.5)]
        second = table.update("j", {"a": 1.0, "b": 2.0})
        assert second == first
        assert second is not first
        assert list(second.items()) == [("b", 0.5), ("a", 0.5)]
        assert table.update("j", {"a": 1.0, "b": 2.0}) is second

    def test_property1_failure_names_router_and_destination(
        self, monkeypatch
    ):
        """A new entry that breaks Property 1 fails, naming where it is.
        AH itself now rejects the infinite distance that once made such
        an entry, so a stub stands in for it."""
        table = AllocationTable("r")
        table.update("j", {"a": 1.0, "b": 3.0})
        monkeypatch.setattr(
            "repro.core.allocation.ah",
            lambda phi, distance_via, damping: {"a": 1.0, "b": math.nan},
        )
        with pytest.raises(
            AllocationError,
            match=r"router 'r' toward 'j': phi\['b'\] = nan is not a number",
        ):
            table.update("j", {"a": 1.0, "b": 2.0})

    def test_bad_distance_names_router_and_destination(self):
        table = AllocationTable("r")
        table.update("j", {"a": 1.0, "b": 3.0})
        with pytest.raises(
            AllocationError,
            match=r"router 'r' toward 'j': invalid marginal distance "
            r"via 'b': inf",
        ):
            table.update("j", {"a": 1.0, "b": math.inf})

    def test_damping_passed_through(self):
        plain = AllocationTable("r")
        damped = AllocationTable("r", damping=0.5)
        d = {"a": 1.0, "b": 2.0}
        plain.update("j", d)
        damped.update("j", d)
        assert plain.update("j", d)["a"] > damped.update("j", d)["a"]
