"""The Theorem-3 check: ``check_safety`` against its naive reference.

``repro.core.mpda.check_safety`` reads router state in place and peels
each successor graph; ``repro.testing.safety_reference.check_safety``
copies the state into maps and runs its own depth-first search.  Both
must give the same verdict on every state: clean, or the same exception
type with the same message.
"""

import copy
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lfi import LFIViolation
from repro.core.linkstate import INFINITY
from repro.core.mpda import check_safety
from repro.exceptions import LoopError, ReproError
from repro.testing import safety_reference
from repro.testing.fuzz import generate_case, run_case

#: Share of deliveries at which the property also checks a perturbed
#: copy of the routers.
PERTURB_RATE = 0.1


def _verdict(check, routers):
    try:
        check(routers)
    except (LFIViolation, LoopError) as error:
        return error
    return None


def _key(error):
    return None if error is None else (type(error), str(error))


def assert_same_verdict(routers):
    """Run both checks on ``routers``; the production error, or None."""
    got = _verdict(check_safety, routers)
    want = _verdict(safety_reference.check_safety, routers)
    if _key(got) != _key(want):
        pytest.fail(
            f"check_safety gave {_key(got)!r}, the reference {_key(want)!r}"
        )
    return got


def _add_successor(sets, j, k):
    """Replace ``sets[j]`` with a set that also holds ``k``: routers
    store their successor sets frozen (and shared between
    destinations), so the perturbation must not edit them in place."""
    sets[j] = frozenset(sets.get(j, ())) | {k}


def perturb(routers, rng):
    """A deep copy of ``routers`` with one router's state edited.

    The edit is one of: an up neighbor or an arbitrary node added to a
    successor set, a feasible distance scaled by 0.5, 2 or 10, a held
    neighbor distance lowered, or two adjacent routers made each
    other's successors with feasible distances raised above what they
    hold for each other.
    """
    routers = copy.deepcopy(routers)
    nodes = list(routers)
    i = rng.choice(nodes)
    router = routers[i]
    sets = router.successor_sets  # folds in any pending recomputation
    j = rng.choice(nodes)
    kind = rng.randrange(5)
    if kind == 0 and router.link_costs:
        _add_successor(sets, j, rng.choice(list(router.link_costs)))
    elif kind == 1:
        _add_successor(sets, j, rng.choice(nodes))
    elif kind == 2 and j in router.feasible_distance:
        router.feasible_distance[j] *= rng.choice((0.5, 2.0, 10.0))
    elif kind == 3:
        rows = [row for row in router.nbr_distances.values() if j in row]
        if rows:
            row = rng.choice(rows)
            row[j] = row[j] * 0.5 - 1e-9
    elif kind == 4:
        peers = [
            k
            for k in router.link_costs
            if k in routers and k != j and i in routers[k].link_costs
        ]
        if peers and i != j:
            k = rng.choice(peers)
            peer = routers[k]
            _add_successor(sets, j, k)
            _add_successor(peer.successor_sets, j, i)
            raised = 1.0 + max(
                router.neighbor_distance(k, j), peer.neighbor_distance(i, j)
            )
            router.feasible_distance[j] = raised
            peer.feasible_distance[j] = raised
    return routers


def run_compared(case, rng, perturb_rate=PERTURB_RATE):
    """Run ``case`` with both checks compared after every delivery.

    Returns how many states were compared and the perturbed copies'
    verdicts.  A violation of the real state still ends the run, as the
    production check would.
    """
    compared = 0
    perturbed = []

    def compare(routers):
        nonlocal compared
        compared += 1
        error = assert_same_verdict(routers)
        if rng.random() < perturb_rate:
            perturbed.append(_key(assert_same_verdict(perturb(routers, rng))))
        if error is not None:
            raise error

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.core.driver.check_safety", compare)
        try:
            run_case(replace(case, check_invariants=True))
        except (ReproError, LFIViolation):
            pass  # raw channels may break the paper's assumptions
    return compared, perturbed


@settings(deadline=None)
@given(seed=st.integers(0, 100_000), reliable=st.booleans())
def test_check_safety_matches_the_reference(seed, reliable):
    """Over fuzzed reliable and raw schedules, every delivered state and
    a sample of perturbed copies get the reference's verdict.
    ``max_examples`` comes from the active hypothesis profile."""
    compared, _ = run_compared(
        generate_case(seed, reliable=reliable), random.Random(seed)
    )
    assert compared > 0


def test_perturbations_reach_every_violation_kind():
    """The perturbed copies exercise every branch the checks can raise,
    and some stay clean."""
    rng = random.Random(7)
    kinds = set()
    for seed in (0, 3, 5):
        _, verdicts = run_compared(generate_case(seed), rng, perturb_rate=0.5)
        for verdict in verdicts:
            kinds.add(_violation_kind(verdict))
    assert kinds == {"clean", "missing", "eq17", "cycle", "eq16"}


def _violation_kind(verdict):
    if verdict is None:
        return "clean"
    message = verdict[1]
    for kind, marker in (
        ("missing", "no reported distance"),
        ("eq17", "Eq. 17"),
        ("cycle", "has cycle"),
        ("eq16", "Eq. 16"),
    ):
        if marker in message:
            return kind
    return message


# ----------------------------------------------------------------------
# hand-built states
# ----------------------------------------------------------------------
class StubRouter:
    """The router fields ``check_safety`` and its reference read."""

    def __init__(self, feasible=None, rows=None, successors=None):
        self.feasible_distance = dict(feasible or {})
        self.nbr_distances = {k: dict(row) for k, row in (rows or {}).items()}
        self.link_costs = dict.fromkeys(self.nbr_distances, 1.0)
        self.successor_sets = {
            j: set(succ) for j, succ in (successors or {}).items()
        }

    def neighbor_distance(self, neighbor, destination):
        return self.nbr_distances.get(neighbor, {}).get(destination, INFINITY)

    def up_neighbors(self):
        return list(self.link_costs)


def _chain():
    """a -> b -> j, each router's FD above its successor's distance."""
    return {
        "a": StubRouter({"j": 2.0}, {"b": {"j": 1.0}}, {"j": {"b"}}),
        "b": StubRouter(
            {"j": 1.0}, {"a": {"j": 2.0}, "j": {"j": 0.0}}, {"j": {"j"}}
        ),
        "j": StubRouter({}, {"b": {"j": 1.0}}),
    }


def _raises(routers, error, match):
    for check in (check_safety, safety_reference.check_safety):
        with pytest.raises(error, match=match):
            check(routers)
    assert_same_verdict(routers)


class TestCheckSafetyStates:
    def test_valid_state_passes(self):
        routers = _chain()
        check_safety(routers)
        check_safety(routers, "j")
        assert assert_same_verdict(routers) is None

    def test_eq17_violation_detected(self):
        routers = _chain()
        routers["a"].feasible_distance["j"] = 1.0  # b is not closer
        _raises(routers, LFIViolation, r"Eq\. 17 violated")

    def test_missing_reported_distance_detected(self):
        routers = _chain()
        routers["a"].successor_sets["j"].add("c")  # not a neighbor
        _raises(routers, LFIViolation, "has no reported distance")

    def test_cycle_detected_even_if_distances_consistent(self):
        # Internally inconsistent state that a broken impl could reach.
        # Eq. (16) fails too (each FD is above what the other holds), so
        # this also pins acyclicity ahead of Eq. (16).
        routers = {
            "a": StubRouter({"j": 10.0}, {"b": {"j": 1.0}}, {"j": {"b"}}),
            "b": StubRouter({"j": 10.0}, {"a": {"j": 1.0}}, {"j": {"a"}}),
        }
        _raises(routers, LFIViolation, r"has cycle \['a', 'b', 'a'\]")

    def test_eq16_violation_detected(self):
        routers = _chain()
        routers["a"].nbr_distances["b"]["j"] = 0.5  # below b's FD of 1.0
        _raises(routers, LoopError, r"Eq\. 16 violated")

    def test_conditions_are_checked_in_order(self):
        """A state breaking all three conditions reports Eq. 17."""
        routers = _chain()
        routers["a"].successor_sets["j"].add("b")
        routers["b"].successor_sets["j"].add("a")
        routers["b"].feasible_distance["j"] = 0.5
        routers["j"].nbr_distances["b"]["j"] = 0.1
        _raises(routers, LFIViolation, r"Eq\. 17 violated")

    def test_many_violating_successors_name_the_same_first(self):
        """Six successors all break Eq. 17.  A copy of a set this size
        can iterate in another order, so both checks walk the router's
        own set and name the same successor first."""
        names = [f"n{index}" for index in range(6)]
        routers = {
            "a": StubRouter(
                {"j": 0.5}, {k: {"j": 1.0} for k in names}, {"j": names}
            )
        }
        _raises(routers, LFIViolation, r"Eq\. 17 violated")
