"""The Theorem-3 check: the incremental check, ``check_safety`` and the
naive reference.

``repro.core.mpda.check_safety`` reads router state in place and peels
each successor graph; ``repro.testing.safety_reference.check_safety``
copies the state into maps and runs its own depth-first search; the
driver runs ``repro.core.mpda.IncrementalSafetyCheck``, which
re-verifies only the conditions that read a router whose
``route_version`` moved.  All three must give the same verdict on every
state: clean, or the same exception type with the same message.
"""

import copy
import json
import os
import random
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.driver import ProtocolDriver
from repro.core.lfi import LFIViolation
from repro.core.linkstate import INFINITY
from repro.core.mpda import IncrementalSafetyCheck, MPDARouter, check_safety
from repro.exceptions import LoopError, ReproError
from repro.testing import safety_reference
from repro.testing.fuzz import generate_case, run_case

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

#: Share of delivered states at which the property also checks a
#: perturbed copy of the routers.
PERTURB_RATE = 0.1


def _verdict(check, routers):
    try:
        check(routers)
    except (LFIViolation, LoopError) as error:
        return error
    return None


def _key(error):
    return None if error is None else (type(error), str(error))


#: ``assert_same_verdict``'s default: compare ``check_safety`` alone.
_FULL = object()


def assert_same_verdict(routers, got=_FULL):
    """Compare ``got`` (an error or None; by default ``check_safety``'s
    verdict) with ``check_safety`` and the reference on ``routers``;
    returns it."""
    full = _verdict(check_safety, routers)
    if got is _FULL:
        got = full
    want = _verdict(safety_reference.check_safety, routers)
    if not _key(got) == _key(full) == _key(want):
        pytest.fail(
            f"verdicts differ: {_key(got)!r}, check_safety {_key(full)!r}, "
            f"the reference {_key(want)!r}"
        )
    return got


def _add_successor(sets, j, k):
    """Replace ``sets[j]`` with a set that also holds ``k``: routers
    store their successor sets frozen (and shared between
    destinations), so the perturbation must not edit them in place."""
    sets[j] = frozenset(sets.get(j, ())) | {k}


def _upstream(routers, i, j):
    """The routers whose successor sets toward ``j`` reach ``i``."""
    preds = {}
    for node, router in routers.items():
        for k in router.successor_sets.get(j, ()):
            preds.setdefault(k, []).append(node)
    found, stack = set(), [i]
    while stack:
        for prev in preds.get(stack.pop(), ()):
            if prev not in found:
                found.add(prev)
                stack.append(prev)
    return found


def perturb(routers, rng):
    """Edit one or two routers of ``routers`` as an event would.

    The edit is one of: an up neighbor or an arbitrary node added to a
    successor set, a feasible distance scaled by 0.5, 2 or 10, a held
    neighbor distance lowered, two adjacent routers made each other's
    successors with feasible distances raised above what they hold for
    each other, or a router's feasible distance dropped and an upstream
    neighbor added to its set (a cycle that breaks neither Eq. 16 nor
    Eq. 17).  Successor sets and neighbor rows are replaced, never
    edited in place.  Returns the edited routers.
    """
    nodes = list(routers)
    i = rng.choice(nodes)
    router = routers[i]
    sets = router.successor_sets  # folds in any pending recomputation
    j = rng.choice(nodes)
    kind = rng.randrange(6)
    if kind == 0 and router.link_costs:
        _add_successor(sets, j, rng.choice(list(router.link_costs)))
    elif kind == 1:
        _add_successor(sets, j, rng.choice(nodes))
    elif kind == 2 and j in router.feasible_distance:
        router.feasible_distance[j] *= rng.choice((0.5, 2.0, 10.0))
    elif kind == 3:
        held = [k for k, row in router.nbr_distances.items() if j in row]
        if held:
            k = rng.choice(held)
            row = router.nbr_distances[k]
            router.nbr_distances[k] = {**row, j: row[j] * 0.5 - 1e-9}
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
            return [router, peer]
    elif kind == 5:
        upstream = [
            k
            for k in _upstream(routers, i, j)
            if k in router.link_costs and router.neighbor_distance(k, j) < INFINITY
        ]
        if upstream and i != j:
            router.feasible_distance.pop(j, None)
            _add_successor(sets, j, rng.choice(sorted(upstream, key=repr)))
    return [router]


class ComparedCheck:
    """ProtocolDriver's per-event check, compared at every call.

    Runs a real :class:`IncrementalSafetyCheck` and requires its verdict
    to equal ``check_safety``'s and the reference's.  After a clean
    state it may also perturb a copy: the routers and the check are
    copied together, so the copied check last saw the copied routers
    pass, and the edited routers' versions are bumped, so the
    perturbed state goes through the incremental path.
    """

    def __init__(self, rng, perturb_rate, perturbed):
        self.inner = IncrementalSafetyCheck()
        self.rng = rng
        self.perturb_rate = perturb_rate
        self.perturbed = perturbed
        self.compared = 0

    def __call__(self, routers, *, full=False):
        got = _verdict(lambda r: self.inner(r, full=full), routers)
        assert_same_verdict(routers, got)
        self.compared += 1
        if got is not None:
            raise got
        if self.rng.random() < self.perturb_rate:
            inner, copied = copy.deepcopy((self.inner, routers))
            for router in perturb(copied, self.rng):
                router.route_version += 1
            verdict = assert_same_verdict(copied, _verdict(inner, copied))
            self.perturbed.append(_key(verdict))


def run_compared(case, rng, perturb_rate=PERTURB_RATE):
    """Run ``case`` with the three checks compared after every delivery.

    Returns how many states were compared and the perturbed copies'
    verdicts.  A violation of the real state still ends the run, as the
    production check would.
    """
    perturbed = []
    checks = []

    def make():
        checks.append(ComparedCheck(rng, perturb_rate, perturbed))
        return checks[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.core.driver.IncrementalSafetyCheck", make)
        try:
            run_case(replace(case, check_invariants=True))
        except (ReproError, LFIViolation):
            pass  # raw channels may break the paper's assumptions
    return sum(check.compared for check in checks), perturbed


@settings(deadline=None)
@given(seed=st.integers(0, 100_000), reliable=st.booleans())
def test_incremental_check_matches_the_reference(seed, reliable):
    """Over fuzzed reliable and raw schedules, the incremental verdict on
    every delivered state and on a sample of perturbed copies equals
    ``check_safety``'s and the reference's.  ``max_examples`` comes
    from the active hypothesis profile."""
    compared, _ = run_compared(
        generate_case(seed, reliable=reliable), random.Random(seed)
    )
    assert compared > 0


def test_perturbations_reach_every_violation_kind():
    """The perturbed copies, checked through the incremental path,
    exercise every branch the checks can raise, and some stay clean."""
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


def test_violation_records_do_not_depend_on_the_hash_seed():
    """Raw CAIRN case 676 (string node ids) fails with the same record
    under two hash seeds: set iteration order names no violation."""
    script = (
        "import json; "
        "from repro.testing.fuzz import examine_case, generate_case; "
        "print(json.dumps(examine_case(generate_case(676, reliable=False)), "
        "sort_keys=True))"
    )
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    records = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        records.append(json.loads(done.stdout))
    assert records[0]["status"] == "violation"
    assert records[0]["failure"]["type"] == "LoopError"
    assert records[0] == records[1]


# ----------------------------------------------------------------------
# hand-built states
# ----------------------------------------------------------------------
class StubRouter:
    """The router fields ``check_safety`` and its reference read."""

    def __init__(self, feasible=None, rows=None, successors=None):
        self.route_version = 0
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
        """Six successors all break Eq. 17, so the set's iteration order
        (which follows the hash seed for strings) could pick any; both
        checks name the first in ``repr`` order."""
        names = [f"n{index}" for index in (4, 2, 5, 0, 3, 1)]
        routers = {
            "a": StubRouter(
                {"j": 0.5}, {k: {"j": 1.0} for k in names}, {"j": names}
            )
        }
        _raises(routers, LFIViolation, r"successor 'n0' has D_jk")

    def test_two_cycles_through_one_root_name_the_same(self):
        """Router a starts two cycles; the search stacks a's successors
        in ``repr`` order and takes the top, so it names the one through
        c whatever the set's order."""
        routers = {
            "a": StubRouter({}, {"b": {}, "c": {}}, {"j": {"c", "b"}}),
            "b": StubRouter({}, {"a": {}}, {"j": {"a"}}),
            "c": StubRouter({}, {"a": {}}, {"j": {"a"}}),
        }
        for router in routers.values():
            router.feasible_distance["j"] = INFINITY
            for row in router.nbr_distances.values():
                row["j"] = 1.0
        _raises(routers, LFIViolation, r"has cycle \['a', 'c', 'a'\]")


# ----------------------------------------------------------------------
# the incremental check on hand-built states
# ----------------------------------------------------------------------
def _frozen(routers):
    """Give the stubs the frozen successor sets MPDA routers keep."""
    for router in routers.values():
        router.successor_sets = {
            j: frozenset(succ) for j, succ in router.successor_sets.items()
        }
    return routers


def _incremental_verdict(check, routers):
    """The incremental check's verdict, required to be the full one's."""
    return assert_same_verdict(routers, _verdict(check, routers))


class TestIncrementalSafetyCheck:
    def _passed(self, routers):
        check = IncrementalSafetyCheck()
        assert _incremental_verdict(check, routers) is None
        return check

    def test_first_call_checks_in_full(self):
        routers = _frozen(_chain())
        routers["a"].nbr_distances["b"] = {"j": 0.5}
        verdict = _incremental_verdict(IncrementalSafetyCheck(), routers)
        assert _violation_kind(_key(verdict)) == "eq16"

    def test_a_state_without_a_version_tick_is_not_rechecked(self):
        """The contract: only routers whose version moved are re-read.
        A full call still sees the edit."""
        routers = _frozen(_chain())
        check = self._passed(routers)
        routers["a"].feasible_distance["j"] = 1.0
        check(routers)
        with pytest.raises(LFIViolation, match=r"Eq\. 17"):
            check(routers, full=True)

    def test_eq17_at_a_moved_router(self):
        routers = _frozen(_chain())
        check = self._passed(routers)
        routers["a"].feasible_distance["j"] = 1.0
        routers["a"].route_version += 1
        verdict = _incremental_verdict(check, routers)
        assert _violation_kind(_key(verdict)) == "eq17"

    def test_eq16_for_the_moved_router_s_feasible_distance(self):
        routers = _frozen(_chain())
        check = self._passed(routers)
        routers["b"].feasible_distance["j"] = 3.0  # a holds 1.0 for b
        routers["b"].route_version += 1
        verdict = _incremental_verdict(check, routers)
        assert "router 'b': FD to 'j' is 3.0" in str(verdict)

    def test_eq16_for_a_row_the_moved_router_holds(self):
        routers = _frozen(_chain())
        check = self._passed(routers)
        routers["a"].nbr_distances["b"] = {"j": 0.5}  # b's FD is 1.0
        routers["a"].route_version += 1
        verdict = _incremental_verdict(check, routers)
        assert "neighbor 'a' holds distance 0.5" in str(verdict)

    def test_cycle_only_the_search_sees(self):
        """b drops its feasible distance and adds a, which routes through
        b: Eqs. 16 and 17 still hold, so only the search from the
        replaced set finds the cycle."""
        routers = _frozen(_chain())
        check = self._passed(routers)
        b = routers["b"]
        del b.feasible_distance["j"]
        b.successor_sets["j"] = frozenset({"j", "a"})
        b.route_version += 1
        verdict = _incremental_verdict(check, routers)
        assert _violation_kind(_key(verdict)) == "cycle"

    def test_a_destination_entering_the_checked_set_is_checked_in_full(self):
        """No router routes to c, so the Eq. 16 break between a and d is
        outside the check; when b starts routing to c it is inside, though
        neither a nor d moved."""
        routers = _frozen(
            {
                "a": StubRouter({"c": 5.0}, {"d": {}}),
                "d": StubRouter({}, {"a": {"c": 2.0}}),
                "b": StubRouter({"c": 1.0}, {"c": {"c": 0.0}}),
                "c": StubRouter({}, {"b": {"c": 1.0}}),
            }
        )
        check = self._passed(routers)
        routers["b"].successor_sets["c"] = frozenset({"c"})
        routers["b"].route_version += 1
        verdict = _incremental_verdict(check, routers)
        assert "router 'a': FD to 'c' is 5.0" in str(verdict)

    def test_a_new_router_population_is_checked_in_full(self):
        routers = _frozen(_chain())
        check = self._passed(routers)
        broken = _frozen(_chain())
        broken["a"].feasible_distance["j"] = 1.0
        routers["a"] = broken["a"]  # no version moved, but a new router
        verdict = _incremental_verdict(check, routers)
        assert _violation_kind(_key(verdict)) == "eq17"

    def test_the_call_after_a_violation_is_full(self):
        routers = _frozen(_chain())
        check = self._passed(routers)
        routers["a"].feasible_distance["j"] = 1.0
        routers["a"].route_version += 1
        for _ in range(2):  # the second call sees no version move
            with pytest.raises(LFIViolation, match=r"Eq\. 17"):
                check(routers)


# ----------------------------------------------------------------------
# ProtocolDriver's invariant check
# ----------------------------------------------------------------------
def _tamper(driver, node):
    """Break Eq. 17 at ``node`` behind the protocol's back."""
    router = driver.routers[node]
    dest = next(iter(router.successor_sets))
    router.feasible_distance[dest] = -1.0


class TestDriverCheck:
    def test_run_ends_with_a_full_check(self, diamond):
        """An edit with no version tick escapes the per-event check but
        not the full check that ends every run."""
        driver = ProtocolDriver(diamond, MPDARouter, check_invariants=True)
        driver.start(diamond.idle_marginal_costs())
        driver.run()
        _tamper(driver, "s")
        driver._safety(driver._mpda_routers)  # no version moved: passes
        with pytest.raises(LFIViolation, match=r"router 's'"):
            driver.run()  # nothing left to deliver

    def test_checks_turned_on_mid_run_see_an_existing_violation(self, diamond):
        driver = ProtocolDriver(diamond, MPDARouter)
        driver.start(diamond.idle_marginal_costs())
        driver.run()
        _tamper(driver, "s")
        driver.check_invariants = True
        with pytest.raises(LFIViolation, match=r"router 's'"):
            driver.set_costs({("a", "t"): 2.0})
