"""Schedule fuzzing: adversarial event sequences with per-delivery audits.

The paper proves MPDA safe and live *assuming* reliable in-order
delivery.  This harness treats both the schedule and the channel as an
adversary (the posture of Andrews et al.'s adversarial-injection model):
it generates random connected topologies, random fault profiles (loss,
duplication, reordering, delay jitter, partitions) and random event
schedules (``fail_link`` / ``restore_link`` / ``set_cost`` / timed
``partition`` interleaved with bounded message pumping), runs the real
protocol under them, and machine-checks Theorem 3 after **every**
delivery (``check_invariants=True``) plus Theorems 2/4 at quiescence
(:meth:`~repro.core.driver.ProtocolDriver.verify_converged`).

Everything is derived from integer seeds, so every case is a pure
function of its seed: a failure is captured as a JSON *replay artifact*
(topology spec + fault profile + schedule + seeds + the observed error)
and ``repro replay`` re-executes it deterministically — same schedule,
same fault draws, same failure.  Campaigns run through the fleet
(``repro fleet fuzz``), whose worker turns each case into a verdict with
:func:`examine_case` and minimizes failures with :func:`minimize_case`.

With ``reliable=True`` (the default) the case runs over
:class:`~repro.core.transport.ReliableTransport`, which *enforces* the
paper's delivery model over the faulty wire: every generated case must
pass.  With ``reliable=False`` the routers face the raw
:class:`~repro.core.transport.FaultyChannel` — the paper's assumption is
deliberately broken, and the harness demonstrates that the correctness
results really do depend on it.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, replace

from repro import obs
from repro.core.driver import ProtocolDriver
from repro.core.mpda import MPDARouter
from repro.core.transport import FaultyChannel, ReliableTransport, Transport
from repro.exceptions import AllocationError, ReproError
from repro.fluid.flows import Flow, TrafficMatrix
from repro.graph.generators import random_connected
from repro.graph.topologies import cairn, net1
from repro.graph.topology import Topology
from repro.policy import create_policy
from repro.sim.control import QuasiStaticConfig
from repro.sim.scenario import Scenario

#: v2: failure records embed ``causal_slice`` — the minimal causal
#: chain (ancestor events of the violating delivery) that produced the
#: rejected state.
#: v3: cases carry a ``policy`` name — ``"mp"`` runs the protocol
#: driver; any other registered routing policy runs the same schedule
#: through the policy lifecycle with the Theorem-3 audit after every
#: step (the fleet's zoo-wide campaigns).  Only v3 artifacts load.
ARTIFACT_VERSION = 3

#: Event schedule ops (JSON-serializable lists, op first).
OPS = ("fail_link", "restore_link", "set_cost", "partition", "pump")


@dataclass(frozen=True)
class FaultProfile:
    """A channel-fault configuration, serializable into artifacts."""

    loss: float = 0.0
    dup: float = 0.0
    reorder: float = 0.0
    jitter: int = 3
    delay: int = 0
    seed: int = 0
    reliable: bool = True
    timeout: int = 8
    max_retries: int = 50

    def build_transport(self) -> Transport:
        channel = FaultyChannel(
            seed=self.seed,
            loss=self.loss,
            dup=self.dup,
            reorder=self.reorder,
            jitter=self.jitter,
            delay=self.delay,
        )
        if not self.reliable:
            return channel
        return ReliableTransport(
            channel, timeout=self.timeout, max_retries=self.max_retries
        )

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultProfile":
        return cls(**doc)


@dataclass(frozen=True)
class FuzzCase:
    """One fully-determined adversarial run."""

    seed: int  # the generation seed (names the artifact)
    topology: dict  # {"kind": "random", ...} or {"kind": "named", ...}
    profile: FaultProfile
    schedule: tuple[tuple, ...]  # (op, *args) events
    driver_seed: int = 0
    check_invariants: bool = True
    #: "mp" = the real MPDA exchange through the protocol driver; any
    #: other registered policy name runs the schedule through the
    #: routing-policy lifecycle instead (see :func:`run_policy_case`).
    policy: str = "mp"

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "topology": dict(self.topology),
            "profile": self.profile.as_dict(),
            "schedule": [list(event) for event in self.schedule],
            "driver_seed": self.driver_seed,
            "check_invariants": self.check_invariants,
            "policy": self.policy,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FuzzCase":
        return cls(
            seed=doc["seed"],
            topology=doc["topology"],
            profile=FaultProfile.from_dict(doc["profile"]),
            schedule=tuple(tuple(event) for event in doc["schedule"]),
            driver_seed=doc["driver_seed"],
            check_invariants=doc["check_invariants"],
            policy=doc["policy"],
        )


def build_topology(spec: dict) -> Topology:
    """Materialize a topology spec from an artifact."""
    kind = spec.get("kind")
    if kind == "random":
        return random_connected(
            spec["n"], extra_links=spec["extra"], seed=spec["seed"]
        )
    if kind == "named":
        factories = {"cairn": cairn, "net1": net1}
        return factories[spec["name"]]()
    raise ValueError(f"unknown topology spec {spec!r}")


# ----------------------------------------------------------------------
# generation
# ----------------------------------------------------------------------
def _generate_profile(rng: random.Random, reliable: bool) -> FaultProfile:
    return FaultProfile(
        loss=rng.choice([0.0, 0.05, 0.1, 0.2]),
        dup=rng.choice([0.0, 0.05, 0.1]),
        reorder=rng.choice([0.0, 0.1, 0.25]),
        jitter=rng.randint(1, 4),
        delay=rng.randint(0, 3),
        seed=rng.randrange(2**16),
        reliable=reliable,
    )


def generate_case(
    seed: int, *, reliable: bool = True, policy: str = "mp"
) -> FuzzCase:
    """A deterministic adversarial case from an integer seed.

    The schedule is generated against a stateful model of which duplex
    links are up, so every event is valid when executed in order
    (failures only on up links, restores only on down links).

    ``policy`` does not consume any randomness: the same seed yields the
    identical topology, schedule and fault profile for every policy, so
    zoo-wide campaigns compare algorithms on the *same* adversarial
    inputs.
    """
    rng = random.Random(seed)
    if rng.random() < 0.15:
        topo_spec = {"kind": "named", "name": rng.choice(["net1", "cairn"])}
    else:
        n = rng.randint(4, 8)
        max_extra = n * (n - 1) // 2 - (n - 1)
        topo_spec = {
            "kind": "random",
            "n": n,
            "extra": rng.randint(1, min(6, max_extra)),
            "seed": rng.randrange(2**16),
        }
    topo = build_topology(topo_spec)
    base_costs = topo.idle_marginal_costs()

    up = sorted(
        {tuple(sorted(ln.link_id, key=repr)) for ln in topo.links()},
        key=repr,
    )
    down: list[tuple] = []
    schedule: list[tuple] = []
    for _ in range(rng.randint(2, 6)):
        ops = ["set_cost", "pump", "partition"]
        if len(up) > 1:
            ops.append("fail_link")
        if down:
            ops.append("restore_link")
        op = rng.choice(ops)
        if op == "fail_link":
            a, b = up.pop(rng.randrange(len(up)))
            down.append((a, b))
            schedule.append(("fail_link", a, b))
        elif op == "restore_link":
            a, b = down.pop(rng.randrange(len(down)))
            up.append((a, b))
            schedule.append(("restore_link", a, b))
        elif op == "set_cost":
            a, b = up[rng.randrange(len(up))]
            head, tail = (a, b) if rng.random() < 0.5 else (b, a)
            cost = base_costs[(head, tail)] * rng.uniform(0.5, 2.5)
            schedule.append(("set_cost", head, tail, cost))
        elif op == "partition":
            a, b = up[rng.randrange(len(up))]
            schedule.append(("partition", a, b, rng.randint(5, 40)))
        else:
            schedule.append(("pump", rng.randint(0, 40)))

    return FuzzCase(
        seed=seed,
        topology=topo_spec,
        profile=_generate_profile(rng, reliable),
        schedule=tuple(schedule),
        driver_seed=rng.randrange(2**16),
        policy=policy,
    )


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def run_case(case: FuzzCase) -> dict:
    """Execute one case; raises a :class:`ReproError` on any violation.

    Events are applied *while messages are still in flight* (each is
    followed only by however much pumping the schedule dictates), the
    network is then run to quiescence, and the converged state is
    verified against the Dijkstra oracle (Theorems 2 and 4).  With
    ``check_invariants`` on, Theorem 3 is machine-checked after every
    single delivery throughout.
    """
    topo = build_topology(case.topology)
    base_costs = topo.idle_marginal_costs()
    transport = case.profile.build_transport()
    driver = ProtocolDriver(
        topo,
        MPDARouter,
        seed=case.driver_seed,
        check_invariants=case.check_invariants,
        transport=transport,
    )
    play(case, driver, transport, base_costs)
    driver.verify_converged()
    return {
        "delivered": driver.delivered,
        "message_stats": driver.message_stats(),
        "transport": transport.stats(),
    }


def play(case: FuzzCase, driver, transport, base_costs) -> None:
    """Start ``driver``, apply ``case.schedule``, and run to quiescence.

    ``transport`` is the driver's transport; ``partition`` events go to
    it directly.  :class:`repro.testing.oracle.Lockstep` passes itself
    for both, so a lockstep replays exactly the schedule a case runs.
    """
    driver.start(base_costs)
    driver.run()
    for event in case.schedule:
        op, *args = event
        if op == "fail_link":
            driver.fail_link(args[0], args[1])
        elif op == "restore_link":
            a, b = args
            driver.restore_link(a, b, base_costs[(a, b)], base_costs[(b, a)])
        elif op == "set_cost":
            head, tail, cost = args
            driver.set_costs({(head, tail): cost})
        elif op == "partition":
            a, b, hold = args
            transport.partition(a, b)
            # Pump only while frames are deliverable: the window closes
            # when the rest of the network drains, so a schedule cannot
            # starve the retransmit budget behind its own partition.
            for _ in range(hold):
                if not transport.busy_links() or not driver.step():
                    break
            transport.heal(a, b)
        elif op == "pump":
            for _ in range(args[0]):
                if not driver.step():
                    break
        else:
            raise ValueError(f"unknown schedule op {op!r}")
    driver.run()


# ----------------------------------------------------------------------
# policy-lifecycle cases (the zoo beyond the protocol driver)
# ----------------------------------------------------------------------
def _duplex(a, b) -> tuple:
    """The duplex pair of a directed link, in canonical order."""
    return tuple(sorted((a, b), key=repr))


def _policy_scenario(topo: Topology) -> Scenario:
    """A scenario demanding every node as a destination.

    Policies size their tables to the *active* destinations, so the
    audit gets the strongest coverage when every node carries demand.
    """
    nodes = sorted(topo.nodes, key=repr)
    flows = [
        Flow(nodes[0] if node != nodes[0] else nodes[1], node, 10.0)
        for node in nodes
    ]
    return Scenario(name="fuzz", topo=topo, traffic=TrafficMatrix(flows))


def _audit_policy(policy, topo: Topology, up: set, destinations) -> None:
    """The per-event obligations every policy owes the data plane.

    ``audit_loop_free`` checks the Theorem-3 obligation of ``loop_free``
    policies; the fraction audit checks Property 1's contract for all of
    them, on one ``phi()`` snapshot — fractions are a distribution over
    *live* physical neighbors (an empty or missing entry declares the
    destination unreachable).
    """
    policy.audit_loop_free()
    neighbors: dict = {node: set() for node in topo.nodes}
    for a, b in up:
        neighbors[a].add(b)
        neighbors[b].add(a)
    phi = policy.phi()
    for dest in destinations:
        for node in topo.nodes:
            if node == dest:
                continue
            fractions = phi.get(node, {}).get(dest)
            if not fractions:
                continue
            dead = sorted(set(fractions) - neighbors[node], key=repr)
            if dead:
                raise AllocationError(
                    f"policy {policy.name!r} splits {node!r}->{dest!r} "
                    f"over non-neighbors (or downed links): {dead!r}"
                )
            total = 0.0
            for nbr, fraction in fractions.items():
                if not fraction >= -1e-9:  # negative or NaN
                    raise AllocationError(
                        f"policy {policy.name!r} has fraction {fraction!r} "
                        f"toward {nbr!r} at {node!r}->{dest!r}"
                    )
                total += fraction
            if abs(total - 1.0) > 1e-6:
                raise AllocationError(
                    f"policy {policy.name!r} fractions at {node!r}->"
                    f"{dest!r} sum to {total!r}, not 1"
                )


def run_policy_case(case: FuzzCase) -> dict:
    """Drive a zoo policy's lifecycle through the case's schedule.

    The analogue of :func:`run_case` for policies without a protocol
    backend: the same generated schedule is replayed through the
    :class:`~repro.policy.base.RoutingPolicy` lifecycle — failures and
    restores as link events (or filtered long-term costs, matching the
    controller's treatment of ``handles_link_events=False``), cost
    changes as ``Tl`` updates, pumps and partition holds as ``Ts``
    ticks — with :func:`_audit_policy` machine-checked after every
    event.  Raises a :class:`ReproError` on any violation.
    """
    if case.policy == "mp":
        raise ValueError(
            "policy 'mp' cases run the real protocol (run_case)"
        )
    topo = build_topology(case.topology)
    base_costs = dict(topo.idle_marginal_costs())
    scenario = _policy_scenario(topo)
    config = QuasiStaticConfig(
        tl=8.0,
        ts=2.0,
        duration=16.0,
        warmup=4.0,
        policy=case.policy,
        seed=case.driver_seed,
        damping=0.5,
    )
    policy = create_policy(case.policy, **config.policy_params)
    policy.initialize(scenario, config)
    destinations = scenario.mean_traffic().destinations()

    costs = dict(base_costs)
    up = {_duplex(head, tail) for (head, tail) in costs}

    def live_costs() -> dict:
        return {
            link_id: cost
            for link_id, cost in costs.items()
            if _duplex(*link_id) in up
        }

    def link_event(event, a, b, cost_ab=None, cost_ba=None) -> None:
        if policy.handles_link_events:
            policy.on_link_event(event, a, b, cost_ab, cost_ba)
        else:
            policy.on_costs(live_costs())

    policy.on_costs(live_costs())
    _audit_policy(policy, topo, up, destinations)
    for event in case.schedule:
        op, *args = event
        if op == "fail_link":
            a, b = args
            up.discard(_duplex(a, b))
            link_event("down", a, b)
        elif op == "restore_link":
            a, b = args
            up.add(_duplex(a, b))
            link_event("up", a, b, base_costs[(a, b)], base_costs[(b, a)])
        elif op == "set_cost":
            head, tail, cost = args
            costs[(head, tail)] = cost
            policy.on_costs(live_costs())
        elif op in ("partition", "pump"):
            # No transport under a policy case: both ops become short-
            # timescale ticks (the network keeps measuring regardless).
            policy.on_short_costs(live_costs())
        else:
            raise ValueError(f"unknown schedule op {op!r}")
        _audit_policy(policy, topo, up, destinations)
    return {
        "events": len(case.schedule),
        "route_updates": policy.route_updates,
        "allocation_updates": policy.allocation_updates,
        "audit_checks": policy.audit_checks,
    }


# ----------------------------------------------------------------------
# verdicts
# ----------------------------------------------------------------------
def examine_case(case: FuzzCase) -> dict:
    """Run a case to a structured verdict (the fleet worker's unit).

    Returns ``{"status": "pass", "metrics": {...}}`` on a clean run or
    ``{"status": "violation", "failure": {...}}`` otherwise; both arms
    are plain JSON-serializable data, deterministic for a given case.

    Protocol (``policy="mp"``) cases run under a causal-tracing
    observation (no tracer, no auditor — delivery counts and schedules
    are unchanged), so a violation's record embeds its *minimal causal
    slice*: the ancestor chain of the delivery being processed when the
    check fired.  The slice is pure deterministic data (event ids,
    links, Lamport clocks, delivered counts), normalized through JSON
    so replays compare verbatim.  Policy-lifecycle cases have no
    message exchange, hence no slice.
    """
    if case.policy != "mp":
        try:
            metrics = run_policy_case(case)
        except ReproError as error:
            return {
                "status": "violation",
                "failure": {
                    "type": type(error).__name__,
                    "message": str(error),
                },
            }
        return {"status": "pass", "metrics": metrics}
    with obs.observe(causal=True) as ob:
        try:
            metrics = run_case(case)
        except ReproError as error:
            failure = {"type": type(error).__name__, "message": str(error)}
            failure["causal_slice"] = json.loads(
                json.dumps(ob.causal.failure_slice(), default=repr)
            )
            return {"status": "violation", "failure": failure}
    return {"status": "pass", "metrics": metrics}


def check_case(case: FuzzCase) -> dict | None:
    """Run a case; the failure record, or None when it passed clean."""
    verdict = examine_case(case)
    return verdict["failure"] if verdict["status"] == "violation" else None


# ----------------------------------------------------------------------
# minimization
# ----------------------------------------------------------------------
def _schedule_valid(topo_spec: dict, schedule: tuple) -> bool:
    """Whether every event stays executable after removals.

    Dropping an event can orphan a later one (a restore of a link that
    is now up, a cost change on a link that is now down); such
    candidates would fail for bookkeeping reasons, not the bug under
    minimization, so the shrinker skips them.
    """
    topo = build_topology(topo_spec)
    up = {_duplex(*ln.link_id) for ln in topo.links()}
    down: set = set()
    for event in schedule:
        op, *args = event
        if op == "fail_link":
            pair = _duplex(args[0], args[1])
            if pair not in up:
                return False
            up.remove(pair)
            down.add(pair)
        elif op == "restore_link":
            pair = _duplex(args[0], args[1])
            if pair not in down:
                return False
            down.remove(pair)
            up.add(pair)
        elif op == "set_cost":
            if _duplex(args[0], args[1]) not in up:
                return False
    return True


#: Fault-profile knobs tried (in order) during minimization, with the
#: benign value each is driven toward.
_BENIGN_PROFILE = (
    ("dup", 0.0),
    ("reorder", 0.0),
    ("delay", 0),
    ("jitter", 1),
    ("loss", 0.0),
)


def minimize_case(
    case: FuzzCase, *, budget: int = 64
) -> tuple[FuzzCase, dict]:
    """Greedily shrink a failing case, preserving its failure *type*.

    Two passes under one re-execution budget: drop schedule events one
    at a time (restarting the scan after every successful removal, and
    skipping removals that orphan later events), then drive fault-
    profile knobs to their benign values.  Each candidate is re-run in
    full, so the result still fails with the same exception type —
    usually with a much shorter schedule and a quieter channel.

    Returns the minimized case together with its observed failure
    record (which is what the replay artifact must store: messages and
    causal slices legitimately differ from the original's).
    """
    observed = check_case(case)
    if observed is None:
        raise ValueError("minimize_case needs a failing case")
    current, current_failure = case, observed
    trials = 0

    def attempt(candidate: FuzzCase) -> dict | None:
        nonlocal trials
        trials += 1
        got = check_case(candidate)
        if got is not None and got["type"] == current_failure["type"]:
            return got
        return None

    changed = True
    while changed and trials < budget:
        changed = False
        for index in range(len(current.schedule)):
            shorter = (
                current.schedule[:index] + current.schedule[index + 1:]
            )
            if not _schedule_valid(current.topology, shorter):
                continue
            got = attempt(replace(current, schedule=shorter))
            if got is not None:
                current = replace(current, schedule=shorter)
                current_failure = got
                changed = True
                break
            if trials >= budget:
                break
    for knob, benign in _BENIGN_PROFILE:
        if trials >= budget:
            break
        if getattr(current.profile, knob) == benign:
            continue
        candidate = replace(
            current, profile=replace(current.profile, **{knob: benign})
        )
        got = attempt(candidate)
        if got is not None:
            current, current_failure = candidate, got
    return current, current_failure


# ----------------------------------------------------------------------
# artifacts and replay
# ----------------------------------------------------------------------
def write_artifact(path: str, case: FuzzCase, failure: dict) -> None:
    """Persist a failing case as a deterministic replay artifact."""
    doc = {
        "version": ARTIFACT_VERSION,
        "case": case.as_dict(),
        "failure": dict(failure),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_artifact(path: str) -> tuple[FuzzCase, dict]:
    """The case a document holds and the verdict it records.

    The verdict has :func:`examine_case`'s shape: a ``failure`` record
    (replay artifacts, ``violation`` corpus entries) loads as
    ``{"status": "violation", "failure": ...}`` and pinned ``metrics``
    (``pass`` corpus entries) as ``{"status": "pass", "metrics": ...}``.

    Raises:
        ValueError: the version is not :data:`ARTIFACT_VERSION`, or the
            document records neither a failure nor metrics.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("version") != ARTIFACT_VERSION:
        raise ValueError(
            f"artifact {path!r} has version {doc.get('version')!r}, "
            f"expected {ARTIFACT_VERSION}"
        )
    if "failure" in doc:
        recorded = {"status": "violation", "failure": doc["failure"]}
    elif "metrics" in doc:
        recorded = {"status": "pass", "metrics": doc["metrics"]}
    else:
        raise ValueError(
            f"artifact {path!r} records neither a 'failure' nor 'metrics'"
        )
    return FuzzCase.from_dict(doc["case"]), recorded


def _describe(verdict: dict) -> str:
    if verdict["status"] == "pass":
        return "pass"
    return "{type}: {message}".format(**verdict["failure"])


def _metric_diff(recorded: dict, observed: dict, prefix: str = "") -> list:
    """``name: recorded -> observed`` for every metric that differs."""
    lines = []
    for key in sorted(recorded.keys() | observed.keys(), key=str):
        want, got = recorded.get(key), observed.get(key)
        if isinstance(want, dict) and isinstance(got, dict):
            lines += _metric_diff(want, got, f"{prefix}{key}.")
        elif want != got:
            lines.append(f"{prefix}{key}: {want!r} -> {got!r}")
    return lines


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of re-executing an artifact: both verdicts have
    :func:`examine_case`'s shape."""

    reproduced: bool
    recorded: dict
    observed: dict

    def render(self) -> str:
        if self.reproduced:
            if self.recorded["status"] == "pass":
                return "reproduced: pass with the pinned metrics"
            return f"reproduced: {_describe(self.recorded)}"
        lines = [
            "NOT reproduced",
            f"  recorded: {_describe(self.recorded)}",
            f"  observed: {_describe(self.observed)}",
        ]
        if self.recorded["status"] == self.observed["status"] == "pass":
            lines += [
                f"    {line}"
                for line in _metric_diff(
                    self.recorded["metrics"], self.observed["metrics"]
                )
            ]
        return "\n".join(lines)


def replay(path: str) -> ReplayResult:
    """Re-execute an artifact or corpus entry through :func:`examine_case`.

    Deterministic, so the recorded verdict — the failure, or ``pass``
    with the pinned metrics — must come back verbatim unless the code
    under test changed.
    """
    case, recorded = load_artifact(path)
    observed = examine_case(case)
    return ReplayResult(
        reproduced=observed == recorded,
        recorded=recorded,
        observed=observed,
    )
