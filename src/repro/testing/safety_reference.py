"""A naive reference for the Theorem-3 safety check.

:func:`check_safety` is :func:`repro.core.mpda.check_safety` without its
shortcuts.  For every destination it builds three maps over every
router (feasible distances, the reported distance of every up neighbor
through ``neighbor_distance``, and every successor set), and
:func:`check_lfi` then verifies Eq. (17) and acyclicity on those maps
before the Eq. (16) cross-check runs.  The cycle search is this
module's own depth-first search, so the reference shares no checking
code with the check it checks.

Wherever several violations compete, both checks name the first in
``repr`` order: destinations, a router's successors, and the branches of
the cycle search (stacked in ``repr`` order, taken from the top).  Set
iteration order is no rule at all: for string ids it follows the hash
seed, and a copy of a set can iterate in another order than the set.

Production reads the routers' dicts in place in one pass per
destination, and decides acyclicity by peeling
(:func:`repro.graph.validation.find_successor_cycle`).  The differential
tests require both to agree on every state they see: both clean, or the
same exception type with the same message.  This module is test-only:
no production module imports it.

Compare the two from the repository root, for example::

    PYTHONPATH=src python -c "from repro.graph.topologies import net1; \\
    from repro.core.driver import ProtocolDriver; \\
    from repro.core.mpda import MPDARouter, check_safety; \\
    from repro.testing.safety_reference import check_safety as reference; \\
    topo = net1(); driver = ProtocolDriver(topo, MPDARouter, seed=0); \\
    driver.start(topo.idle_marginal_costs()); driver.run(); \\
    check_safety(driver.routers); reference(driver.routers); print('clean')"
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.lfi import LFIViolation
from repro.core.linkstate import INFINITY
from repro.exceptions import LoopError
from repro.graph.topology import NodeId


def check_safety(
    routers: Mapping[NodeId, object],
    destination: NodeId | None = None,
) -> None:
    """Theorem 3 over live MPDA routers, one destination map at a time.

    Takes and raises what :func:`repro.core.mpda.check_safety` does.
    """
    destinations: set[NodeId] = set()
    if destination is not None:
        destinations.add(destination)
    else:
        for router in routers.values():
            destinations.update(router.successor_sets)

    for j in sorted(destinations, key=repr):
        feasible = {
            i: router.feasible_distance.get(j, INFINITY)
            for i, router in routers.items()
            if i != j
        }
        reported = {
            i: {
                k: router.neighbor_distance(k, j)
                for k in router.up_neighbors()
            }
            for i, router in routers.items()
        }
        successors = {
            i: router.successor_sets.get(j, set())
            for i, router in routers.items()
        }
        check_lfi(j, feasible, reported, successors)

        # Eq. (16) cross-check: FD_j^i <= (i's distance to j as held at
        # every neighbor k).
        for i, fd in feasible.items():
            if fd == INFINITY:
                continue
            for k in reported.get(i, ()):
                peer_view = reported.get(k)
                if peer_view is None:
                    continue
                held = peer_view.get(i)
                if held is None:
                    continue
                if fd > held + 1e-12:
                    raise LoopError(
                        f"router {i!r}: FD to {j!r} is {fd!r} but neighbor "
                        f"{k!r} holds distance {held!r} (Eq. 16 violated)"
                    )


def check_lfi(
    destination: NodeId,
    feasible_distance: Mapping[NodeId, float],
    reported: Mapping[NodeId, Mapping[NodeId, float]],
    successors: Mapping[NodeId, set[NodeId]],
) -> None:
    """Verify Eq. (17) and acyclicity for one destination.

    Args:
        destination: the destination *j*.
        feasible_distance: :math:`FD^i_j` per router *i*.
        reported: ``reported[i][k]`` = :math:`D^i_{jk}`, the distance from
            neighbor *k* to *j* in *i*'s copy of *k*'s topology.
        successors: :math:`S^i_j` per router.

    Raises:
        LFIViolation: if any condition fails.
    """
    for router, fd in feasible_distance.items():
        known = reported.get(router, {})
        succ = successors.get(router, set())
        for nbr in sorted(succ, key=repr):
            if nbr not in known:
                raise LFIViolation(
                    f"router {router!r}: successor {nbr!r} has no reported "
                    f"distance to {destination!r}"
                )
            if not known[nbr] < fd:
                raise LFIViolation(
                    f"router {router!r}: successor {nbr!r} has "
                    f"D_jk = {known[nbr]!r} >= FD = {fd!r} "
                    f"(Eq. 17 violated for destination {destination!r})"
                )
    cycle = dfs_cycle(
        {router: list(succ) for router, succ in successors.items()}
    )
    if cycle is not None:
        raise LFIViolation(
            f"successor graph for {destination!r} has cycle {cycle!r} "
            "(Theorem 1 violated)"
        )


def dfs_cycle(successors: Mapping[NodeId, list[NodeId]]) -> list[NodeId] | None:
    """A directed cycle (first node repeated at the end), or None.

    Depth-first from each key in order, each node's successors stacked
    in ``repr`` order and taken from the top; a successor that is not a
    key has no out-edges.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[NodeId, int] = {node: WHITE for node in successors}
    for root in successors:
        if color[root] != WHITE:
            continue
        stack = [(root, sorted(successors[root], key=repr))]
        color[root] = GRAY
        path = [root]
        while stack:
            node, pending = stack[-1]
            while pending:
                nxt = pending.pop()
                state = color.get(nxt, BLACK)
                if state == GRAY:
                    return path[path.index(nxt):] + [nxt]
                if state == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, sorted(successors[nxt], key=repr)))
                    path.append(nxt)
                    break
            else:
                color[node] = BLACK
                stack.pop()
                path.pop()
    return None
