"""The :class:`RoutingPolicy` contract — one seam for every algorithm.

A routing policy owns the successor sets and split fractions for every
(router, destination) pair and exposes the uniform lifecycle the
two-timescale controller drives:

- :meth:`initialize` — bind to a scenario before the first epoch;
- :meth:`on_costs` — the long-term (``Tl``) operation: react to the
  window-averaged marginal link costs (recompute routes);
- :meth:`on_short_costs` — the short-term (``Ts``) operation: react to
  freshly measured local costs (adjust the traffic split);
- :meth:`on_link_event` — a directed-link failure or repair, for
  policies that maintain routes incrementally (``handles_link_events``);
  the controller otherwise replays filtered long-term costs through
  :meth:`on_costs`;
- :meth:`routing` / :meth:`phi` — the read side: successor sets per
  destination, and the split fractions both data planes forward with.
  The fractions change only inside the lifecycle calls, which the
  controller makes between epochs, so each plane reads :meth:`phi` once
  per epoch and forwards by that snapshot.

The ``loop_free`` capability flag gates the Theorem-3 audit: policies
that claim it must keep every destination's successor graph acyclic at
every instant, and :meth:`audit_loop_free` (called after every route
change by the conforming implementations, and by the conformance suite)
raises :class:`~repro.exceptions.LoopError` the moment that fails.

Policies register themselves by name in :mod:`repro.policy.registry`;
``repro policies`` lists them and ``RunConfig(policy=...)`` /
``repro fleet zoo --policy ...`` select them.
"""

from __future__ import annotations

import abc

from repro.graph.shortest_paths import CostMap
from repro.graph.topology import NodeId
from repro.graph.validation import assert_loop_free

#: successor sets per destination: ``routing()[dest][node]`` = the
#: ordered successor list of ``node`` toward ``dest``.
RoutingTables = dict[NodeId, dict[NodeId, list[NodeId]]]


class RoutingPolicy(abc.ABC):
    """Base class of every pluggable routing algorithm.

    Subclasses set the class attributes, implement the lifecycle, and
    call :func:`repro.policy.registry.register` (usually as a
    decorator) to enter the zoo.
    """

    #: Registry key (``--policy`` name); empty means "do not register".
    name: str = ""
    #: One-line description for ``repro policies`` and the README table.
    summary: str = ""
    #: True when the policy guarantees instantaneously loop-free
    #: successor graphs; gates the Theorem-3/LFI audit.
    loop_free: bool = False
    #: True when the policy reacts to link failures itself (via
    #: :meth:`on_link_event`); False makes the controller replay the
    #: surviving links' long-term costs through :meth:`on_costs`.
    handles_link_events: bool = False

    #: Update counters surfaced in epoch metrics (subclasses that wrap a
    #: self-counting engine override these as properties).
    route_updates: int = 0
    allocation_updates: int = 0
    #: Theorem-3 audit bookkeeping (see :meth:`audit_loop_free`).
    audit_checks: int = 0

    # -- lifecycle ------------------------------------------------------
    @abc.abstractmethod
    def initialize(self, scenario, config) -> None:
        """Bind to ``scenario`` before the first epoch.

        ``scenario`` supplies the topology and the traffic matrix whose
        destinations the policy must route; ``config`` carries run
        parameters (seed, damping, ...).  Implementations should stash
        ``self.topo`` and ``self.destinations`` for the read side.
        """

    @abc.abstractmethod
    def on_costs(self, long_costs: CostMap) -> None:
        """The ``Tl`` operation: recompute routes from long-term costs.

        ``long_costs`` covers only usable links (the controller filters
        failed ones out).
        """

    def on_short_costs(self, short_costs: CostMap) -> None:
        """The ``Ts`` operation: adjust the split with fresh local costs.

        Default: the split does not react between route updates (true
        for static-split policies such as ECMP variants and OPT).
        """
        self.allocation_updates += 1

    def on_link_event(
        self,
        event: str,
        a: NodeId,
        b: NodeId,
        cost_ab: float | None = None,
        cost_ba: float | None = None,
    ) -> None:
        """A duplex link failed (``event="down"``) or recovered (``"up"``).

        Only called when ``handles_link_events`` is True; restores carry
        the links' long-term costs.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not handle link events "
            "(handles_link_events is False)"
        )

    # -- read side ------------------------------------------------------
    @abc.abstractmethod
    def routing(self) -> RoutingTables:
        """Successor sets per destination (the auditable view)."""

    @abc.abstractmethod
    def phi(self) -> dict[NodeId, dict[NodeId, dict[NodeId, float]]]:
        """The split fractions of every router: ``phi()[node][dest]``.

        A nonempty entry sums to 1; a missing or empty entry means the
        destination is unreachable from ``node`` under this policy.
        Entries are read-only: a policy replaces an entry to change it
        and never edits one it has handed out, so a reader may keep it
        and trust that the same object still holds the same items in
        the same order (the fluid plane rebuilds its routing DAGs on
        that, and the packet plane forwards by one snapshot per epoch).
        """

    def protocol_stats(self) -> dict[str, int]:
        """Control-message counters (empty for oracle-style policies)."""
        return {}

    # -- auditing -------------------------------------------------------
    def audit_loop_free(self) -> None:
        """Verify the Theorem-3 obligation of a ``loop_free`` policy.

        Checks every destination's successor graph for cycles; raises
        :class:`~repro.exceptions.LoopError` on the first one.  No-op
        for policies that do not claim loop freedom (their graphs *may*
        contain cycles — that is exactly what the flag records).
        """
        if not self.loop_free:
            return
        for dest, successors in self.routing().items():
            assert_loop_free(successors, dest)
            self.audit_checks += 1
