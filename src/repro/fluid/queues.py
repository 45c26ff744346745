"""Fluid queue dynamics: backlog that persists across epochs.

The stateless M/M/1 law gives each epoch its *steady-state* delay, but a
real link that is oversubscribed builds backlog over time: a router that
stays on a congested path for a whole ``Tl`` interval keeps integrating
queue — the very effect behind the paper's Fig. 13/14 (single-path
delays grow with the route-update period while MP's do not).

:class:`FluidQueues` tracks one fluid backlog per link:

.. math::

    b(t + dt) = \\mathrm{clip}\\big(b(t) + (f - C)\\,dt,\\; 0,\\; B\\big)

where *B* is the buffer limit.  The per-packet delay of an epoch is the
larger of the steady-state M/M/1 delay and the drain time of the average
backlog — a standard fluid approximation that is exact in the two
regimes (empty queue / persistent backlog) and smooth in between.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.exceptions import CapacityError
from repro.fluid.delay import DelayModel
from repro.graph.topology import LinkId


class FluidQueues:
    """Per-link fluid backlog state for a quasi-static run."""

    def __init__(
        self,
        model: DelayModel,
        queue_limit: float | None,
    ) -> None:
        if queue_limit is not None and queue_limit <= 0:
            raise CapacityError(
                f"queue_limit must be positive: {queue_limit!r}"
            )
        self.model = model
        self.queue_limit = queue_limit
        self.backlog: dict[LinkId, float] = {
            link_id: 0.0 for link_id in model.functions
        }
        self.dropped = 0.0  # fluid packets lost to full buffers

    def step(
        self, flows: Mapping[LinkId, float], dt: float
    ) -> dict[LinkId, float]:
        """Advance one epoch; return per-packet link delays (seconds).

        Args:
            flows: average link flows over the epoch (packets/s).
            dt: epoch duration (seconds).
        """
        delays: dict[LinkId, float] = {}
        for link_id, law in self.model.functions.items():
            f = flows.get(link_id, 0.0)
            before = self.backlog[link_id]
            after = before + (f - law.capacity) * dt
            if after < 0.0:
                after = 0.0
            if self.queue_limit is not None and after > self.queue_limit:
                self.dropped += (after - self.queue_limit)
                after = self.queue_limit
            self.backlog[link_id] = after

            mid = 0.5 * (before + after)
            if f < law.knee:
                # Subcritical: the M/M/1 steady state is meaningful.
                steady = 1.0 / (law.capacity - f) + law.prop_delay
            else:
                # At or beyond the knee there is no steady state — the
                # transient backlog *is* the queueing delay.
                steady = 0.0
            backlogged = (mid + 1.0) / law.capacity + law.prop_delay
            delay = max(steady, backlogged)
            if self.queue_limit is not None:
                cap = (self.queue_limit + 1.0) / law.capacity + law.prop_delay
                delay = min(delay, cap)
            delays[link_id] = delay
        return delays

    def costs(
        self, flows: Mapping[LinkId, float], delays: Mapping[LinkId, float]
    ) -> dict[LinkId, float]:
        """Measured marginal-delay costs for the epoch.

        The analytic marginal, floored by the actually-experienced
        per-packet delay (a measurement-based estimator can never report
        less than what packets are currently seeing).
        """
        return {
            link_id: max(
                self.model[link_id].marginal(flows.get(link_id, 0.0)),
                delays[link_id],
            )
            for link_id in self.model.functions
        }

    def drop_link(self, link_id: LinkId) -> None:
        """A link failed: its queued backlog is lost with it."""
        lost = self.backlog.get(link_id, 0.0)
        if lost:
            self.dropped += lost
            self.backlog[link_id] = 0.0
