"""Routing parameters and the paper's flow-allocation heuristics.

Once MPDA hands a router the successor set :math:`S^i_j`, traffic for
destination *j* is split over it with routing parameters
:math:`\\phi^i_{jk}` (Eq. 15).  The paper gives two heuristics:

**IH** (initial heuristic, Fig. 6) runs whenever the successor set
changes and distributes traffic inversely to the marginal distance
through each successor:

.. math::

   \\phi_{jk} = \\frac{1 - (D^i_{jk} + l^i_k) / \\sum_{m \\in S}
   (D^i_{jm} + l^i_m)}{|S^i_j| - 1}

**AH** (adjustment heuristic, Fig. 7) runs every short interval ``Ts``
and incrementally moves traffic from successors with large marginal
distance to the best successor, by an amount proportional to the excess
:math:`a_{jk} = (D_{jk} + l_k) - D^{min}_j`, scaled so that no parameter
goes negative:

.. math::

   \\eta = \\min\\{\\phi_{jk} / a_{jk} : k \\in S, a_{jk} \\ne 0\\},\\quad
   \\phi_{jk} \\mathrel{-}= \\eta\\, a_{jk} \\;(k \\ne k_0),\\quad
   \\phi_{jk_0} \\mathrel{+}= \\textstyle\\sum_q \\eta\\, a_{jq}.

Both preserve **Property 1** at every instant: parameters are
non-negative, zero off the successor set, and sum to one.  AH drives the
allocation toward the perfect-load-balancing conditions (Eqs. 10-12):
its fixed points are exactly the allocations whose in-use successors all
have equal, minimal marginal distance.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.exceptions import AllocationError
from repro.graph.topology import NodeId

#: Marginal-distance differences below this (seconds) are treated as ties.
DISTANCE_EPSILON = 1e-15

#: Routing parameters below this are a drained successor's fp residue.
PHI_EPSILON = 1e-15

INFINITY = float("inf")


def _check_distances(distance_via: Mapping[NodeId, float]) -> None:
    """Reject a NaN, negative or infinite marginal distance, naming the
    successor: IH's shares and AH's step are meaningless past one."""
    for k, d in distance_via.items():
        if not 0.0 <= d < INFINITY:
            raise AllocationError(f"invalid marginal distance via {k!r}: {d!r}")


def ih(distance_via: Mapping[NodeId, float]) -> dict[NodeId, float]:
    """Initial load assignment over a fresh successor set (Fig. 6).

    Args:
        distance_via: for each successor *k*, the marginal distance
            through it, :math:`D^i_{jk} + l^i_k`.  Must be non-empty.

    Returns:
        Routing parameters over exactly the given successors.
    """
    if not distance_via:
        raise AllocationError("IH needs a non-empty successor set")
    _check_distances(distance_via)
    if len(distance_via) == 1:
        (only,) = distance_via
        return {only: 1.0}
    total = sum(distance_via.values())
    if not total < INFINITY:
        raise AllocationError(
            "marginal distances via "
            f"{', '.join(map(repr, distance_via))} sum to {total!r}"
        )
    n = len(distance_via)
    if total <= 0.0:
        # All distances zero: nothing distinguishes the successors.
        return {k: 1.0 / n for k in distance_via}
    return {
        k: (1.0 - d / total) / (n - 1) for k, d in distance_via.items()
    }


def _best_successor(
    distance_via: Mapping[NodeId, float], d_min: float
) -> NodeId:
    """The single best successor :math:`k_0`: minimal marginal distance,
    ties broken by natural node order (falling back to ``repr`` only for
    mixed-type node ids, which do not define ``<``).  Natural order keeps
    the choice stable under renumbering — ``repr`` would sort node 10
    ahead of node 2.
    """
    ties = [
        k for k in distance_via if distance_via[k] <= d_min + DISTANCE_EPSILON
    ]
    try:
        return min(ties)
    except TypeError:
        return min(ties, key=repr)


def ah(
    phi: Mapping[NodeId, float],
    distance_via: Mapping[NodeId, float],
    *,
    damping: float = 1.0,
) -> dict[NodeId, float]:
    """Incremental load adjustment (Fig. 7).

    Args:
        phi: current routing parameters over the successor set.
        distance_via: marginal distance through each successor (same key
            set as ``phi``).
        damping: fraction of the paper's step to take; 1.0 is the paper's
            heuristic, smaller values are available for ablation studies.

    Returns:
        Adjusted parameters; traffic moves from costlier successors to
        the single best successor :math:`k_0`.
    """
    if set(phi) != set(distance_via):
        raise AllocationError(
            f"phi keys {sorted(map(repr, phi))} do not match distance keys "
            f"{sorted(map(repr, distance_via))}"
        )
    if not phi:
        raise AllocationError("AH needs a non-empty successor set")
    if not 0.0 < damping <= 1.0:
        raise AllocationError(f"damping must be in (0, 1]: {damping!r}")
    _check_distances(distance_via)
    if len(phi) == 1:
        (only,) = phi
        return {only: 1.0}

    d_min = min(distance_via.values())
    best = _best_successor(distance_via, d_min)
    excess = {k: max(distance_via[k] - d_min, 0.0) for k in distance_via}

    # The step size is the largest eta for which no parameter goes
    # negative.  Successors already at zero contribute nothing to move,
    # so they must not pin eta at zero (the paper's min is over the
    # successors actually carrying traffic).
    ratios = [
        phi[k] / excess[k]
        for k in phi
        if k != best and excess[k] > DISTANCE_EPSILON and phi[k] > 0.0
    ]
    if not ratios:
        return dict(phi)  # nothing movable: at a fixed point
    eta = damping * min(ratios)

    adjusted = {}
    moved = 0.0
    for k in phi:
        if k == best:
            continue
        delta = min(eta * excess[k], phi[k])  # guard fp rounding
        remaining = phi[k] - delta
        if remaining < PHI_EPSILON:
            # Snap the drained successor to exactly zero: a denormal
            # residue would pass the phi > 0 guard above and pin eta
            # near zero on every later step, stalling the adjustment.
            delta, remaining = phi[k], 0.0
        adjusted[k] = remaining
        moved += delta
    adjusted[best] = phi[best] + moved
    return adjusted


def validate_property1(
    phi: Mapping[NodeId, float],
    successors: Iterable[NodeId],
    *,
    tolerance: float = 1e-9,
) -> None:
    """Assert Property 1 of the paper for one (router, destination) pair.

    Parameters must be non-negative, restricted to the successor set, and
    sum to one (or be entirely empty when the router carries no traffic).
    """
    allowed = set(successors)
    total = 0.0
    for k, fraction in phi.items():
        if fraction != fraction:
            raise AllocationError(f"phi[{k!r}] = {fraction!r} is not a number")
        if fraction < -tolerance:
            raise AllocationError(f"phi[{k!r}] = {fraction!r} < 0")
        if fraction > tolerance and k not in allowed:
            raise AllocationError(
                f"phi[{k!r}] = {fraction!r} but {k!r} is not a successor"
            )
        total += fraction
    if phi and abs(total - 1.0) > tolerance:
        raise AllocationError(f"phi sums to {total!r}, expected 1")


class AllocationTable:
    """Per-router routing parameters for every destination.

    Tracks the successor set used for each destination; when it changes,
    the next update re-runs IH ("when :math:`S^i_j` is computed for the
    first time or recomputed again due to long-term route changes, traffic
    should be freshly distributed"), otherwise AH adjusts incrementally.

    Each destination's entry is one dict, replaced and never edited in
    place, so readers are handed the stored entries themselves and must
    not edit them either.  An update whose result equals the stored
    entry in items *and* key order keeps the stored object: key order
    is part of an entry, since the fluid evaluator sums fractions and
    the packet plane draws successors in that order.  Only a new entry
    is checked against Property 1.
    """

    def __init__(self, router: NodeId, *, damping: float = 1.0) -> None:
        self.router = router
        self.damping = damping
        self._phi: dict[NodeId, dict[NodeId, float]] = {}
        self._successors: dict[NodeId, frozenset[NodeId]] = {}

    def update(
        self,
        destination: NodeId,
        distance_via: Mapping[NodeId, float],
    ) -> Mapping[NodeId, float]:
        """Refresh parameters for ``destination``.

        Args:
            distance_via: marginal distance through each *current*
                successor.  An empty mapping clears the entry (no route).

        Returns:
            The stored parameters (read-only).

        Raises:
            AllocationError: naming the router and the destination, for
                an invalid distance or a new entry that breaks
                Property 1.
        """
        successors = frozenset(distance_via)
        if not successors:
            self._phi.pop(destination, None)
            self._successors.pop(destination, None)
            return {}
        try:
            if self._successors.get(destination) != successors:
                phi = ih(distance_via)
            else:
                old = self._phi[destination]
                phi = ah(old, distance_via, damping=self.damping)
                if phi == old and list(phi) == list(old):
                    return old
            validate_property1(phi, successors)
        except AllocationError as exc:
            raise AllocationError(
                f"router {self.router!r} toward {destination!r}: {exc}"
            ) from None
        self._phi[destination] = phi
        self._successors[destination] = successors
        return phi

    def as_phi(self) -> dict[NodeId, Mapping[NodeId, float]]:
        """This router's slice of the global phi mapping: a new map of
        the stored, read-only entries."""
        return dict(self._phi)
