"""The routing-policy zoo: one protocol, many algorithms.

A :class:`RoutingPolicy` owns the successor sets and split fractions for
every (node, destination) pair and exposes a uniform lifecycle to the
two-timescale controller: ``initialize`` at boot, ``on_costs`` at every
``Tl``, ``on_short_costs`` at every ``Ts``, ``on_link_event`` when the
scenario fails or restores a link, and ``routing()``/``phi()`` on the
read side.  Policies register under a short name (``repro policies``
lists them); the controller, the figure harness, and the CLI resolve
policies through :func:`create_policy` instead of scattering mode
strings.

Importing this package populates the registry — the module imports at
the bottom are load-bearing, not cosmetic.
"""

from __future__ import annotations

from repro.policy.base import RoutingPolicy, RoutingTables
from repro.policy.registry import (
    available_policies,
    create_policy,
    policy_class,
    register,
)

# Registration side effects: each module decorates its classes with
# @register at import time.
from repro.policy import backpressure as _backpressure  # noqa: E402,F401
from repro.policy import ecmp_k as _ecmp_k  # noqa: E402,F401
from repro.policy import opt as _opt  # noqa: E402,F401
from repro.policy import paper as _paper  # noqa: E402,F401

__all__ = [
    "RoutingPolicy",
    "RoutingTables",
    "available_policies",
    "create_policy",
    "policy_class",
    "register",
]
