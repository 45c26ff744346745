"""Packet-level discrete-event network simulator.

A from-scratch substrate (no simpy in this offline environment) used for
packet-granularity experiments and for validating the fluid model:

- :mod:`repro.netsim.engine` — the event scheduler, a binary heap of
  ``(time, seq, callback)`` tuples with no cancellation;
- :mod:`repro.netsim.packet` / :mod:`queueing` / :mod:`link` /
  :mod:`node` — the data plane (FIFO output queues, transmission +
  propagation, per-destination weighted splitting);
- :mod:`repro.netsim.traffic` — Poisson sources, and on/off sources
  that replay a bursty scenario's precomputed windows;
- :mod:`repro.netsim.monitor` — delay and flow measurement windows;
- :mod:`repro.netsim.network` — assembles everything from a
  :class:`~repro.graph.topology.Topology`.
"""

from repro.netsim.engine import Engine
from repro.netsim.packet import Packet
from repro.netsim.network import PacketNetwork
from repro.netsim.traffic import PoissonSource

__all__ = [
    "Engine",
    "Packet",
    "PacketNetwork",
    "PoissonSource",
]
