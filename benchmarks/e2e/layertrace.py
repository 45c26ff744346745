"""Outside-in per-layer tracing for the end-to-end benchmark.

The traced pass wraps the public functions of the ``repro.*`` layers
listed in :data:`LAYERS` and records one span per call: name, start,
end, parent span and pass id.  Nothing inside ``src/`` changes and
``repro.obs`` is never opened, because an open observation changes the
program under test (``mp-oracle`` upgrades to the live protocol and the
packet network grows delay histograms).

A function can be bound in many places: ``from repro.core.lfi import
lfi_successors`` copies the reference into the importing module, so
patching the defining module alone would miss those calls.  Module-level
functions are therefore replaced in every loaded ``repro`` module that
holds them; methods are replaced on the class that defines them, which
covers subclasses and ``super()`` calls.  :meth:`Tracer.uninstall` puts
every original object back, including references that modules imported
during the traced pass copied from an already patched module.

Self time is a span's duration minus the time its child spans cover; it
is accumulated online per function and per (function, parent function)
edge.  Individual spans are kept for the first :data:`STORED_SPANS`
calls of each function and written out at exit; calls beyond that are
kept only in the edge aggregates, which bounds memory on hot functions.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types

#: Individual spans kept per function and pass; later calls are only
#: aggregated per (function, parent) edge.
STORED_SPANS = 10_000

#: layer -> (module, qualified names).  ``Class.method`` entries are
#: wrapped on the class only when that class defines the method itself;
#: an inherited method is already covered by its defining class.
LAYERS: dict[str, list[tuple[str, str]]] = {
    "sim.control": [
        ("repro.sim.control", "TwoTimescaleController.run"),
        ("repro.sim.control", "FluidPlane.advance"),
        ("repro.sim.control", "PacketPlane.advance"),
    ],
    "core.router": [
        ("repro.core.router", f"MPRouting.{name}")
        for name in (
            "update_routes",
            "adjust_allocation",
            "fail_link",
            "restore_link",
        )
    ],
    "core.driver": [
        ("repro.core.driver", f"ProtocolDriver.{name}")
        for name in ("start", "set_costs", "fail_link", "restore_link", "run")
    ],
    "core.pda": [
        *(
            (module, f"{cls}.{name}")
            for module, cls in (
                ("repro.core.pda", "PDARouter"),
                ("repro.core.mpda", "MPDARouter"),
            )
            for name in ("receive", "link_up", "link_down", "link_cost_change")
        ),
        # The Theorem-3 check a driver built with check_invariants runs
        # after every delivery (the fuzz cases); without this entry its
        # time would count as ProtocolDriver.run's own.
        ("repro.core.mpda", "check_safety"),
    ],
    "core.transport": [
        ("repro.core.transport", f"{cls}.{name}")
        for cls in ("PerfectChannel", "FaultyChannel", "ReliableTransport")
        for name in ("send", "pop", "tick")
    ],
    "core.allocation": [
        ("repro.core.allocation", "AllocationTable.update"),
        ("repro.core.allocation", "AllocationTable.update_many"),
    ],
    "core.lfi": [("repro.core.lfi", "lfi_successors")],
    "graph.shortest_paths": [
        ("repro.graph.shortest_paths", "SharedSPF.distances_to"),
        ("repro.graph.shortest_paths", "dijkstra"),
        ("repro.graph.shortest_paths", "k_shortest_paths"),
    ],
    "fluid": [
        ("repro.fluid.evaluator", "link_flows"),
        ("repro.fluid.evaluator", "flow_delays"),
        ("repro.fluid.evaluator", "evaluate"),
        ("repro.fluid.queues", "FluidQueues.step"),
        ("repro.fluid.queues", "FluidQueues.costs"),
    ],
    "gallager": [("repro.gallager.opt", "optimize")],
    "netsim": [
        ("repro.netsim.network", "PacketNetwork.run"),
        ("repro.netsim.network", "PacketNetwork.measure_costs"),
    ],
    "testing.fuzz": [
        ("repro.testing.fuzz", "generate_case"),
        ("repro.testing.fuzz", "examine_case"),
    ],
}

#: The routing-policy lifecycle methods wrapped on every registered
#: policy class (layer ``policy``, resolved from the registry at install
#: time so new policies are covered without editing this file).
POLICY_METHODS = ("on_costs", "on_short_costs", "on_link_event", "phi")

#: Wrapped functions whose first argument (``self``) is kept so the
#: layer counts can be read off the instances after the pass.
_TRACKED = ("core.driver.ProtocolDriver.start", "netsim.PacketNetwork.run")
_GALLAGER = "gallager.optimize"


def layer_of(name: str) -> str:
    """The layer prefix of a wrapped function's metric name."""
    for layer in (*LAYERS, "policy"):
        if name.startswith(layer + "."):
            return layer
    raise KeyError(name)


def _policy_targets() -> list[tuple[str, type, str]]:
    """(metric name, defining class, method) for every registered policy."""
    from repro.policy import available_policies

    seen: dict[tuple[type, str], str] = {}
    for cls in available_policies().values():
        for method in POLICY_METHODS:
            owner = next(
                (k for k in cls.__mro__ if method in vars(k)), None
            )
            if owner is not None and (owner, method) not in seen:
                seen[(owner, method)] = f"policy.{owner.__name__}.{method}"
    return [(name, owner, method) for (owner, method), name in seen.items()]


class Tracer:
    """Installs span-recording wrappers for one traced pass.

    Call :meth:`uninstall` in a ``finally`` after :meth:`install`, so
    the wrappers go whether or not the pass raised.
    """

    def __init__(self, pass_id: str, clock=time.perf_counter) -> None:
        self.pass_id = pass_id
        #: span clock; the benchmark passes one that leaves out the
        #: machine-speed probes (``speed.Sampler.clock``)
        self.clock = clock
        #: name -> [calls, total_s, self_s]
        self.stats: dict[str, list] = {}
        #: (name, parent name or None) -> [calls, total_s, self_s]
        self.edges: dict[tuple[str, str | None], list] = {}
        #: (id, name, start, end, parent id) of stored spans
        self.spans: list[tuple] = []
        #: summed duration of spans with no wrapped ancestor
        self.root_s = 0.0
        #: qualified names that no longer exist in the program
        self.missing: list[str] = []
        self.instances: dict[str, dict[int, object]] = {
            name: {} for name in _TRACKED
        }
        self.gallager_iterations = 0
        self._stack: list[list] = []
        self._next_id = 0
        #: (container, attribute, original) in patch order
        self._patches: list[tuple[object, str, object]] = []
        #: wrapper object -> original object
        self._originals: dict[int, object] = {}
        self.origin = 0.0

    # -- installation ---------------------------------------------------
    def targets(self) -> list[tuple[str, object, str]]:
        """(metric name, container, attribute) for everything to wrap."""
        found: list[tuple[str, object, str]] = []
        for layer, entries in LAYERS.items():
            for module_name, qualname in entries:
                try:
                    owner = importlib.import_module(module_name)
                except ImportError:
                    self.missing.append(f"{module_name}.{qualname}")
                    continue
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                if owner is None or not callable(getattr(owner, attr, None)):
                    self.missing.append(f"{module_name}.{qualname}")
                    continue
                if path and attr not in vars(owner):
                    continue  # inherited: wrapped on the defining class
                found.append((f"{layer}.{qualname}", owner, attr))
        try:
            policy = _policy_targets()
        except ImportError:
            self.missing.append("repro.policy.available_policies")
            policy = []
        found.extend(policy)
        return found

    def install(self) -> None:
        self.origin = self.clock()
        modules = _repro_modules()
        for name, owner, attr in self.targets():
            original = vars(owner)[attr]
            if not isinstance(original, types.FunctionType):
                self.missing.append(name)  # e.g. now a staticmethod
                continue
            self.stats[name] = [0, 0.0, 0.0]
            wrapper = self._wrap(name, original)
            self._originals[id(wrapper)] = original
            self._patch(owner, attr, original, wrapper)
            if isinstance(owner, type):
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original and module is not owner:
                        self._patch(module, key, original, wrapper)

    def _patch(self, container, attr, original, wrapper) -> None:
        setattr(container, attr, wrapper)
        self._patches.append((container, attr, original))

    def uninstall(self) -> None:
        for container, attr, original in reversed(self._patches):
            setattr(container, attr, original)
        self._patches.clear()
        # Modules first imported during the pass copied wrappers out of
        # already patched modules; hand them the originals too.
        for module in _repro_modules():
            for key, value in list(vars(module).items()):
                original = self._originals.get(id(value))
                if original is not None and value is not original:
                    setattr(module, key, original)

    # -- recording ------------------------------------------------------
    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = self.clock
        close = self._close
        track = self.instances.get(name)
        gallager = name == _GALLAGER

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if track is not None and args:
                track[id(args[0])] = args[0]
            frame = [name, clock(), 0.0, self._next_id]
            self._next_id += 1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                close(frame, end)
            if gallager:
                self.gallager_iterations += getattr(result, "iterations", 0)
            return result

        return wrapper

    def _close(self, frame: list, end: float) -> None:
        name, start, child_s, span_id = frame
        duration = end - start
        own = duration - child_s
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self.root_s += duration
            parent_name = parent_id = None
        else:
            parent[2] += duration
            parent_name, parent_id = parent[0], parent[3]
        stat = self.stats[name]
        stat[0] += 1
        stat[1] += duration
        stat[2] += own
        edge = self.edges.get((name, parent_name))
        if edge is None:
            edge = self.edges[(name, parent_name)] = [0, 0.0, 0.0]
        edge[0] += 1
        edge[1] += duration
        edge[2] += own
        if stat[0] <= STORED_SPANS:
            self.spans.append((span_id, name, start, end, parent_id))

    # -- results --------------------------------------------------------
    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-function, per-layer and count metrics of the traced pass."""
        out: dict[str, float] = {}
        layers: dict[str, float] = {}
        for name, (calls, _total, own) in sorted(self.stats.items()):
            out[f"{name}.self_s"] = own
            out[f"{name}.calls"] = calls
            layer = layer_of(name)
            layers[layer] = layers.get(layer, 0.0) + own
        for layer in (*LAYERS, "policy"):
            out[f"{layer}.self_s"] = layers.get(layer, 0.0)
        out.update(self._driver_counts())
        out.update(self._netsim_counts())
        iterations = self.gallager_iterations
        out["gallager.iterations"] = iterations
        out["gallager.iterations_per_s"] = _rate(
            iterations, self.total_s(_GALLAGER)
        )
        out["trace.unattributed_s"] = wall_s - self.root_s
        return out

    def total_s(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat[1] if stat else 0.0

    def _driver_counts(self) -> dict[str, float]:
        drivers = list(self.instances[_TRACKED[0]].values())
        stats = [driver.message_stats() for driver in drivers]
        routers = [r for d in drivers for r in d.routers.values()]
        deliveries = sum(s.get("delivered", 0) for s in stats)
        received = sum(s.get("lsu_received", 0) for s in stats)
        mtu_runs = sum(s.get("mtu_runs", 0) for s in stats)
        data = frames = retransmits = timeouts = 0
        for driver in drivers:
            wire = driver.transport.stats()
            retransmits += wire.get("retransmits", 0)
            timeouts += wire.get("timeouts", 0)
            if "payloads_delivered" in wire:
                data += wire["payloads_delivered"]
                frames += (
                    wire["data_sent"] + wire["retransmits"] + wire["acks_sent"]
                )
            else:
                data += wire.get("delivered", 0)
                frames += wire.get("sent", 0)
        return {
            "core.driver.deliveries": deliveries,
            "core.driver.deliveries_per_s": _rate(
                deliveries, self.total_s("core.driver.ProtocolDriver.run")
            ),
            "core.pda.lsu_sent": sum(s.get("lsu_sent", 0) for s in stats),
            "core.pda.mtu_runs": mtu_runs,
            "core.pda.mtu_per_lsu": _rate(mtu_runs, received),
            "core.mpda.transitions": sum(
                getattr(r, "transitions", 0) for r in routers
            ),
            "core.mpda.acks_received": sum(
                getattr(r, "acks_received", 0) for r in routers
            ),
            "core.transport.retransmits": retransmits,
            "core.transport.timeouts": timeouts,
            "core.transport.goodput_ratio": _rate(data, frames),
        }

    def _netsim_counts(self) -> dict[str, float]:
        networks = list(self.instances[_TRACKED[1]].values())
        events = sum(net.engine.processed for net in networks)
        delivered = sum(net.flow_monitor.total_delivered() for net in networks)
        return {
            "netsim.events": events,
            "netsim.events_per_s": _rate(
                events, self.total_s("netsim.PacketNetwork.run")
            ),
            "netsim.packets_delivered": delivered,
            "netsim.events_per_packet": _rate(events, delivered),
            "netsim.queue_drops": sum(
                net.flow_monitor.queue_drops for net in networks
            ),
        }

    def write(self, path: str, *, workload: str, wall_s: float) -> None:
        """Write the stored spans and the edge aggregates as JSON lines.

        Times are seconds from the start of the traced pass.
        """
        origin = self.origin
        with open(path, "w") as fh:
            header = {
                "pass": self.pass_id,
                "workload": workload,
                "wall_s": wall_s,
                "stored_spans_per_function": STORED_SPANS,
                "missing": self.missing,
            }
            fh.write(json.dumps(header) + "\n")
            for span_id, name, start, end, parent in self.spans:
                span = {
                    "id": span_id,
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    "pass": self.pass_id,
                }
                fh.write(json.dumps(span) + "\n")
            for (name, parent), (calls, total, own) in sorted(
                self.edges.items(), key=lambda item: (item[0][0], str(item[0][1]))
            ):
                edge = {
                    "edge": name,
                    "parent_name": parent,
                    "calls": calls,
                    "total_s": total,
                    "self_s": own,
                    "pass": self.pass_id,
                }
                fh.write(json.dumps(edge) + "\n")


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _rate(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
