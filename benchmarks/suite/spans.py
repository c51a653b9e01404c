"""Outside-in per-layer timing: spans around each layer's entry points.

The traced run wraps the entry points listed in :data:`SPAN_TABLE`
(class methods and module functions of ``repro``) with a timing span.
Nothing under ``src/`` changes: the wrappers are installed on the
classes and modules for the duration of a ``with installed(clock):``
block and every original attribute is restored on exit.

A layer's self time is its spans' time minus the time of the spans they
called, so self times never double count and their sum is the time
spent inside any span. Time outside every span (engine construction,
result assembly) is "unattributed". Spans are aggregated in memory per
layer (calls and self nanoseconds), never recorded one by one.

Wrappers are installed before any engine is built: several components
bind methods once at wiring time (``ingress.sink = engine.receive``,
``link.batch_sink = stager.stage``), and those bindings pick up the
wrapper only if it is already on the class.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: The NF hooks the engine calls, wrapped on every NF class that defines them.
_NF_HOOKS = ("connection_packets", "regular_packets")

#: ``(layer, module, class or None for module functions, attributes)``.
#: A rename in ``src/`` that drops an entry makes :func:`resolve` raise.
SPAN_TABLE: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("sim", "repro.sim.engine", "Simulator", ("run",)),
    ("cpu", "repro.cpu.core", "Core", ("_start_batch", "_complete")),
    ("core.batch_spine", "repro.core.batch_spine", "ArrivalStager", ("stage", "settle_due")),
    ("nic.link", "repro.nic.link", "Link",
     ("send", "send_batch", "send_many", "flush_deferred")),
    ("nic", "repro.nic.nic", "MultiQueueNic", ("receive", "steer_batch")),
    ("trafficgen", "repro.trafficgen.moongen", "OpenLoopGenerator", ("_burst", "_send_syns")),
    ("trafficgen", "repro.experiments.figs", "SynFloodGenerator", ("_tick",)),
    # A module function is wrapped in the namespace its callers look it
    # up in. The drivers draw a run's flow set through these three; figS
    # draws through its own namespace, so the flood's rejection sampling
    # stays in ``experiments`` set-up, where it belongs.
    ("trafficgen", "repro.experiments.harness", None, ("random_tcp_flows",)),
    ("trafficgen", "repro.faults.study", None, ("random_tcp_flows",)),
    ("trafficgen", "repro.trafficgen.iperf", None, ("random_tcp_flows",)),
    ("core.engine", "repro.core.engine", "MiddleboxEngine", ("receive", "_transfer")),
    ("core.rings", "repro.core.rings", "TransferRing", ("push", "push_batch", "pop_batch")),
    ("core.flow_state", "repro.core.nf", "NfContext",
     ("insert_local_flow", "remove_local_flow", "get_local_flow", "get_flow", "get_flows")),
    # Batch-capable NFs read flow state through the backends directly.
    ("core.flow_state", "repro.core.flow_state", "PartitionedFlowState", ("get_many",)),
    ("core.flow_state", "repro.core.flow_state", "ScrFlowState", ("get_many",)),
    ("core.flow_state", "repro.core.flow_state", "SharedFlowState", ("get_many",)),
    ("core.flow_state", "repro.core.flow_state", "RemoteFlowState", ("get_many",)),
    ("steering", "repro.steering.scr", "ScrReplication", ("observe", "sync", "deliver")),
    ("steering", "repro.steering.rss", "RssPolicy", ("designated_core",)),
    ("steering", "repro.steering.sprayer", "SprayerPolicy", ("designated_core",)),
    ("steering", "repro.steering.scr", "ScrPolicy", ("designated_core",)),
    ("nfs", "repro.core.nf", "NetworkFunction", _NF_HOOKS + ("process_batch",)),
    ("nfs", "repro.core.chain", "NfChain", _NF_HOOKS),
    ("nfs", "repro.nfs.synthetic", "SyntheticNf", _NF_HOOKS + ("process_batch",)),
    ("nfs", "repro.nfs.firewall", "FirewallNf", _NF_HOOKS),
    ("nfs", "repro.nfs.nat", "NatNf", _NF_HOOKS),
    ("nfs", "repro.nfs.dpi", "DpiNf", _NF_HOOKS),
    ("nfs", "repro.nfs.dpi_ooo", "OooDpiNf", _NF_HOOKS),
    ("nfs", "repro.nfs.load_balancer", "LoadBalancerNf", _NF_HOOKS),
    ("nfs", "repro.nfs.traffic_monitor", "TrafficMonitorNf", _NF_HOOKS),
    ("nfs", "repro.nfs.redundancy", "RedundancyEliminationNf", ("regular_packets",)),
    # The delayed-ACK flush and the first SYN fire from the event heap
    # like the RTO does; without them their time would land in ``sim``.
    ("tcpstack", "repro.tcpstack.endpoint", "TcpSenderEndpoint",
     ("receive", "_on_rto", "_send_syn")),
    ("tcpstack", "repro.tcpstack.endpoint", "TcpReceiverEndpoint", ("receive", "_flush_ack")),
    ("metrics", "repro.metrics.latency", "LatencyRecorder", ("record",)),
    ("metrics", "repro.metrics.throughput", "RateMeter", ("record",)),
    ("metrics", "repro.metrics.reordering", "ReorderingTracker", ("observe",)),
    ("telemetry", "repro.telemetry.sampler", "EngineSampler", ("_tick",)),
    ("telemetry", "repro.telemetry.hub", "EngineTelemetry", ("dump",)),
    ("experiments", "repro.experiments.figs", None, ("hotspot_flows",)),
    # The workloads call ``repro.plan.build_chain``, the package re-export.
    ("experiments", "repro.plan", None, ("build_chain",)),
)

#: Factories whose *returned* callable is the span: the engine builds one
#: processor closure per core (``_make_processor`` delegates to
#: ``_make_scr_processor`` under scr, so wrapping it covers both).
FACTORY_TABLE: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("core.engine", "repro.core.engine", "MiddleboxEngine", ("_make_processor",)),
)

#: Every layer, in the order the tables name them.
LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(row[0] for row in SPAN_TABLE + FACTORY_TABLE)
)


class SpanTableError(LookupError):
    """A span-table entry no longer resolves to a function."""


class LayerClock:
    """Per-layer span aggregates: calls and self time in nanoseconds."""

    def __init__(self) -> None:
        #: layer -> [calls, self_ns]
        self.layers: Dict[str, List[int]] = {layer: [0, 0] for layer in LAYERS}
        #: Child-span time of each open span; the bottom slot collects
        #: the time of top-level spans, i.e. all attributed time.
        self._stack: List[int] = [0]

    @property
    def attributed_ns(self) -> int:
        return self._stack[0]

    def span(self, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span charged to ``layer``."""
        acc = self.layers[layer]
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                acc[1] += elapsed - stack.pop()
                acc[0] += 1
                stack[-1] += elapsed

        return spanned

    def factory(self, layer: str, make: Callable) -> Callable:
        """``make`` changed to return its result wrapped in a span."""
        span = self.span

        @functools.wraps(make)
        def spanned_factory(*args, **kwargs):
            return span(layer, make(*args, **kwargs))

        return spanned_factory


#: A resolved entry: (owner, attribute, original, layer, is_factory).
Target = Tuple[object, str, Callable, str, bool]


def resolve() -> List[Target]:
    """Every table entry as a live (owner, attribute, original) target.

    Raises :class:`SpanTableError` naming every entry that is missing, is
    not a plain function, or appears twice.
    """
    targets: List[Target] = []
    problems: List[str] = []
    seen = set()
    tables = [(row, False) for row in SPAN_TABLE] + [(row, True) for row in FACTORY_TABLE]
    for (layer, module_name, class_name, attrs), is_factory in tables:
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            problems.append(f"{module_name}: {exc}")
            continue
        owner = module if class_name is None else getattr(module, class_name, None)
        if owner is None:
            problems.append(f"{module_name}.{class_name}: no such class")
            continue
        for attr in attrs:
            where = f"{module_name}.{class_name + '.' if class_name else ''}{attr}"
            if class_name is None:
                fn = getattr(owner, attr, None)
            else:
                # Only attributes the class itself defines: wrapping an
                # inherited one would shadow it and double count.
                fn = owner.__dict__.get(attr)
            if not callable(fn) or isinstance(fn, type):
                problems.append(f"{where}: missing or not a function")
            elif (id(owner), attr) in seen:
                problems.append(f"{where}: listed twice")
            else:
                seen.add((id(owner), attr))
                targets.append((owner, attr, fn, layer, is_factory))
    if problems:
        raise SpanTableError("span table does not resolve:\n  " + "\n  ".join(problems))
    return targets


@contextmanager
def installed(clock: LayerClock) -> Iterator[List[Target]]:
    """Wrap every table entry with ``clock``'s spans; restore on exit."""
    targets = resolve()
    done: List[Target] = []
    try:
        for target in targets:
            owner, attr, fn, layer, is_factory = target
            wrapper = clock.factory(layer, fn) if is_factory else clock.span(layer, fn)
            setattr(owner, attr, wrapper)
            done.append(target)
        yield targets
    finally:
        for owner, attr, fn, _layer, _is_factory in reversed(done):
            setattr(owner, attr, fn)
