"""Layer spans recorded from outside the program.

:class:`LayerTracer` patches the public entry points of each ``repro``
layer with a timing wrapper for the duration of a traced run and restores
them afterwards; nothing under ``src/`` knows it is being measured.

Every wrapped call is one span.  A span's *self time* is its duration
minus the time covered by the spans it encloses, so the self times of all
spans add up to the time covered by top-level spans, and the traced wall
time is exactly ``sum(layer self) + other``, where ``other`` is the time
no span covers.  Spans are kept in memory as per-(layer, name) totals,
per-op layer self times, and the first :data:`RAW_SPAN_CAP` raw spans with
their op id; :meth:`LayerTracer.dump` writes them out at the end.

Two kinds of call are charged to a layer other than the function's own
module: a message handler, registered through ``Node.register_handler``,
is charged to the layer that defines its payload class, and the fault
hook passed to ``Transport.set_fault_hook`` is charged to ``faults``.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

#: The layers a traced run reports, in report order.
LAYERS = (
    "sim",
    "net",
    "faults",
    "hierarchy",
    "aggregation",
    "core",
    "items",
    "service",
    "frontdoor",
    "vec",
    "telemetry",
    "metrics",
    "workload",
)

#: Raw spans kept for the trace file; the totals cover every span.
RAW_SPAN_CAP = 50_000


def layer_of_module(module: str) -> str:
    """``repro.aggregation.hierarchical`` -> ``aggregation``; anything
    outside the listed layers is ``other``."""
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "other"


class LayerTracer:
    """Patches layer entry points with span wrappers; see the module doc."""

    def __init__(self) -> None:
        #: (layer, name) -> [calls, total seconds, self seconds]
        self.totals: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        #: Counters observed from return values (events, verdicts, ...).
        self.counts: dict[str, float] = defaultdict(float)
        #: Op id stamped on raw spans; -1 is set-up.
        self.op = -1
        #: (op, depth, layer, name, start, duration, self); depth 1 is
        #: top level, and a span's parent is the nearest enclosing span
        #: one level up.
        self.raw: list[tuple[int, int, str, str, float, float, float]] = []
        self.per_op: list[dict[str, float]] = []
        # _stack[0] accumulates the time covered by top-level spans.
        self._stack: list[float] = [0.0]
        self._patches: list[tuple[Any, str, Any]] = []
        self._wall = 0.0
        self._opened_at: float | None = None
        self._op_mark: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        layer: str,
        name: str,
        fn: Callable[..., Any],
        observe: Callable[[Any], None] | None = None,
    ) -> Callable[..., Any]:
        """A span wrapper around ``fn``; ``observe`` sees each return
        value after the span has closed."""
        cell = self.totals[(layer, name)]
        stack = self._stack
        raw = self.raw
        tracer = self

        def spanned(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                child = stack.pop()
                stack[-1] += duration
                cell[0] += 1
                cell[1] += duration
                cell[2] += duration - child
                if len(raw) < RAW_SPAN_CAP:
                    raw.append(
                        (tracer.op, len(stack), layer, name, start, duration, duration - child)
                    )
            if observe is not None:
                observe(result)
            return result

        spanned.__wrapped__ = fn  # type: ignore[attr-defined]
        return spanned

    def patch(
        self,
        owner: Any,
        attr: str,
        layer: str,
        name: str | None = None,
        observe: Callable[[Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` (a class attribute) with a span wrapper.
        Static and class methods are re-wrapped as such."""
        original = owner.__dict__[attr]
        label = name or f"{owner.__name__}.{attr}"
        if isinstance(original, staticmethod):
            replacement: Any = staticmethod(self.wrap(layer, label, original.__func__, observe))
        elif isinstance(original, classmethod):
            replacement = classmethod(self.wrap(layer, label, original.__func__, observe))
        else:
            replacement = self.wrap(layer, label, original, observe)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def patch_function(
        self,
        module: str,
        attr: str,
        layer: str,
        observe: Callable[[Any], None] | None = None,
    ) -> None:
        """Replace a module-level function in its module and in every
        loaded ``repro`` module that imported it by name."""
        original = getattr(sys.modules[module], attr)
        wrapper = self.wrap(layer, attr, original, observe)
        for mod_name, mod in list(sys.modules.items()):
            if (
                mod is not None
                and mod_name.split(".")[0] == "repro"
                and mod.__dict__.get(attr) is original
            ):
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def patch_handler_registration(self, node_cls: Any) -> None:
        """Wrap every handler registered from now on, charged to the
        layer that defines its payload class."""
        original = node_cls.__dict__["register_handler"]
        tracer = self

        def register_handler(node: Any, payload_type: type, handler: Callable[..., Any]) -> None:
            layer = _payload_layer(payload_type)
            original(node, payload_type, tracer.wrap(layer, f"handler:{payload_type.__name__}", handler))

        self._patches.append((node_cls, "register_handler", original))
        node_cls.register_handler = register_handler

    def patch_fault_hook(self, transport_cls: Any, deliver_verdict: str) -> None:
        """Wrap whatever hook is installed through ``set_fault_hook``;
        counts calls whose verdict is not ``deliver_verdict``."""
        original = transport_cls.__dict__["set_fault_hook"]
        tracer = self
        counts = self.counts

        def set_fault_hook(transport: Any, hook: Callable[..., Any] | None) -> None:
            if hook is not None:
                timed = tracer.wrap("faults", "hook", hook)

                def hook_counted(sender: int, recipient: int, payload: Any) -> Any:
                    verdict = timed(sender, recipient, payload)
                    if verdict[0] != deliver_verdict:
                        counts["faults.hits"] += 1
                    return verdict

                hook = hook_counted
            original(transport, hook)

        self._patches.append((transport_cls, "set_fault_hook", original))
        transport_cls.set_fault_hook = set_fault_hook

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # The traced window and op boundaries
    # ------------------------------------------------------------------
    def open(self) -> None:
        """Start (or resume) counting traced wall time."""
        self._opened_at = perf_counter()

    def close(self) -> None:
        """Pause counting traced wall time (for the benchmark's checks)."""
        if self._opened_at is not None:
            self._wall += perf_counter() - self._opened_at
            self._opened_at = None

    def begin_op(self, op: int) -> None:
        self.op = op
        self._op_mark = self.layer_self()

    def end_op(self) -> None:
        now = self.layer_self()
        self.per_op.append(
            {layer: now[layer] - self._op_mark.get(layer, 0.0) for layer in now}
        )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def wall(self) -> float:
        """Traced wall time so far (the open interval included)."""
        if self._opened_at is None:
            return self._wall
        return self._wall + perf_counter() - self._opened_at

    @property
    def covered(self) -> float:
        """Time covered by top-level spans."""
        return self._stack[0]

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer, every listed layer present."""
        out = {layer: 0.0 for layer in LAYERS}
        for (layer, _), cell in self.totals.items():
            out[layer] = out.get(layer, 0.0) + cell[2]
        return out

    def calls(self, layer: str, *names: str) -> int:
        return int(sum(self.totals[(layer, name)][0] for name in names if (layer, name) in self.totals))

    def self_s(self, layer: str, *names: str) -> float:
        return sum(self.totals[(layer, name)][2] for name in names if (layer, name) in self.totals)

    def handler_s(self, layer: str) -> float:
        return float(sum(
            cell[2]
            for (span_layer, name), cell in self.totals.items()
            if span_layer == layer and name.startswith("handler:")
        ))

    def dump(self, path: str) -> None:
        """Write totals, per-op layer self times and the raw spans."""
        with open(path, "w") as out:
            for (layer, name), (calls, total, own) in sorted(self.totals.items()):
                out.write(
                    json.dumps(
                        {"kind": "total", "layer": layer, "name": name,
                         "calls": int(calls), "total_s": total, "self_s": own}
                    ) + "\n"
                )
            for op, layers in enumerate(self.per_op):
                out.write(json.dumps({"kind": "op", "op": op, "self_s": layers}) + "\n")
            for op, depth, layer, name, start, duration, own in self.raw:
                out.write(
                    json.dumps(
                        {"kind": "span", "op": op, "depth": depth, "layer": layer, "name": name,
                         "start": start, "dur_s": duration, "self_s": own}
                    ) + "\n"
                )


def _payload_layer(payload_type: type) -> str:
    """The layer that defines a payload class; a tagged copy (see
    ``repro.net.tagging``) counts as its base class."""
    for cls in payload_type.__mro__:
        if cls.__module__ != "repro.net.tagging":
            return layer_of_module(cls.__module__)
    return "other"


def instrument(tracer: LayerTracer) -> None:
    """Patch the public entry points of every layer.  Call before the
    traced system is built (handlers are wrapped as they register) and
    undo with :meth:`LayerTracer.restore`."""
    from repro.aggregation import combiners
    from repro.aggregation.hierarchical import AggregationEngine
    from repro.core.continuous import EpochAttempt
    from repro.core.filters import FilterBank, HashFilter
    from repro.core.netfilter import NetFilter
    from repro.faults.injector import FaultInjector
    from repro.frontdoor.admission import AdmissionController
    from repro.frontdoor.batching import BatchSessionRunner
    from repro.frontdoor.cache import AnswerCache
    from repro.frontdoor.service import FrontDoor
    from repro.hierarchy.builder import Hierarchy
    from repro.items.itemset import FadedItemSet, LocalItemSet
    from repro.metrics import registry
    from repro.metrics.accounting import CostAccounting
    from repro.net.network import Network
    from repro.net.node import Node
    from repro.net.overlay import Topology
    from repro.net.transport import DELIVER, Transport
    from repro.service.monitor import MonitorService
    from repro.sim.engine import Simulation
    from repro.sim.trace import Tracer
    from repro.telemetry.core import Telemetry
    from repro.vec.netfilter import VecNetFilter
    from repro.workload.streams import ZipfStream
    from repro.workload.workload import Workload

    counts = tracer.counts

    def count_events(events: int) -> None:
        counts["sim.events"] += events

    def count_incomplete(handle: object) -> None:
        if not getattr(handle, "complete", True):
            counts["aggregation.incomplete"] += 1

    def count_result(result: object) -> None:
        result = getattr(result, "result", result)  # a front-door BatchOutcome
        if result is not None:
            counts["core.frequent"] += len(result.frequent)  # type: ignore[attr-defined]
            counts["core.candidates"] += len(result.candidates)  # type: ignore[attr-defined]

    def count_cache(hit: object) -> None:
        counts["frontdoor.cache_hits"] += hit is not None

    def count_batch(outcome: object) -> None:
        counts["frontdoor.sessions"] += 1
        count_result(outcome)

    patch = tracer.patch
    patch(Simulation, "run", "sim", observe=count_events)

    patch(Node, "send", "net")
    patch(Topology, "random_connected", "net")
    patch(Network, "assign_items", "net")
    tracer.patch_handler_registration(Node)
    tracer.patch_fault_hook(Transport, DELIVER)

    patch(FaultInjector, "install", "faults")

    patch(Hierarchy, "build", "hierarchy")
    tracer.patch_function("repro.hierarchy.maintenance", "enable_maintenance", "hierarchy")

    patch(AggregationEngine, "__init__", "aggregation", "AggregationEngine.init")
    patch(AggregationEngine, "start", "aggregation")
    patch(AggregationEngine, "drive_session", "aggregation", observe=count_incomplete)
    for name in dir(combiners):
        cls = getattr(combiners, name)
        if isinstance(cls, type) and issubclass(cls, combiners.Combiner):
            for method in ("combine", "combine_many"):
                if method in cls.__dict__:
                    patch(cls, method, "aggregation", f"combine:{cls.__name__}.{method}")

    patch(NetFilter, "run", "core", observe=count_result)
    patch(FilterBank, "local_group_aggregates", "core")
    patch(FilterBank, "candidate_mask", "core")
    patch(HashFilter, "group_of", "core")
    tracer.patch_function("repro.core.verification", "materialize_candidates", "core")
    patch(EpochAttempt, "fold", "core")
    patch(EpochAttempt, "commit", "core")

    patch(LocalItemSet, "merge", "items")
    patch(LocalItemSet, "merge_many", "items")
    patch(FadedItemSet, "merge", "items")
    patch(FadedItemSet, "merge_faded", "items")

    patch(MonitorService, "run_one", "service")
    patch(MonitorService, "run", "service")

    patch(FrontDoor, "submit", "frontdoor")
    patch(FrontDoor, "run", "frontdoor")
    patch(FrontDoor, "drain", "frontdoor")
    patch(AdmissionController, "decide", "frontdoor")
    patch(BatchSessionRunner, "run", "frontdoor", observe=count_batch)
    patch(AnswerCache, "lookup", "frontdoor", observe=count_cache)

    patch(VecNetFilter, "run", "vec", observe=count_result)
    tracer.patch_function("repro.vec.engine", "group_aggregate", "vec")
    tracer.patch_function("repro.vec.engine", "candidate_rows", "vec")
    tracer.patch_function("repro.vec.build", "build_table", "vec")

    # The event trace lives in repro.sim but is the observability path;
    # it is charged to telemetry so sim.self_s stays the event loop.
    patch(Telemetry, "emit", "telemetry")
    patch(Tracer, "emit", "telemetry", "Tracer.emit")

    for method in ("record", "bytes_by_category", "total_bytes"):
        patch(CostAccounting, method, "metrics")
    patch(registry.CounterMetric, "inc", "metrics")
    patch(registry.HistogramMetric, "observe", "metrics")
    patch(registry.TimerMetric, "observe", "metrics")
    for method in ("counter", "gauge", "histogram", "timer"):
        patch(registry.MetricsRegistry, method, "metrics")

    patch(Workload, "zipf", "workload")
    patch(ZipfStream, "next_epoch", "workload")
