"""Per-layer self time, measured from outside the program.

``LayerTracer.install`` wraps the entry points of each layer of ``repro`` --
class methods in place, module functions in their module *and* in every
loaded ``repro`` module that imported them by name (``repro.core.stack``
and ``reliable_broadcast`` bind the codec functions at import time, so
patching ``repro.core.wire`` alone would miss most calls).  Each wrapper
records a span; a layer's self time is its spans' time minus the time
of spans nested inside them.  A call into the layer that is already on
top of the span stack opens no span, so recursion inside a layer costs
one span; it is still counted in the per-function call counts.

On the asyncio runtime the wrappers cannot see coroutine bodies, so
``asyncio.events.Handle._run`` is wrapped too: a callback that steps a
``RitasNode`` task or serves a replica socket is ``tcp`` time, one that
steps a ``ClientGateway`` task or serves a client socket is ``gateway``
time.  Time blocked in the selector is ``idle``.  What no span covers
(the asyncio loop itself, the benchmark's own code) is ``other``.

Spans are kept in memory, up to :data:`MAX_SPANS`, and written once at
the end as Chrome trace-event JSON, which opens in Perfetto.

Untraced runs never import this module, so they carry no wrappers.
"""

from __future__ import annotations

import asyncio
import asyncio.events
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from typing import Any, Callable

#: Layer -> modules whose ControlBlock subclasses are wrapped whole
#: (input, child_event, accept_orphan, propose, broadcast).
PROTOCOL_MODULES = {
    "ab": ["repro.core.atomic_broadcast"],
    "consensus": [
        "repro.core.bc_engine",
        "repro.core.binary_consensus",
        "repro.core.crain_consensus",
        "repro.core.multivalued_consensus",
        "repro.core.vector_consensus",
    ],
    "broadcast": ["repro.core.reliable_broadcast", "repro.core.echo_broadcast"],
}
PROTOCOL_METHODS = ("input", "child_event", "accept_orphan", "propose", "broadcast")

#: Layer -> (module, class, methods) wrapped in the class.
METHODS = {
    "gateway": [
        ("repro.gateway.server", "ClientGateway",
         ["_handle_frames", "_on_applied", "_expire_pending"]),
    ],
    "apps": [
        ("repro.apps.state_machine", "ReplicatedStateMachine",
         ["_on_delivery", "_step", "try_submit", "submit"]),
    ],
    "stack": [
        ("repro.core.stack", "Stack", [
            "receive", "send_frame", "broadcast_frame", "broadcast_frame_raw",
            "_flush_pending_frames", "create", "_register", "_unregister", "toss_coin",
        ]),
        ("repro.core.ooc", "OocTable", ["store", "drain_prefix", "purge_prefix"]),
        ("repro.core.sendq", "BoundedSendQueue", ["push", "pop", "clear"]),
    ],
    "mac": [("repro.transport.framing", "FrameCodec", ["encode", "decode"])],
    "tcp": [
        ("repro.transport.tcp", "RitasNode",
         ["_outbox", "_enqueue_unit", "_drain_batch", "_dispatch_inbound"]),
    ],
    "net": [
        ("repro.net.simulator", "EventLoop", ["run"]),
        ("repro.net.network", "LanSimulation", ["_transmit"]),
    ],
}

#: Layer -> modules whose public functions are wrapped (and re-bound in
#: every module that imported them).
FUNCTION_MODULES = {
    "wire": "repro.core.wire",
    "mac": "repro.crypto.mac",
}
#: Functions that only drop caches; benchmark bookkeeping, not layer work.
SKIP_FUNCTIONS = {"encode_memo_clear", "fastpath_memo_clear"}

#: Layers the report names, in table order.
LAYERS = ("gateway", "apps", "ab", "consensus", "broadcast", "stack", "wire", "mac", "tcp", "net")

#: Spans kept for the Chrome trace; accounting continues past it.
MAX_SPANS = 150_000


def _hmac_count(name: str) -> Callable[[Any], int] | None:
    if name in ("mac_vector", "verify_mac_batch"):
        return len
    if name == "mac":
        return lambda _result: 1
    return None


class LayerTracer:
    """Span stack, per-layer self time and call counts for one process."""

    def __init__(self) -> None:
        self._clock = time.perf_counter_ns
        self._stack: list[list] = []
        self._undo: list[Callable[[], None]] = []
        self.gateway_port: int | None = None
        self._transport_layer: dict[int, str | None] = {}
        self.calls: Counter = Counter()
        self.reset()

    # -- accounting -------------------------------------------------------------

    def reset(self) -> None:
        """Start a new measurement window."""
        self.self_ns: Counter = Counter()
        self.calls.clear()
        self.hmacs = 0
        self.link_frames = 0
        self.link_bytes = 0
        self.gateway_reqs = 0
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.window_start = self._clock()

    def window(self) -> dict[str, Any]:
        """Self seconds per layer (plus ``idle`` and ``other``) and the
        wall seconds of the window so far."""
        wall = self._clock() - self.window_start
        layers = {layer: self.self_ns.get(layer, 0) / 1e9 for layer in LAYERS}
        idle = self.self_ns.get("idle", 0) / 1e9
        return {
            "wall_s": wall / 1e9,
            "layers_s": layers,
            "idle_s": idle,
            "other_s": wall / 1e9 - sum(layers.values()) - idle,
        }

    def _wrap(self, layer: str, label: str, fn: Callable, tally=None) -> Callable:
        stack = self._stack
        clock = self._clock
        calls = self.calls
        tracer = self

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
                calls[label] += 1
                if tally is not None:
                    tally(args, result)
                return result
            frame = [layer, clock(), 0]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                tracer.self_ns[layer] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                calls[label] += 1
                if tally is not None:
                    tally(args, result)
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((label, layer, frame[1], end))
                else:
                    tracer.spans_dropped += 1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", label)
        return wrapper

    # -- installation -------------------------------------------------------------

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        setattr(owner, name, value)
        self._undo.append(lambda: setattr(owner, name, original))

    def _wrap_method(self, layer: str, cls: type, name: str, tally=None) -> None:
        fn = cls.__dict__.get(name)
        if fn is None or not inspect.isfunction(fn) or inspect.iscoroutinefunction(fn):
            return
        self._patch(cls, name, self._wrap(layer, f"{cls.__name__}.{name}", fn, tally))

    def install(self) -> None:
        """Wrap every layer's entry points (idempotent per tracer)."""
        if self._undo:
            return
        for layer, modules in PROTOCOL_MODULES.items():
            for module_name in modules:
                module = importlib.import_module(module_name)
                for cls in vars(module).values():
                    if isinstance(cls, type) and cls.__module__ == module_name:
                        for name in PROTOCOL_METHODS:
                            self._wrap_method(layer, cls, name)
        missing = []
        for layer, targets in METHODS.items():
            for module_name, class_name, names in targets:
                cls = getattr(importlib.import_module(module_name), class_name, None)
                for name in names:
                    if cls is None or name not in cls.__dict__:
                        missing.append(f"{module_name}.{class_name}.{name}")
                        continue
                    self._wrap_method(layer, cls, name, self._method_tally(class_name, name))
        if missing:
            # A renamed entry point leaves its time to the caller's layer.
            print(f"layers: entry points not found: {', '.join(missing)}", file=sys.stderr)
        for layer, module_name in FUNCTION_MODULES.items():
            module = importlib.import_module(module_name)
            for name, fn in list(vars(module).items()):
                if (
                    name.startswith("_")
                    or name in SKIP_FUNCTIONS
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module_name
                ):
                    continue
                wrapped = self._wrap(layer, name, fn, self._function_tally(name))
                for importer in list(sys.modules.values()):
                    if (
                        getattr(importer, "__name__", "").startswith("repro")
                        and getattr(importer, name, None) is fn
                    ):
                        self._patch(importer, name, wrapped)
        self._patch(asyncio.events.Handle, "_run", self._wrap_handle(asyncio.events.Handle._run))

    def _function_tally(self, name: str):
        count = _hmac_count(name)
        if count is None:
            return None

        def tally(_args, result) -> None:
            if result is not None:
                self.hmacs += count(result)

        return tally

    def _method_tally(self, class_name: str, name: str):
        if class_name == "FrameCodec" and name == "encode":

            def link_frame(_args, result) -> None:
                self.hmacs += 1
                self.link_frames += 1
                self.link_bytes += len(result) if result is not None else 0

            return link_frame
        if class_name == "FrameCodec" and name == "decode":

            def verify(_args, _result) -> None:
                self.hmacs += 1

            return verify
        if class_name == "ClientGateway" and name == "_handle_frames":

            def requests(args, _result) -> None:
                self.gateway_reqs += len(args[2])

            return requests
        return None

    def _wrap_handle(self, run: Callable) -> Callable:
        """Attribute asyncio callbacks to ``tcp`` or ``gateway`` by the
        task or socket they serve."""
        spans = {
            layer: self._wrap(layer, f"asyncio.{layer}", run) for layer in ("tcp", "gateway")
        }
        classify = self._classify

        def _run(handle):
            layer = classify(handle)
            if layer is None:
                return run(handle)
            return spans[layer](handle)

        return _run

    def _classify(self, handle) -> str | None:
        owner = getattr(handle._callback, "__self__", None)
        if owner is None:
            return None
        if isinstance(owner, asyncio.Task):
            name = getattr(owner.get_coro(), "__qualname__", "")
            if name.startswith("RitasNode."):
                return "tcp"
            if name.startswith("ClientGateway."):
                return "gateway"
            return None
        if isinstance(owner, asyncio.Transport):
            key = id(owner)
            if key not in self._transport_layer:
                sockname = owner.get_extra_info("sockname")
                if not isinstance(sockname, tuple):
                    layer = None
                elif sockname[1] == self.gateway_port:
                    layer = "gateway"
                else:
                    layer = "tcp"
                self._transport_layer[key] = layer
            return self._transport_layer[key]
        return None

    def watch_idle(self, loop: asyncio.AbstractEventLoop) -> None:
        """Count time *loop* spends blocked in its selector as ``idle``."""
        selector = getattr(loop, "_selector", None)
        if selector is None:
            return
        wrapped = self._wrap("idle", "selector.select", selector.select)
        selector.select = wrapped
        self._undo.append(lambda: setattr(selector, "select", wrapped.__wrapped__))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- output ---------------------------------------------------------------------

    def write_chrome_trace(self, path: str) -> None:
        """Write the kept spans as Chrome trace-event JSON."""
        base = self.spans[0][2] if self.spans else 0
        events = [
            {
                "name": label,
                "cat": layer,
                "ph": "X",
                "ts": (start - base) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": 1,
            }
            for label, layer, start, end in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "traceEvents": events,
                    "displayTimeUnit": "ms",
                    "otherData": {"spans_dropped": self.spans_dropped},
                },
                handle,
            )
