"""Per-layer spans for the traced run, recorded from outside the program.

:class:`LayerTracer` wraps the public entry points of each layer of
``repro`` at the name its caller looks up — methods on their classes,
free functions in the module that imported them — and records, per
thread, a span around every call.  A span's *self time* is its
duration minus the time its child spans (on the same thread) cover.
Nothing under ``src/`` changes; the wrappers go in only in the traced
run, so the untraced run measures the program as shipped.

Totals are kept per thread and summed on :meth:`LayerTracer.snapshot`,
so the hot path takes no lock.
"""

from __future__ import annotations

import gc
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

#: (layer, module path, class name or None, attribute names, hook).
#: A class name wraps methods on that class; ``None`` wraps module-level
#: names, i.e. free functions where their caller looks them up.  The
#: hook, a :class:`LayerTracer` method name, sees each call's result.
ENTRY_POINTS = [
    ("serve.admission", "repro.serve.server", None, ["budget_decision"],
     "_on_budget"),
    ("serve.render", "repro.serve.server", None, ["json_response"], None),
    ("service", "repro.service.service", "BoundedQueryService",
     ["compile", "template"], None),
    ("service", "repro.service.service", "BoundedQueryService",
     ["execute", "execute_template"], "_on_service_result"),
    ("plancache", "repro.service.plancache", "PlanCache",
     ["compile", "compile_text"], None),
    ("query.parse", "repro.service.service", None, ["parse_query"], None),
    ("core.bep", "repro.service.plancache", None,
     ["is_boundedly_evaluable"], None),
    ("engine.build", "repro.core.bep", None,
     ["build_bounded_plan", "build_empty_plan"], None),
    ("engine.optimize", "repro.service.plancache", None, ["optimize"], None),
    ("engine.specialize", "repro.service.service", None,
     ["specialized_plan"], None),
    ("engine.specialize", "repro.engine.executor", None,
     ["specialized_plan"], None),
    ("engine.execute", "repro.service.fetchcache", "CachingExecutor",
     ["execute"], None),
    ("fetchcache", "repro.service.fetchcache", "FetchCache",
     ["lookup", "lookup_many", "lookup_many_encoded"], None),
    ("storage", "repro.storage.database", "Database",
     ["fetch_many", "fetch_flat"], None),
    ("storage", "repro.storage.database", "Database",
     ["fetch_many_encoded"], "_on_fetch_many"),
    ("storage", "repro.storage.database", "Database",
     ["fetch_flat_encoded"], "_on_fetch_flat"),
    ("procshard", "repro.storage.procshard.backend", "ProcessShardedBackend",
     ["fetch_many_encoded", "fetch_flat_encoded"], None),
]


class _ThreadTotals:
    __slots__ = ("stack", "self_s", "outer_s", "calls", "counts")

    def __init__(self):
        # One entry per open span: [layer, child seconds].
        self.stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.outer_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)


class LayerTracer:
    """Spans and counts at the layer boundaries of one process."""

    def __init__(self):
        self._local = threading.local()
        self._threads: list[_ThreadTotals] = []
        self._threads_lock = threading.Lock()
        self._gc_started = 0.0
        self.gc_pauses: list[float] = []
        self.request_samples: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def totals(self) -> _ThreadTotals:
        totals = getattr(self._local, "totals", None)
        if totals is None:
            totals = self._local.totals = _ThreadTotals()
            with self._threads_lock:
                self._threads.append(totals)
        return totals

    def _enter(self, layer: str) -> _ThreadTotals:
        totals = self.totals()
        totals.stack.append([layer, 0.0])
        return totals

    def _leave(self, totals: _ThreadTotals, elapsed: float) -> None:
        layer, children = totals.stack.pop()
        totals.self_s[layer] += elapsed - children
        totals.calls[layer] += 1
        if totals.stack:
            parent = totals.stack[-1]
            parent[1] += elapsed
            if parent[0] == layer:
                return
        # Outermost span of its layer on this thread: inclusive time.
        totals.outer_s[layer] += elapsed

    def wrap(self, layer: str, fn, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            totals = tracer._enter(layer)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(totals, time.perf_counter() - start)
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_coroutine(self, layer: str, fn):
        """Wrap an ``async def``: only the time the coroutine runs
        counts, not the time it is suspended waiting for input (an idle
        keep-alive connection waits inside ``read_request``)."""
        tracer = self

        async def traced(*args, **kwargs):
            return await _BusyTimed(fn(*args, **kwargs), tracer, layer)

        traced.__wrapped__ = fn
        return traced

    # -- installing -----------------------------------------------------------

    def install(self, server) -> None:
        """Wrap every entry point of :data:`ENTRY_POINTS`, the serve
        tier's request parsing, executor hand-off and the collector of
        per-request accounting, and hook the garbage collector."""
        import importlib

        for layer, module_name, owner_name, names, hook in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            on_result = getattr(self, hook) if hook else None
            for name in names:
                setattr(owner, name,
                        self.wrap(layer, getattr(owner, name), on_result))
        http_server = importlib.import_module("repro.serve.server")
        http_server.read_request = self.wrap_coroutine(
            "serve.parse", http_server.read_request)
        self._wrap_dispatch(type(server))
        gc.callbacks.append(self._on_gc)

    def _wrap_dispatch(self, server_cls) -> None:
        """Time the executor queue: ``ReproServer.submit`` marks the
        thread, and the next ``ThreadPoolExecutor.submit`` from it
        wraps the task so its start records the wait and the task runs
        inside a ``serve`` span (request time outside ``service.*``)."""
        tracer = self
        original_dispatch = server_cls.submit
        original_pool_submit = ThreadPoolExecutor.submit

        def dispatch(self, request):
            tracer._local.dispatching = True
            try:
                return original_dispatch(self, request)
            finally:
                tracer._local.dispatching = False

        def pool_submit(self, fn, *args, **kwargs):
            if not getattr(tracer._local, "dispatching", False):
                return original_pool_submit(self, fn, *args, **kwargs)
            tracer._local.dispatching = False
            queued = time.perf_counter()
            task = tracer.wrap("serve", fn)

            def run(*inner, **inner_kw):
                totals = tracer.totals()
                totals.counts["serve.queue_wait_s"] += (
                    time.perf_counter() - queued)
                totals.counts["serve.requests"] += 1
                return task(*inner, **inner_kw)

            return original_pool_submit(self, run, *args, **kwargs)

        server_cls.submit = dispatch
        ThreadPoolExecutor.submit = pool_submit

    # -- per-call accounting hooks --------------------------------------------

    def _on_budget(self, _args, decision) -> None:
        self._local.bound = decision.bound

    def _on_service_result(self, _args, result) -> None:
        stats = result.stats
        if stats is None:
            return
        bound = getattr(self._local, "bound", None)
        self._local.bound = None
        accessed = stats.tuples_fetched + stats.tuples_from_cache
        totals = self.totals()
        totals.counts["engine.ops"] += stats.ops_executed
        totals.counts["engine.results"] += 1
        totals.counts["engine.max_intermediate_sum"] += stats.max_intermediate
        if bound is not None:
            self.request_samples.append((accessed, bound))

    def _on_fetch_many(self, args, entries) -> None:
        totals = self.totals()
        totals.counts["storage.keys"] += len(args[2])
        totals.counts["storage.tuples"] += sum(entry[1] for entry in entries)

    def _on_fetch_flat(self, args, result) -> None:
        totals = self.totals()
        totals.counts["storage.keys"] += len(args[2])
        totals.counts["storage.tuples"] += result[1]

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started:
            self.gc_pauses.append(time.perf_counter() - self._gc_started)
            self._gc_started = 0.0

    # -- reading --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Summed totals over every thread seen so far."""
        merged = {"self_s": defaultdict(float), "outer_s": defaultdict(float),
                  "calls": defaultdict(int), "counts": defaultdict(float)}
        with self._threads_lock:
            threads = list(self._threads)
        for totals in threads:
            for key in ("self_s", "outer_s", "calls", "counts"):
                for name, value in list(getattr(totals, key).items()):
                    merged[key][name] += value
        out = {key: dict(value) for key, value in merged.items()}
        out["gc_pauses"] = list(self.gc_pauses)
        out["request_samples"] = list(self.request_samples)
        return out


class _BusyTimed:
    """Drive a coroutine step by step, timing only the steps."""

    def __init__(self, coroutine, tracer: LayerTracer, layer: str):
        self._coroutine = coroutine
        self._tracer = tracer
        self._layer = layer

    def __await__(self):
        coroutine, busy = self._coroutine, 0.0
        value, error = None, None
        while True:
            start = time.perf_counter()
            try:
                if error is not None:
                    step = coroutine.throw(error)
                else:
                    step = coroutine.send(value)
            except StopIteration as stop:
                busy += time.perf_counter() - start
                totals = self._tracer.totals()
                totals.self_s[self._layer] += busy
                totals.outer_s[self._layer] += busy
                totals.calls[self._layer] += 1
                return stop.value
            busy += time.perf_counter() - start
            try:
                value, error = (yield step), None
            except BaseException as raised:  # re-raised into the coroutine
                value, error = None, raised
