"""External span tracing of the engine's layers, from the benchmark's side.

:class:`SpanRecorder` wraps the public entry points of each layer of one
:class:`repro.Cluster` (and the few module-level names the core binds) with
timing wrappers.  Nothing under ``src/`` is edited: instances get an
instance attribute that shadows the method, classes and modules get their
attribute replaced, and the repetition process that installs the wrappers
exits right after the run.

Each span is ``(op, span_id, parent_id, name, start_ns, end_ns, n)``.  The
op id and the current span live in context variables, so the spans of
operations gathered on one event loop stay apart (every asyncio task runs in
a copy of the context it was created in).  Wrappers of coroutine functions
only ``await`` the wrapped coroutine, so they never suspend on their own
and the sync store's ``run_sync`` trampoline still completes in one
``send``.  ``n`` is a per-call count (keys, pages, hits) used for ratios.

A span's *self time* is its duration minus the part of it covered by its
child spans; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import contextvars
import importlib
import itertools
import time
from collections import defaultdict

#: Spans read the wall clock, which costs a fifth of what the thread CPU
#: clock of ``refclock`` does; a span's time therefore includes the
#: reference probes that ran inside it (about 6% of the CPU).
_now = time.perf_counter_ns


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        #: (span id, span name) of the innermost open span, (0, "") outside.
        self._current = contextvars.ContextVar("wallbench_span", default=(0, ""))
        #: Id of the operation the running code belongs to, 0 outside.
        self._op = contextvars.ContextVar("wallbench_op", default=0)

    # -- wrappers ------------------------------------------------------------
    def wrap(self, fn, name: str, count=None):
        """Time a plain function; ``count(args, result)`` gives ``n``."""
        spans, ids, current, op = self.spans, self._ids, self._current, self._op

        def traced(*args, **kwargs):
            parent = current.get()[0]
            sid = next(ids)
            token = current.set((sid, name))
            start = _now()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = _now()
                current.reset(token)
                n = count(args, result) if count is not None else 0
                spans.append((op.get(), sid, parent, name, start, end, n))

        return traced

    def wrap_async(self, fn, name: str, count=None):
        """Time a coroutine function without adding a suspension point."""
        spans, ids, current, op = self.spans, self._ids, self._current, self._op

        async def traced(*args, **kwargs):
            parent = current.get()[0]
            sid = next(ids)
            token = current.set((sid, name))
            start = _now()
            result = None
            try:
                result = await fn(*args, **kwargs)
                return result
            finally:
                end = _now()
                current.reset(token)
                n = count(args, result) if count is not None else 0
                spans.append((op.get(), sid, parent, name, start, end, n))

        return traced

    def wrap_generator(self, fn, name: str):
        """Time each step of a sans-IO plan generator (``border_plan``):
        the plan's own code runs only inside ``next``/``send``."""
        spans, ids, current, op = self.spans, self._ids, self._current, self._op

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            value = None
            first = True
            while True:
                parent = current.get()[0]
                sid = next(ids)
                start = _now()
                try:
                    request = next(inner) if first else inner.send(value)
                except StopIteration as stop:
                    spans.append((op.get(), sid, parent, name, start, _now(), 0))
                    return stop.value
                spans.append((op.get(), sid, parent, name, start, _now(), 0))
                first = False
                value = yield request

        return traced

    def wrap_run_batches(self, fn):
        """Time ``IORuntime.run_batches`` and each job it runs.

        A job executes the backend call of the layer that dispatched the
        batch, so its span is named after that layer's span (``<name>.job``)
        and its time counts as that layer's.  What remains of the
        ``aio.run_batches`` span is the time the operation sat parked on
        the runtime before, between and after its jobs.
        """
        spans, ids, current, op = self.spans, self._ids, self._current, self._op
        wrap_async = self.wrap_async

        async def traced(runtime, jobs):
            caller = current.get()[1] or "core"
            job_name = f"{caller}.job"
            wrapped = [wrap_async(job, job_name) for job in jobs]
            parent = current.get()[0]
            sid = next(ids)
            token = current.set((sid, "aio.run_batches"))
            start = _now()
            try:
                return await fn(runtime, wrapped)
            finally:
                end = _now()
                current.reset(token)
                spans.append(
                    (op.get(), sid, parent, "aio.run_batches", start, end, len(jobs))
                )

        return traced

    # -- operation roots -------------------------------------------------------
    def begin_op(self, op_id: int, kind: str):
        """Open the root span (``core.<kind>``) of one operation; returns
        the state :meth:`end_op` needs.  Call both in the operation's task."""
        op_token = self._op.set(op_id)
        sid = next(self._ids)
        name = f"core.{kind}"
        token = self._current.set((sid, name))
        return op_token, token, sid, name, _now()

    def end_op(self, state) -> None:
        op_token, token, sid, name, start = state
        end = _now()
        op_id = self._op.get()
        self._current.reset(token)
        self._op.reset(op_token)
        self.spans.append((op_id, sid, 0, name, start, end, 0))


#: The version-manager service calls the engine makes.
VM_METHODS = (
    "register_update",
    "complete_update",
    "abort_update",
    "check_read",
    "get_record",
    "get_recent",
)


def _first_len(args, _result) -> int:
    return len(args[0])


def _hits(args, result) -> int:
    return sum(1 for value in result if value is not None) if result else 0


def install(recorder: SpanRecorder, cluster) -> None:
    """Wrap every layer entry point the benchmark reports on."""
    aio = importlib.import_module("repro.aio")
    async_store = importlib.import_module("repro.core.async_store")
    read_plan = importlib.import_module("repro.metadata.read_plan")

    wrap, wrap_async = recorder.wrap, recorder.wrap_async

    # repro.aio: both runtimes' batch executor.
    for runtime_cls in (aio.SyncRuntime, aio.AsyncRuntime):
        runtime_cls.run_batches = recorder.wrap_run_batches(runtime_cls.run_batches)

    # repro.metadata: the façade, plan expansion and the write-side builders.
    meta = cluster.metadata_provider
    meta.get_nodes_async = wrap_async(
        meta.get_nodes_async, "metadata.get_nodes", _first_len
    )
    meta.try_get_nodes_async = wrap_async(
        meta.try_get_nodes_async, "metadata.get_nodes", _first_len
    )
    meta.put_nodes_async = wrap_async(
        meta.put_nodes_async, "metadata.put_nodes", _first_len
    )
    read_plan.FrontierWalker.expand = wrap(
        read_plan.FrontierWalker.expand, "metadata.expand"
    )
    async_store.build_nodes = wrap(async_store.build_nodes, "metadata.build")
    async_store.border_plan = recorder.wrap_generator(
        async_store.border_plan, "metadata.build"
    )

    # repro.dht: the batched multi-key operations.
    dht = cluster.dht
    dht.multi_get_async = wrap_async(dht.multi_get_async, "dht.multi_get", _first_len)
    dht.try_multi_get_async = wrap_async(
        dht.try_multi_get_async, "dht.multi_get", _first_len
    )
    dht.multi_put_async = wrap_async(dht.multi_put_async, "dht.multi_put", _first_len)

    # repro.providers: the manager's batched legs and allocation, plus each
    # provider's batch call (one per message, ``n`` = pages in it).
    pm = cluster.provider_manager
    pm.multi_fetch_into_async = wrap_async(
        pm.multi_fetch_into_async, "providers.fetch", _first_len
    )
    pm.multi_store_replicated_async = wrap_async(
        pm.multi_store_replicated_async, "providers.store", _first_len
    )
    pm.allocate_replicas = wrap(pm.allocate_replicas, "providers.allocate")
    for provider in pm.providers():
        provider.multi_fetch_into = wrap(
            provider.multi_fetch_into, "providers.fetch.message", _first_len
        )
        provider.multi_store = wrap(
            provider.multi_store, "providers.store.message", _first_len
        )

    # repro.cache: batched lookups (``n`` = hits) and inserts.
    for label, cache in (("node", cluster.node_cache), ("page", cluster.page_cache)):
        cache.get_many = wrap(cache.get_many, f"cache.{label}.get_many", _hits)
        cache.put_many = wrap(cache.put_many, f"cache.{label}.put_many")

    # repro.vm: the version-manager service and the shared lease cache.
    vm = cluster.version_manager
    for method in VM_METHODS:
        setattr(vm, method, wrap(getattr(vm, method), f"vm.{method}"))
    # The lease cache's GET_RECENT trip is ``recent_lease``.
    vm.recent_lease = wrap(vm.recent_lease, "vm.get_recent")
    leases = cluster.version_leases
    for method in ("record", "published_size", "recent"):
        setattr(leases, method, wrap(getattr(leases, method), f"vm.lease.{method}"))


# -- analysis --------------------------------------------------------------------
def _covered(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of ``[start, end)`` covered by the union of ``intervals``."""
    total = 0
    reach = start
    for child_start, child_end in sorted(intervals):
        lo = max(child_start, reach)
        hi = min(child_end, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def aggregate(spans: list[tuple], op_kinds: dict[int, str]) -> dict:
    """Per ``(op class, span name)`` totals: calls, self ns, inclusive ns, n.

    The op class is ``"read"`` or ``"write"``.  Root spans are reported
    under the name ``"core"``.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _op, _sid, parent, _name, start, end, _n in spans:
        if parent:
            children[parent].append((start, end))
    totals: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0, 0, 0])
    for op, sid, parent, name, start, end, n in spans:
        kind = op_kinds.get(op)
        if kind is None:
            continue
        op_class = "read" if kind in ("read", "read_recent") else "write"
        duration = end - start
        own = duration - _covered(start, end, children.get(sid, []))
        entry = totals[(op_class, "core" if not parent else name)]
        entry[0] += 1
        entry[1] += own
        entry[2] += duration
        entry[3] += n
    return {f"{op_class}|{name}": values for (op_class, name), values in totals.items()}


def dump(path, spans: list[tuple], op_kinds: dict[int, str]) -> None:
    """Write the spans as tab-separated lines, one per span."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("op\tkind\tspan\tparent\tname\tstart_ns\tend_ns\tn\n")
        for op, sid, parent, name, start, end, n in spans:
            out.write(
                f"{op}\t{op_kinds.get(op, '-')}\t{sid}\t{parent}\t{name}\t"
                f"{start}\t{end}\t{n}\n"
            )
