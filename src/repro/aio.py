"""The I/O runtime seam: ONE async code path, two execution modes.

Every batched component call — the DHT's per-bucket multi-ops, the provider
manager's per-provider batches, the metadata façade, the client's whole
read/write pipeline — is written exactly once, as a coroutine, against the
small :class:`IORuntime` strategy interface defined here.  The runtime then
decides how the coroutine's awaits actually execute:

* :class:`SyncRuntime` never suspends.  Its ``run_batches`` executes the
  per-backend jobs inline (or on the caller's legacy ``run_batches`` hook /
  ``parallel_io`` thread pool), its sleeps block, and its ``start`` runs a
  coroutine eagerly to completion.  Because none of its awaitables ever
  yields, a coroutine driven against it finishes in a SINGLE
  ``coro.send(None)`` — which is what :func:`run_sync` exploits: the sync
  :class:`~repro.core.blob_store.BlobStore` is a loop-free trampoline over
  the async core, not a second implementation.  No event loop is created,
  no thread is parked, and the pre-async timing and trip accounting are
  preserved bit-for-bit.

* :class:`AsyncRuntime` is the event-loop mode behind
  :class:`~repro.core.async_store.AsyncBlobStore`.  ``run_batches`` yields
  to the loop once before executing (so thousands of gathered operations
  genuinely interleave without a single pool thread) and then runs the
  batch's per-backend jobs inline, one after another: a job that cannot
  suspend gains nothing from a Task of its own.  Jobs that can suspend —
  a wired retry policy backs off on the loop — go through
  ``gather_batches`` instead, so concurrent backoffs overlap.  ``start``
  spawns an ``asyncio.Task`` (the write path overlaps its metadata
  publish with the page stores, the read path its speculative prefetch
  with the level fetch this way), and ``vm_sync`` turns the version
  manager's blocking condition-variable wait into a publish-notification
  wait that never parks a thread.

Both runtimes drive the same level-order metadata walk: one batched fetch
per tree level, whichever runtime executes it.

The legacy ``run_batches=`` keyword of the sync component APIs (a callable
receiving zero-arg SYNC jobs) is preserved: :meth:`SyncRuntime.run_batches`
wraps each async job in a :func:`run_sync` thunk before handing the list to
the hook, so existing callers, tests and the ``parallel_io`` pool observe
exactly the jobs they always did.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections.abc import Callable, Coroutine
from concurrent.futures import ThreadPoolExecutor

from .errors import VersionNotPublishedError


def run_sync(coro: Coroutine):
    """Drive *coro* to completion without an event loop.

    Correct only for coroutines whose awaitables all complete without
    suspending — which every coroutine of this package does when executed
    against a :class:`SyncRuntime`.  A coroutine that actually yields (for
    example one that awaited a real ``asyncio`` primitive) is closed and
    reported as a programming error rather than silently abandoned.
    """
    try:
        coro.send(None)
    except StopIteration as stop:
        return stop.value
    coro.close()
    raise RuntimeError(
        "run_sync() drove a coroutine that suspended; async-only awaitables "
        "must not be reached under SyncRuntime"
    )


class SyncHandle:
    """Result of :meth:`SyncRuntime.start`: the work already ran eagerly."""

    __slots__ = ("_value",)

    def __init__(self, value):
        self._value = value

    def done(self) -> bool:
        return True

    async def result(self):
        return self._value


class TaskHandle:
    """Result of :meth:`AsyncRuntime.start`: an in-flight ``asyncio.Task``."""

    __slots__ = ("_task",)

    def __init__(self, task: asyncio.Task):
        self._task = task

    def done(self) -> bool:
        return self._task.done()

    async def result(self):
        return await self._task


Handle = SyncHandle | TaskHandle


class SyncRuntime:
    """Suspension-free runtime: the engine's awaits all complete inline.

    Owns the client-side execution strategy the sync ``BlobStore`` used to
    hold directly: the optional legacy ``run_batches`` hook and the lazy
    ``parallel_io`` thread pool (one persistent pool per runtime — spinning
    a fresh pool per batch would put thread create/join cycles on the hot
    path).  ``concurrent`` is False: :meth:`start` finishes its coroutine
    before returning, so no background work can overlap an awaited fetch
    — the store-then-publish write order stays exactly as it was before
    the async core existed, and speculative prefetch (which only pays when
    it overlaps) stays off.
    """

    concurrent = False

    def __init__(
        self,
        run_batches: Callable[[list], list] | None = None,
        parallel_io: int = 0,
    ):
        self._hook = run_batches
        self._parallel_io = max(int(parallel_io), 0)
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    # -- batch execution ---------------------------------------------------
    def execute_sync_jobs(self, jobs: list) -> list:
        """Run zero-arg sync jobs — the legacy ``run_batches`` contract."""
        if self._hook is not None:
            return self._hook(jobs)
        if self._parallel_io > 1 and len(jobs) > 1:
            return list(self._executor().map(lambda job: job(), jobs))
        return [job() for job in jobs]

    async def run_batches(self, jobs: list) -> list:
        # Each async job completes synchronously under this runtime, so a
        # run_sync thunk is a faithful zero-arg sync job — the hook and the
        # pool observe one callable per backend exactly as before.
        return self.execute_sync_jobs(
            [lambda job=job: run_sync(job()) for job in jobs]
        )

    async def gather_batches(self, jobs: list) -> list:
        # Nothing suspends under this runtime, so there is nothing to overlap.
        return await self.run_batches(jobs)

    async def retry_call(self, retry, attempt, on_failure=None):
        # The policy's own injected clock sleeps (blocking), preserving the
        # deterministic fakes tests wire in.
        return retry.run(attempt, on_failure=on_failure)

    # -- structured concurrency (degenerate, in submission order) ----------
    def start(self, coro: Coroutine) -> SyncHandle:
        """Run *coro* eagerly to completion; errors raise here, at the exact
        point the pre-async code would have raised them."""
        return SyncHandle(run_sync(coro))

    async def sleep(self, seconds: float) -> None:
        if seconds > 0:
            # Blocking inline is SyncRuntime's documented contract: awaits
            # complete eagerly on the calling thread (no event loop exists).
            time.sleep(seconds)  # noqa: ASYNC251

    async def vm_sync(self, vm, blob_id: str, version: int, timeout=None) -> None:
        vm.sync(blob_id, version, timeout)

    # -- lifecycle ---------------------------------------------------------
    def _executor(self) -> ThreadPoolExecutor:
        if self._pool is None:
            with self._pool_lock:
                if self._pool is None:
                    self._pool = ThreadPoolExecutor(
                        max_workers=self._parallel_io,
                        thread_name_prefix="blobstore-io",
                    )
        return self._pool

    def close(self) -> None:
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None


class AsyncRuntime:
    """Event-loop runtime: awaits suspend, operations interleave, no pool.

    ``concurrent`` is True: :meth:`start` returns while its Task runs, so
    the write path overlaps its batched ``put_nodes`` publish with the page
    stores and the opt-in speculative prefetch (DESIGN.md §9) overlaps the
    next level's lookup with the current level's fetch.
    """

    concurrent = True

    async def run_batches(self, jobs: list) -> list:
        """Run one batch of per-backend jobs that never suspend.

        Yields to the loop BEFORE touching the backends: every concurrent
        operation parks here once, so 10k gathered reads are all in flight
        before the first one completes — cooperative concurrency where the
        thread pool capped out at hundreds.  After that single yield the
        jobs run inline in order: each finishes in one step, and a Task per
        job would only add scheduling and garbage-collection work.
        """
        await asyncio.sleep(0)
        return [await job() for job in jobs]

    async def gather_batches(self, jobs: list) -> list:
        """:meth:`run_batches` for jobs that can park on the loop (retry
        backoff): they run as gathered Tasks, so their waits overlap."""
        await asyncio.sleep(0)
        return list(await asyncio.gather(*(job() for job in jobs)))

    async def retry_call(self, retry, attempt, on_failure=None):
        # Awaitable backoff: a retrying operation parks on the loop instead
        # of blocking the thread (and every other in-flight operation).
        return await retry.arun(attempt, on_failure=on_failure)

    def start(self, coro: Coroutine) -> TaskHandle:
        return TaskHandle(asyncio.ensure_future(coro))

    async def sleep(self, seconds: float) -> None:
        await asyncio.sleep(seconds)

    async def vm_sync(self, vm, blob_id: str, version: int, timeout=None) -> None:
        """SYNC without parking a thread on the VM's condition variable.

        Subscribes to publish notifications and probes the non-blocking
        :meth:`~repro.version.version_manager.VersionManager.poll_sync`
        between wakeups.  A short poll interval backstops the one
        transition notifications do not cover (aborts publish no new
        version, so they fire no notification).
        """
        loop = asyncio.get_running_loop()
        event = asyncio.Event()

        def listener(lease) -> None:
            if lease.blob_id == blob_id:
                loop.call_soon_threadsafe(event.set)

        vm.subscribe_publications(listener)
        try:
            deadline = None if timeout is None else loop.time() + timeout
            while True:
                if vm.poll_sync(blob_id, version):
                    return
                wait = 0.05
                if deadline is not None:
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        if vm.poll_sync(blob_id, version):
                            return
                        raise VersionNotPublishedError(blob_id, version)
                    wait = min(wait, remaining)
                try:
                    await asyncio.wait_for(event.wait(), wait)
                except TimeoutError:
                    pass
                event.clear()
        finally:
            vm.unsubscribe_publications(listener)

    def close(self) -> None:
        """Nothing to release — the runtime owns no threads."""


IORuntime = SyncRuntime | AsyncRuntime


def ensure_runtime(run_batches=None, runtime: IORuntime | None = None) -> IORuntime:
    """Resolve a component call's execution mode.

    The sync component APIs keep their legacy ``run_batches=`` keyword; this
    wraps it (or its absence) in a :class:`SyncRuntime` so the shared async
    implementation is the only implementation.
    """
    if runtime is not None:
        return runtime
    return SyncRuntime(run_batches=run_batches)


async def dispatch_jobs(
    runtime: IORuntime,
    groups: list,
    make_attempt: Callable,
    retry=None,
    capture: tuple[type[BaseException], ...] = (Exception,),
    note_success: Callable[[str], None] | None = None,
    note_failure: Callable[[str], None] | None = None,
) -> list:
    """Run one job per ``(endpoint_id, batch)`` group; outcomes align with
    ``groups`` and exceptions of the ``capture`` classes are returned in
    their slot instead of aborting the dispatch — every live backend's batch
    completes before the caller decides how to surface failures.

    When a :class:`repro.fault.RetryPolicy` is wired, each job retries its
    call on transient errors before giving up (awaitable backoff under an
    event loop, the policy's own injected clock otherwise); every outcome —
    including each failed retry attempt — is reported through the
    ``note_success`` / ``note_failure`` health hooks.
    """

    def make_job(endpoint_id: str, batch):
        attempt = make_attempt(endpoint_id, batch)
        on_failure = None
        if note_failure is not None:
            on_failure = lambda _error, _n: note_failure(endpoint_id)  # noqa: E731

        async def job():
            try:
                if retry is not None and not retry.is_noop:
                    result = await runtime.retry_call(retry, attempt, on_failure)
                else:
                    result = attempt()
            except capture as error:
                if note_failure is not None:
                    note_failure(endpoint_id)
                return error
            if note_success is not None:
                note_success(endpoint_id)
            return result

        return job

    jobs = [make_job(endpoint_id, batch) for endpoint_id, batch in groups]
    if retry is not None and not retry.is_noop:
        return await runtime.gather_batches(jobs)
    return await runtime.run_batches(jobs)


__all__ = [
    "AsyncRuntime",
    "Handle",
    "IORuntime",
    "SyncHandle",
    "SyncRuntime",
    "TaskHandle",
    "dispatch_jobs",
    "ensure_runtime",
    "run_sync",
]
