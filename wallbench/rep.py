"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so no repetition
inherits the process-wide caches, heap or garbage-collector state of
another.  It builds the in-process cluster from the checkout's ``src/``,
loads and warms the data set (the set-up, timed as a whole), runs the timed
phase, checks every returned byte against the oracle and prints one JSON
object on standard output.  Times are in reference seconds
(``refclock.py``), read from set-up to the end of the timed phase.

Usage (normally only through ``run.py``)::

    python3 wallbench/rep.py --workload read-cold-sync --seed 1 --ops 300

With ``--ops 0`` the repetition only sets up and checks the warm-up.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import resource
import sys
import time
import zlib
from pathlib import Path

from refclock import RefClock, clock_ns
from workloads import (
    PAGE_SIZE,
    READ_PAGES,
    TIMED_TAG,
    WARMUP_TAG,
    WORKLOADS,
    WRITE_PAGES,
    WriteOracle,
    buffer_bytes,
    expected_crc,
    loaded_writer,
    make_ops,
    scaled,
    warmup_windows,
)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".wallbench"

#: ReadStats / WriteResult fields summed per operation kind.
READ_FIELDS = (
    "metadata_round_trips",
    "data_round_trips",
    "vm_round_trips",
    "metadata_cache_hits",
    "failovers",
    "degraded",
)
WRITE_FIELDS = (
    "metadata_round_trips",
    "data_round_trips",
    "vm_round_trips",
    "metadata_cache_hits",
)
READS = ("read", "read_recent")


class GcWatch:
    """``gc.callbacks`` hook: pause time and gen-2 collections while armed."""

    def __init__(self) -> None:
        self.armed = False
        self.pause_ns = 0
        self.gen2 = 0
        self._start = 0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = clock_ns()
        elif self.armed:
            self.pause_ns += clock_ns() - self._start
            if info.get("generation") == 2:
                self.gen2 += 1


def sub_seed(seed: int, rep: int, purpose: int) -> int:
    """Independent, reproducible seeds per repetition and purpose."""
    return (seed * 1_000_003 + rep * 7_919 + purpose) & 0xFFFFFFFF


def build_cluster(workload):
    from repro import Cluster

    overrides = {"page_replication": 1}
    if workload.metadata_cache_entries is not None:
        overrides["metadata_cache_entries"] = workload.metadata_cache_entries
    if workload.page_cache_bytes is not None:
        overrides["page_cache_bytes"] = workload.page_cache_bytes
    return Cluster.in_memory(
        num_data_providers=8,
        num_metadata_providers=8,
        page_size=PAGE_SIZE,
        **overrides,
    )


def load(cluster, workload) -> list[str]:
    """Create the blobs; each gets its pages in one append (version 1)."""
    from repro import BlobStore

    blob_ids = []
    with BlobStore(cluster) as store:
        for blob in range(workload.blobs):
            blob_id = store.create()
            data = buffer_bytes(blob, 0, workload.pages_per_blob)
            store.sync(blob_id, store.append(blob_id, data))
            blob_ids.append(blob_id)
    return blob_ids


class Phase:
    """A list of operations and, once run, their results."""

    def __init__(self, ops: list[tuple], tag_base: int, corrupt_index: int = -1):
        self.ops = ops
        self.tag_base = tag_base
        #: Index of the read whose result is corrupted before checking.
        self.corrupt_index = corrupt_index
        #: Raw clock (``clock_ns``) readings: the phase's start and end,
        #: each operation's issue and completion.
        self.start_ns = self.end_ns = 0
        self.issued_ns = [0] * len(ops)
        self.done_ns = [0] * len(ops)
        #: Wall time the phase took, once run.
        self.wall_s = 0.0
        #: (version, crc32 of the returned bytes or None, stats) per
        #: operation; None for a failed one.
        self.outcome: list[tuple | None] = [None] * len(ops)
        self.errors: list[str] = []

    def payload(self, index: int) -> bytes | None:
        """The bytes a write writes, made when it is issued so that the
        benchmark holds no more than the writes in flight."""
        op = self.ops[index]
        if op[0] in READS:
            return None
        return buffer_bytes(op[1], self.tag_base + index, WRITE_PAGES)

    def read_args(self, blob_ids: list[str], index: int) -> tuple[str, int, int]:
        op = self.ops[index]
        return blob_ids[op[1]], op[2] * PAGE_SIZE, READ_PAGES * PAGE_SIZE

    def checksum(self, index: int, data: bytes) -> int:
        if index == self.corrupt_index:
            data = bytes([data[0] ^ 0xFF]) + data[1:]
        return zlib.crc32(data)

    def finish(self, index: int, start_ns: int, outcome) -> None:
        self.done_ns[index] = clock_ns()
        self.issued_ns[index] = start_ns
        self.outcome[index] = outcome

    def fail(self, index: int, error: Exception) -> None:
        if len(self.errors) < 5:
            self.errors.append(f"op {index} {self.ops[index]}: {error!r}")


# -- one operation through each client API ------------------------------------
# A recent read is GET_RECENT followed by read_ex: that is what
# AsyncBlobStore.read_recent does, and read_ex also returns ReadStats.


def run_op_sync(store, blob_ids, phase: Phase, index: int, payload) -> tuple:
    kind, blob = phase.ops[index][:2]
    if kind in READS:
        blob_id, offset, size = phase.read_args(blob_ids, index)
        version = 1 if kind == "read" else store.get_recent(blob_id)
        data, stats = store.read_ex(blob_id, version, offset, size)
        return version, phase.checksum(index, data), stats
    if kind == "append":
        result = store.append_ex(blob_ids[blob], payload)
    else:
        offset = phase.ops[index][2] * PAGE_SIZE
        result = store.write_ex(blob_ids[blob], payload, offset)
    return result.version, None, result


async def run_op_async(store, blob_ids, phase: Phase, index: int, payload):
    kind, blob = phase.ops[index][:2]
    if kind in READS:
        blob_id, offset, size = phase.read_args(blob_ids, index)
        version = 1 if kind == "read" else await store.get_recent(blob_id)
        data, stats = await store.read_ex(blob_id, version, offset, size)
        return version, phase.checksum(index, data), stats
    if kind == "append":
        result = await store.append_ex(blob_ids[blob], payload)
    else:
        offset = phase.ops[index][2] * PAGE_SIZE
        result = await store.write_ex(blob_ids[blob], payload, offset)
    return result.version, None, result


def drive_sync(store, blob_ids: list[str], phase: Phase, recorder=None) -> None:
    """Run the phase's operations one after another."""
    wall_start = time.perf_counter()
    phase.start_ns = clock_ns()
    for index, op in enumerate(phase.ops):
        root = recorder.begin_op(index + 1, op[0]) if recorder else None
        payload = phase.payload(index)
        start = clock_ns()
        try:
            outcome = run_op_sync(store, blob_ids, phase, index, payload)
            phase.finish(index, start, outcome)
        except Exception as error:  # noqa: BLE001 - a failed op is counted
            phase.fail(index, error)
        if root is not None:
            recorder.end_op(root)
    phase.end_ns = clock_ns()
    phase.wall_s = time.perf_counter() - wall_start


async def drive_async(store, blob_ids, phase: Phase, in_flight: int, recorder=None):
    """Closed loop: ``in_flight`` client tasks, each sending its next
    operation when its previous one completed."""
    queue = iter(enumerate(phase.ops))

    async def client() -> None:
        for index, op in queue:
            root = recorder.begin_op(index + 1, op[0]) if recorder else None
            payload = phase.payload(index)
            start = clock_ns()
            try:
                outcome = await run_op_async(store, blob_ids, phase, index, payload)
                phase.finish(index, start, outcome)
            except Exception as error:  # noqa: BLE001 - a failed op is counted
                phase.fail(index, error)
            if root is not None:
                recorder.end_op(root)

    wall_start = time.perf_counter()
    phase.start_ns = clock_ns()
    tasks = [asyncio.create_task(client()) for _ in range(in_flight)]
    await asyncio.gather(*tasks)
    phase.end_ns = clock_ns()
    phase.wall_s = time.perf_counter() - wall_start


# -- stats deltas ----------------------------------------------------------------
def snapshot(cluster) -> dict[str, int]:
    node = cluster.node_cache.stats()
    page = cluster.page_cache.stats()
    lease = cluster.version_leases.stats()
    vm = cluster.version_manager.vm_stats()
    return {
        "node_hits": node.hits,
        "node_misses": node.misses,
        "node_evictions": node.evictions,
        "page_hits": page.hits,
        "page_misses": page.misses,
        "page_evictions": page.evictions,
        "lease_hits": lease.hits,
        "lease_misses": lease.misses,
        "register_requests": vm.register_requests,
        "register_batches": vm.register_batches,
        "dht_batch_gets": cluster.dht.stats().batch_gets,
    }


# -- verification ----------------------------------------------------------------
def verify_loaded(phases: list[Phase]) -> tuple[int, list[str]]:
    """Read-only workloads: every read returned its window's load pattern."""
    expected: dict[tuple[int, int], int] = {}
    wrong, messages = 0, []
    for phase in phases:
        for index, (op, outcome) in enumerate(zip(phase.ops, phase.outcome)):
            if outcome is None:
                continue
            window = op[1:3]
            if window not in expected:
                expected[window] = expected_crc(*window, READ_PAGES, loaded_writer)
            version, crc, _stats = outcome
            if version != 1 or crc != expected[window]:
                wrong += 1
                messages.append(f"op {index} {op}: wrong bytes at v{version}")
    return wrong, messages


def verify_write_mix(workload, cluster, blob_ids, phases: list[Phase]):
    """Replay the completed writes of each blob in version order, then check
    every recent read at its version and every blob's final snapshot."""
    from repro import BlobStore

    oracle = WriteOracle(workload.blobs, workload.pages_per_blob)
    for phase in phases:
        for index, (op, outcome) in enumerate(zip(phase.ops, phase.outcome)):
            if outcome is not None and op[0] not in READS:
                first_page = op[2] if op[0] == "overwrite" else None
                tag = phase.tag_base + index
                oracle.record(op[1], outcome[0], op[0], first_page, tag)
    oracle.replay()
    wrong, messages = len(oracle.errors), list(oracle.errors)
    for phase in phases:
        for index, (op, outcome) in enumerate(zip(phase.ops, phase.outcome)):
            if outcome is None or op[0] not in READS:
                continue
            version, crc, _stats = outcome
            try:
                writer = oracle.writer_at(op[1], version)
                ok = crc == expected_crc(op[1], op[2], READ_PAGES, writer)
            except (KeyError, IndexError):
                ok = False
            if not ok:
                wrong += 1
                messages.append(f"op {index} {op}: wrong bytes at v{version}")
    # Final snapshots: a misplaced append or a lost overwrite shows here.
    with BlobStore(cluster) as store:
        for blob, blob_id in enumerate(blob_ids):
            last = oracle.last_version(blob)
            store.sync(blob_id, last)
            pages = oracle.size_pages(blob, last)
            if store.get_size(blob_id, last) != pages * PAGE_SIZE:
                wrong += 1
                messages.append(f"blob {blob}: wrong size at v{last}")
                continue
            writer = oracle.writer_at(blob, last)
            for first in range(0, pages, 256):
                count = min(256, pages - first)
                data = store.read(blob_id, last, first * PAGE_SIZE, count * PAGE_SIZE)
                if zlib.crc32(data) != expected_crc(blob, first, count, writer):
                    wrong += 1
                    messages.append(f"blob {blob}: wrong pages {first}+{count}")
    return wrong, messages


# -- tracing ----------------------------------------------------------------------
def start_tracing(cluster):
    from tracing import SpanRecorder, install

    recorder = SpanRecorder()
    install(recorder, cluster)
    return recorder


def finish_tracing(recorder, timed: Phase, name: str) -> dict:
    """Write the spans and the per-op counter cross-check out; return the
    span aggregate."""
    from tracing import aggregate, dump

    op_kinds = {index + 1: op[0] for index, op in enumerate(timed.ops)}
    OUT_DIR.mkdir(exist_ok=True)
    dump(OUT_DIR / f"spans-{name}.tsv", recorder.spans, op_kinds)
    spy: dict[int, list[int]] = {}
    for op, _sid, _parent, span_name, _start, _end, n in recorder.spans:
        counts = spy.setdefault(op, [0, 0, 0, 0])
        if span_name in ("dht.multi_get", "dht.multi_put"):
            counts[0] += 1
        elif span_name.endswith(".message"):
            counts[1] += 1
        elif span_name.startswith("vm.") and not span_name.startswith("vm.lease."):
            counts[2] += 1
        elif span_name == "cache.node.get_many":
            counts[3] += n
    header = (
        "op kind spy_dht_calls reported_metadata_round_trips "
        "spy_provider_messages reported_data_round_trips "
        "spy_vm_calls reported_vm_round_trips "
        "spy_node_cache_hits reported_metadata_cache_hits"
    )
    with open(OUT_DIR / f"ops-{name}.tsv", "w", encoding="utf-8") as out:
        out.write(header.replace(" ", "\t") + "\n")
        for index, (op, outcome) in enumerate(zip(timed.ops, timed.outcome)):
            if outcome is None:
                continue
            stats = outcome[2]
            dht, messages, vm, hits = spy.get(index + 1, [0, 0, 0, 0])
            row = [index + 1, op[0], dht, stats.metadata_round_trips, messages]
            row += [stats.data_round_trips, vm, stats.vm_round_trips, hits]
            row.append(stats.metadata_cache_hits)
            out.write("\t".join(map(str, row)) + "\n")
    return aggregate(recorder.spans, op_kinds)


# -- the repetition ----------------------------------------------------------------
def run(args) -> dict:
    from repro import AsyncBlobStore, BlobStore

    workload = scaled(WORKLOADS[args.workload], args.scale)
    timed_ops = make_ops(workload, sub_seed(args.seed, args.rep, 2), args.ops)
    corrupt_index = -1
    if args.corrupt:
        corrupt_index = next(i for i, op in enumerate(timed_ops) if op[0] in READS)
    timed = Phase(timed_ops, TIMED_TAG, corrupt_index)
    if workload.name == "read-warm-sync":
        warm_ops = warmup_windows(workload)
    else:
        warm_seed = sub_seed(args.seed, args.rep, 1)
        warm_ops = make_ops(workload, warm_seed, workload.warmup_ops)

    watch = GcWatch()
    gc.callbacks.append(watch)
    recorder = None

    ref = RefClock()
    setup_start = clock_ns()
    cluster = build_cluster(workload)
    blob_ids = load(cluster, workload)
    warm = Phase(warm_ops, WARMUP_TAG)

    if workload.api == "sync":
        with BlobStore(cluster) as store:
            drive_sync(store, blob_ids, warm)
            setup_end = clock_ns()
            ref.probe()
            recorder = start_tracing(cluster) if args.traced else None
            before = snapshot(cluster)
            watch.armed = True
            drive_sync(store, blob_ids, timed, recorder)
            watch.armed = False
    else:

        async def main() -> tuple[int, dict]:
            nonlocal recorder
            async with AsyncBlobStore(cluster) as store:
                await drive_async(store, blob_ids, warm, workload.in_flight)
                setup = clock_ns()
                ref.probe()
                recorder = start_tracing(cluster) if args.traced else None
                counters = snapshot(cluster)
                watch.armed = True
                flight = workload.in_flight
                await drive_async(store, blob_ids, timed, flight, recorder)
                watch.armed = False
            return setup, counters

        setup_end, before = asyncio.run(main())
    ref.stop()
    ref.freeze()
    after = snapshot(cluster)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if workload.name == "write-mix-async":
        wrong, messages = verify_write_mix(workload, cluster, blob_ids, [warm, timed])
    else:
        wrong, messages = verify_loaded([warm, timed])
    failed = timed.outcome.count(None) + warm.outcome.count(None)

    timeline = []
    stat_sums: dict[str, dict[str, int]] = {}
    for op, issued, done, outcome in zip(
        timed.ops, timed.issued_ns, timed.done_ns, timed.outcome
    ):
        if outcome is None:
            continue
        kind, stats = op[0], outcome[2]
        moved = stats.bytes_read if kind in READS else stats.bytes_written
        timeline.append([kind, ref.seconds(issued, done) * 1e3, moved])
        sums = stat_sums.setdefault(kind, {"ops": 0})
        sums["ops"] += 1
        for name in READ_FIELDS if kind in READS else WRITE_FIELDS:
            sums[name] = sums.get(name, 0) + getattr(stats, name)

    result = {
        "workload": workload.name,
        "traced": args.traced,
        "setup_s": ref.seconds(setup_start, setup_end),
        "timed_s": ref.seconds(timed.start_ns, timed.end_ns),
        "cpu_s": (timed.end_ns - timed.start_ns) / 1e9,
        "probe_us": ref.probe_us(timed.start_ns, timed.end_ns),
        "wall_s": timed.wall_s,
        "attempted": len(timed.ops),
        "failed": failed,
        "wrong": wrong,
        "messages": (warm.errors + timed.errors + messages)[:10],
        "peak_rss_mb": peak_rss_mb,
        "gc_pause_ms": watch.pause_ns / 1e6,
        "gc_gen2": watch.gen2,
        "counters": {key: after[key] - before[key] for key in before},
        #: [kind, latency ms, bytes moved] per successful timed
        #: operation, in operation order.
        "timeline": timeline,
        "stats": stat_sums,
    }
    if recorder is not None:
        name = f"{workload.name}-rep{args.rep}"
        result["spans"] = finish_tracing(recorder, timed, name)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument(
        "--ops", type=int, required=True, help="timed operations; 0: set up only"
    )
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument(
        "--corrupt",
        action="store_true",
        help="flip a byte of the first timed read's result before checking it",
    )
    args = parser.parse_args()
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no engine sources under {src}", file=sys.stderr)
        return 2
    # The engine's tracked bytecode caches stay untouched.
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
