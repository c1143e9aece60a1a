"""How the benchmark's metrics are computed and what each explains.

``BENCHMARK.json`` at the checkout root names the metrics of the result
line, with their units, directions and bounds; ``run.py`` prints exactly
those.  This module holds what BENCHMARK.json does not: the report-only
metrics, and for each per-layer metric its definition and the end-to-end
metric it should move.
"""

from __future__ import annotations

#: (name, unit): printed in the report of a ``--trace 0`` run wherever they
#: apply, but not in its result, which must carry the same steady, non-zero
#: metrics on every workload.  ``read_p50_ms`` and ``read_p99_ms`` each sit
#: where the latency distribution changes slope (fast and slow stretches of
#: the machine; a few GC pauses), so they jump between runs; the write
#: metrics exist only on the write mix; ``failed_frac`` is 0 on a correct
#: engine.  ``cpu_share`` (thread CPU time over wall time of the timed
#: phases) and ``probe_us`` (median duration of the reference probes in
#: them, see ``refclock.py``) show the machine's state during the run.
REPORT_ONLY = [
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("write_mb_per_s", "MiB/s"),
    ("append_p50_ms", "ms"),
    ("append_p95_ms", "ms"),
    ("overwrite_p50_ms", "ms"),
    ("overwrite_p95_ms", "ms"),
    ("failed_frac", "1"),
    ("cpu_share", "1"),
    ("probe_us", "us"),
]

# The per-layer metrics, the result of a ``--trace 1`` run, one per line:
#   name | the end-to-end metric and workload it should move | definition
# "Self" time is a span's time minus the part its child spans cover.  A
# metric "per read" or "per write" counts only the spans of read or write
# operations; "per op" counts all.
_PER_LAYER_TABLE = """
core.self_ms_per_op | read_p50_ms on read-warm-sync | operation root span minus the union of the layer spans under it
aio.run_batches_per_op | ops_per_s, read_p50_ms on read-cold-async | IORuntime.run_batches calls per op
aio.jobs_per_batch | ops_per_s, read_p50_ms on read-cold-async | backend jobs per run_batches call
aio.loop_wait_ms_per_op | read_p99_ms on read-cold-async, write-mix-async | run_batches time outside its jobs (the op parked on the runtime), summed over the op's concurrent branches
metadata.expand_calls_per_read | read_p50_ms on read-warm-sync | FrontierWalker.expand calls per read
metadata.expand_ms_per_read | read_p50_ms on read-warm-sync | FrontierWalker.expand time per read
metadata.get_nodes_calls_per_read | read_p50_ms on read-cold-* | MetadataProvider.(try_)get_nodes_async calls per read
metadata.nodes_per_get_call | read_p50_ms on read-cold-* | node keys per get_nodes call
metadata.get_nodes_self_ms_per_read | read_p50_ms on read-cold-* | get_nodes self time per read
metadata.build_ms_per_write | append_p50_ms on write-mix-async | build_nodes calls plus border_plan steps, per write
metadata.put_nodes_ms_per_write | append_p50_ms on write-mix-async | put_nodes_async time, children included, per write
dht.multi_get_calls_per_read | ops_per_s on read-cold-* | DHT.(try_)multi_get_async calls (messages) per read
dht.keys_per_call | ops_per_s on read-cold-* | keys per multi_get call
dht.bucket_locks_per_read | ops_per_s on read-cold-* | DHTStats.batch_gets delta over the timed phase per read
dht.multi_get_ms_per_read | ops_per_s on read-cold-* | multi_get self time plus its bucket jobs, per read
dht.multi_put_calls_per_write | append_p50_ms on write-mix-async | DHT.multi_put_async calls per write
providers.fetch_calls_per_read | read_mb_per_s on read-cold-* | DataProvider.multi_fetch_into calls (messages) per read
providers.pages_per_fetch_call | read_mb_per_s on read-cold-* | pages per provider fetch message
providers.fetch_ms_per_read | read_mb_per_s on read-cold-* | multi_fetch_into_async self time plus its provider jobs, per read
providers.store_calls_per_write | write_mb_per_s on write-mix-async | DataProvider.multi_store calls (messages) per write
providers.store_ms_per_write | write_mb_per_s on write-mix-async | multi_store_replicated_async self time plus its provider jobs, per write
providers.allocate_ms_per_write | write_mb_per_s on write-mix-async | allocate_replicas time per write
cache.node.hit_rate | read_p50_ms on read-cold-* | NodeCache hits / lookups, stats() delta over the timed phase
cache.page.hit_rate | read_p50_ms on read-cold-* | PageCache hits / lookups, stats() delta over the timed phase
cache.node.evictions_per_op | read_p50_ms on read-cold-* | NodeCache evictions per op
cache.page.evictions_per_op | read_p50_ms on read-cold-* | PageCache evictions per op
cache.node.lookup_ms_per_read | read_p50_ms on read-warm-sync | NodeCache.get_many time per read
cache.page.lookup_ms_per_read | read_p50_ms on read-warm-sync | PageCache.get_many time per read
vm.calls_per_op.register_update | append_p50_ms, overwrite_p50_ms on write-mix-async | VersionManagerService.register_update calls per op
vm.calls_per_op.complete_update | append_p50_ms, overwrite_p50_ms on write-mix-async | VersionManagerService.complete_update calls per op
vm.calls_per_op.check_read | append_p50_ms, overwrite_p50_ms on write-mix-async | VersionManagerService.check_read calls per op
vm.calls_per_op.get_record | append_p50_ms, overwrite_p50_ms on write-mix-async | VersionManagerService.get_record calls per op
vm.calls_per_op.get_recent | append_p50_ms, overwrite_p50_ms on write-mix-async | VersionManagerService.get_recent and recent_lease calls per op
vm.ms_per_op | append_p50_ms, overwrite_p50_ms on write-mix-async | self time of the VM service and lease-cache calls per op
vm.register_batch_ratio | append_p95_ms on write-mix-async | VMStats register_requests / register_batches delta (0 without writes)
vm.lease.hit_rate | read_p50_ms on read-warm-sync, write-mix-async | LeaseCache hits / lookups, stats() delta over the timed phase
fault.failovers_per_read | failed_frac and tail latency, any workload | ReadStats.failovers per read; 0 on a healthy cluster
fault.degraded_per_read | failed_frac and tail latency, any workload | ReadStats.degraded per read; 0 on a healthy cluster
process.gc_pause_ms_per_s | read_p99_ms, append_p95_ms, peak_rss_mb on read-cold-async, write-mix-async | garbage-collector pause CPU time per CPU second of timed phase
process.gc_gen2_count | read_p99_ms, append_p95_ms, peak_rss_mb on read-cold-async, write-mix-async | generation-2 collections per repetition's timed phase
trace.overhead_pct | none: the cost of the traced run | traced timed phases over untraced ones, minus one
trace.spans_per_op | none: the cost of the traced run | spans recorded per op
xcheck.reported_metadata_round_trips_per_read | none: compare dht.multi_get_calls_per_read | ReadStats.metadata_round_trips per read
xcheck.dht_calls_per_reported_trip | none: report only | spied multi_get calls / reported metadata round trips, reads
xcheck.reported_data_round_trips_per_read | none: compare providers.fetch_calls_per_read | ReadStats.data_round_trips per read
xcheck.vm_calls_per_op | none: report only | spied VM service calls per op
xcheck.reported_vm_round_trips_per_op | none: compare xcheck.vm_calls_per_op | ReadStats / WriteResult vm_round_trips per op
xcheck.node_cache_hits_per_read | none: report only | spied NodeCache.get_many hits per read
xcheck.reported_metadata_cache_hits_per_read | none: compare xcheck.node_cache_hits_per_read | ReadStats.metadata_cache_hits per read
xcheck.dht_calls_per_write | none: report only | spied multi_get plus multi_put calls per write
xcheck.reported_metadata_round_trips_per_write | none: compare xcheck.dht_calls_per_write | WriteResult.metadata_round_trips per write
"""

#: Per-layer metric name -> the end-to-end metric and workload it should move.
PER_LAYER = {
    name.strip(): moves.strip()
    for name, moves, _definition in (
        line.split("|") for line in _PER_LAYER_TABLE.strip().splitlines()
    )
}

READ_KINDS = ("read", "read_recent")
WRITE_KINDS = ("append", "overwrite")
#: The version-manager calls counted per op (``vm.calls_per_op.*``).
VM_CALLS = (
    "register_update",
    "complete_update",
    "check_read",
    "get_record",
    "get_recent",
)


def merge(reps: list[dict]) -> dict:
    """Sum the counts and times of several repetitions into one."""
    merged = {"reps": len(reps), "timed_s": 0.0, "cpu_s": 0.0}
    merged.update(gc_pause_ms=0.0, gc_gen2=0)
    merged.update(counters={}, stats={}, spans={})
    for rep in reps:
        for key in ("timed_s", "cpu_s", "gc_pause_ms", "gc_gen2"):
            merged[key] += rep[key]
        for key, value in rep["counters"].items():
            merged["counters"][key] = merged["counters"].get(key, 0) + value
        for kind, sums in rep["stats"].items():
            into = merged["stats"].setdefault(kind, {})
            for key, value in sums.items():
                into[key] = into.get(key, 0) + value
        for key, values in rep.get("spans", {}).items():
            into = merged["spans"].setdefault(key, [0] * len(values))
            for index, value in enumerate(values):
                into[index] += value
    return merged


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(plain: dict, traced: dict) -> dict[str, float]:
    """Per-layer metrics from merged untraced and traced repetitions of the
    same operation lists: span-derived values from ``traced``; ``stats()``
    deltas, ReadStats sums and interpreter figures from ``plain``."""
    spans = traced["spans"]

    def field(op_class: str, name: str, index: int) -> int:
        if op_class == "all":
            return field("read", name, index) + field("write", name, index)
        return spans.get(f"{op_class}|{name}", (0, 0, 0, 0))[index]

    def calls(op_class: str, name: str) -> int:
        return field(op_class, name, 0)

    def self_ms(op_class: str, *names: str) -> float:
        return sum(field(op_class, name, 1) for name in names) / 1e6

    def count(op_class: str, name: str) -> int:
        return field(op_class, name, 3)

    def stat(rep: dict, kinds: tuple[str, ...], name: str) -> int:
        return sum(rep["stats"].get(kind, {}).get(name, 0) for kind in kinds)

    reads = stat(traced, READ_KINDS, "ops")
    writes = stat(traced, WRITE_KINDS, "ops")
    ops = reads + writes
    plain_reads = stat(plain, READ_KINDS, "ops")
    plain_ops = plain_reads + stat(plain, WRITE_KINDS, "ops")
    c = plain["counters"]
    names = {key.split("|", 1)[1] for key in spans}
    vm_names = sorted(name for name in names if name.startswith("vm."))
    vm_service = [name for name in vm_names if not name.startswith("vm.lease.")]
    fetch = ("providers.fetch", "providers.fetch.job", "providers.fetch.message")
    store = ("providers.store", "providers.store.job", "providers.store.message")

    v: dict[str, float] = {}
    v["core.self_ms_per_op"] = _ratio(self_ms("all", "core"), ops)
    v["aio.run_batches_per_op"] = _ratio(calls("all", "aio.run_batches"), ops)
    batch_jobs = count("all", "aio.run_batches")
    v["aio.jobs_per_batch"] = _ratio(batch_jobs, calls("all", "aio.run_batches"))
    v["aio.loop_wait_ms_per_op"] = _ratio(self_ms("all", "aio.run_batches"), ops)

    expand = "metadata.expand"
    v["metadata.expand_calls_per_read"] = _ratio(calls("read", expand), reads)
    v["metadata.expand_ms_per_read"] = _ratio(self_ms("read", expand), reads)
    get = "metadata.get_nodes"
    v["metadata.get_nodes_calls_per_read"] = _ratio(calls("read", get), reads)
    v["metadata.nodes_per_get_call"] = _ratio(count("read", get), calls("read", get))
    v["metadata.get_nodes_self_ms_per_read"] = _ratio(self_ms("read", get), reads)
    build_ms = self_ms("write", "metadata.build")
    v["metadata.build_ms_per_write"] = _ratio(build_ms, writes)
    put_ms = field("write", "metadata.put_nodes", 2) / 1e6
    v["metadata.put_nodes_ms_per_write"] = _ratio(put_ms, writes)

    mget = "dht.multi_get"
    v["dht.multi_get_calls_per_read"] = _ratio(calls("read", mget), reads)
    v["dht.keys_per_call"] = _ratio(count("read", mget), calls("read", mget))
    v["dht.bucket_locks_per_read"] = _ratio(c["dht_batch_gets"], plain_reads)
    mget_ms = self_ms("read", mget, f"{mget}.job")
    v["dht.multi_get_ms_per_read"] = _ratio(mget_ms, reads)
    puts = calls("write", "dht.multi_put")
    v["dht.multi_put_calls_per_write"] = _ratio(puts, writes)

    message = "providers.fetch.message"
    v["providers.fetch_calls_per_read"] = _ratio(calls("read", message), reads)
    pages = count("read", message)
    v["providers.pages_per_fetch_call"] = _ratio(pages, calls("read", message))
    v["providers.fetch_ms_per_read"] = _ratio(self_ms("read", *fetch), reads)
    stores = calls("write", "providers.store.message")
    v["providers.store_calls_per_write"] = _ratio(stores, writes)
    v["providers.store_ms_per_write"] = _ratio(self_ms("write", *store), writes)
    allocate_ms = self_ms("write", "providers.allocate")
    v["providers.allocate_ms_per_write"] = _ratio(allocate_ms, writes)

    for cache in ("node", "page"):
        hits, misses = c[f"{cache}_hits"], c[f"{cache}_misses"]
        v[f"cache.{cache}.hit_rate"] = _ratio(hits, hits + misses)
        evictions = c[f"{cache}_evictions"]
        v[f"cache.{cache}.evictions_per_op"] = _ratio(evictions, plain_ops)
        lookup_ms = self_ms("read", f"cache.{cache}.get_many")
        v[f"cache.{cache}.lookup_ms_per_read"] = _ratio(lookup_ms, reads)

    for method in VM_CALLS:
        v[f"vm.calls_per_op.{method}"] = _ratio(calls("all", f"vm.{method}"), ops)
    v["vm.ms_per_op"] = _ratio(self_ms("all", *vm_names), ops)
    registers = c["register_requests"]
    v["vm.register_batch_ratio"] = _ratio(registers, c["register_batches"])
    lease_lookups = c["lease_hits"] + c["lease_misses"]
    v["vm.lease.hit_rate"] = _ratio(c["lease_hits"], lease_lookups)

    failovers = stat(plain, READ_KINDS, "failovers")
    v["fault.failovers_per_read"] = _ratio(failovers, plain_reads)
    degraded = stat(plain, READ_KINDS, "degraded")
    v["fault.degraded_per_read"] = _ratio(degraded, plain_reads)

    v["process.gc_pause_ms_per_s"] = _ratio(plain["gc_pause_ms"], plain["cpu_s"])
    v["process.gc_gen2_count"] = _ratio(plain["gc_gen2"], plain["reps"])
    slowdown = _ratio(traced["timed_s"], plain["timed_s"])
    v["trace.overhead_pct"] = (slowdown - 1) * 100
    total_spans = sum(values[0] for values in spans.values())
    v["trace.spans_per_op"] = _ratio(total_spans, ops)

    x = "xcheck."
    meta_trips = stat(traced, READ_KINDS, "metadata_round_trips")
    v[x + "reported_metadata_round_trips_per_read"] = _ratio(meta_trips, reads)
    v[x + "dht_calls_per_reported_trip"] = _ratio(calls("read", mget), meta_trips)
    data_trips = stat(traced, READ_KINDS, "data_round_trips")
    v[x + "reported_data_round_trips_per_read"] = _ratio(data_trips, reads)
    vm_calls = sum(calls("all", name) for name in vm_service)
    v[x + "vm_calls_per_op"] = _ratio(vm_calls, ops)
    vm_trips = stat(traced, READ_KINDS + WRITE_KINDS, "vm_round_trips")
    v[x + "reported_vm_round_trips_per_op"] = _ratio(vm_trips, ops)
    node_hits = count("read", "cache.node.get_many")
    v[x + "node_cache_hits_per_read"] = _ratio(node_hits, reads)
    reported_hits = stat(traced, READ_KINDS, "metadata_cache_hits")
    v[x + "reported_metadata_cache_hits_per_read"] = _ratio(reported_hits, reads)
    write_dht = calls("write", mget) + calls("write", "dht.multi_put")
    v[x + "dht_calls_per_write"] = _ratio(write_dht, writes)
    write_trips = stat(traced, WRITE_KINDS, "metadata_round_trips")
    v[x + "reported_metadata_round_trips_per_write"] = _ratio(write_trips, writes)
    return v
