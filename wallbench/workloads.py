"""Workload definitions, seeded operation lists and the byte oracle.

Everything here is pure Python and touches no engine object: the
repetition process (``rep.py``) builds the cluster, feeds it the operation
lists made here, and checks the results with :class:`WriteOracle` and
:func:`expected_crc`.
"""

from __future__ import annotations

import bisect
import hashlib
import random
import struct
import zlib
from dataclasses import dataclass, replace

PAGE_SIZE = 4096
#: Pages per read on every workload.
READ_PAGES = 32
#: Pages per append and per overwrite on the write mix.
WRITE_PAGES = 8
MiB = 1024 * 1024

#: Operation tags: the load of a blob is tag 0, warm-up operation ``i`` is
#: ``WARMUP_TAG + i`` and timed operation ``i`` is ``TIMED_TAG + i``, so
#: every page ever written carries a pattern no other write produces.
WARMUP_TAG = 1 << 20
TIMED_TAG = 1 << 21

#: Zipf exponent of the blob choice on read-warm-sync.
ZIPF_S = 1.2


@dataclass(frozen=True)
class Workload:
    """One traffic mix."""

    name: str
    #: ``"sync"`` drives :class:`repro.BlobStore` with one client,
    #: ``"async"`` drives :class:`repro.AsyncBlobStore` with ``in_flight``
    #: closed-loop client tasks on one event loop.
    api: str
    in_flight: int
    blobs: int
    pages_per_blob: int
    #: ``None`` keeps the engine's default cache budgets.
    metadata_cache_entries: int | None
    page_cache_bytes: int | None
    #: Sizes the run: a run of ``seconds`` executes
    #: ``round(nominal_ops_per_s * seconds)`` operations, however fast the
    #: engine is, so a faster engine does the same work in less time.
    nominal_ops_per_s: float
    warmup_ops: int
    #: Extra repetitions of a ``--trace 0`` run that only set up (and
    #: check the warm-up), so that ``setup_s`` is a median over
    #: ``run.REPS`` plus this many set-ups.  Only the short set-ups get
    #: them: one short set-up samples a single fast or slow stretch of the
    #: machine, while a set-up of over a second already spans several.
    setup_only_reps: int


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="read-cold-async",
            api="async",
            in_flight=16,
            blobs=64,
            pages_per_blob=256,
            metadata_cache_entries=4096,
            page_cache_bytes=8 * MiB,
            nominal_ops_per_s=200.0,
            warmup_ops=64,
            setup_only_reps=0,
        ),
        Workload(
            name="read-cold-sync",
            api="sync",
            in_flight=1,
            blobs=64,
            pages_per_blob=256,
            metadata_cache_entries=4096,
            page_cache_bytes=8 * MiB,
            nominal_ops_per_s=300.0,
            warmup_ops=128,
            setup_only_reps=0,
        ),
        Workload(
            name="read-warm-sync",
            api="sync",
            in_flight=1,
            blobs=4,
            pages_per_blob=64,
            metadata_cache_entries=None,
            page_cache_bytes=None,
            nominal_ops_per_s=800.0,
            warmup_ops=0,
            setup_only_reps=14,
        ),
        Workload(
            name="write-mix-async",
            api="async",
            in_flight=16,
            blobs=8,
            pages_per_blob=64,
            metadata_cache_entries=None,
            page_cache_bytes=None,
            nominal_ops_per_s=400.0,
            warmup_ops=64,
            setup_only_reps=10,
        ),
    )
}


def scaled(workload: Workload, scale: str) -> Workload:
    """The workload at ``scale``: ``"full"`` as defined; ``"tiny"`` (for the
    self-test) with a sixteenth of the blobs and of the cache budgets, so a
    cold workload stays cold."""
    if scale == "full":
        return workload
    if scale != "tiny":
        raise ValueError(f"unknown scale {scale!r}")
    entries = workload.metadata_cache_entries
    page_bytes = workload.page_cache_bytes
    return replace(
        workload,
        in_flight=min(workload.in_flight, 4),
        blobs=max(workload.blobs // 16, 2),
        metadata_cache_entries=None if entries is None else max(entries // 16, 64),
        page_cache_bytes=None if page_bytes is None else max(page_bytes // 16, 65536),
        warmup_ops=min(workload.warmup_ops, 16),
        setup_only_reps=min(workload.setup_only_reps, 2),
    )


# -- page contents -----------------------------------------------------------
def page_bytes(blob: int, tag: int, index: int) -> bytes:
    """Content of page ``index`` of the buffer written by operation ``tag``
    on blob ``blob``: a digest of the triple repeated over the page, so a
    swapped, stale or misplaced page never matches."""
    key = struct.pack("<III", blob, tag, index)
    digest = hashlib.blake2b(key, digest_size=64).digest()
    return digest * (PAGE_SIZE // len(digest))


def buffer_bytes(blob: int, tag: int, pages: int) -> bytes:
    return b"".join(page_bytes(blob, tag, index) for index in range(pages))


# -- operation lists -----------------------------------------------------------
# An operation is a tuple whose first field is its kind:
#   ("read", blob, first_page)         READ_PAGES pages at the load version (1)
#   ("read_recent", blob, first_page)  READ_PAGES pages at the recent version
#   ("append", blob)                   append WRITE_PAGES pages
#   ("overwrite", blob, first_page)    write WRITE_PAGES pages at first_page


def make_ops(workload: Workload, seed: int, count: int) -> list[tuple]:
    """``count`` operations of ``workload``, a pure function of ``seed``."""
    rng = random.Random(seed)
    windows = workload.pages_per_blob // READ_PAGES
    if workload.name in ("read-cold-async", "read-cold-sync"):
        return [
            ("read", rng.randrange(workload.blobs), rng.randrange(windows) * READ_PAGES)
            for _ in range(count)
        ]
    if workload.name == "read-warm-sync":
        # Zipf over a seeded order of the blobs, so the hot blob differs
        # between seeds.
        order = list(range(workload.blobs))
        rng.shuffle(order)
        weights = [1.0 / rank**ZIPF_S for rank in range(1, workload.blobs + 1)]
        picks = rng.choices(order, weights=weights, k=count)
        return [("read", blob, rng.randrange(windows) * READ_PAGES) for blob in picks]
    if workload.name == "write-mix-async":
        # Exactly 40% appends, 20% overwrites and 40% reads in a seeded
        # order, so that the seed moves only the order, not the mix.
        appends, overwrites = round(0.4 * count), round(0.2 * count)
        kinds = ["append"] * appends + ["overwrite"] * overwrites
        kinds += ["read_recent"] * (count - appends - overwrites)
        rng.shuffle(kinds)
        base = workload.pages_per_blob
        ops: list[tuple] = []
        for kind in kinds:
            blob = rng.randrange(workload.blobs)
            if kind == "append":
                ops.append(("append", blob))
            elif kind == "overwrite":
                ops.append(("overwrite", blob, rng.randrange(base - WRITE_PAGES + 1)))
            else:
                ops.append(("read_recent", blob, rng.randrange(base - READ_PAGES + 1)))
        return ops
    raise ValueError(f"unknown workload {workload.name!r}")


def warmup_windows(workload: Workload) -> list[tuple]:
    """read-warm-sync's set-up: every 32-page window read once."""
    return [
        ("read", blob, window * READ_PAGES)
        for blob in range(workload.blobs)
        for window in range(workload.pages_per_blob // READ_PAGES)
    ]


# -- oracle --------------------------------------------------------------------
def expected_crc(blob: int, first_page: int, pages: int, writer) -> int:
    """CRC32 of ``pages`` pages from ``first_page`` on, where
    ``writer(page) -> (tag, index)`` names the write each page comes from."""
    crc = 0
    for page in range(first_page, first_page + pages):
        tag, index = writer(page)
        crc = zlib.crc32(page_bytes(blob, tag, index), crc)
    return crc


def loaded_writer(page: int) -> tuple[int, int]:
    """Writer of every page of a blob that was only loaded."""
    return 0, page


class WriteOracle:
    """Snapshot model of the write mix, replayed from completed writes.

    Like :mod:`repro.baselines.fullcopy`, it applies each blob's updates in
    version order (version 1 is the load).  Instead of a full copy per
    snapshot it keeps, per page, which write covered it from which version
    on, so a read at any version costs one bisect per page.
    """

    def __init__(self, blobs: int, pages_per_blob: int):
        self._base_pages = pages_per_blob
        #: blob -> {version: (kind, first_page or None, pages, tag)}
        self._writes: list[dict[int, tuple]] = [{} for _ in range(blobs)]
        #: blob -> {page: ([versions], [(tag, index)])}, after replay()
        self._history: list[dict[int, tuple[list, list]]] = []
        #: blob -> {version: size in pages}, after replay()
        self._sizes: list[dict[int, int]] = []
        self.errors: list[str] = []

    def record(self, blob: int, version: int, kind: str, first_page, tag: int):
        if version in self._writes[blob]:
            self.errors.append(f"blob {blob}: version {version} assigned twice")
        self._writes[blob][version] = (kind, first_page, WRITE_PAGES, tag)

    def replay(self) -> None:
        """Apply every blob's writes in version order; a version that does
        not follow its predecessor is an error."""
        for blob, writes in enumerate(self._writes):
            history = {page: ([1], [(0, page)]) for page in range(self._base_pages)}
            sizes = {1: self._base_pages}
            size = self._base_pages
            for version in sorted(writes):
                if version - 1 not in sizes:
                    self.errors.append(f"blob {blob}: version {version} has a gap")
                kind, first_page, pages, tag = writes[version]
                if kind == "append":
                    first_page = size
                for index in range(pages):
                    versions, writers = history.setdefault(first_page + index, ([], []))
                    versions.append(version)
                    writers.append((tag, index))
                size = max(size, first_page + pages)
                sizes[version] = size
            self._history.append(history)
            self._sizes.append(sizes)

    def last_version(self, blob: int) -> int:
        return max(self._sizes[blob])

    def size_pages(self, blob: int, version: int) -> int:
        return self._sizes[blob][version]

    def writer_at(self, blob: int, version: int):
        """``writer(page)`` of snapshot ``version`` (see :func:`expected_crc`)."""
        history = self._history[blob]

        def writer(page: int) -> tuple[int, int]:
            versions, writers = history[page]
            slot = bisect.bisect_right(versions, version) - 1
            if slot < 0:
                raise KeyError(f"blob {blob} page {page} unwritten at v{version}")
            return writers[slot]

        return writer
