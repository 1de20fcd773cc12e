"""Sharded multi-process serving tier over shared-memory site shards.

The single-process service executes every micro-batch on one thread, so
aggregate throughput caps out at one core no matter how many clients
connect.  This module scales the comparer out the way production
inference servers shard a resident model: the
:class:`~repro.service.index.GenomeSiteIndex` candidate arrays are
partitioned by chunk into N shards, each shard's numpy payloads are
published once through :mod:`multiprocessing.shared_memory` (workers
map them zero-copy — no candidate array is ever pickled per batch), and
one comparer worker process serves each shard.  A flushed scheduler
batch is *scattered* to every shard in parallel and the per-shard hits
are *gathered* and merged in global chunk order, so responses stay
byte-identical to the single-process service — the same invariant the
streaming engine and checkpoint resume already pin down.

When the inner index is in packed mode the segments carry the compact
forms instead of raw arrays: per chunk, the 2-bit
:mod:`~repro.genome.twobit` bases plus N mask (~0.28 B/base), a
candidate bitmask over the scan region (1 bit per scanned position —
loci are strictly ascending and unique, so the mask is lossless), and
2-bit strand flags (4 per byte).  No genome segment is published at
all.  Each worker decodes its slice privately at attach time and
repacks the resident :class:`~repro.core.pipeline.PackedSites` planes
once, so the per-batch hot path runs the bit-parallel comparer with
zero shared-memory gathers.  Byte mode keeps the original layout
(genome segment + per-shard ``loci``/``flags``).

Results come back as comparer triples, never as hit objects, through
preallocated per-shard **shared-memory result rings**: a worker writes
fixed-width records — ``(query index, global chunk index, locus,
strand, mismatches)`` at 16 bytes each — into its ring and posts only
a tiny ``(batch_id, epoch, count)`` control message; the parent reads
the ring zero-copy back into per-chunk triples.  A ``query`` batch
renders them against the parent's own resident chunk data through
:func:`~repro.core.pipeline.build_entry_hits`, the in-process
rendering, so wire responses stay byte-identical; a variant search
diffs them without building hits at all.  A batch whose hit count
overflows the ring ships the same triples pickled instead (also
byte-identical, just slower), and ``comparer_stats`` counts both paths
plus the ring high-water mark.

Each shard also publishes a **candidate summary**: per window
position, the OR of base-class bits over every candidate site in the
shard.  Before scattering, the parent computes a per-strand lower
bound on the mismatch count any site in the shard could achieve
against each query (see :func:`repro.service.index.profile_feasible`);
shards that provably cannot match any query in the batch are skipped
entirely (``shards_skipped`` counter).

When the host cannot win the hop — ``auto_degrade=True`` and a single
CPU, or a :meth:`calibrate` probe measuring the sharded path slower
than the in-process comparer — the tier *degrades*: no workers are
kept (or spawned), and every batch routes to the inner
:class:`GenomeSiteIndex` through :meth:`query_batch_direct`.  The
batch scheduler uses the same entry point for adaptive small-batch
routing.

Worker lifecycle follows :mod:`repro.core.multidevice`'s failover
shape: liveness is checked against the worker process itself, a dead
worker is respawned and re-attaches its shard straight from the shared
segments (nothing is recomputed), and the in-flight batch is resent
under a bumped *epoch* — with the gather deadline reset, so the fresh
worker gets a full ``task_timeout_s`` rather than the dead one's
leftovers.  ``scatter`` / ``gather`` / per-worker ``shard`` spans
thread through the trace recorder; workers ship their drained spans
back with each result, and ring occupancy is sampled as Chrome-trace
counter events.  The lock discipline is deliberately narrow: worker
state is guarded by a short-lived mutex so ``shard_health`` /
``ping`` / ``comparer_stats`` answer while a batch is in flight, and
only ``query_batch``/``close`` serialize on the batch lock.

Shared-memory hygiene: segments are named
``repro-shm-<pid>-<token>-...`` so :func:`cleanup_leaked_segments`
(also ``python -m repro.service.shards --cleanup``) can sweep segments
whose owning process died without :meth:`ShardedSiteIndex.close` —
repeated local runs never accumulate ``/dev/shm`` garbage.
"""

from __future__ import annotations

import atexit
import os
import queue
import signal
import sys
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing import shared_memory
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.bitparallel import pack_site_windows, window_packable
from ..core.config import Query
from ..core.patterns import compile_pattern
from ..core.pipeline import (ResidentChunk, Triples, build_entry_hits,
                             make_pipeline)
from ..core.records import OffTargetHit
from ..genome import twobit
from ..observability import tracing
from .index import (GenomeSiteIndex, profile_feasible,
                    query_allowed_masks, window_column_profile)

#: Prefix for every shared-memory segment this module creates.
SHM_PREFIX = "repro-shm-"

#: Where POSIX shared memory shows up for leak sweeping.
_DEV_SHM = "/dev/shm"

#: One fixed-width hit record in a shard's result ring.  ``locus`` is
#: the offset within the chunk (the comparer's native coordinate);
#: ``chunk`` is the global chunk index, so the parent can find the
#: resident chunk the locus refers to.  16 bytes keeps records
#: naturally aligned and a 64 Ki-record ring at 1 MiB per shard.
RING_RECORD_DTYPE = np.dtype([
    ("qi", "<u4"),      # query index within the batch
    ("chunk", "<u4"),   # global chunk index
    ("locus", "<u4"),   # candidate offset within the chunk
    ("mm", "<u2"),      # mismatch count
    ("strand", "u1"),   # ord("+") or ord("-"), as the kernels emit it
    ("pad", "u1"),
])

#: Default per-shard ring capacity in records (1 MiB per shard).
DEFAULT_RING_RECORDS = 1 << 16


class ShardWorkerError(RuntimeError):
    """A shard worker failed in a way respawning could not cover."""


def _attach_shared(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting its lifetime.

    ``SharedMemory(name=...)`` registers the segment with the
    ``resource_tracker``, which would *unlink* it when this process
    exits (or is killed) — destroying the index under every other
    worker.  The parent owns the segments, so registration is
    suppressed for the duration of the attach (Python < 3.13 has no
    ``track=False``); unregistering after the fact would instead strip
    the parent's own registration from the shared tracker.
    """
    from multiprocessing import resource_tracker
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------

def _packed_region_size(length: int, scan_length: int,
                        n_sites: int) -> int:
    """Bytes one chunk occupies in a packed-layout shard segment."""
    return ((length + 3) // 4 + (length + 7) // 8
            + (scan_length + 7) // 8 + (n_sites + 3) // 4)


def _shard_worker_main(shard_id: int, genome_name: Optional[str],
                       genome_layout: List[Tuple[str, int, int]],
                       sites_name: str, site_count: int,
                       seg_bytes: int,
                       chunk_meta: List[Tuple[int, str, int, int, int,
                                              int, int]],
                       pipeline_params: Dict[str, Any],
                       packed: bool, plen: int,
                       ring_name: Optional[str], ring_records: int,
                       task_queue, result_queue) -> None:
    """One shard's comparer loop: attach, serve tasks, exit on stop.

    Byte layout: ``chunk_meta`` rows are ``(global_index, chrom, start,
    scan_length, length, lo, hi)`` and entries are zero-copy views over
    the genome and sites segments.  Packed layout: rows are
    ``(global_index, chrom, start, scan_length, length, n_sites,
    offset)``; the worker decodes its 2-bit bases, candidate bitmask
    and flag pairs into private arrays once at attach time and repacks
    the resident :class:`PackedSites` planes, so no shared view is held
    on the hot path.

    Results go back through the shard's result ring when they fit:
    fixed-width :data:`RING_RECORD_DTYPE` records written in (chunk,
    query, hit) order — the exact order hit construction iterates — and
    a small ``("ring", ..., count, spans)`` control message.  The ring
    writes land before ``result_queue.put`` returns (same thread, and
    the queue's pipe write is a syscall barrier), so the parent never
    reads a record ahead of its data.  A batch whose hits overflow the
    ring (or a tier with rings disabled) ships the same per-chunk
    triples pickled instead.
    """
    genome_shm = None
    sites_shm = _attach_shared(sites_name)
    entries: List[ResidentChunk] = []
    if packed:
        seg = np.ndarray((seg_bytes,), dtype=np.uint8,
                         buffer=sites_shm.buf)
        shifts = np.arange(4, dtype=np.uint8) * np.uint8(2)
        for _, chrom, start, scan_length, length, n_sites, off \
                in chunk_meta:
            base_len = (length + 3) // 4
            nmask_len = (length + 7) // 8
            cand_len = (scan_length + 7) // 8
            flags_len = (n_sites + 3) // 4
            p = off
            data = twobit.decode(twobit.TwoBitSequence(
                packed=seg[p:p + base_len].copy(),
                n_mask=seg[p + base_len:p + base_len + nmask_len]
                .copy(),
                length=length))
            p += base_len + nmask_len
            loci = np.flatnonzero(np.unpackbits(
                seg[p:p + cand_len], bitorder="little",
                count=scan_length)).astype(np.uint32)
            p += cand_len
            quads = seg[p:p + flags_len]
            flags = np.ascontiguousarray(
                ((quads[:, None] >> shifts) & np.uint8(3))
                .reshape(-1)[:n_sites])
            entries.append(ResidentChunk(
                chrom=chrom, start=start, scan_length=scan_length,
                data=data, loci=loci, flags=flags,
                packed=pack_site_windows(data, loci, plen)))
        del seg
    else:
        genome_shm = _attach_shared(genome_name)
        genome_total = sum(size for _, _, size in genome_layout)
        genome_arr = np.ndarray((genome_total,), dtype=np.uint8,
                                buffer=genome_shm.buf)
        chrom_views = {name: genome_arr[offset:offset + size]
                       for name, offset, size in genome_layout}
        loci_all = np.ndarray((site_count,), dtype=np.uint32,
                              buffer=sites_shm.buf)
        flags_all = np.ndarray((site_count,), dtype=np.uint8,
                               buffer=sites_shm.buf,
                               offset=site_count * 4)
        entries = [
            ResidentChunk(chrom=chrom, start=start,
                          scan_length=scan_length,
                          data=chrom_views[chrom][start:start + length],
                          loci=loci_all[lo:hi], flags=flags_all[lo:hi])
            for _, chrom, start, scan_length, length, lo, hi
            in chunk_meta]
        del genome_arr, chrom_views, loci_all, flags_all
    ring_shm = None
    ring = None
    if ring_name is not None and ring_records > 0:
        ring_shm = _attach_shared(ring_name)
        ring = np.ndarray((ring_records,), dtype=RING_RECORD_DTYPE,
                          buffer=ring_shm.buf)
    pipeline = make_pipeline(**pipeline_params)
    try:
        while True:
            task = task_queue.get()
            kind = task[0]
            if kind == "stop":
                break
            if kind == "ping":
                result_queue.put(("pong", shard_id, task[1],
                                  os.getpid()))
                continue
            if kind == "crash":
                # Fault injection: die like a segfaulted worker would,
                # with no cleanup and no reply.
                os._exit(23)
            if kind == "delay":
                # Fault injection: stall the loop so the parent can
                # observe a batch genuinely in flight.
                time.sleep(float(task[1]))
                continue
            if kind != "query":
                continue
            _, epoch, batch_id, specs, trace = task
            spans: List[tracing.Span] = []
            try:
                queries = [Query(sequence=seq, max_mismatches=mm)
                           for seq, mm in specs]
                compiled = [compile_pattern(q.sequence)
                            for q in queries]
                recorder = tracing.TraceRecorder() if trace else None
                if recorder is not None:
                    tracing.activate(recorder)
                    tracing.set_process_name(f"shard-{shard_id}")
                try:
                    with tracing.span("shard", cat="shard",
                                      shard=shard_id, batch=batch_id,
                                      chunks=len(chunk_meta),
                                      packed=packed,
                                      queries=len(queries)) as sp:
                        triples = [pipeline.compare_resident_triples(
                            entry, queries, compiled, batched=True)
                            for entry in entries]
                        total = sum(int(t[0].size)
                                    for per_query in triples
                                    for t in per_query)
                        sp.args["hits"] = total
                finally:
                    if recorder is not None:
                        spans = recorder.drain()
                        tracing.activate(None)
                if ring is not None and total <= ring_records:
                    pos = 0
                    for meta, per_query in zip(chunk_meta, triples):
                        gi = meta[0]
                        for qi, (mm_loci, mm_count, direction) \
                                in enumerate(per_query):
                            n = int(mm_loci.size)
                            if n == 0:
                                continue
                            block = ring[pos:pos + n]
                            block["qi"] = np.uint32(qi)
                            block["chunk"] = np.uint32(gi)
                            block["locus"] = mm_loci.astype(
                                np.uint32, copy=False)
                            block["mm"] = mm_count.astype(
                                np.uint16, copy=False)
                            block["strand"] = direction.astype(
                                np.uint8, copy=False)
                            pos += n
                    result_queue.put(("ring", shard_id, epoch,
                                      batch_id, pos, spans))
                else:
                    # Ring overflow (or rings disabled): ship the same
                    # triples pickled.
                    payload = [(meta[0], per_query)
                               for meta, per_query
                               in zip(chunk_meta, triples)]
                    result_queue.put(("result", shard_id, epoch,
                                      batch_id, payload, spans))
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:  # noqa: BLE001 - shipped back
                result_queue.put(("error", shard_id, epoch, batch_id,
                                  f"{type(exc).__name__}: {exc}",
                                  spans))
    finally:
        release = getattr(pipeline, "release", None)
        if release is not None:
            release()
        del entries  # byte-mode entries hold views over the segments
        del ring    # ring view pins the ring segment's buffer
        for shm in (genome_shm, sites_shm, ring_shm):
            if shm is None:
                continue
            try:
                shm.close()
            except BufferError:
                pass  # a stray view survives; process exit reclaims it


# ---------------------------------------------------------------------------
# Parent-side shard management
# ---------------------------------------------------------------------------

@dataclass
class _ShardWorker:
    """Parent-side record of one shard worker."""

    shard_id: int
    sites_name: str
    site_count: int
    seg_bytes: int
    chunk_meta: List[Tuple[int, str, int, int, int, int, int]]
    task_queue: Any
    process: Any = None
    #: Bumped on every respawn; results carrying an older epoch are
    #: stale leftovers from a dead incarnation and are dropped.
    epoch: int = 0
    respawns: int = 0
    #: Name of this shard's result-ring segment (None: rings disabled).
    ring_name: Optional[str] = None
    #: Candidate summary: per window position, the OR of base-class
    #: bits over every candidate site in the shard (see
    #: :func:`repro.service.index.window_column_profile`).  Drives the
    #: pre-scatter feasibility skip.
    profile: Optional[np.ndarray] = None


class ShardedSiteIndex:
    """N-process scatter/gather façade over one :class:`GenomeSiteIndex`.

    Duck-types the slice of the index surface the scheduler and server
    consume (``pattern`` / ``compiled_pattern`` / ``query_batch`` /
    counters), so it drops into :class:`BatchScheduler` unchanged.  The
    inner index's candidate arrays are published to shared memory once
    at construction; the inner index itself is never queried again.

    Chunks are assigned round-robin (chunk ``i`` → shard ``i % N``) and
    every worker's per-chunk hits come back tagged with the global
    chunk index, so the gather merge — sort by global index, then
    extend per query — reproduces the single-process chunk-major hit
    order byte-for-byte.
    """

    def __init__(self, index: GenomeSiteIndex, shards: int = 2,
                 task_timeout_s: float = 60.0,
                 max_respawns_per_batch: int = 3, start: bool = True,
                 ring_records: int = DEFAULT_RING_RECORDS,
                 auto_degrade: bool = False):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if ring_records < 0:
            raise ValueError(
                f"ring_records must be >= 0, got {ring_records}")
        self.index = index
        self.shard_count = int(shards)
        self.task_timeout_s = float(task_timeout_s)
        self.max_respawns_per_batch = int(max_respawns_per_batch)
        self.ring_records = int(ring_records)
        self._ctx = get_context("spawn")
        #: Guards worker/segment state and counters.  Deliberately
        #: narrow: never held across a gather, so ``shard_health`` /
        #: ``ping`` / ``comparer_stats`` answer mid-batch.
        self._lock = threading.RLock()
        #: Serializes scatter+gather (and close) — one batch owns the
        #: rings and the result queue at a time.  Acquired before
        #: ``_lock``; never the other way around.
        self._batch_lock = threading.Lock()
        #: Demux for the single results queue: gather and ping each
        #: pop under this lock and stash messages meant for the other.
        self._results_lock = threading.Lock()
        self._stash_pongs: Deque[Tuple] = deque()
        self._stash_results: Deque[Tuple] = deque()
        self._closed = False
        self._next_batch = 0
        self._genome_shm: Optional[shared_memory.SharedMemory] = None
        self._shard_shms: List[shared_memory.SharedMemory] = []
        self._ring_shms: List[shared_memory.SharedMemory] = []
        self._ring_views: Dict[int, np.ndarray] = {}
        self._genome_layout: List[Tuple[str, int, int]] = []
        self._genome_bytes = 0
        self._workers: List[_ShardWorker] = []
        #: Effective sharded-tier comparer mode (may degrade to byte).
        self.packed = bool(getattr(index, "packed", False))
        self.packed_disabled_reason: Optional[str] = \
            getattr(index, "packed_disabled_reason", None)
        self._queries_packed = 0
        self._queries_fallback = 0
        self._shards_skipped = 0
        self._batches_sharded = 0
        self._batches_direct = 0
        self._queries_total = 0
        self._entries_scanned = 0
        self._ring_batches = 0
        self._pickle_batches = 0
        self._ring_high_water = 0
        #: True once the tier has routed itself out of the picture:
        #: every batch goes to the inner index in-process.
        self.degraded = False
        self.degrade_reason: Optional[str] = None
        if auto_degrade:
            cpus = os.cpu_count() or 1
            if cpus < 2:
                self.degraded = True
                self.degrade_reason = (
                    f"host has {cpus} cpu(s); the scatter/gather hop "
                    f"cannot beat the in-process comparer")
                tracing.instant("shard_tier_degraded", cat="shard",
                                reason=self.degrade_reason)
        self._results = self._ctx.Queue()
        self._pipeline_params = dict(
            api=index.api, device=index.device,
            variant=index.pipeline.variant, mode=index.pipeline.mode,
            chunk_size=index.chunk_size,
            work_group_size=getattr(index.pipeline, "_wg", 256))
        if not self.degraded:
            try:
                self._publish(index)
            except BaseException:
                self._release_segments()
                raise
        atexit.register(self.close)
        if start and not self.degraded:
            self.start()

    # -- duck-typed index surface ---------------------------------------

    @property
    def assembly(self):
        return self.index.assembly

    @property
    def pattern(self) -> str:
        return self.index.pattern

    @property
    def compiled_pattern(self):
        return self.index.compiled_pattern

    @property
    def chunk_size(self) -> int:
        return self.index.chunk_size

    @property
    def pipeline(self):
        """The inner index's pipeline (variant patch chunks are
        scanned and compared parent-side; shard workers never see
        request-scoped data)."""
        return self.index.pipeline

    @property
    def entries(self):
        """The inner index's resident chunks (read-only metadata)."""
        return self.index.entries

    @property
    def api(self) -> str:
        return self.index.api

    @property
    def device(self) -> str:
        return self.index.device

    @property
    def chunk_count(self) -> int:
        return self.index.chunk_count

    @property
    def site_count(self) -> int:
        return self.index.site_count

    def manifest(self):
        return self.index.manifest()

    def fingerprint(self) -> str:
        return self.index.fingerprint()

    @property
    def chromosomes(self):
        return self.index.chromosomes

    def segment_bytes(self) -> Dict[str, Any]:
        """Shared-memory footprint of the published index.

        ``total`` counts the index payload (genome + shard segments)
        only; the fixed-size result rings are reported separately so
        index-compression comparisons are not swamped by ring
        capacity, which is identical in every mode.
        """
        shard_bytes = sum(w.seg_bytes for w in self._workers)
        ring_bytes = sum(int(shm.size) for shm in self._ring_shms)
        return {
            "mode": "packed" if self.packed else "byte",
            "genome": self._genome_bytes,
            "shards": shard_bytes,
            "rings": ring_bytes,
            "total": self._genome_bytes + shard_bytes,
        }

    def comparer_stats(self) -> Dict[str, Any]:
        """Comparer-mode introspection (stats op), incl. shm bytes."""
        with self._lock:
            queries_packed = self._queries_packed
            queries_fallback = self._queries_fallback
            shards_skipped = self._shards_skipped
            batches_sharded = self._batches_sharded
            batches_direct = self._batches_direct
            queries_total = self._queries_total
            ring_batches = self._ring_batches
            pickle_batches = self._pickle_batches
            ring_high_water = self._ring_high_water
            entries_scanned = self._entries_scanned
        return {
            "mode": "packed" if self.packed else "byte",
            "packed_disabled_reason": self.packed_disabled_reason,
            "queries_packed": queries_packed,
            "queries_fallback": queries_fallback,
            "degraded": self.degraded,
            "degrade_reason": self.degrade_reason,
            "shards_skipped": shards_skipped,
            "batches_sharded": batches_sharded,
            "batches_direct": batches_direct,
            # Tier-level batch/query totals, mirroring the in-process
            # index's ``batches``/``queries_total`` proof that many
            # guides share each comparer pass.
            "batches": batches_sharded + batches_direct,
            "queries_total": queries_total,
            # Parent-side comparer entries only: the variant op's
            # ephemeral patch chunks are compared in-process (they are
            # request-scoped and never published to shard workers), so
            # this counts exactly the patched chunks scanned here.
            "entries_scanned": entries_scanned,
            "result_path": {"ring": ring_batches,
                            "pickle": pickle_batches},
            "ring_records": self.ring_records,
            "ring_high_water": ring_high_water,
            "segment_bytes": self.segment_bytes(),
        }

    # -- shared-memory publication --------------------------------------

    def _publish(self, index: GenomeSiteIndex) -> None:
        token = uuid.uuid4().hex[:8]
        base = f"{SHM_PREFIX}{os.getpid()}-{token}"
        self.packed = bool(getattr(index, "packed", False))
        entries = list(index.entries)
        if self.packed:
            for gi, entry in enumerate(entries):
                if entry.loci.size > 1 and not np.all(
                        np.diff(entry.loci.astype(np.int64)) > 0):
                    # The candidate bitmask can only represent strictly
                    # ascending unique loci; fall back rather than
                    # publish a lossy layout.
                    self.packed = False
                    self.packed_disabled_reason = (
                        f"chunk {gi} loci are not strictly ascending; "
                        f"cannot publish packed candidate bitmask")
                    break
        if not self.packed:
            offset = 0
            for chrom in index.assembly.chromosomes:
                self._genome_layout.append(
                    (chrom.name, offset, len(chrom)))
                offset += len(chrom)
            self._genome_shm = shared_memory.SharedMemory(
                name=f"{base}-genome", create=True, size=max(1, offset))
            genome_arr = np.ndarray((offset,), dtype=np.uint8,
                                    buffer=self._genome_shm.buf)
            for chrom, (_, off, size) in zip(
                    index.assembly.chromosomes, self._genome_layout):
                genome_arr[off:off + size] = chrom.sequence
            del genome_arr  # no live view: close() would BufferError
            self._genome_bytes = offset
        assignments: List[List[Tuple[int, Any]]] = [
            [] for _ in range(self.shard_count)]
        for gi, entry in enumerate(entries):
            assignments[gi % self.shard_count].append((gi, entry))
        plen = index.compiled_pattern.plen
        for shard_id, assigned in enumerate(assignments):
            site_count = sum(e.loci.size for _, e in assigned)
            if self.packed:
                seg_bytes, chunk_meta = self._publish_packed_shard(
                    index, base, shard_id, assigned)
            else:
                seg_bytes, chunk_meta = self._publish_byte_shard(
                    base, shard_id, assigned, site_count)
            # Candidate summary: OR of base-class bits per window
            # position over every site in the shard, for the
            # pre-scatter feasibility skip.
            profile = np.zeros(plen, dtype=np.uint8)
            for _, entry in assigned:
                data = entry.data
                if data is None:
                    data = index.assembly.fetch(
                        entry.chrom, entry.start,
                        entry.start + entry.length)
                profile |= window_column_profile(data, entry.loci,
                                                 plen)
            ring_name = None
            if self.ring_records > 0:
                ring_shm = shared_memory.SharedMemory(
                    name=f"{base}-r{shard_id}", create=True,
                    size=max(1, self.ring_records
                             * RING_RECORD_DTYPE.itemsize))
                self._ring_shms.append(ring_shm)
                self._ring_views[shard_id] = np.ndarray(
                    (self.ring_records,), dtype=RING_RECORD_DTYPE,
                    buffer=ring_shm.buf)
                ring_name = ring_shm.name
            self._workers.append(_ShardWorker(
                shard_id=shard_id, sites_name=self._shard_shms[-1].name,
                site_count=site_count, seg_bytes=seg_bytes,
                chunk_meta=chunk_meta, task_queue=self._ctx.Queue(),
                ring_name=ring_name, profile=profile))
        tracing.instant("shards_published", cat="shard",
                        shards=self.shard_count,
                        packed=self.packed,
                        genome_bytes=self._genome_bytes,
                        shard_bytes=sum(w.seg_bytes
                                        for w in self._workers),
                        ring_bytes=sum(int(shm.size)
                                       for shm in self._ring_shms),
                        sites=index.site_count)

    def _publish_byte_shard(self, base: str, shard_id: int, assigned,
                            site_count: int):
        """Original layout: loci (u32) then strand flags (u8)."""
        seg_bytes = site_count * 5
        shm = shared_memory.SharedMemory(
            name=f"{base}-s{shard_id}", create=True,
            size=max(1, seg_bytes))
        self._shard_shms.append(shm)
        loci_arr = np.ndarray((site_count,), dtype=np.uint32,
                              buffer=shm.buf)
        flags_arr = np.ndarray((site_count,), dtype=np.uint8,
                               buffer=shm.buf, offset=site_count * 4)
        lo = 0
        chunk_meta = []
        for gi, entry in assigned:
            hi = lo + entry.loci.size
            loci_arr[lo:hi] = entry.loci
            flags_arr[lo:hi] = entry.flags
            chunk_meta.append((gi, entry.chrom, int(entry.start),
                               int(entry.scan_length),
                               int(entry.length), lo, hi))
            lo = hi
        del loci_arr, flags_arr
        return seg_bytes, chunk_meta

    def _publish_packed_shard(self, index: GenomeSiteIndex, base: str,
                              shard_id: int, assigned):
        """Packed layout: per chunk, 2-bit bases + N mask, candidate
        bitmask over the scan region, and 2-bit strand flags."""
        regions = []
        total = 0
        for gi, entry in assigned:
            regions.append((gi, entry, total))
            total += _packed_region_size(int(entry.length),
                                         int(entry.scan_length),
                                         int(entry.loci.size))
        shm = shared_memory.SharedMemory(
            name=f"{base}-s{shard_id}", create=True,
            size=max(1, total))
        self._shard_shms.append(shm)
        seg = np.ndarray((total,), dtype=np.uint8, buffer=shm.buf)
        weights = np.array([1, 4, 16, 64], dtype=np.uint16)
        chunk_meta = []
        for gi, entry, off in regions:
            data = entry.data
            if data is None:
                data = index.assembly.fetch(
                    entry.chrom, entry.start,
                    entry.start + entry.length)
            encoded = twobit.encode(data)
            p = off
            seg[p:p + encoded.packed.size] = encoded.packed
            p += encoded.packed.size
            seg[p:p + encoded.n_mask.size] = encoded.n_mask
            p += encoded.n_mask.size
            cand_bits = np.zeros(int(entry.scan_length),
                                 dtype=np.uint8)
            cand_bits[entry.loci] = 1
            cand = np.packbits(cand_bits, bitorder="little")
            seg[p:p + cand.size] = cand
            p += cand.size
            n_sites = int(entry.loci.size)
            pad = (-n_sites) % 4
            flags = entry.flags if pad == 0 else np.concatenate(
                [entry.flags, np.zeros(pad, dtype=np.uint8)])
            quads = (flags.reshape(-1, 4).astype(np.uint16)
                     * weights).sum(axis=1).astype(np.uint8)
            seg[p:p + quads.size] = quads
            chunk_meta.append((gi, entry.chrom, int(entry.start),
                               int(entry.scan_length),
                               int(entry.length), n_sites, off))
        del seg
        return total, chunk_meta

    # -- worker lifecycle -----------------------------------------------

    def _spawn(self, worker: _ShardWorker) -> None:
        genome_name = (self._genome_shm.name
                       if self._genome_shm is not None else None)
        process = self._ctx.Process(
            target=_shard_worker_main,
            args=(worker.shard_id, genome_name,
                  self._genome_layout, worker.sites_name,
                  worker.site_count, worker.seg_bytes,
                  worker.chunk_meta, self._pipeline_params,
                  self.packed, self.index.compiled_pattern.plen,
                  worker.ring_name, self.ring_records,
                  worker.task_queue, self._results),
            name=f"shard-{worker.shard_id}", daemon=True)
        process.start()
        worker.process = process

    def start(self) -> None:
        """Spawn any worker not currently running (idempotent)."""
        with self._lock:
            if self._closed:
                raise ShardWorkerError("sharded index is closed")
            for worker in self._workers:
                if worker.process is None or \
                        not worker.process.is_alive():
                    self._spawn(worker)

    def _respawn(self, worker: _ShardWorker) -> None:
        """Replace a dead worker; its shard re-attaches from shm.

        The fresh incarnation gets a *new* task queue: the old one may
        hold tasks meant for the dead worker, and a worker SIGKILLed
        mid-``get()`` dies holding the queue's reader lock, which would
        deadlock any successor handed the same queue.  The epoch bump
        makes any result the old process managed to enqueue
        recognizably stale.
        """
        process = worker.process
        if process is not None and process.is_alive():
            process.terminate()
        if process is not None:
            process.join(timeout=5.0)
        old_queue = worker.task_queue
        worker.task_queue = self._ctx.Queue()
        old_queue.cancel_join_thread()
        old_queue.close()
        worker.epoch += 1
        worker.respawns += 1
        self._spawn(worker)
        tracing.instant("shard_worker_respawn", cat="shard",
                        shard=worker.shard_id, epoch=worker.epoch)

    def _worker(self, shard_id: int) -> _ShardWorker:
        for worker in self._workers:
            if worker.shard_id == shard_id:
                return worker
        raise KeyError(f"no shard {shard_id}")

    # -- health / fault hooks -------------------------------------------

    def shard_health(self) -> List[Dict[str, Any]]:
        """Non-blocking per-shard liveness snapshot (health op)."""
        with self._lock:
            return [{
                "shard": worker.shard_id,
                "alive": (worker.process is not None
                          and worker.process.is_alive()),
                "pid": (worker.process.pid
                        if worker.process is not None else None),
                "epoch": worker.epoch,
                "respawns": worker.respawns,
                "chunks": len(worker.chunk_meta),
                "sites": worker.site_count,
            } for worker in self._workers]

    def _recv(self, want_pong: bool, timeout_s: float
              ) -> Optional[Tuple]:
        """Pop the next message of the wanted kind from the results
        queue, stashing messages of the other kind.

        ``ping()`` and ``_gather()`` share the one results queue and —
        with the narrow lock discipline — can now run concurrently, so
        either may pull a message meant for the other off the queue.
        Mismatches are stashed rather than dropped (the old ``ping``
        silently discarded result messages, which would have lost
        batches).  Returns None when nothing of the wanted kind is
        available within ``timeout_s``.  The stash lock is not held
        across the blocking read, so neither caller can starve the
        other of the queue.
        """
        with self._results_lock:
            stash = (self._stash_pongs if want_pong
                     else self._stash_results)
            if stash:
                return stash.popleft()
        try:
            message = self._results.get(timeout=timeout_s)
        except queue.Empty:
            return None
        if (message[0] == "pong") == want_pong:
            return message
        with self._results_lock:
            other = (self._stash_results if want_pong
                     else self._stash_pongs)
            other.append(message)
        return None

    def ping(self, timeout_s: float = 5.0) -> Dict[int, bool]:
        """Round-trip a health ping through every live worker.

        Holds the state lock only while enqueueing the pings, so a
        batch in flight does not stall health checks.  A duplicate
        pong for the same token no longer double-counts toward the
        reply quorum (each shard flips its ``ok`` entry at most once).
        """
        with self._results_lock:
            # Pongs from timed-out earlier pings are dead on arrival.
            # Dropped before this round's pings go out, so a fast pong
            # stashed by a concurrent gather is never dropped with them.
            self._stash_pongs.clear()
        with self._lock:
            if self.degraded:
                return {}
            token = uuid.uuid4().hex
            ok = {worker.shard_id: False for worker in self._workers}
            want = 0
            for worker in self._workers:
                if worker.process is not None and \
                        worker.process.is_alive():
                    worker.task_queue.put(("ping", token))
                    want += 1
        got = 0
        deadline = time.monotonic() + timeout_s
        while got < want and time.monotonic() < deadline:
            message = self._recv(want_pong=True, timeout_s=0.05)
            if message is None:
                continue
            if message[2] == token and not ok.get(message[1], True):
                ok[message[1]] = True
                got += 1
        return ok

    def inject_worker_crash(self, shard_id: int) -> None:
        """Queue a fault-injection task: the worker dies uncleanly."""
        self._worker(shard_id).task_queue.put(("crash",))

    def inject_worker_delay(self, shard_id: int,
                            seconds: float) -> None:
        """Queue a fault-injection stall before the worker's next task.

        Lets tests observe a batch genuinely in flight (e.g. that
        ``shard_health``/``ping`` answer mid-batch) without racing the
        comparer.
        """
        self._worker(shard_id).task_queue.put(("delay", seconds))

    def kill_worker(self, shard_id: int) -> None:
        """SIGKILL a worker immediately (fault injection)."""
        worker = self._worker(shard_id)
        if worker.process is not None and worker.process.is_alive():
            os.kill(worker.process.pid, signal.SIGKILL)
            worker.process.join(timeout=5.0)

    # -- queries ---------------------------------------------------------

    def query_batch(self, queries: Sequence[Query]
                    ) -> List[List[OffTargetHit]]:
        """Scatter one batch to the feasible shards, gather, merge.

        Hits are rendered here, from the gathered triples and the
        parent's own resident chunk data, through the same
        :func:`build_entry_hits` the in-process index uses.
        """
        if not queries:
            return []
        queries = self._checked(queries)
        if self.degraded:
            return self.query_batch_direct(queries)
        compiled = [compile_pattern(q.sequence) for q in queries]
        hits: List[List[OffTargetHit]] = [[] for _ in queries]
        for entry, triples in self._scatter_gather(queries, compiled):
            for qi, query_hits in enumerate(build_entry_hits(
                    entry, queries, compiled, triples)):
                hits[qi].extend(query_hits)
        return hits

    def _checked(self, queries: Sequence[Query]) -> List[Query]:
        plen = self.compiled_pattern.plen
        for query in queries:
            if len(query.sequence) != plen:
                raise ValueError(
                    f"query {query.sequence!r} has length "
                    f"{len(query.sequence)}, index pattern "
                    f"{self.pattern!r} has length {plen}")
        return list(queries)

    def _scatter_gather(self, queries: List[Query], compiled
                        ) -> List[Tuple[ResidentChunk, Triples]]:
        """Comparer triples of every chunk with hits, in chunk order.

        The state lock is held only for the scatter and epoch
        bookkeeping; the gather runs outside it (under the batch
        lock), so ``shard_health``/``ping``/``comparer_stats`` answer
        while a batch is in flight.
        """
        specs = [(q.sequence, q.max_mismatches) for q in queries]
        with self._batch_lock:
            with self._lock:
                if self._closed:
                    raise ShardWorkerError("sharded index is closed")
                if self.packed:
                    packed_n = sum(1 for cq in compiled
                                   if window_packable(cq))
                    self._queries_packed += packed_n
                    self._queries_fallback += \
                        len(queries) - packed_n
                batch_id = self._next_batch
                self._next_batch += 1
                self._batches_sharded += 1
                self._queries_total += len(queries)
                trace = tracing.active() is not None
                targets = self._select_shards(queries, compiled)
                with tracing.span("scatter", cat="shard",
                                  batch=batch_id,
                                  shards=len(targets),
                                  skipped=(len(self._workers)
                                           - len(targets)),
                                  queries=len(queries)):
                    for worker in targets:
                        if worker.process is None or \
                                not worker.process.is_alive():
                            self._respawn(worker)
                        worker.task_queue.put(
                            ("query", worker.epoch, batch_id, specs,
                             trace))
            collected = self._gather(batch_id, queries, specs, trace,
                                     targets)
        merged = sorted((item for payload in collected.values()
                         for item in payload), key=lambda item: item[0])
        return [(self.index.resident_chunk(gi), triples)
                for gi, triples in merged]

    def query_batch_direct(self, queries: Sequence[Query]
                           ) -> List[List[OffTargetHit]]:
        """Serve one batch on the inner index, bypassing the hop.

        Used when the tier is degraded, and by the adaptive scheduler
        for batches too small to amortize the scatter/gather cost.
        """
        if self._closed:
            raise ShardWorkerError("sharded index is closed")
        with self._lock:
            self._batches_direct += 1
            self._queries_total += len(queries)
        return self.index.query_batch(queries)

    def query_batch_with_extras(
            self, queries: Sequence[Query], extras: Sequence[Any],
    ) -> Tuple[List[Tuple[ResidentChunk, Triples]], List[Triples], int]:
        """Reference via the sharded scatter, extras in-parent.

        The resident reference chunks ride one normal sharded batch
        (or the direct path when degraded) — still a single tier-level
        batch — while the request-scoped extras (variant patch chunks)
        are compared in this process: they exist for one request only,
        so publishing them to shard shared memory would cost more than
        the comparison itself.  Returns the same ``(reference,
        extra_triples, reference_chunks)`` shape as
        :meth:`GenomeSiteIndex.query_batch_with_extras`, except that
        chunks without any hit are left out of ``reference``.
        """
        if not queries:
            raise ValueError(
                "query_batch_with_extras needs at least one query")
        queries = self._checked(queries)
        extras = list(extras)
        if self.degraded:
            if self._closed:
                raise ShardWorkerError("sharded index is closed")
            with self._lock:
                self._batches_direct += 1
                self._queries_total += len(queries)
                self._entries_scanned += len(extras)
            return self.index.query_batch_with_extras(queries, extras)
        compiled = [compile_pattern(q.sequence) for q in queries]
        reference = self._scatter_gather(queries, compiled)
        extra_triples = [self.index.pipeline.compare_resident_triples(
            entry, queries, compiled, batched=True) for entry in extras]
        n_ref = sum(1 for entry in self.index.entries if entry.loci.size)
        with self._lock:
            self._entries_scanned += len(extras)
        return reference, extra_triples, n_ref

    def _select_shards(self, queries: Sequence[Query],
                       compiled) -> List[_ShardWorker]:
        """The shards whose candidate summary says a hit is possible.

        For each shard, :func:`profile_feasible` lower-bounds the
        mismatch count any site in the shard could achieve against
        each query; a shard where every query's bound exceeds its
        budget cannot contribute a hit and is not scattered to.
        Callers hold ``_lock``.
        """
        allowed = [query_allowed_masks(cq) for cq in compiled]
        targets: List[_ShardWorker] = []
        skipped = 0
        for worker in self._workers:
            if worker.site_count == 0:
                skipped += 1
                continue
            if worker.profile is not None and not any(
                    profile_feasible(worker.profile, masks,
                                     q.max_mismatches)
                    for q, masks in zip(queries, allowed)):
                skipped += 1
                continue
            targets.append(worker)
        if skipped:
            self._shards_skipped += skipped
            tracing.instant("shards_skipped", cat="shard",
                            skipped=skipped)
        return targets

    def _triples_from_ring(self, worker: _ShardWorker, count: int,
                           n_queries: int
                           ) -> List[Tuple[int, Triples]]:
        """Per-chunk comparer triples from a shard's ring records.

        Records were written in (chunk, query, hit) order, so each
        chunk's records are one consecutive run and, within it, each
        query's records keep the comparer's emission order.  Only
        chunks with hits appear.
        """
        records = np.array(self._ring_views[worker.shard_id][:count],
                           copy=True)
        chunk = records["chunk"]
        payload: List[Tuple[int, Triples]] = []
        if count == 0:
            return payload
        starts = np.flatnonzero(np.r_[True, chunk[1:] != chunk[:-1]])
        for lo, hi in zip(starts.tolist(),
                          starts[1:].tolist() + [count]):
            run = records[lo:hi]
            per_query = []
            for qi in range(n_queries):
                mine = run[run["qi"] == qi]
                per_query.append((mine["locus"], mine["mm"],
                                  mine["strand"]))
            payload.append((int(chunk[lo]), per_query))
        return payload

    def _gather(self, batch_id: int, queries: List[Query], specs,
                trace: bool,
                targets: List[_ShardWorker]) -> Dict[int, List]:
        """Collect one result per scattered shard, respawning crashed
        workers (with a fresh deadline for each respawn resend)."""
        pending = {worker.shard_id for worker in targets}
        collected: Dict[int, List] = {}
        respawns = 0
        deadline = time.monotonic() + self.task_timeout_s
        with tracing.span("gather", cat="shard", batch=batch_id,
                          shards=len(pending)) as gather_span:
            while pending:
                message = self._recv(want_pong=False, timeout_s=0.05)
                if message is None:
                    with self._lock:
                        for worker in targets:
                            if worker.shard_id in pending and (
                                    worker.process is None or
                                    not worker.process.is_alive()):
                                respawns += 1
                                if respawns > \
                                        self.max_respawns_per_batch:
                                    raise ShardWorkerError(
                                        f"shard {worker.shard_id} "
                                        f"died {respawns} times "
                                        f"during batch {batch_id}; "
                                        f"giving up")
                                self._respawn(worker)
                                worker.task_queue.put(
                                    ("query", worker.epoch, batch_id,
                                     specs, trace))
                                # The fresh worker re-runs the whole
                                # shard; give it a full timeout
                                # instead of the dead one's leftovers.
                                deadline = (time.monotonic()
                                            + self.task_timeout_s)
                    if time.monotonic() > deadline:
                        raise ShardWorkerError(
                            f"batch {batch_id} timed out after "
                            f"{self.task_timeout_s} s waiting on "
                            f"shard(s) {sorted(pending)}")
                    continue
                kind = message[0]
                _, shard_id, epoch, bid, body, spans = message
                worker = self._worker(shard_id)
                if bid != batch_id or epoch != worker.epoch or \
                        shard_id not in pending:
                    continue  # stale result from a dead incarnation
                tracing.merge(spans)
                if kind == "error":
                    raise ShardWorkerError(
                        f"shard {shard_id} failed batch {batch_id}: "
                        f"{body}")
                if kind == "ring":
                    count = int(body)
                    with self._lock:
                        self._ring_batches += 1
                        self._ring_high_water = max(
                            self._ring_high_water, count)
                    tracing.counter(
                        "ring_occupancy", cat="shard",
                        **{f"shard{shard_id}": count})
                    collected[shard_id] = self._triples_from_ring(
                        worker, count, len(queries))
                else:
                    with self._lock:
                        self._pickle_batches += 1
                    collected[shard_id] = body
                pending.discard(shard_id)
            gather_span.args["respawns"] = respawns
        return collected

    # -- degrade / calibration -------------------------------------------

    def _degrade(self, reason: str) -> None:
        """Route every future batch to the in-process inner index.

        Workers are stopped and the segments released — a degraded
        tier holds no shared memory — but the facade stays open:
        ``query_batch`` keeps serving through
        :meth:`query_batch_direct`.
        """
        with self._batch_lock:
            with self._lock:
                if self.degraded or self._closed:
                    return
                self.degraded = True
                self.degrade_reason = reason
                self._stop_workers()
                self._release_segments()
        tracing.instant("shard_tier_degraded", cat="shard",
                        reason=reason)

    def calibrate(self, queries: Sequence[Query],
                  repeats: int = 2) -> Dict[str, Any]:
        """Measure the hop against the in-process comparer; degrade
        if it cannot win.

        Runs ``queries`` through both paths (one warm-up, then the
        best of ``repeats``) and degrades the tier when the sharded
        path is measurably slower — the scatter/gather overhead story
        the benchmarks record, turned into a runtime decision.
        Returns the measured timings either way.
        """
        queries = list(queries)
        if self.degraded or not queries:
            return {"degraded": self.degraded,
                    "reason": self.degrade_reason,
                    "sharded_s": None, "direct_s": None}
        self.query_batch(queries)
        self.index.query_batch(queries)
        sharded_s = min(self._time_call(self.query_batch, queries)
                        for _ in range(max(1, repeats)))
        direct_s = min(self._time_call(self.index.query_batch,
                                       queries)
                       for _ in range(max(1, repeats)))
        if sharded_s > direct_s:
            self._degrade(
                f"measured shard speedup "
                f"{direct_s / sharded_s:.2f}x over {len(queries)} "
                f"calibration queries; serving in-process")
        return {"degraded": self.degraded,
                "reason": self.degrade_reason,
                "sharded_s": sharded_s, "direct_s": direct_s}

    @staticmethod
    def _time_call(fn, queries) -> float:
        started = time.perf_counter()
        fn(queries)
        return time.perf_counter() - started

    # -- shutdown --------------------------------------------------------

    def _release_segments(self) -> None:
        self._ring_views.clear()  # live views pin the ring buffers
        segments = list(self._shard_shms) + list(self._ring_shms)
        if self._genome_shm is not None:
            segments.append(self._genome_shm)
        self._shard_shms = []
        self._ring_shms = []
        self._genome_shm = None
        for shm in segments:
            try:
                shm.close()
            except BufferError:
                pass
            try:
                shm.unlink()
            except FileNotFoundError:
                pass

    def _stop_workers(self) -> None:
        """Drain and join every worker process (callers hold _lock)."""
        for worker in self._workers:
            if worker.process is not None and \
                    worker.process.is_alive():
                worker.task_queue.put(("stop",))
        for worker in self._workers:
            if worker.process is not None:
                worker.process.join(timeout=5.0)
                if worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(timeout=5.0)
        self._workers = []

    def close(self) -> None:
        """Graceful drain: stop workers, then unlink every segment.

        Waits for any batch in flight (the batch lock), so a close
        never yanks the rings out from under a gather.  Idempotent,
        and registered with :mod:`atexit` so a test or script that
        forgets to close still leaves ``/dev/shm`` clean.
        """
        with self._batch_lock:
            with self._lock:
                if self._closed:
                    return
                self._closed = True
                self._stop_workers()
                self._release_segments()

    def __enter__(self) -> "ShardedSiteIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Leaked-segment sweeping
# ---------------------------------------------------------------------------

def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def cleanup_leaked_segments(force: bool = False) -> List[str]:
    """Unlink ``repro-shm-*`` segments whose owning process is gone.

    Segment names embed the creating pid; a segment whose pid no
    longer exists was leaked by a crashed or killed run.  ``force``
    removes every matching segment regardless of owner liveness (for
    CI teardown, where nothing else can legitimately be running).
    Returns the names removed.
    """
    removed: List[str] = []
    if not os.path.isdir(_DEV_SHM):
        return removed
    for name in os.listdir(_DEV_SHM):
        if not name.startswith(SHM_PREFIX):
            continue
        rest = name[len(SHM_PREFIX):]
        pid_text = rest.split("-", 1)[0]
        stale = force or not pid_text.isdigit() or \
            not _pid_alive(int(pid_text))
        if not stale:
            continue
        try:
            os.unlink(os.path.join(_DEV_SHM, name))
        except OSError:
            continue
        removed.append(name)
    return removed


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.shards",
        description="Maintenance entry point for the sharded serving "
                    "tier's shared-memory segments.")
    parser.add_argument("--cleanup", action="store_true",
                        help="unlink repro-shm-* segments whose owning "
                             "process is dead")
    parser.add_argument("--force", action="store_true",
                        help="with --cleanup: remove every repro-shm-* "
                             "segment, even ones with a live owner")
    parser.add_argument("--guard", action="store_true",
                        help="exit 1 if any repro-shm-* segment exists "
                             "(CI leak guard; run after the smokes, "
                             "when nothing should be serving)")
    args = parser.parse_args(argv)
    if args.guard:
        present = sorted(
            name for name in os.listdir(_DEV_SHM)
            if name.startswith(SHM_PREFIX)
        ) if os.path.isdir(_DEV_SHM) else []
        if present:
            for name in present:
                print(f"leaked: {name}")
            print(f"shm guard: {len(present)} leaked segment(s)")
            return 1
        print("shm guard: clean")
        return 0
    if not args.cleanup:
        parser.error("nothing to do; pass --cleanup or --guard")
    removed = cleanup_leaked_segments(force=args.force)
    for name in removed:
        print(f"removed {name}")
    print(f"cleanup: {len(removed)} leaked segment(s) removed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
