"""Host pipelines: the Cas-OFFinder application in both programming models.

Section II.A of the paper describes the host program: read genome
sequences, divide them into device-sized chunks, run the ``finder``
kernel to select PAM-bearing candidate sites, run the ``comparer`` kernel
to count mismatches per query, and collect results until all chunks are
processed.  :class:`OpenCLCasOffinder` implements that loop against the
OpenCL-style API (explicit 13-step management, runtime-chosen work-group
size); :class:`SyclCasOffinder` implements the migrated version against
the SYCL-style API (buffers/accessors, work-group size pinned to 256,
selectable comparer variant base/opt1–opt4).  Both produce identical hit
sets — the invariant the whole migration case study rests on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..genome.assembly import Assembly, Chunk
from ..kernels import opencl_kernels, sycl_kernels, vectorized
from ..observability import tracing
from ..kernels.variants import VARIANT_ORDER, get_variant
from ..runtime import executor
from ..runtime import opencl as ocl
from ..runtime.launch import LaunchRecord
from ..runtime.sycl import (Buffer, LocalAccessor, NdRange, Queue, Range,
                            TARGET_CONSTANT, free, malloc_device,
                            sycl_read, sycl_read_write, sycl_write)
from .config import ExecutionPolicy, Query, SearchRequest
from .patterns import MISMATCH_LUT, CompiledPattern, compile_pattern
from .records import OffTargetHit, render_sites, site_strings, sort_hits
from .workload import QueryWorkload, StageTimings, WorkloadProfile

#: Default device chunk size in bases (the real application sizes chunks
#: to device memory; 4 MiB keeps Python-side latencies reasonable while
#: exercising the chunk loop).
DEFAULT_CHUNK_SIZE = 4 << 20

#: Cap on the per-chunk sample used to measure compare-loop trip counts.
_TRIP_SAMPLE = 4096


@dataclass
class PipelineResult:
    """Everything a pipeline run produced."""

    hits: List[OffTargetHit]
    launches: List[LaunchRecord]
    workload: WorkloadProfile
    wall_time_s: float
    api: str
    variant: str
    work_group_size: Optional[int]

    def sorted_hits(self) -> List[OffTargetHit]:
        return sort_hits(self.hits)


def _measure_trips(chunk_data: np.ndarray, loci: np.ndarray,
                   comp: np.ndarray, comp_index: np.ndarray, plen: int,
                   threshold: int, offset: int) -> Tuple[float, int]:
    """Exact mean compare-loop trip count over a sample of candidates.

    Models Listing 1's early exit: the loop stops after the
    ``threshold + 1``-th mismatch.  Returns ``(mean trips, sample size)``.
    """
    if loci.size == 0:
        return 0.0, 0
    sample = loci[:_TRIP_SAMPLE].astype(np.int64)
    ks = comp_index[offset:offset + plen]
    ks = ks[ks >= 0].astype(np.int64)
    if ks.size == 0:
        return 0.0, int(sample.size)
    pats = comp[ks + offset]
    sites = chunk_data[sample[:, None] + ks[None, :]]
    mism = MISMATCH_LUT[pats[None, :], sites]
    cum = np.cumsum(mism, axis=1)
    exceeded = cum > threshold
    first = np.argmax(exceeded, axis=1)
    has = exceeded.any(axis=1)
    trips = np.where(has, first + 1, ks.size)
    return float(trips.mean()), int(sample.size)


class _TripAverager:
    """Candidate-weighted running mean of compare-loop trip counts."""

    def __init__(self):
        self.total = 0.0
        self.weight = 0

    def add(self, mean: float, count: int) -> None:
        self.total += mean * count
        self.weight += count

    @property
    def mean(self) -> float:
        return self.total / self.weight if self.weight else 0.0


def _round_up(value: int, multiple: int) -> int:
    return (value + multiple - 1) // multiple * multiple


@dataclass
class _ChunkOutput:
    """Raw device outputs for one chunk."""

    candidate_count: int
    per_query: List[Tuple[np.ndarray, np.ndarray, np.ndarray]]
    #: (mm_loci, mm_count, direction) per query, trimmed to entry count.
    loci: np.ndarray = field(default_factory=lambda: np.zeros(0, np.uint32))
    flags: np.ndarray = field(default_factory=lambda: np.zeros(0, np.uint8))


def _demux_batched(mm_loci: np.ndarray, mm_count: np.ndarray,
                   mm_query: np.ndarray, direction: np.ndarray,
                   nqueries: int
                   ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Split batched comparer outputs back into per-query triples.

    Boolean-mask selection preserves emission order, so each query's
    triple is element-identical to what its own kernel launch would have
    produced.
    """
    per_query = []
    for q in range(nqueries):
        m = mm_query == q
        per_query.append((mm_loci[m].copy(), mm_count[m].copy(),
                          direction[m].copy()))
    return per_query


def _kernel_stage_times(launches: Sequence[LaunchRecord]
                        ) -> Tuple[float, float]:
    """Sum (finder, comparer) kernel wall seconds over launch records."""
    finder_s = 0.0
    comparer_s = 0.0
    for record in launches:
        if not record.is_kernel:
            continue
        if record.name.startswith("finder"):
            finder_s += record.wall_time_s
        elif record.name.startswith("comparer"):
            comparer_s += record.wall_time_s
    return finder_s, comparer_s


class SearchAccumulator:
    """Order-preserving fold of per-chunk device outputs into a result.

    Both the serial chunk loop and the streaming engine feed chunks
    through the same accumulator (the engine in chunk-index order), so
    hit lists, workload counters and even float-summation order are
    identical between the two execution paths — the invariant the engine
    equivalence tests pin down.
    """

    def __init__(self, request: SearchRequest, pattern: CompiledPattern,
                 compiled_queries: Sequence[CompiledPattern]):
        self.request = request
        self.pattern = pattern
        self.compiled_queries = list(compiled_queries)
        self.hits: List[OffTargetHit] = []
        self.positions_scanned = 0
        self.candidates_total = 0
        self.candidates_forward = 0
        self.candidates_reverse = 0
        self.chunk_count = 0
        self.bytes_h2d = 0
        self.bytes_d2h = 0
        self.hit_counts = [0] * len(request.queries)
        self.trip_fwd = [_TripAverager() for _ in request.queries]
        self.trip_rev = [_TripAverager() for _ in request.queries]
        self.merge_time_s = 0.0

    def add_chunk(self, chunk: Chunk, output: _ChunkOutput) -> None:
        started = time.perf_counter()
        pattern = self.pattern
        plen = pattern.plen
        self.chunk_count += 1
        self.positions_scanned += chunk.scan_length
        self.bytes_h2d += chunk.data.nbytes + pattern.comp.nbytes * 2
        self.candidates_total += output.candidate_count
        if output.flags.size:
            self.candidates_forward += int(
                ((output.flags == 0) | (output.flags == 1)).sum())
            self.candidates_reverse += int(
                ((output.flags == 0) | (output.flags == 2)).sum())
        for qi, (query, cq) in enumerate(
                zip(self.request.queries, self.compiled_queries)):
            mm_loci, mm_count, direction = output.per_query[qi]
            self.bytes_d2h += mm_loci.nbytes + mm_count.nbytes \
                + direction.nbytes
            self.hit_counts[qi] += mm_loci.size
            self.hits.extend(self._build_hits(
                chunk, cq, query, mm_loci, mm_count, direction))
            if output.loci.size:
                mean_f, n_f = _measure_trips(
                    chunk.data, output.loci, cq.comp, cq.comp_index,
                    plen, query.max_mismatches, 0)
                mean_r, n_r = _measure_trips(
                    chunk.data, output.loci, cq.comp, cq.comp_index,
                    plen, query.max_mismatches, plen)
                self.trip_fwd[qi].add(mean_f, n_f)
                self.trip_rev[qi].add(mean_r, n_r)
        self.merge_time_s += time.perf_counter() - started

    def build_workload(self, dataset: str, chunk_size: int,
                       stages: Optional[StageTimings] = None
                       ) -> WorkloadProfile:
        plen = self.pattern.plen
        return WorkloadProfile(
            dataset=dataset,
            pattern=self.request.pattern,
            pattern_length=plen,
            positions_scanned=self.positions_scanned,
            candidates=self.candidates_total,
            candidates_forward=self.candidates_forward,
            candidates_reverse=self.candidates_reverse,
            chunk_count=self.chunk_count,
            chunk_capacity=max(1, chunk_size - (plen - 1)),
            bytes_h2d=self.bytes_h2d,
            bytes_d2h=self.bytes_d2h,
            queries=[
                QueryWorkload(
                    query=q.sequence,
                    threshold=q.max_mismatches,
                    checked_forward=int(
                        cq.checked_positions_forward.size),
                    checked_reverse=int(
                        cq.checked_positions_reverse.size),
                    candidates=self.candidates_total,
                    hits=self.hit_counts[qi],
                    avg_trips_forward=self.trip_fwd[qi].mean,
                    avg_trips_reverse=self.trip_rev[qi].mean)
                for qi, (q, cq) in enumerate(
                    zip(self.request.queries, self.compiled_queries))
            ],
            stages=stages)

    @staticmethod
    def _build_hits(chunk: Chunk, cq: CompiledPattern, query: Query,
                    mm_loci: np.ndarray, mm_count: np.ndarray,
                    direction: np.ndarray) -> List[OffTargetHit]:
        if mm_loci.size == 0:
            return []
        minus = direction != ord("+")
        sites = site_strings(render_sites(chunk.data, mm_loci, minus,
                                          cq.sequence, cq.rc_sequence))
        positions = (int(chunk.start) + mm_loci.astype(np.int64)).tolist()
        strands = np.where(minus, "-", "+").tolist()
        return [OffTargetHit(query=query.sequence, chrom=chunk.chrom,
                             position=position, strand=strand,
                             mismatches=mismatches, site=site)
                for position, strand, mismatches, site
                in zip(positions, strands, mm_count.tolist(), sites)]


@dataclass
class PackedSites:
    """Resident 2-bit row table over a run of entries.

    One row per (candidate site, strand) the comparer kernel tests, in
    the served hit order (:mod:`repro.core.records`): entry by entry
    and, within an entry, its forward rows (flags 0 and 1) then its
    reverse rows (flags 0 and 2), each in the entry's loci order.
    ``chunk_rows[c]`` is entry ``c``'s first row.

    Both planes have one row per 32-position window word and one column
    per table row.  ``words[w, r]`` packs positions ``32w`` to
    ``32w + 31`` of row ``r``'s window at two bits each (A=0, C=1, G=2,
    T=3, codes ascending from bit 0); ``invalid[w, r]`` sets bit ``2p``
    for every such position ``32w + p`` whose byte was not concrete
    A/C/G/T.  A reverse row holds the reverse complement of its window
    (position ``p`` packs code ``3 - c`` of window byte ``plen - 1 - p``),
    so every row compares against the forward query alone.  The table
    is query-independent: :class:`repro.service.index.GenomeSiteIndex`
    builds it once and every batch reuses it
    (:func:`repro.core.bitparallel.compare_packed_batched`).
    """

    words: np.ndarray       # uint64 (words, rows) packed windows
    invalid: np.ndarray     # uint64 (words, rows) non-ACGT odd bits
    loci: np.ndarray        # uint32 (rows,) window start in its entry
    direction: np.ndarray   # uint8 (rows,) ord("+") or ord("-")
    chunk_rows: np.ndarray  # int64 (entries + 1,) row offsets


@dataclass
class ResidentChunk:
    """One resident entry's candidate data: a whole chromosome in the
    serving index, a chunk in the bit-parallel engine, a patched span
    in a variant search.

    ``loci`` (ascending) and ``flags`` are the finder's output; ``data``
    is there for the row table's packing and for hit construction,
    which renders site text from the raw bytes.
    """

    chrom: str
    start: int
    scan_length: int
    data: np.ndarray   # uint8 entry bases (scan region + overlap)
    loci: np.ndarray   # uint32 candidate offsets within the entry
    flags: np.ndarray  # uint8 strand flags, as the finder emitted them


#: One entry's comparer output: an ``(mm_loci, mm_count, direction)``
#: array triple per query, in query order, loci relative to the entry.
Triples = List[Tuple[np.ndarray, np.ndarray, np.ndarray]]


_EMPTY_TRIPLE = (np.zeros(0, np.uint32), np.zeros(0, np.uint16),
                 np.zeros(0, np.uint8))


def empty_triples(n_queries: int) -> Triples:
    """Comparer output of a chunk without hits (one shared empty
    triple per query)."""
    return [_EMPTY_TRIPLE] * n_queries


def build_entry_hits(entry: ResidentChunk, queries: Sequence[Query],
                     compiled_queries: Sequence[CompiledPattern],
                     per_query: Triples) -> List[List[OffTargetHit]]:
    """Render final hits for one resident entry from comparer triples.

    This is the hit-construction step of resident serving:
    :meth:`repro.service.index.GenomeSiteIndex.query_batch` calls it,
    for each entry holding hits, on that entry's triples from
    :meth:`_BasePipeline.compare_resident_triples`.  Site text comes
    from one :func:`~repro.core.records.render_sites` call per query.
    """
    chunk = Chunk(chrom=entry.chrom, start=entry.start,
                  data=entry.data, scan_length=entry.scan_length)
    return [SearchAccumulator._build_hits(chunk, cq, query,
                                          *per_query[qi])
            for qi, (query, cq)
            in enumerate(zip(queries, compiled_queries))]


class _BasePipeline:
    """Shared chunk loop, workload accounting and hit construction.

    A plain instance owns no queue or device and records no launch:
    :class:`repro.service.index.GenomeSiteIndex` serves from one, with
    the numpy finder and the resident comparer.  The paper pipelines
    below run their simulated kernels in ``_process_chunk``.
    """

    api = "abstract"

    def __init__(self, chunk_size: int = DEFAULT_CHUNK_SIZE,
                 mode: str = "vectorized"):
        if mode not in ("vectorized", "interpreted"):
            raise ValueError(f"unknown execution mode {mode!r}")
        self.chunk_size = chunk_size
        self.mode = mode
        self.launches: List[LaunchRecord] = []

    # -- subclass interface ------------------------------------------------

    def _process_chunk(self, chunk: Chunk, pattern: CompiledPattern,
                       queries: Sequence[Query],
                       compiled_queries: Sequence[CompiledPattern],
                       batched: bool = False) -> _ChunkOutput:
        raise NotImplementedError

    def find_candidates(self, chunk: Chunk, pattern: CompiledPattern
                        ) -> Tuple[int, np.ndarray, np.ndarray]:
        """The finder's candidate sites for one chunk, in plain numpy.

        Returns ``(count, loci, flags)``: uint32 loci within the chunk
        and uint8 strand flags, element-identical to what every
        pipeline's finder kernel emits for the chunk.  The scan walks
        the chunk in blocks of
        :data:`repro.runtime.executor.VECTORIZED_BLOCK_ITEMS` positions
        through :func:`repro.kernels.vectorized.find_sites` and records
        no launch.  The output depends only on the chunk and the PAM
        pattern, never on a guide query, which is what lets
        :class:`repro.service.index.GenomeSiteIndex` run this once per
        chunk and amortize the scan across every query that follows.
        """
        block = executor.VECTORIZED_BLOCK_ITEMS
        loci = [np.zeros(0, np.uint32)]
        flags = [np.zeros(0, np.uint8)]
        for start in range(0, chunk.scan_length, block):
            sites, site_flags = vectorized.find_sites(
                chunk.data, pattern.comp, pattern.comp_index,
                pattern.plen, start,
                min(start + block, chunk.scan_length))
            loci.append(sites.astype(np.uint32))
            flags.append(site_flags)
        loci, flags = np.concatenate(loci), np.concatenate(flags)
        return loci.size, loci, flags

    def compare_resident_triples(
            self, table: PackedSites, queries: Sequence[Query],
            compiled_queries: Sequence[CompiledPattern],
            seeds: Optional[Sequence] = None,
            tally: Optional[Dict[str, int]] = None
    ) -> Dict[int, Triples]:
        """Raw comparer triples over a resident row table.

        Runs the bit-parallel comparer over ``table`` for every query,
        concrete or IUPAC, and stops before hit construction: over the
        rows the table's ``seeds`` reach for a query they can filter,
        over every row otherwise
        (:func:`repro.core.bitparallel.compare_packed_batched`, which
        also fills ``tally``).  Returns, for each entry of the table
        where some query hits (keyed by the entry's position in the
        table, in ascending order), one ``(mm_loci, mm_count,
        direction)`` triple per query, holding that entry's hits in the
        served hit order (:mod:`repro.core.records`).  The variant
        layer diffs these arrays without building hits;
        :meth:`repro.service.index.GenomeSiteIndex.query_batch` renders
        :class:`OffTargetHit` objects from them with
        :func:`build_entry_hits`.
        """
        # Deferred: bitparallel imports this module at its top level.
        from .bitparallel import compare_packed_batched
        return compare_packed_batched(table, queries, compiled_queries,
                                      seeds, tally)

    @property
    def work_group_size(self) -> Optional[int]:
        raise NotImplementedError

    @property
    def variant(self) -> str:
        return "base"

    # -- main entry ----------------------------------------------------------

    def search(self, assembly: Assembly, request: SearchRequest,
               batched: bool = False, checkpoint=None,
               checkpoint_meta: Optional[Dict] = None) -> PipelineResult:
        """Run the full chunked search over an assembly.

        ``batched=True`` fuses the per-query comparer launches into one
        batched launch per chunk (results identical; see
        :func:`_demux_batched`).  ``checkpoint`` is an optional
        :class:`~repro.resilience.checkpoint.CheckpointSession`: chunks
        it can restore skip the kernels, freshly computed chunks are
        journaled after merging (``checkpoint_meta`` rides along on each
        record, e.g. the device name).
        """
        start_time = time.perf_counter()
        pattern = compile_pattern(request.pattern)
        compiled_queries = [compile_pattern(q.sequence)
                            for q in request.queries]
        acc = SearchAccumulator(request, pattern, compiled_queries)
        launch_base = len(self.launches)
        use_batched = batched and len(request.queries) > 1
        for index, chunk in enumerate(
                assembly.chunks(self.chunk_size, pattern.plen)):
            restored = (checkpoint.restore(chunk)
                        if checkpoint is not None else None)
            if restored is not None:
                tracing.instant("checkpoint_skip", cat="checkpoint",
                                chunk=index)
                output = restored
            else:
                with tracing.span("chunk", cat="chunk", chunk=index):
                    output = self._process_chunk(chunk, pattern,
                                                 request.queries,
                                                 compiled_queries,
                                                 batched=use_batched)
            with tracing.span("merge", cat="merge", chunk=index):
                acc.add_chunk(chunk, output)
            if checkpoint is not None and restored is None:
                with tracing.span("checkpoint_write", cat="checkpoint",
                                  chunk=index):
                    checkpoint.record(chunk, output,
                                      **(checkpoint_meta or {}))
        wall = time.perf_counter() - start_time
        finder_s, comparer_s = _kernel_stage_times(
            self.launches[launch_base:])
        stages = StageTimings(stage_in_s=0.0, finder_s=finder_s,
                              comparer_s=comparer_s,
                              merge_s=acc.merge_time_s, idle_s=0.0,
                              wall_s=wall)
        workload = acc.build_workload(assembly.name, self.chunk_size,
                                      stages)
        return PipelineResult(hits=acc.hits, launches=list(self.launches),
                              workload=workload, wall_time_s=wall,
                              api=self.api, variant=self.variant,
                              work_group_size=self.work_group_size)


# ---------------------------------------------------------------------------
# SYCL pipeline
# ---------------------------------------------------------------------------


class SyclCasOffinder(_BasePipeline):
    """The migrated application: SYCL-style host code (Section III).

    Work-group size is pinned to 256 for both kernels, as in the paper;
    the comparer variant selects the Section IV.B optimization level.
    """

    api = "sycl"

    def __init__(self, device: Union[str, Queue] = "MI100",
                 variant: str = "base",
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 mode: str = "vectorized",
                 work_group_size: int = 256):
        super().__init__(chunk_size, mode)
        self.queue = device if isinstance(device, Queue) else Queue(device)
        self.launches = self.queue.launches
        self._variant = get_variant(variant)
        self._wg = work_group_size

    @property
    def work_group_size(self) -> int:
        return self._wg

    @property
    def variant(self) -> str:
        return self._variant.name

    def _process_chunk(self, chunk, pattern, queries, compiled_queries,
                       batched=False):
        plen = pattern.plen
        wg = self._wg
        scan_len = chunk.scan_length
        capacity = max(1, scan_len)
        vector_mode = self.mode == "vectorized"
        with Buffer(chunk.data, name="chr", write_back=False) as chr_buf, \
                Buffer(pattern.comp, name="pat",
                       write_back=False) as pat_buf, \
                Buffer(pattern.comp_index, name="pat_index",
                       write_back=False) as pat_index_buf, \
                Buffer(count=capacity, dtype=np.uint32,
                       name="loci") as loci_buf, \
                Buffer(count=capacity, dtype=np.uint8,
                       name="flag") as flag_buf, \
                Buffer(count=1, dtype=np.uint32,
                       name="entrycount") as entry_buf:

            def finder_cg(h):
                a_chr = chr_buf.get_access(h, sycl_read)
                a_pat = pat_buf.get_access(h, sycl_read, TARGET_CONSTANT)
                a_idx = pat_index_buf.get_access(h, sycl_read,
                                                 TARGET_CONSTANT)
                a_loci = loci_buf.get_access(h, sycl_write)
                a_flag = flag_buf.get_access(h, sycl_write)
                a_entry = entry_buf.get_access(h, sycl_read_write)
                l_pat = LocalAccessor(np.uint8, plen * 2, h, name="l_pat")
                l_idx = LocalAccessor(np.int32, plen * 2, h,
                                      name="l_pat_index")
                kern = (vectorized.finder_vectorized if vector_mode
                        else sycl_kernels.finder)
                h.parallel_for(
                    NdRange(Range(_round_up(scan_len, wg)), Range(wg)),
                    kern,
                    args=(a_chr, a_pat, a_idx, plen, scan_len, a_loci,
                          a_flag, a_entry, l_pat, l_idx),
                    vectorized=vector_mode, kernel_name="finder")

            self.queue.submit(finder_cg).wait()
            count = int(entry_buf.get_host_access(sycl_read)[0])
            loci_host = loci_buf.get_host_access(sycl_read).data[
                :count].copy()
            flag_host = flag_buf.get_host_access(sycl_read).data[
                :count].copy()
            if batched:
                per_query = self._run_comparer_batched(
                    chr_buf, loci_buf, flag_buf, count, queries,
                    compiled_queries, vector_mode)
            else:
                per_query = []
                for query, cq in zip(queries, compiled_queries):
                    per_query.append(self._run_comparer(
                        chr_buf, loci_buf, flag_buf, count, cq,
                        query.max_mismatches, vector_mode))
            return _ChunkOutput(candidate_count=count,
                                per_query=per_query, loci=loci_host,
                                flags=flag_host)

    def _run_comparer(self, chr_buf, loci_buf, flag_buf, count, cq,
                      threshold, vector_mode):
        plen = cq.plen
        wg = self._wg
        if count == 0:
            empty = (np.zeros(0, np.uint32), np.zeros(0, np.uint16),
                     np.zeros(0, np.uint8))
            return empty
        out_capacity = 2 * count
        with Buffer(cq.comp, name="comp", write_back=False) as comp_buf, \
                Buffer(cq.comp_index, name="comp_index",
                       write_back=False) as comp_index_buf, \
                Buffer(count=out_capacity, dtype=np.uint32,
                       name="mm_loci") as mm_loci_buf, \
                Buffer(count=out_capacity, dtype=np.uint16,
                       name="mm_count") as mm_count_buf, \
                Buffer(count=out_capacity, dtype=np.uint8,
                       name="direction") as dir_buf, \
                Buffer(count=1, dtype=np.uint32,
                       name="entrycount2") as entry_buf:

            def comparer_cg(h):
                a_chr = chr_buf.get_access(h, sycl_read)
                a_loci = loci_buf.get_access(h, sycl_read)
                a_flag = flag_buf.get_access(h, sycl_read)
                a_comp = comp_buf.get_access(h, sycl_read, TARGET_CONSTANT)
                a_cidx = comp_index_buf.get_access(h, sycl_read,
                                                   TARGET_CONSTANT)
                a_mm_loci = mm_loci_buf.get_access(h, sycl_write)
                a_mm_count = mm_count_buf.get_access(h, sycl_write)
                a_dir = dir_buf.get_access(h, sycl_write)
                a_entry = entry_buf.get_access(h, sycl_read_write)
                l_comp = LocalAccessor(np.uint8, plen * 2, h,
                                       name="l_comp")
                l_cidx = LocalAccessor(np.int32, plen * 2, h,
                                       name="l_comp_index")
                kern = (vectorized.comparer_vectorized if vector_mode
                        else self._variant.kernel)
                h.parallel_for(
                    NdRange(Range(_round_up(count, wg)), Range(wg)),
                    kern,
                    args=(count, a_chr, a_loci, a_mm_loci, a_comp, a_cidx,
                          plen, threshold, a_flag, a_mm_count, a_dir,
                          a_entry, l_comp, l_cidx),
                    vectorized=vector_mode, kernel_name="comparer",
                    variant=self._variant.name)

            self.queue.submit(comparer_cg).wait()
            n_out = int(entry_buf.get_host_access(sycl_read)[0])
            mm_loci = mm_loci_buf.get_host_access(sycl_read).data[
                :n_out].copy()
            mm_count = mm_count_buf.get_host_access(sycl_read).data[
                :n_out].copy()
            direction = dir_buf.get_host_access(sycl_read).data[
                :n_out].copy()
            return mm_loci, mm_count, direction

    def _run_comparer_batched(self, chr_buf, loci_buf, flag_buf, count,
                              queries, compiled_queries, vector_mode):
        nq = len(queries)
        plen = compiled_queries[0].plen
        wg = self._wg
        if count == 0:
            return [(np.zeros(0, np.uint32), np.zeros(0, np.uint16),
                     np.zeros(0, np.uint8)) for _ in range(nq)]
        comp_all = np.concatenate([cq.comp for cq in compiled_queries])
        cidx_all = np.concatenate(
            [cq.comp_index for cq in compiled_queries])
        thresholds = np.array([q.max_mismatches for q in queries],
                              dtype=np.int32)
        out_capacity = 2 * count * nq
        with Buffer(comp_all, name="comp", write_back=False) as comp_buf, \
                Buffer(cidx_all, name="comp_index",
                       write_back=False) as comp_index_buf, \
                Buffer(thresholds, name="thresholds",
                       write_back=False) as thr_buf, \
                Buffer(count=out_capacity, dtype=np.uint32,
                       name="mm_loci") as mm_loci_buf, \
                Buffer(count=out_capacity, dtype=np.uint16,
                       name="mm_count") as mm_count_buf, \
                Buffer(count=out_capacity, dtype=np.uint16,
                       name="mm_query") as mm_query_buf, \
                Buffer(count=out_capacity, dtype=np.uint8,
                       name="direction") as dir_buf, \
                Buffer(count=1, dtype=np.uint32,
                       name="entrycount2") as entry_buf:

            def comparer_cg(h):
                a_chr = chr_buf.get_access(h, sycl_read)
                a_loci = loci_buf.get_access(h, sycl_read)
                a_flag = flag_buf.get_access(h, sycl_read)
                a_comp = comp_buf.get_access(h, sycl_read, TARGET_CONSTANT)
                a_cidx = comp_index_buf.get_access(h, sycl_read,
                                                   TARGET_CONSTANT)
                a_thr = thr_buf.get_access(h, sycl_read, TARGET_CONSTANT)
                a_mm_loci = mm_loci_buf.get_access(h, sycl_write)
                a_mm_count = mm_count_buf.get_access(h, sycl_write)
                a_mm_query = mm_query_buf.get_access(h, sycl_write)
                a_dir = dir_buf.get_access(h, sycl_write)
                a_entry = entry_buf.get_access(h, sycl_read_write)
                l_comp = LocalAccessor(np.uint8, nq * plen * 2, h,
                                       name="l_comp")
                l_cidx = LocalAccessor(np.int32, nq * plen * 2, h,
                                       name="l_comp_index")
                kern = (vectorized.comparer_batched_vectorized
                        if vector_mode else sycl_kernels.comparer_batched)
                h.parallel_for(
                    NdRange(Range(_round_up(count, wg)), Range(wg)),
                    kern,
                    args=(count, nq, a_chr, a_loci, a_mm_loci, a_comp,
                          a_cidx, plen, a_thr, a_flag, a_mm_count,
                          a_mm_query, a_dir, a_entry, l_comp, l_cidx),
                    vectorized=vector_mode,
                    kernel_name="comparer_batched",
                    variant=self._variant.name, batch=nq)

            self.queue.submit(comparer_cg).wait()
            n_out = int(entry_buf.get_host_access(sycl_read)[0])
            mm_loci = mm_loci_buf.get_host_access(sycl_read).data[
                :n_out].copy()
            mm_count = mm_count_buf.get_host_access(sycl_read).data[
                :n_out].copy()
            mm_query = mm_query_buf.get_host_access(sycl_read).data[
                :n_out].copy()
            direction = dir_buf.get_host_access(sycl_read).data[
                :n_out].copy()
            return _demux_batched(mm_loci, mm_count, mm_query, direction,
                                  nq)


class SyclUsmCasOffinder(SyclCasOffinder):
    """The SYCL application on unified shared memory (Section III.A).

    The paper migrates with buffers; USM is the pointer-based alternative
    it names for "easier integration with existing C/C++ programs".  This
    pipeline is the same host logic expressed USM-style: explicit
    ``malloc_device`` / ``memcpy`` / ``free`` instead of buffers and
    accessors, and direct ``queue.parallel_for`` launches with no command
    groups.  Results are identical to the buffer pipeline (tested), which
    is the property that makes the two migration end-states
    interchangeable.
    """

    api = "sycl-usm"

    def _process_chunk(self, chunk, pattern, queries, compiled_queries,
                       batched=False):
        plen = pattern.plen
        wg = self._wg
        scan_len = chunk.scan_length
        capacity = max(1, scan_len)
        vector_mode = self.mode == "vectorized"
        queue = self.queue
        d_chr = malloc_device(chunk.data.size, np.uint8, queue, "chr")
        d_pat = malloc_device(pattern.comp.size, np.uint8, queue, "pat")
        d_idx = malloc_device(pattern.comp_index.size, np.int32, queue,
                              "pat_index")
        d_loci = malloc_device(capacity, np.uint32, queue, "loci")
        d_flag = malloc_device(capacity, np.uint8, queue, "flag")
        d_count = malloc_device(1, np.uint32, queue, "entrycount")
        try:
            queue.memcpy(d_chr, chunk.data)
            queue.memcpy(d_pat, pattern.comp)
            queue.memcpy(d_idx, pattern.comp_index)
            queue.fill(d_count, 0)
            l_pat = LocalAccessor(np.uint8, plen * 2, name="l_pat")
            l_idx = LocalAccessor(np.int32, plen * 2,
                                  name="l_pat_index")
            kern = (vectorized.finder_vectorized if vector_mode
                    else sycl_kernels.finder)
            queue.parallel_for(
                NdRange(Range(_round_up(scan_len, wg)), Range(wg)),
                kern,
                args=(d_chr, d_pat, d_idx, plen, scan_len, d_loci,
                      d_flag, d_count, l_pat, l_idx),
                vectorized=vector_mode, kernel_name="finder").wait()
            count_host = np.zeros(1, dtype=np.uint32)
            queue.memcpy(count_host, d_count)
            count = int(count_host[0])
            loci_host = np.zeros(max(1, count), dtype=np.uint32)
            flag_host = np.zeros(max(1, count), dtype=np.uint8)
            if count:
                queue.memcpy(loci_host, d_loci, count)
                queue.memcpy(flag_host, d_flag, count)
            if batched:
                per_query = self._run_comparer_batched_usm(
                    d_chr, d_loci, d_flag, count, queries,
                    compiled_queries, vector_mode)
            else:
                per_query = []
                for query, cq in zip(queries, compiled_queries):
                    per_query.append(self._run_comparer_usm(
                        d_chr, d_loci, d_flag, count, cq,
                        query.max_mismatches, vector_mode))
            return _ChunkOutput(candidate_count=count,
                                per_query=per_query,
                                loci=loci_host[:count],
                                flags=flag_host[:count])
        finally:
            for pointer in (d_chr, d_pat, d_idx, d_loci, d_flag,
                            d_count):
                free(pointer)

    def _run_comparer_usm(self, d_chr, d_loci, d_flag, count, cq,
                          threshold, vector_mode):
        if count == 0:
            return (np.zeros(0, np.uint32), np.zeros(0, np.uint16),
                    np.zeros(0, np.uint8))
        plen = cq.plen
        wg = self._wg
        queue = self.queue
        out_capacity = 2 * count
        d_comp = malloc_device(cq.comp.size, np.uint8, queue, "comp")
        d_cidx = malloc_device(cq.comp_index.size, np.int32, queue,
                               "comp_index")
        d_mm_loci = malloc_device(out_capacity, np.uint32, queue,
                                  "mm_loci")
        d_mm_count = malloc_device(out_capacity, np.uint16, queue,
                                   "mm_count")
        d_dir = malloc_device(out_capacity, np.uint8, queue,
                              "direction")
        d_entry = malloc_device(1, np.uint32, queue, "entrycount2")
        try:
            queue.memcpy(d_comp, cq.comp)
            queue.memcpy(d_cidx, cq.comp_index)
            queue.fill(d_entry, 0)
            l_comp = LocalAccessor(np.uint8, plen * 2, name="l_comp")
            l_cidx = LocalAccessor(np.int32, plen * 2,
                                   name="l_comp_index")
            kern = (vectorized.comparer_vectorized if vector_mode
                    else self._variant.kernel)
            queue.parallel_for(
                NdRange(Range(_round_up(count, wg)), Range(wg)),
                kern,
                args=(count, d_chr, d_loci, d_mm_loci, d_comp, d_cidx,
                      plen, threshold, d_flag, d_mm_count, d_dir,
                      d_entry, l_comp, l_cidx),
                vectorized=vector_mode, kernel_name="comparer",
                variant=self._variant.name).wait()
            n_host = np.zeros(1, dtype=np.uint32)
            queue.memcpy(n_host, d_entry)
            n_out = int(n_host[0])
            mm_loci = np.zeros(max(1, n_out), dtype=np.uint32)
            mm_count = np.zeros(max(1, n_out), dtype=np.uint16)
            direction = np.zeros(max(1, n_out), dtype=np.uint8)
            if n_out:
                queue.memcpy(mm_loci, d_mm_loci, n_out)
                queue.memcpy(mm_count, d_mm_count, n_out)
                queue.memcpy(direction, d_dir, n_out)
            return mm_loci[:n_out], mm_count[:n_out], direction[:n_out]
        finally:
            for pointer in (d_comp, d_cidx, d_mm_loci, d_mm_count,
                            d_dir, d_entry):
                free(pointer)

    def _run_comparer_batched_usm(self, d_chr, d_loci, d_flag, count,
                                  queries, compiled_queries, vector_mode):
        nq = len(queries)
        if count == 0:
            return [(np.zeros(0, np.uint32), np.zeros(0, np.uint16),
                     np.zeros(0, np.uint8)) for _ in range(nq)]
        plen = compiled_queries[0].plen
        wg = self._wg
        queue = self.queue
        comp_all = np.concatenate([cq.comp for cq in compiled_queries])
        cidx_all = np.concatenate(
            [cq.comp_index for cq in compiled_queries])
        thresholds = np.array([q.max_mismatches for q in queries],
                              dtype=np.int32)
        out_capacity = 2 * count * nq
        d_comp = malloc_device(comp_all.size, np.uint8, queue, "comp")
        d_cidx = malloc_device(cidx_all.size, np.int32, queue,
                               "comp_index")
        d_thr = malloc_device(nq, np.int32, queue, "thresholds")
        d_mm_loci = malloc_device(out_capacity, np.uint32, queue,
                                  "mm_loci")
        d_mm_count = malloc_device(out_capacity, np.uint16, queue,
                                   "mm_count")
        d_mm_query = malloc_device(out_capacity, np.uint16, queue,
                                   "mm_query")
        d_dir = malloc_device(out_capacity, np.uint8, queue,
                              "direction")
        d_entry = malloc_device(1, np.uint32, queue, "entrycount2")
        try:
            queue.memcpy(d_comp, comp_all)
            queue.memcpy(d_cidx, cidx_all)
            queue.memcpy(d_thr, thresholds)
            queue.fill(d_entry, 0)
            l_comp = LocalAccessor(np.uint8, nq * plen * 2,
                                   name="l_comp")
            l_cidx = LocalAccessor(np.int32, nq * plen * 2,
                                   name="l_comp_index")
            kern = (vectorized.comparer_batched_vectorized
                    if vector_mode else sycl_kernels.comparer_batched)
            queue.parallel_for(
                NdRange(Range(_round_up(count, wg)), Range(wg)),
                kern,
                args=(count, nq, d_chr, d_loci, d_mm_loci, d_comp,
                      d_cidx, plen, d_thr, d_flag, d_mm_count,
                      d_mm_query, d_dir, d_entry, l_comp, l_cidx),
                vectorized=vector_mode, kernel_name="comparer_batched",
                variant=self._variant.name, batch=nq).wait()
            n_host = np.zeros(1, dtype=np.uint32)
            queue.memcpy(n_host, d_entry)
            n_out = int(n_host[0])
            mm_loci = np.zeros(max(1, n_out), dtype=np.uint32)
            mm_count = np.zeros(max(1, n_out), dtype=np.uint16)
            mm_query = np.zeros(max(1, n_out), dtype=np.uint16)
            direction = np.zeros(max(1, n_out), dtype=np.uint8)
            if n_out:
                queue.memcpy(mm_loci, d_mm_loci, n_out)
                queue.memcpy(mm_count, d_mm_count, n_out)
                queue.memcpy(mm_query, d_mm_query, n_out)
                queue.memcpy(direction, d_dir, n_out)
            return _demux_batched(mm_loci[:n_out], mm_count[:n_out],
                                  mm_query[:n_out], direction[:n_out],
                                  nq)
        finally:
            for pointer in (d_comp, d_cidx, d_thr, d_mm_loci,
                            d_mm_count, d_mm_query, d_dir, d_entry):
                free(pointer)


# ---------------------------------------------------------------------------
# OpenCL pipeline
# ---------------------------------------------------------------------------


class OpenCLCasOffinder(_BasePipeline):
    """The original application: OpenCL-style host code.

    Every object is created and released explicitly, and the local work
    size is left to the runtime (``clEnqueueNDRangeKernel`` with NULL),
    which on the modeled GPUs picks the 64-lane wavefront size — the
    work-group asymmetry behind part of Table VIII.
    """

    api = "opencl"

    def __init__(self, device: str = "MI100",
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 mode: str = "vectorized"):
        super().__init__(chunk_size, mode)
        platforms = ocl.clGetPlatformIDs()
        wanted = None
        for platform in platforms:
            for dev in platform.get_devices():
                if dev.spec.short_name == device:
                    wanted = dev
        if wanted is None:
            raise KeyError(f"no OpenCL device {device!r}")
        self.device = wanted
        self.context = ocl.clCreateContext([wanted])
        self.queue = ocl.clCreateCommandQueue(self.context, wanted)
        self.launches = self.queue.launches
        self.program = ocl.clCreateProgram(self.context, {
            "finder": ocl.KernelDefinition(
                opencl_kernels.finder,
                [ocl.KernelParam("chr", "global", "r"),
                 ocl.KernelParam("pat", "constant"),
                 ocl.KernelParam("pat_index", "constant"),
                 ocl.KernelParam("plen", "scalar"),
                 ocl.KernelParam("scan_len", "scalar"),
                 ocl.KernelParam("loci", "global", "w"),
                 ocl.KernelParam("flag", "global", "w"),
                 ocl.KernelParam("entrycount", "global", "rw"),
                 ocl.KernelParam("l_pat", "local"),
                 ocl.KernelParam("l_pat_index", "local")],
                vectorized=vectorized.finder_vectorized),
            "comparer": ocl.KernelDefinition(
                opencl_kernels.comparer,
                [ocl.KernelParam("locicnts", "scalar"),
                 ocl.KernelParam("chr", "global", "r"),
                 ocl.KernelParam("loci", "global", "r"),
                 ocl.KernelParam("mm_loci", "global", "w"),
                 ocl.KernelParam("comp", "constant"),
                 ocl.KernelParam("comp_index", "constant"),
                 ocl.KernelParam("plen", "scalar"),
                 ocl.KernelParam("threshold", "scalar"),
                 ocl.KernelParam("flag", "global", "r"),
                 ocl.KernelParam("mm_count", "global", "w"),
                 ocl.KernelParam("direction", "global", "w"),
                 ocl.KernelParam("entrycount", "global", "rw"),
                 ocl.KernelParam("l_comp", "local"),
                 ocl.KernelParam("l_comp_index", "local")],
                vectorized=vectorized.comparer_vectorized),
            "comparer_batched": ocl.KernelDefinition(
                opencl_kernels.comparer_batched,
                [ocl.KernelParam("locicnts", "scalar"),
                 ocl.KernelParam("nqueries", "scalar"),
                 ocl.KernelParam("chr", "global", "r"),
                 ocl.KernelParam("loci", "global", "r"),
                 ocl.KernelParam("mm_loci", "global", "w"),
                 ocl.KernelParam("comp", "constant"),
                 ocl.KernelParam("comp_index", "constant"),
                 ocl.KernelParam("plen", "scalar"),
                 ocl.KernelParam("thresholds", "constant"),
                 ocl.KernelParam("flag", "global", "r"),
                 ocl.KernelParam("mm_count", "global", "w"),
                 ocl.KernelParam("mm_query", "global", "w"),
                 ocl.KernelParam("direction", "global", "w"),
                 ocl.KernelParam("entrycount", "global", "rw"),
                 ocl.KernelParam("l_comp", "local"),
                 ocl.KernelParam("l_comp_index", "local")],
                vectorized=vectorized.comparer_batched_vectorized),
        })
        ocl.clBuildProgram(self.program, "-O3")

    @property
    def work_group_size(self) -> Optional[int]:
        return None  # runtime-chosen

    def release(self) -> None:
        """Step 13: explicit resource release."""
        ocl.clReleaseProgram(self.program)
        ocl.clReleaseCommandQueue(self.queue)
        ocl.clReleaseContext(self.context)

    def __enter__(self) -> "OpenCLCasOffinder":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def _process_chunk(self, chunk, pattern, queries, compiled_queries,
                       batched=False):
        plen = pattern.plen
        scan_len = chunk.scan_length
        capacity = max(1, scan_len)
        vector_mode = self.mode == "vectorized"
        ctx, q = self.context, self.queue
        chr_mem = ocl.clCreateBuffer(
            ctx, ocl.CL_MEM_READ_ONLY | ocl.CL_MEM_COPY_HOST_PTR,
            chunk.data.nbytes, chunk.data, name="chr")
        pat_mem = ocl.clCreateBuffer(
            ctx, ocl.CL_MEM_READ_ONLY | ocl.CL_MEM_COPY_HOST_PTR,
            pattern.comp.nbytes, pattern.comp, name="pat")
        pat_index_mem = ocl.clCreateBuffer(
            ctx, ocl.CL_MEM_READ_ONLY | ocl.CL_MEM_COPY_HOST_PTR,
            pattern.comp_index.nbytes, pattern.comp_index,
            name="pat_index")
        loci_mem = ocl.clCreateBuffer(
            ctx, ocl.CL_MEM_READ_WRITE, capacity * 4, name="loci",
            dtype=np.uint32)
        flag_mem = ocl.clCreateBuffer(
            ctx, ocl.CL_MEM_READ_WRITE, capacity, name="flag",
            dtype=np.uint8)
        entry_host = np.zeros(1, dtype=np.uint32)
        entry_mem = ocl.clCreateBuffer(
            ctx, ocl.CL_MEM_READ_WRITE | ocl.CL_MEM_COPY_HOST_PTR,
            4, entry_host, name="entrycount")
        finder = ocl.clCreateKernel(self.program, "finder")
        for index, arg in enumerate((
                chr_mem, pat_mem, pat_index_mem, plen, scan_len, loci_mem,
                flag_mem, entry_mem,
                ocl.LocalArg(np.uint8, plen * 2),
                ocl.LocalArg(np.int32, plen * 2))):
            ocl.clSetKernelArg(finder, index, arg)
        global_size = _round_up(scan_len, 256)
        ocl.clEnqueueNDRangeKernel(q, finder, global_size, None,
                                   vectorized=vector_mode)
        ocl.clFinish(q)
        ocl.clEnqueueReadBuffer(q, entry_mem, entry_host)
        count = int(entry_host[0])
        loci_host = np.zeros(max(1, count), dtype=np.uint32)
        flag_host = np.zeros(max(1, count), dtype=np.uint8)
        if count:
            ocl.clEnqueueReadBuffer(q, loci_mem, loci_host,
                                    size_bytes=count * 4)
            ocl.clEnqueueReadBuffer(q, flag_mem, flag_host,
                                    size_bytes=count)
        if batched:
            per_query = self._run_comparer_batched(
                chr_mem, loci_mem, flag_mem, count, queries,
                compiled_queries, vector_mode)
        else:
            per_query = []
            for query, cq in zip(queries, compiled_queries):
                per_query.append(self._run_comparer(
                    chr_mem, loci_mem, flag_mem, count, cq,
                    query.max_mismatches, vector_mode))
        for mem in (chr_mem, pat_mem, pat_index_mem, loci_mem, flag_mem,
                    entry_mem):
            ocl.clReleaseMemObject(mem)
        ocl.clReleaseKernel(finder)
        return _ChunkOutput(candidate_count=count, per_query=per_query,
                            loci=loci_host[:count],
                            flags=flag_host[:count])

    def _run_comparer(self, chr_mem, loci_mem, flag_mem, count, cq,
                      threshold, vector_mode):
        if count == 0:
            return (np.zeros(0, np.uint32), np.zeros(0, np.uint16),
                    np.zeros(0, np.uint8))
        ctx, q = self.context, self.queue
        plen = cq.plen
        out_capacity = 2 * count
        comp_mem = ocl.clCreateBuffer(
            ctx, ocl.CL_MEM_READ_ONLY | ocl.CL_MEM_COPY_HOST_PTR,
            cq.comp.nbytes, cq.comp, name="comp")
        comp_index_mem = ocl.clCreateBuffer(
            ctx, ocl.CL_MEM_READ_ONLY | ocl.CL_MEM_COPY_HOST_PTR,
            cq.comp_index.nbytes, cq.comp_index, name="comp_index")
        mm_loci_mem = ocl.clCreateBuffer(
            ctx, ocl.CL_MEM_WRITE_ONLY, out_capacity * 4, name="mm_loci",
            dtype=np.uint32)
        mm_count_host = np.zeros(out_capacity, dtype=np.uint16)
        mm_count_mem = ocl.clCreateBuffer(
            ctx, ocl.CL_MEM_WRITE_ONLY, out_capacity * 2, name="mm_count",
            dtype=np.uint16)
        dir_mem = ocl.clCreateBuffer(
            ctx, ocl.CL_MEM_WRITE_ONLY, out_capacity, name="direction",
            dtype=np.uint8)
        entry_host = np.zeros(1, dtype=np.uint32)
        entry_mem = ocl.clCreateBuffer(
            ctx, ocl.CL_MEM_READ_WRITE | ocl.CL_MEM_COPY_HOST_PTR,
            4, entry_host, name="entrycount2")
        comparer = ocl.clCreateKernel(self.program, "comparer")
        for index, arg in enumerate((
                count, chr_mem, loci_mem, mm_loci_mem, comp_mem,
                comp_index_mem, plen, threshold, flag_mem, mm_count_mem,
                dir_mem, entry_mem,
                ocl.LocalArg(np.uint8, plen * 2),
                ocl.LocalArg(np.int32, plen * 2))):
            ocl.clSetKernelArg(comparer, index, arg)
        global_size = _round_up(count, 256)
        ocl.clEnqueueNDRangeKernel(q, comparer, global_size, None,
                                   vectorized=vector_mode)
        ocl.clFinish(q)
        ocl.clEnqueueReadBuffer(q, entry_mem, entry_host)
        n_out = int(entry_host[0])
        mm_loci = np.zeros(max(1, n_out), dtype=np.uint32)
        direction = np.zeros(max(1, n_out), dtype=np.uint8)
        if n_out:
            ocl.clEnqueueReadBuffer(q, mm_loci_mem, mm_loci,
                                    size_bytes=n_out * 4)
            ocl.clEnqueueReadBuffer(q, mm_count_mem, mm_count_host,
                                    size_bytes=n_out * 2)
            ocl.clEnqueueReadBuffer(q, dir_mem, direction,
                                    size_bytes=n_out)
        for mem in (comp_mem, comp_index_mem, mm_loci_mem, mm_count_mem,
                    dir_mem, entry_mem):
            ocl.clReleaseMemObject(mem)
        ocl.clReleaseKernel(comparer)
        return (mm_loci[:n_out], mm_count_host[:n_out].copy(),
                direction[:n_out])

    def _run_comparer_batched(self, chr_mem, loci_mem, flag_mem, count,
                              queries, compiled_queries, vector_mode):
        nq = len(queries)
        if count == 0:
            return [(np.zeros(0, np.uint32), np.zeros(0, np.uint16),
                     np.zeros(0, np.uint8)) for _ in range(nq)]
        ctx, q = self.context, self.queue
        plen = compiled_queries[0].plen
        comp_all = np.concatenate([cq.comp for cq in compiled_queries])
        cidx_all = np.concatenate(
            [cq.comp_index for cq in compiled_queries])
        thresholds = np.array([qr.max_mismatches for qr in queries],
                              dtype=np.int32)
        out_capacity = 2 * count * nq
        comp_mem = ocl.clCreateBuffer(
            ctx, ocl.CL_MEM_READ_ONLY | ocl.CL_MEM_COPY_HOST_PTR,
            comp_all.nbytes, comp_all, name="comp")
        comp_index_mem = ocl.clCreateBuffer(
            ctx, ocl.CL_MEM_READ_ONLY | ocl.CL_MEM_COPY_HOST_PTR,
            cidx_all.nbytes, cidx_all, name="comp_index")
        thr_mem = ocl.clCreateBuffer(
            ctx, ocl.CL_MEM_READ_ONLY | ocl.CL_MEM_COPY_HOST_PTR,
            thresholds.nbytes, thresholds, name="thresholds")
        mm_loci_mem = ocl.clCreateBuffer(
            ctx, ocl.CL_MEM_WRITE_ONLY, out_capacity * 4, name="mm_loci",
            dtype=np.uint32)
        mm_count_host = np.zeros(out_capacity, dtype=np.uint16)
        mm_count_mem = ocl.clCreateBuffer(
            ctx, ocl.CL_MEM_WRITE_ONLY, out_capacity * 2, name="mm_count",
            dtype=np.uint16)
        mm_query_host = np.zeros(out_capacity, dtype=np.uint16)
        mm_query_mem = ocl.clCreateBuffer(
            ctx, ocl.CL_MEM_WRITE_ONLY, out_capacity * 2, name="mm_query",
            dtype=np.uint16)
        dir_mem = ocl.clCreateBuffer(
            ctx, ocl.CL_MEM_WRITE_ONLY, out_capacity, name="direction",
            dtype=np.uint8)
        entry_host = np.zeros(1, dtype=np.uint32)
        entry_mem = ocl.clCreateBuffer(
            ctx, ocl.CL_MEM_READ_WRITE | ocl.CL_MEM_COPY_HOST_PTR,
            4, entry_host, name="entrycount2")
        comparer = ocl.clCreateKernel(self.program, "comparer_batched")
        for index, arg in enumerate((
                count, nq, chr_mem, loci_mem, mm_loci_mem, comp_mem,
                comp_index_mem, plen, thr_mem, flag_mem, mm_count_mem,
                mm_query_mem, dir_mem, entry_mem,
                ocl.LocalArg(np.uint8, nq * plen * 2),
                ocl.LocalArg(np.int32, nq * plen * 2))):
            ocl.clSetKernelArg(comparer, index, arg)
        global_size = _round_up(count, 256)
        ocl.clEnqueueNDRangeKernel(q, comparer, global_size, None,
                                   vectorized=vector_mode, batch=nq)
        ocl.clFinish(q)
        ocl.clEnqueueReadBuffer(q, entry_mem, entry_host)
        n_out = int(entry_host[0])
        mm_loci = np.zeros(max(1, n_out), dtype=np.uint32)
        direction = np.zeros(max(1, n_out), dtype=np.uint8)
        if n_out:
            ocl.clEnqueueReadBuffer(q, mm_loci_mem, mm_loci,
                                    size_bytes=n_out * 4)
            ocl.clEnqueueReadBuffer(q, mm_count_mem, mm_count_host,
                                    size_bytes=n_out * 2)
            ocl.clEnqueueReadBuffer(q, mm_query_mem, mm_query_host,
                                    size_bytes=n_out * 2)
            ocl.clEnqueueReadBuffer(q, dir_mem, direction,
                                    size_bytes=n_out)
        for mem in (comp_mem, comp_index_mem, thr_mem, mm_loci_mem,
                    mm_count_mem, mm_query_mem, dir_mem, entry_mem):
            ocl.clReleaseMemObject(mem)
        ocl.clReleaseKernel(comparer)
        return _demux_batched(mm_loci[:n_out],
                              mm_count_host[:n_out].copy(),
                              mm_query_host[:n_out].copy(),
                              direction[:n_out], nq)


def make_pipeline(api: str = "sycl", device: str = "MI100",
                  variant: str = "base", mode: str = "vectorized",
                  chunk_size: int = DEFAULT_CHUNK_SIZE,
                  work_group_size: int = 256) -> _BasePipeline:
    """Construct a pipeline instance for the given API.

    OpenCL pipelines must be released after use (``with`` or
    ``.release()``); the streaming engine uses this factory to build one
    pipeline per worker so each has its own queue.
    """
    if api == "sycl":
        return SyclCasOffinder(device=device, variant=variant,
                               chunk_size=chunk_size, mode=mode,
                               work_group_size=work_group_size)
    if api == "sycl-usm":
        return SyclUsmCasOffinder(device=device, variant=variant,
                                  chunk_size=chunk_size, mode=mode,
                                  work_group_size=work_group_size)
    if api == "opencl":
        return OpenCLCasOffinder(device=device, chunk_size=chunk_size,
                                 mode=mode)
    raise ValueError(
        f"unknown api {api!r}; choose 'sycl', 'sycl-usm' or 'opencl'")


def search(assembly: Assembly, request: SearchRequest,
           api: str = "sycl", device: str = "MI100",
           variant: str = "base", mode: str = "vectorized",
           chunk_size: int = DEFAULT_CHUNK_SIZE,
           work_group_size: int = 256,
           execution: Optional[ExecutionPolicy] = None) -> PipelineResult:
    """One-call convenience wrapper over both pipelines.

    ``execution`` opts into the streaming engine / batched comparer; when
    omitted, ``request.execution`` is honoured, and when that is also
    unset the classic serial loop runs.
    """
    policy = execution if execution is not None else request.execution
    if policy is not None and policy.streaming:
        from .engine import StreamingEngine
        engine = StreamingEngine(policy, api=api, device=device,
                                 variant=variant, mode=mode,
                                 chunk_size=chunk_size,
                                 work_group_size=work_group_size)
        return engine.search(assembly, request)
    batched = policy is not None and policy.batch_queries
    pipeline = make_pipeline(api=api, device=device, variant=variant,
                             mode=mode, chunk_size=chunk_size,
                             work_group_size=work_group_size)
    from ..resilience.checkpoint import resolve_session
    session = resolve_session(policy, assembly, request, chunk_size)
    meta = {"device": device}
    try:
        if api == "opencl":
            with pipeline:
                return pipeline.search(assembly, request, batched=batched,
                                       checkpoint=session,
                                       checkpoint_meta=meta)
        return pipeline.search(assembly, request, batched=batched,
                               checkpoint=session, checkpoint_meta=meta)
    finally:
        if session is not None:
            session.close()
