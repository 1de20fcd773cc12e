"""Memory-resident genome site index: scan once, serve many queries.

The finder kernel selects PAM-bearing candidate sites from the genome;
its output is a pure function of ``(genome, pattern, chunk layout)`` and
is completely independent of the guide queries.  A
:class:`GenomeSiteIndex` therefore runs the finder exactly once per
chunk over the whole assembly and keeps each chunk's candidate arrays
(loci within the chunk, strand flags) memory-resident.  Serving a query
then reduces to the comparer over the stored candidates — the
expensive genome scan is amortized across every request that follows.
Serving runs on plain numpy, not on the simulated OpenCL/SYCL runtime
that reproduces the paper's tables: the finder is the kernel's own
numpy body (:meth:`~repro.core.pipeline._BasePipeline.find_candidates`),
element-identical to every paper pipeline's finder, and no serving
call appends a launch record.

The index also packs every candidate window once, at build time, into
one resident 2-bit row table
(:class:`~repro.core.pipeline.PackedSites`): one row per (site,
strand), in the comparer kernel's emission order, a reverse row
holding its window's reverse complement.  Serving runs one comparer
pass over that table per batch, for every query, pattern length and
genome byte: the bit-parallel XOR + fold + popcount of
:func:`~repro.core.bitparallel.compare_packed_batched`, which decodes
ambiguity-code query positions from the same planes.  Its output, one
``(mm_loci, mm_count, direction)`` array triple per query for each
chunk holding hits
(:meth:`~repro.core.pipeline._BasePipeline.compare_resident_triples`),
is element-identical to the comparer kernel of an offline search over
the same chunk, and is what the index hands on:
:meth:`GenomeSiteIndex.query_batch` renders it into hits through
:func:`~repro.core.pipeline.build_entry_hits`, while
:meth:`GenomeSiteIndex.query_batch_with_extras` returns the triples
themselves, so the variant layer builds no hit objects.

Persistence reuses the :mod:`repro.resilience.checkpoint` fingerprint
machinery: ``save`` writes a versioned ``index.json`` header carrying a
SHA-256 manifest fingerprint over (genome identity, pattern, chunk
size) plus a SHA-256 digest of the site arrays and row table; ``load``
refuses an index built for a different genome/pattern/chunk size
(:class:`SiteIndexMismatchError`), detects corrupted site payloads
(:class:`SiteIndexError`), and rejects other on-disk format versions
with :class:`SiteIndexVersionError` so callers (the ``serve`` CLI)
rebuild instead of misreading — a warm-starting server never trusts a
stale or torn index silently.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import pipeline as _pipeline
from ..core.bitparallel import pack_site_table
from ..core.config import Query
from ..core.patterns import CompiledPattern, compile_pattern
from ..core.pipeline import (DEFAULT_CHUNK_SIZE, PackedSites,
                             ResidentChunk, Triples, empty_triples)
from ..core.records import OffTargetHit
from ..genome.assembly import Assembly
from ..observability import faults, tracing
from ..resilience.checkpoint import RunManifest, _atomic_write_json

#: Header file inside an index directory.
INDEX_MANIFEST_NAME = "index.json"

#: Candidate-site arrays and the 2-bit row table inside an index
#: directory.
SITES_NAME = "sites.npz"

#: Bumped on any change to the on-disk layout.  Version 4 stores the
#: index-wide row table (:class:`~repro.core.pipeline.PackedSites`),
#: ``ceil(plen / 32)`` words per row.
INDEX_VERSION = 4


class SiteIndexError(RuntimeError):
    """Raised for unusable index state (corrupt payload, failed build)."""


class SiteIndexMismatchError(SiteIndexError):
    """A stored index was built for a different genome/pattern/layout."""


class SiteIndexVersionError(SiteIndexError):
    """A stored index uses a different on-disk format version.

    Distinct from generic corruption so a server can respond by
    rebuilding (the genome is right, only the layout is old) instead of
    refusing to start.
    """


class GenomeSiteIndex:
    """Resident candidate-site index over one assembly and PAM pattern.

    Build once with :meth:`build` (or :meth:`load` from a saved
    directory), then call :meth:`query_batch` any number of times; each
    call runs only the comparer, batched across all given queries, over
    the stored candidates.
    """

    def __init__(self, assembly: Assembly, pattern: str,
                 chunk_size: int = DEFAULT_CHUNK_SIZE):
        if chunk_size < 1:
            raise ValueError(
                f"chunk size must be >= 1, got {chunk_size}")
        self.assembly = assembly
        self.pattern = pattern.upper()
        self.compiled_pattern = compile_pattern(self.pattern)
        self.chunk_size = int(chunk_size)
        #: The numpy finder and the resident comparer; owns no queue or
        #: device, so serving appends no launch record.
        self.pipeline = _pipeline._BasePipeline(self.chunk_size)
        self.build_wall_s = 0.0
        self._chunks: List[ResidentChunk] = []
        self._table: Optional[PackedSites] = None
        self._stats_lock = threading.Lock()
        self._batches = 0
        self._queries_total = 0
        self._entries_scanned = 0

    # -- identity -------------------------------------------------------

    def manifest(self) -> RunManifest:
        """The index's fingerprintable identity.

        Reuses the checkpoint manifest with an empty query tuple: the
        finder's output depends on everything a search manifest names
        *except* the queries.
        """
        return RunManifest(
            genome=self.assembly.name,
            chromosomes=tuple((chrom.name, len(chrom))
                              for chrom in self.assembly.chromosomes),
            pattern=self.pattern,
            queries=(),
            chunk_size=self.chunk_size)

    def fingerprint(self) -> str:
        """SHA-256 identity of this index (manifest fingerprint).

        Two indexes with equal fingerprints were built from the same
        genome, pattern and chunk layout and therefore produce
        identical wire responses — the property the zero-downtime
        rollover path checks before and after a swap.
        """
        return self.manifest().fingerprint()

    @property
    def chromosomes(self) -> Tuple[str, ...]:
        """Chromosome names in assembly order.

        Assembly order *is* the global chunk order (``Assembly.chunks``
        walks chromosomes in sequence), so this tuple doubles as the
        merge rank the routing tier uses to reassemble partitioned
        responses byte-identically.
        """
        return tuple(c.name for c in self.assembly.chromosomes)

    @property
    def chunk_count(self) -> int:
        return len(self._chunks)

    @property
    def site_count(self) -> int:
        return sum(entry.loci.size for entry in self._chunks)

    @property
    def entries(self) -> Sequence[ResidentChunk]:
        """Read-only view of the per-chunk resident candidate arrays."""
        return tuple(self._chunks)

    @property
    def table(self) -> PackedSites:
        """The resident row table every batch compares against."""
        return self._table

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, assembly: Assembly, pattern: str,
              chunk_size: int = DEFAULT_CHUNK_SIZE,
              fault_plan: Optional[str] = None,
              max_retries: int = 2) -> "GenomeSiteIndex":
        """Scan the whole assembly through the finder once.

        ``fault_plan`` accepts the same deterministic spec the streaming
        engine uses (:mod:`repro.observability.faults`); an injected
        failure on a chunk is retried up to ``max_retries`` times, so a
        transient fault during the build never changes the index
        contents — the serving-equivalence tests pin this down.  The
        index drives no modeled device, so a device-scoped plan entry
        (``MI60!raise@0``) fires here too.  After the last finder
        pass, every candidate window is packed into the resident row
        table.
        """
        index = cls(assembly, pattern, chunk_size=chunk_size)
        injector = faults.resolve_injector(fault_plan)
        started = time.perf_counter()
        plen = index.compiled_pattern.plen
        for number, chunk in enumerate(
                assembly.chunks(chunk_size, plen)):
            attempts = max_retries + 1
            for attempt in range(attempts):
                try:
                    with tracing.span("index_chunk", cat="index",
                                      chunk=number, attempt=attempt):
                        if injector is not None:
                            injector.inject(number)
                        count, loci, flags = \
                            index.pipeline.find_candidates(
                                chunk, index.compiled_pattern)
                    break
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as exc:
                    tracing.instant("index_chunk_retry", cat="fault",
                                    chunk=number, attempt=attempt,
                                    error=type(exc).__name__)
                    if attempt + 1 >= attempts:
                        raise SiteIndexError(
                            f"index build failed on chunk {number} "
                            f"after {attempts} attempt(s): "
                            f"{exc!r}") from exc
            index._chunks.append(ResidentChunk(
                chrom=chunk.chrom, start=int(chunk.start),
                scan_length=int(chunk.scan_length), data=chunk.data,
                loci=np.ascontiguousarray(loci, dtype=np.uint32),
                flags=np.ascontiguousarray(flags, dtype=np.uint8)))
        index._table = pack_site_table(index._chunks, plen)
        index.build_wall_s = time.perf_counter() - started
        tracing.instant("index_built", cat="index",
                        chunks=index.chunk_count,
                        sites=index.site_count)
        return index

    # -- queries --------------------------------------------------------

    def query_batch(self, queries: Sequence[Query]
                    ) -> List[List[OffTargetHit]]:
        """Run one batched comparer pass for every query at once.

        Returns one hit list per query, in input order.  All queries of
        a micro-batch — potentially from many concurrent requests —
        ride in a single comparer pass over the resident row table,
        which is the continuous-batching payoff.  Hits are built only
        for the chunks that hold some.
        """
        if not queries:
            return []
        queries = list(queries)
        compiled = self._compile_batch(queries)
        found = self.pipeline.compare_resident_triples(
            self._table, queries, compiled)
        hits: List[List[OffTargetHit]] = [[] for _ in queries]
        for number, per_query in found.items():
            # Through the module, so a wrapper installed on it (the
            # perfbench spans) sees every call.
            for qi, query_hits in enumerate(_pipeline.build_entry_hits(
                    self._chunks[number], queries, compiled, per_query)):
                hits[qi].extend(query_hits)
        with self._stats_lock:
            self._entries_scanned += self._resident_chunks
        return hits

    def query_batch_with_extras(
            self, queries: Sequence[Query],
            extras: Sequence[ResidentChunk],
    ) -> Tuple[List[Tuple[ResidentChunk, Triples]], List[Triples], int]:
        """One comparer batch over resident chunks *plus* extras.

        ``extras`` are ephemeral, request-scoped resident entries —
        the variant layer's patched haplotype chunks.  They are packed
        into a row table of their own and compared right after the
        resident table, in the same batch (the ``batches`` counter
        moves by exactly one), which is the whole point: searching K
        haplotypes costs one batch, not K+1.

        Returns ``(reference, extra_triples, reference_chunks)``:
        every non-empty resident chunk paired with its comparer triples
        (one ``(mm_loci, mm_count, direction)`` array triple per query,
        loci relative to the chunk), then the triples of each extra
        entry in ``extras`` order (in that extra's own coordinate
        frame), and the number of resident chunks scanned.  No hit
        objects are built: the variant layer diffs the triples and
        renders site text only for the rows it reports.
        """
        if not queries:
            raise ValueError(
                "query_batch_with_extras needs at least one query")
        queries = list(queries)
        extras = list(extras)
        compiled = self._compile_batch(queries)
        with self._stats_lock:
            self._entries_scanned += self._resident_chunks + len(extras)
        empty = empty_triples(len(queries))
        found = self.pipeline.compare_resident_triples(
            self._table, queries, compiled)
        reference = [(entry, found.get(number, empty))
                     for number, entry in enumerate(self._chunks)
                     if entry.loci.size]
        extra_triples: List[Triples] = []
        if extras:
            found = self.pipeline.compare_resident_triples(
                pack_site_table(extras, self.compiled_pattern.plen),
                queries, compiled)
            extra_triples = [found.get(number, empty)
                             for number in range(len(extras))]
        return reference, extra_triples, self._resident_chunks

    def _compile_batch(self, queries: Sequence[Query]
                       ) -> List[CompiledPattern]:
        """Check and compile one comparer batch's queries, and count it.

        Every query must have the index pattern's length.  The batch
        and its queries are counted for :meth:`comparer_stats`.
        """
        plen = self.compiled_pattern.plen
        for query in queries:
            if len(query.sequence) != plen:
                raise ValueError(
                    f"query {query.sequence!r} has length "
                    f"{len(query.sequence)}, index pattern "
                    f"{self.pattern!r} has length {plen}")
        compiled = [compile_pattern(q.sequence) for q in queries]
        with self._stats_lock:
            self._batches += 1
            self._queries_total += len(compiled)
        return compiled

    @property
    def _resident_chunks(self) -> int:
        """Chunks holding candidate sites: what one batch covers."""
        return sum(1 for entry in self._chunks if entry.loci.size)

    def comparer_stats(self) -> Dict[str, object]:
        """Comparer counters for the ``stats`` server op."""
        with self._stats_lock:
            batches = self._batches
            queries_total = self._queries_total
            entries_scanned = self._entries_scanned
        return {
            # One ``query_batch`` call == one batched comparer pass over
            # the resident chunks.  ``queries_total / batches`` therefore
            # proves how many guides shared each launch pass — the
            # design op's no-per-guide-rescan evidence.
            "batches": batches,
            "queries_total": queries_total,
            # Entries (resident chunks + ephemeral variant patches) the
            # comparer visited; the variant op's single-batch proof
            # checks ``batches`` moved by one while this moved by
            # reference chunks + patched chunks.
            "entries_scanned": entries_scanned,
        }

    # -- persistence ----------------------------------------------------

    def save(self, directory: str) -> None:
        """Persist the index for warm-starting a later server.

        The site arrays go to ``sites.npz`` (written via temp file +
        atomic rename); ``index.json`` records the format version, the
        manifest fingerprint and the payload's SHA-256, so :meth:`load`
        can refuse mismatched or corrupted state up front.  The 2-bit
        row table is stored alongside the site arrays, so a
        warm-started server skips the packing pass too.
        """
        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)
        chrom_names = sorted({entry.chrom for entry in self._chunks})
        chrom_ids = {name: i for i, name in enumerate(chrom_names)}
        offsets = np.zeros(len(self._chunks) + 1, dtype=np.int64)
        for i, entry in enumerate(self._chunks):
            offsets[i + 1] = offsets[i] + entry.loci.size
        table = self._table
        arrays = {
            "chunk_chrom": np.array(
                [chrom_ids[e.chrom] for e in self._chunks],
                dtype=np.int64),
            "chunk_start": np.array([e.start for e in self._chunks],
                                    dtype=np.int64),
            "chunk_scan": np.array(
                [e.scan_length for e in self._chunks], dtype=np.int64),
            "chunk_length": np.array([e.data.size for e in self._chunks],
                                     dtype=np.int64),
            "site_offsets": offsets,
            "loci": (np.concatenate([e.loci for e in self._chunks])
                     if self._chunks else np.zeros(0, np.uint32)),
            "flags": (np.concatenate([e.flags for e in self._chunks])
                      if self._chunks else np.zeros(0, np.uint8)),
            "table_words": table.words,
            "table_invalid": table.invalid,
            "table_loci": table.loci,
            "table_direction": table.direction,
            "table_chunk_rows": table.chunk_rows,
        }
        sites_path = os.path.join(directory, SITES_NAME)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sites-",
                                   suffix=".part")
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, **arrays)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, sites_path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        with open(sites_path, "rb") as handle:
            sites_sha = hashlib.sha256(handle.read()).hexdigest()
        _atomic_write_json(
            os.path.join(directory, INDEX_MANIFEST_NAME), {
                "version": INDEX_VERSION,
                "fingerprint": self.manifest().fingerprint(),
                "genome": self.assembly.name,
                "pattern": self.pattern,
                "chunk_size": self.chunk_size,
                "chunks": self.chunk_count,
                "sites": self.site_count,
                "chrom_names": chrom_names,
                "sites_sha256": sites_sha,
            })
        tracing.instant("index_saved", cat="index", directory=directory)

    @classmethod
    def load(cls, directory: str, assembly: Assembly
             ) -> "GenomeSiteIndex":
        """Warm-start from a saved directory, validating everything.

        The stored fingerprint must match one recomputed from the live
        ``assembly`` plus the stored pattern/chunk size — so loading an
        index against a different genome (or after the genome changed)
        refuses instead of silently serving wrong sites.  A different
        on-disk format version raises :class:`SiteIndexVersionError`
        (rebuild, don't misread).  The stored row table is reused as
        it is.
        """
        directory = os.fspath(directory)
        manifest_path = os.path.join(directory, INDEX_MANIFEST_NAME)
        try:
            with open(manifest_path, "r", encoding="ascii") as handle:
                header = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise SiteIndexError(
                f"unreadable index header {manifest_path!r}: "
                f"{exc}") from exc
        if header.get("version") != INDEX_VERSION:
            raise SiteIndexVersionError(
                f"unsupported index version {header.get('version')!r} "
                f"in {manifest_path!r} (this build reads "
                f"{INDEX_VERSION}); rebuild the index")
        index = cls(assembly, header["pattern"],
                    chunk_size=int(header["chunk_size"]))
        fingerprint = index.manifest().fingerprint()
        if header.get("fingerprint") != fingerprint:
            raise SiteIndexMismatchError(
                f"index at {directory!r} was built for a different "
                f"genome/pattern/chunk layout (stored fingerprint "
                f"{header.get('fingerprint')!r}, this run "
                f"{fingerprint!r}); rebuild the index or point the "
                f"server at the matching genome")
        sites_path = os.path.join(directory, SITES_NAME)
        try:
            with open(sites_path, "rb") as handle:
                blob = handle.read()
        except OSError as exc:
            raise SiteIndexError(
                f"unreadable index payload {sites_path!r}: "
                f"{exc}") from exc
        digest = hashlib.sha256(blob).hexdigest()
        if digest != header.get("sites_sha256"):
            raise SiteIndexError(
                f"index payload {sites_path!r} fails its SHA-256 check "
                f"(stored {header.get('sites_sha256')!r}, actual "
                f"{digest!r}); the file is corrupt — rebuild the index")
        import io
        with np.load(io.BytesIO(blob)) as arrays:
            chrom_names = list(header["chrom_names"])
            offsets = arrays["site_offsets"]
            loci_all = arrays["loci"]
            flags_all = arrays["flags"]
            chunks = zip(arrays["chunk_chrom"].tolist(),
                         arrays["chunk_start"].tolist(),
                         arrays["chunk_scan"].tolist(),
                         arrays["chunk_length"].tolist())
            for i, (chrom_id, start, scan, length) in enumerate(chunks):
                lo, hi = int(offsets[i]), int(offsets[i + 1])
                chrom = chrom_names[chrom_id]
                index._chunks.append(ResidentChunk(
                    chrom=chrom, start=start, scan_length=scan,
                    data=assembly.fetch(chrom, start, start + length),
                    loci=loci_all[lo:hi].copy(),
                    flags=flags_all[lo:hi].copy()))
            index._table = PackedSites(
                words=arrays["table_words"],
                invalid=arrays["table_invalid"],
                loci=arrays["table_loci"],
                direction=arrays["table_direction"],
                chunk_rows=arrays["table_chunk_rows"])
        tracing.instant("index_loaded", cat="index", directory=directory,
                        chunks=index.chunk_count,
                        sites=index.site_count)
        return index
