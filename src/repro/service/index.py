"""Memory-resident genome site index: scan once, serve many queries.

The finder kernel selects PAM-bearing candidate sites from the genome;
its output is a pure function of the genome and the pattern and is
completely independent of the guide queries.  A
:class:`GenomeSiteIndex` therefore runs the finder exactly once over
each chromosome and keeps one resident entry per chromosome holding
candidates: its loci and strand flags over the chromosome's bytes.
The paper's host program cuts chromosomes into chunks that fit device
memory; the index has no device, so it takes no chunk size.  Serving a
query then reduces to the comparer over the stored candidates — the
expensive genome scan is amortized across every request that follows.
Serving runs on plain numpy, not on the simulated OpenCL/SYCL runtime
that reproduces the paper's tables: the finder is the kernel's own
numpy body (:meth:`~repro.core.pipeline._BasePipeline.find_candidates`),
element-identical to every paper pipeline's finder, and no serving
call appends a launch record.

The index also packs every candidate window once, at build time, into
one resident 2-bit row table
(:class:`~repro.core.pipeline.PackedSites`): one row per (site,
strand), in the served hit order of :mod:`repro.core.records`, a
reverse row holding its window's reverse complement.  From the table
it derives seed lists (:func:`~repro.core.bitparallel.seed_lists`):
per 5-base segment of the pattern's ``N`` run, the rows bucketed by
their exact bases there.  They are not stored; :meth:`build` and
:meth:`load` both derive them.  Serving runs one comparer call over
that table per batch, for every query, pattern length and genome
byte: the bit-parallel XOR + fold + popcount of
:func:`~repro.core.bitparallel.compare_packed_batched`, which decodes
ambiguity-code query positions from the same planes.  A guide whose
budget leaves it an exact segment to match (a ``design`` guide at 3
mismatches under SpCas9) is counted only on the rows its seeds reach;
every other query takes a full pass.  Its output, one
``(mm_loci, mm_count, direction)`` array triple per query for each
entry holding hits
(:meth:`~repro.core.pipeline._BasePipeline.compare_resident_triples`),
is already in served order, so the kernel block size does not show
in it.  It is what the index hands on:
:meth:`GenomeSiteIndex.query_batch` renders it into hits through
:func:`~repro.core.pipeline.build_entry_hits`, while
:meth:`GenomeSiteIndex.query_batch_with_extras` returns the triples
themselves, so the variant layer builds no hit objects.

Persistence: ``save`` writes a versioned ``index.json`` header
carrying the index fingerprint (SHA-256 over the format version, the
genome's name, each chromosome's name, length and bytes, and the
pattern) plus a SHA-256 digest of the site arrays and row table;
``load`` refuses an index built for a different genome or pattern
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
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import pipeline as _pipeline
from ..core.bitparallel import SeedList, pack_site_table, seed_lists
from ..core.config import Query
from ..core.patterns import CompiledPattern, compile_pattern
from ..core.pipeline import (PackedSites, ResidentChunk, Triples,
                             empty_triples)
from ..core.records import OffTargetHit
from ..genome.assembly import Assembly, Chunk
from ..observability import tracing
from ..resilience.checkpoint import _atomic_write_json

#: Header file inside an index directory.
INDEX_MANIFEST_NAME = "index.json"

#: Candidate-site arrays and the 2-bit row table inside an index
#: directory.
SITES_NAME = "sites.npz"

#: Bumped on any change to the on-disk layout or the fingerprint.
#: Version 6 stores one entry per chromosome holding candidates, and
#: the index-wide row table (:class:`~repro.core.pipeline.PackedSites`)
#: in served order, ``ceil(plen / 32)`` words per row; its header
#: carries no chunk size.  The seed lists are derived from the table,
#: not stored.  Version 7 folds each chromosome's bytes into the
#: fingerprint.
INDEX_VERSION = 7


class SiteIndexError(RuntimeError):
    """Raised for unusable index state (corrupt payload, failed build)."""


class SiteIndexMismatchError(SiteIndexError):
    """A stored index was built for a different genome or pattern."""


class SiteIndexVersionError(SiteIndexError):
    """A stored index uses a different on-disk format version.

    Distinct from generic corruption so a server can respond by
    rebuilding (the genome is right, only the layout is old) instead of
    refusing to start.
    """


def _chromosome_entry(assembly: Assembly, chrom: str, plen: int,
                      loci: np.ndarray, flags: np.ndarray
                      ) -> ResidentChunk:
    """The resident entry of one chromosome: candidate loci and flags
    over the chromosome's whole sequence."""
    sequence = assembly[chrom].sequence
    return ResidentChunk(chrom=chrom, start=0,
                         scan_length=sequence.size - plen + 1,
                         data=sequence, loci=loci, flags=flags)


class GenomeSiteIndex:
    """Resident candidate-site index over one assembly and PAM pattern.

    Build once with :meth:`build` (or :meth:`load` from a saved
    directory), then call :meth:`query_batch` any number of times; each
    call runs only the comparer, batched across all given queries, over
    the stored candidates.
    """

    def __init__(self, assembly: Assembly, pattern: str):
        self.assembly = assembly
        self.pattern = pattern.upper()
        self.compiled_pattern = compile_pattern(self.pattern)
        #: The numpy finder and the resident comparer; owns no queue or
        #: device, so serving appends no launch record.
        self.pipeline = _pipeline._BasePipeline()
        self.build_wall_s = 0.0
        self._entries: List[ResidentChunk] = []
        self._table: Optional[PackedSites] = None
        self._seeds: Tuple[SeedList, ...] = ()
        self._fingerprint: Optional[str] = None
        self._stats_lock = threading.Lock()
        self._batches = 0
        self._queries_total = 0
        self._entries_scanned = 0
        self._queries_seeded = 0
        self._rows_compared = 0

    # -- identity -------------------------------------------------------

    def fingerprint(self) -> str:
        """SHA-256 identity of this index.

        Hashes the on-disk format version, the genome's name, each
        chromosome's name, length and SHA-256 of its bytes, and the
        pattern: everything the finder's output depends on.  Two
        indexes with equal fingerprints therefore produce identical
        wire responses, and :meth:`load` refuses an index saved for
        other genome bytes, even at the same names and lengths.
        Hashed once per index, since ``health`` reports it on every
        router probe.
        """
        if self._fingerprint is None:
            identity = {
                "version": INDEX_VERSION,
                "genome": self.assembly.name,
                "chromosomes": [
                    [chrom.name, len(chrom), chrom.sha256()]
                    for chrom in self.assembly.chromosomes],
                "pattern": self.pattern,
            }
            canonical = json.dumps(identity, sort_keys=True,
                                   separators=(",", ":"))
            self._fingerprint = hashlib.sha256(
                canonical.encode("ascii")).hexdigest()
        return self._fingerprint

    @property
    def chromosomes(self) -> Tuple[str, ...]:
        """Chromosome names in assembly order.

        Assembly order is the served hit order's chromosome rank
        (:mod:`repro.core.records`), so this tuple doubles as the merge
        rank the routing tier uses to reassemble partitioned responses
        byte-identically.
        """
        return tuple(c.name for c in self.assembly.chromosomes)

    @property
    def chunk_count(self) -> int:
        """Resident entries: one per chromosome holding candidates."""
        return len(self._entries)

    @property
    def site_count(self) -> int:
        return sum(entry.loci.size for entry in self._entries)

    @property
    def entries(self) -> Sequence[ResidentChunk]:
        """Read-only view of the per-chromosome resident candidate
        arrays, in assembly order."""
        return tuple(self._entries)

    @property
    def table(self) -> PackedSites:
        """The resident row table every batch compares against."""
        return self._table

    @property
    def seeds(self) -> Tuple[SeedList, ...]:
        """The row table's seed lists
        (:func:`~repro.core.bitparallel.seed_lists`)."""
        return self._seeds

    def _set_table(self, table: PackedSites) -> None:
        """Install the resident row table and derive its seed lists;
        :meth:`build` and :meth:`load` both end here."""
        self._table = table
        self._seeds = seed_lists(table, self.pattern)

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, assembly: Assembly, pattern: str) -> "GenomeSiteIndex":
        """Scan each chromosome through the finder once.

        Each chromosome of at least the pattern's length is one finder
        call over its whole sequence (the finder walks it in kernel
        blocks), and its candidates are its resident entry.  The finder
        is a pure function of genome and pattern, so a failure would
        recur on a second try: it raises :class:`SiteIndexError`
        naming the chromosome at once.  After the last finder pass,
        every candidate window is packed into the resident row table.
        """
        index = cls(assembly, pattern)
        started = time.perf_counter()
        plen = index.compiled_pattern.plen
        scanned = [c for c in assembly.chromosomes if len(c) >= plen]
        for number, chromosome in enumerate(scanned):
            chunk = Chunk(chrom=chromosome.name, start=0,
                          data=chromosome.sequence,
                          scan_length=len(chromosome) - plen + 1)
            try:
                with tracing.span("index_chunk", cat="index",
                                  chunk=number):
                    _count, loci, flags = index.pipeline.find_candidates(
                        chunk, index.compiled_pattern)
            except Exception as exc:
                raise SiteIndexError(
                    f"index build failed on chromosome "
                    f"{chunk.chrom!r}: {exc!r}") from exc
            if loci.size:
                index._entries.append(
                    _chromosome_entry(assembly, chunk.chrom, plen, loci,
                                      flags))
        index._set_table(pack_site_table(index._entries, plen))
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
        which is the continuous-batching payoff.  Each distinct query
        (sequence and mismatch budget) is compiled and compared once;
        a repeat gets its own copy of the same hits.  Each list is in
        the served hit order (:mod:`repro.core.records`).  Hits are
        built only for the entries that hold some.
        """
        if not queries:
            return []
        slots: Dict[Query, int] = {}
        order = [slots.setdefault(query, len(slots)) for query in queries]
        distinct = list(slots)
        compiled = self._compile_batch(distinct)
        found = self._compare(self._table, distinct, compiled,
                              self._seeds)
        hits: List[List[OffTargetHit]] = [[] for _ in distinct]
        for number, per_query in found.items():
            # Through the module, so a wrapper installed on it (the
            # perfbench spans) sees every call.
            for qi, query_hits in enumerate(_pipeline.build_entry_hits(
                    self._entries[number], distinct, compiled,
                    per_query)):
                hits[qi].extend(query_hits)
        with self._stats_lock:
            self._entries_scanned += len(self._entries)
        if len(distinct) == len(order):
            return hits
        return [list(hits[slot]) for slot in order]

    def query_batch_with_extras(
            self, queries: Sequence[Query],
            extras: Sequence[ResidentChunk],
    ) -> Tuple[List[Tuple[ResidentChunk, Triples]], List[Triples],
               List[CompiledPattern]]:
        """One comparer batch over resident entries *plus* extras.

        ``extras`` are ephemeral, request-scoped resident entries —
        the variant layer's patched haplotype spans.  They are packed
        into a row table of their own and compared right after the
        resident table, in the same batch (the ``batches`` counter
        moves by exactly one), which is the whole point: searching K
        haplotypes costs one batch, not K+1.

        Returns ``(reference, extra_triples, compiled)``: every
        resident entry paired with its comparer triples (one
        ``(mm_loci, mm_count, direction)`` array triple per query, loci
        relative to the entry), then the triples of each extra entry in
        ``extras`` order (in that extra's own coordinate frame), then
        the batch's compiled queries, so the caller compiles none
        again.  No hit objects are built: the variant layer diffs the
        triples and renders site text only for the rows it reports.
        """
        if not queries:
            raise ValueError(
                "query_batch_with_extras needs at least one query")
        queries = list(queries)
        extras = list(extras)
        compiled = self._compile_batch(queries)
        with self._stats_lock:
            self._entries_scanned += len(self._entries) + len(extras)
        empty = empty_triples(len(queries))
        found = self._compare(self._table, queries, compiled, self._seeds)
        reference = [(entry, found.get(number, empty))
                     for number, entry in enumerate(self._entries)]
        extra_triples: List[Triples] = []
        if extras:
            found = self._compare(
                pack_site_table(extras, self.compiled_pattern.plen),
                queries, compiled)
            extra_triples = [found.get(number, empty)
                             for number in range(len(extras))]
        return reference, extra_triples, compiled

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

    def _compare(self, table: PackedSites, queries: Sequence[Query],
                 compiled: Sequence[CompiledPattern],
                 seeds: Optional[Sequence[SeedList]] = None
                 ) -> Dict[int, Triples]:
        """One comparer call over ``table``, counted for
        :meth:`comparer_stats`."""
        tally: Dict[str, int] = Counter()
        found = self.pipeline.compare_resident_triples(
            table, queries, compiled, seeds=seeds, tally=tally)
        with self._stats_lock:
            self._queries_seeded += tally["queries_seeded"]
            self._rows_compared += tally["rows_compared"]
        return found

    def comparer_stats(self) -> Dict[str, object]:
        """Comparer counters for the ``stats`` server op."""
        with self._stats_lock:
            batches = self._batches
            queries_total = self._queries_total
            entries_scanned = self._entries_scanned
            queries_seeded = self._queries_seeded
            rows_compared = self._rows_compared
        return {
            # One ``query_batch`` call == one batched comparer pass over
            # the resident table.  ``queries_total`` counts the distinct
            # queries compared, so ``queries_total / batches`` proves
            # how many guides shared each launch pass — the design op's
            # no-per-guide-rescan evidence.
            "batches": batches,
            "queries_total": queries_total,
            # Entries (resident chromosomes + ephemeral variant patches)
            # the comparer visited; the variant op's single-batch proof
            # checks ``batches`` moved by one while this moved by
            # reference entries + variant windows.
            "entries_scanned": entries_scanned,
            # Queries the resident table's seed lists filtered, and the
            # rows whose mismatches were counted, summed over queries:
            # the whole table for a full-pass query, the seed
            # candidates for a seeded one.
            "queries_seeded": queries_seeded,
            "rows_compared": rows_compared,
        }

    # -- persistence ----------------------------------------------------

    def save(self, directory: str) -> None:
        """Persist the index for warm-starting a later server.

        The site arrays go to ``sites.npz`` (written via temp file +
        atomic rename); ``index.json`` records the format version, the
        manifest fingerprint and the payload's SHA-256, so :meth:`load`
        can refuse mismatched or corrupted state up front.  The 2-bit
        row table is stored alongside the site arrays, so a
        warm-started server skips the packing pass too; it derives the
        seed lists from the table again.
        """
        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)
        entries = self._entries
        table = self._table
        arrays = {
            "entry_chroms": np.array([e.chrom for e in entries],
                                     dtype=str),
            "site_offsets": np.cumsum([0] + [e.loci.size
                                             for e in entries]),
            "loci": (np.concatenate([e.loci for e in entries])
                     if entries else np.zeros(0, np.uint32)),
            "flags": (np.concatenate([e.flags for e in entries])
                      if entries else np.zeros(0, np.uint8)),
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
                "fingerprint": self.fingerprint(),
                "genome": self.assembly.name,
                "pattern": self.pattern,
                "entries": self.chunk_count,
                "sites": self.site_count,
                "sites_sha256": sites_sha,
            })
        tracing.instant("index_saved", cat="index", directory=directory)

    @classmethod
    def load(cls, directory: str, assembly: Assembly
             ) -> "GenomeSiteIndex":
        """Warm-start from a saved directory, validating everything.

        The stored fingerprint must match one recomputed from the live
        ``assembly`` plus the stored pattern — so loading an
        index against a different genome (or after the genome changed)
        refuses instead of silently serving wrong sites.  A different
        on-disk format version raises :class:`SiteIndexVersionError`
        (rebuild, don't misread).  The stored row table is reused as
        it is, and its seed lists are derived from it as :meth:`build`
        derives them.
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
        index = cls(assembly, header["pattern"])
        fingerprint = index.fingerprint()
        if header.get("fingerprint") != fingerprint:
            raise SiteIndexMismatchError(
                f"index at {directory!r} was built for a different "
                f"genome or pattern (stored fingerprint "
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
        plen = index.compiled_pattern.plen
        with np.load(io.BytesIO(blob)) as arrays:
            offsets = arrays["site_offsets"].tolist()
            loci_all = arrays["loci"]
            flags_all = arrays["flags"]
            for chrom, lo, hi in zip(arrays["entry_chroms"].tolist(),
                                     offsets, offsets[1:]):
                index._entries.append(_chromosome_entry(
                    assembly, chrom, plen, loci_all[lo:hi].copy(),
                    flags_all[lo:hi].copy()))
            index._set_table(PackedSites(
                words=arrays["table_words"],
                invalid=arrays["table_invalid"],
                loci=arrays["table_loci"],
                direction=arrays["table_direction"],
                chunk_rows=arrays["table_chunk_rows"]))
        tracing.instant("index_loaded", cat="index", directory=directory,
                        chunks=index.chunk_count,
                        sites=index.site_count)
        return index
