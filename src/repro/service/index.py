"""Memory-resident genome site index: scan once, serve many queries.

The finder kernel selects PAM-bearing candidate sites from the genome;
its output is a pure function of ``(genome, pattern, chunk layout)`` and
is completely independent of the guide queries.  A
:class:`GenomeSiteIndex` therefore runs the finder exactly once per
chunk over the whole assembly and keeps each chunk's candidate arrays
(loci within the chunk, strand flags) memory-resident.  Serving a query
then reduces to the comparer kernel over the stored candidates — the
expensive genome scan is amortized across every request that follows.

Results are pinned byte-identical to an offline search: the comparer is
re-staged from the stored host arrays through the same pipeline entry
points (:meth:`~repro.core.pipeline._BasePipeline.compare_resident_triples`,
itself built on ``compare_candidates``).  Its per-chunk output, one
``(mm_loci, mm_count, direction)`` array triple per query, is what the
index hands on: :meth:`GenomeSiteIndex.query_batch` renders it into
hits through the same
:meth:`~repro.core.pipeline.SearchAccumulator._build_hits` the chunk
loop uses, while :meth:`GenomeSiteIndex.query_batch_with_extras` returns
the triples themselves, so the variant layer builds no hit objects.

By default the index keeps its candidate windows in the *packed* 2-bit
resident form (:class:`~repro.core.pipeline.PackedSites` planes packed
once at build time), so serving runs the bit-parallel comparer — XOR +
odd-bit mask + popcount over resident uint64 words — instead of
re-gathering genome bytes per batch.  Packing requires the pattern to
fit one 64-bit word (``plen <= 32``) and every chunk byte to be
uppercase A/C/G/T/N; anything else auto-degrades the whole index to the
byte comparer (``packed_disabled_reason`` records why).  Queries with
ambiguity codes at checked positions always fall back to the byte
comparer per query, so responses stay byte-identical either way.

Persistence reuses the :mod:`repro.resilience.checkpoint` fingerprint
machinery: ``save`` writes a versioned ``index.json`` header carrying a
SHA-256 manifest fingerprint over (genome identity, pattern, chunk
size) plus a SHA-256 digest of the packed site arrays; ``load`` refuses
an index built for a different genome/pattern/chunk size
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
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.bitparallel import (acgtn_only, pack_site_windows,
                                window_packable)
from ..core.config import Query
from ..core.patterns import MISMATCH_LUT, compile_pattern
from ..core.pipeline import (DEFAULT_CHUNK_SIZE, PackedSites,
                             ResidentChunk, Triples, make_pipeline)
from ..core.records import OffTargetHit
from ..genome.assembly import Assembly
from ..observability import faults, tracing
from ..resilience.checkpoint import RunManifest, _atomic_write_json

#: Header file inside an index directory.
INDEX_MANIFEST_NAME = "index.json"

#: Packed candidate-site arrays inside an index directory.
SITES_NAME = "sites.npz"

#: Bumped on any change to the on-disk layout.  Version 2 added the
#: ``packed`` header flag and the optional 2-bit window planes.
INDEX_VERSION = 2

#: A pattern longer than this cannot pack one window per uint64.
MAX_PACKED_PATTERN = 32


# ---------------------------------------------------------------------------
# Candidate summaries: cheap per-shard feasibility bounds
# ---------------------------------------------------------------------------
#
# A shard's candidate windows can be summarized by one byte per window
# position: the OR of a small class mask (A/C/G/T/N, plus "other" for
# anything else) over every site in the shard.  For a query, a position
# contributes one *guaranteed* mismatch for every site in the shard iff
# no base class present in that column is allowed by the query there —
# so counting such columns gives a lower bound on the mismatch count of
# ANY site in the shard, per strand.  When that bound exceeds a query's
# threshold on both strands the shard cannot produce a hit for it, and
# the sharded tier skips the scatter entirely.  "Other" bytes are
# treated as always able to match, which keeps the bound conservative
# (never skips a shard that could have matched).

#: Class bit for genome bytes outside uppercase A/C/G/T/N.
SUMMARY_OTHER = np.uint8(32)

_SUMMARY_BASES = b"ACGTN"

#: 256-entry lookup: genome byte -> candidate-summary class bit.
SUMMARY_CLASS_TABLE = np.full(256, SUMMARY_OTHER, dtype=np.uint8)
for _i, _b in enumerate(_SUMMARY_BASES):
    SUMMARY_CLASS_TABLE[_b] = np.uint8(1 << _i)
del _i, _b


def window_column_profile(data: np.ndarray, loci: np.ndarray,
                          plen: int) -> np.ndarray:
    """Per-position OR of candidate-window class bits for one chunk.

    Returns a ``(plen,)`` uint8 array; position ``p``'s byte has the
    class bit of every base that appears at offset ``p`` of *some*
    candidate window.  All-zero means the chunk has no candidates.
    """
    if loci.size == 0:
        return np.zeros(plen, dtype=np.uint8)
    windows = data[loci.astype(np.int64)[:, None] + np.arange(plen)]
    return np.bitwise_or.reduce(SUMMARY_CLASS_TABLE[windows], axis=0)


def query_allowed_masks(cq) -> Tuple[np.ndarray, np.ndarray]:
    """Per-strand ``(plen,)`` class masks a compiled query can match.

    Position ``p``'s byte has the class bit of every tracked genome
    base the comparer would count as a *match* there (``MISMATCH_LUT``
    semantics: query ``N`` positions match everything, genome ``N``
    mismatches concrete query bases but not ambiguity codes).  The
    ``SUMMARY_OTHER`` bit is always set: untracked bytes are assumed
    matchable so the resulting bound stays a true lower bound.
    """
    out = []
    for codes in (cq.sequence, cq.rc_sequence):
        allowed = np.full(codes.size, SUMMARY_OTHER, dtype=np.uint8)
        for i, base in enumerate(_SUMMARY_BASES):
            allowed |= np.where(MISMATCH_LUT[codes, base] == 0,
                                np.uint8(1 << i), np.uint8(0))
        out.append(allowed)
    return out[0], out[1]


def profile_feasible(profile: np.ndarray,
                     allowed_masks: Tuple[np.ndarray, np.ndarray],
                     max_mismatches: int) -> bool:
    """Whether any site summarized by ``profile`` could be a hit.

    ``((profile & allowed) == 0).sum()`` counts columns where every
    base class present is excluded by the query — a lower bound on the
    mismatches of every individual site.  The site set is feasible when
    the bound is within threshold on either strand.  An all-zero
    profile (no candidates at all) is never feasible.
    """
    if not profile.any():
        return False
    for allowed in allowed_masks:
        bound = int(((profile & allowed) == 0).sum())
        if bound <= max_mismatches:
            return True
    return False


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


@dataclass
class _IndexedChunk:
    """One chunk's resident finder output.

    ``data`` is a zero-copy view over the assembly's chromosome array,
    cached at build/load time so serving never re-fetches bases per
    batch; ``packed`` holds the resident 2-bit window planes when the
    index is in packed mode.
    """

    chrom: str
    start: int
    scan_length: int
    length: int  # chunk data length in bases (scan region + overlap)
    loci: np.ndarray   # uint32 candidate offsets within the chunk
    flags: np.ndarray  # uint8 strand flags, as the finder emitted them
    data: Optional[np.ndarray] = None
    packed: Optional[PackedSites] = None


class GenomeSiteIndex:
    """Resident candidate-site index over one assembly and PAM pattern.

    Build once with :meth:`build` (or :meth:`load` from a saved
    directory), then call :meth:`query_batch` any number of times; each
    call runs only the comparer, batched across all given queries, over
    the stored candidates.
    """

    def __init__(self, assembly: Assembly, pattern: str,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 api: str = "sycl", device: str = "MI100",
                 variant: str = "base", mode: str = "vectorized",
                 work_group_size: int = 256, packed: bool = True):
        if chunk_size < 1:
            raise ValueError(
                f"chunk size must be >= 1, got {chunk_size}")
        self.assembly = assembly
        self.pattern = pattern.upper()
        self.compiled_pattern = compile_pattern(self.pattern)
        self.chunk_size = int(chunk_size)
        self.api = api
        self.device = device
        self.pipeline = make_pipeline(api=api, device=device,
                                      variant=variant, mode=mode,
                                      chunk_size=chunk_size,
                                      work_group_size=work_group_size)
        self.build_wall_s = 0.0
        self._chunks: List[_IndexedChunk] = []
        #: Effective comparer mode; may be degraded from the request.
        self.packed = bool(packed)
        self.packed_disabled_reason: Optional[str] = None
        if self.packed and self.compiled_pattern.plen \
                > MAX_PACKED_PATTERN:
            self._disable_packed(
                f"pattern length {self.compiled_pattern.plen} exceeds "
                f"the {MAX_PACKED_PATTERN}-base packed window")
        self._stats_lock = threading.Lock()
        self._queries_packed = 0
        self._queries_fallback = 0
        self._batches = 0
        self._queries_total = 0
        self._entries_scanned = 0

    def _disable_packed(self, reason: str) -> None:
        """Degrade the whole index to the byte comparer, keeping note."""
        self.packed = False
        self.packed_disabled_reason = reason
        for entry in self._chunks:
            entry.packed = None
        tracing.instant("index_packed_disabled", cat="index",
                        reason=reason)

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
    def entries(self) -> Sequence[_IndexedChunk]:
        """Read-only view of the per-chunk resident candidate arrays.

        The sharded serving tier partitions these by chunk and
        publishes each shard's slice through shared memory.
        """
        return tuple(self._chunks)

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, assembly: Assembly, pattern: str,
              chunk_size: int = DEFAULT_CHUNK_SIZE,
              api: str = "sycl", device: str = "MI100",
              variant: str = "base", mode: str = "vectorized",
              work_group_size: int = 256,
              fault_plan: Optional[str] = None,
              max_retries: int = 2,
              packed: bool = True) -> "GenomeSiteIndex":
        """Scan the whole assembly through the finder kernel once.

        ``fault_plan`` accepts the same deterministic spec the streaming
        engine uses (:mod:`repro.observability.faults`); an injected
        failure on a chunk is retried up to ``max_retries`` times, so a
        transient fault during the build never changes the index
        contents — the serving-equivalence tests pin this down.

        ``packed=True`` (default) additionally packs every chunk's
        candidate windows into resident 2-bit planes right after the
        finder pass; a chunk byte outside uppercase A/C/G/T/N (or a
        pattern longer than 32) degrades the whole index to the byte
        comparer instead of serving wrong or lossy site strings.
        """
        index = cls(assembly, pattern, chunk_size=chunk_size, api=api,
                    device=device, variant=variant, mode=mode,
                    work_group_size=work_group_size, packed=packed)
        injector = faults.resolve_injector(fault_plan, device=device)
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
            entry = _IndexedChunk(
                chrom=chunk.chrom, start=int(chunk.start),
                scan_length=int(chunk.scan_length),
                length=int(chunk.data.size),
                loci=np.ascontiguousarray(loci, dtype=np.uint32),
                flags=np.ascontiguousarray(flags, dtype=np.uint8),
                data=chunk.data)
            if index.packed:
                if acgtn_only(chunk.data):
                    entry.packed = pack_site_windows(
                        chunk.data, entry.loci, plen)
                else:
                    index._disable_packed(
                        f"chunk {number} ({chunk.chrom}:{chunk.start}) "
                        f"holds bytes outside uppercase A/C/G/T/N")
            index._chunks.append(entry)
        index.build_wall_s = time.perf_counter() - started
        tracing.instant("index_built", cat="index",
                        chunks=index.chunk_count,
                        sites=index.site_count,
                        packed=index.packed)
        return index

    # -- queries --------------------------------------------------------

    def query_batch(self, queries: Sequence[Query]
                    ) -> List[List[OffTargetHit]]:
        """Run one batched comparer pass for every query at once.

        Returns one hit list per query, in input order.  All queries of
        a micro-batch — potentially from many concurrent requests —
        ride in a single comparer launch per chunk, which is the
        continuous-batching payoff: launch count stays ``chunks``, not
        ``chunks x requests``.
        """
        if not queries:
            return []
        plen = self.compiled_pattern.plen
        for query in queries:
            if len(query.sequence) != plen:
                raise ValueError(
                    f"query {query.sequence!r} has length "
                    f"{len(query.sequence)}, index pattern "
                    f"{self.pattern!r} has length {plen}")
        queries = list(queries)
        compiled = [compile_pattern(q.sequence) for q in queries]
        with self._stats_lock:
            self._batches += 1
            self._queries_total += len(compiled)
            if self.packed:
                packed_n = sum(1 for cq in compiled
                               if window_packable(cq))
                self._queries_packed += packed_n
                self._queries_fallback += len(compiled) - packed_n
        hits: List[List[OffTargetHit]] = [[] for _ in queries]
        scanned = 0
        for entry_hits in self.pipeline.compare_resident(
                self._resident_entries(), queries, compiled,
                batched=True):
            scanned += 1
            for qi, query_hits in enumerate(entry_hits):
                hits[qi].extend(query_hits)
        with self._stats_lock:
            self._entries_scanned += scanned
        return hits

    def query_batch_with_extras(
            self, queries: Sequence[Query],
            extras: Sequence[ResidentChunk],
    ) -> Tuple[List[Tuple[ResidentChunk, Triples]], List[Triples], int]:
        """One comparer batch over resident chunks *plus* extras.

        ``extras`` are ephemeral, request-scoped resident entries —
        the variant layer's patched haplotype chunks.  They ride the
        *same* single batched comparer pass as the resident reference
        chunks (the ``batches`` counter moves by exactly one), which
        is the whole point: searching K haplotypes costs one pass, not
        K+1.

        Returns ``(reference, extra_triples, reference_chunks)``:
        every scanned resident chunk paired with its comparer triples
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
        plen = self.compiled_pattern.plen
        for query in queries:
            if len(query.sequence) != plen:
                raise ValueError(
                    f"query {query.sequence!r} has length "
                    f"{len(query.sequence)}, index pattern "
                    f"{self.pattern!r} has length {plen}")
        queries = list(queries)
        extras = list(extras)
        compiled = [compile_pattern(q.sequence) for q in queries]
        n_ref = sum(1 for entry in self._chunks if entry.loci.size)
        with self._stats_lock:
            self._batches += 1
            self._queries_total += len(compiled)
            self._entries_scanned += n_ref + len(extras)
            if self.packed:
                packed_n = sum(1 for cq in compiled
                               if window_packable(cq))
                self._queries_packed += packed_n
                self._queries_fallback += len(compiled) - packed_n

        def compare(entry: ResidentChunk) -> Triples:
            return self.pipeline.compare_resident_triples(
                entry, queries, compiled, batched=True)

        reference = [(entry, compare(entry))
                     for entry in self._resident_entries()]
        return reference, [compare(entry) for entry in extras], n_ref

    def resident_chunk(self, number: int) -> ResidentChunk:
        """Chunk ``number`` as a comparer-ready resident entry.

        Chunk bases were cached (as zero-copy views over the assembly)
        at build/load time, so no per-batch ``assembly.fetch`` happens
        on the serving hot path; in packed mode the resident 2-bit
        planes ride along for the bit-parallel comparer.
        """
        entry = self._chunks[number]
        data = entry.data
        if data is None:  # pre-cache index state (defensive)
            data = self.assembly.fetch(entry.chrom, entry.start,
                                       entry.start + entry.length)
            entry.data = data
        return ResidentChunk(chrom=entry.chrom, start=entry.start,
                             scan_length=entry.scan_length, data=data,
                             loci=entry.loci, flags=entry.flags,
                             packed=entry.packed)

    def _resident_entries(self):
        """Yield every non-empty chunk through :meth:`resident_chunk`."""
        for number, entry in enumerate(self._chunks):
            if entry.loci.size:
                yield self.resident_chunk(number)

    def comparer_stats(self) -> Dict[str, object]:
        """Comparer-mode introspection for the ``stats`` server op."""
        with self._stats_lock:
            queries_packed = self._queries_packed
            queries_fallback = self._queries_fallback
            batches = self._batches
            queries_total = self._queries_total
            entries_scanned = self._entries_scanned
        return {
            "mode": "packed" if self.packed else "byte",
            "packed_disabled_reason": self.packed_disabled_reason,
            "queries_packed": queries_packed,
            "queries_fallback": queries_fallback,
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
        can refuse mismatched or corrupted state up front.  A packed
        index persists its 2-bit window planes alongside the site
        arrays, so a warm-started server skips the packing pass too.
        """
        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)
        chrom_names = sorted({entry.chrom for entry in self._chunks})
        chrom_ids = {name: i for i, name in enumerate(chrom_names)}
        offsets = np.zeros(len(self._chunks) + 1, dtype=np.int64)
        for i, entry in enumerate(self._chunks):
            offsets[i + 1] = offsets[i] + entry.loci.size
        arrays = {
            "chunk_chrom": np.array(
                [chrom_ids[e.chrom] for e in self._chunks],
                dtype=np.int64),
            "chunk_start": np.array([e.start for e in self._chunks],
                                    dtype=np.int64),
            "chunk_scan": np.array(
                [e.scan_length for e in self._chunks], dtype=np.int64),
            "chunk_length": np.array([e.length for e in self._chunks],
                                     dtype=np.int64),
            "site_offsets": offsets,
            "loci": (np.concatenate([e.loci for e in self._chunks])
                     if self._chunks else np.zeros(0, np.uint32)),
            "flags": (np.concatenate([e.flags for e in self._chunks])
                      if self._chunks else np.zeros(0, np.uint8)),
        }
        if self.packed:
            arrays["packed_words"] = (
                np.concatenate([e.packed.words for e in self._chunks])
                if self._chunks else np.zeros(0, np.uint64))
            arrays["packed_invalid"] = (
                np.concatenate([e.packed.invalid
                                for e in self._chunks])
                if self._chunks else np.zeros(0, np.uint64))
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
                "packed": self.packed,
            })
        tracing.instant("index_saved", cat="index", directory=directory)

    @classmethod
    def load(cls, directory: str, assembly: Assembly,
             api: str = "sycl", device: str = "MI100",
             variant: str = "base", mode: str = "vectorized",
             work_group_size: int = 256,
             packed: bool = True) -> "GenomeSiteIndex":
        """Warm-start from a saved directory, validating everything.

        The stored fingerprint must match one recomputed from the live
        ``assembly`` plus the stored pattern/chunk size — so loading an
        index against a different genome (or after the genome changed)
        refuses instead of silently serving wrong sites.  A different
        on-disk format version raises :class:`SiteIndexVersionError`
        (rebuild, don't misread).  ``packed`` selects the resident
        comparer mode: stored planes are reused when present, packed
        fresh from the assembly otherwise.
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
                    chunk_size=int(header["chunk_size"]), api=api,
                    device=device, variant=variant, mode=mode,
                    work_group_size=work_group_size, packed=packed)
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
        plen = index.compiled_pattern.plen
        with np.load(io.BytesIO(blob)) as arrays:
            chrom_names = list(header["chrom_names"])
            offsets = arrays["site_offsets"]
            loci_all = arrays["loci"]
            flags_all = arrays["flags"]
            stored_words = (arrays["packed_words"]
                            if "packed_words" in arrays else None)
            stored_invalid = (arrays["packed_invalid"]
                              if "packed_invalid" in arrays else None)
            for i in range(arrays["chunk_start"].size):
                lo, hi = int(offsets[i]), int(offsets[i + 1])
                start = int(arrays["chunk_start"][i])
                length = int(arrays["chunk_length"][i])
                chrom = chrom_names[int(arrays["chunk_chrom"][i])]
                entry = _IndexedChunk(
                    chrom=chrom, start=start,
                    scan_length=int(arrays["chunk_scan"][i]),
                    length=length,
                    loci=loci_all[lo:hi].copy(),
                    flags=flags_all[lo:hi].copy(),
                    data=assembly.fetch(chrom, start, start + length))
                if index.packed:
                    if stored_words is not None:
                        entry.packed = PackedSites(
                            words=stored_words[lo:hi].copy(),
                            invalid=stored_invalid[lo:hi].copy())
                    elif acgtn_only(entry.data):
                        entry.packed = pack_site_windows(
                            entry.data, entry.loci, plen)
                    else:
                        index._disable_packed(
                            f"chunk {i} ({chrom}:{start}) holds bytes "
                            f"outside uppercase A/C/G/T/N")
                index._chunks.append(entry)
        tracing.instant("index_loaded", cat="index", directory=directory,
                        chunks=index.chunk_count,
                        sites=index.site_count, packed=index.packed)
        return index
