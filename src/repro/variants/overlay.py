"""Haplotype diff-layer overlay and variant-aware off-target search.

The naive way to search K haplotypes is to splice K full genome
copies and build K full site indexes — K+1 finder scans, K+1 packed
re-packs, K+1 resident copies, for genomes that differ from the
reference in a handful of bases.  This module does the incremental
version:

* :class:`HaplotypeOverlay` is a *diff layer* over one chromosome:
  piecewise segments that reference the assembly's bytes zero-copy
  outside variant intervals and small alt arrays inside them, plus
  monotone coordinate maps between reference and haplotype positions.
  Fetching a window only materializes the bytes of that window —
  bases away from a variant are never copied, never re-scanned, never
  re-packed;
* :func:`search_variants` computes the site starts a haplotype's
  variants can possibly affect (a variant at ``pos`` replacing ``ref``
  perturbs exactly the site starts in ``[pos - plen + 1,
  pos + len(ref))``), merges them per chromosome into **variant
  windows**, builds one **patch entry** per window — a finder scan
  over just that window of the haplotype — and rides the reference
  *and* all patches through one comparer batch
  (:meth:`GenomeSiteIndex.query_batch_with_extras`: one pass over the
  resident row table, one over a row table packed from the patches);
* the comparer's output stays columnar — per entry and query, arrays
  of loci, mismatch counts and strands.  Patch rows are projected back
  to reference coordinates through the overlay's coordinate map, and
  each (haplotype, chromosome, query) layer is diffed against the
  reference rows inside its windows on fixed-width byte keys of
  (position, strand, site, mismatches), so sites that merely
  *shifted* downstream of an indel cancel against their reference
  twins.  Event rows, and their site text, are built only for the
  real per-haplotype **gained**/**lost** off-targets, each with
  provenance: the haplotype and the causal variant whose interval the
  site's window overlaps.

The wire payload (:func:`variant_payload`) is the single source of
key order for the ``variant`` op, shared by the in-process API, the
server, and the router, so responses are byte-identical across
serving tiers.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import (Any, Dict, FrozenSet, List, Optional, Sequence,
                    Tuple)

import numpy as np

from ..core.config import Query
from ..core.patterns import CompiledPattern
from ..core.pipeline import ResidentChunk
from ..core.records import render_sites, site_strings
from ..genome.assembly import Chunk
from .model import Haplotype, Variant, VariantError

#: Wire row layout for one gained/lost event.  ``position`` is the
#: site's reference-projected coordinate (what you would compare
#: against a reference search); ``hap_position`` the coordinate on the
#: haplotype sequence, ``-1`` for lost sites (they have no haplotype
#: locus).  ``variant`` indexes the causal variant within the
#: haplotype's normalized variant list, ``-1`` when no single variant's
#: interval overlaps the site window.
EVENT_FIELDS = ("haplotype", "variant", "change", "query", "chrom",
                "position", "hap_position", "strand", "mismatches",
                "site")

_CHANGE_RANK = {"gained": 0, "lost": 1}


class HaplotypeOverlay:
    """One chromosome with one haplotype's variants applied, lazily.

    Maintains piecewise segments: reference spans are *views* into the
    assembly's byte array (zero-copy), variant spans are small alt
    arrays.  :meth:`fetch` materializes only the requested window;
    :attr:`materialized_bases` counts the bytes actually copied, which
    is how the overlay's central claim — bases away from a variant are
    shared by reference, not duplicated — is audited.
    """

    def __init__(self, chrom: str, sequence: np.ndarray,
                 variants: Sequence[Variant]):
        self.chrom = chrom
        self.reference = sequence
        self.materialized_bases = 0
        n = int(sequence.size)
        ordered = sorted(variants, key=lambda v: (v.position, v.end))
        for prev, cur in zip(ordered, ordered[1:]):
            if cur.position < prev.end:
                raise VariantError(
                    f"variants {prev.describe()} and {cur.describe()} "
                    f"overlap on {chrom!r}")
        for variant in ordered:
            if variant.chrom != chrom:
                raise VariantError(
                    f"variant {variant.describe()} does not belong to "
                    f"chromosome {chrom!r}")
            if variant.end > n:
                raise VariantError(
                    f"variant {variant.describe()} runs past the end "
                    f"of {chrom!r} (length {n})")
            found = sequence[variant.position:variant.end] \
                .tobytes().decode("ascii")
            if found != variant.ref:
                raise VariantError(
                    f"variant {variant.describe()}: reference bases at "
                    f"{chrom}:{variant.position} are {found!r}, not "
                    f"{variant.ref!r}")
        self.variants: Tuple[Variant, ...] = tuple(ordered)

        # Interval tables, one row per variant in ``variants`` order:
        # the replaced reference interval and the alt span on the
        # haplotype.  The coordinate maps and causal-variant lookup
        # read them.
        self.ref_starts: List[int] = []
        self.ref_ends: List[int] = []
        self.hap_starts: List[int] = []
        self.hap_ends: List[int] = []
        # Piecewise segments: (hap_start, hap_end, ref_start, alt).
        # ``alt is None`` marks a reference span starting at
        # ``ref_start``; otherwise ``alt`` holds the variant bytes.
        self._segments: List[Tuple[int, int, int,
                                   Optional[np.ndarray]]] = []
        self._segment_starts: List[int] = []
        shift = 0
        ref_cursor = 0
        for variant in self.variants:
            if variant.position > ref_cursor:
                hap_lo = ref_cursor + shift
                self._segments.append(
                    (hap_lo, variant.position + shift, ref_cursor, None))
            hap_lo = variant.position + shift
            alt = np.frombuffer(variant.alt.encode("ascii"),
                                dtype=np.uint8)
            self.ref_starts.append(variant.position)
            self.ref_ends.append(variant.end)
            self.hap_starts.append(hap_lo)
            self.hap_ends.append(hap_lo + alt.size)
            self._segments.append(
                (hap_lo, hap_lo + alt.size, variant.position, alt))
            shift += variant.shift
            ref_cursor = variant.end
        if ref_cursor < n:
            self._segments.append(
                (ref_cursor + shift, n + shift, ref_cursor, None))
        self.length = n + shift
        self._segment_starts = [seg[0] for seg in self._segments]

    # -- coordinate maps ------------------------------------------------

    def map_ref_to_hap(self, position: int) -> int:
        """Monotone reference -> haplotype coordinate map.

        Positions strictly inside a variant's replaced interval clamp
        to the corresponding offset of its alt span — there is no
        exact image for a deleted base, and a clamped monotone map is
        all boundary translation needs.
        """
        j = bisect_right(self.ref_starts, position)
        if j == 0:
            return position
        v = j - 1
        if position >= self.ref_ends[v]:
            return position + (self.hap_ends[v] - self.ref_ends[v])
        offset = min(position - self.ref_starts[v],
                     self.hap_ends[v] - self.hap_starts[v])
        return self.hap_starts[v] + offset

    def map_hap_to_ref(self, position: int) -> int:
        """Monotone haplotype -> reference coordinate map (clamped)."""
        j = bisect_right(self.hap_starts, position)
        if j == 0:
            return position
        v = j - 1
        if position >= self.hap_ends[v]:
            return position - (self.hap_ends[v] - self.ref_ends[v])
        offset = min(position - self.hap_starts[v],
                     self.ref_ends[v] - self.ref_starts[v])
        return self.ref_starts[v] + offset

    def map_hap_to_ref_array(self, positions: np.ndarray) -> np.ndarray:
        """:meth:`map_hap_to_ref` over an array of positions (int64)."""
        positions = np.asarray(positions, dtype=np.int64)
        projected = positions.copy()
        j = np.searchsorted(self.hap_starts, positions, side="right")
        inside = j > 0
        v = j[inside] - 1
        p = positions[inside]
        hap_starts = np.asarray(self.hap_starts, dtype=np.int64)[v]
        hap_ends = np.asarray(self.hap_ends, dtype=np.int64)[v]
        ref_starts = np.asarray(self.ref_starts, dtype=np.int64)[v]
        ref_ends = np.asarray(self.ref_ends, dtype=np.int64)[v]
        projected[inside] = np.where(
            p >= hap_ends, p - (hap_ends - ref_ends),
            ref_starts + np.minimum(p - hap_starts,
                                    ref_ends - ref_starts))
        return projected

    # -- byte access ----------------------------------------------------

    def fetch(self, start: int, end: int) -> np.ndarray:
        """Haplotype bytes ``[start, end)``, materializing lazily.

        A window falling entirely inside one reference span returns a
        zero-copy view of the assembly's array; windows crossing a
        variant concatenate just the pieces they cover.
        """
        if not 0 <= start <= end <= self.length:
            raise VariantError(
                f"window [{start}, {end}) outside haplotype "
                f"{self.chrom!r} of length {self.length}")
        if start == end:
            return np.zeros(0, dtype=np.uint8)
        j = bisect_right(self._segment_starts, start) - 1
        pieces: List[np.ndarray] = []
        cursor = start
        while cursor < end:
            hap_lo, hap_hi, ref_lo, alt = self._segments[j]
            take = min(hap_hi, end)
            lo = cursor - hap_lo
            hi = take - hap_lo
            if alt is None:
                pieces.append(self.reference[ref_lo + lo:ref_lo + hi])
            else:
                pieces.append(alt[lo:hi])
            cursor = take
            j += 1
        if len(pieces) == 1:
            return pieces[0]
        window = np.concatenate(pieces)
        self.materialized_bases += int(window.size)
        return window


def affected_site_interval(variant: Variant, plen: int
                           ) -> Tuple[int, int]:
    """Reference site-start interval a variant can perturb.

    A site starting at ``s`` reads window ``[s, s + plen)``; it
    overlaps the replaced interval ``[pos, pos + len(ref))`` exactly
    when ``s`` lies in ``[pos - plen + 1, pos + len(ref))``.  Sites
    outside carry unchanged bytes (possibly shifted), which the
    projection step cancels.
    """
    return (max(0, variant.position - plen + 1), variant.end)


@dataclass
class _Patch:
    """One variant window of one haplotype, ready for the comparer."""

    hap_index: int
    chrom: str
    ref_bounds: Tuple[int, int]     # reference site starts it replaces
    entry: ResidentChunk            # loci/flags over hap bytes


#: One (haplotype, chromosome) layer: its overlay, and the index in
#: the haplotype's variant list of each of the overlay's variants.
_Layer = Tuple[HaplotypeOverlay, List[int]]


def _build_patches(index: Any, haplotypes: Sequence[Haplotype],
                   allowed: FrozenSet[str],
                   ) -> Tuple[List[_Patch], Dict[Tuple[int, str], _Layer]]:
    """Layers plus one patch entry per variant window.

    Per haplotype and chromosome, the variants' affected site
    intervals merge into runs wherever they overlap or touch.  A run
    ``[lo, hi)`` covers the reference site starts ``[lo, hi + 1)`` and
    the haplotype site starts ``[map_ref_to_hap(lo),
    map_ref_to_hap(hi) + 1)``, each clamped to its scan end.  The
    ``+ 1`` is needed on both sides: a site starting inside an
    insertion projects to ``hi``, the reference position just past the
    variant, and must meet its reference twin there, while the
    reference site at ``hi`` must meet its own haplotype image.
    Merging touching runs keeps those windows from sharing a position,
    and the clamp hands a run that reaches the reference scan end the
    whole haplotype tail.  A side shorter than the pattern has no
    site: its windows are empty, so a haplotype chromosome that shrinks
    below the pattern loses every reference site in them, and one that
    grows past it gains every site it scans.
    """
    assembly = index.assembly
    compiled = index.compiled_pattern
    plen = compiled.plen
    overlap = plen - 1
    patches: List[_Patch] = []
    layers: Dict[Tuple[int, str], _Layer] = {}
    chrom_order = [c.name for c in assembly.chromosomes]
    for hap_index, haplotype in enumerate(haplotypes):
        by_chrom: Dict[str, List[int]] = {}
        for number, variant in enumerate(haplotype.variants):
            if variant.chrom in allowed:
                by_chrom.setdefault(variant.chrom, []).append(number)
        for chrom in chrom_order:
            numbers = by_chrom.get(chrom)
            if not numbers:
                continue
            sequence = assembly[chrom].sequence
            overlay = HaplotypeOverlay(
                chrom, sequence,
                [haplotype.variants[number] for number in numbers])
            # In the overlay's (position, end) order.
            numbers.sort(key=lambda number: (
                haplotype.variants[number].position,
                haplotype.variants[number].end))
            layers[(hap_index, chrom)] = (overlay, numbers)
            ref_scan_end = max(sequence.size - overlap, 0)
            hap_scan_end = max(overlay.length - overlap, 0)
            runs: List[List[int]] = []
            for variant in overlay.variants:
                lo, hi = affected_site_interval(variant, plen)
                if runs and lo <= runs[-1][1]:
                    runs[-1][1] = hi
                else:
                    runs.append([lo, hi])
            for lo, hi in runs:
                hap_lo = min(overlay.map_ref_to_hap(lo), hap_scan_end)
                hap_hi = min(overlay.map_ref_to_hap(hi) + 1,
                             hap_scan_end)
                data = overlay.fetch(hap_lo, min(hap_hi + overlap,
                                                 overlay.length))
                chunk = Chunk(chrom=chrom, start=hap_lo, data=data,
                              scan_length=hap_hi - hap_lo)
                _count, loci, flags = index.pipeline.find_candidates(
                    chunk, compiled)
                patches.append(_Patch(
                    hap_index=hap_index, chrom=chrom,
                    ref_bounds=(min(lo, ref_scan_end),
                                min(hi + 1, ref_scan_end)),
                    entry=ResidentChunk(
                        chrom=chrom, start=hap_lo,
                        scan_length=hap_hi - hap_lo, data=data,
                        loci=loci, flags=flags)))
    return patches, layers


@dataclass
class _SiteRows:
    """One query's comparer rows over some entries, as columns."""

    position: np.ndarray    # int64 site start in the entries' frame
    minus: np.ndarray       # bool, True for "-" sites
    mismatches: np.ndarray  # int64
    sites: np.ndarray       # (n, plen) uint8 display bytes

    @classmethod
    def render(cls, entry: ResidentChunk, triple: Tuple[np.ndarray, ...],
               cq: CompiledPattern) -> "_SiteRows":
        loci, mismatches, direction = triple
        minus = direction != ord("+")
        return cls(position=entry.start + loci.astype(np.int64),
                   minus=minus, mismatches=mismatches.astype(np.int64),
                   sites=render_sites(entry.data, loci, minus,
                                      cq.sequence, cq.rc_sequence))

    @classmethod
    def concat(cls, parts: Sequence["_SiteRows"], plen: int
               ) -> "_SiteRows":
        if not parts:
            return cls(np.zeros(0, np.int64), np.zeros(0, bool),
                       np.zeros(0, np.int64),
                       np.zeros((0, plen), np.uint8))
        return cls(*(np.concatenate(column) for column in zip(
            *((p.position, p.minus, p.mismatches, p.sites)
              for p in parts))))

    def strand(self, i: int) -> str:
        return "-" if self.minus[i] else "+"

    def keys(self, position: np.ndarray) -> np.ndarray:
        """One fixed-width byte key per row: (position, strand, site,
        mismatches), the identity a site keeps across haplotypes."""
        n, plen = self.sites.shape
        raw = np.empty((n, 13 + plen), dtype=np.uint8)
        raw[:, :8] = position.astype(">i8").view(np.uint8).reshape(n, 8)
        raw[:, 8] = self.minus
        raw[:, 9:13] = self.mismatches.astype(">i4").view(np.uint8) \
            .reshape(n, 4)
        raw[:, 13:] = self.sites
        return raw.view(np.dtype((np.void, 13 + plen))).ravel()


def _first_of_each(ids: np.ndarray, position: np.ndarray) -> np.ndarray:
    """Row indices keeping, per distinct id, the smallest position.

    Several haplotype sites inside an insertion can project to one
    reference key; the one nearest the insertion's start stands for
    them.
    """
    order = np.lexsort((position, ids))
    first = np.ones(order.size, dtype=bool)
    first[1:] = ids[order[1:]] != ids[order[:-1]]
    return np.sort(order[first])


def _diff_layer(ref: _SiteRows, hap: _SiteRows, projected: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Row indices of the gained (``hap``) and lost (``ref``) sites.

    Haplotype rows are keyed at their reference-projected position, so
    a site that merely shifted downstream of an indel meets its
    reference twin and cancels.
    """
    _, ids = np.unique(np.concatenate([ref.keys(ref.position),
                                       hap.keys(projected)]),
                       return_inverse=True)
    ref_ids, hap_ids = ids[:ref.position.size], ids[ref.position.size:]
    ref_rows = _first_of_each(ref_ids, ref.position)
    hap_rows = _first_of_each(hap_ids, hap.position)
    gained = hap_rows[~np.isin(hap_ids[hap_rows], ref_ids)]
    lost = ref_rows[~np.isin(ref_ids[ref_rows], hap_ids)]
    return gained, lost


def _causal_variant(numbers: Sequence[int], starts: Sequence[int],
                    ends: Sequence[int], span_lo: int, span_hi: int
                    ) -> int:
    """``numbers[i]`` of the first interval ``[starts[i], ends[i])``
    that overlaps the span, else -1.

    The intervals are one chromosome's, so a site never names a variant
    on another chromosome that shares its coordinates.  They are
    disjoint, non-empty and sorted, so the first one ending past
    ``span_lo`` is the only candidate.
    """
    i = bisect_right(ends, span_lo)
    if i < len(starts) and starts[i] < span_hi:
        return numbers[i]
    return -1


@dataclass
class VariantSearchResult:
    """Everything the ``variant`` op reports, tier-independent."""

    pattern: str
    queries: List[Query]
    haplotypes: List[Haplotype]
    #: Sorted wire rows, one per gained/lost site (``EVENT_FIELDS``).
    events: List[List[Any]]
    #: Per-query reference hit counts (observability).
    reference_hits: List[int]
    patched_chunks: int
    reference_chunks: int

    def payload(self) -> Dict[str, Any]:
        return variant_payload(
            self.pattern, len(self.queries),
            [h.to_payload() for h in self.haplotypes], self.events,
            self.reference_hits, self.patched_chunks,
            self.reference_chunks)


def event_sort_key(row: Sequence[Any], hap_rank: Dict[str, int],
                   query_rank: Dict[str, int],
                   chrom_rank: Dict[str, int]) -> Tuple:
    """Global deterministic order for event rows.

    Shared by :func:`search_variants` and the router's merge so a
    routed response's event list is byte-identical to a single
    server's.
    """
    return (hap_rank.get(row[0], len(hap_rank)),
            query_rank.get(row[3], len(query_rank)),
            chrom_rank.get(row[4], len(chrom_rank)),
            row[5], row[6], row[7],
            _CHANGE_RANK.get(row[2], len(_CHANGE_RANK)),
            row[8], row[9])


def sort_event_rows(rows: List[List[Any]],
                    haplotype_names: Sequence[str],
                    query_sequences: Sequence[str],
                    chromosome_order: Sequence[str]
                    ) -> List[List[Any]]:
    hap_rank = {name: i for i, name in enumerate(haplotype_names)}
    query_rank: Dict[str, int] = {}
    for sequence in query_sequences:
        query_rank.setdefault(sequence, len(query_rank))
    chrom_rank = {name: i for i, name in enumerate(chromosome_order)}
    rows.sort(key=lambda row: event_sort_key(row, hap_rank, query_rank,
                                             chrom_rank))
    return rows


def variant_payload(pattern: str, n_queries: int,
                    haplotype_rows: List[Dict[str, Any]],
                    events: List[List[Any]],
                    reference_hits: Sequence[int], patched_chunks: int,
                    reference_chunks: int) -> Dict[str, Any]:
    """The ``variant`` op's response body — single source of key order.

    Every tier (in-process, server, router) builds its
    response through this function, which is what makes the responses
    byte-identical on the wire.
    """
    summary = []
    for hap_row in haplotype_rows:
        name = hap_row["name"]
        gained = sum(1 for row in events
                     if row[0] == name and row[2] == "gained")
        lost = sum(1 for row in events
                   if row[0] == name and row[2] == "lost")
        summary.append({"haplotype": name,
                        "variants": len(hap_row["variants"]),
                        "gained": gained, "lost": lost})
    return {
        "pattern": pattern,
        "queries": int(n_queries),
        "haplotypes": haplotype_rows,
        "reference_chunks": int(reference_chunks),
        "patched_chunks": int(patched_chunks),
        "reference_hits": [int(count) for count in reference_hits],
        "summary": summary,
        "event_fields": list(EVENT_FIELDS),
        "events": events,
    }


def validate_haplotypes(index: Any, haplotypes: Sequence[Haplotype],
                        chromosomes: Optional[FrozenSet[str]]
                        ) -> FrozenSet[str]:
    """Chromosome-level validation with the partition skip rule.

    Returns the set of chromosome names variants may be applied to.  A
    variant naming a chromosome the assembly lacks raises
    :class:`VariantError` — *unless* a ``chromosomes`` filter is
    present and excludes that chromosome, in which case the variant is
    silently skipped: in a routed deployment the partition that owns
    the chromosome computes its events, and every other partition must
    not error on it.
    """
    known = {c.name for c in index.assembly.chromosomes}
    if chromosomes is None:
        allowed = known
    else:
        allowed = known & set(chromosomes)
    for haplotype in haplotypes:
        for variant in haplotype.variants:
            if variant.chrom in known:
                continue
            if chromosomes is not None and \
                    variant.chrom not in chromosomes:
                continue
            raise VariantError(
                f"variant {variant.describe()} names unknown "
                f"chromosome {variant.chrom!r}; assembly "
                f"{index.assembly.name!r} has {sorted(known)}")
    return frozenset(allowed)


def search_variants(index: Any, queries: Sequence[Query],
                    haplotypes: Sequence[Haplotype],
                    chromosomes: Optional[FrozenSet[str]] = None
                    ) -> VariantSearchResult:
    """Guide x {reference + K haplotypes} in one comparer batch.

    ``index`` is a :class:`~repro.service.index.GenomeSiteIndex` or
    anything duck-typing its surface: it must expose ``assembly``,
    ``pattern``, ``compiled_pattern``, ``pipeline`` and
    ``query_batch_with_extras``, whose compiled queries the diff
    reuses, so each query is compiled once per search.

    Only the variant windows — the site starts a run of nearby
    variants can change, plus one position past it — are re-fetched,
    re-scanned, re-packed and diffed; everything else is served from
    the resident reference index.  ``patched_chunks`` counts those
    windows.  The re-scan is the index pipeline's numpy finder
    (:meth:`~repro.core.pipeline._BasePipeline.find_candidates`), so a
    search appends no launch record and a long-lived server's memory
    does not grow with variant traffic.  Patch sites are projected to
    reference coordinates, so the returned events are exactly the sites
    each haplotype gains or loses relative to the reference —
    downstream shifts cancel.  No hit objects are built: the diff runs
    on the comparer's triples.
    """
    queries = list(queries)
    if not queries:
        raise ValueError("a variant search needs at least one query")
    haplotypes = list(haplotypes)
    if not haplotypes:
        raise VariantError(
            "a variant search needs at least one haplotype")
    allowed = validate_haplotypes(index, haplotypes, chromosomes)
    plen = index.compiled_pattern.plen

    patches, layers = _build_patches(index, haplotypes, allowed)
    reference, patch_triples, compiled = index.query_batch_with_extras(
        queries, [patch.entry for patch in patches])
    if chromosomes is not None:
        # A routed partition reports only its own chromosomes, so the
        # router's per-partition sums reproduce the single-server
        # totals.
        reference = [(entry, triples) for entry, triples in reference
                     if entry.chrom in chromosomes]

    patch_of_layer: Dict[Tuple[int, str], List[int]] = {}
    for pi, patch in enumerate(patches):
        patch_of_layer.setdefault((patch.hap_index, patch.chrom),
                                  []).append(pi)
    # The index holds one entry per chromosome.  The reference rows of
    # a variant window are rendered once per query, whichever
    # haplotypes share it.
    reference_of_chrom = {entry.chrom: (entry, triples)
                          for entry, triples in reference}
    rendered: Dict[Tuple[str, Tuple[int, int], int], _SiteRows] = {}

    def reference_rows(chrom: str, bounds: Tuple[int, int],
                       qi: int) -> _SiteRows:
        key = (chrom, bounds, qi)
        if key not in rendered:
            entry, triples = reference_of_chrom[chrom]
            position = entry.start + triples[qi][0]
            keep = (position >= bounds[0]) & (position < bounds[1])
            rendered[key] = _SiteRows.render(
                entry, tuple(column[keep] for column in triples[qi]),
                compiled[qi])
        return rendered[key]

    events: List[List[Any]] = []
    for (hap_index, chrom), layer_patches in patch_of_layer.items():
        overlay, numbers = layers[(hap_index, chrom)]
        haplotype = haplotypes[hap_index]
        intervals = [patches[pi].ref_bounds for pi in layer_patches]
        for qi, query in enumerate(queries):
            ref = _SiteRows.concat(
                [reference_rows(chrom, bounds, qi) for bounds in intervals]
                if chrom in reference_of_chrom else [], plen)
            hap = _SiteRows.concat(
                [_SiteRows.render(patches[pi].entry,
                                  patch_triples[pi][qi], compiled[qi])
                 for pi in layer_patches], plen)
            projected = overlay.map_hap_to_ref_array(hap.position)
            gained, lost = _diff_layer(ref, hap, projected)
            # A gained site's window is tested against the variants'
            # alt spans in haplotype coordinates: projected to the
            # reference, a window starting inside inserted bases would
            # miss the insertion, whose interval there is its anchor.
            for i, site in zip(gained.tolist(),
                               site_strings(hap.sites[gained])):
                hap_position = int(hap.position[i])
                events.append([
                    haplotype.name,
                    _causal_variant(numbers, overlay.hap_starts,
                                    overlay.hap_ends, hap_position,
                                    hap_position + plen),
                    "gained", query.sequence, chrom, int(projected[i]),
                    hap_position, hap.strand(i), int(hap.mismatches[i]),
                    site])
            for i, site in zip(lost.tolist(),
                               site_strings(ref.sites[lost])):
                position = int(ref.position[i])
                events.append([
                    haplotype.name,
                    _causal_variant(numbers, overlay.ref_starts,
                                    overlay.ref_ends, position,
                                    position + plen),
                    "lost", query.sequence, chrom, position, -1,
                    ref.strand(i), int(ref.mismatches[i]), site])

    sort_event_rows(events, [h.name for h in haplotypes],
                    [q.sequence for q in queries],
                    [c.name for c in index.assembly.chromosomes])
    return VariantSearchResult(
        pattern=index.pattern, queries=queries, haplotypes=haplotypes,
        events=events,
        reference_hits=[sum(int(triples[qi][0].size)
                            for _, triples in reference)
                        for qi in range(len(queries))],
        patched_chunks=len(patches),
        reference_chunks=len(reference))
