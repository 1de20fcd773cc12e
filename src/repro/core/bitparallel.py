"""Bit-parallel mismatch counting: the 2-bit comparer of related work.

The paper's related-work section describes two relevant systems: the
Cas-OFFinder authors' own optimization round ("a 2-bit sequence format,
shared local memory and atomic operations ... improving the performance
by a factor of 30 approximately") and FlashFry, a CPU tool "two to three
orders of magnitude faster" built on packed-integer comparisons.  This
module implements that algorithm once, and both the offline baseline
engine (:class:`BitParallelCasOffinder`, ``--engine bitparallel``) and
the serving index run it:

* candidate windows are packed two bits per base (A=0, C=1, G=2, T=3)
  into 64-bit words;
* mismatches against a packed query are counted in O(1) per word with
  the classic trick: ``x = a ^ b; m = (x | x >> 1) & 0x5555...;
  popcount(m)`` — every differing 2-bit group contributes exactly one
  set bit to ``m``;
* genome ``N`` (or any non-ACGT byte) at a checked position is forced to
  mismatch a concrete query base through a separate invalid-position
  plane, matching the comparer kernel's behaviour.

:func:`pack_site_table` / :func:`pack_query_windows` pack *full
windows* at fixed 2-bit offsets, ``ceil(plen / 32)`` words per window.
The site table is query-independent, so a resident index builds it
once; a batch's queries pack together on every comparer call, with no
cache to miss: one row per (candidate, strand) over all its entries, in the
served hit order (:mod:`repro.core.records`), a reverse row holding its
window's reverse complement.  :func:`compare_packed_batched` then
serves any number of queries over the table, no genome gather and no
per-entry or per-strand loop.  That comparer takes every IUPAC query of
any length: an ambiguity-code position reads the genome code back out
of the same planes and applies Listing 1's rule, under which a genome
``N`` never mismatches an ambiguity code.  Because the rows are in
served order, each query's hits come out in that order with no sort.

In front of it sits a pigeonhole seed filter, FlashFry's kind of
shortcut: the index derives :func:`seed_lists` from its table, each
row bucketed by its exact 5-base key in each segment of the pattern's
``N`` run.  A guide that must match at least one of its exact segments
to stay within its budget counts mismatches only on the rows those
buckets reach, in ascending row order; every other query (the all-``N``
PAM query, IUPAC-heavy guides, large budgets) joins one tiled pass over
the whole table.  Both paths run one mismatch count
(:func:`_count_mismatches`), so they return the same triples.  The
offline engine packs a one-chunk table per chunk and compares every
query against it in one full pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..genome.assembly import Assembly
from ..runtime.sycl import sycl_read
from .config import Query, SearchRequest
from .patterns import MISMATCH_LUT, CompiledPattern
from .pipeline import (DEFAULT_CHUNK_SIZE, PackedSites, PipelineResult,
                       ResidentChunk, SyclCasOffinder, Triples,
                       empty_triples)

# 2-bit base codes; non-ACGT bytes map to 0 and are tracked separately.
_CODE = np.zeros(256, dtype=np.uint64)
_CODE[ord("A")] = 0
_CODE[ord("C")] = 1
_CODE[ord("G")] = 2
_CODE[ord("T")] = 3

_VALID = np.zeros(256, dtype=bool)
for _b in b"ACGT":
    _VALID[_b] = True

#: Per-byte popcount lookup.
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)],
                      dtype=np.uint8)

#: A 64-bit word holds 32 two-bit bases.
BASES_PER_WORD = 32


def _popcount64_lut(values: np.ndarray) -> np.ndarray:
    """Byte-LUT population count; works for any numpy without
    ``bitwise_count`` and any array shape."""
    values = np.ascontiguousarray(values, dtype=np.uint64)
    as_bytes = values.view(np.uint8).reshape(values.shape + (8,))
    return _POPCOUNT8[as_bytes].sum(axis=-1, dtype=np.uint8)


def _popcount64_native(values: np.ndarray) -> np.ndarray:
    """Hardware-popcount path via ``np.bitwise_count`` (numpy >= 2)."""
    return np.bitwise_count(values)


#: Vectorized population count of a uint64 array (any shape), as
#: uint8.  Bound to the native ``np.bitwise_count`` ufunc when this
#: numpy has it, with the byte-LUT kept as the fallback (micro-benched
#: side by side in ``benchmarks/test_micro_kernels.py``).
popcount64 = (_popcount64_native if hasattr(np, "bitwise_count")
              else _popcount64_lut)


# ---------------------------------------------------------------------------
# The row table: the one comparer
# ---------------------------------------------------------------------------
#
# Every (candidate, strand) window is packed once into a row table,
# two bits per window position and 32 positions per uint64 word, so the
# per-batch work is XOR + fold + popcount over arrays that already live
# in memory.  The invalid plane marks non-ACGT window positions on the
# same odd-bit lattice the mismatch indicator lands on, so OR-ing it in
# forces those positions to count as mismatches exactly as
# ``MISMATCH_LUT`` does for concrete query bases.
#
# A reverse row holds the reverse complement of its window.  That is
# exact under Listing 1: complementing both sides preserves every
# entry (``LUT[c, comp g] == LUT[comp c, g]`` for all 15 IUPAC codes),
# and a non-ACGT byte is invalid on both strands.  So every row
# compares against the forward query alone.

#: 2-bit code of each concrete base's complement (A=3, C=2, G=1, T=0).
_RC_CODE = np.zeros(256, dtype=np.uint64)
_RC_CODE[_VALID] = 3 - _CODE[_VALID]

#: Invalid-plane bit per byte: 1 for anything but concrete A/C/G/T.
_INVALID = (~_VALID).astype(np.uint64)


def window_words(plen: int) -> int:
    """Number of uint64 words one packed window of ``plen`` bases spans."""
    return -(-plen // BASES_PER_WORD)


#: Rows one packing pass takes: as many whole entries as fit together,
#: or one larger entry alone.  It bounds the pass's scratch memory, and
#: a variant request's patch windows still pack in one pass per strand.
_PACK_ROWS = 1 << 14


def _pack_windows(data: np.ndarray, starts: np.ndarray, plen: int,
                  reverse: bool) -> Tuple[np.ndarray, np.ndarray]:
    """The ``words`` and ``invalid`` planes of the windows of ``data``
    at ``starts``, reverse-complemented when ``reverse``."""
    codes = _RC_CODE if reverse else _CODE
    words = np.zeros((window_words(plen), starts.size), dtype=np.uint64)
    invalid = np.zeros_like(words)
    for p in range(plen):
        base = data[starts + (plen - 1 - p if reverse else p)]
        w, shift = divmod(p, BASES_PER_WORD)
        shift = np.uint64(2 * shift)
        words[w] |= codes[base] << shift
        invalid[w] |= _INVALID[base] << shift
    return words, invalid


def _entry_groups(entry_rows: Sequence[int]) -> List[Tuple[int, int]]:
    """Ranges ``[lo, hi)`` of consecutive entries that hold at most
    ``_PACK_ROWS`` rows together, or one larger entry."""
    groups = []
    lo = rows = 0
    for c, n in enumerate(entry_rows):
        if c > lo and rows + n > _PACK_ROWS:
            groups.append((lo, c))
            lo, rows = c, 0
        rows += n
    return groups + [(lo, len(entry_rows))] if entry_rows else groups


def pack_site_table(entries: Sequence[ResidentChunk], plen: int
                    ) -> PackedSites:
    """Pack every entry's candidate windows into one resident row table.

    Rows run in the served hit order (see
    :class:`~repro.core.pipeline.PackedSites`): per entry, its forward
    rows (flags 0 and 1), then its reverse rows (flags 0 and 2), each in
    the entry's loci order.  Query-independent, so the index builds the
    table once; a variant request builds one over its patched spans.
    Consecutive entries are packed together, up to ``_PACK_ROWS`` rows:
    their bytes are joined once, so all their forward rows pack in one
    ``plen``-step pass and all their reverse rows in another, however
    many entries they are.
    """
    # Per entry, its forward run of rows, then its reverse run.
    runs = [entry.loci[(entry.flags == 0) | (entry.flags == flag)]
            for entry in entries for flag in (1, 2)]
    run_rows = np.cumsum([0] + [selected.size for selected in runs])
    n_rows = int(run_rows[-1])
    words = np.zeros((window_words(plen), n_rows), dtype=np.uint64)
    invalid = np.zeros_like(words)
    for lo, hi in _entry_groups(np.diff(run_rows[::2]).tolist()):
        group = entries[lo:hi]
        data = (group[0].data if len(group) == 1
                else np.concatenate([entry.data for entry in group]))
        data_starts = np.cumsum([0] + [entry.data.size
                                       for entry in group[:-1]])
        for strand, reverse in enumerate((False, True)):
            selected = runs[2 * lo + strand:2 * hi:2]
            sizes = [run.size for run in selected]
            # Each row's slot: its run's first row plus its rank there.
            slots = np.arange(sum(sizes)) + np.repeat(
                run_rows[2 * lo + strand:2 * hi:2]
                - np.cumsum([0] + sizes[:-1]), sizes)
            words[:, slots], invalid[:, slots] = _pack_windows(
                data, np.concatenate(selected)
                + np.repeat(data_starts, sizes), plen, reverse)
    strands = np.frombuffer(b"+-" * len(entries), dtype=np.uint8)
    return PackedSites(
        words=words, invalid=invalid,
        loci=np.concatenate(runs + [np.zeros(0, np.uint32)]),
        direction=np.repeat(strands, np.diff(run_rows)),
        chunk_rows=run_rows[::2])


#: ``_REJECTS[c, k]`` is 1 when query code ``c`` counts a mismatch
#: against the genome base with 2-bit code ``k``: the A/C/G/T columns of
#: ``MISMATCH_LUT``.
_REJECTS = MISMATCH_LUT[:, np.frombuffer(b"ACGT", dtype=np.uint8)]


class PackedWindowQuery(NamedTuple):
    """One query packed against full forward windows.

    ``words`` and ``care`` hold one uint64 per window word for the
    checked concrete A/C/G/T positions: their 2-bit codes, and bit
    ``2p`` set for each.  ``ambiguous`` lists every checked
    ambiguity-code position as ``(word, shift, rejects)``: its window
    word, its bit offset ``2p`` in that word, and the 4-entry table of
    genome codes it mismatches.
    """

    words: np.ndarray  # uint64, one per window word
    care: np.ndarray   # uint64, one per window word
    ambiguous: Tuple[Tuple[int, np.uint64, np.ndarray], ...]


def pack_query_windows(compiled_queries: Sequence[CompiledPattern]
                       ) -> List[PackedWindowQuery]:
    """Pack queries of one length, forward strand at full-window
    offsets, in one pass over all of them.

    ``N`` positions are not checked, and the window's tail past the
    query packs as ``N``.  A word's concrete codes never overlap, so
    summing them shifted into place ORs them.
    """
    if not compiled_queries:
        return []
    plen = compiled_queries[0].plen
    chars = np.full((len(compiled_queries),
                     window_words(plen) * BASES_PER_WORD), ord("N"),
                    dtype=np.uint8)
    chars[:, :plen] = np.frombuffer(
        b"".join([cq.sequence.tobytes() for cq in compiled_queries]),
        dtype=np.uint8).reshape(len(compiled_queries), plen)
    shifts = (2 * (np.arange(chars.shape[1]) % BASES_PER_WORD)
              ).astype(np.uint64)
    concrete = _VALID[chars]
    by_word = (len(compiled_queries), -1, BASES_PER_WORD)
    words = (_CODE[chars] << shifts).reshape(by_word).sum(
        axis=2, dtype=np.uint64)
    care = (concrete.astype(np.uint64) << shifts).reshape(by_word).sum(
        axis=2, dtype=np.uint64)
    ambiguous: List[List[Tuple[int, np.uint64, np.ndarray]]] = \
        [[] for _ in compiled_queries]
    for q, p in zip(*np.nonzero(~concrete & (chars != ord("N")))):
        ambiguous[q].append((int(p) // BASES_PER_WORD, shifts[p],
                             _REJECTS[chars[q, p]]))
    return [PackedWindowQuery(words=w, care=c, ambiguous=tuple(a))
            for w, c, a in zip(words, care, ambiguous)]


# ---------------------------------------------------------------------------
# Seed lists: the pigeonhole filter in front of the comparer
# ---------------------------------------------------------------------------
#
# The index pattern's ``N`` positions are cut, left to right, into
# segments of SEED_BASES positions inside one window word, and each
# row's 10-bit key in a segment is its 2-bit codes there.  Take a query
# with budget m, and E the segments where it has a concrete A/C/G/T at
# every position.  A row with at most m mismatches leaves at least
# |E| - m segments of E without a mismatch or a non-ACGT byte, and
# there its key is the query's key.  So when need = |E| - m >= 1, only
# the rows found in at least ``need`` of the query's key buckets can
# hit, and only they are compared.  A non-ACGT byte packs as A, so a
# row holding one inside a segment may sit in any bucket; the
# comparison rejects it either way.

#: Bases per seed segment: a 10-bit key, 1,024 buckets per segment.
SEED_BASES = 5
_SEED_KEYS = 1 << (2 * SEED_BASES)
_SEED_MASK = np.uint64(_SEED_KEYS - 1)
#: A segment's care bits when all its positions are concrete.
_SEED_CARE = np.uint64(int("01" * SEED_BASES, 2))


@dataclass(frozen=True)
class SeedList:
    """One segment's table rows, bucketed by their key there.

    The segment's first position packs at bit ``shift`` of window word
    ``word``.  Bucket ``k`` is ``rows[offsets[k]:offsets[k + 1]]``, its
    rows ascending.
    """

    word: int
    shift: np.uint64
    rows: np.ndarray     # uint32, stably sorted by key
    offsets: np.ndarray  # int64 (1025,)


def seed_lists(table: PackedSites, pattern: str) -> Tuple[SeedList, ...]:
    """The seed lists of a row table packed under index ``pattern``.

    Query-independent, like the table: the index derives them once,
    one segment at a time, after it builds or loads the table.  Under
    SpCas9's ``N`` x 21 + ``RG`` there are four segments, over window
    positions 0-19.
    """
    seeds = []
    p = 0
    while p + SEED_BASES <= len(pattern):
        word, offset = divmod(p, BASES_PER_WORD)
        if (pattern[p:p + SEED_BASES] != "N" * SEED_BASES
                or offset + SEED_BASES > BASES_PER_WORD):
            p += 1
            continue
        shift = np.uint64(2 * offset)
        keys = np.right_shift(table.words[word], shift)
        keys &= _SEED_MASK
        keys = keys.astype(np.uint16)
        offsets = np.zeros(_SEED_KEYS + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys, minlength=_SEED_KEYS),
                  out=offsets[1:])
        seeds.append(SeedList(
            word=word, shift=shift,
            rows=np.argsort(keys, kind="stable").astype(np.uint32),
            offsets=offsets))
        p += SEED_BASES
    return tuple(seeds)


def _seeded_rows(pq: PackedWindowQuery, max_mismatches: int,
                 seeds: Sequence[SeedList]) -> Optional[np.ndarray]:
    """The rows a query must compare, ascending, or ``None`` when its
    budget leaves the seeds nothing to filter on (need < 1)."""
    buckets = []
    for seed in seeds:
        if ((pq.care[seed.word] >> seed.shift) & _SEED_CARE) == _SEED_CARE:
            key = int((pq.words[seed.word] >> seed.shift) & _SEED_MASK)
            buckets.append(
                seed.rows[seed.offsets[key]:seed.offsets[key + 1]])
    need = len(buckets) - max_mismatches
    if need < 1:
        return None
    rows = np.sort(np.concatenate(buckets)).astype(np.intp)
    # Keep each row whose run in the sorted ids opens at i and still
    # holds at i + need - 1.
    first = np.empty(rows.size, dtype=bool)
    first[:1] = True
    np.not_equal(rows[1:], rows[:-1], out=first[1:])
    opens = max(rows.size - need + 1, 0)
    if need > 1:
        first[:opens] &= rows[need - 1:] == rows[:opens]
    return rows[:opens][first[:opens]]


_ONE = np.uint64(1)
_THREE = np.uint64(3)


def _count_mismatches(planes: Sequence[Tuple[np.ndarray, np.ndarray]],
                      pq: PackedWindowQuery, x: np.ndarray,
                      folded: np.ndarray, counts: np.ndarray
                      ) -> np.ndarray:
    """Listing 1 mismatch counts of one packed query, into ``counts``.

    ``planes`` holds one ``(words, invalid)`` pair per window word over
    the rows to count (a tile of the table, or gathered columns);
    ``x`` and ``folded`` are uint64 scratch of their width.
    """
    counts.fill(0)
    for (words, invalid), qword, care in zip(planes, pq.words, pq.care):
        if not care:
            continue
        np.bitwise_xor(words, qword, out=x)
        np.right_shift(x, _ONE, out=folded)
        x |= folded
        x |= invalid
        x &= care
        counts += popcount64(x)
    for w, shift, rejects in pq.ambiguous:
        words, invalid = planes[w]
        valid = ((invalid >> shift) & _ONE) == 0
        counts += rejects[(words >> shift) & _THREE] & valid
    return counts


#: Rows one comparer step spans.  Every full-pass query of a batch
#: passes over a tile before the next tile starts, so the tile's planes
#: and the step's uint64 temporaries (512 KiB each) stay cache-resident
#: at any batch width; one step over the whole table is slower.
_TILE_ROWS = 1 << 16


def compare_packed_batched(table: PackedSites, queries: Sequence[Query],
                           compiled_queries: Sequence[CompiledPattern],
                           seeds: Optional[Sequence[SeedList]] = None,
                           tally: Optional[Dict[str, int]] = None,
                           ) -> Dict[int, Triples]:
    """All-queries comparer over a resident row table.

    Returns, for every entry of ``table`` where some query hits (keyed
    by its position in the table, ascending), one ``(mm_loci,
    mm_count, direction)`` triple per query, filtered to each query's
    mismatch budget.  The table's rows are in the served hit order
    (:mod:`repro.core.records`), so each triple holds the entry's hits
    for that query in that order.

    Counts follow Listing 1 for any IUPAC query.  Per window word, a
    query's concrete positions count together: XOR with the row word,
    fold each differing 2-bit group onto its odd bit, OR in the invalid
    plane, mask to the query's care bits and popcount.  An
    ambiguity-code position decodes the genome code from the same word
    (``words >> 2p & 3``) and counts a mismatch only where the invalid
    plane's bit ``2p`` is clear and the code is one it excludes, so a
    genome ``N`` or other non-ACGT byte mismatches a concrete query
    base but never an ambiguity code.

    With the table's ``seeds`` (:func:`seed_lists`), a query whose
    budget leaves its exact segments something to filter on counts only
    the rows they reach, in ascending order; every other query joins
    one tiled pass over the whole table.  Both give the same triples.
    ``tally``, when given, gains ``queries_seeded`` and
    ``rows_compared`` (rows counted, summed over queries).

    The buffers are allocated per call: several server threads may
    compare at once.
    """
    packed = pack_query_windows(compiled_queries)
    n_words, n_rows = table.words.shape
    # Wide enough for a mismatch at every window position.
    count_type = np.min_scalar_type(n_words * BASES_PER_WORD)

    def scratch(width: int) -> Tuple[np.ndarray, ...]:
        return (np.empty(width, np.uint64), np.empty(width, np.uint64),
                np.empty(width, count_type))

    # Per query, its hit rows and counts: one part if seeded, else one
    # part per tile holding any.
    found: List[List[Tuple[np.ndarray, np.ndarray]]] = \
        [[] for _ in queries]
    full_pass: List[int] = []
    rows_compared = 0
    for q, (query, pq) in enumerate(zip(queries, packed)):
        rows = (None if seeds is None
                else _seeded_rows(pq, query.max_mismatches, seeds))
        if rows is None:
            full_pass.append(q)
            continue
        rows_compared += rows.size
        counts = _count_mismatches(
            list(zip(table.words.take(rows, axis=1),
                     table.invalid.take(rows, axis=1))),
            pq, *scratch(rows.size))
        keep = np.flatnonzero(counts <= query.max_mismatches)
        if keep.size:
            found[q].append((rows[keep], counts[keep]))
    if full_pass:
        buffers = scratch(min(_TILE_ROWS, n_rows))
        for start in range(0, n_rows, _TILE_ROWS):
            end = min(start + _TILE_ROWS, n_rows)
            tile = [a[:end - start] for a in buffers]
            planes = list(zip(table.words[:, start:end],
                              table.invalid[:, start:end]))
            for q in full_pass:
                counts = _count_mismatches(planes, packed[q], *tile)
                cols = np.flatnonzero(counts <= queries[q].max_mismatches)
                if cols.size:
                    found[q].append((cols + start, counts[cols]))
    if tally is not None:
        tally["queries_seeded"] += len(queries) - len(full_pass)
        tally["rows_compared"] += rows_compared + len(full_pass) * n_rows
    nq = len(queries)
    out: Dict[int, Triples] = {}
    for q, parts in enumerate(found):
        if not parts:
            continue
        rows = np.concatenate([rows for rows, _ in parts])
        mm_loci = table.loci[rows]
        mm_count = np.concatenate([c for _, c in parts]).astype(np.uint16)
        direction = table.direction[rows]
        cuts = np.searchsorted(rows, table.chunk_rows)
        for c in np.flatnonzero(cuts[1:] > cuts[:-1]).tolist():
            lo, hi = cuts[c], cuts[c + 1]
            per_query = out.setdefault(c, empty_triples(nq))
            per_query[q] = (mm_loci[lo:hi], mm_count[lo:hi],
                            direction[lo:hi])
    return dict(sorted(out.items()))


class BitParallelCasOffinder(SyclCasOffinder):
    """The SYCL pipeline with the comparer swapped for the 2-bit packed
    algorithm — the related-work baseline as a drop-in engine.

    The comparer step packs the chunk's candidates into a one-chunk row
    table and runs :func:`compare_packed_batched` over it for every
    query of a batched search at once, so the engine takes any IUPAC
    query of any length.  Each chunk's hits come out forward strand
    first, by position: the kernel's order whenever the chunk's
    candidates fit one kernel block, and always the same set.  An
    unbatched search runs that step once per query.
    """

    api = "sycl-bitparallel"

    def _run_comparer_batched(self, chr_buf, loci_buf, flag_buf, count,
                              queries, compiled_queries, vector_mode):
        # The packing reads only a chunk's bytes, loci and flags.
        chunk = ResidentChunk(
            chrom="", start=0, scan_length=0,
            data=chr_buf.get_host_access(sycl_read).data,
            loci=loci_buf.get_host_access(sycl_read).data[:count],
            flags=flag_buf.get_host_access(sycl_read).data[:count])
        per_chunk = compare_packed_batched(
            pack_site_table([chunk], compiled_queries[0].plen),
            queries, compiled_queries)
        return per_chunk.get(0, empty_triples(len(queries)))

    def _run_comparer(self, chr_buf, loci_buf, flag_buf, count, cq,
                      threshold, vector_mode):
        return self._run_comparer_batched(
            chr_buf, loci_buf, flag_buf, count,
            [Query(cq.decode(), threshold)], [cq], vector_mode)[0]


def bitparallel_search(assembly: Assembly, request: SearchRequest,
                       device: str = "MI100",
                       chunk_size: int = DEFAULT_CHUNK_SIZE
                       ) -> PipelineResult:
    """Run a search with the bit-parallel comparer baseline: each chunk
    is packed once and compared against every query in one pass."""
    pipeline = BitParallelCasOffinder(device=device,
                                      chunk_size=chunk_size)
    return pipeline.search(assembly, request, batched=True)
