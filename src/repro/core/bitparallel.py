"""Bit-parallel mismatch counting: the 2-bit baseline of related work.

The paper's related-work section describes two relevant systems: the
Cas-OFFinder authors' own optimization round ("a 2-bit sequence format,
shared local memory and atomic operations ... improving the performance
by a factor of 30 approximately") and FlashFry, a CPU tool "two to three
orders of magnitude faster" built on packed-integer comparisons.  This
module implements that algorithm, both as an offline baseline engine and
as the serving index's one comparer:

* candidate windows are packed two bits per base (A=0, C=1, G=2, T=3)
  into 64-bit words, via a vectorized gather + dot product;
* mismatches against a packed query are counted in O(1) per word with
  the classic trick: ``x = a ^ b; m = (x | x >> 1) & 0x5555...;
  popcount(m)`` — every differing 2-bit group contributes exactly one
  set bit to ``m``;
* genome ``N`` (or any non-ACGT byte) at a checked position is forced to
  mismatch through a separate invalid-position mask, matching the
  comparer kernel's behaviour for concrete query bases.

Two packings coexist.  :func:`pack_query_strand` packs only a query's
*checked* positions (compact, per-site gather at compare time) and backs
the offline :class:`BitParallelCasOffinder`; like FlashFry it takes only
concrete A/C/G/T at checked positions, at most 32 of them.
:func:`pack_site_windows` / :func:`pack_query_window` pack *full
windows* at fixed 2-bit offsets, ``ceil(plen / 32)`` words per window.
The site words are query-independent, so a resident index computes
them once at build time and :func:`compare_packed_batched` then serves
any number of queries over the stored planes, no genome gather at all.
That comparer takes every IUPAC query: an ambiguity-code position reads
the genome code back out of the same planes and applies Listing 1's
rule, under which a genome ``N`` never mismatches an ambiguity code.
Emission order replicates the batched vectorized kernel block-for-block,
so its results are element-identical to the paper pipelines' comparer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..genome.assembly import Assembly
from .config import Query, SearchRequest
from .patterns import (MISMATCH_LUT, CompiledPattern, PatternError,
                       compile_pattern)
from .pipeline import (DEFAULT_CHUNK_SIZE, PackedSites, PipelineResult,
                       SyclCasOffinder)
from .records import OffTargetHit

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

_ODD_BITS = np.uint64(0x5555555555555555)

#: A 64-bit word holds 32 two-bit bases.
MAX_CHECKED_POSITIONS = 32


@dataclass(frozen=True)
class PackedQuery:
    """One strand of one query, packed for bit-parallel comparison."""

    word: np.uint64
    checked: np.ndarray        # int64 offsets into the site window
    weights: np.ndarray        # uint64 shift multipliers per position
    codes: np.ndarray          # uint64 2-bit code per checked position


def pack_query_strand(cq: CompiledPattern, offset: int) -> PackedQuery:
    """Pack one strand (offset 0 = forward, plen = reverse)."""
    indices = cq.comp_index[offset:offset + cq.plen]
    checked = indices[indices >= 0].astype(np.int64)
    if checked.size > MAX_CHECKED_POSITIONS:
        raise PatternError(
            f"bit-parallel comparer supports up to "
            f"{MAX_CHECKED_POSITIONS} checked positions, got "
            f"{checked.size}")
    chars = cq.comp[checked + offset]
    if not _VALID[chars].all():
        bad = sorted({chr(c) for c in chars[~_VALID[chars]]})
        raise PatternError(
            f"bit-parallel comparer requires concrete A/C/G/T at checked "
            f"query positions; found {bad}")
    weights = (np.uint64(1) << (2 * np.arange(checked.size,
                                              dtype=np.uint64)))
    codes = _CODE[chars]
    word = np.uint64((codes * weights).sum())
    return PackedQuery(word=word, checked=checked, weights=weights,
                       codes=codes)


def _popcount64_lut(values: np.ndarray) -> np.ndarray:
    """Byte-LUT population count; works for any numpy without
    ``bitwise_count`` and any array shape."""
    values = np.ascontiguousarray(values, dtype=np.uint64)
    as_bytes = values.view(np.uint8).reshape(values.shape + (8,))
    return _POPCOUNT8[as_bytes].sum(axis=-1, dtype=np.int64)


def _popcount64_native(values: np.ndarray) -> np.ndarray:
    """Hardware-popcount path via ``np.bitwise_count`` (numpy >= 2)."""
    return np.bitwise_count(values).astype(np.int64)


#: Vectorized population count of a uint64 array (any shape).  Bound to
#: the native ``np.bitwise_count`` ufunc when this numpy has it, with
#: the byte-LUT kept as the fallback (micro-benched side by side in
#: ``benchmarks/test_micro_kernels.py``).
popcount64 = (_popcount64_native if hasattr(np, "bitwise_count")
              else _popcount64_lut)


def count_mismatches_packed(chunk: np.ndarray, loci: np.ndarray,
                            packed: PackedQuery) -> np.ndarray:
    """Mismatch counts for all candidate windows against one strand."""
    if loci.size == 0:
        return np.zeros(0, dtype=np.int64)
    if packed.checked.size == 0:
        return np.zeros(loci.size, dtype=np.int64)
    sites = chunk[loci[:, None] + packed.checked[None, :]]
    codes = _CODE[sites]
    words = (codes * packed.weights[None, :]).sum(
        axis=1, dtype=np.uint64)
    x = words ^ packed.word
    mm_mask = (x | (x >> np.uint64(1))) & _ODD_BITS
    counts = popcount64(mm_mask)
    # Non-ACGT genome bytes packed as code 0 may collide with a query
    # 'A'; force them to count as mismatches.
    invalid = ~_VALID[sites]
    if invalid.any():
        # A position was counted already iff its 2-bit group differs;
        # recover per-position equality to add the colliding cases
        # (invalid byte packed as code 0 matching a query 'A').
        equal = codes == packed.codes[None, :]
        counts = counts + (invalid & equal).sum(axis=1, dtype=np.int64)
    return counts


# ---------------------------------------------------------------------------
# Full-window packing: the resident form of the serving index
# ---------------------------------------------------------------------------
#
# The compact per-checked-position packing above needs a genome gather
# per (site, query-strand) at compare time.  The serving tier instead
# packs every candidate window once, two bits per window position and
# 32 positions per uint64 word, so the per-batch work is XOR + mask +
# popcount over arrays that already live in memory.  The invalid plane
# marks non-ACGT window positions on the same odd-bit lattice the
# mismatch indicator lands on, so OR-ing it in forces those positions
# to count as mismatches exactly as ``MISMATCH_LUT`` does for concrete
# query bases.

def window_words(plen: int) -> int:
    """Number of uint64 words one packed window of ``plen`` bases spans."""
    return -(-plen // MAX_CHECKED_POSITIONS)


def pack_site_windows(chunk_data: np.ndarray, loci: np.ndarray,
                      plen: int) -> PackedSites:
    """Pack all candidate windows of one chunk into resident planes.

    Returns :class:`~repro.core.pipeline.PackedSites` with ``words[w, i]
    = sum(code(window[32w + p]) << 2p)`` and ``invalid[w, i]`` carrying
    bit ``2p`` for every non-ACGT window position ``32w + p``.
    Query-independent, so the index computes this once per chunk at
    build time.
    """
    n_words = window_words(plen)
    words = np.empty((n_words, loci.size), dtype=np.uint64)
    invalid = np.empty((n_words, loci.size), dtype=np.uint64)
    starts = loci.astype(np.int64)[:, None]
    for w in range(n_words):
        first = w * MAX_CHECKED_POSITIONS
        width = min(MAX_CHECKED_POSITIONS, plen - first)
        windows = chunk_data[starts + np.arange(first, first + width,
                                                dtype=np.int64)[None, :]]
        weights = (np.uint64(1)
                   << (2 * np.arange(width, dtype=np.uint64)))[None, :]
        words[w] = (_CODE[windows] * weights).sum(axis=1, dtype=np.uint64)
        invalid[w] = ((~_VALID[windows]).astype(np.uint64)
                      * weights).sum(axis=1, dtype=np.uint64)
    return PackedSites(words=words, invalid=invalid)


#: ``_REJECTS[c, k]`` is 1 when query code ``c`` counts a mismatch
#: against the genome base with 2-bit code ``k``: the A/C/G/T columns of
#: ``MISMATCH_LUT``.
_REJECTS = MISMATCH_LUT[:, np.frombuffer(b"ACGT", dtype=np.uint8)]


@dataclass(frozen=True)
class PackedWindowQuery:
    """One query strand packed against full windows.

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


def pack_query_window(cq: CompiledPattern, offset: int
                      ) -> PackedWindowQuery:
    """Pack one strand at full-window offsets (0 = forward, plen =
    reverse)."""
    indices = cq.comp_index[offset:offset + cq.plen]
    checked = indices[indices >= 0].astype(np.int64)
    chars = cq.comp[checked + offset]
    word_of = checked // MAX_CHECKED_POSITIONS
    shifts = (2 * (checked % MAX_CHECKED_POSITIONS)).astype(np.uint64)
    concrete = _VALID[chars]
    words = np.zeros(window_words(cq.plen), dtype=np.uint64)
    care = np.zeros_like(words)
    np.bitwise_or.at(words, word_of[concrete],
                     _CODE[chars[concrete]] << shifts[concrete])
    np.bitwise_or.at(care, word_of[concrete],
                     np.uint64(1) << shifts[concrete])
    ambiguous = tuple(
        (int(w), shift, _REJECTS[char]) for w, shift, char
        in zip(word_of[~concrete], shifts[~concrete], chars[~concrete]))
    return PackedWindowQuery(words=words, care=care, ambiguous=ambiguous)


@lru_cache(maxsize=512)
def _window_query_cached(sequence: str, offset: int) -> PackedWindowQuery:
    return pack_query_window(compile_pattern(sequence), offset)


def _stack_strand(packed_queries: Sequence[PackedWindowQuery]):
    """One strand of a batch: (queries, words) code and care matrices,
    plus every ambiguity position as ``(query, word, shift, rejects)``."""
    ambiguous = [(q, w, shift, rejects)
                 for q, pq in enumerate(packed_queries)
                 for w, shift, rejects in pq.ambiguous]
    return (np.array([pq.words for pq in packed_queries]),
            np.array([pq.care for pq in packed_queries]), ambiguous)


#: Mirrors :meth:`repro.runtime.executor.NDRangeExecutor.run_vectorized`:
#: vectorized kernels are fused into blocks of this many work-items, and
#: each block emits forward-strand hits then reverse-strand hits.  The
#: packed comparer replays the same block structure so its per-query
#: triples are element-identical to the kernel path.
_VECTORIZED_BLOCK_ITEMS = 1 << 20


def compare_packed_batched(packed: PackedSites, loci: np.ndarray,
                           flags: np.ndarray,
                           queries: Sequence[Query],
                           compiled_queries: Sequence[CompiledPattern],
                           ) -> List[Tuple[np.ndarray, np.ndarray,
                                           np.ndarray]]:
    """All-queries comparer over resident packed planes, one chunk.

    Returns per-query ``(mm_loci, mm_count, direction)`` triples in the
    exact emission order of the batched vectorized kernel (per
    work-item block: ascending forward-strand candidates, then reverse),
    filtered to each query's mismatch budget.

    Counts follow Listing 1 for any IUPAC query.  Per window word, the
    concrete positions of every query count together: XOR with the
    site word, fold each differing 2-bit group onto its odd bit, OR in
    the invalid plane, mask to the query's care bits and popcount.  An
    ambiguity-code position decodes the genome code from the same word
    (``words >> 2p & 3``) and counts a mismatch only where the invalid
    plane's bit ``2p`` is clear and the code is one it excludes, so a
    genome ``N`` or other non-ACGT byte mismatches a concrete query
    base but never an ambiguity code.
    """
    nq = len(queries)
    count = int(loci.size)
    out: List[List[np.ndarray]] = [[] for _ in range(nq)]
    strands = (
        (ord("+"), 1, _stack_strand([_window_query_cached(cq.decode(), 0)
                                     for cq in compiled_queries])),
        (ord("-"), 2, _stack_strand(
            [_window_query_cached(cq.decode(), cq.plen)
             for cq in compiled_queries])))
    thresholds = [int(q.max_mismatches) for q in queries]
    one = np.uint64(1)
    three = np.uint64(3)
    for start in range(0, count, _VECTORIZED_BLOCK_ITEMS):
        end = min(start + _VECTORIZED_BLOCK_ITEMS, count)
        f = flags[start:end]
        blk_loci = loci[start:end]
        for direction_char, strand_flag, (qwords, qcares, ambiguous) \
                in strands:
            strand_sel = (f == 0) | (f == strand_flag)
            sub = blk_loci[strand_sel]
            if sub.size == 0:
                continue
            counts = None
            for w in range(qwords.shape[1]):
                words = packed.words[w, start:end][strand_sel]
                invalid = packed.invalid[w, start:end][strand_sel]
                x = words[None, :] ^ qwords[:, w, None]
                m = ((x | (x >> one)) & _ODD_BITS) | invalid[None, :]
                m &= qcares[:, w, None]
                word_counts = popcount64(m)
                counts = (word_counts if counts is None
                          else counts + word_counts)
                for q, word, shift, rejects in ambiguous:
                    if word == w:
                        valid = ((invalid >> shift) & one) == 0
                        counts[q] += rejects[(words >> shift) & three] \
                            & valid
            for q in range(nq):
                keep = counts[q] <= thresholds[q]
                kept = int(keep.sum())
                if not kept:
                    continue
                out[q].append((
                    sub[keep].astype(np.uint32),
                    counts[q][keep].astype(np.uint16),
                    np.full(kept, direction_char, dtype=np.uint8)))
    results = []
    for q in range(nq):
        if out[q]:
            results.append(tuple(np.concatenate(parts)
                                 for parts in zip(*out[q])))
        else:
            results.append((np.zeros(0, np.uint32),
                            np.zeros(0, np.uint16),
                            np.zeros(0, np.uint8)))
    return results


class BitParallelComparer:
    """Precompiled bit-parallel comparer for one query set."""

    def __init__(self, queries: Sequence[Union[str, Query]]):
        self.packed: List[Tuple[PackedQuery, PackedQuery]] = []
        for query in queries:
            text = query.sequence if isinstance(query, Query) else query
            cq = compile_pattern(text)
            self.packed.append((pack_query_strand(cq, 0),
                                pack_query_strand(cq, cq.plen)))

    def counts(self, query_index: int, chunk: np.ndarray,
               loci: np.ndarray, strand: str) -> np.ndarray:
        forward, reverse = self.packed[query_index]
        packed = forward if strand == "+" else reverse
        return count_mismatches_packed(chunk, loci.astype(np.int64),
                                       packed)


class BitParallelCasOffinder(SyclCasOffinder):
    """The SYCL pipeline with the comparer swapped for the 2-bit packed
    algorithm — the related-work baseline as a drop-in engine."""

    api = "sycl-bitparallel"

    def _run_comparer(self, chr_buf, loci_buf, flag_buf, count, cq,
                      threshold, vector_mode):
        if count == 0:
            return (np.zeros(0, np.uint32), np.zeros(0, np.uint16),
                    np.zeros(0, np.uint8))
        from ..runtime.sycl import sycl_read
        chunk = chr_buf.get_host_access(sycl_read).data
        loci = loci_buf.get_host_access(sycl_read).data[:count] \
            .astype(np.int64)
        flags = flag_buf.get_host_access(sycl_read).data[:count]
        fwd = pack_query_strand(cq, 0)
        rev = pack_query_strand(cq, cq.plen)
        out_loci: List[np.ndarray] = []
        out_counts: List[np.ndarray] = []
        out_dirs: List[np.ndarray] = []
        for packed, direction, selector in (
                (fwd, ord("+"), (flags == 0) | (flags == 1)),
                (rev, ord("-"), (flags == 0) | (flags == 2))):
            sub = loci[selector]
            if sub.size == 0:
                continue
            counts = count_mismatches_packed(chunk, sub, packed)
            keep = counts <= threshold
            kept = int(keep.sum())
            if not kept:
                continue
            out_loci.append(sub[keep].astype(np.uint32))
            out_counts.append(counts[keep].astype(np.uint16))
            out_dirs.append(np.full(kept, direction, dtype=np.uint8))
        if not out_loci:
            return (np.zeros(0, np.uint32), np.zeros(0, np.uint16),
                    np.zeros(0, np.uint8))
        return (np.concatenate(out_loci), np.concatenate(out_counts),
                np.concatenate(out_dirs))


def bitparallel_search(assembly: Assembly, request: SearchRequest,
                       device: str = "MI100",
                       chunk_size: int = DEFAULT_CHUNK_SIZE
                       ) -> PipelineResult:
    """Run a search with the bit-parallel comparer baseline."""
    pipeline = BitParallelCasOffinder(device=device,
                                      chunk_size=chunk_size)
    return pipeline.search(assembly, request)
