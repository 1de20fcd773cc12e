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

:func:`pack_site_table` / :func:`pack_query_window` pack *full
windows* at fixed 2-bit offsets, ``ceil(plen / 32)`` words per window.
The site table is query-independent, so a resident index builds it
once: one row per (candidate, strand) over all its chunks, in the
comparer kernel's emission order, a reverse row holding its window's
reverse complement.  :func:`compare_packed_batched` then serves any
number of queries in one tiled pass over the table, no genome gather
and no per-chunk, per-strand or per-block loop.  That comparer takes
every IUPAC query of any length: an ambiguity-code position reads the
genome code back out of the same planes and applies Listing 1's rule,
under which a genome ``N`` never mismatches an ambiguity code.
Because the rows are in emission order, each query's hits come out
element-identical to the paper pipelines' comparer.  The offline
engine packs a one-chunk table per chunk and compares every query
against it in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..genome.assembly import Assembly
from ..runtime import executor
from ..runtime.sycl import sycl_read
from .config import Query, SearchRequest
from .patterns import MISMATCH_LUT, CompiledPattern, compile_pattern
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


def _pack_windows(data: np.ndarray, starts: np.ndarray, plen: int,
                  reverse: bool, words: np.ndarray,
                  invalid: np.ndarray) -> None:
    """Pack the windows at ``starts`` into zeroed ``words``/``invalid``
    columns, reverse-complemented when ``reverse``."""
    codes = _RC_CODE if reverse else _CODE
    for p in range(plen):
        base = data[starts + (plen - 1 - p if reverse else p)]
        w, shift = divmod(p, BASES_PER_WORD)
        shift = np.uint64(2 * shift)
        words[w] |= codes[base] << shift
        invalid[w] |= _INVALID[base] << shift


def pack_site_table(chunks: Sequence[ResidentChunk], plen: int
                    ) -> PackedSites:
    """Pack every chunk's candidate windows into one resident row table.

    Rows run in the comparer kernel's emission order (see
    :class:`~repro.core.pipeline.PackedSites`): per chunk, per block of
    :data:`repro.runtime.executor.VECTORIZED_BLOCK_ITEMS` candidates,
    the forward rows then the reverse rows.  Query-independent, so the
    index builds the table once; a variant request builds one over its
    patched chunks.
    """
    block = executor.VECTORIZED_BLOCK_ITEMS
    runs: List[Tuple[np.ndarray, np.ndarray, bool]] = []
    chunk_rows = np.zeros(len(chunks) + 1, dtype=np.int64)
    for c, chunk in enumerate(chunks):
        rows = 0
        for start in range(0, chunk.loci.size, block):
            loci = chunk.loci[start:start + block]
            flags = chunk.flags[start:start + block]
            for reverse, strand_flag in ((False, 1), (True, 2)):
                selected = loci[(flags == 0) | (flags == strand_flag)]
                runs.append((chunk.data, selected, reverse))
                rows += selected.size
        chunk_rows[c + 1] = chunk_rows[c] + rows
    n_rows = int(chunk_rows[-1])
    words = np.zeros((window_words(plen), n_rows), dtype=np.uint64)
    invalid = np.zeros_like(words)
    loci = np.empty(n_rows, dtype=np.uint32)
    direction = np.empty(n_rows, dtype=np.uint8)
    at = 0
    for data, selected, reverse in runs:
        end = at + selected.size
        _pack_windows(data, selected, plen, reverse, words[:, at:end],
                      invalid[:, at:end])
        loci[at:end] = selected
        direction[at:end] = ord("-") if reverse else ord("+")
        at = end
    return PackedSites(words=words, invalid=invalid, loci=loci,
                       direction=direction, chunk_rows=chunk_rows)


#: ``_REJECTS[c, k]`` is 1 when query code ``c`` counts a mismatch
#: against the genome base with 2-bit code ``k``: the A/C/G/T columns of
#: ``MISMATCH_LUT``.
_REJECTS = MISMATCH_LUT[:, np.frombuffer(b"ACGT", dtype=np.uint8)]


@dataclass(frozen=True)
class PackedWindowQuery:
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


def pack_query_window(cq: CompiledPattern) -> PackedWindowQuery:
    """Pack a query's forward strand at full-window offsets."""
    indices = cq.comp_index[:cq.plen]
    checked = indices[indices >= 0].astype(np.int64)
    chars = cq.comp[checked]
    word_of = checked // BASES_PER_WORD
    shifts = (2 * (checked % BASES_PER_WORD)).astype(np.uint64)
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
def _window_query_cached(sequence: str) -> PackedWindowQuery:
    return pack_query_window(compile_pattern(sequence))


#: Rows one comparer step spans.  Every query of a batch passes over a
#: tile before the next tile starts, so the tile's planes and the
#: step's uint64 temporaries (512 KiB each) stay cache-resident at any
#: batch width; one step over the whole table is slower.
_TILE_ROWS = 1 << 16


def compare_packed_batched(table: PackedSites, queries: Sequence[Query],
                           compiled_queries: Sequence[CompiledPattern],
                           ) -> Dict[int, Triples]:
    """All-queries comparer over a resident row table, in one pass.

    Returns, for every chunk of ``table`` where some query hits (keyed
    by its position in the table, ascending), one ``(mm_loci,
    mm_count, direction)`` triple per query, filtered to each query's
    mismatch budget.  The table's rows are in the kernel's emission
    order, so each triple is element-identical to what the batched
    vectorized kernel emits for that chunk.

    Counts follow Listing 1 for any IUPAC query.  Per window word, a
    query's concrete positions count together: XOR with the row word,
    fold each differing 2-bit group onto its odd bit, OR in the invalid
    plane, mask to the query's care bits and popcount.  An
    ambiguity-code position decodes the genome code from the same word
    (``words >> 2p & 3``) and counts a mismatch only where the invalid
    plane's bit ``2p`` is clear and the code is one it excludes, so a
    genome ``N`` or other non-ACGT byte mismatches a concrete query
    base but never an ambiguity code.

    The buffers are allocated per call: several server threads may
    compare at once.
    """
    packed = [_window_query_cached(cq.decode()) for cq in compiled_queries]
    n_words, n_rows = table.words.shape
    width = min(_TILE_ROWS, n_rows)
    x = np.empty(width, dtype=np.uint64)
    folded = np.empty_like(x)
    # Wide enough for a mismatch at every window position.
    counts = np.empty(width, dtype=np.min_scalar_type(
        n_words * BASES_PER_WORD))
    one = np.uint64(1)
    three = np.uint64(3)
    # Per query, its hit rows and counts, one part per tile holding any.
    found: List[List[Tuple[np.ndarray, np.ndarray]]] = \
        [[] for _ in queries]
    for start in range(0, n_rows, _TILE_ROWS):
        end = min(start + _TILE_ROWS, n_rows)
        xt, ft, ct = (a[:end - start] for a in (x, folded, counts))
        planes = [(table.words[w, start:end], table.invalid[w, start:end])
                  for w in range(n_words)]
        for query, pq, parts in zip(queries, packed, found):
            ct.fill(0)
            for (words, invalid), qword, care in zip(planes, pq.words,
                                                     pq.care):
                if not care:
                    continue
                np.bitwise_xor(words, qword, out=xt)
                np.right_shift(xt, one, out=ft)
                xt |= ft
                xt |= invalid
                xt &= care
                ct += popcount64(xt)
            for w, shift, rejects in pq.ambiguous:
                words, invalid = planes[w]
                valid = ((invalid >> shift) & one) == 0
                ct += rejects[(words >> shift) & three] & valid
            cols = np.flatnonzero(ct <= query.max_mismatches)
            if cols.size:
                parts.append((cols + start, ct[cols]))
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
    query of any length and its hits follow the kernel's per-block
    emission order by construction.  An unbatched search runs that step
    once per query.
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
