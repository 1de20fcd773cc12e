"""Tests for the bit-parallel (2-bit packed) comparer and the offline
``--engine bitparallel`` built on it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bitparallel
from repro.core.bitparallel import (bitparallel_search,
                                    compare_packed_batched,
                                    pack_query_windows, pack_site_table,
                                    popcount64)
from repro.core.config import Query, SearchRequest
from repro.core.patterns import (COMPLEMENT_TABLE, MISMATCH_LUT,
                                 PatternError, compile_pattern)
from repro.core.pipeline import ResidentChunk, search
from repro.genome.assembly import Assembly, Chromosome
from repro.genome.fasta import sequence_to_array
from repro.runtime import executor

from .conftest import served_order

IUPAC = "ACGTRYMKWSBDHVN"


class TestPacking:
    def test_pack_query_strand_word(self):
        (packed,) = pack_query_windows([compile_pattern("ACGTNN")])
        # A=0, C=1, G=2, T=3 -> 0 | 1<<2 | 2<<4 | 3<<6.
        assert packed.words.tolist() == [0 + 4 + 32 + 192]
        assert packed.care.tolist() == [0b01010101]

    def test_skipped_n_positions(self):
        (packed,) = pack_query_windows([compile_pattern("ANGNTN")])
        assert packed.care.tolist() == [1 | 1 << 4 | 1 << 8]
        assert packed.ambiguous == ()

    def test_ambiguity_codes_decoded_apart(self):
        # Packed in one batch, each query keeps its own positions.
        packed, concrete = pack_query_windows(
            [compile_pattern("ARGT"), compile_pattern("ACGT")])
        assert packed.care.tolist() == [1 | 1 << 4 | 1 << 6]
        ((word, shift, rejects),) = packed.ambiguous
        assert (word, int(shift)) == (0, 2)
        # R (A or G) rejects genome codes C=1 and T=3.
        assert rejects.tolist() == [0, 1, 0, 1]
        assert concrete.care.tolist() == [0b01010101]
        assert concrete.ambiguous == ()

    def test_long_query_spans_two_words(self):
        (packed,) = pack_query_windows([compile_pattern("A" * 30 + "CCG")])
        assert packed.care.tolist() == [0x5555555555555555, 1]
        assert packed.words.tolist() == [1 << 60 | 1 << 62, 2]

    def test_popcount64(self):
        values = np.array([0, 1, 0xFF, (1 << 63) | 1,
                           0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        np.testing.assert_array_equal(popcount64(values),
                                      [0, 1, 8, 2, 64])


def _row_counts(query, data, loci):
    """Forward-strand mismatch counts of ``query`` at ``loci`` of
    ``data``, through a one-chunk row table."""
    cq = compile_pattern(query)
    chunk = ResidentChunk("c", 0, data.size, data,
                          np.asarray(loci, dtype=np.uint32),
                          np.ones(len(loci), dtype=np.uint8))
    per_chunk = compare_packed_batched(pack_site_table([chunk], cq.plen),
                                       [Query(query, cq.plen)], [cq])
    mm_loci, mm_count, direction = per_chunk[0][0]
    assert mm_loci.tolist() == list(loci)
    assert direction.tobytes() == b"+" * len(loci)
    return mm_count.tolist()


class TestCounts:
    def count(self, query, site):
        (count,) = _row_counts(query, sequence_to_array(site), [0])
        return count

    def test_exact_match(self):
        assert self.count("ACGT", "ACGT") == 0

    def test_all_mismatch(self):
        assert self.count("AAAA", "TTTT") == 4

    def test_genome_n_mismatches_concrete_query(self):
        assert self.count("ACGT", "ANGT") == 1
        assert self.count("AAAA", "NNNN") == 4

    def test_n_vs_query_a_collision_handled(self):
        """N packs as code 0 (same as A); it must still mismatch."""
        assert self.count("AAAA", "AANA") == 1

    def test_skipped_positions_free(self):
        assert self.count("ANNT", "AGGT") == 0

    def test_multiple_sites(self):
        counts = _row_counts("ACG", sequence_to_array("ACGACCTTG"),
                             [0, 3, 6])
        # Sites: ACG (0 mm), ACC (1 mm), TTG (2 mm).
        assert counts == [0, 1, 2]


@settings(max_examples=100, deadline=None)
@given(query=st.text(alphabet=IUPAC, min_size=1, max_size=40),
       site=st.text(alphabet="ACGTNR*", min_size=40, max_size=40))
def test_counts_match_lut_property(query, site):
    """Row-table counts == Listing 1's LUT counts for any IUPAC query,
    one or two window words long, on any genome byte."""
    chunk = sequence_to_array(site)
    (got,) = _row_counts(query, chunk, [0])
    expected = int(MISMATCH_LUT[compile_pattern(query).sequence,
                                chunk[:len(query)]].sum())
    assert got == expected


def _random_assembly(rng, n, alphabet=b"ACGT"):
    seq = rng.choice(np.frombuffer(alphabet, dtype=np.uint8), n)
    return Assembly("g", [Chromosome("c", seq)])


class TestPipelineEquivalence:
    def test_matches_standard_pipeline(self, tiny_assembly,
                                       short_request):
        standard = search(tiny_assembly, short_request,
                          chunk_size=512).sorted_hits()
        fast = bitparallel_search(tiny_assembly, short_request,
                                  chunk_size=512).sorted_hits()
        assert fast == standard

    def test_matches_on_gapped_genome(self):
        rng = np.random.default_rng(4)
        seq = rng.choice(np.frombuffer(b"ACGT", dtype=np.uint8), 3000)
        seq[1000:1100] = ord("N")
        assembly = Assembly("g", [Chromosome("c", seq)])
        request = SearchRequest("NNNNNNRG", [Query("GACGTCNN", 3),
                                             Query("TTACGANN", 2)])
        standard = search(assembly, request,
                          chunk_size=700).sorted_hits()
        fast = bitparallel_search(assembly, request,
                                  chunk_size=700).sorted_hits()
        assert fast == standard

    def test_ambiguous_query_matches_search(self, tiny_assembly):
        request = SearchRequest("NNNNNNRG", [Query("GACGTRNN", 3),
                                             Query("NNNNNNNN", 0)])
        fast = bitparallel_search(tiny_assembly, request).hits
        assert fast == search(tiny_assembly, request).hits
        assert any(hit.query == "GACGTRNN" for hit in fast)

    def test_batched_engine_packs_each_chunk_once(self, monkeypatch):
        """A two-query search packs each chunk once and compares every
        query against it in one pass, never through a Listing-1
        comparer launch, and its hits equal ``search``'s in order."""
        packed = []
        pack = bitparallel.pack_site_table

        def counting(chunks, plen):
            packed.append(len(chunks))
            return pack(chunks, plen)

        monkeypatch.setattr(bitparallel, "pack_site_table", counting)
        assembly = _random_assembly(np.random.default_rng(3), 3000)
        request = SearchRequest("NNNNNNRG", [Query("GACGTCNN", 3),
                                             Query("TTACGRNN", 3)])
        standard = search(assembly, request, chunk_size=700)
        fast = bitparallel_search(assembly, request, chunk_size=700)
        assert fast.hits == standard.hits
        assert {query.sequence for query in request.queries} == \
            {hit.query for hit in fast.hits}
        assert not [record.name for record in fast.launches
                    if record.name.startswith("comparer")]
        assert packed == [1] * fast.workload.chunk_count
        assert fast.workload.chunk_count > 1

    def test_multi_block_chunk_serves_strand_first(self, monkeypatch):
        """A chunk of several 256-candidate blocks: the kernel emits
        each block forward-then-reverse, the engine the whole chunk
        forward-then-reverse, which is the served order of the same
        hits."""
        monkeypatch.setattr(executor, "VECTORIZED_BLOCK_ITEMS", 256)
        assembly = _random_assembly(np.random.default_rng(8), 6000)
        request = SearchRequest("NNNNNNRG", [Query("GACGTCNN", 3),
                                             Query("TTACGANN", 3)])
        standard = search(assembly, request, chunk_size=1 << 14)
        assert standard.workload.candidates > 4 * 256
        fast = bitparallel_search(assembly, request, chunk_size=1 << 14)
        assert fast.hits == served_order(standard.hits, assembly)
        assert fast.hits != standard.hits


def _outcome(run, assembly, request, chunk_size):
    """A search's hits, or the PatternError it raised."""
    try:
        return run(assembly, request, chunk_size=chunk_size).hits
    except PatternError as exc:
        return f"PatternError: {exc}"


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       plen=st.integers(8, 40),
       pam=st.sampled_from(["G", "RG", "NGG", "TTTV"]),
       extra=st.sampled_from([b"", b"RYKM", b"*", b"SW*"]),
       chunk_size=st.sampled_from([None, 90, 1 << 12]),
       block=st.sampled_from([256, 1 << 20]),
       data=st.data())
def test_equals_search_property(seed, plen, pam, extra, chunk_size, block,
                                data):
    """``bitparallel_search`` equals ``search`` as ordered hit lists, or
    raises the same PatternError, over random genomes with N runs and
    IUPAC or non-IUPAC bytes, guides over all 15 IUPAC codes, patterns
    of 8-40 bases and several chunk and kernel block sizes.  Where a
    chunk can span several kernel blocks, the lists are compared in
    served order."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(200, 1500))
    seq = rng.choice(np.frombuffer(b"ACGT", dtype=np.uint8), n)
    lo = int(rng.integers(0, n - 40))
    seq[lo:lo + int(rng.integers(1, 40))] = ord("N")
    for byte in extra:
        seq[int(rng.integers(0, n))] = byte
    assembly = Assembly("g", [Chromosome("c", seq)])
    pattern = "N" * (plen - len(pam)) + pam
    queries = [Query(data.draw(st.text(alphabet=IUPAC, min_size=plen,
                                       max_size=plen)),
                     data.draw(st.integers(0, plen // 3)))
               for _ in range(data.draw(st.integers(1, 3)))]
    request = SearchRequest(pattern, queries)
    chunk = max(chunk_size or n, 2 * plen)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executor, "VECTORIZED_BLOCK_ITEMS", block)
        expected = _outcome(search, assembly, request, chunk)
        got = _outcome(bitparallel_search, assembly, request, chunk)
    if block < chunk and all(isinstance(hits, list)
                             for hits in (expected, got)):
        expected = served_order(expected, assembly)
        got = served_order(got, assembly)
    assert got == expected


#: Index patterns for the seed property: SpCas9, one spanning two
#: window words, and a 5'-PAM one.
SEED_PATTERNS = ["N" * 21 + "RG", "N" * 38 + "GG", "TTTN" + "N" * 20]


def _seed_segments(pattern):
    """First positions of the seed segments, by the rule the seed lists
    state: left to right, 5 ``N`` positions inside one window word."""
    starts, p = [], 0
    while p + 5 <= len(pattern):
        if pattern[p:p + 5] == "NNNNN" and p % 32 <= 27:
            starts.append(p)
            p += 5
        else:
            p += 1
    return starts


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       pattern=st.sampled_from(SEED_PATTERNS),
       extra=st.sampled_from([b"", b"RYKM", b"*", b"SW*"]),
       data=st.data())
def test_seeded_comparer_equals_full_pass_property(seed, pattern, extra,
                                                   data):
    """With the seed lists, the comparer returns the full pass's
    triples in values, order and dtype, over random multi-chromosome
    genomes with N runs and IUPAC or non-IUPAC bytes, and mixed batches
    of guides drawn from sites, with IUPAC positions, concrete, IUPAC
    or ``N`` PAM tails and budgets 0-6; exactly the queries with
    |E| - m >= 1 are seeded."""
    from collections import Counter

    from repro.service import GenomeSiteIndex

    rng = np.random.default_rng(seed)
    plen = len(pattern)
    acgt = np.frombuffer(b"ACGT", dtype=np.uint8)
    # Mutated copies of a few motifs on both strands, so guides drawn
    # from sites have many near sites across chromosomes.
    motifs = [rng.choice(acgt, plen + 4) for _ in range(3)]
    for motif in motifs:
        for p, code in enumerate(pattern):
            if code != "N":
                motif[p] = ord("G" if code == "R" else code)
    chromosomes = []
    for c in range(int(rng.integers(1, 4))):
        pieces = []
        for _ in range(int(rng.integers(10, 60))):
            piece = motifs[int(rng.integers(3))].copy()
            piece[rng.integers(0, piece.size, int(rng.integers(0, 5)))] = \
                rng.choice(acgt, 1)
            if rng.random() < 0.5:
                piece = COMPLEMENT_TABLE[piece[::-1]]
            pieces += [piece, rng.choice(acgt, int(rng.integers(0, 30)))]
        seq = np.concatenate(pieces)
        n = seq.size
        lo = int(rng.integers(0, n - 60))
        seq[lo:lo + int(rng.integers(1, 60))] = ord("N")
        for byte in extra:
            seq[int(rng.integers(0, n))] = byte
        chromosomes.append(Chromosome(f"c{c}", seq))
    index = GenomeSiteIndex.build(Assembly("g", chromosomes), pattern)
    windows = [entry.data[locus:locus + plen].tobytes().decode()
               for entry in index.entries for locus in entry.loci]
    segments = _seed_segments(pattern)
    queries, seeded = [], 0
    for _ in range(data.draw(st.integers(1, 8))):
        guide = [code if code in IUPAC else "N" for code in (
            windows[data.draw(st.integers(0, len(windows) - 1))]
            if windows else "A" * plen)]
        for _ in range(data.draw(st.integers(0, 4))):
            guide[data.draw(st.integers(0, plen - 1))] = data.draw(
                st.sampled_from(IUPAC))
        # The PAM tail: the site's own bases, the pattern's codes or N.
        tail = data.draw(st.sampled_from(["site", "pattern", "N"]))
        for p, code in enumerate(pattern):
            if code != "N" and tail != "site":
                guide[p] = code if tail == "pattern" else "N"
        guide = "".join(guide)
        budget = data.draw(st.integers(0, 6))
        exact = sum(set(guide[p:p + 5]) <= set("ACGT") for p in segments)
        seeded += exact - budget >= 1
        queries.append(Query(guide, budget))
    compiled = [compile_pattern(q.sequence) for q in queries]
    tally = Counter()
    got = compare_packed_batched(index.table, queries, compiled,
                                 index.seeds, tally)
    expected = compare_packed_batched(index.table, queries, compiled)
    assert list(got) == list(expected)
    for number, per_query in expected.items():
        for want, have in zip(per_query, got[number]):
            for a, b in zip(want, have):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)
    assert len(index.seeds) == len(segments)
    assert tally["queries_seeded"] == seeded
