"""Tests for the bit-parallel (2-bit packed) comparer and the offline
``--engine bitparallel`` built on it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bitparallel
from repro.core.bitparallel import (bitparallel_search,
                                    compare_packed_batched,
                                    pack_query_window, pack_site_table,
                                    popcount64)
from repro.core.config import Query, SearchRequest
from repro.core.patterns import MISMATCH_LUT, PatternError, compile_pattern
from repro.core.pipeline import ResidentChunk, search
from repro.genome.assembly import Assembly, Chromosome
from repro.genome.fasta import sequence_to_array
from repro.runtime import executor

IUPAC = "ACGTRYMKWSBDHVN"


class TestPacking:
    def test_pack_query_strand_word(self):
        packed = pack_query_window(compile_pattern("ACGTNN"))
        # A=0, C=1, G=2, T=3 -> 0 | 1<<2 | 2<<4 | 3<<6.
        assert packed.words.tolist() == [0 + 4 + 32 + 192]
        assert packed.care.tolist() == [0b01010101]

    def test_skipped_n_positions(self):
        packed = pack_query_window(compile_pattern("ANGNTN"))
        assert packed.care.tolist() == [1 | 1 << 4 | 1 << 8]
        assert packed.ambiguous == ()

    def test_ambiguity_codes_decoded_apart(self):
        packed = pack_query_window(compile_pattern("ARGT"))
        assert packed.care.tolist() == [1 | 1 << 4 | 1 << 6]
        ((word, shift, rejects),) = packed.ambiguous
        assert (word, int(shift)) == (0, 2)
        # R (A or G) rejects genome codes C=1 and T=3.
        assert rejects.tolist() == [0, 1, 0, 1]

    def test_long_query_spans_two_words(self):
        packed = pack_query_window(compile_pattern("A" * 30 + "CCG"))
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

    def test_multi_block_chunk_keeps_kernel_order(self, monkeypatch):
        """A chunk of several 256-candidate blocks: hits come out in the
        kernel's per-block forward-then-reverse order, not merely as the
        same set."""
        monkeypatch.setattr(executor, "VECTORIZED_BLOCK_ITEMS", 256)
        assembly = _random_assembly(np.random.default_rng(8), 6000)
        request = SearchRequest("NNNNNNRG", [Query("GACGTCNN", 3),
                                             Query("TTACGANN", 3)])
        standard = search(assembly, request, chunk_size=1 << 14)
        assert standard.workload.candidates > 4 * 256
        fast = bitparallel_search(assembly, request, chunk_size=1 << 14)
        assert fast.hits == standard.hits
        assert fast.hits != standard.sorted_hits()


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
    of 8-40 bases and several chunk and kernel block sizes."""
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
    assert got == expected
