"""Resident 2-bit index: one comparer, pinned to the paper pipeline.

The serving index runs one comparer, one bit-parallel pass per batch
over its resident row table, for every guide, genome byte and pattern
length.  Every test here pins its output to the offline search through
the SYCL pipeline, whose Listing 1 byte comparer is the reference:
across random genomes with N runs and other IUPAC or non-IUPAC bytes,
guides over all 15 IUPAC codes, patterns longer than one 32-base word,
chunks spanning several kernel blocks, and save/load roundtrips.  The
table's row layout is checked against a direct packing, a stale
on-disk version must be refused, not misread, and serving must append
no simulator launch records.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitparallel import bitparallel_search, pack_site_table
from repro.core.config import Query, SearchRequest
from repro.core.patterns import COMPLEMENT_TABLE, PatternError
from repro.core.pipeline import (ResidentChunk, SyclCasOffinder,
                                 _BasePipeline, search)
from repro.core.records import sort_hits
from repro.genome.assembly import Assembly, Chromosome
from repro.runtime import executor
from repro.service import (BatchScheduler, GenomeSiteIndex,
                           SiteIndexVersionError)
from repro.service import index as index_module
from repro.variants import decode_haplotypes, search_variants

PATTERN = "NNNNNNRG"
QUERIES = [Query("GACGTCNN", 3), Query("TTACGANN", 2)]
#: R at a checked position: the comparer decodes it from the planes.
IUPAC_QUERY = Query("GRCGTCNN", 3)
#: The PAM gain/loss query: every candidate site at zero mismatches.
PAM_QUERY = Query("N" * 8, 0)
CHUNK = 1 << 12

_ACGT = np.frombuffer(b"ACGT", dtype=np.uint8)


def _random_genome(seed: int, n: int, extra: bytes = b"") -> Assembly:
    """Random ACGT with one N run, plus each ``extra`` byte placed once
    at a random position."""
    rng = np.random.default_rng(seed)
    seq = rng.choice(_ACGT, n)
    lo = int(rng.integers(0, max(1, n - 60)))
    seq[lo:lo + 50] = ord("N")  # an unsequenced run
    for byte in extra:
        seq[int(rng.integers(0, n))] = byte
    return Assembly(f"rand-{seed}", [Chromosome("c", seq)])


def _assert_matches_offline(index: GenomeSiteIndex, queries) -> None:
    """``index.query_batch`` equals the offline SYCL search's hits per
    query, in order, at the index's chunk size.

    Queries must have distinct sequences (hits are grouped by them).
    Where the offline search cannot render a ``-`` hit window holding a
    non-IUPAC byte, serving must refuse it the same way.
    """
    pipeline = SyclCasOffinder(chunk_size=index.chunk_size)
    request = SearchRequest(index.pattern, list(queries))
    try:
        hits = pipeline.search(index.assembly, request).hits
    except PatternError:
        with pytest.raises(PatternError):
            index.query_batch(queries)
        return
    assert index.query_batch(queries) == [
        [hit for hit in hits if hit.query == query.sequence]
        for query in queries]


def _snv(assembly: Assembly, chrom: str, position: int):
    """A variant row replacing one reference base with another."""
    ref = chr(assembly[chrom].sequence[position])
    return [chrom, position, ref, "C" if ref == "A" else "A"]


#: Every IUPAC code: reverse rows rely on each one's complement.
IUPAC_CODES = "ACGTRYKMSWBDHVN"


@st.composite
def _sweep_cases(draw):
    """A pattern length, IUPAC/non-IUPAC genome bytes and a batch of
    distinct guides over all 15 IUPAC codes (the all-N guide
    included)."""
    plen = draw(st.sampled_from([8, 32, 33, 40]))
    guide = st.one_of(
        st.just("N" * plen),
        st.text(alphabet=IUPAC_CODES, min_size=plen, max_size=plen))
    sequences = draw(st.lists(guide, min_size=1, max_size=3,
                              unique=True))
    budgets = draw(st.lists(st.integers(0, plen * 3 // 4),
                            min_size=len(sequences),
                            max_size=len(sequences)))
    extra = draw(st.lists(st.sampled_from(b"RYKMSWBDHV*"), max_size=3))
    return plen, bytes(extra), [Query(seq, mm) for seq, mm
                                in zip(sequences, budgets)]


class TestEquivalence:
    def test_iupac_query_identical(self, small_assembly):
        index = GenomeSiteIndex.build(small_assembly, PATTERN,
                                      chunk_size=CHUNK)
        _assert_matches_offline(index, QUERIES + [IUPAC_QUERY])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), case=_sweep_cases())
    def test_packed_matches_byte_property(self, seed, case):
        """Resident comparer == offline byte comparer over random
        genomes with N runs and other bytes, ambiguity-code and all-N
        guides, and one- and two-word windows."""
        plen, extra, queries = case
        assembly = _random_genome(seed, 1500 + seed % 700, extra)
        index = GenomeSiteIndex.build(assembly, "N" * (plen - 2) + "RG",
                                      chunk_size=600)
        _assert_matches_offline(index, queries)

    def test_non_acgtn_genome_bytes_identical(self):
        rng = np.random.default_rng(11)
        seq = rng.choice(_ACGT, 2000)
        seq[500] = ord("R")  # a real-world IUPAC base in the reference
        assembly = Assembly("iupac", [Chromosome("c", seq)])
        index = GenomeSiteIndex.build(assembly, PATTERN, chunk_size=600)
        _assert_matches_offline(index, QUERIES + [IUPAC_QUERY])

    def test_long_pattern_identical(self, small_assembly, tmp_path):
        """33 positions span two window words; the table survives a
        save/load roundtrip."""
        pattern = "N" * 31 + "RG"
        index = GenomeSiteIndex.build(small_assembly, pattern,
                                      chunk_size=CHUNK)
        rows = index.table.loci.size
        assert rows >= index.site_count
        assert index.table.words.shape == (2, rows)
        assert index.table.invalid.shape == (2, rows)
        queries = [Query("GACGTC" + "A" * 25 + "NN", 20),
                   Query("GRCGTC" + "Y" * 25 + "NN", 14)]
        _assert_matches_offline(index, queries)
        index.save(str(tmp_path))
        loaded = GenomeSiteIndex.load(str(tmp_path), small_assembly)
        _assert_matches_offline(loaded, queries)


def _packed_window(window: np.ndarray):
    """Oracle: one window's (words, invalid) columns, bit by bit."""
    n_words = -(-window.size // 32)
    words, invalid = [0] * n_words, [0] * n_words
    for p, byte in enumerate(window.tobytes()):
        w, shift = divmod(p, 32)
        if byte in b"ACGT":
            words[w] |= b"ACGT".index(byte) << (2 * shift)
        else:
            invalid[w] |= 1 << (2 * shift)
    return words, invalid


class TestRowTable:
    def test_layout_follows_emission_order(self, monkeypatch):
        """Rows run forward-then-reverse per block of candidates, each
        reverse row packs its reverse-complement window, and
        ``chunk_rows`` marks where each chunk's rows start."""
        monkeypatch.setattr(executor, "VECTORIZED_BLOCK_ITEMS", 4)
        plen = 36  # two window words
        rng = np.random.default_rng(5)
        data = rng.choice(np.frombuffer(b"ACGTN", dtype=np.uint8), 120)
        chunks = [
            ResidentChunk("c", 0, 80, data,
                          np.arange(0, 80, 8, dtype=np.uint32),
                          np.array([0, 1, 2, 0, 2, 2, 1, 0, 1, 2],
                                   dtype=np.uint8)),
            ResidentChunk("c", 80, 40, data[:plen],
                          np.zeros(0, np.uint32), np.zeros(0, np.uint8)),
            ResidentChunk("d", 0, 60, data[10:],
                          np.array([3, 9, 30, 41, 55], dtype=np.uint32),
                          np.array([2, 0, 1, 1, 0], dtype=np.uint8)),
        ]
        table = pack_site_table(chunks, plen)
        expected = []
        chunk_rows = [0]
        for chunk in chunks:
            for start in range(0, chunk.loci.size, 4):
                block = range(start, min(start + 4, chunk.loci.size))
                for strand, flag in (("+", 1), ("-", 2)):
                    expected += [(chunk, int(chunk.loci[i]), strand)
                                 for i in block
                                 if chunk.flags[i] in (0, flag)]
            chunk_rows.append(len(expected))
        assert table.chunk_rows.tolist() == chunk_rows == [0, 13, 13, 20]
        assert table.loci.tolist() == [locus for _, locus, _
                                       in expected]
        assert table.direction.tobytes() == "".join(
            strand for _, _, strand in expected).encode()
        assert table.words.shape == table.invalid.shape == (2, 20)
        for row, (chunk, locus, strand) in enumerate(expected):
            window = chunk.data[locus:locus + plen]
            if strand == "-":
                window = COMPLEMENT_TABLE[window][::-1]
            words, invalid = _packed_window(window)
            assert table.words[:, row].tolist() == words
            assert table.invalid[:, row].tolist() == invalid

    def test_multi_block_chunk_matches_offline(self, monkeypatch):
        """A chunk of a few thousand candidates spans many 256-item
        kernel blocks; serving still emits the offline search's order,
        the PAM query's every-site rows included."""
        monkeypatch.setattr(executor, "VECTORIZED_BLOCK_ITEMS", 256)
        assembly = _random_genome(21, 12000, b"RY")
        index = GenomeSiteIndex.build(assembly, PATTERN)
        assert index.chunk_count == 1
        assert index.site_count > 2000
        _assert_matches_offline(index,
                                QUERIES + [IUPAC_QUERY, PAM_QUERY])

    def test_block_below_work_group_keeps_one_order(self, monkeypatch):
        """A 64-item kernel block is a quarter of SYCL's 256-wide
        work-groups and one OpenCL group: both offline searches, the
        bit-parallel engine and the served index still emit one hit
        order."""
        monkeypatch.setattr(executor, "VECTORIZED_BLOCK_ITEMS", 64)
        assembly = _random_genome(4, 3000)
        queries = QUERIES + [PAM_QUERY]
        request = SearchRequest(PATTERN, queries)
        hits = search(assembly, request, api="sycl", chunk_size=CHUNK).hits
        assert hits != sort_hits(hits)
        assert search(assembly, request, api="opencl",
                      chunk_size=CHUNK).hits == hits
        assert bitparallel_search(assembly, request,
                                  chunk_size=CHUNK).hits == hits
        index = GenomeSiteIndex.build(assembly, PATTERN, chunk_size=CHUNK)
        assert index.query_batch(queries) == [
            [hit for hit in hits if hit.query == query.sequence]
            for query in queries]


class TestCompareCalls:
    def test_one_pass_per_table(self, small_assembly, monkeypatch):
        """``query_batch`` compares once, over the resident table; a
        variant search compares the resident table, then one table
        packed from its patches, and only the first when nothing is
        patched."""
        index = GenomeSiteIndex.build(small_assembly, PATTERN,
                                      chunk_size=CHUNK)
        tables = []
        compare = _BasePipeline.compare_resident_triples

        def counting(self, table, queries, compiled):
            tables.append(table)
            return compare(self, table, queries, compiled)

        monkeypatch.setattr(_BasePipeline, "compare_resident_triples",
                            counting)
        index.query_batch(QUERIES + [IUPAC_QUERY])
        assert len(tables) == 1 and tables[0] is index.table
        tables.clear()
        haplotypes = decode_haplotypes([{"name": "h", "variants": [
            _snv(small_assembly, "chrA", 777),
            _snv(small_assembly, "chrB", 900)]}])
        result = search_variants(index, QUERIES, haplotypes)
        assert result.patched_chunks == 2
        assert len(tables) == 2 and tables[0] is index.table
        assert tables[1].chunk_rows.size == result.patched_chunks + 1
        tables.clear()
        search_variants(index, QUERIES, haplotypes,
                        chromosomes=frozenset({"chrC"}))
        assert len(tables) == 1 and tables[0] is index.table


class TestPersistence:
    def test_roundtrip_reuses_stored_planes(self, small_assembly,
                                            tmp_path, monkeypatch):
        index = GenomeSiteIndex.build(small_assembly, PATTERN,
                                      chunk_size=CHUNK)
        index.save(str(tmp_path))

        def no_packing(*args):
            raise AssertionError("load must not pack the row table")

        monkeypatch.setattr(index_module, "pack_site_table", no_packing)
        loaded = GenomeSiteIndex.load(str(tmp_path), small_assembly)
        for field in ("words", "invalid", "loci", "direction",
                      "chunk_rows"):
            np.testing.assert_array_equal(getattr(loaded.table, field),
                                          getattr(index.table, field))
        _assert_matches_offline(loaded, QUERIES + [IUPAC_QUERY])

    def test_old_version_raises_version_error(self, small_assembly,
                                              tmp_path):
        index = GenomeSiteIndex.build(small_assembly, PATTERN,
                                      chunk_size=CHUNK)
        index.save(str(tmp_path))
        manifest = tmp_path / "index.json"
        header = json.loads(manifest.read_text())
        header["version"] = 3
        manifest.write_text(json.dumps(header))
        with pytest.raises(SiteIndexVersionError, match="rebuild"):
            GenomeSiteIndex.load(str(tmp_path), small_assembly)


class TestStats:
    def test_comparer_stats_counters(self, small_assembly):
        index = GenomeSiteIndex.build(small_assembly, PATTERN,
                                      chunk_size=CHUNK)
        index.query_batch(QUERIES + [IUPAC_QUERY])
        assert index.comparer_stats() == {
            "batches": 1,
            "queries_total": len(QUERIES) + 1,
            "entries_scanned": sum(1 for entry in index.entries
                                   if entry.loci.size)}

    def test_scheduler_stats_carry_comparer_section(self,
                                                    small_assembly):
        index = GenomeSiteIndex.build(small_assembly, PATTERN,
                                      chunk_size=CHUNK)
        scheduler = BatchScheduler(index, max_batch=4, max_wait_ms=1.0)
        try:
            scheduler.submit(QUERIES).result(timeout=30.0)
            stats = scheduler.stats()
        finally:
            scheduler.close()
        assert stats["comparer"] == index.comparer_stats()
        assert stats["comparer"]["queries_total"] >= len(QUERIES)


class TestLaunchRecords:
    def test_serving_appends_no_comparer_launches(self, small_assembly):
        """Serving never touches the simulated runtime: the index build,
        a mixed concrete / IUPAC / all-N batch and repeated variant
        searches, whose patch scans run the finder, append no launch
        record."""
        index = GenomeSiteIndex.build(small_assembly, PATTERN,
                                      chunk_size=CHUNK)
        assert len(index.pipeline.launches) == 0
        queries = [QUERIES[0], IUPAC_QUERY, PAM_QUERY]
        hits = index.query_batch(queries)
        assert all(hits)
        haplotypes = decode_haplotypes([{"name": "h", "variants": [
            _snv(small_assembly, "chrA", 777),
            _snv(small_assembly, "chrB", 900)]}])
        for _ in range(3):
            result = search_variants(index, queries, haplotypes)
            assert result.patched_chunks == 2
        assert len(index.pipeline.launches) == 0
