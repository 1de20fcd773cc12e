"""Resident 2-bit index: one comparer, pinned to the paper pipeline.

The serving index runs one comparer, one bit-parallel pass per batch
over its resident row table, for every guide, genome byte and pattern
length.  Every test here pins its output to the offline search through
the SYCL pipeline, whose Listing 1 byte comparer is the reference, its
hits put in the served order of ``repro.core.records``: across random
genomes with N runs and other IUPAC or non-IUPAC bytes, guides over all
15 IUPAC codes, patterns longer than one 32-base word, any chunk and
kernel block size, and save/load roundtrips.  The table's row layout is
checked against a direct packing, a stale on-disk version must be
refused, not misread, and serving must append no simulator launch
records.
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
from repro.core.records import hits_to_rows, sort_hits
from repro.genome.assembly import Assembly, Chromosome
from repro.runtime import executor
from repro.service import (BatchScheduler, GenomeSiteIndex,
                           SiteIndexVersionError)
from repro.service import index as index_module
from repro.variants import decode_haplotypes, search_variants

from .conftest import served_order

PATTERN = "NNNNNNRG"
QUERIES = [Query("GACGTCNN", 3), Query("TTACGANN", 2)]
#: R at a checked position: the comparer decodes it from the planes.
IUPAC_QUERY = Query("GRCGTCNN", 3)
#: The PAM gain/loss query: every candidate site at zero mismatches.
PAM_QUERY = Query("N" * 8, 0)
#: SpCas9's pattern: four 5-base seed segments over the guide.
SPCAS9 = "N" * 21 + "RG"
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


def _site_guides(index: GenomeSiteIndex, count: int, budget: int):
    """``count`` distinct guides at ``budget``: the 20 ACGT bases of the
    index's first forward sites, then ``NNN``."""
    guides = []
    for entry in index.entries:
        for locus, flag in zip(entry.loci.tolist(), entry.flags.tolist()):
            site = entry.data[locus:locus + 20].tobytes().decode()
            guide = site + "NNN"
            if flag != 2 and set(site) <= set("ACGT") and \
                    Query(guide, budget) not in guides:
                guides.append(Query(guide, budget))
            if len(guides) == count:
                return guides
    raise AssertionError("too few forward sites")


def _per_query(hits, queries):
    return [[hit for hit in hits if hit.query == query.sequence]
            for query in queries]


def _assert_matches_offline(index: GenomeSiteIndex, queries,
                            chunk_size: int = CHUNK) -> None:
    """``index.query_batch`` equals the offline SYCL search's hits per
    query at ``chunk_size``-base chunks, put in served order.

    Queries must have distinct sequences (hits are grouped by them).
    Where the offline search cannot render a ``-`` hit window holding a
    non-IUPAC byte, serving must refuse it the same way.
    """
    pipeline = SyclCasOffinder(chunk_size=chunk_size)
    request = SearchRequest(index.pattern, list(queries))
    try:
        hits = pipeline.search(index.assembly, request).hits
    except PatternError:
        with pytest.raises(PatternError):
            index.query_batch(queries)
        return
    assert index.query_batch(queries) == _per_query(
        served_order(hits, index.assembly), queries)


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
        index = GenomeSiteIndex.build(small_assembly, PATTERN)
        _assert_matches_offline(index, QUERIES + [IUPAC_QUERY])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), case=_sweep_cases())
    def test_packed_matches_byte_property(self, seed, case):
        """Resident comparer == offline byte comparer over random
        genomes with N runs and other bytes, ambiguity-code and all-N
        guides, and one- and two-word windows."""
        plen, extra, queries = case
        assembly = _random_genome(seed, 1500 + seed % 700, extra)
        index = GenomeSiteIndex.build(assembly, "N" * (plen - 2) + "RG")
        _assert_matches_offline(index, queries, chunk_size=600)

    def test_non_acgtn_genome_bytes_identical(self):
        rng = np.random.default_rng(11)
        seq = rng.choice(_ACGT, 2000)
        seq[500] = ord("R")  # a real-world IUPAC base in the reference
        assembly = Assembly("iupac", [Chromosome("c", seq)])
        index = GenomeSiteIndex.build(assembly, PATTERN)
        _assert_matches_offline(index, QUERIES + [IUPAC_QUERY],
                                chunk_size=600)

    def test_long_pattern_identical(self, small_assembly, tmp_path):
        """33 positions span two window words; the table survives a
        save/load roundtrip."""
        pattern = "N" * 31 + "RG"
        index = GenomeSiteIndex.build(small_assembly, pattern)
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


@st.composite
def _multi_chromosome_cases(draw):
    """A genome of 2-4 chromosomes with N runs (one long enough to
    split), distinct IUPAC guides (the all-N one included) with budgets
    0-4, and a chunk size that splits the longest chromosome."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lengths = [draw(st.integers(400, 1200))] + draw(
        st.lists(st.integers(5, 600), min_size=1, max_size=3))
    chromosomes = []
    for i, n in enumerate(lengths):
        seq = rng.choice(_ACGT, n)
        lo = int(rng.integers(0, n))
        seq[lo:lo + int(rng.integers(1, 60))] = ord("N")
        chromosomes.append(Chromosome(f"c{i}", seq))
    sequences = draw(st.lists(
        st.one_of(st.just("N" * 8),
                  st.text(alphabet=IUPAC_CODES, min_size=8, max_size=8)),
        min_size=1, max_size=3, unique=True))
    queries = [Query(seq, draw(st.integers(0, 4))) for seq in sequences]
    chunk = draw(st.integers(16, 300))
    return Assembly("multi", chromosomes), queries, chunk


class TestHitOrder:
    @settings(max_examples=30, deadline=None)
    @given(case=_multi_chromosome_cases())
    def test_order_is_a_property_of_the_genome(self, case):
        """Served lists are identical at kernel blocks of 16 and 1<<20
        candidates, and equal the offline search's hits put in served
        order, at a chunk size that splits a chromosome and one that
        does not."""
        assembly, queries, chunk = case
        served = []
        for block in (16, 1 << 20):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(executor, "VECTORIZED_BLOCK_ITEMS", block)
                served.append(GenomeSiteIndex.build(
                    assembly, PATTERN).query_batch(queries))
                for chunk_size in (chunk, 1 << 12):
                    hits = search(assembly,
                                  SearchRequest(PATTERN, queries),
                                  chunk_size=chunk_size).hits
                    assert served[-1] == _per_query(
                        served_order(hits, assembly), queries)
        assert served[0] == served[1]


class TestRowTable:
    def test_layout_follows_served_order(self, monkeypatch):
        """Per entry, the forward rows then the reverse rows, each in
        loci order, at any kernel block size; each reverse row packs
        its reverse-complement window, and ``chunk_rows`` marks where
        each entry's rows start."""
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
            for strand, flag in (("+", 1), ("-", 2)):
                expected += [(chunk, int(locus), strand) for locus, f
                             in zip(chunk.loci, chunk.flags)
                             if f in (0, flag)]
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

    def test_block_below_work_group_keeps_one_order(self, monkeypatch):
        """A 64-item kernel block is a quarter of SYCL's 256-wide
        work-groups and one OpenCL group: both offline searches still
        emit one hit order, and the bit-parallel engine and the served
        index give the same hits in served order."""
        monkeypatch.setattr(executor, "VECTORIZED_BLOCK_ITEMS", 64)
        assembly = _random_genome(4, 3000)
        queries = QUERIES + [PAM_QUERY]
        request = SearchRequest(PATTERN, queries)
        hits = search(assembly, request, api="sycl", chunk_size=CHUNK).hits
        assert hits != sort_hits(hits)
        assert search(assembly, request, api="opencl",
                      chunk_size=CHUNK).hits == hits
        served = served_order(hits, assembly)
        assert served_order(bitparallel_search(
            assembly, request, chunk_size=CHUNK).hits, assembly) == served
        index = GenomeSiteIndex.build(assembly, PATTERN)
        assert index.query_batch(queries) == _per_query(served, queries)


class TestCompareCalls:
    def test_one_pass_per_table(self, small_assembly, monkeypatch):
        """``query_batch`` compares once, over the resident table with
        its seed lists; a variant search compares the resident table,
        then one table packed from its patches without seeds, and only
        the first when nothing is patched."""
        index = GenomeSiteIndex.build(small_assembly, PATTERN)
        tables = []
        compare = _BasePipeline.compare_resident_triples

        def counting(self, table, queries, compiled, seeds=None,
                     tally=None):
            tables.append(table)
            assert seeds is (index.seeds if table is index.table
                             else None)
            return compare(self, table, queries, compiled, seeds, tally)

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
        index = GenomeSiteIndex.build(small_assembly, PATTERN)
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

    def test_load_rebuilds_equal_seed_lists(self, small_assembly,
                                            tmp_path):
        """The seed lists are not stored: a loaded index derives them
        from its table again, equal to the built index's, and serves
        the same bytes from them."""
        index = GenomeSiteIndex.build(small_assembly, SPCAS9)
        index.save(str(tmp_path))
        loaded = GenomeSiteIndex.load(str(tmp_path), small_assembly)
        assert len(loaded.seeds) == len(index.seeds) == 4
        for built, rebuilt in zip(index.seeds, loaded.seeds):
            assert (built.word, built.shift) == (rebuilt.word,
                                                 rebuilt.shift)
            np.testing.assert_array_equal(built.rows, rebuilt.rows)
            np.testing.assert_array_equal(built.offsets, rebuilt.offsets)
        queries = _site_guides(index, 8, 3)
        served = [json.dumps(hits_to_rows(hits))
                  for hits in loaded.query_batch(queries)]
        assert served == [json.dumps(hits_to_rows(hits))
                          for hits in index.query_batch(queries)]
        assert loaded.comparer_stats()["queries_seeded"] == len(queries)

    def test_old_version_raises_version_error(self, small_assembly,
                                              tmp_path):
        index = GenomeSiteIndex.build(small_assembly, PATTERN)
        index.save(str(tmp_path))
        manifest = tmp_path / "index.json"
        header = json.loads(manifest.read_text())
        header["version"] = 3
        manifest.write_text(json.dumps(header))
        with pytest.raises(SiteIndexVersionError, match="rebuild"):
            GenomeSiteIndex.load(str(tmp_path), small_assembly)


class TestStats:
    def test_comparer_stats_counters(self, small_assembly):
        """A batch counts its queries, the seeded ones, and the rows each
        query compared: the whole table on the full pass, the rows whose
        first five bases equal the guide's for an exact ``NNNNNNRG``
        seed at budget 0."""
        index = GenomeSiteIndex.build(small_assembly, PATTERN)
        seeded = Query("GACGTCNN", 0)
        index.query_batch(QUERIES + [IUPAC_QUERY, seeded])
        # G, A, C, G, T at two bits each, first base lowest.
        key = 2 | 0 << 2 | 1 << 4 | 2 << 6 | 3 << 8
        candidates = int(((index.table.words[0] & np.uint64(0x3FF))
                          == key).sum())
        assert candidates
        assert index.comparer_stats() == {
            "batches": 1,
            "queries_total": len(QUERIES) + 2,
            "entries_scanned": sum(1 for entry in index.entries
                                   if entry.loci.size),
            "queries_seeded": 1,
            "rows_compared": ((len(QUERIES) + 1) * index.table.loci.size
                              + candidates)}

    def test_unseedable_queries_take_the_full_pass(self,
                                                   small_assembly):
        """The all-N query has no exact segment, and a guide whose
        budget reaches its exact segments (|E| <= m) cannot be seeded:
        both leave ``queries_seeded`` unmoved and compare every row."""
        index = GenomeSiteIndex.build(small_assembly, SPCAS9)
        (guide,) = _site_guides(index, 1, 3)
        iupac = "RRRRR" + guide.sequence[5:]
        index.query_batch([Query("N" * len(SPCAS9), 0),
                           Query(guide.sequence, 4),
                           Query(iupac, 3)])
        stats = index.comparer_stats()
        assert stats["queries_seeded"] == 0
        assert stats["rows_compared"] == 3 * index.table.loci.size
        index.query_batch([guide])
        assert index.comparer_stats()["queries_seeded"] == 1

    def test_scheduler_stats_carry_comparer_section(self,
                                                    small_assembly):
        index = GenomeSiteIndex.build(small_assembly, PATTERN)
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
        index = GenomeSiteIndex.build(small_assembly, PATTERN)
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
