"""Packed 2-bit resident index: equivalence, persistence, degrade.

The packed comparer is an optimization, never a semantic change: every
test here pins packed-mode output byte-identical to the byte comparer —
across random genomes with N runs, ambiguity-code queries riding the
per-query fallback, and save/load roundtrips.  Degrade paths (non-ACGTN genome bytes, over-long
patterns, stale on-disk versions) must fall back loudly, not serve
wrong answers.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import Query
from repro.genome.assembly import Assembly, Chromosome
from repro.service import (BatchScheduler, GenomeSiteIndex,
                           SiteIndexVersionError)

PATTERN = "NNNNNNRG"
QUERIES = [Query("GACGTCNN", 3), Query("TTACGANN", 2)]
#: R at a checked position: packed rejects it, per-query fallback runs.
FALLBACK_QUERY = Query("GRCGTCNN", 3)
CHUNK = 1 << 12

_ACGT = np.frombuffer(b"ACGT", dtype=np.uint8)


def _random_genome(seed: int, n: int) -> Assembly:
    rng = np.random.default_rng(seed)
    seq = rng.choice(_ACGT, n)
    lo = int(rng.integers(0, max(1, n - 60)))
    seq[lo:lo + 50] = ord("N")  # an unsequenced run
    return Assembly(f"rand-{seed}", [Chromosome("c", seq)])


def _pair(assembly, pattern=PATTERN, chunk_size=CHUNK):
    byte_idx = GenomeSiteIndex.build(assembly, pattern,
                                     chunk_size=chunk_size,
                                     packed=False)
    packed_idx = GenomeSiteIndex.build(assembly, pattern,
                                       chunk_size=chunk_size,
                                       packed=True)
    return byte_idx, packed_idx


class TestEquivalence:
    def test_modes_report_correctly(self, small_assembly):
        byte_idx, packed_idx = _pair(small_assembly)
        assert not byte_idx.packed
        assert packed_idx.packed
        assert packed_idx.packed_disabled_reason is None
        assert all(e.packed is not None for e in packed_idx.entries
                   if e.loci.size)

    def test_fallback_query_identical(self, small_assembly):
        byte_idx, packed_idx = _pair(small_assembly)
        queries = QUERIES + [FALLBACK_QUERY]
        assert packed_idx.query_batch(queries) == \
            byte_idx.query_batch(queries)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10 ** 6),
           sequences=st.lists(
               st.text(alphabet="ACGTRN", min_size=8, max_size=8),
               min_size=1, max_size=3))
    def test_packed_matches_byte_property(self, seed, sequences):
        """Packed == byte over random genomes, N runs, IUPAC queries."""
        assembly = _random_genome(seed, 1500 + seed % 700)
        byte_idx, packed_idx = _pair(assembly, chunk_size=600)
        queries = [Query(seq, mm) for mm, seq
                   in enumerate(sequences, start=2)]
        assert packed_idx.query_batch(queries) == \
            byte_idx.query_batch(queries)


class TestPersistence:
    def test_roundtrip_reuses_stored_planes(self, small_assembly,
                                            tmp_path):
        byte_idx, packed_idx = _pair(small_assembly)
        packed_idx.save(str(tmp_path))
        loaded = GenomeSiteIndex.load(str(tmp_path), small_assembly,
                                      packed=True)
        assert loaded.packed
        for ours, theirs in zip(loaded.entries, packed_idx.entries):
            if ours.packed is None:
                assert theirs.packed is None
                continue
            np.testing.assert_array_equal(ours.packed.words,
                                          theirs.packed.words)
            np.testing.assert_array_equal(ours.packed.invalid,
                                          theirs.packed.invalid)
        queries = QUERIES + [FALLBACK_QUERY]
        assert loaded.query_batch(queries) == \
            byte_idx.query_batch(queries)

    def test_load_unpacked_from_packed_save(self, small_assembly,
                                            tmp_path):
        byte_idx, packed_idx = _pair(small_assembly)
        packed_idx.save(str(tmp_path))
        loaded = GenomeSiteIndex.load(str(tmp_path), small_assembly,
                                      packed=False)
        assert not loaded.packed
        assert loaded.query_batch(QUERIES) == \
            byte_idx.query_batch(QUERIES)

    def test_load_packs_fresh_from_byte_save(self, small_assembly,
                                             tmp_path):
        """A v2 byte-mode save carries no planes; load repacks them."""
        byte_idx, _ = _pair(small_assembly)
        byte_idx.save(str(tmp_path))
        loaded = GenomeSiteIndex.load(str(tmp_path), small_assembly,
                                      packed=True)
        assert loaded.packed
        assert loaded.query_batch(QUERIES) == \
            byte_idx.query_batch(QUERIES)

    def test_old_version_raises_version_error(self, small_assembly,
                                              tmp_path):
        _, packed_idx = _pair(small_assembly)
        packed_idx.save(str(tmp_path))
        manifest = tmp_path / "index.json"
        header = json.loads(manifest.read_text())
        header["version"] = 1
        manifest.write_text(json.dumps(header))
        with pytest.raises(SiteIndexVersionError, match="rebuild"):
            GenomeSiteIndex.load(str(tmp_path), small_assembly)


class TestDegrade:
    def test_non_acgtn_genome_degrades_to_byte(self):
        rng = np.random.default_rng(11)
        seq = rng.choice(_ACGT, 2000)
        seq[500] = ord("R")  # a real-world IUPAC base in the reference
        assembly = Assembly("iupac", [Chromosome("c", seq)])
        byte_idx, packed_idx = _pair(assembly, chunk_size=600)
        assert not packed_idx.packed
        assert "A/C/G/T/N" in packed_idx.packed_disabled_reason
        assert packed_idx.query_batch(QUERIES) == \
            byte_idx.query_batch(QUERIES)

    def test_long_pattern_degrades_to_byte(self, small_assembly):
        pattern = "N" * 31 + "RG"  # 33 > 32 packed-window positions
        idx = GenomeSiteIndex.build(small_assembly, pattern,
                                    chunk_size=CHUNK, packed=True)
        assert not idx.packed
        assert "32" in idx.packed_disabled_reason
        query = Query("GACGTC" + "A" * 25 + "NN", 20)
        byte_idx = GenomeSiteIndex.build(small_assembly, pattern,
                                         chunk_size=CHUNK,
                                         packed=False)
        assert idx.query_batch([query]) == \
            byte_idx.query_batch([query])

    def test_comparer_stats_counters(self, small_assembly):
        _, packed_idx = _pair(small_assembly)
        packed_idx.query_batch(QUERIES + [FALLBACK_QUERY])
        stats = packed_idx.comparer_stats()
        assert stats["mode"] == "packed"
        assert stats["queries_packed"] == len(QUERIES)
        assert stats["queries_fallback"] == 1

    def test_scheduler_stats_carry_comparer_section(self,
                                                    small_assembly):
        _, packed_idx = _pair(small_assembly)
        scheduler = BatchScheduler(packed_idx, max_batch=4,
                                   max_wait_ms=1.0)
        try:
            scheduler.submit(QUERIES).result(timeout=30.0)
            stats = scheduler.stats()
        finally:
            scheduler.close()
        assert stats["comparer"]["mode"] == "packed"
        assert stats["comparer"]["queries_packed"] >= len(QUERIES)
