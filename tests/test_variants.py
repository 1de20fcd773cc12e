"""Variant-aware search: diff layers, enzyme registry, tier identity.

The acceptance invariants from the variant brief:

* a variant search costs ONE batched comparer pass — the reference
  entries plus every haplotype patch ride a single
  ``query_batch_with_extras`` call (``comparer_stats`` proves it);
* a search re-scans only its variant windows: the site starts each
  run of nearby variants can change, plus one position past it;
* events are exactly the per-haplotype gained/lost off-targets: hits
  that merely shifted downstream of an indel cancel under reference
  projection (checked against a naive full-splice oracle, including
  repeat-unit indels inside tandem repeats);
* the ``variant`` op is byte-identical across serving tiers
  (in-process, single server, 2-backend router);
* enzyme definitions load from declarative TOML/JSON configs with
  typed errors, and a config-file enzyme serves end to end.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import Query
from repro.core.patterns import compile_pattern
from repro.enzymes import (CAS12A, SPCAS9, EnzymeError, derive_pattern,
                           enzyme_from_mapping, load_enzymes)
from repro.genome.assembly import Assembly, Chromosome
from repro.service import index as index_module
from repro.service import (GenomeSiteIndex, OffTargetRouter,
                           OffTargetServer, ServiceClient, ServiceError,
                           partition_chromosomes)
from repro.variants import (EVENT_FIELDS, Haplotype, HaplotypeOverlay,
                            Variant, VariantError, decode_haplotypes,
                            search_variants)
from repro.variants import overlay as overlay_module

from .conftest import random_sequence

PATTERN = "NNNNNNRG"
PLEN = len(PATTERN)

#: The all-N query matches every candidate site at zero mismatches, so
#: gained/lost events line up exactly with PAM creation/destruction.
QUERIES = [Query("N" * 8, 0), Query("GACGTCNN", 3)]


@pytest.fixture(scope="module")
def variant_index(small_assembly) -> GenomeSiteIndex:
    return GenomeSiteIndex.build(small_assembly, PATTERN)


@pytest.fixture(scope="module")
def repeat_assembly() -> Assembly:
    """12-copy tandem repeats of ACGG, AGG and CAGG between random
    bases, on one chromosome."""
    rng = np.random.default_rng(31)
    pieces = [random_sequence(rng, 60)]
    for unit in (b"ACGG", b"AGG", b"CAGG"):
        pieces += [np.frombuffer(unit * 12, dtype=np.uint8),
                   random_sequence(rng, 60)]
    return Assembly("repeats", [Chromosome("chrR",
                                           np.concatenate(pieces))])


@pytest.fixture(scope="module")
def served(variant_index):
    handle = OffTargetServer(variant_index,
                             max_wait_ms=1.0).start_background()
    yield handle
    handle.stop()


@pytest.fixture(scope="module")
def routed(small_assembly):
    """A 2-backend chromosome-partitioned fleet behind a router."""
    parts = partition_chromosomes(small_assembly, 2)
    handles = [
        OffTargetServer(
            GenomeSiteIndex.build(small_assembly.subset(chroms), PATTERN),
            max_wait_ms=1.0).start_background()
        for chroms in parts]
    router = OffTargetRouter(
        [f"{h.host}:{h.port}" for h in handles],
        chromosome_order=[c.name for c in small_assembly.chromosomes],
        probe_interval_s=0.1)
    router_handle = router.start_background()
    yield router_handle
    router_handle.stop()
    for handle in handles:
        handle.stop()


def base_at(assembly, chrom: str, position: int, length: int = 1) -> str:
    return assembly[chrom].sequence[position:position + length] \
        .tobytes().decode("ascii")


def snv_row(assembly, chrom: str, position: int):
    ref = base_at(assembly, chrom, position)
    alt = "G" if ref != "G" else "A"
    return [chrom, position, ref, alt]


def naive_event_keys(index, assembly, queries, haplotype):
    """Full-splice oracle: K complete re-indexes, then project + diff.

    Returns the set of ``(change, query, chrom, position, strand,
    mismatches, site)`` keys search_variants must report for this
    haplotype — computed the expensive way the overlay exists to avoid.
    """
    by_chrom = {}
    for variant in haplotype.variants:
        by_chrom.setdefault(variant.chrom, []).append(variant)
    chroms = []
    overlays = {}
    for chromosome in assembly.chromosomes:
        overlay = HaplotypeOverlay(chromosome.name,
                                   chromosome.sequence,
                                   by_chrom.get(chromosome.name, []))
        overlays[chromosome.name] = overlay
        chroms.append(Chromosome(
            chromosome.name,
            overlay.fetch(0, overlay.length).copy()))
    hap_index = GenomeSiteIndex.build(Assembly("naive-hap", chroms),
                                      index.pattern)
    ref_hits = index.query_batch(list(queries))
    hap_hits = hap_index.query_batch(list(queries))
    keys = set()
    for chrom, overlay in overlays.items():
        if not overlay.variants:
            continue
        for qi, query in enumerate(queries):
            ref_keys = {(h.position, h.strand, h.site, h.mismatches)
                        for h in ref_hits[qi] if h.chrom == chrom}
            projected = {(overlay.map_hap_to_ref(h.position), h.strand,
                          h.site, h.mismatches)
                         for h in hap_hits[qi] if h.chrom == chrom}
            for key in projected - ref_keys:
                keys.add(("gained", query.sequence, chrom) + key[:2]
                         + (key[3], key[2]))
            for key in ref_keys - projected:
                keys.add(("lost", query.sequence, chrom) + key[:2]
                         + (key[3], key[2]))
    return keys


def tandem_dup_row(assembly, chrom: str, position: int, k: int):
    """A tandem duplication: the anchor base plus a copy of the next
    ``k`` bases."""
    return [chrom, position, base_at(assembly, chrom, position),
            base_at(assembly, chrom, position, k + 1)]


def unit_deletion_row(assembly, chrom: str, start: int, k: int):
    """Deletes one repeat unit: the ``k`` bases after the first anchor
    at or past ``start`` that the next ``k`` bases repeat (``None``
    when the chromosome has no such repeat there)."""
    seq = assembly[chrom].sequence
    for q in range(start, seq.size - 2 * k - 1):
        unit = seq[q + 1:q + 1 + k]
        if ord("N") not in seq[q:q + 1 + 2 * k] and \
                np.array_equal(unit, seq[q + 1 + k:q + 1 + 2 * k]):
            return [chrom, q, base_at(assembly, chrom, q, k + 1),
                    base_at(assembly, chrom, q)]
    return None


def draw_haplotype_rows(data, assembly):
    """One or two haplotypes of 1-3 chrA variants: SNVs, deletions,
    insertions, tandem duplications and repeat-unit deletions."""
    rows = []
    for hap_i in range(data.draw(st.integers(1, 2), label="haplotypes")):
        variants = []
        cursor = 0
        for _ in range(data.draw(st.integers(1, 3), label="variants")):
            position = cursor + data.draw(st.integers(0, 2200),
                                          label="gap")
            if position > 7900:
                break
            kind = data.draw(st.sampled_from(
                ["snv", "del", "ins", "dup", "unitdel"]), label="kind")
            if kind == "dup":
                k = data.draw(st.integers(1, 6), label="dup_len")
                if "N" in base_at(assembly, "chrA", position, k + 1):
                    kind = "snv"
                else:
                    variants.append(tandem_dup_row(assembly, "chrA",
                                                   position, k))
            elif kind == "unitdel":
                k = data.draw(st.integers(1, 3), label="unit_len")
                row = unit_deletion_row(assembly, "chrA", position, k)
                if row is None:
                    kind = "snv"
                else:
                    variants.append(row)
            if kind == "snv":
                variants.append(snv_row(assembly, "chrA", position))
            elif kind == "del":
                length = data.draw(st.integers(2, 6), label="del_len")
                ref = base_at(assembly, "chrA", position, length)
                # alt must be concrete even when the deletion's anchor
                # base sits in the assembly's N gap.
                alt = ref[0] if ref[0] != "N" else "A"
                variants.append(["chrA", position, ref, alt])
            elif kind == "ins":
                ref = base_at(assembly, "chrA", position)
                insert = data.draw(st.text("ACGT", min_size=1,
                                           max_size=5), label="insert")
                anchor = ref if ref != "N" else "A"
                variants.append(["chrA", position, ref, anchor + insert])
            cursor = variants[-1][1] + len(variants[-1][2]) + 1
        if not variants:
            variants = [snv_row(assembly, "chrA", 100)]
        rows.append({"name": f"hap{hap_i}", "variants": variants})
    return rows


def scanned(index, queries, haplotypes):
    """A variant search, and the scan length of every finder call it
    made (a spy on ``index.pipeline.find_candidates``)."""
    lengths = []
    find = index.pipeline.find_candidates

    def spy(chunk, pattern):
        lengths.append(chunk.scan_length)
        return find(chunk, pattern)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(index.pipeline, "find_candidates", spy)
        result = search_variants(index, queries, haplotypes)
    return result, lengths


def event_keys(payload):
    """The oracle-comparable subset of each event row."""
    idx = {name: i for i, name in enumerate(payload["event_fields"])}
    return {(row[idx["change"]], row[idx["query"]], row[idx["chrom"]],
             row[idx["position"]], row[idx["strand"]],
             row[idx["mismatches"]], row[idx["site"]])
            for row in payload["events"]}


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------

class TestVariantModel:
    def test_rows_decode_normalized(self):
        haps = decode_haplotypes([
            {"name": "h", "variants": [["chrA", 50, "a", "g"],
                                       ["chrA", 10, "C", "T"]]}])
        assert [v.position for v in haps[0].variants] == [10, 50]
        assert haps[0].variants[1].ref == "A"
        assert haps[0].variants[1].alt == "G"

    def test_variant_describe_and_shift(self):
        variant = Variant("chrA", 10, "AC", "G")
        assert variant.describe() == "chrA:10:AC>G"
        assert variant.shift == -1
        assert variant.end == 12

    def test_overlapping_variants_rejected(self):
        with pytest.raises(VariantError, match="overlap"):
            Haplotype.normalized("h", [Variant("chrA", 10, "ACG", "A"),
                                       Variant("chrA", 12, "C", "T")])

    def test_bool_position_rejected(self):
        with pytest.raises(VariantError):
            decode_haplotypes([{"name": "h",
                                "variants": [["chrA", True, "A", "G"]]}])

    def test_bad_alt_base_rejected(self):
        with pytest.raises(VariantError, match="alt"):
            decode_haplotypes([{"name": "h",
                                "variants": [["chrA", 5, "A", "N"]]}])

    def test_duplicate_haplotype_names_rejected(self):
        rows = [{"name": "h", "variants": [["chrA", 5, "A", "G"]]}] * 2
        with pytest.raises(VariantError, match="duplicate"):
            decode_haplotypes(rows)

    def test_unknown_haplotype_field_rejected(self):
        with pytest.raises(VariantError):
            decode_haplotypes([{"name": "h", "variants": [],
                                "phase": 1}])

    def test_empty_haplotype_list_rejected(self):
        with pytest.raises(VariantError):
            decode_haplotypes([])


# ---------------------------------------------------------------------------
# Overlay: splice semantics, coordinate maps, laziness
# ---------------------------------------------------------------------------

class TestHaplotypeOverlay:
    def splice(self, sequence: np.ndarray, variants) -> np.ndarray:
        """Naive eager splice to check fetch against."""
        out = []
        cursor = 0
        for variant in sorted(variants, key=lambda v: v.position):
            out.append(sequence[cursor:variant.position])
            out.append(np.frombuffer(variant.alt.encode(),
                                     dtype=np.uint8))
            cursor = variant.end
        out.append(sequence[cursor:])
        return np.concatenate(out)

    def test_fetch_matches_naive_splice(self, small_assembly):
        sequence = small_assembly["chrA"].sequence
        variants = [
            Variant("chrA", 100, base_at(small_assembly, "chrA", 100),
                    "T" if base_at(small_assembly, "chrA", 100) != "T"
                    else "A"),
            Variant("chrA", 200,
                    base_at(small_assembly, "chrA", 200, 3), "G"),
            Variant("chrA", 300, base_at(small_assembly, "chrA", 300),
                    base_at(small_assembly, "chrA", 300) + "ACGT"),
        ]
        overlay = HaplotypeOverlay("chrA", sequence, variants)
        spliced = self.splice(sequence, variants)
        assert overlay.length == spliced.size
        for lo, hi in [(0, overlay.length), (90, 110), (195, 210),
                       (290, 320), (1000, 1500)]:
            assert overlay.fetch(lo, hi).tobytes() == \
                spliced[lo:hi].tobytes()

    def test_untouched_window_is_zero_copy(self, small_assembly):
        sequence = small_assembly["chrA"].sequence
        overlay = HaplotypeOverlay("chrA", sequence, [
            Variant("chrA", 100, base_at(small_assembly, "chrA", 100),
                    "G" if base_at(small_assembly, "chrA", 100) != "G"
                    else "A")])
        window = overlay.fetch(2000, 3000)
        assert overlay.materialized_bases == 0
        assert np.shares_memory(window, sequence)

    def test_reference_mismatch_rejected(self, small_assembly):
        sequence = small_assembly["chrA"].sequence
        ref = base_at(small_assembly, "chrA", 50)
        wrong = "A" if ref != "A" else "C"
        with pytest.raises(VariantError, match="reference bases"):
            HaplotypeOverlay("chrA", sequence,
                             [Variant("chrA", 50, wrong, "G")])

    def test_coordinate_maps_roundtrip_outside_variants(
            self, small_assembly):
        sequence = small_assembly["chrA"].sequence
        overlay = HaplotypeOverlay("chrA", sequence, [
            Variant("chrA", 200,
                    base_at(small_assembly, "chrA", 200, 3), "G"),
            Variant("chrA", 400, base_at(small_assembly, "chrA", 400),
                    base_at(small_assembly, "chrA", 400) + "TT")])
        for position in [0, 199, 203, 399, 401, 1000, 7990]:
            mapped = overlay.map_ref_to_hap(position)
            assert overlay.map_hap_to_ref(mapped) == position
        # Monotone across the whole chromosome.
        images = [overlay.map_ref_to_hap(p) for p in range(0, 1000)]
        assert images == sorted(images)

    def test_array_map_matches_scalar_map(self, small_assembly):
        sequence = small_assembly["chrA"].sequence
        overlay = HaplotypeOverlay("chrA", sequence, [
            Variant("chrA", 200,
                    base_at(small_assembly, "chrA", 200, 3), "G"),
            Variant("chrA", 400, base_at(small_assembly, "chrA", 400),
                    base_at(small_assembly, "chrA", 400) + "TTT"),
            Variant(*snv_row(small_assembly, "chrA", 900))])
        positions = np.arange(overlay.length)
        assert overlay.map_hap_to_ref_array(positions).tolist() == \
            [overlay.map_hap_to_ref(int(p)) for p in positions]


# ---------------------------------------------------------------------------
# Enzyme registry
# ---------------------------------------------------------------------------

class TestEnzymes:
    def test_builtin_patterns(self):
        assert SPCAS9.pattern == "N" * 20 + "NRG"
        assert CAS12A.pattern == "TTTV" + "N" * 23
        assert SPCAS9.designable and not CAS12A.designable

    def test_derive_pattern_sides(self):
        assert derive_pattern(4, "NGG", "3prime") == "NNNNNGG"
        assert derive_pattern(4, "TTTV", "5prime") == "TTTVNNNN"

    def test_toml_config_round_trip(self, tmp_path):
        path = tmp_path / "enzymes.toml"
        path.write_text(
            '[[enzymes]]\nname = "MiniCas"\nguide_length = 6\n'
            'pam = "RG"\npam_side = "3prime"\nscoring = "mit"\n')
        enzymes = load_enzymes(str(path))
        assert [e.name for e in enzymes] == ["MiniCas"]
        assert enzymes[0].pattern == PATTERN

    def test_json_config_round_trip(self, tmp_path):
        path = tmp_path / "enzymes.json"
        path.write_text(json.dumps({"enzymes": [
            {"name": "MiniCas12", "guide_length": 6, "pam": "TTV",
             "pam_side": "5prime", "scoring": "cfd"}]}))
        enzymes = load_enzymes(str(path))
        assert enzymes[0].pattern == "TTV" + "N" * 6
        assert not enzymes[0].designable

    def test_bad_pam_names_file_and_entry(self, tmp_path):
        path = tmp_path / "enzymes.json"
        path.write_text(json.dumps({"enzymes": [
            {"name": "Broken", "guide_length": 6, "pam": "XZ",
             "pam_side": "3prime", "scoring": "mit"}]}))
        with pytest.raises(EnzymeError, match=r"enzymes\[0\]"):
            load_enzymes(str(path))

    def test_declared_pattern_must_match_derivation(self):
        with pytest.raises(EnzymeError, match="disagrees"):
            enzyme_from_mapping(
                {"name": "Bad", "guide_length": 6, "pam": "RG",
                 "pam_side": "3prime", "scoring": "mit",
                 "pattern": "NNNNNNGG"})

    @pytest.mark.parametrize("names, index_pattern, message", [
        (["MiniCas", "MiniCas"], PATTERN, "duplicate enzyme 'MiniCas'"),
        (["MiniCas"], "NNNNNNGG", "built for 'NNNNNNGG'"),
    ], ids=["duplicate-name", "other-pattern"])
    def test_server_refuses_inconsistent_enzymes(
            self, variant_index, small_assembly, names, index_pattern,
            message):
        index = GenomeSiteIndex.build(small_assembly, index_pattern)
        enzymes = [(enzyme_from_mapping({"name": name, "guide_length": 6,
                                         "pam": "RG"}), index)
                   for name in names]
        with pytest.raises(ValueError, match=message):
            OffTargetServer(variant_index, enzymes=enzymes)


# ---------------------------------------------------------------------------
# search_variants semantics
# ---------------------------------------------------------------------------

class TestSearchVariants:
    def find_pam_site(self, assembly, create: bool):
        """A position where one SNV creates (or destroys) a + PAM."""
        seq = assembly["chrA"].sequence
        for s in range(0, 2500):
            window = seq[s:s + 8]
            if ord("N") in window:
                continue
            has_pam = window[6] in (ord("A"), ord("G")) and \
                window[7] == ord("G")
            if create and not has_pam and window[7] == ord("G"):
                return s  # flip position s+6 to A to create the PAM
            if not create and has_pam:
                return s  # flip position s+7 off G to destroy it
        raise AssertionError("no suitable site in the test assembly")

    def test_pam_creating_snv_is_gained(self, variant_index,
                                        small_assembly):
        s = self.find_pam_site(small_assembly, create=True)
        ref = base_at(small_assembly, "chrA", s + 6)
        haps = decode_haplotypes([
            {"name": "h", "variants": [["chrA", s + 6, ref, "A"]]}])
        result = search_variants(variant_index, QUERIES, haps)
        keys = event_keys(result.payload())
        assert ("gained", "N" * 8, "chrA", s, "+", 0,
                "chrA") not in keys  # sanity: site column is the seq
        gained = [k for k in keys
                  if k[0] == "gained" and k[3] == s and k[4] == "+"]
        assert gained, f"no gained event at {s}: {sorted(keys)}"
        row = next(r for r in result.events
                   if r[2] == "gained" and r[5] == s and r[7] == "+")
        assert row[0] == "h"
        assert row[1] == 0  # provenance: first (only) variant caused it

    def test_pam_destroying_snv_is_lost(self, variant_index,
                                        small_assembly):
        s = self.find_pam_site(small_assembly, create=False)
        ref = base_at(small_assembly, "chrA", s + 7)
        haps = decode_haplotypes([
            {"name": "h", "variants": [["chrA", s + 7, ref, "A"]]}])
        result = search_variants(variant_index, QUERIES, haps)
        lost = [k for k in event_keys(result.payload())
                if k[0] == "lost" and k[3] == s and k[4] == "+"]
        assert lost, f"no lost event at {s}"

    def test_matches_naive_oracle(self, variant_index, small_assembly):
        haps = decode_haplotypes([{"name": "h", "variants": [
            snv_row(small_assembly, "chrA", 777),
            ["chrA", 1500, base_at(small_assembly, "chrA", 1500, 4),
             base_at(small_assembly, "chrA", 1500)],
            tandem_dup_row(small_assembly, "chrA", 2200, 3),
            ["chrB", 900, base_at(small_assembly, "chrB", 900),
             base_at(small_assembly, "chrB", 900) + "GG"],
            unit_deletion_row(small_assembly, "chrB", 2000, 2),
        ]}])
        result = search_variants(variant_index, QUERIES, haps)
        assert event_keys(result.payload()) == naive_event_keys(
            variant_index, small_assembly, QUERIES, haps[0])

    def test_chunk_boundary_indel_matches_oracle(self, variant_index,
                                                 small_assembly):
        """Indels at a variant window's edge: an insertion, then a
        deletion whose affected interval touches the insertion's (one
        window) or starts one position past it (two windows that meet);
        merely-shifted hits still cancel on both sides."""
        insertion = ["chrA", 4000, base_at(small_assembly, "chrA", 4000),
                     base_at(small_assembly, "chrA", 4000) + "GAG"]
        for gap, windows in ((PLEN, 1), (PLEN + 1, 2)):
            ref = base_at(small_assembly, "chrA", 4000 + gap, 4)
            haps = decode_haplotypes([{"name": "h", "variants": [
                insertion, ["chrA", 4000 + gap, ref, ref[0]]]}])
            result = search_variants(variant_index, QUERIES, haps)
            assert result.patched_chunks == windows
            assert event_keys(result.payload()) == naive_event_keys(
                variant_index, small_assembly, QUERIES, haps[0])

    def test_single_comparer_batch(self, variant_index,
                                   small_assembly):
        haps = decode_haplotypes([
            {"name": "h1", "variants": [
                snv_row(small_assembly, "chrA", 600)]},
            {"name": "h2", "variants": [
                snv_row(small_assembly, "chrB", 700),
                snv_row(small_assembly, "chrB", 3000)]},
        ])
        before = variant_index.comparer_stats()
        result = search_variants(variant_index, QUERIES, haps)
        after = variant_index.comparer_stats()
        assert after["batches"] - before["batches"] == 1
        assert after["entries_scanned"] - before["entries_scanned"] \
            == result.reference_chunks + result.patched_chunks

    def test_each_query_compiles_once(self, variant_index,
                                      small_assembly, monkeypatch):
        compiled = []

        def counting(sequence):
            compiled.append(sequence)
            return compile_pattern(sequence)

        monkeypatch.setattr(index_module, "compile_pattern", counting)
        monkeypatch.setattr(overlay_module, "compile_pattern", counting,
                            raising=False)
        haps = decode_haplotypes([{"name": "h", "variants": [
            snv_row(small_assembly, "chrA", 600)]}])
        search_variants(variant_index, QUERIES, haps)
        assert compiled == [q.sequence for q in QUERIES]

    def test_shift_only_indel_produces_no_events(self, variant_index,
                                                 small_assembly):
        # A deletion inside the N gap cannot create or destroy sites:
        # every downstream hit merely shifts and must cancel.
        ref = base_at(small_assembly, "chrA", 3040, 5)
        assert ref == "N" * 5
        haps = decode_haplotypes([{"name": "h", "variants": [
            ["chrA", 3040, ref, "A"]]}])
        result = search_variants(variant_index, QUERIES, haps)
        assert result.events == []
        assert result.patched_chunks == 1  # it did re-scan the window

    def test_insertion_sites_sharing_a_key_keep_the_first(self):
        """Haplotype sites 301-303 start inside the insertion and all
        project to reference 301 with one key (+, GGGGGGGG, 0): one
        gained row stands for them, the smallest haplotype position.
        Its window starts inside the inserted bases, and the insertion
        is still its causal variant."""
        rng = np.random.default_rng(5)
        sequence = np.frombuffer(b"ACT", np.uint8)[
            rng.integers(0, 3, 600)]
        sequence[300:309] = np.frombuffer(b"GGGGGGGAG", np.uint8)
        index = GenomeSiteIndex.build(
            Assembly("dup-keys", [Chromosome("chrA", sequence)]),
            PATTERN)
        haps = decode_haplotypes([{"name": "h", "variants": [
            ["chrA", 300, "G", "GGGGG"]]}])
        result = search_variants(index, [Query("N" * 8, 0)], haps)
        assert result.events == [
            ["h", 0, "gained", "N" * 8, "chrA", 300, 300, "+", 0,
             "G" * 8],
            ["h", 0, "gained", "N" * 8, "chrA", 301, 301, "+", 0,
             "G" * 8]]

    def test_causal_variant_is_on_the_site_chromosome(
            self, variant_index, small_assembly):
        """A variant at the same coordinates on another chromosome is
        never a site's cause."""
        seq = small_assembly["chrB"].sequence
        s = next(s for s in range(100, 3000)
                 if chr(seq[s + 6]) in "AG" and seq[s + 7] == ord("G"))
        haps = decode_haplotypes([{"name": "h", "variants": [
            snv_row(small_assembly, "chrA", s + 3),
            ["chrB", s + 7, "G", "A"]]}])
        result = search_variants(variant_index, QUERIES, haps)
        assert ["h", 1, "lost", "N" * 8, "chrB", s, -1, "+", 0,
                base_at(small_assembly, "chrB", s, 8)] in result.events
        assert {(row[4], row[1]) for row in result.events} == \
            {("chrA", 0), ("chrB", 1)}

    def test_unknown_chromosome_rejected(self, variant_index):
        haps = decode_haplotypes([{"name": "h", "variants": [
            ["chrZ", 10, "A", "G"]]}])
        with pytest.raises(VariantError, match="chrZ"):
            search_variants(variant_index, QUERIES, haps)
        # ... unless a partition filter excludes it (the routed rule).
        result = search_variants(variant_index, QUERIES, haps,
                                 chromosomes=frozenset({"chrA"}))
        assert result.events == []

    def test_empty_inputs_rejected(self, variant_index,
                                   small_assembly):
        haps = decode_haplotypes([{"name": "h", "variants": [
            snv_row(small_assembly, "chrA", 100)]}])
        with pytest.raises(ValueError):
            search_variants(variant_index, [], haps)
        with pytest.raises(VariantError):
            search_variants(variant_index, QUERIES, [])
        with pytest.raises(VariantError, match="non-empty"):
            decode_haplotypes([{"name": "h", "variants": []}])


class TestVariantWindows:
    """A search re-scans only its variant windows: per run of nearby
    variants, the site starts they can change plus one position."""

    def test_snv_scans_plen_plus_one(self, variant_index,
                                     small_assembly):
        haps = decode_haplotypes([{"name": "h", "variants": [
            snv_row(small_assembly, "chrA", 5000)]}])
        result, lengths = scanned(variant_index, QUERIES, haps)
        assert lengths == [PLEN + 1]
        assert result.patched_chunks == 1

    def test_snvs_within_plen_share_a_window(self, variant_index,
                                             small_assembly):
        for gap, lengths in ((PLEN, [2 * PLEN + 1]),
                             (PLEN + 1, [PLEN + 1, PLEN + 1])):
            haps = decode_haplotypes([{"name": "h", "variants": [
                snv_row(small_assembly, "chrA", 5000),
                snv_row(small_assembly, "chrA", 5000 + gap)]}])
            result, scans = scanned(variant_index, QUERIES, haps)
            assert scans == lengths, gap
            assert result.patched_chunks == len(lengths)

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_scan_is_bounded_by_variants(self, data, variant_index,
                                         small_assembly):
        """No search scans more than ``plen + len(alt)`` positions per
        variant, one finder call per patch entry."""
        haps = decode_haplotypes(draw_haplotype_rows(data,
                                                     small_assembly))
        result, lengths = scanned(variant_index, QUERIES, haps)
        assert len(lengths) == result.patched_chunks
        assert sum(lengths) <= sum(PLEN + len(variant.alt)
                                   for hap in haps
                                   for variant in hap.variants)

    def test_repeat_unit_indels_match_oracle(self, repeat_assembly):
        """A one-unit tandem duplication and a one-unit deletion at
        every offset across three periods of each repeat.  A site
        starting inside the inserted unit projects to the reference
        position just past the variant, and its reference twin there
        must cancel it."""
        index = GenomeSiteIndex.build(repeat_assembly, PATTERN)
        sequence = repeat_assembly["chrR"].sequence.tobytes()
        for unit in (b"ACGG", b"AGG", b"CAGG"):
            start = sequence.index(unit * 12)
            k = len(unit)
            for position in range(start, start + 3 * k):
                for row in (
                        tandem_dup_row(repeat_assembly, "chrR",
                                       position, k),
                        ["chrR", position,
                         base_at(repeat_assembly, "chrR", position,
                                 k + 1),
                         base_at(repeat_assembly, "chrR", position)]):
                    haps = decode_haplotypes([{"name": "h",
                                               "variants": [row]}])
                    result = search_variants(index, QUERIES, haps)
                    assert event_keys(result.payload()) == \
                        naive_event_keys(index, repeat_assembly,
                                         QUERIES, haps[0]), row


class TestShortChromosomes:
    """A chromosome shorter than the pattern on one side of a variant
    has no site there: every site of the other side in the variant
    window is gained or lost, as the full-splice oracle finds."""

    @pytest.fixture(scope="class")
    def short_assembly(self) -> Assembly:
        rng = np.random.default_rng(5)
        return Assembly("short", [
            Chromosome("chrA", random_sequence(rng, 300)),
            Chromosome("chrS", np.frombuffer(b"ACGTAC", np.uint8)),
            Chromosome("chrT", np.frombuffer(b"ACGTACAGTC", np.uint8))])

    def events(self, assembly, variant):
        index = GenomeSiteIndex.build(assembly, PATTERN)
        haps = decode_haplotypes([{"name": "h", "variants": [variant]}])
        keys = event_keys(search_variants(index, QUERIES, haps)
                          .payload())
        assert keys == naive_event_keys(index, assembly, QUERIES,
                                        haps[0])
        return keys

    def test_growing_past_the_pattern_gains_sites(self, short_assembly):
        keys = self.events(short_assembly, ["chrS", 5, "C", "CAGG"])
        assert {("gained", "N" * 8, "chrS", 0, "+", 0, "ACGTACAG"),
                ("gained", "N" * 8, "chrS", 1, "+", 0,
                 "CGTACAGG")} <= keys

    def test_shrinking_below_the_pattern_loses_sites(self,
                                                     short_assembly):
        keys = self.events(short_assembly, ["chrT", 2, "GTAC", "G"])
        assert ("lost", "N" * 8, "chrT", 0, "+", 0, "ACGTACAG") in keys
        assert all(key[0] == "lost" for key in keys)


# ---------------------------------------------------------------------------
# Serving: ops, enzymes end to end, cross-tier byte-identity
# ---------------------------------------------------------------------------

class TestServedVariants:
    def haplotype_rows(self, small_assembly):
        return [
            {"name": "h1", "variants": [
                snv_row(small_assembly, "chrA", 640),
                ["chrA", 2100,
                 base_at(small_assembly, "chrA", 2100, 3),
                 base_at(small_assembly, "chrA", 2100)]]},
            {"name": "h2", "variants": [
                snv_row(small_assembly, "chrB", 512)]},
        ]

    def test_served_is_byte_identical(self, variant_index, served,
                                      small_assembly):
        haps = decode_haplotypes(self.haplotype_rows(small_assembly))
        expected = search_variants(variant_index, QUERIES,
                                   haps).payload()
        with ServiceClient(served.host, served.port) as client:
            response = client.variant_search(QUERIES, haps)
        response.pop("id", None)
        response.pop("ok", None)
        assert json.dumps(response) == json.dumps(expected)
        assert response["event_fields"] == list(EVENT_FIELDS)

    def test_variant_requests_counted(self, served, small_assembly):
        with ServiceClient(served.host, served.port) as client:
            before = client.stats()["requests_by_kind"].get(
                "variant", 0)
            client.variant_search(
                QUERIES,
                decode_haplotypes(self.haplotype_rows(small_assembly)))
            after = client.stats()["requests_by_kind"]["variant"]
        assert after == before + 1

    def test_bad_haplotypes_are_bad_request(self, served):
        with ServiceClient(served.host, served.port) as client:
            with pytest.raises(ServiceError) as info:
                client.variant_search(QUERIES, [{"name": "h"}])
        assert info.value.code == "bad-request"

    def test_config_enzyme_serves_end_to_end(self, tmp_path,
                                             small_assembly):
        path = tmp_path / "enzymes.toml"
        path.write_text(
            '[[enzymes]]\nname = "MiniCas"\nguide_length = 6\n'
            'pam = "RG"\npam_side = "3prime"\nscoring = "mit"\n\n'
            '[[enzymes]]\nname = "MiniCas12"\nguide_length = 6\n'
            'pam = "TTV"\npam_side = "5prime"\nscoring = "cfd"\n')
        enzymes = load_enzymes(str(path))
        pairs = [(e, GenomeSiteIndex.build(small_assembly, e.pattern))
                 for e in enzymes]
        server = OffTargetServer(pairs[0][1], max_wait_ms=1.0,
                                 enzymes=pairs)
        handle = server.start_background()
        try:
            with ServiceClient(handle.host, handle.port) as client:
                listing = client.enzymes()
                assert [row["name"] for row in listing["enzymes"]] == \
                    ["MiniCas", "MiniCas12"]
                assert client.health()["enzymes"] == \
                    ["MiniCas", "MiniCas12"]
                # MiniCas shares PATTERN with the default index, so an
                # enzyme-tagged query equals the untagged one.
                assert client.query(QUERIES, enzyme="MiniCas") == \
                    client.query(QUERIES)
                # The 5prime enzyme queries fine at its own length ...
                cas12_queries = [Query("TTV" + "N" * 6, 1)]
                client.query(cas12_queries, enzyme="MiniCas12")
                # ... but refuses guide design.
                with pytest.raises(ServiceError) as info:
                    client._call({"op": "design", "chrom": "chrA",
                                  "start": 0, "end": 300,
                                  "mismatches": 1,
                                  "enzyme": "MiniCas12"})
                assert info.value.code == "bad-request"
                assert "5prime" in str(info.value)
                # Unknown enzymes are typed bad requests listing hosts.
                with pytest.raises(ServiceError) as info:
                    client.query(QUERIES, enzyme="NoSuchCas")
                assert info.value.code == "bad-request"
                assert "MiniCas" in str(info.value)
                # Variant search against a config enzyme's own index.
                haps = decode_haplotypes(
                    [{"name": "h", "variants": [
                        snv_row(small_assembly, "chrA", 640)]}])
                tagged = client.variant_search(QUERIES, haps,
                                               enzyme="MiniCas")
                tagged.pop("id", None)
                tagged.pop("ok", None)
                expected = search_variants(pairs[0][1], QUERIES,
                                           haps).payload()
                assert json.dumps(tagged) == json.dumps(expected)
        finally:
            handle.stop()

    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_cross_tier_byte_identity(self, data, variant_index,
                                      served, routed, small_assembly):
        """In-process, served and routed variant responses are
        byte-identical for randomized SNV, indel, tandem-duplication
        and repeat-unit-deletion haplotypes — and in-process matches
        the naive full-splice oracle."""
        rows = draw_haplotype_rows(data, small_assembly)
        haps = decode_haplotypes(rows)

        expected = search_variants(variant_index, QUERIES,
                                   haps).payload()
        oracle = set()
        for hap in haps:
            oracle |= naive_event_keys(variant_index, small_assembly,
                                       QUERIES, hap)
        assert event_keys(expected) == oracle

        blob = json.dumps(expected)
        with ServiceClient(served.host, served.port) as client:
            response = client.variant_search(QUERIES, haps)
            response.pop("id", None)
            response.pop("ok", None)
            assert json.dumps(response) == blob
        with ServiceClient(routed.host, routed.port) as client:
            response = client.variant_search(QUERIES, haps)
            response.pop("id", None)
            response.pop("ok", None)
            assert json.dumps(response) == blob
