"""Guide-design subsystem: enumeration, estimators, ranked selection.

The acceptance invariants from the design brief:

* every enumerated candidate rides ONE batched comparer pass through
  the resident index (``comparer_stats`` proves it — no per-guide
  rescans);
* the ``design`` op is byte-identical across serving tiers
  (in-process, served, 2-backend router);
* estimator scores equal scoring the same hits directly with
  :mod:`repro.core.scoring`.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import scoring
from repro.core.config import Query
from repro.core.patterns import IUPAC_COMPLEMENT, IUPAC_MASKS
from repro.design import (CFDEstimator, DesignError, MITEstimator,
                          decode_candidates, decode_design_spec,
                          decode_reports, design_guides,
                          encode_candidates, enumerate_protospacers,
                          get_estimator, pattern_anatomy)
from repro.design.enumerate import PatternAnatomy, ProtospacerCandidate
from repro.design.ranking import DesignSpec
from repro.genome.assembly import Assembly, Chromosome
from repro.genome.fasta import sequence_to_array
from repro.runtime import executor
from repro.service import (GenomeSiteIndex, OffTargetRouter,
                           OffTargetServer, ServiceClient,
                           ServiceDeadlineError, ServiceError,
                           partition_chromosomes)

PATTERN = "NNNNNNRG"
CHUNK = 1 << 12


@pytest.fixture(scope="module")
def design_index(small_assembly) -> GenomeSiteIndex:
    return GenomeSiteIndex.build(small_assembly, PATTERN,
                                 chunk_size=CHUNK)


@pytest.fixture(scope="module")
def served(design_index):
    handle = OffTargetServer(design_index,
                             max_wait_ms=1.0).start_background()
    yield handle
    handle.stop()


@pytest.fixture(scope="module")
def routed(small_assembly):
    """A 2-backend chromosome-partitioned fleet behind a router."""
    parts = partition_chromosomes(small_assembly, 2)
    handles = [
        OffTargetServer(
            GenomeSiteIndex.build(small_assembly.subset(chroms),
                                  PATTERN, chunk_size=CHUNK),
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


def design_request(chrom="chrA", start=0, end=300, mismatches=2,
                   top=5, estimator="mit", **extra):
    request = {"op": "design", "chrom": chrom, "start": start,
               "end": end, "mismatches": mismatches, "top": top,
               "estimator": estimator}
    request.update(extra)
    return request


# ---------------------------------------------------------------------------
# Pattern anatomy
# ---------------------------------------------------------------------------

class TestPatternAnatomy:
    def test_leading_n_run_is_the_guide(self):
        anatomy = pattern_anatomy("NNNNNNRG")
        assert anatomy.guide_length == 6
        assert anatomy.pam == "RG"
        assert anatomy.plen == 8

    def test_explicit_guide_length_splits_merged_runs(self):
        # SpCas9: the PAM's own leading N merges into the guide N-run,
        # so the split must be stated explicitly.
        anatomy = pattern_anatomy("N" * 21 + "RG", guide_length=20)
        assert anatomy.guide_length == 20
        assert anatomy.pam == "NRG"

    def test_pattern_without_n_prefix_rejected(self):
        with pytest.raises(DesignError, match="guide"):
            pattern_anatomy("ACGTRG")

    def test_all_n_pattern_has_no_pam(self):
        with pytest.raises(DesignError, match="PAM"):
            pattern_anatomy("NNNNNN")

    def test_guide_length_beyond_n_run_rejected(self):
        with pytest.raises(DesignError):
            pattern_anatomy("NNNNNNRG", guide_length=7)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

class TestEnumeration:
    def test_enumeration_is_deterministic(self, small_assembly):
        anatomy = pattern_anatomy(PATTERN)
        first = enumerate_protospacers(small_assembly, "chrA", 0, 500,
                                       anatomy)
        second = enumerate_protospacers(small_assembly, "chrA", 0, 500,
                                        anatomy)
        assert first == second
        assert first, "a 500-bp random region must yield candidates"
        positions = [(c.position, c.strand) for c in first]
        assert positions == sorted(positions), \
            "candidates are ordered by position, '+' before '-'"

    def test_both_strands_found(self, small_assembly):
        anatomy = pattern_anatomy(PATTERN)
        candidates = enumerate_protospacers(small_assembly, "chrA",
                                            0, 1000, anatomy)
        assert {c.strand for c in candidates} == {"+", "-"}

    def test_composition_filters_apply(self, small_assembly):
        anatomy = pattern_anatomy(PATTERN)
        tight = enumerate_protospacers(small_assembly, "chrA", 0, 1000,
                                       anatomy, gc_min=0.5, gc_max=0.5,
                                       max_homopolymer=2)
        for candidate in tight:
            assert candidate.gc_fraction == pytest.approx(0.5)
            runs = max(len(run) for run in _runs(candidate.protospacer))
            assert runs <= 2

    def test_gc_bounds_are_inclusive_on_both_ends(self, small_assembly):
        # Regression: a guide whose GC fraction lands EXACTLY on
        # gc_min or gc_max must pass the filter (inclusive bounds).
        anatomy = pattern_anatomy(PATTERN)
        wide = enumerate_protospacers(small_assembly, "chrA", 0, 2000,
                                      anatomy, gc_min=0.0, gc_max=1.0,
                                      max_homopolymer=0)
        fractions = sorted({c.gc_fraction for c in wide})
        assert len(fractions) >= 3, "need distinct GC levels to test"
        gc_min, gc_max = fractions[1], fractions[-2]
        bounded = enumerate_protospacers(small_assembly, "chrA", 0,
                                         2000, anatomy, gc_min=gc_min,
                                         gc_max=gc_max,
                                         max_homopolymer=0)
        kept = {c.gc_fraction for c in bounded}
        assert gc_min in kept, "candidate exactly at gc_min kept"
        assert gc_max in kept, "candidate exactly at gc_max kept"
        assert all(gc_min <= gc <= gc_max for gc in kept)
        expected = [c for c in wide
                    if gc_min <= c.gc_fraction <= gc_max]
        assert bounded == expected

    def test_gc_filter_strictly_outside_rejected(self):
        # The only candidate, guide ACGT at 0 before the AG PAM, has
        # GC exactly 0.5; the reverse strand reads GT, not RG.
        assembly = _one_chromosome("ACGTAG")
        anatomy = pattern_anatomy("NNNNRG")

        def kept(gc_min, gc_max):
            return [c.gc_fraction for c in enumerate_protospacers(
                assembly, "c", 0, 1, anatomy, gc_min=gc_min,
                gc_max=gc_max, max_homopolymer=0)]

        # Inclusive at either bound.
        assert kept(0.5, 1.0) == kept(0.0, 0.5) == kept(0.5, 0.5) == [0.5]
        # Strictly outside either bound: rejected.
        assert kept(0.51, 1.0) == kept(0.0, 0.49) == []

    def test_zero_length_guide_does_not_divide_by_zero(self):
        # pattern_anatomy rejects this anatomy; a direct caller gets no
        # candidates rather than a division by zero.
        anatomy = PatternAnatomy(pattern="RG", guide_length=0, pam="RG")
        assert enumerate_protospacers(_one_chromosome("ACGTAGAG"), "c",
                                      0, 6, anatomy) == []

    def test_n_gap_yields_no_candidates(self, small_assembly):
        # chrA[3000:3100] is an N gap: guides there are unusable.
        anatomy = pattern_anatomy(PATTERN)
        gap = enumerate_protospacers(small_assembly, "chrA",
                                     3000, 3093, anatomy)
        assert gap == []

    def test_bad_region_rejected(self, small_assembly):
        anatomy = pattern_anatomy(PATTERN)
        with pytest.raises(DesignError, match="chrZ"):
            enumerate_protospacers(small_assembly, "chrZ", 0, 100,
                                   anatomy)
        with pytest.raises(DesignError):
            enumerate_protospacers(small_assembly, "chrA", 200, 100,
                                   anatomy)
        with pytest.raises(DesignError, match="end of chrA"):
            enumerate_protospacers(small_assembly, "chrA", 0, 9000,
                                   anatomy)

    def test_query_sequence_masks_the_pam(self, small_assembly):
        anatomy = pattern_anatomy(PATTERN)
        candidate = enumerate_protospacers(small_assembly, "chrA",
                                           0, 300, anatomy)[0]
        assert candidate.query_sequence == \
            candidate.protospacer + "NN"

    def test_candidate_wire_round_trip(self, small_assembly):
        anatomy = pattern_anatomy(PATTERN)
        candidates = enumerate_protospacers(small_assembly, "chrA",
                                            0, 300, anatomy)
        rows = json.loads(json.dumps(encode_candidates(candidates)))
        assert decode_candidates(rows) == candidates


def _one_chromosome(text):
    return Assembly("one", [Chromosome("c", sequence_to_array(text))])


def _oracle_enumerate(assembly, chrom, start, end, anatomy, gc_min,
                      gc_max, max_homopolymer):
    """Per-position reference enumeration: every window and strand
    tested one at a time on text, a non-IUPAC byte read as ``N``."""
    text = "".join(c if c in IUPAC_MASKS else "N" for c in
                   assembly.fetch(chrom, 0, len(assembly[chrom]))
                   .tobytes().decode("latin-1"))
    glen, plen = anatomy.guide_length, anatomy.plen
    candidates = []
    for position in range(start, min(end, len(text) - plen + 1)):
        window = text[position:position + plen]
        reverse = "".join(IUPAC_COMPLEMENT[c] for c in reversed(window))
        for strand, site in (("+", window), ("-", reverse)):
            guide, pam = site[:glen], site[glen:]
            if not all(code == "N" or (base != "N" and IUPAC_MASKS[base]
                                       & IUPAC_MASKS[code])
                       for code, base in zip(anatomy.pam, pam)):
                continue
            if not glen or set(guide) - set("ACGT"):
                continue
            gc = (guide.count("G") + guide.count("C")) / glen
            if not gc_min <= gc <= gc_max:
                continue
            if max_homopolymer and max(
                    len(run) for run in _runs(guide)) > max_homopolymer:
                continue
            candidates.append(ProtospacerCandidate(
                chrom=chrom, position=position, strand=strand,
                protospacer=guide, pam=pam, gc_fraction=gc))
    return candidates


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       extra=st.sampled_from([b"", b"RYKMSW", b"BDHV*", b"*"]),
       layout=st.sampled_from([("NNNNNNRG", None), ("NNNNNNNNNGG", 8),
                               ("N" * 21 + "RG", 20), ("NNNNTTTV", None),
                               ("NNNNNNNNNRRT", None)]),
       gc_bounds=st.sampled_from([(0.2, 0.8), (0.0, 1.0), (0.5, 0.5),
                                  (0.25, 0.75), (0.375, 0.625),
                                  (0.0, 0.0), (1.0, 1.0)]),
       max_homopolymer=st.integers(0, 8),
       block=st.sampled_from([16, 1 << 20]))
def test_enumeration_matches_per_position_oracle(
        seed, extra, layout, gc_bounds, max_homopolymer, block):
    """The vectorized enumeration equals the per-position oracle over
    genomes with N runs, IUPAC and non-IUPAC bytes, a default and an
    overridden guide length, exact GC boundary values, homopolymer caps
    of 0-8 and a region spanning several position blocks."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 400))
    genome = rng.choice(np.frombuffer(b"ACGT", dtype=np.uint8), n,
                        p=[0.35, 0.15, 0.15, 0.35])
    lo = int(rng.integers(0, n))
    genome[lo:lo + int(rng.integers(1, 25))] = ord("N")
    for byte in extra:
        genome[int(rng.integers(0, n))] = byte
    assembly = Assembly("h", [Chromosome("c", genome)])
    anatomy = pattern_anatomy(*layout)
    start = int(rng.integers(0, n - 1))
    end = int(rng.integers(start + 1, n + 1))
    gc_min, gc_max = gc_bounds
    expected = _oracle_enumerate(assembly, "c", start, end, anatomy,
                                 gc_min, gc_max, max_homopolymer)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executor, "VECTORIZED_BLOCK_ITEMS", block)
        got = enumerate_protospacers(assembly, "c", start, end, anatomy,
                                     gc_min=gc_min, gc_max=gc_max,
                                     max_homopolymer=max_homopolymer)
    assert got == expected


def test_non_iupac_byte_enumerates_as_n():
    """A ``*`` in the region enumerates exactly as an ``N`` there,
    including where it falls in a PAM's unchecked ``N`` slot."""
    rng = np.random.default_rng(3)
    genome = rng.choice(np.frombuffer(b"ACGT", dtype=np.uint8), 600)
    anatomy = pattern_anatomy("N" * 21 + "GG", guide_length=20)
    guide = np.frombuffer(b"ACGTTGCAACGTTGCAACGT", dtype=np.uint8)
    # A forward site at 80 and a reverse site at 300, each with a
    # passing guide and a '*' in its PAM's unchecked slot.
    genome[80:103] = np.concatenate([guide, np.frombuffer(b"AGG", np.uint8)])
    genome[300:323] = np.concatenate([np.frombuffer(b"CCT", np.uint8),
                                      guide])
    for at in (100, 302, 450):
        genome[at] = ord("*")
    with_star = enumerate_protospacers(
        Assembly("s", [Chromosome("c", genome)]), "c", 0, 570, anatomy)
    genome[genome == ord("*")] = ord("N")
    with_n = enumerate_protospacers(
        Assembly("n", [Chromosome("c", genome)]), "c", 0, 570, anatomy)
    assert with_star == with_n
    assert {(c.position, c.strand) for c in with_n} >= {(80, "+"),
                                                      (300, "-")}


def _runs(text):
    run = text[0]
    for char in text[1:]:
        if char == run[-1]:
            run += char
        else:
            yield run
            run = char
    yield run


# ---------------------------------------------------------------------------
# Estimators: uniform API over core scoring
# ---------------------------------------------------------------------------

class TestEstimators:
    def test_get_estimator_by_name(self):
        assert isinstance(get_estimator("mit", 6), MITEstimator)
        assert isinstance(get_estimator("cfd", 6), CFDEstimator)
        instance = MITEstimator(guide_length=6)
        assert get_estimator(instance, 20) is instance

    def test_unknown_estimator_lists_the_registry(self):
        with pytest.raises(DesignError, match="cfd.*mit"):
            get_estimator("doench", 6)

    def test_estimator_scores_equal_direct_scoring(self, design_index):
        hits = design_index.query_batch([Query("GACGTCNN", 3)])[0]
        assert hits
        mit = MITEstimator(guide_length=6)
        cfd = CFDEstimator(guide_length=6)
        for hit in hits:
            assert mit.site_score(hit) == scoring.score_hit(hit, 6)
            assert cfd.site_score(hit) == \
                scoring.cfd_score_hit(hit, 6)
        assert mit.summarize(hits) == \
            scoring.summarize_hits(hits, 6, scoring.score_hit)
        assert cfd.summarize(hits) == \
            scoring.summarize_hits(hits, 6, scoring.cfd_score_hit)

    def test_estimator_rank_matches_core_rank(self, design_index):
        hits = design_index.query_batch(
            [Query("GACGTCNN", 2), Query("TTACGANN", 2)])
        flat = [hit for per in hits for hit in per]
        estimator = MITEstimator(guide_length=6)
        assert estimator.rank(flat) == scoring.rank_guides(
            flat, 6, scoring.score_hit)


# ---------------------------------------------------------------------------
# The in-process workflow and the single-scan acceptance proof
# ---------------------------------------------------------------------------

class TestDesignGuides:
    def test_top_n_and_deterministic_order(self, design_index):
        result = design_guides(design_index, "chrA", 0, 400, 2,
                               top_n=3)
        assert len(result.reports) == 3
        again = design_guides(design_index, "chrA", 0, 400, 2,
                              top_n=3)
        assert result.reports == again.reports
        keys = [(-r.specificity, r.guide, r.chrom, r.position,
                 r.strand) for r in result.reports]
        assert keys == sorted(keys)

    def test_all_candidates_score_in_one_batched_scan(
            self, design_index):
        """The acceptance invariant: K unique candidate queries ->
        exactly one comparer batch covering all K."""
        before = design_index.comparer_stats()
        result = design_guides(design_index, "chrA", 0, 400, 2)
        after = design_index.comparer_stats()
        assert len(result.queries) > 1
        assert after["batches"] - before["batches"] == 1
        assert after["queries_total"] - before["queries_total"] == \
            len(result.queries)

    def test_report_specificity_equals_direct_scoring(
            self, design_index):
        result = design_guides(design_index, "chrA", 0, 300, 2,
                               estimator="cfd")
        by_guide = {r.guide: r for r in result.reports}
        for candidate in result.candidates:
            if candidate.protospacer not in by_guide:
                continue
            hits = design_index.query_batch(
                [Query(candidate.query_sequence, 2)])[0]
            expected = scoring.summarize_hits(
                hits, 6, scoring.cfd_score_hit)
            report = by_guide[candidate.protospacer]
            assert report.specificity == expected[0]
            assert report.on_targets == expected[1]
            assert report.off_targets == expected[2]
            assert report.worst_off_target == expected[3]

    def test_estimator_choice_changes_scores(self, design_index):
        mit = design_guides(design_index, "chrA", 0, 300, 2,
                            estimator="mit")
        cfd = design_guides(design_index, "chrA", 0, 300, 2,
                            estimator="cfd")
        assert [r.specificity for r in mit.reports] != \
            [r.specificity for r in cfd.reports]

    def test_design_spec_validation(self):
        with pytest.raises(ValueError, match="chrom"):
            decode_design_spec({"start": 0, "end": 10,
                                "mismatches": 1})
        with pytest.raises(ValueError, match="start < end"):
            decode_design_spec({"chrom": "chrA", "start": 10,
                                "end": 10, "mismatches": 1})
        with pytest.raises(ValueError, match="mismatches"):
            decode_design_spec({"chrom": "chrA", "start": 0,
                                "end": 10, "mismatches": "two"})
        with pytest.raises(ValueError, match="GC"):
            decode_design_spec({"chrom": "chrA", "start": 0,
                                "end": 10, "mismatches": 1,
                                "gc_min": 0.9, "gc_max": 0.1})
        spec = decode_design_spec({"chrom": "chrA", "start": 0,
                                   "end": 10, "mismatches": 1})
        assert spec == DesignSpec(chrom="chrA", start=0, end=10,
                                  max_mismatches=1)


# ---------------------------------------------------------------------------
# The design op across serving tiers: byte-identity
# ---------------------------------------------------------------------------

class TestDesignOp:
    def expected_payload(self, design_index, request) -> str:
        spec = decode_design_spec(request)
        result = design_guides(
            design_index, spec.chrom, spec.start, spec.end,
            spec.max_mismatches, top_n=spec.top_n,
            estimator=spec.estimator, guide_length=spec.guide_length,
            gc_min=spec.gc_min, gc_max=spec.gc_max,
            max_homopolymer=spec.max_homopolymer)
        return json.dumps({"ok": True, **result.payload()})

    def call(self, handle, request) -> str:
        with ServiceClient(handle.host, handle.port,
                           retries=4) as client:
            response = client._call(dict(request))
        response.pop("id", None)
        return json.dumps(response)

    def test_served_design_matches_in_process(self, design_index,
                                              served):
        request = design_request()
        assert self.call(served, request) == \
            self.expected_payload(design_index, request)

    def test_routed_design_matches_in_process(self, design_index,
                                              routed):
        request = design_request(chrom="chrB", end=400,
                                 estimator="cfd")
        assert self.call(routed, request) == \
            self.expected_payload(design_index, request)

    @settings(max_examples=8, deadline=None)
    @given(chrom=st.sampled_from(["chrA", "chrB"]),
           start=st.integers(min_value=0, max_value=2000),
           width=st.integers(min_value=50, max_value=400),
           mismatches=st.integers(min_value=0, max_value=3),
           estimator=st.sampled_from(["mit", "cfd"]),
           top=st.integers(min_value=1, max_value=8))
    def test_design_identity_sweep(self, design_index, served,
                                   routed, chrom, start,
                                   width, mismatches, estimator, top):
        """In-process, served and 2-backend routed design responses
        are byte-identical for arbitrary specs."""
        request = design_request(chrom=chrom, start=start,
                                 end=start + width,
                                 mismatches=mismatches, top=top,
                                 estimator=estimator)
        expected = self.expected_payload(design_index, request)
        assert self.call(served, request) == expected
        assert self.call(routed, request) == expected

    def test_design_counts_in_scheduler_stats(self, design_index,
                                              served):
        with ServiceClient(served.host, served.port) as client:
            before = client.stats()["requests_by_kind"]
            client.design("chrA", 0, 300, 2)
            client.query([Query("GACGTCNN", 2)])
            after = client.stats()["requests_by_kind"]
        assert after["design"] == before["design"] + 1
        assert after["query"] == before["query"] + 1

    def test_client_design_decodes_reports(self, served):
        with ServiceClient(served.host, served.port) as client:
            response = client.design("chrA", 0, 300, 2, top=3,
                                     estimator="cfd")
        assert response["estimator"] == "cfd"
        assert len(response["reports"]) == 3
        assert response["reports"] == \
            decode_reports(response["report_rows"])
        assert response["reports"][0].specificity >= \
            response["reports"][-1].specificity

    def test_bad_design_requests_are_typed(self, served, routed):
        for handle in (served, routed):
            with ServiceClient(handle.host, handle.port) as client:
                with pytest.raises(ServiceError, match="bad-request"):
                    client._call(design_request(start=10, end=10))
                with pytest.raises(ServiceError, match="bad-request"):
                    client._call(design_request(estimator="doench"))
        with ServiceClient(served.host, served.port) as client:
            with pytest.raises(ServiceError, match="bad-request"):
                client._call(design_request(chrom="chrZ"))
        with ServiceClient(routed.host, routed.port) as client:
            with pytest.raises(ServiceError,
                               match="no partition holds"):
                client._call(design_request(chrom="chrZ"))

    def test_deadline_s_is_checked_on_the_wire(self, served, routed):
        """A ``deadline_s`` that is not a number is a ``bad-request``
        for ``query`` and ``design`` on the server and the router; on
        the server a spent one answers ``deadline`` for both ops."""
        query = {"op": "query", "queries": [["GACGTCNN", 3]]}
        for handle in (served, routed):
            with ServiceClient(handle.host, handle.port) as client:
                for request in (query, design_request()):
                    for deadline in ("soon", True):
                        with pytest.raises(ServiceError,
                                           match="bad-request"):
                            client._call({**request,
                                          "deadline_s": deadline})
        with ServiceClient(served.host, served.port) as client:
            assert client._call({**design_request(),
                                 "op": "enumerate"})["queries"]
            for request in (query, design_request()):
                with pytest.raises(ServiceDeadlineError):
                    client._call({**request, "deadline_s": 0})

    def test_enumerate_op_round_trips(self, small_assembly, served):
        with ServiceClient(served.host, served.port) as client:
            response = client._call({"op": "enumerate",
                                     "chrom": "chrA", "start": 0,
                                     "end": 300, "mismatches": 0})
        anatomy = pattern_anatomy(PATTERN)
        expected = enumerate_protospacers(small_assembly, "chrA",
                                          0, 300, anatomy)
        assert decode_candidates(response["candidates"]) == expected
        from repro.design import candidate_queries
        assert response["queries"] == candidate_queries(expected)
