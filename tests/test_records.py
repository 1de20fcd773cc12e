"""Unit tests for off-target hit records and the output format."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.patterns import PatternError, reverse_complement
from repro.core.records import (HEADER, OffTargetHit, hits_from_rows,
                                hits_to_rows, read_hits, render_sites,
                                site_strings, sort_hits, write_hits)
from repro.genome.fasta import sequence_to_array


def seq(text):
    return sequence_to_array(text)


#: IUPAC code -> the concrete bases it stands for, and its complement.
BASES = {"A": "A", "C": "C", "G": "G", "T": "T", "R": "AG", "Y": "CT",
         "M": "AC", "K": "GT", "W": "AT", "S": "CG", "B": "CGT",
         "D": "AGT", "H": "ACT", "V": "ACG", "N": "ACGT"}
COMPLEMENT = dict(zip("ACGTRYMKWSBDHVN", "TGCAYRKMWSVHDBN"))


def counts_as_mismatch(code: str, base: str) -> bool:
    """Listing 1, one position: query ``code`` against genome byte
    ``base``.  A concrete code mismatches anything but itself (in either
    case); an ambiguity code mismatches only concrete bases it excludes;
    ``N`` is never compared."""
    if code == "N":
        return False
    if code in "ACGT":
        return base.upper() != code
    return base.upper() in "ACGT" and base.upper() not in BASES[code]


def render_one(window: str, strand: str, query: str) -> str:
    """The site column for one hit, written out base by base."""
    if strand == "+":
        compared = query
        display = list(window)
        flags = [counts_as_mismatch(c, b)
                 for c, b in zip(compared, window)]
    else:
        compared = "".join(COMPLEMENT[c] for c in reversed(query))
        flags = [counts_as_mismatch(c, b)
                 for c, b in zip(compared, window)][::-1]
        display = [COMPLEMENT[b.upper()] for b in reversed(window)]
    return "".join(c.lower() if flag and "A" <= c <= "Z" else c
                   for c, flag in zip(display, flags))


class TestFromSite:
    def test_forward_hit_marks_mismatches_lowercase(self):
        window = seq("ACGTAGG")
        query = seq("ACCTNGG")  # mismatch at position 2 only
        hit = OffTargetHit.from_site("ACCTNGG", "chr1", 10, "+", 1,
                                     window, query)
        assert hit.site == "ACgTAGG"
        assert hit.position == 10
        assert hit.mismatches == 1

    def test_reverse_hit_displayed_in_query_orientation(self):
        window = seq("ACGTAGG")
        rc_query = reverse_complement(seq("CCTNACG"))  # compared vs window
        hit = OffTargetHit.from_site("CCTNACG", "chr1", 5, "-", None or 0,
                                     window, rc_query)
        # Display = revcomp(window), mismatch flags reversed.
        assert hit.site.upper() == "CCTACGT"
        assert hit.strand == "-"

    def test_no_mismatch_all_uppercase(self):
        window = seq("ACGT")
        hit = OffTargetHit.from_site("ACGT", "c", 0, "+", 0, window,
                                     seq("ACGT"))
        assert hit.site == "ACGT"

    def test_n_in_genome_marked_against_concrete_query(self):
        window = seq("ANGT")
        hit = OffTargetHit.from_site("ACGT", "c", 0, "+", 1, window,
                                     seq("ACGT"))
        # N is not a letter change candidate for lowercase (N stays N).
        assert hit.site[1] in ("N", "n")


class TestRenderSites:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_rows_match_per_base_rendering(self, data):
        """Both strands, IUPAC query codes, genome N, soft-masked
        lowercase and non-IUPAC bytes (which only a ``-`` window
        rejects)."""
        plen = data.draw(st.integers(1, 12), label="plen")
        genome = data.draw(st.text("ACGTNacgtnRYKMryX*", min_size=plen,
                                   max_size=plen + 40), label="genome")
        query = data.draw(st.text("".join(BASES), min_size=plen,
                                  max_size=plen), label="query")
        rows = data.draw(st.lists(st.tuples(
            st.integers(0, len(genome) - plen), st.sampled_from("+-")),
            max_size=10), label="rows")
        loci = np.array([locus for locus, _ in rows], dtype=np.uint32)
        minus = np.array([strand == "-" for _, strand in rows],
                         dtype=bool)
        rc = "".join(COMPLEMENT[c] for c in reversed(query))
        args = (seq(genome), loci, minus, seq(query), seq(rc))
        try:
            expected = [render_one(genome[lo:lo + plen], strand, query)
                        for lo, strand in rows]
        except KeyError:  # a - window holds a non-IUPAC byte
            with pytest.raises(PatternError):
                render_sites(*args)
            return
        assert site_strings(render_sites(*args)) == expected


class TestIO:
    def make_hits(self):
        return [
            OffTargetHit("ACGT", "chr2", 5, "+", 1, "ACgT"),
            OffTargetHit("ACGT", "chr1", 9, "-", 0, "ACGT"),
            OffTargetHit("ACGT", "chr1", 2, "+", 2, "AcgT"),
        ]

    def test_tsv_roundtrip_stream(self):
        hits = self.make_hits()
        out = io.StringIO()
        write_hits(hits, out)
        text = out.getvalue()
        assert text.startswith(HEADER)
        back = read_hits(io.StringIO(text))
        assert back == hits

    def test_tsv_roundtrip_file(self, tmp_path):
        path = tmp_path / "hits.tsv"
        hits = self.make_hits()
        write_hits(hits, path)
        assert read_hits(path) == hits

    def test_header_optional(self):
        out = io.StringIO()
        write_hits(self.make_hits(), out, header=False)
        assert not out.getvalue().startswith("#")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="6 tab-separated"):
            read_hits(io.StringIO("a\tb\tc\n"))

    def test_sort_hits_canonical(self):
        ordered = sort_hits(self.make_hits())
        assert [(h.chrom, h.position) for h in ordered] == \
            [("chr1", 2), ("chr1", 9), ("chr2", 5)]

    def test_to_tsv_fields(self):
        hit = OffTargetHit("Q", "chr1", 3, "-", 2, "site")
        assert hit.to_tsv() == "Q\tchr1\t3\tsite\t-\t2"

    def test_wire_rows_roundtrip_through_json(self):
        hits = self.make_hits()
        rows = hits_to_rows(hits)
        assert rows[0] == ["ACGT", "chr2", 5, "ACgT", "+", 1]
        assert hits_from_rows(json.loads(json.dumps(rows))) == hits

    @pytest.mark.parametrize("row", [["ACGT", "chr1", 2, "AcgT", "+"],
                                     ["ACGT", "chr1", "x", "AcgT", "+", 2],
                                     ["ACGT", "chr1", None, "AcgT", "+", 2]])
    def test_malformed_wire_row_rejected(self, row):
        with pytest.raises((IndexError, TypeError, ValueError)):
            hits_from_rows([row])


class TestAtomicWrite:
    def make_hits(self):
        return TestIO.make_hits(self)

    def test_no_part_file_left_behind(self, tmp_path):
        path = tmp_path / "hits.tsv"
        write_hits(self.make_hits(), path)
        assert read_hits(path) == self.make_hits()
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_write_preserves_previous_output(self, tmp_path):
        path = tmp_path / "hits.tsv"
        write_hits(self.make_hits(), path)
        before = path.read_bytes()

        def poisoned():
            yield self.make_hits()[0]
            raise RuntimeError("boom mid-iteration")

        with pytest.raises(RuntimeError, match="boom"):
            write_hits(poisoned(), path)
        # A crashed write never truncates the existing file, and the
        # temp file is cleaned up.
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_write_leaves_no_file_when_none_existed(self,
                                                           tmp_path):
        path = tmp_path / "hits.tsv"

        def poisoned():
            raise RuntimeError("boom")
            yield  # pragma: no cover

        with pytest.raises(RuntimeError):
            write_hits(poisoned(), path)
        assert list(tmp_path.iterdir()) == []
