"""Unit + property tests for the IUPAC pattern algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.patterns import (COMPLEMENT_TABLE, IUPAC_COMPLEMENT,
                                 IUPAC_MASKS, MASK_TABLE, MISMATCH_LUT,
                                 PatternError, compile_pattern,
                                 count_mismatches, mask_of,
                                 reverse_complement, validate_iupac)
from repro.genome.fasta import sequence_to_array
from repro.kernels.vectorized import pam_match_block

IUPAC = "ACGTRYMKWSBDHVN"


def seq(text):
    return sequence_to_array(text)


class TestMasks:
    def test_concrete_bases_are_single_bits(self):
        for base in "ACGT":
            assert bin(IUPAC_MASKS[base]).count("1") == 1

    def test_n_covers_everything(self):
        assert IUPAC_MASKS["N"] == 15

    def test_ambiguity_codes_are_unions(self):
        assert IUPAC_MASKS["R"] == IUPAC_MASKS["A"] | IUPAC_MASKS["G"]
        assert IUPAC_MASKS["Y"] == IUPAC_MASKS["C"] | IUPAC_MASKS["T"]
        assert IUPAC_MASKS["B"] == 15 - IUPAC_MASKS["A"]
        assert IUPAC_MASKS["D"] == 15 - IUPAC_MASKS["C"]
        assert IUPAC_MASKS["H"] == 15 - IUPAC_MASKS["G"]
        assert IUPAC_MASKS["V"] == 15 - IUPAC_MASKS["T"]

    def test_mask_table_case_insensitive(self):
        for code in IUPAC:
            assert MASK_TABLE[ord(code)] == MASK_TABLE[ord(code.lower())]

    def test_mask_of(self):
        np.testing.assert_array_equal(mask_of("AN"), [1, 15])

    def test_non_iupac_has_zero_mask(self):
        assert MASK_TABLE[ord("X")] == 0
        assert MASK_TABLE[ord("-")] == 0


class TestComplement:
    def test_complement_is_involution(self):
        for code, comp in IUPAC_COMPLEMENT.items():
            assert IUPAC_COMPLEMENT[comp] == code

    def test_complement_preserves_mask_semantics(self):
        """comp(X)'s concrete set == complements of X's concrete set."""
        comp_of_base = {"A": "T", "C": "G", "G": "C", "T": "A"}
        for code, mask in IUPAC_MASKS.items():
            concrete = {b for b in "ACGT"
                        if mask & IUPAC_MASKS[b]}
            comp_concrete = {comp_of_base[b] for b in concrete}
            comp_mask = IUPAC_MASKS[IUPAC_COMPLEMENT[code]]
            assert {b for b in "ACGT"
                    if comp_mask & IUPAC_MASKS[b]} == comp_concrete

    def test_reverse_complement(self):
        assert reverse_complement("ACGT").tobytes() == b"ACGT"
        assert reverse_complement("AAGG").tobytes() == b"CCTT"
        assert reverse_complement("NRG").tobytes() == b"CYN"

    def test_reverse_complement_rejects_garbage(self):
        with pytest.raises(PatternError):
            reverse_complement("AXG")


class TestValidate:
    def test_uppercases(self):
        assert validate_iupac("acgtn").tobytes() == b"ACGTN"

    def test_rejects_non_iupac(self):
        with pytest.raises(PatternError, match="non-IUPAC"):
            validate_iupac("ACGU")


class TestMismatchLUT:
    def test_concrete_pattern_matches_only_itself(self):
        for pattern in "ACGT":
            for genome in "ACGTN":
                expected = 0 if genome == pattern else 1
                assert MISMATCH_LUT[ord(pattern), ord(genome)] == expected

    def test_ambiguity_codes_listing1_rows(self):
        """The uncorrupted rows of Listing 1, verbatim."""
        cases = [
            ("R", "C", 1), ("R", "T", 1), ("R", "A", 0), ("R", "G", 0),
            ("Y", "A", 1), ("Y", "G", 1), ("Y", "C", 0), ("Y", "T", 0),
            ("M", "G", 1), ("M", "T", 1), ("M", "A", 0),
            ("W", "C", 1), ("W", "G", 1), ("W", "T", 0),
            ("H", "G", 1), ("H", "A", 0),
            ("B", "A", 1), ("B", "C", 0),
            ("V", "T", 1), ("V", "G", 0),
            ("D", "C", 1), ("D", "T", 0),
        ]
        for pattern, genome, expected in cases:
            assert MISMATCH_LUT[ord(pattern), ord(genome)] == expected, \
                (pattern, genome)

    def test_genome_n_mismatches_concrete_but_not_ambiguous(self):
        """The original kernel's subtle N behaviour (module docstring)."""
        assert MISMATCH_LUT[ord("G"), ord("N")] == 1
        assert MISMATCH_LUT[ord("R"), ord("N")] == 0

    def test_pattern_n_never_compared(self):
        for genome in "ACGTN":
            assert MISMATCH_LUT[ord("N"), ord(genome)] == 0

    def test_count_mismatches(self):
        assert count_mismatches(seq("ACGT"), seq("ACGT")) == 0
        assert count_mismatches(seq("ACGT"), seq("TCGA")) == 2
        assert count_mismatches(seq("NNGT"), seq("CCGT")) == 0


class TestPatternMatchesAt:
    """The finder's block matcher, which guide design also runs."""

    @staticmethod
    def matches(pattern, genome):
        """Forward-strand match at every position whose window fits."""
        cp = compile_pattern(pattern)
        genome = seq(genome)
        positions = np.arange(max(0, genome.size - cp.plen + 1))
        return pam_match_block(cp.comp, cp.checked_positions_forward,
                               genome, positions, 0).tolist()

    def test_pam_match(self):
        # TTAG and TAGG admit R, G; AGGC fails.
        assert self.matches("NNRG", "TTAGGC") == [True, True, False]

    def test_genome_n_fails_checked_positions(self):
        assert self.matches("NG", "AN") == [False]
        assert self.matches("NG", "NG") == [True]

    def test_window_too_short(self):
        assert self.matches("ACGT", "AC") == []


class TestCompiledPattern:
    def test_layout(self):
        cp = compile_pattern("ANGR")
        assert cp.plen == 4
        assert cp.comp.tobytes() == b"ANGR" + b"YCNT"
        # Forward checked: 0, 2, 3 (N at 1 skipped), -1 terminated.
        np.testing.assert_array_equal(cp.comp_index[:4], [0, 2, 3, -1])
        # Reverse (YCNT): checked 0, 1, 3.
        np.testing.assert_array_equal(cp.comp_index[4:], [0, 1, 3, -1])

    def test_checked_position_properties(self):
        cp = compile_pattern("NNNNNNNNNNNNNNNNNNNNNRG")
        np.testing.assert_array_equal(cp.checked_positions_forward,
                                      [21, 22])
        np.testing.assert_array_equal(cp.checked_positions_reverse,
                                      [0, 1])

    def test_empty_pattern_rejected(self):
        with pytest.raises(PatternError, match="empty"):
            compile_pattern("")

    def test_decode(self):
        assert compile_pattern("acg").decode() == "ACG"


@settings(max_examples=50)
@given(st.text(alphabet=IUPAC, min_size=1, max_size=40))
def test_reverse_complement_involution(text):
    assert reverse_complement(reverse_complement(text)).tobytes() == \
        text.encode()


@settings(max_examples=50)
@given(st.text(alphabet=IUPAC, min_size=1, max_size=30),
       st.text(alphabet="ACGTN", min_size=1, max_size=30))
def test_mismatch_strand_symmetry(pattern, genome):
    """count(q, site) == count(revcomp(q), revcomp(site)): the property
    that makes reporting '-' hits in query orientation correct."""
    n = min(len(pattern), len(genome))
    q, g = seq(pattern[:n]), seq(genome[:n])
    assert count_mismatches(q, g) == count_mismatches(
        reverse_complement(q), reverse_complement(g))


@settings(max_examples=50)
@given(st.text(alphabet=IUPAC, min_size=1, max_size=30))
def test_compile_pattern_indices_point_at_non_n(text):
    cp = compile_pattern(text)
    for half, offset in ((cp.comp_index[:cp.plen], 0),
                         (cp.comp_index[cp.plen:], cp.plen)):
        seen_terminator = False
        for value in half:
            if value == -1:
                seen_terminator = True
            else:
                assert not seen_terminator, "-1 must terminate the list"
                assert cp.comp[value + offset] != ord("N")
