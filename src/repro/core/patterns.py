"""IUPAC pattern algebra for Cas-OFFinder style searches.

Cas-OFFinder patterns and queries use the IUPAC nucleotide alphabet: the
pattern line (e.g. ``NNNNNNNNNNNNNNNNNNNNNRG`` for SpCas9's NGG/NAG PAM
family) constrains which genome sites are *candidates*, and each query
sequence is compared base-by-base against every candidate.

Two related notions of matching appear in the original kernels, and both
are implemented here:

* **mask matching** — every IUPAC code denotes a set of concrete bases
  (``R`` = A|G, ...); code X matches genome base g iff g's bit is in X's
  mask.  This is what the ``finder`` kernel uses to test PAM positions.

* **mismatch counting** (Listing 1 of the paper) — the ``comparer``
  kernel counts a mismatch for pattern code X at genome char g exactly
  when g is a *concrete base excluded by* X.  The subtle consequence,
  faithful to the original OpenCL kernel: a genome ``N`` mismatches a
  concrete pattern base (``pat=='G' && chr!='G'`` counts it) but does
  **not** mismatch an ambiguity code (``pat=='R'`` only tests
  ``chr=='C' || chr=='T'``).  Positions where the query holds ``N`` are
  skipped entirely via the ``comp_index`` array.

:func:`compile_pattern` lays a pattern or query out as Listing 1's
``comp``/``comp_index`` arrays.  A search compiles its pattern and
queries once and shares the read-only result with every chunk, so
compilation keeps no cache.

Note: Listing 1 as printed in the paper is partially OCR-corrupted (its
line for pattern ``'A'`` counts a *match* as a mismatch, and a code
``'P'`` appears); the rules here are the correct IUPAC semantics the
original Cas-OFFinder kernel implements, which the listing's uncorrupted
lines (``R``, ``Y``, ``M``, ``W``, ``H``, ``B``, ``V``, ``D``, ``G``,
``C``, ``T``) agree with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union

import numpy as np

from ..genome.fasta import sequence_to_array

#: 4-bit base masks: A=1, C=2, G=4, T=8.
IUPAC_MASKS: Dict[str, int] = {
    "A": 1, "C": 2, "G": 4, "T": 8,
    "R": 1 | 4,          # puRine: A/G
    "Y": 2 | 8,          # pYrimidine: C/T
    "M": 1 | 2,          # aMino: A/C
    "K": 4 | 8,          # Keto: G/T
    "W": 1 | 8,          # Weak: A/T
    "S": 2 | 4,          # Strong: C/G
    "B": 2 | 4 | 8,      # not A
    "D": 1 | 4 | 8,      # not C
    "H": 1 | 2 | 8,      # not G
    "V": 1 | 2 | 4,      # not T
    "N": 1 | 2 | 4 | 8,  # aNy
}

#: IUPAC complements (A<->T, C<->G, R<->Y, M<->K, W/S self, B<->V, D<->H).
IUPAC_COMPLEMENT: Dict[str, str] = {
    "A": "T", "T": "A", "C": "G", "G": "C",
    "R": "Y", "Y": "R", "M": "K", "K": "M",
    "W": "W", "S": "S", "B": "V", "V": "B",
    "D": "H", "H": "D", "N": "N",
}

_A, _C, _G, _T, _N = (ord(c) for c in "ACGTN")

#: 256-entry lookup: ASCII code -> IUPAC mask (0 for non-IUPAC bytes).
MASK_TABLE = np.zeros(256, dtype=np.uint8)
for _ch, _mask in IUPAC_MASKS.items():
    MASK_TABLE[ord(_ch)] = _mask
    MASK_TABLE[ord(_ch.lower())] = _mask

#: 256-entry lookup: ASCII code -> complement ASCII code (uppercased).
COMPLEMENT_TABLE = np.zeros(256, dtype=np.uint8)
for _ch, _comp in IUPAC_COMPLEMENT.items():
    COMPLEMENT_TABLE[ord(_ch)] = ord(_comp)
    COMPLEMENT_TABLE[ord(_ch.lower())] = ord(_comp)

#: 256x256 lookup: MISMATCH_LUT[pattern_char, genome_char] == 1 iff the
#: comparer counts a mismatch (Listing 1 semantics, see module docstring).
MISMATCH_LUT = np.zeros((256, 256), dtype=np.uint8)
for _ch, _mask in IUPAC_MASKS.items():
    _p = ord(_ch)
    if _ch == "N":
        continue  # never compared: excluded by comp_index
    if _ch in "ACGT":
        # Concrete pattern base: anything else in the genome mismatches.
        MISMATCH_LUT[_p, :] = 1
        MISMATCH_LUT[_p, _p] = 0
        MISMATCH_LUT[_p, ord(_ch.lower())] = 0
    else:
        # Ambiguity code: only excluded *concrete* bases mismatch.
        for _gch in "ACGT":
            if not (_mask & IUPAC_MASKS[_gch]):
                MISMATCH_LUT[_p, ord(_gch)] = 1
                MISMATCH_LUT[_p, ord(_gch.lower())] = 1
    MISMATCH_LUT[ord(_ch.lower()), :] = MISMATCH_LUT[_p, :]


class PatternError(ValueError):
    """Raised for sequences containing non-IUPAC characters."""


def validate_iupac(sequence: Union[str, bytes, np.ndarray]) -> np.ndarray:
    """Validate and normalize a sequence to uppercase IUPAC uint8 codes."""
    arr = sequence_to_array(sequence)
    lower = (arr >= ord("a")) & (arr <= ord("z"))
    arr = arr.copy()
    arr[lower] -= 32
    bad = MASK_TABLE[arr] == 0
    if bad.any():
        offenders = sorted({chr(b) for b in arr[bad]})
        raise PatternError(
            f"sequence contains non-IUPAC characters: {offenders}")
    return arr


def mask_of(sequence: Union[str, bytes, np.ndarray]) -> np.ndarray:
    """Per-position 4-bit masks for a sequence."""
    return MASK_TABLE[sequence_to_array(sequence)]


def reverse_complement(sequence: Union[str, bytes, np.ndarray]
                       ) -> np.ndarray:
    """IUPAC-aware reverse complement (returns uint8 codes)."""
    arr = sequence_to_array(sequence)
    comp = COMPLEMENT_TABLE[arr]
    if (comp == 0).any():
        raise PatternError("cannot complement non-IUPAC characters")
    return comp[::-1].copy()


def count_mismatches(query: np.ndarray, site: np.ndarray) -> int:
    """Reference mismatch count (Listing 1 semantics, no early exit)."""
    n = min(query.size, site.size)
    return int(MISMATCH_LUT[query[:n], site[:n]].sum())


@dataclass
class CompiledPattern:
    """A pattern (or query) compiled to the kernels' device layout.

    Listing 1's ``comp``/``comp_index`` arrays each hold ``2 * plen``
    entries: the forward sequence in ``[0, plen)`` and the reverse
    complement in ``[plen, 2*plen)``.  ``comp_index`` lists the positions
    to check (those whose code is not ``N``), terminated by ``-1``; the
    reverse half's indices are stored at offset ``plen`` and are also
    relative to the site start, because a reverse-strand site is the
    reverse complement of the same genome window.
    """

    sequence: np.ndarray        # forward, uint8, length plen
    rc_sequence: np.ndarray     # reverse complement, uint8, length plen
    comp: np.ndarray            # uint8, length 2*plen
    comp_index: np.ndarray      # int32, length 2*plen, -1 terminated
    plen: int

    @property
    def checked_positions_forward(self) -> np.ndarray:
        idx = self.comp_index[:self.plen]
        return idx[idx >= 0]

    @property
    def checked_positions_reverse(self) -> np.ndarray:
        idx = self.comp_index[self.plen:]
        return idx[idx >= 0]

    def decode(self) -> str:
        return self.sequence.tobytes().decode("ascii")


def compile_pattern(sequence: Union[str, bytes, np.ndarray]
                    ) -> CompiledPattern:
    """Compile a pattern/query into the device layout described above.

    The arrays are read-only: a compiled pattern is shared across
    chunks and threads (the serving index keeps one for its whole
    life), so an accidental write fails loudly instead of corrupting
    every later comparison.
    """
    fwd = validate_iupac(sequence)
    plen = fwd.size
    if plen == 0:
        raise PatternError("empty pattern")
    rc = reverse_complement(fwd)
    comp = np.concatenate([fwd, rc]).astype(np.uint8)
    comp_index = np.full(2 * plen, -1, dtype=np.int32)
    fwd_checked = np.flatnonzero(fwd != _N)
    rc_checked = np.flatnonzero(rc != _N)
    comp_index[:fwd_checked.size] = fwd_checked
    comp_index[plen:plen + rc_checked.size] = rc_checked
    for array in (fwd, rc, comp, comp_index):
        array.setflags(write=False)
    return CompiledPattern(sequence=fwd, rc_sequence=rc, comp=comp,
                           comp_index=comp_index, plen=plen)
