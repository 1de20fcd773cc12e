"""Protospacer enumeration: candidate guides for a target region.

A Cas-OFFinder pattern is a degenerate guide region followed by a PAM
(e.g. ``NNNNNNRG``: six ``N`` guide positions, then the ``RG`` PAM).
Designing a guide for a region means finding every window whose PAM
side mask-matches the pattern's PAM — on either strand — and whose
guide side passes basic composition filters:

* concrete bases only (assembly gaps and ambiguity codes are not
  synthesizable guide sequences);
* GC fraction within bounds, inclusive on both ends (extreme GC
  guides bind poorly; a guide at exactly ``gc_min`` or ``gc_max``
  passes);
* no homopolymer run longer than a threshold (synthesis and
  sequencing both stumble on long runs).

Enumeration order is deterministic: ascending site position, forward
strand before reverse at the same position.  A candidate's *query
sequence* is its protospacer followed by ``N`` over the PAM — exactly
the query shape the serving stack already takes — so the whole
candidate set can ride one batched comparer pass.

The PAM test is the finder itself,
:func:`repro.kernels.vectorized.find_sites`, run over the pattern's
compiled layout: every candidate this module emits is guaranteed to be
a site the index itself indexed.  Enumeration is one finder pass over
the region, in blocks of at most
:data:`repro.runtime.executor.VECTORIZED_BLOCK_ITEMS` positions: its
``+`` sites are those flagged 0 or 1 and its ``-`` sites those flagged
0 or 2.  Text is decoded only for candidates that pass every filter.
A byte outside the IUPAC alphabet reads as ``N`` throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..core.patterns import (COMPLEMENT_TABLE, MASK_TABLE,
                             compile_pattern, validate_iupac)
from ..genome.assembly import Assembly
from ..kernels.vectorized import find_sites
from ..runtime import executor

#: Text of each genome byte read on the forward strand (row 0) and,
#: complemented, on the reverse strand (row 1); a non-IUPAC byte reads
#: as ``N`` on both.
_TEXT = np.stack([
    np.where(MASK_TABLE > 0, np.arange(256), ord("N")),
    np.where(COMPLEMENT_TABLE > 0, COMPLEMENT_TABLE, ord("N")),
]).astype(np.uint8)

_IS_ACGT = np.zeros(256, dtype=bool)
_IS_ACGT[np.frombuffer(b"ACGT", dtype=np.uint8)] = True
_IS_GC = np.zeros(256, dtype=bool)
_IS_GC[np.frombuffer(b"GC", dtype=np.uint8)] = True

#: Default composition filters: 20-80% GC, homopolymer runs <= 4.
DEFAULT_GC_MIN = 0.2
DEFAULT_GC_MAX = 0.8
DEFAULT_MAX_HOMOPOLYMER = 4


class DesignError(ValueError):
    """Raised for requests the design layer cannot serve."""


@dataclass(frozen=True)
class PatternAnatomy:
    """A served pattern split into guide region and PAM."""

    pattern: str          # full pattern, uppercase IUPAC
    guide_length: int     # degenerate prefix length
    pam: str              # the remaining PAM codes

    @property
    def plen(self) -> int:
        return self.guide_length + len(self.pam)


def pattern_anatomy(pattern: str,
                    guide_length: Optional[int] = None) -> PatternAnatomy:
    """Split a pattern into its degenerate guide prefix and PAM.

    By default the guide region is the maximal leading run of ``N``;
    pass ``guide_length`` explicitly when the PAM itself starts with
    ``N`` (e.g. SpCas9's ``N``x20 + ``NRG``, where the PAM's leading
    ``N`` merges into the guide run).
    """
    codes = validate_iupac(pattern)
    text = codes.tobytes().decode("ascii")
    plen = len(text)
    if guide_length is None:
        guide_length = 0
        while guide_length < plen and text[guide_length] == "N":
            guide_length += 1
    if not isinstance(guide_length, int) or isinstance(guide_length, bool):
        raise DesignError(
            f"guide_length must be an integer, got {guide_length!r}")
    if guide_length < 1:
        raise DesignError(
            f"pattern {text!r} has no degenerate guide region to "
            f"design into (guide length {guide_length})")
    if guide_length >= plen:
        raise DesignError(
            f"pattern {text!r} has no PAM after a {guide_length}-nt "
            f"guide region; guides cannot be designed without a PAM")
    prefix = text[:guide_length]
    if set(prefix) != {"N"}:
        raise DesignError(
            f"guide region {prefix!r} of pattern {text!r} is not all "
            f"'N'; only fully degenerate guide regions admit arbitrary "
            f"designed guides")
    return PatternAnatomy(pattern=text, guide_length=guide_length,
                          pam=text[guide_length:])


@dataclass(frozen=True)
class ProtospacerCandidate:
    """One candidate guide site found in the target region."""

    chrom: str
    position: int         # 0-based forward-strand site start
    strand: str           # '+' or '-'
    protospacer: str      # guide bases, 5'->3' in query orientation
    pam: str              # PAM bases as read next to the protospacer
    gc_fraction: float

    @property
    def query_sequence(self) -> str:
        """The serving-stack query: guide bases, ``N`` over the PAM."""
        return self.protospacer + "N" * len(self.pam)


def _filter_guides(guides: np.ndarray, gc_min: float, gc_max: float,
                   max_homopolymer: int) -> Tuple[np.ndarray, np.ndarray]:
    """Which rows of ``guides`` (one guide per row, in query
    orientation) pass the composition filters, and each row's GC
    fraction.

    The GC bounds are **inclusive on both ends**: a guide whose GC
    fraction equals ``gc_min`` or ``gc_max`` exactly passes the
    filter.  This matters because common bounds (0.2, 0.25, 0.5, ...)
    are exactly representable and short guides land on them exactly —
    an exclusive boundary would drop candidates nondeterministically
    across float round-off of *other* bound choices.
    """
    glen = guides.shape[1]
    gc = np.count_nonzero(_IS_GC[guides], axis=1) / glen
    keep = _IS_ACGT[guides].all(axis=1) & (gc >= gc_min) & (gc <= gc_max)
    if 0 < max_homopolymer < glen:
        # A run longer than max_homopolymer is max_homopolymer equal
        # neighbour pairs in a row.
        same = guides[:, 1:] == guides[:, :-1]
        starts = glen - max_homopolymer
        run = same[:, :starts]
        for shift in range(1, max_homopolymer):
            run = run & same[:, shift:shift + starts]
        keep &= ~run.any(axis=1)
    return keep, gc


def enumerate_protospacers(assembly: Assembly, chrom: str, start: int,
                           end: int, anatomy: PatternAnatomy,
                           gc_min: float = DEFAULT_GC_MIN,
                           gc_max: float = DEFAULT_GC_MAX,
                           max_homopolymer: int = DEFAULT_MAX_HOMOPOLYMER,
                           ) -> List[ProtospacerCandidate]:
    """All filtered candidate guides whose site starts in [start, end).

    ``gc_min``/``gc_max`` are inclusive bounds on the guide's GC
    fraction (see :func:`_filter_guides`).  Both strands are tested at
    every position: a reverse-strand candidate is the reverse
    complement of the same genome window, read 5'->3' with its PAM on
    the 3' side — the same orientation convention as the finder
    kernel, so ``position`` is always the forward-strand window start.
    """
    lengths = {c.name: len(c) for c in assembly.chromosomes}
    if chrom not in lengths:
        raise DesignError(
            f"unknown chromosome {chrom!r}; assembly "
            f"{assembly.name!r} has {sorted(lengths)}")
    if start < 0 or end <= start:
        raise DesignError(
            f"bad region {chrom}:{start}-{end}: need 0 <= start < end")
    if end > lengths[chrom]:
        raise DesignError(
            f"region {chrom}:{start}-{end} runs past the end of "
            f"{chrom} (length {lengths[chrom]})")
    if not 0.0 <= gc_min <= gc_max <= 1.0:
        raise DesignError(
            f"bad GC bounds [{gc_min}, {gc_max}]: need "
            f"0 <= gc_min <= gc_max <= 1")
    if max_homopolymer < 0:
        raise DesignError(
            f"max_homopolymer must be >= 0 (0 disables the filter), "
            f"got {max_homopolymer}")
    plen = anatomy.plen
    glen = anatomy.guide_length
    # Last admissible site start keeps the whole window on-chromosome.
    stop = min(end, lengths[chrom] - plen + 1)
    # A zero-length guide region cannot carry a designed guide;
    # pattern_anatomy rejects it, so this only guards direct callers.
    if stop <= start or glen < 1:
        return []
    seq = assembly.fetch(chrom, start, stop + plen - 1)
    pattern = compile_pattern("N" * glen + anatomy.pam)
    # Window columns read 5'->3', per strand (row 0 '+', row 1 '-').
    columns = np.stack([np.arange(plen), np.arange(plen)[::-1]])
    block = executor.VECTORIZED_BLOCK_ITEMS
    candidates: List[ProtospacerCandidate] = []
    for first in range(0, stop - start, block):
        sites, flags = find_sites(seq, pattern.comp, pattern.comp_index,
                                  plen, first,
                                  min(first + block, stop - start))
        # One key per (site, strand), 2 * site + 1 for '-': sorted,
        # '+' (flags 0|1) comes before '-' (flags 0|2) at one site.
        keys = np.sort(np.concatenate((2 * sites[flags != 2],
                                       2 * sites[flags != 1] + 1)))
        minus = keys % 2
        windows = _TEXT[minus[:, None],
                        seq[keys[:, None] // 2 + columns[minus]]]
        keep, gc = _filter_guides(windows[:, :glen], gc_min, gc_max,
                                  max_homopolymer)
        text = windows[keep].tobytes().decode("ascii")
        for i, (key, fraction) in enumerate(zip(keys[keep].tolist(),
                                                gc[keep].tolist())):
            window = text[i * plen:(i + 1) * plen]
            candidates.append(ProtospacerCandidate(
                chrom=chrom, position=start + key // 2,
                strand="-" if key % 2 else "+",
                protospacer=window[:glen], pam=window[glen:],
                gc_fraction=fraction))
    return candidates


def candidate_queries(candidates: Sequence[ProtospacerCandidate]
                      ) -> List[str]:
    """Unique query sequences, first-seen order.

    Distinct sites can carry the same protospacer (repeats); they are
    scored once and share the result, so the batch the serving stack
    runs is exactly one query per unique candidate guide.
    """
    seen = set()
    queries: List[str] = []
    for candidate in candidates:
        query = candidate.query_sequence
        if query not in seen:
            seen.add(query)
            queries.append(query)
    return queries


#: Wire row layout for one candidate (the ``enumerate`` op).
CANDIDATE_FIELDS = ("chrom", "position", "strand", "protospacer",
                    "pam", "gc_fraction")


def encode_candidates(candidates: Sequence[ProtospacerCandidate]
                      ) -> List[List[Any]]:
    return [[c.chrom, int(c.position), c.strand, c.protospacer, c.pam,
             float(c.gc_fraction)] for c in candidates]


def decode_candidates(rows: Sequence[Sequence[Any]]
                      ) -> List[ProtospacerCandidate]:
    candidates = []
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) != 6:
            raise ValueError(
                f"bad candidate row {row!r}: expected "
                f"{list(CANDIDATE_FIELDS)}")
        chrom, position, strand, protospacer, pam, gc = row
        candidates.append(ProtospacerCandidate(
            chrom=str(chrom), position=int(position),
            strand=str(strand), protospacer=str(protospacer),
            pam=str(pam), gc_fraction=float(gc)))
    return candidates
