"""Off-target hit records and the output format.

The host program "selects potential off-target sites ... and saves the
results (chromosome number, position, direction, the number of mismatched
bases and potential off-target DNA sequence with mismatched bases) in a
file for analysis" (Section II.A).  :class:`OffTargetHit` is that record;
:func:`write_hits` emits the classic Cas-OFFinder tab-separated format
with mismatched bases shown in lowercase, and :func:`hits_to_rows` /
:func:`hits_from_rows` are its wire form in the query service.

**The served hit order.**  Every hit list the serving stack returns
runs chromosome by chromosome in assembly order; within a chromosome,
every ``+`` hit precedes every ``-`` hit, and each strand ascends by
position.  It is a property of the genome: no chunk size, kernel block
size or fleet partitioning changes a response byte.  The paper
pipelines keep their kernels' emission order (per chunk, per kernel
block, forward then reverse), which is the served order whenever a
chromosome is one chunk of one block.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from typing import Any, Iterable, List, Sequence, Union

import numpy as np

from .patterns import COMPLEMENT_TABLE, MISMATCH_LUT, PatternError


def render_sites(data: np.ndarray, loci: np.ndarray, minus: np.ndarray,
                 forward_codes: np.ndarray, reverse_codes: np.ndarray
                 ) -> np.ndarray:
    """Display bytes of ``n`` sites, one ``plen``-wide row per site.

    This is the single definition of the site column's format.  Row
    ``i`` renders the forward-strand window ``data[loci[i]:loci[i] +
    plen]``; ``minus[i]`` marks it a ``-`` site.  Mismatches are taken
    against ``forward_codes`` (the query) for ``+`` rows and against
    ``reverse_codes`` (its reverse complement) for ``-`` rows, both in
    forward orientation, as the comparer counted them.  ``-`` rows are
    reverse-complemented into query orientation (soft-masked bases
    come out uppercase), and every mismatched uppercase base is shown
    in lowercase.  A ``-`` window holding a non-IUPAC byte raises
    :class:`PatternError`, as :func:`reverse_complement` does.
    """
    forward_codes = np.asarray(forward_codes, dtype=np.uint8)
    reverse_codes = np.asarray(reverse_codes, dtype=np.uint8)
    minus = np.asarray(minus, dtype=bool)
    plen = forward_codes.size
    # Fancy indexing copies, so the rows can be edited in place.
    display = np.asarray(data, dtype=np.uint8)[
        np.asarray(loci, dtype=np.int64)[:, None] + np.arange(plen)]
    codes = np.where(minus[:, None], reverse_codes, forward_codes)
    mism = MISMATCH_LUT[codes, display].astype(bool)
    if minus.any():
        complemented = COMPLEMENT_TABLE[display[minus]]
        if not complemented.all():
            raise PatternError("cannot complement non-IUPAC characters")
        display[minus] = complemented[:, ::-1]
        mism[minus] = mism[minus][:, ::-1]
    display[mism & (display >= ord("A")) & (display <= ord("Z"))] += 32
    return display


def site_strings(rows: np.ndarray) -> List[str]:
    """Decode :func:`render_sites` rows into site strings."""
    n, width = rows.shape
    text = rows.tobytes().decode("ascii")
    return [text[i:i + width] for i in range(0, n * width, width)]


@dataclass(frozen=True, order=True)
class OffTargetHit:
    """One reported off-target site."""

    query: str          # query sequence as given (forward orientation)
    chrom: str
    position: int       # 0-based site start on the forward strand
    strand: str         # "+" or "-"
    mismatches: int
    site: str           # site sequence, query orientation, mismatches lower

    @classmethod
    def from_site(cls, query: str, chrom: str, position: int, strand: str,
                  mismatches: int, window: np.ndarray,
                  query_codes: np.ndarray) -> "OffTargetHit":
        """Build a hit, rendering the display sequence.

        ``window`` is the forward-strand genome window; ``query_codes``
        is the query in the orientation that was compared against the
        window (i.e. the reverse complement of the query for ``-`` hits).
        """
        row = render_sites(window, np.zeros(1, np.int64),
                           np.array([strand == "-"]), query_codes,
                           query_codes)
        return cls(query=query, chrom=chrom, position=int(position),
                   strand=strand, mismatches=int(mismatches),
                   site=row.tobytes().decode("ascii"))

    def to_tsv(self) -> str:
        return (f"{self.query}\t{self.chrom}\t{self.position}\t"
                f"{self.site}\t{self.strand}\t{self.mismatches}")


def hits_to_rows(hits: Iterable[OffTargetHit]) -> List[List[Any]]:
    """Wire rows ``[query, chrom, position, site, strand, mismatches]``,
    one per hit, in the hits' order."""
    return [[h.query, h.chrom, int(h.position), h.site, h.strand,
             int(h.mismatches)] for h in hits]


def hits_from_rows(rows: Iterable[Sequence[Any]]) -> List[OffTargetHit]:
    """Hits from :func:`hits_to_rows` rows; a row that does not decode
    raises ``IndexError``, ``TypeError`` or ``ValueError``."""
    return [OffTargetHit(query=str(row[0]), chrom=str(row[1]),
                         position=int(row[2]), site=str(row[3]),
                         strand=str(row[4]), mismatches=int(row[5]))
            for row in rows]


def sort_hits(hits: Iterable[OffTargetHit]) -> List[OffTargetHit]:
    """Canonical deterministic order for comparing result sets."""
    return sorted(hits, key=lambda h: (h.query, h.chrom, h.position,
                                       h.strand, h.mismatches, h.site))


HEADER = "#Query\tChromosome\tPosition\tSite\tDirection\tMismatches"


def write_hits(hits: Iterable[OffTargetHit],
               destination: Union[str, os.PathLike, io.TextIOBase],
               header: bool = True) -> None:
    """Write hits in Cas-OFFinder's tab-separated output format.

    Path destinations are written crash-safely: the rows go to a
    ``.part`` temp file in the destination directory, fsynced, and
    atomically renamed into place — a reader never observes a
    truncated hits file, only the previous one or the complete new one.
    """
    if isinstance(destination, (str, os.PathLike)):
        path = os.fspath(destination)
        part = path + ".part"
        try:
            with open(part, "w", encoding="ascii") as handle:
                write_hits(hits, handle, header)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(part, path)
        except BaseException:
            try:
                os.unlink(part)
            except OSError:
                pass
            raise
        return
    if header:
        destination.write(HEADER + "\n")
    for hit in hits:
        destination.write(hit.to_tsv() + "\n")


def read_hits(source: Union[str, os.PathLike, io.TextIOBase]
              ) -> List[OffTargetHit]:
    """Parse a hits file written by :func:`write_hits`."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="ascii") as handle:
            return read_hits(handle)
    hits: List[OffTargetHit] = []
    for lineno, line in enumerate(source, 1):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 6:
            raise ValueError(
                f"line {lineno}: expected 6 tab-separated fields, "
                f"got {len(fields)}")
        query, chrom, position, site, strand, mismatches = fields
        hits.append(OffTargetHit(query=query, chrom=chrom,
                                 position=int(position), strand=strand,
                                 mismatches=int(mismatches), site=site))
    return hits
