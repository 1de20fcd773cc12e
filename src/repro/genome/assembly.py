"""Genome assemblies and device-sized chunking.

Cas-OFFinder "divides the genome data into chunks that can fit the memory
of a heterogeneous device" (Section II.A); the chunk loop is the host side
of the whole pipeline.  :class:`Assembly` holds an ordered set of
chromosomes; :meth:`Assembly.chunks` yields device-sized pieces with an
overlap of ``pattern_length - 1`` bases so sites straddling a chunk
boundary are found exactly once.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .fasta import FastaRecord, iter_fasta, sequence_to_array, write_fasta


@dataclass
class Chromosome:
    """One chromosome: name plus uppercase sequence bytes."""

    name: str
    sequence: np.ndarray

    def __post_init__(self):
        self.sequence = sequence_to_array(self.sequence)
        # Kernels compare against uppercase bases only; normalize once.
        lower = (self.sequence >= ord("a")) & (self.sequence <= ord("z"))
        if lower.any():
            self.sequence = self.sequence.copy()
            self.sequence[lower] -= 32

    def __len__(self) -> int:
        return self.sequence.size

    def sha256(self) -> str:
        """SHA-256 hex digest of the sequence bytes: the identity a
        checkpoint manifest and an index fingerprint give the bases."""
        return hashlib.sha256(
            np.ascontiguousarray(self.sequence)).hexdigest()


@dataclass
class Chunk:
    """A device-sized window of one chromosome.

    ``start`` is the 0-based chromosome coordinate of ``data[0]``;
    ``scan_length`` is the number of positions the finder kernel should
    treat as site starts (the trailing overlap region belongs to the next
    chunk).
    """

    chrom: str
    start: int
    data: np.ndarray
    scan_length: int

    def __len__(self) -> int:
        return self.data.size


class Assembly:
    """An ordered collection of chromosomes (one genome build)."""

    def __init__(self, name: str, chromosomes: Sequence[Chromosome]):
        self.name = name
        self.chromosomes: List[Chromosome] = list(chromosomes)
        seen: Dict[str, int] = {}
        for chrom in self.chromosomes:
            if chrom.name in seen:
                raise ValueError(
                    f"assembly {name!r}: duplicate chromosome "
                    f"{chrom.name!r}")
            seen[chrom.name] = 1
        self._by_name = {c.name: c for c in self.chromosomes}

    # -- construction ---------------------------------------------------

    @classmethod
    def from_fasta(cls, path, name: Optional[str] = None) -> "Assembly":
        records = list(iter_fasta(path))
        chroms = [Chromosome(r.name, r.sequence) for r in records]
        return cls(name or str(path), chroms)

    @classmethod
    def from_dict(cls, name: str,
                  chromosomes: Dict[str, Union[str, bytes, np.ndarray]]
                  ) -> "Assembly":
        return cls(name, [Chromosome(n, s) for n, s in chromosomes.items()])

    def to_fasta(self, path, line_width: int = 60) -> None:
        records = [FastaRecord(c.name, c.sequence)
                   for c in self.chromosomes]
        write_fasta(records, path, line_width)

    # -- queries ----------------------------------------------------------

    def __getitem__(self, name: str) -> Chromosome:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[Chromosome]:
        return iter(self.chromosomes)

    @property
    def total_length(self) -> int:
        return sum(len(c) for c in self.chromosomes)

    def effective_length(self) -> int:
        """Total bases excluding 'N' gap runs (searchable positions)."""
        total = 0
        for chrom in self.chromosomes:
            total += int((chrom.sequence != ord("N")).sum())
        return total

    def subset(self, names: Sequence[str]) -> "Assembly":
        """A new assembly holding only the named chromosomes.

        Order follows *this* assembly (not ``names``), and the name is
        kept, so per-chromosome search output — and therefore a
        partitioned backend's slice of a routed response — is identical
        to the full assembly's.  Unknown names raise ``ValueError``.
        """
        wanted = set(names)
        missing = wanted - set(self._by_name)
        if missing:
            raise ValueError(
                f"assembly {self.name!r} has no chromosome(s) "
                f"{sorted(missing)}")
        return Assembly(self.name, [c for c in self.chromosomes
                                    if c.name in wanted])

    def fetch(self, chrom: str, start: int, end: int) -> np.ndarray:
        """Sequence window ``[start, end)`` of one chromosome."""
        seq = self._by_name[chrom].sequence
        if not 0 <= start <= end <= seq.size:
            raise IndexError(
                f"window [{start}, {end}) outside {chrom!r} "
                f"of length {seq.size}")
        return seq[start:end]

    # -- chunking ---------------------------------------------------------

    def chunks(self, chunk_size: int, pattern_length: int
               ) -> Iterator[Chunk]:
        """Yield device-sized chunks with ``pattern_length - 1`` overlap.

        Every site start position of every chromosome appears in exactly
        one chunk's ``scan_length`` region, and each chunk carries enough
        trailing context for a full pattern at its last scanned position.
        """
        if pattern_length <= 0:
            raise ValueError(
                f"pattern length must be positive, got {pattern_length}")
        if chunk_size < 2 * pattern_length:
            raise ValueError(
                f"chunk size {chunk_size} too small for pattern length "
                f"{pattern_length} (need at least {2 * pattern_length})")
        overlap = pattern_length - 1
        for chrom in self.chromosomes:
            seq = chrom.sequence
            n = seq.size
            if n < pattern_length:
                continue
            start = 0
            while start < n - overlap:
                end = min(start + chunk_size, n)
                scan_end = min(end - overlap, n - overlap)
                scan_length = scan_end - start
                if scan_length <= 0:
                    break
                yield Chunk(chrom=chrom.name, start=start,
                            data=seq[start:end], scan_length=scan_length)
                start = scan_end

    def chunk_count(self, chunk_size: int, pattern_length: int) -> int:
        return sum(1 for _ in self.chunks(chunk_size, pattern_length))

    def __repr__(self) -> str:
        return (f"Assembly({self.name!r}, chromosomes="
                f"{len(self.chromosomes)}, bases={self.total_length})")
