"""Seeded inputs for each workload and the expected payload of every request.

Everything here is input preparation: it runs before any server starts
and is not part of ``setup_s``.  The expected payloads come from an
in-process ``GenomeSiteIndex`` over the same FASTA file the servers
load (plus ``design_guides`` / ``search_variants``), so a served
response is correct when it equals them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.config import Query
from repro.design import design_guides
from repro.design.ranking import DesignSpec, enumerate_for_design
from repro.genome.assembly import Assembly
from repro.genome.synthetic import synthetic_assembly
from repro.service.index import GenomeSiteIndex
from repro.variants import decode_haplotypes, search_variants

#: The SpCas9 pattern (20-nt guide, NRG PAM) every server indexes.
PATTERN = "NNNNNNNNNNNNNNNNNNNNNRG"
#: Assembly scale every BENCH_*.json uses (24 chromosomes, ~107k sites).
SCALE = 0.0002
GUIDE_LENGTH = 20

#: Distinct guides in the query pool, cycled in order.  At ~100 requests
#: per second no guide repeats inside the 1-s warm-up plus an 8-s window
#: (they repeat only above 227 rps), and the reuse distance is far past
#: the compiled-pattern and packed-window LRU caches (256 and 512
#: entries), so every request misses them as distinct-guide traffic does.
POOL_SIZE = 2048
#: Guides per in-process batch while the pool's expected rows are built:
#: the comparer's cheapest width per guide measured (~2.2 ms at 4
#: mismatches, against ~2.9 at 8, ~3.5 at 64 and ~10 one at a time).
POOL_BATCH = 16
QUERY_MISMATCHES = 4

DESIGN_WINDOWS = 8  # even, so MIT and CFD alternate across the cycle
DESIGN_WINDOW_BP = 300
#: Unique candidate guides a window must yield (the middle of the 300-bp
#: distribution), so every seed's requests carry the same batch width.
DESIGN_GUIDES = range(55, 66)
DESIGN_MISMATCHES = 3
DESIGN_TOP = 5
ESTIMATORS = ("mit", "cfd")

HAPLOTYPES = 2
#: One variant on each: every haplotype patches the same six chromosome
#: chunks (~30k of its ~145k hits), whatever the seed.
VARIANT_CHROMOSOMES = ("chr1", "chr5", "chr9", "chr13", "chr17", "chr21")
VARIANT_MISMATCHES = 3
#: The README's PAM gain/loss query: every candidate site, 0 mismatches.
PAM_QUERY = "N" * len(PATTERN)

_ACGT = frozenset(b"ACGT")


def hit_rows(hits) -> List[List[Any]]:
    """Hits as wire rows (the server's ``query`` response layout)."""
    return [[h.query, h.chrom, int(h.position), h.site, h.strand,
             int(h.mismatches)] for h in hits]


def roundtrip(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The payload as a client decodes it off the wire."""
    return json.loads(json.dumps(payload))


@dataclass
class Request:
    """One request: the ``ServiceClient`` call and what it must return."""

    label: str
    call: Callable[[Any], Any]        # ServiceClient -> its result
    normalize: Callable[[Any], Any]   # result -> comparable payload
    expected: Any


class Genome:
    """The seeded assembly, its FASTA file and an in-process index."""

    def __init__(self, seed: int, fasta_path: str, scale: float = SCALE,
                 chromosomes: Sequence[str] = None):
        synthetic_assembly("hg19", scale=scale, seed=seed, cache=False,
                           chromosomes=chromosomes).to_fasta(fasta_path)
        self.fasta_path = fasta_path
        # Loaded back the way ``serve --genome`` loads it.
        self.assembly = Assembly.from_fasta(fasta_path, name=fasta_path)
        self.index = GenomeSiteIndex.build(self.assembly, PATTERN)
        self.rng = np.random.default_rng(seed)

    def chunks_by_chromosome(self) -> Dict[str, int]:
        """Non-empty resident chunks per chromosome (what a batch scans)."""
        out: Dict[str, int] = {}
        for entry in self.index.entries:
            if entry.loci.size:
                out[entry.chrom] = out.get(entry.chrom, 0) + 1
        return out

    def _concrete(self, chrom: str, start: int, end: int) -> bool:
        seq = self.assembly[chrom].sequence
        return 0 <= start and end <= seq.size and \
            set(seq[start:end].tobytes()) <= _ACGT

    def _random_start(self, chrom: str, span: int) -> int:
        """A start on ``chrom`` followed by ``span`` ACGT bases."""
        while True:
            start = int(self.rng.integers(
                0, len(self.assembly[chrom]) - span))
            if self._concrete(chrom, start, start + span):
                return start

    def _random_locus(self, span: int) -> Tuple[str, int]:
        """A chromosome (by length) and a start with ``span`` ACGT bases."""
        chroms = self.assembly.chromosomes
        sizes = np.array([len(c) for c in chroms], dtype=float)
        chrom = chroms[self.rng.choice(len(chroms), p=sizes / sizes.sum())]
        return chrom.name, self._random_start(chrom.name, span)

    # -- query ------------------------------------------------------------

    def guide_pool(self, size: int = POOL_SIZE
                   ) -> List[Tuple[str, List[List[Any]]]]:
        """Distinct guides drawn from unique sequence, with their rows.

        A candidate is the 20-nt ACGT protospacer of a random forward
        site; it is kept when its only 0-mismatch hit is that site.
        """
        entries = [e for e in self.index.entries if e.loci.size]
        pool: List[Tuple[str, List[List[Any]]]] = []
        seen = set()
        while len(pool) < size:
            drawn: List[str] = []
            while len(drawn) < POOL_BATCH:
                entry = entries[self.rng.integers(len(entries))]
                i = int(self.rng.integers(entry.loci.size))
                if entry.flags[i] == 2:  # reverse-strand only site
                    continue
                locus = int(entry.loci[i])
                proto = entry.data[locus:locus + GUIDE_LENGTH].tobytes()
                guide = proto.decode("ascii") + "N" * (
                    len(PATTERN) - GUIDE_LENGTH)
                if set(proto) <= _ACGT and guide not in seen:
                    seen.add(guide)
                    drawn.append(guide)
            results = self.index.query_batch(
                [Query(g, QUERY_MISMATCHES) for g in drawn])
            pool.extend(
                (g, hit_rows(hits)) for g, hits in zip(drawn, results)
                if sum(1 for h in hits if h.mismatches == 0) == 1)
        return pool[:size]

    # -- design -----------------------------------------------------------

    def design_windows(self, count: int = DESIGN_WINDOWS,
                       guides_wanted: Sequence[int] = DESIGN_GUIDES
                       ) -> List[Tuple[str, int, int, str,
                                       Dict[str, Any]]]:
        """Windows outside assembly gaps, each with its expected payload."""
        out = []
        while len(out) < count:
            chrom, start = self._random_locus(DESIGN_WINDOW_BP)
            end = start + DESIGN_WINDOW_BP
            _, _, guides = enumerate_for_design(
                self.assembly, PATTERN,
                DesignSpec(chrom=chrom, start=start, end=end,
                           max_mismatches=DESIGN_MISMATCHES,
                           top_n=DESIGN_TOP))
            if len(guides) not in guides_wanted:
                continue
            estimator = ESTIMATORS[len(out) % len(ESTIMATORS)]
            result = design_guides(
                self.index, chrom, start, end,
                max_mismatches=DESIGN_MISMATCHES, top_n=DESIGN_TOP,
                estimator=estimator)
            out.append((chrom, start, end, estimator,
                        roundtrip(result.payload())))
        return out

    # -- variant ----------------------------------------------------------

    def haplotype(self, name: str,
                  chromosomes: Sequence[str] = VARIANT_CHROMOSOMES
                  ) -> Dict[str, Any]:
        """An SNV, a deletion or an insertion on each chromosome, in turn."""
        variants: List[List[Any]] = []
        for kind, chrom in enumerate(chromosomes):
            pos = self._random_start(chrom, 64) + 30
            seq = self.assembly[chrom].sequence
            base = chr(seq[pos])
            size = int(self.rng.integers(1, 4))
            if kind % 3 == 0:
                alt = "ACGT"[("ACGT".index(base) + size) % 4]
                variants.append([chrom, pos, base, alt])
            elif kind % 3 == 1:
                deleted = seq[pos:pos + size + 1].tobytes().decode("ascii")
                variants.append([chrom, pos, deleted, base])
            else:
                extra = "".join(self.rng.choice(list("ACGT"), size=size))
                variants.append([chrom, pos, base, base + extra])
        return {"name": name, "variants": variants}

    def variant_requests(self, pool_guides: Sequence[str],
                         count: int = HAPLOTYPES
                         ) -> List[Tuple[List[Query], Dict[str, Any],
                                         Dict[str, Any]]]:
        """(queries, haplotype, expected payload) per haplotype.

        Haplotype ``h`` pairs the PAM gain/loss query with pool guide
        ``h``, so each request in the cycle has one expected payload.
        """
        out = []
        for h in range(count):
            haplotype = self.haplotype(f"hap{h}")
            queries = [Query(PAM_QUERY, 0),
                       Query(pool_guides[h], VARIANT_MISMATCHES)]
            result = search_variants(self.index, queries,
                                     decode_haplotypes([haplotype]))
            out.append((queries, haplotype, roundtrip(result.payload())))
        return out


def _body(response: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in response.items() if k not in ("ok", "id")}


def _design_body(response: Dict[str, Any]) -> Dict[str, Any]:
    # ServiceClient.design decodes the report rows; compare the wire rows.
    body = _body(response)
    body["reports"] = body.pop("report_rows")
    return body


def query_requests(genome: Genome, size: int = POOL_SIZE
                   ) -> List[Request]:
    return [Request(f"query {guide}",
                    lambda client, guide=guide: client.query(
                        [Query(guide, QUERY_MISMATCHES)]),
                    lambda result: hit_rows(result[0]), rows)
            for guide, rows in genome.guide_pool(size)]


def design_requests(genome: Genome) -> List[Request]:
    return [Request(f"design {chrom}:{start}-{end} {estimator}",
                    lambda client, args=(chrom, start, end),
                    estimator=estimator: client.design(
                        *args, mismatches=DESIGN_MISMATCHES,
                        top=DESIGN_TOP, estimator=estimator),
                    _design_body, expected)
            for chrom, start, end, estimator, expected
            in genome.design_windows()]


def variant_requests(genome: Genome) -> List[Request]:
    pool = [guide for guide, _ in genome.guide_pool(HAPLOTYPES)]
    return [Request(f"variant {haplotype['name']}",
                    lambda client, queries=queries, haplotype=haplotype:
                    client.variant_search(queries, [haplotype]),
                    _body, expected)
            for queries, haplotype, expected
            in genome.variant_requests(pool)]
