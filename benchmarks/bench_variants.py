"""Variant-search benchmark: diff-layer overlay vs full re-index.

Measures the payoff of the variant search's central claim: a
haplotype differs from the reference by a handful of bases, so
re-scanning and re-packing only the *variant windows* — the site
starts a run of nearby variants can change — and riding the resident
reference index plus those patch entries through ONE batched comparer
pass beats the obvious implementation, which splices each
haplotype into a complete genome, rebuilds a full
:class:`~repro.service.GenomeSiteIndex` per haplotype, and diffs the
query results.

* ``naive``: per haplotype, eagerly splice every chromosome, run
  ``GenomeSiteIndex.build`` over the spliced assembly, query it, and
  diff projected hits against the reference hits.
* ``overlay``: one :func:`repro.variants.search_variants` call for all
  K haplotypes together.

Both sides produce the same gained/lost event set (checked, or the
benchmark aborts), and both record ``comparer_stats`` deltas so the
report *proves* the launch structure: the overlay run shows exactly
one comparer batch scanning ``reference_chunks + patched_chunks``
entries; the naive run pays a full finder re-scan per haplotype plus
K+1 comparer batches.  ``host.cpus`` is recorded so single-core
containers read honestly.  The report lands in
``BENCH_VARIANTS.json``.  Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_variants.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro.core.config import Query
from repro.genome.assembly import Assembly, Chromosome
from repro.genome.synthetic import synthetic_assembly
from repro.service import GenomeSiteIndex
from repro.variants import (EVENT_FIELDS, HaplotypeOverlay,
                            decode_haplotypes, search_variants)

PATTERN = "NNNNNNNNNNNNNNNNNNNNNRG"


def _random_haplotypes(assembly, count: int, variants_per: int,
                       seed: int):
    """Deterministic SNV/indel mixes drawn from the assembly's bases."""
    rng = np.random.default_rng(seed)
    rows = []
    for hap_i in range(count):
        variants = []
        for chrom in assembly.chromosomes:
            seq = chrom.sequence
            positions = np.sort(rng.choice(
                len(seq) - 64, size=variants_per, replace=False))
            cursor = -10
            for vi, position in enumerate(positions):
                position = int(position)
                if position < cursor + 8:
                    continue
                kind = ["snv", "del", "ins"][(hap_i + vi) % 3]
                if kind == "snv":
                    ref = seq[position:position + 1].tobytes() \
                        .decode("ascii")
                    alt = "G" if ref != "G" else "A"
                elif kind == "del":
                    ref = seq[position:position + 3].tobytes() \
                        .decode("ascii")
                    alt = ref[0] if ref[0] != "N" else "A"
                else:
                    ref = seq[position:position + 1].tobytes() \
                        .decode("ascii")
                    alt = ref + "ACG" if ref != "N" else "A"
                variants.append([chrom.name, position, ref, alt])
                cursor = position + len(ref)
        rows.append({"name": f"hap{hap_i}", "variants": variants})
    return decode_haplotypes(rows)


def _naive_events(index, assembly, queries, haplotypes):
    """Full-splice baseline: K complete re-indexes, then project+diff."""
    ref_hits = index.query_batch(list(queries))
    keys = set()
    for haplotype in haplotypes:
        by_chrom = {}
        for variant in haplotype.variants:
            by_chrom.setdefault(variant.chrom, []).append(variant)
        chroms = []
        overlays = {}
        for chromosome in assembly.chromosomes:
            overlay = HaplotypeOverlay(
                chromosome.name, chromosome.sequence,
                by_chrom.get(chromosome.name, []))
            overlays[chromosome.name] = overlay
            chroms.append(Chromosome(
                chromosome.name,
                overlay.fetch(0, overlay.length).copy()))
        hap_index = GenomeSiteIndex.build(
            Assembly("naive-" + haplotype.name, chroms), index.pattern)
        hap_hits = hap_index.query_batch(list(queries))
        for chrom, overlay in overlays.items():
            if not overlay.variants:
                continue
            for qi, query in enumerate(queries):
                ref_keys = {(h.position, h.strand, h.site,
                             h.mismatches)
                            for h in ref_hits[qi] if h.chrom == chrom}
                projected = {(overlay.map_hap_to_ref(h.position),
                              h.strand, h.site, h.mismatches)
                             for h in hap_hits[qi]
                             if h.chrom == chrom}
                for key in projected - ref_keys:
                    keys.add((haplotype.name, "gained",
                              query.sequence, chrom) + key)
                for key in ref_keys - projected:
                    keys.add((haplotype.name, "lost",
                              query.sequence, chrom) + key)
    return keys


def _overlay_keys(result):
    idx = {name: i for i, name in enumerate(EVENT_FIELDS)}
    return {(row[idx["haplotype"]], row[idx["change"]],
             row[idx["query"]], row[idx["chrom"]],
             row[idx["position"]], row[idx["strand"]],
             row[idx["site"]], row[idx["mismatches"]])
            for row in result.events}


def run_bench(scale: float, haplotype_count: int, variants_per: int,
              mismatches: int, repeats: int) -> dict:
    assembly = synthetic_assembly("hg19", scale=scale, seed=42)
    build_began = time.perf_counter()
    index = GenomeSiteIndex.build(assembly, PATTERN)
    build_s = time.perf_counter() - build_began

    queries = [Query("N" * 23, 0),
               Query("GACGTCAAGGTTCCATTGCACNN", mismatches)]
    haplotypes = _random_haplotypes(assembly, haplotype_count,
                                    variants_per, seed=7)
    total_variants = sum(len(h.variants) for h in haplotypes)

    # Naive: full splice + re-index + query per haplotype, every run.
    before = index.comparer_stats()
    began = time.perf_counter()
    for _ in range(repeats):
        naive_keys = _naive_events(index, assembly, queries,
                                   haplotypes)
    naive_s = (time.perf_counter() - began) / repeats
    naive_ref_batches = (index.comparer_stats()["batches"]
                         - before["batches"]) // repeats

    # Overlay: one search_variants call covers all K haplotypes.
    before = index.comparer_stats()
    began = time.perf_counter()
    for _ in range(repeats):
        result = search_variants(index, queries, haplotypes)
    overlay_s = (time.perf_counter() - began) / repeats
    after = index.comparer_stats()
    overlay_batches = (after["batches"] - before["batches"]) // repeats
    overlay_scanned = (after["entries_scanned"]
                       - before["entries_scanned"]) // repeats

    if _overlay_keys(result) != naive_keys:
        raise SystemExit("benchmark invariant violated: overlay and "
                         "naive full-splice event sets diverged")
    return {
        "host": {"cpus": os.cpu_count()},
        "workload": {
            "profile": "hg19", "scale": scale, "seed": 42,
            "pattern": PATTERN, "haplotypes": haplotype_count,
            "variants_total": total_variants,
            "queries": len(queries), "mismatches": mismatches,
            "chunks": index.chunk_count, "sites": index.site_count,
            "index_build_s": build_s, "repeats": repeats,
            "events": len(result.events),
        },
        "naive": {
            "wall_s": naive_s,
            "index_builds_per_run": haplotype_count,
            # The naive side's comparer batches against the *reference*
            # index only; its K rebuilt indexes pay their own scans.
            "reference_comparer_batches": naive_ref_batches,
        },
        "overlay": {
            "wall_s": overlay_s,
            "comparer_batches": overlay_batches,
            "entries_scanned": overlay_scanned,
            "reference_chunks": result.reference_chunks,
            "patched_chunks": result.patched_chunks,
        },
        "events_identical": True,
        "speedup_overlay": (naive_s / overlay_s
                            if overlay_s > 0 else None),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.0002,
                        help="synthetic hg19 scale (~620 kbp)")
    parser.add_argument("--haplotypes", type=int, default=4,
                        help="haplotype diff layers per search")
    parser.add_argument("--variants-per", type=int, default=3,
                        help="variants drawn per chromosome per "
                             "haplotype")
    parser.add_argument("--mismatches", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=3,
                        help="measurement repetitions (wall times are "
                             "per-repeat means)")
    parser.add_argument("-o", "--output",
                        default=os.path.join(os.path.dirname(__file__),
                                             "..",
                                             "BENCH_VARIANTS.json"))
    args = parser.parse_args(argv)
    report = run_bench(scale=args.scale,
                       haplotype_count=args.haplotypes,
                       variants_per=args.variants_per,
                       mismatches=args.mismatches,
                       repeats=args.repeats)
    path = os.path.abspath(args.output)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    workload = report["workload"]
    naive = report["naive"]
    overlay = report["overlay"]
    print(f"{workload['haplotypes']} haplotypes, "
          f"{workload['variants_total']} variants, "
          f"{workload['events']} events over {workload['chunks']} "
          f"chromosomes ({workload['sites']} sites)")
    print(f"naive:   {naive['wall_s']*1000:8.1f} ms "
          f"({naive['index_builds_per_run']} full index rebuilds "
          f"per run)")
    print(f"overlay: {overlay['wall_s']*1000:8.1f} ms "
          f"({overlay['comparer_batches']} comparer batch scanning "
          f"{overlay['entries_scanned']} entries = "
          f"{overlay['reference_chunks']} reference + "
          f"{overlay['patched_chunks']} patches)")
    print(f"speedup: {report['speedup_overlay']:.2f}x")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
