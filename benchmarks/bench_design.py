"""Guide-design benchmark: one batched scan vs per-guide rescans.

Measures what the ``design`` op's single-scan invariant buys: all
enumerated candidates ride ONE ``query_batch`` call through the
resident index's batched comparer, where the obvious implementation —
what a script looping ``query one guide, score, next`` does — pays a
full comparer pass per candidate.  One pass over the resident row
table costs about the same per guide at any batch width, so the two
sides' wall times are close (``speedup_batched`` near 1x); the batch
count is the part the report proves.

* ``per_guide``: enumerate the region's candidates, then call
  ``index.query_batch([query])`` once per candidate and rank with the
  same estimator.  Rankings are identical to the batched run (same
  hits, same summation); only the launch structure differs.
* ``batched``: one :func:`repro.design.design_guides` call.

Both sides record the index's ``comparer_stats`` delta, so the report
*proves* the launch structure rather than asserting it: the batched
run shows ``batches == 1`` with every candidate in ``queries_total``;
the per-guide run shows one batch per candidate.  ``host.cpus`` is
recorded so single-core containers read honestly.  The report lands
in ``BENCH_DESIGN.json``.  Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_design.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.config import Query
from repro.design import (design_guides, enumerate_for_design,
                          get_estimator, rank_candidates,
                          scoring_guide_length)
from repro.design.ranking import DesignSpec
from repro.genome.synthetic import synthetic_assembly
from repro.service import GenomeSiteIndex

PATTERN = "NNNNNNNNNNNNNNNNNNNNNRG"


def _stats_delta(before: dict, after: dict, repeats: int) -> dict:
    """Per-repeat comparer launch counts (the deltas are exact
    multiples of ``repeats`` — every repetition runs the same plan)."""
    return {"batches": (after["batches"] - before["batches"])
            // repeats,
            "queries_total": (after["queries_total"]
                              - before["queries_total"]) // repeats}


def run_bench(scale: float, chunk_size: int, region_bp: int,
              mismatches: int, top: int, estimator: str,
              repeats: int) -> dict:
    assembly = synthetic_assembly("hg19", scale=scale, seed=42)
    chrom = assembly.chromosomes[0].name
    end = min(region_bp, len(assembly.chromosomes[0].sequence))
    build_began = time.perf_counter()
    index = GenomeSiteIndex.build(assembly, PATTERN,
                                  chunk_size=chunk_size)
    build_s = time.perf_counter() - build_began

    spec = DesignSpec(chrom=chrom, start=0, end=end,
                      max_mismatches=mismatches, top_n=top,
                      estimator=estimator)
    anatomy, candidates, queries = enumerate_for_design(
        assembly, PATTERN, spec)
    chosen = get_estimator(estimator, scoring_guide_length(anatomy))

    # Per-guide: the naive loop — one comparer pass per candidate.
    before = index.comparer_stats()
    began = time.perf_counter()
    for _ in range(repeats):
        hits_by_query = {}
        for query in queries:
            hits_by_query[query] = index.query_batch(
                [Query(sequence=query,
                       max_mismatches=mismatches)])[0]
        per_guide_reports = rank_candidates(candidates, hits_by_query,
                                            chosen, top)
    per_guide_s = (time.perf_counter() - began) / repeats
    per_guide_comparer = _stats_delta(before, index.comparer_stats(),
                                      repeats)

    # Batched: the design workflow — one comparer pass, all candidates.
    before = index.comparer_stats()
    began = time.perf_counter()
    for _ in range(repeats):
        result = design_guides(index, chrom, 0, end, mismatches,
                               top_n=top, estimator=estimator)
    batched_s = (time.perf_counter() - began) / repeats
    batched_comparer = _stats_delta(before, index.comparer_stats(),
                                    repeats)

    if list(result.reports) != list(per_guide_reports):
        raise SystemExit("benchmark invariant violated: batched and "
                         "per-guide rankings diverged")
    return {
        "host": {"cpus": os.cpu_count()},
        "workload": {
            "profile": "hg19", "scale": scale, "seed": 42,
            "pattern": PATTERN, "chunk_size": chunk_size,
            "region": f"{chrom}:0-{end}", "mismatches": mismatches,
            "top": top, "estimator": estimator,
            "candidates": len(candidates),
            "unique_queries": len(queries),
            "chunks": index.chunk_count, "sites": index.site_count,
            "index_build_s": build_s, "repeats": repeats,
        },
        "per_guide": {
            "wall_s": per_guide_s,
            "comparer": per_guide_comparer,
        },
        "batched": {
            "wall_s": batched_s,
            "comparer": batched_comparer,
        },
        "rankings_identical": True,
        "speedup_batched": (per_guide_s / batched_s
                            if batched_s > 0 else None),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.0002,
                        help="synthetic hg19 scale (~620 kbp)")
    parser.add_argument("--chunk-size", type=int, default=1 << 16,
                        help="index chunk size in bases")
    parser.add_argument("--region-bp", type=int, default=600,
                        help="target region length on chr1")
    parser.add_argument("--mismatches", type=int, default=3,
                        help="off-target search depth per candidate")
    parser.add_argument("--top", type=int, default=5)
    parser.add_argument("--estimator", choices=("mit", "cfd"),
                        default="mit")
    parser.add_argument("--repeats", type=int, default=3,
                        help="measurement repetitions (wall times are "
                             "per-repeat means)")
    parser.add_argument("-o", "--output",
                        default=os.path.join(os.path.dirname(__file__),
                                             "..", "BENCH_DESIGN.json"))
    args = parser.parse_args(argv)
    report = run_bench(scale=args.scale, chunk_size=args.chunk_size,
                       region_bp=args.region_bp,
                       mismatches=args.mismatches, top=args.top,
                       estimator=args.estimator, repeats=args.repeats)
    path = os.path.abspath(args.output)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    workload = report["workload"]
    per = report["per_guide"]
    batched = report["batched"]
    print(f"{workload['candidates']} candidates "
          f"({workload['unique_queries']} unique queries) over "
          f"{workload['region']} mm={workload['mismatches']}")
    print(f"per-guide: {per['wall_s']*1000:8.1f} ms "
          f"({per['comparer']['batches']} comparer batches)")
    print(f"batched:   {batched['wall_s']*1000:8.1f} ms "
          f"({batched['comparer']['batches']} comparer batches, "
          f"{batched['comparer']['queries_total']} queries)")
    print(f"speedup:   {report['speedup_batched']:.2f}x")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
