"""Guide-design smoke: ``python -m repro.design --smoke``.

Builds two small synthetic indexes, one under ``NNNNNNRG`` and one
under SpCas9's ``N`` x 21 + ``RG``, and for each computes the
in-process :func:`~repro.design.ranking.design_guides` reference, then
serves the same index over TCP and checks what a deployment cares
about:

* the served ``design`` response is **byte-identical** to the
  in-process payload, and
* the request's candidate queries all rode one batched comparer pass
  (``comparer_stats``: one batch, all queries), never per-guide
  rescans.

The SpCas9 request runs at no more than 3 mismatches, where every
candidate guide keeps an exact 5-base seed, so its queries must also
all be answered from the index's seed lists (``queries_seeded``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Optional, Sequence, Tuple

from .ranking import design_guides

#: The second smoke request's pattern: its four 5-base seed segments
#: filter every guide at up to 3 mismatches.
SPCAS9_PATTERN = "N" * 21 + "RG"


def _design_request(assembly, pattern: str, mismatches: int, top: int,
                    estimator: str, seeded: bool
                    ) -> Tuple[Dict[str, object], Optional[str]]:
    """One in-process and one served design request over a new index;
    returns the report and the failure, if any."""
    from ..service.client import ServiceClient
    from ..service.index import GenomeSiteIndex
    from ..service.server import OffTargetServer

    chrom = assembly.chromosomes[0].name
    end = min(400, len(assembly.chromosomes[0].sequence))
    index = GenomeSiteIndex.build(assembly, pattern)
    before = index.comparer_stats()
    reference = design_guides(index, chrom, 0, end, mismatches,
                              top_n=top, estimator=estimator)
    after = index.comparer_stats()
    batches = after["batches"] - before["batches"]
    scanned = after["queries_total"] - before["queries_total"]
    seeded_queries = after["queries_seeded"] - before["queries_seeded"]
    expected = json.dumps({"ok": True, **reference.payload()})

    server = OffTargetServer(index, max_wait_ms=1.0)
    handle = server.start_background()
    try:
        with ServiceClient(handle.host, handle.port) as client:
            response = client._call({
                "op": "design", "chrom": chrom, "start": 0,
                "end": end, "mismatches": mismatches, "top": top,
                "estimator": estimator})
            response.pop("id", None)
            served = json.dumps(response)
    finally:
        handle.stop()

    report = {
        "pattern": pattern,
        "mismatches": mismatches,
        "region": f"{chrom}:0-{end}",
        "estimator": estimator,
        "candidates": len(reference.candidates),
        "queries": len(reference.queries),
        "reports": len(reference.reports),
        "comparer_batches": batches,
        "comparer_queries": scanned,
        "comparer_queries_seeded": seeded_queries,
        "served_bytes": len(served),
        "byte_identical": served == expected,
    }
    if not reference.candidates:
        return report, f"{pattern}: no candidates enumerated"
    if batches != 1 or scanned != len(reference.queries):
        return report, (
            f"{pattern}: expected 1 comparer batch covering "
            f"{len(reference.queries)} queries, saw {batches} batch(es) "
            f"/ {scanned} queries")
    if seeded and seeded_queries != len(reference.queries):
        return report, (
            f"{pattern}: expected all {len(reference.queries)} queries "
            f"answered from the seed lists, saw {seeded_queries}")
    if served != expected:
        return report, (f"{pattern}: served design response diverges "
                        f"from the in-process reference")
    return report, None


def _smoke(scale: float, mismatches: int, top: int,
           estimator: str) -> int:
    from ..genome.synthetic import synthetic_assembly

    assembly = synthetic_assembly("hg19", scale=scale, seed=7)
    reports = []
    failures = []
    for pattern, budget, seeded in (
            ("NNNNNNRG", mismatches, False),
            (SPCAS9_PATTERN, min(mismatches, 3), True)):
        report, failure = _design_request(assembly, pattern, budget, top,
                                          estimator, seeded)
        reports.append(report)
        if failure is not None:
            failures.append(failure)
    print(json.dumps(reports, indent=2, sort_keys=True))
    if failures:
        for failure in failures:
            print(f"smoke FAILED: {failure}")
        return 1
    print("smoke OK: "
          + "; ".join(f"{r['pattern']}: {r['reports']} guides ranked "
                      f"from {r['candidates']} candidates in one "
                      f"batched scan ({r['comparer_queries_seeded']} of "
                      f"{r['queries']} queries seeded)"
                      for r in reports)
          + "; served responses byte-identical")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.design",
        description="Guide-design smoke test: in-process reference "
                    "vs a served design request.")
    parser.add_argument("--smoke", action="store_true",
                        help="run the design smoke")
    parser.add_argument("--scale", type=float, default=0.0002,
                        help="synthetic assembly scale factor")
    parser.add_argument("--mismatches", type=int, default=2,
                        help="off-target search depth per candidate")
    parser.add_argument("--top", type=int, default=5,
                        help="ranked guides to request")
    parser.add_argument("--estimator", choices=("mit", "cfd"),
                        default="mit")
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.error("only --smoke is supported; use the `design` "
                     "CLI subcommand for real requests")
    return _smoke(args.scale, args.mismatches, args.top,
                  args.estimator)


if __name__ == "__main__":
    sys.exit(main())
