"""Guide-design smoke: ``python -m repro.design --smoke``.

Builds a small synthetic index, computes the in-process
:func:`~repro.design.ranking.design_guides` reference, then serves the
same index over TCP and checks two things a deployment cares about:

* the served ``design`` response is **byte-identical** to the
  in-process payload, and
* the request's candidate queries all rode one batched comparer pass
  (``comparer_stats``: one batch, all queries), never per-guide
  rescans.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .ranking import design_guides


def _smoke(scale: float, mismatches: int, top: int,
           estimator: str) -> int:
    from ..genome.synthetic import synthetic_assembly
    from ..service.client import ServiceClient
    from ..service.index import GenomeSiteIndex
    from ..service.server import OffTargetServer

    assembly = synthetic_assembly("hg19", scale=scale, seed=7)
    chrom = assembly.chromosomes[0].name
    end = min(400, len(assembly.chromosomes[0].sequence))
    index = GenomeSiteIndex.build(assembly, "NNNNNNRG")
    before = index.comparer_stats()
    reference = design_guides(index, chrom, 0, end, mismatches,
                              top_n=top, estimator=estimator)
    after = index.comparer_stats()
    batches = after["batches"] - before["batches"]
    scanned = after["queries_total"] - before["queries_total"]
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
        "region": f"{chrom}:0-{end}",
        "estimator": estimator,
        "candidates": len(reference.candidates),
        "queries": len(reference.queries),
        "reports": len(reference.reports),
        "comparer_batches": batches,
        "comparer_queries": scanned,
        "served_bytes": len(served),
        "byte_identical": served == expected,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    if not reference.candidates:
        print("smoke FAILED: no candidates enumerated")
        return 1
    if batches != 1 or scanned != len(reference.queries):
        print(f"smoke FAILED: expected 1 comparer batch covering "
              f"{len(reference.queries)} queries, saw {batches} "
              f"batch(es) / {scanned} queries")
        return 1
    if served != expected:
        print("smoke FAILED: served design response diverges from "
              "the in-process reference")
        return 1
    print(f"smoke OK: {len(reference.reports)} guides ranked from "
          f"{len(reference.candidates)} candidates in one batched "
          f"scan; served response byte-identical")
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
