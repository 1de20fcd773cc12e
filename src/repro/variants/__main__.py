"""Smoke test: `python -m repro.variants --smoke`.

Builds a small synthetic index, applies deterministic haplotypes (an
SNV and an indel derived from the assembly's own bases), and asserts
the tentpole invariants end to end:

* one variant search costs exactly ONE batched comparer pass, and the
  comparer scans exactly ``reference_chunks + patched_chunks`` entries
  (the single-batch accounting in ``comparer_stats``);
* a served ``variant`` response is byte-identical to the in-process
  payload;
* neither search appends a launch record to ``index.pipeline``: the
  serving stack runs on numpy, so its memory does not grow with
  variant traffic;
* a TOML enzyme config loads, serves, and answers ``enzymes`` and
  enzyme-tagged ``query`` requests.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
from typing import List, Optional, Sequence

from ..core.config import Query


def _demo_haplotypes(assembly) -> List[dict]:
    """Deterministic SNV + indel built from the assembly's own bases."""
    chroms = [c for c in assembly.chromosomes if len(c) >= 2000]
    if not chroms:
        raise RuntimeError("assembly too small for the variant smoke")
    first = chroms[0]
    seq = first.sequence

    def base(position: int) -> str:
        return seq[position:position + 1].tobytes().decode("ascii")

    def flipped(position: int) -> str:
        return "G" if base(position) != "G" else "A"

    snv_pos, del_pos = 500, 1200
    rows = [
        {"name": "hap-snv",
         "variants": [[first.name, snv_pos, base(snv_pos),
                       flipped(snv_pos)]]},
        {"name": "hap-indel",
         "variants": [
             [first.name, del_pos,
              seq[del_pos:del_pos + 2].tobytes().decode("ascii"),
              base(del_pos)[:1] or "A"],
             [first.name, del_pos + 600, base(del_pos + 600),
              base(del_pos + 600) + "ACGT"]]},
    ]
    if len(chroms) > 1:
        other = chroms[1]
        rows[0]["variants"].append(
            [other.name, 800,
             other.sequence[800:801].tobytes().decode("ascii"),
             "C" if other.sequence[800] != ord("C") else "T"])
    return rows


_ENZYME_TOML = """\
[[enzymes]]
name = "SpCas9-NGG"
guide_length = 20
pam = "NGG"
pam_side = "3prime"
scoring = "cfd"
"""


def _smoke(scale: float = 0.0002, seed: int = 7) -> int:
    from ..genome.synthetic import synthetic_assembly
    from ..service.client import ServiceClient
    from ..service.index import GenomeSiteIndex
    from ..service.server import OffTargetServer
    from .model import decode_haplotypes
    from .overlay import search_variants

    pattern = "NNNNNNRG"
    failures: List[str] = []
    assembly = synthetic_assembly("hg19", scale=scale, seed=seed)
    index = GenomeSiteIndex.build(assembly, pattern)
    queries = [Query("GACGTCNN", 3), Query("TTACGANN", 2)]
    haplotypes = decode_haplotypes(_demo_haplotypes(assembly))
    launches = len(index.pipeline.launches)

    # 1. In-process: single-batch comparer accounting.
    before = index.comparer_stats()
    result = search_variants(index, queries, haplotypes)
    after = index.comparer_stats()
    expected_payload = result.payload()
    batches = after["batches"] - before["batches"]
    scanned = after["entries_scanned"] - before["entries_scanned"]
    expected_scanned = result.reference_chunks + result.patched_chunks
    print(f"# in-process: {len(expected_payload['events'])} events, "
          f"{result.patched_chunks} patches over "
          f"{result.reference_chunks} reference entries, "
          f"{batches} comparer batch(es)")
    if batches != 1:
        failures.append(
            f"variant search took {batches} comparer batches, not 1")
    if scanned != expected_scanned:
        failures.append(
            f"comparer scanned {scanned} entries, expected "
            f"{expected_scanned} (reference + patches)")
    if not expected_payload["events"]:
        failures.append("variant search produced no events")

    # 2. Served (single process) + TOML enzyme config: byte-identity
    #    and the enzyme registry end to end.
    with tempfile.TemporaryDirectory() as tmp:
        config_path = os.path.join(tmp, "enzymes.toml")
        with open(config_path, "w", encoding="ascii") as handle:
            handle.write(_ENZYME_TOML)
        from ..enzymes import load_enzymes
        enzymes = load_enzymes(config_path)
        enzyme_pairs = [
            (enzyme, GenomeSiteIndex.build(assembly, enzyme.pattern))
            for enzyme in enzymes]
    server = OffTargetServer(index, max_wait_ms=1.0,
                             enzymes=enzyme_pairs)
    handle = server.start_background()
    try:
        with ServiceClient(handle.host, handle.port) as client:
            served = client.variant_search(queries, haplotypes)
            served.pop("id", None)
            served.pop("ok", None)
            if json.dumps(served) != json.dumps(expected_payload):
                failures.append(
                    "served variant response is not byte-identical "
                    "to the in-process payload")
            else:
                print("# served response byte-identical to in-process")
            listing = client.enzymes()
            names = [row["name"] for row in listing["enzymes"]]
            if names != ["SpCas9-NGG"]:
                failures.append(
                    f"enzymes op listed {names}, expected "
                    f"['SpCas9-NGG']")
            enzyme_hits = client.query(
                [Query("N" * 20 + "NGG", 4)], enzyme="SpCas9-NGG")
            print(f"# enzyme 'SpCas9-NGG' served "
                  f"{sum(len(per) for per in enzyme_hits)} hits")
            stats = client.stats()
            if stats.get("requests_by_kind", {}).get("variant") != 1:
                failures.append(
                    "scheduler did not account the variant request")
    finally:
        handle.stop()
    grown = len(index.pipeline.launches) - launches
    if grown:
        failures.append(
            f"variant searches appended {grown} launch record(s) to "
            f"the serving pipeline")

    if failures:
        for failure in failures:
            print(f"smoke FAILED: {failure}")
        return 1
    print(f"smoke OK: {len(expected_payload['events'])} events "
          f"byte-identical between in-process and served, in one "
          f"comparer batch per search, no launch record appended")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.variants",
        description="Variant-aware search smoke test: single-batch "
                    "accounting, served byte-identity, enzyme "
                    "registry serving.")
    parser.add_argument("--smoke", action="store_true",
                        help="run the variant smoke")
    parser.add_argument("--scale", type=float, default=0.0002,
                        help="synthetic assembly scale factor")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.error("only --smoke is supported; use the `variants` "
                     "CLI subcommand for real searches")
    return _smoke(args.scale, args.seed)


if __name__ == "__main__":
    raise SystemExit(main())
