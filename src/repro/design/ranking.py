"""Ranked guide selection: one batched scan, genome-wide penalties.

:func:`design_guides` is the end-to-end workflow: enumerate candidate
protospacers over a target region, submit **all** of them as one
multi-query batch through the resident index's batched comparer (one
``query_batch`` call — the single-scan invariant; never a per-guide
rescan), aggregate each candidate's genome-wide off-target penalty
under an estimator, and return the top-N as
:class:`GuideDesignReport` rows.

Everything the service tiers need to produce *byte-identical* design
responses lives here as pure functions over plain data:

* :func:`decode_design_spec` — one shared request validator, so the
  server and the router reject malformed requests identically;
* :func:`rank_candidates` — per-candidate summaries + the
  deterministic sort ``(-specificity, guide, chrom, position,
  strand)``;
* :func:`design_payload` — the one response encoder (fixed key and
  row layout) used verbatim by the in-process path, the server and
  the router.

Floats are bit-deterministic because every tier feeds the same hit
lists in the same (deterministically merged) order through the same
summation — the same property the query op's byte-identity rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from ..core import scoring
from ..core.config import Query
from ..core.records import OffTargetHit
from .enumerate import (DEFAULT_GC_MAX, DEFAULT_GC_MIN,
                        DEFAULT_MAX_HOMOPOLYMER, PatternAnatomy,
                        ProtospacerCandidate, candidate_queries,
                        encode_candidates, enumerate_protospacers,
                        pattern_anatomy)
from .estimators import GuideEstimator, get_estimator

#: Hard cap on candidates per design request; a pathological region
#: cannot flood the batch path with an unbounded query list.
MAX_CANDIDATES = 4096

#: Wire row layout for one ranked report (the ``design`` op).
REPORT_FIELDS = ("guide", "pam", "chrom", "position", "strand",
                 "gc_fraction", "specificity", "on_targets",
                 "off_targets", "worst_off_target")


@dataclass(frozen=True)
class GuideDesignReport:
    """One ranked candidate: where it sits and how specific it is."""

    guide: str
    pam: str
    chrom: str
    position: int
    strand: str
    gc_fraction: float
    specificity: float        # 0-100, higher = fewer/weaker off-targets
    on_targets: int           # exact (0-mismatch) genome sites
    off_targets: int
    worst_off_target: float

    @staticmethod
    def header() -> Tuple[str, ...]:
        return REPORT_FIELDS

    def tsv_row(self) -> str:
        return "\t".join((
            self.guide, self.pam, self.chrom, str(self.position),
            self.strand, f"{self.gc_fraction:.3f}",
            f"{self.specificity:.4f}", str(self.on_targets),
            str(self.off_targets), f"{self.worst_off_target:.4f}"))


def encode_reports(reports: Sequence[GuideDesignReport]
                   ) -> List[List[Any]]:
    return [[r.guide, r.pam, r.chrom, int(r.position), r.strand,
             float(r.gc_fraction), float(r.specificity),
             int(r.on_targets), int(r.off_targets),
             float(r.worst_off_target)] for r in reports]


def decode_reports(rows: Sequence[Sequence[Any]]
                   ) -> List[GuideDesignReport]:
    reports = []
    for row in rows:
        if not isinstance(row, (list, tuple)) \
                or len(row) != len(REPORT_FIELDS):
            raise ValueError(
                f"bad report row {row!r}: expected "
                f"{list(REPORT_FIELDS)}")
        reports.append(GuideDesignReport(
            guide=str(row[0]), pam=str(row[1]), chrom=str(row[2]),
            position=int(row[3]), strand=str(row[4]),
            gc_fraction=float(row[5]), specificity=float(row[6]),
            on_targets=int(row[7]), off_targets=int(row[8]),
            worst_off_target=float(row[9])))
    return reports


# ---------------------------------------------------------------------------
# Request spec (shared between server, router, client and CLI)


@dataclass(frozen=True)
class DesignSpec:
    """A validated ``design``/``enumerate`` request."""

    chrom: str
    start: int
    end: int
    max_mismatches: int
    top_n: int = 5
    estimator: str = "mit"
    guide_length: Optional[int] = None
    gc_min: float = DEFAULT_GC_MIN
    gc_max: float = DEFAULT_GC_MAX
    max_homopolymer: int = DEFAULT_MAX_HOMOPOLYMER


def _require_int(request: Mapping[str, Any], field: str,
                 minimum: int, default: Optional[int] = None,
                 required: bool = True) -> Optional[int]:
    raw = request.get(field, default)
    if raw is None:
        if required:
            raise ValueError(f"missing required field {field!r}")
        return None
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ValueError(f"{field} must be an integer, got {raw!r}")
    if raw < minimum:
        raise ValueError(f"{field} must be >= {minimum}, got {raw}")
    return raw


def _require_float(request: Mapping[str, Any], field: str,
                   default: float) -> float:
    raw = request.get(field, default)
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValueError(f"{field} must be a number, got {raw!r}")
    return float(raw)


def decode_design_spec(request: Mapping[str, Any]) -> DesignSpec:
    """Validate a design/enumerate request into a :class:`DesignSpec`.

    Raises ``ValueError`` with a client-actionable message; the server
    and router both use this, so malformed requests fail identically
    at every tier.
    """
    chrom = request.get("chrom")
    if not isinstance(chrom, str) or not chrom:
        raise ValueError(
            f"'chrom' must be a chromosome name, got {chrom!r}")
    start = _require_int(request, "start", 0)
    end = _require_int(request, "end", 1)
    if end <= start:
        raise ValueError(
            f"bad region {chrom}:{start}-{end}: need start < end")
    mismatches = _require_int(request, "mismatches", 0)
    top_n = _require_int(request, "top", 1, default=5)
    estimator = request.get("estimator", "mit")
    if not isinstance(estimator, str):
        raise ValueError(
            f"'estimator' must be a string, got {estimator!r}")
    guide_length = _require_int(request, "guide_length", 1,
                                required=False)
    gc_min = _require_float(request, "gc_min", DEFAULT_GC_MIN)
    gc_max = _require_float(request, "gc_max", DEFAULT_GC_MAX)
    if not 0.0 <= gc_min <= gc_max <= 1.0:
        raise ValueError(
            f"bad GC bounds [{gc_min}, {gc_max}]: need "
            f"0 <= gc_min <= gc_max <= 1")
    max_homopolymer = _require_int(request, "max_homopolymer", 0,
                                   default=DEFAULT_MAX_HOMOPOLYMER)
    return DesignSpec(chrom=chrom, start=start, end=end,
                      max_mismatches=mismatches, top_n=top_n,
                      estimator=estimator, guide_length=guide_length,
                      gc_min=gc_min, gc_max=gc_max,
                      max_homopolymer=max_homopolymer)


# ---------------------------------------------------------------------------
# Ranking and response encoding (pure; shared by every tier)


def scoring_guide_length(anatomy: PatternAnatomy) -> int:
    """Scored guide positions: the guide region, capped at the weight
    tables' 20 positions (markup past the tables is PAM-distal spill
    the schemes do not model)."""
    return min(anatomy.guide_length, scoring.GUIDE_LENGTH)


def rank_candidates(candidates: Sequence[ProtospacerCandidate],
                    hits_by_query: Mapping[str, List[OffTargetHit]],
                    estimator: GuideEstimator,
                    top_n: Optional[int] = None
                    ) -> List[GuideDesignReport]:
    """Summarize every candidate and sort best-first, deterministically.

    The sort key ``(-specificity, guide, chrom, position, strand)``
    breaks every possible tie on candidate identity, so rankings are
    byte-identical across runs and serving tiers.
    """
    reports: List[GuideDesignReport] = []
    for candidate in candidates:
        hits = hits_by_query.get(candidate.query_sequence, [])
        specificity, on_targets, off_targets, worst = \
            estimator.summarize(hits)
        reports.append(GuideDesignReport(
            guide=candidate.protospacer, pam=candidate.pam,
            chrom=candidate.chrom, position=candidate.position,
            strand=candidate.strand,
            gc_fraction=candidate.gc_fraction,
            specificity=specificity, on_targets=on_targets,
            off_targets=off_targets, worst_off_target=worst))
    reports.sort(key=lambda r: (-r.specificity, r.guide, r.chrom,
                                r.position, r.strand))
    if top_n is not None:
        reports = reports[:top_n]
    return reports


def design_payload(anatomy: PatternAnatomy,
                   estimator: GuideEstimator,
                   candidates: Sequence[ProtospacerCandidate],
                   queries: Sequence[str],
                   reports: Sequence[GuideDesignReport]
                   ) -> Dict[str, Any]:
    """The ``design`` response body (everything except ok/id).

    Single source of truth for key order and row layout: the server
    and the router both serialize exactly this dict, which is what
    makes routed design responses byte-identical to in-process ones.
    """
    return {
        "estimator": estimator.name,
        "pattern": anatomy.pattern,
        "guide_length": anatomy.guide_length,
        "pam": anatomy.pam,
        "candidates": len(candidates),
        "queries": len(queries),
        "reports": encode_reports(reports),
    }


def enumerate_payload(anatomy: PatternAnatomy,
                      candidates: Sequence[ProtospacerCandidate],
                      queries: Sequence[str]) -> Dict[str, Any]:
    """The ``enumerate`` response body (candidates on the wire)."""
    return {
        "pattern": anatomy.pattern,
        "guide_length": anatomy.guide_length,
        "pam": anatomy.pam,
        "candidates": encode_candidates(candidates),
        "queries": list(queries),
    }


# ---------------------------------------------------------------------------
# The in-process workflow


@dataclass(frozen=True)
class DesignResult:
    """Everything a design run produced, pre- and post-ranking."""

    anatomy: PatternAnatomy
    estimator: GuideEstimator
    candidates: Tuple[ProtospacerCandidate, ...]
    queries: Tuple[str, ...]
    reports: Tuple[GuideDesignReport, ...]

    def payload(self) -> Dict[str, Any]:
        return design_payload(self.anatomy, self.estimator,
                              self.candidates, self.queries,
                              self.reports)


def enumerate_for_design(assembly, pattern: str, spec: DesignSpec
                         ) -> Tuple[PatternAnatomy,
                                    List[ProtospacerCandidate],
                                    List[str]]:
    """Anatomy + filtered candidates + unique queries for one spec."""
    anatomy = pattern_anatomy(pattern, spec.guide_length)
    candidates = enumerate_protospacers(
        assembly, spec.chrom, spec.start, spec.end, anatomy,
        gc_min=spec.gc_min, gc_max=spec.gc_max,
        max_homopolymer=spec.max_homopolymer)
    if len(candidates) > MAX_CANDIDATES:
        raise ValueError(
            f"region {spec.chrom}:{spec.start}-{spec.end} yields "
            f"{len(candidates)} candidates, over the "
            f"{MAX_CANDIDATES}-candidate request cap; split the "
            f"region")
    return anatomy, candidates, candidate_queries(candidates)


def design_guides(index, chrom: str, start: int, end: int,
                  max_mismatches: int, top_n: int = 5,
                  estimator: Union[str, GuideEstimator] = "mit",
                  guide_length: Optional[int] = None,
                  gc_min: float = DEFAULT_GC_MIN,
                  gc_max: float = DEFAULT_GC_MAX,
                  max_homopolymer: int = DEFAULT_MAX_HOMOPOLYMER
                  ) -> DesignResult:
    """Enumerate, scan once, rank: the guide-design workflow.

    ``index`` is a :class:`~repro.service.index.GenomeSiteIndex` or
    anything with its ``pattern``, ``assembly`` and ``query_batch``.
    All unique candidate queries go through exactly one
    ``index.query_batch`` call: one batched comparer pass over the
    resident index for the entire candidate set.
    """
    spec = DesignSpec(chrom=chrom, start=start, end=end,
                      max_mismatches=max_mismatches, top_n=top_n,
                      guide_length=guide_length, gc_min=gc_min,
                      gc_max=gc_max, max_homopolymer=max_homopolymer)
    anatomy, candidates, queries = enumerate_for_design(
        index.assembly, index.pattern, spec)
    chosen = get_estimator(estimator, scoring_guide_length(anatomy))
    hits_by_query: Dict[str, List[OffTargetHit]] = {}
    if queries:
        results = index.query_batch(
            [Query(sequence=query, max_mismatches=max_mismatches)
             for query in queries])
        hits_by_query = dict(zip(queries, results))
    reports = rank_candidates(candidates, hits_by_query, chosen, top_n)
    return DesignResult(anatomy=anatomy, estimator=chosen,
                        candidates=tuple(candidates),
                        queries=tuple(queries),
                        reports=tuple(reports))
