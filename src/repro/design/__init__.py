"""Guide-design subsystem: pick guides, not just look them up.

The serving stack answers "where does this guide bind"; this package
answers the question real users ask — "which guide should I use for
this region".  Three layers, in the spirit of the crisprtree estimator
API:

* :mod:`repro.design.enumerate` — scan a target region of the
  assembly, both strands, for PAM-adjacent protospacer candidates with
  composition filters (GC bounds, homopolymer runs, ACGT-only);
* :mod:`repro.design.estimators` — estimator objects (MIT, CFD-style)
  with a uniform ``score_hits``/``rank`` API over
  :mod:`repro.core.scoring`;
* :mod:`repro.design.ranking` — the :func:`design_guides` workflow:
  every enumerated candidate rides ONE multi-query batch through the
  resident :class:`~repro.service.index.GenomeSiteIndex` (a single
  batched comparer pass — never per-guide rescans), genome-wide
  off-target penalties are aggregated per candidate, and the ranked
  top-N come back as :class:`GuideDesignReport` rows.

The same workflow is exposed as the ``design`` op of the query service
(server and router alike, byte-identical), via
``repro.service.client.ServiceClient.design`` and the ``design`` CLI
subcommand.  ``python -m repro.design --smoke`` checks a live server's
``design`` response against the in-process reference.
"""

from .enumerate import (DesignError, PatternAnatomy,
                        ProtospacerCandidate, candidate_queries,
                        decode_candidates, encode_candidates,
                        enumerate_protospacers, pattern_anatomy)
from .estimators import (CFDEstimator, ESTIMATORS, GuideEstimator,
                         MITEstimator, get_estimator)
from .ranking import (DesignResult, DesignSpec, GuideDesignReport,
                      MAX_CANDIDATES, REPORT_FIELDS, decode_design_spec,
                      decode_reports, design_guides, design_payload,
                      encode_reports, enumerate_for_design,
                      enumerate_payload, rank_candidates,
                      scoring_guide_length)

__all__ = [
    "CFDEstimator",
    "DesignError",
    "DesignResult",
    "DesignSpec",
    "ESTIMATORS",
    "GuideDesignReport",
    "GuideEstimator",
    "MAX_CANDIDATES",
    "MITEstimator",
    "PatternAnatomy",
    "ProtospacerCandidate",
    "REPORT_FIELDS",
    "candidate_queries",
    "decode_candidates",
    "decode_design_spec",
    "decode_reports",
    "design_guides",
    "design_payload",
    "encode_candidates",
    "encode_reports",
    "enumerate_for_design",
    "enumerate_payload",
    "enumerate_protospacers",
    "get_estimator",
    "pattern_anatomy",
    "rank_candidates",
    "scoring_guide_length",
]
