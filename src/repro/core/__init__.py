"""Core library: the Cas-OFFinder algorithm and host pipelines."""

from .bitparallel import BitParallelCasOffinder, bitparallel_search
from .bulge import BulgeHit, bulge_search
from .multidevice import (MultiDeviceCasOffinder, MultiDeviceResult,
                          multi_device_search)
from .config import (EXAMPLE_INPUT, Query, SearchRequest, example_request)
from .patterns import (COMPLEMENT_TABLE, CompiledPattern, IUPAC_COMPLEMENT,
                       IUPAC_MASKS, MASK_TABLE, MISMATCH_LUT, PatternError,
                       compile_pattern, count_mismatches, mask_of,
                       reverse_complement, validate_iupac)
from .pipeline import (DEFAULT_CHUNK_SIZE, OpenCLCasOffinder,
                       PipelineResult, SyclCasOffinder,
                       SyclUsmCasOffinder, search)
from .records import (HEADER, OffTargetHit, read_hits, sort_hits,
                      write_hits)
from .reference import reference_search
from .scoring import (GuideReport, MIT_WEIGHTS, aggregate_specificity,
                      mit_site_score, rank_guides, score_hit)
from .workload import QueryWorkload, WorkloadProfile

__all__ = [
    "BitParallelCasOffinder", "BulgeHit",
    "MultiDeviceCasOffinder", "MultiDeviceResult", "COMPLEMENT_TABLE", "CompiledPattern",
    "DEFAULT_CHUNK_SIZE", "EXAMPLE_INPUT", "HEADER", "IUPAC_COMPLEMENT",
    "IUPAC_MASKS", "MASK_TABLE", "MISMATCH_LUT", "OffTargetHit",
    "OpenCLCasOffinder", "PatternError", "PipelineResult", "Query",
    "QueryWorkload", "SearchRequest", "SyclCasOffinder",
    "SyclUsmCasOffinder",
    "WorkloadProfile", "bulge_search", "compile_pattern",
    "count_mismatches", "example_request", "mask_of",
    "GuideReport", "MIT_WEIGHTS", "aggregate_specificity",
    "bitparallel_search", "mit_site_score", "multi_device_search",
    "rank_guides", "score_hit",
    "read_hits", "reference_search",
    "reverse_complement", "search", "sort_hits", "validate_iupac",
    "write_hits",
]
