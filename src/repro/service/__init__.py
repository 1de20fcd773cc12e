"""Off-target query service: resident site index, batching, serving.

The paper's two-kernel split has a serving-shaped property: the finder
kernel's candidate sites depend only on the genome and the PAM pattern,
never on the guide query.  This package exploits that once-per-genome /
many-per-query asymmetry:

* :mod:`repro.service.index` — :class:`~repro.service.index.
  GenomeSiteIndex` runs the finder once over each chromosome and keeps
  its candidate-site arrays memory-resident (with versioned save/load,
  fingerprinted by genome bytes and pattern, so a server can
  warm-start without rescanning).  It takes no chunk size: the paper's
  host program chunks a chromosome to fit device memory, and the index
  has no device.  A server's index is fixed when the server is built;
* :mod:`repro.service.scheduler` — a bounded request queue with
  micro-batching that stacks concurrent requests' guides into a single
  batched comparer launch over the resident index (the
  continuous-batching pattern of production inference servers);
* :mod:`repro.service.server` / :mod:`repro.service.client` — an
  asyncio JSON-lines TCP server (stdlib only) exposing ``query``,
  ``stats`` and ``health`` ops on the front end the router shares
  (``JsonLinesServer``), plus a blocking client and a load generator;
* :mod:`repro.service.router` — :class:`~repro.service.router.
  OffTargetRouter` partitions the genome by *chromosome* across N
  backend servers, on one host or many, with health probing,
  ejection and readmission (how a restarted backend with a new index
  rejoins), hedged reads, bounded retry against replicas, and
  responses kept byte-identical to one server's by a stable merge on
  chromosome rank.

The serving layer runs on plain numpy, off the simulated OpenCL/SYCL
runtime that reproduces the paper's tables: the index's finder is the
finder kernel's own numpy body and its comparer reads a resident 2-bit
row table, so serving appends no launch record.  Responses are
byte-identical to an offline CLI search under any ``--api`` for the
same genome, pattern and queries (pinned by ``tests/test_service.py``).
"""

import importlib

from .index import (GenomeSiteIndex, SiteIndexError,
                    SiteIndexMismatchError, SiteIndexVersionError)
from .scheduler import (BatchScheduler, DeadlineExceeded,
                        SchedulerClosed, ServiceOverloaded)
from .server import OffTargetServer

#: Re-exported lazily, by module: importing .client or .router here
#: would make their ``python -m repro.service.client`` / ``router``
#: smoke entry points warn about the module being imported twice
#: (runpy sees it in sys.modules before executing it as __main__).
_LAZY_EXPORTS = {
    "client": ("ServiceClient", "ServiceDeadlineError", "ServiceError",
               "ServiceOverloadedError", "run_load"),
    "router": ("OffTargetRouter", "RouterError", "partition_chromosomes",
               "replica_plan"),
}


def __getattr__(name):
    for module, names in _LAZY_EXPORTS.items():
        if name in names:
            return getattr(importlib.import_module(f".{module}", __name__),
                           name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "GenomeSiteIndex", "SiteIndexError", "SiteIndexMismatchError",
    "SiteIndexVersionError", "BatchScheduler", "DeadlineExceeded", "SchedulerClosed",
    "ServiceOverloaded", "OffTargetServer", "ServiceClient",
    "ServiceError", "ServiceOverloadedError", "ServiceDeadlineError",
    "run_load", "OffTargetRouter", "RouterError",
    "partition_chromosomes", "replica_plan",
]
