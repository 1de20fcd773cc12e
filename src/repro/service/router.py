"""Multi-host routing tier: partition by chromosome, stay byte-identical.

:class:`OffTargetRouter` is an asyncio front end that speaks the same
JSON-lines protocol as :class:`~repro.service.server.OffTargetServer`
and fans each ``query`` out to a fleet of backend index servers, each
holding a :class:`~repro.service.index.GenomeSiteIndex` over a subset
of the genome's chromosomes.  The backends may run on other hosts or
as several ``serve --chromosomes`` processes on one host; the router is
how the service uses more than one process.

The core invariant is a deterministic merge: every server answers in
the served hit order of :mod:`repro.core.records`, chromosome-major in
assembly order, and a backend's partition of a response is that order
over its chromosomes; so a stable sort of the gathered wire rows by
chromosome rank reproduces the single-server byte stream exactly — no
matter which replica answered or whether a hedge won.

Robustness machinery, all exercised deterministically in tests via the
server's request-level fault plans (``crash`` / ``disconnect`` /
``stall`` in :mod:`repro.observability.faults`):

* **Health probing** — a background task probes every backend's
  ``health`` op; ``eject_after`` consecutive failures ejects it from
  the routing table, a later successful probe readmits it (and
  refreshes its chromosome set, which may have changed across a
  restart).  This is how a new genome or index reaches the fleet: a
  backend's index is fixed for the life of its process, so a
  supervisor restarts it (SIGTERM drain, then a new process) while
  its replicas serve its chromosomes.
* **Hedged reads** — when a sub-request has not answered within a
  delay derived from the observed p95 sub-request latency (or a fixed
  ``hedge_ms``), the same sub-request (same id) is re-issued to a
  replica and the first answer wins; the losing leg is cancelled and
  its connection closed, so its answer never reaches the client.
* **Bounded retry with backoff** — connection loss and typed
  ``overloaded`` rejections retry against the partition's replicas
  with capped exponential backoff up to ``max_attempts``; ``deadline``
  errors are *never* retried (the time is already spent — retrying
  would lie about latency).

Replication is declarative: each backend announces the chromosomes it
holds, the router groups chromosomes by their holder *set*, and every
sub-request carries an explicit ``chromosomes`` filter — so any
replica holding a superset can serve a partition without duplicating
hits.  A sub-request is the client's request with only its routing
fields replaced (``id`` and ``chromosomes``; a routed ``design`` also
sets each stage's ``op`` and ``queries``), so ``enzyme``,
``deadline_s`` and the design filters reach the backends as sent.  A
client's own ``chromosomes`` filter on ``query``, ``variant`` or
``enzymes`` is intersected with each partition's chromosomes, and a
routed ``enzymes`` listing sums its partitions' site and entry counts.

Clients reach the router through the backends' own front end
(:class:`~repro.service.server.JsonLinesServer`: line framing, SIGTERM
drain, ready file); the router adds only its op handlers, a start hook
that probes the fleet before listening and a stop hook that ends the
probe loop and closes the connection pools.  Handlers raise typed
errors for the front end to answer: a backend's error passes through
with its own code (its ``internal`` included), and :class:`RouterError`
carries the router's own ``deadline`` and ``unavailable``.  A backend
answers a line it could not read (one longer than its limit) with no
``id``; the router passes that ``bad-request`` through like any other,
with no retry and no ejection.

Stdlib only, like the rest of the serving stack.  ``python -m
repro.service.router --smoke`` boots a 3-backend subprocess fleet,
SIGKILLs one backend mid-load, drains the survivors with SIGTERM, and
asserts both byte-identity against a single-process server and zero
leaked processes/ready files.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (Any, Awaitable, Deque, Dict, FrozenSet, Iterable,
                    List, Optional, Sequence, Set, Tuple)

from ..core.records import OffTargetHit, hits_from_rows
from ..design.enumerate import PatternAnatomy, decode_candidates
from ..design.estimators import get_estimator
from ..design.ranking import (decode_design_spec, design_payload,
                              rank_candidates, scoring_guide_length)
from ..genome.assembly import Assembly
from ..observability import tracing
from ..variants.model import decode_haplotypes
from ..variants.overlay import sort_event_rows, variant_payload
from .scheduler import percentile
from .server import (MAX_LINE_BYTES, JsonLinesServer, RequestError,
                     _bad_request, _decode_chromosomes, _decode_deadline,
                     _decode_queries)

#: Idle pooled connections kept per backend.
POOL_MAX_IDLE = 8

#: Seconds a backend may take to answer a ``health`` probe.
PROBE_TIMEOUT_S = 2.0

#: Retry backoff: the first delay, doubled per attempt up to the cap.
BACKOFF_BASE_S = 0.01
BACKOFF_CAP_S = 0.2

#: Seconds a backend may take to answer one sub-request.
TASK_TIMEOUT_S = 30.0

#: Seconds to open a new connection to a backend.
CONNECT_TIMEOUT_S = 5.0

#: Read limit for backend *responses*.  Requests from untrusted clients
#: stay capped at MAX_LINE_BYTES, but a backend answering a wide design
#: fan-out (dozens of queries, each with thousands of hits) can
#: legitimately return a line far past 1 MiB — mirror the sync client,
#: whose response reads are unbounded, with a generous ceiling.
BACKEND_LINE_BYTES = MAX_LINE_BYTES << 7

_Conn = Tuple[asyncio.StreamReader, asyncio.StreamWriter]


class RouterError(RequestError):
    """A routing failure: ``deadline`` when a backend reported the
    request's deadline spent, ``unavailable`` when no live replica
    could serve a partition."""


async def _gather(calls: Iterable[Awaitable[Dict[str, Any]]]
                  ) -> List[Dict[str, Any]]:
    """Await sub-requests together.

    If any failed, raise the failure the client is answered with, the
    first of the worst: a backend's own error passed through, then
    ``deadline``, then ``unavailable``, then anything else
    (``internal``).
    """
    def precedence(exc: BaseException) -> int:
        if isinstance(exc, RouterError):
            return 1 if exc.code == "deadline" else 2
        return 0 if isinstance(exc, RequestError) else 3

    results = await asyncio.gather(*calls, return_exceptions=True)
    failures = [r for r in results if isinstance(r, BaseException)]
    if failures:
        raise min(failures, key=precedence)
    return results


class _Backend:
    """One backend server: address, liveness, discovery, counters."""

    def __init__(self, backend_id: int, host: str, port: int):
        self.backend_id = backend_id
        self.host = host
        self.port = port
        self.alive = False
        #: Seen healthy at least once (distinguishes readmission from
        #: first discovery).
        self.ever_seen = False
        self.chromosomes: Tuple[str, ...] = ()
        self.genome: Optional[str] = None
        self.pattern: Optional[str] = None
        self.fingerprint: Optional[str] = None
        self.consecutive_failures = 0
        self.ejections = 0
        self.readmissions = 0
        self.probes_ok = 0
        self.probes_failed = 0
        self.requests = 0
        self.idle: Deque[_Conn] = deque()

    @property
    def label(self) -> str:
        return f"{self.host}:{self.port}"

    def snapshot(self) -> Dict[str, Any]:
        return {
            "backend": self.label,
            "alive": self.alive,
            "chromosomes": list(self.chromosomes),
            "fingerprint": self.fingerprint,
            "requests": self.requests,
            "consecutive_failures": self.consecutive_failures,
            "ejections": self.ejections,
            "readmissions": self.readmissions,
            "probes_ok": self.probes_ok,
            "probes_failed": self.probes_failed,
        }


@dataclass
class _Group:
    """One partition: chromosomes sharing an identical replica set."""

    backends: List[_Backend]
    chromosomes: List[str] = field(default_factory=list)


def _plan(groups: Sequence[_Group], allowed: Optional[FrozenSet[str]]
          ) -> List[Tuple[_Group, List[str]]]:
    """Each partition with its chromosomes that a request's
    ``chromosomes`` filter keeps (all of them without a filter),
    skipping partitions the filter leaves empty."""
    plans = []
    for group in groups:
        chroms = [c for c in group.chromosomes
                  if allowed is None or c in allowed]
        if chroms:
            plans.append((group, chroms))
    return plans


def parse_backend(spec: Any) -> Tuple[str, int]:
    """Accept ``"host:port"`` strings or ``(host, port)`` pairs."""
    if isinstance(spec, str):
        host, sep, port_text = spec.rpartition(":")
        if not sep or not host:
            raise ValueError(
                f"bad backend spec {spec!r}: expected HOST:PORT")
        try:
            port = int(port_text)
        except ValueError:
            raise ValueError(
                f"bad backend port in {spec!r}") from None
    else:
        host, port = spec
        port = int(port)
    if not 0 < port < 65536:
        raise ValueError(f"bad backend port {port} in {spec!r}")
    return host, port


def partition_chromosomes(assembly: Assembly, partitions: int
                          ) -> List[List[str]]:
    """Split chromosomes into contiguous, size-balanced partitions.

    Contiguous in assembly order (the global merge order), greedily
    balanced by base count; every partition is non-empty, so
    ``partitions`` must not exceed the chromosome count.
    """
    chroms = assembly.chromosomes
    if not 1 <= partitions <= len(chroms):
        raise ValueError(
            f"cannot split {len(chroms)} chromosome(s) into "
            f"{partitions} partition(s)")
    total = sum(len(c) for c in chroms)
    out: List[List[str]] = []
    cursor = 0
    remaining = total
    for part in range(partitions):
        take = [chroms[cursor].name]
        size = len(chroms[cursor])
        cursor += 1
        # Leave one chromosome for each remaining partition.
        spare = len(chroms) - cursor - (partitions - part - 1)
        target = remaining / (partitions - part)
        while spare > 0 and size + len(chroms[cursor]) / 2 < target:
            take.append(chroms[cursor].name)
            size += len(chroms[cursor])
            cursor += 1
            spare -= 1
        remaining -= size
        out.append(take)
    return out


def replica_plan(parts: Sequence[Sequence[str]], replication: int
                 ) -> List[List[str]]:
    """Chained replication: backend ``i`` holds partitions
    ``i, i-1, ..., i-replication+1`` (mod N), giving every partition
    ``replication`` holders with no extra hosts."""
    n = len(parts)
    if not 1 <= replication <= n:
        raise ValueError(
            f"replication must be in [1, {n}], got {replication}")
    out = []
    for i in range(n):
        held: List[str] = []
        for r in range(replication):
            held.extend(parts[(i - r) % n])
        out.append(held)
    return out


class OffTargetRouter(JsonLinesServer):
    """Chromosome-partitioning front end over N backend index servers.

    ``backends`` is a list of ``"host:port"`` specs (or pairs).
    ``chromosome_order`` pins the global merge order; when omitted it
    is derived from discovery (config-order backends, each backend's
    chromosomes in announced order) — correct for contiguous
    partitions, but explicit order should be given whenever chained
    replication makes a backend announce non-adjacent partitions.

    ``hedge_ms``: None derives the hedge delay from the rolling p95 of
    sub-request latency; 0 disables hedging; a positive value fixes
    the delay in milliseconds.
    """

    def __init__(self, backends: Sequence[Any],
                 host: str = "127.0.0.1", port: int = 0,
                 chromosome_order: Optional[Sequence[str]] = None,
                 probe_interval_s: float = 0.5,
                 eject_after: int = 2,
                 hedge_ms: Optional[float] = None,
                 max_attempts: int = 3):
        if not backends:
            raise ValueError("a router needs at least one backend")
        if max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {max_attempts}")
        if eject_after < 1:
            raise ValueError(
                f"eject_after must be >= 1, got {eject_after}")
        super().__init__(host, port)
        self._backends = [
            _Backend(i, *parse_backend(spec))
            for i, spec in enumerate(backends)]
        self.chromosome_order = (list(chromosome_order)
                                 if chromosome_order else None)
        self.probe_interval_s = float(probe_interval_s)
        self.eject_after = int(eject_after)
        self.hedge_ms = hedge_ms
        self.max_attempts = int(max_attempts)
        # Routing table (rebuilt on discovery/ejection/readmission;
        # touched only from the event loop).
        self._groups: List[_Group] = []
        self._rank: Dict[str, int] = {}
        self._uncovered: List[str] = []
        self._routing_epoch = 0
        # Counters (event-loop only).
        self._requests = 0
        self._hedges_launched = 0
        self._hedges_won = 0
        self._hedges_lost = 0
        self._retries = 0
        self._seq = 0
        self._flow_seq = 0
        self._sub_latencies_ms: Deque[float] = deque(maxlen=512)
        self._probe_task: Optional[asyncio.Task] = None

    # -- connection pool ------------------------------------------------

    async def _acquire(self, backend: _Backend) -> _Conn:
        while backend.idle:
            reader, writer = backend.idle.popleft()
            if writer.is_closing():
                continue
            return reader, writer
        return await asyncio.wait_for(
            asyncio.open_connection(backend.host, backend.port,
                                    limit=BACKEND_LINE_BYTES),
            timeout=CONNECT_TIMEOUT_S)

    @staticmethod
    def _discard(conn: _Conn) -> None:
        try:
            conn[1].close()
        except Exception:  # noqa: BLE001 - best-effort teardown
            pass

    def _release(self, backend: _Backend, conn: _Conn) -> None:
        if conn[1].is_closing() or len(backend.idle) >= POOL_MAX_IDLE:
            self._discard(conn)
        else:
            backend.idle.append(conn)

    def _close_pools(self) -> None:
        for backend in self._backends:
            while backend.idle:
                self._discard(backend.idle.popleft())

    # -- one RPC --------------------------------------------------------

    async def _rpc(self, backend: _Backend, payload: Dict[str, Any],
                   timeout_s: Optional[float]) -> Dict[str, Any]:
        """One request/response on a pooled connection.

        Raises ``ConnectionError`` (or ``asyncio.TimeoutError``) on any
        transport failure; the connection is returned to the pool only
        after a well-formed response with a matching id.
        """
        conn = await self._acquire(backend)
        reader, writer = conn
        try:
            writer.write(json.dumps(payload).encode("ascii") + b"\n")
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(),
                                          timeout=timeout_s)
            if not line:
                raise ConnectionResetError(
                    f"backend {backend.label} closed the connection")
            response = json.loads(line)
            if not isinstance(response, dict):
                raise ValueError("backend response is not an object")
            # An answer with no id is one to a line the backend could
            # not read (the client accepts those too).
            rid = payload.get("id")
            if rid is not None and response.get("id") not in (None, rid):
                raise ConnectionResetError(
                    f"backend {backend.label} answered id "
                    f"{response.get('id')!r} for request {rid!r}")
        except BaseException:
            self._discard(conn)
            raise
        self._release(backend, conn)
        return response

    async def _timed_rpc(self, backend: _Backend,
                         payload: Dict[str, Any]) -> Dict[str, Any]:
        """RPC plus liveness accounting and latency sampling."""
        began = time.perf_counter()
        try:
            response = await self._rpc(backend, payload, TASK_TIMEOUT_S)
        except (ConnectionError, OSError, asyncio.TimeoutError,
                ValueError, json.JSONDecodeError):
            self._note_failure(backend)
            raise
        self._note_success(backend)
        backend.requests += 1
        self._sub_latencies_ms.append(
            (time.perf_counter() - began) * 1000.0)
        return response

    # -- liveness -------------------------------------------------------

    def _note_success(self, backend: _Backend) -> None:
        backend.consecutive_failures = 0

    def _note_failure(self, backend: _Backend) -> None:
        backend.consecutive_failures += 1
        if backend.alive and \
                backend.consecutive_failures >= self.eject_after:
            backend.alive = False
            backend.ejections += 1
            tracing.instant("backend_ejected", cat="router",
                            backend=backend.label,
                            failures=backend.consecutive_failures)
            self._rebuild_routing()

    async def _probe(self, backend: _Backend) -> bool:
        self._seq += 1
        try:
            response = await self._rpc(
                backend, {"op": "health", "id": f"p{self._seq}"},
                timeout_s=PROBE_TIMEOUT_S)
            ok = bool(response.get("ok")) and \
                response.get("status") in ("serving", "degraded")
        except (ConnectionError, OSError, asyncio.TimeoutError,
                ValueError, json.JSONDecodeError):
            ok = False
            response = {}
        if not ok:
            backend.probes_failed += 1
            self._note_failure(backend)
            return False
        backend.probes_ok += 1
        backend.consecutive_failures = 0
        chroms = tuple(response.get("chromosomes") or ())
        changed = (not backend.alive
                   or chroms != backend.chromosomes)
        backend.genome = response.get("genome")
        backend.pattern = response.get("pattern")
        backend.fingerprint = response.get("fingerprint")
        backend.chromosomes = chroms
        if not backend.alive:
            backend.alive = True
            if backend.ever_seen:
                backend.readmissions += 1
                tracing.instant("backend_readmitted", cat="router",
                                backend=backend.label)
        backend.ever_seen = True
        if changed:
            self._rebuild_routing()
        return True

    async def _probe_loop(self) -> None:
        while True:
            await asyncio.sleep(self.probe_interval_s)
            await asyncio.gather(
                *(self._probe(b) for b in self._backends),
                return_exceptions=True)

    # -- routing table --------------------------------------------------

    def _rebuild_routing(self) -> None:
        order: List[str] = list(self.chromosome_order or [])
        seen = set(order)
        for backend in self._backends:
            for chrom in backend.chromosomes:
                if chrom not in seen:
                    seen.add(chrom)
                    order.append(chrom)
        holders: Dict[str, List[_Backend]] = {}
        for backend in self._backends:
            if not backend.alive:
                continue
            for chrom in backend.chromosomes:
                holders.setdefault(chrom, []).append(backend)
        groups: Dict[Tuple[int, ...], _Group] = {}
        for chrom in order:
            held = holders.get(chrom)
            if not held:
                continue
            key = tuple(b.backend_id for b in held)
            groups.setdefault(key, _Group(backends=held)) \
                .chromosomes.append(chrom)
        self._rank = {c: i for i, c in enumerate(order)}
        self._groups = list(groups.values())
        self._uncovered = [c for c in order if c not in holders]
        self._routing_epoch += 1
        tracing.instant("router_routing", cat="router",
                        epoch=self._routing_epoch,
                        groups=len(self._groups),
                        uncovered=len(self._uncovered))

    # -- hedging + retry ------------------------------------------------

    def _hedge_delay_s(self) -> Optional[float]:
        """Delay before re-issuing a straggler, or None (disabled)."""
        if self.hedge_ms is not None:
            if self.hedge_ms <= 0:
                return None
            return float(self.hedge_ms) / 1000.0
        lat = self._sub_latencies_ms
        if len(lat) < 16:
            return 0.05
        p95 = percentile(sorted(lat), 0.95)
        # Hedge a little past p95: a request slower than that is in
        # the tail the hedge exists to cut.
        return min(1.0, max(0.01, p95 * 1.5 / 1000.0))

    async def _hedged_rpc(self, primary: _Backend,
                          hedge_pool: Sequence[_Backend],
                          payload: Dict[str, Any]) -> Dict[str, Any]:
        """Issue to ``primary``; re-issue to a replica if it lags.

        The first well-formed answer wins and the losing leg is
        cancelled (:meth:`_rpc` discards its connection); a transport
        failure on one leg waits for the other before the whole call
        fails.
        """
        rid = payload["id"]
        flow_id = self._flow_seq = self._flow_seq + 1
        tracing.flow("route_subrequest", flow_id, cat="router",
                     backend=primary.label)
        primary_task = asyncio.ensure_future(
            self._timed_rpc(primary, payload))
        delay_s = self._hedge_delay_s()
        hedge_task: Optional[asyncio.Task] = None
        if hedge_pool and delay_s is not None:
            done, _ = await asyncio.wait({primary_task},
                                         timeout=delay_s)
            if not done:
                hedge = hedge_pool[0]
                self._hedges_launched += 1
                tracing.instant("hedge_launched", cat="router", id=rid,
                                primary=primary.label,
                                hedge=hedge.label)
                hedge_task = asyncio.ensure_future(
                    self._timed_rpc(hedge, payload))
        tasks: Set[asyncio.Task] = {primary_task}
        if hedge_task is not None:
            tasks.add(hedge_task)
        last_exc: Optional[BaseException] = None
        while tasks:
            done, tasks = await asyncio.wait(
                tasks, return_when=asyncio.FIRST_COMPLETED)
            for task in done:
                try:
                    response = task.result()
                except (ConnectionError, OSError,
                        asyncio.TimeoutError, ValueError,
                        json.JSONDecodeError) as exc:
                    last_exc = exc
                    continue
                if hedge_task is not None:
                    if task is hedge_task:
                        self._hedges_won += 1
                        tracing.instant("hedge_won", cat="router",
                                        id=rid)
                    else:
                        self._hedges_lost += 1
                tracing.flow("route_subrequest", flow_id, cat="router",
                             end=True)
                for loser in tasks:
                    loser.cancel()
                return response
        assert last_exc is not None
        raise last_exc

    async def _sub_request(self, group: _Group,
                           payload_base: Dict[str, Any],
                           validate=None) -> Dict[str, Any]:
        """One backend sub-request: hedge, retry across replicas.

        Generic over the op (``query``, ``enumerate``, ...): returns
        the first ok response, retrying transport failures, typed
        overloads and responses ``validate`` rejects (it returns a
        problem string or None) against the partition's replicas with
        capped backoff.  A backend's ``deadline`` raises
        :class:`RouterError` and is never retried; its other errors
        pass through as a :class:`RequestError` with their own code.
        """
        delay = BACKOFF_BASE_S
        last: Any = None
        for attempt in range(self.max_attempts):
            alive = [b for b in group.backends if b.alive]
            if not alive:
                break
            primary = alive[attempt % len(alive)]
            hedge_pool = [b for b in alive if b is not primary]
            self._seq += 1
            payload = dict(payload_base, id=f"r{self._seq}")
            try:
                response = await self._hedged_rpc(primary, hedge_pool,
                                                  payload)
            except (ConnectionError, OSError, asyncio.TimeoutError,
                    ValueError, json.JSONDecodeError) as exc:
                last = exc
                if attempt + 1 < self.max_attempts:
                    self._retries += 1
                    tracing.instant("route_retry", cat="router",
                                    backend=primary.label,
                                    attempt=attempt + 1,
                                    error=type(exc).__name__)
                    await asyncio.sleep(delay)
                    delay = min(delay * 2, BACKOFF_CAP_S)
                continue
            if response.get("ok"):
                if validate is not None:
                    problem = validate(response)
                    if problem:
                        last = f"backend {primary.label} {problem}"
                        continue
                return response
            code = response.get("error")
            message = response.get("message", "")
            if code == "overloaded":
                # Typed overload: back off and try a replica.
                last = f"backend {primary.label} overloaded: {message}"
                if attempt + 1 < self.max_attempts:
                    self._retries += 1
                    tracing.instant("route_retry", cat="router",
                                    backend=primary.label,
                                    attempt=attempt + 1,
                                    error="overloaded")
                    await asyncio.sleep(delay)
                    delay = min(delay * 2, BACKOFF_CAP_S)
                continue
            if code == "deadline":
                # Never retried: the budget is spent either way.
                raise RouterError("deadline", message)
            raise RequestError(code or "internal", message)
        raise RouterError(
            "unavailable",
            f"partition {group.chromosomes} unavailable after "
            f"{self.max_attempts} attempt(s): {last}")

    # -- request handling ----------------------------------------------

    async def _fan_out(self, plans: Sequence[Tuple[_Group, List[str]]],
                       rank: Dict[str, int], request: Dict[str, Any],
                       n_queries: int) -> List[List[List[Any]]]:
        """Fan a ``query`` request to the planned partitions
        (:func:`_plan`) and merge the rows.

        Each partition's sub-request is ``request`` restricted to the
        chromosomes planned for it.  The generalized deterministic
        merge: within one chromosome all rows come from a single partition
        already in the served hit order (:mod:`repro.core.records`),
        so a *stable* sort by chromosome rank reproduces the
        single-server order byte-for-byte.
        """
        results = await _gather(
            self._sub_request(
                group, dict(request, chromosomes=chroms),
                validate=lambda r: (
                    None if isinstance(r.get("hits"), list)
                    else "sent a malformed query response"))
            for group, chroms in plans)
        merged: List[List[List[Any]]] = [[] for _ in range(n_queries)]
        for response in results:
            partition_hits = response["hits"]
            if len(partition_hits) != n_queries:
                raise RequestError(
                    "internal", f"partition answered "
                                f"{len(partition_hits)} queries, "
                                f"expected {n_queries}")
            for per_query, rows in zip(merged, partition_hits):
                per_query.extend(rows)
        try:
            for per_query in merged:
                per_query.sort(key=lambda row: rank.get(row[1],
                                                        len(rank)))
        except (IndexError, KeyError, TypeError) as exc:
            raise RequestError("internal",
                               f"malformed hit row: "
                               f"{type(exc).__name__}: {exc}") from None
        return merged

    def _routing(self) -> Tuple[List[_Group], Dict[str, int]]:
        """The routing table's partitions and chromosome ranks, or
        ``unavailable`` when the fleet cannot serve."""
        if self._uncovered:
            raise RouterError("unavailable", f"no live backend serves "
                                             f"{self._uncovered}")
        if not self._groups:
            raise RouterError("unavailable",
                              "no live backends discovered")
        return list(self._groups), dict(self._rank)

    async def _handle_query(self, request: Dict[str, Any]
                            ) -> Dict[str, Any]:
        with _bad_request():
            queries = _decode_queries(request.get("queries"))
            allowed = _decode_chromosomes(request.get("chromosomes"))
            _decode_deadline(request.get("deadline_s"))
        groups, rank = self._routing()
        plans = _plan(groups, allowed)
        if not plans:
            # The filter names nothing the fleet holds: one backend,
            # sent the filter as it came, checks the queries and
            # answers empty lists, as a single server does.
            plans = [(groups[0], request["chromosomes"])]
        with tracing.span("route_request", cat="router",
                          queries=len(queries),
                          partitions=len(plans)):
            merged = await self._fan_out(plans, rank, request,
                                         len(queries))
        self._requests += 1
        return {"ok": True, "hits": merged}

    async def _handle_design(self, request: Dict[str, Any]
                             ) -> Dict[str, Any]:
        """The ``design`` op, routed: enumerate where the chromosome
        lives, scan everywhere, rank here.

        1. The target region's candidates are enumerated via the
           ``enumerate`` op on a backend whose partition holds the
           target chromosome (only it has those bases).
        2. The unique candidate queries fan out through the exact
           query machinery (chromosome filters, hedging, retries,
           deterministic merge) — one sub-request per partition, so
           every backend still serves the whole candidate set as one
           batch over its resident index.
        3. The merged rows feed the same pure ranking/encoding code
           the in-process server uses, which is what makes a routed
           design response byte-identical to a single-server one.

        Each stage's sub-requests are the client's request with only
        ``op``, ``queries`` and ``chromosomes`` replaced, so its
        ``enzyme``, ``deadline_s`` and filters reach the backends as
        sent.
        """
        with _bad_request():
            spec = decode_design_spec(request)
            _decode_deadline(request.get("deadline_s"))
        groups, rank = self._routing()
        owner = next((g for g in groups
                      if spec.chrom in g.chromosomes), None)
        if owner is None:
            # ``_routing`` found every chromosome in ``rank`` held, so
            # this one is not in the genome: refuse it in the words of
            # a server's ``enumerate``.
            raise RequestError(
                "bad-request", f"unknown chromosome {spec.chrom!r}; "
                               f"assembly {groups[0].backends[0].genome!r}"
                               f" has {sorted(rank)}")
        with tracing.span("route_design", cat="router",
                          chrom=spec.chrom, partitions=len(groups)):
            enum_response = await self._sub_request(
                owner, dict(request, op="enumerate"),
                validate=lambda r: (
                    None if isinstance(r.get("candidates"), list)
                    and isinstance(r.get("queries"), list)
                    else "sent a malformed enumerate response"))
            try:
                candidates = decode_candidates(
                    enum_response["candidates"])
                queries = [str(q) for q in enum_response["queries"]]
                anatomy = PatternAnatomy(
                    pattern=str(enum_response["pattern"]),
                    guide_length=int(enum_response["guide_length"]),
                    pam=str(enum_response["pam"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise RequestError(
                    "internal", f"malformed enumerate response: "
                                f"{type(exc).__name__}: {exc}") from None
            hits_by_query: Dict[str, List[OffTargetHit]] = {}
            if queries:
                # Every partition: a server's design ignores a
                # ``chromosomes`` filter, so the routed one does too.
                merged = await self._fan_out(
                    _plan(groups, None), rank,
                    dict(request, op="query",
                         queries=[[query, spec.max_mismatches]
                                  for query in queries]),
                    len(queries))
                try:
                    hits_by_query = {
                        query: hits_from_rows(rows)
                        for query, rows in zip(queries, merged)}
                except (IndexError, TypeError, ValueError) as exc:
                    raise RequestError(
                        "internal", f"malformed hit row: "
                                    f"{type(exc).__name__}: {exc}"
                    ) from None
            with _bad_request():
                estimator = get_estimator(
                    spec.estimator, scoring_guide_length(anatomy))
                reports = rank_candidates(candidates, hits_by_query,
                                          estimator, spec.top_n)
        self._requests += 1
        return {"ok": True,
                **design_payload(anatomy, estimator, candidates,
                                 queries, reports)}

    async def _handle_variant(self, request: Dict[str, Any]
                              ) -> Dict[str, Any]:
        """The ``variant`` op, routed: each partition patches and
        diffs its own chromosomes, the router re-merges.

        Every sub-request carries the partition's ``chromosomes``
        filter, so a backend silently skips variants on chromosomes it
        does not hold (the partition skip rule in
        :func:`repro.variants.overlay.validate_haplotypes`) and the
        union of partition events is exactly the single-server event
        set.  Events re-sort through the shared
        :func:`~repro.variants.overlay.sort_event_rows`; counters sum
        (each partition scopes them to its own chromosomes); the
        response body rebuilds through the shared
        :func:`~repro.variants.overlay.variant_payload` — which is
        what keeps routed variant responses byte-identical to a
        single server's.
        """
        with _bad_request():
            queries = _decode_queries(request.get("queries"))
            haplotypes = decode_haplotypes(request.get("haplotypes"))
            allowed = _decode_chromosomes(request.get("chromosomes"))
        groups, rank = self._routing()
        order = [c for c, _ in sorted(rank.items(),
                                      key=lambda item: item[1])]
        # A chromosome no partition holds would be skipped *silently*
        # by every backend (each sees a filter excluding it) — but a
        # single unfiltered server errors on it.  Pre-validate here so
        # the routed tier keeps the single-server contract.
        covered: Set[str] = set()
        for group in groups:
            covered.update(group.chromosomes)
        for haplotype in haplotypes:
            for variant in haplotype.variants:
                if variant.chrom in covered:
                    continue
                if allowed is not None and \
                        variant.chrom not in allowed:
                    continue
                raise RequestError(
                    "bad-request", f"variant {variant.describe()} "
                                   f"names chromosome "
                                   f"{variant.chrom!r}, which no "
                                   f"partition holds")
        plans = _plan(groups, allowed)

        def _validate(response: Dict[str, Any]) -> Optional[str]:
            if not isinstance(response.get("events"), list) or \
                    not isinstance(response.get("reference_hits"),
                                   list) or \
                    len(response["reference_hits"]) != len(queries):
                return "sent a malformed variant response"
            return None

        with tracing.span("route_variant", cat="router",
                          haplotypes=len(haplotypes),
                          partitions=len(plans)):
            results = await _gather(
                self._sub_request(group, dict(request, chromosomes=chroms),
                                  validate=_validate)
                for group, chroms in plans)
        events: List[List[Any]] = []
        reference_hits = [0] * len(queries)
        patched_chunks = 0
        reference_chunks = 0
        if results:
            pattern = results[0]["pattern"]
        else:
            # Filter excluded every partition: fall back to the
            # fleet's probed pattern so the echo stays meaningful.
            probed = {b.pattern for b in self._backends
                      if b.alive and b.pattern}
            pattern = probed.pop() if len(probed) == 1 else ""
        for response in results:
            events.extend(response["events"])
            for qi, count in enumerate(response["reference_hits"]):
                reference_hits[qi] += int(count)
            patched_chunks += int(response.get("patched_chunks", 0))
            reference_chunks += int(
                response.get("reference_chunks", 0))
        sort_event_rows(events, [h.name for h in haplotypes],
                        [q.sequence for q in queries], order)
        self._requests += 1
        return {"ok": True,
                **variant_payload(
                    pattern, len(queries),
                    [h.to_payload() for h in haplotypes], events,
                    reference_hits, patched_chunks,
                    reference_chunks)}

    async def _handle_enzymes(self, request: Dict[str, Any]
                              ) -> Dict[str, Any]:
        """The ``enzymes`` op, routed: each partition counts its own
        chromosomes, the router sums ``sites`` and ``chunks`` per
        enzyme.

        A routed entry carries no ``fingerprint``: no backend's index
        covers the whole genome, and ``topology`` lists each backend's.
        """
        with _bad_request():
            allowed = _decode_chromosomes(request.get("chromosomes"))
        groups, _ = self._routing()
        plans = (_plan(groups, allowed)
                 or [(groups[0], request["chromosomes"])])
        results = await _gather(
            self._sub_request(
                group, dict(request, chromosomes=chroms),
                validate=lambda r: (
                    None if isinstance(r.get("enzymes"), list)
                    else "sent a malformed enzymes response"))
            for group, chroms in plans)
        merged: Dict[str, Dict[str, Any]] = {}
        try:
            hosted = [[e["name"] for e in r["enzymes"]] for r in results]
            if any(names != hosted[0] for names in hosted):
                raise ValueError(f"backends host different enzymes: "
                                 f"{hosted}")
            for response in results:
                for entry in response["enzymes"]:
                    total = merged.setdefault(
                        entry["name"], dict(entry, sites=0, chunks=0))
                    total.pop("fingerprint", None)
                    total["sites"] += int(entry["sites"])
                    total["chunks"] += int(entry["chunks"])
        except (KeyError, TypeError, ValueError) as exc:
            raise RequestError("internal",
                               f"malformed enzymes response: "
                               f"{type(exc).__name__}: {exc}") from None
        return {"ok": True,
                "default_pattern": results[0].get("default_pattern"),
                "enzymes": list(merged.values())}

    def _topology(self) -> Dict[str, Any]:
        return {
            "epoch": self._routing_epoch,
            "chromosome_order": [
                c for c, _ in sorted(self._rank.items(),
                                     key=lambda item: item[1])],
            "partitions": [
                {"chromosomes": list(g.chromosomes),
                 "backends": [b.label for b in g.backends]}
                for g in self._groups],
            "uncovered": list(self._uncovered),
            "backends": [b.snapshot() for b in self._backends],
        }

    def _stats(self) -> Dict[str, Any]:
        lat = sorted(self._sub_latencies_ms)
        return {
            "requests": self._requests,
            "retries": self._retries,
            "hedges": {
                "launched": self._hedges_launched,
                "won": self._hedges_won,
                "lost": self._hedges_lost,
            },
            "routing_epoch": self._routing_epoch,
            "partitions": len(self._groups),
            "backends_alive": sum(1 for b in self._backends
                                  if b.alive),
            "backends_total": len(self._backends),
            "subrequest_latency_ms": {
                "count": len(lat),
                "p50": percentile(lat, 0.50),
                "p95": percentile(lat, 0.95),
                "p99": percentile(lat, 0.99),
            },
            "hedge_delay_s": self._hedge_delay_s(),
        }

    async def _handle_request(self, request: Dict[str, Any]
                              ) -> Dict[str, Any]:
        op = request.get("op")
        if op == "query":
            return await self._handle_query(request)
        if op == "design":
            return await self._handle_design(request)
        if op == "variant":
            return await self._handle_variant(request)
        if op == "enzymes":
            return await self._handle_enzymes(request)
        if op == "health":
            alive = sum(1 for b in self._backends if b.alive)
            degraded = (alive < len(self._backends)
                        or bool(self._uncovered))
            patterns = {b.pattern for b in self._backends
                        if b.alive and b.pattern}
            response: Dict[str, Any] = {
                "ok": True,
                "status": ("draining" if self._draining else
                           "degraded" if degraded else "serving"),
                "role": "router",
                "backends_alive": alive,
                "backends_total": len(self._backends),
                "uncovered": list(self._uncovered),
            }
            if len(patterns) == 1:
                response["pattern"] = patterns.pop()
            if self._rank:
                response["chromosomes"] = [
                    c for c, _ in sorted(self._rank.items(),
                                         key=lambda item: item[1])
                    if c not in self._uncovered]
            return response
        if op == "stats":
            return {"ok": True, "stats": self._stats()}
        if op == "topology":
            return {"ok": True, "topology": self._topology()}
        raise RequestError(
            "unknown-op", f"unknown op {op!r}; expected query, "
                          f"design, variant, enzymes, stats, health "
                          f"or topology")

    # -- lifecycle hooks -----------------------------------------------

    async def _on_start(self) -> None:
        """Discover the fleet before listening, so a caller that waited
        for readiness sees a populated routing table."""
        await asyncio.gather(*(self._probe(b) for b in self._backends),
                             return_exceptions=True)
        self._rebuild_routing()
        self._probe_task = asyncio.ensure_future(self._probe_loop())

    async def _on_stop(self) -> None:
        if self._probe_task is not None:
            self._probe_task.cancel()
            await asyncio.gather(self._probe_task,
                                 return_exceptions=True)
            self._probe_task = None
        self._close_pools()


# ---------------------------------------------------------------------------
# Smoke entry point: `python -m repro.service.router --smoke`
# ---------------------------------------------------------------------------

def _wait_ready_file(path: str, timeout_s: float = 60.0
                     ) -> Tuple[str, int]:
    import os
    deadline = time.perf_counter() + timeout_s
    while time.perf_counter() < deadline:
        if os.path.exists(path):
            with open(path, encoding="ascii") as handle:
                text = handle.read().strip()
            if text:
                host, port_text = text.split()
                return host, int(port_text)
        time.sleep(0.05)
    raise RuntimeError(f"ready file {path!r} not written in "
                       f"{timeout_s:g}s")


def _smoke(duration_s: float = 6.0, backends: int = 3) -> int:
    """3-backend subprocess fleet: crash one, drain the rest.

    Asserts byte-identity of every routed response against an
    in-process single-server reference, zero failed client requests
    across the induced SIGKILL, and zero leaked processes/ready
    files at the end.  A ``design`` and a ``variant`` request (two
    SNVs far apart on the first chromosome), and a ``query`` and a
    ``design`` naming the ``Alt`` enzyme that every backend and the
    reference host from one ``--enzyme-config``, are checked just
    before and just after the SIGKILL.
    """
    import os
    import signal
    import subprocess
    import sys
    import tempfile

    from ..core.config import Query
    from ..enzymes import load_enzymes
    from ..genome.synthetic import synthetic_assembly
    from .client import ServiceClient
    from .index import GenomeSiteIndex
    from .server import OffTargetServer

    pattern = "NNNNNNRG"
    scale, seed = 0.00005, 7
    assembly = synthetic_assembly("hg19", scale=scale, seed=seed)
    order = [c.name for c in assembly.chromosomes]
    parts = partition_chromosomes(assembly, backends)
    held = replica_plan(parts, replication=2)
    queries = [Query("GACGTCNN", 3), Query("TTACGANN", 2)]

    procs: List[subprocess.Popen] = []
    ready_files: List[str] = []
    failures: List[str] = []
    reference = router_handle = None
    try:
        with tempfile.TemporaryDirectory() as tmp:
            enzyme_config = os.path.join(tmp, "enzymes.toml")
            with open(enzyme_config, "w", encoding="ascii") as handle:
                handle.write('[[enzymes]]\nname = "Alt"\n'
                             'guide_length = 6\npam = "GG"\n')
            # In-process single-server reference for byte-identity,
            # hosting the backends' enzyme.
            reference = OffTargetServer(
                GenomeSiteIndex.build(assembly, pattern),
                max_wait_ms=1.0,
                enzymes=[(enzyme, GenomeSiteIndex.build(assembly,
                                                        enzyme.pattern))
                         for enzyme in load_enzymes(enzyme_config)]
            ).start_background()
            for i in range(backends):
                ready = os.path.join(tmp, f"backend-{i}.ready")
                ready_files.append(ready)
                procs.append(subprocess.Popen(
                    [sys.executable, "-m", "repro.cli", "serve",
                     "--synthetic", "hg19", "--scale", str(scale),
                     "--seed", str(seed),
                     "--chromosomes", ",".join(held[i]),
                     "--pattern", pattern,
                     "--enzyme-config", enzyme_config,
                     "--max-wait-ms", "1.0",
                     "--drain-s", "5.0",
                     "--ready-file", ready]))
            addrs = ["%s:%d" % _wait_ready_file(f)
                     for f in ready_files]
            print(f"# fleet up: {addrs}")
            router = OffTargetRouter(addrs, chromosome_order=order,
                                     probe_interval_s=0.2,
                                     hedge_ms=200.0)
            router_handle = router.start_background()

            first = assembly[order[0]].sequence
            snvs = []
            for lo in (len(first) // 5, len(first) * 4 // 5):
                at = next(p for p in range(lo, len(first))
                          if first[p] in b"ACGT")
                ref = chr(first[at])
                snvs.append([order[0], at, ref, "A" if ref != "A"
                             else "C"])
            raw_queries = [[q.sequence, q.max_mismatches]
                           for q in queries]
            design = {"op": "design", "chrom": order[0], "start": 0,
                      "end": 400, "mismatches": 2, "top": 5,
                      "estimator": "cfd"}
            checked_ops = {
                "design": design,
                "variant": {"op": "variant", "queries": raw_queries,
                            "haplotypes": [{"name": "edited",
                                            "variants": snvs}]},
                "Alt query": {"op": "query", "queries": raw_queries,
                              "enzyme": "Alt"},
                "Alt design": dict(design, enzyme="Alt")}
            op_expected: Dict[str, str] = {}
            with ServiceClient(reference.host,
                               reference.port) as ref_client:
                expected = ref_client._call({
                    "op": "query", "queries": raw_queries})["hits"]
                for op, request in checked_ops.items():
                    body = ref_client._call(dict(request))
                    body.pop("id", None)
                    op_expected[op] = json.dumps(body)

            client = ServiceClient(router_handle.host,
                                   router_handle.port, retries=4)
            requests = 0
            mismatches = 0
            op_checks = {op: 0 for op in checked_ops}
            op_mismatches = {op: 0 for op in checked_ops}

            def check_ops() -> None:
                for op, request in checked_ops.items():
                    routed = client._call(dict(request))
                    routed.pop("id", None)
                    op_checks[op] += 1
                    if json.dumps(routed) != op_expected[op]:
                        op_mismatches[op] += 1

            kill_at = time.perf_counter() + duration_s * 0.3
            stop_at = time.perf_counter() + duration_s
            killed = False
            while time.perf_counter() < stop_at:
                got = client._call({
                    "op": "query", "queries": raw_queries})["hits"]
                requests += 1
                if got != expected:
                    mismatches += 1
                if not killed and time.perf_counter() >= kill_at:
                    check_ops()  # the whole fleet up
                    procs[0].send_signal(signal.SIGKILL)
                    killed = True
                    print("# SIGKILLed backend 0")
                    check_ops()  # before the router has ejected it
            stats = client._call({"op": "stats"})["stats"]
            client.close()
            if requests == 0:
                failures.append("no requests completed")
            if mismatches:
                failures.append(
                    f"{mismatches}/{requests} responses diverged "
                    f"from the single-server reference")
            for op, checks in op_checks.items():
                if checks < 2:
                    failures.append(f"{op} was not checked before "
                                    f"and after the SIGKILL")
                if op_mismatches[op]:
                    failures.append(
                        f"{op_mismatches[op]}/{checks} {op} responses "
                        f"diverged from the single-server reference")
            if not killed:
                failures.append("backend crash was never induced")
            if stats["backends_alive"] >= backends:
                failures.append(
                    "SIGKILLed backend was never ejected")
            print(json.dumps({"requests": requests,
                              "reconnects": client.reconnects,
                              "stats": stats}, indent=2,
                             sort_keys=True))

            # Graceful SIGTERM drain of the survivors.
            procs[0].wait(timeout=10.0)
            for proc in procs[1:]:
                proc.send_signal(signal.SIGTERM)
            for i, proc in enumerate(procs[1:], start=1):
                code = proc.wait(timeout=15.0)
                if code != 0:
                    failures.append(
                        f"backend {i} exited {code} on SIGTERM")
            # Drained servers must have removed their ready files;
            # the SIGKILLed one cannot have (that is the point of the
            # stale-ready-file refusal in `serve`).
            for i, ready in enumerate(ready_files):
                if i == 0:
                    continue
                if os.path.exists(ready):
                    failures.append(
                        f"backend {i} leaked ready file {ready}")
    finally:
        for handle in (router_handle, reference):
            if handle is not None:
                handle.stop()
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)
    leaked = [p for p in procs if p.poll() is None]
    if leaked:
        failures.append(f"{len(leaked)} backend process(es) leaked")
    if failures:
        for failure in failures:
            print(f"smoke FAILED: {failure}")
        return 1
    checked = ", ".join(f"{n} {op}" for op, n in op_checks.items())
    print(f"smoke OK: {requests} routed requests and {checked} "
          f"requests byte-identical across a SIGKILL")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.router",
        description="Routing-tier smoke test: subprocess fleet, "
                    "induced crash, SIGTERM drain.")
    parser.add_argument("--smoke", action="store_true",
                        help="run the 3-backend fleet smoke")
    parser.add_argument("--duration", type=float, default=6.0)
    parser.add_argument("--backends", type=int, default=3)
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.error("only --smoke is supported; use `repro route` "
                     "to run a router")
    return _smoke(args.duration, args.backends)


if __name__ == "__main__":
    raise SystemExit(main())
