"""Asyncio JSON-lines TCP front end over the batch scheduler.

Stdlib only: one :func:`asyncio.start_server` accept loop, one JSON
object per line in each direction.  Requests carry an ``op`` —

* ``query``: ``{"op": "query", "queries": [["GACGTCNN", 3], ...],
  "deadline_s": 0.5}`` → per-query hit lists; an optional
  ``"chromosomes": [...]`` list restricts hits to those chromosomes
  (order-preserving — the routing tier uses this so replicated
  backends can each serve a disjoint partition of a request);
* ``design``: ``{"op": "design", "chrom": "chrA", "start": 0,
  "end": 2000, "mismatches": 3, "top": 5, "estimator": "mit"}`` →
  ranked guide-design reports for the region; every enumerated
  candidate rides one scheduler submission (one batched comparer
  pass — see :mod:`repro.design`);
* ``enumerate``: the design op's first stage alone — candidate
  protospacers and their query sequences for a region (the routing
  tier uses this to enumerate on a backend that holds the target
  chromosome);
* ``variant``: guide × {reference + K haplotypes} — per-haplotype
  gained/lost off-targets with causal-variant provenance (see
  :mod:`repro.variants`): only variant-touched chunks are re-scanned,
  and the patches ride the resident chunks through one batched
  comparer pass;
* ``enzymes``: the declarative Cas enzyme registry this server hosts;
  ``query``/``design``/``enumerate``/``variant`` take an optional
  ``"enzyme": name`` field to run against that enzyme's own resident
  index instead of the default;
* ``stats``: scheduler counters, queue depth, batch-size histogram and
  latency percentiles (see :meth:`BatchScheduler.stats`);
* ``health``: liveness plus index identity (genome, pattern, sites,
  chromosome list, manifest fingerprint);
* ``reload``: zero-downtime index rollover — a configured ``reloader``
  callable builds/loads a fresh index off-loop, optional canary
  queries warm it, then :meth:`BatchScheduler.swap_index` swaps it in
  between batches and the old index is drained and released.  Any
  failure (reloader error, pattern mismatch, canary failure) leaves
  the old index serving untouched.

Responses echo the request's ``id`` (if any) and carry ``ok``; failures
carry a machine-readable ``error`` code (``bad-json``, ``bad-request``,
``unknown-op``, ``overloaded``, ``deadline``, ``closed``, ``internal``,
``no-reloader``, ``reload-failed``) so clients can distinguish
back-off-and-retry from bugs.

The accept loop never blocks on the comparer: each connection awaits
its scheduler future via :func:`asyncio.wrap_future`, so slow batches
only delay their own requesters while other connections keep being
served.  :meth:`OffTargetServer.start_background` runs the whole server
in a daemon thread with its own event loop — the shape the tests and
the load generator use.

Two robustness hooks serve the routing tier:

* ``request_fault_plan`` applies :mod:`repro.observability.faults`
  plans at the *request* level (index = per-server query ordinal):
  ``stall`` sleeps on the event loop (a slow backend), ``disconnect``
  drops the connection without responding (half-open), ``crash``
  terminates the process (a dead backend).
* SIGTERM (or :meth:`ServerHandle.drain`) triggers a graceful drain:
  stop accepting, finish requests already admitted within the
  ``drain_s`` budget, remove the ready file, exit 0.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import (Any, Callable, Dict, FrozenSet, List, Optional,
                    Sequence, Tuple)

from ..core.config import Query
from ..core.records import OffTargetHit
from ..design.ranking import (decode_design_spec, design_payload,
                              enumerate_for_design, enumerate_payload,
                              rank_candidates, scoring_guide_length)
from ..design.estimators import get_estimator
from ..enzymes import CasEnzyme
from ..observability import faults, tracing
from ..variants.model import VariantError, decode_haplotypes
from ..variants.overlay import search_variants
from .index import GenomeSiteIndex
from .scheduler import (BatchScheduler, DeadlineExceeded,
                        SchedulerClosed, ServiceOverloaded)

#: Refuse absurd single lines before json.loads sees them.
MAX_LINE_BYTES = 1 << 20

#: Sentinel returned by the fault applier when the connection should
#: be dropped without a response (a half-open connection).
_DROP_CONNECTION: Dict[str, Any] = {"_drop": True}


def _encode_hits(hits: List[OffTargetHit]) -> List[List[Any]]:
    return [[h.query, h.chrom, int(h.position), h.site, h.strand,
             int(h.mismatches)] for h in hits]


def _decode_queries(raw: Any) -> List[Query]:
    if not isinstance(raw, list) or not raw:
        raise ValueError("'queries' must be a non-empty list of "
                         "[sequence, max_mismatches] pairs")
    queries = []
    for item in raw:
        if (not isinstance(item, (list, tuple)) or len(item) != 2
                or not isinstance(item[0], str)
                or isinstance(item[1], bool)
                or not isinstance(item[1], int)):
            raise ValueError(
                f"bad query entry {item!r}: expected "
                f"[sequence, max_mismatches]")
        if item[1] < 0:
            raise ValueError(
                f"max_mismatches must be >= 0, got {item[1]}")
        queries.append(Query(sequence=item[0].upper(),
                             max_mismatches=item[1]))
    return queries


def _decode_deadline(raw: Any) -> Optional[float]:
    """Validate an optional ``deadline_s``: a number of seconds."""
    if raw is not None and (isinstance(raw, bool)
                            or not isinstance(raw, (int, float))):
        raise ValueError(f"deadline_s must be a number, got {raw!r}")
    return raw


async def _submit_and_wait(scheduler: BatchScheduler,
                           queries: List[Query],
                           deadline_s: Optional[float],
                           kind: str = "query"
                           ) -> Tuple[Optional[List[List[OffTargetHit]]],
                                      Optional[Dict[str, Any]]]:
    """Submit one request and await its per-query hit lists.

    Returns ``(results, None)``, or ``(None, error response)`` when the
    scheduler refuses the request (``bad-request``, ``overloaded``,
    ``deadline`` when it expired before submit, ``closed``) or its
    batch fails (``deadline``, ``closed``, ``internal``).
    """
    def failure(code: str, exc: BaseException) -> Dict[str, Any]:
        return {"ok": False, "error": code, "message": str(exc)}

    try:
        future = scheduler.submit(queries, deadline_s=deadline_s,
                                  kind=kind)
    except ValueError as exc:
        return None, failure("bad-request", exc)
    except ServiceOverloaded as exc:
        return None, failure("overloaded", exc)
    except DeadlineExceeded as exc:
        return None, failure("deadline", exc)
    except SchedulerClosed as exc:
        return None, failure("closed", exc)
    try:
        return await asyncio.wrap_future(future), None
    except DeadlineExceeded as exc:
        return None, failure("deadline", exc)
    except SchedulerClosed as exc:
        return None, failure("closed", exc)
    except Exception as exc:  # noqa: BLE001 - report, keep serving
        return None, {"ok": False, "error": "internal",
                      "message": f"{type(exc).__name__}: {exc}"}


def _decode_chromosomes(raw: Any) -> Optional[FrozenSet[str]]:
    """Validate an optional per-request chromosome filter."""
    if raw is None:
        return None
    if (not isinstance(raw, list) or not raw
            or not all(isinstance(c, str) for c in raw)):
        raise ValueError("'chromosomes' must be a non-empty list of "
                         "chromosome names")
    return frozenset(raw)


@dataclass
class ServerHandle:
    """A running background server: address plus a way to stop it."""

    host: str
    port: int
    _server: "OffTargetServer"
    _thread: threading.Thread
    _loop: asyncio.AbstractEventLoop

    def stop(self) -> None:
        loop, thread = self._loop, self._thread
        if thread.is_alive():
            try:
                loop.call_soon_threadsafe(self._server._request_stop)
            except RuntimeError:
                pass  # loop already closed: the thread is finishing
            thread.join(timeout=10.0)
        self._server.close()

    def drain(self, timeout_s: float = 15.0) -> None:
        """Gracefully drain: stop accepting, finish admitted requests.

        The in-process analog of sending the server SIGTERM; used by
        tests and the router smoke to exercise the drain path without
        a subprocess.
        """
        loop, thread = self._loop, self._thread
        if thread.is_alive():
            try:
                loop.call_soon_threadsafe(self._server._begin_drain)
            except RuntimeError:
                pass
            thread.join(timeout=timeout_s)
        self._server.close()


class OffTargetServer:
    """JSON-lines TCP server over one resident :class:`GenomeSiteIndex`."""

    def __init__(self, index: GenomeSiteIndex, host: str = "127.0.0.1",
                 port: int = 0, max_batch: int = 8,
                 max_wait_ms: float = 5.0, max_queue: int = 64,
                 reloader: Optional[Callable[[], Any]] = None,
                 request_fault_plan: Optional[str] = None,
                 drain_s: float = 5.0,
                 enzymes: Optional[Sequence[
                     Tuple[CasEnzyme, GenomeSiteIndex]]] = None):
        self.index = index
        self.host = host
        self.port = port  # 0 = ephemeral; bound port set once listening
        self.scheduler = BatchScheduler(index, max_batch=max_batch,
                                        max_wait_ms=max_wait_ms,
                                        max_queue=max_queue)
        self._stop_event: Optional[asyncio.Event] = None
        self._closed = False
        #: Builds/loads a replacement index for the ``reload`` op.
        self._reloader = reloader
        self._reload_lock = threading.Lock()
        self._reloads = 0
        #: Request-level fault plan (indices are query ordinals).
        self._request_injector = (
            faults.FaultInjector(faults.parse_fault_plan(
                request_fault_plan))
            if request_fault_plan else None)
        self._request_seq = 0
        #: Graceful-shutdown budget for in-flight requests (seconds).
        self.drain_s = float(drain_s)
        self._draining = False
        self._inflight = 0
        #: Alternate enzymes: name -> (enzyme, index, scheduler).
        #: Requests naming no enzyme keep hitting the default index.
        self._enzymes: Dict[str, Tuple[CasEnzyme, GenomeSiteIndex,
                                       BatchScheduler]] = {}
        for enzyme, enzyme_index in (enzymes or ()):
            if enzyme.name in self._enzymes:
                raise ValueError(
                    f"duplicate enzyme {enzyme.name!r}")
            if enzyme_index.pattern != enzyme.pattern:
                raise ValueError(
                    f"enzyme {enzyme.name!r} declares pattern "
                    f"{enzyme.pattern!r} but its index was built for "
                    f"{enzyme_index.pattern!r}")
            self._enzymes[enzyme.name] = (
                enzyme, enzyme_index,
                BatchScheduler(enzyme_index, max_batch=max_batch,
                               max_wait_ms=max_wait_ms,
                               max_queue=max_queue))
        #: Runs every variant search off-loop on one thread.  A fixed
        #: thread keeps the searches' allocations in one malloc arena;
        #: a pool that sometimes grew a second thread made peak memory
        #: differ from run to run.
        self._variant_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="variant")

    # -- request handling ----------------------------------------------

    async def _handle_request(self, request: Dict[str, Any]
                              ) -> Optional[Dict[str, Any]]:
        op = request.get("op")
        if op == "health":
            response = {"ok": True,
                        "status": ("draining" if self._draining
                                   else "serving"),
                        "genome": self.index.assembly.name,
                        "pattern": self.index.pattern,
                        "chunks": self.index.chunk_count,
                        "sites": self.index.site_count,
                        "chromosomes": list(self.index.chromosomes),
                        "fingerprint": self.index.fingerprint()}
            if self._enzymes:
                response["enzymes"] = sorted(self._enzymes)
            return response
        if op == "stats":
            return {"ok": True, "stats": self.scheduler.stats()}
        if op == "reload":
            return await self._handle_reload(request)
        if op == "enzymes":
            return self._handle_enzymes()
        if op == "variant":
            return await self._handle_variant(request)
        if op == "enumerate":
            return self._handle_enumerate(request)
        if op == "design":
            return await self._handle_design(request)
        if op == "query":
            if self._request_injector is not None:
                outcome = await self._apply_request_fault()
                if outcome is _DROP_CONNECTION:
                    return None  # half-open: close without responding
                if outcome is not None:
                    return outcome
            try:
                _, _, scheduler = self._resolve_enzyme(request)
                queries = _decode_queries(request.get("queries"))
                allowed = _decode_chromosomes(
                    request.get("chromosomes"))
                deadline = _decode_deadline(request.get("deadline_s"))
            except ValueError as exc:
                return {"ok": False, "error": "bad-request",
                        "message": str(exc)}
            results, error = await _submit_and_wait(scheduler, queries,
                                                    deadline)
            if error is not None:
                return error
            if allowed is not None:
                # Order-preserving subsequence: hits of the allowed
                # chromosomes keep their single-server relative order,
                # which is what lets a router reassemble partitions
                # byte-identically.
                results = [[hit for hit in per if hit.chrom in allowed]
                           for per in results]
            return {"ok": True,
                    "hits": [_encode_hits(per) for per in results]}
        return {"ok": False, "error": "unknown-op",
                "message": f"unknown op {op!r}; expected query, design, "
                           f"enumerate, variant, enzymes, stats, "
                           f"health or reload"}

    # -- enzyme registry ------------------------------------------------

    def _resolve_enzyme(self, request: Dict[str, Any]
                        ) -> Tuple[Optional[CasEnzyme], GenomeSiteIndex,
                                   BatchScheduler]:
        """(enzyme, index, scheduler) for the request's ``enzyme`` field.

        Absent/None selects the default index; unknown names raise
        ValueError, which every op maps to ``bad-request``.
        """
        name = request.get("enzyme")
        if name is None:
            return None, self.index, self.scheduler
        if not isinstance(name, str):
            raise ValueError(
                f"'enzyme' must be a string, got {name!r}")
        entry = self._enzymes.get(name)
        if entry is None:
            known = ", ".join(sorted(self._enzymes)) or "none"
            raise ValueError(
                f"unknown enzyme {name!r}; this server hosts: {known}")
        return entry

    def _handle_enzymes(self) -> Dict[str, Any]:
        """Declarative registry listing — the ``enzymes`` op."""
        entries = []
        for name in sorted(self._enzymes):
            enzyme, enzyme_index, _ = self._enzymes[name]
            entries.append({**enzyme.to_payload(),
                            "sites": enzyme_index.site_count,
                            "chunks": enzyme_index.chunk_count,
                            "fingerprint": enzyme_index.fingerprint()})
        return {"ok": True, "default_pattern": self.index.pattern,
                "enzymes": entries}

    # -- variant-aware search -------------------------------------------

    async def _handle_variant(self, request: Dict[str, Any]
                              ) -> Dict[str, Any]:
        """Per-haplotype gained/lost off-targets — the ``variant`` op.

        Patch scans plus the single batched comparer pass run on the
        server's one variant thread, so the accept loop keeps serving
        other connections and variant searches run one at a time.
        """
        try:
            _, _, scheduler = self._resolve_enzyme(request)
            queries = _decode_queries(request.get("queries"))
            haplotypes = decode_haplotypes(request.get("haplotypes"))
            allowed = _decode_chromosomes(request.get("chromosomes"))
        except (VariantError, ValueError) as exc:
            return {"ok": False, "error": "bad-request",
                    "message": str(exc)}
        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(
                self._variant_executor, self._variant_sync, scheduler,
                queries, haplotypes, allowed)
        except (VariantError, ValueError) as exc:
            return {"ok": False, "error": "bad-request",
                    "message": str(exc)}
        except SchedulerClosed as exc:
            return {"ok": False, "error": "closed",
                    "message": str(exc)}
        except Exception as exc:  # noqa: BLE001 - keep serving
            return {"ok": False, "error": "internal",
                    "message": f"{type(exc).__name__}: {exc}"}
        scheduler.count_request("variant")
        return {"ok": True, **result.payload()}

    def _variant_sync(self, scheduler: BatchScheduler,
                      queries: List[Query], haplotypes: Sequence[Any],
                      allowed: Optional[FrozenSet[str]]) -> Any:
        # scheduler.index is the live (possibly reload-swapped) index.
        return search_variants(scheduler.index, queries, haplotypes,
                               chromosomes=allowed)

    # -- guide design ---------------------------------------------------

    def _handle_enumerate(self, request: Dict[str, Any]
                          ) -> Dict[str, Any]:
        """Candidate protospacers for a region, on the wire.

        Pure and synchronous (no comparer work): the routing tier
        calls this on a backend that holds the target chromosome,
        then fans the returned queries out like any query batch.
        """
        try:
            enzyme, index, _ = self._resolve_enzyme(request)
            if enzyme is not None and not enzyme.designable:
                raise ValueError(
                    f"enzyme {enzyme.name!r} has a 5prime PAM; guide "
                    f"design requires a 3prime-PAM pattern")
            spec = decode_design_spec(request)
            anatomy, candidates, queries = enumerate_for_design(
                index.assembly, index.pattern, spec)
        except ValueError as exc:
            return {"ok": False, "error": "bad-request",
                    "message": str(exc)}
        return {"ok": True,
                **enumerate_payload(anatomy, candidates, queries)}

    async def _handle_design(self, request: Dict[str, Any]
                             ) -> Dict[str, Any]:
        """Enumerate, scan once, rank — the ``design`` op.

        All unique candidate queries ride ONE scheduler submission,
        i.e. one batched comparer pass over the resident index — the
        same single-scan invariant :func:`repro.design.design_guides`
        keeps in-process.
        """
        try:
            enzyme, index, scheduler = self._resolve_enzyme(request)
            if enzyme is not None and not enzyme.designable:
                raise ValueError(
                    f"enzyme {enzyme.name!r} has a 5prime PAM; guide "
                    f"design requires a 3prime-PAM pattern")
            spec = decode_design_spec(request)
            deadline = _decode_deadline(request.get("deadline_s"))
            anatomy, candidates, queries = enumerate_for_design(
                index.assembly, index.pattern, spec)
            estimator = get_estimator(spec.estimator,
                                      scoring_guide_length(anatomy))
        except ValueError as exc:
            return {"ok": False, "error": "bad-request",
                    "message": str(exc)}
        hits_by_query: Dict[str, List[OffTargetHit]] = {}
        if queries:
            results, error = await _submit_and_wait(
                scheduler,
                [Query(sequence=query,
                       max_mismatches=spec.max_mismatches)
                 for query in queries],
                deadline, kind="design")
            if error is not None:
                return error
            hits_by_query = dict(zip(queries, results))
        reports = rank_candidates(candidates, hits_by_query, estimator,
                                  spec.top_n)
        return {"ok": True,
                **design_payload(anatomy, estimator, candidates,
                                 queries, reports)}

    async def _apply_request_fault(self) -> Optional[Dict[str, Any]]:
        """Fire the next request-level fault, if the plan names one.

        Returns None (no fault, or a stall already applied), an error
        response (``raise``), or :data:`_DROP_CONNECTION`
        (``disconnect``).  ``crash`` does not return.
        """
        ordinal = self._request_seq
        self._request_seq += 1
        spec = self._request_injector.fire(ordinal)
        if spec is None:
            return None
        tracing.instant("request_fault", cat="fault", request=ordinal,
                        kind=spec.kind)
        if spec.kind == "crash":
            os._exit(1)
        if spec.kind == "disconnect":
            return _DROP_CONNECTION
        if spec.kind == "stall":
            await asyncio.sleep(spec.stall_s)
            return None
        return {"ok": False, "error": "internal",
                "message": f"injected fault on request {ordinal}"}

    async def _handle_reload(self, request: Dict[str, Any]
                             ) -> Dict[str, Any]:
        if self._reloader is None:
            return {"ok": False, "error": "no-reloader",
                    "message": "this server was started without a "
                               "reloader; it cannot roll its index"}
        raw = request.get("canaries")
        try:
            canaries = (_decode_queries(raw) if raw is not None
                        else [])
        except ValueError as exc:
            return {"ok": False, "error": "bad-request",
                    "message": str(exc)}
        loop = asyncio.get_running_loop()
        try:
            # Build + warm + swap off-loop: other connections keep
            # being served by the old index the whole time.
            summary = await loop.run_in_executor(
                None, self._reload_sync, canaries)
        except Exception as exc:  # noqa: BLE001 - old index kept
            tracing.instant("index_reload_failed", cat="service",
                            error=type(exc).__name__)
            return {"ok": False, "error": "reload-failed",
                    "message": f"{type(exc).__name__}: {exc}"}
        return {"ok": True, **summary}

    def _reload_sync(self, canaries: Sequence[Query]
                     ) -> Dict[str, Any]:
        """Build, canary-warm and atomically swap a fresh index.

        Runs in an executor thread.  Any exception propagates to
        :meth:`_handle_reload` *before* the swap, so a failed reload
        never interrupts serving on the old index.
        """
        with self._reload_lock:
            old = self.scheduler.index
            with tracing.span("index_reload", cat="service"):
                new = self._reloader()
                if new is None:
                    raise RuntimeError("reloader returned no index")
                plen = new.compiled_pattern.plen
                for query in canaries:
                    if len(query.sequence) != plen:
                        raise ValueError(
                            f"canary {query.sequence!r} has length "
                            f"{len(query.sequence)}; the new index "
                            f"requires {plen}")
                if canaries:
                    # Canary warm: run the new index end to end before
                    # it can see real traffic.
                    new.query_batch(list(canaries))
                old_fp = old.fingerprint()
                new_fp = new.fingerprint()
                drained = True
                try:
                    self.scheduler.swap_index(new)
                except TimeoutError:
                    # Swap took effect; the old index is still running
                    # one last batch.
                    drained = False
                self.index = new
                self._reloads += 1
            tracing.instant("index_reloaded", cat="service",
                            fingerprint=new_fp, changed=new_fp != old_fp)
            return {"swapped": True,
                    "fingerprint": new_fp,
                    "previous_fingerprint": old_fp,
                    "changed": new_fp != old_fp,
                    "sites": new.site_count,
                    "canaries": len(canaries),
                    "drained": drained,
                    "reloads": self._reloads}

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                self._inflight += 1
                try:
                    try:
                        request = json.loads(line)
                        if not isinstance(request, dict):
                            raise ValueError(
                                "request must be a JSON object")
                    except (ValueError, json.JSONDecodeError) as exc:
                        response: Optional[Dict[str, Any]] = {
                            "ok": False, "error": "bad-json",
                            "message": str(exc)}
                    else:
                        response = await self._handle_request(request)
                        if response is None:
                            # Injected disconnect: drop the connection
                            # without writing anything back.
                            break
                        if "id" in request:
                            response["id"] = request["id"]
                    writer.write(json.dumps(response).encode("ascii",
                                                             "replace")
                                 + b"\n")
                    try:
                        await writer.drain()
                    except ConnectionError:
                        break
                finally:
                    self._inflight -= 1
        except asyncio.CancelledError:
            pass  # server shutdown: drop the connection quietly
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    # -- lifecycle ------------------------------------------------------

    def _request_stop(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()

    def _begin_drain(self) -> None:
        """Graceful shutdown: stop accepting, finish admitted work.

        Called from the event loop (SIGTERM handler or
        :meth:`ServerHandle.drain` via ``call_soon_threadsafe``).
        """
        if not self._draining:
            self._draining = True
            tracing.instant("server_drain_begin", cat="service",
                            inflight=self._inflight)
        self._request_stop()

    async def _serve(self, ready: Optional[Tuple[str, threading.Event,
                                                 List[int]]] = None,
                     duration_s: Optional[float] = None,
                     ready_file: Optional[str] = None) -> None:
        self._stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        signal_installed = False
        try:
            # A supervisor's SIGTERM triggers the graceful drain
            # instead of killing mid-batch.  Installation fails off
            # the main thread (start_background); those callers use
            # ServerHandle.drain instead.
            loop.add_signal_handler(signal.SIGTERM, self._begin_drain)
            signal_installed = True
        except (NotImplementedError, RuntimeError, ValueError):
            pass
        server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port,
            limit=MAX_LINE_BYTES)
        self.port = server.sockets[0].getsockname()[1]
        if ready is not None:
            ready[2].append(self.port)
            ready[1].set()
        if ready_file:
            # Atomic publish: a supervisor polls for the file's
            # existence, so it must never observe the empty window
            # between create and write.
            part = ready_file + ".part"
            with open(part, "w", encoding="ascii") as handle:
                handle.write(f"{self.host} {self.port}\n")
            os.replace(part, ready_file)
        try:
            async with server:
                if duration_s is not None:
                    try:
                        await asyncio.wait_for(self._stop_event.wait(),
                                               timeout=duration_s)
                    except asyncio.TimeoutError:
                        pass
                else:
                    await self._stop_event.wait()
        finally:
            self._stop_event = None
            if signal_installed:
                loop.remove_signal_handler(signal.SIGTERM)
            if self._draining:
                # The listener is closed (async with exited): no new
                # connections.  Give requests already admitted up to
                # drain_s to finish; the scheduler queue drains
                # transitively because each request holds _inflight
                # until its response is written.
                deadline = loop.time() + self.drain_s
                while self._inflight > 0 and loop.time() < deadline:
                    await asyncio.sleep(0.02)
                tracing.instant("server_drained", cat="service",
                                remaining=self._inflight)
            # Cancel connection handlers still blocked in readline so
            # the loop shuts down without pending-task warnings.
            current = asyncio.current_task()
            pending = [task for task in asyncio.all_tasks()
                       if task is not current and not task.done()]
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)

    def run(self, duration_s: Optional[float] = None,
            ready_file: Optional[str] = None) -> None:
        """Serve on the calling thread until stopped.

        ``ready_file`` (if given) is written with ``"host port"`` once
        the socket is listening — so a supervisor (or smoke test) can
        find an ephemeral port — and removed again on shutdown
        (including error paths), so a dead server never keeps
        announcing a port it no longer holds.  ``duration_s`` bounds
        the run, which lets ``repro serve --duration-s 5`` act as its
        own smoke test.
        """
        try:
            asyncio.run(self._serve(duration_s=duration_s,
                                    ready_file=ready_file))
        except KeyboardInterrupt:
            pass
        finally:
            self.close()
            if ready_file:
                try:
                    os.unlink(ready_file)
                except OSError:
                    pass

    def start_background(self) -> ServerHandle:
        """Serve on a daemon thread; returns a handle with the port."""
        ready = threading.Event()
        ports: List[int] = []
        loop = asyncio.new_event_loop()

        def _run() -> None:
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(
                    self._serve(ready=(self.host, ready, ports)))
            finally:
                loop.close()

        thread = threading.Thread(target=_run, name="service-server",
                                  daemon=True)
        thread.start()
        if not ready.wait(timeout=10.0):
            raise RuntimeError("server failed to start within 10 s")
        return ServerHandle(host=self.host, port=ports[0], _server=self,
                            _thread=thread, _loop=loop)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.scheduler.close()
            for _, _, scheduler in self._enzymes.values():
                scheduler.close()
            self._variant_executor.shutdown(wait=False)
