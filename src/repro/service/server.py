"""Asyncio JSON-lines TCP front end over the batch scheduler.

Stdlib only: one :func:`asyncio.start_server` accept loop, one JSON
object per line in each direction.  Requests carry an ``op`` —

* ``query``: ``{"op": "query", "queries": [["GACGTCNN", 3], ...],
  "deadline_s": 0.5}`` → per-query hit lists; an optional
  ``"chromosomes": [...]`` list restricts hits to those chromosomes
  (still in the served hit order of :mod:`repro.core.records` — the
  routing tier uses this so replicated backends can each serve a
  disjoint partition of a request);
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
  :mod:`repro.variants`): only the windows its variants can change
  are re-scanned, and the patches ride the resident index through one
  batched comparer pass;
* ``enzymes``: the declarative Cas enzyme registry this server hosts;
  ``query``/``design``/``enumerate``/``variant`` take an optional
  ``"enzyme": name`` field to run against that enzyme's own resident
  index instead of the default;
* ``stats``: scheduler counters, queue depth, batch-size histogram and
  latency percentiles (see :meth:`BatchScheduler.stats`);
* ``health``: liveness plus index identity (genome, pattern, sites,
  chromosome list, manifest fingerprint).

A server's index is fixed when the server is built: the index is a
function of the genome and the pattern, and both are fixed for the
life of a ``serve`` process.  A new genome or index reaches a fleet by
a supervisor restart (SIGTERM drain, then a new process), which the
router sees as an ejection followed by a readmission.

Responses echo the request's ``id`` (if any) and carry ``ok``; failures
carry a machine-readable ``error`` code (``bad-json``, ``bad-request``,
``unknown-op``, ``overloaded``, ``deadline``, ``closed``, ``internal``)
so clients can distinguish back-off-and-retry from bugs.  Handlers
never build an error answer: they raise :class:`RequestError` (a code
and a message) or let an exception escape, and
:meth:`JsonLinesServer._respond` is the one place an exception becomes
an answer — a scheduler refusal its own code, any other fault
``internal`` — so every request is answered and the connection keeps
serving.

One front end serves both tiers: :class:`JsonLinesServer` holds the
connection loop (line framing, ``bad-json``, ``id`` echo, the
open-connection and in-flight counts) and the process lifecycle
(SIGTERM drain, ready file, background thread), and
:class:`OffTargetServer` here and the routing tier's
:class:`~repro.service.router.OffTargetRouter` supply only their op
handlers.  A request line longer than :data:`MAX_LINE_BYTES` is read
through its newline, dropped and answered ``bad-request``, and a line
too deeply nested for the JSON decoder is answered ``bad-json``; either
way the connection keeps serving.

The accept loop never blocks on the comparer: each connection awaits
its scheduler future via :func:`asyncio.wrap_future`, so slow batches
only delay their own requesters while other connections keep being
served.  :meth:`JsonLinesServer.start_background` runs the whole server
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
import logging
import os
import signal
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (Any, Dict, FrozenSet, Iterator, List, Optional,
                    Sequence, Tuple)

from ..core.config import Query
from ..core.records import OffTargetHit, hits_to_rows
from ..design.ranking import (decode_design_spec, design_payload,
                              enumerate_for_design, enumerate_payload,
                              rank_candidates, scoring_guide_length)
from ..design.estimators import get_estimator
from ..enzymes import CasEnzyme
from ..observability import faults, tracing
from ..variants.model import decode_haplotypes
from ..variants.overlay import search_variants
from .index import GenomeSiteIndex
from .scheduler import (BatchScheduler, DeadlineExceeded,
                        SchedulerClosed, ServiceOverloaded)

#: Refuse absurd single lines before json.loads sees them.
MAX_LINE_BYTES = 1 << 20

#: How long :meth:`JsonLinesServer.start_background` waits for the
#: listener (a router probes its whole fleet first).
START_TIMEOUT_S = 30.0

#: Scheduler refusals and the error code each is answered with.
_SCHEDULER_ERRORS = ((ServiceOverloaded, "overloaded"),
                     (DeadlineExceeded, "deadline"),
                     (SchedulerClosed, "closed"))

_log = logging.getLogger(__name__)


class RequestError(Exception):
    """A request answered with a typed error: ``code`` and a message."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _error_of(exc: Exception) -> Tuple[str, str]:
    """The error code and message a request's exception is answered
    with; called while it is being handled."""
    if isinstance(exc, RequestError):
        return exc.code, str(exc)
    for kind, code in _SCHEDULER_ERRORS:
        if isinstance(exc, kind):
            return code, str(exc)
    _log.exception("request failed; answered internal")
    return "internal", f"{type(exc).__name__}: {exc}"


@contextmanager
def _bad_request() -> Iterator[None]:
    """Answer a ``ValueError`` raised inside (a request that fails
    validation) as ``bad-request``."""
    try:
        yield
    except ValueError as exc:
        raise RequestError("bad-request", str(exc)) from None


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
                           ) -> List[List[OffTargetHit]]:
    """Submit one request and await its per-query hit lists.

    A request the scheduler rejects as malformed raises
    ``bad-request``; its refusals and batch failures propagate.
    """
    with _bad_request():
        future = scheduler.submit(queries, deadline_s=deadline_s,
                                  kind=kind)
    return await asyncio.wrap_future(future)


def _decode_chromosomes(raw: Any) -> Optional[FrozenSet[str]]:
    """Validate an optional per-request chromosome filter."""
    if raw is None:
        return None
    if (not isinstance(raw, list) or not raw
            or not all(isinstance(c, str) for c in raw)):
        raise ValueError("'chromosomes' must be a non-empty list of "
                         "chromosome names")
    return frozenset(raw)


async def _read_line(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next request line, ``b""`` at end of stream, or None.

    None stands for a line longer than the reader's limit: it is read
    through its newline and dropped, so the next line starts clean.
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial  # end of stream: an unterminated last line
    except asyncio.LimitOverrunError as exc:
        consumed = exc.consumed
    while True:
        await reader.readexactly(consumed)
        try:
            await reader.readuntil(b"\n")
            return None
        except asyncio.IncompleteReadError:
            return None  # the stream ended inside the line
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed


@dataclass
class ServerHandle:
    """A running background server: address plus a way to stop it."""

    host: str
    port: int
    _server: "JsonLinesServer"
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


class JsonLinesServer:
    """One JSON-lines TCP front end: connection loop and lifecycle.

    Subclasses answer one decoded request object at a time in
    :meth:`_handle_request`, which returns the ``ok`` answer, raises
    for every failure (:meth:`_respond` answers it) or returns None to
    drop the connection unanswered; :meth:`_on_start` runs before the
    listener opens and :meth:`_on_stop` after it closed and the drain
    ended.  ``drain_s`` bounds how long admitted requests may take to
    finish once a drain (SIGTERM or :meth:`ServerHandle.drain`) begins.
    """

    def __init__(self, host: str, port: int, drain_s: float = 5.0):
        self.host = host
        self.port = port  # 0 = ephemeral; bound port set once listening
        self.drain_s = float(drain_s)
        self._stop_event: Optional[asyncio.Event] = None
        self._draining = False
        #: Connections open now.  Only the event loop writes it; the
        #: batch schedulers' worker threads read it.
        self._connections = 0
        self._inflight = 0

    async def _handle_request(self, request: Dict[str, Any]
                              ) -> Optional[Dict[str, Any]]:
        raise NotImplementedError

    async def _on_start(self) -> None:
        """Runs on the event loop before the listener opens."""

    async def _on_stop(self) -> None:
        """Runs on the event loop after the listener and drain end."""

    def close(self) -> None:
        """Release what outlives the event loop (called once it ends)."""

    async def _respond(self, line: Optional[bytes]
                       ) -> Optional[Dict[str, Any]]:
        """The answer to one request line (None: an over-limit line),
        or None to drop the connection without answering.

        The one place an exception becomes an answer: a
        :class:`RequestError` its own code, a scheduler refusal
        ``overloaded``, ``deadline`` or ``closed``, anything else
        ``internal``.
        """
        request: Any = None
        try:
            if line is None:
                raise RequestError("bad-request",
                                   f"request line longer than "
                                   f"{MAX_LINE_BYTES} bytes")
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object")
            except (ValueError, RecursionError) as exc:
                raise RequestError("bad-json", str(exc)) from None
            response = await self._handle_request(request)
            if response is None:
                return None
        except Exception as exc:  # noqa: BLE001 - answer, keep serving
            code, message = _error_of(exc)
            response = {"ok": False, "error": code, "message": message}
        if isinstance(request, dict) and "id" in request:
            response["id"] = request["id"]
        return response

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._connections += 1
        try:
            while True:
                try:
                    line = await _read_line(reader)
                except ConnectionError:
                    break
                if line == b"":
                    break  # end of stream
                self._inflight += 1
                try:
                    response = await self._respond(line)
                    if response is None:
                        # The handler drops the connection unanswered
                        # (the server's injected ``disconnect``).
                        break
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
            self._connections -= 1
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

    async def _serve(self, started: Optional[Future] = None,
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
        try:
            await self._on_start()
            server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port,
                limit=MAX_LINE_BYTES)
            async with server:
                self.port = server.sockets[0].getsockname()[1]
                if started is not None:
                    started.set_result(self.port)
                if ready_file:
                    # Atomic publish: a supervisor polls for the file's
                    # existence, so it must never observe the empty
                    # window between create and write.
                    part = ready_file + ".part"
                    with open(part, "w", encoding="ascii") as handle:
                        handle.write(f"{self.host} {self.port}\n")
                    os.replace(part, ready_file)
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
                # drain_s to finish; each holds _inflight until its
                # response is written.
                deadline = loop.time() + self.drain_s
                while self._inflight > 0 and loop.time() < deadline:
                    await asyncio.sleep(0.02)
                tracing.instant("server_drained", cat="service",
                                remaining=self._inflight)
            await self._on_stop()
            # Cancel connection handlers still blocked reading so the
            # loop shuts down without pending-task warnings.
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
        """Serve on a daemon thread; returns a handle with the port.

        A start that fails before listening (a taken port, say) raises
        its error here at once.
        """
        started: Future = Future()
        loop = asyncio.new_event_loop()

        def _run() -> None:
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self._serve(started=started))
            except Exception as exc:
                if started.done():
                    raise
                started.set_exception(exc)
            finally:
                loop.close()

        name = type(self).__name__
        thread = threading.Thread(target=_run, name=f"service-{name}",
                                  daemon=True)
        thread.start()
        try:
            started.result(timeout=START_TIMEOUT_S)
        except TimeoutError:
            raise RuntimeError(f"{name} failed to start within "
                               f"{START_TIMEOUT_S:g} s") from None
        return ServerHandle(host=self.host, port=self.port, _server=self,
                            _thread=thread, _loop=loop)


class OffTargetServer(JsonLinesServer):
    """JSON-lines TCP server over one resident :class:`GenomeSiteIndex`."""

    def __init__(self, index: GenomeSiteIndex, host: str = "127.0.0.1",
                 port: int = 0, max_batch: int = 8,
                 max_wait_ms: float = 5.0, max_queue: int = 64,
                 request_fault_plan: Optional[str] = None,
                 drain_s: float = 5.0,
                 enzymes: Optional[Sequence[
                     Tuple[CasEnzyme, GenomeSiteIndex]]] = None):
        super().__init__(host, port, drain_s)
        self.index = index
        settings = dict(max_batch=max_batch, max_wait_ms=max_wait_ms,
                        max_queue=max_queue,
                        open_connections=lambda: self._connections)
        self.scheduler = BatchScheduler(index, **settings)
        self._closed = False
        #: Request-level fault plan (indices are query ordinals).
        self._request_injector = (
            faults.FaultInjector(faults.parse_fault_plan(
                request_fault_plan))
            if request_fault_plan else None)
        self._request_seq = 0
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
                BatchScheduler(enzyme_index, **settings))
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
        if op == "enzymes":
            return self._handle_enzymes()
        if op == "variant":
            return await self._handle_variant(request)
        if op == "enumerate":
            return self._handle_enumerate(request)
        if op == "design":
            return await self._handle_design(request)
        if op == "query":
            if (self._request_injector is not None
                    and await self._apply_request_fault()):
                return None  # half-open: close without responding
            with _bad_request():
                _, _, scheduler = self._resolve_enzyme(request)
                queries = _decode_queries(request.get("queries"))
                allowed = _decode_chromosomes(
                    request.get("chromosomes"))
                deadline = _decode_deadline(request.get("deadline_s"))
            results = await _submit_and_wait(scheduler, queries,
                                             deadline)
            if allowed is not None:
                # A subsequence of the served order is that order over
                # the allowed chromosomes, which is what lets a router
                # reassemble partitions byte-identically.
                results = [[hit for hit in per if hit.chrom in allowed]
                           for per in results]
            return {"ok": True,
                    "hits": [hits_to_rows(per) for per in results]}
        raise RequestError(
            "unknown-op", f"unknown op {op!r}; expected query, design, "
                          f"enumerate, variant, enzymes, stats or "
                          f"health")

    # -- enzyme registry ------------------------------------------------

    def _resolve_enzyme(self, request: Dict[str, Any]
                        ) -> Tuple[Optional[CasEnzyme], GenomeSiteIndex,
                                   BatchScheduler]:
        """(enzyme, index, scheduler) for the request's ``enzyme`` field.

        Absent/None selects the default index; unknown names raise
        ValueError, which every op answers ``bad-request``.
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
        with _bad_request():
            _, index, scheduler = self._resolve_enzyme(request)
            queries = _decode_queries(request.get("queries"))
            haplotypes = decode_haplotypes(request.get("haplotypes"))
            allowed = _decode_chromosomes(request.get("chromosomes"))
        loop = asyncio.get_running_loop()
        with _bad_request():  # a variant the assembly rejects
            result = await loop.run_in_executor(
                self._variant_executor,
                lambda: search_variants(index, queries, haplotypes,
                                        chromosomes=allowed))
        scheduler.count_request("variant")
        return {"ok": True, **result.payload()}

    # -- guide design ---------------------------------------------------

    def _handle_enumerate(self, request: Dict[str, Any]
                          ) -> Dict[str, Any]:
        """Candidate protospacers for a region, on the wire.

        Pure and synchronous (no comparer work): the routing tier
        calls this on a backend that holds the target chromosome,
        then fans the returned queries out like any query batch.
        """
        with _bad_request():
            enzyme, index, _ = self._resolve_enzyme(request)
            if enzyme is not None and not enzyme.designable:
                raise ValueError(
                    f"enzyme {enzyme.name!r} has a 5prime PAM; guide "
                    f"design requires a 3prime-PAM pattern")
            spec = decode_design_spec(request)
            anatomy, candidates, queries = enumerate_for_design(
                index.assembly, index.pattern, spec)
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
        with _bad_request():
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
        hits_by_query: Dict[str, List[OffTargetHit]] = {}
        if queries:
            results = await _submit_and_wait(
                scheduler,
                [Query(sequence=query,
                       max_mismatches=spec.max_mismatches)
                 for query in queries],
                deadline, kind="design")
            hits_by_query = dict(zip(queries, results))
        reports = rank_candidates(candidates, hits_by_query, estimator,
                                  spec.top_n)
        return {"ok": True,
                **design_payload(anatomy, estimator, candidates,
                                 queries, reports)}

    async def _apply_request_fault(self) -> bool:
        """Fire the next request-level fault, if the plan names one.

        Returns True when the connection should drop unanswered
        (``disconnect``); ``raise`` raises an ``internal`` error,
        ``stall`` sleeps first and ``crash`` does not return.
        """
        ordinal = self._request_seq
        self._request_seq += 1
        spec = self._request_injector.fire(ordinal)
        if spec is None:
            return False
        tracing.instant("request_fault", cat="fault", request=ordinal,
                        kind=spec.kind)
        if spec.kind == "crash":
            os._exit(1)
        if spec.kind == "disconnect":
            return True
        if spec.kind == "stall":
            await asyncio.sleep(spec.stall_s)
            return False
        raise RequestError("internal",
                           f"injected fault on request {ordinal}")

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.scheduler.close()
            for _, _, scheduler in self._enzymes.values():
                scheduler.close()
            self._variant_executor.shutdown(wait=False)
