"""Blocking JSON-lines client and a thread-per-client load generator.

:class:`ServiceClient` speaks the :mod:`repro.service.server` protocol
over a plain socket — one JSON object per line each way — and decodes
``query`` responses back into :class:`~repro.core.records.OffTargetHit`
lists so callers get exactly the objects an offline search produces.
Server-reported failures surface as :class:`ServiceError` with the
machine-readable ``code`` (``overloaded``, ``deadline``, ...) so
callers can implement backoff.

A dropped connection mid-request is retried transparently: queries are
idempotent, so the client reconnects with capped exponential backoff
and resends the *same* request (same ``id``) up to ``retries`` times
before surfacing a ``disconnected`` :class:`ServiceError` — a backend
restart or a server-side connection drop costs a caller latency, not
an exception.  ``reconnects`` counts how often that happened.

:func:`run_load` is the load generator: N threads, each with its own
connection, issuing queries back-to-back for a duration, reporting
client-side throughput and latency percentiles plus a final server
``stats`` snapshot.  ``python -m repro.service.client --smoke`` builds
a tiny synthetic index, serves it in-process and runs a short load —
the 5-second smoke `make service` and `scripts/verify.sh` run.
"""

from __future__ import annotations

import argparse
import json
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.config import Query
from ..core.records import OffTargetHit
from .scheduler import DeadlineExceeded, ServiceOverloaded


class ServiceError(RuntimeError):
    """A server-reported failure; ``code`` is machine-readable."""

    def __init__(self, code: str, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code


class ServiceOverloadedError(ServiceError, ServiceOverloaded):
    """Typed ``overloaded`` rejection: back off and retry.

    Inherits both :class:`ServiceError` (so generic handlers and
    ``exc.code`` checks keep working) and the scheduler's
    :class:`ServiceOverloaded` (so callers can catch the same type on
    either side of the wire).
    """


class ServiceDeadlineError(ServiceError, DeadlineExceeded):
    """Typed ``deadline`` rejection, mirroring the scheduler type."""


#: Server error codes that decode to a dedicated exception type.
_ERROR_TYPES = {
    "overloaded": ServiceOverloadedError,
    "deadline": ServiceDeadlineError,
}


def _decode_hits(raw: List[List[Any]]) -> List[OffTargetHit]:
    return [OffTargetHit(query=item[0], chrom=item[1],
                         position=int(item[2]), site=item[3],
                         strand=item[4], mismatches=int(item[5]))
            for item in raw]


class ServiceClient:
    """Blocking JSON-lines client over one TCP connection.

    ``retries`` bounds transparent reconnect-and-resend attempts after
    a dropped connection (0 disables them); ``backoff_s`` is the first
    retry delay, doubling per attempt up to ``backoff_cap_s``.
    """

    def __init__(self, host: str, port: int, timeout_s: float = 30.0,
                 retries: int = 2, backoff_s: float = 0.05,
                 backoff_cap_s: float = 1.0):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.retries = int(retries)
        self.backoff_s = float(backoff_s)
        self.backoff_cap_s = float(backoff_cap_s)
        #: How many times a dropped connection was transparently
        #: reopened and the request resent.
        self.reconnects = 0
        self._seq = 0
        self._connect()

    def _connect(self) -> None:
        self._sock = socket.create_connection((self.host, self.port),
                                              timeout=self.timeout_s)
        self._file = self._sock.makefile("rwb")

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if "id" not in request:
            self._seq += 1
            request["id"] = f"c{self._seq}"
        payload = json.dumps(request).encode("ascii") + b"\n"
        attempts = self.retries + 1
        delay = self.backoff_s
        last: Optional[BaseException] = None
        response = None
        for attempt in range(attempts):
            try:
                if attempt:
                    # Reconnect and resend the same request id: queries
                    # are idempotent, so a duplicate execution is safe
                    # and the id keeps responses attributable.
                    time.sleep(delay)
                    delay = min(delay * 2, self.backoff_cap_s)
                    try:
                        self.close()
                    except OSError:
                        pass  # the broken socket is being replaced
                    self._connect()
                    self.reconnects += 1
                self._file.write(payload)
                self._file.flush()
                line = self._file.readline()
                if not line:
                    raise ConnectionResetError(
                        "server closed the connection")
                response = json.loads(line)
                break
            except ConnectionError as exc:
                # ConnectionResetError / BrokenPipeError / refused on
                # reconnect.  Socket timeouts are deliberately NOT
                # retried: the server may still be working on the
                # request, and piling on makes an overload worse.
                last = exc
        if response is None:
            raise ServiceError(
                "disconnected",
                f"server closed the connection ({attempts} attempt"
                f"{'s' if attempts != 1 else ''}): {last}")
        if response.get("id") not in (None, request["id"]):
            raise ServiceError(
                "protocol",
                f"response id {response.get('id')!r} does not match "
                f"request id {request['id']!r}")
        if not response.get("ok"):
            code = response.get("error", "unknown")
            raise _ERROR_TYPES.get(code, ServiceError)(
                code, response.get("message", ""))
        return response

    def query(self, queries: Sequence[Query],
              deadline_s: Optional[float] = None,
              enzyme: Optional[str] = None
              ) -> List[List[OffTargetHit]]:
        """Run one request; returns one hit list per query, in order."""
        request: Dict[str, Any] = {
            "op": "query",
            "queries": [[q.sequence, q.max_mismatches]
                        for q in queries]}
        if deadline_s is not None:
            request["deadline_s"] = deadline_s
        if enzyme is not None:
            request["enzyme"] = enzyme
        response = self._call(request)
        return [_decode_hits(per) for per in response["hits"]]

    def design(self, chrom: str, start: int, end: int,
               mismatches: int, top: int = 5, estimator: str = "mit",
               guide_length: Optional[int] = None,
               gc_min: Optional[float] = None,
               gc_max: Optional[float] = None,
               max_homopolymer: Optional[int] = None,
               deadline_s: Optional[float] = None) -> Dict[str, Any]:
        """Run one guide-design request (the ``design`` op).

        Returns the response payload with ``reports`` decoded into
        :class:`~repro.design.ranking.GuideDesignReport` rows (the raw
        wire rows stay under ``"report_rows"``); works identically
        against a single server and a router.
        """
        from ..design.ranking import decode_reports

        request: Dict[str, Any] = {
            "op": "design", "chrom": chrom, "start": int(start),
            "end": int(end), "mismatches": int(mismatches),
            "top": int(top), "estimator": estimator}
        if guide_length is not None:
            request["guide_length"] = int(guide_length)
        if gc_min is not None:
            request["gc_min"] = float(gc_min)
        if gc_max is not None:
            request["gc_max"] = float(gc_max)
        if max_homopolymer is not None:
            request["max_homopolymer"] = int(max_homopolymer)
        if deadline_s is not None:
            request["deadline_s"] = deadline_s
        response = self._call(request)
        response["report_rows"] = response["reports"]
        response["reports"] = decode_reports(response["report_rows"])
        return response

    def variant_search(self, queries: Sequence[Query],
                       haplotypes: Sequence[Any],
                       chromosomes: Optional[Sequence[str]] = None,
                       enzyme: Optional[str] = None) -> Dict[str, Any]:
        """Run one variant-aware search (the ``variant`` op).

        ``haplotypes`` accepts :class:`~repro.variants.model.Haplotype`
        objects or already-encoded ``{"name", "variants"}`` mappings;
        returns the response payload (``events`` rows laid out as
        ``event_fields``) unchanged — it is byte-identical between a
        single server and a router.
        """
        encoded = [h.to_payload() if hasattr(h, "to_payload") else h
                   for h in haplotypes]
        request: Dict[str, Any] = {
            "op": "variant",
            "queries": [[q.sequence, q.max_mismatches]
                        for q in queries],
            "haplotypes": encoded}
        if chromosomes is not None:
            request["chromosomes"] = list(chromosomes)
        if enzyme is not None:
            request["enzyme"] = enzyme
        return self._call(request)

    def enzymes(self) -> Dict[str, Any]:
        """The server's declarative enzyme registry listing."""
        return self._call({"op": "enzymes"})

    def stats(self) -> Dict[str, Any]:
        return self._call({"op": "stats"})["stats"]

    def health(self) -> Dict[str, Any]:
        return self._call({"op": "health"})


# ---------------------------------------------------------------------------
# Load generator
# ---------------------------------------------------------------------------

def _percentile(sorted_values: Sequence[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def run_load(host: str, port: int, queries: Sequence[Query],
             clients: int = 8, duration_s: float = 5.0,
             deadline_s: Optional[float] = None) -> Dict[str, Any]:
    """Hammer the server with ``clients`` concurrent connections.

    Each client thread issues ``queries`` as one request, back to back,
    until the clock runs out.  Overload/deadline rejections count as
    ``errors`` (the server telling us to back off).  Any other failure
    ends its client thread; once every thread has joined, the first
    such exception re-raises.  Returns client-side throughput/latency
    plus the server's own ``stats`` snapshot taken after the run.
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    if not duration_s > 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    results: List[Tuple[int, int, List[float]]] = []
    failures: List[Exception] = []
    results_lock = threading.Lock()
    start_gate = threading.Event()
    stop_at_holder: List[float] = []

    def _worker() -> None:
        completed = errors = 0
        latencies: List[float] = []
        try:
            with ServiceClient(host, port) as client:
                start_gate.wait()
                stop_at = stop_at_holder[0]
                while time.perf_counter() < stop_at:
                    began = time.perf_counter()
                    try:
                        client.query(queries, deadline_s=deadline_s)
                    except ServiceError as exc:
                        if exc.code in ("overloaded", "deadline"):
                            errors += 1
                            continue
                        raise
                    latencies.append(
                        (time.perf_counter() - began) * 1000.0)
                    completed += 1
        except Exception as exc:  # noqa: BLE001 - re-raised after join
            with results_lock:
                failures.append(exc)
            return
        with results_lock:
            results.append((completed, errors, latencies))

    threads = [threading.Thread(target=_worker, name=f"load-{i}")
               for i in range(clients)]
    for thread in threads:
        thread.start()
    began = time.perf_counter()
    stop_at_holder.append(began + duration_s)
    start_gate.set()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - began
    if failures:
        raise failures[0]

    with ServiceClient(host, port) as client:
        server_stats = client.stats()

    completed = sum(r[0] for r in results)
    errors = sum(r[1] for r in results)
    latencies = sorted(ms for r in results for ms in r[2])
    return {
        "clients": clients,
        "duration_s": elapsed,
        "queries_per_request": len(queries),
        "requests": completed,
        "errors": errors,
        "throughput_rps": completed / elapsed if elapsed > 0 else 0.0,
        "latency_ms": {
            "count": len(latencies),
            "mean": (sum(latencies) / len(latencies)
                     if latencies else 0.0),
            "p50": _percentile(latencies, 0.50),
            "p95": _percentile(latencies, 0.95),
            "p99": _percentile(latencies, 0.99),
            "max": latencies[-1] if latencies else 0.0,
        },
        "server_stats": server_stats,
    }


# ---------------------------------------------------------------------------
# Smoke entry point: `python -m repro.service.client --smoke`
# ---------------------------------------------------------------------------

def _smoke(clients: int, duration_s: float,
           adaptive: bool = False) -> int:
    from ..genome.synthetic import synthetic_assembly
    from .index import GenomeSiteIndex
    from .server import OffTargetServer

    assembly = synthetic_assembly("hg19", scale=0.00005, seed=7)
    index = GenomeSiteIndex.build(assembly, "NNNNNNRG",
                                  chunk_size=1 << 15)
    server = OffTargetServer(index, max_batch=8, max_wait_ms=2.0,
                             adaptive=adaptive)
    handle = server.start_background()
    try:
        report = run_load(handle.host, handle.port,
                          [Query("GACGTCNN", 3), Query("TTACGANN", 2)],
                          clients=clients, duration_s=duration_s)
    finally:
        handle.stop()
    print(json.dumps(report, indent=2, sort_keys=True))
    if report["requests"] <= 0 or report["throughput_rps"] <= 0:
        print("smoke FAILED: no requests completed")
        return 1
    print(f"smoke OK: {report['requests']} requests, "
          f"{report['throughput_rps']:.1f} req/s over "
          f"{report['duration_s']:.1f} s with {clients} clients")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.client",
        description="Load generator / smoke test for the off-target "
                    "query service.")
    parser.add_argument("--smoke", action="store_true",
                        help="serve a tiny synthetic index in-process "
                             "and run a short load against it")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--duration", type=float, default=5.0)
    parser.add_argument("--adaptive", action="store_true",
                        help="with --smoke: adaptive scheduler "
                             "(max_batch retuning)")
    parser.add_argument("--query", action="append", default=[],
                        metavar="SEQ:MM",
                        help="query spec, repeatable (default two "
                             "demo guides)")
    args = parser.parse_args(argv)
    if args.smoke:
        return _smoke(args.clients, args.duration,
                      adaptive=args.adaptive)
    if not args.port:
        parser.error("--port is required unless --smoke is given")
    if args.query:
        queries = []
        for spec in args.query:
            seq, _, mm = spec.rpartition(":")
            if not seq:
                parser.error(f"bad query spec {spec!r}: expected "
                             f"SEQ:MM")
            queries.append(Query(seq.upper(), int(mm)))
    else:
        queries = [Query("GACGTCNN", 3), Query("TTACGANN", 2)]
    report = run_load(args.host, args.port, queries,
                      clients=args.clients, duration_s=args.duration)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
