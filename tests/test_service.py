"""Off-target query service: index, scheduler, server, equivalence.

The load-bearing invariant is serving equivalence: the index-backed
service must return exactly the hits an offline search produces — the
finder/comparer split, the resident index, micro-batching and the wire
protocol are all supposed to be invisible in the output.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.config import Query, SearchRequest
from repro.core.patterns import compile_pattern
from repro.core.pipeline import _BasePipeline, make_pipeline, search
from repro.core.records import sort_hits
from repro.enzymes import CasEnzyme
from repro.genome.assembly import Assembly, Chromosome, Chunk
from repro.observability import tracing
from repro.observability.faults import FAULT_ENV
from repro.runtime import executor
from repro.service import (BatchScheduler, DeadlineExceeded,
                           GenomeSiteIndex, OffTargetServer,
                           SchedulerClosed, ServiceClient, ServiceError,
                           ServiceOverloaded, ServiceOverloadedError,
                           SiteIndexError, SiteIndexMismatchError,
                           run_load)
from repro.service.server import MAX_LINE_BYTES

from .conftest import (HEALTH_LINE, converse, nested_query_line,
                       over_limit_writes, padded_line, query_line)

PATTERN = "NNNNNNRG"
QUERIES = [Query("GACGTCNN", 3), Query("TTACGANN", 2)]
CHUNK = 1 << 12


def offline_hits(assembly, queries=QUERIES, chunk_size=CHUNK):
    request = SearchRequest(pattern=PATTERN, queries=list(queries))
    return sort_hits(search(assembly, request,
                            chunk_size=chunk_size).hits)


@pytest.fixture(scope="module")
def index(small_assembly) -> GenomeSiteIndex:
    return GenomeSiteIndex.build(small_assembly, PATTERN)


@pytest.fixture(scope="module")
def served(index):
    server = OffTargetServer(index, max_batch=8, max_wait_ms=2.0)
    handle = server.start_background()
    yield handle
    handle.stop()


class TestGenomeSiteIndex:
    def test_query_batch_matches_offline_search(self, index,
                                                small_assembly):
        per_query = index.query_batch(QUERIES)
        assert len(per_query) == len(QUERIES)
        got = sort_hits([h for per in per_query for h in per])
        assert got == offline_hits(small_assembly)

    def test_index_counts(self, index, small_assembly):
        assert [entry.chrom for entry in index.entries] == \
            ["chrA", "chrB"]
        assert [(entry.start, entry.scan_length)
                for entry in index.entries] == [(0, 8000 - 7),
                                                (0, 4000 - 7)]
        assert index.chunk_count == 2
        assert index.site_count > 0

    def test_fingerprint_names_genome_and_pattern(self, index,
                                                  small_assembly,
                                                  tmp_path):
        """Two builds of one genome and pattern share a fingerprint;
        another pattern or chromosome set does not.  The saved header
        carries no chunk size."""
        again = GenomeSiteIndex.build(small_assembly, PATTERN)
        assert again.fingerprint() == index.fingerprint()
        assert GenomeSiteIndex(small_assembly, "NNNNNNGG").fingerprint() \
            != index.fingerprint()
        assert GenomeSiteIndex(small_assembly.subset(["chrA"]),
                               PATTERN).fingerprint() != \
            index.fingerprint()
        index.save(str(tmp_path))
        header = json.loads((tmp_path / "index.json").read_text())
        assert header["version"] == 7
        assert header["fingerprint"] == index.fingerprint()
        assert "chunk_size" not in header

    def test_empty_query_list(self, index):
        assert index.query_batch([]) == []

    def test_wrong_length_query_rejected(self, index):
        with pytest.raises(ValueError, match="length"):
            index.query_batch([Query("GACGTCNNA", 3)])

    def test_save_load_roundtrip(self, index, small_assembly,
                                 tmp_path):
        index.save(str(tmp_path))
        loaded = GenomeSiteIndex.load(str(tmp_path), small_assembly)
        assert loaded.chunk_count == index.chunk_count
        assert loaded.site_count == index.site_count
        per_query = loaded.query_batch(QUERIES)
        got = sort_hits([h for per in per_query for h in per])
        assert got == offline_hits(small_assembly)

    def test_load_rejects_other_genome(self, index, tiny_assembly,
                                       tmp_path):
        index.save(str(tmp_path))
        with pytest.raises(SiteIndexMismatchError, match="different"):
            GenomeSiteIndex.load(str(tmp_path), tiny_assembly)

    def test_load_rejects_masked_twin(self, index, small_assembly,
                                      tmp_path):
        """An index saved for other bases at the same chromosome names
        and lengths is refused; its hits would differ."""
        masked = Assembly(small_assembly.name, [
            Chromosome(chrom.name, chrom.sequence.copy())
            for chrom in small_assembly.chromosomes])
        for chrom in masked.chromosomes:
            chrom.sequence[100:400] = ord("N")
        twin = GenomeSiteIndex.build(masked, PATTERN)
        assert twin.site_count < index.site_count
        twin.save(str(tmp_path))
        with pytest.raises(SiteIndexMismatchError, match="different"):
            GenomeSiteIndex.load(str(tmp_path), small_assembly)
        assert GenomeSiteIndex.load(str(tmp_path), masked).fingerprint() \
            == twin.fingerprint()

    def test_load_rejects_corrupt_sites(self, index, small_assembly,
                                        tmp_path):
        index.save(str(tmp_path))
        sites = tmp_path / "sites.npz"
        blob = bytearray(sites.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        sites.write_bytes(bytes(blob))
        with pytest.raises(SiteIndexError, match="SHA-256"):
            GenomeSiteIndex.load(str(tmp_path), small_assembly)

    def test_load_rejects_bad_version(self, index, small_assembly,
                                      tmp_path):
        index.save(str(tmp_path))
        manifest = tmp_path / "index.json"
        header = json.loads(manifest.read_text())
        header["version"] = 99
        manifest.write_text(json.dumps(header))
        with pytest.raises(SiteIndexError, match="version"):
            GenomeSiteIndex.load(str(tmp_path), small_assembly)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       pattern=st.sampled_from(["NNNNNNNNRG", "TTTNNNNNNN"]),
       extra=st.sampled_from([b"", b"RYKM", b"*", b"SW*"]),
       block=st.sampled_from([16, 64, 100]))
def test_find_candidates_matches_finder_kernels(seed, pattern, extra,
                                                block):
    """The index's numpy finder emits, in order, the loci and strand
    flags of every paper pipeline's finder kernel (SYCL buffers, SYCL
    USM and OpenCL, each vectorized and interpreted), over random
    genomes with an N run and IUPAC or non-IUPAC bytes, 3'- and 5'-PAM
    patterns and kernel blocks shorter than the scan."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(200, 500))
    data = rng.choice(np.frombuffer(b"ACGT", dtype=np.uint8), n)
    lo = int(rng.integers(0, n - 30))
    data[lo:lo + int(rng.integers(1, 30))] = ord("N")
    for byte in extra:
        data[int(rng.integers(0, n))] = byte
    compiled = compile_pattern(pattern)
    chunk = Chunk(chrom="c", start=0, data=data,
                  scan_length=n - compiled.plen + 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executor, "VECTORIZED_BLOCK_ITEMS", block)
        count, loci, flags = _BasePipeline().find_candidates(chunk,
                                                             compiled)
        assert (loci.dtype, flags.dtype) == (np.uint32, np.uint8)
        for api in ("sycl", "sycl-usm", "opencl"):
            for mode in ("vectorized", "interpreted"):
                pipeline = make_pipeline(api=api, mode=mode)
                try:
                    out = pipeline._process_chunk(chunk, compiled, [], [])
                finally:
                    if api == "opencl":
                        pipeline.release()
                assert out.candidate_count == count, (api, mode)
                assert out.loci.tolist() == loci.tolist(), (api, mode)
                assert out.flags.tolist() == flags.tolist(), (api, mode)


class TestBuild:
    def test_engine_fault_plan_does_not_reach_the_build(
            self, index, small_assembly, monkeypatch):
        """The offline engine's fault plan drills its chunk retries;
        the index build retries nothing, so the plan must not fail
        it, device-scoped entries included."""
        monkeypatch.setenv(FAULT_ENV, "MI60!raise@0x9")
        built = GenomeSiteIndex.build(small_assembly, PATTERN)
        assert built.fingerprint() == index.fingerprint()
        assert built.query_batch(QUERIES) == index.query_batch(QUERIES)

    def test_finder_failure_names_the_chromosome(self, small_assembly,
                                                 monkeypatch):
        """A finder failure fails the build on its first attempt,
        naming the chromosome."""
        find = _BasePipeline.find_candidates
        scanned = []

        def failing(self, chunk, pattern):
            scanned.append(chunk.chrom)
            if chunk.chrom == "chrB":
                raise RuntimeError("finder failed")
            return find(self, chunk, pattern)

        monkeypatch.setattr(_BasePipeline, "find_candidates", failing)
        with pytest.raises(SiteIndexError, match="chromosome 'chrB'"):
            GenomeSiteIndex.build(small_assembly, PATTERN)
        assert scanned == ["chrA", "chrB"]


class TestBatchScheduler:
    def test_coalesces_queued_requests(self, index, small_assembly):
        """Requests queued before the worker starts ride one batch."""
        scheduler = BatchScheduler(index, max_batch=8, max_wait_ms=50.0,
                                   start=False)
        futures = [scheduler.submit([q]) for q in QUERIES]
        scheduler.start()
        got = [f.result(timeout=30) for f in futures]
        scheduler.close()
        merged = sort_hits([h for per in got for hits in per
                            for h in hits])
        assert merged == offline_hits(small_assembly)
        stats = scheduler.stats()
        assert stats["batches"] == 1
        assert stats["batch_size_histogram"] == {2: 1}
        assert stats["completed"] == 2

    def test_overload_rejects_typed(self, index):
        scheduler = BatchScheduler(index, max_queue=2, start=False)
        scheduler.submit([QUERIES[0]])
        scheduler.submit([QUERIES[0]])
        with pytest.raises(ServiceOverloaded, match="full"):
            scheduler.submit([QUERIES[0]])
        assert scheduler.stats()["rejected"] == 1
        assert scheduler.stats()["queue_depth"] == 2
        scheduler.close()

    def test_deadline_expires_queued_request(self, index):
        scheduler = BatchScheduler(index, start=False)
        future = scheduler.submit([QUERIES[0]], deadline_s=0.01)
        time.sleep(0.05)
        scheduler.start()
        with pytest.raises(DeadlineExceeded):
            future.result(timeout=30)
        assert scheduler.stats()["expired"] == 1
        scheduler.close()

    def test_closed_scheduler_rejects(self, index):
        scheduler = BatchScheduler(index)
        scheduler.close()
        with pytest.raises(SchedulerClosed):
            scheduler.submit([QUERIES[0]])

    def test_close_fails_queued_requests(self, index):
        scheduler = BatchScheduler(index, start=False)
        future = scheduler.submit([QUERIES[0]])
        scheduler.close()
        with pytest.raises(SchedulerClosed):
            future.result(timeout=30)

    def test_bad_requests_rejected(self, index):
        scheduler = BatchScheduler(index, start=False)
        with pytest.raises(ValueError, match="at least one"):
            scheduler.submit([])
        with pytest.raises(ValueError, match="length"):
            scheduler.submit([Query("GACGTCNNA", 3)])
        with pytest.raises(ValueError, match="finite"):
            scheduler.submit([QUERIES[0]], deadline_s=float("nan"))
        with pytest.raises(ValueError, match="finite"):
            scheduler.submit([QUERIES[0]], deadline_s=float("inf"))
        scheduler.close()

    def test_stats_on_fresh_scheduler(self, index):
        """Zero completed requests must report null latencies, not a
        fabricated 0.0 (regression: percentile on an empty list)."""
        scheduler = BatchScheduler(index, start=False)
        stats = scheduler.stats()
        scheduler.close()
        assert stats["completed"] == 0
        latency = stats["latency_ms"]
        assert latency["count"] == 0
        for key in ("mean", "p50", "p95", "p99", "max"):
            assert latency[key] is None, key

    def test_expired_deadline_fails_fast_at_submit(self, index):
        """An already-expired deadline must not occupy a queue slot."""
        scheduler = BatchScheduler(index, start=False)
        for deadline in (0, -1.0):
            with pytest.raises(DeadlineExceeded, match="expired"):
                scheduler.submit([QUERIES[0]], deadline_s=deadline)
        stats = scheduler.stats()
        scheduler.close()
        assert stats["queue_depth"] == 0
        assert stats["expired"] == 2

    def test_exact_deadline_boundary_expires(self, index, monkeypatch):
        """now == deadline counts as expired (was: slipped into the
        batch it was promised to miss)."""
        from repro.service import scheduler as scheduler_module
        scheduler = BatchScheduler(index, start=False)
        now = time.perf_counter()
        pending = scheduler_module._PendingRequest(
            queries=[QUERIES[0]], future=Future(), enqueued_perf=now,
            enqueued_wall=time.time(), deadline=now + 5.0)
        monkeypatch.setattr(scheduler_module.time, "perf_counter",
                            lambda: now + 5.0)
        scheduler._execute([pending])
        with pytest.raises(DeadlineExceeded):
            pending.future.result(timeout=5)
        assert scheduler.stats()["expired"] == 1
        scheduler.close()

    def test_latency_percentiles_populated(self, index):
        with BatchScheduler(index, max_wait_ms=1.0) as scheduler:
            for _ in range(5):
                scheduler.submit([QUERIES[0]]).result(timeout=30)
            latency = scheduler.stats()["latency_ms"]
        assert latency["count"] == 5
        assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"]
        assert latency["max"] >= latency["p99"]

    @pytest.mark.parametrize("kwargs", [
        {"max_batch": 0}, {"max_wait_ms": -1.0}, {"max_queue": 0},
    ])
    def test_ctor_validation(self, index, kwargs):
        with pytest.raises(ValueError):
            BatchScheduler(index, start=False, **kwargs)

    def test_request_spans_shipped(self, index):
        with tracing.recording() as recorder:
            with BatchScheduler(index, max_wait_ms=1.0) as scheduler:
                scheduler.submit([QUERIES[0]]).result(timeout=30)
        names = [s.name for s in recorder.spans()]
        assert "service_batch" in names
        assert "service_request" in names


class TestServer:
    def test_health(self, served, index):
        with ServiceClient(served.host, served.port) as client:
            health = client.health()
        assert health["status"] == "serving"
        assert health["pattern"] == PATTERN
        assert health["sites"] == index.site_count

    def test_query_matches_offline(self, served, small_assembly):
        with ServiceClient(served.host, served.port) as client:
            per_query = client.query(QUERIES)
        got = sort_hits([h for per in per_query for h in per])
        assert got == offline_hits(small_assembly)

    def test_stats_shape(self, served):
        with ServiceClient(served.host, served.port) as client:
            client.query(QUERIES)
            stats = client.stats()
        assert "queue_depth" in stats
        assert "batch_size_histogram" in stats
        for key in ("p50", "p95", "p99", "mean", "max", "count"):
            assert key in stats["latency_ms"]

    def test_concurrent_clients_agree(self, served, small_assembly):
        expected = offline_hits(small_assembly)
        results = []
        lock = threading.Lock()

        def _one():
            with ServiceClient(served.host, served.port) as client:
                per_query = client.query(QUERIES)
            with lock:
                results.append(
                    sort_hits([h for per in per_query for h in per]))

        threads = [threading.Thread(target=_one) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 6
        assert all(got == expected for got in results)

    def _raw_call(self, served, payload: bytes) -> dict:
        with socket.create_connection((served.host, served.port),
                                      timeout=10) as sock:
            sock.sendall(payload)
            handle = sock.makefile("rb")
            return json.loads(handle.readline())

    def test_bad_json_reported(self, served):
        response = self._raw_call(served, b"{not json\n")
        assert response == {"ok": False, "error": "bad-json",
                            "message": response["message"]}

    def test_over_limit_line_is_bad_request(self, served):
        """A line past MAX_LINE_BYTES is read through its newline and
        answered ``bad-request``; the connection then serves on."""
        for writes in over_limit_writes(MAX_LINE_BYTES):
            bad, health = converse(served.host, served.port, *writes)
            assert bad["ok"] is False and bad["error"] == "bad-request"
            assert str(MAX_LINE_BYTES) in bad["message"]
            assert health["ok"] and health["id"] == "after"
        at_limit, health = converse(
            served.host, served.port,
            padded_line({"op": "health", "id": 1}, MAX_LINE_BYTES),
            HEALTH_LINE)
        assert at_limit["ok"] and at_limit["id"] == 1
        assert health["ok"] and health["id"] == "after"

    def test_deeply_nested_json_is_bad_json(self, served):
        bad, health = converse(served.host, served.port,
                               nested_query_line(100_000), HEALTH_LINE)
        assert bad["ok"] is False and bad["error"] == "bad-json"
        assert health["ok"] and health["id"] == "after"

    def test_failed_start_raises_at_once(self, index):
        with socket.create_server(("127.0.0.1", 0)) as taken:
            server = OffTargetServer(index, port=taken.getsockname()[1])
            began = time.perf_counter()
            try:
                with pytest.raises(OSError):
                    server.start_background()
            finally:
                server.close()
        assert time.perf_counter() - began < 5.0, \
            "a taken port must not wait out the start timeout"

    def test_unknown_op_reported(self, served):
        for op in (b'"shutdown"', b'"reload"'):
            response = self._raw_call(
                served, b'{"op": %s, "id": 7}\n' % op)
            assert response["ok"] is False
            assert response["error"] == "unknown-op"
            assert response["id"] == 7

    def test_bad_query_payloads(self, served):
        for payload in (b'{"op": "query"}\n',
                        b'{"op": "query", "queries": []}\n',
                        b'{"op": "query", "queries": [["AC"]]}\n',
                        b'{"op": "query", "queries": [["GACGTCNN", '
                        b'-1]]}\n'):
            response = self._raw_call(served, payload)
            assert response["ok"] is False
            assert response["error"] == "bad-request"

    def test_client_raises_typed_errors(self, served):
        with ServiceClient(served.host, served.port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.query([Query("GACGTCNNA", 3)])
        assert excinfo.value.code == "bad-request"

    def test_overload_surfaces_as_typed_client_error(self, index):
        """A full queue must reach the blocking client as the *same*
        ServiceOverloaded type the scheduler raises server-side, not a
        bare ServiceError the caller has to string-match."""
        stalling = _StallingIndex(index)
        server = OffTargetServer(stalling, max_batch=1,
                                 max_wait_ms=0.0, max_queue=1)
        handle = server.start_background()
        results = []

        def _query():
            with ServiceClient(handle.host, handle.port) as client:
                results.append(client.query([QUERIES[0]]))

        threads = [threading.Thread(target=_query) for _ in range(2)]
        try:
            # First request occupies the (stalled) batch worker, the
            # second fills the one queue slot, the third must bounce.
            threads[0].start()
            assert stalling.entered.wait(timeout=10)
            threads[1].start()
            with ServiceClient(handle.host, handle.port) as client:
                deadline = time.monotonic() + 10
                while client.stats()["queue_depth"] < 1:
                    assert time.monotonic() < deadline, \
                        "second request never reached the queue"
                    time.sleep(0.01)
                with pytest.raises(ServiceOverloaded) as excinfo:
                    client.query([QUERIES[0]])
            assert isinstance(excinfo.value, ServiceOverloadedError)
            assert isinstance(excinfo.value, ServiceError)
            assert excinfo.value.code == "overloaded"
        finally:
            stalling.gate.set()
            for thread in threads:
                thread.join(timeout=30)
            handle.stop()
        assert len(results) == 2


class TestGather:
    """A served gather ends once the batch holds a request from every
    open connection.  ``max_wait_ms`` is 10 s unless a test says
    otherwise, so only that rule can answer within 2 s."""

    QUERY = {"op": "query", "queries": [["GACGTCNN", 3]]}

    @contextmanager
    def _connections(self, index, count, max_wait_ms=10_000.0,
                     **server_kw):
        """A server and ``count`` connections to it, each through one
        ``health`` round trip, so the server has counted all of them."""
        server = OffTargetServer(index, max_wait_ms=max_wait_ms,
                                 **server_kw)
        handle = server.start_background()
        conns = []
        try:
            for _ in range(count):
                sock = socket.create_connection(
                    (handle.host, handle.port), timeout=30)
                conns.append((sock, sock.makefile("rb")))
                sock.sendall(HEALTH_LINE)
                assert json.loads(conns[-1][1].readline())["ok"]
            yield server, conns
        finally:
            for sock, stream in conns:
                stream.close()
                sock.close()
            handle.stop()

    def _send(self, conn, request):
        conn[0].sendall(json.dumps(request).encode("ascii") + b"\n")

    def _answer(self, conn):
        answer = json.loads(conn[1].readline())
        assert answer["ok"], answer

    @pytest.mark.parametrize("enzyme", [None, "Alt"])
    def test_lone_connection_runs_at_once(self, index, small_assembly,
                                          enzyme):
        alt = CasEnzyme("Alt", 6, "GG", "3prime", "mit", "NNNNNNGG")
        enzymes = [(alt, GenomeSiteIndex.build(small_assembly,
                                               alt.pattern))]
        with self._connections(index, 1, enzymes=enzymes) as (
                server, (conn,)):
            began = time.perf_counter()
            self._send(conn, dict(self.QUERY, enzyme=enzyme))
            self._answer(conn)
            assert time.perf_counter() - began < 2.0
        scheduler = (server.scheduler if enzyme is None
                     else server._enzymes[enzyme][2])
        assert scheduler.stats()["flushes"] == {
            "full": 0, "connections": 1, "timer": 0}

    def test_every_connection_rides_one_batch(self, index):
        with self._connections(index, 2) as (server, conns):
            began = time.perf_counter()
            for conn in conns:
                self._send(conn, self.QUERY)
            for conn in conns:
                self._answer(conn)
            assert time.perf_counter() - began < 2.0
        stats = server.scheduler.stats()
        assert stats["batch_size_histogram"] == {2: 1}
        assert stats["flushes"]["connections"] == 1

    def test_idle_connection_holds_the_batch_open(self, index):
        with self._connections(index, 2, max_wait_ms=300.0) as (
                server, conns):
            began = time.perf_counter()
            self._send(conns[0], self.QUERY)
            self._answer(conns[0])
            assert time.perf_counter() - began >= 0.25
        assert server.scheduler.stats()["flushes"] == {
            "full": 0, "connections": 0, "timer": 1}

    def test_count_settles_under_concurrent_connections(
            self, index, small_assembly):
        """More client threads than cores connect, query and close at
        once under a short switch interval: every answer is right,
        every batch's gather is counted once, and the connection count
        returns to 0."""
        expected = offline_hits(small_assembly, QUERIES[:1])
        results, errors = [], []

        def _client(server):
            try:
                with ServiceClient(server.host, server.port) as client:
                    for _ in range(10):
                        results.append(sort_hits(
                            client.query(QUERIES[:1])[0]))
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with self._connections(index, 0, max_wait_ms=20.0) as (
                    server, _):
                threads = [threading.Thread(target=_client,
                                            args=(server,))
                           for _ in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                deadline = time.monotonic() + 10
                while server._connections and \
                        time.monotonic() < deadline:
                    time.sleep(0.01)
                assert server._connections == 0
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(results) == 60
        assert all(got == expected for got in results)
        stats = server.scheduler.stats()
        assert sum(stats["flushes"].values()) == stats["batches"]


class _StallingIndex:
    """Index proxy whose query_batch blocks until ``gate`` is set, so
    tests can hold the batch worker busy deterministically."""

    def __init__(self, index):
        self._index = index
        self.entered = threading.Event()
        self.gate = threading.Event()

    def __getattr__(self, name):
        return getattr(self._index, name)

    def query_batch(self, queries):
        self.entered.set()
        if not self.gate.wait(timeout=30):
            raise RuntimeError("stall gate never released")
        return self._index.query_batch(queries)


class _FailingIndex:
    """Index proxy whose third query_batch call raises (the scheduler's
    single worker thread makes every call)."""

    def __init__(self, index):
        self._index = index
        self._calls = 0

    def __getattr__(self, name):
        return getattr(self._index, name)

    def query_batch(self, queries):
        self._calls += 1
        if self._calls == 3:
            raise RuntimeError("injected comparer failure")
        return self._index.query_batch(queries)


class TestLoadGenerator:
    def test_server_error_reraises_after_join(self, index):
        """A client thread that dies on a server error must fail the
        run, not drop its counts and let the others report success."""
        server = OffTargetServer(_FailingIndex(index), max_batch=8,
                                 max_wait_ms=2.0)
        handle = server.start_background()
        try:
            with pytest.raises(ServiceError, match="RuntimeError") as err:
                run_load(handle.host, handle.port, QUERIES, clients=2,
                         duration_s=0.5)
        finally:
            handle.stop()
        assert err.value.code == "internal"

    def test_quick_load(self, served):
        report = run_load(served.host, served.port, QUERIES,
                          clients=2, duration_s=0.5)
        assert report["requests"] > 0
        assert report["throughput_rps"] > 0
        assert report["errors"] == 0
        assert report["server_stats"]["completed"] >= \
            report["requests"]

    def test_all_expired_load_reports_no_latencies(self, served):
        """When no request completes, the latency fields are null
        rather than a fabricated 0.0."""
        report = run_load(served.host, served.port, QUERIES, clients=2,
                          duration_s=0.3, deadline_s=1e-9)
        assert report["requests"] == 0
        assert report["errors"] > 0
        latency = report["latency_ms"]
        assert latency["count"] == 0
        for key in ("mean", "p50", "p95", "p99", "max"):
            assert latency[key] is None, key

    @pytest.mark.slow
    def test_sustained_load_eight_clients(self, served):
        report = run_load(served.host, served.port, QUERIES,
                          clients=8, duration_s=5.0)
        assert report["requests"] > 0
        assert report["latency_ms"]["p99"] >= \
            report["latency_ms"]["p50"] > 0
        histogram = report["server_stats"]["batch_size_histogram"]
        assert any(int(size) > len(QUERIES) for size in histogram), \
            "concurrent requests should coalesce into larger batches"

    def test_smoke_entry_point(self, capsys):
        from repro.service.client import main as client_main
        assert client_main(["--smoke", "--clients", "2",
                            "--duration", "0.5"]) == 0
        assert "smoke OK" in capsys.readouterr().out


def test_client_entry_point_imports_once():
    """``python -m repro.service.client`` runs without runpy's
    double-import RuntimeWarning: the package exports the client
    lazily."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.service.client", "--help"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=120, check=True)
    assert "usage:" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr
