"""Routing tier: byte-identity across faults, failover, readmission.

The router's contract is the serving invariant one level up: a client
must not be able to tell, from any response byte, whether it talked to
one server over the whole genome or to a router over a partitioned,
replicated, occasionally-crashing fleet — including *while* a backend
dies, a hedge fires, or a restarted backend rejoins.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import Query
from repro.enzymes import CasEnzyme
from repro.genome.assembly import Assembly, Chromosome
from repro.genome.synthetic import synthetic_assembly
from repro.service import (GenomeSiteIndex, OffTargetRouter,
                           OffTargetServer, ServiceClient, ServiceError,
                           partition_chromosomes, replica_plan)
from repro.service.router import RouterError, _gather, parse_backend
from repro.service.server import MAX_LINE_BYTES, RequestError

from .conftest import (HEALTH_LINE, converse, nested_query_line,
                       over_limit_writes, query_line)

#: The checkout these tests belong to (subprocesses run its code).
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PATTERN = "NNNNNNRG"
QUERIES = [Query("GACGTCNN", 3), Query("TTACGANN", 2)]
QUERY_POOL = ["GACGTCNN", "TTACGANN", "AAACCCNN", "GGGTTTNN",
              "CATCATNN", "TGCAGTNN"]


def raw_query(client: ServiceClient, queries=QUERIES, **extra):
    request = {"op": "query",
               "queries": [[q.sequence, q.max_mismatches]
                           for q in queries]}
    request.update(extra)
    return client._call(request)


def wait_until(predicate, timeout_s: float = 10.0,
               interval_s: float = 0.05) -> bool:
    deadline = time.perf_counter() + timeout_s
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


# ---------------------------------------------------------------------------
# Fixtures: a 4-chromosome assembly, a single-server reference, and a
# 3-backend / replication-2 fleet sharing module-scoped indexes.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def wide_assembly() -> Assembly:
    rng = np.random.default_rng(777)
    alphabet = np.frombuffer(b"ACGT", dtype=np.uint8)
    sizes = {"chrA": 5000, "chrB": 3000, "chrC": 4000, "chrD": 2000}
    return Assembly("test-wide", [
        Chromosome(name, rng.choice(alphabet, size=n))
        for name, n in sizes.items()])


@pytest.fixture(scope="module")
def full_index(wide_assembly) -> GenomeSiteIndex:
    return GenomeSiteIndex.build(wide_assembly, PATTERN)


@pytest.fixture(scope="module")
def reference(full_index):
    handle = OffTargetServer(full_index,
                             max_wait_ms=1.0).start_background()
    yield handle
    handle.stop()


@pytest.fixture(scope="module")
def part_indexes(wide_assembly):
    """Replication-2 partition indexes, built once for every fleet."""
    parts = partition_chromosomes(wide_assembly, 3)
    held = replica_plan(parts, replication=2)
    return [(chroms,
             GenomeSiteIndex.build(wide_assembly.subset(chroms), PATTERN))
            for chroms in held]


def start_fleet(part_indexes, per_backend_kw=None):
    """Start one server per partition index; returns the handles."""
    handles = []
    for i, (_chroms, index) in enumerate(part_indexes):
        kw = dict(max_wait_ms=1.0)
        if per_backend_kw:
            kw.update(per_backend_kw.get(i, {}))
        handles.append(
            OffTargetServer(index, **kw).start_background())
    return handles


def start_router(handles, wide_assembly, **kw):
    kw.setdefault("probe_interval_s", 0.1)
    router = OffTargetRouter(
        [f"{h.host}:{h.port}" for h in handles],
        chromosome_order=[c.name for c in wide_assembly.chromosomes],
        **kw)
    return router.start_background()


@pytest.fixture(scope="module")
def fleet(part_indexes):
    handles = start_fleet(part_indexes)
    yield handles
    for handle in handles:
        handle.stop()


@pytest.fixture(scope="module")
def routed(fleet, wide_assembly):
    handle = start_router(fleet, wide_assembly)
    yield handle
    handle.stop()


@pytest.fixture(scope="module")
def expected_wire(reference):
    with ServiceClient(reference.host, reference.port) as client:
        return raw_query(client)["hits"]


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

class TestHelpers:
    def test_partition_covers_everything_contiguously(
            self, wide_assembly):
        parts = partition_chromosomes(wide_assembly, 3)
        flat = [c for part in parts for c in part]
        assert flat == [c.name for c in wide_assembly.chromosomes]
        assert all(part for part in parts)

    def test_partition_bounds(self, wide_assembly):
        with pytest.raises(ValueError, match="partition"):
            partition_chromosomes(wide_assembly, 5)
        with pytest.raises(ValueError, match="partition"):
            partition_chromosomes(wide_assembly, 0)
        single = partition_chromosomes(wide_assembly, 1)
        assert single == [[c.name for c in wide_assembly.chromosomes]]

    def test_replica_plan_holder_counts(self, wide_assembly):
        parts = partition_chromosomes(wide_assembly, 3)
        held = replica_plan(parts, replication=2)
        counts = {}
        for backend in held:
            for chrom in backend:
                counts[chrom] = counts.get(chrom, 0) + 1
        assert set(counts.values()) == {2}
        with pytest.raises(ValueError, match="replication"):
            replica_plan(parts, replication=4)

    def test_parse_backend(self):
        assert parse_backend("localhost:9000") == ("localhost", 9000)
        assert parse_backend(("h", 80)) == ("h", 80)
        for bad in ("no-port", ":80", "h:not-a-port", "h:0"):
            with pytest.raises(ValueError):
                parse_backend(bad)

    def test_fan_out_raises_the_worst_failure(self):
        """Failed partitions answer with one failure: a backend's own
        error, then ``deadline``, then ``unavailable``, then any other
        exception; the first of equals."""
        async def settle(outcome):
            if isinstance(outcome, BaseException):
                raise outcome
            return outcome

        def worst(*outcomes):
            with pytest.raises(Exception) as info:
                asyncio.run(_gather(settle(o) for o in outcomes))
            return info.value

        other = KeyError("row")
        unavailable = RouterError("unavailable", "down")
        deadline = RouterError("deadline", "late")
        first = RequestError("bad-request", "first")
        second = RequestError("closed", "second")
        ok = {"ok": True}
        assert worst(other, unavailable, deadline, ok, first,
                     second) is first
        assert worst(ok, other, unavailable, deadline) is deadline
        assert worst(other, unavailable, ok) is unavailable
        assert worst(other, KeyError("later"), ok) is other
        assert asyncio.run(_gather(settle(ok) for _ in range(2))) == \
            [ok, ok]


# ---------------------------------------------------------------------------
# Happy-path equivalence and protocol surface
# ---------------------------------------------------------------------------

class TestRoutedEquivalence:
    def test_routed_wire_bytes_match_single_server(
            self, routed, expected_wire):
        with ServiceClient(routed.host, routed.port) as client:
            got = raw_query(client)["hits"]
        assert got == expected_wire

    @settings(max_examples=15, deadline=None)
    @given(specs=st.lists(
        st.tuples(st.sampled_from(QUERY_POOL),
                  st.integers(min_value=0, max_value=4)),
        min_size=1, max_size=4))
    def test_equivalence_sweep(self, routed, reference, specs):
        queries = [Query(seq, mm) for seq, mm in specs]
        with ServiceClient(reference.host, reference.port) as ref:
            expected = raw_query(ref, queries)["hits"]
        with ServiceClient(routed.host, routed.port) as client:
            got = raw_query(client, queries)["hits"]
        assert got == expected

    @pytest.mark.parametrize("extra", [
        {"chromosomes": ["chrB"]},
        {"chromosomes": ["chrD", "chrA"]},
        {"chromosomes": ["chrZ"]},
        {"chromosomes": "chrB"},
        {"op": "design", "chrom": "chrA", "start": 0, "end": 400,
         "mismatches": 2, "top": 5, "estimator": "cfd",
         "chromosomes": ["chrB"]},
        {"op": "design", "chrom": "chrZ", "start": 0, "end": 400,
         "mismatches": 2, "top": 5, "estimator": "cfd"},
    ], ids=["one", "across-partitions", "none-held", "malformed",
            "design", "design-unknown-chromosome"])
    def test_chromosome_filter_matches_single_server(
            self, routed, reference, extra):
        """A routed ``query`` keeps only the filter's chromosomes and
        validates the filter as a server does; ``design`` ignores it
        on both tiers, and refuses a chromosome the genome lacks in
        the server's words."""
        request = dict({"op": "query", "id": 1,
                        "queries": [[q.sequence, q.max_mismatches]
                                    for q in QUERIES]}, **extra)
        line = json.dumps(request).encode("ascii") + b"\n"
        expected = converse(reference.host, reference.port, line)
        got = converse(routed.host, routed.port, line)
        assert json.dumps(got) == json.dumps(expected)

    def test_health_reports_fleet(self, routed):
        with ServiceClient(routed.host, routed.port) as client:
            health = client._call({"op": "health"})
        assert health["status"] == "serving"
        assert health["role"] == "router"
        assert health["backends_alive"] == 3
        assert health["pattern"] == PATTERN
        assert health["uncovered"] == []
        assert health["chromosomes"] == ["chrA", "chrB", "chrC",
                                         "chrD"]

    def test_topology_partitions_replicated(self, routed):
        with ServiceClient(routed.host, routed.port) as client:
            topo = client._call({"op": "topology"})["topology"]
        assert topo["uncovered"] == []
        covered = sorted(c for part in topo["partitions"]
                         for c in part["chromosomes"])
        assert covered == ["chrA", "chrB", "chrC", "chrD"]
        for part in topo["partitions"]:
            assert len(part["backends"]) == 2, \
                "replication 2 means every partition has 2 holders"

    def test_stats_shape(self, routed):
        with ServiceClient(routed.host, routed.port) as client:
            raw_query(client)
            stats = client._call({"op": "stats"})["stats"]
        assert stats["requests"] >= 1
        assert stats["backends_total"] == 3
        assert set(stats["hedges"]) == {"launched", "won", "lost"}
        assert stats["subrequest_latency_ms"]["count"] >= 1

    def test_unknown_op_and_bad_request(self, routed):
        with ServiceClient(routed.host, routed.port) as client:
            for op in ("nope", "rollover"):
                with pytest.raises(ServiceError, match="unknown-op"):
                    client._call({"op": op})
            with pytest.raises(ServiceError, match="bad-request"):
                client._call({"op": "query", "queries": []})
            with pytest.raises(ServiceError, match="bad-request"):
                client._call({"op": "query",
                              "queries": [["GACGTCNN", 3]],
                              "deadline_s": "soon"})

    def test_over_limit_line_is_bad_request(self, routed):
        for writes in over_limit_writes(MAX_LINE_BYTES):
            bad, health = converse(routed.host, routed.port, *writes)
            assert bad["ok"] is False and bad["error"] == "bad-request"
            assert str(MAX_LINE_BYTES) in bad["message"]
            assert health["ok"] and health["id"] == "after"

    def test_deeply_nested_json_is_bad_json(self, routed):
        bad, health = converse(routed.host, routed.port,
                               nested_query_line(100_000), HEALTH_LINE)
        assert bad["ok"] is False and bad["error"] == "bad-json"
        assert health["ok"] and health["id"] == "after"

    def test_near_limit_query_keeps_backends(self, full_index,
                                             wide_assembly):
        # Under the router's limit, but the chromosome filter and id
        # the router adds push each sub-request past the backends':
        # their typed answer must come back unchanged, with no retry
        # and no healthy backend ejected.
        handles = [OffTargetServer(full_index,
                                   max_wait_ms=1.0).start_background()
                   for _ in range(2)]
        router_handle = start_router(handles, wide_assembly)
        try:
            bad, health = converse(
                router_handle.host, router_handle.port,
                query_line(MAX_LINE_BYTES - 9), HEALTH_LINE)
            assert bad["ok"] is False and bad["error"] == "bad-request"
            assert str(MAX_LINE_BYTES) in bad["message"]
            assert health["ok"] and health["backends_alive"] == 2
            with ServiceClient(router_handle.host,
                               router_handle.port) as client:
                stats = client._call({"op": "stats"})["stats"]
            assert stats["backends_alive"] == 2
            assert stats["retries"] == 0
        finally:
            router_handle.stop()
            for handle in handles:
                handle.stop()

    def test_uncovered_chromosome_is_unavailable(
            self, part_indexes, wide_assembly):
        # A router told the genome has chrA..chrD but whose only
        # backend holds a subset must refuse rather than answer with
        # silently missing hits.
        handle = OffTargetServer(part_indexes[0][1],
                                 max_wait_ms=1.0).start_background()
        router_handle = start_router([handle], wide_assembly)
        try:
            with ServiceClient(router_handle.host,
                               router_handle.port) as client:
                with pytest.raises(ServiceError, match="unavailable"):
                    raw_query(client)
        finally:
            router_handle.stop()
            handle.stop()


class TestRoutedEnzyme:
    """A routed request naming an enzyme reaches the backends as sent:
    it runs on that enzyme's index, and a name no backend hosts is
    refused."""

    @pytest.fixture(scope="class")
    def alt_fleet(self):
        """The router smoke's fleet: three backends (replication 2)
        hosting an extra ``Alt`` enzyme behind a router, and a
        reference server hosting it over the whole genome."""
        assembly = synthetic_assembly("hg19", scale=0.00005, seed=7)
        alt = CasEnzyme("Alt", 6, "GG", "3prime", "mit", "NNNNNNGG")

        def serve(genome):
            return OffTargetServer(
                GenomeSiteIndex.build(genome, PATTERN), max_wait_ms=1.0,
                enzymes=[(alt, GenomeSiteIndex.build(genome,
                                                     alt.pattern))]
            ).start_background()

        reference = serve(assembly)
        held = replica_plan(partition_chromosomes(assembly, 3), 2)
        backends = [serve(assembly.subset(chroms)) for chroms in held]
        router = start_router(backends, assembly)
        yield reference, router, assembly.chromosomes[0].name
        router.stop()
        for handle in [reference, *backends]:
            handle.stop()

    def test_routed_enzyme_requests_match_the_server(self, alt_fleet):
        reference, router, chrom = alt_fleet
        requests = [
            {"op": "query", "id": 1, "enzyme": "Alt",
             "queries": [[q.sequence, q.max_mismatches]
                         for q in QUERIES]},
            {"op": "design", "id": 2, "enzyme": "Alt", "chrom": chrom,
             "start": 0, "end": 400, "mismatches": 2, "top": 5,
             "estimator": "cfd"}]
        lines = [json.dumps(r).encode("ascii") + b"\n"
                 for r in requests]
        expected = converse(reference.host, reference.port, *lines)
        routed = converse(router.host, router.port, *lines)
        assert [json.dumps(a) for a in routed] == \
            [json.dumps(a) for a in expected]
        query, design = expected
        assert query["ok"] and any(query["hits"])
        assert design["ok"] and design["pattern"] == "NNNNNNGG"
        assert design["reports"]

    def test_routed_enzymes_count_the_whole_genome(self, alt_fleet):
        # Every partition counts its own chromosomes and the router
        # sums them, with or without a client filter; no backend's
        # fingerprint stands for the whole genome, so none is sent.
        reference, router, chrom = alt_fleet
        lines = [json.dumps(r).encode("ascii") + b"\n" for r in (
            {"op": "enzymes"},
            {"op": "enzymes", "chromosomes": [chrom, "chrX"]})]
        expected = converse(reference.host, reference.port, *lines)
        routed = converse(router.host, router.port, *lines)
        whole, filtered = expected
        for entry in whole["enzymes"] + filtered["enzymes"]:
            del entry["fingerprint"]
        assert routed == expected
        assert 0 < filtered["enzymes"][0]["sites"] \
            < whole["enzymes"][0]["sites"]

    def test_unknown_enzyme_is_bad_request(self, alt_fleet):
        _, router, _ = alt_fleet
        with ServiceClient(router.host, router.port) as client:
            with pytest.raises(ServiceError,
                               match="bad-request.*unknown enzyme"):
                raw_query(client, enzyme="Nope")


# ---------------------------------------------------------------------------
# Failover: crash mid-batch, ejection, readmission
# ---------------------------------------------------------------------------

class TestFailover:
    def test_killed_backend_fails_over_byte_identically(
            self, part_indexes, wide_assembly, expected_wire):
        handles = start_fleet(part_indexes)
        router_handle = start_router(handles, wide_assembly)
        client = ServiceClient(router_handle.host, router_handle.port,
                               retries=4)
        try:
            assert raw_query(client)["hits"] == expected_wire
            handles[0].stop()  # the fleet loses a backend mid-run
            for _ in range(10):
                assert raw_query(client)["hits"] == expected_wire, \
                    "replica failover must stay byte-identical"

            def ejected():
                stats = client._call({"op": "stats"})["stats"]
                return stats["backends_alive"] == 2
            assert wait_until(ejected), \
                "dead backend was never ejected"
            # Still fully covered: replication 2 means the two
            # survivors hold every chromosome between them.
            health = client._call({"op": "health"})
            assert health["uncovered"] == []
            assert health["status"] == "degraded"
        finally:
            client.close()
            router_handle.stop()
            for handle in handles[1:]:
                handle.stop()

    def test_restarted_backend_is_readmitted(
            self, part_indexes, wide_assembly, expected_wire):
        handles = start_fleet(part_indexes)
        router_handle = start_router(handles, wide_assembly)
        client = ServiceClient(router_handle.host, router_handle.port,
                               retries=4)
        replacement = None
        try:
            freed_port = handles[0].port
            handles[0].stop()
            assert wait_until(
                lambda: client._call({"op": "stats"})["stats"]
                ["backends_alive"] == 2)
            # Restart on the same address (a supervisor restart).
            server = OffTargetServer(part_indexes[0][1],
                                     port=freed_port, max_wait_ms=1.0)
            replacement = server.start_background()
            assert wait_until(
                lambda: client._call({"op": "stats"})["stats"]
                ["backends_alive"] == 3), \
                "restarted backend was never readmitted"
            topo = client._call({"op": "topology"})["topology"]
            backend0 = topo["backends"][0]
            assert backend0["alive"]
            assert backend0["readmissions"] >= 1
            assert raw_query(client)["hits"] == expected_wire
        finally:
            client.close()
            router_handle.stop()
            if replacement is not None:
                replacement.stop()
            for handle in handles[1:]:
                handle.stop()

    def test_half_open_disconnects_retry_byte_identically(
            self, part_indexes, wide_assembly, expected_wire):
        # Backend 0 drops the connection without responding on its
        # first two query requests (a half-open connection); the
        # router must retry a replica and the client must see nothing.
        handles = start_fleet(part_indexes, per_backend_kw={
            0: {"request_fault_plan": "disconnect@0,disconnect@1"}})
        router_handle = start_router(handles, wide_assembly,
                                     hedge_ms=0)
        try:
            with ServiceClient(router_handle.host, router_handle.port,
                               retries=4) as client:
                for _ in range(5):
                    assert raw_query(client)["hits"] == expected_wire
                stats = client._call({"op": "stats"})["stats"]
                assert stats["retries"] >= 1
        finally:
            router_handle.stop()
            for handle in handles:
                handle.stop()

    def test_all_replicas_down_is_unavailable(
            self, part_indexes, wide_assembly):
        handles = start_fleet(part_indexes)
        router_handle = start_router(handles, wide_assembly,
                                     max_attempts=2)
        try:
            client = ServiceClient(router_handle.host,
                                   router_handle.port, retries=2)
            for handle in handles:
                handle.stop()
            with pytest.raises(ServiceError,
                               match="unavailable|disconnected"):
                for _ in range(10):
                    raw_query(client)
            client.close()
        finally:
            router_handle.stop()


# ---------------------------------------------------------------------------
# Hedged reads
# ---------------------------------------------------------------------------

class TestHedging:
    def test_hedge_wins_over_stalled_primary(
            self, part_indexes, wide_assembly, expected_wire):
        # Backend 0 (the config-order primary for its partitions)
        # stalls every query for 0.5 s; with a 30 ms hedge the replica
        # answers first and the response must still be byte-identical.
        handles = start_fleet(part_indexes, per_backend_kw={
            0: {"request_fault_plan": "stall@0:0.5x100"}})
        router_handle = start_router(handles, wide_assembly,
                                     hedge_ms=30.0,
                                     probe_interval_s=5.0)
        try:
            with ServiceClient(router_handle.host, router_handle.port,
                               retries=4) as client:
                began = time.perf_counter()
                assert raw_query(client)["hits"] == expected_wire
                elapsed = time.perf_counter() - began
                assert elapsed < 0.5, \
                    "the hedge should beat the 0.5 s stall"
                stats = client._call({"op": "stats"})["stats"]
                assert stats["hedges"]["launched"] >= 1
                assert stats["hedges"]["won"] >= 1
        finally:
            router_handle.stop()
            for handle in handles:
                handle.stop()

    def test_losing_hedge_is_cancelled(
            self, part_indexes, wide_assembly, expected_wire):
        # With an aggressive 1 ms hedge nearly every sub-request
        # hedges; the losing leg is cancelled, never answers the
        # client, and every hedge is counted won or lost.
        handles = start_fleet(part_indexes)
        router_handle = start_router(handles, wide_assembly,
                                     hedge_ms=1.0)
        try:
            with ServiceClient(router_handle.host, router_handle.port,
                               retries=4) as client:
                for _ in range(10):
                    assert raw_query(client)["hits"] == expected_wire
                hedges = client._call({"op": "stats"})["stats"]["hedges"]
            assert hedges["launched"] >= 1
            assert hedges["won"] + hedges["lost"] == hedges["launched"]
        finally:
            router_handle.stop()
            for handle in handles:
                handle.stop()

    def test_auto_hedge_delay_tracks_p95(self, wide_assembly):
        router = OffTargetRouter(["127.0.0.1:1"], hedge_ms=None)
        assert router._hedge_delay_s() == 0.05, \
            "cold start uses the fixed default"
        for _ in range(100):
            router._sub_latencies_ms.append(20.0)
        assert router._hedge_delay_s() == pytest.approx(0.03)
        router = OffTargetRouter(["127.0.0.1:1"], hedge_ms=0)
        assert router._hedge_delay_s() is None, "0 disables hedging"


# ---------------------------------------------------------------------------
# Client reconnect
# ---------------------------------------------------------------------------

class _FlakyServer:
    """A TCP server that drops the first N connections' requests."""

    def __init__(self, drop_first: int = 1, wrong_id: bool = False):
        self.drop_first = drop_first
        self.wrong_id = wrong_id
        self.connections = 0
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._serve,
                                        daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            self.connections += 1
            with conn:
                # Close the makefile explicitly: it holds a reference
                # to the fd, so `with conn` alone would never send FIN
                # and a "dropped" connection would just hang.
                handle = conn.makefile("rwb")
                try:
                    line = handle.readline()
                    if not line:
                        continue
                    if self.connections <= self.drop_first:
                        continue  # close without answering: reset
                    request = json.loads(line)
                    response = {"ok": True, "hits": [[]]}
                    if "id" in request:
                        response["id"] = ("bogus" if self.wrong_id
                                          else request["id"])
                    handle.write(json.dumps(response).encode() + b"\n")
                    handle.flush()
                finally:
                    handle.close()

    def close(self):
        self._sock.close()


class TestClientReconnect:
    def test_reconnects_and_resends_same_request(self):
        server = _FlakyServer(drop_first=1)
        try:
            client = ServiceClient("127.0.0.1", server.port,
                                   retries=2, backoff_s=0.01)
            response = client._call({"op": "query",
                                     "queries": [["GACGTCNN", 0]]})
            assert response["ok"]
            assert client.reconnects >= 1
            assert server.connections >= 2
            client.close()
        finally:
            server.close()

    def test_no_retries_surfaces_disconnect(self):
        server = _FlakyServer(drop_first=10)
        try:
            client = ServiceClient("127.0.0.1", server.port,
                                   retries=0)
            with pytest.raises(ServiceError, match="disconnected"):
                client._call({"op": "health"})
            client.close()
        finally:
            server.close()

    def test_mismatched_response_id_is_protocol_error(self):
        server = _FlakyServer(drop_first=0, wrong_id=True)
        try:
            client = ServiceClient("127.0.0.1", server.port,
                                   retries=0)
            with pytest.raises(ServiceError, match="protocol"):
                client._call({"op": "health"})
            client.close()
        finally:
            server.close()

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            ServiceClient("127.0.0.1", 1, retries=-1)


# ---------------------------------------------------------------------------
# Graceful drain
# ---------------------------------------------------------------------------

class TestDrain:
    def test_in_process_drain_finishes_inflight(self, full_index):
        server = OffTargetServer(full_index, max_wait_ms=1.0,
                                 request_fault_plan="stall@1:0.3",
                                 drain_s=5.0)
        handle = server.start_background()
        client = ServiceClient(handle.host, handle.port,
                               timeout_s=30.0)
        raw_query(client)  # request 0: warms the connection
        result = {}

        def slow_request():
            # Request 1 stalls 0.3 s server-side; the drain must wait
            # for it rather than cut the connection.
            result["response"] = raw_query(client)
        thread = threading.Thread(target=slow_request)
        thread.start()
        time.sleep(0.1)  # let the stalled request get admitted
        handle.drain(timeout_s=10.0)
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert result["response"]["ok"], \
            "an admitted request must survive the drain"
        client.close()
        with pytest.raises(OSError):
            socket.create_connection((handle.host, handle.port),
                                     timeout=1.0)

    def test_router_drain_finishes_inflight(self, full_index,
                                            wide_assembly):
        backend = OffTargetServer(
            full_index, max_wait_ms=1.0,
            request_fault_plan="stall@1:0.5").start_background()
        router_handle = start_router([backend], wide_assembly)
        client = ServiceClient(router_handle.host, router_handle.port,
                               timeout_s=30.0)
        try:
            raw_query(client)  # backend request 0: warms the pools
            result = {}

            def slow_request():
                # Backend request 1 stalls 0.5 s; the router's drain
                # must wait for its routed answer.
                result["response"] = raw_query(client)
            thread = threading.Thread(target=slow_request)
            thread.start()
            time.sleep(0.1)  # let the stalled request get admitted
            router_handle.drain(timeout_s=10.0)
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert result["response"]["ok"], \
                "an admitted routed request must survive the drain"
            with pytest.raises(OSError):
                socket.create_connection(
                    (router_handle.host, router_handle.port),
                    timeout=1.0)
        finally:
            client.close()
            router_handle.stop()
            backend.stop()

    def test_drained_scheduler_counts_settle(self, full_index):
        server = OffTargetServer(full_index, max_wait_ms=1.0)
        handle = server.start_background()
        with ServiceClient(handle.host, handle.port) as client:
            raw_query(client)
            stats = client._call({"op": "stats"})["stats"]
        assert stats["completed"] == 1
        assert stats["queue_depth"] == 0
        handle.drain()

    @pytest.mark.slow
    def test_sigterm_drains_exits_zero_removes_ready_file(
            self, tmp_path):
        ready = tmp_path / "server.ready"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--synthetic", "hg19", "--scale", "0.00002",
             "--seed", "7", "--pattern", PATTERN,
             "--chromosomes", "chr21,chr22",
             "--max-wait-ms", "1.0", "--drain-s", "5.0",
             "--ready-file", str(ready)],
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=REPO_ROOT)
        try:
            assert wait_until(ready.exists, timeout_s=90.0)
            host, port = ready.read_text().split()
            with ServiceClient(host, int(port)) as client:
                assert client._call({"op": "health"})["ok"]
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30.0) == 0, \
                "SIGTERM must exit 0 after draining"
            assert not ready.exists(), \
                "a drained server must remove its ready file"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)

    @pytest.mark.slow
    def test_route_sigterm_exits_zero_removes_ready_file(
            self, tmp_path, full_index):
        backend = OffTargetServer(full_index,
                                  max_wait_ms=1.0).start_background()
        ready = tmp_path / "router.ready"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "route",
             "--backend", f"{backend.host}:{backend.port}",
             "--ready-file", str(ready)],
            env={**os.environ, "PYTHONPATH": "src"}, cwd=REPO_ROOT)
        try:
            assert wait_until(ready.exists, timeout_s=90.0)
            host, port = ready.read_text().split()
            with ServiceClient(host, int(port)) as client:
                health = client._call({"op": "health"})
            assert health["backends_alive"] == 1, \
                "a ready router has probed its fleet"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30.0) == 0, \
                "SIGTERM must exit 0 after draining"
            assert not ready.exists(), \
                "a drained router must remove its ready file"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)
            backend.stop()


# ---------------------------------------------------------------------------
# Acceptance: SIGKILL a real backend under load, zero failed requests
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestSubprocessAcceptance:
    def test_sigkilled_backend_is_absorbed(self, tmp_path):
        scale, seed = 0.00002, 7
        chrom_sets = ["chr20,chr21", "chr21,chr22", "chr22,chr20"]
        order = ["chr20", "chr21", "chr22"]
        procs, readies = [], []
        router_handle = None
        reference = None
        try:
            for i, chroms in enumerate(chrom_sets):
                ready = tmp_path / f"backend-{i}.ready"
                readies.append(ready)
                procs.append(subprocess.Popen(
                    [sys.executable, "-m", "repro.cli", "serve",
                     "--synthetic", "hg19", "--scale", str(scale),
                     "--seed", str(seed), "--pattern", PATTERN,
                     "--chromosomes", chroms,
                     "--max-wait-ms", "1.0",
                     "--ready-file", str(ready)],
                    env={**os.environ, "PYTHONPATH": "src"},
                    cwd=REPO_ROOT))
            addrs = []
            for ready in readies:
                assert wait_until(ready.exists, timeout_s=120.0)
                host, port = ready.read_text().split()
                addrs.append(f"{host}:{port}")

            assembly = synthetic_assembly(
                "hg19", scale=scale, seed=seed, chromosomes=order)
            ref_index = GenomeSiteIndex.build(assembly, PATTERN)
            reference = OffTargetServer(
                ref_index, max_wait_ms=1.0).start_background()
            with ServiceClient(reference.host,
                               reference.port) as ref:
                expected = raw_query(ref)["hits"]

            router = OffTargetRouter(addrs, chromosome_order=order,
                                     probe_interval_s=0.1)
            router_handle = router.start_background()
            client = ServiceClient(router_handle.host,
                                   router_handle.port, retries=4)
            failed = 0
            for i in range(30):
                if i == 5:
                    procs[0].send_signal(signal.SIGKILL)
                try:
                    assert raw_query(client)["hits"] == expected
                except ServiceError:
                    failed += 1
            assert failed == 0, \
                f"{failed} requests failed across the SIGKILL"
            assert wait_until(
                lambda: client._call({"op": "stats"})["stats"]
                ["backends_alive"] == 2), "crash was never detected"
            client.close()
        finally:
            if router_handle is not None:
                router_handle.stop()
            if reference is not None:
                reference.stop()
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
                    try:
                        proc.wait(timeout=15.0)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait(timeout=10.0)
