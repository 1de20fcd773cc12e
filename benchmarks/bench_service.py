"""Service benchmark: batched serving vs per-query offline baseline.

Measures the payoff of the query service's two amortizations — the
resident site index (finder runs once, not per request) and continuous
batching (concurrent requests share one comparer pass) —
against the obvious alternative: every request runs a fresh end-to-end
search, as a one-process-per-query deployment would.

* ``baseline``: N concurrent threads, each repeatedly running a full
  ``search()`` (finder + comparer over every chunk) for its query,
  for the measurement window.  This stands in for the
  one-process-per-query baseline without paying interpreter startup,
  so it flatters the baseline if anything.
* ``service``: the same genome behind a :class:`GenomeSiteIndex` and
  :class:`OffTargetServer`; the load generator drives it at several
  concurrency levels through real sockets.  Every micro-batch runs the
  index's one comparer, the bit-parallel pass (XOR + odd-bit fold +
  popcount) over its resident 2-bit planes.
* ``--router`` (separate pass, merged into the same JSON under
  ``router``): a 3-backend chromosome-partitioned fleet behind
  :class:`OffTargetRouter` vs the same genome on one server.  With
  all backends in-process on one host this measures the routing tier's
  *overhead* (extra hop, fan-out, merge) plus hedged-read tail
  behavior — not horizontal scaling; ``router.caveat`` spells that
  out and ``host.cpus`` is recorded so the numbers read honestly.

All sides serve identical single-guide requests drawn round-robin
from the same pool.  The report lands in ``BENCH_SERVICE.json`` with
throughput, latency percentiles and the server's own stats snapshot
(queue depth, batch-size histogram), its counters covering each
concurrency level alone.  Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_service.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.config import Query, SearchRequest
from repro.core.pipeline import search
from repro.genome.synthetic import synthetic_assembly
from repro.service import GenomeSiteIndex, OffTargetServer
from repro.service.client import ServiceClient
from repro.service.scheduler import percentile

#: The paper's evaluation shape: SpCas9 NRG PAM, 20-nt guides, up to 4
#: mismatches.  Few hits per request, so wall time is dominated by the
#: finder scan (baseline only) and the vectorized comparer — the regime
#: the resident index and batching target.
PATTERN = "NNNNNNNNNNNNNNNNNNNNNRG"
QUERY_POOL = [
    Query("GGCCGACCTGTCGCTGACGCNNN", 4),
    Query("CGCCAGCGTCAGCGACAGGTNNN", 4),
    Query("ACGGCGCCAGCGTCAGCGACNNN", 4),
    Query("ACGTACGTACGTACGTACGTNNN", 4),
]


def bench_baseline(assembly, clients: int, duration_s: float,
                   chunk_size: int, device: str) -> dict:
    """N threads, each running fresh full searches for its query."""
    results = []
    lock = threading.Lock()
    start_gate = threading.Event()
    stop_at_holder = []

    def _worker(worker_index: int) -> None:
        query = QUERY_POOL[worker_index % len(QUERY_POOL)]
        request = SearchRequest(pattern=PATTERN, queries=[query])
        completed = 0
        latencies = []
        start_gate.wait()
        stop_at = stop_at_holder[0]
        while time.perf_counter() < stop_at:
            began = time.perf_counter()
            search(assembly, request, device=device,
                   chunk_size=chunk_size)
            latencies.append((time.perf_counter() - began) * 1000.0)
            completed += 1
        with lock:
            results.append((completed, latencies))

    threads = [threading.Thread(target=_worker, args=(i,))
               for i in range(clients)]
    for thread in threads:
        thread.start()
    began = time.perf_counter()
    stop_at_holder.append(began + duration_s)
    start_gate.set()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - began
    completed = sum(r[0] for r in results)
    latencies = sorted(ms for r in results for ms in r[1])
    return {
        "clients": clients,
        "duration_s": elapsed,
        "requests": completed,
        "throughput_rps": completed / elapsed if elapsed > 0 else 0.0,
        "latency_ms": {
            "count": len(latencies),
            "mean": (sum(latencies) / len(latencies)
                     if latencies else None),
            "p50": percentile(latencies, 0.50),
            "p95": percentile(latencies, 0.95),
            "p99": percentile(latencies, 0.99),
            "max": latencies[-1] if latencies else None,
        },
    }


def run_bench(scale: float, chunk_size: int, duration_s: float,
              concurrency: list, device: str, max_batch: int,
              max_wait_ms: float) -> dict:
    assembly = synthetic_assembly("hg19", scale=scale, seed=42)
    build_began = time.perf_counter()
    index = GenomeSiteIndex.build(assembly, PATTERN)
    build_s = time.perf_counter() - build_began

    baseline = {}
    service = {}
    server = OffTargetServer(index, max_batch=max_batch,
                             max_wait_ms=max_wait_ms,
                             max_queue=max(64, 4 * max(concurrency)))
    handle = server.start_background()
    try:
        for clients in concurrency:
            print(f"baseline @ {clients} clients ...", flush=True)
            baseline[str(clients)] = bench_baseline(
                assembly, clients, duration_s, chunk_size, device)
            print(f"service  @ {clients} clients ...", flush=True)
            # Mirror the baseline exactly: client i sends the same
            # single-guide request baseline worker i runs.
            queries_by_client = [
                [QUERY_POOL[i % len(QUERY_POOL)]]
                for i in range(clients)]
            service[str(clients)] = _service_load(
                handle, queries_by_client, duration_s)
    finally:
        handle.stop()

    speedup = {
        clients: (service[clients]["throughput_rps"]
                  / baseline[clients]["throughput_rps"]
                  if baseline[clients]["throughput_rps"] > 0 else None)
        for clients in baseline
    }
    return {
        "host": {"cpus": os.cpu_count()},
        "workload": {
            "profile": "hg19", "scale": scale, "seed": 42,
            "pattern": PATTERN, "chunk_size": chunk_size,
            "device": device, "query_pool": len(QUERY_POOL),
            "chunks": index.chunk_count, "sites": index.site_count,
        },
        "config": {
            "duration_s": duration_s, "concurrency": concurrency,
            "max_batch": max_batch, "max_wait_ms": max_wait_ms,
            "index_build_s": build_s,
        },
        "baseline": baseline,
        "service": service,
        "speedup_throughput": speedup,
    }


#: ``stats`` fields that only count up, on a server or a router; every
#: other field is a gauge.
COUNTERS = ("completed", "rejected", "expired", "batches", "flushes",
            "requests_by_kind", "batch_size_histogram", "comparer",
            "requests", "retries", "hedges")


def _delta(after, before):
    if isinstance(after, dict):
        return {key: _delta(value, before.get(key, 0))
                for key, value in after.items()}
    return after - before


def _level_stats(before: dict, after: dict) -> dict:
    """One load level's share of a long-lived server's ``stats``:
    counters as the level's delta, gauges as read after it."""
    level = dict(after)
    for key in COUNTERS:
        if key in after:
            level[key] = _delta(after[key], before[key])
    if "batch_size_histogram" in level:
        level["batch_size_histogram"] = {
            size: count
            for size, count in level["batch_size_histogram"].items()
            if count}
    return level


def _service_load(handle, queries_by_client, duration_s: float) -> dict:
    """Like run_load, but each client thread sends its own query list.

    A client thread that fails ends; once every thread has joined, the
    first such exception re-raises.  The server outlives the level, so
    ``server_stats`` reports the level's own counters
    (:func:`_level_stats`).
    """
    with ServiceClient(handle.host, handle.port) as client:
        stats_before = client.stats()
    results = []
    failures = []
    lock = threading.Lock()
    start_gate = threading.Event()
    stop_at_holder = []

    def _worker(queries) -> None:
        completed = 0
        latencies = []
        try:
            with ServiceClient(handle.host, handle.port) as client:
                start_gate.wait()
                stop_at = stop_at_holder[0]
                while time.perf_counter() < stop_at:
                    began = time.perf_counter()
                    client.query(queries)
                    latencies.append(
                        (time.perf_counter() - began) * 1000.0)
                    completed += 1
        except Exception as exc:  # noqa: BLE001 - re-raised after join
            with lock:
                failures.append(exc)
            return
        with lock:
            results.append((completed, latencies))

    threads = [threading.Thread(target=_worker, args=(qs,))
               for qs in queries_by_client]
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

    with ServiceClient(handle.host, handle.port) as client:
        server_stats = _level_stats(stats_before, client.stats())

    completed = sum(r[0] for r in results)
    latencies = sorted(ms for r in results for ms in r[1])
    return {
        "clients": len(queries_by_client),
        "duration_s": elapsed,
        "requests": completed,
        "throughput_rps": completed / elapsed if elapsed > 0 else 0.0,
        "latency_ms": {
            "count": len(latencies),
            "mean": (sum(latencies) / len(latencies)
                     if latencies else None),
            "p50": percentile(latencies, 0.50),
            "p95": percentile(latencies, 0.95),
            "p99": percentile(latencies, 0.99),
            "max": latencies[-1] if latencies else None,
        },
        "server_stats": server_stats,
    }


def run_router_bench(scale: float, duration_s: float,
                     concurrency: list, max_batch: int,
                     max_wait_ms: float, backends: int) -> dict:
    """Routed fleet vs single server over the same genome."""
    from repro.service import (OffTargetRouter, partition_chromosomes,
                               replica_plan)

    assembly = synthetic_assembly("hg19", scale=scale, seed=42)
    index = GenomeSiteIndex.build(assembly, PATTERN)
    max_queue = max(64, 4 * max(concurrency))

    single = {}
    server = OffTargetServer(index, max_batch=max_batch,
                             max_wait_ms=max_wait_ms,
                             max_queue=max_queue)
    handle = server.start_background()
    try:
        for clients in concurrency:
            print(f"single   @ {clients} clients ...", flush=True)
            queries_by_client = [[QUERY_POOL[i % len(QUERY_POOL)]]
                                 for i in range(clients)]
            single[str(clients)] = _service_load(
                handle, queries_by_client, duration_s)
    finally:
        handle.stop()

    held = replica_plan(partition_chromosomes(assembly, backends),
                        replication=2)
    backend_handles = [
        OffTargetServer(
            GenomeSiteIndex.build(assembly.subset(chroms), PATTERN),
            max_batch=max_batch, max_wait_ms=max_wait_ms,
            max_queue=max_queue).start_background()
        for chroms in held]
    router = OffTargetRouter(
        [f"{h.host}:{h.port}" for h in backend_handles],
        chromosome_order=[c.name for c in assembly.chromosomes],
        probe_interval_s=0.5)
    router_handle = router.start_background()
    routed = {}
    try:
        for clients in concurrency:
            print(f"routed   @ {clients} clients "
                  f"({backends} backends, replication 2) ...",
                  flush=True)
            queries_by_client = [[QUERY_POOL[i % len(QUERY_POOL)]]
                                 for i in range(clients)]
            routed[str(clients)] = _service_load(
                router_handle, queries_by_client, duration_s)
        with ServiceClient(router_handle.host,
                           router_handle.port) as client:
            router_stats = client._call({"op": "stats"})["stats"]
    finally:
        router_handle.stop()
        for backend in backend_handles:
            backend.stop()

    speedup_routed = {
        clients: (routed[clients]["throughput_rps"]
                  / single[clients]["throughput_rps"]
                  if single[clients]["throughput_rps"] > 0 else None)
        for clients in single
    }
    return {
        "host": {"cpus": os.cpu_count()},
        "workload": {
            "profile": "hg19", "scale": scale, "seed": 42,
            "pattern": PATTERN,
            "chunks": index.chunk_count, "sites": index.site_count,
        },
        "config": {
            "duration_s": duration_s, "concurrency": concurrency,
            "max_batch": max_batch, "max_wait_ms": max_wait_ms,
            "backends": backends, "replication": 2,
        },
        "caveat": (
            f"all {backends} backends, the router and the clients "
            f"share one {os.cpu_count()}-cpu host and the GIL; "
            f"speedup_routed measures the routing tier's overhead "
            f"(extra hop, fan-out, merge), not horizontal scaling"),
        "service_single": single,
        "service_routed": routed,
        "speedup_routed": speedup_routed,
        # hedges + sub-request latency tail over the whole routed
        # pass: the hedged p99 story.
        "router_stats": router_stats,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.0002,
                        help="synthetic hg19 scale (~620 kbp)")
    parser.add_argument("--chunk-size", type=int, default=1 << 16,
                        help="chunk size in bases of the fresh-search "
                             "baseline (the index scans each "
                             "chromosome whole)")
    parser.add_argument("--duration", type=float, default=5.0,
                        help="seconds per measurement window")
    parser.add_argument("--concurrency", type=int, nargs="+",
                        default=[1, 8],
                        help="client counts to measure")
    parser.add_argument("--max-batch", type=int, default=8)
    parser.add_argument("--max-wait-ms", type=float, default=2.0)
    parser.add_argument("--device", default="MI100",
                        help="modeled device of the fresh-search "
                             "baseline (the index needs none)")
    parser.add_argument("--router", action="store_true",
                        help="run the routed-fleet vs single-server "
                             "pass only and merge it into the report "
                             "under 'router' (other sections are "
                             "preserved)")
    parser.add_argument("--backends", type=int, default=3,
                        help="backend servers for the --router pass")
    parser.add_argument("-o", "--output",
                        default=os.path.join(os.path.dirname(__file__),
                                             "..", "BENCH_SERVICE.json"))
    args = parser.parse_args(argv)
    path = os.path.abspath(args.output)
    if args.router:
        section = run_router_bench(
            scale=args.scale,
            duration_s=args.duration, concurrency=args.concurrency,
            max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
            backends=args.backends)
        report = {}
        if os.path.exists(path):
            with open(path) as handle:
                report = json.load(handle)
        report["router"] = section
        with open(path, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        for clients in section["service_single"]:
            single = section["service_single"][clients]
            routed = section["service_routed"][clients]
            print(f"{clients:>3} clients: single "
                  f"{single['throughput_rps']:7.2f} req/s "
                  f"(p99 {single['latency_ms']['p99']:7.1f} ms) | "
                  f"routed {routed['throughput_rps']:7.2f} req/s "
                  f"(p99 {routed['latency_ms']['p99']:7.1f} ms) | "
                  f"{section['speedup_routed'][clients]:.2f}x")
        hedges = section["router_stats"]["hedges"]
        sub = section["router_stats"]["subrequest_latency_ms"]
        print(f"hedges: {hedges['launched']} launched, "
              f"{hedges['won']} won | "
              f"sub-request p99 {sub['p99']:.1f} ms over "
              f"{sub['count']} samples")
        print(section["caveat"])
        print(f"wrote {path}")
        return 0
    report = run_bench(scale=args.scale, chunk_size=args.chunk_size,
                       duration_s=args.duration,
                       concurrency=args.concurrency,
                       device=args.device, max_batch=args.max_batch,
                       max_wait_ms=args.max_wait_ms)
    existing = {}
    if os.path.exists(path):
        with open(path) as handle:
            try:
                existing = json.load(handle)
            except ValueError:
                existing = {}
    if "router" in existing:
        report["router"] = existing["router"]
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for clients in report["baseline"]:
        base = report["baseline"][clients]
        serv = report["service"][clients]
        ratio = report["speedup_throughput"][clients]
        print(f"{clients:>3} clients: baseline "
              f"{base['throughput_rps']:7.2f} req/s "
              f"(p95 {base['latency_ms']['p95']:7.1f} ms) | service "
              f"{serv['throughput_rps']:7.2f} req/s "
              f"(p95 {serv['latency_ms']['p95']:7.1f} ms) | "
              f"{ratio:.2f}x")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
