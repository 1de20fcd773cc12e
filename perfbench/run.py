"""Served-stack benchmark: query, design, variant and routed workloads.

    python3 perfbench/run.py --workload query --seed 42 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all

One run builds its inputs from ``--seed`` (a synthetic hg19 assembly at
scale 0.0002 written to a FASTA file, a guide pool, design windows and
haplotypes) and the expected payload of every request from an
in-process index over that FASTA.  It then starts the served stack
through the repository's CLI (``serve``, ``route``) in separate
processes, drives it in a closed loop from this one process (at most
``nproc`` = 2 connections, a warm-up before every timed window), checks
every response, and prints one JSON result as the last line of stdout.

``--trace 0`` reports the end-to-end metrics, measured with no spans
installed.  ``--trace 1`` follows that plain run with a second one that
has layer spans installed in every process, and reports the per-layer
metrics from it, with its p50 relative to the plain one as the tracing
overhead.  ``--workload all`` does both for every workload and adds the
counters that stayed at 0 in every workload that reads them.

Requests are timed around the public ``ServiceClient`` call.  A request
fails on an error response, a timeout, or a response that differs from
its expected payload; any failure makes the exit status 1.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Server starts per plain run; ``setup_s`` is their median.
SETUP_REPEATS = 3
WARMUP_S = 1.0
REQUEST_TIMEOUT_S = 120.0
#: A window grows past ``--seconds`` (up to this factor) until it holds
#: ``MEDIAN_SAMPLES`` requests and its tail percentile has
#: ``measure.TAIL_BEYOND`` samples beyond it.
WINDOW_GROWTH = 4
#: Requests a window needs before its median is reported.  ``variant``
#: takes 2-4 s a request on the 2-core bench host and got 4-7 in a 15-s
#: window; its requests vary by ~10% within a run, so a median of 8 is
#: within ~5% while a run stays under a minute.
MEDIAN_SAMPLES = 8

#: The tail printed with every run (windows grow until it has 10 samples
#: beyond it).  It is not a judged metric: on the 2-core bench host the
#: p90 of a window moved by up to +50% with the hypervisor's CPU steal,
#: so its spread over ten seeds reached 0.27 of its median, past the
#: largest bound allowed (0.25); p99 (1,000 samples, 10 beyond) spread
#: 0.34 even without steal.
TAIL_LEVEL = 90

#: Metric names and units: the ``end_to_end`` and ``per_layer`` lists of
#: BENCHMARK.json at the checkout root.
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def declared_metrics() -> Tuple[Dict[str, str], Dict[str, str]]:
    """``(end_to_end, per_layer)`` as ``name -> unit``, in file order."""
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


@dataclass(frozen=True)
class Workload:
    name: str
    connections: int
    routed: bool
    requests: str  # name of the workloads.py request builder
    #: False where requests are too slow for 10 samples beyond p90 in
    #: any affordable window (``variant``: ~3.5 s per request).
    tail: bool = True
    #: Requests each connection completes in the warm-up, at least:
    #: one pass over the distinct request shapes where they are few.
    warmup_requests: int = 1


WORKLOADS = {
    "query": Workload("query", 2, False, "query_requests"),
    "design": Workload("design", 1, False, "design_requests",
                       warmup_requests=8),  # workloads.DESIGN_WINDOWS
    "variant": Workload("variant", 1, False, "variant_requests",
                        tail=False,
                        warmup_requests=2),  # workloads.HAPLOTYPES
    "routed": Workload("routed", 2, True, "query_requests"),
}

#: ``routed``: backends behind ``route`` and the partitions each holds.
ROUTED_BACKENDS = 3
ROUTED_REPLICATION = 2


class BenchmarkError(RuntimeError):
    """The run could not be measured (not a wrong response)."""


# ---------------------------------------------------------------------------
# Closed-loop load


@dataclass
class Phase:
    latencies_s: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    #: ``perf_counter`` at the start, and when each request that
    #: succeeded completed.
    started: float = 0.0
    ends: List[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies_s)


class Load:
    """``connections`` closed-loop clients cycling through the requests."""

    def __init__(self, address: Tuple[str, int], requests: List[Any],
                 connections: int):
        from repro.service.client import ServiceClient
        self._connect = lambda: ServiceClient(
            *address, timeout_s=REQUEST_TIMEOUT_S, retries=0)
        self.requests = requests
        self.clients = [self._connect() for _ in range(connections)]
        self._cursor = itertools.count()

    def close(self) -> None:
        for client in self.clients:
            try:
                client.close()
            except OSError:
                pass

    def run(self, seconds: float, min_samples: int = 0,
            per_connection: int = 0) -> Phase:
        """Send until ``seconds`` passed and the minimums are met.

        The window ends when the last request sent before its deadline
        has completed.
        """
        started = time.perf_counter()
        phase = Phase(started=started)
        lock = threading.Lock()
        stop_at = started + seconds
        give_up = started + seconds * WINDOW_GROWTH

        def worker(slot: int) -> None:
            done = 0
            while True:
                now = time.perf_counter()
                if now >= give_up or (
                        now >= stop_at and done >= per_connection
                        and phase.attempted >= min_samples):
                    return
                request = self.requests[
                    next(self._cursor) % len(self.requests)]
                error = None
                began = time.perf_counter()
                try:
                    result = request.call(self.clients[slot])
                    ended = time.perf_counter()
                    if request.normalize(result) != request.expected:
                        error = (f"{request.label}: response differs "
                                 f"from the expected payload")
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    ended = time.perf_counter()
                    error = f"{request.label}: {type(exc).__name__}: {exc}"
                with lock:
                    phase.latencies_s.append(ended - began)
                    if error:
                        phase.failures.append(error)
                    else:
                        phase.ends.append(ended)
                done += 1
                if error:
                    try:
                        self.clients[slot].close()
                        self.clients[slot] = self._connect()
                    except OSError as exc:
                        with lock:
                            phase.failures.append(
                                f"reconnect failed: {exc}")
                        return

        threads = [threading.Thread(target=worker, args=(slot,),
                                    daemon=True)
                   for slot in range(len(self.clients))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return phase


# ---------------------------------------------------------------------------
# One pass: start the stack, warm up, measure, stop


@dataclass
class Pass:
    setup_s: List[float]
    warmup: Phase
    window: Phase
    rss_mb: float
    before: Dict[str, Dict[str, Any]]
    after: Dict[str, Dict[str, Any]]
    spans: Optional[Dict[str, Any]]
    server_flags: Dict[str, List[str]]
    #: Share of CPU time the hypervisor took from this VM in the window.
    steal_share: float

    @property
    def attempted(self) -> int:
        return self.warmup.attempted + self.window.attempted

    @property
    def failed(self) -> int:
        client = len(self.warmup.failures) + len(self.window.failures)
        # Requests the scheduler rejected or let expire are failures
        # even where a router retried them out of the client's sight.
        refused = sum(stats.get("rejected", 0) + stats.get("expired", 0)
                      for role, stats in self.after.items()
                      if role not in ("route", "topology"))
        return max(client, refused)


def serve_args(fasta: str, extra: List[str] = ()) -> List[str]:
    from workloads import PATTERN
    return ["serve", "--genome", fasta, "--pattern", PATTERN, *extra]


def start_stack(stack, workload: Workload, genome) -> Tuple[str, int]:
    """Start the workload's processes; returns the address to load."""
    if not workload.routed:
        child = stack.spawn("serve", serve_args(genome.fasta_path))
        return stack.wait_ready(child)
    from repro.service.router import (partition_chromosomes,
                                      replica_plan)
    # The repository README's router layout: chained replication,
    # factor 2, over three backends.  Each backend holds two of the
    # three partitions, so a request fans out to three sub-requests and
    # every partition has a replica to hedge to.
    held = replica_plan(partition_chromosomes(genome.assembly,
                                              ROUTED_BACKENDS),
                        ROUTED_REPLICATION)
    backends = [stack.spawn(f"backend{i}", serve_args(
        genome.fasta_path, ["--chromosomes", ",".join(names)]))
        for i, names in enumerate(held)]
    route = ["route", "--chromosome-order",
             ",".join(c.name for c in genome.assembly.chromosomes)]
    for backend in backends:
        host, port = stack.wait_ready(backend)
        route += ["--backend", f"{host}:{port}"]
    return stack.wait_ready(stack.spawn("route", route))


def read_stats(stack) -> Dict[str, Dict[str, Any]]:
    from stack import control
    out = {}
    for child in stack.children:
        out[child.name] = control(child.address, "stats")["stats"]
        if child.name == "route":
            out["topology"] = control(child.address,
                                      "topology")["topology"]
    return out


def run_pass(workload: Workload, genome, requests, workdir: str,
             seconds: float, traced: bool, setups: int) -> Pass:
    import spans as span_lib
    from measure import samples_for_tail
    from stack import Stack

    setup_s: List[float] = []
    for attempt in range(setups):
        stack = Stack(workdir, traced)
        try:
            began = time.perf_counter()
            address = start_stack(stack, workload, genome)
            setup_s.append(time.perf_counter() - began)
        except BaseException:
            stack.stop()
            raise
        if attempt + 1 < setups:
            stack.stop()
    flags = {child.name: child.proc.args[child.proc.args.index("--") + 1:]
             for child in stack.children}
    min_samples = max(MEDIAN_SAMPLES, samples_for_tail(TAIL_LEVEL)
                      if workload.tail else 0)
    try:
        load = Load(address, requests, workload.connections)
        try:
            warmup = load.run(WARMUP_S,
                              per_connection=workload.warmup_requests)
            if traced:
                stack.start_windows()
            before = read_stats(stack)
            cpu_before = cpu_times()
            window = load.run(seconds, min_samples=min_samples)
            cpu_after = cpu_times()
            after = read_stats(stack)
            rss = stack.peak_rss_mb()
        finally:
            load.close()
    finally:
        snapshots = stack.stop()
    spans = None
    if traced:
        if len(snapshots) != len(flags):
            raise BenchmarkError(
                f"{len(flags) - len(snapshots)} process(es) wrote no "
                f"span aggregates")
        spans = span_lib.join(snapshots)
    ticks = [a - b for a, b in zip(cpu_after, cpu_before)]
    steal = ticks[7] / sum(ticks) if len(ticks) > 7 and sum(ticks) else 0.0
    return Pass(setup_s, warmup, window, rss, before, after, spans, flags,
                steal)


def cpu_times() -> List[int]:
    """The host's aggregate ``cpu`` jiffies from /proc/stat."""
    with open("/proc/stat", encoding="ascii") as handle:
        return [int(x) for x in handle.readline().split()[1:]]


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(plain: Pass) -> Dict[str, float]:
    from measure import median, median_rate
    lat_ms = [s * 1000.0 for s in plain.window.latencies_s]
    return {
        "setup_s": median(plain.setup_s),
        "throughput_rps": median_rate(plain.window.ends,
                                      plain.window.started),
        "p50_ms": median(lat_ms),
        "peak_rss_mb": plain.rss_mb,
    }


def highest_tail(plain: Pass) -> Optional[Tuple[float, float, int]]:
    """(level, ms, samples beyond) of the highest percentile with 10
    samples beyond it in the window, if any."""
    from measure import highest_tail_level, percentile, samples_beyond
    n = plain.window.attempted
    level = highest_tail_level(n)
    if level is None:
        return None
    return (level, percentile(plain.window.latencies_s, level) * 1000.0,
            samples_beyond(n, level))


def _comparer_delta(run: Pass) -> Dict[str, float]:
    from measure import delta, flatten
    total: Dict[str, float] = {}
    for role, stats in run.after.items():
        if role in ("route", "topology"):
            continue
        moved = delta(flatten(run.before[role]["comparer"]),
                      flatten(stats["comparer"]))
        for key, value in moved.items():
            total[key] = total.get(key, 0) + value
    return total


def per_layer(traced: Pass, plain_p50_ms: float,
              chunks: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics from a spanned pass ("per request" = a layer's
    total over the requests the window completed)."""
    from measure import median, ratio
    spans = traced.spans
    durations, counts = spans["durations"], spans["counts"]
    n = traced.window.attempted
    p50_ms = median([s * 1000.0 for s in traced.window.latencies_s])

    def total_s(name: str) -> float:
        return sum(durations.get(name, ()))

    def per_request_ms(name: str) -> float:
        return total_s(name) * 1000.0 / n

    def median_ms(name: str) -> float:
        return median(durations.get(name, ())) * 1000.0

    comparer = _comparer_delta(traced)
    hits = counts.get("pipeline.hits_built", 0)
    site_queries = counts.get("pipeline.site_queries", 0)
    metrics = {
        "scheduler.wait_ms": median_ms("scheduler.wait"),
        "scheduler.queries_per_batch": ratio(
            counts.get("index.query_batch_queries", 0),
            counts.get("index.query_batch_calls", 0)),
        "index.batch_ms": median_ms("index.batch"),
        "index.entries_per_batch": ratio(
            comparer.get("entries_scanned", 0),
            comparer.get("batches", 0)),
        "pipeline.compare_ms": per_request_ms("pipeline.compare"),
        "pipeline.compare_ns_per_site_query": ratio(
            total_s("pipeline.compare") * 1e9, site_queries),
        "bitparallel.packed_query_share": ratio(
            comparer.get("queries_packed", 0),
            comparer.get("queries_total", 0)),
        "pipeline.hit_build_ms": per_request_ms("pipeline.hit_build"),
        "pipeline.hits_built": hits / n,
        "pipeline.hit_build_us_per_hit": ratio(
            total_s("pipeline.hit_build") * 1e6, hits),
        "pipeline.find_ms": per_request_ms("pipeline.find"),
        "runtime.launch_records_per_request":
            spans["launch_growth"] / n,
        "design.enumerate_ms": per_request_ms("design.enumerate"),
        "design.candidates": counts.get("design.candidates", 0) / n,
        "design.rank_ms": per_request_ms("design.rank"),
        "variants.self_ms":
            spans["self_s"].get("variants.search", 0.0) * 1000.0 / n,
        "variants.patches": counts.get("variants.patches", 0) / n,
        "variants.events": counts.get("variants.events", 0) / n,
        "variants.events_per_hit_built": ratio(
            counts.get("variants.events", 0), hits),
        "tracing.p50_ratio": p50_ms / plain_p50_ms,
    }
    # What the server spends outside the layer entry points it calls
    # (one of each per request): decode, encode and socket write.
    in_layers = (median_ms("scheduler.request")
                 + median_ms("design.enumerate")
                 + median_ms("design.rank")
                 + median_ms("variants.search"))
    router = router_metrics(traced, p50_ms, chunks)
    metrics.update(router)
    # Routed backends are called by the router: their caller's latency
    # is the router's sub-request p50.
    caller_p50 = p50_ms - router["router.self_ms"]
    metrics["server.residual_ms"] = caller_p50 - in_layers
    return metrics


def router_metrics(traced: Pass, p50_ms: float, chunks: Dict[str, int]
                   ) -> Dict[str, float]:
    """The router layer, from ``stats``/``topology`` deltas (all 0
    without a router)."""
    from measure import ratio
    router = traced.after.get("route")
    names = ("self_ms", "subrequests_per_request", "hedges_per_1k",
             "hedge_win_share", "retries", "useful_scan_share")
    if router is None:
        return {f"router.{name}": 0.0 for name in names}
    before = traced.before["route"]
    requests = router["requests"] - before["requests"]
    hedges = {k: router["hedges"][k] - before["hedges"][k]
              for k in router["hedges"]}
    topology_before = {b["backend"]: b for b in
                       traced.before["topology"]["backends"]}
    subrequests = 0
    scanned = 0.0
    backends = traced.after["topology"]["backends"]
    for i, backend in enumerate(backends):
        subrequests += (backend["requests"]
                        - topology_before[backend["backend"]]
                        ["requests"])
        role = f"backend{i}"
        queries = (traced.after[role]["comparer"]["queries_total"]
                   - traced.before[role]["comparer"]
                   ["queries_total"])
        scanned += queries * sum(chunks.get(c, 0)
                                 for c in backend["chromosomes"])
    useful = requests * sum(
        chunks.get(c, 0)
        for part in traced.after["topology"]["partitions"]
        for c in part["chromosomes"])
    return {
        "router.self_ms": p50_ms - router["subrequest_latency_ms"]["p50"],
        "router.subrequests_per_request": ratio(subrequests, requests),
        "router.hedges_per_1k": ratio(1000.0 * hedges["launched"],
                                      requests),
        "router.hedge_win_share": ratio(hedges["won"],
                                        hedges["launched"]),
        "router.retries": router["retries"] - before["retries"],
        "router.useful_scan_share": ratio(useful, scanned),
    }


def counter_readings(run: Pass) -> Dict[str, float]:
    """Every counter read through ``stats``, named by process role."""
    from measure import flatten
    out: Dict[str, float] = {}
    for role, stats in run.after.items():
        if role == "topology":
            continue
        kind = "route" if role == "route" else "serve"
        for name, value in flatten(stats).items():
            key = f"{kind}.{name}"
            out[key] = out.get(key, 0) + value
    return out


# ---------------------------------------------------------------------------
# Provenance and the run itself


def flags_in_effect(argv: List[str]) -> Dict[str, Any]:
    """Every ``serve``/``route`` option as the CLI parsed it, defaults
    included (paths shortened to their file names)."""
    from repro import cli
    parser = (cli.build_route_parser() if argv[0] == "route"
              else cli.build_serve_parser())
    return {key: (os.path.basename(value)
                  if isinstance(value, str) and os.sep in value
                  else value)
            for key, value in vars(parser.parse_args(argv[1:])).items()}


def provenance(workload: Workload, seed: int, seconds: float,
               flags: Dict[str, List[str]]) -> Dict[str, Any]:
    import numpy
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii",
                  errors="replace") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    layout = (f"generator ({workload.connections} connection(s)) -> "
              + (f"route -> {ROUTED_BACKENDS} x serve (chained "
                 f"replication, factor {ROUTED_REPLICATION})"
                 if workload.routed else "serve"))
    return {
        "host": {"nproc": os.cpu_count(),
                 "cpus_usable": len(os.sched_getaffinity(0)),
                 "cpu": cpu, "platform": platform.platform()},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "process_layout": layout,
        "server_flags": {role: flags_in_effect(argv)
                         for role, argv in flags.items()},
        "warmup_s": WARMUP_S,
    }


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool, workdir: str, setups: int) -> Dict[str, Any]:
    import workloads

    log(f"{workload.name}: preparing inputs (seed {seed})")
    genome = workloads.Genome(seed, os.path.join(workdir, "genome.fa"))
    requests = getattr(workloads, workload.requests)(genome)
    log(f"{workload.name}: {len(requests)} distinct requests, "
        f"expected payloads ready")
    # The inputs live until the end: keep the generator's collector from
    # walking them during timed windows.
    gc.collect()
    gc.freeze()
    plain = run_pass(workload, genome, requests, workdir, seconds,
                     traced=False, setups=setups)
    passes = [plain]
    result: Dict[str, Any] = {
        "provenance": provenance(workload, seed, seconds,
                                 plain.server_flags),
        "end_to_end": end_to_end(plain),
        "window_requests": plain.window.attempted,
        "tail": highest_tail(plain),
        "host_steal_share": plain.steal_share,
    }
    if trace:
        traced = run_pass(workload, genome, requests, workdir, seconds,
                          traced=True, setups=1)
        passes.append(traced)
        result["per_layer"] = per_layer(
            traced, result["end_to_end"]["p50_ms"],
            genome.chunks_by_chromosome())
        result["counters"] = counter_readings(traced)
    result["attempted"] = sum(p.attempted for p in passes)
    result["failed"] = sum(p.failed for p in passes)
    result["failures"] = [f for p in passes
                          for f in p.warmup.failures + p.window.failures]
    return result


def log(message: str) -> None:
    print(f"# {message}", file=sys.stderr, flush=True)


def report(name: str, result: Dict[str, Any],
           units: Tuple[Dict[str, str], Dict[str, str]]) -> None:
    """Every metric by name with its unit, plus the request counts."""
    attempted, failed = result["attempted"], result["failed"]
    log(f"{name}: {attempted} requests attempted, "
        f"{attempted - failed} succeeded, {failed} failed "
        f"(failed_share {failed / attempted:.4f})")
    for failure in result["failures"][:5]:
        log(f"  FAILED {failure}")
    log(f"  provenance {json.dumps(result['provenance'])}")
    log(f"  cpu steal during the plain window: "
        f"{result['host_steal_share']:.3f}")
    for metric, unit in units[0].items():
        log(f"  {metric:<36} {result['end_to_end'][metric]:>12.4f} {unit}")
    n = result["window_requests"]
    if result["tail"]:
        level, value, beyond = result["tail"]
        log(f"  (tail p{level:g} = {value:.4f} ms, {beyond} of {n} "
            f"samples beyond; printed, not judged: see TAIL_LEVEL)")
    else:
        log(f"  (no tail: {n} samples leave no percentile with "
            f"10 beyond it)")
    if "per_layer" in result:
        from measure import zero_counters
        for metric, unit in units[1].items():
            log(f"  {metric:<36} {result['per_layer'][metric]:>12.4f} "
                f"{unit}")
        log(f"  tracing overhead: traced p50 = "
            f"{result['per_layer']['tracing.p50_ratio']:.3f} x plain p50")
        log(f"  counters at 0: "
            f"{', '.join(zero_counters([result['counters']]))}")


def metric_values(values: Dict[str, float], units: Dict[str, str],
                  prefix: str = "") -> Dict[str, Dict[str, Any]]:
    """``values`` in the result layout, checked against the declared
    names so BENCHMARK.json and this file cannot drift apart."""
    if set(values) != set(units):
        raise BenchmarkError(
            f"computed metrics {sorted(set(values) ^ set(units))} differ "
            f"from the ones {SPEC} declares")
    return {prefix + name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"error: no repro sources under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    units = declared_metrics()

    def terminate(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    scratch = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(scratch, f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        chosen = (list(WORKLOADS) if args.workload == "all"
                  else [args.workload])
        trace = args.workload == "all" or bool(args.trace)
        # setup_s is reported without spans only: a traced run starts
        # its plain pass once.
        setups = (SETUP_REPEATS if args.workload == "all"
                  or not args.trace else 1)
        results = {name: run_workload(WORKLOADS[name], args.seed,
                                      args.seconds, trace, workdir,
                                      setups)
                   for name in chosen}
        metrics: Dict[str, Dict[str, Any]] = {}
        for name, result in results.items():
            report(name, result, units)
            prefix = f"{name}." if args.workload == "all" else ""
            if args.workload == "all" or not args.trace:
                metrics.update(metric_values(result["end_to_end"],
                                             units[0], prefix))
            if trace:
                metrics.update(metric_values(result["per_layer"],
                                             units[1], prefix))
        if args.workload == "all":
            summarize_all(results)
    except (BenchmarkError, OSError, RuntimeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run's directory is still in there
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics}), flush=True)
    return 0 if failed == 0 else 1


def summarize_all(results: Dict[str, Dict[str, Any]]) -> None:
    from measure import zero_counters
    log("tracing overhead (traced p50 / plain p50): " + ", ".join(
        f"{name} {result['per_layer']['tracing.p50_ratio']:.3f}"
        for name, result in results.items()))
    log("counters at 0 in every workload that reads them: " + ", ".join(
        zero_counters(result["counters"]
                      for result in results.values())))


if __name__ == "__main__":
    sys.exit(main())
