"""Command-line interface, modeled on the original ``cas-offinder``.

The original tool is invoked as ``cas-offinder <input> <device> <output>``
with an input file naming the genome directory, the PAM pattern and the
queries.  This CLI keeps that shape and adds reproduction-specific
options: the modeled device, the API front-end (the paper's before/after),
the comparer optimization variant, and synthetic-genome generation for
environments without genome data (``--synthetic hg19 --scale 0.001``).

Examples::

    cas-offinder-py input.txt --synthetic hg19 --scale 0.0005 -o out.txt
    cas-offinder-py input.txt --api opencl --device RVII -o out.txt
    cas-offinder-py --report tables --scale 0.001

The genome line of the input file may name a FASTA file or a directory
of FASTA files; it is ignored when ``--synthetic`` is given.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from typing import List, Optional

from .analysis.reporting import (render_fig2, render_stage_timings,
                                 render_table8, render_table9,
                                 render_table10, render_trace_summary)
from .core.config import ExecutionPolicy, Query, SearchRequest
from .core.pipeline import DEFAULT_CHUNK_SIZE, search
from .core.records import write_hits
from .genome.assembly import Assembly, Chromosome
from .genome.fasta import iter_fasta
from .genome.synthetic import PROFILES, synthetic_assembly
from .observability import tracing
from .resilience import CHECKPOINT_ENV, CheckpointError

#: Work-group size used when ``--work-group-size`` is not given.
DEFAULT_WORK_GROUP_SIZE = 256


# ---------------------------------------------------------------------------
# argparse value types: reject zero/negative/NaN counts at the parser so
# a bad flag fails with a usage error naming the flag, not a traceback
# from deep inside the engine.
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}") from None
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive finite number, got {text}")
    return value


def _nonnegative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}") from None
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative finite number, got {text}")
    return value


def _load_assembly(args: argparse.Namespace,
                   genome_path: Optional[str]) -> Assembly:
    if args.synthetic:
        return synthetic_assembly(args.synthetic, scale=args.scale,
                                  seed=args.seed,
                                  cache=False if args.no_genome_cache
                                  else None)
    path = args.genome or genome_path
    if not path:
        raise SystemExit("no genome: give --synthetic, --genome, or a "
                         "genome path in the input file")
    if os.path.isdir(path):
        chroms: List[Chromosome] = []
        for entry in sorted(os.listdir(path)):
            if entry.endswith((".fa", ".fasta", ".fa.gz", ".fasta.gz")):
                for record in iter_fasta(os.path.join(path, entry)):
                    chroms.append(Chromosome(record.name, record.sequence))
        if not chroms:
            raise SystemExit(f"no FASTA files found in {path!r}")
        return Assembly(path, chroms)
    if os.path.isfile(path):
        return Assembly.from_fasta(path, name=path)
    raise SystemExit(f"genome path {path!r} does not exist")


def _check_engine_flags(args: argparse.Namespace) -> None:
    """Reject engine-only flags that other paths would silently drop."""
    if args.engine == "bitparallel":
        offending = [flag for flag, given in (
            ("--streaming", args.streaming),
            ("--workers", args.workers != 1),
            ("--prefetch", args.prefetch is not None),
            ("--batch-comparer", args.batch_comparer),
            ("--work-group-size", args.work_group_size is not None),
            ("--fault-inject", args.fault_inject is not None),
            ("--max-retries", args.max_retries is not None),
            ("--chunk-deadline", args.chunk_deadline is not None),
            ("--checkpoint-dir", args.checkpoint_dir is not None),
            ("--resume", args.resume),
        ) if given]
        if offending:
            raise SystemExit(
                "error: --engine bitparallel runs its own serial chunk "
                "loop and does not support " + ", ".join(offending))
        return
    streaming = args.streaming or args.workers > 1
    if args.fault_inject is not None and not streaming:
        raise SystemExit(
            "error: --fault-inject targets the streaming engine; add "
            "--streaming (or --workers > 1)")
    if args.resume and args.checkpoint_dir is None \
            and not os.environ.get(CHECKPOINT_ENV):
        raise SystemExit(
            "error: --resume needs a checkpoint directory; pass "
            f"--checkpoint-dir or set {CHECKPOINT_ENV}")


def _run_search(args: argparse.Namespace) -> int:
    if not args.input:
        raise SystemExit("an input file is required (see --help)")
    _check_engine_flags(args)
    request = SearchRequest.from_input_file(args.input)
    assembly = _load_assembly(args, request.genome_path)
    execution = None
    streaming = args.streaming or args.workers > 1
    if streaming or args.batch_comparer or args.checkpoint_dir \
            or args.resume:
        policy_kw = {}
        if args.max_retries is not None:
            policy_kw["max_retries"] = args.max_retries
        if args.chunk_deadline is not None:
            policy_kw["chunk_deadline_s"] = args.chunk_deadline
        if args.fault_inject is not None:
            policy_kw["fault_plan"] = args.fault_inject
        if args.checkpoint_dir is not None:
            policy_kw["checkpoint_dir"] = args.checkpoint_dir
        if args.resume:
            policy_kw["resume"] = True
        try:
            execution = ExecutionPolicy(
                streaming=streaming,
                prefetch_depth=(2 if args.prefetch is None
                                else args.prefetch),
                workers=args.workers,
                batch_queries=args.batch_comparer, **policy_kw)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from None
    recorder = tracing.TraceRecorder() if args.trace else None
    started = time.perf_counter()
    with tracing.recording(recorder) if recorder else _null_context():
        if args.engine == "bitparallel":
            from .core.bitparallel import bitparallel_search
            result = bitparallel_search(assembly, request,
                                        device=args.device,
                                        chunk_size=args.chunk_size)
        else:
            work_group_size = (DEFAULT_WORK_GROUP_SIZE
                               if args.work_group_size is None
                               else args.work_group_size)
            try:
                result = search(assembly, request, api=args.api,
                                device=args.device, variant=args.variant,
                                chunk_size=args.chunk_size,
                                mode=args.mode,
                                work_group_size=work_group_size,
                                execution=execution)
            except CheckpointError as exc:
                raise SystemExit(f"error: {exc}") from None
    elapsed = time.perf_counter() - started
    hits = result.sorted_hits()
    if args.output and args.output != "-":
        write_hits(hits, args.output)
    else:
        write_hits(hits, sys.stdout)
    print(f"# {len(hits)} hits | {assembly.total_length} bases | "
          f"{result.workload.candidates} candidates | "
          f"api={args.api} device={args.device} variant={args.variant} | "
          f"{elapsed:.2f}s wall", file=sys.stderr)
    if result.workload.stages is not None and execution is not None:
        print(render_stage_timings(result.workload.stages),
              file=sys.stderr)
    if recorder is not None:
        recorder.save(args.trace)
        print(render_trace_summary(recorder.spans()), file=sys.stderr)
        print(f"# trace written to {args.trace}", file=sys.stderr)
    return 0


def _null_context():
    import contextlib
    return contextlib.nullcontext()


def _run_report(args: argparse.Namespace) -> int:
    """Regenerate the paper's tables with the device models."""
    from .analysis.productivity import table1_rows
    from .analysis.reporting import format_table
    from .core.config import example_request
    from .devices.codegen import analyze_comparer
    from .devices.occupancy import reported_occupancy
    from .devices.specs import MI60, PAPER_GPUS, TABLE7_HEADER, table7_rows
    from .devices.timing import model_elapsed
    from .kernels.variants import VARIANT_ORDER

    print(format_table(("Step", "OpenCL", "SYCL"),
                       table1_rows(), title="Table I"))
    print()
    print(format_table(TABLE7_HEADER, table7_rows(), title="Table VII"))
    print()
    request = example_request()
    profiles = {}
    for dataset in ("hg19", "hg38"):
        assembly = synthetic_assembly(dataset, scale=args.scale,
                                      seed=args.seed)
        run = search(assembly, request, chunk_size=args.chunk_size)
        profiles[dataset] = run.workload.scaled(1.0 / args.scale)
    t8 = {}
    t9 = {}
    fig2 = {}
    for dataset, workload in profiles.items():
        for name, spec in PAPER_GPUS.items():
            ocl = model_elapsed(spec, workload, "opencl")
            sycl = model_elapsed(spec, workload, "sycl")
            t8[(name, dataset)] = (ocl.elapsed_s, sycl.elapsed_s)
            series = [model_elapsed(spec, workload, "sycl", variant=v)
                      for v in VARIANT_ORDER]
            fig2[(name, dataset)] = [m.comparer_s for m in series]
            t9[(name, dataset)] = (series[0].elapsed_s,
                                   series[3].elapsed_s)
    print(render_table8(t8))
    print()
    print(render_table9(t9))
    print()
    rows10 = {}
    for variant in VARIANT_ORDER:
        usage = analyze_comparer(variant)
        rows10[variant] = (usage.code_bytes, usage.vgprs, usage.sgprs,
                           reported_occupancy(usage.vgprs, MI60))
    print(render_table10(rows10))
    print()
    print(render_fig2(fig2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cas-offinder-py",
        description="Cas-OFFinder reproduction: search for potential "
                    "off-target sites of Cas9 RNA-guided endonucleases")
    parser.add_argument("input", nargs="?",
                        help="input file (genome path, pattern, queries)")
    parser.add_argument("-o", "--output", default="-",
                        help="output file ('-' for stdout)")
    parser.add_argument("--api",
                        choices=("sycl", "sycl-usm", "opencl"),
                        default="sycl", help="runtime front-end "
                        "(sycl buffers, sycl USM pointers, or OpenCL)")
    parser.add_argument("--engine", choices=("listing1", "bitparallel"),
                        default="listing1",
                        help="comparer engine: the paper's kernel or "
                        "the 2-bit packed baseline")
    parser.add_argument("--device", default="MI100",
                        help="modeled device (RVII, MI60, MI100, CPU)")
    parser.add_argument("--variant", default="base",
                        choices=("base", "opt1", "opt2", "opt3", "opt4"),
                        help="comparer optimization level (SYCL only)")
    parser.add_argument("--mode", choices=("vectorized", "interpreted"),
                        default="vectorized",
                        help="kernel execution mode")
    parser.add_argument("--chunk-size", type=_positive_int,
                        default=DEFAULT_CHUNK_SIZE,
                        help="device chunk size in bases")
    parser.add_argument("--streaming", action="store_true",
                        help="run the streaming chunk engine (prefetch "
                             "next chunk while kernels run)")
    parser.add_argument("--workers", type=_positive_int, default=1,
                        help="parallel chunk workers for the streaming "
                             "engine (implies --streaming when > 1)")
    parser.add_argument("--prefetch", type=_positive_int, default=None,
                        help="chunks staged ahead by the streaming "
                             "engine's producer (default 2)")
    parser.add_argument("--work-group-size", type=_positive_int,
                        default=None,
                        help="kernel work-group size for the SYCL "
                             "pipelines (default 256)")
    parser.add_argument("--max-retries", type=_nonnegative_int,
                        default=None,
                        help="per-chunk retries after a processing "
                             "failure in the streaming engine "
                             "(default 1)")
    parser.add_argument("--chunk-deadline", type=_positive_float,
                        default=None,
                        help="per-chunk wall-clock deadline in seconds; "
                             "overruns are retried on a fresh pipeline")
    parser.add_argument("--fault-inject", default=None, metavar="PLAN",
                        help="deterministic fault plan for the streaming "
                             "engine, e.g. 'raise@0,stall@2:0.4' "
                             "(also via REPRO_FAULT_INJECT)")
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="journal completed chunks to DIR so an "
                             "interrupted run can be resumed (also via "
                             "REPRO_CHECKPOINT_DIR)")
    parser.add_argument("--resume", action="store_true",
                        help="resume from the checkpoint directory: skip "
                             "journaled chunks and replay their outputs "
                             "(refuses on a manifest mismatch)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="record a runtime trace and write it as "
                             "Chrome-trace JSON (chrome://tracing, "
                             "Perfetto)")
    parser.add_argument("--batch-comparer", dest="batch_comparer",
                        action="store_true", default=False,
                        help="fuse per-query comparer launches into one "
                             "batched launch per chunk")
    parser.add_argument("--no-batch-comparer", dest="batch_comparer",
                        action="store_false",
                        help="keep one comparer launch per query")
    parser.add_argument("--genome",
                        help="FASTA file or directory (overrides the "
                             "input file's genome line)")
    parser.add_argument("--synthetic", choices=sorted(PROFILES),
                        help="use a synthetic assembly instead of files")
    parser.add_argument("--scale", type=float, default=0.001,
                        help="synthetic assembly scale factor")
    parser.add_argument("--seed", type=int, default=42,
                        help="synthetic assembly seed")
    parser.add_argument("--no-genome-cache", action="store_true",
                        help="regenerate synthetic assemblies instead of "
                             "using the on-disk cache")
    parser.add_argument("--report", choices=("tables",),
                        help="regenerate the paper's tables and exit")
    return parser


# ---------------------------------------------------------------------------
# Service subcommands: `serve` and `query`.  Dispatched by peeking at the
# first argument so the classic flat invocation (positional input file)
# keeps working unchanged.
# ---------------------------------------------------------------------------

def _add_genome_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--genome",
                        help="FASTA file or directory to index")
    parser.add_argument("--synthetic", choices=sorted(PROFILES),
                        help="use a synthetic assembly instead of files")
    parser.add_argument("--scale", type=_positive_float, default=0.001,
                        help="synthetic assembly scale factor")
    parser.add_argument("--seed", type=int, default=42,
                        help="synthetic assembly seed")
    parser.add_argument("--no-genome-cache", action="store_true",
                        help="regenerate synthetic assemblies instead of "
                             "using the on-disk cache")


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cas-offinder-py serve",
        description="Serve off-target queries over a resident genome "
                    "site index (JSON-lines over TCP).")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=_nonnegative_int, default=0,
                        help="TCP port (0 picks an ephemeral port; see "
                             "--ready-file)")
    parser.add_argument("--index-dir", default=None, metavar="DIR",
                        help="load a saved index from DIR if present, "
                             "else build one and save it there")
    parser.add_argument("--pattern", default=None,
                        help="PAM-bearing pattern to index (required "
                             "unless a saved index is loaded)")
    _add_genome_flags(parser)
    parser.add_argument("--max-batch", type=_positive_int, default=8,
                        help="flush a micro-batch at this many queries")
    parser.add_argument("--max-wait-ms", type=_nonnegative_float,
                        default=5.0,
                        help="flush a micro-batch after this long "
                             "even if it is not full; applies only "
                             "while some open connection has no "
                             "request in the batch")
    parser.add_argument("--max-queue", type=_positive_int, default=64,
                        help="admission-control queue bound; beyond it "
                             "requests are rejected as overloaded")
    parser.add_argument("--duration-s", type=_positive_float,
                        default=None,
                        help="serve for this long then exit (smoke "
                             "tests); default: until interrupted")
    parser.add_argument("--ready-file", default=None, metavar="PATH",
                        help="write 'host port' to PATH once listening "
                             "(how callers learn an ephemeral port)")
    parser.add_argument("--chromosomes", default=None, metavar="NAMES",
                        help="comma-separated chromosome subset to "
                             "index and serve (a routed backend's "
                             "partition; hits are identical to the "
                             "full assembly's for these chromosomes)")
    parser.add_argument("--drain-s", type=_nonnegative_float,
                        default=5.0,
                        help="graceful-shutdown budget: on SIGTERM, "
                             "finish in-flight requests for up to "
                             "this long before exiting")
    parser.add_argument("--request-fault-inject", default=None,
                        metavar="PLAN",
                        help="request-level fault plan (indices are "
                             "query ordinals), e.g. 'stall@3:0.5' or "
                             "'disconnect@5'; crash@N kills the "
                             "process — for router fault drills")
    parser.add_argument("--enzyme-config", action="append", default=[],
                        dest="enzyme_configs", metavar="PATH",
                        help="declarative Cas enzyme config (TOML or "
                             "JSON, repeatable); each enzyme gets its "
                             "own resident index over the same genome "
                             "and is selected per request via the "
                             "'enzyme' field")
    return parser


def _serve_assembly(args: argparse.Namespace) -> Assembly:
    """The assembly to serve: loaded, then optionally subset."""
    assembly = _load_assembly(args, args.genome)
    if args.chromosomes:
        names = [c.strip() for c in args.chromosomes.split(",")
                 if c.strip()]
        if not names:
            raise SystemExit(
                "error: --chromosomes needs at least one name")
        try:
            assembly = assembly.subset(names)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from None
    return assembly


def _refuse_leftover_ready_file(path: Optional[str], role: str) -> None:
    """Exit if ``path`` already exists: a supervisor could read a dead
    process's port announcement there and race this one."""
    if path and os.path.exists(path):
        raise SystemExit(
            f"error: ready file {path!r} already exists (a previous "
            f"{role} may still be running, or it exited uncleanly); "
            f"remove it to proceed")


def _run_serve(argv: List[str]) -> int:
    from .service import (GenomeSiteIndex, OffTargetServer,
                          SiteIndexError, SiteIndexVersionError)
    from .service.index import INDEX_MANIFEST_NAME

    args = build_serve_parser().parse_args(argv)
    _refuse_leftover_ready_file(args.ready_file, "server")
    index = None
    manifest_path = (os.path.join(args.index_dir, INDEX_MANIFEST_NAME)
                     if args.index_dir else None)
    if manifest_path and os.path.exists(manifest_path):
        assembly = _serve_assembly(args)
        try:
            index = GenomeSiteIndex.load(args.index_dir, assembly)
        except SiteIndexVersionError as exc:
            # The genome is right, only the on-disk layout is old:
            # rebuild (and overwrite) instead of refusing to start.
            print(f"# stale index format: {exc}; rebuilding",
                  file=sys.stderr)
        except SiteIndexError as exc:
            raise SystemExit(f"error: {exc}") from None
        else:
            print(f"# loaded index from {args.index_dir}: "
                  f"{index.chunk_count} chromosomes, "
                  f"{index.site_count} sites", file=sys.stderr)
    if index is None:
        if not args.pattern:
            raise SystemExit(
                "error: --pattern is required when no saved index is "
                "available to load")
        assembly = _serve_assembly(args)
        try:
            index = GenomeSiteIndex.build(assembly, args.pattern)
        except (SiteIndexError, ValueError) as exc:
            raise SystemExit(f"error: {exc}") from None
        print(f"# built index: {index.chunk_count} chromosomes, "
              f"{index.site_count} sites in {index.build_wall_s:.2f}s",
              file=sys.stderr)
        if args.index_dir:
            index.save(args.index_dir)
            print(f"# index saved to {args.index_dir}",
                  file=sys.stderr)
    enzymes = []
    if args.enzyme_configs:
        from .enzymes import EnzymeError, load_enzymes
        seen = set()
        for config_path in args.enzyme_configs:
            try:
                loaded = load_enzymes(config_path)
            except EnzymeError as exc:
                raise SystemExit(f"error: {exc}") from None
            for enzyme in loaded:
                if enzyme.name in seen:
                    raise SystemExit(
                        f"error: enzyme {enzyme.name!r} appears in "
                        f"more than one --enzyme-config")
                seen.add(enzyme.name)
                try:
                    enzyme_index = GenomeSiteIndex.build(
                        assembly, enzyme.pattern)
                except (SiteIndexError, ValueError) as exc:
                    raise SystemExit(
                        f"error: enzyme {enzyme.name!r}: "
                        f"{exc}") from None
                print(f"# enzyme {enzyme.name}: "
                      f"pattern={enzyme.pattern} "
                      f"{enzyme_index.site_count} sites",
                      file=sys.stderr)
                enzymes.append((enzyme, enzyme_index))
    import signal
    import threading
    if threading.current_thread() is threading.main_thread():
        # A supervisor's SIGTERM must still remove the ready file;
        # Python's default handler would kill the process without
        # running any finally block.  Once the event loop runs, the
        # server's own SIGTERM handler takes over and drains
        # gracefully first.
        signal.signal(signal.SIGTERM,
                      lambda signum, frame: sys.exit(0))
    try:
        server = OffTargetServer(
            index, host=args.host, port=args.port,
            max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
            max_queue=args.max_queue,
            request_fault_plan=args.request_fault_inject,
            drain_s=args.drain_s,
            enzymes=enzymes or None)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    print(f"# serving {index.assembly.name} pattern={index.pattern} "
          f"on {args.host} (max_batch={args.max_batch}, "
          f"max_wait_ms={args.max_wait_ms:g})", file=sys.stderr)
    server.run(duration_s=args.duration_s, ready_file=args.ready_file)
    return 0


def build_route_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cas-offinder-py route",
        description="Route off-target queries across a fleet of "
                    "backend index servers partitioned by chromosome; "
                    "responses are byte-identical to a single server "
                    "over the whole genome.")
    parser.add_argument("--backend", action="append", required=True,
                        dest="backends", metavar="HOST:PORT",
                        help="a backend index server (repeatable)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=_nonnegative_int, default=0,
                        help="TCP port (0 picks an ephemeral port; see "
                             "--ready-file)")
    parser.add_argument("--chromosome-order", default=None,
                        metavar="NAMES",
                        help="comma-separated global merge order; "
                             "defaults to discovery order, which is "
                             "only safe without replication")
    parser.add_argument("--probe-interval", type=_positive_float,
                        default=0.5,
                        help="seconds between backend health probes")
    parser.add_argument("--eject-after", type=_positive_int, default=2,
                        help="consecutive probe/request failures "
                             "before a backend is ejected")
    parser.add_argument("--hedge-ms", type=_nonnegative_float,
                        default=None,
                        help="fixed hedge delay in milliseconds "
                             "(0 disables hedging; default derives "
                             "the delay from the sub-request p95)")
    parser.add_argument("--max-attempts", type=_positive_int,
                        default=3,
                        help="attempts per partition across replicas "
                             "(connection loss and overload retry; "
                             "deadline errors never do)")
    parser.add_argument("--duration-s", type=_positive_float,
                        default=None,
                        help="route for this long then exit (smoke "
                             "tests); default: until interrupted")
    parser.add_argument("--ready-file", default=None, metavar="PATH",
                        help="write 'host port' to PATH once listening")
    return parser


def _run_route(argv: List[str]) -> int:
    from .service.router import OffTargetRouter

    args = build_route_parser().parse_args(argv)
    _refuse_leftover_ready_file(args.ready_file, "router")
    order = None
    if args.chromosome_order:
        order = [c.strip() for c in args.chromosome_order.split(",")
                 if c.strip()]
    try:
        router = OffTargetRouter(
            args.backends, host=args.host, port=args.port,
            chromosome_order=order,
            probe_interval_s=args.probe_interval,
            eject_after=args.eject_after, hedge_ms=args.hedge_ms,
            max_attempts=args.max_attempts)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    print(f"# routing over {len(args.backends)} backend(s): "
          f"{', '.join(args.backends)}", file=sys.stderr)
    router.run(duration_s=args.duration_s,
               ready_file=args.ready_file)
    return 0


def build_query_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cas-offinder-py query",
        description="Query a running off-target service; output is "
                    "byte-identical to an offline search.")
    parser.add_argument("queries", nargs="+", metavar="SEQ:MM",
                        help="query spec(s): sequence, colon, max "
                             "mismatches (e.g. GACGTCNN:3)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=_positive_int, required=True)
    parser.add_argument("-o", "--output", default="-",
                        help="output file ('-' for stdout)")
    parser.add_argument("--deadline", type=_positive_float,
                        default=None,
                        help="per-request deadline in seconds")
    parser.add_argument("--timeout", type=_positive_float, default=30.0,
                        help="socket timeout in seconds")
    return parser


def _parse_query_specs(specs: List[str]) -> List[Query]:
    """``SEQ:MM`` arguments as queries; a malformed spec exits."""
    queries = []
    for spec in specs:
        seq, sep, mm = spec.rpartition(":")
        if not sep or not seq or not mm.isdigit():
            raise SystemExit(f"error: bad query spec {spec!r}; "
                             f"expected SEQ:MM (e.g. GACGTCNN:3)")
        try:
            queries.append(Query(seq.upper(), int(mm)))
        except ValueError as exc:
            raise SystemExit(
                f"error: bad query spec {spec!r}: {exc}") from None
    return queries


def _run_query(argv: List[str]) -> int:
    from .core.records import sort_hits
    from .service import ServiceClient, ServiceError

    args = build_query_parser().parse_args(argv)
    queries = _parse_query_specs(args.queries)
    try:
        with ServiceClient(args.host, args.port,
                           timeout_s=args.timeout) as client:
            per_query = client.query(queries,
                                     deadline_s=args.deadline)
    except ServiceError as exc:
        raise SystemExit(f"error: {exc}") from None
    except OSError as exc:
        raise SystemExit(f"error: cannot reach service at "
                         f"{args.host}:{args.port}: {exc}") from None
    hits = sort_hits([hit for per in per_query for hit in per])
    if args.output and args.output != "-":
        write_hits(hits, args.output)
    else:
        write_hits(hits, sys.stdout)
    print(f"# {len(hits)} hits | {len(queries)} queries | "
          f"service {args.host}:{args.port}", file=sys.stderr)
    return 0


def build_design_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cas-offinder-py design",
        description="Rank candidate guides for a target region by "
                    "genome-wide off-target specificity.  With --port "
                    "the request goes to a running service (server or "
                    "router); otherwise an index is built locally from "
                    "--pattern and a genome source.")
    parser.add_argument("region", metavar="CHROM:START-END",
                        help="target region, e.g. chr1:15000-16000 "
                             "(0-based half-open)")
    parser.add_argument("--mismatches", type=_nonnegative_int,
                        required=True,
                        help="off-target search depth per candidate")
    parser.add_argument("--top", type=_positive_int, default=5,
                        help="number of ranked guides to report")
    parser.add_argument("--estimator", choices=("mit", "cfd"),
                        default="mit",
                        help="specificity estimator for ranking")
    parser.add_argument("--guide-length", type=_positive_int,
                        default=None,
                        help="protospacer length when the pattern's "
                             "leading N-run is ambiguous (e.g. a PAM "
                             "that itself starts with N)")
    parser.add_argument("--gc-min", type=_nonnegative_float,
                        default=None,
                        help="minimum candidate GC fraction "
                             "(default 0.2)")
    parser.add_argument("--gc-max", type=_nonnegative_float,
                        default=None,
                        help="maximum candidate GC fraction "
                             "(default 0.8)")
    parser.add_argument("--max-homopolymer", type=_positive_int,
                        default=None,
                        help="longest allowed single-base run in a "
                             "candidate (default 4)")
    parser.add_argument("-o", "--output", default="-",
                        help="output file ('-' for stdout)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=_positive_int, default=None,
                        help="query a running service instead of "
                             "building an index locally")
    parser.add_argument("--deadline", type=_positive_float,
                        default=None,
                        help="per-request deadline in seconds "
                             "(service mode)")
    parser.add_argument("--timeout", type=_positive_float, default=60.0,
                        help="socket timeout in seconds (service mode)")
    parser.add_argument("--pattern", default=None,
                        help="PAM-bearing pattern (local mode)")
    _add_genome_flags(parser)
    return parser


def _parse_region(text: str):
    chrom, sep, span = text.rpartition(":")
    start, dash, end = span.partition("-")
    if not sep or not chrom or not dash:
        raise SystemExit(f"error: bad region {text!r}; expected "
                         f"CHROM:START-END (e.g. chr1:15000-16000)")
    try:
        lo, hi = int(start), int(end)
    except ValueError:
        raise SystemExit(f"error: bad region {text!r}: bounds must "
                         f"be integers") from None
    if lo < 0 or hi <= lo:
        raise SystemExit(f"error: bad region {text!r}: need "
                         f"0 <= start < end")
    return chrom, lo, hi


def _run_design(argv: List[str]) -> int:
    from .design import GuideDesignReport, design_guides

    args = build_design_parser().parse_args(argv)
    chrom, start, end = _parse_region(args.region)
    filters = {}
    if args.gc_min is not None:
        filters["gc_min"] = args.gc_min
    if args.gc_max is not None:
        filters["gc_max"] = args.gc_max
    if args.max_homopolymer is not None:
        filters["max_homopolymer"] = args.max_homopolymer
    if args.port is not None:
        from .service import ServiceClient, ServiceError
        try:
            with ServiceClient(args.host, args.port,
                               timeout_s=args.timeout) as client:
                response = client.design(
                    chrom, start, end, args.mismatches, top=args.top,
                    estimator=args.estimator,
                    guide_length=args.guide_length,
                    deadline_s=args.deadline, **filters)
        except ServiceError as exc:
            raise SystemExit(f"error: {exc}") from None
        except OSError as exc:
            raise SystemExit(f"error: cannot reach service at "
                             f"{args.host}:{args.port}: {exc}") from None
        reports = response["reports"]
        candidates = response["candidates"]
    else:
        from .service import GenomeSiteIndex, SiteIndexError
        if not args.pattern:
            raise SystemExit("error: --pattern is required without "
                             "--port (local mode builds an index)")
        assembly = _load_assembly(args, args.genome)
        try:
            index = GenomeSiteIndex.build(assembly, args.pattern)
            result = design_guides(
                index, chrom, start, end, args.mismatches,
                top_n=args.top, estimator=args.estimator,
                guide_length=args.guide_length, **filters)
        except (SiteIndexError, ValueError) as exc:
            raise SystemExit(f"error: {exc}") from None
        reports = result.reports
        candidates = len(result.candidates)
    lines = ["\t".join(GuideDesignReport.header())]
    lines.extend(report.tsv_row() for report in reports)
    text = "\n".join(lines) + "\n"
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="ascii") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    print(f"# {len(reports)} guides ranked from {candidates} "
          f"candidates | {chrom}:{start}-{end} mm={args.mismatches} "
          f"estimator={args.estimator}", file=sys.stderr)
    return 0


def build_variants_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cas-offinder-py variants",
        description="Per-haplotype gained/lost off-target sites: "
                    "apply VCF-like variant sets as diff layers over "
                    "the genome and report which sites each haplotype "
                    "gains or loses relative to the reference.  With "
                    "--port the request goes to a running service "
                    "(server or router); otherwise an index is built "
                    "locally from --pattern and a genome source.")
    parser.add_argument("queries", nargs="+", metavar="SEQ:MM",
                        help="query spec(s): sequence, colon, max "
                             "mismatches (e.g. GACGTCNN:3)")
    parser.add_argument("--haplotypes", default=None, metavar="FILE",
                        help="JSON file with {\"haplotypes\": "
                             "[{\"name\": ..., \"variants\": "
                             "[[chrom, pos, ref, alt], ...]}, ...]}")
    parser.add_argument("--variant", action="append", default=[],
                        dest="variants", metavar="CHROM:POS:REF>ALT",
                        help="one variant (repeatable); together they "
                             "form a single haplotype named by "
                             "--hap-name")
    parser.add_argument("--hap-name", default="edited",
                        help="haplotype name for --variant specs")
    parser.add_argument("--chromosomes", default=None, metavar="NAMES",
                        help="comma-separated chromosome filter")
    parser.add_argument("--enzyme", default=None,
                        help="named enzyme to search with (service "
                             "mode; the server must host it via "
                             "--enzyme-config)")
    parser.add_argument("--json", action="store_true",
                        help="emit the full response payload as JSON "
                             "instead of an event TSV")
    parser.add_argument("-o", "--output", default="-",
                        help="output file ('-' for stdout)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=_positive_int, default=None,
                        help="query a running service instead of "
                             "building an index locally")
    parser.add_argument("--timeout", type=_positive_float, default=60.0,
                        help="socket timeout in seconds (service mode)")
    parser.add_argument("--pattern", default=None,
                        help="PAM-bearing pattern (local mode)")
    _add_genome_flags(parser)
    return parser


def _parse_variant_spec(text: str) -> List:
    """``CHROM:POS:REF>ALT`` -> the wire row ``[chrom, pos, ref, alt]``."""
    head, sep, change = text.rpartition(":")
    ref, arrow, alt = change.partition(">")
    if not sep or not arrow:
        raise SystemExit(f"error: bad variant spec {text!r}; expected "
                         f"CHROM:POS:REF>ALT (e.g. chr1:1234:A>G)")
    chrom, sep2, pos_text = head.rpartition(":")
    if not sep2 or not chrom:
        raise SystemExit(f"error: bad variant spec {text!r}; expected "
                         f"CHROM:POS:REF>ALT (e.g. chr1:1234:A>G)")
    try:
        position = int(pos_text)
    except ValueError:
        raise SystemExit(f"error: bad variant spec {text!r}: position "
                         f"must be an integer") from None
    return [chrom, position, ref.upper(), alt.upper()]


def _run_variants(argv: List[str]) -> int:
    import json as _json

    from .variants import VariantError, decode_haplotypes

    args = build_variants_parser().parse_args(argv)
    queries = _parse_query_specs(args.queries)
    if args.haplotypes and args.variants:
        raise SystemExit("error: give either --haplotypes FILE or "
                         "--variant specs, not both")
    if args.haplotypes:
        try:
            with open(args.haplotypes, encoding="utf-8") as handle:
                data = _json.load(handle)
        except (OSError, _json.JSONDecodeError) as exc:
            raise SystemExit(f"error: cannot read haplotypes file "
                             f"{args.haplotypes!r}: {exc}") from None
        raw = data.get("haplotypes") if isinstance(data, dict) else data
    elif args.variants:
        raw = [{"name": args.hap_name,
                "variants": [_parse_variant_spec(spec)
                             for spec in args.variants]}]
    else:
        raise SystemExit("error: no variants: give --haplotypes FILE "
                         "or one or more --variant specs")
    try:
        haplotypes = decode_haplotypes(raw)
    except (VariantError, ValueError) as exc:
        raise SystemExit(f"error: {exc}") from None
    chromosomes = None
    if args.chromosomes:
        chromosomes = [c.strip() for c in args.chromosomes.split(",")
                       if c.strip()]
        if not chromosomes:
            raise SystemExit(
                "error: --chromosomes needs at least one name")
    if args.port is not None:
        from .service import ServiceClient, ServiceError
        try:
            with ServiceClient(args.host, args.port,
                               timeout_s=args.timeout) as client:
                payload = client.variant_search(
                    queries, haplotypes, chromosomes=chromosomes,
                    enzyme=args.enzyme)
        except ServiceError as exc:
            raise SystemExit(f"error: {exc}") from None
        except OSError as exc:
            raise SystemExit(f"error: cannot reach service at "
                             f"{args.host}:{args.port}: {exc}") from None
        payload.pop("id", None)
        payload.pop("ok", None)
    else:
        if args.enzyme:
            raise SystemExit("error: --enzyme needs a running service "
                             "(--port); local mode searches --pattern")
        if not args.pattern:
            raise SystemExit("error: --pattern is required without "
                             "--port (local mode builds an index)")
        from .service import GenomeSiteIndex, SiteIndexError
        from .variants import search_variants
        assembly = _load_assembly(args, args.genome)
        try:
            index = GenomeSiteIndex.build(assembly, args.pattern)
            result = search_variants(
                index, queries, haplotypes,
                chromosomes=(frozenset(chromosomes)
                             if chromosomes else None))
        except (SiteIndexError, VariantError, ValueError) as exc:
            raise SystemExit(f"error: {exc}") from None
        payload = result.payload()
    if args.json:
        text = _json.dumps(payload, indent=2) + "\n"
    else:
        lines = ["\t".join(payload["event_fields"])]
        lines.extend("\t".join(str(value) for value in row)
                     for row in payload["events"])
        text = "\n".join(lines) + "\n"
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="ascii") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    gained = sum(row["gained"] for row in payload["summary"])
    lost = sum(row["lost"] for row in payload["summary"])
    print(f"# {len(payload['events'])} events ({gained} gained, "
          f"{lost} lost) | {len(payload['haplotypes'])} haplotype(s) | "
          f"{payload['patched_chunks']} variant window(s) / "
          f"{payload['reference_chunks']} reference chromosomes",
          file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv and argv[0] == "serve":
        return _run_serve(argv[1:])
    if argv and argv[0] == "route":
        return _run_route(argv[1:])
    if argv and argv[0] == "query":
        return _run_query(argv[1:])
    if argv and argv[0] == "design":
        return _run_design(argv[1:])
    if argv and argv[0] == "variants":
        return _run_variants(argv[1:])
    args = build_parser().parse_args(argv)
    if args.report:
        return _run_report(args)
    return _run_search(args)


if __name__ == "__main__":
    sys.exit(main())
