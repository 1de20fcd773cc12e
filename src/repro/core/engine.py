"""Streaming execution engine: prefetch, worker parallelism, ordered merge.

The serial chunk loop in :mod:`repro.core.pipeline` stages a chunk, runs
both kernels, merges the outputs, and only then touches the next chunk —
so the host sits idle while the device works and vice versa.  The real
Cas-OFFinder application hides that latency by double-buffering chunk
uploads; this engine models the same overlap structure explicitly:

* a producer thread walks ``assembly.chunks`` and stages up to
  ``prefetch_depth`` chunks ahead of the consumers (bounded queue);
* ``workers`` consumer threads each own a full pipeline instance (their
  own queue/context, so no shared mutable device state) and run the
  finder/comparer kernels per chunk;
* the main thread merges finished chunks strictly in chunk-index order
  through the same :class:`~repro.core.pipeline.SearchAccumulator` the
  serial loop uses, so hit lists and workload counters are identical to
  a serial run — the property the equivalence tests pin down.

The total in-flight window (staged + processing + awaiting merge) is
bounded by ``prefetch_depth + workers`` via a semaphore, so memory use
stays proportional to the window, not the genome.

Failure behavior is structured rather than emergent.  Each chunk's
processing is guarded: an exception (including an injected fault, see
:mod:`repro.observability.faults`) or a ``chunk_deadline_s`` overrun is
retried on the same worker with capped exponential backoff; a deadline
overrun additionally abandons the (possibly wedged) pipeline and gives
the worker a fresh one.  When retries are exhausted the failure marker
travels to the merging thread in chunk order, which — when
``serial_fallback`` is enabled — re-runs the chunk on a fresh pipeline
inline, preserving the byte-identical ordered-merge invariant.  Only
when the fallback itself fails does the search raise
:class:`ChunkProcessingError`.

Per-stage wall seconds (stage-in, finder, comparer, merge, idle) are
recorded in :class:`~repro.core.workload.StageTimings` and attached to
the returned :class:`~repro.core.workload.WorkloadProfile`; when a
:mod:`repro.observability.tracing` recorder is active the engine also
records spans for every chunk stage-in, processing attempt, kernel
launch (via the runtime models), merge and fallback.

Durability composes on top of the in-run fault handling: when the
policy (or ``REPRO_CHECKPOINT_DIR``) names a checkpoint directory, the
merging thread journals every freshly merged chunk through a
:class:`~repro.resilience.checkpoint.CheckpointSession`, and on resume
the workers skip journaled chunks entirely, replaying their persisted
outputs through the same ordered merge (``checkpoint_skip`` /
``checkpoint_write`` trace events mark both paths).
"""

from __future__ import annotations

import queue as queue_mod
import threading
import time
from typing import List, Optional, Sequence

from ..genome.assembly import Assembly, Chunk
from ..observability import faults, tracing
from ..runtime.launch import LaunchRecord
from .config import ExecutionPolicy, Query, SearchRequest
from .patterns import compile_pattern
from .pipeline import (DEFAULT_CHUNK_SIZE, OpenCLCasOffinder,
                       PipelineResult, SearchAccumulator,
                       _kernel_stage_times, make_pipeline)
from .workload import StageTimings
from ..resilience.checkpoint import CheckpointSession, resolve_session

#: Poll interval for interruptible blocking waits (seconds).
_POLL_S = 0.05


class ChunkDeadlineExceeded(RuntimeError):
    """A chunk's processing overran the policy's per-chunk deadline."""

    def __init__(self, chunk_index: int, deadline_s: float):
        super().__init__(f"chunk {chunk_index} exceeded the "
                         f"{deadline_s:g}s processing deadline")
        self.chunk_index = chunk_index
        self.deadline_s = deadline_s


class ChunkProcessingError(RuntimeError):
    """A chunk failed its retries and (if enabled) the serial fallback."""

    def __init__(self, chunk_index: int, detail: str):
        super().__init__(f"chunk {chunk_index} failed: {detail}")
        self.chunk_index = chunk_index


class _ChunkFailure:
    """Ordered-merge marker for a chunk whose worker retries ran out."""

    __slots__ = ("chunk", "error", "attempts")

    def __init__(self, chunk: Chunk, error: BaseException, attempts: int):
        self.chunk = chunk
        self.error = error
        self.attempts = attempts


# -- process-pool worker state ------------------------------------------------
# One pipeline per worker process, built lazily by the pool initializer.
# Module-level because process pools can only call picklable top-level
# functions; each child process has its own copy.

_worker_pipeline = None
_worker_injector: Optional[faults.FaultInjector] = None


def _process_pool_init(api: str, device: str, variant: str, mode: str,
                       chunk_size: int, work_group_size: int,
                       fault_spec: Optional[str] = None,
                       trace: bool = False) -> None:
    global _worker_pipeline, _worker_injector
    _worker_pipeline = make_pipeline(api=api, device=device,
                                     variant=variant, mode=mode,
                                     chunk_size=chunk_size,
                                     work_group_size=work_group_size)
    # Each child holds its own firing counters, so process-backend plans
    # should use single-fire entries (the parent-side fallback absorbs
    # the failure deterministically either way).
    _worker_injector = (faults.FaultInjector(
        faults.parse_fault_plan(fault_spec), device=device)
        if fault_spec else None)
    if trace:
        tracing.activate(tracing.TraceRecorder())


def _process_pool_run(index: int, chunk: Chunk, pattern_text: str,
                      queries: Sequence[Query], batched: bool):
    """Run both kernels for one chunk inside a worker process.

    The pattern and queries arrive as text and are compiled again for
    every chunk, a few tens of microseconds each, small next to the
    chunk's kernels.  Returns the chunk output, the launch records it
    generated (the pipeline is long-lived, so only the new slice is
    shipped back) and any trace spans recorded.
    """
    pipeline = _worker_pipeline
    if _worker_injector is not None:
        _worker_injector.inject(index)
    pattern = compile_pattern(pattern_text)
    compiled_queries = [compile_pattern(q.sequence) for q in queries]
    base = len(pipeline.launches)
    with tracing.span("chunk", cat="chunk", chunk=index):
        output = pipeline._process_chunk(chunk, pattern, list(queries),
                                         compiled_queries,
                                         batched=batched)
    return (output, list(pipeline.launches[base:]),
            tracing.drain_active())


class ChunkShardView:
    """Assembly view exposing every ``step``-th chunk starting at
    ``index``.

    Chunks are independent (each carries its own pattern staging and
    candidate set), so a round-robin shard processed by its own pipeline
    yields exactly the results the full assembly would for those chunks.
    Shared by the multi-device searcher and the engine's composition
    with it.
    """

    def __init__(self, assembly: Assembly, index: int, step: int):
        if step < 1 or not 0 <= index < step:
            raise ValueError(f"bad shard ({index}, {step})")
        self._asm = assembly
        self.name = assembly.name
        self.chromosomes = assembly.chromosomes
        self.shard_index = index
        self.shard_step = step

    def chunks(self, chunk_size, pattern_length):
        for number, chunk in enumerate(
                self._asm.chunks(chunk_size, pattern_length)):
            if number % self.shard_step == self.shard_index:
                yield chunk

    def __iter__(self):
        return iter(self._asm)

    def __getattr__(self, name):
        # Underscore/dunder lookups must fail plainly: delegating them
        # recurses on `self._asm` before __init__ has run (unpickling,
        # copy) and breaks protocol probes like __setstate__.
        if name.startswith("_"):
            raise AttributeError(
                f"{type(self).__name__} object has no attribute {name!r}")
        return getattr(self._asm, name)


class ChunkSubsetView:
    """Assembly view exposing exactly the chunks whose ``(chrom, start)``
    keys are named.

    The multi-device searcher uses this for failover: a failed device's
    shard is an arbitrary key set once its completed chunks are
    subtracted, and redistributing those keys across surviving devices
    must yield exactly the chunks the failed shard would have produced.
    Chunk order follows the assembly's canonical enumeration, so the
    ordered-merge invariant holds within each redistributed slice.
    """

    def __init__(self, assembly, keys):
        self._asm = assembly
        self.name = assembly.name
        self.chromosomes = assembly.chromosomes
        self.keys = frozenset(keys)

    def chunks(self, chunk_size, pattern_length):
        for chunk in self._asm.chunks(chunk_size, pattern_length):
            if (chunk.chrom, chunk.start) in self.keys:
                yield chunk

    def __iter__(self):
        return iter(self._asm)

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(
                f"{type(self).__name__} object has no attribute {name!r}")
        return getattr(self._asm, name)


class StreamingEngine:
    """Producer/consumer chunk engine over any of the three pipelines."""

    def __init__(self, policy: Optional[ExecutionPolicy] = None,
                 api: str = "sycl", device: str = "MI100",
                 variant: str = "base", mode: str = "vectorized",
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 work_group_size: int = 256,
                 checkpoint_session: Optional[CheckpointSession] = None,
                 checkpoint_meta: Optional[dict] = None):
        self.policy = policy if policy is not None else ExecutionPolicy()
        self.api = api
        self.device = device
        self.variant_name = variant
        self.mode = mode
        self.chunk_size = chunk_size
        self.work_group_size = work_group_size
        #: Externally owned session (multi-device shares one); when
        #: None, ``search`` resolves and owns its own from the policy.
        self.checkpoint_session = checkpoint_session
        self.checkpoint_meta = dict(checkpoint_meta or ())

    def _journal_meta(self) -> dict:
        meta = {"device": self.device}
        meta.update(self.checkpoint_meta)
        return meta

    def _make_worker_pipeline(self):
        return make_pipeline(api=self.api, device=self.device,
                             variant=self.variant_name, mode=self.mode,
                             chunk_size=self.chunk_size,
                             work_group_size=self.work_group_size)

    def search(self, assembly: Assembly, request: SearchRequest
               ) -> PipelineResult:
        started = time.perf_counter()
        policy = self.policy
        pattern = compile_pattern(request.pattern)
        compiled_queries = [compile_pattern(q.sequence)
                            for q in request.queries]
        use_batched = policy.batch_queries and len(request.queries) > 1
        acc = SearchAccumulator(request, pattern, compiled_queries)
        session = self.checkpoint_session
        owned = False
        if session is None:
            session = resolve_session(policy, assembly, request,
                                      self.chunk_size)
            owned = session is not None
        try:
            if policy.backend == "process" and policy.workers > 1:
                outcome = self._run_processes(assembly, request, pattern,
                                              compiled_queries,
                                              use_batched, acc, session)
            else:
                outcome = self._run_threads(assembly, request, pattern,
                                            compiled_queries, use_batched,
                                            acc, session)
        finally:
            if owned:
                session.close()
        launches, stage_in_s, idle_s, api, variant, wg = outcome
        wall = time.perf_counter() - started
        finder_s, comparer_s = _kernel_stage_times(launches)
        stages = StageTimings(stage_in_s=stage_in_s, finder_s=finder_s,
                              comparer_s=comparer_s,
                              merge_s=acc.merge_time_s,
                              idle_s=idle_s, wall_s=wall)
        workload = acc.build_workload(assembly.name, self.chunk_size,
                                      stages)
        return PipelineResult(hits=acc.hits, launches=launches,
                              workload=workload, wall_time_s=wall,
                              api=api, variant=variant,
                              work_group_size=wg)

    # -- shared failure handling ------------------------------------------

    def _backoff_sleep(self, attempt: int,
                       stop: Optional[threading.Event] = None) -> None:
        policy = self.policy
        delay = min(policy.retry_backoff_cap_s,
                    policy.retry_backoff_s * (2 ** attempt))
        deadline = time.perf_counter() + delay
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or (stop is not None and stop.is_set()):
                return
            time.sleep(min(_POLL_S, remaining))

    def _serial_fallback_run(self, index: int, failure: _ChunkFailure,
                             fallback_box: list, pattern, queries,
                             compiled_queries, use_batched,
                             injector: Optional[faults.FaultInjector]):
        """Degrade a failed chunk to a fresh pipeline on this thread.

        The fallback pipeline is built lazily and reused across failed
        chunks; it still consults the fault injector, so a persistent
        fault (more firings than retries + fallback) surfaces as
        :class:`ChunkProcessingError` instead of looping forever.
        """
        if not self.policy.serial_fallback:
            raise ChunkProcessingError(
                index, f"{failure.attempts} attempt(s) exhausted and "
                       f"serial fallback is disabled "
                       f"({failure.error!r})") from failure.error
        if not fallback_box:
            fallback_box.append(self._make_worker_pipeline())
        pipeline = fallback_box[0]
        try:
            with tracing.span("chunk_fallback", cat="fallback",
                              chunk=index):
                if injector is not None:
                    injector.inject(index)
                base = len(pipeline.launches)
                output = pipeline._process_chunk(
                    failure.chunk, pattern, queries, compiled_queries,
                    batched=use_batched)
                return output, list(pipeline.launches[base:])
        except BaseException as exc:
            raise ChunkProcessingError(
                index, f"{failure.attempts} attempt(s) and the serial "
                       f"fallback all failed ({exc!r})") from exc

    @staticmethod
    def _release_pipelines(pipelines) -> None:
        for pipeline in pipelines:
            if isinstance(pipeline, OpenCLCasOffinder):
                try:
                    pipeline.release()
                except Exception:
                    pass  # already released or wedged mid-fault

    # -- process backend ---------------------------------------------------

    def _run_processes(self, assembly, request, pattern,
                       compiled_queries, use_batched, acc, session=None):
        """Ordered-merge fan-out over a process pool.

        The main process stages chunks and merges results; worker
        processes run the kernels.  The in-flight window (submitted but
        not yet merged) is bounded by ``prefetch_depth + workers``.
        Merging strictly in submission order keeps results identical to
        the serial loop.  A worker failure (raised fault, dead process,
        deadline overrun) degrades that chunk to the main process's
        serial fallback pipeline; a broken pool additionally degrades
        every not-yet-submitted chunk.  Checkpoint restores and journal
        writes both happen parent-side, so the journal never crosses
        the pool boundary.
        """
        import multiprocessing
        from concurrent.futures import TimeoutError as FutureTimeout
        from concurrent.futures import ProcessPoolExecutor

        policy = self.policy
        if "fork" in multiprocessing.get_all_start_methods():
            ctx = multiprocessing.get_context("fork")
        else:
            ctx = multiprocessing.get_context()
        window = policy.prefetch_depth + policy.workers
        launches: List[LaunchRecord] = []
        pending = {}
        state = {"next": 0, "stage_in": 0.0, "idle": 0.0,
                 "broken": False}
        queries = tuple(request.queries)
        fault_spec = (policy.fault_plan if policy.fault_plan is not None
                      else None)
        fallback_box: list = []
        # The parent-side fallback never injects: the child already
        # consumed its firing, so the degraded re-run is deterministic.
        fallback = lambda index, failure: self._serial_fallback_run(
            index, failure, fallback_box, pattern, list(queries),
            compiled_queries, use_batched, injector=None)

        restored_ix: set = set()

        def merge_next() -> None:
            index = state["next"]
            future, chunk = pending.pop(index)
            mark = time.perf_counter()
            try:
                output, records, spans = future.result(
                    timeout=policy.chunk_deadline_s)
            except (KeyboardInterrupt, SystemExit):
                raise
            except FutureTimeout as exc:
                state["idle"] += time.perf_counter() - mark
                future.cancel()
                output, records = fallback(index, _ChunkFailure(
                    chunk, ChunkDeadlineExceeded(
                        index, policy.chunk_deadline_s), 1))
                spans = []
            except BaseException as exc:
                state["idle"] += time.perf_counter() - mark
                state["broken"] = state["broken"] or _pool_is_broken(exc)
                output, records = fallback(index, _ChunkFailure(
                    chunk, exc, 1))
                spans = []
            else:
                state["idle"] += time.perf_counter() - mark
            tracing.merge(spans)
            with tracing.span("merge", cat="merge", chunk=index):
                acc.add_chunk(chunk, output)
            launches.extend(records)
            if session is not None and index not in restored_ix:
                with tracing.span("checkpoint_write", cat="checkpoint",
                                  chunk=index):
                    session.record(chunk, output, **self._journal_meta())
            state["next"] += 1

        def _pool_is_broken(exc: BaseException) -> bool:
            from concurrent.futures.process import BrokenProcessPool
            return isinstance(exc, BrokenProcessPool)

        try:
            with ProcessPoolExecutor(
                    max_workers=policy.workers, mp_context=ctx,
                    initializer=_process_pool_init,
                    initargs=(self.api, self.device, self.variant_name,
                              self.mode, self.chunk_size,
                              self.work_group_size, fault_spec,
                              tracing.active() is not None)) as pool:
                mark = time.perf_counter()
                for index, chunk in enumerate(
                        assembly.chunks(self.chunk_size, pattern.plen)):
                    state["stage_in"] += time.perf_counter() - mark
                    restored = (session.restore(chunk)
                                if session is not None else None)
                    if restored is not None:
                        tracing.instant("checkpoint_skip",
                                        cat="checkpoint", chunk=index)
                        restored_ix.add(index)
                        future = _ResolvedFuture((restored, [], []))
                    elif state["broken"]:
                        future = _ResolvedFuture(fallback(
                            index, _ChunkFailure(
                                chunk, RuntimeError("process pool broken"),
                                0)) + ([],))
                    else:
                        try:
                            future = pool.submit(
                                _process_pool_run, index, chunk,
                                request.pattern, queries, use_batched)
                        except BaseException as exc:
                            state["broken"] = True
                            future = _ResolvedFuture(fallback(
                                index, _ChunkFailure(chunk, exc, 0))
                                + ([],))
                    pending[index] = (future, chunk)
                    while len(pending) >= window:
                        merge_next()
                    mark = time.perf_counter()
                while pending:
                    merge_next()
        finally:
            self._release_pipelines(fallback_box)
        if self.api == "opencl":
            api, variant, wg = "opencl", "base", None
        else:
            from ..kernels.variants import get_variant
            api = self.api
            variant = get_variant(self.variant_name).name
            wg = self.work_group_size
        return (launches, state["stage_in"], state["idle"], api, variant,
                wg)

    # -- thread backend ----------------------------------------------------

    def _run_threads(self, assembly, request, pattern, compiled_queries,
                     use_batched, acc, session=None):
        policy = self.policy
        workers = policy.workers
        injector = faults.resolve_injector(policy.fault_plan,
                                           device=self.device)
        pipelines = [self._make_worker_pipeline()
                     for _ in range(workers)]
        retired: List = []  # abandoned (deadline-wedged) pipelines
        chunk_q: "queue_mod.Queue" = queue_mod.Queue(
            maxsize=policy.prefetch_depth)
        window = threading.Semaphore(policy.prefetch_depth + workers)
        cond = threading.Condition()
        results = {}
        finished_workers = [0]
        errors: List[BaseException] = []
        stop = threading.Event()
        stage_in = [0.0]
        idle = [0.0] * workers

        def fail(exc: BaseException) -> None:
            errors.append(exc)
            stop.set()
            with cond:
                cond.notify_all()

        def produce() -> None:
            try:
                iterator = enumerate(
                    assembly.chunks(self.chunk_size, pattern.plen))
                index = -1
                while True:
                    mark = time.perf_counter()
                    with tracing.span("stage_in", cat="stage") as span:
                        item = next(iterator, None)
                        if item is not None:
                            span.args["chunk"] = item[0]
                    stage_in[0] += time.perf_counter() - mark
                    if item is None:
                        return
                    index, chunk = item
                    while not window.acquire(timeout=_POLL_S):
                        if stop.is_set():
                            return
                    while True:
                        if stop.is_set():
                            return
                        try:
                            chunk_q.put((index, chunk), timeout=_POLL_S)
                            break
                        except queue_mod.Full:
                            continue
            except BaseException as exc:
                fail(exc)
            finally:
                for _ in range(workers):
                    while True:
                        try:
                            chunk_q.put(None, timeout=_POLL_S)
                            break
                        except queue_mod.Full:
                            if stop.is_set():
                                return

        def process_once(worker_index: int, index: int, chunk: Chunk):
            """One processing attempt, under the deadline watchdog.

            Without a deadline the chunk runs inline.  With one, it runs
            on a watchdog thread: on overrun the (possibly wedged)
            pipeline is abandoned to ``retired`` and the worker gets a
            fresh pipeline, so a stalled queue cannot poison later
            chunks.
            """
            pipeline = pipelines[worker_index]

            def execute():
                if injector is not None:
                    injector.inject(index)
                base = len(pipeline.launches)
                output = pipeline._process_chunk(
                    chunk, pattern, request.queries, compiled_queries,
                    batched=use_batched)
                return output, list(pipeline.launches[base:])

            if policy.chunk_deadline_s is None:
                return execute()
            box: dict = {}

            def watchdog_target():
                try:
                    box["result"] = execute()
                except BaseException as exc:
                    box["error"] = exc

            watcher = threading.Thread(
                target=watchdog_target, daemon=True,
                name=f"chunk-{index}-attempt")
            watcher.start()
            watcher.join(policy.chunk_deadline_s)
            if watcher.is_alive():
                retired.append(pipeline)
                pipelines[worker_index] = self._make_worker_pipeline()
                raise ChunkDeadlineExceeded(index,
                                            policy.chunk_deadline_s)
            if "error" in box:
                raise box["error"]
            return box["result"]

        def process_chunk(worker_index: int, index: int, chunk: Chunk):
            """Retry loop: attempts = 1 + max_retries, capped backoff."""
            attempts = policy.max_retries + 1
            last: Optional[BaseException] = None
            for attempt in range(attempts):
                try:
                    with tracing.span("chunk", cat="chunk", chunk=index,
                                      worker=worker_index,
                                      attempt=attempt):
                        return process_once(worker_index, index, chunk)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as exc:
                    last = exc
                    tracing.instant("chunk_retry", cat="fault",
                                    chunk=index, attempt=attempt,
                                    error=type(exc).__name__)
                    if attempt + 1 < attempts:
                        self._backoff_sleep(attempt, stop)
                        if stop.is_set():
                            break
            raise _RetriesExhausted(last, attempts)

        def consume(worker_index: int) -> None:
            try:
                while True:
                    mark = time.perf_counter()
                    item = chunk_q.get()
                    waited = time.perf_counter() - mark
                    if item is None:
                        # Shutdown drain: blocking on the end-of-stream
                        # sentinel is not idleness, so the clock stops
                        # here.
                        return
                    idle[worker_index] += waited
                    if stop.is_set():
                        continue
                    index, chunk = item
                    restored = (session.restore(chunk)
                                if session is not None else None)
                    if restored is not None:
                        tracing.instant("checkpoint_skip",
                                        cat="checkpoint", chunk=index)
                        payload = (chunk, restored, [], True)
                    else:
                        try:
                            output, records = process_chunk(worker_index,
                                                            index, chunk)
                            payload = (chunk, output, records, False)
                        except _RetriesExhausted as exc:
                            payload = _ChunkFailure(chunk, exc.error,
                                                    exc.attempts)
                    with cond:
                        results[index] = payload
                        cond.notify_all()
            except BaseException as exc:
                fail(exc)
            finally:
                with cond:
                    finished_workers[0] += 1
                    cond.notify_all()

        producer = threading.Thread(target=produce, name="chunk-producer",
                                    daemon=True)
        consumers = [threading.Thread(target=consume, args=(i,),
                                      name=f"chunk-worker-{i}",
                                      daemon=True)
                     for i in range(workers)]
        launches: List[LaunchRecord] = []
        fallback_box: list = []
        try:
            producer.start()
            for thread in consumers:
                thread.start()
            next_index = 0
            while True:
                with cond:
                    while True:
                        if next_index in results:
                            item = results.pop(next_index)
                            break
                        if stop.is_set():
                            item = None
                            break
                        if finished_workers[0] == workers:
                            item = None
                            break
                        cond.wait(_POLL_S)
                if item is None:
                    break
                if isinstance(item, _ChunkFailure):
                    output, records = self._serial_fallback_run(
                        next_index, item, fallback_box, pattern,
                        request.queries, compiled_queries, use_batched,
                        injector)
                    chunk = item.chunk
                    from_journal = False
                else:
                    chunk, output, records, from_journal = item
                with tracing.span("merge", cat="merge",
                                  chunk=next_index):
                    acc.add_chunk(chunk, output)
                launches.extend(records)
                if session is not None and not from_journal:
                    with tracing.span("checkpoint_write",
                                      cat="checkpoint",
                                      chunk=next_index):
                        session.record(chunk, output,
                                       **self._journal_meta())
                window.release()
                next_index += 1
            producer.join()
            for thread in consumers:
                thread.join()
            if errors:
                raise errors[0]
        finally:
            stop.set()
            self._release_pipelines(pipelines + retired + fallback_box)
        template = pipelines[0]
        return (launches, stage_in[0], sum(idle), template.api,
                template.variant, template.work_group_size)


class _RetriesExhausted(Exception):
    """Internal: carries the last error out of the worker retry loop."""

    def __init__(self, error: Optional[BaseException], attempts: int):
        super().__init__(f"{attempts} attempt(s) failed: {error!r}")
        self.error = error if error is not None else RuntimeError(
            "chunk processing interrupted")
        self.attempts = attempts


class _ResolvedFuture:
    """Future-alike wrapping a value computed inline (broken-pool path)."""

    def __init__(self, value):
        self._value = value

    def result(self, timeout=None):
        return self._value

    def cancel(self):
        return False


def streaming_search(assembly: Assembly, request: SearchRequest,
                     api: str = "sycl", device: str = "MI100",
                     variant: str = "base", mode: str = "vectorized",
                     chunk_size: int = DEFAULT_CHUNK_SIZE,
                     work_group_size: int = 256,
                     policy: Optional[ExecutionPolicy] = None
                     ) -> PipelineResult:
    """Convenience wrapper over :class:`StreamingEngine`."""
    engine = StreamingEngine(policy, api=api, device=device,
                             variant=variant, mode=mode,
                             chunk_size=chunk_size,
                             work_group_size=work_group_size)
    return engine.search(assembly, request)
