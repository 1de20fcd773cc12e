"""Trace recorder, fault plans, and the engine's recovery paths.

The tentpole invariants: (1) an active recorder captures one kernel span
per kernel launch record and exports valid Chrome-trace JSON; (2) a
fault plan makes chosen chunks raise or stall, and the engine's retry /
deadline / serial-fallback machinery recovers with hits byte-identical
to the serial loop — or fails loudly when recovery is disabled or the
fault persists.
"""

import json
import threading

import pytest

from repro.analysis.reporting import render_trace_summary
from repro.core.config import ExecutionPolicy, Query, SearchRequest
from repro.core.engine import (ChunkDeadlineExceeded, ChunkProcessingError,
                               StreamingEngine, streaming_search)
from repro.core.pipeline import make_pipeline
from repro.observability import (FAULT_ENV, FaultInjector, FaultSpec,
                                 InjectedFault, parse_fault_plan,
                                 resolve_injector)
from repro.observability import tracing

PATTERN = "NNNNNNRG"


def _request(nqueries: int = 2) -> SearchRequest:
    pool = ["GACGTCNN", "TTACGANN", "CCGGAANN"]
    return SearchRequest(pattern=PATTERN,
                         queries=[Query(pool[i], 3)
                                  for i in range(nqueries)])


def _serial(assembly, request, chunk_size=1 << 10):
    return make_pipeline(api="sycl",
                         chunk_size=chunk_size).search(assembly, request)


class TestTraceRecorder:
    def test_span_records_interval_and_args(self):
        recorder = tracing.TraceRecorder()
        with recorder.span("work", cat="test", chunk=3) as span:
            span.args["extra"] = True
        (recorded,) = recorder.spans()
        assert recorded.name == "work" and recorded.cat == "test"
        assert recorded.args == {"chunk": 3, "extra": True}
        assert recorded.end_s >= recorded.start_s
        assert recorded.phase == "X"

    def test_span_records_error_and_reraises(self):
        recorder = tracing.TraceRecorder()
        with pytest.raises(ValueError):
            with recorder.span("bad"):
                raise ValueError("boom")
        (span,) = recorder.spans()
        assert span.args["error"] == "ValueError"

    def test_instant_is_zero_duration(self):
        recorder = tracing.TraceRecorder()
        recorder.instant("hit", cat="cache", hit=True)
        (span,) = recorder.spans()
        assert span.phase == "i" and span.duration_s == 0.0

    def test_threads_record_into_private_buffers(self):
        recorder = tracing.TraceRecorder()

        def work(n):
            for i in range(50):
                with recorder.span(f"t{n}", cat="test"):
                    pass

        threads = [threading.Thread(target=work, args=(n,))
                   for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        spans = recorder.spans()
        assert len(spans) == 200
        assert spans == sorted(spans, key=lambda s: s.start_s)

    def test_merge_and_drain(self):
        recorder = tracing.TraceRecorder()
        with recorder.span("local"):
            pass
        other = tracing.TraceRecorder()
        with other.span("shipped"):
            pass
        recorder.merge(other.drain())
        assert {s.name for s in recorder.spans()} == {"local", "shipped"}
        drained = recorder.drain()
        assert len(drained) == 2 and recorder.spans() == []

    def test_module_helpers_noop_without_recorder(self):
        assert tracing.active() is None
        with tracing.span("ignored", cat="test") as span:
            span.args["ok"] = 1  # writable even when inactive
        tracing.instant("ignored")
        assert tracing.drain_active() == []

    def test_recording_activates_and_restores(self):
        assert tracing.active() is None
        with tracing.recording() as recorder:
            assert tracing.active() is recorder
            with tracing.span("seen"):
                pass
        assert tracing.active() is None
        assert [s.name for s in recorder.spans()] == ["seen"]


class TestChromeTraceExport:
    def test_chrome_trace_structure(self, tmp_path):
        recorder = tracing.TraceRecorder()
        with recorder.span("work", cat="kernel"):
            recorder.instant("hit", cat="cache")
        path = tmp_path / "trace.json"
        recorder.save(str(path))
        trace = json.loads(path.read_text())
        events = trace["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases == {"M", "X", "i"}
        complete = next(e for e in events if e["ph"] == "X")
        assert complete["name"] == "work" and complete["dur"] >= 0
        assert complete["ts"] >= 0
        instant = next(e for e in events if e["ph"] == "i")
        assert instant["s"] == "t"
        meta = next(e for e in events if e["ph"] == "M")
        assert meta["name"] == "thread_name"

    def test_one_kernel_span_per_kernel_launch(self, small_assembly):
        """The acceptance invariant: a traced run contains exactly one
        cat="kernel" span per kernel launch record, for both APIs."""
        request = _request(2)
        for api in ("sycl", "opencl"):
            pipeline = make_pipeline(api=api, chunk_size=1 << 10)
            try:
                with tracing.recording() as recorder:
                    result = pipeline.search(small_assembly, request)
            finally:
                if api == "opencl":
                    pipeline.release()
            kernel_spans = [s for s in recorder.spans()
                            if s.cat == "kernel"]
            kernel_launches = [r for r in result.launches if r.is_kernel]
            assert len(kernel_spans) == len(kernel_launches), api
            names = sorted({s.args["kernel"] for s in kernel_spans})
            assert names == ["comparer", "finder"], api

    def test_streamed_run_traces_engine_stages(self, small_assembly):
        request = _request(2)
        with tracing.recording() as recorder:
            streaming_search(small_assembly, request,
                             chunk_size=1 << 10,
                             policy=ExecutionPolicy(streaming=True,
                                                    workers=2))
        cats = {s.cat for s in recorder.spans()}
        assert {"stage", "chunk", "kernel", "merge"} <= cats

    def test_render_trace_summary(self, small_assembly):
        request = _request(2)
        with tracing.recording() as recorder:
            streaming_search(small_assembly, request, chunk_size=1 << 10)
        table = render_trace_summary(recorder.spans())
        assert "kernel:finder" in table and "kernel:comparer" in table
        assert "Trace summary" in table


class TestFaultPlanParsing:
    def test_single_raise(self):
        (spec,) = parse_fault_plan("raise@2")
        assert spec == FaultSpec(chunk_index=2, kind="raise")

    def test_full_grammar(self):
        specs = parse_fault_plan("raise@0, stall@2:0.4, raise@7x3")
        assert specs[0] == FaultSpec(0, "raise")
        assert specs[1] == FaultSpec(2, "stall", stall_s=0.4)
        assert specs[2] == FaultSpec(7, "raise", count=3)

    def test_stall_with_count(self):
        (spec,) = parse_fault_plan("stall@1:0.2x2")
        assert spec == FaultSpec(1, "stall", count=2, stall_s=0.2)

    @pytest.mark.parametrize("bad", [
        "", "raise", "raise@", "@3", "explode@1", "raise@x2",
        "raise@1x", "stall@1:abc", "raise@-1", "raise@1x0",
        "stall@1:0",
    ])
    def test_malformed_plans_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_fault_plan(bad)

    def test_policy_validates_plan_up_front(self):
        with pytest.raises(ValueError):
            ExecutionPolicy(fault_plan="explode@1")


class TestFaultInjector:
    def test_fires_bounded_count_then_quiet(self):
        injector = FaultInjector(parse_fault_plan("raise@1x2"))
        assert injector.pending() == 2
        for _ in range(2):
            with pytest.raises(InjectedFault):
                injector.inject(1)
        injector.inject(1)  # exhausted: no-op
        assert injector.pending() == 0

    def test_untargeted_chunks_unaffected(self):
        injector = FaultInjector(parse_fault_plan("raise@5"))
        injector.inject(0)
        injector.inject(4)
        assert injector.pending() == 1

    def test_resolve_prefers_explicit_plan(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "raise@9")
        injector = resolve_injector("raise@1")
        with pytest.raises(InjectedFault):
            injector.inject(1)

    def test_resolve_falls_back_to_env(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "raise@3")
        injector = resolve_injector()
        assert injector.pending() == 1
        monkeypatch.delenv(FAULT_ENV)
        assert resolve_injector() is None


class TestEngineRecovery:
    def test_retry_absorbs_raise_fault(self, small_assembly):
        request = _request(2)
        serial = _serial(small_assembly, request)
        policy = ExecutionPolicy(streaming=True, workers=2,
                                 max_retries=1, retry_backoff_s=0.01,
                                 fault_plan="raise@0,raise@2")
        stream = streaming_search(small_assembly, request,
                                  chunk_size=1 << 10, policy=policy)
        assert stream.hits == serial.hits

    def test_deadline_abandons_stalled_chunk(self, small_assembly):
        request = _request(2)
        serial = _serial(small_assembly, request)
        policy = ExecutionPolicy(streaming=True, workers=2,
                                 max_retries=1, retry_backoff_s=0.01,
                                 chunk_deadline_s=0.2,
                                 fault_plan="stall@1:1.5")
        stream = streaming_search(small_assembly, request,
                                  chunk_size=1 << 10, policy=policy)
        assert stream.hits == serial.hits

    def test_serial_fallback_rescues_exhausted_chunk(self,
                                                     small_assembly):
        """Three raise firings against two worker attempts: the merge
        thread's fallback pipeline absorbs the third."""
        request = _request(2)
        serial = _serial(small_assembly, request)
        policy = ExecutionPolicy(streaming=True, workers=2,
                                 max_retries=1, retry_backoff_s=0.01,
                                 fault_plan="raise@1x2")
        stream = streaming_search(small_assembly, request,
                                  chunk_size=1 << 10, policy=policy)
        assert stream.hits == serial.hits

    def test_persistent_fault_raises_chunk_processing_error(
            self, small_assembly):
        request = _request(2)
        policy = ExecutionPolicy(streaming=True, workers=2,
                                 max_retries=1, retry_backoff_s=0.01,
                                 fault_plan="raise@1x8")
        with pytest.raises(ChunkProcessingError) as excinfo:
            streaming_search(small_assembly, request,
                             chunk_size=1 << 10, policy=policy)
        assert excinfo.value.chunk_index == 1

    def test_disabled_fallback_fails_fast(self, small_assembly):
        request = _request(2)
        policy = ExecutionPolicy(streaming=True, workers=2,
                                 max_retries=0, retry_backoff_s=0.01,
                                 serial_fallback=False,
                                 fault_plan="raise@1")
        with pytest.raises(ChunkProcessingError):
            streaming_search(small_assembly, request,
                             chunk_size=1 << 10, policy=policy)

    def test_env_var_plan_honoured(self, small_assembly, monkeypatch):
        request = _request(2)
        serial = _serial(small_assembly, request)
        monkeypatch.setenv(FAULT_ENV, "raise@0")
        policy = ExecutionPolicy(streaming=True, max_retries=1,
                                 retry_backoff_s=0.01)
        stream = streaming_search(small_assembly, request,
                                  chunk_size=1 << 10, policy=policy)
        assert stream.hits == serial.hits

    def test_process_backend_fallback_recovers(self, small_assembly):
        request = _request(2)
        serial = _serial(small_assembly, request)
        policy = ExecutionPolicy(streaming=True, workers=2,
                                 backend="process", max_retries=1,
                                 retry_backoff_s=0.01,
                                 fault_plan="raise@0,raise@2")
        stream = streaming_search(small_assembly, request,
                                  chunk_size=1 << 10, policy=policy)
        assert stream.hits == serial.hits

    def test_fault_instants_recorded(self, small_assembly):
        request = _request(2)
        policy = ExecutionPolicy(streaming=True, max_retries=1,
                                 retry_backoff_s=0.01,
                                 fault_plan="raise@0")
        with tracing.recording() as recorder:
            streaming_search(small_assembly, request,
                             chunk_size=1 << 10, policy=policy)
        names = [s.name for s in recorder.spans() if s.cat == "fault"]
        assert "fault" in names and "chunk_retry" in names

    def test_deadline_exception_carries_context(self):
        exc = ChunkDeadlineExceeded(4, 0.5)
        assert exc.chunk_index == 4 and exc.deadline_s == 0.5
        assert "chunk 4" in str(exc)


class TestCacheInstants:
    def test_genome_cache_instants(self, tmp_path, monkeypatch):
        from repro.genome.synthetic import (CACHE_DIR_ENV, CACHE_ENV,
                                            synthetic_assembly)
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.delenv(CACHE_ENV, raising=False)
        kwargs = dict(profile="hg19", scale=0.0001,
                      chromosomes=["chr21"], seed=11)
        with tracing.recording() as recorder:
            synthetic_assembly(**kwargs)
            synthetic_assembly(**kwargs)
        instants = [s for s in recorder.spans()
                    if s.name == "genome_cache"]
        assert [s.args["hit"] for s in instants] == [False, True]
