"""Streaming engine equivalence, launch fusion and stage timings.

The engine's one hard invariant is byte-identical results: for any
pipeline API, comparer variant, chunk size and query count, the
streaming/batched execution paths must produce exactly the hit list (and
workload counters) of the serial chunk loop.  The hypothesis test sweeps
that space; the directed tests pin the launch-count collapse, the edge
cases and the composition with the multi-device searcher.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ExecutionPolicy, Query, SearchRequest
from repro.core.engine import ChunkShardView, StreamingEngine, streaming_search
from repro.core.multidevice import multi_device_search
from repro.core.patterns import compile_pattern
from repro.core.pipeline import make_pipeline, search
from repro.kernels.variants import VARIANT_ORDER

PATTERN = "NNNNNNRG"
QUERY_POOL = ["GACGTCNN", "TTACGANN", "CCGGAANN", "ACGTACNN"]


def _request(nqueries: int, thresholds=None) -> SearchRequest:
    if thresholds is None:
        thresholds = [3] * nqueries
    return SearchRequest(
        pattern=PATTERN,
        queries=[Query(QUERY_POOL[i], thresholds[i])
                 for i in range(nqueries)])


def _serial(assembly, request, api="sycl", variant="base",
            chunk_size=1 << 10):
    pipeline = make_pipeline(api=api, device="MI100", variant=variant,
                             mode="vectorized", chunk_size=chunk_size)
    try:
        return pipeline.search(assembly, request)
    finally:
        if api == "opencl":
            pipeline.release()


def _streaming(assembly, request, api="sycl", variant="base",
               chunk_size=1 << 10, **policy_kw):
    policy = ExecutionPolicy(streaming=True, **policy_kw)
    engine = StreamingEngine(policy, api=api, device="MI100",
                             variant=variant, mode="vectorized",
                             chunk_size=chunk_size)
    return engine.search(assembly, request)


class TestEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(api=st.sampled_from(["opencl", "sycl", "sycl-usm"]),
           variant=st.sampled_from(VARIANT_ORDER),
           chunk_size=st.sampled_from([257, 1 << 10, 1 << 20]),
           nqueries=st.integers(1, 4),
           prefetch=st.integers(1, 3))
    def test_engine_matches_serial(self, small_assembly, api, variant,
                                   chunk_size, nqueries, prefetch):
        """Hit sets are identical to the serial loop for every API,
        comparer variant, chunk size (including a single-chunk run at
        1 MiB) and query count."""
        if api == "opencl" and variant != "base":
            variant = "base"
        request = _request(nqueries)
        serial = _serial(small_assembly, request, api=api,
                         variant=variant, chunk_size=chunk_size)
        stream = _streaming(small_assembly, request, api=api,
                            variant=variant, chunk_size=chunk_size,
                            prefetch_depth=prefetch)
        assert stream.hits == serial.hits
        assert stream.workload.candidates == serial.workload.candidates
        assert (stream.workload.positions_scanned
                == serial.workload.positions_scanned)

    def test_empty_hit_sets_match(self, small_assembly):
        """Zero-threshold queries that do not occur verbatim in the
        fixture genome: both paths agree on the empty result."""
        request = SearchRequest(
            pattern=PATTERN,
            queries=[Query("TACTATNN", 0), Query("GGGTTTNN", 0)])
        serial = _serial(small_assembly, request)
        stream = _streaming(small_assembly, request)
        assert serial.hits == stream.hits == []

    def test_single_chunk_genome(self, tiny_assembly):
        """A chunk size larger than the genome exercises the
        one-chunk-per-chromosome edge."""
        request = _request(3)
        serial = _serial(tiny_assembly, request, chunk_size=1 << 20)
        stream = _streaming(tiny_assembly, request, chunk_size=1 << 20)
        assert stream.hits == serial.hits
        assert stream.workload.chunk_count == serial.workload.chunk_count

    @pytest.mark.slow
    def test_process_backend_matches(self, tiny_assembly):
        """The process pool path (true parallelism) merges in chunk
        order and stays identical."""
        request = _request(2)
        serial = _serial(tiny_assembly, request, chunk_size=512)
        stream = _streaming(tiny_assembly, request, chunk_size=512,
                            workers=2, backend="process")
        assert stream.hits == serial.hits

    def test_thread_workers_match(self, small_assembly):
        request = _request(2)
        serial = _serial(small_assembly, request, chunk_size=1 << 10)
        stream = _streaming(small_assembly, request, chunk_size=1 << 10,
                            workers=3)
        assert stream.hits == serial.hits

    def test_search_wrapper_honours_request_policy(self, small_assembly):
        request = _request(2)
        request.execution = ExecutionPolicy(streaming=True)
        via_request = search(small_assembly, request, chunk_size=1 << 10)
        serial = _serial(small_assembly, _request(2))
        assert via_request.hits == serial.hits
        assert via_request.workload.stages is not None

    def test_streaming_search_wrapper(self, small_assembly):
        request = _request(2)
        serial = _serial(small_assembly, request)
        stream = streaming_search(small_assembly, request,
                                  chunk_size=1 << 10)
        assert stream.hits == serial.hits


class TestLaunchFusion:
    def test_batched_collapses_comparer_launches(self, small_assembly):
        """chunks x queries comparer launches become one per chunk."""
        request = _request(3)
        serial = _serial(small_assembly, request, chunk_size=1 << 10)
        stream = _streaming(small_assembly, request, chunk_size=1 << 10)

        def comparer_launches(result):
            return [r for r in result.launches
                    if r.is_kernel and r.name.startswith("comparer")]

        chunks = serial.workload.chunk_count
        assert len(comparer_launches(serial)) == chunks * 3
        fused = comparer_launches(stream)
        assert len(fused) == chunks
        assert all(r.name == "comparer_batched" and r.batch == 3
                   for r in fused)

    def test_single_query_keeps_per_query_kernel(self, small_assembly):
        """Batching one query would only rename the launch; the engine
        keeps the classic kernel."""
        stream = _streaming(small_assembly, _request(1),
                            chunk_size=1 << 10)
        assert all(r.name == "comparer" for r in stream.launches
                   if r.is_kernel and r.name.startswith("comparer"))


class TestStageTimings:
    def test_engine_reports_stage_timings(self, small_assembly):
        stream = _streaming(small_assembly, _request(2),
                            chunk_size=1 << 10)
        stages = stream.workload.stages
        assert stages is not None
        assert stages.wall_s > 0
        assert stages.finder_s > 0
        assert stages.comparer_s > 0
        assert set(stages.as_dict()) == {
            "stage_in_s", "finder_s", "comparer_s", "merge_s", "idle_s",
            "wall_s"}

    def test_serial_batched_reports_stage_timings(self, small_assembly):
        result = search(small_assembly, _request(2), chunk_size=1 << 10,
                        execution=ExecutionPolicy(streaming=False))
        assert result.workload.stages is not None
        assert result.workload.stages.comparer_s > 0

    def test_render_stage_timings(self, small_assembly):
        from repro.analysis.reporting import render_stage_timings
        stream = _streaming(small_assembly, _request(2),
                            chunk_size=1 << 10)
        text = render_stage_timings(stream.workload.stages)
        for label in ("stage-in", "finder", "comparer", "merge", "idle",
                      "wall"):
            assert label in text


class TestComposition:
    def test_multidevice_with_streaming_engine(self, small_assembly):
        request = _request(2)
        serial = _serial(small_assembly, request, chunk_size=1 << 10)
        multi = multi_device_search(
            small_assembly, request, devices=("MI100", "MI60"),
            chunk_size=1 << 10,
            execution=ExecutionPolicy(streaming=True))
        from repro.core.records import sort_hits
        assert multi.sorted_hits() == sort_hits(serial.hits)

    def test_chunk_shard_view_partitions_exactly(self, small_assembly):
        full = list(small_assembly.chunks(1 << 10, len(PATTERN)))
        shards = [list(ChunkShardView(small_assembly, i, 3)
                       .chunks(1 << 10, len(PATTERN)))
                  for i in range(3)]
        assert sum(len(s) for s in shards) == len(full)
        for i, shard in enumerate(shards):
            assert [c.start for c in shard] == [
                c.start for j, c in enumerate(full) if j % 3 == i]

    def test_bad_shard_rejected(self, small_assembly):
        with pytest.raises(ValueError, match="shard"):
            ChunkShardView(small_assembly, 3, 3)


class TestPolicyValidation:
    def test_bad_prefetch_rejected(self):
        with pytest.raises(ValueError, match="prefetch"):
            ExecutionPolicy(prefetch_depth=0)

    def test_bad_workers_rejected(self):
        with pytest.raises(ValueError, match="worker"):
            ExecutionPolicy(workers=0)

    def test_bad_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            ExecutionPolicy(backend="gpu")

    def test_worker_error_propagates(self, small_assembly):
        engine = StreamingEngine(ExecutionPolicy(streaming=True),
                                 api="sycl", chunk_size=1 << 10)
        request = _request(2)
        request.queries = [Query(QUERY_POOL[0], 3)] * 2
        request.pattern = PATTERN

        class Boom(Exception):
            pass

        class ExplodingAssembly:
            name = "boom"

            def chunks(self, chunk_size, pattern_length):
                yield from small_assembly.chunks(chunk_size,
                                                 pattern_length)
                raise Boom("staging failed")

        with pytest.raises(Boom):
            engine.search(ExplodingAssembly(), request)


class TestWorkGroupSize:
    def test_streaming_search_forwards_work_group_size(self,
                                                       small_assembly):
        """The wrapper threads ``work_group_size`` to worker pipelines
        (PR-1 dropped it, silently pinning every streamed run to 256)."""
        request = _request(2)
        result = streaming_search(small_assembly, request,
                                  chunk_size=1 << 10,
                                  work_group_size=128)
        assert result.work_group_size == 128
        kernels = [r for r in result.launches if r.is_kernel]
        assert kernels and all(r.local_size == 128 for r in kernels)

    def test_search_wrapper_forwards_work_group_size(self,
                                                     small_assembly):
        request = _request(2)
        for execution in (None, ExecutionPolicy(streaming=True)):
            result = search(small_assembly, request, chunk_size=1 << 10,
                            work_group_size=64, execution=execution)
            assert result.work_group_size == 64

    def test_work_group_size_preserves_hits(self, small_assembly):
        request = _request(2)
        baseline = _serial(small_assembly, request)
        result = streaming_search(small_assembly, request,
                                  chunk_size=1 << 10,
                                  work_group_size=128)
        assert result.hits == baseline.hits


class TestChunkShardViewAttributes:
    def test_missing_private_attribute_raises_attribute_error(self):
        """A shard view whose __init__ never ran (pickle/copy protocols)
        must raise AttributeError, not recurse through __getattr__."""
        view = ChunkShardView.__new__(ChunkShardView)
        with pytest.raises(AttributeError):
            view._asm
        with pytest.raises(AttributeError):
            view.__deepcopy__

    def test_dunder_probe_not_delegated(self, small_assembly):
        view = ChunkShardView(small_assembly, 0, 2)
        with pytest.raises(AttributeError):
            view.__wrapped__

    def test_pickle_round_trip(self, small_assembly):
        import pickle
        view = ChunkShardView(small_assembly, 1, 3)
        clone = pickle.loads(pickle.dumps(view))
        assert clone.shard_index == 1 and clone.shard_step == 3
        assert ([c.start for c in clone.chunks(1 << 10, len(PATTERN))]
                == [c.start for c in view.chunks(1 << 10, len(PATTERN))])

    def test_public_delegation_still_works(self, small_assembly):
        view = ChunkShardView(small_assembly, 0, 2)
        assert view.total_length == small_assembly.total_length


class _SlowTailAssembly:
    """Assembly whose chunk stream stalls before raising StopIteration.

    With the PR-1 idle accounting, the wait for the end-of-stream
    sentinel during this stall was booked as worker idle time."""

    def __init__(self, assembly, tail_delay_s: float):
        self._asm = assembly
        self._delay = tail_delay_s
        self.name = assembly.name
        self.chromosomes = assembly.chromosomes

    def chunks(self, chunk_size, pattern_length):
        yield from self._asm.chunks(chunk_size, pattern_length)
        import time
        time.sleep(self._delay)


class TestIdleAccounting:
    def test_shutdown_drain_not_counted_as_idle(self, small_assembly):
        """A 0.3 s producer tail stall must not inflate idle_s: waiting
        for the shutdown sentinel is not time a worker could have spent
        computing."""
        request = _request(1)
        slow = _SlowTailAssembly(small_assembly, 0.3)
        result = streaming_search(slow, request, chunk_size=1 << 10)
        assert result.workload.stages.idle_s < 0.25

    def test_saturated_single_worker_near_zero_idle(self,
                                                    small_assembly):
        request = _request(2)
        result = streaming_search(small_assembly, request,
                                  chunk_size=1 << 10)
        stages = result.workload.stages
        assert stages.idle_s < max(0.2, 0.5 * stages.wall_s)


class TestFaultInjectedEquivalence:
    @pytest.mark.fault
    def test_equivalence_sweep_with_faults(self, small_assembly,
                                           fault_injected_policy):
        """Tier-1 retry-path coverage: with raise, stall-past-deadline
        and retries-exhausted faults on three chunk indices, every API's
        streamed hits stay byte-identical to the serial loop."""
        request = _request(2)
        for api in ("sycl", "sycl-usm", "opencl"):
            serial = _serial(small_assembly, request, api=api)
            engine = StreamingEngine(fault_injected_policy, api=api,
                                     device="MI100", variant="base",
                                     mode="vectorized",
                                     chunk_size=1 << 10)
            stream = engine.search(small_assembly, request)
            assert stream.hits == serial.hits, api
            assert (stream.workload.candidates
                    == serial.workload.candidates), api


class TestPatternCache:
    def test_cached_arrays_are_immutable(self):
        compiled = compile_pattern("NNNNNNRG")
        with pytest.raises(ValueError):
            compiled.comp[0] = 0

    def test_distinct_patterns_not_conflated(self):
        a = compile_pattern("NNNNNNRG")
        b = compile_pattern("NNNNNNGG")
        assert not np.array_equal(a.comp, b.comp)
