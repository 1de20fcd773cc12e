"""Sharded-tier regression sweep: result rings, shard skipping,
gather races, adaptive batching and auto-degrade.

Pins the fixes from the scatter/gather correctness pass:

* results return through preallocated shared-memory rings (pickle only
  on overflow), byte-identical to the in-process comparer;
* infeasible shards are skipped before the scatter;
* ``_gather`` survives a worker whose ``process`` is ``None``, a
  duplicate pong no longer double-counts toward the ping quorum, a
  respawn mid-batch resets the gather deadline, and health/ping answer
  while a batch is in flight (the narrow-lock discipline);
* the scheduler's adaptive controller and small-batch direct routing;
* ``auto_degrade`` / ``calibrate`` routing the tier out of the picture
  when the hop cannot win.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import Query
from repro.core.patterns import compile_pattern
from repro.genome.assembly import Assembly, Chromosome
from repro.observability import tracing
from repro.service import shards as shards_module
from repro.service.index import GenomeSiteIndex
from repro.service.scheduler import BatchScheduler
from repro.service.shards import (DEFAULT_RING_RECORDS,
                                  RING_RECORD_DTYPE, ShardedSiteIndex)

PATTERN = "NNNNNNRG"
QUERIES = [Query("GACGTCNN", 3), Query("TTACGANN", 2)]
CHUNK = 1 << 12


@pytest.fixture(scope="module")
def index(small_assembly):
    return GenomeSiteIndex.build(small_assembly, PATTERN,
                                 chunk_size=CHUNK, packed=True)


@pytest.fixture(scope="module")
def byte_index(small_assembly):
    return GenomeSiteIndex.build(small_assembly, PATTERN,
                                 chunk_size=CHUNK, packed=False)


@pytest.fixture(scope="module")
def ring_tier(index):
    with ShardedSiteIndex(index, shards=2) as tier:
        yield tier


@pytest.fixture(scope="module")
def tiny_ring_tier(index):
    """Four-record rings: any real batch overflows to the pickle path."""
    with ShardedSiteIndex(index, shards=2, ring_records=4) as tier:
        yield tier


@pytest.fixture(scope="module")
def noring_tier(index):
    with ShardedSiteIndex(index, shards=2, ring_records=0) as tier:
        yield tier


# ---------------------------------------------------------------------------
# Result rings
# ---------------------------------------------------------------------------

class TestResultRings:
    def test_record_layout_is_16_bytes(self):
        assert RING_RECORD_DTYPE.itemsize == 16

    def test_ring_records_validation(self, index):
        with pytest.raises(ValueError, match="ring_records"):
            ShardedSiteIndex(index, shards=2, ring_records=-1,
                             start=False)

    def test_ring_path_serves_byte_identical(self, index, ring_tier):
        before = ring_tier.comparer_stats()
        hits = ring_tier.query_batch(QUERIES)
        assert hits == index.query_batch(QUERIES)
        after = ring_tier.comparer_stats()
        path = after["result_path"]
        assert path["ring"] >= before["result_path"]["ring"] + 1
        assert path["pickle"] == before["result_path"]["pickle"]
        assert after["ring_high_water"] > 0
        assert after["ring_records"] == DEFAULT_RING_RECORDS

    def test_rings_reported_outside_index_total(self, ring_tier):
        seg = ring_tier.segment_bytes()
        assert seg["rings"] == \
            2 * DEFAULT_RING_RECORDS * RING_RECORD_DTYPE.itemsize
        assert seg["total"] == seg["genome"] + seg["shards"]

    def test_overflow_falls_back_to_pickle(self, index,
                                           tiny_ring_tier):
        before = tiny_ring_tier.comparer_stats()
        hits = tiny_ring_tier.query_batch(QUERIES)
        assert hits == index.query_batch(QUERIES)
        after = tiny_ring_tier.comparer_stats()
        # QUERIES yields far more than 4 hits per shard on the small
        # assembly, so both shards must have taken the pickle path.
        assert after["result_path"]["pickle"] >= \
            before["result_path"]["pickle"] + 2
        assert after["result_path"]["ring"] == \
            before["result_path"]["ring"]

    def test_rings_disabled_still_byte_identical(self, index,
                                                 noring_tier):
        assert noring_tier.segment_bytes()["rings"] == 0
        before = noring_tier.comparer_stats()
        assert noring_tier.query_batch(QUERIES) == \
            index.query_batch(QUERIES)
        after = noring_tier.comparer_stats()
        assert after["result_path"]["ring"] == 0
        assert after["result_path"]["pickle"] >= \
            before["result_path"]["pickle"] + 2

    def test_byte_mode_tier_uses_rings_too(self, byte_index):
        with ShardedSiteIndex(byte_index, shards=2) as tier:
            assert tier.query_batch(QUERIES) == \
                byte_index.query_batch(QUERIES)
            stats = tier.comparer_stats()
        assert stats["mode"] == "byte"
        assert stats["result_path"]["ring"] >= 1

    def test_ring_occupancy_counter_traced(self, ring_tier):
        recorder = tracing.TraceRecorder()
        tracing.activate(recorder)
        try:
            ring_tier.query_batch(QUERIES)
        finally:
            tracing.activate(None)
        counters = [span for span in recorder.drain()
                    if span.phase == "C"
                    and span.name == "ring_occupancy"]
        assert counters
        assert all(value > 0 for span in counters
                   for value in span.args.values())

    def test_close_unlinks_ring_segments(self, index):
        import os
        tier = ShardedSiteIndex(index, shards=2)
        names = [shm.name for shm in tier._ring_shms]
        assert len(names) == 2
        assert all(os.path.exists(f"/dev/shm/{n}") for n in names)
        tier.close()
        assert not any(os.path.exists(f"/dev/shm/{n}") for n in names)


class TestRingByteIdentity:
    @settings(max_examples=12, deadline=None)
    @given(sequences=st.lists(
        st.text(alphabet="ACGTRN", min_size=8, max_size=8),
        min_size=1, max_size=3))
    def test_ring_overflow_and_pickle_paths_agree(
            self, index, ring_tier, tiny_ring_tier, noring_tier,
            sequences):
        """ring == overflow-pickle == rings-disabled == in-process."""
        queries = [Query(seq, mm) for mm, seq
                   in enumerate(sequences, start=1)]
        expected = index.query_batch(queries)
        assert ring_tier.query_batch(queries) == expected
        assert tiny_ring_tier.query_batch(queries) == expected
        assert noring_tier.query_batch(queries) == expected


# ---------------------------------------------------------------------------
# Shard skipping
# ---------------------------------------------------------------------------

def _two_letter_assembly() -> Assembly:
    """chrA is all ``AAAAAAAG`` windows, chrT all ``TTTTTTTG``."""
    chr_a = np.frombuffer(b"AAAAAAAG" * 64, dtype=np.uint8).copy()
    chr_t = np.frombuffer(b"TTTTTTTG" * 64, dtype=np.uint8).copy()
    return Assembly("two-letter", [Chromosome("chrA", chr_a),
                                   Chromosome("chrT", chr_t)])


class TestShardSkipping:
    @pytest.fixture(scope="class")
    def split_index(self):
        # One chunk per chromosome; round-robin puts chrA on shard 0
        # and chrT on shard 1.
        return GenomeSiteIndex.build(_two_letter_assembly(),
                                     "NNNNNNNG", chunk_size=1024)

    def test_infeasible_shard_is_skipped(self, split_index):
        query = Query("AAAAAAAG", 0)
        expected = split_index.query_batch([query])
        with ShardedSiteIndex(split_index, shards=2) as tier:
            before = tier.comparer_stats()["shards_skipped"]
            assert tier.query_batch([query]) == expected
            after = tier.comparer_stats()["shards_skipped"]
            compiled = [compile_pattern(query.sequence)]
            with tier._lock:
                targets = tier._select_shards([query], compiled)
        assert after == before + 1
        assert [w.shard_id for w in targets] == [0]
        assert all(hit.chrom == "chrA" for hit in expected[0])

    def test_feasible_everywhere_skips_nothing(self, split_index):
        queries = [Query("AAAAAAAG", 0), Query("TTTTTTTG", 0)]
        expected = split_index.query_batch(queries)
        with ShardedSiteIndex(split_index, shards=2) as tier:
            assert tier.query_batch(queries) == expected
            assert tier.comparer_stats()["shards_skipped"] == 0

    def test_siteless_shard_is_skipped(self, split_index):
        # Two chunks over three shards: shard 2 holds no sites and
        # must never be scattered to.
        query = Query("AAAAAAAG", 8)
        expected = split_index.query_batch([query])
        with ShardedSiteIndex(split_index, shards=3) as tier:
            assert tier.query_batch([query]) == expected
            assert tier.comparer_stats()["shards_skipped"] >= 1
            assert len(tier.shard_health()) == 3


# ---------------------------------------------------------------------------
# Gather races and lock discipline
# ---------------------------------------------------------------------------

class TestGatherRegressions:
    def test_gather_respawns_worker_with_none_process(self, index):
        """The gather loop must respawn (not crash on) a worker whose
        ``process`` is ``None`` — the race that used to raise
        ``AttributeError: 'NoneType' object has no attribute
        'is_alive'``."""
        with ShardedSiteIndex(index, shards=2) as tier:
            worker = tier._worker(0)
            worker.process.terminate()
            worker.process.join(timeout=5.0)
            worker.process = None
            specs = [(q.sequence, q.max_mismatches) for q in QUERIES]
            with tier._batch_lock:
                collected = tier._gather(0, list(QUERIES), specs,
                                         False, [worker])
            assert 0 in collected
            assert worker.respawns == 1

    def test_scatter_respawns_worker_with_none_process(self, index):
        with ShardedSiteIndex(index, shards=2) as tier:
            worker = tier._worker(1)
            worker.process.terminate()
            worker.process.join(timeout=5.0)
            worker.process = None
            assert tier.query_batch(QUERIES) == \
                index.query_batch(QUERIES)
            assert tier._worker(1).respawns == 1

    def test_ping_ignores_duplicate_pong(self, index, monkeypatch):
        """A forged duplicate pong must not satisfy the quorum in
        place of a shard that has not answered."""
        class _FixedToken:
            hex = "feedfacefeedface"

        with ShardedSiteIndex(index, shards=2) as tier:
            monkeypatch.setattr(shards_module.uuid, "uuid4",
                                lambda: _FixedToken)
            # A duplicate of shard 0's pong, already in flight.
            tier._results.put(("pong", 0, _FixedToken.hex, 0))
            assert tier.ping(timeout_s=10.0) == {0: True, 1: True}

    @pytest.mark.fault
    def test_respawn_resets_gather_deadline(self, index):
        """A worker that dies late in the batch window leaves its
        successor a full ``task_timeout_s``, not the leftovers."""
        expected = index.query_batch(QUERIES)
        with ShardedSiteIndex(index, shards=2,
                              task_timeout_s=3.0) as tier:
            # Wait for the workers' task loops before injecting, so
            # the stall spends batch time, not startup time.
            assert tier.ping(timeout_s=30.0) == {0: True, 1: True}
            # Shard 0 burns most of the original deadline, then dies;
            # without the reset the respawned worker cannot finish
            # inside the remaining fraction of a second.
            tier.inject_worker_delay(0, 2.4)
            tier.inject_worker_crash(0)
            assert tier.query_batch(QUERIES) == expected
            health = {h["shard"]: h for h in tier.shard_health()}
            assert health[0]["respawns"] == 1

    @pytest.mark.fault
    def test_health_and_ping_answer_mid_batch(self, index):
        """The state lock is never held across a gather, so health
        probes answer while a batch is in flight."""
        expected = index.query_batch(QUERIES)
        with ShardedSiteIndex(index, shards=2) as tier:
            # Wait for the workers' task loops first: a spawned worker
            # takes ~0.6 s to start, as long as the probe window.
            assert tier.ping(timeout_s=30.0) == {0: True, 1: True}
            tier.inject_worker_delay(0, 1.5)
            results = []
            thread = threading.Thread(
                target=lambda: results.append(
                    tier.query_batch(QUERIES)))
            thread.start()
            try:
                time.sleep(0.3)  # shard 0 is now asleep mid-batch
                began = time.monotonic()
                health = tier.shard_health()
                stats = tier.comparer_stats()
                ok = tier.ping(timeout_s=0.4)
                elapsed = time.monotonic() - began
            finally:
                thread.join(timeout=30.0)
            assert not thread.is_alive()
            assert elapsed < 1.2
            assert [h["shard"] for h in health] == [0, 1]
            assert all(h["alive"] for h in health)
            assert stats["batches_sharded"] == 1
            # Shard 1 is idle and pongs inside the short window; the
            # stalled shard 0 cannot.
            assert ok == {0: False, 1: True}
            assert results == [expected]
            # The late pong from shard 0 is dead on arrival for the
            # next ping round (fresh token, cleared stash).
            assert tier.ping(timeout_s=10.0) == {0: True, 1: True}


# ---------------------------------------------------------------------------
# Adaptive scheduler
# ---------------------------------------------------------------------------

class _CountingIndex:
    """Index proxy recording which entry point served each batch."""

    def __init__(self, inner):
        self._inner = inner
        self.batched_calls = 0
        self.direct_calls = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def query_batch(self, queries):
        self.batched_calls += 1
        return self._inner.query_batch(queries)

    def query_batch_direct(self, queries):
        self.direct_calls += 1
        return self._inner.query_batch(queries)


class TestAdaptiveScheduler:
    def test_ctor_validation(self, index):
        with pytest.raises(ValueError, match="min_batch"):
            BatchScheduler(index, min_batch=0, start=False)
        with pytest.raises(ValueError, match="min_batch"):
            BatchScheduler(index, max_batch=2, min_batch=3,
                           start=False)
        with pytest.raises(ValueError, match="max_batch_limit"):
            BatchScheduler(index, max_batch=8, max_batch_limit=4,
                           start=False)
        with pytest.raises(ValueError, match="direct_below"):
            BatchScheduler(index, direct_below=-1, start=False)

    def test_grows_under_backlog(self, index):
        scheduler = BatchScheduler(index, max_batch=1,
                                   max_wait_ms=0.0, adaptive=True,
                                   max_batch_limit=8, start=False)
        try:
            futures = [scheduler.submit([QUERIES[0]])
                       for _ in range(6)]
            scheduler.start()
            for future in futures:
                future.result(timeout=60.0)
            stats = scheduler.stats()
        finally:
            scheduler.close()
        assert stats["adaptive"]["enabled"]
        assert stats["adaptive"]["grown"] >= 1
        assert stats["max_batch"] > 1

    def test_shrinks_on_latency_tail(self, index):
        scheduler = BatchScheduler(index, max_batch=8, adaptive=True,
                                   start=False)
        try:
            scheduler._latencies_ms.extend([1.0] * 14 + [100.0] * 2)
            scheduler._adapt()
            assert scheduler.max_batch == 4
            assert scheduler.stats()["adaptive"]["shrunk"] == 1
            # The window resets so one bad tail cannot cascade the
            # batch size all the way down to min_batch.
            assert len(scheduler._latencies_ms) == 0
        finally:
            scheduler.close()

    def test_no_shrink_without_enough_samples(self, index):
        scheduler = BatchScheduler(index, max_batch=8, adaptive=True,
                                   start=False)
        try:
            scheduler._latencies_ms.extend([1.0] * 7 + [100.0])
            scheduler._adapt()
            assert scheduler.max_batch == 8
        finally:
            scheduler.close()

    def test_small_batches_route_direct(self, index):
        proxy = _CountingIndex(index)
        with BatchScheduler(proxy, max_batch=8, max_wait_ms=0.5,
                            direct_below=3) as scheduler:
            small = scheduler.submit([QUERIES[0]])
            assert small.result(timeout=60.0) == \
                index.query_batch([QUERIES[0]])
            big = scheduler.submit(QUERIES + [QUERIES[0]])
            big.result(timeout=60.0)
            stats = scheduler.stats()
        assert proxy.direct_calls == 1
        assert proxy.batched_calls == 1
        assert stats["adaptive"]["routed"] == {"batched": 1,
                                               "direct": 1}

    def test_direct_routing_needs_index_support(self, index):
        # The plain GenomeSiteIndex has no query_batch_direct: the
        # scheduler must fall back to the batched path, not crash.
        with BatchScheduler(index, max_batch=8, max_wait_ms=0.5,
                            direct_below=3) as scheduler:
            future = scheduler.submit([QUERIES[0]])
            assert future.result(timeout=60.0) == \
                index.query_batch([QUERIES[0]])
            stats = scheduler.stats()
        assert stats["adaptive"]["routed"]["direct"] == 0

    def test_sharded_tier_serves_direct_route(self, index, ring_tier):
        before = ring_tier.comparer_stats()["batches_direct"]
        with BatchScheduler(ring_tier, max_batch=8, max_wait_ms=0.5,
                            direct_below=3) as scheduler:
            future = scheduler.submit([QUERIES[0]])
            assert future.result(timeout=60.0) == \
                index.query_batch([QUERIES[0]])
        after = ring_tier.comparer_stats()["batches_direct"]
        assert after == before + 1


# ---------------------------------------------------------------------------
# Auto-degrade and calibration
# ---------------------------------------------------------------------------

class TestAutoDegrade:
    def test_degrades_on_single_cpu(self, index, monkeypatch):
        monkeypatch.setattr(shards_module.os, "cpu_count", lambda: 1)
        with ShardedSiteIndex(index, shards=2,
                              auto_degrade=True) as tier:
            assert tier.degraded
            assert "1 cpu" in tier.degrade_reason
            # A degraded tier holds no workers and no shared memory.
            assert tier.shard_health() == []
            assert tier.ping() == {}
            seg = tier.segment_bytes()
            assert seg["total"] == 0 and seg["rings"] == 0
            assert tier.query_batch(QUERIES) == \
                index.query_batch(QUERIES)
            stats = tier.comparer_stats()
        assert stats["degraded"]
        assert stats["batches_direct"] == 1
        assert stats["batches_sharded"] == 0

    def test_stays_sharded_on_multicore(self, index, monkeypatch):
        monkeypatch.setattr(shards_module.os, "cpu_count", lambda: 8)
        with ShardedSiteIndex(index, shards=2,
                              auto_degrade=True) as tier:
            assert not tier.degraded
            assert len(tier.shard_health()) == 2
            assert tier.query_batch(QUERIES) == \
                index.query_batch(QUERIES)

    def test_calibrate_degrades_when_hop_loses(self, index):
        with ShardedSiteIndex(index, shards=2) as tier:
            tier._time_call = lambda fn, queries: \
                1.0 if fn == tier.query_batch else 0.25
            report = tier.calibrate(QUERIES)
            assert report["degraded"]
            assert "0.25x" in report["reason"]
            assert tier.shard_health() == []
            assert tier.segment_bytes()["total"] == 0
            # The facade keeps serving, in-process.
            assert tier.query_batch(QUERIES) == \
                index.query_batch(QUERIES)

    def test_calibrate_keeps_winning_tier(self, index):
        with ShardedSiteIndex(index, shards=2) as tier:
            tier._time_call = lambda fn, queries: \
                0.1 if fn == tier.query_batch else 1.0
            report = tier.calibrate(QUERIES)
            assert not report["degraded"]
            assert report["sharded_s"] == 0.1
            assert len(tier.shard_health()) == 2

    def test_calibrate_noop_once_degraded(self, index, monkeypatch):
        monkeypatch.setattr(shards_module.os, "cpu_count", lambda: 1)
        with ShardedSiteIndex(index, shards=2,
                              auto_degrade=True) as tier:
            report = tier.calibrate(QUERIES)
        assert report["degraded"]
        assert report["sharded_s"] is None
        assert report["direct_s"] is None


# ---------------------------------------------------------------------------
# CI leak guard
# ---------------------------------------------------------------------------

class TestShmGuard:
    def test_guard_reports_clean(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(shards_module, "_DEV_SHM", str(tmp_path))
        assert shards_module.main(["--guard"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_guard_fails_on_leak(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(shards_module, "_DEV_SHM", str(tmp_path))
        (tmp_path / "repro-shm-999999-dead-s0").write_bytes(b"x")
        assert shards_module.main(["--guard"]) == 1
        out = capsys.readouterr().out
        assert "repro-shm-999999-dead-s0" in out
        assert "1 leaked segment(s)" in out

    def test_no_action_is_an_error(self):
        with pytest.raises(SystemExit):
            shards_module.main([])
