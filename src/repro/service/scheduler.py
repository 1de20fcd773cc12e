"""Continuous-batching request scheduler over a resident site index.

Production inference servers coalesce whatever requests are waiting
into one accelerator launch instead of running them one by one; the
batched multi-query comparer gives this workload the same opportunity.
:class:`BatchScheduler` owns a bounded queue and a worker thread that
gathers requests into a micro-batch — flushed when either ``max_batch``
queries have accumulated or the oldest request has waited
``max_wait_ms``, whichever comes first — and runs the whole batch
through a single :meth:`GenomeSiteIndex.query_batch` call, so the
comparer launch count scales with batches, not requests.

Overload is handled at admission: when the queue is full, ``submit``
raises a typed :class:`ServiceOverloaded` immediately instead of
letting latency grow without bound.  Each request may carry a deadline;
requests that expire while queued are failed with
:class:`DeadlineExceeded` rather than occupying comparer time.

With ``adaptive=True`` the scheduler retunes itself from the stats it
already tracks: ``max_batch`` doubles (up to ``max_batch_limit``) when
the queue is backed up a full batch deep, halves (down to
``min_batch``) when the queue is empty but the latency tail has blown
out past 3× the median — batching that large buys no coalescing, only
tail latency.

Observability: every batch runs under a ``service_batch`` tracing span,
every completed request ships a manually-timed ``service_request`` span
(queue wait + execution), and :meth:`stats` reports queue depth, a
batch-size histogram, p50/p95/p99 latency and the adaptive controller's
state for the ``stats`` server op.
"""

from __future__ import annotations

import math
import os
import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.config import Query
from ..core.records import OffTargetHit
from ..observability import tracing
from .index import GenomeSiteIndex


class ServiceOverloaded(RuntimeError):
    """The request queue is full; the client should back off and retry."""


class DeadlineExceeded(RuntimeError):
    """The request's deadline passed before a batch could serve it."""


class SchedulerClosed(RuntimeError):
    """The scheduler has been closed and accepts no new requests."""


@dataclass
class _PendingRequest:
    """One admitted request waiting for (or riding in) a batch."""

    queries: List[Query]
    future: "Future[List[List[OffTargetHit]]]"
    enqueued_perf: float
    enqueued_wall: float
    #: Absolute ``perf_counter`` expiry, or None for no deadline.
    deadline: Optional[float] = None
    args: Dict[str, object] = field(default_factory=dict)


def _percentile(sorted_values: Sequence[float],
                q: float) -> Optional[float]:
    """Nearest-rank percentile over an ascending sequence.

    Returns ``None`` when no samples exist: a freshly started scheduler
    has no latency history, and reporting a fabricated ``0.0`` (which
    dashboards read as "instant responses") is misreporting, not a
    percentile.
    """
    if not sorted_values:
        return None
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


class BatchScheduler:
    """Bounded queue + micro-batching worker over a site index.

    ``start=False`` leaves the worker thread unstarted so tests can
    enqueue a known set of requests and then observe exactly how they
    coalesce (or exercise admission control deterministically); call
    :meth:`start` to begin draining.
    """

    def __init__(self, index: GenomeSiteIndex, max_batch: int = 8,
                 max_wait_ms: float = 5.0, max_queue: int = 64,
                 start: bool = True, latency_window: int = 2048,
                 adaptive: bool = False, min_batch: int = 1,
                 max_batch_limit: Optional[int] = None):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if not max_wait_ms >= 0:
            raise ValueError(
                f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if min_batch < 1 or min_batch > max_batch:
            raise ValueError(
                f"min_batch must be in [1, max_batch], got {min_batch}")
        if max_batch_limit is not None and max_batch_limit < max_batch:
            raise ValueError(
                f"max_batch_limit must be >= max_batch, "
                f"got {max_batch_limit}")
        self.index = index
        self.max_batch = int(max_batch)
        self.max_wait_s = float(max_wait_ms) / 1000.0
        self.max_queue = int(max_queue)
        self.adaptive = bool(adaptive)
        self.min_batch = int(min_batch)
        self.max_batch_limit = int(
            max_batch_limit if max_batch_limit is not None
            else max(max_batch, max_queue))
        self._grown = 0
        self._shrunk = 0
        self._queue: "queue.Queue[Optional[_PendingRequest]]" = \
            queue.Queue(maxsize=max_queue)
        self._stop = threading.Event()
        self._stats_lock = threading.Lock()
        #: Guards the executing/inflight counters; notified whenever a
        #: request settles so :meth:`drain` and :meth:`swap_index` can
        #: wait without polling.
        self._exec_cond = threading.Condition()
        #: Batches currently inside ``_execute`` (0 or 1).
        self._executing = 0
        #: Admitted requests not yet settled (result/exception set).
        self._inflight = 0
        #: Serializes :meth:`swap_index` callers.
        self._swap_lock = threading.Lock()
        self._swaps = 0
        self._completed = 0
        self._rejected = 0
        self._expired = 0
        self._batches = 0
        #: Admitted requests by workload kind (plain guide lookups,
        #: guide-design candidate sweeps, variant-overlay searches).
        #: query/design coalesce into the same micro-batches; variant
        #: requests run their own single-batch pass outside the queue
        #: (counted via :meth:`count_request`).  The split is
        #: observability only.
        self._requests_by_kind: Dict[str, int] = {"query": 0,
                                                  "design": 0,
                                                  "variant": 0}
        self._batch_sizes: Dict[int, int] = {}
        self._latencies_ms: "deque[float]" = deque(maxlen=latency_window)
        self._worker: Optional[threading.Thread] = None
        if start:
            self.start()

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Start the batch worker (idempotent)."""
        if self._worker is None or not self._worker.is_alive():
            self._worker = threading.Thread(
                target=self._run, name="batch-scheduler", daemon=True)
            self._worker.start()

    def close(self) -> None:
        """Stop accepting requests and drain the worker."""
        if self._stop.is_set():
            return
        self._stop.set()
        try:
            self._queue.put_nowait(None)  # wake a blocked get()
        except queue.Full:
            pass
        if self._worker is not None and self._worker.is_alive():
            self._worker.join(timeout=10.0)
        # Fail whatever is still queued so no client hangs forever.
        while True:
            try:
                pending = self._queue.get_nowait()
            except queue.Empty:
                break
            if pending is None:
                continue
            if pending.future.set_running_or_notify_cancel():
                pending.future.set_exception(
                    SchedulerClosed("scheduler closed before the "
                                    "request could be served"))
            self._request_done()

    def __enter__(self) -> "BatchScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- admission ------------------------------------------------------

    def submit(self, queries: Sequence[Query],
               deadline_s: Optional[float] = None,
               kind: str = "query",
               ) -> "Future[List[List[OffTargetHit]]]":
        """Admit one request; returns a future of per-query hit lists.

        ``kind`` labels the workload ("query" for guide lookups,
        "design" for a guide-design candidate sweep riding the same
        batch path); it only affects the :meth:`stats` counters.

        Raises :class:`ServiceOverloaded` when the queue is full,
        :class:`SchedulerClosed` after :meth:`close`,
        :class:`DeadlineExceeded` when ``deadline_s`` has already
        expired at submit time, and ``ValueError`` for empty or
        malformed query lists (checked here so bad input never reaches
        the batch worker).
        """
        if kind not in self._requests_by_kind:
            raise ValueError(
                f"unknown request kind {kind!r}; expected one of "
                f"{sorted(self._requests_by_kind)}")
        if self._stop.is_set():
            raise SchedulerClosed("scheduler is closed")
        queries = list(queries)
        if not queries:
            raise ValueError("a request must carry at least one query")
        plen = self.index.compiled_pattern.plen
        for q in queries:
            if len(q.sequence) != plen:
                raise ValueError(
                    f"query {q.sequence!r} has length "
                    f"{len(q.sequence)}; the served pattern "
                    f"{self.index.pattern!r} requires {plen}")
        if deadline_s is not None and not math.isfinite(deadline_s):
            raise ValueError(
                f"deadline_s must be finite, got {deadline_s}")
        if deadline_s is not None and deadline_s <= 0:
            # Already expired: fail fast instead of occupying a queue
            # slot only to be discarded at batch assembly.
            with self._stats_lock:
                self._expired += 1
            tracing.instant("service_deadline", cat="service",
                            at="submit", deadline_s=deadline_s)
            raise DeadlineExceeded(
                f"deadline_s={deadline_s} had already expired at "
                f"submit time")
        now = time.perf_counter()
        pending = _PendingRequest(
            queries=queries, future=Future(), enqueued_perf=now,
            enqueued_wall=time.time(),
            deadline=None if deadline_s is None else now + deadline_s)
        # Count the request in-flight *before* it becomes visible to
        # the worker, so the counter can never dip negative even if the
        # worker settles it immediately.
        with self._exec_cond:
            self._inflight += 1
        try:
            self._queue.put_nowait(pending)
        except queue.Full:
            self._request_done()
            with self._stats_lock:
                self._rejected += 1
            tracing.instant("service_reject", cat="service",
                            queue_depth=self._queue.qsize())
            raise ServiceOverloaded(
                f"request queue is full ({self.max_queue} waiting); "
                f"retry with backoff") from None
        with self._stats_lock:
            self._requests_by_kind[kind] += 1
        return pending.future

    def count_request(self, kind: str) -> None:
        """Count one request served outside the micro-batch path.

        The ``variant`` op builds request-scoped patch chunks and runs
        its own single batched pass through
        ``query_batch_with_extras`` — it cannot coalesce with queued
        guide lookups — but it should still show up in the
        :meth:`stats` request accounting.
        """
        if kind not in self._requests_by_kind:
            raise ValueError(
                f"unknown request kind {kind!r}; expected one of "
                f"{sorted(self._requests_by_kind)}")
        with self._stats_lock:
            self._requests_by_kind[kind] += 1

    def _request_done(self, n: int = 1) -> None:
        """Settle ``n`` in-flight requests and wake drain waiters."""
        with self._exec_cond:
            self._inflight -= n
            self._exec_cond.notify_all()

    # -- worker ---------------------------------------------------------

    def _run(self) -> None:
        while not self._stop.is_set():
            batch = self._gather()
            if not batch:
                continue
            with self._exec_cond:
                self._executing += 1
            try:
                self._execute(batch)
            finally:
                with self._exec_cond:
                    self._executing -= 1
                    self._exec_cond.notify_all()

    def _gather(self) -> List[_PendingRequest]:
        """Block for one request, then coalesce until flush."""
        try:
            first = self._queue.get(timeout=0.1)
        except queue.Empty:
            return []
        if first is None:
            return []
        batch = [first]
        total = len(first.queries)
        flush_at = time.perf_counter() + self.max_wait_s
        while total < self.max_batch:
            remaining = flush_at - time.perf_counter()
            if remaining <= 0:
                break
            try:
                nxt = self._queue.get(timeout=remaining)
            except queue.Empty:
                break
            if nxt is None:
                break
            batch.append(nxt)
            total += len(nxt.queries)
        return batch

    def _execute(self, batch: List[_PendingRequest]) -> None:
        now = time.perf_counter()
        live: List[_PendingRequest] = []
        for pending in batch:
            if not pending.future.set_running_or_notify_cancel():
                self._request_done()
                continue  # client cancelled while queued
            if pending.deadline is not None and now >= pending.deadline:
                with self._stats_lock:
                    self._expired += 1
                tracing.instant("service_deadline", cat="service",
                                waited_ms=(now - pending.enqueued_perf)
                                * 1000.0)
                pending.future.set_exception(DeadlineExceeded(
                    f"request expired after waiting "
                    f"{(now - pending.enqueued_perf) * 1000.0:.1f} ms "
                    f"in the queue"))
                self._request_done()
                continue
            live.append(pending)
        if not live:
            return
        flat: List[Query] = []
        for pending in live:
            flat.extend(pending.queries)
        try:
            with tracing.span("service_batch", cat="service",
                              requests=len(live), queries=len(flat)):
                results = self.index.query_batch(flat)
        except BaseException as exc:  # noqa: BLE001 - forwarded to clients
            for pending in live:
                pending.future.set_exception(exc)
            self._request_done(len(live))
            return
        finished = time.perf_counter()
        finished_wall = time.time()
        cursor = 0
        request_spans: List[tracing.Span] = []
        with self._stats_lock:
            self._batches += 1
            self._batch_sizes[len(flat)] = \
                self._batch_sizes.get(len(flat), 0) + 1
            for pending in live:
                span = results[cursor:cursor + len(pending.queries)]
                cursor += len(pending.queries)
                pending.future.set_result(span)
                self._completed += 1
                self._latencies_ms.append(
                    (finished - pending.enqueued_perf) * 1000.0)
                request_spans.append(tracing.Span(
                    name="service_request", cat="service",
                    start_s=pending.enqueued_wall, end_s=finished_wall,
                    pid=os.getpid(), tid="batch-scheduler",
                    args={"queries": len(pending.queries),
                          "batch_queries": len(flat)}))
        tracing.merge(request_spans)
        self._request_done(len(live))
        if self.adaptive:
            self._adapt()

    # -- hot swap / drain -----------------------------------------------

    def swap_index(self, new_index: GenomeSiteIndex,
                   drain_timeout_s: float = 30.0) -> GenomeSiteIndex:
        """Atomically swap the served index; returns the old one.

        The worker reads ``self.index`` once per batch, so a plain
        assignment is the swap; this method additionally waits (up to
        ``drain_timeout_s``) for any batch already executing on the old
        index to finish, so the caller may safely drop the returned
        index.  Requests queued
        at swap time run on the *new* index — zero downtime.

        Raises ``ValueError`` when the new index serves a different
        pattern (queued requests were validated against the old one),
        and ``TimeoutError`` when an old-index batch is still running
        after the budget — the swap itself has taken effect either
        way.
        """
        old = self.index
        if new_index.pattern != old.pattern:
            raise ValueError(
                f"cannot swap index serving pattern "
                f"{new_index.pattern!r} in place of "
                f"{old.pattern!r}: queued requests were validated "
                f"against the served pattern")
        with self._swap_lock:
            self.index = new_index
            deadline = time.perf_counter() + drain_timeout_s
            with self._exec_cond:
                while self._executing:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        raise TimeoutError(
                            f"a batch was still executing on the old "
                            f"index after {drain_timeout_s:g}s; the "
                            f"swap has taken effect but the old index "
                            f"must not be released yet")
                    self._exec_cond.wait(timeout=remaining)
            with self._stats_lock:
                self._swaps += 1
        tracing.instant("scheduler_swap", cat="service",
                        pattern=old.pattern)
        return old

    def drain(self, timeout_s: float) -> bool:
        """Wait until every admitted request has settled.

        Returns True when the scheduler went idle within ``timeout_s``
        (queue empty *and* no batch executing), False on timeout — the
        graceful-shutdown path uses this to bound how long a SIGTERM
        waits for in-flight work.
        """
        deadline = time.perf_counter() + timeout_s
        with self._exec_cond:
            while self._inflight:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    return False
                self._exec_cond.wait(timeout=remaining)
        return True

    def _adapt(self) -> None:
        """Retune ``max_batch`` from queue depth and latency tails.

        Grow when admission is outrunning the flush size (a full
        batch is already queued behind the one just served); shrink
        when the queue is drained but the p95 tail has blown out past
        3× the median — at that point larger batches are buying no
        coalescing, only latency.  The latency window resets on
        shrink so one bad tail does not trigger a collapse to
        ``min_batch``.
        """
        depth = self._queue.qsize()
        with self._stats_lock:
            if depth >= self.max_batch and \
                    self.max_batch < self.max_batch_limit:
                self.max_batch = min(self.max_batch_limit,
                                     self.max_batch * 2)
                self._grown += 1
                changed = ("grow", depth)
            elif depth == 0 and self.max_batch > self.min_batch \
                    and len(self._latencies_ms) >= 16:
                latencies = sorted(self._latencies_ms)
                p50 = _percentile(latencies, 0.50)
                p95 = _percentile(latencies, 0.95)
                if p50 and p95 and p95 > 3.0 * p50:
                    self.max_batch = max(self.min_batch,
                                         self.max_batch // 2)
                    self._shrunk += 1
                    self._latencies_ms.clear()
                    changed = ("shrink", depth)
                else:
                    return
            else:
                return
        tracing.instant("scheduler_adapt", cat="service",
                        direction=changed[0], queue_depth=changed[1],
                        max_batch=self.max_batch)

    # -- introspection --------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Queue depth, counters, batch-size histogram, latency tails.

        The index's :meth:`~GenomeSiteIndex.comparer_stats` (comparer
        batches, queries and scanned entries) ride along under
        ``"comparer"``.
        """
        with self._stats_lock:
            latencies = sorted(self._latencies_ms)
            histogram = dict(sorted(self._batch_sizes.items()))
            completed, rejected = self._completed, self._rejected
            expired, batches = self._expired, self._batches
            grown, shrunk = self._grown, self._shrunk
            swaps = self._swaps
            by_kind = dict(self._requests_by_kind)
        return {
            "comparer": self.index.comparer_stats(),
            "queue_depth": self._queue.qsize(),
            "max_queue": self.max_queue,
            "max_batch": self.max_batch,
            "max_wait_ms": self.max_wait_s * 1000.0,
            "completed": completed,
            "rejected": rejected,
            "expired": expired,
            "batches": batches,
            "inflight": self._inflight,
            "index_swaps": swaps,
            "requests_by_kind": by_kind,
            "batch_size_histogram": histogram,
            "adaptive": {
                "enabled": self.adaptive,
                "min_batch": self.min_batch,
                "max_batch_limit": self.max_batch_limit,
                "grown": grown,
                "shrunk": shrunk,
            },
            "latency_ms": {
                "count": len(latencies),
                "mean": (sum(latencies) / len(latencies)
                         if latencies else None),
                "p50": _percentile(latencies, 0.50),
                "p95": _percentile(latencies, 0.95),
                "p99": _percentile(latencies, 0.99),
                "max": latencies[-1] if latencies else None,
            },
        }
