"""Layer spans recorded from outside the serving stack.

The traced benchmark run wraps the public entry points of each layer
(scheduler, index, comparer, hit construction, finder, design, variants)
with :class:`Tracer` spans.  Nothing under ``src/`` changes: the
launcher (``launch.py``) calls :func:`install_server_spans` in each
``serve``/``route`` process before it hands control to the CLI.  The
generator already times each ``ServiceClient`` call, so it installs
none.

Spans are wrapped per call, never per hit.  Each process keeps
aggregates in memory -- per-span durations, self times and counters --
and writes them as JSON when it exits; :func:`join` merges the files.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Descendant spans subtracted from ``variants.search`` to give the
#: variant layer's self time: its finder, comparer and hit children.
VARIANT_CHILDREN = ("pipeline.find", "pipeline.compare",
                    "pipeline.hit_build")


def self_time(start: float, end: float,
              children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it its child spans cover
    (the union of the children, clipped to the span)."""
    own = end - start
    cursor = start
    for lo, hi in sorted(children):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            own -= hi - lo
            cursor = hi
    return own


class _Frame:
    __slots__ = ("start", "children")

    def __init__(self, start: float):
        self.start = start
        #: (name, start, end) of every closed descendant span.
        self.children: List[Tuple[str, float, float]] = []


class Tracer:
    """Per-process span aggregates: durations, self times, counters.

    Spans nest per thread, so a span opened while another is open on
    the same thread is its child.  ``self_of`` names, per span name,
    which descendant spans its self time excludes.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 self_of: Optional[Dict[str, Tuple[str, ...]]] = None):
        self.clock = clock
        self.self_of = dict(self_of or {})
        # Re-entrant: reset() runs from a signal handler on the main
        # thread, which may itself be recording a span.
        self._lock = threading.RLock()
        self._local = threading.local()
        self._pending: List[Tuple[Any, float]] = []
        self._batch_started = float("-inf")
        self._pipelines: Dict[int, Tuple[Any, int]] = {}
        self.reset()

    # -- recording -------------------------------------------------------

    def reset(self) -> None:
        """Drop everything recorded so far (start of a timed window)."""
        with self._lock:
            self.durations: Dict[str, List[float]] = {}
            self.self_s: Dict[str, float] = {}
            self.counts: Dict[str, float] = {}
            self._pending = []
            self._pipelines = {
                key: (pipeline, len(pipeline.launches))
                for key, (pipeline, _) in self._pipelines.items()}

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def record(self, name: str, seconds: float) -> None:
        with self._lock:
            self.durations.setdefault(name, []).append(seconds)

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        frame = _Frame(self.clock())
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            self.record(name, end - frame.start)
            excluded = self.self_of.get(name)
            if excluded is not None:
                own = self_time(frame.start, end,
                                [(lo, hi) for child, lo, hi
                                 in frame.children if child in excluded])
                with self._lock:
                    self.self_s[name] = self.self_s.get(name, 0.0) + own
            if stack:
                parent = stack[-1]
                parent.children.extend(frame.children)
                parent.children.append((name, frame.start, end))

    def wrap(self, owner: Any, attr: str, name: str,
             after: Optional[Callable[..., None]] = None,
             before: Optional[Callable[..., None]] = None) -> None:
        """Replace ``owner.attr`` with a spanned version of itself.

        ``before(args)`` runs ahead of the call and ``after(args,
        result)`` once it returned; both count work from the call's
        arguments and result, never per hit.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            if before is not None:
                before(args)
            result = self.call(name, original, *args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, spanned)

    # -- scheduler wait --------------------------------------------------

    def note_submit(self, future: Any, submitted: float) -> None:
        """Remember an admitted request until a batch starts serving it.

        Also records ``scheduler.request``: submit to result, the time
        the server spends in the scheduler layer for that request.
        """
        with self._lock:
            started = self._batch_started >= submitted
            if future.done() or (future.running() and started):
                # A full batch can start before submit() returns here;
                # batches run one at a time, so the latest one to start
                # is the one serving this request.
                if started:
                    self.durations.setdefault("scheduler.wait", []) \
                        .append(self._batch_started - submitted)
            else:
                self._pending.append((future, submitted))
        future.add_done_callback(
            lambda _f: self.record("scheduler.request",
                                   self.clock() - submitted))

    def claim_waits(self) -> None:
        """At a batch start: close the wait of every request it serves.

        The scheduler marks a batch's futures running just before it
        calls ``query_batch``, and runs one batch at a time, so the
        running futures are exactly the ones this batch serves.
        """
        now = self.clock()
        with self._lock:
            self._batch_started = now
            keep = []
            for future, submitted in self._pending:
                if future.running():
                    self.durations.setdefault(
                        "scheduler.wait", []).append(now - submitted)
                elif not future.done():
                    keep.append((future, submitted))
            self._pending = keep

    # -- runtime launch records -------------------------------------------

    def track_pipeline(self, pipeline: Any) -> None:
        with self._lock:
            if id(pipeline) not in self._pipelines:
                self._pipelines[id(pipeline)] = (pipeline,
                                                 len(pipeline.launches))

    def launch_growth(self) -> int:
        with self._lock:
            return sum(len(p.launches) - base
                       for p, base in self._pipelines.values())

    # -- output ----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {"durations": {k: list(v)
                                  for k, v in self.durations.items()},
                    "self_s": dict(self.self_s),
                    "counts": dict(self.counts),
                    "launch_growth": self.launch_growth()}

    def dump(self, path: str) -> None:
        """Write the aggregates atomically (a reader never sees half)."""
        part = path + ".part"
        with open(part, "w", encoding="ascii") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(part, path)


def join(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge per-process snapshots into one set of aggregates."""
    out: Dict[str, Any] = {"durations": {}, "self_s": {}, "counts": {},
                           "launch_growth": 0}
    for snap in snapshots:
        for name, values in snap["durations"].items():
            out["durations"].setdefault(name, []).extend(values)
        for key in ("self_s", "counts"):
            for name, value in snap[key].items():
                out[key][name] = out[key].get(name, 0) + value
        out["launch_growth"] += snap["launch_growth"]
    return out


def install_server_spans(tracer: Tracer) -> None:
    """Wrap each serving layer's public entry points with spans.

    Functions the server imported by name are wrapped where the server
    looks them up (``repro.service.server``); methods are wrapped on
    their classes.
    """
    from repro.core import pipeline
    from repro.service import index, scheduler, server

    tracer.self_of["variants.search"] = VARIANT_CHILDREN
    submit = scheduler.BatchScheduler.submit

    @functools.wraps(submit)
    def spanned_submit(self, *args, **kwargs):
        submitted = tracer.clock()
        future = submit(self, *args, **kwargs)
        tracer.note_submit(future, submitted)
        return future

    scheduler.BatchScheduler.submit = spanned_submit

    def batch_queries(args, _result):
        tracer.count("index.query_batch_calls", 1)
        tracer.count("index.query_batch_queries", len(args[1]))

    tracer.wrap(index.GenomeSiteIndex, "query_batch", "index.batch",
                before=lambda args: tracer.claim_waits(),
                after=batch_queries)
    tracer.wrap(index.GenomeSiteIndex, "query_batch_with_extras",
                "index.batch")

    def compared(args):
        tracer.track_pipeline(args[0])
        tracer.count("pipeline.site_queries",
                     int(args[1].loci.size) * len(args[2]))

    tracer.wrap(pipeline._BasePipeline, "compare_resident_triples",
                "pipeline.compare", before=compared)
    tracer.wrap(pipeline, "build_entry_hits", "pipeline.hit_build",
                after=lambda args, result: tracer.count(
                    "pipeline.hits_built",
                    sum(len(per_query) for per_query in result)))
    for cls in vars(pipeline).values():
        if isinstance(cls, type) and "find_candidates" in vars(cls):
            tracer.wrap(cls, "find_candidates", "pipeline.find",
                        before=lambda args: tracer.track_pipeline(
                            args[0]))

    tracer.wrap(server, "enumerate_for_design", "design.enumerate",
                after=lambda args, result: tracer.count(
                    "design.candidates", len(result[1])))
    tracer.wrap(server, "rank_candidates", "design.rank")

    def variant_result(args, result):
        tracer.count("variants.patches", result.patched_chunks)
        tracer.count("variants.events", len(result.events))

    tracer.wrap(server, "search_variants", "variants.search",
                after=variant_result)
