"""Self-tests of the benchmark at tiny scale.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys
import threading
from concurrent.futures import Future

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.core.reference import reference_search  # noqa: E402
from repro.core.records import OffTargetHit, sort_hits  # noqa: E402

TINY = dict(scale=0.00005, chromosomes=("chr20", "chr21", "chr22"))


@pytest.fixture(scope="module")
def genome(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("genome") / "genome.fa")
    return workloads.Genome(7, path, **TINY)


# -- expected payloads --------------------------------------------------------


def test_guide_pool_rows_match_the_reference_oracle(genome):
    pool = genome.guide_pool(6)
    assert len({guide for guide, _ in pool}) == 6
    for guide, rows in pool:
        oracle = reference_search(genome.assembly, workloads.PATTERN,
                                  [guide], workloads.QUERY_MISMATCHES)
        served = [OffTargetHit(query=r[0], chrom=r[1], position=r[2],
                               site=r[3], strand=r[4], mismatches=r[5])
                  for r in rows]
        assert sort_hits(served) == sort_hits(oracle)
        # Drawn from unique sequence: the guide's own site only.
        assert sum(1 for r in rows if r[5] == 0) == 1


def test_inputs_are_fixed_by_the_seed(tmp_path):
    def draw(name):
        g = workloads.Genome(11, str(tmp_path / name), **TINY)
        return (g.guide_pool(3), g.haplotype("h", TINY["chromosomes"]))

    assert draw("a.fa") == draw("b.fa")


def test_haplotypes_put_one_valid_variant_on_each_chromosome(genome):
    from repro.variants import decode_haplotypes
    chromosomes = TINY["chromosomes"]
    haplotype = genome.haplotype("h", chromosomes)
    (decoded,) = decode_haplotypes([haplotype])
    assert sorted(v.chrom for v in decoded.variants) == sorted(chromosomes)
    kinds = [(len(ref) == 1, len(alt) == 1)
             for _, _, ref, alt in haplotype["variants"]]
    assert kinds == [(True, True), (False, True), (True, False)]


# -- percentiles ---------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert measure.percentile(values, 50) == 50
    assert measure.percentile(values, 99) == 99
    assert measure.percentile(values, 100) == 100
    assert measure.percentile([3.0], 99) == 3.0
    with pytest.raises(ValueError):
        measure.percentile([], 50)


def test_highest_tail_level_leaves_ten_samples_beyond():
    assert measure.samples_beyond(1000, 99) == 10
    assert measure.highest_tail_level(1000) == 99
    assert measure.highest_tail_level(999) == 90
    assert measure.highest_tail_level(10000) == 99.9
    assert measure.highest_tail_level(100) == 90
    assert measure.highest_tail_level(99) is None
    assert measure.samples_for_tail(99) == 1000
    assert measure.samples_for_tail(90) == 100


def test_median_rate_is_the_median_over_runs_of_completions():
    # 20 ends in 10 runs of 2: nine at 2 per second, one held up by a
    # 4-s stall, which a whole-window total (20 in 14 s) would count.
    ends = [0.5 * i for i in range(1, 21)]
    ends[10:] = [end + 4.0 for end in ends[10:]]
    assert measure.median_rate(ends, 0.0) == pytest.approx(2.0)
    # Fewer ends than runs: one end per run.
    assert measure.median_rate([0.5, 1.0, 1.5], 0.0) == pytest.approx(2.0)
    # One run is the whole-window rate.
    assert measure.median_rate(ends, 0.0, slices=1) == \
        pytest.approx(20 / 14.0)


def test_zero_counters_skip_gauges_and_need_zero_everywhere():
    first = measure.flatten({"completed": 5, "rejected": 0,
                             "queue_depth": 0,
                             "comparer": {"queries_fallback": 0,
                                          "mode": "packed"}})
    second = measure.flatten({"retries": 0, "rejected": 2})
    assert "queue_depth" not in first
    assert measure.zero_counters([first, second]) == [
        "comparer.queries_fallback", "retries"]


# -- self time -------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    assert spans.self_time(0, 10, []) == 10
    assert spans.self_time(0, 10, [(1, 3), (2, 4)]) == 7
    assert spans.self_time(0, 10, [(-5, 2), (9, 20)]) == 7
    assert spans.self_time(0, 10, [(3, 4), (1, 8)]) == 3


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_tracer_self_time_excludes_only_the_named_descendants():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock,
                          self_of={"outer": ("leaf",)})

    def leaf():
        clock.now += 2

    def middle():
        clock.now += 1
        tracer.call("leaf", leaf)  # a grandchild of outer
        clock.now += 1

    def outer():
        clock.now += 3
        tracer.call("middle", middle)
        tracer.call("leaf", leaf)

    tracer.call("outer", outer)
    snap = tracer.snapshot()
    assert snap["durations"]["outer"] == [9]
    assert snap["durations"]["leaf"] == [2, 2]
    assert snap["self_s"] == {"outer": 5}


def test_scheduler_wait_closes_at_the_batch_that_serves_it():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    served, queued = Future(), Future()
    tracer.note_submit(served, 1.0)
    tracer.note_submit(queued, 2.0)
    clock.now = 4.0
    served.set_running_or_notify_cancel()
    tracer.claim_waits()
    served.set_result([])
    assert tracer.snapshot()["durations"]["scheduler.wait"] == [3.0]
    assert tracer.snapshot()["durations"]["scheduler.request"] == [3.0]
    # A batch that already started when submit() returned.
    late = Future()
    late.set_running_or_notify_cancel()
    tracer.note_submit(late, 3.5)
    assert tracer.snapshot()["durations"]["scheduler.wait"] == [3.0, 0.5]
    assert not queued.running()


def test_tracer_reset_starts_a_new_window():
    tracer = spans.Tracer()
    tracer.count("hits", 3)
    tracer.record("span", 1.0)
    tracer.reset()
    assert tracer.snapshot() == {"durations": {}, "self_s": {},
                                 "counts": {}, "launch_growth": 0}


# -- the served stack ------------------------------------------------------------


def test_traced_pass_checks_responses_and_leaves_nothing_behind(
        genome, tmp_path):
    import run
    requests = workloads.query_requests(genome, 4)
    workdir = str(tmp_path / "work")
    os.makedirs(workdir)
    before = threading.active_count()
    result = run.run_pass(run.WORKLOADS["query"], genome, requests,
                          workdir, seconds=0.5, traced=True, setups=1)
    assert result.failed == 0 and result.window.attempted > 0
    assert result.spans["durations"]["index.batch"]
    assert result.spans["launch_growth"] == 0
    # Only the server logs remain: ready and span files are gone.
    assert all(name.endswith(".log") for name in os.listdir(workdir))
    assert threading.active_count() == before


def _processes_mentioning(text: str):
    found = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                if text.encode() in handle.read():
                    found.append(int(pid))
        except OSError:
            pass
    return found


def test_interrupted_pass_stops_every_child(genome, tmp_path, monkeypatch):
    import run
    workdir = str(tmp_path / "interrupted")
    os.makedirs(workdir)

    def interrupt(_stack):
        raise KeyboardInterrupt

    monkeypatch.setattr(run, "read_stats", interrupt)
    with pytest.raises(KeyboardInterrupt):
        run.run_pass(run.WORKLOADS["routed"], genome,
                     workloads.query_requests(genome, 2), workdir,
                     seconds=0.2, traced=False, setups=1)
    assert _processes_mentioning(workdir) == []
    assert not [n for n in os.listdir(workdir) if n.endswith(".ready")]


def test_a_child_that_ignores_sigterm_fails_the_stop(tmp_path,
                                                     monkeypatch):
    import subprocess
    import stack as stack_lib
    monkeypatch.setattr(stack_lib, "STOP_GRACE_S", 0.5)
    stack = stack_lib.Stack(str(tmp_path), traced=False)
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "import signal, time; signal.signal(signal.SIGTERM, "
         "signal.SIG_IGN); print('up', flush=True); time.sleep(60)"],
        stdout=subprocess.PIPE, start_new_session=True)
    assert proc.stdout.readline() == b"up\n"
    stack.children.append(stack_lib.Child(
        "stubborn", proc, str(tmp_path / "r"), str(tmp_path / "l"), None))
    with pytest.raises(stack_lib.ChildLeak, match="stubborn"):
        stack.stop()
    assert proc.poll() is not None
    proc.stdout.close()
