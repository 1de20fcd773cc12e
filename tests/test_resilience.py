"""Tests for the durability layer: journal, manifests, resume, repair.

The contract under test is the one the paper's long-running searches
need: a run interrupted at any point (including SIGKILL mid-write)
resumes from its checkpoint directory and produces a hit list
byte-identical to an uninterrupted run, skipping every journaled chunk.
"""

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core.config import ExecutionPolicy, Query, SearchRequest
from repro.core.pipeline import _ChunkOutput, search
from repro.core.records import sort_hits
from repro.genome.assembly import Assembly, Chromosome
from repro.observability import tracing
from repro.resilience import (CHECKPOINT_ENV, CheckpointError,
                              CheckpointMismatchError, CheckpointSession,
                              JOURNAL_NAME, JournalError, JournalWriter,
                              RunManifest, load_journal, repair_journal,
                              resolve_session)
from repro.resilience.journal import (decode_record, encode_record,
                                      make_record, pack_output,
                                      unpack_output)

CHUNK = 256  # small enough for several chunks on the tiny assembly


def _sample_output(seed: int = 0) -> _ChunkOutput:
    rng = np.random.default_rng(seed)
    n = 5
    per_query = [
        (rng.integers(0, 1000, size=3).astype(np.uint32),
         rng.integers(0, 4, size=3).astype(np.uint16),
         np.array([ord("+"), ord("-"), ord("+")], dtype=np.uint8)),
        (np.zeros(0, np.uint32), np.zeros(0, np.uint16),
         np.zeros(0, np.uint8)),
    ]
    return _ChunkOutput(candidate_count=n, per_query=per_query,
                        loci=rng.integers(0, 1000, size=n).astype(
                            np.uint32),
                        flags=rng.integers(0, 3, size=n).astype(np.uint8))


def _outputs_equal(a: _ChunkOutput, b: _ChunkOutput) -> bool:
    if a.candidate_count != b.candidate_count:
        return False
    if not (np.array_equal(a.loci, b.loci)
            and np.array_equal(a.flags, b.flags)):
        return False
    if len(a.per_query) != len(b.per_query):
        return False
    for ta, tb in zip(a.per_query, b.per_query):
        if not all(np.array_equal(x, y) for x, y in zip(ta, tb)):
            return False
    return True


class _FakeChunk:
    def __init__(self, chrom="chr1", start=0, scan_length=100):
        self.chrom = chrom
        self.start = start
        self.scan_length = scan_length


class TestJournalCodec:
    def test_output_roundtrip(self):
        output = _sample_output()
        assert _outputs_equal(unpack_output(pack_output(output)), output)

    def test_record_roundtrip(self):
        record = make_record(_FakeChunk(), _sample_output(),
                             device="MI100", reassigned_from="MI60")
        back = decode_record(encode_record(record).rstrip(b"\n"))
        assert back["device"] == "MI100"
        assert back["reassigned_from"] == "MI60"
        assert _outputs_equal(unpack_output(back["output"]),
                              _sample_output())

    def test_checksum_guards_line(self):
        line = encode_record(make_record(_FakeChunk(),
                                         _sample_output())).rstrip(b"\n")
        flipped = bytearray(line)
        flipped[20] ^= 0x01
        with pytest.raises(JournalError, match="checksum"):
            decode_record(bytes(flipped))

    def test_disallowed_dtype_rejected(self):
        with pytest.raises(JournalError, match="dtype"):
            unpack_output({"candidate_count": 0, "per_query": [],
                           "loci": {"dtype": "float64", "b64": ""},
                           "flags": {"dtype": "uint8", "b64": ""}})

    def test_short_line_rejected(self):
        with pytest.raises(JournalError):
            decode_record(b"xx")


class TestJournalFile:
    def _write(self, path, n):
        with JournalWriter(str(path)) as writer:
            for i in range(n):
                writer.append(make_record(
                    _FakeChunk(start=i * CHUNK), _sample_output(i)))

    def test_missing_file_reads_empty(self, tmp_path):
        records, valid, total = load_journal(str(tmp_path / "none"))
        assert (records, valid, total) == ([], 0, 0)

    def test_append_and_load(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        self._write(path, 3)
        records, valid, total = load_journal(str(path))
        assert [r["start"] for r in records] == [0, CHUNK, 2 * CHUNK]
        assert valid == total

    def test_torn_tail_detected(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        self._write(path, 3)
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])  # tear the last record's tail
        records, valid, total = load_journal(str(path))
        assert len(records) == 2
        assert valid < total

    def test_corrupt_middle_stops_scan(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        self._write(path, 3)
        blob = bytearray(path.read_bytes())
        second = blob.index(b"\n") + 15
        blob[second] ^= 0x01
        path.write_bytes(bytes(blob))
        records, _, _ = load_journal(str(path))
        assert len(records) == 1  # everything after the damage is untrusted

    def test_repair_truncates_to_valid_prefix(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        self._write(path, 3)
        blob = path.read_bytes()
        path.write_bytes(blob + b"deadbeef garbage with no newline")
        records, truncated = repair_journal(str(path))
        assert len(records) == 3
        assert truncated == len(b"deadbeef garbage with no newline")
        # Idempotent: a second repair finds nothing to cut.
        records2, truncated2 = repair_journal(str(path))
        assert len(records2) == 3 and truncated2 == 0


class TestManifest:
    def _manifest(self, assembly, request, chunk_size=CHUNK):
        return RunManifest.from_search(assembly, request, chunk_size)

    def test_fingerprint_deterministic(self, tiny_assembly,
                                       short_request):
        a = self._manifest(tiny_assembly, short_request)
        b = self._manifest(tiny_assembly, short_request)
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_covers_request(self, tiny_assembly,
                                        short_request):
        base = self._manifest(tiny_assembly, short_request).fingerprint()
        other_queries = SearchRequest(
            pattern=short_request.pattern,
            queries=[Query("GACGTCNN", 1)])
        assert self._manifest(
            tiny_assembly, other_queries).fingerprint() != base
        assert self._manifest(
            tiny_assembly, short_request,
            chunk_size=CHUNK * 2).fingerprint() != base

    def test_fingerprint_covers_genome(self, tiny_assembly,
                                       small_assembly, short_request):
        assert self._manifest(
            tiny_assembly, short_request).fingerprint() != self._manifest(
            small_assembly, short_request).fingerprint()


class TestSessionLifecycle:
    def test_resume_without_directory_refused(self, tiny_assembly,
                                              short_request, monkeypatch):
        monkeypatch.delenv(CHECKPOINT_ENV, raising=False)
        policy = ExecutionPolicy(streaming=False, resume=True)
        with pytest.raises(CheckpointError, match="no checkpoint"):
            resolve_session(policy, tiny_assembly, short_request, CHUNK)

    def test_no_directory_means_no_session(self, tiny_assembly,
                                           short_request, monkeypatch):
        monkeypatch.delenv(CHECKPOINT_ENV, raising=False)
        policy = ExecutionPolicy(streaming=False)
        assert resolve_session(policy, tiny_assembly, short_request,
                               CHUNK) is None

    def test_environment_activates_checkpointing(self, tmp_path,
                                                 tiny_assembly,
                                                 short_request,
                                                 monkeypatch):
        monkeypatch.setenv(CHECKPOINT_ENV, str(tmp_path / "ckpt"))
        session = resolve_session(None, tiny_assembly, short_request,
                                  CHUNK)
        try:
            assert session is not None
            assert os.path.exists(session.manifest_path)
        finally:
            session.close()

    def test_mismatched_fingerprint_refuses_resume(self, tmp_path,
                                                   tiny_assembly,
                                                   short_request):
        directory = str(tmp_path / "ckpt")
        manifest = RunManifest.from_search(tiny_assembly, short_request,
                                           CHUNK)
        CheckpointSession(directory, manifest).close()
        other = RunManifest.from_search(tiny_assembly, short_request,
                                        CHUNK * 2)
        with pytest.raises(CheckpointMismatchError, match="refusing"):
            CheckpointSession(directory, other, resume=True)

    def test_fresh_session_truncates_stale_journal(self, tmp_path,
                                                   tiny_assembly,
                                                   short_request):
        directory = tmp_path / "ckpt"
        manifest = RunManifest.from_search(tiny_assembly, short_request,
                                           CHUNK)
        session = CheckpointSession(str(directory), manifest)
        session.record(_FakeChunk(start=0), _sample_output())
        session.close()
        assert load_journal(str(directory / JOURNAL_NAME))[0]
        CheckpointSession(str(directory), manifest).close()  # no resume
        assert load_journal(str(directory / JOURNAL_NAME))[0] == []

    def test_invalid_restore_recomputed(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        manifest = RunManifest("g", (("chr1", 100),), "NNNRG",
                               (("ACGTN", 1),), CHUNK)
        session = CheckpointSession(directory, manifest)
        session.record(_FakeChunk(scan_length=100), _sample_output())
        session.close()
        resumed = CheckpointSession(directory, manifest, resume=True)
        try:
            assert resumed.restored_count == 1
            # Live chunk disagrees on scan length: record is dropped.
            assert resumed.restore(_FakeChunk(scan_length=999)) is None
            assert resumed.restore(_FakeChunk(scan_length=100)) is None
        finally:
            resumed.close()


def _policy(**kw) -> ExecutionPolicy:
    kw.setdefault("batch_queries", False)
    return ExecutionPolicy(**kw)


class TestResumeEquivalence:
    """Interrupted-and-resumed runs are byte-identical to clean runs."""

    def _baseline(self, assembly, request):
        return search(assembly, request, chunk_size=CHUNK)

    def _journal_len(self, directory):
        return len(load_journal(os.path.join(directory,
                                             JOURNAL_NAME))[0])

    def test_serial_full_resume_skips_all_chunks(self, tmp_path,
                                                 tiny_assembly,
                                                 short_request):
        directory = str(tmp_path / "ckpt")
        baseline = self._baseline(tiny_assembly, short_request)
        first = search(tiny_assembly, short_request, chunk_size=CHUNK,
                       execution=_policy(streaming=False,
                                         checkpoint_dir=directory))
        assert first.hits == baseline.hits
        chunks = first.workload.chunk_count
        assert self._journal_len(directory) == chunks
        recorder = tracing.TraceRecorder()
        with tracing.recording(recorder):
            resumed = search(tiny_assembly, short_request,
                             chunk_size=CHUNK,
                             execution=_policy(streaming=False,
                                               checkpoint_dir=directory,
                                               resume=True))
        assert resumed.hits == baseline.hits
        assert resumed.launches == []  # no kernel ran
        skips = [s for s in recorder.spans()
                 if s.name == "checkpoint_skip"]
        assert len(skips) == chunks
        assert any(s.name == "checkpoint_restore"
                   for s in recorder.spans())

    @pytest.mark.parametrize("resume_policy", [
        dict(streaming=False),
        dict(streaming=True, workers=1),
        dict(streaming=True, workers=2),
    ])
    def test_journal_is_portable_across_execution_paths(
            self, tmp_path, tiny_assembly, short_request, resume_policy):
        """A journal written by one path resumes under any other."""
        directory = str(tmp_path / "ckpt")
        baseline = self._baseline(tiny_assembly, short_request)
        search(tiny_assembly, short_request, chunk_size=CHUNK,
               execution=_policy(streaming=True, workers=2,
                                 checkpoint_dir=directory))
        resumed = search(tiny_assembly, short_request, chunk_size=CHUNK,
                         execution=_policy(checkpoint_dir=directory,
                                           resume=True, **resume_policy))
        assert resumed.hits == baseline.hits
        assert resumed.launches == []

    def test_resume_refuses_masked_twin(self, tmp_path, tiny_assembly,
                                        short_request):
        """The manifest covers the bases: a twin with the same names
        and lengths but bases 100-399 of each chromosome set to ``N``
        cannot resume the original's checkpoint."""
        directory = str(tmp_path / "ckpt")
        search(tiny_assembly, short_request, chunk_size=CHUNK,
               execution=_policy(streaming=False,
                                 checkpoint_dir=directory))
        masked = []
        for chrom in tiny_assembly.chromosomes:
            sequence = chrom.sequence.copy()
            sequence[100:400] = ord("N")
            masked.append(Chromosome(chrom.name, sequence))
        twin = Assembly(tiny_assembly.name, masked)
        with pytest.raises(CheckpointMismatchError, match="refusing"):
            search(twin, short_request, chunk_size=CHUNK,
                   execution=_policy(streaming=False,
                                     checkpoint_dir=directory,
                                     resume=True))

    def test_partial_journal_recomputes_only_missing(self, tmp_path,
                                                     tiny_assembly,
                                                     short_request):
        directory = str(tmp_path / "ckpt")
        baseline = self._baseline(tiny_assembly, short_request)
        search(tiny_assembly, short_request, chunk_size=CHUNK,
               execution=_policy(streaming=False,
                                 checkpoint_dir=directory))
        journal = os.path.join(directory, JOURNAL_NAME)
        with open(journal, "rb") as handle:
            lines = handle.readlines()
        assert len(lines) >= 3
        kept = len(lines) - 2  # drop the last two completed chunks
        with open(journal, "wb") as handle:
            handle.writelines(lines[:kept])
        recorder = tracing.TraceRecorder()
        with tracing.recording(recorder):
            resumed = search(tiny_assembly, short_request,
                             chunk_size=CHUNK,
                             execution=_policy(streaming=False,
                                               checkpoint_dir=directory,
                                               resume=True))
        assert resumed.hits == baseline.hits
        assert resumed.launches != []  # the two dropped chunks re-ran
        skips = [s for s in recorder.spans()
                 if s.name == "checkpoint_skip"]
        writes = [s for s in recorder.spans()
                  if s.name == "checkpoint_write"]
        assert len(skips) == kept
        assert len(writes) == 2
        # The journal is whole again afterwards.
        assert self._journal_len(directory) == len(lines)

    def test_torn_tail_repaired_on_resume(self, tmp_path, tiny_assembly,
                                          short_request):
        directory = str(tmp_path / "ckpt")
        baseline = self._baseline(tiny_assembly, short_request)
        search(tiny_assembly, short_request, chunk_size=CHUNK,
               execution=_policy(streaming=False,
                                 checkpoint_dir=directory))
        journal = os.path.join(directory, JOURNAL_NAME)
        blob = open(journal, "rb").read()
        total = self._journal_len(directory)
        # Simulate SIGKILL mid-append: the last record is half-written.
        open(journal, "wb").write(blob[:-40])
        resumed = search(tiny_assembly, short_request, chunk_size=CHUNK,
                         execution=_policy(streaming=False,
                                           checkpoint_dir=directory,
                                           resume=True))
        assert resumed.hits == baseline.hits
        assert self._journal_len(directory) == total

    def test_process_backend_resumes(self, tmp_path, tiny_assembly,
                                     short_request):
        directory = str(tmp_path / "ckpt")
        baseline = self._baseline(tiny_assembly, short_request)
        search(tiny_assembly, short_request, chunk_size=CHUNK,
               execution=_policy(streaming=False,
                                 checkpoint_dir=directory))
        resumed = search(tiny_assembly, short_request, chunk_size=CHUNK,
                         execution=_policy(streaming=True, workers=2,
                                           backend="process",
                                           checkpoint_dir=directory,
                                           resume=True))
        assert resumed.hits == baseline.hits
        assert resumed.launches == []


INPUT = """\
ignored-genome-line
NNNNNNNNNNNNNNNNNNNNNRG
GGCCGACCTGTCGCTGACGCNNN 6
CGCCAGCGTCAGCGACAGGTNNN 6
"""


def _cli(tmp_path, *extra, check=True):
    input_file = tmp_path / "input.txt"
    if not input_file.exists():
        input_file.write_text(INPUT)
    env = dict(os.environ, PYTHONPATH="src")
    env.pop(CHECKPOINT_ENV, None)
    argv = [sys.executable, "-m", "repro.cli", str(input_file),
            "--synthetic", "hg19", "--scale", "0.0003",
            "--chunk-size", str(1 << 18), *extra]
    return subprocess.run(argv, cwd=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        env=env, capture_output=True, text=True, check=check,
        timeout=600)


@pytest.mark.slow
class TestKillAndResume:
    def test_sigkill_mid_run_then_resume_is_byte_identical(self,
                                                           tmp_path):
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        input_file = tmp_path / "input.txt"
        input_file.write_text(INPUT)
        clean_out = tmp_path / "clean.tsv"
        _cli(tmp_path, "-o", str(clean_out))

        ckpt = tmp_path / "ckpt"
        out = tmp_path / "resumed.tsv"
        env = dict(os.environ, PYTHONPATH="src")
        env.pop(CHECKPOINT_ENV, None)
        # Stall chunk 4 for two minutes: the journal reaches exactly 4
        # records and then goes quiescent, so the SIGKILL lands at a
        # deterministic point mid-run.
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", str(input_file),
             "--synthetic", "hg19", "--scale", "0.0003",
             "--chunk-size", str(1 << 18), "--streaming",
             "--fault-inject", "stall@4:120",
             "--checkpoint-dir", str(ckpt), "-o", str(out)],
            cwd=repo, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        journal = ckpt / JOURNAL_NAME
        deadline = time.time() + 120
        try:
            while time.time() < deadline:
                if journal.exists() and len(
                        load_journal(str(journal))[0]) >= 4:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("victim never journaled 4 chunks")
            time.sleep(0.2)  # let any in-flight fsync settle
            os.kill(victim.pid, signal.SIGKILL)
        finally:
            victim.wait(timeout=30)
        assert not out.exists(), "killed run must not produce output"
        assert len(load_journal(str(journal))[0]) == 4

        trace = tmp_path / "trace.json"
        _cli(tmp_path, "--streaming", "--checkpoint-dir", str(ckpt),
             "--resume", "--trace", str(trace), "-o", str(out))
        assert out.read_bytes() == clean_out.read_bytes()
        events = json.loads(trace.read_text())["traceEvents"]
        skips = [e for e in events if e["name"] == "checkpoint_skip"]
        assert len(skips) == 4
        assert any(e["name"] == "checkpoint_restore" for e in events)

    def test_resume_refuses_different_request(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        _cli(tmp_path, "--checkpoint-dir", str(ckpt), "-o",
             str(tmp_path / "a.tsv"))
        other = tmp_path / "other.txt"
        other.write_text(INPUT.replace(" 6\n", " 5\n", 1))
        env = dict(os.environ, PYTHONPATH="src")
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", str(other),
             "--synthetic", "hg19", "--scale", "0.0003",
             "--chunk-size", str(1 << 18), "--checkpoint-dir", str(ckpt),
             "--resume", "-o", str(tmp_path / "b.tsv")],
            cwd=repo, env=env, capture_output=True, text=True,
            timeout=600)
        assert proc.returncode != 0
        assert "refusing to resume" in proc.stderr


class TestCliFlags:
    def test_resume_without_directory_is_an_error(self, tmp_path,
                                                  monkeypatch):
        from repro.cli import main
        monkeypatch.delenv(CHECKPOINT_ENV, raising=False)
        input_file = tmp_path / "input.txt"
        input_file.write_text(INPUT)
        with pytest.raises(SystemExit, match="--resume needs"):
            main([str(input_file), "--synthetic", "hg19",
                  "--scale", "0.0003", "--resume"])

    def test_bitparallel_rejects_checkpoint_flags(self, tmp_path):
        from repro.cli import main
        input_file = tmp_path / "input.txt"
        input_file.write_text(INPUT)
        with pytest.raises(SystemExit, match="--checkpoint-dir"):
            main([str(input_file), "--synthetic", "hg19",
                  "--engine", "bitparallel",
                  "--checkpoint-dir", str(tmp_path / "ckpt")])
