"""Run manifests and checkpoint sessions.

A :class:`RunManifest` fingerprints everything that determines a
search's chunk stream and results: the genome's identity (assembly name
plus every chromosome's name, length and SHA-256 of its bases), the PAM
pattern, the queries with their mismatch thresholds, and the chunk
size.  Two runs with the same fingerprint enumerate byte-identical
chunks in the same order, so a per-chunk journal written by one run can
be replayed by the other.

A :class:`CheckpointSession` binds a manifest to a directory holding
``manifest.json`` and ``journal.jsonl``:

* **fresh** (``resume=False``) — the manifest is written atomically
  (temp file + rename) and any previous journal is truncated;
* **resume** (``resume=True``) — the stored fingerprint must match
  (:class:`CheckpointMismatchError` otherwise), the journal's corrupt
  or torn tail is repaired to the last valid record, and every valid
  record becomes a restorable chunk output.

Execution paths (serial loop, streaming engine, multi-device searcher)
then call :meth:`CheckpointSession.restore` before running a chunk's
kernels — a hit skips the kernels entirely — and
:meth:`CheckpointSession.record` after merging a freshly computed
chunk.  Restores are validated against the live chunk (scan length
must match) and invalid records are recomputed, never trusted.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..core.pipeline import _ChunkOutput
from ..genome.assembly import Chunk
from ..observability import tracing
from .journal import (JOURNAL_NAME, JournalWriter, make_record,
                      repair_journal, unpack_output)

#: Environment variable consulted when no policy names a directory.
CHECKPOINT_ENV = "REPRO_CHECKPOINT_DIR"

#: Manifest file name inside a checkpoint directory.
MANIFEST_NAME = "manifest.json"

#: Version 2 added each chromosome's SHA-256; a version-1 checkpoint
#: has another fingerprint, so a resume refuses it.
MANIFEST_VERSION = 2


class CheckpointError(RuntimeError):
    """Raised for unusable checkpoint state or configuration."""


class CheckpointMismatchError(CheckpointError):
    """The stored manifest fingerprint does not match this run."""


@dataclass(frozen=True)
class RunManifest:
    """Fingerprintable description of one search's chunk stream."""

    genome: str
    #: ``(name, length, SHA-256 of the bases)`` per chromosome.
    chromosomes: Tuple[Tuple[str, int, str], ...]
    pattern: str
    queries: Tuple[Tuple[str, int], ...]
    chunk_size: int

    @classmethod
    def from_search(cls, assembly, request, chunk_size: int
                    ) -> "RunManifest":
        """Build the manifest for ``search(assembly, request)``.

        Accepts any assembly-like object exposing ``name`` and
        ``chromosomes`` (including the engine's shard/subset views,
        which proxy the full assembly's identity — so every share of a
        multi-device run agrees on one fingerprint).
        """
        return cls(
            genome=assembly.name,
            chromosomes=tuple((chrom.name, len(chrom), chrom.sha256())
                              for chrom in assembly.chromosomes),
            pattern=request.pattern,
            queries=tuple((q.sequence, q.max_mismatches)
                          for q in request.queries),
            chunk_size=int(chunk_size))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": MANIFEST_VERSION,
            "genome": self.genome,
            "chromosomes": [list(pair) for pair in self.chromosomes],
            "pattern": self.pattern,
            "queries": [list(pair) for pair in self.queries],
            "chunk_size": self.chunk_size,
        }

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON form of the manifest."""
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("ascii")).hexdigest()


def _atomic_write_json(path: str, payload: Dict[str, Any]) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".manifest-",
                               suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="ascii") as handle:
            json.dump(payload, handle, sort_keys=True, indent=2)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class CheckpointSession:
    """Durable progress state for one (possibly interrupted) search.

    Thread-safe: the streaming engine's workers call :meth:`restore`
    concurrently while the merging thread calls :meth:`record`.
    """

    def __init__(self, directory: str, manifest: RunManifest,
                 resume: bool = False):
        self.directory = os.fspath(directory)
        self.manifest = manifest
        self.resume = resume
        self.repaired_bytes = 0
        os.makedirs(self.directory, exist_ok=True)
        self.manifest_path = os.path.join(self.directory, MANIFEST_NAME)
        self.journal_path = os.path.join(self.directory, JOURNAL_NAME)
        self._lock = threading.Lock()
        self._restored: Dict[Tuple[str, int], Dict[str, Any]] = {}
        self._completed: set = set()
        if resume and os.path.exists(self.manifest_path):
            self._load_existing()
        else:
            self._start_fresh()
        self._writer = JournalWriter(self.journal_path)

    # -- construction ---------------------------------------------------

    def _load_existing(self) -> None:
        try:
            with open(self.manifest_path, "r", encoding="ascii") as fh:
                stored = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"unreadable checkpoint manifest "
                f"{self.manifest_path!r}: {exc}") from exc
        fingerprint = self.manifest.fingerprint()
        stored_fp = stored.get("fingerprint")
        if stored_fp != fingerprint:
            raise CheckpointMismatchError(
                f"checkpoint at {self.directory!r} was written by a "
                f"different run (stored fingerprint {stored_fp!r}, this "
                f"run {fingerprint!r}); refusing to resume — pass a "
                f"fresh --checkpoint-dir or drop --resume to overwrite")
        records, self.repaired_bytes = repair_journal(self.journal_path)
        for record in records:
            key = (record["chrom"], int(record["start"]))
            self._restored[key] = record
            self._completed.add(key)
        tracing.instant("checkpoint_restore", cat="checkpoint",
                        records=len(records),
                        repaired_bytes=self.repaired_bytes)

    def _start_fresh(self) -> None:
        _atomic_write_json(self.manifest_path, {
            "fingerprint": self.manifest.fingerprint(),
            **self.manifest.to_dict()})
        # Truncate any stale journal from an earlier, different run.
        with open(self.journal_path, "wb"):
            pass

    # -- progress queries ----------------------------------------------

    @staticmethod
    def key(chunk: Chunk) -> Tuple[str, int]:
        """A chunk's durable identity: (chromosome, start offset)."""
        return (chunk.chrom, int(chunk.start))

    @property
    def restored_count(self) -> int:
        with self._lock:
            return len(self._restored)

    def has(self, chunk: Chunk) -> bool:
        with self._lock:
            return self.key(chunk) in self._completed

    def restore(self, chunk: Chunk) -> Optional[_ChunkOutput]:
        """Replayable output for ``chunk``, or None to recompute.

        A journaled record whose scan length disagrees with the live
        chunk (or whose payload fails validation) is dropped — the
        chunk is recomputed and re-journaled rather than trusted.
        """
        key = self.key(chunk)
        with self._lock:
            record = self._restored.get(key)
        if record is None:
            return None
        try:
            if int(record["scan_length"]) != int(chunk.scan_length):
                raise ValueError(
                    f"scan length {record['scan_length']} != "
                    f"{chunk.scan_length}")
            output = unpack_output(record["output"])
        except (KeyError, TypeError, ValueError) as exc:
            with self._lock:
                self._restored.pop(key, None)
                self._completed.discard(key)
            tracing.instant("checkpoint_invalid", cat="checkpoint",
                            chrom=chunk.chrom, start=int(chunk.start),
                            error=str(exc))
            return None
        return output

    # -- journal writes -------------------------------------------------

    def record(self, chunk: Chunk, output: _ChunkOutput,
               device: Optional[str] = None,
               reassigned_from: Optional[str] = None) -> None:
        """Durably journal one freshly computed chunk."""
        key = self.key(chunk)
        with self._lock:
            if key in self._completed:
                return
            self._completed.add(key)
        self._writer.append(make_record(
            chunk, output, device=device,
            reassigned_from=reassigned_from))

    def close(self) -> None:
        self._writer.close()

    def __enter__(self) -> "CheckpointSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def resolve_session(policy, assembly, request, chunk_size: int
                    ) -> Optional[CheckpointSession]:
    """Build the session a policy (or the environment) asks for.

    ``policy.checkpoint_dir`` wins; when it is unset, the
    ``REPRO_CHECKPOINT_DIR`` environment variable is consulted, so
    long-running deployments can turn durability on without touching
    call sites.  Returns None when neither names a directory.
    """
    directory = getattr(policy, "checkpoint_dir", None)
    resume = bool(getattr(policy, "resume", False))
    if directory is None:
        directory = os.environ.get(CHECKPOINT_ENV) or None
    if not directory:
        if resume:
            raise CheckpointError(
                "resume requested but no checkpoint directory is "
                "configured (set checkpoint_dir or REPRO_CHECKPOINT_DIR)")
        return None
    manifest = RunManifest.from_search(assembly, request, chunk_size)
    return CheckpointSession(directory, manifest, resume=resume)
